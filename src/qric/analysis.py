"""Verification of the entanglement claims: stabilizer suite, appendix
equivalences, dense Weyl/Bell identity oracles, UBES unlocking,
partial-transpose evidence, permutation (a)symmetry, and LU-invariant
entropy fingerprints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import log2

import numpy as np

from . import channels, opsbasis, statealg
from .channels import BellMixture, channel_labels
from .errors import DimensionError, LabelError
from .protocols import check_trials
from .statealg import Cut, PureState


def clone_fidelity_formula(d: int, N: int) -> float:
    """(2N + d - 1) / (N (d + 1)) - optimal universal 1->N clone fidelity."""
    if d < 2 or N < 2:
        raise DimensionError("formula needs d >= 2 and N >= 2")
    return (2 * N + d - 1) / (N * (d + 1))


# ---------------------------------------------------------------------------
# stabilizer suite

def stabilizer_groups(N: int) -> tuple[tuple, tuple]:
    """Canonical channel group assignment: U^{-m,n} on the first slot of every
    pair (A'_1..A'_{N-1} and N'), U^{m,n} on the second slots."""
    minus = tuple(f"A'_{s}" for s in range(1, N)) + (f"{N}'",)
    plus = tuple(f"{s}'" for s in range(1, N)) + (f"A'_{N}",)
    return minus, plus


def stabilizer_suite(state: PureState | BellMixture, d: int, N: int) -> dict:
    """All d^2 expectations tr(S^{mn} rho) under the canonical assignment.

    S^{mn} shifts every digit of |x> by n and multiplies it by w^{m L(x)}, where
    L(x) is the digit sum with the minus group's digits negated. So for a pure
    state <psi|S^{mn}|psi> = sum_j h_n[j] w^{mj}, with h_n[j] the sum of
    conj(psi(x + n)) psi(x) over the x with L(x) = j mod d: d shifts and d
    binnings give the whole table. Every Bell product |B_k> is an eigenstate of
    every S^{mn}, with eigenvalue w^{m v_k - n u_k} (u_k, v_k the sums of its
    phase and of its shift indices), so a BellMixture's table is
    sum_k C_k w^{m v_k - n u_k}.
    """
    minus, plus = stabilizer_groups(N)
    if isinstance(state, PureState):
        reg = state.register
        if sorted(minus + plus) != sorted(reg.labels):
            raise LabelError("group assignment must cover the register")
        digits = np.arange(reg.d)
        L = np.zeros(1, dtype=np.intp)
        for label in reg.labels:
            sign = -1 if label in minus else 1
            L = (L[:, None] + sign * digits).reshape(-1) % reg.d
        psi = state.amps.reshape((reg.d,) * reg.n)
        h = np.empty((reg.d, reg.d), dtype=np.complex128)  # h[n, j]
        for n in range(reg.d):
            terms = (np.roll(psi, -n, axis=tuple(range(reg.n))).conj() * psi).reshape(-1)
            h[n] = np.bincount(L, terms.real, reg.d) + 1j * np.bincount(L, terms.imag, reg.d)
        table = h @ opsbasis.omega_table(reg.d)[np.outer(digits, digits) % reg.d]  # [n, m]
        return {(m, n): complex(table[n, m]) for m in range(d) for n in range(d)}
    if state.N != N:
        raise LabelError("group assignment must cover the register")
    u, v = (state.tuples[:, i::2].sum(axis=1) for i in (0, 1))
    omega = opsbasis.omega_table(state.d)
    return {(m, n): complex(np.dot(state.weights, omega[(m * v - n * u) % state.d]))
            for m in range(d) for n in range(d)}


# ---------------------------------------------------------------------------
# appendix equivalences

def verify_appendix_b(d: int, N: int) -> float:
    """Max deviation between the k_even=0 uniform channel and the GHZ channel."""
    tuples = [k for k in channels.enumerate_constrained_tuples(d, N, 0, 0)
              if all(k[i] == 0 for i in range(1, 2 * N, 2))]
    table = [(k, 1.0 / len(tuples)) for k in tuples]
    spec = channels.ChannelSpec(kind="general-pure", d=d, N=N, u=0, v=0, table=table)
    built = channels.general_pure_channel(spec)
    ghz = channels.ghz_channel(d, N)
    return float(np.abs(built.amps - ghz.amps).max())


def appendix_c_relabeling(N: int) -> dict:
    """t' -> A'_N, N -> N', s -> s', A_s -> A'_s."""
    mapping = {"t'": f"A'_{N}", str(N): f"{N}'"}
    for s in range(1, N):
        mapping[str(s)] = f"{s}'"
        mapping[f"A_{s}"] = f"A'_{s}"
    return mapping


def verify_appendix_c(d: int, N: int, beta: PureState) -> float:
    """|overlap| of the relabeled telecloning state with the beta channel.

    Appendix C: it is 1 for d = 2 and below 1 for d > 2.
    """
    tele = channels.telecloning_channel(d, N)
    relabeled = statealg.permute(tele, appendix_c_relabeling(N))
    relabeled = statealg.reorder(relabeled, channel_labels(N))
    return abs(statealg.overlap(relabeled, beta))


# ---------------------------------------------------------------------------
# dense identity oracles: both sides as full amplitude arrays, one row per index tuple

def _rows(d: int, indices, batch=()):
    """Shape b of the indices broadcast with each other and with batch, and each
    index flattened to b's rows, mod d."""
    shape = np.broadcast_shapes(batch, *(np.shape(i) for i in indices))
    return shape, [np.broadcast_to(i, shape).reshape(-1) % d for i in indices]


def _max_per_row(shape, dev: np.ndarray):
    """The largest deviation of each row: an array of shape b, or a float when b = ()."""
    dev = dev.reshape(len(dev), -1).max(axis=1).reshape(shape)
    return float(dev) if shape == () else dev


def swap_identity_bytes(d: int, rows: int) -> int:
    """Bytes of each (rows, d, d, d, d) amplitude array of swap_identity_check."""
    return 16 * rows * d**4


def swap_identity_check(d: int, m, n, m2, n2):
    """Max amplitude deviation of the two-pair Bell rearrangement identity.

    |B^{m,n}>_{XY} |B^{m2,n2}>_{X'Y'} against
    (1/d) sum_{f,g} w^{fg} |B^{m+f,n2+g}>_{XY'} |B^{m2-f,n-g}>_{X'Y},
    both over (X, Y, X', Y'). The indices (ints or int arrays, taken mod d)
    broadcast together as in opsbasis.weyl_monomial; one deviation per row.
    Each amplitude is its left Bell factor times its right one, and the terms
    are added in (f, g) order, as a chain of krons would form them.
    """
    shape, (m, n, m2, n2) = _rows(d, (m, n, m2, n2))
    statealg.check_size("swap identity bytes", swap_identity_bytes(d, len(m)))
    kets = opsbasis.bell_bras(d).conj()  # row i*d + j: |B^{i,j}> over (first, second)
    omega = opsbasis.omega_table(d)
    lhs = kets[m * d + n][:, :, :, None, None] * kets[m2 * d + n2][:, None, None]
    rhs = np.zeros_like(lhs)
    for f in range(d):
        for g in range(d):
            xy2 = kets[(m + f) % d * d + (n2 + g) % d][:, :, None, None, :]
            x2y = kets[(m2 - f) % d * d + (n - g) % d].transpose(0, 2, 1)[:, None, :, :, None]
            rhs += omega[f * g % d] * (xy2 * x2y)
    rhs /= d
    return _max_per_row(shape, np.abs(lhs - rhs))


def teleport_identity_check(d: int, m, n, k, kp, phi):
    """Max amplitude deviation of the single-pair teleportation expansion.

    LHS: U^{-m,n}|phi>_N (x) |B^{k,k'}> built on (N', A'_N).
    RHS: (1/d) sum_{x,y} w^{n(m-k)+ky-nx} |B^{x+k-m, y+k'-n}>_{(N, A'_N)}
         (x) U^{-x,y}|phi>_{N'},
    both over (N, A'_N, N'). phi (..., d) holds unit vectors; its leading axes
    broadcast with the indices as in swap_identity_check. Each U|phi> is a
    dense matrix-vector product.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    shape, (m, n, k, kp) = _rows(d, (m, n, k, kp), phi.shape[:-1])
    phi = np.broadcast_to(phi, shape + (d,)).reshape(-1, d, 1)
    kets = opsbasis.bell_bras(d).conj()
    omega = opsbasis.omega_table(d)
    weyl = np.stack([opsbasis.weyl_u(d, -x, y) for x in range(d) for y in range(d)])
    lhs = (weyl[m * d + n] @ phi)[:, :, :, None] * kets[k * d + kp].transpose(0, 2, 1)[:, None]
    tails = (weyl @ phi[:, None])[:, :, None, None, :, 0]  # row x*d + y: U^{-x,y} phi
    rhs = np.zeros_like(lhs)
    for x in range(d):
        for y in range(d):
            bell = kets[(x + k - m) % d * d + (y + kp - n) % d][:, :, :, None]
            phase = omega[(n * (m - k) + k * y - n * x) % d][:, None, None, None]
            rhs += phase * (bell * tails[:, x * d + y])
    rhs /= d
    return _max_per_row(shape, np.abs(lhs - rhs))


# ---------------------------------------------------------------------------
# UBES: unlocking, PPT evidence, symmetry

@dataclass
class UnlockOutcome:
    outcomes: tuple
    probability: float
    purity: float
    pair_entropy: float
    bell_overlap: float  # largest |<B^{mn}|rho|B^{mn}>| style fidelity


def unlock_ubes(d: int, N: int, rng: np.random.Generator | None = None,
                trials: int | None = None, *, rho: BellMixture | None = None) -> list:
    """Joint GBMs on pairs (A'_s, s'), s = 2..N, then inspect (A'_1, 1').

    rho is the Smolin-like mixture by default. Measuring a pair of a Bell
    product in the Bell basis returns that pair's indices with certainty, so
    each joint outcome leaves (A'_1, 1') in the Bell-diagonal state whose
    weights are rho's diagonal W at those outcome indices. The last pair is
    built on (N', A'_N), so measured on (A'_N, N') it reads (m, -n). Per
    outcome with weights w: probability sum(w), purity sum(w^2) / p^2 and Bell
    overlap max(w) / p; the reduced state of either qudit of any Bell-diagonal
    pair is I/d, so the pair entropy is log2 d. The claim is that every
    outcome leaves a generalized Bell state on (A'_1, 1'): purity 1.
    Every outcome is reported, or with trials=T min(T, outcomes) distinct
    ones drawn from rng by probability.
    """
    check_trials(rng, trials)
    statealg.check_size("unlock Bell diagonal bytes", 8 * d ** (2 * N))
    if rho is None:
        rho = channels.preset_spec("smolin", d, N).build()
    w = rho.diagonal().reshape(d * d, -1)  # column: the (m, n) digits of pairs 2..N
    # per-outcome sums over W's columns, then the last pair's n -> -n on those, so that
    # no second table-sized array is made
    masses, squares, top = (
        np.take(a.reshape((d,) * (2 * N - 2)), -np.arange(d) % d, axis=-1).reshape(-1)
        for a in (w.sum(axis=0), np.einsum("ij,ij->j", w, w), w.max(axis=0)))
    codes = np.flatnonzero(masses > 0)
    masses = masses[codes]
    purity = squares[codes] / masses**2
    overlap = top[codes] / masses
    outs = np.stack(np.unravel_index(codes, (d,) * (2 * N - 2)), axis=1)
    reports = [UnlockOutcome(tuple(zip(o[0::2], o[1::2])), p, pur, log2(d), best)
               for o, p, pur, best in zip(outs.tolist(), masses.tolist(),
                                          purity.tolist(), overlap.tolist())]
    if trials is not None:
        idx = rng.choice(len(reports), size=min(trials, len(reports)), replace=False,
                         p=masses / masses.sum())
        reports = [reports[int(i)] for i in idx]
    return reports


def ppt_min_eigenvalue(rho: BellMixture, cut: Cut) -> float:
    """Minimum eigenvalue of rho partially transposed over cut.groupB, for a cut
    that keeps every channel pair (A'_s, s') whole; one that splits a pair raises
    LabelError. Transposing a whole pair maps each Bell state to its conjugate,
    another Bell state, so the partial transpose of any Bell-product mixture has
    the Bell-basis diagonal W as its spectrum: the minimum is W.min()."""
    cut.validate(rho.register)
    side = [l in cut.groupB for l in rho.register.labels]
    if side[0::2] != side[1::2]:
        raise LabelError("the cut splits a channel pair")
    return float(rho.diagonal().min())


@dataclass
class SymmetryReport:
    within_g1: dict
    within_g2: dict
    cross: dict

    def within_max(self) -> float:
        vals = list(self.within_g1.values()) + list(self.within_g2.values())
        return max(vals) if vals else 0.0

    def cross_max(self) -> float:
        return max(self.cross.values())


def _swap_distance(rho: BellMixture, a: str, b: str) -> float:
    """||rho - S rho S||_F for the swap S of labels a and b, from W alone.

    The two qudits of one pair: S|B^{m,n}> = w^{-mn}|B^{m,-n}>, a permutation
    of the Bell basis, so the distance is ||W - W[n -> -n]||. The same built
    slot of pairs a and b: by the Bell rearrangement identity S spreads each
    Bell product evenly over the d^2 with the same m_a + m_b and n_a + n_b, so
    ||rho - S rho S||^2 = sum_{i,l} |<B_i|S|B_l>|^2 (W_i - W_l)^2
                        = (1/d^2) sum_{f,g} ||W - W shifted by (f, g, -f, -g)||^2
    on the axes (m_a, n_a, m_b, n_b): a sum of squares, so nothing cancels.
    Any other pair of labels raises LabelError.
    """
    d, N, W = rho.d, rho.N, rho.diagonal()
    (pa, sa), (pb, sb) = (divmod(p, 2) for p in rho.register.positions((a, b)))
    # the last pair is built on (N', A'_N), its slots in reverse label order
    sa, sb = sa ^ (pa == N - 1), sb ^ (pb == N - 1)
    if pa == pb and sa != sb:
        return float(np.linalg.norm(W - np.take(W, -np.arange(d) % d, axis=2 * pa + 1)))
    if pa == pb or sa != sb:
        raise LabelError(f"no Bell-diagonal swap distance for labels {a} and {b}")
    axes = (2 * pa, 2 * pa + 1, 2 * pb, 2 * pb + 1)
    total = sum(np.sum((W - np.roll(W, (f, g, -f, -g), axes)) ** 2)
                for f in range(d) for g in range(d))
    return float(np.sqrt(total)) / d


def symmetry_report(rho: BellMixture, d: int, N: int) -> SymmetryReport:
    """Frobenius swap distances: within each slot group, plus A'_1 <-> 1'."""
    within = [{(a, b): _swap_distance(rho, a, b) for a, b in itertools.combinations(group, 2)}
              for group in stabilizer_groups(N)]
    return SymmetryReport(*within, {("A'_1", "1'"): _swap_distance(rho, "A'_1", "1'")})


def smolin_spectrum_check(rho: BellMixture) -> tuple[int, float]:
    """(rank, max deviation of nonzero eigenvalues from 1/d^{2(N-1)}) of the
    2N-qudit Smolin-like mixture rho, whose spectrum is its Bell-basis diagonal."""
    d, N = rho.d, rho.N
    vals = rho.diagonal().ravel()
    target = 1.0 / d ** (2 * (N - 1))
    nonzero = vals[vals > target / 2]
    rank = int(nonzero.size)
    dev = float(np.abs(nonzero - target).max()) if rank else float("inf")
    leak = float(np.abs(vals[vals <= target / 2]).max()) if rank < vals.size else 0.0
    return rank, max(dev, leak)


# ---------------------------------------------------------------------------
# LU-invariant fingerprints

# two entropies closer than this count as equal
FINGERPRINT_TOL = 1e-6


def entropy_gap(a: PureState, b: PureState) -> float:
    """The largest gap (bits) between the sorted entropies of a and of b over every
    1-label subset, and over every 2-label subset, of their registers (of one size).
    The entropies are LU invariants, so a gap above FINGERPRINT_TOL tells the states
    apart."""
    gap = 0.0
    for size in (1, 2):
        ea, eb = (sorted(statealg.entropy(s, sub)
                         for sub in itertools.combinations(s.register.labels, size))
                  for s in (a, b))
        gap = max(gap, float(np.abs(np.subtract(ea, eb)).max()))
    return gap
