"""Verification of the entanglement claims: stabilizer suite, appendix
equivalences, UBES unlocking, partial-transpose evidence, permutation
(a)symmetry, and LU-invariant fingerprints.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import channels, opsbasis, protocols, statealg
from .channels import BellMixture, channel_labels
from .errors import DimensionError, LabelError
from .statealg import Cut, DensityOperator, PureState


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
    """All d^2 expectations tr(S^{mn} rho) under the canonical assignment."""
    minus, plus = stabilizer_groups(N)
    return {
        (m, n): opsbasis.stabilizer_expectation(state, m, n, minus, plus)
        for m in range(d)
        for n in range(d)
    }


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


def verify_appendix_c(d: int, N: int) -> tuple[float, bool]:
    """|overlap| of the relabeled telecloning state with the beta channel.

    Passes when the overlap modulus is 1 for d = 2 and strictly below
    1 - 1e-6 for d > 2.
    """
    tele = channels.telecloning_channel(d, N)
    relabeled = statealg.permute(tele, appendix_c_relabeling(N))
    relabeled = statealg.reorder(relabeled, channel_labels(N))
    beta = channels.beta_weighted_channel(d, N)
    ov = abs(statealg.overlap(relabeled, beta))
    if d == 2:
        return ov, ov >= 1 - 1e-9
    return ov, ov < 1 - 1e-6


# ---------------------------------------------------------------------------
# UBES: unlocking, PPT evidence, symmetry

@dataclass
class UnlockOutcome:
    outcomes: tuple
    probability: float
    purity: float
    pair_entropy: float
    bell_overlap: float  # largest |<B^{mn}|rho|B^{mn}>| style fidelity

    @property
    def is_bell(self) -> bool:
        return self.purity > 1 - 1e-9 and self.bell_overlap > 1 - 1e-9


def unlock_ubes(d: int, N: int, mode: str = "all-branches",
                rng: np.random.Generator | None = None, trials: int = 20) -> list:
    """Joint GBMs on pairs (A'_s, s'), s = 2..N, then inspect (A'_1, 1').

    The conditional pair state is aggregated over the Smolin-like mixture
    components for each joint outcome, so a mixed conditional would show up
    as purity < 1. The claim is that every outcome leaves a generalized
    Bell state on (A'_1, 1').
    """
    pairs = [(f"A'_{s}", f"{s}'") for s in range(2, N + 1)]
    digits = (d,) * (2 * len(pairs))  # outcome code: the (m, n) digits in plan order
    statealg.check_size("unlock table bytes", 16 * d ** len(digits) * d**4)
    tuples, weights, _ = channels.preset_spec("smolin", d, N).mixture()
    joint = protocols.Joint.bell_mixture(None, d, N, tuples, weights)
    outs, prob, pair_reg, vecs = protocols.execute(joint, pairs, "all-branches")
    # codes repeat across components: np.add.at sums them, a fancy += would not
    codes = np.ravel_multi_index(outs.reshape(len(prob), -1).T, digits)
    mats = np.zeros((d ** len(digits), d * d, d * d), dtype=np.complex128)
    masses = np.zeros(d ** len(digits))
    np.add.at(mats, codes, prob[:, None, None] * (vecs[:, :, None] * vecs[:, None, :].conj()))
    np.add.at(masses, codes, prob)
    seen = np.zeros(d ** len(digits), dtype=bool)
    seen[codes] = True
    reports = []
    for code in np.flatnonzero(seen):
        flat = [int(i) for i in np.unravel_index(code, digits)]
        outs = tuple(zip(flat[0::2], flat[1::2]))
        prob = float(masses[code])
        rho = DensityOperator(pair_reg, mats[code] / prob, validate=False)
        ent = statealg.von_neumann_entropy(statealg.partial_trace(rho, ["1'"]))
        best = 0.0
        for m in range(d):
            for n in range(d):
                b = opsbasis.bell_vector(d, m, n)
                best = max(best, float(np.real(np.vdot(b, rho.mat @ b))))
        reports.append(UnlockOutcome(outs, prob, rho.purity(), ent, best))
    if mode != "all-branches":
        if rng is None:
            rng = np.random.default_rng(0)
        probs = np.array([r.probability for r in reports])
        idx = rng.choice(len(reports), size=min(trials, len(reports)), replace=False,
                         p=probs / probs.sum())
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


def _bell_swap(d: int, N: int, pairs: list, x: int, y: int) -> np.ndarray:
    """M = E* (S E)^T: the swap S of labels x and y of the given pairs, in their Bell
    basis E (rows; the last channel pair turned as bell_products builds it)."""
    vecs = opsbasis.bell_bras(d).conj()
    E = functools.reduce(np.kron, [(vecs.transpose(0, 2, 1) if s == N - 1 else vecs)
                                   .reshape(d * d, -1) for s in pairs])
    SE = E.reshape((-1,) + (d,) * (2 * len(pairs))).swapaxes(1 + x, 1 + y).reshape(E.shape)
    return np.conjugate(E, out=E) @ SE.T


def _swap_distance(rho: BellMixture, a: str, b: str) -> float:
    """||rho - S rho S||_F for the swap S of labels a and b. With M the swap in the
    Bell basis of the p pairs it touches (_bell_swap) and W reshaped to (R, d^2p),
    those pairs last, the squared distance is sum_r ||diag(W_r) - M diag(W_r) M^dag||^2:
    a sum of squares in which no large terms cancel."""
    pos = rho.register.positions((a, b))
    pairs = sorted({p // 2 for p in pos})
    M = _bell_swap(rho.d, rho.N, pairs, *(2 * pairs.index(p // 2) + p % 2 for p in pos))
    axes = [2 * s + i for s in pairs for i in (0, 1)]
    W = np.moveaxis(rho.diagonal(), axes, range(-len(axes), 0)).reshape(-1, len(M))
    # M diag(W_r) is formed before M's buffer is reused for M^dag
    diff = (M * W[:, None, :]) @ np.conjugate(M, out=M).T
    diff.reshape(len(W), -1)[:, ::len(M) + 1] -= W  # the diagonal of every block
    return float(np.linalg.norm(diff))


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

@dataclass
class FingerprintReport:
    cut_entropies: dict  # frozenset(labels) -> entropy, for 1- and 2-subsets
    marginal_spectra: dict  # frozenset(labels) -> sorted eigenvalues

    def entropy_multiset(self, size: int) -> tuple:
        vals = [v for k, v in self.cut_entropies.items() if len(k) == size]
        return tuple(sorted(vals))


def fingerprint(state: PureState) -> FingerprintReport:
    """Entropies and marginal spectra over every 1- and 2-label subset."""
    labels = state.register.labels
    cut_entropies = {}
    spectra = {}
    subsets = [frozenset([l]) for l in labels]
    subsets += [
        frozenset([labels[i], labels[j]])
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
    ]
    for sub in subsets:
        rho = statealg.partial_trace(state, sorted(sub))
        spectra[sub] = tuple(np.round(np.linalg.eigvalsh(rho.mat), 12))
        cut_entropies[sub] = statealg.von_neumann_entropy(rho)
    return FingerprintReport(cut_entropies, spectra)


def compare_fingerprints(a: FingerprintReport, b: FingerprintReport, tol: float = 1e-6) -> bool:
    """True when the reports are LU-distinguishable (any multiset differs)."""
    for size in (1, 2):
        ea = np.array(a.entropy_multiset(size))
        eb = np.array(b.entropy_multiset(size))
        if ea.shape != eb.shape or (ea.size and np.abs(ea - eb).max() > tol):
            return True
        sa = sorted(tuple(v) for k, v in a.marginal_spectra.items() if len(k) == size)
        sb = sorted(tuple(v) for k, v in b.marginal_spectra.items() if len(k) == size)
        if len(sa) != len(sb):
            return True
        if sa and np.abs(np.array(sa) - np.array(sb)).max() > tol:
            return True
    return False
