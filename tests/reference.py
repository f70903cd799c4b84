"""Independent single-state oracles for the tests; not part of the package.

Each works on one state at a time with plain numpy einsum or dense
Kronecker products, so the package's batched paths (the weyl_monomial
gathers, kernels.project_bell_pairs, measurement.select_outcomes) are
checked against code that shares none of their index arithmetic:

- apply_single / apply_local: a d x d operator on one qudit (einsum)
- dense_local_operator: the full dim x dim embedding of that operator
- project_pair: <pair| contracted onto two qudits (einsum)
- gbm_branches / gbm_sample: the single-state GBM with the pair removed,
  every branch or one drawn by cumulative probability
- bbar_expansion: (1/sqrt d) sum_{m,n} beta_n Bbar_mn (x) (U^{-m,n} x)^(x L)
  as a kron loop over any (d, d, dim) Bbar array and beta

- state_joint: the plan executor's input (protocols.Joint) for one state
- unit_vector: one random unit vector of C^d from its own seed

- project_plan: one outcome per plan level, each pair projected onto its
  Bell bra in turn (the dense per-component path of a mixture run)
- ric_weyl_frame: the same run's component-to-base relabelling, leaf phase
  and Diana's correction from Z_d arithmetic alone, no state vectors

- unlock_ubes: the unlocking report by running the joint GBMs over each
  component's Bell product, one unframed plan run per component, and summing
  each outcome's conditional pair density (the package reads it off the
  Bell-basis diagonal W; the oracle shares no Weyl-frame arithmetic with RIC)
- swap_identity_check / teleport_identity_check: the two Weyl/Bell
  identities for one index tuple, each side a sum of PureState krons moved
  into one label order (the per-term loops the package's batched
  analysis checks replace)

test-only states: OccupationVector, symmetric_vector and symmetric_state
(the equal-weight superposition of every ordering of an occupation
multiset), basis_state (one computational-basis state) and phi_state (one
clone-basis state as a PureState),

and two input builders: random_covariant_bbar, a random orthonormal Bbar set
with the clone family's covariance, projected with opsbasis.weyl_monomial,
and sample, one drawn component of a channel spec as a dense state.

The dense form of a Bell-product mixture, which the package never builds, is
the oracle of its mixture analysis (analysis and opsbasis work from the
tuples and weights alone):

- density / mixed_channel / smolin_like: the d^2N x d^2N matrix
  sum_k C_k |v_k><v_k| of a channels.BellMixture or a mixed channel spec
- partial_transpose, ppt_min_eigenvalue: the transposed density and the
  minimum of its eigvalsh spectrum
- swap_distance, symmetry_report: ||rho - S rho S||_F with S taken as axis
  views of the density
- spectrum_check: rank and flat-spectrum deviation from eigvalsh
- stabilizer_expectation / stabilizer_suite: tr(S rho) read off the
  density's entries at weyl_monomial's columns, or <psi|S|psi> of a pure
  state as one weyl_monomial gather per (m, n) (the package bins the
  shifted products by the signed digit sum instead)
- permute: a density's subsystems moved by a relabeling

Where that density does not fit, two oracles work from a BellMixture's
amplitudes instead, still sharing none of the package's Z_d arithmetic:

- stabilizer_suite_from_rows: sum_k C_k <v_k|S|v_k> over the Bell-product
  rows, S as weyl_monomial's gathers
- bell_swap_distance: the swap as a dense matrix M in the Bell basis of the
  pairs it touches, sum_r ||diag(W_r) - M diag(W_r) M^dag||_F^2
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from qric import analysis, channels, opsbasis, protocols, statealg
from qric.errors import DimensionError, LabelError
from qric.measurement import NULL_PROB, Branch, GbmOutcome
from qric.statealg import TOL, DensityOperator, PureState, Register


def apply_single(amps, op, d, stride):
    """Apply a d x d operator on the qudit with the given index stride."""
    t = amps.reshape(-1, d, stride)
    return np.einsum("ab,ibj->iaj", op, t).reshape(-1)


def apply_local(state, op, target, *, check_unitary=False):
    """A single-qudit operator on `target` of a PureState."""
    op = np.asarray(op, dtype=np.complex128)
    d = state.d
    if op.shape != (d, d):
        raise DimensionError(f"operator must be {d}x{d}, got {op.shape}")
    if check_unitary and np.abs(op @ op.conj().T - np.eye(d)).max() > TOL:
        raise DimensionError("operator is not unitary")
    out = apply_single(state.amps, op, d, state.register.stride(target))
    return PureState(state.register, out, validate=False)


def dense_local_operator(register, op, target):
    """Full dim x dim embedding of a single-qudit operator."""
    d = register.d
    mats = [np.eye(d, dtype=np.complex128)] * register.n
    mats[register.position(target)] = np.asarray(op, dtype=np.complex128)
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def project_pair(amps, pair, d, stride1, stride2, n_left):
    """Contract <pair| onto the two qudits with strides stride1 > stride2.

    `pair` is the d*d pair-state amplitude vector; returns the n_left
    unnormalized residual amplitudes with both qudits removed.
    """
    dim = amps.shape[0]
    t = amps.reshape(dim // (stride1 * d), d, stride1 // (stride2 * d), d, stride2)
    P = pair.conj().reshape(d, d)
    return np.einsum("ab,iajbk->ijk", P, t).reshape(n_left)


def _residual(state, pair_amps, pair):
    """<pair_amps|_{pair} state, pair_amps indexed (first label, second label)."""
    d = state.d
    p1, p2 = state.register.positions(pair)
    if p1 == p2:
        raise LabelError("pair labels must be distinct")
    P = np.asarray(pair_amps, dtype=np.complex128).reshape(d, d)
    if p1 > p2:  # the kernel wants the left qudit first
        P = P.T
        p1, p2 = p2, p1
    n = state.register.n
    return project_pair(state.amps, P.reshape(-1), d, d ** (n - 1 - p1), d ** (n - 1 - p2),
                        state.register.dim // (d * d))


def gbm_branches(state, pair):
    """All d^2 branches of a GBM on the ordered pair, row-major in (m, n), pair removed."""
    d = state.d
    pair = tuple(pair)
    rest = statealg.drop_labels(state.register, pair)
    branches = []
    for m in range(d):
        for n in range(d):
            vec = _residual(state, opsbasis.bell_vector(d, m, n), pair)
            prob = float(np.real(np.vdot(vec, vec)))
            post = None if prob < NULL_PROB else PureState(rest, vec / np.sqrt(prob),
                                                           validate=False)
            branches.append(Branch(GbmOutcome(m, n, prob, pair), post))
    return branches


def gbm_sample(state, pair, rng):
    """One branch of gbm_branches, the first i with rng.random() * sum(p) <= cumsum(p)[i]."""
    branches = gbm_branches(state, pair)
    probs = np.array([br.outcome.probability for br in branches])
    r = float(rng.random()) * probs.sum()
    return branches[min(int(np.searchsorted(np.cumsum(probs), r)), len(probs) - 1)]


def random_covariant_bbar(d, pairs, rng):
    """(d, d, d^(2 pairs)) orthonormal covariant set: project random vectors onto each eigenspace.

    The (m, n) eigenspace projector is the sum over (k, l) of
    w^{-(lm-nk)} R^{k,l} (x) R^{-k,l}, up to a factor; all d^2 products form
    one (d^2, dim) gather table, so a projection is a gather and one product.
    """
    dim = d ** (2 * pairs)
    k, ell = np.divmod(np.arange(d * d), d)
    col, val = opsbasis.weyl_monomial(d, [("R", k, ell)] * pairs + [("R", -k, ell)] * pairs)
    out = np.empty((d, d, dim), dtype=np.complex128)
    for m in range(d):
        for n in range(d):
            raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            acc = opsbasis.omega_table(d)[-(ell * m - n * k) % d] @ (val * raw[col])
            out[m, n] = acc / np.linalg.norm(acc)
    return out


def bbar_expansion(bbar, beta, x, d, L):
    """The distributed-state sum, one kron per (m, n) in (m, n) order."""
    out = np.zeros(len(bbar[0, 0]) * d**L, dtype=np.complex128)
    for m in range(d):
        for n in range(d):
            tail = opsbasis.weyl_u(d, -m, n) @ x
            legs = tail
            for _ in range(L - 1):
                legs = np.kron(legs, tail)
            out += beta[n] * np.kron(bbar[m, n], legs)
    out /= np.sqrt(d)
    return out


def state_joint(state):
    """One state as the plan executor's base row, copied in."""
    return protocols.Joint(state.register, lambda out: np.copyto(out, state.amps), np.ones(1))


def unit_vector(d, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    return x / np.linalg.norm(x)


def project_plan(state, plan, outcomes):
    """The unnormalized residual PureState of state after <B^{m,n}| on each
    ordered pair of plan, outcome (m, n) per pair, pairs removed."""
    d = state.d
    for pair, (m, n) in zip(plan, outcomes):
        vec = _residual(state, opsbasis.bell_vector(d, m, n), pair)
        state = PureState(statealg.drop_labels(state.register, pair), vec, validate=False)
    return state


def ric_weyl_frame(d, N, k, outcomes):
    """(base outcomes, phase exponent, (x, y)) of a RIC run over |B^k>, from indices alone.

    outcomes are the 2N - 1 plan outcomes (m, n) of the run over |B^k>, k
    any 2N-tuple. Pair s < N is R^{k_2s-1, k_2s} on A'_s of |B^{0...0}>
    (indices from 1), the last pair U^{k_2N-1, k_2N} on A'_N, and
      <B^{a,b}|_(A'_s, A_s) R^{m,n}_{A'_s} = w^{n (a - m)} <B^{a-m, b-n}|,
      <B^{a,b}|_(N, A'_N)   U^{m,n}_{A'_N} = w^{m (b - n)} <B^{a-m, b-n}|,
    while Bob_s's pairs (s, s') meet no factor. So the run's leaf is w^phase
    times the leaf of the base run over |B^{0...0}> with the base outcomes,
    and Diana's correction is the base run's, the plain outcome sums mod d.
    """
    base, phase = [tuple(o) for o in outcomes[:N - 1]], 0
    for s, (a, b) in enumerate(outcomes[N - 1:], start=1):
        m, n = k[2 * s - 2], k[2 * s - 1]
        base.append(((a - m) % d, (b - n) % d))
        phase += n * (a - m) if s < N else m * (b - n)
    x = sum(o[0] for o in base) % d
    y = sum(o[1] for o in base) % d
    return base, phase % d, (x, y)


def sample(spec, rng):
    """(tuple, PureState) drawn from a channel spec's mixture; pure kinds return their state."""
    if not spec.is_mixed:
        return spec.c, spec.build()
    tuples, _, draw = spec.mixture()
    k = tuples[draw(rng)]
    return k, channels.product_bell_channel(spec.d, spec.N, k)


def density(mix):
    """The DensityOperator sum_k C_k |v_k><v_k| of a channels.BellMixture."""
    reg = mix.register
    statealg.check_size("density matrix bytes", 16 * reg.dim**2)
    vecs = channels.bell_products(mix.d, mix.N, mix.tuples)
    # sum_k C_k |v_k><v_k| as one (dim, K) @ (K, dim) product
    return DensityOperator(reg, (vecs.T * mix.weights) @ vecs.conj())


def mixed_channel(spec):
    """The density of a mixed or smolin-like channel spec."""
    return density(spec.build())


def smolin_like(d, N):
    """Uniform mixture over all u = v = 0 constrained Bell-product projectors."""
    return mixed_channel(channels.ChannelSpec(kind="smolin-like", d=d, N=N))


def partial_transpose(rho, transpose_labels):
    """Matrix of rho partially transposed over the given labels."""
    reg = rho.register
    n = reg.n
    perm = list(range(2 * n))
    for p in reg.positions(transpose_labels):
        perm[p], perm[n + p] = perm[n + p], perm[p]
    return np.transpose(rho.mat.reshape([reg.d] * (2 * n)), perm).reshape(reg.dim, reg.dim)


def ppt_min_eigenvalue(rho, cut):
    """Minimum eigenvalue of the partial transpose over cut.groupB."""
    cut.validate(rho.register)
    return float(np.linalg.eigvalsh(partial_transpose(rho, cut.groupB)).min())


def swap_distance(rho, a, b):
    """||rho - SWAP_ab rho SWAP_ab||_F, with the swap taken as axis views of rho."""
    reg = rho.register
    pa, pb = reg.position(a), reg.position(b)
    t = rho.mat.reshape([reg.d] * (2 * reg.n))
    swapped = t.swapaxes(pa, pb).swapaxes(reg.n + pa, reg.n + pb)
    return float(np.linalg.norm(t - swapped))


def symmetry_report(rho, d, N):
    """analysis.SymmetryReport of a density: within each slot group, plus A'_1 <-> 1'."""
    within = [{(a, b): swap_distance(rho, a, b) for a, b in itertools.combinations(group, 2)}
              for group in analysis.stabilizer_groups(N)]
    return analysis.SymmetryReport(*within, {("A'_1", "1'"): swap_distance(rho, "A'_1", "1'")})


def spectrum_check(rho):
    """(rank, max deviation of nonzero eigenvalues from 1/d^{2(N-1)}) of a
    2N-qudit density, from its eigvalsh spectrum."""
    d, N = rho.register.d, rho.register.n // 2
    vals = np.linalg.eigvalsh(rho.mat)
    target = 1.0 / d ** (2 * (N - 1))
    nonzero = vals[vals > target / 2]
    rank = int(nonzero.size)
    dev = float(np.abs(nonzero - target).max()) if rank else float("inf")
    leak = float(np.abs(vals[vals <= target / 2]).max()) if rank < vals.size else 0.0
    return rank, max(dev, leak)


def stabilizer_expectation(state, m, n, minus_labels, plus_labels):
    """<S^{mn}> of a PureState or a density, U^{-m,n} on minus_labels and
    U^{m,n} on plus_labels, with S^{mn} as weyl_monomial's (col, val): for a
    pure state sum_r conj(psi_r) val_r psi[col_r], its groups disjoint and
    covering the register; for a density sum_r val_r rho[col_r, r], U^{m,n}
    on every label outside minus_labels."""
    reg = state.register
    if isinstance(state, PureState):
        minus_labels, plus_labels = tuple(minus_labels), tuple(plus_labels)
        if set(minus_labels) & set(plus_labels):
            raise LabelError("stabilizer group assignment overlaps")
        if sorted(minus_labels + plus_labels) != sorted(reg.labels):
            raise LabelError("group assignment must cover the register")
    signs = [-1 if l in minus_labels else 1 for l in reg.labels]
    col, val = opsbasis.weyl_monomial(reg.d, [("U", s * m, n) for s in signs])
    if isinstance(state, PureState):
        return complex(np.vdot(state.amps, val * state.amps[col]))
    return complex(np.dot(val, state.mat[col, np.arange(reg.dim)]))


def stabilizer_suite(rho, d, N):
    """All d^2 expectations <S^{mn}> of a PureState or a density under the canonical
    assignment, one weyl_monomial gather per (m, n)."""
    minus, plus = analysis.stabilizer_groups(N)
    return {(m, n): stabilizer_expectation(rho, m, n, minus, plus)
            for m in range(d) for n in range(d)}


def permute(rho, relabeling):
    """The density with the content at label l moved to label relabeling[l]."""
    reg = rho.register
    new_labels = tuple(relabeling.get(l, l) for l in reg.labels)
    perm = [new_labels.index(l) for l in reg.labels]
    t = np.transpose(rho.mat.reshape([reg.d] * (2 * reg.n)), perm + [reg.n + p for p in perm])
    return DensityOperator(Register(reg.d, reg.labels), t.reshape(reg.dim, reg.dim))


def stabilizer_suite_from_rows(mix, d, N):
    """All d^2 tr(S^{mn} rho) of a channels.BellMixture under the canonical
    assignment: sum_k C_k <v_k|S|v_k> over the nonzero amplitudes of its
    Bell-product rows v_k, S as weyl_monomial's (col, val)."""
    minus, _ = analysis.stabilizer_groups(N)
    signs = [-1 if l in minus else 1 for l in mix.register.labels]
    rows = channels.bell_products(mix.d, mix.N, mix.tuples)
    k, r = np.nonzero(rows)  # only nonzero conj(v_kr) contribute
    out = {}
    for m in range(d):
        for n in range(d):
            col, val = opsbasis.weyl_monomial(d, [("U", s * m, n) for s in signs])
            out[(m, n)] = complex(np.dot(mix.weights[k] * rows[k, r].conj() * val[r],
                                         rows[k, col[r]]))
    return out


def bell_swap_distance(mix, a, b):
    """||rho - S rho S||_F of a channels.BellMixture for the swap S of labels a
    and b. M = E* (S E)^T is the swap in the Bell basis E (rows) of the p pairs
    it touches, the last channel pair turned as bell_products builds it; with W
    reshaped to (R, d^2p), those pairs last, the squared distance is
    sum_r ||diag(W_r) - M diag(W_r) M^dag||_F^2."""
    d, N = mix.d, mix.N
    pos = mix.register.positions((a, b))
    pairs = sorted({p // 2 for p in pos})
    x, y = (2 * pairs.index(p // 2) + p % 2 for p in pos)
    vecs = opsbasis.bell_bras(d).conj()
    E = functools.reduce(np.kron, [(vecs.transpose(0, 2, 1) if s == N - 1 else vecs)
                                   .reshape(d * d, -1) for s in pairs])
    SE = E.reshape((-1,) + (d,) * (2 * len(pairs))).swapaxes(1 + x, 1 + y).reshape(E.shape)
    M = E.conj() @ SE.T
    axes = [2 * s + i for s in pairs for i in (0, 1)]
    W = np.moveaxis(mix.diagonal(), axes, range(-len(axes), 0)).reshape(-1, len(M))
    diff = (M * W[:, None, :]) @ M.conj().T
    diff.reshape(len(W), -1)[:, ::len(M) + 1] -= W  # the diagonal of every block
    return float(np.linalg.norm(diff))


def unlock_ubes(d, N, rng=None, trials=None, *, rho=None):
    """analysis.unlock_ubes by running the protocol: joint GBMs on pairs
    (A'_s, s'), s = 2..N, over the Bell product of every component of rho (by
    default the Smolin-like mixture), each through protocols.execute with no
    Weyl frame; each outcome's conditional (A'_1, 1') density summed over the
    components with their weights, then its purity, the entropy of its 1'
    marginal (A'_1 traced out by einsum, the spectrum by eigvalsh), and its
    largest Bell-basis diagonal entry."""
    pairs = [(f"A'_{s}", f"{s}'") for s in range(2, N + 1)]
    digits = (d,) * (2 * len(pairs))  # outcome code: the (m, n) digits in plan order
    statealg.check_size("unlock table bytes", 16 * d ** (2 * N + 2))
    if rho is None:
        rho = channels.preset_spec("smolin", d, N).build()
    mats = np.zeros((d ** len(digits), d * d, d * d), dtype=np.complex128)
    masses = np.zeros(d ** len(digits))
    for k, weight in zip(rho.tuples, rho.weights):
        joint = state_joint(channels.product_bell_channel(d, N, k))
        outs, prob, pair_reg, vecs = protocols.execute(joint, pairs)
        assert pair_reg.labels == ("A'_1", "1'")
        # one leaf per outcome, so the codes of one component are distinct
        codes = np.ravel_multi_index(outs.reshape(len(prob), -1).T, digits)
        mats[codes] += weight * prob[:, None, None] * (vecs[:, :, None] * vecs[:, None, :].conj())
        masses[codes] += weight * prob
    bras = opsbasis.bell_bras(d).reshape(d * d, -1)  # row m*d + n: <B^{m,n}|
    reports = []
    for code in np.flatnonzero(masses > 0):
        flat = [int(i) for i in np.unravel_index(code, digits)]
        outs = tuple(zip(flat[0::2], flat[1::2]))
        prob = float(masses[code])
        mat = mats[code] / prob
        vals = np.linalg.eigvalsh(np.einsum("aiaj->ij", mat.reshape(d, d, d, d)))
        vals = vals[vals > 1e-14]
        ent = float(-np.sum(vals * np.log2(vals)))
        purity = float(np.real(np.trace(mat @ mat)))
        best = max(0.0, float(np.einsum("kx,xy,ky->k", bras, mat, bras.conj()).real.max()))
        reports.append(analysis.UnlockOutcome(outs, prob, purity, ent, best))
    if trials is not None:
        probs = np.array([r.probability for r in reports])
        idx = rng.choice(len(reports), size=min(trials, len(reports)), replace=False,
                         p=probs / probs.sum())
        reports = [reports[int(i)] for i in idx]
    return reports


def swap_identity_check(d, m, n, m2, n2):
    """|B^{m,n}>_{XY}|B^{m2,n2}>_{X'Y'} against
    (1/d) sum_{f,g} w^{fg} |B^{m+f,n2+g}>_{XY'}|B^{m2-f,n-g}>_{X'Y}: max amplitude deviation."""
    order = ("X", "Y", "X'", "Y'")
    lhs = statealg.tensor(opsbasis.bell_state(d, m, n, ("X", "Y")),
                          opsbasis.bell_state(d, m2, n2, ("X'", "Y'")))
    lhs = statealg.reorder(lhs, order)
    rhs = np.zeros(d**4, dtype=np.complex128)
    for f in range(d):
        for g in range(d):
            term = statealg.tensor(
                opsbasis.bell_state(d, (m + f) % d, (n2 + g) % d, ("X", "Y'")),
                opsbasis.bell_state(d, (m2 - f) % d, (n - g) % d, ("X'", "Y")),
            )
            rhs += opsbasis.omega_power(d, f * g) * statealg.reorder(term, order).amps
    rhs /= d
    return float(np.abs(lhs.amps - rhs).max())


def teleport_identity_check(d, m, n, k, kp, phi):
    """U^{-m,n}|phi>_N |B^{k,k'}>_{(N', A')} against (1/d) sum_{x,y}
    w^{n(m-k)+ky-nx} |B^{x+k-m, y+k'-n}>_{(N, A')} U^{-x,y}|phi>_{N'}: max amplitude deviation."""
    order = ("N", "A'", "N'")
    left = PureState(Register(d, ("N",)), opsbasis.weyl_u(d, -m, n) @ phi, validate=False)
    pair = opsbasis.bell_state(d, k, kp, ("N'", "A'"))
    lhs = statealg.reorder(statealg.tensor(left, pair), order)
    rhs = np.zeros(d**3, dtype=np.complex128)
    for x in range(d):
        for y in range(d):
            bell_part = opsbasis.bell_state(d, (x + k - m) % d, (y + kp - n) % d, ("N", "A'"))
            tail = PureState(Register(d, ("N'",)), opsbasis.weyl_u(d, -x, y) @ phi, validate=False)
            term = statealg.reorder(statealg.tensor(bell_part, tail), order)
            rhs += opsbasis.omega_power(d, n * (m - k) + k * y - n * x) * term.amps
    rhs /= d
    return float(np.abs(lhs.amps - rhs).max())


@dataclass(frozen=True)
class OccupationVector:
    """Particle counts per basis state; sum is the particle number N."""

    counts: tuple

    def __post_init__(self):
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if any(c < 0 for c in self.counts):
            raise DimensionError("occupation counts must be non-negative")

    @property
    def total(self):
        return sum(self.counts)


def symmetric_vector(d, counts):
    """Equal-weight superposition over all orderings of the occupation multiset,
    placed at the indices opsbasis._orderings gives (which phi_vector reads)."""
    counts = tuple(int(c) for c in counts)
    if len(counts) != d:
        raise DimensionError(f"need {d} occupation counts, got {len(counts)}")
    N = sum(counts)
    if N < 1:
        raise DimensionError("occupation must place at least one particle")
    v = np.zeros(d**N, dtype=np.complex128)
    idx = opsbasis._orderings(d, counts)
    v[idx] = 1.0
    return v / np.sqrt(idx.size)


def symmetric_state(d, occupation, labels):
    counts = occupation.counts if isinstance(occupation, OccupationVector) else tuple(occupation)
    labels = tuple(labels)
    if sum(counts) != len(labels):
        raise DimensionError("occupation total must match the number of labels")
    return PureState(Register(d, labels), symmetric_vector(d, counts), validate=False)


def basis_state(d, dits, labels):
    """Computational-basis state |dits> on the given labels."""
    reg = Register(d, tuple(labels))
    if len(dits) != reg.n:
        raise DimensionError("one dit per label required")
    amps = np.zeros(reg.dim, dtype=np.complex128)
    idx = 0
    for j in dits:
        if not 0 <= int(j) < d:
            raise DimensionError(f"dit {j} out of range for d={d}")
        idx = idx * d + int(j)
    amps[idx] = 1.0
    return PureState(reg, amps, validate=False)


def phi_state(d, N, j):
    return PureState(Register(d, opsbasis.clone_labels(N)), opsbasis.phi_vector(d, N, j),
                     validate=False)
