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

and one input builder: random_covariant_bbar, a random orthonormal Bbar set
with the clone family's covariance, projected with opsbasis.weyl_monomial.
"""

import numpy as np

from qric import opsbasis, statealg
from qric.errors import DimensionError, LabelError
from qric.measurement import NULL_PROB, Branch, GbmOutcome
from qric.statealg import TOL, PureState


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
                        state.dim // (d * d))


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
