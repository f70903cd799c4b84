"""Projective generalized Bell-basis measurement (GBM) on labeled qudit pairs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, opsbasis, statealg
from .errors import LabelError, ProtocolError
from .statealg import PureState, Register

NULL_PROB = 1e-14


@dataclass(frozen=True)
class GbmOutcome:
    """One Bell outcome (m, n) on an ordered label pair."""

    m: int
    n: int
    probability: float
    pair: tuple[str, str]


@dataclass(frozen=True)
class Branch:
    """Measurement branch: outcome plus the conditional state (None if p ~ 0)."""

    outcome: GbmOutcome
    post_state: PureState | None

    @property
    def null(self) -> bool:
        return self.post_state is None


def _collapse(state: PureState, pair, m: int, n: int, vec, prob: float, remove: bool) -> Branch:
    """Branch for outcome (m, n) given its unnormalized residual and probability."""
    outcome = GbmOutcome(m, n, prob, pair)
    if prob < NULL_PROB:
        return Branch(outcome, None)
    if state.register.n == 2:
        # nothing would remain; both modes return the collapsed pair
        return Branch(outcome, opsbasis.bell_state(state.d, m, n, pair))
    rest = statealg.drop_labels(state.register, pair)
    residual = PureState(rest, vec / np.sqrt(prob), validate=False)
    if remove:
        return Branch(outcome, residual)
    # retain: pair collapsed onto its Bell state, back at the original positions
    collapsed = statealg.tensor(opsbasis.bell_state(state.d, m, n, pair), residual)
    return Branch(outcome, statealg.reorder(collapsed, state.register.labels))


def _checked_pair(register: Register, pair) -> tuple:
    pair = tuple(pair)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise LabelError("GBM needs two distinct labels")
    register.positions(pair)  # raises on unknown labels
    return pair


def gbm_branches(state: PureState, pair, *, remove: bool = False) -> list[Branch]:
    """All d^2 branches of a GBM on the ordered pair, row-major in (m, n),
    from one bell_projections call on the state as a batch of one row."""
    pair = _checked_pair(state.register, pair)
    d = state.d
    residuals = bell_projections(state.amps[None], state.register, pair)[0]
    return [
        _collapse(state, pair, *divmod(k, d), vec, float(np.vdot(vec, vec).real), remove)
        for k, vec in enumerate(residuals)
    ]


def select_outcomes(projected: np.ndarray, uniforms: np.ndarray | None = None,
                    at: np.ndarray | None = None, into: np.ndarray | None = None,
                    order: np.ndarray | None = None):
    """Keep every non-null outcome of each row, or the outcomes pre-drawn uniforms pick.

    projected is (B, k, r): row b's unnormalized residual for each of k
    outcomes. With uniforms (T,), trial t draws from row at[t] (default t)
    the first outcome whose cumulative probability reaches u_t times the
    row's total, the cumulative sum running over the outcomes in the order
    order[t] lists them (default 0..k-1), and only the distinct (row,
    outcome) pairs drawn are kept. Returns (rows, outcomes, probabilities,
    residuals, visits), one entry per kept branch in row-major (row, outcome) order:
    the parent row, the outcome index, its probability given the row, and
    the residual normalized in place; visits[t] is trial t's kept branch
    (None without uniforms). When every branch is kept, the residuals are
    projected's own rows; otherwise they are gathered into a fresh array,
    or into the flat buffer `into` (at least as large as the kept rows,
    not overlapping projected).
    """
    B, k, r = projected.shape
    flat = projected.reshape(B * k, r)
    pv = flat.view(np.float64)
    probs = np.einsum("ij,ij->i", pv, pv)
    visits = None
    if uniforms is None:
        keep = np.flatnonzero(probs >= NULL_PROB)
    else:
        at = np.arange(B) if at is None else at
        p = probs.reshape(B, k)[at] if order is None else probs.reshape(B, k)[at[:, None], order]
        below = np.cumsum(p, axis=1) < (uniforms * p.sum(axis=1))[:, None]
        drawn = np.minimum(below.sum(axis=1), k - 1)
        if order is not None:
            drawn = order[np.arange(len(order)), drawn]
        keep, visits = np.unique(at * k + drawn, return_inverse=True)
        if (probs[keep] < NULL_PROB).any():
            raise ProtocolError("sampled a null branch")  # pragma: no cover
    if len(keep) == B * k:
        residuals = flat
    elif into is None:
        residuals = flat[keep]
    else:  # "clip" mode writes straight into out; "raise" would buffer
        residuals = np.take(flat, keep, axis=0, mode="clip",
                            out=into[:len(keep) * r].reshape(len(keep), r))
    residuals /= np.sqrt(probs[keep])[:, None]
    return keep // k, keep % k, probs[keep], residuals, visits


def bell_projections(batch: np.ndarray, register: Register, pair, out: np.ndarray | None = None,
                     scratch: np.ndarray | None = None) -> np.ndarray:
    """(B, d^2, dim / d^2): the residual of every row for every Bell outcome m*d + n,
    on register minus the ordered pair; out and scratch as in kernels.project_bell_pairs."""
    pair = _checked_pair(register, pair)
    return kernels.project_bell_pairs(
        batch, opsbasis.bell_bras(register.d), register.stride(pair[0]), register.stride(pair[1]),
        out=out, scratch=scratch,
    )

