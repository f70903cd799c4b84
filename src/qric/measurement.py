"""Projective generalized Bell-basis measurement (GBM) on labeled qudit pairs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import opsbasis, statealg
from .errors import LabelError
from .statealg import PureState

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


def _residual(state: PureState, pair, m: int, n: int):
    vec = statealg.project_pair(state, opsbasis.bell_vector(state.d, m, n), pair)
    prob = float(np.real(np.vdot(vec, vec)))
    return vec, prob


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


def _checked_pair(state: PureState, pair) -> tuple:
    pair = tuple(pair)
    if len(pair) != 2 or pair[0] == pair[1]:
        raise LabelError("GBM needs two distinct labels")
    state.register.positions(pair)  # raises on unknown labels
    return pair


def gbm_branches(state: PureState, pair, *, remove: bool = False) -> list[Branch]:
    """All d^2 branches of a GBM on the ordered pair, row-major in (m, n)."""
    pair = _checked_pair(state, pair)
    d = state.d
    return [
        _collapse(state, pair, m, n, *_residual(state, pair, m, n), remove)
        for m in range(d)
        for n in range(d)
    ]


def gbm_sample(state: PureState, pair, rng: np.random.Generator, *, remove: bool = False) -> Branch:
    """Draw one branch by cumulative probability; deterministic given the rng state."""
    pair = _checked_pair(state, pair)
    d = state.d
    probs = np.empty(d * d)
    residuals = []
    for m in range(d):
        for n in range(d):
            vec, prob = _residual(state, pair, m, n)
            probs[m * d + n] = prob
            residuals.append(vec)
    probs = np.clip(probs, 0.0, None)
    r = float(rng.random()) * probs.sum()
    acc = 0.0
    idx = d * d - 1
    for i, p in enumerate(probs):
        acc += p
        if r <= acc:
            idx = i
            break
    m, n = divmod(idx, d)
    return _collapse(state, pair, m, n, residuals[idx], float(probs[idx]), remove)


def swap_identity_check(d: int, m: int, n: int, m2: int, n2: int) -> float:
    """Max amplitude deviation of the two-pair Bell rearrangement identity.

    |B^{m,n}>_{XY} |B^{m2,n2}>_{X'Y'} against
    (1/d) sum_{f,g} w^{fg} |B^{m+f,n2+g}>_{XY'} |B^{m2-f,n-g}>_{X'Y}.
    """
    lhs = statealg.tensor(
        opsbasis.bell_state(d, m, n, ("X", "Y")),
        opsbasis.bell_state(d, m2, n2, ("X'", "Y'")),
    )
    order = ("X", "Y", "X'", "Y'")
    lhs = statealg.reorder(lhs, order)
    rhs = np.zeros(d**4, dtype=np.complex128)
    for f in range(d):
        for g in range(d):
            term = statealg.tensor(
                opsbasis.bell_state(d, (m + f) % d, (n2 + g) % d, ("X", "Y'")),
                opsbasis.bell_state(d, (m2 - f) % d, (n - g) % d, ("X'", "Y")),
            )
            term = statealg.reorder(term, order)
            rhs += opsbasis.omega_power(d, f * g) * term.amps
    rhs /= d
    return float(np.abs(lhs.amps - rhs).max())
