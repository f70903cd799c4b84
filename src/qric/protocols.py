"""LOCC protocols: 1->N telecloning, the clone-state decomposition, many-to-one
RIC over every channel kind, and the two many-to-many variants.

Measured pairs are ordered; outcomes are canonical Bell indices of that
ordered pair. concentration_layout declares every concentration plan:
Bob_s: (s, s'), Charlie_s: (A'_s, A_s), then the tail senders, Bob_N:
(N, A'_N) for RIC and the GHZ variant, Leg_i: (s, A'_s) for the multiqudit
one. The receiver's corrections are the plain outcome sums
x = u'' + u' - u, y = v'' + v' - v (mod d).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache
from math import log2
from typing import NamedTuple

import numpy as np

from . import channels, measurement, opsbasis, statealg
from .channels import ChannelSpec, channel_labels
from .errors import NormalizationError, ProtocolError
# weyl_r has no use here; perfbench/test_perfbench.py checks the tracer rebinds protocols.weyl_r
from .opsbasis import clone_labels, weyl_r, weyl_u  # noqa: F401
from .statealg import PureState, Register

# ---------------------------------------------------------------------------
# parties and leaf records

def concentration_layout(front: int, tail: list, receiver: str, labels: tuple) -> tuple:
    """(plan, parties, routes) of a concentration onto one receiver.

    Bob_s measures (s, s') for s = 1..front, then Charlie_s (A'_s, A_s),
    then each tail sender (party, pair) its pair; every sender reports to
    the receiver, who holds labels. parties maps each party to the labels
    it holds, Charlie_s A_s first.
    """
    rounds = range(1, front + 1)
    parties = {}
    for s in rounds:
        parties[f"Bob_{s}"] = (str(s), f"{s}'")
        parties[f"Charlie_{s}"] = (f"A_{s}", f"A'_{s}")
    parties.update(tail)
    parties[receiver] = tuple(labels)
    plan = [(str(s), f"{s}'") for s in rounds] + [(f"A'_{s}", f"A_{s}") for s in rounds]
    senders = [f"Bob_{s}" for s in rounds] + [f"Charlie_{s}" for s in rounds]
    plan += [pair for _, pair in tail]
    senders += [party for party, _ in tail]
    return plan, parties, tuple((party, receiver) for party in senders)


class Leaves(NamedTuple):
    """Every leaf of one protocol run as arrays; row i is one branch, or one
    trial in trial order when sampling.

    parties maps each party to the labels it holds. Message j of a leaf goes
    along routes[j] = (sender, recipient) and carries outcomes[:, j] = (m, n),
    2 log2 d bits. outcomes is (B, len(routes), 2), probs (B,) the branch
    probabilities, corrections (B, 2) the receiver's (x, y), and legs
    (B, L, 2), many-to-many multiqudit runs only, the per-leg corrections.
    amps (B, register.dim) are the corrected states on register, read-only.
    """

    parties: dict
    routes: tuple
    register: Register
    outcomes: np.ndarray
    probs: np.ndarray
    corrections: np.ndarray
    amps: np.ndarray
    legs: np.ndarray | None = None

    def state(self, i: int) -> PureState:
        """Leaf i as a PureState on register, sharing row i of amps."""
        return PureState(self.register, self.amps[i], validate=False, _owned=True)

    def transcript(self, i: int) -> dict:
        """Leaf i as a JSON-ready classical-communication log."""
        bits = 2.0 * log2(self.register.d)
        x, y = self.corrections[i].tolist()
        doc = {
            "parties": {p: list(ls) for p, ls in self.parties.items()},
            "messages": [{"from": src, "to": dst, "m": m, "n": n, "bits": bits}
                         for (src, dst), (m, n) in zip(self.routes, self.outcomes[i].tolist())],
            "branch_probability": float(self.probs[i]),
            "correction": {"x": x, "y": y},
        }
        if self.legs is not None:
            doc["corrections"] = [{"x": lx, "y": ly} for lx, ly in self.legs[i].tolist()]
        return doc

    def total_bits(self) -> float:
        """Classical bits sent per run, one 2 log2 d message per route added in turn."""
        return sum([2.0 * log2(self.register.d)] * len(self.routes))


def _apply_r(amps: np.ndarray, register: Register, label: str, x, y) -> np.ndarray:
    """R^{x_b, y_b} on `label` of every row b of amps (B, dim): a gather plus a phase.

    x and y are ints or (B,) int arrays; weyl_monomial gives the (B, d)
    column and phase of the one-factor product, applied on the label's axis.
    """
    d = register.d
    B = amps.shape[0]
    col, val = (np.broadcast_to(a, (B, d)) for a in opsbasis.weyl_monomial(d, [("R", x, y)]))
    t = amps.reshape(B, -1, d, register.stride(label))
    out = np.take_along_axis(t, col[:, None, :, None], axis=2)
    out *= val[:, None, :, None]
    return out.reshape(B, -1)


# ---------------------------------------------------------------------------
# measurement-plan execution

@dataclass(frozen=True)
class Joint:
    """Initial state of a plan run on `register`: write(out) puts the base row
    into the flat (register.dim,) buffer out.

    A Bell-product mixture is that one row plus a Weyl frame: component k,
    with prior priors[k], is w^{phase[k]} (x)_l U^{frame[k, l]} on the base
    row, frame (K, register.n, 2) holding one exponent pair per label, and
    draw(rng) picks the component of one sampled trial. Without a frame the
    base row is the only row and priors is ones(1).
    """

    register: Register
    write: Callable
    priors: np.ndarray
    draw: Callable | None = None
    frame: np.ndarray | None = None
    phase: np.ndarray | None = None

    @classmethod
    def product(cls, front: PureState, back: PureState) -> "Joint":
        """front (x) back as one row, front's labels first, the outer product written once."""
        register = Register(front.d, front.register.labels + back.register.labels)
        return cls(register, lambda out: np.multiply.outer(
            front.amps, back.amps, out=out.reshape(front.register.dim, -1)), np.ones(1))

    @classmethod
    def bell_mixture(cls, front: PureState, d: int, N: int, tuples, weights,
                     draw: Callable | None = None) -> "Joint":
        """front (x) sum_k C_k |B_k><B_k|: front times the all-zero Bell product
        as the base row, each tuple a frame on the channel labels."""
        joint = cls.product(front, channels.product_bell_channel(d, N, (0,) * (2 * N)))
        exps, phase = channels.bell_frame(d, N, tuples)
        front_exps = np.zeros((len(exps), joint.register.n - 2 * N, 2), dtype=np.int64)
        return replace(joint, priors=np.asarray(weights), draw=draw,
                       frame=np.concatenate((front_exps, exps), axis=1), phase=phase)


def _workspace(register: Register) -> tuple:
    """Two joint-dimension buffers and the kernel's dim/d scratch, views of one block."""
    dim = register.dim
    block = np.empty(2 * dim + dim // register.d, dtype=np.complex128)
    return block[:dim], block[dim:2 * dim], block[2 * dim:]


def _descend(joint, plan, work, uniforms=None, orders=None):
    """Leaves (outcomes, probs, register, amps) of the joint's base row, level by level.

    Every non-null branch is kept, or with uniforms (T, len(plan)) only the
    branches T trials visit, and then one leaf per trial is returned;
    orders[t, level], if given, is the outcome order trial t draws in (see
    measurement.select_outcomes). The row is written into the first buffer
    of work (see _workspace); each non-final level projects into the buffer
    not holding the batch and gathers its kept rows back into the freed one.
    The last level writes fresh arrays, so no leaf shares memory with work.
    """
    register = joint.register
    joint.write(work[0])
    # with no level to write fresh arrays, an empty plan's leaf is a copy
    amps = work[0].reshape(1, -1) if plan else work[0].reshape(1, -1).copy()
    at = 0  # index of the buffer holding amps
    outcomes = np.zeros((1, 0, 2), dtype=np.int64)
    probs = np.ones(1)
    visits = None if uniforms is None else np.zeros(len(uniforms), dtype=np.int64)
    for level, pair in enumerate(plan):
        last = level == len(plan) - 1
        out, into, scratch = (None,) * 3 if last else (work[1 - at], work[at], work[2])
        projected = measurement.bell_projections(amps, register, pair, out, scratch)
        rows, outs, cond, amps, visits = measurement.select_outcomes(
            projected, None if uniforms is None else uniforms[:, level], visits, into,
            None if orders is None else orders[:, level])
        if len(rows) == projected.shape[0] * projected.shape[1]:
            at = 1 - at  # every branch kept: the batch stays where it was projected
        step = np.stack(np.divmod(outs, register.d), axis=-1)[:, None, :]
        outcomes = np.concatenate((outcomes[rows], step), axis=1)
        probs = probs[rows] * cond
        register = statealg.drop_labels(register, pair)
    if visits is None:
        return outcomes, probs, register, amps
    return outcomes[visits], probs[visits], register, amps[visits]


def _frame_rules(joint, plan):
    """What the frame does at each plan level: (shift, coef, const).

    Level (X, Y) meets U^{p,q} on X and U^{r,t} on Y, and
    U^{p,q} (x) U^{r,t} |B^{c}> = w^{c_n r - q c_m - q (p + r)} |B^{c + (p + r, t - q)}>,
    so component k's outcome c + shift[k, level] (mod d) is the base row's
    outcome c, with the same probability, and its residual is the base
    residual times that phase. A leaf's phase exponent is const[k] plus
    coef[k] . c over the levels. The frame must be the identity on every
    label the plan leaves unmeasured: RIC's residual is N', an s' label, and
    channels.bell_frame gives every s' the identity.
    """
    d = joint.register.d
    pos = np.array([joint.register.positions(pair) for pair in plan], dtype=np.intp).reshape(-1, 2)
    fx, fy = joint.frame[:, pos[:, 0]], joint.frame[:, pos[:, 1]]  # (K, levels, 2) each
    (p, q), (r, t) = np.moveaxis(fx, -1, 0), np.moveaxis(fy, -1, 0)
    shift = np.stack((p + r, t - q), axis=-1) % d
    coef = np.stack((-q, r), axis=-1) % d
    const = (joint.phase - (q * (p + r)).sum(axis=1)) % d
    return shift, coef, const


def _draw_orders(shift, d):
    """(T, levels, d^2): base outcome index of each component outcome m*d + n,
    the order a trial with outcome shifts `shift` (T, levels, 2) draws in."""
    m, n = np.divmod(np.arange(d * d), d)
    return (m - shift[..., :1]) % d * d + (n - shift[..., 1:]) % d


def _relabel(leaves, rules, comps, rows):
    """Leaf i is component comps[i] on the base row's leaf rows[i]: its outcomes
    shifted and its amplitudes times the leaf phase."""
    outcomes, probs, register, amps = leaves
    shift, coef, const = rules
    d, K, B = register.d, len(const), len(probs)
    # the phase exponent of every (component, base leaf) pair, one (K, B) product
    phase = (coef.reshape(K, -1) @ outcomes.reshape(B, -1).T + const[:, None]) % d
    amps = amps[rows] * opsbasis.omega_table(d)[phase[comps, rows]][:, None]
    outcomes = outcomes[rows]
    outcomes += shift[comps]
    outcomes %= d
    return outcomes, probs[rows], register, amps


def check_trials(rng, trials):
    """Refuse a sampled run, trials not None, of fewer than one trial or without a Generator."""
    if trials is not None and (trials < 1 or not isinstance(rng, np.random.Generator)):
        raise ProtocolError("sampling needs trials >= 1 and a numpy Generator, got "
                            f"trials={trials} and {type(rng).__name__}")


def execute(joint, plan, rng=None, trials=None):
    """Measure the ordered pairs of `plan` in turn (GBM, pairs removed), level by level.

    joint (a Joint) is one base row; its live branches are the rows of one
    (B, dim) array in depth-first order, B * dim never above the joint
    dimension. So one workspace per call (two joint-dimension buffers and the
    kernel scratch) holds the base row, every non-final level's projection
    and its kept rows; only the last level allocates.
    trials=None keeps every non-null outcome. trials=T draws T trials from
    the Generator rng up front, in the seed order of one run per trial,
    joint.draw(rng) (mixtures only) then rng.random(len(plan)), and keeps
    only the branches some trial visits: the full tree pruned to the drawn
    branches, probabilities from 1.
    A mixture's components are never built: component k's leaves are the
    base row's under its frame (_frame_rules). The full tree is repeated
    once per component, probabilities times its prior, component-major
    and each in lexicographic order of its own outcomes. A sampled trial
    draws each level's outcome in its component's order (_draw_orders), so
    trials of any component landing on one base branch share its row.
    Returns the leaves as (outcomes (B, len(plan), 2), probs (B,), register,
    amps (B, dim)), fresh arrays, one row per trial in trial order when
    sampling. A joint register over statealg.MAX_JOINT_DIM, or more trials
    than that, raises SizeGuardError.
    """
    check_trials(rng, trials)
    statealg.check_size("protocol joint dimension", joint.register.dim, statealg.MAX_JOINT_DIM)
    if trials is not None:
        statealg.check_size("sampled trials", trials, statealg.MAX_JOINT_DIM)
    d = joint.register.d
    rules = None if joint.frame is None else _frame_rules(joint, plan)
    work = _workspace(joint.register)
    if trials is None:
        leaves = _descend(joint, plan, work)
    else:
        comps, uniforms = np.zeros(trials, dtype=np.intp), np.empty((trials, len(plan)))
        for t, u in enumerate(uniforms):
            comps[t] = 0 if joint.draw is None else joint.draw(rng)
            u[:] = rng.random(len(plan))
        orders = None if rules is None else _draw_orders(rules[0][comps], d)
        leaves = _descend(joint, plan, work, uniforms, orders)
    del work  # the leaves are fresh arrays; the workspace goes before they are relabelled
    if rules is None:
        return leaves
    if trials is not None:
        return _relabel(leaves, rules, comps, np.arange(trials))
    K, B = len(joint.priors), len(leaves[1])
    shift = rules[0].reshape(K, -1)
    # each component's leaves in lexicographic order of its own outcome digits
    codes = np.zeros((K, B), dtype=np.int64)
    for j, digit in enumerate(leaves[0].reshape(B, -1).T):
        codes = codes * d + (digit + shift[:, j, None]) % d
    rows = np.argsort(codes, axis=1, kind="stable").reshape(-1)
    comps = np.repeat(np.arange(K), B)
    outcomes, probs, register, amps = _relabel(leaves, rules, comps, rows)
    return outcomes, joint.priors[comps] * probs, register, amps


# ---------------------------------------------------------------------------
# telecloning

def clone_state(x, d: int, N: int) -> PureState:
    """sum_j x_j |phi_j> on labels 1..N, A_1..A_{N-1}."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    return PureState(Register(d, clone_labels(N)), _clone_amps(x, d, N), validate=False)


def _clone_amps(x: np.ndarray, d: int, N: int) -> np.ndarray:
    """(..., d^(2N-1)): sum_j x_j |phi_j> for each unit vector of x (..., d),
    accumulated in j order."""
    if x.shape[-1] != d:
        raise ProtocolError(f"need {d} input amplitudes, got {x.shape[-1]}")
    if (np.abs(np.sum(np.abs(x) ** 2, axis=-1) - 1.0) > 1e-8).any():
        raise NormalizationError("input amplitudes not normalized")
    basis = opsbasis.phi_basis(d, N)
    amps = np.zeros(x.shape[:-1] + basis.shape[1:], dtype=np.complex128)
    for j, row in enumerate(basis):
        amps += x[..., j, None] * row
    return amps


def telecloning_registry(N: int) -> dict:
    roles = {"Alice": ("t", "t'")}
    for s in range(1, N + 1):
        roles[f"Bob_{s}"] = (str(s),)
    for s in range(1, N):
        roles[f"Charlie_{s}"] = (f"A_{s}",)
    return roles


def run_telecloning(input_state: PureState, d: int, N: int, rng: np.random.Generator | None = None,
                    trials: int | None = None) -> Leaves:
    """Teleclone one unknown qudit to N receivers: the clone-register Leaves of
    Alice's d^2 outcomes, or of `trials` runs drawn from rng (see execute).

    Alice sends her one outcome to every Bob and every Charlie; it is also
    the correction.
    """
    if input_state.register.n != 1 or input_state.d != d:
        raise ProtocolError("input must be a single qudit of dimension d")
    inp = statealg.permute(input_state, {input_state.register.labels[0]: "t"})
    joint = Joint.product(inp, channels.telecloning_channel(d, N))
    routes = [("Alice", f"Bob_{s}") for s in range(1, N + 1)]
    routes += [("Alice", f"Charlie_{s}") for s in range(1, N)]
    outcomes, probs, register, amps = execute(joint, [("t", "t'")], rng, trials)
    m, n = outcomes[:, 0, 0], outcomes[:, 0, 1]
    for s in range(1, N + 1):
        amps = _apply_r(amps, register, str(s), m, n)
    for s in range(1, N):
        amps = _apply_r(amps, register, f"A_{s}", -m, n)
    amps.setflags(write=False)
    return Leaves(telecloning_registry(N), tuple(routes), register,
                  np.repeat(outcomes, len(routes), axis=1), probs, outcomes[:, 0], amps)


# ---------------------------------------------------------------------------
# clone-state decomposition (Appendix-A extraction)

@dataclass(frozen=True)
class CloneFamily:
    """Numerically extracted clone decomposition for one (d, N).

    bbar[m, n] (shape (d, d, d^(2N-2))) are vectors on the front register
    (1..N-1, A_1..A_{N-1}), the Fourier transforms over j of the unit vectors
    lambda_jn; they are mutually orthogonal, not unit. beta (shape (d,)) are
    the decomposition weights. Both arrays are read-only: the family is cached.
    """

    d: int
    N: int
    beta: np.ndarray
    bbar: np.ndarray


@lru_cache(maxsize=32)
def extract_clone_decomposition(d: int, N: int) -> CloneFamily:
    """Factor the last clone qudit out of every |phi_j> and Fourier-build Bbar.

    Raises RuntimeError if beta depends on j or the reconstruction of the
    clone state from the extracted family misses by more than 1e-9: both
    check this function's own arithmetic, not its input.
    """
    half = d ** (N - 1)
    beta = np.zeros(d)
    bbar = np.zeros((d, d, half * half), dtype=np.complex128)
    omega = opsbasis.omega_table(d)
    for j, phi in enumerate(opsbasis.phi_basis(d, N)):
        # lambda_jn is the slice where the last clone qudit holds j + n
        lam = phi.reshape(half, d, half)[:, (j + np.arange(d)) % d, :]
        lam = lam.transpose(1, 0, 2).reshape(d, -1)
        nrm = np.array([np.linalg.norm(vec) for vec in lam])
        if j == 0:
            beta[:] = nrm
        bad = np.flatnonzero(np.abs(nrm - beta) > 1e-9)
        if bad.size:
            n = bad[0]
            raise RuntimeError(f"beta_{n} depends on j: {nrm[n]} vs {beta[n]}")
        bbar += omega[j * np.arange(d) % d][:, None, None] * (lam / nrm[:, None])
    bbar /= np.sqrt(d)
    beta.setflags(write=False)
    bbar.setflags(write=False)
    family = CloneFamily(d, N, beta, bbar)
    rng = np.random.default_rng(1234)
    for _ in range(3):
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        x /= np.linalg.norm(x)
        dev = reconstruction_deviation(family, x)
        if dev > 1e-9:
            raise RuntimeError(f"clone reconstruction off by {dev}")
    return family


def bbar_sum(bbar: np.ndarray, beta: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """(1/sqrt d) sum_{m,n} beta_n Bbar_mn (x) tails_mn, accumulated in (m, n) order.

    bbar (d, d, dimB) and tails (..., d, d, dimT) hold flat amplitude vectors,
    one expansion per leading index of tails; each term is scaled after its
    kron, the elementwise product np.kron forms.
    """
    d = len(beta)
    acc = np.zeros(tails.shape[:-3] + (bbar.shape[2] * tails.shape[-1],), dtype=np.complex128)
    for m in range(d):
        for n in range(d):
            kron = bbar[m, n, :, None] * tails[..., m, n, None, :]
            acc += beta[n] * kron.reshape(acc.shape)
    acc /= np.sqrt(d)
    return acc


def _clone_tails(d: int, x, L: int) -> np.ndarray:
    """(..., d, d, d^L): (U^{-m,n} x)^(x L) for every (m, n) and every vector of x
    (..., d), the legs of a Bbar expansion of x."""
    weyl = np.stack([weyl_u(d, -m, n) for m in range(d) for n in range(d)])
    tail = (weyl @ x[..., None, :, None])[..., 0]  # (..., d^2, d)
    legs = tail
    for _ in range(L - 1):
        legs = (legs[..., :, None] * tail[..., None, :]).reshape(tail.shape[:-1] + (-1,))
    return legs.reshape(x.shape[:-1] + (d, d, -1))


def reconstruction_deviation(family: CloneFamily, x):
    """Max amplitude deviation of clone_state(x) from its Bbar expansion: a float
    for one input x (d,), one per row for a batch (b, d), each the value of its
    own single-input call."""
    d, N = family.d, family.N
    x = np.asarray(x, dtype=np.complex128)
    direct = _clone_amps(x, d, N)
    acc = bbar_sum(family.bbar, family.beta, _clone_tails(d, x, 1))
    # expansion order (1..N-1, A_1..A_{N-1}, N) -> clone labels (1..N, A_1..A_{N-1})
    half = d ** (N - 1)
    expanded = acc.reshape(x.shape[:-1] + (half, half, d)).swapaxes(-1, -2)
    dev = np.abs(direct - expanded.reshape(direct.shape)).max(axis=-1)
    return float(dev) if x.ndim == 1 else dev


# ---------------------------------------------------------------------------
# many-to-one RIC

def deduce_correction(bob_charlie_outcomes, bobN_outcome, u: int, v: int, d: int):
    """Diana's correction: x = u'' + u' - u, y = v'' + v' - v (mod d).

    Takes one run (a list of (m, n) and one (m, n)), giving ints, or a batch
    of runs (arrays (B, k, 2) and (B, 2)), giving two (B,) int arrays.
    """
    last = np.asarray(bobN_outcome, dtype=np.int64)
    front = np.asarray(bob_charlie_outcomes, dtype=np.int64).reshape(last.shape[:-1] + (-1, 2))
    every = np.concatenate((front.reshape(-1, 2), last.reshape(-1, 2)))
    bad = ((every < 0) | (every >= d)).any(axis=1)
    if bad.any():
        mm, nn = every[bad.argmax()]
        raise ProtocolError(f"outcome ({mm},{nn}) out of range for d={d}")
    x = (last[..., 0] + front[..., 0].sum(axis=-1) - u) % d
    y = (last[..., 1] + front[..., 1].sum(axis=-1) - v) % d
    return (int(x), int(y)) if last.ndim == 1 else (x, y)


def run_ric(clone: PureState, channel: ChannelSpec, rng: np.random.Generator | None = None,
            trials: int | None = None) -> Leaves:
    """Concentrate the clone-state information onto Diana's qudit N'.

    Returns the Leaves on N' of every non-null branch, or of `trials` runs
    drawn from rng (see execute). A mixed channel is one base row, the
    all-zero Bell product, and a Weyl frame per component (exact by the
    untouched-purification argument): a trial draws its component, the full
    tree weights each by C_k.
    """
    d = clone.d
    if not isinstance(channel, ChannelSpec):
        raise ProtocolError("channel must be a ChannelSpec")
    if channel.d != d:
        raise ProtocolError("channel dimension does not match the clone state")
    if channel.kind == "telecloning":
        raise ProtocolError(
            "the telecloning resource is not a 2N-label RIC channel; "
            "use ghz, beta, bell-product, smolin, or mixed-uniform"
        )
    N = channel.N
    if tuple(clone.register.labels) != clone_labels(N):
        raise ProtocolError(f"clone state must live on labels {clone_labels(N)}")
    # the joint register checks its own bytes before any channel state is built
    joint_reg = Register(d, clone.register.labels + channel_labels(N))
    if not channel.is_mixed:  # one row; build() is already on channel_labels(N)
        joint = Joint.product(clone, channel.build())
    else:  # the all-zero Bell product, its components as a frame
        tuples, weights, draw = channel.mixture()
        if trials is None:  # the leaves of every component are kept
            statealg.check_size("mixture components x joint dimension",
                                len(weights) * joint_reg.dim, statealg.MAX_JOINT_DIM)
        joint = Joint.bell_mixture(clone, d, N, tuples, weights, draw)
    plan, parties, routes = concentration_layout(
        N - 1, [(f"Bob_{N}", (str(N), f"A'_{N}"))], "Diana", channel_labels(N)[-1:])
    outcomes, probs, register, amps = execute(joint, plan, rng, trials)
    x, y = deduce_correction(outcomes[:, :-1], outcomes[:, -1], channel.u, channel.v, d)
    amps = _apply_r(amps, register, register.labels[0], x, y)
    amps.setflags(write=False)
    return Leaves(parties, routes, register, outcomes, probs, np.stack((x, y), axis=-1), amps)


# ---------------------------------------------------------------------------
# many-to-many: GHZ-terminated channel (L receivers)

def mm_ghz_labels(N: int, L: int) -> tuple:
    front = channel_labels(N)[: 2 * (N - 1)]
    return front + (f"A'_{N}",) + tuple(f"{N}'_{i}" for i in range(1, L + 1))


def mm_ghz_channel(d: int, N: int, L: int) -> PureState:
    """RIC channel |B^{00}>^(N-1) (x) |G^{00}>: the last Bell pair replaced by an
    (L+1)-leg GHZ state on (A'_N, N'_1..N'_L)."""
    if N < 2:
        raise ProtocolError("mm-ghz channel needs N >= 2")
    # |B^{00}> is swap-symmetric, so the builder's turned last pair is canonical here
    front = channels.bell_products(d, N - 1, (0,) * (2 * N - 2))[0]
    return PureState(Register(d, mm_ghz_labels(N, L)),
                     np.kron(front, opsbasis.ghz_vector(np.full(d, 1 / np.sqrt(d)), L + 1)))


def run_mm_ghz(clone: PureState, d: int, N: int, L: int, rng: np.random.Generator | None = None,
               trials: int | None = None) -> Leaves:
    """Concentrate clone-state information onto L GHZ-correlated receivers; returns as run_ric."""
    if L < 1:
        raise ProtocolError("L must be >= 1")
    if tuple(clone.register.labels) != clone_labels(N):
        raise ProtocolError(f"clone state must live on labels {clone_labels(N)}")
    joint = Joint.product(clone, mm_ghz_channel(d, N, L))
    plan, parties, routes = concentration_layout(
        N - 1, [(f"Bob_{N}", (str(N), f"A'_{N}"))], "Diana", mm_ghz_labels(N, L)[-L:])
    outcomes, probs, register, amps = execute(joint, plan, rng, trials)
    x, y = deduce_correction(outcomes[:, :-1], outcomes[:, -1], 0, 0, d)
    # the residual register is Diana's legs, in order
    first, *rest = register.labels
    amps = _apply_r(amps, register, first, x, y)
    for leg in rest:
        amps = _apply_r(amps, register, leg, 0, y)
    amps.setflags(write=False)
    return Leaves(parties, routes, register, outcomes, probs, np.stack((x, y), axis=-1), amps)


def ghz_correlated_state(x, d: int, L: int, labels) -> PureState:
    """sum_j x_j |j>^(x L) on labels - the L-receiver target of the first mm variant."""
    return PureState(Register(d, tuple(labels)), opsbasis.ghz_vector(x, L))


# ---------------------------------------------------------------------------
# many-to-many: multiqudit concentration over |B^{00}>^(x N)

def mm_multi_labels(N: int, L: int) -> tuple:
    """The distributed state's labels: 1..N-L and A_1..A_{N-L}, then the L legs
    N-L+1..N. Every multiqudit path calls this first, so it holds the one L check."""
    if not 1 <= L <= N:
        raise ProtocolError(f"need 1 <= L <= N, got L={L} and N={N}")
    front = tuple(str(s) for s in range(1, N - L + 1))
    front += tuple(f"A_{s}" for s in range(1, N - L + 1))
    legs = tuple(str(s) for s in range(N - L + 1, N + 1))
    return front + legs


def synth_distributed_state(x, d: int, N: int, L: int) -> PureState:
    """(1/sqrt d) sum_{m,n} beta_n Bbar_{mn} (x) (U^{-m,n}|phi>)^(x L).

    Bbar and beta are the clone family of N-L+1 clones, whose Bbar set
    satisfies the covariance on 2(N-L) qudits. For L = N the Bbar register
    is empty and the state degenerates to |phi>^(x L).
    """
    labels = mm_multi_labels(N, L)
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if abs(np.sum(np.abs(x) ** 2) - 1.0) > 1e-8:
        raise NormalizationError("input amplitudes not normalized")
    if L == N:
        return statealg.tensor_many([PureState(Register(d, (l,)), x) for l in labels])
    family = extract_clone_decomposition(d, N - L + 1)
    check_bbar_covariance(family.bbar, d, N - L)
    amps = bbar_sum(family.bbar, family.beta, _clone_tails(d, x, L))
    return PureState(Register(d, labels), amps)


def check_bbar_covariance(bbar: np.ndarray, d: int, pairs: int):
    """Verify R^{k,l}-tensor covariance with eigenvalue w^{lm-nk}, (k,l) in (1,0), (0,1), (1,1).

    bbar is (d, d, d^(2 pairs)); all (m, n) are checked in one gather, to
    1e-9. The set is computed, not given, so a violation raises RuntimeError
    naming the first failing (m, n, (k, l)).
    """
    k, ell = np.array([1, 0, 1]), np.array([0, 1, 1])
    # one row per (k, l): R^{k,l} on the first-slot qudits, R^{-k,l} on the second-slot ones
    col, val = opsbasis.weyl_monomial(d, [("R", k, ell)] * pairs + [("R", -k, ell)] * pairs)
    idx = np.arange(d)
    # phase[m, n, i] = w^{l_i m - n k_i}, the eigenvalue of row i for Bbar_mn
    phase = opsbasis.omega_table(d)[(ell * idx[:, None, None] - idx[:, None] * k) % d]
    bad = np.abs(val * bbar[:, :, col] - phase[..., None] * bbar[:, :, None]).max(axis=3) > 1e-9
    if bad.any():
        m, n, i = np.argwhere(bad)[0]
        raise RuntimeError(f"Bbar_({m},{n}) violates the covariance for (k,l)=({k[i]},{ell[i]})")


def run_mm_multiqudit(distributed: PureState, d: int, N: int, L: int,
                      rng: np.random.Generator | None = None, trials: int | None = None) -> Leaves:
    """Concentrate L-fold distributed information back onto L receiver qudits.

    Channel is |B^{0,0}>^(x N): senders hold every A'_s plus s' for
    s <= N-L; the receiver holds (N-L+1)'..N'. Returns as run_ric does, with
    the per-leg corrections as legs and leg 1's as corrections.
    """
    labels = mm_multi_labels(N, L)
    if tuple(distributed.register.labels) != labels:
        raise ProtocolError(f"distributed state must live on labels {labels}")
    joint = Joint.product(distributed, channels.product_bell_channel(d, N, (0,) * (2 * N)))
    n_front = 2 * (N - L)
    tail = [(f"Leg_{i}", (str(s), f"A'_{s}")) for i, s in enumerate(range(N - L + 1, N + 1), 1)]
    plan, parties, routes = concentration_layout(
        N - L, tail, "Receiver", channel_labels(N)[n_front + 1::2])
    outcomes, probs, register, amps = execute(joint, plan, rng, trials)
    legs = []
    # the residual register is the receiver's labels, in order
    for i, label in enumerate(register.labels):
        x, y = deduce_correction(outcomes[:, :n_front], outcomes[:, n_front + i], 0, 0, d)
        amps = _apply_r(amps, register, label, x, y)
        legs.append(np.stack((x, y), axis=-1))
    legs = np.stack(legs, axis=1)
    amps.setflags(write=False)
    return Leaves(parties, routes, register, outcomes, probs, legs[:, 0], amps, legs)
