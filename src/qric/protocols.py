"""LOCC protocols: 1->N telecloning, the clone-state decomposition, many-to-one
RIC over every channel kind, and the two many-to-many variants.

Measured pairs are ordered; outcomes are canonical Bell indices of that
ordered pair. The RIC plan is Bob_s: (s, s'), Charlie_s: (A'_s, A_s),
Bob_N: (N, A'_N), and Diana's corrections are the plain outcome sums
x = u'' + u' - u, y = v'' + v' - v (mod d).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache
from math import log2

import numpy as np

from . import channels, measurement, opsbasis, statealg
from .channels import ChannelSpec, channel_labels
from .errors import NormalizationError, ProtocolError
# weyl_r has no use here; perfbench/test_perfbench.py checks the tracer rebinds protocols.weyl_r
from .opsbasis import clone_labels, weyl_r, weyl_u  # noqa: F401
from .statealg import PureState, Register

# ---------------------------------------------------------------------------
# parties and transcripts

@dataclass(frozen=True)
class PartyRegistry:
    """Ownership map: party name -> labels held."""

    roles: dict


def default_ric_registry(N: int) -> PartyRegistry:
    roles = {}
    for s in range(1, N):
        roles[f"Bob_{s}"] = (str(s), f"{s}'")
        roles[f"Charlie_{s}"] = (f"A_{s}", f"A'_{s}")
    roles[f"Bob_{N}"] = (str(N), f"A'_{N}")
    roles["Diana"] = (f"{N}'",)
    return PartyRegistry(roles)


@dataclass
class Message:
    sender: str
    recipient: str
    m: int
    n: int
    bits: float


@dataclass
class Transcript:
    """Ordered classical-communication log of one protocol run."""

    parties: dict
    messages: list = field(default_factory=list)
    correction: tuple | None = None
    corrections: list | None = None  # per-leg, many-to-many runs only
    branch_probability: float = 1.0
    fidelity: float | None = None

    def total_bits(self) -> float:
        return sum(msg.bits for msg in self.messages)

    def to_json_dict(self) -> dict:
        doc = {
            "parties": {p: list(ls) for p, ls in self.parties.items()},
            "messages": [
                {"from": m.sender, "to": m.recipient, "m": m.m, "n": m.n, "bits": m.bits}
                for m in self.messages
            ],
            "branch_probability": self.branch_probability,
        }
        if self.correction is not None:
            doc["correction"] = {"x": self.correction[0], "y": self.correction[1]}
        if self.corrections is not None:
            doc["corrections"] = [{"x": x, "y": y} for x, y in self.corrections]
        if self.fidelity is not None:
            doc["fidelity"] = self.fidelity
        return doc


def _transcripts(registry, routes, outcomes, probs, d, corrections, legs=None):
    """One Transcript per leaf; each route's message carries the matching (m, n).

    outcomes is (B, len(routes), 2), probs (B,), corrections (B, 2) and the
    optional per-leg corrections (B, L, 2) of many-to-many runs.
    """
    bits = 2.0 * log2(d)
    legs = [None] * len(probs) if legs is None else legs.tolist()
    return [
        Transcript(
            parties=dict(registry.roles),
            messages=[Message(src, dst, m, n, bits) for (src, dst), (m, n) in zip(routes, outs)],
            correction=tuple(corr),
            corrections=None if leg is None else [tuple(c) for c in leg],
            branch_probability=prob,
        )
        for outs, prob, corr, leg in zip(outcomes.tolist(), probs.tolist(),
                                         corrections.tolist(), legs)
    ]


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


def _leaves(register: Register, amps: np.ndarray, transcripts) -> list:
    amps.setflags(write=False)  # the leaf states share the rows of this fresh array
    return [(PureState(register, row, validate=False, _owned=True), t)
            for row, t in zip(amps, transcripts)]


# ---------------------------------------------------------------------------
# measurement-plan execution

@dataclass(frozen=True)
class Joint:
    """Initial rows of a plan run on `register`: row(k, out) writes row k into
    the flat (register.dim,) buffer out; its prior is priors[k], k < len(priors).

    execute writes every row into the same buffer, so a mixture never holds
    two joints; draw(rng), set for mixtures, picks the row of one sampled trial.
    """

    register: Register
    row: Callable
    priors: np.ndarray
    draw: Callable | None = None

    @classmethod
    def product(cls, front: PureState, back: PureState) -> "Joint":
        """front (x) back as one row, front's labels first, the outer product written once."""
        register = Register(front.d, front.register.labels + back.register.labels)
        return cls(register, lambda k, out: np.multiply.outer(
            front.amps, back.amps, out=out.reshape(front.register.dim, -1)), np.ones(1))


def _workspace(register: Register) -> tuple:
    """Two joint-dimension buffers and the kernel's dim/d scratch, views of one block."""
    dim = register.dim
    block = np.empty(2 * dim + dim // register.d, dtype=np.complex128)
    return block[:dim], block[dim:2 * dim], block[2 * dim:]


def _descend(joint, k, plan, prior, work, uniforms=None):
    """Leaves (outcomes, probs, register, amps) of the joint's row k, level by level.

    Every non-null branch is kept, or with uniforms (T, len(plan)) only the
    branches T trials visit, and then one leaf per trial is returned. The
    row is written into the first buffer of work (see _workspace); each
    non-final level projects into the buffer not holding the batch and
    gathers its kept rows back into the freed one. The last level writes
    fresh arrays, so no leaf shares memory with work.
    """
    register = joint.register
    joint.row(k, work[0])
    # with no level to write fresh arrays, an empty plan's leaf is a copy
    amps = work[0].reshape(1, -1) if plan else work[0].reshape(1, -1).copy()
    at = 0  # index of the buffer holding amps
    outcomes = np.zeros((1, 0, 2), dtype=np.int64)
    probs = np.full(1, prior)
    visits = None if uniforms is None else np.zeros(len(uniforms), dtype=np.int64)
    for level, pair in enumerate(plan):
        last = level == len(plan) - 1
        out, into, scratch = (None,) * 3 if last else (work[1 - at], work[at], work[2])
        projected = measurement.bell_projections(amps, register, pair, out, scratch)
        rows, outs, cond, amps, visits = measurement.select_outcomes(
            projected, None if uniforms is None else uniforms[:, level], visits, into)
        if len(rows) == projected.shape[0] * projected.shape[1]:
            at = 1 - at  # every branch kept: the batch stays where it was projected
        step = np.stack(np.divmod(outs, register.d), axis=-1)[:, None, :]
        outcomes = np.concatenate((outcomes[rows], step), axis=1)
        probs = probs[rows] * cond
        register = statealg.drop_labels(register, pair)
    if visits is None:
        return outcomes, probs, register, amps
    return outcomes[visits], probs[visits], register, amps[visits]


def execute(joint, plan, finish, mode: str = "sample", rng=None, *, trials: int | None = None):
    """Measure the ordered pairs of `plan` in turn (GBM, pairs removed), level by level.

    joint (a PureState or a Joint) goes through one row at a time; a row's
    live branches are the rows of one (B, dim) array in depth-first order,
    B * dim never above the joint dimension. So one workspace per call (two
    joint-dimension buffers and the kernel scratch) holds every row that
    joint.row(k, out) writes, every non-final level's projection and its
    kept rows; only the last level allocates, and the workspace is dropped
    before finish runs. "all-branches" keeps every non-null outcome,
    probabilities starting at the rows' priors. "sample"
    draws `trials` trials (one if None) up front in the seed order of one run
    per trial, joint.draw(rng) (mixtures only) then rng.random(len(plan)),
    and keeps only the rows and branches some trial visits: the all-branches
    tree pruned to the drawn branches, probabilities from 1.
    finish(outcomes (B, len(plan), 2), probs (B,), register, amps (B, dim))
    gets every leaf at once, one per trial in trial order when sampling.
    Returns (finish's value, coverage 1.0) for "all-branches"; for "sample"
    a tuple of its items, or its first item if trials is None. A joint
    register over statealg.MAX_JOINT_DIM raises SizeGuardError.
    """
    if mode not in ("sample", "all-branches"):
        raise ProtocolError(f"unknown mode {mode!r}")
    if trials is not None and trials < 1:
        raise ProtocolError(f"need at least one trial, got {trials}")
    if isinstance(joint, PureState):
        state = joint
        joint = Joint(state.register, lambda k, out: np.copyto(out, state.amps), np.ones(1))
    statealg.check_size("protocol joint dimension", joint.register.dim, statealg.MAX_JOINT_DIM)
    work = _workspace(joint.register)
    if mode == "all-branches":
        parts = [_descend(joint, k, plan, prior, work)
                 for k, prior in enumerate(joint.priors.tolist())]
    else:
        rng = np.random.default_rng(0) if rng is None else rng
        starts, uniforms = [], np.empty((1 if trials is None else trials, len(plan)))
        for u in uniforms:
            starts.append(0 if joint.draw is None else joint.draw(rng))
            u[:] = rng.random(len(plan))
        firsts, start_of = np.unique(starts, return_inverse=True)
        groups = [np.flatnonzero(start_of == i) for i in range(len(firsts))]
        parts = [_descend(joint, k, plan, 1.0, work, uniforms[group])
                 for k, group in zip(firsts.tolist(), groups)]
    del work  # the leaves are fresh arrays; finish runs without the workspace
    outcomes, probs, registers, amps = zip(*parts)
    outcomes, probs, amps = (np.concatenate(a) for a in (outcomes, probs, amps))
    if mode == "all-branches":
        return finish(outcomes, probs, registers[0], amps), 1.0
    order = np.argsort(np.concatenate(groups))  # back to trial order
    leaves = finish(outcomes[order], probs[order], registers[0], amps[order])
    return leaves[0] if trials is None else tuple(leaves)


# ---------------------------------------------------------------------------
# telecloning

def clone_state(x, d: int, N: int) -> PureState:
    """sum_j x_j |phi_j> on labels 1..N, A_1..A_{N-1}."""
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.shape[0] != d:
        raise ProtocolError(f"need {d} input amplitudes, got {x.shape[0]}")
    if abs(np.sum(np.abs(x) ** 2) - 1.0) > 1e-8:
        raise NormalizationError("input amplitudes not normalized")
    reg = Register(d, clone_labels(N))
    amps = np.zeros(reg.dim, dtype=np.complex128)
    for j in range(d):
        amps += x[j] * opsbasis.phi_vector(d, N, j)
    return PureState(reg, amps, validate=False)


def telecloning_registry(N: int) -> PartyRegistry:
    roles = {"Alice": ("t", "t'")}
    for s in range(1, N + 1):
        roles[f"Bob_{s}"] = (str(s),)
    for s in range(1, N):
        roles[f"Charlie_{s}"] = (f"A_{s}",)
    return PartyRegistry(roles)


def run_telecloning(
    input_state: PureState,
    d: int,
    N: int,
    mode: str = "sample",
    rng: np.random.Generator | None = None,
    *,
    correct_ancillas: bool = True,
    trials: int | None = None,
):
    """Teleclone one unknown qudit to N receivers.

    mode="sample" returns (clone-register state, Transcript), or a tuple of
    `trials` such pairs; "all-branches" returns the list over Alice's d^2
    outcomes.
    """
    if input_state.register.n != 1 or input_state.d != d:
        raise ProtocolError("input must be a single qudit of dimension d")
    inp = statealg.permute(input_state, {input_state.register.labels[0]: "t"})
    joint = Joint.product(inp, channels.telecloning_channel(d, N))
    registry = telecloning_registry(N)
    routes = [("Alice", f"Bob_{s}") for s in range(1, N + 1)]
    if correct_ancillas:
        routes += [("Alice", f"Charlie_{s}") for s in range(1, N)]

    def finish(outcomes, probs, register, amps):
        m, n = outcomes[:, 0, 0], outcomes[:, 0, 1]
        for s in range(1, N + 1):
            amps = _apply_r(amps, register, str(s), m, n)
        if correct_ancillas:
            for s in range(1, N):
                amps = _apply_r(amps, register, f"A_{s}", -m, n)
        messages = np.repeat(outcomes, len(routes), axis=1)
        return _leaves(register, amps,
                       _transcripts(registry, routes, messages, probs, d, outcomes[:, 0]))

    out = execute(joint, [("t", "t'")], finish, mode, rng, trials=trials)
    return out if mode == "sample" else out[0]  # one pair: coverage is always 1


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
    for j in range(d):
        # lambda_jn is the slice where the last clone qudit holds j + n
        lam = opsbasis.phi_vector(d, N, j).reshape(half, d, half)[:, (j + np.arange(d)) % d, :]
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

    bbar (d, d, dimB) and tails (d, d, dimT) hold flat amplitude vectors;
    each term is scaled after its kron.
    """
    d = len(beta)
    acc = np.zeros(bbar.shape[2] * tails.shape[2], dtype=np.complex128)
    for m in range(d):
        for n in range(d):
            acc += beta[n] * np.kron(bbar[m, n], tails[m, n])
    acc /= np.sqrt(d)
    return acc


def _clone_tails(d: int, x, L: int) -> np.ndarray:
    """(d, d, d^L): (U^{-m,n} x)^(x L) for every (m, n), the legs of a Bbar expansion of x."""
    tails = np.empty((d, d, d**L), dtype=np.complex128)
    for m in range(d):
        for n in range(d):
            tail = weyl_u(d, -m, n) @ x
            legs = tail
            for _ in range(L - 1):
                legs = np.kron(legs, tail)
            tails[m, n] = legs
    return tails


def reconstruction_deviation(family: CloneFamily, x) -> float:
    """Max amplitude deviation of clone_state(x) from its Bbar expansion."""
    d, N = family.d, family.N
    x = np.asarray(x, dtype=np.complex128)
    direct = clone_state(x, d, N)
    acc = bbar_sum(family.bbar, family.beta, _clone_tails(d, x, 1))
    # expansion order (1..N-1, A_1..A_{N-1}, N) -> clone labels (1..N, A_1..A_{N-1})
    half = d ** (N - 1)
    expanded = acc.reshape(half, half, d).transpose(0, 2, 1).reshape(-1)
    return float(np.abs(direct.amps - expanded).max())


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


def ric_measurement_plan(N: int) -> list:
    plan = [(str(s), f"{s}'") for s in range(1, N)]
    plan += [(f"A'_{s}", f"A_{s}") for s in range(1, N)]
    plan.append((str(N), f"A'_{N}"))
    return plan


def _ric_routes(N: int) -> list:
    """Senders in plan order, each reporting to Diana."""
    senders = [f"Bob_{s}" for s in range(1, N)]
    senders += [f"Charlie_{s}" for s in range(1, N)]
    senders.append(f"Bob_{N}")
    return [(party, "Diana") for party in senders]


def _ric_joint(clone: PureState, channel, register: Register):
    """(Joint, u, v) of clone (x) channel: one row for a pure channel, one per
    component of a mixed ChannelSpec, its weight C_k as prior."""
    if isinstance(channel, PureState):
        state, u, v = channel, 0, 0
    elif not isinstance(channel, ChannelSpec):
        raise ProtocolError("channel must be a ChannelSpec or PureState")
    elif channel.is_mixed:
        tuples, weights, draw = channel.mixture()

        def row(k, out):
            back = channels.bell_products(channel.d, channel.N, tuples[k])[0]
            np.multiply.outer(clone.amps, back, out=out.reshape(clone.register.dim, -1))

        return Joint(register, row, weights, draw), channel.u, channel.v
    else:
        state, u, v = channel.build(), channel.u, channel.v
    back = statealg.reorder(state, register.labels[clone.register.n:])
    return Joint.product(clone, back), u, v


def run_ric(
    clone: PureState,
    channel,
    mode: str = "sample",
    rng: np.random.Generator | None = None,
    trials: int | None = None,
):
    """Concentrate the clone-state information onto Diana's qudit N'.

    mode="sample" draws one measurement branch and returns
    (Diana's PureState, Transcript), or a tuple of `trials` such pairs;
    "all-branches" returns (list of such pairs, coverage). A mixed channel
    is one initial row per component, exact by the untouched-purification
    argument: a trial draws its component, all-branches weights each by C_k.
    """
    d = clone.d
    if isinstance(channel, ChannelSpec):
        if channel.d != d:
            raise ProtocolError("channel dimension does not match the clone state")
        if channel.kind == "telecloning":
            raise ProtocolError(
                "the telecloning resource is not a 2N-label RIC channel; "
                "use ghz, beta, bell-product, smolin, or mixed-uniform"
            )
        N = channel.N
    else:
        N = len(channel.register.labels) // 2
    if tuple(clone.register.labels) != clone_labels(N):
        raise ProtocolError(
            f"clone state must live on labels {clone_labels(N)}"
        )
    registry = default_ric_registry(N)
    # the joint register checks its own bytes before any channel state is built
    joint_reg = Register(d, clone.register.labels + channel_labels(N))
    joint, u, v = _ric_joint(clone, channel, joint_reg)
    if mode == "all-branches":  # the leaves of every component are kept
        statealg.check_size("mixture components x joint dimension",
                            len(joint.priors) * joint_reg.dim, statealg.MAX_JOINT_DIM)
    elif rng is None and isinstance(channel, ChannelSpec) and channel.is_mixed:
        rng = np.random.default_rng(channel.seed or 0)
    plan = ric_measurement_plan(N)
    routes = _ric_routes(N)

    def finish(outcomes, probs, register, amps):
        x, y = deduce_correction(outcomes[:, :-1], outcomes[:, -1], u, v, d)
        amps = _apply_r(amps, register, f"{N}'", x, y)
        nrm = np.sqrt(np.sum(np.abs(amps) ** 2, axis=1))
        off = np.abs(nrm - 1) > 1e-12
        amps[off] /= nrm[off, None]
        corrections = np.stack((x, y), axis=-1)
        return _leaves(register, amps,
                       _transcripts(registry, routes, outcomes, probs, d, corrections))

    return execute(joint, plan, finish, mode, rng, trials=trials)


# ---------------------------------------------------------------------------
# teleportation-step identity

def teleport_identity_check(d: int, m: int, n: int, k: int, kp: int, rng=None) -> float:
    """Max amplitude deviation of the single-pair teleportation expansion.

    LHS: U^{-m,n}|phi>_N (x) |B^{k,k'}> built on (N', A'_N).
    RHS: (1/d) sum_{x,y} w^{n(m-k)+ky-nx} |B^{x+k-m, y+k'-n}>_{(N, A'_N)}
         (x) U^{-x,y}|phi>_{N'}.
    """
    if rng is None:
        rng = np.random.default_rng(7)
    phi = rng.normal(size=d) + 1j * rng.normal(size=d)
    phi /= np.linalg.norm(phi)
    order = ("N", "A'", "N'")
    left = PureState(Register(d, ("N",)), weyl_u(d, -m, n) @ phi, validate=False)
    pair = opsbasis.bell_state(d, k, kp, ("N'", "A'"))
    lhs = statealg.reorder(statealg.tensor(left, pair), order)
    rhs = np.zeros(d**3, dtype=np.complex128)
    for x in range(d):
        for y in range(d):
            bell_part = opsbasis.bell_state(d, (x + k - m) % d, (y + kp - n) % d, ("N", "A'"))
            tail = PureState(Register(d, ("N'",)), weyl_u(d, -x, y) @ phi, validate=False)
            term = statealg.reorder(statealg.tensor(bell_part, tail), order)
            rhs += opsbasis.omega_power(d, n * (m - k) + k * y - n * x) * term.amps
    rhs /= d
    return float(np.abs(lhs.amps - rhs).max())


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
                     np.kron(front, opsbasis.ghz_vector(d, L + 1, 0, 0)))


def run_mm_ghz(
    clone: PureState,
    d: int,
    N: int,
    L: int,
    mode: str = "sample",
    rng: np.random.Generator | None = None,
    trials: int | None = None,
):
    """Concentrate clone-state information onto L GHZ-correlated receivers; returns as run_ric."""
    if L < 1:
        raise ProtocolError("L must be >= 1")
    if tuple(clone.register.labels) != clone_labels(N):
        raise ProtocolError(f"clone state must live on labels {clone_labels(N)}")
    chan = mm_ghz_channel(d, N, L)
    registry_roles = dict(default_ric_registry(N).roles)
    registry_roles["Diana"] = tuple(f"{N}'_{i}" for i in range(1, L + 1))
    registry = PartyRegistry(registry_roles)
    joint = Joint.product(clone, chan)
    plan = ric_measurement_plan(N)
    routes = _ric_routes(N)
    leg_labels = [f"{N}'_{i}" for i in range(1, L + 1)]

    def finish(outcomes, probs, register, amps):
        x, y = deduce_correction(outcomes[:, :-1], outcomes[:, -1], 0, 0, d)
        amps = _apply_r(amps, register, leg_labels[0], x, y)
        for leg in leg_labels[1:]:
            amps = _apply_r(amps, register, leg, 0, y)
        corrections = np.stack((x, y), axis=-1)
        return _leaves(register, amps,
                       _transcripts(registry, routes, outcomes, probs, d, corrections))

    return execute(joint, plan, finish, mode, rng, trials=trials)


def ghz_correlated_state(x, d: int, L: int, labels=None) -> PureState:
    """sum_j x_j |j>^(x L) - the L-receiver target of the first mm variant."""
    x = np.asarray(x, dtype=np.complex128)
    if labels is None:
        labels = tuple(f"t_{i}" for i in range(1, L + 1))
    reg = Register(d, tuple(labels))
    v = np.zeros(reg.dim, dtype=np.complex128)
    for j in range(d):
        idx = 0
        for _ in range(L):
            idx = idx * d + j
        v[idx] = x[j]
    return PureState(reg, v)


# ---------------------------------------------------------------------------
# many-to-many: multiqudit concentration over |B^{00}>^(x N)

def mm_multi_labels(N: int, L: int) -> tuple:
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
    if not 1 <= L <= N:
        raise ProtocolError("need 1 <= L <= N")
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if abs(np.sum(np.abs(x) ** 2) - 1.0) > 1e-8:
        raise NormalizationError("input amplitudes not normalized")
    labels = mm_multi_labels(N, L)
    if L == N:
        return statealg.tensor_many([PureState(Register(d, (l,)), x) for l in labels])
    family = extract_clone_decomposition(d, N - L + 1)
    check_bbar_covariance(family.bbar, d, N - L)
    amps = bbar_sum(family.bbar, family.beta, _clone_tails(d, x, L))
    return PureState(Register(d, labels), amps)


def _covariance(d: int, pairs: int, k, ell):
    """(col, val) of R^{k,l} on the first-slot qudits and R^{-k,l} on the second-slot ones."""
    return opsbasis.weyl_monomial(d, [("R", k, ell)] * pairs + [("R", -k, ell)] * pairs)


def check_bbar_covariance(bbar: np.ndarray, d: int, pairs: int, tol: float = 1e-9):
    """Verify R^{k,l}-tensor covariance with eigenvalue w^{lm-nk}, (k,l) in (1,0), (0,1), (1,1).

    bbar is (d, d, d^(2 pairs)); all (m, n) are checked in one gather. The set
    is computed, not given, so a violation raises RuntimeError naming the
    first failing (m, n, (k, l)).
    """
    if pairs == 0:
        return
    k, ell = np.array([1, 0, 1]), np.array([0, 1, 1])
    col, val = _covariance(d, pairs, k, ell)  # one row per (k, l)
    idx = np.arange(d)
    # phase[m, n, i] = w^{l_i m - n k_i}, the eigenvalue of row i for Bbar_mn
    phase = opsbasis.omega_table(d)[(ell * idx[:, None, None] - idx[:, None] * k) % d]
    bad = np.abs(val * bbar[:, :, col] - phase[..., None] * bbar[:, :, None]).max(axis=3) > tol
    if bad.any():
        m, n, i = np.argwhere(bad)[0]
        raise RuntimeError(f"Bbar_({m},{n}) violates the covariance for (k,l)=({k[i]},{ell[i]})")


def random_covariant_bbar(d: int, pairs: int, rng: np.random.Generator) -> np.ndarray:
    """(d, d, d^(2 pairs)) orthonormal covariant set: project random vectors onto each eigenspace.

    The (m, n) eigenspace projector is the sum over (k, l) of
    w^{-(lm-nk)} R^{k,l} (x) R^{-k,l}, up to a factor; all d^2 products form
    one (d^2, dim) gather table, so a projection is a gather and one product.
    """
    dim = d ** (2 * pairs)
    statealg.check_size("covariance table bytes", 24 * d * d * dim)
    k, ell = np.divmod(np.arange(d * d), d)
    col, val = _covariance(d, pairs, k, ell)
    out = np.empty((d, d, dim), dtype=np.complex128)
    for m in range(d):
        for n in range(d):
            raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            acc = opsbasis.omega_table(d)[-(ell * m - n * k) % d] @ (val * raw[col])
            nrm = np.linalg.norm(acc)
            if nrm < 1e-8:  # pragma: no cover - eigenspaces are never empty here
                raise ProtocolError("eigenspace projection vanished; retry with a new seed")
            out[m, n] = acc / nrm
    return out


def run_mm_multiqudit(
    distributed: PureState,
    d: int,
    N: int,
    L: int,
    mode: str = "sample",
    rng: np.random.Generator | None = None,
    trials: int | None = None,
):
    """Concentrate L-fold distributed information back onto L receiver qudits.

    Channel is |B^{0,0}>^(x N): senders hold every A'_s plus s' for
    s <= N-L; the receiver holds (N-L+1)'..N'. Returns as run_ric does.
    """
    if not 1 <= L <= N:
        raise ProtocolError("need 1 <= L <= N")
    labels = mm_multi_labels(N, L)
    if tuple(distributed.register.labels) != labels:
        raise ProtocolError(f"distributed state must live on labels {labels}")
    chan = channels.product_bell_channel(d, N, (0,) * (2 * N))
    joint = Joint.product(distributed, chan)
    plan = [(str(s), f"{s}'") for s in range(1, N - L + 1)]
    plan += [(f"A'_{s}", f"A_{s}") for s in range(1, N - L + 1)]
    plan += [(str(s), f"A'_{s}") for s in range(N - L + 1, N + 1)]
    receiver = [f"{s}'" for s in range(N - L + 1, N + 1)]
    roles = {}
    for s in range(1, N - L + 1):
        roles[f"Bob_{s}"] = (str(s), f"{s}'")
        roles[f"Charlie_{s}"] = (f"A_{s}", f"A'_{s}")
    for i, s in enumerate(range(N - L + 1, N + 1), start=1):
        roles[f"Leg_{i}"] = (str(s), f"A'_{s}")
    roles["Receiver"] = tuple(receiver)
    registry = PartyRegistry(roles)
    senders = [f"Bob_{s}" for s in range(1, N - L + 1)]
    senders += [f"Charlie_{s}" for s in range(1, N - L + 1)]
    senders += [f"Leg_{i}" for i in range(1, L + 1)]
    routes = [(party, "Receiver") for party in senders]
    n_front = 2 * (N - L)

    def finish(outcomes, probs, register, amps):
        legs = []
        for i, label in enumerate(receiver):
            x, y = deduce_correction(outcomes[:, :n_front], outcomes[:, n_front + i], 0, 0, d)
            amps = _apply_r(amps, register, label, x, y)
            legs.append(np.stack((x, y), axis=-1))
        legs = np.stack(legs, axis=1)
        # the residual register is the receiver's labels, in order
        return _leaves(register, amps,
                       _transcripts(registry, routes, outcomes, probs, d, legs[:, 0], legs))

    return execute(joint, plan, finish, mode, rng, trials=trials)
