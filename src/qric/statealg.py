"""Labeled multi-qudit pure states and density operators.

Dense representations only. Basis indexing is big-endian: the register's
first label is the most significant dit, so the amplitude index of dit
string (j_0, ..., j_{n-1}) is sum_k j_k * d**(n-1-k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, LabelError, NormalizationError, SizeGuardError

TOL = 1e-10
# every dense array, checked before it is allocated: 2**22 amplitudes, a 2**11-row density
MAX_BYTES = 2**26
# protocol runs (joint register dimension): bounds the all-branches leaf
# records, not one array; ric --d 3 --N 3 over bell-product keeps 59,049
# leaves and peaks at 167 MB
MAX_JOINT_DIM = 2**18


def check_size(what: str, size: int, limit: int = MAX_BYTES):
    """The one size guard: SizeGuardError when `size` exceeds `limit`.

    Callers pass the bytes of a dense array before allocating it (16 per
    complex entry) against MAX_BYTES, or a protocol run's joint dimension
    against MAX_JOINT_DIM.
    """
    if size > limit:
        raise SizeGuardError(f"{what} {size:,} over the size guard {limit:,}")


@dataclass(frozen=True)
class Register:
    """An ordered collection of same-dimension qudits with unique labels."""

    d: int
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.d < 2:
            raise DimensionError(f"qudit dimension must be >= 2, got {self.d}")
        if len(self.labels) == 0:
            raise LabelError("register needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise LabelError(f"duplicate labels in {self.labels}")
        # no state vector over an oversized register can exist, so code that
        # builds the register before its amplitudes is guarded before allocating
        check_size("state vector bytes", 16 * self.dim)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.d**self.n

    def position(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelError(f"label {label!r} not in register {self.labels}") from None

    def positions(self, labels) -> list[int]:
        return [self.position(l) for l in labels]

    def stride(self, label: str) -> int:
        return self.d ** (self.n - 1 - self.position(label))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class PureState:
    """Immutable dense amplitude vector over a labeled register.

    The constructor copies `amps`; code here hands over an array it has just
    built with _owned=True, which freezes it in place instead.
    """

    def __init__(self, register: Register, amps: np.ndarray, *, validate: bool = True,
                 _owned: bool = False):
        amps = np.asarray(amps, dtype=np.complex128).reshape(-1)
        if not _owned:
            amps = amps.copy()
        if amps.shape[0] != register.dim:
            raise DimensionError(f"expected {register.dim} amplitudes, got {amps.shape[0]}")
        if validate:
            nrm = float(np.sum(np.abs(amps) ** 2))
            if abs(nrm - 1.0) > TOL:
                raise NormalizationError(f"state norm^2 = {nrm}, not 1")
        self.register = register
        self.amps = _freeze(amps)

    @property
    def d(self) -> int:
        return self.register.d

    def amplitude(self, dits) -> complex:
        """Amplitude of the basis string (one dit per register label, in order)."""
        idx = 0
        for j in dits:
            idx = idx * self.d + int(j)
        return complex(self.amps[idx])

    def __repr__(self):
        return f"PureState(d={self.d}, labels={self.register.labels})"


class DensityOperator:
    """Immutable dense density matrix over a labeled register, unchecked: the package
    builds only reduced states of pure states (partial_trace)."""

    def __init__(self, register: Register, mat: np.ndarray):
        check_size("density matrix bytes", 16 * register.dim**2)
        mat = np.asarray(mat, dtype=np.complex128).copy()
        if mat.shape != (register.dim, register.dim):
            raise DimensionError(f"expected {register.dim}x{register.dim} matrix")
        self.register = register
        self.mat = _freeze(mat)

    def __repr__(self):
        return f"DensityOperator(d={self.register.d}, labels={self.register.labels})"


@dataclass(frozen=True)
class Cut:
    """Bipartition of a register's labels."""

    groupA: tuple[str, ...]
    groupB: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "groupA", tuple(self.groupA))
        object.__setattr__(self, "groupB", tuple(self.groupB))
        if not self.groupA or not self.groupB:
            raise LabelError("both cut groups must be non-empty")
        if set(self.groupA) & set(self.groupB):
            raise LabelError("cut groups overlap")

    def validate(self, register: Register):
        if set(self.groupA) | set(self.groupB) != set(register.labels):
            raise LabelError("cut does not cover the register")


# ---------------------------------------------------------------------------
# constructors

def random_qudit(d: int, rng: np.random.Generator) -> PureState:
    """A random unit vector of C^d on the label t."""
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return PureState(Register(d, ("t",)), v, validate=False)


# ---------------------------------------------------------------------------
# operations

def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker composition; registers must share d and have disjoint labels."""
    if a.d != b.d:
        raise DimensionError(f"dimension mismatch: {a.d} vs {b.d}")
    if set(a.register.labels) & set(b.register.labels):
        raise LabelError("tensor factors share labels")
    reg = Register(a.d, a.register.labels + b.register.labels)
    return PureState(reg, np.kron(a.amps, b.amps), validate=False, _owned=True)


def tensor_many(states) -> PureState:
    out = states[0]
    for s in states[1:]:
        out = tensor(out, s)
    return out


def drop_labels(register: Register, labels) -> Register:
    keep = tuple(l for l in register.labels if l not in set(labels))
    return Register(register.d, keep)


def partial_trace(state: PureState, keep) -> DensityOperator:
    """Reduced density operator of a pure state on `keep` (kept labels stay in register order)."""
    keep = list(keep)
    if not keep:
        raise LabelError("keep must be non-empty")
    reg = state.register
    keep_pos = sorted(reg.positions(keep))
    out_pos = [p for p in range(reg.n) if p not in keep_pos]
    d = reg.d
    dk = d ** len(keep_pos)
    new_reg = Register(d, tuple(reg.labels[p] for p in keep_pos))
    check_size("density matrix bytes", 16 * new_reg.dim**2)
    t = state.amps.reshape([d] * reg.n)
    t = np.transpose(t, keep_pos + out_pos).reshape(dk, -1)
    return DensityOperator(new_reg, t @ t.conj().T)


def reorder(state: PureState, new_order) -> PureState:
    """Permute the register to the given label order (same label set)."""
    reg = state.register
    new_order = tuple(new_order)
    if set(new_order) != set(reg.labels) or len(new_order) != reg.n:
        raise LabelError("new_order must be a permutation of the register labels")
    perm = reg.positions(new_order)
    t = state.amps.reshape([reg.d] * reg.n)
    return PureState(Register(reg.d, new_order), np.transpose(t, perm).reshape(-1),
                     validate=False, _owned=True)


def permute(state: PureState, relabeling: dict) -> PureState:
    """Move subsystem contents according to a bijective relabeling.

    The output register keeps the input's label sequence; the content that
    was at label l ends up at label relabeling[l]. If the relabeling maps
    onto fresh label names, the renamed register is returned as-is.
    """
    reg = state.register
    unknown = set(relabeling) - set(reg.labels)
    if unknown:
        raise LabelError(f"relabeling of unknown labels: {sorted(unknown)}")
    values = [relabeling.get(l, l) for l in reg.labels]
    if len(set(values)) != len(values):
        raise LabelError("relabeling is not a bijection")
    new_labels = tuple(values)
    renamed = PureState(Register(reg.d, new_labels), state.amps, validate=False)
    if set(new_labels) == set(reg.labels):
        return reorder(renamed, reg.labels)
    return renamed


def overlap(a: PureState, b: PureState) -> complex:
    """<a|b>; registers must carry the same labels in the same order."""
    if a.d != b.d:
        raise DimensionError("dimension mismatch")
    if a.register.labels != b.register.labels:
        raise LabelError(f"registers differ: {a.register.labels} vs {b.register.labels}")
    return complex(np.vdot(a.amps, b.amps))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """Entropy in bits."""
    vals = np.linalg.eigvalsh(rho.mat)
    vals = vals[vals > 1e-14]
    return float(-np.sum(vals * np.log2(vals)))


def entropy_across_cut(state: PureState, cut: Cut) -> float:
    """Von Neumann entropy (bits) of the reduced state on cut.groupB."""
    cut.validate(state.register)
    return von_neumann_entropy(partial_trace(state, cut.groupB))
