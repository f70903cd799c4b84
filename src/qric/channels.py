"""Entangled resource states for telecloning and RIC.

RIC channels live on the 2N labels A'_1, 1', A'_2, 2', ..., A'_N, N'.
Bell pairs (A'_s, s') for s < N are built in the canonical orientation;
the last pair is built on the ordered pair (N', A'_N), which is what makes
the plain outcome-sum corrections deterministic for every d (for d = 2 the
two orientations agree projector-by-projector). Tuple constraints are
sum of odd-position indices = u and sum of even-position indices = v, both
mod d, over the as-built pair indices.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import opsbasis, statealg
from .errors import ConstraintError, DimensionError
from .statealg import DensityOperator, PureState, Register

WEIGHT_TOL = 1e-9

KINDS = (
    "telecloning",
    "general-pure",
    "ghz",
    "beta-weighted",
    "product-bell",
    "mixed",
    "smolin-like",
)

PRESETS = ("telecloning", "ghz", "beta", "bell-product", "smolin", "mixed-uniform")


def channel_labels(N: int) -> tuple[str, ...]:
    """A'_1, 1', A'_2, 2', ..., A'_N, N' (N' is spelled <N>')."""
    out = []
    for s in range(1, N + 1):
        out += [f"A'_{s}", f"{s}'"]
    return tuple(out)


def telecloning_labels(N: int) -> tuple[str, ...]:
    return ("t'",) + opsbasis.clone_labels(N)


def enumerate_constrained_tuples(d: int, N: int, u: int, v: int) -> list[tuple[int, ...]]:
    """All 2N-index tuples with sum(k_odd) = u and sum(k_even) = v mod d.

    Exactly d^(2(N-1)) tuples, in lexicographic order: the free indices are
    k_1..k_{2N-2}; the last pair is determined by the residues. The table is
    guarded as if it were a dense int64 array.
    """
    statealg.check_size("constrained tuple table bytes", 8 * 2 * N * d ** (2 * (N - 1)))
    u %= d
    v %= d
    out = []
    for head in itertools.product(range(d), repeat=2 * (N - 1)):
        k_last_odd = (u - sum(head[0::2])) % d
        k_last_even = (v - sum(head[1::2])) % d
        out.append(head + (k_last_odd, k_last_even))
    out.sort()
    return out


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(x) -> bool:
    return isinstance(x, list) and all(_is_int(e) for e in x)


def _check_tuple(k, d: int, N: int, u: int, v: int):
    if len(k) != 2 * N:
        raise ConstraintError(f"tuple {k} must have {2*N} entries")
    if any(not 0 <= int(x) < d for x in k):
        raise ConstraintError(f"tuple {k} has entries outside 0..{d-1}")
    if sum(k[0::2]) % d != u % d or sum(k[1::2]) % d != v % d:
        raise ConstraintError(
            f"tuple {k} violates the (u,v)=({u},{v}) residue constraints"
        )


@dataclass
class ChannelSpec:
    """Declarative channel description; `build` materializes the state.

    table entries are (tuple, weight) with weights interpreted as
    probabilities P (pure superposition uses sqrt(P)) or mixture weights C.
    """

    kind: str
    d: int
    N: int
    u: int = 0
    v: int = 0
    table: list = field(default_factory=list)
    c: tuple | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConstraintError(f"unknown channel kind {self.kind!r}")
        if self.d < 2 or self.N < 2:
            raise ConstraintError("channel needs d >= 2 and N >= 2")
        self.u %= self.d
        self.v %= self.d
        if self.c is not None:
            self.c = tuple(int(x) for x in self.c)
            _check_tuple(self.c, self.d, self.N, self.u, self.v)
        if self.table:
            norm = []
            total = 0.0
            for k, wgt in self.table:
                k = tuple(int(x) for x in k)
                _check_tuple(k, self.d, self.N, self.u, self.v)
                if wgt < 0:
                    raise ConstraintError(f"negative weight for tuple {k}")
                norm.append((k, float(wgt)))
                total += float(wgt)
            if total <= 0:
                raise ConstraintError("table weights sum to zero")
            if abs(total - 1.0) > WEIGHT_TOL:
                warnings.warn(
                    f"channel table weights sum to {total}; renormalizing", stacklevel=2
                )
            self.table = [(k, wgt / total) for k, wgt in norm]

    @property
    def is_mixed(self) -> bool:
        return self.kind in ("mixed", "smolin-like")

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "kind": self.kind,
            "d": self.d,
            "N": self.N,
            "u": self.u,
            "v": self.v,
        }
        if self.table:
            doc["table"] = [{"k": list(k), "w": wgt} for k, wgt in self.table]
        if self.c is not None:
            doc["c"] = list(self.c)
        if self.seed is not None:
            doc["seed"] = self.seed
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChannelSpec":
        """Parse a channel file; a schema violation raises ConstraintError naming the field."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ConstraintError("channel file must hold a JSON object")
        for key in ("kind", "d", "N"):
            if key not in doc:
                raise ConstraintError(f"channel file is missing field {key!r}")
        for key in ("d", "N", "u", "v"):
            if key in doc and not _is_int(doc[key]):
                raise ConstraintError(f"channel field {key!r} must be an integer")
        if doc.get("seed") is not None and not _is_int(doc["seed"]):
            raise ConstraintError("channel field 'seed' must be an integer or null")
        entries = doc.get("table", [])
        if not isinstance(entries, list):
            raise ConstraintError("channel field 'table' must be a list")
        table = []
        for i, e in enumerate(entries):
            if not isinstance(e, dict) or not _is_int_list(e.get("k")):
                raise ConstraintError(f"channel field 'table[{i}].k' must be a list of integers")
            w = e.get("w")
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                raise ConstraintError(f"channel field 'table[{i}].w' must be a number")
            table.append((tuple(e["k"]), float(w)))
        if "c" in doc and not _is_int_list(doc["c"]):
            raise ConstraintError("channel field 'c' must be a list of integers")
        return cls(
            kind=doc["kind"],
            d=doc["d"],
            N=doc["N"],
            u=doc.get("u", 0),
            v=doc.get("v", 0),
            table=table,
            c=tuple(doc["c"]) if "c" in doc else None,
            seed=doc.get("seed"),
        )

    # -- materialization ----------------------------------------------------

    def build(self):
        """PureState for pure kinds, DensityOperator for mixed kinds."""
        if self.kind == "telecloning":
            return telecloning_channel(self.d, self.N)
        if self.kind == "ghz":
            return ghz_channel(self.d, self.N)
        if self.kind == "beta-weighted":
            return beta_weighted_channel(self.d, self.N)
        if self.kind == "product-bell":
            if self.c is None:
                raise ConstraintError("product-bell channel needs the c tuple")
            return product_bell_channel(self.d, self.N, self.c)
        if self.kind == "general-pure":
            return general_pure_channel(self)
        if self.kind == "mixed":
            return mixed_channel(self)
        return smolin_like(self.d, self.N)

    def mixture(self):
        """(tuples, weights, draw) of a mixed kind's Bell-product components;
        draw(rng) is the index of one drawn component (rng.integers or rng.choice)."""
        if self.kind == "smolin-like":
            tuples = enumerate_constrained_tuples(self.d, self.N, 0, 0)
            return (tuples, np.full(len(tuples), 1.0 / len(tuples)),
                    lambda rng: int(rng.integers(0, len(tuples))))
        if not self.table:
            raise ConstraintError("mixed channel needs a non-empty table")
        weights = np.array([wgt for _, wgt in self.table])
        p = weights / weights.sum()
        return [k for k, _ in self.table], weights, lambda rng: int(rng.choice(len(p), p=p))

    def sample(self, rng: np.random.Generator):
        """(tuple, PureState) drawn from the mixture; pure kinds return their state."""
        if not self.is_mixed:
            return self.c, self.build()
        tuples, _, draw = self.mixture()
        k = tuples[draw(rng)]
        return k, product_bell_channel(self.d, self.N, k)


# ---------------------------------------------------------------------------
# constructors

def telecloning_channel(d: int, N: int) -> PureState:
    """(1/sqrt d) sum_j |j>_{t'} |phi_j> on labels t', 1..N, A_1..A_{N-1}."""
    if d < 2 or N < 2:
        raise DimensionError("telecloning channel needs d >= 2 and N >= 2")
    reg = Register(d, telecloning_labels(N))
    sub = d ** (2 * N - 1)
    amps = np.zeros(d**(2 * N), dtype=np.complex128)
    for j in range(d):
        amps[j * sub:(j + 1) * sub] = opsbasis.phi_vector(d, N, j)
    return PureState(reg, amps / np.sqrt(d), validate=False)


def bell_products(d: int, N: int, tuples) -> np.ndarray:
    """(K, d^(2N)) amplitudes of the Bell products of K index tuples (or of one
    tuple, K = 1), in channel label order.

    Pair s < N is |B^{k_2s, k_2s+1}> on (A'_s, s'), the last pair is built on
    (N', A'_N) and its two axes swapped; the pairs are multiplied left to
    right, as a chain of krons would, so each amplitude is the same product.
    """
    k = np.atleast_2d(np.asarray(tuples, dtype=np.intp))
    if k.ndim != 2 or k.shape[1] != 2 * N:
        raise ConstraintError(f"need {2*N}-tuples, got {tuples}")
    bad = ((k < 0) | (k >= d)).any(axis=1)
    if bad.any():
        raise ConstraintError(f"tuple {tuple(k[bad.argmax()].tolist())} out of range for d={d}")
    statealg.check_size("Bell product bytes", 16 * len(k) * d ** (2 * N))
    vecs = opsbasis.bell_bras(d).conj()
    tables = [vecs.reshape(d * d, -1)] * (N - 1) + [vecs.transpose(0, 2, 1).reshape(d * d, -1)]
    rows = k[:, 0::2] * d + k[:, 1::2]  # Bell table row of every pair
    out = tables[0][rows[:, 0]]
    for table, pair in zip(tables[1:], rows.T[1:]):
        out = (out[:, :, None] * table[pair][:, None, :]).reshape(len(k), -1)
    return out


def product_bell_channel(d: int, N: int, c) -> PureState:
    """Product of N generalized Bell pairs for a fixed index tuple."""
    return PureState(Register(d, channel_labels(N)), bell_products(d, N, c)[0],
                     validate=False, _owned=True)


def general_pure_channel(spec: ChannelSpec) -> PureState:
    """sqrt(P)-weighted superposition of constrained Bell-product tuples."""
    if spec.kind != "general-pure":
        raise ConstraintError("spec kind must be general-pure")
    if not spec.table:
        raise ConstraintError("general-pure channel needs a non-empty table")
    vecs = bell_products(spec.d, spec.N, [k for k, _ in spec.table])
    out = np.zeros(vecs.shape[1], dtype=np.complex128)
    for vec, (_, p) in zip(vecs, spec.table):
        out += vec * np.sqrt(p)
    return PureState(Register(spec.d, channel_labels(spec.N)), out)


def ghz_channel(d: int, N: int) -> PureState:
    """(1/sqrt d) sum_j |j>^(2N) on the channel labels."""
    return opsbasis.ghz_state(d, channel_labels(N), 0, 0)


def beta_weighted_channel(d: int, N: int) -> PureState:
    """Clone-decomposition channel: (1/sqrt d) sum_{x,y} beta_y Bbar_{xy} |B^{-x,-y}>.

    Bbar states come from the Appendix-A extraction of the telecloning clone
    family, transplanted onto the channel labels by s -> s', A_s -> A'_s; the
    last pair is built canonically on (A'_N, N'). This lands in the RIC-valid
    family because the transplant swaps each pair's slots.
    """
    from .protocols import bbar_sum, extract_clone_decomposition

    family = extract_clone_decomposition(d, N)
    # the transplant is one axis permutation: (1..N-1, A_1..A_{N-1}) -> (A'_1, 1', A'_2, 2', ...)
    axes = [2 + a for s in range(N - 1) for a in (N - 1 + s, s)]
    bbar = family.bbar.reshape((d,) * (2 * N)).transpose([0, 1] + axes).reshape(d, d, -1)
    neg = -np.arange(d) % d
    tails = opsbasis.bell_bras(d).conj().reshape(d, d, d * d)[np.ix_(neg, neg)]
    return PureState(Register(d, channel_labels(N)), bbar_sum(bbar, family.beta, tails))


def mixed_channel(spec: ChannelSpec) -> DensityOperator:
    """C-weighted mixture of Bell-product projectors (density form)."""
    if spec.kind not in ("mixed", "smolin-like"):
        raise ConstraintError("spec kind must be mixed or smolin-like")
    reg = Register(spec.d, channel_labels(spec.N))
    statealg.check_size("density matrix bytes", 16 * reg.dim**2)
    table = spec.table
    if spec.kind == "smolin-like" and not table:
        tuples = enumerate_constrained_tuples(spec.d, spec.N, 0, 0)
        table = [(k, 1.0 / len(tuples)) for k in tuples]
    if not table:
        raise ConstraintError("mixed channel needs a non-empty table")
    vecs = bell_products(spec.d, spec.N, [k for k, _ in table])
    weights = np.array([cw for _, cw in table])
    # sum_k C_k |v_k><v_k| as one (dim, K) @ (K, dim) product
    return DensityOperator(reg, (vecs.T * weights) @ vecs.conj(), validate=False)


def smolin_like(d: int, N: int) -> DensityOperator:
    """Uniform mixture over all u=v=0 constrained Bell-product projectors."""
    return mixed_channel(ChannelSpec(kind="smolin-like", d=d, N=N))


# ---------------------------------------------------------------------------
# presets

def preset_spec(name: str, d: int, N: int, seed: int | None = None) -> ChannelSpec:
    """Named channel presets, all with u = v = 0."""
    if name == "telecloning":
        return ChannelSpec(kind="telecloning", d=d, N=N, seed=seed)
    if name == "ghz":
        return ChannelSpec(kind="ghz", d=d, N=N, seed=seed)
    if name == "beta":
        return ChannelSpec(kind="beta-weighted", d=d, N=N, seed=seed)
    if name == "bell-product":
        return ChannelSpec(kind="product-bell", d=d, N=N, c=(0,) * (2 * N), seed=seed)
    if name == "smolin":
        return ChannelSpec(kind="smolin-like", d=d, N=N, seed=seed)
    if name == "mixed-uniform":
        tuples = enumerate_constrained_tuples(d, N, 0, 0)
        table = [(k, 1.0 / len(tuples)) for k in tuples]
        return ChannelSpec(kind="mixed", d=d, N=N, table=table, seed=seed)
    raise ConstraintError(f"unknown preset {name!r}; choose from {PRESETS}")


def load_channel(source: str, d: int, N: int, seed: int | None = None) -> ChannelSpec:
    """Resolve a preset name or a JSON file path into a ChannelSpec."""
    if source in PRESETS:
        return preset_spec(source, d, N, seed)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConstraintError(f"cannot read channel file {source!r}: {exc}") from exc
    return ChannelSpec.from_json(text)
