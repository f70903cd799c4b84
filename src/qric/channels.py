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
from math import isfinite

import numpy as np

from . import opsbasis, statealg
from .errors import ConstraintError, DimensionError
from .statealg import PureState, Register

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

# kinds that build one fixed state of residues (0, 0); any other u or v is refused
ZERO_RESIDUE_KINDS = ("telecloning", "ghz", "beta-weighted", "smolin-like")

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

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConstraintError(f"unknown channel kind {self.kind!r}")
        if self.d < 2 or self.N < 2:
            raise ConstraintError("channel needs d >= 2 and N >= 2")
        self.u %= self.d
        self.v %= self.d
        if self.kind in ZERO_RESIDUE_KINDS and (self.u, self.v) != (0, 0):
            name = "u" if self.u else "v"
            raise ConstraintError(f"channel kind {self.kind!r} needs field {name!r} = 0 (mod d), "
                                  f"got {getattr(self, name)}")
        if self.c is not None:
            self.c = tuple(int(x) for x in self.c)
            _check_tuple(self.c, self.d, self.N, self.u, self.v)
        if self.table:
            norm, seen = [], set()
            total = 0.0
            for i, (k, wgt) in enumerate(self.table):
                k = tuple(int(x) for x in k)
                _check_tuple(k, self.d, self.N, self.u, self.v)
                try:
                    wgt = float(wgt)
                except OverflowError:
                    raise ConstraintError(f"channel field 'table[{i}].w' is an integer past "
                                          f"the float range") from None
                total += wgt
                if not isfinite(total):  # a NaN or infinite weight, or a sum past the range
                    raise ConstraintError(f"channel field 'table[{i}].w' = {wgt} takes the "
                                          f"weight sum to {total}: weights must be finite")
                if wgt < 0:
                    raise ConstraintError(f"channel field 'table[{i}].w' is negative for tuple {k}")
                # a pure channel's Bell products must be distinct; a mixture may repeat one
                if self.kind == "general-pure" and k in seen:
                    raise ConstraintError(f"tuple {k} is repeated in the general-pure table")
                seen.add(k)
                norm.append((k, wgt))
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
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChannelSpec":
        """Parse a channel file; a schema violation raises ConstraintError naming the
        field. Keys it does not read are ignored."""
        try:
            doc = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an integer past 4300 digits
            raise ConstraintError(f"channel file is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConstraintError("channel file must hold a JSON object")
        for key in ("kind", "d", "N"):
            if key not in doc:
                raise ConstraintError(f"channel file is missing field {key!r}")
        for key in ("d", "N", "u", "v"):
            if key in doc and not _is_int(doc[key]):
                raise ConstraintError(f"channel field {key!r} must be an integer")
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
            table.append((tuple(e["k"]), w))
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
        )

    # -- materialization ----------------------------------------------------

    def build(self):
        """PureState for pure kinds, BellMixture for mixed kinds."""
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
        tuples, weights, _ = self.mixture()
        return BellMixture(self.d, self.N, tuples, weights)

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


@dataclass(frozen=True)
class BellMixture:
    """The mixed channel sum_k C_k |B_k><B_k|: tuples (K, 2N) ints, weights (K,);
    a tuple may repeat. The Bell products are orthonormal, so the state is
    diagonal in the Bell basis: its analysis is index arithmetic over Z_d on
    the tuples, the weights and W, with no amplitudes and no density matrix."""

    d: int
    N: int
    tuples: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tuples", np.array(self.tuples, dtype=np.intp))
        object.__setattr__(self, "weights", np.array(self.weights, dtype=np.float64))
        k = self.tuples
        if k.shape != (len(self.weights), 2 * self.N) or ((k < 0) | (k >= self.d)).any():
            raise ConstraintError(f"need one weight per {2 * self.N}-tuple in 0..{self.d - 1}")

    @property
    def register(self) -> Register:
        return Register(self.d, channel_labels(self.N))

    def diagonal(self) -> np.ndarray:
        """W, the (d,)*2N Bell-basis diagonal and so the spectrum: the weights
        summed per distinct tuple, 0 elsewhere."""
        out = np.zeros((self.d,) * (2 * self.N))
        np.add.at(out, tuple(self.tuples.T), self.weights)
        return out


# ---------------------------------------------------------------------------
# constructors

def telecloning_channel(d: int, N: int) -> PureState:
    """(1/sqrt d) sum_j |j>_{t'} |phi_j> on labels t', 1..N, A_1..A_{N-1}."""
    if d < 2 or N < 2:
        raise DimensionError("telecloning channel needs d >= 2 and N >= 2")
    reg = Register(d, telecloning_labels(N))
    return PureState(reg, opsbasis.phi_basis(d, N).reshape(-1) / np.sqrt(d), validate=False)


def bell_products_bytes(d: int, N: int, K: int) -> int:
    """Bytes of bell_products' (K, d^(2N)) amplitude array, checked before it is built."""
    return 16 * K * d ** (2 * N)


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
    statealg.check_size("Bell product bytes", bell_products_bytes(d, N, len(k)))
    vecs = opsbasis.bell_bras(d).conj()
    tables = [vecs.reshape(d * d, -1)] * (N - 1) + [vecs.transpose(0, 2, 1).reshape(d * d, -1)]
    rows = k[:, 0::2] * d + k[:, 1::2]  # Bell table row of every pair
    out = tables[0][rows[:, 0]]
    for table, pair in zip(tables[1:], rows.T[1:]):
        out = (out[:, :, None] * table[pair][:, None, :]).reshape(len(k), -1)
    return out


def bell_frame(d: int, N: int, tuples) -> tuple[np.ndarray, np.ndarray]:
    """(exps (K, 2N, 2), phase (K,)): the Bell product of tuple k is
    w^{phase[k]} (x)_l U^{exps[k, l]} |B^{0...0}>, one Weyl factor per channel label.

    Pair s < N is (I (x) U^{m,n}) |B^{00}> = R^{m,n} (x) I = w^{-mn} U^{m,-n}
    on A'_s; the last pair, built on (N', A'_N), is U^{m,n} on A'_N. Every
    s' gets the identity, (0, 0).
    """
    k = np.atleast_2d(np.asarray(tuples, dtype=np.int64)) % d
    m, n = k[:, 0::2], k[:, 1::2]
    exps = np.zeros((len(k), 2 * N, 2), dtype=np.int64)
    exps[:, 0::2, 0] = m
    exps[:, 0:-2:2, 1] = -n[:, :-1] % d
    exps[:, -2, 1] = n[:, -1]
    return exps, -(m[:, :-1] * n[:, :-1]).sum(axis=1) % d


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
    return PureState(Register(d, channel_labels(N)),
                     opsbasis.ghz_vector(np.full(d, 1 / np.sqrt(d)), 2 * N), validate=False)


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


# ---------------------------------------------------------------------------
# presets

def preset_spec(name: str, d: int, N: int) -> ChannelSpec:
    """Named channel presets, all with u = v = 0."""
    if name == "telecloning":
        return ChannelSpec(kind="telecloning", d=d, N=N)
    if name == "ghz":
        return ChannelSpec(kind="ghz", d=d, N=N)
    if name == "beta":
        return ChannelSpec(kind="beta-weighted", d=d, N=N)
    if name == "bell-product":
        return ChannelSpec(kind="product-bell", d=d, N=N, c=(0,) * (2 * N))
    if name == "smolin":
        return ChannelSpec(kind="smolin-like", d=d, N=N)
    if name == "mixed-uniform":
        tuples = enumerate_constrained_tuples(d, N, 0, 0)
        table = [(k, 1.0 / len(tuples)) for k in tuples]
        return ChannelSpec(kind="mixed", d=d, N=N, table=table)
    raise ConstraintError(f"unknown preset {name!r}; choose from {PRESETS}")


def load_channel(source: str, d: int, N: int) -> ChannelSpec:
    """Resolve a preset name or a JSON file path into a ChannelSpec for (d, N);
    a file for another (d, N) is refused."""
    if source in PRESETS:
        return preset_spec(source, d, N)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConstraintError(f"cannot read channel file {source!r}: {exc}") from exc
    spec = ChannelSpec.from_json(text)
    if (spec.d, spec.N) != (d, N):
        raise ConstraintError(
            f"channel file is for (d,N)=({spec.d},{spec.N}), requested ({d},{N})"
        )
    return spec
