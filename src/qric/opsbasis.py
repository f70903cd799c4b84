"""Weyl phase-shift operators, generalized Bell/GHZ states and symmetric
clone-basis states.

Conventions (fixed throughout the package):
  U^{m,n} = sum_k omega^{km} |k+n mod d><k|        (phase index m, shift n)
  R^{m,n} = sum_j omega^{jm} |j><j+n mod d|        (= adjoint of U^{-m,n})
  |B^{m,n}> = (I (x) U^{m,n}) (1/sqrt d) sum_j |jj>
so the first Bell index is the phase index and the shift acts on the
second listed qudit of the pair.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import DimensionError, LabelError
from .statealg import PureState, Register, check_size


def omega_power(d: int, k: int) -> complex:
    """exp(2*pi*i*k/d), computed directly per power to avoid drift."""
    return complex(np.exp(2j * np.pi * (k % d) / d))


@lru_cache(maxsize=32)
def omega_table(d: int) -> np.ndarray:
    """Read-only omega^k for k = 0..d-1, cached per d."""
    table = np.array([omega_power(d, k) for k in range(d)])
    table.setflags(write=False)
    return table


def weyl_u(d: int, m: int, n: int) -> np.ndarray:
    """U^{m,n} as a dense d x d matrix (indices taken mod d)."""
    M = np.zeros((d, d), dtype=np.complex128)
    for k in range(d):
        M[(k + n) % d, k] = omega_power(d, k * m)
    return M


def weyl_r(d: int, m: int, n: int) -> np.ndarray:
    """R^{m,n} = (U^{-m,n})^dagger."""
    M = np.zeros((d, d), dtype=np.complex128)
    for j in range(d):
        M[j, (j + n) % d] = omega_power(d, j * m)
    return M


def weyl_monomial(d: int, factors) -> tuple[np.ndarray, np.ndarray]:
    """(col, val) of the Weyl product W_0 (x) W_1 (x) ..., factor l = (kind, m, n).

    kind "U" gives U^{m,n}, "R" gives R^{m,n}; m and n are ints or int
    arrays, broadcast together to one batch shape b. The product is
    monomial: its row r (big-endian over the factors) has one nonzero,
    val[..., r], in column col[..., r], so (W psi)[r] = val[r] psi[col[r]].
    Both arrays have shape b + (d**len(factors),). U^{m,n} maps |i - n> to
    w^{(i-n) m} |i> and R^{m,n} maps |i + n> to w^{im} |i>, so each factor
    adds one big-endian column digit and one phase exponent, kept mod d.
    """
    i = np.arange(d)
    col = np.zeros(1, dtype=np.intp)
    power = np.zeros(1, dtype=np.intp)
    for kind, m, n in factors:
        m, n = np.asarray(m)[..., None], np.asarray(n)[..., None]
        if kind == "U":
            src = (i - n) % d
            exponent = src * m
        elif kind == "R":
            src = (i + n) % d
            exponent = i * m
        else:
            raise DimensionError(f"kind must be 'U' or 'R', got {kind!r}")
        col = col[..., :, None] * d + src[..., None, :]
        col = col.reshape(col.shape[:-2] + (-1,))
        power = (power[..., :, None] + exponent[..., None, :]) % d
        power = power.reshape(power.shape[:-2] + (-1,))
    col, power = np.broadcast_arrays(col, power)
    return col, omega_table(d)[power]


def bell_vector(d: int, m: int, n: int) -> np.ndarray:
    """Amplitudes of |B^{m,n}> over the pair's d^2 basis strings."""
    if not (0 <= m < d and 0 <= n < d):
        raise DimensionError(f"Bell indices ({m},{n}) out of range for d={d}")
    v = np.zeros(d * d, dtype=np.complex128)
    for j in range(d):
        v[j * d + (j + n) % d] = omega_power(d, j * m)
    return v / np.sqrt(d)


@lru_cache(maxsize=32)
def bell_bras(d: int) -> np.ndarray:
    """Read-only (d^2, d, d) table of conjugated <B^{m,n}| amplitudes, row m*d + n,
    indexed (first qudit, second qudit) of the ordered pair; cached per d."""
    table = np.stack([bell_vector(d, m, n).conj().reshape(d, d)
                      for m in range(d) for n in range(d)])
    table.setflags(write=False)
    return table


def bell_state(d: int, m: int, n: int, labels: tuple[str, str]) -> PureState:
    """|B^{m,n}> on an ordered label pair; the shift acts on labels[1]."""
    if len(labels) != 2:
        raise LabelError("bell_state needs exactly two labels")
    return PureState(Register(d, tuple(labels)), bell_vector(d, m, n), validate=False)


def ghz_vector(x, legs: int) -> np.ndarray:
    """sum_j x_j |j>^(x legs) for x (d,): x written at the indices j (d^legs - 1) / (d - 1)."""
    x = np.asarray(x, dtype=np.complex128)
    d = len(x)
    v = np.zeros(d**legs, dtype=np.complex128)
    v[np.arange(d) * ((d**legs - 1) // (d - 1))] = x
    return v


def _orderings(d: int, counts) -> np.ndarray:
    """Big-endian basis indices of every distinct ordering of the occupation multiset.

    Letters 1..d-1 in turn take each combination of the still-free slots;
    letter 0 fills what is left and adds nothing to the index.
    """
    n = sum(counts)
    place = [d ** (n - 1 - p) for p in range(n)]
    partial = [(0, tuple(range(n)))]  # (index so far, free slots)
    for letter in range(1, d):
        if not counts[letter]:
            continue
        partial = [
            (idx + letter * sum(place[p] for p in taken),
             tuple(p for p in free if p not in taken))
            for idx, free in partial
            for taken in itertools.combinations(free, counts[letter])
        ]
    return np.array([idx for idx, _ in partial], dtype=np.int64)


def alpha_coeff(d: int, N: int, n_j: int) -> float:
    """sqrt(n_j d! (N-1)! / (N+d-1)!) - weight of the n_j-occupied clone branch."""
    if not 1 <= n_j <= N:
        raise DimensionError(f"n_j must be in 1..{N}, got {n_j}")
    return float(np.sqrt(n_j * factorial(d) * factorial(N - 1) / factorial(N + d - 1)))


def phi_vector(d: int, N: int, j: int) -> np.ndarray:
    """Clone-basis state amplitudes on (clones 1..N, ancillas A_1..A_{N-1}).

    Sum over occupation vectors with n_j >= 1 of alpha_{n_j} times the
    symmetric clone state tensored with the one-fewer-j ancilla state. Only
    those C(N+d-2, d-1) vectors are visited, in lexicographic order, and each
    writes its (disjoint) support directly.
    """
    if not 0 <= j < d:
        raise DimensionError(f"j={j} out of range for d={d}")
    out = np.zeros(Register(d, clone_labels(N)).dim, dtype=np.complex128)
    # stars and bars: lexicographic bar positions give the ancilla occupations
    # (compositions of N-1) in lexicographic order
    for bars in itertools.combinations(range(N + d - 2), d - 1):
        edges = (-1,) + bars + (N + d - 2,)
        anc = tuple(b - a - 1 for a, b in zip(edges, edges[1:]))
        occ = anc[:j] + (anc[j] + 1,) + anc[j + 1:]
        clone, ancilla = _orderings(d, occ), _orderings(d, anc)
        # alpha * (clone amp * ancilla amp), as the dense kron formed it
        amp = (1.0 / np.sqrt(clone.size)) * (1.0 / np.sqrt(ancilla.size))
        idx = clone[:, None] * d ** (N - 1) + ancilla[None, :]
        out[idx.ravel()] = alpha_coeff(d, N, occ[j]) * amp
    return out


@lru_cache(maxsize=32)
def phi_basis(d: int, N: int) -> np.ndarray:
    """Read-only (d, d^(2N-1)) stack of the clone-basis states, row j = phi_vector(d, N, j);
    cached per (d, N)."""
    check_size("clone basis bytes", 16 * d ** (2 * N))
    basis = np.stack([phi_vector(d, N, j) for j in range(d)])
    basis.setflags(write=False)
    return basis


def clone_labels(N: int) -> tuple[str, ...]:
    """Labels of the (2N-1)-qudit clone register: 1..N then A_1..A_{N-1}."""
    return tuple(str(s) for s in range(1, N + 1)) + tuple(f"A_{s}" for s in range(1, N))
