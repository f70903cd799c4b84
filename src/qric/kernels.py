"""Hot numeric kernels: single-qudit operator application and Bell-pair projection.

Both reshape the flat big-endian amplitude vector so the target qudit(s) get
their own axes, then contract with numpy einsum.
"""

from __future__ import annotations

import numpy as np

HAVE_NUMBA = False  # numpy is the only kernel implementation; kept for tools that report it


def apply_single(amps: np.ndarray, op: np.ndarray, d: int, stride: int) -> np.ndarray:
    """Apply a d x d operator on the qudit with the given index stride."""
    t = amps.reshape(-1, d, stride)
    return np.einsum("ab,ibj->iaj", op, t).reshape(-1)


def project_pair(
    amps: np.ndarray, pair: np.ndarray, d: int, stride1: int, stride2: int, n_left: int
) -> np.ndarray:
    """Contract <pair| onto the two qudits with strides stride1 > stride2.

    Returns the unnormalized residual amplitudes with both qudits removed.
    `pair` is the d*d Bell-state (or any pair-state) amplitude vector; n_left
    is the residual dimension.
    """
    dim = amps.shape[0]
    # axes: (A, a, B, b, C) with a at stride1, b at stride2, stride1 > stride2
    A = dim // (stride1 * d)
    B = stride1 // (stride2 * d)
    C = stride2
    t = amps.reshape(A, d, B, d, C)
    P = pair.conj().reshape(d, d)
    out = np.einsum("ab,iajbk->ijk", P, t)
    return out.reshape(n_left)
