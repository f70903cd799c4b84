"""The hot numeric kernel: every Bell bra contracted onto one qudit pair of a batch.

The (B, dim) batch of big-endian amplitude rows is viewed with the pair's
two qudits on their own axes and contracted with numpy matmul.
"""

from __future__ import annotations

import numpy as np

HAVE_NUMBA = False  # numpy is the only kernel implementation; the benchmark worker reports it


def project_bell_pairs(batch: np.ndarray, bras: np.ndarray, stride1: int, stride2: int,
                       out: np.ndarray | None = None,
                       scratch: np.ndarray | None = None) -> np.ndarray:
    """Contract every Bell bra onto one qudit pair of every row of `batch`.

    batch is (B, dim); the ordered pair's first qudit has index stride
    `stride1`, its second `stride2` (either may be the larger). bras is the
    (d^2, d, d) table of conjugated Bell amplitudes over (first, second), row
    m*d + n. A Bell bra of shift n is supported on the pairs (j, j + n mod d)
    only, so each shift is one d x d matrix product with the d slices
    (j, j + n) of the strided batch view. The batch is never moved or
    conjugated; one buffer of a d-th of its size holds a shift's slices.
    Returns (B, d^2, dim / d^2): the unnormalized residuals with both qudits
    removed, the remaining qudits in register order. out (at least B * dim)
    and scratch (at least B * dim / d) are flat complex buffers to write the
    result and the slices into, neither overlapping batch; the result is
    then a view of out. Left None, both are fresh arrays.
    """
    B, dim = batch.shape
    d = bras.shape[1]
    hi, lo = max(stride1, stride2), min(stride1, stride2)
    t = batch.reshape(B, dim // (hi * d), d, hi // (lo * d), d, lo)
    if stride1 < stride2:  # put the pair's first qudit on axis 2
        t = t.transpose(0, 1, 4, 3, 2, 5)
    if out is None:
        out = np.empty(B * dim, dtype=np.complex128)
    if scratch is None:
        scratch = np.empty(B * dim // d, dtype=np.complex128)
    out = out[:B * dim].reshape(B, d, d, dim // (d * d))  # (row, m, n, rest)
    diag = scratch[:B * dim // d].reshape(B, d, t.shape[1], t.shape[3], t.shape[5])
    j = np.arange(d)
    for n in range(d):
        np.stack([t[:, :, i, :, (i + n) % d, :] for i in range(d)], axis=1, out=diag)
        np.matmul(bras[n::d, j, (j + n) % d], diag.reshape(B, d, -1), out=out[:, :, n])
    return out.reshape(B, d * d, -1)
