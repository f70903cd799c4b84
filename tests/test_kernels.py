import numpy as np
import pytest

import reference
from qric import kernels, opsbasis, statealg


def rand_amps(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("d,n,pos", [(2, 5, 0), (2, 5, 4), (3, 4, 1), (5, 3, 2)])
def test_apply_single_matches_numpy_reference(d, n, pos):
    rng = np.random.default_rng(d * n + pos)
    amps = rand_amps(d**n, rng)
    op = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    stride = d ** (n - 1 - pos)
    # the test-local einsum kernel against the full kron embedding of op
    got = reference.apply_single(amps, op, d, stride)
    reg = statealg.Register(d, tuple(f"q{i}" for i in range(n)))
    want = reference.dense_local_operator(reg, op, f"q{pos}") @ amps
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("d,n,p1,p2", [(2, 5, 0, 3), (2, 5, 1, 4), (3, 4, 0, 2), (3, 4, 2, 3)])
def test_project_pair_matches_numpy_reference(d, n, p1, p2):
    rng = np.random.default_rng(d * n + p1 + p2)
    amps = rand_amps(d**n, rng)
    pair = rand_amps(d * d, rng)
    s1 = d ** (n - 1 - p1)
    s2 = d ** (n - 1 - p2)
    got = reference.project_pair(amps, pair, d, s1, s2, d ** (n - 2))
    # the test-local einsum kernel against an independent oracle: contract <pair|
    # over the two axes of the dense tensor
    P = pair.conj().reshape(d, d)
    want = np.tensordot(P, amps.reshape([d] * n), axes=([0, 1], [p1, p2])).reshape(-1)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_project_pair_against_dense_contraction():
    # independent oracle: reshape + explicit einsum over the two axes
    d, n, p1, p2 = 3, 4, 1, 3
    rng = np.random.default_rng(0)
    amps = rand_amps(d**n, rng)
    pair = rand_amps(d * d, rng)
    t = amps.reshape([d] * n)
    P = pair.conj().reshape(d, d)
    want = np.tensordot(P, t, axes=([0, 1], [p1, p2])).reshape(-1)
    got = reference.project_pair(amps, pair, d, d ** (n - 1 - p1), d ** (n - 1 - p2), d ** (n - 2))
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("d,n,p1,p2,B", [(2, 5, 0, 3, 3), (2, 5, 4, 1, 1), (3, 4, 0, 2, 2),
                                         (3, 4, 3, 2, 4), (4, 3, 1, 0, 2)])
def test_project_bell_pairs_matches_dense_contraction(d, n, p1, p2, B):
    # p1 > p2 covers an ordered pair whose first qudit is the less significant one
    rng = np.random.default_rng(10 * d + n + p1 + B)
    batch = np.stack([rand_amps(d**n, rng) for _ in range(B)])
    bras = opsbasis.bell_bras(d)
    got = kernels.project_bell_pairs(batch, bras, d ** (n - 1 - p1), d ** (n - 1 - p2))
    # independent oracle: every Bell bra contracted over the two axes of each dense row
    t = batch.reshape([B] + [d] * n)
    want = np.stack([
        np.tensordot(bras, t[b], axes=([1, 2], [p1, p2])).reshape(d * d, -1) for b in range(B)
    ])
    assert got.shape == (B, d * d, d ** (n - 2))
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("d,n,p1,p2,B", [(3, 4, 0, 2, 2), (3, 4, 3, 1, 3), (2, 5, 4, 0, 1)])
def test_project_bell_pairs_into_given_buffers_matches_fresh_output(d, n, p1, p2, B):
    # p1 < p2 and p1 > p2: both stride orders; buffers larger than needed, filled with nan
    rng = np.random.default_rng(20 * d + n + p1 + B)
    batch = np.stack([rand_amps(d**n, rng) for _ in range(B)])
    bras = opsbasis.bell_bras(d)
    s1, s2 = d ** (n - 1 - p1), d ** (n - 1 - p2)
    buf = np.full(B * d**n + 7, np.nan, dtype=np.complex128)
    scratch = np.full(B * d ** (n - 1) + 5, np.nan, dtype=np.complex128)
    got = kernels.project_bell_pairs(batch, bras, s1, s2, out=buf, scratch=scratch)
    assert np.array_equal(got, kernels.project_bell_pairs(batch, bras, s1, s2))
    assert got.shape == (B, d * d, d ** (n - 2))
    assert got.base is buf and np.shares_memory(got, buf)
    assert np.isnan(buf[B * d**n:]).all()  # nothing written past the result
