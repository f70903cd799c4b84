import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import (OccupationVector, apply_local, phi_state, stabilizer_expectation,
                       symmetric_state)
from qric import (
    alpha_coeff,
    bell_state,
    overlap,
    weyl_r,
    weyl_u,
)
from qric import channels, opsbasis, statealg
from qric.errors import DimensionError, LabelError
from qric.statealg import DensityOperator, Register


# ---------------------------------------------------------------------------
# Weyl operators

def test_u00_is_identity():
    np.testing.assert_allclose(weyl_u(3, 0, 0), np.eye(3), atol=1e-15)


def test_u11_d2_columns():
    U = weyl_u(2, 1, 1)
    np.testing.assert_allclose(U @ [1, 0], [0, 1], atol=1e-15)   # |0> -> |1>
    np.testing.assert_allclose(U @ [0, 1], [-1, 0], atol=1e-15)  # |1> -> -|0>


@pytest.mark.parametrize("d", [2, 3, 5])
def test_r_inverts_u(d):
    # dense-product oracle for R^{m,n} U^{-m,n} = I
    for m in range(d):
        for n in range(d):
            np.testing.assert_allclose(
                weyl_r(d, m, n) @ weyl_u(d, -m, n), np.eye(d), atol=1e-12
            )


@pytest.mark.parametrize("d", [2, 3, 4])
def test_weyl_unitarity_and_adjoint_relation(d):
    for m in range(d):
        for n in range(d):
            U = weyl_u(d, m, n)
            R = weyl_r(d, m, n)
            np.testing.assert_allclose(U @ U.conj().T, np.eye(d), atol=1e-12)
            np.testing.assert_allclose(R, weyl_u(d, -m, n).conj().T, atol=1e-12)


@st.composite
def weyl_products(draw):
    """(d, batch, factors): 1-3 U/R factors over d <= 5, each index an int or a (batch,) array."""
    d = draw(st.integers(2, 5))
    batch = draw(st.integers(1, 3))
    index = st.one_of(
        st.integers(-2 * d, 2 * d),
        st.lists(st.integers(-2 * d, 2 * d), min_size=batch, max_size=batch).map(np.array),
    )
    factors = draw(st.lists(st.tuples(st.sampled_from("UR"), index, index), min_size=1, max_size=3))
    return d, batch, factors


@settings(max_examples=300, deadline=None)
@given(weyl_products())
def test_weyl_monomial_matches_dense_kron(case):
    # oracle: the Kronecker product of the dense weyl_u / weyl_r factors
    d, batch, factors = case
    col, val = opsbasis.weyl_monomial(d, factors)
    batched = any(np.ndim(m) or np.ndim(n) for _, m, n in factors)
    dim = d ** len(factors)
    assert col.shape == val.shape == ((batch, dim) if batched else (dim,))
    dense = {"U": weyl_u, "R": weyl_r}
    for b in range(batch):
        pick = lambda i: int(i[b]) if np.ndim(i) else i  # noqa: E731
        want = functools.reduce(np.kron,
                                [dense[kind](d, pick(m), pick(n)) for kind, m, n in factors])
        got = np.zeros((dim, dim), dtype=complex)
        got[np.arange(dim), col[b] if batched else col] = val[b] if batched else val
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_weyl_monomial_rejects_unknown_kind():
    with pytest.raises(DimensionError):
        opsbasis.weyl_monomial(3, [("U", 1, 0), ("Q", 0, 0)])


# ---------------------------------------------------------------------------
# Bell and GHZ states

def test_bell_00_d2():
    b = bell_state(2, 0, 0, ("X", "Y"))
    np.testing.assert_allclose(b.amps, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-12)


def test_bell_00_d3():
    b = bell_state(3, 0, 0, ("X", "Y"))
    want = np.zeros(9)
    want[[0, 4, 8]] = 1 / np.sqrt(3)
    np.testing.assert_allclose(b.amps, want, atol=1e-12)


def test_bell_gram_matrix_d3():
    states = [bell_state(3, m, n, ("X", "Y")) for m in range(3) for n in range(3)]
    gram = np.array([[overlap(a, b) for b in states] for a in states])
    np.testing.assert_allclose(gram, np.eye(9), atol=1e-12)


def test_ghz_000_d2():
    g = opsbasis.ghz_vector(np.full(2, 1 / np.sqrt(2)), 3)
    want = np.zeros(8)
    want[[0, 7]] = 1 / np.sqrt(2)
    np.testing.assert_allclose(g, want, atol=1e-12)


# ---------------------------------------------------------------------------
# symmetric states and alpha coefficients

def test_symmetric_state_examples():
    st = symmetric_state(2, (1, 1), ("a", "b"))
    np.testing.assert_allclose(st.amps, np.array([0, 1, 1, 0]) / np.sqrt(2), atol=1e-12)
    st = symmetric_state(2, (2, 0), ("a", "b"))
    np.testing.assert_allclose(st.amps, [1, 0, 0, 0], atol=1e-12)


def test_symmetric_state_d3_full_permutations():
    st = symmetric_state(3, OccupationVector((1, 1, 1)), ("a", "b", "c"))
    # oracle: explicit permutation enumeration
    nonzero = {idx for idx, a in enumerate(st.amps) if abs(a) > 1e-14}
    perms = set()
    for p in itertools.permutations((0, 1, 2)):
        perms.add(p[0] * 9 + p[1] * 3 + p[2])
    assert nonzero == perms
    for idx in nonzero:
        assert abs(st.amps[idx] - 1 / np.sqrt(6)) < 1e-12


def test_symmetric_state_rejects_bad_occupation():
    with pytest.raises(DimensionError):
        symmetric_state(2, (1, 0), ("a", "b"))


def test_alpha_coeff_values():
    assert abs(alpha_coeff(2, 2, 1) - np.sqrt(1 / 3)) < 1e-12
    assert abs(alpha_coeff(2, 2, 2) - np.sqrt(2 / 3)) < 1e-12
    with pytest.raises(DimensionError):
        alpha_coeff(2, 2, 0)


@pytest.mark.parametrize("d,N", [(2, 3), (3, 2)])
def test_alpha_normalizes_telecloning_channel(d, N):
    ch = channels.telecloning_channel(d, N)
    assert abs(np.linalg.norm(ch.amps) - 1) < 1e-10


def test_phi_states_orthonormal():
    for d, N in [(2, 2), (3, 2), (2, 3)]:
        states = [phi_state(d, N, j) for j in range(d)]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                want = 1.0 if i == j else 0.0
                assert abs(overlap(a, b) - want) < 1e-10


def _symmetric_by_permutations(d, counts):
    """Reference: every distinct permutation of the letters, N! candidates."""
    letters = [j for j, c in enumerate(counts) for _ in range(c)]
    v = np.zeros(d ** len(letters), dtype=np.complex128)
    perms = set(itertools.permutations(letters))
    for p in perms:
        v[sum(x * d ** (len(p) - 1 - k) for k, x in enumerate(p))] = 1.0
    return v / np.sqrt(len(perms))


def _phi_by_occupation_product(d, N, j):
    """Reference: filter all (N+1)^d occupation tuples, dense kron per term."""
    out = np.zeros(d ** (2 * N - 1), dtype=np.complex128)
    for occ in itertools.product(range(N + 1), repeat=d):
        if sum(occ) != N or occ[j] < 1:
            continue
        anc = list(occ)
        anc[j] -= 1
        part = np.kron(_symmetric_by_permutations(d, occ), _symmetric_by_permutations(d, anc))
        out += alpha_coeff(d, N, occ[j]) * part
    return out


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4), (5, 2),
                                 (4, 3), (2, 6)])
def test_clone_builders_match_the_exhaustive_enumeration_bit_for_bit(d, N):
    for j in range(d):
        assert np.array_equal(opsbasis.phi_vector(d, N, j), _phi_by_occupation_product(d, N, j))
    for occ in itertools.product(range(N + 1), repeat=d):
        if sum(occ) == N:
            assert np.array_equal(reference.symmetric_vector(d, occ),
                                  _symmetric_by_permutations(d, occ))


def test_phi_vector_large_d_is_fast_and_normalized():
    # the exhaustive enumeration would visit 3^20 occupation tuples here
    assert abs(np.linalg.norm(opsbasis.phi_vector(20, 2, 0)) - 1) < 1e-12


@pytest.mark.parametrize("d,N", [(2, 3), (3, 2), (4, 2)])
def test_phi_basis_is_the_cached_read_only_stack_of_phi_vectors(d, N):
    basis = opsbasis.phi_basis(d, N)
    assert basis is opsbasis.phi_basis(d, N) and not basis.flags.writeable
    assert basis.shape == (d, d ** (2 * N - 1))
    for j in range(d):
        assert np.array_equal(basis[j], opsbasis.phi_vector(d, N, j))


# ---------------------------------------------------------------------------
# stabilizer expectations

def test_stabilizer_expectation_u0v0_channel():
    from qric.analysis import stabilizer_groups

    minus, plus = stabilizer_groups(2)
    ch = channels.product_bell_channel(2, 2, (0, 1, 0, 1))
    for m in range(2):
        for n in range(2):
            val = stabilizer_expectation(ch, m, n, minus, plus)
            assert abs(val - 1) < 1e-12


def test_stabilizer_expectation_smolin_d3():
    from qric.analysis import stabilizer_suite

    rho = channels.preset_spec("smolin", 3, 2).build()
    for val in stabilizer_suite(rho, 3, 2).values():
        assert abs(val - 1) < 1e-12


def test_stabilizer_expectation_maximally_mixed():
    from qric.analysis import stabilizer_suite

    # I/16 is the uniform mixture of all 16 Bell products
    tuples = list(itertools.product(range(2), repeat=4))
    rho = channels.BellMixture(2, 2, tuples, np.full(16, 1 / 16))
    for (m, n), val in stabilizer_suite(rho, 2, 2).items():
        want = 1.0 if (m, n) == (0, 0) else 0.0
        assert abs(val - want) < 1e-12


def test_stabilizer_expectation_overlapping_groups_raise():
    from qric.analysis import stabilizer_groups

    _, plus = stabilizer_groups(2)
    state = channels.product_bell_channel(2, 2, (0, 0, 0, 0))
    with pytest.raises(LabelError):
        stabilizer_expectation(state, 1, 1, channels.channel_labels(2), plus)


def _dense_stabilizer_halves(d, m, n, signs):
    # S = A (x) B, each half the Kronecker product of its weyl_u factors
    half = len(signs) // 2
    A, B = ([weyl_u(d, s * m, n) for s in part] for part in (signs[:half], signs[half:]))
    return [functools.reduce(np.kron, part) for part in (A, B)]


# every d in {2, 3, 4} and N in {2, 3}; a density goes through the dense oracle,
# and there is none at (4, 3), whose 4096 rows are over the byte budget
@pytest.mark.parametrize("d,N,kind", [
    (d, N, kind) for d in (2, 3, 4) for N in (2, 3) for kind in ("pure", "density")
    if (d, N, kind) != (4, 3, "density")
])
def test_stabilizer_expectation_matches_dense_reference(d, N, kind):
    rng = np.random.default_rng(100 * d + N)
    labels = channels.channel_labels(N)
    reg = Register(d, labels)
    minus_mask = rng.random(len(labels)) < 0.5
    minus = [l for l, neg in zip(labels, minus_mask) if neg]
    plus = [l for l, neg in zip(labels, minus_mask) if not neg]
    signs = [-1 if neg else 1 for neg in minus_mask]
    g = rng.normal(size=(reg.dim, reg.dim if kind == "density" else 1))
    g = g + 1j * rng.normal(size=g.shape)
    if kind == "pure":
        psi = g[:, 0] / np.linalg.norm(g)
        state = statealg.PureState(reg, psi)
    else:
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        state = DensityOperator(reg, rho)
    # every (m, n), plus indices below 0 and at d (taken mod d)
    for m, n in itertools.product(range(-1, d + 1), repeat=2):
        A, B = _dense_stabilizer_halves(d, m, n, signs)
        if kind == "pure":
            # (A (x) B) psi, without forming the full Kronecker product
            s_psi = (A @ psi.reshape(A.shape[0], B.shape[0]) @ B.T).ravel()
            want = np.vdot(psi, s_psi)
        else:
            want = np.einsum("ij,ji->", np.kron(A, B), rho)  # trace(S @ rho)
        if kind == "pure":
            got = stabilizer_expectation(state, m, n, minus, plus)
        else:
            got = reference.stabilizer_expectation(state, m, n, minus, plus)
        assert abs(got - want) < 1e-12, (m, n)


def test_stabilizer_elements_commute():
    # d <= 3, N <= 3 spot check on the matrix level
    for d, N in [(2, 2), (3, 2), (2, 3)]:
        from qric.analysis import stabilizer_groups

        minus, plus = stabilizer_groups(N)
        labels = channels.channel_labels(N)
        reg = Register(d, labels)

        def elem_matrix(m, n):
            out = np.eye(d ** (2 * N), dtype=complex)
            for l in labels:
                op = weyl_u(d, -m if l in minus else m, n)
                out = reference.dense_local_operator(reg, op, l) @ out
            return out

        pairs = [(1, 0), (0, 1), (1, 1)]
        for (m1, n1), (m2, n2) in itertools.combinations(pairs, 2):
            A, B = elem_matrix(m1, n1), elem_matrix(m2, n2)
            assert np.abs(A @ B - B @ A).max() < 1e-10


# ---------------------------------------------------------------------------
# paper-identity properties

@pytest.mark.parametrize("d", [2, 3])
def test_bell_is_stabilizer_eigenstate(d):
    # (U^{-m,n} (x) U^{m,n}) |B^{x,y}> = w^{ym-xn} |B^{x,y}>
    for m, n, x, y in itertools.product(range(d), repeat=4):
        b = bell_state(d, x, y, ("A", "B"))
        out = apply_local(b, weyl_u(d, -m, n), "A")
        out = apply_local(out, weyl_u(d, m, n), "B")
        phase = opsbasis.omega_power(d, y * m - x * n)
        np.testing.assert_allclose(out.amps, phase * b.amps, atol=1e-12)


@pytest.mark.parametrize("d,N", [(2, 2), (2, 3), (3, 2)])
def test_clone_covariance(d, N):
    # R^{m,n} on clones + R^{-m,n} on ancillas maps |phi_{j+n}> to w^{jm}|phi_j>
    for m in range(d):
        for n in range(d):
            for j in range(d):
                src = phi_state(d, N, (j + n) % d)
                out = src
                for s in range(1, N + 1):
                    out = apply_local(out, weyl_r(d, m, n), str(s))
                for s in range(1, N):
                    out = apply_local(out, weyl_r(d, -m, n), f"A_{s}")
                want = opsbasis.omega_power(d, j * m) * phi_state(d, N, j).amps
                np.testing.assert_allclose(out.amps, want, atol=1e-12)


@pytest.mark.parametrize("d", range(2, 8))
def test_root_of_unity_sum(d):
    for j in range(d):
        total = sum(opsbasis.omega_power(d, j * k) for k in range(d))
        want = d if j == 0 else 0.0
        assert abs(total - want) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_basis_change_identity(d):
    # |j>|k> = (1/sqrt d) sum_l w^{-jl} |B^{l, k-j}>
    for j in range(d):
        for k in range(d):
            want = np.zeros(d * d, dtype=complex)
            want[j * d + k] = 1.0
            acc = np.zeros(d * d, dtype=complex)
            for l in range(d):
                acc += opsbasis.omega_power(d, -j * l) * opsbasis.bell_vector(d, l, (k - j) % d)
            np.testing.assert_allclose(acc / np.sqrt(d), want, atol=1e-12)
