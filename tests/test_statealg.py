import itertools

import numpy as np
import pytest

import reference
from reference import apply_local, basis_state
from qric import (
    PureState,
    Register,
    bell_state,
    entropy,
    overlap,
    permute,
    tensor,
)
from qric import statealg
from qric.errors import DimensionError, LabelError, NormalizationError, SizeGuardError
from qric.opsbasis import weyl_r


def rand_state(d, labels, rng):
    v = rng.normal(size=d ** len(labels)) + 1j * rng.normal(size=d ** len(labels))
    v /= np.linalg.norm(v)
    return PureState(Register(d, labels), v)


# ---------------------------------------------------------------------------
# register / indexing

def test_register_rejects_duplicates_and_small_d():
    with pytest.raises(LabelError):
        Register(2, ("a", "a"))
    with pytest.raises(DimensionError):
        Register(1, ("a",))


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (4, 2), (2, 4)])
def test_big_endian_index_law_against_string_map(d, n):
    # oracle: map basis strings to indices via an explicit dict
    labels = tuple(f"q{i}" for i in range(n))
    rng = np.random.default_rng(0)
    st = rand_state(d, labels, rng)
    table = {}
    for idx, dits in enumerate(itertools.product(range(d), repeat=n)):
        table[dits] = st.amps[idx]
    for dits in itertools.product(range(d), repeat=n):
        expect = sum(j * d ** (n - 1 - k) for k, j in enumerate(dits))
        assert table[dits] == st.amps[expect]
        assert st.amplitude(dits) == st.amps[expect]


def test_norm_validation():
    with pytest.raises(NormalizationError):
        PureState(Register(2, ("a", )), [1.0, 1.0])


def test_size_guard_ignores_the_environment(monkeypatch):
    monkeypatch.setenv("QRIC_MAX_DIM", "8")
    assert basis_state(2, (0,) * 4, ("a", "b", "c", "e")).register.dim == 16


def test_oversized_register_raises_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("allocated an oversized array")

    labels = tuple(f"q{i}" for i in range(24))  # 2^24 amplitudes, 256 MiB
    front = basis_state(2, (0,) * 12, labels[:12])
    back = basis_state(2, (0,) * 12, labels[12:])
    monkeypatch.setattr(np, "zeros", refuse)
    monkeypatch.setattr(np, "kron", refuse)
    with pytest.raises(SizeGuardError):
        basis_state(2, (0,) * 24, labels)
    with pytest.raises(SizeGuardError):
        tensor(front, back)


def test_density_byte_budget_refuses_2401_rows():
    with pytest.raises(SizeGuardError):
        reference.smolin_like(7, 2)


# ---------------------------------------------------------------------------
# tensor

def test_tensor_basis_case():
    st = tensor(basis_state(2, [0], ["x"]), basis_state(2, [1], ["y"]))
    assert st.amplitude((0, 1)) == 1.0


def test_tensor_plus_zero():
    plus = PureState(Register(2, ("x",)), np.array([1, 1]) / np.sqrt(2))
    st = tensor(plus, basis_state(2, [0], ["y"]))
    np.testing.assert_allclose(st.amps, np.array([1, 0, 1, 0]) / np.sqrt(2), atol=1e-12)


def test_tensor_bell_pairs_d3_against_double_sum():
    st = tensor(bell_state(3, 0, 0, ("X", "Y")), bell_state(3, 0, 0, ("X'", "Y'")))
    # oracle: direct double sum (1/3) sum_{j,k} |j j k k>
    oracle = np.zeros(81, dtype=complex)
    for j in range(3):
        for k in range(3):
            oracle[j * 27 + j * 9 + k * 3 + k] = 1 / 3
    np.testing.assert_allclose(st.amps, oracle, atol=1e-12)
    assert abs(np.linalg.norm(st.amps) - 1) < 1e-10


def test_tensor_rejects_mismatch():
    with pytest.raises(DimensionError):
        tensor(basis_state(2, [0], ["x"]), basis_state(3, [0], ["y"]))
    with pytest.raises(LabelError):
        tensor(basis_state(2, [0], ["x"]), basis_state(2, [0], ["x"]))


# ---------------------------------------------------------------------------
# apply_local (the test-local oracle) with the package's Weyl matrices

def test_apply_identity():
    rng = np.random.default_rng(1)
    st = rand_state(3, ("a", "b"), rng)
    out = apply_local(st, np.eye(3), "a")
    np.testing.assert_allclose(out.amps, st.amps, atol=1e-12)


def test_apply_r01_d3():
    # R^{0,1}|1> = |0>
    st = basis_state(3, [1], ["q"])
    out = apply_local(st, weyl_r(3, 0, 1), "q")
    np.testing.assert_allclose(out.amps, [1, 0, 0], atol=1e-12)


def test_apply_r10_d2_on_plus():
    plus = PureState(Register(2, ("q",)), np.array([1, 1]) / np.sqrt(2))
    out = apply_local(plus, weyl_r(2, 1, 0), "q")
    np.testing.assert_allclose(out.amps, np.array([1, -1]) / np.sqrt(2), atol=1e-12)


@pytest.mark.parametrize("d,n,target", [(2, 4, 1), (3, 3, 0), (4, 2, 1), (2, 5, 4)])
def test_apply_local_matches_dense_oracle(d, n, target):
    rng = np.random.default_rng(d * 10 + n)
    labels = tuple(f"q{i}" for i in range(n))
    st = rand_state(d, labels, rng)
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(m)
    out = apply_local(st, q, labels[target])
    dense = reference.dense_local_operator(st.register, q, labels[target])
    np.testing.assert_allclose(out.amps, dense @ st.amps, atol=1e-10)
    assert abs(np.linalg.norm(out.amps) - 1) < 1e-10  # norm preservation


def test_apply_local_errors():
    st = basis_state(2, [0, 0], ["a", "b"])
    with pytest.raises(LabelError):
        apply_local(st, np.eye(2), "zz")
    with pytest.raises(DimensionError):
        apply_local(st, np.eye(3), "a")
    with pytest.raises(DimensionError):
        apply_local(st, 2 * np.eye(2), "a", check_unitary=True)


# ---------------------------------------------------------------------------
# partial trace (the dense oracle) and entropy

def test_partial_trace_bell_marginal():
    rho = reference.partial_trace(bell_state(2, 0, 0, ("X", "Y")), ["X"])
    np.testing.assert_allclose(rho.mat, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_product():
    rho = reference.partial_trace(basis_state(2, [0, 0], ["X", "Y"]), ["X"])
    np.testing.assert_allclose(rho.mat, [[1, 0], [0, 0]], atol=1e-12)


@pytest.mark.parametrize("d,n", [(2, 6), (2, 8), (3, 4), (4, 3)])
def test_partial_trace_properties_random(d, n):
    rng = np.random.default_rng(n * d)
    labels = tuple(f"q{i}" for i in range(n))
    st = rand_state(d, labels, rng)
    keep = list(labels[: n // 2])
    rho = reference.partial_trace(st, keep)
    assert abs(np.trace(rho.mat) - 1) < 1e-10
    assert np.linalg.eigvalsh(rho.mat).min() > -1e-10


def test_partial_trace_errors():
    st = basis_state(2, [0, 0], ["a", "b"])
    with pytest.raises(LabelError):
        entropy(st, [])
    with pytest.raises(LabelError):
        entropy(st, ["nope"])


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("size", [1, 2, 3])
def test_entropy_matches_the_dense_oracle(d, size):
    # kept groups in any label order, on random states of 4 qudits
    rng = np.random.default_rng(10 * d + size)
    labels = ("a", "b", "c", "e")
    for _ in range(5):
        st = rand_state(d, labels, rng)
        keep = list(rng.permutation(labels)[:size])
        want = reference.von_neumann_entropy(reference.partial_trace(st, keep))
        assert abs(entropy(st, keep) - want) < 1e-12


# ---------------------------------------------------------------------------
# permute / overlap / entropy

def test_permute_symmetric_bell():
    b = bell_state(2, 0, 0, ("X", "Y"))
    swapped = permute(b, {"X": "Y", "Y": "X"})
    np.testing.assert_allclose(swapped.amps, b.amps, atol=1e-12)


def test_permute_moves_contents():
    st = basis_state(2, [0, 1], ["X", "Y"])
    swapped = permute(st, {"X": "Y", "Y": "X"})
    assert swapped.register.labels == ("X", "Y")
    assert swapped.amplitude((1, 0)) == 1.0


def test_permute_roundtrip_identity():
    rng = np.random.default_rng(5)
    labels = ("a", "b", "c")
    st = rand_state(3, labels, rng)
    fwd = {"a": "b", "b": "c", "c": "a"}
    inv = {v: k for k, v in fwd.items()}
    back = permute(permute(st, fwd), inv)
    np.testing.assert_allclose(back.amps, st.amps, atol=1e-12)


def test_permute_rejects_non_bijection():
    st = basis_state(2, [0, 0], ["a", "b"])
    with pytest.raises(LabelError):
        permute(st, {"a": "b"})


def test_overlap_examples():
    z0 = basis_state(2, [0], ["q"])
    z1 = basis_state(2, [1], ["q"])
    assert overlap(z0, z0) == 1
    assert overlap(z0, z1) == 0
    b = bell_state(2, 1, 1, ("X", "Y"))
    phased = PureState(Register(2, ("X", "Y")), np.exp(1j * np.pi / 7) * b.amps)
    assert abs(overlap(phased, b)) >= 1 - 1e-10


def test_overlap_register_mismatch():
    with pytest.raises(LabelError):
        overlap(basis_state(2, [0], ["q"]), basis_state(2, [0], ["r"]))


def test_overlap_refuses_another_label_order():
    # no alignment: a caller compares states on one register order
    with pytest.raises(LabelError):
        overlap(basis_state(2, [0, 1], ["q", "r"]), basis_state(2, [1, 0], ["r", "q"]))


def test_entropy_product_and_bell():
    prod = basis_state(2, [0, 0], ["X", "Y"])
    assert entropy(prod, ["Y"]) < 1e-12
    b3 = bell_state(3, 0, 0, ("X", "Y"))
    assert abs(entropy(b3, ["Y"]) - np.log2(3)) < 1e-10


def test_entropy_ghz_channel_last_cut():
    from qric import channel_labels, ghz_channel

    ch = ghz_channel(2, 2)
    labels = channel_labels(2)
    assert abs(entropy(ch, labels[-1:]) - 1.0) < 1e-8


def test_states_are_frozen():
    st = basis_state(2, [0], ["q"])
    with pytest.raises(ValueError):
        st.amps[0] = 5.0


def test_constructor_copies_the_callers_array():
    amps = np.array([1.0, 0.0], dtype=np.complex128)
    st = PureState(Register(2, ("q",)), amps)
    amps[:] = [0.0, 1.0]
    assert st.amps.tolist() == [1.0, 0.0]
    assert amps.flags.writeable


def test_tensor_and_reorder_results_are_frozen():
    rng = np.random.default_rng(4)
    joint = tensor(rand_state(2, ("a",), rng), rand_state(2, ("b", "c"), rng))
    for st in (joint, statealg.reorder(joint, ("c", "a", "b"))):
        with pytest.raises(ValueError):
            st.amps[0] = 5.0
