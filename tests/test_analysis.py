import numpy as np
import pytest

import reference
from qric import (
    Cut,
    bell_state,
    channel_labels,
    clone_fidelity_formula,
    compare_fingerprints,
    fingerprint,
    ppt_min_eigenvalue,
    smolin_like,
    stabilizer_suite,
    symmetry_report,
    unlock_ubes,
    verify_appendix_b,
    verify_appendix_c,
)
from qric import analysis, channels, statealg
from qric.errors import DimensionError
from qric.statealg import DensityOperator, Register


# ---------------------------------------------------------------------------
# fidelity formula

def test_formula_values():
    assert clone_fidelity_formula(2, 2) == pytest.approx(5 / 6)
    assert clone_fidelity_formula(2, 3) == pytest.approx(7 / 9)
    assert clone_fidelity_formula(3, 2) == pytest.approx(3 / 4)
    with pytest.raises(DimensionError):
        clone_fidelity_formula(1, 2)


# ---------------------------------------------------------------------------
# stabilizer suite

def stabilizer_suite_passes(table, tol=1e-9):
    return all(abs(val - 1.0) <= tol for val in table.values())


def test_suite_ghz_2_2():
    table = stabilizer_suite(channels.ghz_channel(2, 2), 2, 2)
    assert len(table) == 4
    assert stabilizer_suite_passes(table)


def test_suite_smolin_3_2():
    table = stabilizer_suite(smolin_like(3, 2), 3, 2)
    assert len(table) == 9
    assert stabilizer_suite_passes(table)


def test_suite_fails_on_random_product_state():
    rng = np.random.default_rng(5)
    parts = []
    for l in channel_labels(2):
        parts.append(statealg.random_qudit(2, rng, l))
    st = statealg.tensor_many(parts)
    table = stabilizer_suite(st, 2, 2)
    assert not stabilizer_suite_passes(table)


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("preset", ["ghz", "beta", "bell-product", "smolin", "mixed-uniform"])
def test_suite_every_zero_residue_channel(d, N, preset):
    state = channels.preset_spec(preset, d, N).build()
    assert stabilizer_suite_passes(stabilizer_suite(state, d, N))


# ---------------------------------------------------------------------------
# appendix equivalences

@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
def test_appendix_b(d, N):
    assert verify_appendix_b(d, N) < 1e-12


def test_appendix_c_d2():
    for N in (2, 3):
        ov, ok = verify_appendix_c(2, N)
        assert ok and abs(ov - 1) < 1e-9


def test_appendix_c_d3():
    ov, ok = verify_appendix_c(3, 2)
    assert ok and ov < 1 - 1e-6


# ---------------------------------------------------------------------------
# UBES: unlock, spectrum, ppt, symmetry

@pytest.mark.parametrize("d,N", [(2, 2), (3, 2)])
def test_unlock_every_outcome_is_bell(d, N):
    reports = unlock_ubes(d, N)
    assert len(reports) == d ** (2 * (N - 1))
    for r in reports:
        assert r.purity > 1 - 1e-9
        assert abs(r.pair_entropy - np.log2(d)) < 1e-8
        assert r.bell_overlap > 1 - 1e-9
        assert r.is_bell
    assert sum(r.probability for r in reports) == pytest.approx(1.0, abs=1e-10)


def test_unlock_d2_n3_two_gbms():
    reports = unlock_ubes(2, 3)
    for r in reports:
        assert len(r.outcomes) == 2
        assert r.purity > 1 - 1e-9
        assert r.bell_overlap > 1 - 1e-9


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
def test_smolin_rank_and_flat_spectrum(d, N):
    rank, dev = analysis.smolin_spectrum_check(smolin_like(d, N))
    assert rank == d ** (2 * (N - 1))
    assert dev < 1e-10


def test_ppt_separable_identity():
    reg = Register(2, ("a", "b"))
    rho = DensityOperator(reg, np.eye(4) / 4, validate=False)
    assert ppt_min_eigenvalue(rho, Cut(("a",), ("b",))) >= -1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_ppt_bell_state_min_eigenvalue(d):
    b = bell_state(d, 0, 0, ("a", "b"))
    rho = b.to_density()
    val = ppt_min_eigenvalue(rho, Cut(("a",), ("b",)))
    assert abs(val - (-1 / d)) < 1e-10


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
def test_ppt_smolin_pair_grouping_cuts(d, N):
    rho = smolin_like(d, N)
    labels = channel_labels(N)
    for s in range(1, N):
        cut = Cut(labels[: 2 * s], labels[2 * s:])
        assert ppt_min_eigenvalue(rho, cut) >= -1e-10


def test_symmetry_d2_fully_symmetric():
    rep = symmetry_report(smolin_like(2, 2), 2, 2)
    assert rep.within_max() < 1e-10
    assert rep.cross_max() < 1e-10


def test_symmetry_d3_cross_asymmetric():
    rep = symmetry_report(smolin_like(3, 2), 3, 2)
    assert rep.within_max() < 1e-10
    assert rep.cross_max() > 1e-3


def test_symmetry_d3_n3_within_group():
    rep = symmetry_report(smolin_like(3, 3), 3, 3)
    assert rep.within_max() < 1e-10
    assert rep.cross_max() > 1e-3


def _random_density(d, N, rng):
    reg = Register(d, channel_labels(N))
    g = rng.normal(size=(reg.dim, reg.dim)) + 1j * rng.normal(size=(reg.dim, reg.dim))
    rho = g @ g.conj().T
    return DensityOperator(reg, rho / np.trace(rho), validate=False)


@pytest.mark.parametrize("source", ["smolin", "random"])
@pytest.mark.parametrize("d,N", [(2, 2), (3, 2)])
def test_symmetry_report_matches_permute_reference(d, N, source):
    rho = smolin_like(d, N) if source == "smolin" else _random_density(d, N, np.random.default_rng(d))
    rep = symmetry_report(rho, d, N)
    for dists in (rep.within_g1, rep.within_g2, rep.cross):
        assert dists
        for (a, b), dist in dists.items():
            want = np.linalg.norm(rho.mat - statealg.permute(rho, {a: b, b: a}).mat)
            assert abs(dist - want) < 1e-12, (a, b)
    if source == "random":
        assert rep.within_max() > 1e-3 and rep.cross_max() > 1e-3


def test_permute_smolin_within_group_swap_identity():
    # one concrete swap inside the first-slot group leaves the matrix unchanged
    rho = smolin_like(2, 2)
    g1, _g2 = analysis.symmetry_groups(2)
    swapped = statealg.permute(rho, {g1[0]: g1[1], g1[1]: g1[0]})
    np.testing.assert_allclose(swapped.mat, rho.mat, atol=1e-12)


# ---------------------------------------------------------------------------
# fingerprints

def test_fingerprint_self_indistinguishable():
    ch = channels.ghz_channel(2, 2)
    assert not compare_fingerprints(fingerprint(ch), fingerprint(ch))


@pytest.mark.parametrize("d", [2, 3])
def test_fingerprint_ghz_vs_beta_distinguishable(d):
    a = fingerprint(channels.ghz_channel(d, 2))
    b = fingerprint(channels.beta_weighted_channel(d, 2))
    assert compare_fingerprints(a, b)


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2)])
def test_smolin_is_maximally_mixed_over_stabilized_subspace(d, N):
    # P = (1/d^2) sum_{mn} S^{mn} must be a rank-d^{2(N-1)} projector and the
    # Smolin-like state must equal P / rank(P)
    from qric.opsbasis import weyl_u

    minus, plus = analysis.stabilizer_groups(N)
    labels = channel_labels(N)
    reg = Register(d, labels)
    dim = d ** (2 * N)
    proj = np.zeros((dim, dim), dtype=complex)
    for m in range(d):
        for n in range(d):
            op = np.eye(dim, dtype=complex)
            for l in labels:
                local = weyl_u(d, -m if l in minus else m, n)
                op = reference.dense_local_operator(reg, local, l) @ op
            proj += op
    proj /= d * d
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)  # idempotent
    rank = int(round(np.real(np.trace(proj))))
    assert rank == d ** (2 * (N - 1))
    np.testing.assert_allclose(smolin_like(d, N).mat, proj / rank, atol=1e-10)
