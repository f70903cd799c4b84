import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from qric import (
    Cut,
    bell_state,
    channel_labels,
    clone_fidelity_formula,
    entropy_gap,
    ppt_min_eigenvalue,
    stabilizer_suite,
    symmetry_report,
    unlock_ubes,
    verify_appendix_b,
    verify_appendix_c,
)
from qric import analysis, channels, opsbasis, statealg
from qric.errors import DimensionError, LabelError, ProtocolError, SizeGuardError
from qric.statealg import DensityOperator, Register


def smolin(d, N):
    return channels.preset_spec("smolin", d, N).build()


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
    table = stabilizer_suite(smolin(3, 2), 3, 2)
    assert len(table) == 9
    assert stabilizer_suite_passes(table)


def test_suite_fails_on_random_product_state():
    rng = np.random.default_rng(5)
    parts = []
    for l in channel_labels(2):
        parts.append(statealg.PureState(Register(2, (l,)), statealg.random_qudit(2, rng).amps))
    st = statealg.tensor_many(parts)
    table = stabilizer_suite(st, 2, 2)
    assert not stabilizer_suite_passes(table)


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("preset", ["ghz", "beta", "bell-product", "smolin", "mixed-uniform"])
def test_suite_every_zero_residue_channel(d, N, preset):
    state = channels.preset_spec(preset, d, N).build()
    assert stabilizer_suite_passes(stabilizer_suite(state, d, N))


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (4, 2), (5, 2), (3, 3), (2, 4)])
@pytest.mark.parametrize("preset", ["ghz", "beta", "bell-product", "random"])
def test_pure_stabilizer_tables_match_the_per_element_oracle(preset, d, N):
    if preset == "random":  # a generic state on shuffled labels: no entry of its table is 1
        rng = np.random.default_rng(d + 10 * N)
        labels = tuple(rng.permutation(channel_labels(N)))
        amps = rng.normal(size=d ** (2 * N)) + 1j * rng.normal(size=d ** (2 * N))
        state = statealg.PureState(Register(d, labels), amps / np.linalg.norm(amps))
    else:
        state = channels.preset_spec(preset, d, N).build()
    got, want = stabilizer_suite(state, d, N), reference.stabilizer_suite(state, d, N)
    assert list(got) == list(want)
    assert max(abs(got[k] - want[k]) for k in got) < 1e-14


def test_pure_stabilizer_table_refuses_a_register_the_groups_do_not_cover():
    with pytest.raises(LabelError, match="group assignment must cover the register"):
        stabilizer_suite(channels.telecloning_channel(2, 2), 2, 2)


# ---------------------------------------------------------------------------
# appendix equivalences

@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
def test_appendix_b(d, N):
    assert verify_appendix_b(d, N) < 1e-12


def test_appendix_c_d2():
    for N in (2, 3):
        assert abs(verify_appendix_c(2, N, channels.beta_weighted_channel(2, N)) - 1) < 1e-9


def test_appendix_c_d3():
    assert verify_appendix_c(3, 2, channels.beta_weighted_channel(3, 2)) < 1 - 1e-6


# ---------------------------------------------------------------------------
# dense identity oracles

def _identity_rows(d):
    """Every (m, n, m2, n2) for d <= 3, else 50 seeded tuples; one unit phi per row."""
    rng = np.random.default_rng(40 + d)
    rows = (np.array(list(itertools.product(range(d), repeat=4))) if d <= 3
            else rng.integers(0, d, (50, 4)))
    phis = rng.normal(size=(len(rows), d)) + 1j * rng.normal(size=(len(rows), d))
    return rows, phis / np.linalg.norm(phis, axis=1, keepdims=True)


@pytest.mark.parametrize("d", range(2, 8))
def test_batched_identity_checks_match_the_per_term_reference(d):
    rows, phis = _identity_rows(d)
    swap = analysis.swap_identity_check(d, *rows.T)
    tele = analysis.teleport_identity_check(d, *rows.T, phis)
    assert swap.shape == tele.shape == (len(rows),)
    for t, phi, s, tp in zip(rows.tolist(), phis, swap, tele):
        assert abs(s - reference.swap_identity_check(d, *t)) <= 1e-15
        assert abs(tp - reference.teleport_identity_check(d, *t, phi)) <= 1e-15
    assert max(swap.max(), tele.max()) < 1e-12


def test_identity_checks_give_a_float_for_ints_and_broadcast_arrays():
    swap = analysis.swap_identity_check(3, 1, 2, 0, 1)
    tele = analysis.teleport_identity_check(3, 1, 2, 0, 1, reference.unit_vector(3, 7))
    assert type(swap) is float and type(tele) is float and max(swap, tele) < 1e-12
    m = np.arange(3)[:, None]
    grid = analysis.swap_identity_check(3, m, np.arange(3), 0, 1)
    assert grid.shape == (3, 3)
    assert grid[2, 1] == analysis.swap_identity_check(3, 2, 1, 0, 1)
    phis = _identity_rows(3)[1][:2]
    tele = analysis.teleport_identity_check(3, m, 1, 0, 2, phis)
    assert tele.shape == (3, 2)
    assert tele[1, 0] == analysis.teleport_identity_check(3, 1, 1, 0, 2, phis[0])


def test_swap_check_fails_when_the_rearrangement_phase_is_conjugated(monkeypatch):
    # the batched check must be able to fail: w^{-fg} in place of w^{fg}
    conjugated = opsbasis.omega_table(3).conj()
    monkeypatch.setattr(opsbasis, "omega_table", lambda d: conjugated)
    assert analysis.swap_identity_check(3, *np.indices((3,) * 4).reshape(4, -1)).max() > 0.1


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
    assert sum(r.probability for r in reports) == pytest.approx(1.0, abs=1e-10)


def test_unlock_d2_n3_two_gbms():
    reports = unlock_ubes(2, 3)
    for r in reports:
        assert len(r.outcomes) == 2
        assert r.purity > 1 - 1e-9
        assert r.bell_overlap > 1 - 1e-9


UNLOCK_FIELDS = ("probability", "purity", "pair_entropy", "bell_overlap")


def assert_same_unlock_reports(got, want):
    assert [r.outcomes for r in got] == [r.outcomes for r in want]
    for g, w in zip(got, want):
        for field in UNLOCK_FIELDS:
            assert abs(getattr(g, field) - getattr(w, field)) <= 1e-14, (g.outcomes, field)


@pytest.mark.parametrize("d,N", [(d, 2) for d in (2, 3, 4, 5, 6, 7, 12)]
                         + [(2, 3), (3, 3), (4, 3), (6, 3), (2, 5), (2, 7), (3, 4), (4, 4)])
def test_unlock_from_the_bell_diagonal_matches_the_protocol_oracle(d, N):
    assert_same_unlock_reports(unlock_ubes(d, N), reference.unlock_ubes(d, N))


@pytest.mark.parametrize("d,N", [(3, 2), (4, 2), (3, 3)])
def test_unlock_of_a_random_mixture_matches_the_protocol_oracle(d, N):
    # unequal weights, and each outcome of pairs 2..N shared by two tuples, so the conditional
    # pair states are mixed and a wrong index map for the last pair, built on (N', A'_N),
    # would move every field
    rng = np.random.default_rng(5 * d + N)
    tuples = rng.integers(0, d, (2 * d, 2 * N))
    tuples[d:, 2:] = tuples[:d, 2:]
    weights = rng.random(2 * d)
    mix = channels.BellMixture(d, N, tuples, weights / weights.sum())
    got = unlock_ubes(d, N, rho=mix)
    assert_same_unlock_reports(got, reference.unlock_ubes(d, N, rho=mix))
    assert min(r.purity for r in got) < 1 - 1e-3


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (3, 3)])
def test_unlock_sample_draws_the_oracle_outcomes(d, N):
    # seeds 0-9 and the CLI default the sample tests run at; trials below and above the
    # outcome count
    for seed in [*range(10), 1234]:
        for trials in (1, 4, 10, 100):
            got, want = (f(d, N, np.random.default_rng(seed), trials)
                         for f in (unlock_ubes, reference.unlock_ubes))
            assert_same_unlock_reports(got, want)


def test_unlock_sample_needs_a_generator_and_a_trial():
    with pytest.raises(ProtocolError, match="Generator"):
        unlock_ubes(2, 2, None, 3)
    with pytest.raises(ProtocolError):
        unlock_ubes(2, 2, np.random.default_rng(0), 0)


def test_unlock_refuses_its_bell_diagonal_before_enumerating_the_mixture(monkeypatch):
    def not_before_the_guard(*args, **kwargs):
        raise AssertionError("mixture enumerated before the size guard")

    monkeypatch.setattr(channels, "preset_spec", not_before_the_guard)
    with pytest.raises(SizeGuardError, match="unlock Bell diagonal bytes"):
        unlock_ubes(20, 3)


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
def test_smolin_rank_and_flat_spectrum(d, N):
    rank, dev = analysis.smolin_spectrum_check(smolin(d, N))
    assert rank == d ** (2 * (N - 1))
    assert dev < 1e-10


def test_ppt_separable_identity():
    reg = Register(2, ("a", "b"))
    rho = DensityOperator(reg, np.eye(4) / 4)
    assert reference.ppt_min_eigenvalue(rho, Cut(("a",), ("b",))) >= -1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_ppt_bell_state_min_eigenvalue(d):
    b = bell_state(d, 0, 0, ("a", "b"))
    rho = DensityOperator(b.register, np.outer(b.amps, b.amps.conj()))
    val = reference.ppt_min_eigenvalue(rho, Cut(("a",), ("b",)))
    assert abs(val - (-1 / d)) < 1e-10


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
def test_ppt_smolin_pair_grouping_cuts(d, N):
    rho = smolin(d, N)
    labels = channel_labels(N)
    for s in range(1, N):
        cut = Cut(labels[: 2 * s], labels[2 * s:])
        assert ppt_min_eigenvalue(rho, cut) >= -1e-10


def test_symmetry_d2_fully_symmetric():
    rep = symmetry_report(smolin(2, 2), 2, 2)
    assert rep.within_max() < 1e-10
    assert rep.cross_max() < 1e-10


def test_symmetry_d3_cross_asymmetric():
    rep = symmetry_report(smolin(3, 2), 3, 2)
    assert rep.within_max() < 1e-10
    assert rep.cross_max() > 1e-3


def test_symmetry_d3_n3_within_group():
    rep = symmetry_report(smolin(3, 3), 3, 3)
    assert rep.within_max() < 1e-10
    assert rep.cross_max() > 1e-3


def _random_density(d, N, rng):
    reg = Register(d, channel_labels(N))
    g = rng.normal(size=(reg.dim, reg.dim)) + 1j * rng.normal(size=(reg.dim, reg.dim))
    rho = g @ g.conj().T
    return DensityOperator(reg, rho / np.trace(rho))


@pytest.mark.parametrize("source", ["smolin", "random"])
@pytest.mark.parametrize("d,N", [(2, 2), (3, 2)])
def test_symmetry_report_matches_permute_reference(d, N, source):
    # the package's report of the Smolin mixture, and the dense oracle's of a random density
    if source == "smolin":
        rho = reference.smolin_like(d, N)
        rep = symmetry_report(smolin(d, N), d, N)
    else:
        rho = _random_density(d, N, np.random.default_rng(d))
        rep = reference.symmetry_report(rho, d, N)
    for dists in (rep.within_g1, rep.within_g2, rep.cross):
        assert dists
        for (a, b), dist in dists.items():
            want = np.linalg.norm(rho.mat - reference.permute(rho, {a: b, b: a}).mat)
            assert abs(dist - want) < 1e-12, (a, b)
    if source == "random":
        assert rep.within_max() > 1e-3 and rep.cross_max() > 1e-3


def test_permute_smolin_within_group_swap_identity():
    # one concrete swap inside the first-slot group leaves the matrix unchanged
    rho = reference.smolin_like(2, 2)
    g1, _g2 = analysis.stabilizer_groups(2)
    swapped = reference.permute(rho, {g1[0]: g1[1], g1[1]: g1[0]})
    np.testing.assert_allclose(swapped.mat, rho.mat, atol=1e-12)


# ---------------------------------------------------------------------------
# the mixture analysis against the dense oracle

def pair_aligned_cuts(N):
    """Every cut that keeps each pair (A'_s, s') whole, pair 1 on side A."""
    labels = channel_labels(N)
    for size in range(1, N):
        for pairs in itertools.combinations(range(1, N), size):
            side_b = tuple(l for s in pairs for l in labels[2 * s:2 * s + 2])
            yield Cut(tuple(l for l in labels if l not in side_b), side_b)


def assert_matches_the_dense_oracle(mix):
    d, N = mix.d, mix.N
    rho = reference.density(mix)
    spectrum = np.sort(np.linalg.eigvalsh(rho.mat))
    assert np.abs(np.sort(mix.diagonal().ravel()) - spectrum).max() < 1e-12
    labels = channel_labels(N)
    for s in range(1, N):  # the cuts verify reports
        cut = Cut(labels[: 2 * s], labels[2 * s:])
        assert abs(ppt_min_eigenvalue(mix, cut) - reference.ppt_min_eigenvalue(rho, cut)) < 1e-12
    got, want = stabilizer_suite(mix, d, N), reference.stabilizer_suite(rho, d, N)
    assert list(got) == list(want)
    assert max(abs(got[k] - want[k]) for k in got) < 1e-12
    got, want = symmetry_report(mix, d, N), reference.symmetry_report(rho, d, N)
    for g, w in ((got.within_g1, want.within_g1), (got.within_g2, want.within_g2),
                 (got.cross, want.cross)):
        assert list(g) == list(w)
        assert max(abs(g[k] - w[k]) for k in g) < 1e-12
    return rho


@st.composite
def bell_mixtures(draw):
    """A mixed channel: 2..6 tuples of one (u, v), one of them repeated, random weights."""
    d, N = draw(st.sampled_from([(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]))  # densities that fit
    u, v = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    heads = draw(st.lists(st.tuples(*[st.integers(0, d - 1)] * (2 * N - 2)),
                          min_size=2, max_size=6))
    heads.append(draw(st.sampled_from(heads)))
    tuples = [h + ((u - sum(h[0::2])) % d, (v - sum(h[1::2])) % d) for h in heads]
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=len(tuples),
                                     max_size=len(tuples))))
    table = list(zip(tuples, weights / weights.sum()))
    return channels.ChannelSpec(kind="mixed", d=d, N=N, u=u, v=v, table=table).build()


@settings(max_examples=25, deadline=None)
@given(bell_mixtures())
def test_random_bell_mixture_analysis_matches_the_dense_oracle(mix):
    assert_matches_the_dense_oracle(mix)


# every (d, N) whose Smolin density the old 2**11-row density guard admitted
@pytest.mark.parametrize("d,N", [(d, N) for d in range(2, 7) for N in range(2, 6)
                                 if d ** (2 * N) <= 2**11])
@pytest.mark.parametrize("preset", ["smolin", "mixed-uniform"])
def test_preset_mixture_analysis_matches_the_dense_oracle(preset, d, N):
    mix = channels.preset_spec(preset, d, N).build()
    rho = assert_matches_the_dense_oracle(mix)
    rank, dev = analysis.smolin_spectrum_check(mix)
    want_rank, want_dev = reference.spectrum_check(rho)
    assert rank == want_rank == d ** (2 * (N - 1))
    assert abs(dev - want_dev) < 1e-12


# where the dense density does not fit: the closed forms against the amplitude-row
# stabilizer sum and the swap as a dense matrix in the Bell basis
@pytest.mark.parametrize("d,N", [(4, 3), (6, 2)])
@pytest.mark.parametrize("preset", ["smolin", "mixed-uniform", "random"])
def test_mixture_closed_forms_match_the_amplitude_oracles(preset, d, N):
    if preset == "random":  # 12 tuples of any residues, so within-group swaps move W
        rng = np.random.default_rng(10 * d + N)
        weights = rng.random(12)
        mix = channels.BellMixture(d, N, rng.integers(0, d, (12, 2 * N)), weights / weights.sum())
    else:
        mix = channels.preset_spec(preset, d, N).build()
    got, want = stabilizer_suite(mix, d, N), reference.stabilizer_suite_from_rows(mix, d, N)
    assert list(got) == list(want)
    assert max(abs(got[k] - want[k]) for k in got) < 1e-12
    rep = symmetry_report(mix, d, N)
    for dists in (rep.within_g1, rep.within_g2, rep.cross):
        assert dists
        for (a, b), dist in dists.items():
            assert abs(dist - reference.bell_swap_distance(mix, a, b)) < 1e-12, (a, b)
    if preset == "random":
        assert rep.within_max() > 1e-3


@pytest.mark.parametrize("a,b", [("A'_1", "A'_2"), ("1'", "2'"), ("A'_1", "A'_1")])
def test_swap_distance_refuses_swaps_outside_the_closed_forms(a, b):
    # A'_2 is the second built slot of the last pair (N', A'_N), 2' the first
    with pytest.raises(LabelError):
        analysis._swap_distance(smolin(3, 2), a, b)


def test_stabilizer_suite_refuses_a_mixture_of_another_N():
    with pytest.raises(LabelError):
        stabilizer_suite(smolin(2, 2), 2, 3)


def test_mixture_analysis_builds_no_bell_products(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the mixture analysis built Bell-product amplitudes")

    mix = channels.preset_spec("mixed-uniform", 4, 3).build()
    monkeypatch.setattr(channels, "bell_products", refuse)
    stabilizer_suite(mix, 4, 3)
    symmetry_report(mix, 4, 3)


def test_ppt_min_eigenvalue_is_the_least_weight_and_refuses_split_pairs():
    mix = smolin(3, 2)
    assert ppt_min_eigenvalue(mix, Cut(("A'_1", "1'"), ("A'_2", "2'"))) == 0.0
    with pytest.raises(LabelError):
        ppt_min_eigenvalue(mix, Cut(("A'_1", "2'"), ("1'", "A'_2")))


# ---------------------------------------------------------------------------
# partial transposes of the dense oracle: why the pair-aligned PPT row is exact

@pytest.mark.parametrize("d,expected", [(2, 0.0), (3, -0.037), (4, -0.031)])
def test_smolin_slot_group_cut_is_ppt_only_for_qubits(d, expected):
    # the stabilizer-group cut {A'_1, 2'} | {1', A'_2} splits both pairs
    val = reference.ppt_min_eigenvalue(reference.smolin_like(d, 2),
                                       Cut(("A'_1", "2'"), ("1'", "A'_2")))
    assert round(val, 3) == expected
    assert val >= -1e-12 if d == 2 else val < -1e-3


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (4, 2), (2, 3)])
def test_pair_aligned_partial_transpose_spectrum_is_the_bell_diagonal(d, N):
    # transposing whole pairs maps every Bell product to another one, so with
    # distinct weights on all d^2N products the spectrum is the weights
    weights = np.random.default_rng(10 * d + N).random(d ** (2 * N))
    weights /= weights.sum()
    tuples = list(itertools.product(range(d), repeat=2 * N))
    rho = reference.density(channels.BellMixture(d, N, tuples, weights))
    for cut in pair_aligned_cuts(N):
        spectrum = np.linalg.eigvalsh(reference.partial_transpose(rho, cut.groupB))
        assert np.abs(np.sort(spectrum) - np.sort(weights)).max() < 1e-12


# ---------------------------------------------------------------------------
# fingerprints

def test_fingerprint_self_indistinguishable():
    ch = channels.ghz_channel(2, 2)
    assert entropy_gap(ch, ch) == 0


@pytest.mark.parametrize("d", [2, 3])
def test_fingerprint_ghz_vs_beta_distinguishable(d):
    gap = entropy_gap(channels.ghz_channel(d, 2), channels.beta_weighted_channel(d, 2))
    assert gap > 1e-6


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
    np.testing.assert_allclose(reference.smolin_like(d, N).mat, proj / rank, atol=1e-10)
