import itertools

import numpy as np
import pytest

import reference
from qric import (
    PureState,
    Register,
    bell_state,
    gbm_branches,
    permute,
    swap_identity_check,
    telecloning_channel,
    tensor,
)
from qric import statealg
from qric.measurement import bell_projections, select_outcomes
from qric.errors import LabelError


def rand_state(d, labels, rng):
    v = rng.normal(size=d ** len(labels)) + 1j * rng.normal(size=d ** len(labels))
    v /= np.linalg.norm(v)
    return PureState(Register(d, labels), v)


def test_eigenstate_branch():
    b = bell_state(2, 1, 0, ("X", "Y"))
    branches = gbm_branches(b, ("X", "Y"))
    for br in branches:
        if (br.outcome.m, br.outcome.n) == (1, 0):
            assert abs(br.outcome.probability - 1) < 1e-12
            assert not br.null
        else:
            assert br.outcome.probability < 1e-12
            assert br.null


def test_branch_ordering_row_major():
    rng = np.random.default_rng(0)
    st = rand_state(3, ("X", "Y"), rng)
    branches = gbm_branches(st, ("X", "Y"))
    assert [(b.outcome.m, b.outcome.n) for b in branches] == [
        (m, n) for m in range(3) for n in range(3)
    ]


def test_telecloning_joint_state_uniform_outcomes():
    rng = np.random.default_rng(1)
    inp = statealg.random_qudit(2, rng)
    joint = tensor(inp, telecloning_channel(2, 2))
    branches = gbm_branches(joint, ("t", "t'"))
    for br in branches:
        assert abs(br.outcome.probability - 0.25) < 1e-10


@pytest.mark.parametrize("d,n", [(2, 4), (2, 6), (3, 4), (4, 3)])
def test_completeness_random_states(d, n):
    rng = np.random.default_rng(d + n)
    labels = tuple(f"q{i}" for i in range(n))
    for _ in range(5):
        st = rand_state(d, labels, rng)
        branches = gbm_branches(st, (labels[0], labels[2]))
        total = sum(br.outcome.probability for br in branches)
        assert abs(total - 1) < 1e-10


def test_retained_pair_collapsed():
    rng = np.random.default_rng(3)
    st = rand_state(2, ("a", "b", "c"), rng)
    for br in gbm_branches(st, ("a", "c")):
        if br.null:
            continue
        assert br.post_state.register.labels == ("a", "b", "c")
        # measuring again yields the same outcome with probability 1
        again = gbm_branches(br.post_state, ("a", "c"))
        for br2 in again:
            want = 1.0 if (br2.outcome.m, br2.outcome.n) == (br.outcome.m, br.outcome.n) else 0.0
            assert abs(br2.outcome.probability - want) < 1e-10


def test_remove_drops_pair():
    rng = np.random.default_rng(4)
    st = rand_state(2, ("a", "b", "c"), rng)
    br = next(b for b in gbm_branches(st, ("a", "c"), remove=True) if not b.null)
    assert br.post_state.register.labels == ("b",)


def drawn_outcomes(st, pair, rng, trials=1):
    """Outcome indices m*d + n that one uniform per row draws for `trials` copies of st."""
    batch = np.repeat(st.amps[None, :], trials, axis=0)
    rows, outcomes, _probs, _residuals = select_outcomes(
        bell_projections(batch, st.register, pair), rng.random(trials))[:4]
    assert rows.tolist() == list(range(trials))
    return outcomes


def test_sample_deterministic_and_consistent():
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    st = rand_state(3, ("a", "b"), np.random.default_rng(7))
    out1 = drawn_outcomes(st, ("a", "b"), rng1, 5)
    out2 = drawn_outcomes(st, ("a", "b"), rng2, 5)
    assert out1.tolist() == out2.tolist()


def test_sample_eigenstate_always_eigen_outcome():
    b = bell_state(3, 2, 1, ("X", "Y"))
    rng = np.random.default_rng(0)
    assert drawn_outcomes(b, ("X", "Y"), rng, 10).tolist() == [2 * 3 + 1] * 10


def test_sample_frequencies_match_branch_probabilities():
    st = rand_state(2, ("a", "b"), np.random.default_rng(11))
    probs = {(b.outcome.m, b.outcome.n): b.outcome.probability for b in gbm_branches(st, ("a", "b"))}
    rng = np.random.default_rng(123)
    trials = 10_000
    drawn = drawn_outcomes(st, ("a", "b"), rng, trials)
    counts = {(m, n): int(np.sum(drawn == m * 2 + n)) for m, n in probs}
    for k, p in probs.items():
        sigma = max(np.sqrt(trials * p * (1 - p)), 1.0)
        assert abs(counts[k] - trials * p) < 5 * sigma


def test_sample_frequencies_uniform_on_telecloning_joint():
    # the distributor's measurement on the joint input+channel state is
    # uniform over all d^2 outcomes
    rng = np.random.default_rng(21)
    inp = statealg.random_qudit(2, rng)
    joint = tensor(inp, telecloning_channel(2, 2))
    trials = 10_000
    drawn = drawn_outcomes(joint, ("t", "t'"), rng, trials)
    p = 0.25
    sigma = np.sqrt(trials * p * (1 - p))
    for key in range(4):
        assert abs(np.sum(drawn == key) - trials * p) < 5 * sigma


def test_gbm_commutes_with_relabeling():
    rng = np.random.default_rng(5)
    st = rand_state(2, ("a", "b", "c"), rng)
    mapping = {"a": "x", "b": "y", "c": "z"}
    relabeled = permute(st, mapping)
    for br, br2 in zip(
        gbm_branches(st, ("a", "c"), remove=True),
        gbm_branches(relabeled, ("x", "z"), remove=True),
    ):
        assert (br.outcome.m, br.outcome.n) == (br2.outcome.m, br2.outcome.n)
        assert abs(br.outcome.probability - br2.outcome.probability) < 1e-12
        if not br.null:
            a = br.post_state.amps
            b = permute(br2.post_state, {"y": "b"}).amps
            np.testing.assert_allclose(a, b, atol=1e-12)


def test_gbm_label_errors():
    st = rand_state(2, ("a", "b"), np.random.default_rng(0))
    with pytest.raises(LabelError):
        gbm_branches(st, ("a", "zz"))
    with pytest.raises(LabelError):
        gbm_branches(st, ("a", "a"))


# ---------------------------------------------------------------------------
# Bell rearrangement identity

def test_swap_identity_d2_exhaustive():
    devs = [
        swap_identity_check(2, m, n, m2, n2)
        for m, n, m2, n2 in itertools.product(range(2), repeat=4)
    ]
    assert max(devs) < 1e-12


def test_swap_identity_d3_exhaustive():
    devs = [
        swap_identity_check(3, m, n, m2, n2)
        for m, n, m2, n2 in itertools.product(range(3), repeat=4)
    ]
    assert max(devs) < 1e-12


def test_swap_identity_d5_sampled():
    assert swap_identity_check(5, 0, 0, 0, 0) < 1e-12
    rng = np.random.default_rng(9)
    for _ in range(50):
        m, n, m2, n2 = (int(v) for v in rng.integers(0, 5, 4))
        assert swap_identity_check(5, m, n, m2, n2) < 1e-12


@pytest.mark.parametrize("d,pair", [(2, ("b", "d")), (3, ("c", "a"))])
def test_gbm_batch_matches_gbm_branches_row_by_row(d, pair):
    # oracle: the test-local single-state GBM, one row at a time; the last row is a Bell
    # eigenstate on the pair, so its null outcomes must be dropped
    rng = np.random.default_rng(d)
    labels = ("a", "b", "c", "d")
    rest = tuple(l for l in labels if l not in pair)
    states = [rand_state(d, labels, rng) for _ in range(3)]
    eigen = tensor(bell_state(d, 1, d - 1, pair), rand_state(d, rest, rng))
    states.append(statealg.reorder(eigen, labels))
    batch = np.stack([st.amps for st in states])
    rows, outcomes, probs, residuals = select_outcomes(
        bell_projections(batch, states[0].register, pair))[:4]
    want = [(b, br) for b, st in enumerate(states)
            for br in reference.gbm_branches(st, pair) if not br.null]
    assert rows.tolist() == [b for b, _ in want]
    assert outcomes.tolist() == [br.outcome.m * d + br.outcome.n for _, br in want]
    np.testing.assert_allclose(probs, [br.outcome.probability for _, br in want], atol=1e-12)
    np.testing.assert_allclose(residuals, [br.post_state.amps for _, br in want], atol=1e-12)


def test_gbm_batch_draw_matches_gbm_sample():
    st = rand_state(3, ("a", "b", "c"), np.random.default_rng(5))
    rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(40):
        _, outcome, prob, residual = select_outcomes(
            bell_projections(st.amps[None, :], st.register, ("c", "a")), rng1.random(1))[:4]
        br = reference.gbm_sample(st, ("c", "a"), rng2)
        assert outcome.tolist() == [br.outcome.m * 3 + br.outcome.n]
        assert prob[0] == pytest.approx(br.outcome.probability, abs=1e-12)
        np.testing.assert_allclose(residual[0], br.post_state.amps, atol=1e-12)
    assert rng1.random() == rng2.random()


@pytest.mark.parametrize("d,pair", [(2, ("d", "a")), (3, ("b", "c"))])
def test_gbm_branches_matches_the_einsum_reference(d, pair):
    # the one-row bell_projections path against the per-outcome einsum GBM
    rng = np.random.default_rng(40 + d)
    st = rand_state(d, ("a", "b", "c", "d"), rng)
    got = gbm_branches(st, pair, remove=True)
    want = reference.gbm_branches(st, pair)
    for br, ref in zip(got, want, strict=True):
        assert (br.outcome.m, br.outcome.n, br.outcome.pair) == (ref.outcome.m, ref.outcome.n,
                                                                 ref.outcome.pair)
        assert br.outcome.probability == pytest.approx(ref.outcome.probability, abs=1e-12)
        assert br.post_state.register == ref.post_state.register
        np.testing.assert_allclose(br.post_state.amps, ref.post_state.amps, atol=1e-12)


def test_select_outcomes_draws_in_each_trials_order():
    # trial t's cumulative sum runs over order[t]: the same draw as the default
    # order on the outcomes permuted into order[t]
    rng = np.random.default_rng(17)
    projected = rng.normal(size=(2, 9, 3)) + 1j * rng.normal(size=(2, 9, 3))
    uniforms, at = rng.random(30), rng.integers(0, 2, 30)
    order = np.array([rng.permutation(9) for _ in range(30)])
    rows, outs, _, _, visits = select_outcomes(projected.copy(), uniforms, at, order=order)
    for t in range(30):
        permuted = projected[at[t], order[t]][None]
        _, (pos,), _, _, _ = select_outcomes(permuted, uniforms[t:t + 1])
        assert (rows[visits[t]], outs[visits[t]]) == (at[t], order[t, pos])
    same = select_outcomes(projected.copy(), uniforms, at, order=np.tile(np.arange(9), (30, 1)))
    plain = select_outcomes(projected.copy(), uniforms, at)
    for got, want in zip(same, plain):
        np.testing.assert_array_equal(got, want)
