import itertools
import json
from math import log2

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from qric import (
        ChannelSpec,
    clone_state,
    deduce_correction,
    extract_clone_decomposition,
    ghz_correlated_state,
    overlap,
    permute,
    preset_spec,
    random_qudit,
    run_mm_ghz,
    run_mm_multiqudit,
    run_ric,
    run_telecloning,
    synth_distributed_state,
    teleport_identity_check,
    tensor_many,
)
from qric import channels, opsbasis, protocols, statealg
from qric.analysis import clone_fidelity_formula
from qric.cli import main
from qric.errors import ProtocolError, SizeGuardError
from qric.opsbasis import weyl_r
from qric.statealg import PureState


def clone_fid(state, inp, label):
    rho = reference.partial_trace(state, [label])
    return float(np.real(np.vdot(inp.amps, rho.mat @ inp.amps)))


def diana_target(inp, N):
    return permute(inp, {inp.register.labels[0]: f"{N}'"})


def rows(leaves):
    """(state, transcript dict) of every leaf of a run, in row order."""
    return [(leaves.state(i), leaves.transcript(i)) for i in range(len(leaves.probs))]


def xy(transcript):
    """The receiver's correction (x, y) of a transcript dict."""
    return transcript["correction"]["x"], transcript["correction"]["y"]


def execute_state(state, plan, *args, **kwargs):
    """protocols.execute on one state's base row."""
    return protocols.execute(reference.state_joint(state), plan, *args, **kwargs)


# ---------------------------------------------------------------------------
# telecloning

@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
def test_telecloning_every_branch_fidelity_and_state(d, N):
    rng = np.random.default_rng(17)
    inp = random_qudit(d, rng)
    ref = clone_state(inp.amps, d, N)
    want = clone_fidelity_formula(d, N)
    branches = rows(run_telecloning(inp, d, N))
    assert len(branches) == d * d
    for state, transcript in branches:
        # post-correction collective state equals the clone state exactly
        assert abs(overlap(state, ref)) >= 1 - 1e-9
        for s in range(1, N + 1):
            assert abs(clone_fid(state, inp, str(s)) - want) < 1e-9
        assert transcript["branch_probability"] == pytest.approx(1 / d**2, abs=1e-10)


def test_telecloning_sample_mode_and_transcript():
    rng = np.random.default_rng(3)
    inp = random_qudit(2, rng)
    (state, transcript), = rows(run_telecloning(inp, 2, 2, rng=rng, trials=1))
    # N Bobs + N-1 ancilla holders receive the outcome
    assert len(transcript["messages"]) == 2 + 1
    assert all(msg["bits"] == 2.0 for msg in transcript["messages"])
    assert transcript["correction"] is not None


def test_telecloning_guard():
    rng = np.random.default_rng(0)
    inp = random_qudit(2, rng)
    with pytest.raises(SizeGuardError):
        run_telecloning(inp, 2, 9)


def test_clone_state_basis_input():
    st = clone_state([1, 0], 2, 2)
    np.testing.assert_allclose(st.amps, opsbasis.phi_vector(2, 2, 0), atol=1e-12)


def test_clone_state_single_clone_fidelity():
    rng = np.random.default_rng(5)
    inp = random_qudit(2, rng)
    st = clone_state(inp.amps, 2, 2)
    assert abs(clone_fid(st, inp, "1") - 5 / 6) < 1e-9


# ---------------------------------------------------------------------------
# Appendix-A extraction

def test_extraction_beta_values_d2():
    fam = extract_clone_decomposition(2, 2)
    assert abs(fam.beta[0] - np.sqrt(5 / 6)) < 1e-10
    assert abs(fam.beta[1] - np.sqrt(1 / 6)) < 1e-10


def test_extraction_beta_values_d3():
    fam = extract_clone_decomposition(3, 2)
    assert abs(fam.beta[0] - np.sqrt(6 / 8)) < 1e-10
    assert abs(fam.beta[1] - np.sqrt(1 / 8)) < 1e-10
    assert abs(fam.beta[2] - np.sqrt(1 / 8)) < 1e-10


@pytest.mark.parametrize("d,N", [(2, 2), (2, 3), (3, 2)])
def test_reconstruction_20_random_inputs(d, N):
    fam = extract_clone_decomposition(d, N)
    rng = np.random.default_rng(d * 100 + N)
    for _ in range(20):
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        x /= np.linalg.norm(x)
        assert protocols.reconstruction_deviation(fam, x) < 1e-9


def front_labels(N):
    """The Bbar register: clones 1..N-1, then ancillas A_1..A_{N-1}."""
    return tuple(str(s) for s in range(1, N)) + tuple(f"A_{s}" for s in range(1, N))


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
def test_bbar_orthogonal_and_covariant(d, N):
    fam = extract_clone_decomposition(d, N)
    assert fam.bbar.shape == (d, d, d ** (2 * N - 2)) and fam.beta.shape == (d,)
    # mutual orthogonality across (m, n)
    keys = list(itertools.product(range(d), repeat=2))
    for i, k1 in enumerate(keys):
        for k2 in keys[i + 1:]:
            ov = np.vdot(fam.bbar[k1], fam.bbar[k2])
            assert abs(ov) < 1e-10
    # R^{k,l}-tensor covariance with eigenvalue w^{lm-nk}
    for m, n in keys:
        st = PureState(statealg.Register(d, front_labels(N)), fam.bbar[m, n], validate=False)
        for k, ell in ((1, 0), (0, 1), (1, 1)):
            moved = st
            for s in range(1, N):
                moved = reference.apply_local(moved, weyl_r(d, k, ell), str(s))
            for s in range(1, N):
                moved = reference.apply_local(moved, weyl_r(d, -k, ell), f"A_{s}")
            phase = opsbasis.omega_power(d, ell * m - n * k)
            np.testing.assert_allclose(moved.amps, phase * st.amps, atol=1e-10)


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
def test_bbar_supported_on_constraint_class(d, N):
    # every Bbar_{mn} expands over pair-product Bell states whose index sums
    # are exactly (m, n)
    fam = extract_clone_decomposition(d, N)
    pair_labels = [(str(s), f"A_{s}") for s in range(1, N)]
    for (m, n), vec in zip(itertools.product(range(d), repeat=2), fam.bbar.reshape(d * d, -1)):
        for idxs in itertools.product(range(d), repeat=2 * (N - 1)):
            comp = tensor_many(
                [opsbasis.bell_state(d, idxs[2 * i], idxs[2 * i + 1], pair_labels[i])
                 for i in range(N - 1)]
            )
            comp = statealg.reorder(comp, front_labels(N))
            amp = np.vdot(comp.amps, vec)
            in_class = (sum(idxs[0::2]) % d, sum(idxs[1::2]) % d) == (m, n)
            if not in_class:
                assert abs(amp) < 1e-10


# ---------------------------------------------------------------------------
# deduce_correction

def test_deduce_correction_zero():
    assert deduce_correction([(0, 0), (0, 0)], (0, 0), 0, 0, 2) == (0, 0)


def test_deduce_correction_d3_example():
    # outcomes summing to u'=2, v'=1; Bob_N (1,2); u=v=0 -> (0,0)
    assert deduce_correction([(2, 1)], (1, 2), 0, 0, 3) == (0, 0)


def test_deduce_correction_range_check():
    with pytest.raises(ProtocolError):
        deduce_correction([(2, 0)], (0, 0), 0, 0, 2)


# ---------------------------------------------------------------------------
# many-to-one RIC

@pytest.mark.parametrize("d,N", [(2, 2), (3, 2)])
@pytest.mark.parametrize("preset", ["ghz", "beta", "bell-product"])
def test_ric_every_branch_pure_channels(d, N, preset):
    rng = np.random.default_rng(d * 7 + N)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    spec = preset_spec(preset, d, N)
    branches = rows(run_ric(clone, spec))
    target = diana_target(inp, N)
    for state, transcript in branches:
        assert abs(overlap(state, target)) > 1 - 1e-9
        bits = sum(msg["bits"] for msg in transcript["messages"])
        assert bits == pytest.approx((2 * N - 1) * 2 * log2(d))
    # probabilities over non-null branches sum to one
    assert sum(t["branch_probability"] for _s, t in branches) == pytest.approx(1.0, abs=1e-9)


def test_ric_product_channel_with_nonzero_residues():
    d, N = 3, 2
    rng = np.random.default_rng(31)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    c = (1, 2, 2, 1)
    spec = ChannelSpec(kind="product-bell", d=d, N=N, u=0, v=0, c=c)
    branches = rows(run_ric(clone, spec))
    target = diana_target(inp, N)
    assert len(branches) == 729
    for state, _t in branches:
        assert abs(overlap(state, target)) > 1 - 1e-9


@pytest.mark.parametrize("preset", ["smolin", "mixed-uniform"])
def test_ric_mixed_channels_sampled(preset):
    d, N = 2, 2
    rng = np.random.default_rng(13)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    spec = preset_spec(preset, d, N)
    target = diana_target(inp, N)
    for _ in range(50):
        (state, transcript), = rows(run_ric(clone, spec, rng=rng, trials=1))
        assert abs(overlap(state, target)) > 1 - 1e-9


def test_ric_measurement_order_independent():
    d, N = 2, 2
    rng = np.random.default_rng(19)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    chan = channels.ghz_channel(d, N)
    joint = statealg.tensor(clone, chan)
    target = diana_target(inp, N)
    base_plan = ric_plan(N)
    for order in itertools.permutations(range(len(base_plan))):
        plan = [base_plan[i] for i in order]

        outcomes, _probs, register, amps = execute_state(joint, plan)
        # columns back in base-plan order, then Diana's correction for every leaf
        ordered = outcomes[:, [plan.index(p) for p in base_plan]]
        xs, ys = deduce_correction(ordered[:, :-1], ordered[:, -1], 0, 0, d)
        leaves = [
            reference.apply_local(PureState(register, row), weyl_r(d, x, y), f"{N}'")
            for row, x, y in zip(amps, xs, ys)
        ]
        assert leaves
        for out in leaves:
            assert abs(overlap(out, target)) > 1 - 1e-9


def ric_plan(N):
    """Who measures what in run_ric and run_mm_ghz, in message order."""
    plan = [(str(s), f"{s}'") for s in range(1, N)]
    plan += [(f"A'_{s}", f"A_{s}") for s in range(1, N)]
    return plan + [(str(N), f"A'_{N}")]


def mm_multi_plan(N, L):
    """Who measures what in run_mm_multiqudit, in message order."""
    plan = [(str(s), f"{s}'") for s in range(1, N - L + 1)]
    plan += [(f"A'_{s}", f"A_{s}") for s in range(1, N - L + 1)]
    return plan + [(str(s), f"A'_{s}") for s in range(N - L + 1, N + 1)]


def plan_run(kind, d, N, rng):
    """(joint state, plan, all-branches leaves) of one protocol run, L = 2."""
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    if kind == "mm-ghz":
        joint = statealg.tensor(clone, protocols.mm_ghz_channel(d, N, 2))
        return joint, ric_plan(N), run_mm_ghz(clone, d, N, 2)
    if kind == "mm-multi":
        dist = synth_distributed_state(inp.amps, d, N, 2)
        joint = statealg.tensor(dist, channels.product_bell_channel(d, N, (0,) * (2 * N)))
        return joint, mm_multi_plan(N, 2), run_mm_multiqudit(dist, d, N, 2)
    spec = preset_spec(kind, d, N)
    joint = statealg.tensor(clone, spec.build())
    return joint, ric_plan(N), run_ric(clone, spec)


@pytest.mark.parametrize("kind,d,N", [("ghz", 2, 2), ("beta", 3, 2), ("mm-ghz", 3, 2),
                                      ("mm-multi", 2, 3)])
def test_ric_leaf_probability_matches_dense_projection(kind, d, N):
    # oracle: ||(x)_k <B_{o_k}| joint||^2 by one dense contraction over every
    # plan pair at once; no GBM and no kernels involved
    joint, plan, leaves = plan_run(kind, d, N, np.random.default_rng(43))
    axes = [joint.register.position(label) for pair in plan for label in pair]
    t = joint.amps.reshape([d] * joint.register.n)
    for _state, transcript in rows(leaves):
        bra = np.ones(1, dtype=np.complex128)
        for msg in transcript["messages"]:  # one message per plan pair, in plan order
            bra = np.kron(bra, opsbasis.bell_vector(d, msg["m"], msg["n"]).conj())
        rest = np.tensordot(bra.reshape([d] * len(axes)), t, axes=(range(len(axes)), axes))
        want = float(np.sum(np.abs(rest) ** 2))
        assert transcript["branch_probability"] == pytest.approx(want, abs=1e-12)


def test_ric_d2_n3_sampled_branches():
    d, N = 2, 3
    rng = np.random.default_rng(37)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    target = diana_target(inp, N)
    spec = preset_spec("ghz", d, N)
    # the full tree has 1024 branches, within budget: exhaustive
    branches = rows(run_ric(clone, spec))
    assert len(branches) >= 200
    for state, _t in branches:
        assert abs(overlap(state, target)) > 1 - 1e-9


def test_ric_rejects_bad_labels():
    rng = np.random.default_rng(0)
    st = random_qudit(2, rng)
    with pytest.raises(ProtocolError):
        run_ric(st, preset_spec("ghz", 2, 2))


def test_ric_takes_its_channel_as_a_spec_only():
    clone = clone_state(random_qudit(2, np.random.default_rng(0)).amps, 2, 2)
    with pytest.raises(ProtocolError, match="ChannelSpec"):
        run_ric(clone, preset_spec("ghz", 2, 2).build())


def test_run_ric_accepts_all_pure_presets_sampled():
    d, N = 2, 2
    rng = np.random.default_rng(3)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    target = diana_target(inp, N)
    for preset in ("ghz", "beta", "bell-product"):
        (state, _t), = rows(run_ric(clone, preset_spec(preset, d, N), rng=rng, trials=1))
        assert abs(overlap(state, target)) > 1 - 1e-9


# ---------------------------------------------------------------------------
# teleportation identity

@pytest.mark.parametrize("d", [2, 3])
def test_teleport_identity_exhaustive(d):
    for m, n, k, kp in itertools.product(range(d), repeat=4):
        assert teleport_identity_check(d, m, n, k, kp, reference.unit_vector(d, 7)) < 1e-12


# ---------------------------------------------------------------------------
# many-to-many variants

def test_mm_ghz_all_branches_2_2_2():
    d, N, L = 2, 2, 2
    rng = np.random.default_rng(41)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    target = ghz_correlated_state(inp.amps, d, L, labels=[f"{N}'_1", f"{N}'_2"])
    for state, _t in rows(run_mm_ghz(clone, d, N, L)):
        assert abs(overlap(state, target)) > 1 - 1e-9


def test_mm_ghz_basis_input_gives_all_zeros():
    d, N, L = 2, 2, 2
    clone = clone_state([1, 0], d, N)
    branches = rows(run_mm_ghz(clone, d, N, L))
    zero = ghz_correlated_state([1, 0], d, L, labels=[f"{N}'_1", f"{N}'_2"])
    for state, _t in branches:
        assert abs(overlap(state, zero)) > 1 - 1e-9


def test_mm_ghz_l1_degenerates_to_ric():
    d, N = 2, 2
    rng = np.random.default_rng(43)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    branches = rows(run_mm_ghz(clone, d, N, 1))
    target = ghz_correlated_state(inp.amps, d, 1, labels=[f"{N}'_1"])
    for state, _t in branches:
        assert abs(overlap(state, target)) > 1 - 1e-9


def test_mm_multi_2_2_2_and_bit_count():
    d, N, L = 2, 2, 2
    rng = np.random.default_rng(47)
    inp = random_qudit(d, rng)
    dist = synth_distributed_state(inp.amps, d, N, L)
    branches = rows(run_mm_multiqudit(dist, d, N, L))
    receiver = [f"{s}'" for s in range(N - L + 1, N + 1)]
    target = tensor_many(
        [permute(inp, {inp.register.labels[0]: lab}) for lab in receiver]
    )
    for state, transcript in branches:
        assert abs(overlap(state, target)) > 1 - 1e-9
        bits = sum(msg["bits"] for msg in transcript["messages"])
        assert bits == pytest.approx((2 * N - L) * 2 * log2(d))


def test_mm_multi_l1_reduces_to_ric():
    d, N = 2, 2
    rng = np.random.default_rng(53)
    inp = random_qudit(d, rng)
    dist = synth_distributed_state(inp.amps, d, N, 1)
    branches = rows(run_mm_multiqudit(dist, d, N, 1))
    target = diana_target(inp, N)
    for state, _t in branches:
        assert abs(overlap(state, target)) > 1 - 1e-9


def test_mm_multi_3_2_with_clone_family_bbar():
    d, N, L = 2, 3, 2
    rng = np.random.default_rng(59)
    inp = random_qudit(d, rng)
    dist = synth_distributed_state(inp.amps, d, N, L)
    branches = rows(run_mm_multiqudit(dist, d, N, L))
    receiver = [f"{s}'" for s in range(N - L + 1, N + 1)]
    target = tensor_many(
        [permute(inp, {inp.register.labels[0]: lab}) for lab in receiver]
    )
    for state, _t in branches:
        assert abs(overlap(state, target)) > 1 - 1e-9


# ---------------------------------------------------------------------------
# synth_distributed_state

def test_synth_l1_equals_clone_state():
    rng = np.random.default_rng(61)
    inp = random_qudit(2, rng)
    dist = synth_distributed_state(inp.amps, 2, 2, 1)
    ref = clone_state(inp.amps, 2, 2)
    aligned = statealg.reorder(dist, ref.register.labels)
    np.testing.assert_allclose(aligned.amps, ref.amps, atol=1e-10)


def test_synth_normalized_random_beta():
    rng = np.random.default_rng(67)
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    x /= np.linalg.norm(x)
    dist = synth_distributed_state(x, 2, 3, 1)
    assert abs(np.linalg.norm(dist.amps) - 1) < 1e-10


def test_synth_arbitrary_beta_still_normalized():
    # the clone family's Bbar expansion stays normalized under any unit beta
    rng = np.random.default_rng(73)
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    x /= np.linalg.norm(x)
    raw = rng.random(2)
    beta = np.sqrt(raw / raw.sum())
    amps = reference.bbar_expansion(extract_clone_decomposition(2, 2).bbar, beta, x, 2, 1)
    assert abs(np.linalg.norm(amps) - 1) < 1e-10


def test_synth_random_orthonormal_source_covariant_and_concentrable():
    # any covariant orthonormal Bbar set with uniform beta gives a concentrable state
    d, N, L = 2, 3, 2
    rng = np.random.default_rng(71)
    inp = random_qudit(d, rng)
    bbar = reference.random_covariant_bbar(d, N - L, rng)
    protocols.check_bbar_covariance(bbar, d, N - L)
    amps = reference.bbar_expansion(bbar, np.ones(d) / np.sqrt(d), inp.amps, d, L)
    dist = PureState(statealg.Register(d, protocols.mm_multi_labels(N, L)), amps)
    assert abs(np.linalg.norm(dist.amps) - 1) < 1e-10
    branches = rows(run_mm_multiqudit(dist, d, N, L))
    receiver = [f"{s}'" for s in range(N - L + 1, N + 1)]
    target = tensor_many(
        [permute(inp, {inp.register.labels[0]: lab}) for lab in receiver]
    )
    for state, _t in branches:
        assert abs(overlap(state, target)) > 1 - 1e-9


@pytest.mark.parametrize("pairs", [1, 2])
def test_bbar_covariance_check_d3(pairs):
    # clone-family Bbar over `pairs` clone/ancilla pairs passes; a shifted
    # vector and one with a position-dependent phase each fail
    d = 3
    fam = extract_clone_decomposition(d, pairs + 1)
    protocols.check_bbar_covariance(fam.bbar, d, pairs)
    vec = fam.bbar[1, 2]
    for bad_vec in (np.roll(vec, 1), vec * np.exp(0.1j * np.arange(vec.size))):
        bad = fam.bbar.copy()
        bad[1, 2] = bad_vec
        bad[2, 0] = np.roll(bad[2, 0], 1)  # a later (m, n) fails too; the first is named
        with pytest.raises(RuntimeError, match=r"Bbar_\(1,2\)"):
            protocols.check_bbar_covariance(bad, d, pairs)


def test_synth_state_satisfies_covariance_by_construction():
    fam = extract_clone_decomposition(2, 2)
    protocols.check_bbar_covariance(fam.bbar, 2, 1)  # must not raise
    bad = fam.bbar.copy()
    bad[0, 1] = np.roll(bad[0, 1], 1)
    with pytest.raises(RuntimeError):
        protocols.check_bbar_covariance(bad, 2, 1)


def test_ric_3_3_enumerates_every_branch():
    # (3,3) bell-product has 9^5 = 59049 branches, none null: all of them are
    # enumerated, their probabilities sum to one, and every one concentrates
    d, N = 3, 3
    rng = np.random.default_rng(77)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    spec = preset_spec("bell-product", d, N)
    branches = rows(run_ric(clone, spec, rng=rng))
    assert len(branches) == 59049
    assert sum(t["branch_probability"] for _s, t in branches) == pytest.approx(1.0, abs=1e-9)
    target = diana_target(inp, N)
    for state, _t in branches:
        assert abs(overlap(state, target)) ** 2 > 1 - 1e-9


def test_transcript_json_schema(tmp_path):
    d, N = 2, 2
    rng = np.random.default_rng(101)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    doc = run_ric(clone, preset_spec("ghz", d, N), rng=rng, trials=1).transcript(0)
    assert set(doc) == {"parties", "messages", "correction", "branch_probability"}
    assert set(doc["correction"]) == {"x", "y"}
    for msg in doc["messages"]:
        assert set(msg) == {"from", "to", "m", "n", "bits"}
    assert len(doc["messages"]) == 2 * N - 1
    # the report lists each transcript with its leaf's fidelity
    out = tmp_path / "report.json"
    assert main(["ric", "--mode", "sample", "--trials", "3", "--out", str(out)]) == 0
    listed = json.loads(out.read_text())["transcripts"]
    assert len(listed) == 3
    assert all(set(t) == set(doc) | {"fidelity"} for t in listed)


# ---------------------------------------------------------------------------
# the batched engine against the test-local single-state GBM

def depth_first_leaves(joint, plan):
    """Reference expansion: the test-local single-state GBM per state, depth first."""
    leaves = []

    def expand(state, idx, outs, prob):
        if idx == len(plan):
            leaves.append((outs, prob, state))
            return
        for br in reference.gbm_branches(state, plan[idx]):
            if not br.null:
                expand(br.post_state, idx + 1, outs + [(br.outcome.m, br.outcome.n)],
                       prob * br.outcome.probability)

    expand(joint, 0, [], 1.0)
    return leaves


def engine_leaves(arrays):
    """execute's leaf arrays as (outcomes, probability, state) per leaf."""
    outcomes, probs, register, amps = arrays
    return [([tuple(o) for o in outs], prob, PureState(register, row, validate=False))
            for outs, prob, row in zip(outcomes.tolist(), probs.tolist(), amps)]


def assert_same_leaves(got, want):
    assert [outs for outs, _, _ in got] == [outs for outs, _, _ in want]
    for (_, p_got, st_got), (_, p_want, st_want) in zip(got, want):
        assert p_got == pytest.approx(p_want, abs=1e-12)
        assert st_got.register == st_want.register
        np.testing.assert_allclose(st_got.amps, st_want.amps, atol=1e-12)


def corrected(state, corrections):
    """The test-local apply_local of R^{x,y} per (label, x, y): the reference correction."""
    for label, x, y in corrections:
        state = reference.apply_local(state, weyl_r(state.d, x, y), label)
    return state


def assert_run_matches(leaves, reference, corrections_of):
    """Each (state, transcript) against the reference leaf, corrected per transcript."""
    branches = rows(leaves)
    assert len(branches) == len(reference)
    for (state, transcript), (outs, prob, residual) in zip(branches, reference):
        assert [(msg["m"], msg["n"]) for msg in transcript["messages"]][:len(outs)] == outs
        assert transcript["branch_probability"] == pytest.approx(prob, abs=1e-12)
        want = corrected(residual, corrections_of(transcript))
        np.testing.assert_allclose(state.amps, want.amps / np.linalg.norm(want.amps), atol=1e-12)


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("preset", ["ghz", "beta", "bell-product"])
def test_engine_matches_depth_first_gbm_ric(preset, d, N):
    joint, plan, leaves = plan_run(preset, d, N, np.random.default_rng(89))
    want = depth_first_leaves(joint, plan)
    assert_same_leaves(engine_leaves(execute_state(joint, plan)), want)
    assert_run_matches(leaves, want, lambda t: [(f"{N}'", *xy(t))])


def test_engine_matches_depth_first_gbm_mm_ghz():
    d, N, L = 3, 2, 2
    joint, plan, leaves = plan_run("mm-ghz", d, N, np.random.default_rng(97))
    want = depth_first_leaves(joint, plan)
    assert_same_leaves(engine_leaves(execute_state(joint, plan)), want)
    legs = [f"{N}'_{i}" for i in range(1, L + 1)]
    assert_run_matches(leaves, want, lambda t: [(legs[0], *xy(t))]
                       + [(leg, 0, xy(t)[1]) for leg in legs[1:]])


def test_engine_matches_depth_first_gbm_telecloning():
    d, N = 3, 2
    inp = random_qudit(d, np.random.default_rng(101))
    joint = statealg.tensor(permute(inp, {inp.register.labels[0]: "t"}),
                            channels.telecloning_channel(d, N))
    want = depth_first_leaves(joint, [("t", "t'")])
    assert_same_leaves(engine_leaves(execute_state(joint, [("t", "t'")])),
                       want)
    leaves = run_telecloning(inp, d, N)
    assert_run_matches(leaves, want, lambda t: [(str(s), *xy(t)) for s in range(1, N + 1)]
                       + [(f"A_{s}", -xy(t)[0], xy(t)[1]) for s in range(1, N)])


def test_engine_matches_depth_first_gbm_unlock():
    from qric.analysis import unlock_ubes

    d, N = 3, 2
    pairs = [(f"A'_{s}", f"{s}'") for s in range(2, N + 1)]
    tuples = channels.enumerate_constrained_tuples(d, N, 0, 0)
    acc = {}
    for k in tuples:
        comp = channels.product_bell_channel(d, N, k)
        want = depth_first_leaves(comp, pairs)
        assert_same_leaves(engine_leaves(execute_state(comp, pairs)), want)
        for outs, prob, state in want:
            slot = acc.setdefault(tuple(outs), [0.0, 0.0])
            rho = np.outer(state.amps, state.amps.conj())
            slot[0] = slot[0] + prob * rho / len(tuples)
            slot[1] += prob / len(tuples)
    reports = unlock_ubes(d, N)
    assert [r.outcomes for r in reports] == sorted(acc)
    for r in reports:
        mat, prob = acc[r.outcomes]
        assert r.probability == pytest.approx(prob, abs=1e-12)
        rho = mat / prob
        assert r.purity == pytest.approx(float(np.real(np.trace(rho @ rho))), abs=1e-12)


@pytest.mark.parametrize("preset,d,N", [("ghz", 3, 2), ("beta", 2, 3)])
def test_engine_sample_draws_like_chained_gbm_sample(preset, d, N):
    # one call with T trials against T chained single-state runs from the same seed
    joint, plan, _ = plan_run(preset, d, N, np.random.default_rng(103))
    rng_engine, rng_chain = np.random.default_rng(5), np.random.default_rng(5)
    got = engine_leaves(execute_state(joint, plan, rng_engine, trials=25))
    assert len(got) == 25
    for outs, prob, state in got:
        want_outs, want_prob, st = [], 1.0, joint
        for pair in plan:
            br = reference.gbm_sample(st, pair, rng_chain)
            want_outs.append((br.outcome.m, br.outcome.n))
            want_prob *= br.outcome.probability
            st = br.post_state
        assert outs == want_outs
        assert prob == pytest.approx(want_prob, abs=1e-12)
        np.testing.assert_allclose(state.amps, st.amps, atol=1e-12)
    assert rng_engine.random() == rng_chain.random()
    # a sampled run needs at least one trial and a Generator to draw them from
    with pytest.raises(ProtocolError):
        execute_state(joint, plan, rng_engine, trials=0)
    with pytest.raises(ProtocolError, match="Generator"):
        execute_state(joint, plan, None, trials=1)


@pytest.mark.parametrize("preset,d,N", [("smolin", 2, 2), ("smolin", 3, 2),
                                        ("mixed-uniform", 2, 3)])
def test_ric_mixed_all_branches_enumerates_every_component(preset, d, N):
    rng = np.random.default_rng(59)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    spec = preset_spec(preset, d, N)
    branches = rows(run_ric(clone, spec))
    target = diana_target(inp, N)
    assert all(abs(overlap(state, target)) ** 2 > 1 - 1e-9 for state, _t in branches)
    assert sum(t["branch_probability"] for _s, t in branches) == pytest.approx(1.0, abs=1e-12)
    tuples, weights, _ = spec.mixture()
    per_component = [
        rows(run_ric(clone, ChannelSpec(kind="product-bell", d=d, N=N, c=k)))
        for k in tuples
    ]
    assert len(branches) == sum(len(leaves) for leaves in per_component)
    # component by component, each leaf weighted by its component's C_k
    flat = [(w, t) for w, leaves in zip(weights, per_component) for _s, t in leaves]
    for (_s, t), (w, t_k) in zip(branches, flat):
        assert ([(m["m"], m["n"]) for m in t["messages"]]
                == [(m["m"], m["n"]) for m in t_k["messages"]])
        assert t["branch_probability"] == pytest.approx(w * t_k["branch_probability"], abs=1e-12)


def test_ric_mixed_all_branches_over_the_joint_budget_is_refused():
    d, N = 3, 3  # 81 components of a 3^11 joint
    clone = clone_state(np.ones(d) / np.sqrt(d), d, N)
    with pytest.raises(SizeGuardError):
        run_ric(clone, preset_spec("smolin", d, N))
    (state, _t), = rows(run_ric(clone, preset_spec("smolin", d, N),
                                rng=np.random.default_rng(1), trials=1))
    assert state.register.labels == (f"{N}'",)


@pytest.mark.parametrize("preset", ["smolin", "mixed-uniform", "ghz"])
def test_run_ric_trials_draw_like_one_run_per_trial(preset):
    # seed order per trial: the component draw, then one uniform per plan level
    d, N = 3, 2
    rng = np.random.default_rng(61)
    clone = clone_state(random_qudit(d, rng).amps, d, N)
    spec = preset_spec(preset, d, N)
    rng_batch, rng_single = np.random.default_rng(8), np.random.default_rng(8)
    got = rows(run_ric(clone, spec, rng=rng_batch, trials=30))
    assert len(got) == 30
    plan = ric_plan(N)
    for state, transcript in got:
        if spec.is_mixed:
            _k, chan = reference.sample(spec, rng_single)
        else:
            chan = spec.build()
        want_outs, want_prob, st = [], 1.0, statealg.tensor(clone, chan)
        for pair in plan:
            br = reference.gbm_sample(st, pair, rng_single)
            want_outs.append((br.outcome.m, br.outcome.n))
            want_prob *= br.outcome.probability
            st = br.post_state
        assert [(m["m"], m["n"]) for m in transcript["messages"]] == want_outs
        assert transcript["branch_probability"] == pytest.approx(want_prob, abs=1e-12)
        want = corrected(st, [(f"{N}'", *xy(transcript))])
        np.testing.assert_allclose(state.amps, want.amps / np.linalg.norm(want.amps), atol=1e-12)
    assert rng_batch.random() == rng_single.random()


# (d, N) whose dense 4N - 1 qudit joint stays small
FRAME_SIZES = [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3)]


def random_front(d, N, rng):
    """A random unit vector on the clone labels: no null branch, no symmetry."""
    reg = statealg.Register(d, protocols.clone_labels(N))
    amps = rng.normal(size=reg.dim) + 1j * rng.normal(size=reg.dim)
    return PureState(reg, amps / np.linalg.norm(amps))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_weyl_frame_oracle_matches_the_dense_component_path(data):
    # the index tracker against one dense joint per component, any (u, v)
    d, N = data.draw(st.sampled_from(FRAME_SIZES))
    k = tuple(data.draw(st.lists(st.integers(0, d - 1), min_size=2 * N, max_size=2 * N)))
    pairs = st.tuples(st.integers(0, d - 1), st.integers(0, d - 1))
    outs = data.draw(st.lists(pairs, min_size=2 * N - 1, max_size=2 * N - 1))
    u, v = sum(k[0::2]) % d, sum(k[1::2]) % d
    front = random_front(d, N, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    plan = ric_plan(N)
    base, phase, (x, y) = reference.ric_weyl_frame(d, N, k, outs)
    leaf = reference.project_plan(statealg.tensor(front, channels.product_bell_channel(d, N, k)),
                                  plan, outs)
    want = reference.project_plan(
        statealg.tensor(front, channels.product_bell_channel(d, N, (0,) * (2 * N))), plan, base)
    assert leaf.register == want.register
    assert np.linalg.norm(want.amps) > 1e-6
    np.testing.assert_allclose(leaf.amps, opsbasis.omega_power(d, phase) * want.amps,
                               rtol=0, atol=1e-13)
    assert deduce_correction(outs[:-1], outs[-1], u, v, d) == (x, y)
    assert deduce_correction(base[:-1], base[-1], 0, 0, d) == (x, y)


@pytest.mark.parametrize("plan_of", ["ric"])
@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
def test_mixture_leaves_are_the_dense_components_leaves(plan_of, d, N):
    # tuples with nonzero residues
    rng = np.random.default_rng(71 + d * N)
    u, v = 1, d - 1
    tuples = [k for k in channels.enumerate_constrained_tuples(d, N, u, v)
              if rng.random() < 0.5][:6]
    weights = rng.random(len(tuples))
    weights /= weights.sum()
    front = random_front(d, N, rng)
    plan = ric_plan(N)
    joint = protocols.Joint.bell_mixture(front, d, N, tuples, weights)
    outcomes, probs, register, amps = protocols.execute(joint, plan)
    want = []
    for k, w in zip(tuples, weights):
        comp = statealg.tensor(front, channels.product_bell_channel(d, N, k))
        for outs, prob, state in depth_first_leaves(comp, plan):
            want.append((outs, w * prob, state))
    assert [[tuple(o) for o in row] for row in outcomes.tolist()] == [o for o, _p, _s in want]
    np.testing.assert_allclose(probs, [p for _o, p, _s in want], rtol=0, atol=1e-15)
    for row, (_o, _p, state) in zip(amps, want):
        assert register == state.register
        np.testing.assert_allclose(row, state.amps, rtol=0, atol=1e-12)
    # one run per trial: the component draw, then one uniform per level
    def draw(r):
        return int(r.choice(len(weights), p=weights))

    joint = protocols.Joint.bell_mixture(front, d, N, tuples, weights, draw)
    rng_batch, rng_single = np.random.default_rng(4), np.random.default_rng(4)
    got = engine_leaves(protocols.execute(joint, plan, rng_batch, trials=40))
    for outs, prob, state in got:
        k = tuples[draw(rng_single)]
        chain = statealg.tensor(front, channels.product_bell_channel(d, N, k))
        want_outs, want_prob = [], 1.0
        for pair in plan:
            br = reference.gbm_sample(chain, pair, rng_single)
            want_outs.append((br.outcome.m, br.outcome.n))
            want_prob *= br.outcome.probability
            chain = br.post_state
        assert outs == want_outs
        assert prob == pytest.approx(want_prob, abs=1e-12)
        np.testing.assert_allclose(state.amps, chain.amps, rtol=0, atol=1e-12)
    assert rng_batch.random() == rng_single.random()


@pytest.mark.parametrize("mode", ["sample", "all-branches"])
def test_executor_reuses_one_workspace_across_components(mode, monkeypatch):
    # smolin (3,2): 9 components on one base row, a 3-level plan, so one
    # descent with 2 non-final levels and one final level per run
    from qric import kernels

    d, N = 3, 2
    calls = []
    project = kernels.project_bell_pairs

    def recording(batch, bras, s1, s2, out=None, scratch=None):
        got = project(batch, bras, s1, s2, out=out, scratch=scratch)
        calls.append((out, scratch, got))
        return got

    monkeypatch.setattr(kernels, "project_bell_pairs", recording)
    clone = clone_state(random_qudit(d, np.random.default_rng(67)).amps, d, N)
    spec = preset_spec("smolin", d, N)
    leaves = run_ric(clone, spec, np.random.default_rng(3),
                     None if mode == "all-branches" else 60)
    finals = [c for c in calls if c[0] is None]
    levels = [c for c in calls if c[0] is not None]
    assert len(finals) == 1  # the components share the base row's one descent
    assert len(levels) == 2
    block, dim = levels[0][0].base, d ** (4 * N - 1)  # clone (x) channel: 4N - 1 qudits
    ptrs = {out.ctypes.data for out, _s, _g in levels}
    assert ptrs <= {block.ctypes.data, block.ctypes.data + 16 * dim}
    assert len({scratch.ctypes.data for _o, scratch, _g in levels}) == 1
    for out, scratch, got in levels:
        assert out.base is block and scratch.base is block and np.shares_memory(got, out)
    assert all(scratch is None and not np.shares_memory(got, block) for _o, scratch, got in finals)
    assert len(leaves.probs) and not np.shares_memory(leaves.amps, block)


# ---------------------------------------------------------------------------
# the leaf record every runner returns

RUNNERS = {
    "telecloning": lambda inp, **kw: run_telecloning(inp, 2, 2, **kw),
    "ric": lambda inp, **kw: run_ric(clone_state(inp.amps, 2, 2), preset_spec("smolin", 2, 2),
                                     **kw),
    "mm-ghz": lambda inp, **kw: run_mm_ghz(clone_state(inp.amps, 2, 2), 2, 2, 2, **kw),
    "mm-multi": lambda inp, **kw: run_mm_multiqudit(
        synth_distributed_state(inp.amps, 2, 3, 2), 2, 3, 2, **kw),
}


@pytest.mark.parametrize("mode,trials", [("all-branches", None), ("sample", 7), ("sample", None)])
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_every_runner_returns_one_leaves_record(runner, mode, trials):
    inp = random_qudit(2, np.random.default_rng(11))
    # "sample" without a count is one trial, as --mode sample --trials 1
    leaves = RUNNERS[runner](inp, rng=np.random.default_rng(12),
                             trials=None if mode == "all-branches" else trials or 1)
    assert isinstance(leaves, protocols.Leaves)
    B = len(leaves.probs)
    assert leaves.outcomes.shape == (B, len(leaves.routes), 2)
    assert leaves.corrections.shape == (B, 2)
    assert leaves.amps.shape == (B, leaves.register.dim)
    assert leaves.amps.flags.writeable is False
    for i in range(B):
        assert leaves.state(i).register == leaves.register
        assert len(leaves.transcript(i)["messages"]) == len(leaves.routes)
    if mode == "sample":
        assert B == (1 if trials is None else trials)
    else:
        assert leaves.probs.sum() == pytest.approx(1.0, abs=1e-12)

