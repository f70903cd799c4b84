import itertools
from math import log2

import numpy as np
import pytest

from qric import (
        ChannelSpec,
    clone_state,
    deduce_correction,
    equal_up_to_phase,
    extract_clone_decomposition,
    fidelity,
    ghz_correlated_state,
    overlap,
    partial_trace,
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
from qric.errors import ProtocolError, SizeGuardError
from qric.opsbasis import weyl_r


def clone_fid(state, inp, label):
    rho = partial_trace(state, [label])
    return float(np.real(np.vdot(inp.amps, rho.mat @ inp.amps)))


def diana_target(inp, N):
    return permute(inp, {inp.register.labels[0]: f"{N}'"})


# ---------------------------------------------------------------------------
# telecloning

@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
def test_telecloning_every_branch_fidelity_and_state(d, N):
    rng = np.random.default_rng(17)
    inp = random_qudit(d, rng)
    ref = clone_state(inp.amps, d, N)
    want = clone_fidelity_formula(d, N)
    branches = run_telecloning(inp, d, N, mode="all-branches")
    assert len(branches) == d * d
    for state, transcript in branches:
        # post-correction collective state equals the clone state exactly
        assert equal_up_to_phase(state, ref, 1e-9)
        for s in range(1, N + 1):
            assert abs(clone_fid(state, inp, str(s)) - want) < 1e-9
        assert transcript.branch_probability == pytest.approx(1 / d**2, abs=1e-10)


def test_telecloning_ancilla_corrections_optional():
    # skipping ancilla corrections leaves every single-clone fidelity unchanged
    rng = np.random.default_rng(23)
    inp = random_qudit(3, rng)
    want = clone_fidelity_formula(3, 2)
    for state, _t in run_telecloning(inp, 3, 2, mode="all-branches", correct_ancillas=False):
        for s in (1, 2):
            assert abs(clone_fid(state, inp, str(s)) - want) < 1e-9


def test_telecloning_sample_mode_and_transcript():
    rng = np.random.default_rng(3)
    inp = random_qudit(2, rng)
    state, transcript = run_telecloning(inp, 2, 2, mode="sample", rng=rng)
    # N Bobs + N-1 ancilla holders receive the outcome
    assert len(transcript.messages) == 2 + 1
    assert all(msg.bits == 2.0 for msg in transcript.messages)
    assert transcript.correction is not None


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
    assert abs(fam.beta.values[0] - np.sqrt(5 / 6)) < 1e-10
    assert abs(fam.beta.values[1] - np.sqrt(1 / 6)) < 1e-10


def test_extraction_beta_values_d3():
    fam = extract_clone_decomposition(3, 2)
    assert abs(fam.beta.values[0] - np.sqrt(6 / 8)) < 1e-10
    assert abs(fam.beta.values[1] - np.sqrt(1 / 8)) < 1e-10
    assert abs(fam.beta.values[2] - np.sqrt(1 / 8)) < 1e-10


@pytest.mark.parametrize("d,N", [(2, 2), (2, 3), (3, 2)])
def test_reconstruction_20_random_inputs(d, N):
    fam = extract_clone_decomposition(d, N)
    rng = np.random.default_rng(d * 100 + N)
    for _ in range(20):
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        x /= np.linalg.norm(x)
        assert protocols.reconstruction_deviation(fam, x) < 1e-9


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
def test_bbar_orthogonal_and_covariant(d, N):
    fam = extract_clone_decomposition(d, N)
    # mutual orthogonality across (m, n)
    keys = list(fam.bbar)
    for i, k1 in enumerate(keys):
        for k2 in keys[i + 1:]:
            ov = np.vdot(fam.bbar[k1].amps, fam.bbar[k2].amps)
            assert abs(ov) < 1e-10
    # R^{k,l}-tensor covariance with eigenvalue w^{lm-nk}
    for (m, n), st in fam.bbar.items():
        for k, ell in ((1, 0), (0, 1), (1, 1)):
            moved = st
            for s in range(1, N):
                moved = statealg.apply_local(moved, weyl_r(d, k, ell), str(s))
            for s in range(1, N):
                moved = statealg.apply_local(moved, weyl_r(d, -k, ell), f"A_{s}")
            phase = opsbasis.omega_power(d, ell * m - n * k)
            np.testing.assert_allclose(moved.amps, phase * st.amps, atol=1e-10)


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
def test_bbar_supported_on_constraint_class(d, N):
    # every Bbar_{mn} expands over pair-product Bell states whose index sums
    # are exactly (m, n)
    fam = extract_clone_decomposition(d, N)
    pair_labels = [(str(s), f"A_{s}") for s in range(1, N)]
    for (m, n), st in fam.bbar.items():
        for idxs in itertools.product(range(d), repeat=2 * (N - 1)):
            comp = tensor_many(
                [opsbasis.bell_state(d, idxs[2 * i], idxs[2 * i + 1], pair_labels[i])
                 for i in range(N - 1)]
            )
            comp = statealg.reorder(comp, fam.front_labels)
            amp = np.vdot(comp.amps, st.amps)
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
    branches, coverage = run_ric(clone, spec, mode="all-branches")
    assert coverage == 1.0
    target = diana_target(inp, N)
    for state, transcript in branches:
        assert abs(overlap(state, target)) > 1 - 1e-9
        assert transcript.total_bits() == pytest.approx((2 * N - 1) * 2 * log2(d))
    # probabilities over non-null branches sum to one
    assert sum(t.branch_probability for _s, t in branches) == pytest.approx(1.0, abs=1e-9)


def test_ric_product_channel_with_nonzero_residues():
    d, N = 3, 2
    rng = np.random.default_rng(31)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    c = (1, 2, 2, 1)
    spec = ChannelSpec(kind="product-bell", d=d, N=N, u=0, v=0, c=c)
    branches, _ = run_ric(clone, spec, mode="all-branches")
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
        state, transcript = run_ric(clone, spec, mode="sample", rng=rng)
        assert abs(overlap(state, target)) > 1 - 1e-9


def test_ric_measurement_order_independent():
    d, N = 2, 2
    rng = np.random.default_rng(19)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    chan = channels.ghz_channel(d, N)
    joint = statealg.tensor(clone, chan)
    target = diana_target(inp, N)
    base_plan = protocols.ric_measurement_plan(N)
    for order in itertools.permutations(range(len(base_plan))):
        plan = [base_plan[i] for i in order]

        def finish(outs, _prob, residual):
            by_pair = dict(zip(plan, outs))
            ordered = [by_pair[p] for p in base_plan]
            x, y = deduce_correction(ordered[:-1], ordered[-1], 0, 0, d)
            return statealg.apply_local(residual, weyl_r(d, x, y), f"{N}'")

        leaves, coverage = protocols.execute(joint, plan, finish, "all-branches")
        assert coverage == 1.0 and leaves
        for out in leaves:
            assert abs(overlap(out, target)) > 1 - 1e-9


@pytest.mark.parametrize("preset,d,N", [("ghz", 2, 2), ("beta", 3, 2)])
def test_ric_leaf_probability_matches_dense_projection(preset, d, N):
    # oracle: ||(x)_k <B_{o_k}| joint||^2 by one dense contraction over every
    # plan pair at once; no GBM and no kernels involved
    rng = np.random.default_rng(43)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    spec = preset_spec(preset, d, N)
    joint = statealg.tensor(clone, spec.build())
    plan = protocols.ric_measurement_plan(N)
    axes = [joint.register.position(label) for pair in plan for label in pair]
    t = joint.amps.reshape([d] * joint.register.n)
    branches, coverage = run_ric(clone, spec, mode="all-branches")
    assert coverage == 1.0
    for _state, transcript in branches:
        bra = np.ones(1, dtype=np.complex128)
        for msg in transcript.messages:  # one message per plan pair, in plan order
            bra = np.kron(bra, opsbasis.bell_vector(d, msg.m, msg.n).conj())
        rest = np.tensordot(bra.reshape([d] * len(axes)), t, axes=(range(len(axes)), axes))
        want = float(np.sum(np.abs(rest) ** 2))
        assert transcript.branch_probability == pytest.approx(want, abs=1e-12)


def test_ric_d2_n3_sampled_branches():
    d, N = 2, 3
    rng = np.random.default_rng(37)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    target = diana_target(inp, N)
    spec = preset_spec("ghz", d, N)
    # the full tree has 1024 branches, within budget: exhaustive
    branches, coverage = run_ric(clone, spec, mode="all-branches")
    assert coverage == 1.0
    assert len(branches) >= 200
    for state, _t in branches:
        assert abs(overlap(state, target)) > 1 - 1e-9


def test_ric_rejects_bad_labels():
    rng = np.random.default_rng(0)
    st = random_qudit(2, rng)
    with pytest.raises(ProtocolError):
        run_ric(st, preset_spec("ghz", 2, 2))


def test_run_ric_accepts_all_pure_presets_sampled():
    d, N = 2, 2
    rng = np.random.default_rng(3)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    target = diana_target(inp, N)
    for preset in ("ghz", "beta", "bell-product"):
        state, _t = run_ric(clone, preset_spec(preset, d, N), mode="sample", rng=rng)
        assert abs(overlap(state, target)) > 1 - 1e-9


# ---------------------------------------------------------------------------
# teleportation identity

@pytest.mark.parametrize("d", [2, 3])
def test_teleport_identity_exhaustive(d):
    for m, n, k, kp in itertools.product(range(d), repeat=4):
        assert teleport_identity_check(d, m, n, k, kp) < 1e-12


# ---------------------------------------------------------------------------
# many-to-many variants

def test_mm_ghz_all_branches_2_2_2():
    d, N, L = 2, 2, 2
    rng = np.random.default_rng(41)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    target = ghz_correlated_state(inp.amps, d, L, labels=[f"{N}'_1", f"{N}'_2"])
    branches, coverage = run_mm_ghz(clone, d, N, L, mode="all-branches")
    assert coverage == 1.0
    for state, _t in branches:
        assert abs(overlap(state, target)) > 1 - 1e-9


def test_mm_ghz_basis_input_gives_all_zeros():
    d, N, L = 2, 2, 2
    clone = clone_state([1, 0], d, N)
    branches, _ = run_mm_ghz(clone, d, N, L, mode="all-branches")
    zero = ghz_correlated_state([1, 0], d, L, labels=[f"{N}'_1", f"{N}'_2"])
    for state, _t in branches:
        assert abs(overlap(state, zero)) > 1 - 1e-9


def test_mm_ghz_l1_degenerates_to_ric():
    d, N = 2, 2
    rng = np.random.default_rng(43)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    branches, _ = run_mm_ghz(clone, d, N, 1, mode="all-branches")
    target = ghz_correlated_state(inp.amps, d, 1, labels=[f"{N}'_1"])
    for state, _t in branches:
        assert abs(overlap(state, target)) > 1 - 1e-9


def test_mm_multi_2_2_2_and_bit_count():
    d, N, L = 2, 2, 2
    rng = np.random.default_rng(47)
    inp = random_qudit(d, rng)
    dist = synth_distributed_state(inp.amps, d, N, L)
    branches, _ = run_mm_multiqudit(dist, d, N, L, mode="all-branches")
    receiver = [f"{s}'" for s in range(N - L + 1, N + 1)]
    target = tensor_many(
        [permute(inp, {inp.register.labels[0]: lab}) for lab in receiver]
    )
    for state, transcript in branches:
        assert abs(overlap(state, target)) > 1 - 1e-9
        assert transcript.total_bits() == pytest.approx((2 * N - L) * 2 * log2(d))


def test_mm_multi_l1_reduces_to_ric():
    d, N = 2, 2
    rng = np.random.default_rng(53)
    inp = random_qudit(d, rng)
    dist = synth_distributed_state(inp.amps, d, N, 1)
    branches, _ = run_mm_multiqudit(dist, d, N, 1, mode="all-branches")
    target = diana_target(inp, N)
    for state, _t in branches:
        assert abs(overlap(state, target)) > 1 - 1e-9


def test_mm_multi_3_2_with_clone_family_bbar():
    d, N, L = 2, 3, 2
    rng = np.random.default_rng(59)
    inp = random_qudit(d, rng)
    dist = synth_distributed_state(inp.amps, d, N, L)
    branches, _ = run_mm_multiqudit(dist, d, N, L, mode="all-branches")
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
    assert abs(dist.norm() - 1) < 1e-10


def test_synth_arbitrary_beta_still_normalized():
    from qric.channels import BetaVector

    rng = np.random.default_rng(73)
    x = rng.normal(size=2) + 1j * rng.normal(size=2)
    x /= np.linalg.norm(x)
    raw = rng.random(2)
    beta = BetaVector(tuple(np.sqrt(raw / raw.sum())))
    dist = synth_distributed_state(x, 2, 2, 1, beta=beta)
    assert abs(dist.norm() - 1) < 1e-10


def test_synth_random_orthonormal_source_covariant_and_concentrable():
    d, N, L = 2, 3, 2
    rng = np.random.default_rng(71)
    inp = random_qudit(d, rng)
    dist = synth_distributed_state(inp.amps, d, N, L, bbar_source="random-orthonormal", rng=rng)
    assert abs(dist.norm() - 1) < 1e-10
    branches, _ = run_mm_multiqudit(dist, d, N, L, mode="all-branches")
    receiver = [f"{s}'" for s in range(N - L + 1, N + 1)]
    target = tensor_many(
        [permute(inp, {inp.register.labels[0]: lab}) for lab in receiver]
    )
    for state, _t in branches:
        assert abs(overlap(state, target)) > 1 - 1e-9


def test_synth_state_satisfies_covariance_by_construction():
    fam = extract_clone_decomposition(2, 2)
    bbar = {mn: st.amps for mn, st in fam.bbar.items()}
    protocols.check_bbar_covariance(bbar, 2, 1)  # must not raise
    bad = dict(bbar)
    bad[(0, 1)] = np.roll(bad[(0, 1)], 1)
    with pytest.raises(ProtocolError):
        protocols.check_bbar_covariance(bad, 2, 1)


def test_ric_oversized_tree_uses_stratified_sampling():
    # (3,3) has 9^5 = 59049 branches, over the 10^4 budget: the run reports
    # partial coverage and every visited branch still concentrates exactly
    d, N = 3, 3
    rng = np.random.default_rng(77)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    spec = preset_spec("bell-product", d, N)
    branches, coverage = run_ric(clone, spec, mode="all-branches", rng=rng)
    assert 0 < coverage < 1
    assert len(branches) == 6561
    target = diana_target(inp, N)
    for state, _t in branches:
        assert abs(overlap(state, target)) > 1 - 1e-9


def test_transcript_json_schema():
    d, N = 2, 2
    rng = np.random.default_rng(101)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    state, transcript = run_ric(clone, preset_spec("ghz", d, N), mode="sample", rng=rng)
    transcript.fidelity = 1.0
    doc = transcript.to_json_dict()
    assert set(doc) == {"parties", "messages", "correction", "branch_probability", "fidelity"}
    assert set(doc["correction"]) == {"x", "y"}
    for msg in doc["messages"]:
        assert set(msg) == {"from", "to", "m", "n", "bits"}
    assert len(doc["messages"]) == 2 * N - 1
