import itertools
import json

import numpy as np
import pytest

import reference
from reference import mixed_channel, smolin_like
from qric import (
    ChannelSpec,
    Cut,
    beta_weighted_channel,
    channel_labels,
    entropy_across_cut,
    enumerate_constrained_tuples,
    general_pure_channel,
    ghz_channel,
    preset_spec,
    product_bell_channel,
    telecloning_channel,
)
from qric import channels, opsbasis, statealg
from qric.analysis import stabilizer_suite
from qric.errors import ConstraintError
from qric.opsbasis import bell_state, phi_vector
from qric.statealg import tensor


# ---------------------------------------------------------------------------
# tuple enumeration

def brute_force_tuples(d, N, u, v):
    out = []
    for k in itertools.product(range(d), repeat=2 * N):
        if sum(k[0::2]) % d == u and sum(k[1::2]) % d == v:
            out.append(k)
    return sorted(out)


def test_enumerate_d2_n2_zero():
    got = enumerate_constrained_tuples(2, 2, 0, 0)
    assert got == [(0, 0, 0, 0), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 1, 1)]


@pytest.mark.parametrize("d,N,u,v", [(2, 2, 0, 0), (3, 2, 0, 0), (2, 3, 1, 0), (3, 2, 1, 2)])
def test_enumerate_matches_brute_force(d, N, u, v):
    got = enumerate_constrained_tuples(d, N, u, v)
    assert got == brute_force_tuples(d, N, u, v)
    assert len(got) == d ** (2 * (N - 1))


def test_enumerate_d2_n3_u1_all_odd():
    got = enumerate_constrained_tuples(2, 3, 1, 0)
    assert len(got) == 16
    assert all(sum(k[0::2]) % 2 == 1 for k in got)


# ---------------------------------------------------------------------------
# telecloning channel

def test_telecloning_channel_d2_n2_matches_term_expansion():
    ch = telecloning_channel(2, 2)
    # expansion: (1/sqrt d) sum_j |j> phi_j with phi_j from the N=2 closed form
    want = np.zeros(16, dtype=complex)
    d = 2
    for j in range(d):
        block = np.zeros(8, dtype=complex)
        jr = (j + 1) % d
        # (|j jr> + |jr j>) |jr> / sqrt(2(d+1))
        block[j * 4 + jr * 2 + jr] += 1 / np.sqrt(2 * (d + 1))
        block[jr * 4 + j * 2 + jr] += 1 / np.sqrt(2 * (d + 1))
        # sqrt(2/(d+1)) |j j j>
        block[j * 4 + j * 2 + j] += np.sqrt(2 / (d + 1))
        want[j * 8:(j + 1) * 8] = block / np.sqrt(d)
    np.testing.assert_allclose(ch.amps, want, atol=1e-12)


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_telecloning_channel_normalized(d, N):
    assert abs(np.linalg.norm(telecloning_channel(d, N).amps) - 1) < 1e-10


def test_phi_branches_orthogonal_d3():
    a = phi_vector(3, 2, 0)
    b = phi_vector(3, 2, 1)
    assert abs(np.vdot(a, b)) < 1e-12


# ---------------------------------------------------------------------------
# general / product / ghz channels

def test_single_tuple_general_equals_bell_power():
    spec = ChannelSpec(kind="general-pure", d=2, N=2, table=[((0, 0, 0, 0), 1.0)])
    ch = general_pure_channel(spec)
    want = product_bell_channel(2, 2, (0, 0, 0, 0))
    np.testing.assert_allclose(ch.amps, want.amps, atol=1e-12)


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
def test_uniform_shiftless_table_equals_ghz(d, N):
    tuples = [k for k in enumerate_constrained_tuples(d, N, 0, 0)
              if all(k[i] == 0 for i in range(1, 2 * N, 2))]
    table = [(k, 1.0 / len(tuples)) for k in tuples]
    spec = ChannelSpec(kind="general-pure", d=d, N=N, table=table)
    np.testing.assert_allclose(
        general_pure_channel(spec).amps, ghz_channel(d, N).amps, atol=1e-12
    )


def test_general_channel_stabilizer_modulus_one():
    rng = np.random.default_rng(2)
    tuples = enumerate_constrained_tuples(2, 2, 0, 0)
    w = rng.random(len(tuples))
    w /= w.sum()
    spec = ChannelSpec(kind="general-pure", d=2, N=2, table=list(zip(tuples, w)))
    ch = general_pure_channel(spec)
    table = stabilizer_suite(ch, 2, 2)
    for val in table.values():
        assert abs(abs(val) - 1) < 1e-10
        assert abs(val - 1) < 1e-10  # u = v = 0: exactly one


def test_constraint_violation_reports_tuple():
    with pytest.raises(ConstraintError) as err:
        ChannelSpec(kind="general-pure", d=2, N=2, table=[((1, 0, 0, 0), 1.0)])
    assert "(1, 0, 0, 0)" in str(err.value)


@pytest.mark.parametrize("kind", channels.ZERO_RESIDUE_KINDS)
def test_zero_residue_kinds_refuse_other_residues(kind):
    # their builders take no residues, so a run would correct for a (u, v) the state lacks
    for field in ("u", "v"):
        with pytest.raises(ConstraintError, match=f"{kind!r} needs field {field!r}"):
            ChannelSpec(kind=kind, d=3, N=2, **{field: 1})
    spec = ChannelSpec(kind=kind, d=3, N=2, u=3, v=-3)  # residues are taken mod d
    assert (spec.u, spec.v) == (0, 0)


def test_weight_normalization_warns():
    with pytest.warns(UserWarning):
        spec = ChannelSpec(
            kind="general-pure", d=2, N=2,
            table=[((0, 0, 0, 0), 0.5), ((1, 0, 1, 0), 0.6)],
        )
    assert abs(sum(w for _, w in spec.table) - 1.0) < 1e-12


def test_ghz_channel_d2_n2():
    ch = ghz_channel(2, 2)
    want = np.zeros(16)
    want[[0, 15]] = 1 / np.sqrt(2)
    np.testing.assert_allclose(ch.amps, want, atol=1e-12)


def test_ghz_channel_one_vs_rest_entropy():
    ch = ghz_channel(3, 2)
    labels = channel_labels(2)
    for l in labels:
        rest = tuple(x for x in labels if x != l)
        assert abs(entropy_across_cut(ch, Cut(rest, (l,))) - np.log2(3)) < 1e-8


def test_product_bell_all_zero():
    ch = product_bell_channel(2, 2, (0, 0, 0, 0))
    spec = ChannelSpec(kind="general-pure", d=2, N=2, table=[((0, 0, 0, 0), 1.0)])
    np.testing.assert_allclose(ch.amps, general_pure_channel(spec).amps, atol=1e-12)


def test_product_bell_d3_1221_oracle():
    # oracle: tensor of bell_state outputs (last pair on (N', A'_N))
    ch = product_bell_channel(3, 2, (1, 2, 2, 1))
    ref = tensor(
        bell_state(3, 1, 2, ("A'_1", "1'")), bell_state(3, 2, 1, ("2'", "A'_2"))
    )
    ref = statealg.reorder(ref, channel_labels(2))
    np.testing.assert_allclose(ch.amps, ref.amps, atol=1e-12)
    assert abs(np.linalg.norm(ch.amps) - 1) < 1e-12


def test_product_bell_stabilizers_at_zero_residues():
    ch = product_bell_channel(3, 2, (1, 2, 2, 1))
    table = stabilizer_suite(ch, 3, 2)
    for val in table.values():
        assert abs(val - 1) < 1e-10


# ---------------------------------------------------------------------------
# beta-weighted channel

def test_beta_channel_d2_equals_relabeled_telecloning():
    from qric.analysis import appendix_c_relabeling

    tele = telecloning_channel(2, 2)
    relabeled = statealg.permute(tele, appendix_c_relabeling(2))
    relabeled = statealg.reorder(relabeled, channel_labels(2))
    beta = beta_weighted_channel(2, 2)
    assert abs(abs(statealg.overlap(relabeled, beta)) - 1) < 1e-9


def test_beta_channel_d3_differs_from_telecloning():
    from qric.analysis import appendix_c_relabeling

    tele = telecloning_channel(3, 2)
    relabeled = statealg.permute(tele, appendix_c_relabeling(2))
    relabeled = statealg.reorder(relabeled, channel_labels(2))
    beta = beta_weighted_channel(3, 2)
    assert abs(statealg.overlap(relabeled, beta)) < 1 - 1e-6


@pytest.mark.parametrize("d,N", [(2, 3), (3, 2)])
def test_beta_channel_normalized(d, N):
    assert abs(np.linalg.norm(beta_weighted_channel(d, N).amps) - 1) < 1e-10


# ---------------------------------------------------------------------------
# mixed channels and the Smolin-like state

def test_mixed_single_tuple_equals_product_density():
    spec = ChannelSpec(kind="mixed", d=2, N=2, table=[((1, 1, 1, 1), 1.0)])
    rho = mixed_channel(spec)
    comp = product_bell_channel(2, 2, (1, 1, 1, 1))
    np.testing.assert_allclose(rho.mat, np.outer(comp.amps, comp.amps.conj()), atol=1e-12)


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
def test_uniform_mixed_equals_smolin(d, N):
    tuples = enumerate_constrained_tuples(d, N, 0, 0)
    spec = ChannelSpec(kind="mixed", d=d, N=N, table=[(k, 1 / len(tuples)) for k in tuples])
    np.testing.assert_allclose(mixed_channel(spec).mat, smolin_like(d, N).mat, atol=1e-12)


def _outer_product_density(spec):
    # the mixture as a running sum of C_k |v_k><v_k|, one outer product per term;
    # a smolin-like spec without a table is uniform over the u = v = 0 tuples
    tuples = enumerate_constrained_tuples(spec.d, spec.N, 0, 0)
    table = spec.table or [(k, 1 / len(tuples)) for k in tuples]
    mat = np.zeros((spec.d ** (2 * spec.N),) * 2, dtype=np.complex128)
    for k, cw in table:
        comp = product_bell_channel(spec.d, spec.N, k)
        mat += cw * np.outer(comp.amps, comp.amps.conj())
    return mat


def test_mixed_channel_is_weighted_sum_of_products():
    rng = np.random.default_rng(3)
    tuples = enumerate_constrained_tuples(2, 2, 1, 1)
    w = rng.random(len(tuples))
    w /= w.sum()
    spec = ChannelSpec(kind="mixed", d=2, N=2, u=1, v=1, table=list(zip(tuples, w)))
    np.testing.assert_allclose(mixed_channel(spec).mat, _outer_product_density(spec), atol=1e-12)


@pytest.mark.parametrize("spec", [
    ChannelSpec(kind="smolin-like", d=2, N=2),
    ChannelSpec(kind="smolin-like", d=3, N=2),
    ChannelSpec(kind="smolin-like", d=2, N=3),
    preset_spec("mixed-uniform", 3, 2),
    # unequal weights, nonzero residues, one tuple listed twice
    ChannelSpec(kind="mixed", d=3, N=2, u=1, v=2, table=[
        ((0, 0, 1, 2), 0.5), ((1, 2, 0, 0), 0.25), ((2, 1, 2, 1), 0.125),
        ((0, 0, 1, 2), 0.125),
    ]),
], ids=["smolin-2-2", "smolin-3-2", "smolin-2-3", "mixed-uniform-3-2", "mixed-unequal-3-2"])
def test_mixed_channel_matches_sum_of_outer_products(spec):
    np.testing.assert_allclose(mixed_channel(spec).mat, _outer_product_density(spec),
                               rtol=0, atol=1e-13)


def test_smolin_d2_equals_generalized_smolin_form():
    # (1/4) sum_{m,n} |B^{mn}><B^{mn}| (x) |B^{mn}><B^{mn}| on the channel pairing
    rho = smolin_like(2, 2)
    acc = np.zeros((16, 16), dtype=complex)
    for m in range(2):
        for n in range(2):
            comp = statealg.reorder(
                tensor(bell_state(2, m, n, ("A'_1", "1'")), bell_state(2, m, n, ("A'_2", "2'"))),
                channel_labels(2),
            )
            acc += np.outer(comp.amps, comp.amps.conj()) / 4
    np.testing.assert_allclose(rho.mat, acc, atol=1e-12)


def test_smolin_basic_properties():
    rho = smolin_like(2, 2)
    assert abs(np.trace(rho.mat) - 1) < 1e-12
    assert np.abs(rho.mat - rho.mat.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(rho.mat).min() > -1e-12


def test_mixed_specs_build_their_tuples_and_weights():
    spec = ChannelSpec(kind="mixed", d=3, N=2, u=1, v=2,
                       table=[((0, 0, 1, 2), 0.75), ((1, 2, 0, 0), 0.25)])
    mix = spec.build()
    assert isinstance(mix, channels.BellMixture)
    assert mix.tuples.tolist() == [[0, 0, 1, 2], [1, 2, 0, 0]]
    assert mix.weights.tolist() == [0.75, 0.25]
    assert mix.register.labels == channel_labels(2)
    smolin = preset_spec("smolin", 2, 3).build()
    assert smolin.tuples.shape == (16, 6) and np.all(smolin.weights == 1 / 16)


@pytest.mark.parametrize("tuples,weights", [
    ([(0, 0, 1, 3)], [1.0]),  # entry out of range
    ([(0, 0, -1, 0)], [1.0]),  # negative entry
    ([(0, 0, 1)], [1.0]),  # too short
    ([(0, 0, 0, 0), (1, 1, 1, 1)], [1.0]),  # one weight for two tuples
])
def test_bell_mixture_refuses_malformed_tuples(tuples, weights):
    with pytest.raises(ConstraintError):
        channels.BellMixture(3, 2, tuples, weights)


def test_smolin_d3_tuple_constraints():
    got = enumerate_constrained_tuples(3, 2, 0, 0)
    assert len(got) == 9
    for k1, k2, k3, k4 in got:
        assert (k1 + k3) % 3 == 0 and (k2 + k4) % 3 == 0


def test_sampler_frequencies_within_5_sigma():
    spec = preset_spec("mixed-uniform", 2, 2)
    rng = np.random.default_rng(0)
    counts = {}
    trials = 10_000
    for _ in range(trials):
        k, _state = reference.sample(spec, rng)
        counts[k] = counts.get(k, 0) + 1
    p = 1 / len(spec.table)
    sigma = np.sqrt(trials * p * (1 - p))
    for k, _w in spec.table:
        assert abs(counts.get(k, 0) - trials * p) < 5 * sigma


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (4, 2), (3, 3)])
def test_bell_frame_rebuilds_every_bell_product(d, N):
    # w^phase (x)_l U^{exps_l} on |B^{0...0}>, against the builder, any residues
    tuples = np.random.default_rng(d * N).integers(0, d, (12, 2 * N))
    exps, phase = channels.bell_frame(d, N, tuples)
    base = channels.bell_products(d, N, (0,) * (2 * N))[0]
    col, val = opsbasis.weyl_monomial(d, [("U", e[:, 0], e[:, 1]) for e in exps.transpose(1, 0, 2)])
    got = opsbasis.omega_table(d)[phase][:, None] * val * base[col]
    np.testing.assert_allclose(got, channels.bell_products(d, N, tuples), rtol=0, atol=1e-15)


def test_sampler_returns_matching_component():
    spec = preset_spec("smolin", 3, 2)
    rng = np.random.default_rng(1)
    k, state = reference.sample(spec, rng)
    np.testing.assert_allclose(state.amps, product_bell_channel(3, 2, k).amps, atol=1e-12)


# ---------------------------------------------------------------------------
# spec serialization and presets

def test_channel_spec_json_roundtrip(tmp_path):
    spec = preset_spec("mixed-uniform", 2, 2)
    text = spec.to_json()
    again = ChannelSpec.from_json(text)
    assert again.kind == spec.kind and again.table == spec.table
    path = tmp_path / "chan.json"
    path.write_text(text)
    loaded = channels.load_channel(str(path), 2, 2)
    assert loaded.table == spec.table


def test_load_channel_unknown_preset():
    with pytest.raises(ConstraintError):
        channels.load_channel("nope", 2, 2)


@pytest.mark.parametrize("name", channels.PRESETS)
def test_presets_build(name):
    spec = preset_spec(name, 2, 2)
    state = spec.build()
    assert state is not None


@pytest.mark.parametrize("d,N", [(2, 2), (3, 2), (2, 3)])
@pytest.mark.parametrize("name", ["ghz", "beta", "bell-product"])
def test_pure_channels_norm_and_last_cut_entropy(d, N, name):
    state = preset_spec(name, d, N).build()
    assert abs(np.linalg.norm(state.amps) - 1) < 1e-10
    labels = channel_labels(N)
    ent = entropy_across_cut(state, Cut(labels[:-1], (labels[-1],)))
    assert abs(ent - np.log2(d)) < 1e-8
