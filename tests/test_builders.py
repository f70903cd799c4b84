"""Bit-for-bit oracles for the resource-state builders.

Each oracle is a test-local copy of an earlier builder: Bell products as a
kron chain of labelled pairs and a reorder, the GHZ-terminated channel as
its own loop, the clone-family extraction as dicts of per-(j, n) vectors,
and the three Bbar expansions as separate kron loops (the distributed-state
one is reference.bbar_expansion). The builders in src/ must give the same
amplitudes exactly (np.array_equal), because the pinned report digests
rest on them.
"""

import numpy as np
import pytest

import reference
from qric import channels, opsbasis, protocols, statealg
from qric.channels import ChannelSpec, channel_labels
from qric.errors import ConstraintError, SizeGuardError
from qric.opsbasis import bell_state
from qric.statealg import PureState, Register


def old_product_bell(d, N, k):
    """|B^{k_1 k_2}> (x) ... with the last pair built on (N', A'_N), then reordered."""
    labels = channel_labels(N)
    parts = [bell_state(d, k[2 * s], k[2 * s + 1], (labels[2 * s], labels[2 * s + 1]))
             for s in range(N - 1)]
    parts.append(bell_state(d, k[2 * N - 2], k[2 * N - 1], (labels[2 * N - 1], labels[2 * N - 2])))
    return statealg.reorder(statealg.tensor_many(parts), labels).amps


def random_tuples(d, N, count, seed):
    """Seeded index tuples whose last pair has both indices nonzero."""
    rng = np.random.default_rng(seed)
    k = rng.integers(0, d, size=(count, 2 * N))
    k[:, -2:] = rng.integers(1, d, size=(count, 2))
    return [tuple(int(x) for x in row) for row in k]


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("N", [2, 3])
def test_bell_products_match_the_kron_chain(d, N):
    tuples = random_tuples(d, N, 12, seed=10 * d + N) + [(0,) * (2 * N)]
    got = channels.bell_products(d, N, tuples)
    assert got.shape == (len(tuples), d ** (2 * N))
    for row, k in zip(got, tuples):
        want = old_product_bell(d, N, k)
        assert np.array_equal(row, want)
        assert np.array_equal(channels.product_bell_channel(d, N, k).amps, want)


def test_general_pure_and_mixed_channels_match_the_per_tuple_builds():
    d, N = 3, 2
    tuples = random_tuples(d, N, 5, seed=7)
    tuples = [k[:-2] + ((-sum(k[0:-2:2])) % d, (-sum(k[1:-2:2])) % d) for k in tuples]
    weights = [0.1, 0.15, 0.2, 0.25, 0.3]
    table = list(zip(tuples, weights))
    old = [old_product_bell(d, N, k) for k in tuples]
    want = None
    for vec, p in zip(old, weights):
        vec = vec * np.sqrt(p)
        want = vec if want is None else want + vec
    pure = channels.general_pure_channel(ChannelSpec(kind="general-pure", d=d, N=N, table=table))
    assert np.array_equal(pure.amps, want)
    vecs = np.stack(old)
    mixed = reference.mixed_channel(ChannelSpec(kind="mixed", d=d, N=N, table=table))
    assert np.array_equal(mixed.mat, (vecs.T * np.array(weights)) @ vecs.conj())


def test_bell_products_checks_its_bytes_before_allocating(monkeypatch):
    seen = []
    real = statealg.check_size
    monkeypatch.setattr(statealg, "check_size", lambda what, size, *a: seen.append(size)
                        or real(what, size, *a))
    channels.bell_products(3, 2, [(0, 0, 0, 0)] * 5)
    assert seen == [16 * 5 * 3**4]
    monkeypatch.undo()
    # 65 rows of 4^8 amplitudes: 65 MiB, one row over the budget
    with pytest.raises(SizeGuardError):
        channels.bell_products(4, 4, [(0,) * 8] * 65)


@pytest.mark.parametrize("tuples", [(0, 1, 2), [(0, 0, 0, 3)], (0, -1, 0, 0)])
def test_bell_products_rejects_bad_tuples(tuples):
    with pytest.raises(ConstraintError):
        channels.bell_products(3, 2, tuples)


def old_mm_ghz(d, N, L):
    """The bell-product mm-ghz channel: |B^{00}> pairs and a GHZ factor on
    (N'_1..N'_L, A'_N), composed and reordered, summed from zeros."""
    labels = protocols.mm_ghz_labels(N, L)
    front = labels[: 2 * (N - 1)]
    parts = [bell_state(d, 0, 0, (front[2 * s], front[2 * s + 1])) for s in range(N - 1)]
    ghz = np.zeros(d ** (L + 1), dtype=np.complex128)
    for a in range(d):
        idx = 0
        for _ in range(L + 1):
            idx = idx * d + a
        ghz[idx] = opsbasis.omega_power(d, 0)
    ghz_labels = tuple(f"{N}'_{i}" for i in range(1, L + 1)) + (f"A'_{N}",)
    parts.append(PureState(Register(d, ghz_labels), ghz / np.sqrt(d), validate=False))
    comp = statealg.reorder(statealg.tensor_many(parts), labels)
    out = np.zeros(comp.register.dim, dtype=np.complex128)
    out += np.sqrt(1.0) * comp.amps
    return out


@pytest.mark.parametrize("d,N,L", [(2, 2, 1), (3, 2, 2), (2, 3, 3)])
def test_mm_ghz_channel_matches_the_composed_channel(d, N, L):
    chan = protocols.mm_ghz_channel(d, N, L)
    assert chan.register.labels == protocols.mm_ghz_labels(N, L)
    assert np.array_equal(chan.amps, old_mm_ghz(d, N, L))


def front_labels(N):
    """The Bbar register: clones 1..N-1, then ancillas A_1..A_{N-1}."""
    return tuple(str(s) for s in range(1, N)) + tuple(f"A_{s}" for s in range(1, N))


def old_extraction(d, N):
    """(bbar, beta) of the dict extraction: every lambda_jn a per-(j, n) slice
    over its float norm, every Bbar_mn its own loop over j, keyed by (m, n)."""
    half = d ** (N - 1)
    lambdas, beta = {}, [0.0] * d
    for j in range(d):
        block = opsbasis.phi_vector(d, N, j).reshape(half, d, half)
        for n in range(d):
            vec = block[:, (j + n) % d, :].reshape(-1)
            nrm = float(np.linalg.norm(vec))
            if j == 0:
                beta[n] = nrm
            lambdas[(j, n)] = vec / nrm
    bbar = {}
    for m in range(d):
        for n in range(d):
            acc = np.zeros(half * half, dtype=np.complex128)
            for j in range(d):
                acc += opsbasis.omega_power(d, j * m) * lambdas[(j, n)]
            bbar[(m, n)] = acc / np.sqrt(d)
    return bbar, tuple(beta)


EXTRACTIONS = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]


@pytest.mark.parametrize("d,N", EXTRACTIONS)
def test_extraction_matches_the_dict_extraction(d, N):
    family = protocols.extract_clone_decomposition(d, N)
    bbar, beta = old_extraction(d, N)
    assert family.bbar.shape == (d, d, d ** (2 * N - 2))
    for (m, n), vec in bbar.items():
        assert np.array_equal(family.bbar[m, n], vec)
    assert np.array_equal(family.beta, beta)
    # the family is cached and shared, so neither array may be written
    assert not family.bbar.flags.writeable and not family.beta.flags.writeable


def old_beta_weighted(d, N):
    bbar, beta = old_extraction(d, N)
    mapping = {str(s): f"{s}'" for s in range(1, N)}
    mapping.update({f"A_{s}": f"A'_{s}" for s in range(1, N)})
    channel_front = channel_labels(N)[: 2 * (N - 1)]
    out = None
    for x in range(d):
        for y in range(d):
            front = PureState(Register(d, front_labels(N)), bbar[(x, y)], validate=False)
            front = statealg.permute(front, mapping)
            front = statealg.reorder(front, channel_front)
            last = bell_state(d, (-x) % d, (-y) % d, (f"A'_{N}", f"{N}'"))
            vec = beta[y] * np.kron(front.amps, last.amps)
            out = vec if out is None else out + vec
    out /= np.sqrt(d)
    return out


@pytest.mark.parametrize("d,N", EXTRACTIONS)
def test_beta_weighted_channel_matches_the_transplant_loop(d, N):
    assert np.array_equal(channels.beta_weighted_channel(d, N).amps, old_beta_weighted(d, N))


@pytest.mark.parametrize("d,N,L", [(2, 3, 1), (3, 3, 2), (2, 4, 2), (3, 2, 1)])
def test_distributed_state_matches_the_kron_loop(d, N, L):
    x = reference.unit_vector(d, seed=d + N + L)
    bbar, beta = old_extraction(d, N - L + 1)
    got = protocols.synth_distributed_state(x, d, N, L)
    assert np.array_equal(got.amps, reference.bbar_expansion(bbar, beta, x, d, L))


@pytest.mark.parametrize("d,N", [(2, 2), (3, 3), (4, 2)])
def test_reconstruction_deviation_matches_the_kron_loop(d, N):
    family = protocols.extract_clone_decomposition(d, N)
    x = reference.unit_vector(d, seed=3 * d + N)
    bbar, beta = old_extraction(d, N)
    expanded = PureState(Register(d, front_labels(N) + (str(N),)),
                         reference.bbar_expansion(bbar, beta, x, d, 1), validate=False)
    expanded = statealg.reorder(expanded, opsbasis.clone_labels(N))
    want = float(np.abs(protocols.clone_state(x, d, N).amps - expanded.amps).max())
    assert protocols.reconstruction_deviation(family, x) == want


@pytest.mark.parametrize("d,N", [(2, 2), (3, 3), (4, 2)])
def test_batched_reconstruction_deviation_is_the_per_input_calls(d, N):
    family = protocols.extract_clone_decomposition(d, N)
    xs = np.array([reference.unit_vector(d, seed=s) for s in range(20)])
    got = protocols.reconstruction_deviation(family, xs)
    assert got.shape == (20,)
    assert np.array_equal(got, [protocols.reconstruction_deviation(family, x) for x in xs])
