"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import subprocess
import sys
import time
from math import log2

import numpy as np
import pytest

from qric import (
    ChannelSpec,
    Cut,
    channel_labels,
    clone_fidelity_formula,
    clone_state,
    entropy_across_cut,
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
    swap_identity_check,
    synth_distributed_state,
    teleport_identity_check,
    tensor_many,
    unlock_ubes,
    verify_appendix_b,
    verify_appendix_c,
)
from qric import analysis, channels, protocols
from qric.analysis import (
    ppt_min_eigenvalue,
    smolin_spectrum_check,
    stabilizer_suite,
    symmetry_report,
)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def diana_target(inp, N):
    return permute(inp, {inp.register.labels[0]: f"{N}'"})


def min_fidelity(leaves, target):
    """Smallest |<leaf|target>|^2 over every leaf of a run."""
    return min(abs(overlap(leaves.state(i), target)) ** 2 for i in range(len(leaves.probs)))


def test_criterion_1_clone_fidelity():
    cases = {(2, 2): 5 / 6, (2, 3): 7 / 9, (3, 2): 3 / 4, (4, 2): 7 / 10, (3, 3): 2 / 3}
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst = 0.0
    for (d, N), want in cases.items():
        assert abs(clone_fidelity_formula(d, N) - want) < 1e-12
        inp = random_qudit(d, rng)
        leaves = run_telecloning(inp, d, N, mode="all-branches")
        for i in range(len(leaves.probs)):
            state = leaves.state(i)
            for s in range(1, N + 1):
                rho = partial_trace(state, [str(s)])
                fid = float(np.real(np.vdot(inp.amps, rho.mat @ inp.amps)))
                worst = max(worst, abs(fid - want))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst < 1e-9 and elapsed < 30,
        f"clone fidelities on every branch, max |F - formula| = {worst:.2e}, "
        f"runtime {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_ric_determinism():
    rng = np.random.default_rng(200)
    t0 = time.perf_counter()
    worst = 1.0
    details = []
    for d, N in [(2, 2), (3, 2)]:
        inp = random_qudit(d, rng)
        clone = clone_state(inp.amps, d, N)
        target = diana_target(inp, N)
        for preset in ("ghz", "beta", "bell-product"):
            leaves = run_ric(clone, preset_spec(preset, d, N), mode="all-branches")
            total_p = sum(leaves.transcript(i)["branch_probability"]
                          for i in range(len(leaves.probs)))
            assert abs(total_p - 1) < 1e-9  # the enumeration is exhaustive
            fmin = min_fidelity(leaves, target)
            worst = min(worst, fmin)
            details.append(f"({d},{N}) {preset}: {len(leaves.probs)} branches")
        for preset in ("smolin", "mixed-uniform"):
            spec = preset_spec(preset, d, N)
            fmin = 1.0
            for _ in range(100):
                state = run_ric(clone, spec, mode="sample", rng=rng).state(0)
                fmin = min(fmin, abs(overlap(state, target)) ** 2)
            worst = min(worst, fmin)
            details.append(f"({d},{N}) {preset}: 100 trials")
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst > 1 - 1e-9 and elapsed < 60,
        f"RIC fidelity min = {1 - (1 - worst):.12f} over "
        f"[{'; '.join(details)}], runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_identity_suite():
    # Bell rearrangement identity
    swap_dev = max(
        swap_identity_check(d, *t)
        for d in (2, 3)
        for t in itertools.product(range(d), repeat=4)
    )
    rng = np.random.default_rng(300)
    swap_dev = max(
        swap_dev,
        max(swap_identity_check(5, *(int(v) for v in rng.integers(0, 5, 4)))
            for _ in range(50)),
    )
    # teleportation-step identity
    tele_dev = max(
        teleport_identity_check(d, *t)
        for d in (2, 3)
        for t in itertools.product(range(d), repeat=4)
    )
    # clone-state reconstruction
    rec_dev = 0.0
    for d, N in [(2, 2), (2, 3), (3, 2)]:
        fam = protocols.extract_clone_decomposition(d, N)
        for _ in range(20):
            x = rng.normal(size=d) + 1j * rng.normal(size=d)
            x /= np.linalg.norm(x)
            rec_dev = max(rec_dev, protocols.reconstruction_deviation(fam, x))
    # GHZ reduction
    ghz_dev = max(verify_appendix_b(d, N) for d, N in [(2, 2), (3, 2), (2, 3)])
    ok = swap_dev < 1e-12 and tele_dev < 1e-12 and rec_dev < 1e-9 and ghz_dev < 1e-12
    report(
        3,
        ok,
        f"swap {swap_dev:.1e} (<1e-12), teleport {tele_dev:.1e} (<1e-12), "
        f"reconstruction {rec_dev:.1e} (<1e-9), ghz-reduction {ghz_dev:.1e} (<1e-12)",
    )


def test_criterion_4_appendix_c():
    ov22, ok22 = verify_appendix_c(2, 2)
    ov23, ok23 = verify_appendix_c(2, 3)
    ov32, ok32 = verify_appendix_c(3, 2)
    ok = (
        ok22 and abs(ov22 - 1) < 1e-9
        and ok23 and abs(ov23 - 1) < 1e-9
        and ok32 and ov32 < 1 - 1e-6
    )
    report(
        4,
        ok,
        f"overlaps d=2: {ov22:.12f}, {ov23:.12f} (=1 within 1e-9); "
        f"d=3: {ov32:.6f} (< 1 - 1e-6)",
    )


def test_criterion_5_stabilizer_suite():
    worst = 0.0
    kinds = ("ghz", "beta", "bell-product", "smolin", "mixed-uniform")
    for d, N in [(2, 2), (3, 2), (2, 3)]:
        for preset in kinds:
            state = preset_spec(preset, d, N).build()
            table = stabilizer_suite(state, d, N)
            assert len(table) == d * d
            worst = max(worst, max(abs(v - 1) for v in table.values()))
    report(
        5,
        worst < 1e-9,
        f"all d^2 expectations = 1 over {kinds} at (2,2),(3,2),(2,3); "
        f"max |tr(S rho) - 1| = {worst:.2e}",
    )


def test_criterion_6_ubes_properties():
    msgs = []
    ok = True
    for d, N in [(2, 2), (3, 2), (2, 3)]:
        rank, dev = smolin_spectrum_check(channels.smolin_like(d, N))
        good = rank == d ** (2 * (N - 1)) and dev < 1e-10
        ok &= good
        msgs.append(f"spectrum({d},{N}) rank={rank} dev={dev:.1e}")
    for d, N in [(2, 2), (3, 2)]:
        reports = unlock_ubes(d, N)
        good = all(r.purity > 1 - 1e-9 and r.bell_overlap > 1 - 1e-9 for r in reports)
        ok &= good
        msgs.append(f"unlock({d},{N}) {len(reports)} outcomes all Bell")
    for d, N in [(2, 2), (3, 2), (2, 3)]:
        rho = channels.smolin_like(d, N)
        labels = channel_labels(N)
        val = min(
            ppt_min_eigenvalue(rho, Cut(labels[: 2 * s], labels[2 * s:]))
            for s in range(1, N)
        )
        ok &= val >= -1e-10
        msgs.append(f"ppt({d},{N}) min={val:.1e}")
    for d in (2, 3):
        rep = symmetry_report(channels.smolin_like(d, 2), d, 2)
        if d == 2:
            good = rep.within_max() < 1e-10 and rep.cross_max() < 1e-10
        else:
            good = rep.within_max() < 1e-10 and rep.cross_max() > 1e-3
        ok &= good
        msgs.append(f"symmetry(d={d}) within={rep.within_max():.1e} cross={rep.cross_max():.4f}")
    report(6, ok, "; ".join(msgs))


def test_criterion_7_property_c_entropy():
    worst = 0.0
    for d, N in [(2, 2), (3, 2), (2, 3)]:
        labels = channel_labels(N)
        cut = Cut(labels[:-1], (labels[-1],))
        for preset in ("ghz", "beta", "bell-product"):
            state = preset_spec(preset, d, N).build()
            worst = max(worst, abs(entropy_across_cut(state, cut) - log2(d)))
        tuples = channels.enumerate_constrained_tuples(d, N, 0, 0)
        rng = np.random.default_rng(d * N)
        w = rng.random(len(tuples))
        w /= w.sum()
        spec = ChannelSpec(kind="general-pure", d=d, N=N, table=list(zip(tuples, w)))
        state = channels.general_pure_channel(spec)
        worst = max(worst, abs(entropy_across_cut(state, cut) - log2(d)))
    report(
        7,
        worst < 1e-8,
        f"entropy across rest:{{N'}} equals log2(d) for pure channels, "
        f"max deviation {worst:.2e} (< 1e-8)",
    )


def test_criterion_8_many_to_many():
    d, N, L = 2, 2, 2
    rng = np.random.default_rng(800)
    inp = random_qudit(d, rng)
    clone = clone_state(inp.amps, d, N)
    target = ghz_correlated_state(inp.amps, d, L, labels=[f"{N}'_1", f"{N}'_2"])
    branches = run_mm_ghz(clone, d, N, L, mode="all-branches")
    fmin_ghz = min_fidelity(branches, target)

    dist = synth_distributed_state(inp.amps, d, N, L)
    receiver = [f"{s}'" for s in range(N - L + 1, N + 1)]
    target2 = tensor_many([permute(inp, {inp.register.labels[0]: lab}) for lab in receiver])
    branches2 = run_mm_multiqudit(dist, d, N, L, mode="all-branches")
    fmin_multi = min_fidelity(branches2, target2)
    ok = fmin_ghz > 1 - 1e-9 and fmin_multi > 1 - 1e-9
    report(
        8,
        ok,
        f"mm-ghz (2,2,2): {len(branches.probs)} branches min fid {fmin_ghz:.12f}; "
        f"mm-multi (2,2,2): {len(branches2.probs)} branches min fid {fmin_multi:.12f}",
    )


def test_criterion_9_reproducibility_and_exit_codes(tmp_path):
    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "qric.cli", *args], capture_output=True, text=True
        )

    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    r1 = cli("report", "--d", "2", "--N", "2", "--seed", "11", "--out", str(out1))
    r2 = cli("report", "--d", "2", "--N", "2", "--seed", "11", "--out", str(out2))
    identical = out1.read_bytes() == out2.read_bytes()

    codes = {
        "all-pass=0": cli("verify", "--d", "2", "--N", "2", "--out", "/dev/null").returncode == 0,
        "check-fail=1": cli("verify", "--d", "2", "--N", "2", "--tol", "1e-30",
                            "--out", "/dev/null").returncode == 1,
        "config=2": cli("ric", "--channel", "no-such-preset",
                        "--out", "/dev/null").returncode == 2,
        "guard=3": cli("teleclone", "--d", "2", "--N", "9",
                       "--out", "/dev/null").returncode == 3,
        "io=4": cli("report", "--out", "/nonexistent_dir/r.json").returncode == 4,
    }
    ok = identical and r1.returncode == 0 and r2.returncode == 0 and all(codes.values())
    report(
        9,
        ok,
        f"byte-identical reports: {identical}; exit codes "
        + ", ".join(f"{k}:{'ok' if v else 'BAD'}" for k, v in codes.items()),
    )
