import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from qric import cli, protocols
from qric.cli import main


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "qric.cli", *args], capture_output=True, text=True
    )
    return proc


def test_teleclone_all_branches_passes(capsys):
    rc = main(["teleclone", "--d", "2", "--N", "2", "--mode", "all-branches"])
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(captured.out)
    assert all(c["status"] == "pass" for c in doc["checks"])
    assert doc["clone_fidelity_formula"] == pytest.approx(5 / 6)


def test_teleclone_d3(capsys):
    rc = main(["teleclone", "--d", "3", "--N", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["clone_fidelity_formula"] == pytest.approx(0.75)


def test_teleclone_size_guard_exit_3():
    assert main(["teleclone", "--d", "2", "--N", "9", "--out", "/dev/null"]) == 3


def test_ric_ghz_all_branches(capsys):
    rc = main(["ric", "--d", "2", "--N", "2", "--channel", "ghz", "--mode", "all-branches"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    fidelity_checks = [c for c in doc["checks"] if c["name"].endswith("fidelity")]
    assert len(fidelity_checks) == 48  # non-null branches of the GHZ channel
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_ric_smolin_sampled_trials(capsys):
    rc = main(["ric", "--d", "2", "--N", "2", "--channel", "smolin",
               "--mode", "sample", "--trials", "25"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(doc["fidelities"]) == 25


def test_ric_smolin_all_branches_enumerates_every_component(capsys):
    rc = main(["ric", "--d", "2", "--N", "2", "--channel", "smolin", "--mode", "all-branches",
               "--trials", "7"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["coverage"] == 1.0
    assert len(doc["fidelities"]) == 4 * 64  # 4 Bell-product components, 64 branches each


def test_ric_bad_channel_table_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "kind": "general-pure", "d": 2, "N": 2, "u": 0, "v": 0,
        "table": [{"k": [1, 0, 0, 0], "w": 1.0}],
    }))
    proc = run_cli(["ric", "--d", "2", "--N", "2", "--channel", str(bad)])
    assert proc.returncode == 2
    assert "(1, 0, 0, 0)" in proc.stderr


@pytest.mark.parametrize("doc,field", [
    ({"d": 2, "N": 2}, "field 'kind'"),
    ({"kind": "ghz", "d": "x", "N": 2}, "field 'd'"),
    ([{"kind": "ghz", "d": 2, "N": 2}], "JSON object"),
], ids=["no-kind", "d-not-int", "json-list"])
def test_ric_malformed_channel_file_exit_2(tmp_path, capsys, doc, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["ric", "--channel", str(bad), "--out", "/dev/null"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert field in err


def test_internal_key_error_is_not_a_configuration_error(monkeypatch):
    def broken(args):
        raise KeyError("internal")

    monkeypatch.setitem(cli.HANDLERS, "verify", broken)
    with pytest.raises(KeyError):
        main(["verify", "--out", "/dev/null"])


def test_internal_reconstruction_fault_is_not_a_configuration_error(monkeypatch):
    # the extraction's self-check guards our own arithmetic: its failure propagates
    protocols.extract_clone_decomposition.cache_clear()
    monkeypatch.setattr(protocols, "reconstruction_deviation", lambda family, x: 1.0)
    with pytest.raises(RuntimeError, match="clone reconstruction off by 1.0"):
        main(["verify", "--d", "2", "--N", "2", "--out", "/dev/null"])


def test_ric_missing_channel_file_exit_2():
    assert main(["ric", "--channel", "/nonexistent/chan.json", "--out", "/dev/null"]) == 2


def test_verify_passes_both_dims(capsys):
    for d in ("2", "3"):
        rc = main(["verify", "--d", d, "--N", "2"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert all(c["status"] == "pass" for c in doc["checks"])
        assert len(doc["checks"]) >= 10


def test_verify_strict_tolerance_exit_1(capsys):
    rc = main(["verify", "--d", "2", "--N", "2", "--tol", "1e-30"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    failed = [c for c in doc["checks"] if c["status"] == "fail"]
    assert failed
    for c in failed:
        assert isinstance(c["measured"], (int, float))


def test_stabilizers_table(capsys):
    rc = main(["stabilizers", "--d", "3", "--N", "2", "--channel", "smolin"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(doc["expectations"]) == 9


def test_unlock_outcomes(capsys):
    rc = main(["unlock", "--d", "2", "--N", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(doc["outcomes"]) == 4


@pytest.mark.parametrize("trials", [1, 3, 4, 10])
def test_unlock_sample_draws_trials_outcomes(trials, capsys):
    rc = main(["unlock", "--d", "2", "--N", "2", "--mode", "sample", "--trials", str(trials)])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["config"]["trials"] == trials
    assert len(doc["outcomes"]) == min(trials, 4)
    names = [c["name"] for c in doc["checks"]]
    assert len(set(names)) == len(names)  # outcomes are drawn without replacement


def test_mm_subcommands(capsys):
    rc = main(["ric-mm-ghz", "--d", "2", "--N", "2", "--L", "2"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["ric-mm-multi", "--d", "2", "--N", "2", "--L", "2"])
    assert rc == 0
    capsys.readouterr()


def test_report_byte_identical_and_out_dash(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["report", "--d", "2", "--N", "2", "--seed", "7", "--out", str(out1)]) == 0
    assert main(["report", "--d", "2", "--N", "2", "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["config"]["seed"] == 7
    assert len(doc["checks"]) >= 10
    # '-' goes to stdout
    proc = run_cli(["report", "--d", "2", "--N", "2", "--seed", "7", "--out", "-"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["config"]["seed"] == 7


def test_report_unwritable_path_exit_4():
    assert main(["report", "--d", "2", "--N", "2", "--out", "/nonexistent_dir/x.json"]) == 4


def test_bad_flag_values_exit_2():
    assert main(["teleclone", "--d", "1", "--out", "/dev/null"]) == 2
    assert main(["ric", "--trials", "0", "--out", "/dev/null"]) == 2


def test_oversized_trials_hit_the_size_guard_before_any_allocation(monkeypatch, capsys):
    def no_workspace(register):
        raise AssertionError("workspace allocated before the trials guard")

    monkeypatch.setattr(protocols, "_workspace", no_workspace)
    assert main(["ric", "--mode", "sample", "--trials", "1000000000", "--out", "/dev/null"]) == 3
    assert "size guard" in capsys.readouterr().err


def test_negative_max_transcripts_exit_2(capsys):
    assert main(["ric", "--d", "3", "--N", "2", "--max-transcripts", "-2",
                 "--out", "/dev/null"]) == 2
    assert "--max-transcripts" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["ric", "--d", "20", "--N", "2"],
    ["ric-mm-ghz", "--d", "20", "--N", "2", "--L", "2"],
    ["ric-mm-multi", "--d", "20", "--N", "2", "--L", "2"],
    ["verify", "--d", "20", "--N", "2"],
    ["report", "--d", "20", "--N", "2"],
    ["unlock", "--d", "20", "--N", "2"],
    ["ric", "--d", "60", "--N", "3", "--channel", "mixed-uniform"],
    ["ric", "--d", "40", "--N", "2", "--channel", "beta"],
    ["ric", "--d", "12", "--N", "3", "--channel", "beta"],
    ["ric", "--d", "3", "--N", "3", "--channel", "smolin", "--mode", "all-branches"],
    ["ric-mm-multi", "--d", "12", "--N", "4", "--L", "2"],
], ids=["ric", "ric-mm-ghz", "ric-mm-multi", "verify", "report", "unlock", "ric-mixed-uniform",
        "ric-beta-40-2", "ric-beta-12-3", "ric-smolin-all-branches", "ric-mm-multi-12-4-2"])
def test_large_d_hits_the_size_guard_before_building_states(argv, monkeypatch):
    # each would otherwise allocate gigabytes: the joint state, the Smolin
    # density, the unlock outcome table, or the d^(2(N-1)) mixture table;
    # the beta channels fit the budget, but their O(d^(2N+2)) build would
    # run for seconds to minutes before the joint register is refused, and
    # so would the clone family and Bbar sum of the (12, 4, 2) distributed state
    def not_before_the_guard(*args, **kwargs):
        raise AssertionError("distributed state built before the joint size guard")

    monkeypatch.setattr(protocols, "synth_distributed_state", not_before_the_guard)
    assert main(argv + ["--out", "/dev/null"]) == 3


BENCH_SPEC = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spec.json")
CERTIFIED_CHECK = re.compile(r"^(?:run|branch)(\d+)\..*fidelity$")


def test_benchmark_cases_keep_their_certified_counts(tmp_path, capsys):
    # the enumerate and sample cases of the benchmark, with the branch counts it pins
    with open(BENCH_SPEC, encoding="utf-8") as fh:
        workloads = json.load(fh)["workloads"]
    out = tmp_path / "report.json"
    for case in workloads["enumerate"]["cases"] + workloads["sample"]["cases"]:
        assert main(case["argv"] + ["--seed", "1", "--out", str(out)]) == 0, case["argv"]
        checks = json.loads(out.read_text())["checks"]
        assert all(c["status"] == "pass" for c in checks)
        certified = {m.group(1) for c in checks if (m := CERTIFIED_CHECK.match(c["name"]))}
        assert len(certified) == case["certified"], case["argv"]
    capsys.readouterr()


# sha256 of the --out report at --seed 1, pinned from the per-trial sampler
# that ran one plan execution per trial; the batched sampler must match it
SAMPLED_REPORTS = {
    "ric --d 3 --N 2 --channel smolin --trials 200":
        "fd924c4c1b2709df88e361095fdd9ea8b2581a30c5d791ed19cb8a5c7a724c8a",
    "ric --d 4 --N 2 --channel mixed-uniform --trials 100":
        "83f1e60490e9eed27cb59db370cec57a2ba5f5facc1ec0a3818b185066134941",
    "ric --d 3 --N 3 --channel smolin --trials 20":
        "fec3d1b609d99272dd1ecbdd90db52a13ebf18a4d01343855447ab0426ccc6df",
    "ric --d 3 --N 3 --channel ghz --trials 20":
        "37ebdcacf0d0761d316e7b8ead45ec09674570301006189c70198b5b8afd56fc",
    "teleclone --d 3 --N 2 --trials 30":
        "eb79c5ffbf959edd682b77838285706be52eb67c0f507dfb2df52b9852977f23",
    "ric-mm-ghz --d 3 --N 2 --L 2 --trials 30":
        "3fba56ae145c74de6d0c82aafe6fbb89509ffe1b2f56546bebab019674daf22d",
    "ric-mm-multi --d 3 --N 2 --L 1 --trials 30":
        "7d44c256908379ff55e0188acea9712cc677936f62034f41c7cc565eca03e720",
}


# sha256 of the all-branches reports at --seed 1, pinned before the executor
# reused one workspace; the mixed-uniform run reuses it across 9 components.
# The beta, bell-product, ric-mm-ghz, verify and stabilizers entries were
# pinned from the per-tuple Bell-pair builds and the separate Bbar kron loops
# that bell_products and bbar_sum replaced. The last three, an extraction at N >= 3 each,
# were pinned from the dict-of-states clone family that the array form replaced
ALL_BRANCHES_REPORTS = {
    "ric --d 3 --N 2 --channel beta":
        "441b6e88b593548649225b396ca587869f921346ff1379a63fd0d065f11c7f40",
    "ric --d 3 --N 2 --channel bell-product":
        "d87a2a94f7b28b98b170ba084073fe792a02a44e243e1759bb355031ff9333af",
    "ric-mm-ghz --d 3 --N 2 --L 2":
        "3bb10f37a5b1b69a76ecf1de064f634cfa09cfb99f45f3274ca4b059b53f5c43",
    "verify --d 3 --N 2":
        "a654def55ed4f5f21f57aa15bbaafd94df52473dc901d0374669d56037b0d758",
    "stabilizers --d 3 --N 2 --channel mixed-uniform":
        "78334b9a166c7a5bc24ddaf040c99ef5e91d654a2439d39ddc83b63d19733d04",
    "ric --d 3 --N 2 --channel ghz":
        "9eab8d3ac4d135f58121bbb6372ddce9f17bf38da0fda5bda2f7103c424eb0f3",
    "ric --d 3 --N 2 --channel mixed-uniform":
        "857442c5ade0b991c50d1f308a9a429cdd962f148864db3ff7e2c407167a6563",
    "unlock --d 3 --N 3":
        "23680b6c180510c67d46a1f8cd71fbfd2029754ee8ed8b00351c7d9149481736",
    "teleclone --d 3 --N 2":
        "e2eda57ae140dc2915ce462c56cf15dcc66972dd6b8fb0c989ee65908a0226f5",
    "ric-mm-multi --d 3 --N 2 --L 1":
        "10031410f093c16f17f6e9603023380630fb8f60989dd131cea0e9dbb32a66db",
    "ric --d 2 --N 3 --channel beta":
        "1e0815337b0fbceb97e9cb6dc3e5199e873b30e39cd811fa070fd795303d52bc",
    "verify --d 3 --N 3":
        "4209faeea0bdc442a20c6dff1a5a7f3b0238114a38aef14e1f24c7a030226df1",
    "ric-mm-multi --d 2 --N 3 --L 1":
        "b764eb51e7f9f10a8e789731e6b5e17f44bcc3b9ad6b2494c0886fa3cb32be95",
}


@pytest.mark.parametrize("argv", sorted(ALL_BRANCHES_REPORTS))
def test_all_branches_reports_are_byte_identical(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(argv.split() + ["--mode", "all-branches", "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ALL_BRANCHES_REPORTS[argv]
    capsys.readouterr()


@pytest.mark.parametrize("argv", sorted(SAMPLED_REPORTS))
def test_sampled_reports_are_byte_identical_to_the_per_trial_sampler(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(argv.split() + ["--mode", "sample", "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SAMPLED_REPORTS[argv]
    capsys.readouterr()
