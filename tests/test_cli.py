import argparse
import cmath
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qric import analysis, channels, cli, protocols
from qric.cli import main


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "qric.cli", *args], capture_output=True, text=True
    )
    return proc


def declared_flags(subcommand):
    """The option strings that subcommand's parser declares."""
    sub = next(a for a in cli.PARSER._actions if isinstance(a, argparse._SubParsersAction))
    return {opt for action in sub.choices[subcommand]._actions for opt in action.option_strings}


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


@pytest.mark.parametrize("subcommand", ["ric", "stabilizers"])
def test_channel_file_for_another_size_exit_2(subcommand, tmp_path, capsys):
    path = tmp_path / "chan.json"
    path.write_text(channels.preset_spec("mixed-uniform", 2, 2).to_json())
    argv = [subcommand, "--d", "3", "--N", "2", "--channel", str(path), "--out", os.devnull]
    assert main(argv) == 2
    assert "channel file is for (d,N)=(2,2), requested (3,2)" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["sample", "all-branches"])
def test_channel_file_keys_the_reader_does_not_read_change_nothing(mode, tmp_path, capsys):
    # a file written with the former "seed" key loads and runs as the same file without it
    path, out = tmp_path / "chan.json", tmp_path / "report.json"
    doc = json.loads(channels.preset_spec("mixed-uniform", 3, 2).to_json())
    reports = []
    for extra in ({}, {"seed": 7}):
        path.write_text(json.dumps({**doc, **extra}))
        argv = ["ric", "--d", "3", "--N", "2", "--channel", str(path), "--mode", mode,
                "--trials", "20", "--seed", "1", "--out", str(out)]
        assert main(argv) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    capsys.readouterr()


@pytest.mark.parametrize("field", ["u", "v"])
@pytest.mark.parametrize("kind", ["ghz", "beta-weighted", "smolin-like"])
def test_channel_file_residues_of_a_zero_residue_kind_exit_2(kind, field, tmp_path, capsys):
    # the file passes the schema, but the kind's builder ignores the residue that
    # the receiver's correction would subtract
    path = tmp_path / "chan.json"
    path.write_text(json.dumps({"kind": kind, "d": 2, "N": 2, field: 1}))
    argv = ["ric", "--d", "2", "--N", "2", "--channel", str(path), "--mode", "sample",
            "--trials", "5", "--out", os.devnull]
    assert main(argv) == 2
    assert f"channel kind {kind!r} needs field {field!r}" in capsys.readouterr().err


# every transcript of a (3, 2) run fits under --max-transcripts
CHANNEL_RUNS = {
    "ric-all-branches": ["ric", "--mode", "all-branches", "--max-transcripts", "100000"],
    "ric-sample": ["ric", "--mode", "sample", "--trials", "5"],
    "stabilizers": ["stabilizers"],
}

ZEROS = [0, 0, 0, 0]


@pytest.mark.parametrize("run", sorted(CHANNEL_RUNS))
@pytest.mark.parametrize("doc,named", [
    ({"kind": "mixed", "table": [{"k": ZEROS, "w": float("nan")}]}, "'table[0].w'"),
    ({"kind": "mixed", "table": [{"k": ZEROS, "w": float("inf")}]}, "'table[0].w'"),
    ({"kind": "mixed", "table": [{"k": ZEROS, "w": 1e308}, {"k": [1, 1, 1, 1], "w": 1e308}]},
     "'table[1].w'"),
    ({"kind": "mixed", "table": [{"k": ZEROS, "w": 10**400}]}, "'table[0].w'"),
    ({"kind": "general-pure", "table": [{"k": ZEROS, "w": float("nan")}]}, "'table[0].w'"),
    ({"kind": "general-pure", "table": [{"k": ZEROS, "w": 0.5}, {"k": ZEROS, "w": 0.5}]},
     "tuple (0, 0, 0, 0) is repeated"),
], ids=["mixed-nan", "mixed-inf", "mixed-sum-overflow", "mixed-huge-int", "pure-nan",
        "pure-repeated-tuple"])
def test_channel_file_weights_that_are_not_finite_or_repeat_exit_2(doc, named, run, tmp_path,
                                                                   capsys):
    # json reads NaN and Infinity; an integer weight past the float range overflows
    path = tmp_path / "chan.json"
    path.write_text(json.dumps({"d": 2, "N": 2, **doc}))
    argv = CHANNEL_RUNS[run] + ["--d", "2", "--N", "2", "--channel", str(path),
                                "--out", os.devnull]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert named in err


@pytest.mark.parametrize("text", [
    '{"kind": "mixed", "d": 2, "N": 2, "table": [{"k": [0, 0, 0, 0], "w": 1' + "0" * 5000 + "}]}",
    '{"kind": "mixed", "d": 2,',
], ids=["integer-of-5001-digits", "truncated"])
def test_channel_file_that_json_cannot_read_exit_2(text, tmp_path, capsys):
    # json refuses to convert an integer of more than 4300 digits with a ValueError
    path = tmp_path / "chan.json"
    path.write_text(text)
    assert main(["ric", "--d", "2", "--N", "2", "--channel", str(path), "--out", os.devnull]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


def test_a_repeated_tuple_in_a_mixed_table_is_one_mixture(tmp_path, capsys):
    path = tmp_path / "chan.json"
    path.write_text(json.dumps({"kind": "mixed", "d": 2, "N": 2,
                                "table": [{"k": ZEROS, "w": 0.25}, {"k": ZEROS, "w": 0.75}]}))
    assert main(["stabilizers", "--d", "2", "--N", "2", "--channel", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["expectations"]["1,1"] == [1.0, 0.0]


def _valid_channel_docs(d, N):
    """One valid channel document of each kind at (d, N)."""
    other = [1, 0] + [0, 0] * (N - 2) + [d - 1, 0]  # residues (0, 0), like the zero tuple
    table = [{"k": [0] * (2 * N), "w": 0.5}, {"k": other, "w": 0.5}]
    return [{"kind": kind, "d": d, "N": N} for kind in channels.ZERO_RESIDUE_KINDS] + [
        {"kind": "product-bell", "d": d, "N": N, "c": other},
        {"kind": "general-pure", "d": d, "N": N, "table": table},
        {"kind": "mixed", "d": d, "N": N, "table": table},
    ]


# wrong types, NaN, infinities, huge, negative and zero values
BAD_VALUES = [float("nan"), float("inf"), -float("inf"), 1e308, 10**400, -1, -0.5, 0, 0.0, 2.5,
              True, None, "x", [], {}]
# other (d, N), residues and tuples: short, out of range, a residue violation
OTHER_VALUES = [1, 2, 3, 4, 7, [0, 0, 0], [0, 0, 0, 0, 0, 0], [5, 0, 0, 0], [1, 0, 0, 0],
                [0, 1, 0, 0], [1.0, 0, 2.0, 0]]
TOP_KEYS = ["kind", "d", "N", "u", "v", "c", "table"]


@st.composite
def mutated_channel_docs(draw):
    """(d, doc): a valid channel document at (d, 2), d = 2 or 3, with one field changed,
    dropped or added, or one table entry changed, dropped, repeated or given an extra key."""
    d = draw(st.sampled_from([2, 3]))
    doc = json.loads(json.dumps(draw(st.sampled_from(_valid_channel_docs(d, 2)))))
    value = draw(st.sampled_from(BAD_VALUES + OTHER_VALUES + ["mixed", "general-pure"]))
    how = draw(st.sampled_from(["set", "drop", "extra"]
                               + ["entry-w", "entry-k", "entry-drop", "entry-repeat",
                                  "entry-extra"] * ("table" in doc)))
    if how == "set":
        doc[draw(st.sampled_from(TOP_KEYS))] = value
    elif how == "drop":
        doc.pop(draw(st.sampled_from(sorted(doc))))
    elif how == "extra":
        doc["seed"] = value
    else:
        entry = doc["table"][draw(st.sampled_from([0, 1]))]
        if how == "entry-w":
            entry["w"] = value
        elif how == "entry-k":
            entry["k"] = value
        elif how == "entry-drop":
            entry.pop(draw(st.sampled_from(["k", "w"])))
        elif how == "entry-repeat":
            doc["table"].append(dict(entry))
        else:
            entry["note"] = value
    return d, doc


@settings(max_examples=150, deadline=None)
@given(mutated_channel_docs())
def test_mutated_channel_files_exit_0_or_2(tmp_path_factory, case):
    # main never raises; an exit-0 all-branches run explores every branch, so its
    # probabilities are finite and sum to 1
    d, doc = case
    folder = tmp_path_factory.mktemp("chan")
    path, out = folder / "chan.json", folder / "report.json"
    path.write_text(json.dumps(doc))
    for run in sorted(CHANNEL_RUNS):
        code = main(CHANNEL_RUNS[run] + ["--d", str(d), "--N", "2", "--channel", str(path),
                                         "--out", str(out)])
        assert code in (0, 2), (run, doc)
        if code == 0 and run == "ric-all-branches":
            probs = [t["branch_probability"] for t in json.loads(out.read_text())["transcripts"]]
            assert all(map(math.isfinite, probs)), doc
            assert abs(math.fsum(probs) - 1) <= 1e-12, doc


@pytest.mark.parametrize("subcommand", sorted(cli.HANDLERS))
def test_config_echoes_exactly_the_declared_flags(subcommand, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main([subcommand, "--d", "2", "--N", "2", "--tol", "1e-6", "--out", str(out)]) == 0
    config = json.loads(out.read_text())["config"]
    assert config["subcommand"] == subcommand
    echoed = {"--" + key.replace("_", "-") for key in config} - {"--subcommand", "--version"}
    assert echoed == declared_flags(subcommand) - {"-h", "--help", "--out", "--max-transcripts"}
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["verify", "--mode", "sample"], ["stabilizers", "--trials", "3"]])
def test_flags_a_subcommand_does_not_read_exit_2(argv):
    proc = run_cli(argv + ["--out", os.devnull])
    assert proc.returncode == 2
    assert "unrecognized arguments" in proc.stderr


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


def test_stabilizers_over_a_channel_of_nonzero_residues(tmp_path, capsys):
    # a Bell product of residues (u, v) has S[m,n] = w^{m v - n u}: the report keeps
    # that raw table and each check undoes its phase
    path = tmp_path / "bell.json"
    path.write_text(json.dumps({"kind": "product-bell", "d": 3, "N": 2, "u": 1, "v": 2,
                                "c": [1, 2, 0, 0]}))
    assert main(["stabilizers", "--d", "3", "--N", "2", "--channel", str(path)]) == 0
    captured = capsys.readouterr()
    assert "9/9 checks passed" in captured.err
    doc = json.loads(captured.out)
    for m in range(3):
        for n in range(3):
            w = cmath.exp(2j * cmath.pi * (2 * m - n) / 3)
            assert doc["expectations"][f"{m},{n}"] == pytest.approx([w.real, w.imag], abs=1e-12)


def test_stabilizers_over_the_telecloning_channel_exit_2(capsys):
    # its labels t', 1..N, A_1.. are not the channel labels the stabilizer groups cover
    assert main(["stabilizers", "--channel", "telecloning", "--out", os.devnull]) == 2
    assert "group assignment must cover the register" in capsys.readouterr().err


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


def test_bad_flag_values_exit_2(capsys):
    assert main(["teleclone", "--d", "1", "--out", "/dev/null"]) == 2
    assert main(["ric", "--trials", "0", "--out", "/dev/null"]) == 2
    # a tolerance that is negative, nan or infinite compares nothing: bad input, not a failed check
    for argv in (["verify", "--tol", "-1"], ["verify", "--tol", "nan"], ["ric", "--tol", "inf"]):
        capsys.readouterr()
        assert main(argv + ["--out", "/dev/null"]) == 2, argv
        assert capsys.readouterr().err.startswith("configuration error: --tol must be"), argv
    # L > N is refused before any register over the distributed labels is sized
    for argv in (["ric-mm-multi", "--d", "3", "--N", "3", "--L", "9"],
                 ["ric-mm-multi", "--d", "2", "--N", "2", "--L", "100"]):
        capsys.readouterr()
        assert main(argv + ["--out", "/dev/null"]) == 2, argv
        assert capsys.readouterr().err.startswith("configuration error: need 1 <= L <= N"), argv


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
    ["verify", "--d", "18", "--N", "2"],
    ["verify", "--d", "2", "--N", "8"],
    ["unlock", "--d", "20", "--N", "3"],
    ["ric", "--d", "60", "--N", "3", "--channel", "mixed-uniform"],
    ["ric", "--d", "40", "--N", "2", "--channel", "beta"],
    ["ric", "--d", "12", "--N", "3", "--channel", "beta"],
    ["ric", "--d", "3", "--N", "3", "--channel", "smolin", "--mode", "all-branches"],
    ["ric-mm-multi", "--d", "12", "--N", "4", "--L", "2"],
], ids=["ric", "ric-mm-ghz", "ric-mm-multi", "verify", "report", "verify-18-2", "verify-2-8",
        "unlock", "ric-mixed-uniform", "ric-beta-40-2", "ric-beta-12-3", "ric-smolin-all-branches",
        "ric-mm-multi-12-4-2"])
def test_large_d_hits_the_size_guard_before_building_states(argv, monkeypatch):
    # each would otherwise allocate gigabytes: the joint state, the unlock Bell
    # diagonal, or the d^(2(N-1)) mixture table; the beta channels fit the budget, but their O(d^(2N+2))
    # build would run for seconds to minutes before the joint register is
    # refused, and so would the clone family and Bbar sum of the (12, 4, 2)
    # distributed state; verify and report refuse before their first check: at (18, 2)
    # the swap identity rows and at (2, 8) appendix B's Bell products would not fit
    def not_before_the_guard(*args, **kwargs):
        raise AssertionError("work started before the size guard")

    monkeypatch.setattr(protocols, "synth_distributed_state", not_before_the_guard)
    monkeypatch.setattr(analysis, "swap_identity_check", not_before_the_guard)
    monkeypatch.setattr(analysis, "teleport_identity_check", not_before_the_guard)
    assert main(argv + ["--out", "/dev/null"]) == 3


@pytest.mark.parametrize("argv,bound", [
    (["ric", "--d", "2", "--N", "5", "--channel", "beta"], "protocol joint dimension"),
    (["ric", "--d", "3", "--N", "3", "--channel", "smolin"], "mixture components"),
], ids=["pure", "mixed"])
def test_all_branches_refusal_names_the_bound_that_binds(argv, bound, capsys):
    # a pure channel has one component, so only the joint dimension can refuse it
    assert main(argv + ["--mode", "all-branches", "--out", "/dev/null"]) == 3
    assert bound in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--d", "4", "--N", "3"],
    ["verify", "--d", "3", "--N", "4"],
    ["stabilizers", "--d", "4", "--N", "3", "--channel", "mixed-uniform"],
], ids=["verify", "verify-3-4", "stabilizers-mixed-uniform"])
def test_mixture_checks_run_where_their_density_would_not_fit(argv, capsys):
    # a 4096- or 6561-row density is over the byte budget; the Bell-tuple weights are not,
    # and at (3, 4) verify's largest array is appendix B's 2.8 MB of Bell products
    assert main(argv + ["--out", "/dev/null"]) == 0
    assert "checks passed" in capsys.readouterr().err


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
# that ran one plan execution per trial; the batched sampler must match it.
# The three mixture entries were re-pinned when a mixture's components became
# a Weyl frame on one base row: the same outcomes, integers and strings, every
# float within 1e-12 of the per-component reports
SAMPLED_REPORTS = {
    "ric --d 3 --N 2 --channel smolin --trials 200":
        "3db15bd617574049a06909ef9d907db195c83e4679691c4246b4ede0b2acd95f",
    "ric --d 4 --N 2 --channel mixed-uniform --trials 100":
        "d1d3debc9a37db692cf695ebebd274c22d60a3d9262c19e8675e0616dedfc89d",
    "ric --d 3 --N 3 --channel smolin --trials 20":
        "9e91c4b31ccbaa333a118ed2c60f7214301656ec449a6a5a95a2e13fa1e0b19e",
    "ric --d 3 --N 3 --channel ghz --trials 20":
        "37ebdcacf0d0761d316e7b8ead45ec09674570301006189c70198b5b8afd56fc",
    "teleclone --d 3 --N 2 --trials 30":
        "eb79c5ffbf959edd682b77838285706be52eb67c0f507dfb2df52b9852977f23",
    "ric-mm-ghz --d 3 --N 2 --L 2 --trials 30":
        "3fba56ae145c74de6d0c82aafe6fbb89509ffe1b2f56546bebab019674daf22d",
    "ric-mm-multi --d 3 --N 2 --L 1 --trials 30":
        "7d44c256908379ff55e0188acea9712cc677936f62034f41c7cc565eca03e720",
    # unlock's sampled outcomes, pinned while the run mode was still a string
    # argument of unlock_ubes, before trials alone came to select the sampler
    "unlock --d 3 --N 3 --trials 5":
        "4c706069d8f2e1108fc95564acbd40fc672f994913ebb2c6e81e7cdb889c6437",
}


# sha256 of the all-branches reports at --seed 1, pinned before the executor
# reused one workspace; the mixed-uniform run reuses it across 9 components.
# The beta, bell-product, ric-mm-ghz, verify and stabilizers entries were
# pinned from the per-tuple Bell-pair builds and the separate Bbar kron loops
# that bell_products and bbar_sum replaced. The last three, an extraction at N >= 3 each,
# were pinned from the dict-of-states clone family that the array form replaced.
# mixed-uniform, unlock and both verify entries (verify reports unlock's minimum
# purity) were re-pinned for the Weyl-frame mixture run, floats within 1e-12.
# Both verify entries and the mixed-uniform stabilizers were re-pinned when the
# mixture analysis moved from a dense density to the Bell-tuple weights, and again,
# with unlock, when it moved to closed forms over Z_d on the Bell indices: the
# same keys, strings, integers and rows, the mixture floats within 1e-12.
# The same three were re-pinned when verify and stabilizers stopped declaring
# --mode and --trials: each parent report with config.mode and config.trials
# dropped, re-dumped with indent=2 and sorted keys, gives the new bytes.
# unlock and verify at (3, 2) and (4, 2) were re-pinned when unlock came to read
# the Bell diagonal W and the pure stabilizer tables one binning per shift: the
# same keys, strings, integers and row order, floats within 1e-14 (unlock moved
# 81 probabilities, 79 purities and 81 Bell overlaps by at most 8.9e-16, and each
# verify report its stabilizer.beta.max_dev by 2.2e-16 and 1.1e-16)
ALL_BRANCHES_REPORTS = {
    "ric --d 3 --N 2 --channel beta":
        "441b6e88b593548649225b396ca587869f921346ff1379a63fd0d065f11c7f40",
    "ric --d 3 --N 2 --channel bell-product":
        "d87a2a94f7b28b98b170ba084073fe792a02a44e243e1759bb355031ff9333af",
    "ric-mm-ghz --d 3 --N 2 --L 2":
        "3bb10f37a5b1b69a76ecf1de064f634cfa09cfb99f45f3274ca4b059b53f5c43",
    "verify --d 3 --N 2":
        "7eb300e0ae629e70e789b30e7dadfb8edfcf2b761ecf6156227dc53a8de86830",
    "stabilizers --d 3 --N 2 --channel mixed-uniform":
        "6b493e3a1f67dd15091727567b3c582b014af3bc9e0c5e11c4a9fc51aca0cb91",
    "ric --d 3 --N 2 --channel ghz":
        "9eab8d3ac4d135f58121bbb6372ddce9f17bf38da0fda5bda2f7103c424eb0f3",
    "ric --d 3 --N 2 --channel mixed-uniform":
        "dd5ef7c11af7a7a2782fb43075ebcb5cdd25ef367fe4cb8ef49362d0926448c0",
    "unlock --d 3 --N 3":
        "6bca9c98463fc131911268079b118f4dcc50332353272fe4d9a46e55d467e456",
    "teleclone --d 3 --N 2":
        "e2eda57ae140dc2915ce462c56cf15dcc66972dd6b8fb0c989ee65908a0226f5",
    "ric-mm-multi --d 3 --N 2 --L 1":
        "10031410f093c16f17f6e9603023380630fb8f60989dd131cea0e9dbb32a66db",
    "ric --d 2 --N 3 --channel beta":
        "1e0815337b0fbceb97e9cb6dc3e5199e873b30e39cd811fa070fd795303d52bc",
    "verify --d 3 --N 3":
        "fab1eafab5d17303f1fd170cd53ebb3a18c730e59b04f13c69f4fbc76c120456",
    # d > 3: 50 drawn swap tuples, then the teleport draws, from one stream
    "verify --d 4 --N 2":
        "ff2de1ec62033611de233da1ab41f0ede24a5a5fa11ff9aa88bac55e64f42854",
    "ric-mm-multi --d 2 --N 3 --L 1":
        "b764eb51e7f9f10a8e789731e6b5e17f44bcc3b9ad6b2494c0886fa3cb32be95",
    # the multi-leg Leg_i/Receiver and L = 3 Diana tables, pinned from the runners
    # that spelled out their own party and route tables, before those went
    "ric-mm-multi --d 2 --N 3 --L 2":
        "c3f9733f3c3c00237448a8fd77db3a8dd5c7611e33738087a0f37a83d5f89e3a",
    "ric-mm-multi --d 2 --N 3 --L 3":
        "658e35e8cb07a83bae491c5b2ee99d899eb299e7316d91e97588a7d04c088d06",
    "ric-mm-ghz --d 2 --N 3 --L 3":
        "69215e088be5e7229eb697a8f3a99c4987b9ef5f1b95bd7dfcfd0a0d6c403796",
    # report's one-branch teleclone and ric sections, pinned while the runners
    # still took the run mode as a string, before trials alone came to select it
    "report --d 3 --N 2":
        "c0e0ff25d77030990522ca88f88bc6e8b3e719b88012dcf10d37495a5f88a137",
    "report --d 2 --N 2":
        "9d622037e7312378959cdf2de168c92dbd525433b87d1cd8be3e3d398bfb3ed3",
    # pinned from json.dumps(doc, indent=2, sort_keys=True), before the report
    # text came from one C-encoder call per flat container; the empty
    # transcripts list of --max-transcripts 0 takes the [] path
    "report --d 2 --N 3":
        "c0f68620d90e51414aac8406ba1ba7059b66ffbaf5dbd405c5af726ef7c6cce7",
    "teleclone --d 4 --N 3":
        "d293634ad42f7964e2a9ebb30aef25e0298839bbe36dade440d96a78cf2b054a",
    "ric-mm-multi --d 3 --N 3 --L 2":
        "360040f78b9e81f64b617c7968954c86a69af5ec35f00fa1ca083502d4fad035",
    "ric --d 3 --N 2 --channel ghz --max-transcripts 0":
        "1a6f5a72152662dd0f5461b724fee68fc5eb3e4c7bba8925e87a583672699b2b",
}


@pytest.mark.parametrize("argv", sorted(ALL_BRANCHES_REPORTS))
def test_all_branches_reports_are_byte_identical(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    args = argv.split()
    if "--mode" in declared_flags(args[0]):
        args += ["--mode", "all-branches"]
    assert main(args + ["--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ALL_BRANCHES_REPORTS[argv]
    capsys.readouterr()


@pytest.mark.parametrize("argv", sorted(SAMPLED_REPORTS))
def test_sampled_reports_are_byte_identical_to_the_per_trial_sampler(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(argv.split() + ["--mode", "sample", "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SAMPLED_REPORTS[argv]
    capsys.readouterr()


# strings the encoder must escape, and the row seam at the paddings of levels 0 to 2
TRICKY = ["},\n    {", "},\n      {", "},\n        {", "[", "]", "{}", "\"", "\\", "\n",
          "\t", "\x00", "\x1f", "\x7f", "é", "Ωmega", "日本", "\U0001f600", ""]
texts = st.lists(st.sampled_from(TRICKY) | st.text(max_size=6), max_size=3).map("".join)
scalars = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=True, allow_infinity=True) | texts)
flat_rows = st.dictionaries(texts, scalars, min_size=1, max_size=4)
documents = st.recursive(
    scalars | flat_rows | st.lists(flat_rows, min_size=2, max_size=4)
    | st.just({}) | st.just([]) | st.just(()),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(texts, inner, max_size=4)),
    max_leaves=24,
)


def _indented(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_dumps_writes_the_indented_json_text(doc):
    assert cli._dumps(doc) == _indented(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), 0, "x", None,
    {"a": {}, "b": [], "c": ()},
    [{"a": 1}, {"b": 2.5, "c": "},\n      {"}],
    {"rows": [{"a": 1}, {"b": "},\n      {"}], "z": [{"s": "},\n        {"}, {"t": None}]},
    [{"a": 1}, {}, {"b": 2}],
    [{"a": 1}, {"b": [1, 2]}, {"c": {"d": True}}],
    [{"a": 1}, 2, [{"b": 3}, {"c": 4}]],
    {"f": [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 1e22]},
    {"t": (1, (2, (3,))), "b": [True, False], "n": None, "i": [-5, 10**30]},
    {"s": "é\x00\x1f\"\\[]{}\n\t日本\U0001f600", "\"k\n}": {"[": "]"}},
    [[{"a": "},"}, {"b": "{"}], [{"c": "}"}, {"d": ",\n"}]],
    {"a": [[]], "b": [{}], "c": [[], {}]},
])
def test_dumps_hand_picked_documents(doc):
    assert cli._dumps(doc) == _indented(doc)
