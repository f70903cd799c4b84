"""Self-test of the benchmark: a short run of every workload, traced and untraced.

    python -m pytest perfbench -q

It asserts that every metric named in BENCHMARK.json is reported, that no
case fails, that the traced run gives self times for all eight layers, that
those self times add up to the untraced time, and that the benchmark refuses
to run without qric sources. The short runs call run.main in-process with a
spec of one set-up and three passes; they do not check timings.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
SPEC = worker.load_spec()
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture
def short_run(monkeypatch, capsys):
    """run.main with one set-up and three timed passes; returns the JSON result line."""
    load = run.load_json

    def short_spec(path):
        doc = load(path)
        if os.path.basename(path) == "spec.json":
            doc.update(setups=1, min_passes=3)
        return doc

    monkeypatch.setattr(run, "load_json", short_spec)

    def go(workload, trace):
        rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                       "--trace", str(trace)])
        out = capsys.readouterr()
        assert rc == 0, out.err
        return json.loads(out.out.strip().splitlines()[-1])

    return go


def test_benchmark_and_spec_agree():
    assert sorted(WORKLOADS) == sorted(SPEC["workloads"])
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    mapped = {name for group in SPEC["layer_map"] for name in group["metrics"]}
    assert mapped <= per_layer
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for group in SPEC["layer_map"]:
        for workload, metrics in {**group["moves"], **group["watch"]}.items():
            assert workload in SPEC["workloads"] and set(metrics) <= e2e


def test_tail_keeps_ten_samples_beyond():
    times = [float(i) for i in range(1, 45)]
    value, pct = worker.tail(times, 10)
    assert value == 34.0 and sum(t > value for t in times) == 10
    assert pct == pytest.approx(100 * 34 / 44)
    assert worker.tail(times[:10], 10) == (None, None)


def test_gate_rejects_wrong_branch_count(tmp_path):
    report = tmp_path / "r.json"
    checks = [{"name": f"run{i}.fidelity", "status": "pass"} for i in range(3)]
    report.write_text(json.dumps({"checks": checks}))
    assert worker.gate({"certified": 3}, 0, str(report))[0]
    assert not worker.gate({"certified": 4}, 0, str(report))[0]
    assert not worker.gate({"certified": 3}, 1, str(report))[0]
    report.write_text("{not json")
    assert not worker.gate({"certified": None}, 0, str(report))[0]


def test_tracer_restores_every_binding():
    from qric import cli, measurement, protocols, statealg

    before = (protocols.weyl_r, statealg.tensor, measurement.gbm_branches,
              cli.HANDLERS["ric"], statealg.PureState.__init__)
    t = tracer.Tracer()
    t.install()
    try:
        assert protocols.weyl_r is not before[0]
        assert cli.HANDLERS["ric"] is not before[3]
    finally:
        t.uninstall()
    after = (protocols.weyl_r, statealg.tensor, measurement.gbm_branches,
             cli.HANDLERS["ric"], statealg.PureState.__init__)
    assert all(a is b for a, b in zip(before, after))


def test_traced_self_times_add_up_to_untraced_time(tmp_path):
    """The tracer's own cost stays out of the layers' self times.

    ric ghz (3,2) makes about 10^4 traced calls, most of them into tiny
    opsbasis and statealg helpers: without the correction the self times sum
    to about 1.37 times the untraced time, with it to about 1.05-1.1.
    Traced and untraced runs alternate, so both see the same machine speed;
    the bound leaves room for run-to-run noise of up to a quarter on a
    shared 2-CPU host.
    """
    from qric import cli

    runner = worker.Runner(cli, SPEC["workloads"]["enumerate"]["cases"][:1], 3, str(tmp_path))
    untraced, attributed = [], []
    with contextlib.redirect_stderr(io.StringIO()):
        runner.run_pass([])
        for _ in range(25):
            runner.run_pass(untraced)
            t = tracer.Tracer()
            t.install()
            try:
                runner.run_pass([])
            finally:
                t.uninstall()
            attributed.append(float(t.self_times()[0].sum()))
    assert not runner.failures
    ratio = statistics.median(attributed) / statistics.median(untraced)
    assert 0.8 < ratio < 1.25, ratio


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_reports_every_end_to_end_metric(short_run, workload):
    line = short_run(workload, 0)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 11
    assert set(line["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(short_run, workload):
    line = short_run(workload, 1)
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for layer in tracer.LAYERS:
        assert f"{layer}.self_ms" in line["metrics"]
    assert abs(line["metrics"]["protocols.explored_mass_min"]["value"] - 1.0) <= 1e-9
    assert line["metrics"]["cli.self_ms"]["value"] > 0


def test_refuses_to_run_without_sources():
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
