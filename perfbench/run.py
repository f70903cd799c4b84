"""qric benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

Run from the root of a qric checkout:

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Every set-up runs in a fresh worker process (perfbench/worker.py) with BLAS
pinned to one thread; set-up is repeated `setups` times (spec.json) and its
median is reported. `--trace 0` prints the end-to-end metrics of
BENCHMARK.json, `--trace 1` the per-layer metrics. Human-readable lines and a
metadata line come first; the last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}. A fuller record, metadata
included, goes to .perfbench_out/. Exit code 2 means the checkout has no qric
sources to benchmark; 1 means a worker process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def src_line_count():
    pkg = os.path.join(ROOT, "src", "qric")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    # the ceiling stops git from reporting an enclosing repository's HEAD
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def worker_env(blas_threads):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in BLAS_ENV:
        env[key] = str(blas_threads)
    return env


def run_worker(role, workload, seed, seconds, min_passes, out_dir, env, deadline):
    """Start one worker process, wait for it, and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--min-passes", str(min_passes), "--out-dir", out_dir]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError(f"no time left to start the {role} worker")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, args, spec, bench, deadline):
    """Run one workload; returns (record, JSON result line as a dict)."""
    out_dir = os.path.join(ROOT, ".perfbench_out", workload)
    os.makedirs(out_dir, exist_ok=True)
    env = worker_env(spec["blas_threads"])
    setups, min_passes = spec["setups"], spec["min_passes"]
    role = "trace" if args.trace else "measure"
    workers = [run_worker("setup", workload, args.seed, args.seconds, min_passes,
                          out_dir, env, deadline) for _ in range(setups - 1)]
    main = run_worker(role, workload, args.seed, args.seconds, min_passes, out_dir, env, deadline)
    workers.append(main)

    failures = [f for w in workers for f in w["failures"]]
    failed = main["failed"]
    correct = all(w["failed"] == 0 and w["warmup_failed"] == 0 for w in workers)
    if args.trace:
        layers = main["layers"]
        mass = layers["protocols.explored_mass_min"]
        if abs(mass - 1.0) > 1e-9:
            correct = False
            failures.append({"case": "traced pass", "why": f"explored mass {mass!r} != 1"})
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        values = dict(main)
        values["setup_s"] = statistics.median(w["setup_s"] for w in workers)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    missing = [name for name, m in metrics.items() if m["value"] is None]
    if missing:
        raise RuntimeError(f"no value for {missing}: too few cases; raise min_passes in spec.json")

    meta = dict(main["env"])
    meta.update({
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_lines": src_line_count(),
        "setups": setups,
        "setup_s_each": [w["setup_s"] for w in workers],
        "min_passes": min_passes,
        "loop": "closed, one client, one thread, in-process qric.cli.main",
    })
    for key in ("passes", "measured_s", "samples", "case_tail_pct", "cases_per_s_untraced",
                "cases_per_s_traced", "untraced_passes", "trace_attributed_ratio", "spans_file"):
        if key in main:
            meta[key] = main[key]
    attempted = main["attempted"]
    meta["fail_frac"] = failed / attempted if attempted else None
    line = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"meta": meta, "result": line, "failures": failures}
    with open(os.path.join(out_dir, f"result-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    return record


def print_record(record):
    meta, line = record["meta"], record["result"]
    print(f"== {meta['workload']} (seed {meta['seed']}, trace {meta['trace']}) ==")
    for name, m in line["metrics"].items():
        extra = ""
        if name == "case_tail_ms":
            extra = f"  (p{meta['case_tail_pct']:.1f} of {meta['samples']} cases)"
        print(f"{name:<36} {m['value']:>16.6g} {m['unit']}{extra}")
    print(f"{'fail_frac':<36} {meta['fail_frac']:>16.6g} ratio"
          f"  ({line['failed']}/{line['attempted']} cases)")
    for f in record["failures"][:10]:
        print(f"FAILED {f['case']}: {f['why']}")
    print("meta " + json.dumps(meta, sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description="qric benchmark")
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qric", "cli.py")):
        print(f"no qric sources under {os.path.join(ROOT, 'src')}; run from a qric checkout",
              file=sys.stderr)
        return 2
    spec = load_json(os.path.join(HERE, "spec.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = list(spec["workloads"]) if args.workload == "all" else [args.workload]
    if any(n not in spec["workloads"] for n in names):
        print(f"unknown workload {args.workload!r}; choose from {list(spec['workloads'])} or all",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S * len(names)
    records = []
    try:
        for name in names:
            records.append(run_workload(name, args, spec, bench, deadline))
            print_record(records[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if len(records) == 1:
        line = records[0]["result"]
    else:
        line = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['meta']['workload']}.{k}": v
                        for r in records for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
