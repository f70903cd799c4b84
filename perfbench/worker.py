"""One benchmark process: set up a workload, then optionally measure or trace it.

run.py starts this script in a fresh interpreter per set-up, so import time
and `ru_maxrss` belong to that process alone. Roles:

  setup    import qric, build the cases, run one warm-up pass; report setup_s
  measure  setup, then timed passes with tracing off
  trace    setup, untraced passes, then one traced pass for the per-layer numbers

The last stdout line is one JSON object for run.py. The program under test
is driven in-process through `qric.cli.main(argv)`, one case after another
(closed loop, one client, one thread); each case writes its report to a
file under the output directory.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before numpy and qric are imported

import argparse
import contextlib
import json
import os
import random
import re
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BRANCH_CHECK = re.compile(r"^(?:run|branch)(\d+)\..*fidelity$")


def load_spec():
    with open(os.path.join(HERE, "spec.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# correctness gate

def gate(case, rc, report_path):
    """(ok, reason, report bytes, check rows) for one finished case.

    A case fails when cli.main returns non-zero, when its report does not
    parse, or when the number of certified branches differs from the count
    pinned in spec.json.
    """
    if rc != 0:
        return False, f"exit code {rc}", 0, 0
    try:
        size = os.path.getsize(report_path)
        with open(report_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        checks = doc["checks"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return False, f"report does not parse: {exc!r}", 0, 0
    if not checks or any(c.get("status") != "pass" for c in checks):
        return False, "report lists no checks or a failed check", size, len(checks)
    want = case["certified"]
    if want is not None:
        branches = {m.group(1) for c in checks if (m := BRANCH_CHECK.match(c["name"]))}
        if len(branches) != want:
            return False, f"{len(branches)} certified branches, pinned {want}", size, len(checks)
    return True, "", size, len(checks)


# ---------------------------------------------------------------------------
# running cases

class Runner:
    """Runs a workload's cases through cli.main and records times and gate results."""

    def __init__(self, cli, cases, seed, out_dir):
        self.cli = cli
        self.cases = cases
        self.seed = seed
        self.report = os.path.join(out_dir, "report.json")
        self.order_rng = random.Random(seed)
        self.failures = []
        self.report_bytes = 0
        self.check_rows = 0

    def argv(self, case):
        return case["argv"] + ["--seed", str(self.seed), "--out", self.report]

    def run_pass(self, times, on_case=None):
        """Run every case once, in a seeded order; append wall seconds to `times`."""
        order = list(range(len(self.cases)))
        self.order_rng.shuffle(order)
        main = self.cli.main
        for idx in order:
            case = self.cases[idx]
            argv = self.argv(case)
            if on_case is not None:
                on_case(idx)
            t0 = time.perf_counter()
            rc = main(argv)
            times.append(time.perf_counter() - t0)
            ok, why, size, rows = gate(case, rc, self.report)
            self.report_bytes += size
            self.check_rows += rows
            if not ok:
                self.failures.append({"case": " ".join(case["argv"]), "why": why})


def tail(times, beyond):
    """(value, percentile) of the highest order statistic with `beyond` samples above it."""
    n = len(times)
    if n <= beyond:
        return None, None
    k = n - beyond  # 1-based rank
    return sorted(times)[k - 1], 100.0 * k / n


def by_pass(times, per_pass):
    return [times[i:i + per_pass] for i in range(0, len(times), per_pass)]


def summarize(times, beyond, per_pass):
    """End-to-end metrics of whole passes of `per_pass` cases each.

    case_p50_ms is the median over passes of each pass's median case time:
    every pass holds each case once, so a pass median sits between the same
    two case kinds every time, where a median over all cases would fall
    between the slowest sample of one kind and the fastest of the next.
    """
    value, pct = tail(times, beyond)
    medians = [statistics.median(p) for p in by_pass(times, per_pass)]
    return {
        "case_p50_ms": statistics.median(medians) * 1e3,
        "case_tail_ms": value * 1e3 if value is not None else None,
        "case_tail_pct": pct,
        "cases_per_s": len(times) / sum(times),
        "samples": len(times),
    }


def timed_passes(runner, seconds, min_passes):
    """Whole passes until `seconds` have passed and at least `min_passes` ran."""
    times = []
    passes = 0
    t0 = time.perf_counter()
    while passes < min_passes or time.perf_counter() - t0 < seconds:
        runner.run_pass(times)
        passes += 1
    return times, passes, time.perf_counter() - t0


def environment(kernels, numpy):
    import importlib.util

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "kernel_path": "numba" if kernels.HAVE_NUMBA else "numpy",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "qric_path": os.path.dirname(kernels.__file__),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-passes", type=int, required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    spec = load_spec()
    beyond = spec["tail_beyond"]

    import numpy
    from qric import cli, kernels

    cases = spec["workloads"][args.workload]["cases"]
    runner = Runner(cli, cases, args.seed, args.out_dir)
    result = {"env": environment(kernels, numpy)}
    with open(os.devnull, "w") as devnull, contextlib.redirect_stderr(devnull):
        runner.run_pass([])  # warm-up
        result["setup_s"] = time.perf_counter() - T_START
        warmup_failures = len(runner.failures)

        if args.role == "measure":
            times, passes, wall = timed_passes(runner, args.seconds, args.min_passes)
            result.update(summarize(times, beyond, len(cases)))
            result["passes"] = passes
            result["measured_s"] = wall
        elif args.role == "trace":
            untraced, passes, _ = timed_passes(runner, args.seconds / 2, 1)
            from tracer import LAYERS, Tracer

            tracer = Tracer()
            runner.report_bytes = runner.check_rows = 0
            traced = []
            tracer.install()
            try:
                runner.run_pass(traced, on_case=lambda idx: setattr(tracer, "case_id", idx))
            finally:
                tracer.uninstall()
            times = untraced + traced
            layers = tracer.layer_metrics()
            layers["cli.report_bytes"] = runner.report_bytes
            layers["cli.check_rows"] = runner.check_rows
            cps_untraced = len(untraced) / sum(untraced)
            cps_traced = len(traced) / sum(traced)
            layers["trace.overhead_pct"] = 100.0 * (cps_untraced - cps_traced) / cps_untraced
            layers["trace.spans"] = len(tracer.start)
            result["layers"] = layers
            # the layers' self times should add up to an untraced pass
            attributed = sum(layers[f"{layer}.self_ms"] for layer in LAYERS) / 1e3
            untraced_pass_s = statistics.median(sum(p) for p in by_pass(untraced, len(cases)))
            result["trace_attributed_ratio"] = attributed / untraced_pass_s
            result["cases_per_s_untraced"] = cps_untraced
            result["cases_per_s_traced"] = cps_traced
            result["untraced_passes"] = passes
            spans_path = os.path.join(args.out_dir, "spans.npz")
            tracer.dump(spans_path)
            result["spans_file"] = spans_path
        else:
            times = []

    result["attempted"] = len(times)
    result["failed"] = len(runner.failures) - warmup_failures
    result["warmup_failed"] = warmup_failures
    result["failures"] = runner.failures[:20]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
