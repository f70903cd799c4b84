"""Command-line front end.

Machine-readable JSON goes to stdout (or --out); the human summary goes to
stderr. Exit codes: 0 all checks pass, 1 check failure, 2 configuration
error, 3 size guard, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from math import log2

import numpy as np

from . import __version__, analysis, channels, measurement, protocols, statealg
from .channels import channel_labels
from .errors import ConstraintError, ProtocolError, QricError, SizeGuardError
from .statealg import Cut

DEFAULT_SEED = 1234
DEFAULT_TOL = 1e-9
# a run's report scores every leaf it has: every non-null branch, or every trial
COVERAGE = 1.0

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_IO = 4


def _tol(args, default):
    return args.tol if args.tol is not None else default


def _check(name, measured, expected, tol):
    measured = float(measured)
    expected = float(expected)
    return {
        "name": name,
        "measured": measured,
        "expected": expected,
        "tolerance": tol,
        "status": "pass" if abs(measured - expected) <= tol else "fail",
    }


def _config_echo(args, extra=None):
    doc = {
        "subcommand": args.command,
        "d": getattr(args, "d", None),
        "N": getattr(args, "N", None),
        "L": getattr(args, "L", None),
        "channel": getattr(args, "channel", None),
        "mode": getattr(args, "mode", None),
        "trials": getattr(args, "trials", None),
        "seed": args.seed,
        "tol": args.tol,
        "version": __version__,
    }
    if extra:
        doc.update(extra)
    return {k: v for k, v in doc.items() if v is not None}


def _diana_target(inp, N):
    return statealg.permute(inp, {inp.register.labels[0]: f"{N}'"})


# ---------------------------------------------------------------------------
# subcommands

def cmd_teleclone(args):
    d, N = args.d, args.N
    rng = np.random.default_rng(args.seed)
    inp = statealg.random_qudit(d, rng)
    expected = analysis.clone_fidelity_formula(d, N)
    checks = []
    leaves = protocols.run_telecloning(inp, d, N, mode=args.mode, rng=rng, trials=args.trials)
    rows = range(len(leaves.probs))
    for i in rows:
        state = leaves.state(i)
        for s in range(1, N + 1):
            rho = statealg.partial_trace(state, [str(s)])
            fid = float(np.real(np.vdot(inp.amps, rho.mat @ inp.amps)))
            checks.append(_check(f"branch{i}.clone{s}.fidelity", fid, expected, _tol(args, DEFAULT_TOL)))
    return {
        "config": _config_echo(args),
        "clone_fidelity_formula": expected,
        "checks": checks,
        "transcripts": [leaves.transcript(i) for i in rows[: args.max_transcripts]],
    }


def _fidelity_runs(args, leaves, target):
    """Score every leaf of a run against target: (fidelities, checks, transcripts).

    --mode all-branches gives every branch (of every component of a mixed
    channel); --mode sample gives --trials runs. The transcripts list the
    first --max-transcripts leaves, each with its fidelity.
    """
    t = statealg.reorder(target, leaves.register.labels).amps
    fids = [abs(complex(np.vdot(row, t))) ** 2 for row in leaves.amps]
    checks = [_check(f"run{i}.fidelity", fid, 1.0, _tol(args, DEFAULT_TOL))
              for i, fid in enumerate(fids)]
    transcripts = [{**leaves.transcript(i), "fidelity": fids[i]}
                   for i in range(len(fids))[: args.max_transcripts]]
    return fids, checks, transcripts


def cmd_ric(args):
    spec = channels.load_channel(args.channel, args.d, args.N, args.seed)
    if spec.d != args.d or spec.N != args.N:
        raise ConstraintError(
            f"channel file is for (d,N)=({spec.d},{spec.N}), requested ({args.d},{args.N})"
        )
    d, N = args.d, args.N
    rng = np.random.default_rng(args.seed)
    inp = statealg.random_qudit(d, rng)
    clone = protocols.clone_state(inp.amps, d, N)
    leaves = protocols.run_ric(clone, spec, mode=args.mode, rng=rng, trials=args.trials)
    fids, checks, transcripts = _fidelity_runs(args, leaves, _diana_target(inp, N))
    bits_expected = (2 * N - 1) * 2.0 * log2(d)
    checks.append(_check("classical_bits", leaves.total_bits(), bits_expected, 1e-12))
    return {
        "config": _config_echo(args),
        "coverage": COVERAGE,
        "fidelities": fids,
        "checks": checks,
        "transcripts": transcripts,
    }


def cmd_ric_mm_ghz(args):
    d, N, L = args.d, args.N, args.L
    rng = np.random.default_rng(args.seed)
    inp = statealg.random_qudit(d, rng)
    clone = protocols.clone_state(inp.amps, d, N)
    target = protocols.ghz_correlated_state(
        inp.amps, d, L, labels=[f"{N}'_{i}" for i in range(1, L + 1)]
    )
    leaves = protocols.run_mm_ghz(clone, d, N, L, mode=args.mode, rng=rng, trials=args.trials)
    _, checks, transcripts = _fidelity_runs(args, leaves, target)
    return {
        "config": _config_echo(args),
        "coverage": COVERAGE,
        "checks": checks,
        "transcripts": transcripts,
    }


def cmd_ric_mm_multi(args):
    d, N, L = args.d, args.N, args.L
    # the joint register is refused before the distributed state is built
    joint = statealg.Register(d, protocols.mm_multi_labels(N, L) + channel_labels(N))
    statealg.check_size("protocol joint dimension", joint.dim, statealg.MAX_JOINT_DIM)
    rng = np.random.default_rng(args.seed)
    inp = statealg.random_qudit(d, rng)
    dist = protocols.synth_distributed_state(inp.amps, d, N, L)
    receiver = [f"{s}'" for s in range(N - L + 1, N + 1)]
    target = statealg.tensor_many(
        [statealg.permute(inp, {inp.register.labels[0]: lab}) for lab in receiver]
    )
    leaves = protocols.run_mm_multiqudit(dist, d, N, L, mode=args.mode, rng=rng,
                                         trials=args.trials)
    _, checks, transcripts = _fidelity_runs(args, leaves, target)
    bits_expected = (2 * N - L) * 2.0 * log2(d)
    checks.append(_check("classical_bits", leaves.total_bits(), bits_expected, 1e-12))
    return {
        "config": _config_echo(args),
        "coverage": COVERAGE,
        "checks": checks,
        "transcripts": transcripts,
    }


def cmd_verify(args):
    d, N = args.d, args.N
    # the largest object of the suite, built once and first (no rng) as its up-front size guard
    rho = channels.smolin_like(d, N)
    rng = np.random.default_rng(args.seed)
    checks = []

    # Bell rearrangement identity
    if d <= 3:
        dev = max(
            measurement.swap_identity_check(d, m, n, m2, n2)
            for m in range(d) for n in range(d) for m2 in range(d) for n2 in range(d)
        )
    else:
        dev = max(
            measurement.swap_identity_check(d, *(int(v) for v in rng.integers(0, d, 4)))
            for _ in range(50)
        )
    checks.append(_check("swap_identity.max_dev", dev, 0.0, _tol(args, 1e-12)))

    dev = max(
        protocols.teleport_identity_check(d, *(int(v) for v in rng.integers(0, d, 4)), rng)
        for _ in range(20)
    )
    checks.append(_check("teleport_identity.max_dev", dev, 0.0, _tol(args, 1e-12)))

    family = protocols.extract_clone_decomposition(d, N)
    dev = 0.0
    for _ in range(20):
        x = rng.normal(size=d) + 1j * rng.normal(size=d)
        x /= np.linalg.norm(x)
        dev = max(dev, protocols.reconstruction_deviation(family, x))
    checks.append(_check("clone_reconstruction.max_dev", dev, 0.0, _tol(args, 1e-9)))

    checks.append(
        _check("ghz_reduction.max_dev", analysis.verify_appendix_b(d, N), 0.0, _tol(args, 1e-12))
    )

    ov, ok = analysis.verify_appendix_c(d, N)
    if d == 2:
        ok = abs(ov - 1.0) <= _tol(args, DEFAULT_TOL)
    checks.append(
        {
            "name": "telecloning_channel_overlap",
            "measured": ov,
            "expected": 1.0 if d == 2 else "< 1 - 1e-6",
            "tolerance": _tol(args, DEFAULT_TOL) if d == 2 else 1e-6,
            "status": "pass" if ok else "fail",
        }
    )

    for preset in ("ghz", "beta", "bell-product", "smolin", "mixed-uniform"):
        # passed as a temporary, so each preset's density is freed before the next build
        table = analysis.stabilizer_suite(
            rho if preset == "smolin" else channels.preset_spec(preset, d, N).build(), d, N
        )
        dev = max(abs(v - 1.0) for v in table.values())
        checks.append(_check(f"stabilizer.{preset}.max_dev", dev, 0.0, _tol(args, 1e-9)))

    rank, dev = analysis.smolin_spectrum_check(rho)
    checks.append(_check("smolin.rank", rank, d ** (2 * (N - 1)), 0))
    checks.append(_check("smolin.flat_spectrum.max_dev", dev, 0.0, _tol(args, 1e-10)))

    rep = analysis.symmetry_report(rho, d, N)
    checks.append(_check("symmetry.within_group.max", rep.within_max(), 0.0, _tol(args, 1e-10)))
    cross = rep.cross_max()
    checks.append(
        {
            "name": "symmetry.cross_group",
            "measured": cross,
            "expected": 0.0 if d == 2 else "> 1e-3",
            "tolerance": _tol(args, 1e-10) if d == 2 else 1e-3,
            "status": "pass" if (cross <= _tol(args, 1e-10) if d == 2 else cross > 1e-3) else "fail",
        }
    )

    unlocks = analysis.unlock_ubes(d, N)
    checks.append(
        _check("unlock.min_purity", min(r.purity for r in unlocks), 1.0, _tol(args, 1e-9))
    )
    checks.append(
        _check(
            "unlock.min_pair_entropy",
            min(r.pair_entropy for r in unlocks),
            log2(d),
            _tol(args, 1e-8),
        )
    )

    labels = channel_labels(N)
    ppt_min = min(
        analysis.ppt_min_eigenvalue(rho, Cut(labels[: 2 * s], labels[2 * s:]))
        for s in range(1, N)
    )
    checks.append(
        {
            "name": "smolin.ppt_min_eigenvalue",
            "measured": ppt_min,
            "expected": ">= -1e-10",
            "tolerance": 1e-10,
            "status": "pass" if ppt_min >= -1e-10 else "fail",
        }
    )

    ent_tol = _tol(args, 1e-8)
    for preset in ("ghz", "beta", "bell-product"):
        state = channels.preset_spec(preset, d, N).build()
        cut = Cut(labels[:-1], (labels[-1],))
        ent = statealg.entropy_across_cut(state, cut)
        checks.append(_check(f"entropy.{preset}.rest_vs_Nprime", ent, log2(d), ent_tol))

    fp_ghz = analysis.fingerprint(channels.ghz_channel(d, N))
    fp_beta = analysis.fingerprint(channels.beta_weighted_channel(d, N))
    distinguishable = analysis.compare_fingerprints(fp_ghz, fp_beta)
    checks.append(
        {
            "name": "fingerprint.ghz_vs_beta_distinguishable",
            "measured": bool(distinguishable),
            "expected": True,
            "tolerance": 0,
            "status": "pass" if distinguishable else "fail",
        }
    )
    return {"config": _config_echo(args), "checks": checks}


def cmd_stabilizers(args):
    spec = channels.load_channel(args.channel, args.d, args.N, args.seed)
    state = spec.build()
    table = analysis.stabilizer_suite(state, args.d, args.N)
    checks = [
        _check(f"S[{m},{n}]", np.real(val), 1.0, _tol(args, 1e-9))
        for (m, n), val in sorted(table.items())
    ]
    return {
        "config": _config_echo(args),
        "expectations": {f"{m},{n}": [float(np.real(v)), float(np.imag(v))]
                         for (m, n), v in sorted(table.items())},
        "checks": checks,
    }


def cmd_unlock(args):
    reports = analysis.unlock_ubes(args.d, args.N, mode=args.mode,
                                   rng=np.random.default_rng(args.seed), trials=args.trials)
    checks = []
    outcome_rows = []
    for r in reports:
        key = ";".join(f"{m},{n}" for m, n in r.outcomes)
        checks.append(_check(f"outcome[{key}].purity", r.purity, 1.0, _tol(args, 1e-9)))
        checks.append(
            _check(f"outcome[{key}].pair_entropy", r.pair_entropy, log2(args.d),
                   _tol(args, 1e-8))
        )
        outcome_rows.append(
            {
                "outcomes": [list(o) for o in r.outcomes],
                "probability": r.probability,
                "purity": r.purity,
                "pair_entropy": r.pair_entropy,
                "bell_overlap": r.bell_overlap,
            }
        )
    return {"config": _config_echo(args), "outcomes": outcome_rows, "checks": checks}


def cmd_report(args):
    sections = {}
    all_checks = []
    ns = argparse.Namespace(**vars(args))
    ns.command = "verify"
    sections["verify"] = cmd_verify(ns)
    ns = argparse.Namespace(**vars(args))
    ns.command = "teleclone"
    ns.mode = "all-branches"
    ns.trials = 1
    ns.max_transcripts = 1
    sections["teleclone"] = cmd_teleclone(ns)
    ns = argparse.Namespace(**vars(args))
    ns.command = "ric"
    ns.channel = "ghz"
    ns.mode = "all-branches"
    ns.trials = 1
    ns.max_transcripts = 1
    sections["ric_ghz"] = cmd_ric(ns)
    for name, sec in sections.items():
        for chk in sec["checks"]:
            all_checks.append({**chk, "name": f"{name}.{chk['name']}"})
    return {
        "config": _config_echo(args),
        "sections": sections,
        "checks": all_checks,
    }


# ---------------------------------------------------------------------------
# driver

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qric",
        description="Qudit telecloning / remote-information-concentration simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, channel=False, mm=False, out_default="-"):
        p.add_argument("--d", type=int, default=2, help="qudit dimension (>= 2)")
        p.add_argument("--N", type=int, default=2, help="number of clones / channel pairs")
        if mm:
            p.add_argument("--L", type=int, default=2, help="receiver qudit count")
        if channel:
            p.add_argument("--channel", default="ghz",
                           help=f"preset {channels.PRESETS} or JSON file path")
        p.add_argument("--mode", choices=("all-branches", "sample"), default="all-branches")
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--tol", type=float, default=None,
                       help="override every check tolerance (default: per-check)")
        p.add_argument("--out", default=out_default, help="JSON output path ('-' = stdout)")
        p.add_argument("--max-transcripts", type=int, default=4)

    common(sub.add_parser("teleclone", help="run 1->N telecloning"))
    common(sub.add_parser("ric", help="run (2N-1)->1 RIC"), channel=True)
    common(sub.add_parser("ric-mm-ghz", help="many-to-many RIC, GHZ-terminated channel"),
           channel=False, mm=True)
    common(sub.add_parser("ric-mm-multi", help="many-to-many RIC over |B00>^N"),
           channel=False, mm=True)
    common(sub.add_parser("verify", help="identity and appendix verification suite"))
    p = sub.add_parser("stabilizers", help="stabilizer expectation table")
    common(p, channel=True)
    p = sub.add_parser("unlock", help="UBES unlocking report")
    common(p)
    common(sub.add_parser("report", help="aggregate machine-readable report"),
           out_default="qric_report.json")
    return parser


HANDLERS = {
    "teleclone": cmd_teleclone,
    "ric": cmd_ric,
    "ric-mm-ghz": cmd_ric_mm_ghz,
    "ric-mm-multi": cmd_ric_mm_multi,
    "verify": cmd_verify,
    "stabilizers": cmd_stabilizers,
    "unlock": cmd_unlock,
    "report": cmd_report,
}


def _validate(args):
    if getattr(args, "d", 2) < 2:
        raise ConstraintError("--d must be >= 2")
    if getattr(args, "N", 2) < 2:
        raise ConstraintError("--N must be >= 2")
    if getattr(args, "L", 1) < 1:
        raise ConstraintError("--L must be >= 1")
    if getattr(args, "trials", 1) < 1:
        raise ConstraintError("--trials must be >= 1")
    if getattr(args, "max_transcripts", 0) < 0:
        raise ConstraintError("--max-transcripts must be >= 0")


def _emit(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path == "-":
        print(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise IOError(str(exc)) from exc


def _summary(doc, elapsed):
    checks = doc.get("checks", [])
    failed = [c for c in checks if c["status"] != "pass"]
    for c in failed[:20]:
        print(
            f"[FAIL] {c['name']}: measured={c['measured']} expected={c['expected']} "
            f"tol={c['tolerance']}",
            file=sys.stderr,
        )
    print(
        f"{len(checks) - len(failed)}/{len(checks)} checks passed "
        f"({elapsed:.2f}s wall clock)",
        file=sys.stderr,
    )
    return not failed


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        _validate(args)
        doc = HANDLERS[args.command](args)
        _emit(doc, args.out)
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ConstraintError, ProtocolError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IOError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except QricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    ok = _summary(doc, time.perf_counter() - t0)
    return EXIT_OK if ok else EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
