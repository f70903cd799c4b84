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
from itertools import chain, repeat
from math import isfinite, log2

import numpy as np

from . import __version__, analysis, channels, opsbasis, protocols, statealg
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


def _trials(args):
    """The runners' trials: None, every branch, for --mode all-branches, else --trials."""
    return None if args.mode == "all-branches" else args.trials


def _check(name, measured, expected, tol, ok=None):
    """One check row. Without ok it passes when |measured - expected| <= tol; a
    one-sided or boolean check gives ok and its rows keep measured and expected as is."""
    if ok is None:
        measured = float(measured)
        expected = float(expected)
        ok = abs(measured - expected) <= tol
    return {
        "name": name,
        "measured": measured,
        "expected": expected,
        "tolerance": tol,
        "status": "pass" if ok else "fail",
    }


def _config_echo(args):
    """The flags the subcommand declares, with the values it ran on."""
    doc = {k: v for k, v in vars(args).items()
           if v is not None and k not in ("command", "out", "max_transcripts")}
    return {**doc, "subcommand": args.command, "version": __version__}


# ---------------------------------------------------------------------------
# subcommands

def cmd_teleclone(args):
    d, N = args.d, args.N
    rng = np.random.default_rng(args.seed)
    inp = statealg.random_qudit(d, rng)
    expected = analysis.clone_fidelity_formula(d, N)
    leaves = protocols.run_telecloning(inp, d, N, rng, _trials(args))
    rows = range(len(leaves.probs))
    reg = leaves.register
    fids = []  # per clone s, F = <x|rho_s|x> of every leaf, rho_s the Gram matrix t t^dag
    for s in range(1, N + 1):
        t = np.moveaxis(leaves.amps.reshape((len(rows),) + (d,) * reg.n),
                        1 + reg.position(str(s)), 1).reshape(len(rows), d, -1)
        rho = t @ t.conj().transpose(0, 2, 1)
        fids.append([float(np.real(np.vdot(inp.amps, r @ inp.amps))) for r in rho])
    checks = [_check(f"branch{i}.clone{s}.fidelity", fids[s - 1][i], expected,
                     _tol(args, DEFAULT_TOL))
              for i in rows for s in range(1, N + 1)]
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
    t = statealg.reorder(target, leaves.register.labels).amps  # refuses a target on other labels
    fids = [abs(complex(np.vdot(row, t))) ** 2 for row in leaves.amps]
    checks = [_check(f"run{i}.fidelity", fid, 1.0, _tol(args, DEFAULT_TOL))
              for i, fid in enumerate(fids)]
    transcripts = [{**leaves.transcript(i), "fidelity": fids[i]}
                   for i in range(len(fids))[: args.max_transcripts]]
    return fids, checks, transcripts


def cmd_ric(args):
    spec = channels.load_channel(args.channel, args.d, args.N)
    d, N = args.d, args.N
    rng = np.random.default_rng(args.seed)
    inp = statealg.random_qudit(d, rng)
    clone = protocols.clone_state(inp.amps, d, N)
    leaves = protocols.run_ric(clone, spec, rng, _trials(args))
    target = statealg.PureState(leaves.register, inp.amps)
    fids, checks, transcripts = _fidelity_runs(args, leaves, target)
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
    leaves = protocols.run_mm_ghz(clone, d, N, L, rng, _trials(args))
    target = protocols.ghz_correlated_state(inp.amps, d, L, leaves.register.labels)
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
    leaves = protocols.run_mm_multiqudit(dist, d, N, L, rng, _trials(args))
    target = statealg.tensor_many([statealg.PureState(statealg.Register(d, (label,)), inp.amps)
                                   for label in leaves.register.labels])
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
    # before any check runs, the suite's largest array, each term as its builder checks it:
    # appendix B's d^(N-1) Bell products, the swap identity rows
    swap_rows = d**4 if d <= 3 else 50
    statealg.check_size("verify suite bytes", max(
        channels.bell_products_bytes(d, N, d ** (N - 1)),
        analysis.swap_identity_bytes(d, swap_rows)))
    rho = channels.preset_spec("smolin", d, N).build()
    rng = np.random.default_rng(args.seed)
    checks = []

    # Bell rearrangement identity, then the teleportation step, each over all its rows in
    # one call; the draw order (per teleport row: tuple, then input qudit) fixes the reports
    if d <= 3:
        rows = np.indices((d,) * 4).reshape(4, -1)
    else:
        rows = np.array([rng.integers(0, d, 4) for _ in range(swap_rows)]).T
    dev = float(analysis.swap_identity_check(d, *rows).max())
    checks.append(_check("swap_identity.max_dev", dev, 0.0, _tol(args, 1e-12)))

    rows, phis = [], []
    for _ in range(20):
        rows.append(rng.integers(0, d, 4))
        phi = rng.normal(size=d) + 1j * rng.normal(size=d)
        phis.append(phi / np.linalg.norm(phi))
    dev = float(analysis.teleport_identity_check(d, *np.array(rows).T, np.array(phis)).max())
    checks.append(_check("teleport_identity.max_dev", dev, 0.0, _tol(args, 1e-12)))

    family = protocols.extract_clone_decomposition(d, N)
    z = rng.normal(size=(20, 2, d))  # per input: d real parts, then d imaginary parts
    xs = np.array([x / np.linalg.norm(x) for x in z[:, 0] + 1j * z[:, 1]])
    dev = float(protocols.reconstruction_deviation(family, xs).max())
    checks.append(_check("clone_reconstruction.max_dev", dev, 0.0, _tol(args, 1e-9)))

    checks.append(
        _check("ghz_reduction.max_dev", analysis.verify_appendix_b(d, N), 0.0, _tol(args, 1e-12))
    )

    pure = {preset: channels.preset_spec(preset, d, N).build()
            for preset in ("ghz", "beta", "bell-product")}
    ov = analysis.verify_appendix_c(d, N, pure["beta"])
    if d == 2:
        checks.append(_check("telecloning_channel_overlap", ov, 1.0, _tol(args, DEFAULT_TOL)))
    else:
        checks.append(_check("telecloning_channel_overlap", ov, "< 1 - 1e-6", 1e-6,
                             ok=ov < 1 - 1e-6))

    states = {**pure, "smolin": rho,
              "mixed-uniform": channels.preset_spec("mixed-uniform", d, N).build()}
    for preset, state in states.items():
        table = analysis.stabilizer_suite(state, d, N)
        dev = max(abs(v - 1.0) for v in table.values())
        checks.append(_check(f"stabilizer.{preset}.max_dev", dev, 0.0, _tol(args, 1e-9)))

    rank, dev = analysis.smolin_spectrum_check(rho)
    checks.append(_check("smolin.rank", rank, d ** (2 * (N - 1)), 0))
    checks.append(_check("smolin.flat_spectrum.max_dev", dev, 0.0, _tol(args, 1e-10)))

    rep = analysis.symmetry_report(rho, d, N)
    checks.append(_check("symmetry.within_group.max", rep.within_max(), 0.0, _tol(args, 1e-10)))
    cross = rep.cross_max()
    if d == 2:
        checks.append(_check("symmetry.cross_group", cross, 0.0, _tol(args, 1e-10)))
    else:
        checks.append(_check("symmetry.cross_group", cross, "> 1e-3", 1e-3, ok=cross > 1e-3))

    unlocks = analysis.unlock_ubes(d, N, rho=rho)
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
    checks.append(_check("smolin.ppt_min_eigenvalue", ppt_min, ">= -1e-10", 1e-10,
                         ok=ppt_min >= -1e-10))

    ent_tol = _tol(args, 1e-8)
    for preset, state in pure.items():
        ent = statealg.entropy(state, labels[-1:])
        checks.append(_check(f"entropy.{preset}.rest_vs_Nprime", ent, log2(d), ent_tol))

    distinguishable = analysis.entropy_gap(pure["ghz"], pure["beta"]) > analysis.FINGERPRINT_TOL
    checks.append(_check("fingerprint.ghz_vs_beta_distinguishable", distinguishable, True, 0,
                         ok=distinguishable))
    return {"config": _config_echo(args), "checks": checks}


def cmd_stabilizers(args):
    spec = channels.load_channel(args.channel, args.d, args.N)
    state = spec.build()
    table = analysis.stabilizer_suite(state, args.d, args.N)
    # a channel of residues (u, v) has S[m,n] = w^{m v - n u}; the check undoes that phase
    omega = opsbasis.omega_table(args.d)
    checks = [
        _check(f"S[{m},{n}]", np.real(val * omega[(n * spec.u - m * spec.v) % args.d]), 1.0,
               _tol(args, 1e-9))
        for (m, n), val in sorted(table.items())
    ]
    return {
        "config": _config_echo(args),
        "expectations": {f"{m},{n}": [float(np.real(v)), float(np.imag(v))]
                         for (m, n), v in sorted(table.items())},
        "checks": checks,
    }


def cmd_unlock(args):
    # by position: perfbench's tracer counts an unlock call with two arguments as every outcome
    reports = analysis.unlock_ubes(args.d, args.N, np.random.default_rng(args.seed), _trials(args))
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
    def section(handler, **flags):
        return handler(argparse.Namespace(**{**vars(args), **flags}))

    one_branch = {"mode": "all-branches", "trials": 1, "max_transcripts": 1}
    sections = {
        "verify": section(cmd_verify, command="verify"),
        "teleclone": section(cmd_teleclone, command="teleclone", **one_branch),
        "ric_ghz": section(cmd_ric, command="ric", channel="ghz", **one_branch),
    }
    return {
        "config": _config_echo(args),
        "sections": sections,
        "checks": [{**chk, "name": f"{name}.{chk['name']}"}
                   for name, sec in sections.items() for chk in sec["checks"]],
    }


# ---------------------------------------------------------------------------
# driver

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qric",
        description="Qudit telecloning / remote-information-concentration simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, channel=False, L=False, mode=False, transcripts=False, out="-"):
        p = sub.add_parser(name, help=help)
        p.add_argument("--d", type=int, default=2, help="qudit dimension (>= 2)")
        p.add_argument("--N", type=int, default=2, help="number of clones / channel pairs")
        if L:
            p.add_argument("--L", type=int, default=2, help="receiver qudit count")
        if channel:
            p.add_argument("--channel", default="ghz",
                           help=f"preset {channels.PRESETS} or JSON file path")
        if mode:
            p.add_argument("--mode", choices=("all-branches", "sample"), default="all-branches")
            p.add_argument("--trials", type=int, default=100)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--tol", type=float, default=None,
                       help="override every check tolerance (default: per-check)")
        p.add_argument("--out", default=out, help="JSON output path ('-' = stdout)")
        if transcripts:
            p.add_argument("--max-transcripts", type=int, default=4)

    run = {"mode": True, "transcripts": True}
    add("teleclone", "run 1->N telecloning", **run)
    add("ric", "run (2N-1)->1 RIC", channel=True, **run)
    add("ric-mm-ghz", "many-to-many RIC, GHZ-terminated channel", L=True, **run)
    add("ric-mm-multi", "many-to-many RIC over |B00>^N", L=True, **run)
    add("verify", "identity and appendix verification suite")
    add("stabilizers", "stabilizer expectation table", channel=True)
    add("unlock", "UBES unlocking report", mode=True)
    add("report", "aggregate machine-readable report", out="qric_report.json")
    return parser


PARSER = build_parser()

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
    if args.tol is not None and not (isfinite(args.tol) and args.tol >= 0):
        raise ConstraintError(f"--tol must be finite and >= 0, got {args.tol}")


_SCALARS = (str, int, float, type(None))


def _flat(values):
    return all(map(isinstance, values, repeat(_SCALARS)))


def _rows(obj):
    """Whether obj is a list of non-empty dicts whose values are all scalars."""
    return (all(map(isinstance, obj, repeat(dict))) and all(obj)
            and _flat(chain.from_iterable(map(dict.values, obj))))


def _dumps(obj, level=0):
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for a str-keyed obj.

    indent alone sends json to its pure-Python encoder, so each container of
    scalars, and each list of non-empty flat dicts (the check rows), is one call
    of the C encoder with the indented item separator; other containers recurse.
    """
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    pad, pad1 = "  " * level, "  " * (level + 1)
    is_dict = isinstance(obj, dict)
    opening, closing = "{}" if is_dict else "[]"
    if _flat(obj.values() if is_dict else obj):
        text = json.dumps(obj, separators=(",\n" + pad1, ": "), sort_keys=True)
        return f"{opening}\n{pad1}{text[1:-1]}\n{pad}{closing}"
    if not is_dict and _rows(obj):
        # rows joined by the rows' own separator: "},\n" + pad2 + "{" is a row seam
        # and nothing else, as a value before "," is a scalar and strings hold no newline
        pad2 = pad1 + "  "
        text = json.dumps(obj, separators=(",\n" + pad2, ": "), sort_keys=True)
        text = text[2:-2].replace("},\n" + pad2 + "{", f"\n{pad1}}},\n{pad1}{{\n{pad2}")
        return f"[\n{pad1}{{\n{pad2}{text}\n{pad1}}}\n{pad}]"
    if is_dict:
        items = [f"{json.dumps(k)}: {_dumps(v, level + 1)}" for k, v in sorted(obj.items())]
    else:
        items = [_dumps(v, level + 1) for v in obj]
    return f"{opening}\n{pad1}" + f",\n{pad1}".join(items) + f"\n{pad}{closing}"


def _emit(doc, out_path):
    text = _dumps(doc)
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
    args = PARSER.parse_args(argv)
    t0 = time.perf_counter()
    try:
        _validate(args)
        doc = HANDLERS[args.command](args)
        _emit(doc, args.out)
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ConstraintError, ProtocolError) as exc:
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
