"""Source rules for src/qric, checked on the syntax tree: one size guard, no environment
knobs, one Bell-product builder, one clone-basis builder, identity oracles without per-term
states, internal self-checks outside the package's error types, no public function or
method that only tests call, no default that only tests set, and run-mode strings only in
the CLI. One rule is measured instead: every statement of a function body runs under some
fixed CLI run, traced line by line in a fresh interpreter."""

import ast
import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qric"


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _name(node):
    """Dotted name of a Name/Attribute chain, '' for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _name(node.value)
        return f"{base}.{node.attr}" if base else ""
    return ""


def test_no_environment_reads():
    hits = [
        f"{fname}:{node.lineno}"
        for fname, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Attribute, ast.Name))
        and _name(node) in ("os.environ", "os.getenv", "environ", "getenv")
    ]
    assert hits == []


def test_exactly_one_function_raises_size_guard_error():
    raisers = []
    for fname, tree in _trees().items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if _name(exc).split(".")[-1] == "SizeGuardError":
                        raisers.append(f"{fname}:{func.name}")
    assert raisers == ["statealg.py:check_size"]


def test_channels_compose_bell_pairs_only_through_bell_products():
    calls = [
        f"channels.py:{node.lineno}"
        for node in ast.walk(_trees()["channels.py"])
        if isinstance(node, ast.Call)
        and _name(node.func).split(".")[-1] in ("bell_state", "tensor", "tensor_many")
    ]
    assert calls == []


def test_clone_family_self_checks_raise_no_package_error():
    # they check arrays the package computed itself; cli.main maps package errors to exit 2
    errors = {node.name for node in ast.walk(_trees()["errors.py"])
              if isinstance(node, ast.ClassDef)}
    raised = []
    for func in ast.walk(_trees()["protocols.py"]):
        if isinstance(func, ast.FunctionDef) and func.name in (
                "extract_clone_decomposition", "check_bbar_covariance"):
            for node in ast.walk(func):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    raised.append((func.name, _name(exc).split(".")[-1]))
    assert len({name for name, _ in raised}) == 2
    assert [r for r in raised if r[1] in errors] == []


def _calls(tree):
    """(innermost enclosing function or '<module>', last part of the called name) of every
    call in tree."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                out.append((owner, _name(child.func).split(".")[-1]))
            is_func = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_func else owner)

    visit(tree, "<module>")
    return out


def test_identity_checks_build_no_per_term_states():
    # the two checks and every analysis.py function they reach
    calls = _calls(_trees()["analysis.py"])
    callers = {owner for owner, _ in calls}
    reached, todo = set(), ["swap_identity_check", "teleport_identity_check"]
    while todo:
        func = todo.pop()
        reached.add(func)
        todo += [name for owner, name in calls
                 if owner == func and name in callers and name not in reached]
    assert {"_rows", "_max_per_row"} < reached
    assert [(owner, name) for owner, name in calls if owner in reached
            and name in ("bell_state", "tensor", "reorder", "PureState")] == []


def test_run_mode_strings_appear_only_in_the_cli():
    # trials=None is every branch and trials=T a sample: the mode names are CLI flags only
    hits = [f"{fname}:{node.lineno}" for fname, tree in _trees().items() if fname != "cli.py"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in ("all-branches", "sample")]
    assert hits == []


def test_phi_vector_is_called_only_by_phi_basis():
    callers = {f"{fname}:{owner}" for fname, tree in _trees().items()
               for owner, name in _calls(tree) if name == "phi_vector"}
    assert callers == {"opsbasis.py:phi_basis"}


# public names the package itself never uses, each kept for a reason of its own
UNUSED_IN_PACKAGE = {
    "measurement.py:gbm_branches": "bound by perfbench/test_perfbench.py and tracer.py",
    "measurement.py:Branch.null": "read by the tracer's gbm_branches hook",
    "channels.py:ChannelSpec.to_json": "the writer of the documented channel-file format",
    "statealg.py:PureState.amplitude": "the basis-convention accessor",
    "protocols.py:Leaves.state": "the per-leaf accessor of the README's Python quick start",
}


def test_every_public_function_is_used_inside_the_package():
    # a function counts as used when any other part of src/qric names it (as a name, an
    # attribute or an import; __init__.py's re-exports do not count); a method only as an
    # attribute that is not on a numpy chain, so np.linalg.norm does not keep a norm method
    trees = {fname: tree for fname, tree in _trees().items() if fname != "__init__.py"}
    defs = []
    for fname, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs.append((fname, node.name, node, False))
            if isinstance(node, ast.ClassDef):
                defs += [(fname, f"{node.name}.{m.name}", m, True) for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]

    def named(name, skip, method):
        def visit(node):
            if node is skip:
                return False
            if isinstance(node, ast.Attribute) and node.attr == name:
                if not _name(node).startswith(("np.", "numpy.")):
                    return True
            if not method and (isinstance(node, ast.Name) and node.id == name
                               or isinstance(node, ast.alias) and node.name == name):
                return True
            return any(visit(child) for child in ast.iter_child_nodes(node))

        return any(visit(tree) for tree in trees.values())

    unused = {f"{fname}:{qual}" for fname, qual, node, method in defs
              if not named(qual.split(".")[-1], node, method)}
    assert unused == set(UNUSED_IN_PACKAGE)


# parameters with a default that no call in the package passes, each kept for a reason
# of its own
DEFAULTS_NOT_PASSED = {
    "cli.py:main(argv)": "the entry point; the console script calls it with no argument",
    "measurement.py:gbm_branches(remove)": "bound by perfbench/test_perfbench.py and tracer.py",
}


def test_every_defaulted_parameter_is_passed_inside_the_package():
    # a parameter is passed when some call of the function's name (the class's for
    # __init__) gives it by keyword, by position or through **; a method's positions
    # start after self or cls, and a *args covers its own position and every later one
    trees = _trees()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_name(node.func).split(".")[-1], []).append(node)

    def passed(callee, index, param):
        """index: the parameter's position in a call's arguments, None if keyword-only."""
        for call in calls.get(callee, []):
            if any(kw.arg in (param, None) for kw in call.keywords):
                return True
            if index is not None and (len(call.args) > index or any(
                    isinstance(a, ast.Starred) for a in call.args[:index + 1])):
                return True
        return False

    not_passed = set()
    for fname, tree in trees.items():
        methods = {id(m): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for m in cls.body if isinstance(m, ast.FunctionDef)}
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            owner = methods.get(id(func))
            static = any(_name(dec) == "staticmethod" for dec in func.decorator_list)
            callee = owner if func.name == "__init__" else func.name
            skip = 1 if owner is not None and not static else 0
            args = func.args
            positional = args.posonlyargs + args.args
            defaulted = [(i - skip, a.arg) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, a.arg) for a, v in zip(args.kwonlyargs, args.kw_defaults)
                          if v is not None]
            qual = func.name if owner is None else f"{owner}.{func.name}"
            not_passed |= {f"{fname}:{qual}({param})" for index, param in defaulted
                           if not passed(callee, index, param)}
    assert not_passed == set(DEFAULTS_NOT_PASSED)


# function bodies that run under no subcommand, each for a reason of its own
NOT_REACHED = {
    **UNUSED_IN_PACKAGE,
    "measurement.py:_collapse": "builds gbm_branches' branches, which the benchmark binds",
    "opsbasis.py:bell_state": "gbm_branches' collapsed pair, which the benchmark binds",
    "opsbasis.py:weyl_r": "bound by perfbench/test_perfbench.py and tracer.py",
    "opsbasis.py:weyl_monomial": "its 'U' kind serves the stabilizer and Weyl-frame oracles "
                                 "of the tests",
    "statealg.py:DensityOperator.__init__": "perfbench/tracer.py install wraps it; it goes "
                                            "once the benchmark drops that hook (ROADMAP "
                                            "item 1)",
}

# (exit code, argv) of every run the reach rule traces; each writes --out unless it sets it
REACH_RUNS = [
    (0, "teleclone --d 3 --N 2"),
    (0, "teleclone --d 2 --N 2 --mode sample --trials 5"),
    (0, "ric --d 3 --N 2 --channel ghz"),
    (0, "ric --d 3 --N 2 --channel beta --mode sample --trials 5"),
    (0, "ric --d 3 --N 2 --channel mixed-uniform --mode sample --trials 5"),
    (0, "ric --d 2 --N 2 --channel bell-product"),
    (0, "ric --d 2 --N 2 --channel smolin"),
    (0, "ric --d 3 --N 2 --channel {pure}"),
    (0, "ric --d 3 --N 2 --channel {mixed} --mode sample --trials 5"),
    (0, "ric --d 3 --N 2 --channel {bell}"),
    (0, "ric-mm-ghz --d 2 --N 3 --L 3"),
    (0, "ric-mm-multi --d 2 --N 3 --L 2"),
    (0, "ric-mm-multi --d 2 --N 2 --L 2"),
    (0, "verify --d 2 --N 2"),
    (0, "verify --d 3 --N 2"),
    (0, "verify --d 4 --N 2"),
    (0, "stabilizers --d 3 --N 2 --channel beta"),
    (0, "stabilizers --d 3 --N 2 --channel {mixed}"),
    (0, "stabilizers --d 3 --N 2 --channel {bell}"),
    (0, "unlock --d 2 --N 3 --mode sample --trials 3"),
    (0, "report --d 2 --N 2"),
    (2, "stabilizers --d 2 --N 2 --channel telecloning"),
    # 73 of 406 fidelities are exactly 1: the failing rows and the report go to stdout
    (1, "ric --d 3 --N 2 --channel ghz --tol 0 --out -"),
    (3, "verify --d 40 --N 2"),
    (2, "ric --d 1 --N 2"),
    (4, "verify --d 2 --N 2 --out {dir}"),
]

REACH_FILES = {
    "pure": {"kind": "general-pure", "d": 3, "N": 2,
             "table": [{"k": [0, 0, 0, 0], "w": 0.5}, {"k": [1, 0, 2, 0], "w": 0.5}]},
    # weights summing to 1.2, so the spec renormalises them with a warning
    "mixed": {"kind": "mixed", "d": 3, "N": 2,
              "table": [{"k": [0, 0, 0, 0], "w": 0.6}, {"k": [1, 1, 2, 2], "w": 0.6}]},
    "bell": {"kind": "product-bell", "d": 3, "N": 2, "u": 1, "v": 2, "c": [1, 2, 0, 0]},
}

# a cold interpreter: the tracer is installed before qric is imported, so every import-time
# and lru_cache-filled line counts as well
TRACE_RUNS = """
import json, os, sys
src, runs, dest = sys.argv[1:]
sys.path.insert(0, os.path.dirname(src))
seen = set()

def line(frame, event, arg):
    if event == "line":
        seen.add((frame.f_code.co_filename, frame.f_lineno))
    return line

sys.settrace(lambda frame, event, arg: line if frame.f_code.co_filename.startswith(src) else None)
from qric.cli import main
codes = [main(argv) for argv in json.loads(runs)]
sys.settrace(None)
with open(dest, "w") as fh:
    json.dump({"codes": codes, "lines": sorted(seen)}, fh)
"""


def _statements(fname, tree, allowed):
    """(qualname, statement, lines) of every statement in a function or method body, lines
    being the ones a run of it steps on: a simple statement's own, a compound one's header.
    Left out: docstrings, every statement of a block that ends in raise (an error path),
    __repr__ and the bodies that allowed names."""
    out = []

    def visit(block, qual, in_function):
        if block and isinstance(block[-1], ast.Raise):
            return
        for stmt in block:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = stmt.name if qual is None else f"{qual}.{stmt.name}"
                if stmt.name != "__repr__" and f"{fname}:{name}" not in allowed:
                    skip = ast.get_docstring(stmt, clean=False) is not None
                    visit(stmt.body[skip:], name, not isinstance(stmt, ast.ClassDef))
                continue
            blocks = [getattr(stmt, field, []) for field in ("body", "orelse", "finalbody")]
            blocks += [h.body for h in getattr(stmt, "handlers", [])]
            blocks += [c.body for c in getattr(stmt, "cases", [])]
            firsts = [b[0].lineno for b in blocks if b]
            last = max(stmt.lineno, min(firsts) - 1) if firsts else stmt.end_lineno
            if in_function:
                out.append((qual, stmt, range(stmt.lineno, last + 1)))
            for sub in blocks:
                visit(sub, qual, in_function)

    visit(tree.body, None, False)
    return out


def test_every_statement_runs_under_some_subcommand(tmp_path):
    paths = {"dir": str(tmp_path)}
    for key, doc in REACH_FILES.items():
        paths[key] = str(tmp_path / f"{key}.json")
        pathlib.Path(paths[key]).write_text(json.dumps(doc), encoding="utf-8")
    runs = []
    for _, line in REACH_RUNS:
        argv = line.format(**paths).split()
        runs.append(argv if "--out" in argv else argv + ["--out", str(tmp_path / "out.json")])
    dest = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, "-c", TRACE_RUNS, str(SRC), json.dumps(runs),
                           str(dest)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(dest.read_text(encoding="utf-8"))
    assert traced["codes"] == [code for code, _ in REACH_RUNS]
    ran = {(pathlib.Path(f).name, n) for f, n in traced["lines"]}

    def unreached(allowed):
        return [f"{fname}:{qual}:{stmt.lineno}" for fname, tree in _trees().items()
                for qual, stmt, lines in _statements(fname, tree, allowed)
                if not any((fname, n) in ran for n in lines)]

    missed = unreached(NOT_REACHED)
    assert missed == [], "not run by any traced subcommand:\n" + "\n".join(missed)
    # and every allowed body still holds a statement that no run reaches
    assert set(NOT_REACHED) <= {line.rsplit(":", 1)[0] for line in unreached(())}
