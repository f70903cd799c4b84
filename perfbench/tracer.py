"""Span tracer for the benchmark's traced pass.

Wraps every public module-level function of the qric layers (plus the
`PureState`/`DensityOperator` constructors and `cli._emit`) and rebinds the
wrapper at every namespace that looks the function up: the defining module,
modules that imported it by name, and module-level dispatch tables such as
`cli.HANDLERS`. Nothing under `src/` changes; `uninstall` restores every
binding.

A span is (name, start, end, parent, case id); spans stay in flat arrays in
memory and are written out once, by `dump`. Each wrapper also reads the
clock on entry and just before it returns, so the tracer's own bookkeeping
and hooks around a span are timed. A span's self time is its duration minus
those entry-to-return intervals of its children, minus the wrapper cost no
clock sees (the extra call frame, argument packing and return), which
`calibrate` measures on a no-op function.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from array import array

import numpy as np

LAYERS = ("kernels", "measurement", "protocols", "statealg", "opsbasis",
          "channels", "analysis", "cli")

ANALYSIS_FUNCTIONS = ("stabilizer_suite", "unlock_ubes", "symmetry_report",
                      "ppt_min_eigenvalue", "fingerprint")

PLAN_RUNS = ("protocols.run_ric", "protocols.run_mm_ghz",
             "protocols.run_mm_multiqudit", "protocols.run_telecloning")

CHANNEL_BUILDERS = ("telecloning_channel", "product_bell_channel", "general_pure_channel",
                    "ghz_channel", "beta_weighted_channel", "mixed_channel",
                    "sample_mixed", "smolin_like")


def _traceable(obj, module_name):
    if getattr(obj, "__module__", None) != module_name:
        return False
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


class Tracer:
    """In-memory span recorder plus the per-layer counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.entry = array("d")  # wrapper entered
        self.start = array("d")  # wrapped function called
        self.end = array("d")  # wrapped function returned
        self.exit = array("d")  # wrapper returns
        self.parent = array("q")
        self.case = array("q")
        self.nid = array("q")
        self.span_cost = 0.0  # calibrated: a span's duration beyond the untraced call
        self.call_cost = 0.0  # calibrated: the parent's untimed cost per traced child call
        self.stack: list[int] = []
        self.case_id = -1
        self.bytes_computed = 0
        self.outcomes_computed = 0
        self.outcomes_kept = 0
        self.leaves = 0
        self.channel_builds = 0
        self.explored_masses: list[float] = []
        self._level = {}  # GBM span id -> [outcomes, summed probability]
        self._run_mass = {}  # sampled plan-run span id -> product of level masses
        self._run_nids: set[int] = set()
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.name_layer.append(LAYERS.index(layer))
        return len(self.names) - 1

    def _wrap(self, name, layer, fn, on_exit=None):
        nid = self._name_id(name, layer)
        entry, start, end, exit_, parent, case, nids = (
            self.entry, self.start, self.end, self.exit, self.parent, self.case, self.nid)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = clock()
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            case.append(self.case_id)
            nids.append(nid)
            entry.append(t_in)
            end.append(0.0)
            exit_.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = exit_[sid] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(sid, args, kwargs, result)
            exit_[sid] = clock()
            return result

        return wrapper

    def calibrate(self, calls: int = 20000, repeats: int = 5):
        """Measure the wrapper cost no clock sees, on a no-op function.

        A loop calls the no-op `calls` times untraced (D seconds) and then
        through a wrapper inside a traced loop span. The no-op's untraced
        share is taken as D / calls; `span_cost` is what a traced span adds to
        that, `call_cost` what the loop span keeps beyond its children's
        entry-to-return intervals. Subtracting both makes the self times of
        the probe sum to D. Medians over `repeats` rounds.
        """
        def noop(x):
            return x

        def loop(f, n):
            for _ in range(n):
                f(1)

        clock = time.perf_counter
        span_costs, call_costs = [], []
        for _ in range(repeats):
            t0 = clock()
            loop(noop, calls)
            direct = clock() - t0
            probe = Tracer()
            probe._wrap("calibrate", "cli", loop)(probe._wrap("noop", "cli", noop), calls)
            dur = np.array(probe.end) - np.array(probe.start)
            outer = np.array(probe.exit) - np.array(probe.entry)
            span_costs.append((dur[1:].sum() - direct) / calls)
            call_costs.append((dur[0] - outer[1:].sum()) / calls)
        self.span_cost = statistics.median(span_costs)
        self.call_cost = statistics.median(call_costs)

    # -- per-function hooks (counters measured where the work happens) -------

    def _kernel_bytes(self, sid, args, kwargs, result):
        # computed from array sizes: operands read plus result written
        self.bytes_computed += args[0].nbytes + args[1].nbytes + result.nbytes

    def _pair_residual(self, sid, args, kwargs, result):
        level = self._level.setdefault(self.parent[sid], [0, 0.0])
        level[0] += 1
        level[1] += float(np.vdot(result, result).real)

    def _gbm_branches(self, sid, args, kwargs, result):
        self._close_level(sid)
        self.outcomes_kept += sum(1 for br in result if not br.null)

    def _gbm_sample(self, sid, args, kwargs, result):
        mass = self._close_level(sid)
        self.outcomes_kept += 0 if result.null else 1
        for open_sid in reversed(self.stack):
            if self.nid[open_sid] in self._run_nids:
                self._run_mass[open_sid] = self._run_mass.get(open_sid, 1.0) * mass
                break

    def _close_level(self, sid) -> float:
        outcomes, mass = self._level.pop(sid, (0, 0.0))
        self.outcomes_computed += outcomes
        return mass

    def _plan_run(self, sid, args, kwargs, result):
        sampled_mass = self._run_mass.pop(sid, 1.0)
        if isinstance(result, list):  # run_telecloning, all branches
            leaves = result
        elif isinstance(result[0], list):  # (branches, coverage)
            leaves = result[0]
        else:  # one sampled (state, transcript)
            self.leaves += 1
            self.explored_masses.append(sampled_mass)
            return
        self.leaves += len(leaves)
        self.explored_masses.append(sum(t.branch_probability for _, t in leaves))

    def _unlock(self, sid, args, kwargs, result):
        mode = kwargs.get("mode", args[2] if len(args) > 2 else "all-branches")
        if mode == "all-branches":
            self.explored_masses.append(sum(r.probability for r in result))

    def _channel_build(self, sid, args, kwargs, result):
        p = self.parent[sid]
        if p < 0 or self.names[self.nid[p]].split(".")[0] != "channels":
            self.channel_builds += 1

    def _hooks(self):
        hooks = {
            "kernels.apply_single": self._kernel_bytes,
            "kernels.project_pair": self._kernel_bytes,
            "statealg.project_pair": self._pair_residual,
            "measurement.gbm_branches": self._gbm_branches,
            "measurement.gbm_sample": self._gbm_sample,
            "analysis.unlock_ubes": self._unlock,
        }
        hooks.update({name: self._plan_run for name in PLAN_RUNS})
        hooks.update({f"channels.{name}": self._channel_build for name in CHANNEL_BUILDERS})
        return hooks

    # -- install / uninstall -------------------------------------------------

    def _patch(self, target, key, value):
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, target.__dict__[key]))
            setattr(target, key, value)

    def install(self, package: str = "qric"):
        """Calibrate, wrap the layer functions and rebind them at every lookup site."""
        self.calibrate()
        hooks = self._hooks()
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            names_of = {}
            for name, obj in vars(mod).items():
                if not name.startswith("_") and _traceable(obj, mod.__name__):
                    names_of.setdefault(id(obj), (obj, []))[1].append(name)
            for obj, names in names_of.values():
                qual = f"{layer}.{min(names, key=len)}"  # apply_single over apply_single_numpy
                wrappers[id(obj)] = (obj, self._wrap(qual, layer, obj, hooks.get(qual)))
        self._run_nids = {i for i, n in enumerate(self.names) if n in PLAN_RUNS}

        cli = sys.modules[f"{package}.cli"]
        wrappers[id(cli._emit)] = (cli._emit, self._wrap("cli._emit", "cli", cli._emit))
        statealg = sys.modules[f"{package}.statealg"]
        for cls in (statealg.PureState, statealg.DensityOperator):
            init = cls.__dict__["__init__"]
            self._patch(cls, "__init__", self._wrap(f"statealg.{cls.__name__}", "statealg", init))

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod in modules:
            for name, val in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, name, hit[1])
                elif isinstance(val, dict):
                    for key, entry in list(val.items()):
                        hit = wrappers.get(id(entry))
                        if hit is not None and hit[0] is entry:
                            self._patch(val, key, hit[1])

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def self_times(self):
        """(per-span self seconds, per-span name id, per-span duration) as numpy arrays."""
        entry = np.array(self.entry, dtype=np.float64)
        start = np.array(self.start, dtype=np.float64)
        dur = np.array(self.end, dtype=np.float64) - start
        outer = np.array(self.exit, dtype=np.float64) - entry
        parent = np.array(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=outer[has_parent],
                              minlength=len(dur))
        children = np.bincount(parent[has_parent], minlength=len(dur))
        own = dur - covered - self.span_cost - children * self.call_cost
        return own, np.array(self.nid, dtype=np.int64), dur

    def layer_metrics(self) -> dict:
        own, nid, dur = self.self_times()
        n_names = len(self.names)
        by_name = np.bincount(nid, weights=own, minlength=n_names)
        calls = np.bincount(nid, minlength=n_names)
        total_by_name = np.bincount(nid, weights=dur, minlength=n_names)
        by_layer = np.bincount(np.asarray(self.name_layer, dtype=np.int64), weights=by_name,
                               minlength=len(LAYERS))
        index = {name: i for i, name in enumerate(self.names)}

        def per_name(name, arr):
            i = index.get(name)
            return float(arr[i]) if i is not None else 0.0

        out = {f"{layer}.self_ms": float(by_layer[i]) * 1e3 for i, layer in enumerate(LAYERS)}
        for fn in ANALYSIS_FUNCTIONS:
            out[f"analysis.{fn}.self_ms"] = per_name(f"analysis.{fn}", by_name) * 1e3
        out["statealg.partial_trace.self_ms"] = per_name("statealg.partial_trace", by_name) * 1e3
        out["cli.encode_ms"] = per_name("cli._emit", total_by_name) * 1e3
        for name in ("kernels.project_pair", "kernels.apply_single",
                     "opsbasis.bell_vector", "opsbasis.omega_power"):
            out[f"{name}.calls"] = int(per_name(name, calls))
        out["statealg.states_built"] = int(per_name("statealg.PureState", calls)
                                           + per_name("statealg.DensityOperator", calls))
        out["kernels.bytes_computed"] = int(self.bytes_computed)
        out["measurement.outcomes_computed"] = int(self.outcomes_computed)
        out["measurement.useful_ratio"] = (self.outcomes_kept / self.outcomes_computed
                                           if self.outcomes_computed else 0.0)
        out["protocols.leaves"] = int(self.leaves)
        out["protocols.explored_mass_min"] = (min(self.explored_masses)
                                              if self.explored_masses else 0.0)
        out["channels.builds"] = int(self.channel_builds)
        return out

    def dump(self, path: str):
        """Write every span to an .npz file (one array per span field)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.array(self.nid, dtype=np.int64),
            entry=np.array(self.entry, dtype=np.float64),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            exit=np.array(self.exit, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int64),
            case=np.array(self.case, dtype=np.int64),
        )
