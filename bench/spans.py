"""Span recorder for the traced benchmark run.

The recorder wraps public wrapkit functions from outside the package.  Each
wrapped call records a span (name, start, end, parent span, thread) plus
optional counts; spans stay in memory and are written out once, at the end
of the run.  A layer's self time is its span's duration minus the part of
that interval covered by its child spans.

Installation rules, which the wrapping must follow to see every call:

* wrapkit modules bind each other's functions with ``from .x import y``, so a
  wrapper replaces the original object in *every* ``wrapkit*`` module
  namespace that holds it, not only in the defining module;
* methods are wrapped on the class, so every instance and every module sees
  them; ``CentralFunction.__call__`` is a separate alias of ``evaluate`` and
  gets its own wrapper under the same span name.

Worker threads (the Monte Carlo chunk pool) have their own span stacks; a
span opened on a thread with an empty stack takes the main thread's open
span as its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
from time import perf_counter, process_time

from plans import CATALOG

# (defining module, function name); the span is named "<module>.<name>"
FUNCTIONS = (
    ("groups", "make_group"),
    ("groups", "enumerate_weights"),
    ("groups", "lattice_points"),
    ("groups", "j_compact"),
    ("groups", "cell_grid"),
    ("wrapping", "auto_cutoff"),
    ("wrapping", "wrap_spectral"),
    ("wrapping", "wrap_lattice"),
    ("wrapping", "fourier_coefficients"),
    ("heat", "heat_coefficients"),
    ("heat", "auto_kernel"),
    ("heat", "semigroup_gap"),
    ("brownian", "wrap_bm_check"),
    ("brownian", "mc_expect_central"),
    ("brownian", "empirical_density_table"),
    ("cli", "main"),
)

# (defining module, class, method, span name)
METHODS = (
    ("groups", "CharacterTable", "values", "groups.CharacterTable.values"),
    ("wrapping", "RadialFunction", "__init__", "wrapping.RadialFunction"),
    ("wrapping", "CentralFunction", "evaluate",
     "wrapping.CentralFunction.evaluate"),
    ("wrapping", "CentralFunction", "__call__",
     "wrapping.CentralFunction.evaluate"),
)

# spans whose process CPU time is recorded, for brownian.cpu_per_wall
_CPU_SPANS = {"brownian.wrap_bm_check", "brownian.empirical_density_table"}


def _size(value) -> int:
    return int(getattr(value, "size", 1))


def _path_work(bound, result):
    cfg = bound.arguments["cfg"]
    return {"path_steps": cfg.paths * cfg.n_steps, "group": cfg.group.name}


# per-span counters: fn(bound arguments or None, result) -> dict
_COUNTERS = {
    "groups.enumerate_weights": (
        True, lambda b, r: {"weights": len(r), "cutoff": float(b.arguments["cutoff"])}),
    "groups.lattice_points": (False, lambda b, r: {"terms": len(r)}),
    "groups.cell_grid": (False, lambda b, r: {"points": len(r)}),
    "groups.CharacterTable.values": (False, lambda b, r: {"weight_points": _size(r)}),
    "wrapping.CentralFunction.evaluate": (False, lambda b, r: {"points": _size(r)}),
    "wrapping.auto_cutoff": (
        True, lambda b, r: {"cutoff": float(r), "group": b.arguments["g"].name}),
    "heat.auto_kernel": (False, lambda b, r: {"wrapped": int(r[1] == "wrapped")}),
    "brownian.mc_expect_central": (True, _path_work),
    "brownian.empirical_density_table": (True, _path_work),
    "brownian.wrap_bm_check": (
        True, lambda b, r: {"flat_samples": b.arguments["cfg"].paths * b.arguments["g"].dim}),
}


class Recorder:
    """In-memory span store.  ``enabled`` lets the caller pause recording
    (wrappers then call straight through)."""

    def __init__(self):
        self.enabled = True
        self.spans = []          # [name, start, end, parent, thread, counts]
        self._local = threading.local()
        self._main_stack = []
        self._lock = threading.Lock()

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span = [name, perf_counter(), None, parent, threading.get_ident(), None]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return idx, stack

    def close(self, idx: int, stack) -> None:
        self.spans[idx][2] = perf_counter()
        stack.pop()

    def reset(self) -> None:
        with self._lock:
            self.spans = []

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, thread, counts) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread, "counts": counts,
                }) + "\n")

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children = [[] for _ in self.spans]
        for i, span in enumerate(self.spans):
            if span[3] is not None:
                children[span[3]].append(i)
        out = []
        for i, (_, start, end, *_rest) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for lo, hi in sorted((self.spans[c][1], self.spans[c][2])
                                 for c in children[i]):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out


def _wrap(rec: Recorder, name: str, fn):
    wants_args, counter = _COUNTERS.get(name, (False, None))
    sig = inspect.signature(fn) if wants_args else None
    timed_cpu = name in _CPU_SPANS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        cpu0 = process_time() if timed_cpu else 0.0
        idx, stack = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx, stack)
        counts = None
        if counter is not None:
            bound = sig.bind(*args, **kwargs) if sig is not None else None
            counts = counter(bound, result)
        if timed_cpu:
            counts = dict(counts or {}, cpu_s=process_time() - cpu0)
        rec.spans[idx][5] = counts
        return result

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every listed function and method in every wrapkit namespace that
    holds it."""
    for modname in {m for m, *_ in FUNCTIONS + METHODS}:
        importlib.import_module(f"wrapkit.{modname}")
    namespaces = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "wrapkit" or n.startswith("wrapkit."))]
    for modname, fname in FUNCTIONS:
        original = getattr(sys.modules[f"wrapkit.{modname}"], fname)
        wrapped = _wrap(rec, f"{modname}.{fname}", original)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, wrapped)
    for modname, cls_name, meth, span in METHODS:
        cls = getattr(sys.modules[f"wrapkit.{modname}"], cls_name)
        setattr(cls, meth, _wrap(rec, span, cls.__dict__[meth]))

# spans reported as "<name>.calls" and "<name>.self_s"
_CALLS = ("groups.enumerate_weights", "groups.lattice_points",
          "wrapping.RadialFunction", "wrapping.auto_cutoff",
          "wrapping.wrap_lattice", "wrapping.fourier_coefficients",
          "heat.heat_coefficients", "heat.auto_kernel", "cli.main")
_SELF = ("groups.make_group", "groups.enumerate_weights",
         "groups.CharacterTable.values", "groups.lattice_points",
         "groups.j_compact", "wrapping.RadialFunction", "wrapping.auto_cutoff",
         "wrapping.wrap_spectral", "wrapping.wrap_lattice",
         "wrapping.CentralFunction.evaluate", "wrapping.fourier_coefficients",
         "heat.auto_kernel", "heat.semigroup_gap", "brownian.wrap_bm_check",
         "brownian.mc_expect_central", "brownian.empirical_density_table",
         "cli.main")
_PATH_SPANS = ("brownian.mc_expect_central", "brownian.empirical_density_table")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, passes: int, count_weights) -> dict:
    """Per-layer metrics from the recorded spans, as totals per pass of the
    task list.  ``count_weights(group_name, cutoff)`` counts the weights
    under a cutoff without tracing; it is used only when auto_cutoff did not
    itself enumerate at the cutoff it returned."""
    spans = rec.spans
    own = rec.self_times()
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] is not None:
            children[s[3]].append(i)
    calls, self_s, counts = {}, {}, {}
    for i, (name, start, end, parent, thread, c) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        for key, value in (c or {}).items():
            if isinstance(value, (int, float)):
                counts[(name, key)] = counts.get((name, key), 0) + value

    def count(name, key):
        return counts.get((name, key), 0)

    useful = produced = 0
    hits = 0
    grid_points = 0
    cpu = wall = 0.0
    steps = {g: 0 for g in CATALOG}
    step_time = {g: 0.0 for g in CATALOG}
    for i, (name, start, end, parent, thread, c) in enumerate(spans):
        if name == "wrapping.auto_cutoff":
            kids = [spans[k] for k in children[i]
                    if spans[k][0] == "groups.enumerate_weights"]
            produced += sum(k[5]["weights"] for k in kids)
            at_cut = [k[5]["weights"] for k in kids if k[5]["cutoff"] == c["cutoff"]]
            useful += at_cut[-1] if at_cut else count_weights(c["group"], c["cutoff"])
        elif name == "heat.heat_coefficients":
            hits += not children[i]
        elif name == "groups.cell_grid":
            if parent is not None and spans[parent][0] == "wrapping.fourier_coefficients":
                grid_points += c["points"]
        elif name in _PATH_SPANS:
            steps[c["group"]] += c["path_steps"]
            step_time[c["group"]] += own[i]
        if name in _CPU_SPANS:
            cpu += c["cpu_s"]
            wall += end - start

    out = {}
    for name in _CALLS:
        out[f"{name}.calls"] = calls.get(name, 0) / passes
    for name in _SELF:
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / passes
    out["groups.enumerate_weights.weights"] = count("groups.enumerate_weights", "weights") / passes
    out["groups.CharacterTable.values.weight_points"] = (
        count("groups.CharacterTable.values", "weight_points") / passes)
    out["groups.lattice_points.terms"] = count("groups.lattice_points", "terms") / passes
    out["wrapping.auto_cutoff.useful_weight_ratio"] = _ratio(useful, produced)
    out["wrapping.CentralFunction.evaluate.points"] = (
        count("wrapping.CentralFunction.evaluate", "points") / passes)
    out["wrapping.fourier_coefficients.grid_points"] = grid_points / passes
    out["heat.heat_coefficients.cache_hit_ratio"] = _ratio(
        hits, calls.get("heat.heat_coefficients", 0))
    out["heat.auto_kernel.wrapped_share"] = _ratio(
        count("heat.auto_kernel", "wrapped"), calls.get("heat.auto_kernel", 0))
    out["brownian.path_steps"] = sum(steps.values()) / passes
    out["brownian.flat_samples"] = count("brownian.wrap_bm_check", "flat_samples") / passes
    for g in CATALOG:
        out[f"brownian.ns_per_path_step.{g}"] = 1e9 * _ratio(step_time[g], steps[g])
    out["brownian.cpu_per_wall"] = _ratio(cpu, wall)
    return out
