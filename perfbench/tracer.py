"""In-memory span tracer wrapped around fluoinv's public function boundaries.

`Tracer.install()` replaces every public module-level function and every
public method of a public class in the layer modules with a timing wrapper,
at each module attribute where callers look it up (``from .fit import
solve_data_fit`` makes ``fluoinv.cli.solve_data_fit`` a second binding, and
both are rebound).  ``scipy.sparse.linalg.splu`` is replaced by a proxy that
times the factorization and returns a factor whose ``solve`` is timed.
Nothing in the package itself changes.

Spans sit at those boundaries only.  Work a layer does through private
helpers (``forward._march``, ``inverse._iterate``) is self time of the
public call that reached it; code that routes around a public function
is invisible to this tracer and must say so.

A span is (id, name, layer, start, end, parent, cpu), where cpu is the
CPU time of the calling thread inside the span.  Spans are kept in memory
and handed to run.py, which writes them out once with
`write_spans`.  A span opened on a worker thread with
no open span of its own is attributed to the innermost open span of the
main thread, which is the call that started the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from pathlib import Path

LAYERS = ("grid", "forward", "fit", "inverse", "stochastic", "metrics", "io", "cli")

# Per-value CSV formatter, called once per number written: an inner loop of
# write_csv, not a layer boundary.
SKIPPED = {"fluoinv.io.fmt"}

# Counters read from the objects that public calls return:
# function -> (counter, amount taken from the return value).
COUNTERS = {
    "fluoinv.fit.solve_data_fit": ("fit.cg_iterations", lambda r: r.report.iterations),
    "fluoinv.fit.self_consistent_lambda": ("fit.lambda_passes",
                                           lambda r: r[2].outer_iterations),
    "fluoinv.inverse.fixed_point_solve": ("inverse.fp_iterations", lambda r: r[1].iterations),
    "fluoinv.inverse.noisy_fixed_point_solve": ("inverse.fp_iterations",
                                                lambda r: r[1].iterations),
    "fluoinv.stochastic.expectation_experiment": ("stochastic.trials",
                                                  lambda r: sum(rec.trials for rec in r)),
    "fluoinv.forward.solve_excitation": ("forward.levels_bytes", lambda r: r.levels.nbytes),
    "fluoinv.forward.solve_emission": ("forward.levels_bytes", lambda r: r.levels.nbytes),
    "fluoinv.io.write_csv": ("io.bytes_written", lambda r: Path(r).stat().st_size),
    "fluoinv.io.Manifest.write": ("io.bytes_written", lambda r: Path(r).stat().st_size),
}


class _TimedFactor:
    """A SuperLU factor whose solves are traced; other attributes pass through."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _count(self, counter, result) -> None:
        key, amount = counter
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount(result)

    def wrap(self, layer: str, name: str, fn, counter=None):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        main_stack = self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            sid = next(ids)
            stack.append(sid)
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu
                stack.pop()
                spans.append((sid, name, layer, start, end, parent, cpu))
            if counter is not None:
                self._count(counter, result)
            return result

        return traced

    # ------------------------------------------------------------ install

    def install(self) -> None:
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"fluoinv.{layer}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{mod.__name__}.{name}"
                if inspect.isfunction(obj) and qual not in SKIPPED:
                    replaced[obj] = self.wrap(layer, f"{layer}.{name}", obj, COUNTERS.get(qual))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        setattr(obj, meth, self.wrap(layer, f"{layer}.{name}.{meth}", fn,
                                                     COUNTERS.get(f"{qual}.{meth}")))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fluoinv" and not mod_name.startswith("fluoinv."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

        import scipy.sparse.linalg as spla

        splu = spla.splu

        def factor(*args, **kwargs):
            lu = splu(*args, **kwargs)
            return _TimedFactor(lu, self.wrap("grid", "grid.SuperLU.solve", lu.solve))

        spla.splu = self.wrap("grid", "grid.splu", factor)



def write_spans(path: Path, runs) -> None:
    """Write (run id, spans) pairs as one JSON object per span and line."""
    with open(path, "w") as fh:
        for run_id, spans in runs:
            for sid, name, layer, start, end, parent, cpu in spans:
                fh.write(json.dumps({"run": run_id, "id": sid, "name": name,
                                     "layer": layer, "start": start, "end": end,
                                     "parent": parent, "cpu": cpu}) + "\n")


def _covered(interval, children) -> float:
    """Length of the part of `interval` that the child intervals cover."""
    lo, hi = interval
    total, cur_lo, cur_hi = 0.0, None, None
    for c_lo, c_hi in sorted(children):
        c_lo, c_hi = max(c_lo, lo), min(c_hi, hi)
        if c_hi <= c_lo:
            continue
        if cur_hi is None or c_lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = c_lo, c_hi
        else:
            cur_hi = max(cur_hi, c_hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans, counters) -> dict[str, float]:
    """Per-layer calls, busy time and self time, plus the named counters.

    A layer's calls and busy time count its entry spans, those whose parent
    belongs to another layer.  Self time is a span's duration minus the part
    of it its child spans cover, summed over the layer's spans.  Span ids
    must be unique across `spans`, which may come from several processes.
    """
    by_id = {s[0]: s for s in spans}
    children: dict[int, list] = {}
    child_cpu: dict[int, float] = {}
    for s in spans:
        if s[5] is not None:
            children.setdefault(s[5], []).append((s[3], s[4]))
            child_cpu[s[5]] = child_cpu.get(s[5], 0.0) + s[6]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.busy_s"] = 0.0
        out[f"{layer}.self_s"] = 0.0
    for sid, _name, layer, start, end, parent, _cpu in spans:
        dur = end - start
        out[f"{layer}.self_s"] += dur - _covered((start, end), children.get(sid, ()))
        if parent is None or by_id[parent][2] != layer:
            out[f"{layer}.calls"] += 1
            out[f"{layer}.busy_s"] += dur

    def named(name):
        return [s for s in spans if s[1] == name]

    splu, solves = named("grid.splu"), named("grid.SuperLU.solve")
    out["grid.factorizations"] = len(splu)
    out["grid.splu_s"] = sum(s[4] - s[3] for s in splu)
    out["grid.solves"] = len(solves)
    out["grid.solve_s"] = sum(s[4] - s[3] for s in solves)
    out["grid.solves_per_factorization"] = len(solves) / max(len(splu), 1)

    # Trials started by expectation_experiment: how many were in flight on
    # average, and how many threads were executing (CPU time, which excludes
    # waiting for the interpreter lock or the other trial).
    experiments = named("stochastic.expectation_experiment")
    wall = sum(s[4] - s[3] for s in experiments)
    in_flight = sum(e - b for s in experiments for b, e in children.get(s[0], ()))
    executing = sum(child_cpu.get(s[0], 0.0) for s in experiments)
    out["stochastic.in_flight"] = in_flight / wall if wall > 0 else 0.0
    out["stochastic.concurrency"] = executing / wall if wall > 0 else 0.0

    for key in ("fit.cg_iterations", "fit.lambda_passes", "inverse.fp_iterations",
                "stochastic.trials", "forward.levels_bytes", "io.bytes_written"):
        out[key] = counters.get(key, 0)
    out["trace.spans"] = len(spans)
    return out
