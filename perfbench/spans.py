"""Benchmark-side tracing: spans around the calls into each hjlab layer.

:class:`Tracer` wraps every public function of the hjlab modules and the
``PotentialField`` / ``PaceCurve`` evaluation methods, rebinding each name
wherever a hjlab module imported it, and records one span per call:
(name, start, end, parent, error, info).  Nothing inside ``src/`` changes;
the wrappers are removed again after each traced iteration.

A span's layer is the module that defines the function, except that the
``PotentialField`` methods (defined in ``hjlab.core``) count as the
``potentials`` layer.  Counters in ``info`` (cells, cell-offsets, bytes) are
computed from the arguments and returned arrays, not measured.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

import numpy as np

MODULES = ("core", "potentials", "minimizer", "laxoleinik", "experiments", "reports")
METHODS = (("core", "PotentialField", ("value", "grad", "time_slice")),
           ("potentials", "PaceCurve", ("value",)))
# per-layer metrics derived from grid sizes and array shapes, not measured
COMPUTED = {"minimizer.dp_cells": "computed", "minimizer.dp_cell_offsets": "computed",
            "minimizer.offsets_bytes": "computed",
            "laxoleinik.batched_cell_offsets": "computed",
            "laxoleinik.kernel_bytes": "computed",
            "minimizer.dp_ns_per_cell_offset": "per computed count",
            "laxoleinik.batched_ns_per_cell_offset": "per computed count"}


def _dp_info(args, kwargs, table):
    grid = table.grid
    width = (grid.window.width() if grid.window is not None
             else np.full(grid.n_steps + 1, grid.n_x))
    offsets = getattr(table, "offsets", None) or []
    return {"cells": int(width.sum()),
            "cell_offsets": int(width[1:].sum()) * (2 * grid.stencil + 1),
            "offsets_bytes": int(sum(o.nbytes for o in offsets))}


def _batched_info(args, kwargs, values):
    grid = args[1]
    rows = np.shape(args[2])[0]
    return {"cell_offsets": rows * grid.n_x * grid.n_steps * (2 * grid.stencil + 1)}


INFO = {
    "minimizer.solve_dp": _dp_info,
    "minimizer.solve_dp_batched": _batched_info,
    "laxoleinik.kernel": lambda a, k, out: {"bytes": int(out.entries.nbytes)},
    "reports.emit": lambda a, k, out: {
        "bytes": sum(os.path.getsize(p) for p in out.values())},
}


class Tracer:
    """In-memory span recorder; ``install`` wraps, ``remove`` restores.

    Spans are kept column-wise in flat lists of names and floats, so that
    recording adds no objects for the garbage collector to traverse."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.errors, self.info = {}, {}      # span index -> value
        self._stack = []
        self._patches = []                   # (owner, attribute, original)

    def spans(self) -> list:
        """(name, start, end, parent, error, info) per span, in call order."""
        return [(n, s, e, p, self.errors.get(i), self.info.get(i))
                for i, (n, s, e, p) in enumerate(
                    zip(self.names, self.starts, self.ends, self.parents))]

    def _wrap(self, name, fn, info=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[i] = type(exc).__name__
                raise
            finally:
                ends[i] = time.perf_counter()
                stack.pop()
            if info is not None:
                self.info[i] = info(args, kwargs, out)
            return out

        return traced

    def _wrap_slice(self, fn):
        """``time_slice`` returns an evaluator; trace the evaluator's calls too."""
        outer = self._wrap("potentials.PotentialField.time_slice", fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._wrap("potentials.slice_eval", outer(*args, **kwargs))

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {m: sys.modules[f"hjlab.{m}"] for m in MODULES}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj, INFO.get(name)))
        # rebind each wrapped function wherever a hjlab module bound it
        for modname, mod in list(sys.modules.items()):
            if modname != "hjlab" and not modname.startswith("hjlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)][1])
        for layer, cls_name, methods in METHODS:
            cls = getattr(mods[layer], cls_name)
            for meth in methods:
                orig = cls.__dict__[meth]
                wrapped = (self._wrap_slice(orig) if meth == "time_slice" else
                           self._wrap(f"potentials.{cls_name}.{meth}", orig))
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, wrapped)

    def remove(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def clear(self):
        for column in (self.names, self.starts, self.ends, self.parents,
                       self.errors, self.info):
            column.clear()


def _total(spans, name):
    sel = [s for s in spans if s[0] == name]
    return len(sel), sum(s[2] - s[1] for s in sel)


def _counter(spans, name, key):
    return sum(s[5][key] for s in spans if s[0] == name and s[5])


def layer_metrics(spans, wall, out) -> dict:
    """Per-layer counts, busy and self seconds, computed counters, and the
    remainder of ``wall`` that no span covers, for one traced iteration
    whose workload output is ``out`` (None when it raised)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    self_s = {layer: 0.0 for layer in MODULES}
    for s, c in zip(spans, child):
        self_s[s[0].split(".", 1)[0]] += (s[2] - s[1]) - c
    roots = [s for s in spans if s[3] < 0]

    m = {}
    for metric, span in (("potentials.pace_value", "potentials.PaceCurve.value"),
                         ("potentials.value", "potentials.PotentialField.value"),
                         ("potentials.grad", "potentials.PotentialField.grad"),
                         ("potentials.slice", "potentials.slice_eval"),
                         ("core.action", "core.action"),
                         ("minimizer.solve_dp", "minimizer.solve_dp"),
                         ("minimizer.backtrack", "minimizer.backtrack"),
                         ("minimizer.refine", "minimizer.refine"),
                         ("minimizer.newton_polish", "minimizer.newton_polish"),
                         ("laxoleinik.kernel", "laxoleinik.kernel"),
                         ("laxoleinik.compose", "laxoleinik.minplus_compose"),
                         ("laxoleinik.apply", "laxoleinik.minplus_apply")):
        m[f"{metric}_calls"], m[f"{metric}_s"] = _total(spans, span)

    m["minimizer.dp_cells"] = _counter(spans, "minimizer.solve_dp", "cells")
    m["minimizer.dp_cell_offsets"] = _counter(spans, "minimizer.solve_dp", "cell_offsets")
    m["minimizer.dp_ns_per_cell_offset"] = (
        1e9 * m["minimizer.solve_dp_s"] / m["minimizer.dp_cell_offsets"]
        if m["minimizer.dp_cell_offsets"] else 0.0)
    m["minimizer.offsets_bytes"] = _counter(spans, "minimizer.solve_dp", "offsets_bytes")

    _, m["laxoleinik.dp_batched_s"] = _total(spans, "minimizer.solve_dp_batched")
    m["laxoleinik.batched_cell_offsets"] = _counter(
        spans, "minimizer.solve_dp_batched", "cell_offsets")
    m["laxoleinik.batched_ns_per_cell_offset"] = (
        1e9 * m["laxoleinik.dp_batched_s"] / m["laxoleinik.batched_cell_offsets"]
        if m["laxoleinik.batched_cell_offsets"] else 0.0)
    m["laxoleinik.kernel_bytes"] = _counter(spans, "laxoleinik.kernel", "bytes")

    m["experiments.run_s"] = sum(s[2] - s[1] for s in roots
                                 if s[0].startswith("experiments."))
    walls = getattr((out or {}).get("report"), "wall_times", None) or {}
    m["experiments.horizon_max_s"] = max(walls.values(), default=0.0)
    m["experiments.window_retries"] = sum(
        1 for s in spans
        if s[0] == "minimizer.backtrack" and s[4] == "WindowTouchError")

    m["reports.emit_s"] = _total(spans, "reports.emit")[1]
    m["reports.bytes_written"] = _counter(spans, "reports.emit", "bytes")

    for layer, v in self_s.items():
        m[f"{layer}.self_s"] = v
    m["trace.unattributed_s"] = wall - sum(s[2] - s[1] for s in roots)
    return m
