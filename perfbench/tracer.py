"""Per-layer spans around the public functions of each ``speclab`` module.

The layers are the package's modules.  ``Tracer.install`` replaces every
public function of a layer at every module attribute that holds it, so a
call through a name bound by ``from .x import y`` (for instance
``speclab.hamiltonian.counts_for_diagonals``) is traced as well as a call
through the defining module.  Public methods of the layer's classes are
wrapped on the class and open a span only when called from another layer
(``cli`` calling ``RecurrenceSolution.max_interior_residual``, say), so
their time is charged to the right layer without a span per inner call.
Nothing under ``src/`` changes.

A span records its layer, function, query id, parent span, start and end,
and work counts taken from the call's arguments and return value.  A
span's self time is its duration minus the part of it covered by child
spans.  Spans are kept in memory for the current query only and folded
into running totals when it ends.

Sweep points run in forked ``Pool`` workers, which inherit the wrapped
functions and the open query.  The pool task function is wrapped too: in
a worker it folds the spans of each task and appends the totals, the task
interval and the task's own cli time as one JSON line to a spool file,
which the client reads back after ``run()`` returns.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import Counter

import numpy as np

import speclab
import speclab.cli
import speclab.coupling
import speclab.hamiltonian
import speclab.jacobi_ops
import speclab.recurrence
import speclab.tridiag

LAYERS = ("cli", "coupling", "tridiag", "jacobi_ops", "recurrence", "hamiltonian")

_MODULES = {
    "cli": speclab.cli,
    "coupling": speclab.coupling,
    "tridiag": speclab.tridiag,
    "jacobi_ops": speclab.jacobi_ops,
    "recurrence": speclab.recurrence,
    "hamiltonian": speclab.hamiltonian,
}

_BINDING_SITES = (speclab, *_MODULES.values())


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _levels(value) -> int:
    return int(np.atleast_1d(np.asarray(value)).size)


# Work counts per traced function: (args, kwargs, result, parent layer) -> counts.
def _count_diagonals(args, kwargs, result, parent):
    k, n = np.shape(_arg(args, kwargs, 0, "diags"))
    return _pivots(k, n, parent)


def _count_below(args, kwargs, result, parent):
    return _pivots(1, _arg(args, kwargs, 0, "t").size, parent)


def _count_batch(args, kwargs, result, parent):
    t = _arg(args, kwargs, 0, "t")
    return _pivots(_levels(_arg(args, kwargs, 1, "levels")), t.size, parent)


# Level batches wider than this take the column kernel in speclab.tridiag.
SCALAR_BATCH_LIMIT = 8


def _pivots(levels: int, rows: int, parent: str | None) -> dict:
    counts = {
        "tridiag.pivot_rows": levels * rows,
        "tridiag.levels": levels,
        "tridiag.count_calls": 1,
    }
    if levels > SCALAR_BATCH_LIMIT:
        counts["tridiag.column_pivot_rows"] = levels * rows
    if parent == "hamiltonian":
        counts["hamiltonian.sturm_levels"] = levels
    return counts


def _count_build(args, kwargs, result, parent):
    return {"jacobi_ops.build_rows": result.size}


def _count_spectral(args, kwargs, result, parent):
    k, n = np.shape(result)
    return {"jacobi_ops.build_rows": k * n}


def _count_stable(args, kwargs, result, parent):
    sizes = [size for size, _ in result.history]
    return {
        "jacobi_ops.doublings": len(sizes) - 1,
        "jacobi_ops.final_rows": result.size,
        "jacobi_ops.doubling_rows": sum(sizes),
    }


def _count_solution(args, kwargs, result, parent):
    return {"recurrence.rows": result.length}


def _count_secular(args, kwargs, result, parent):
    return {"hamiltonian.secular_evals": 1} if parent == "hamiltonian" else {}


def _count_h_spectrum(args, kwargs, result, parent):
    return {
        "hamiltonian.eigenvalues": result.count,
        "hamiltonian.spectra": 1,
        "hamiltonian.truncation_total": result.truncation_size,
    }


def _count_forms(args, kwargs, result, parent):
    return {"hamiltonian.form_evals": 1}


_COUNTERS = {
    ("tridiag", "counts_for_diagonals"): _count_diagonals,
    ("tridiag", "sturm_count_below"): _count_below,
    ("tridiag", "sturm_counts"): _count_batch,
    ("jacobi_ops", "build"): _count_build,
    ("jacobi_ops", "spectral_diagonals"): _count_spectral,
    ("jacobi_ops", "stable_count"): _count_stable,
    ("recurrence", "iterate_forward"): _count_solution,
    ("recurrence", "minimal_solution_backward"): _count_solution,
    ("recurrence", "secular_function"): _count_secular,
    ("hamiltonian", "h_eigenvalues_below_threshold"): _count_h_spectrum,
    ("hamiltonian", "evaluate_forms"): _count_forms,
}


class Span:
    __slots__ = ("id", "parent", "parent_layer", "query", "layer", "name",
                 "start", "end", "counts")

    def __init__(self, sid, parent, parent_layer, query, layer, name, start):
        self.id = sid
        self.parent = parent
        self.parent_layer = parent_layer
        self.query = query
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.counts = None


def covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def fold(spans, totals: Counter, extra_children=None) -> None:
    """Add the calls, self time and work counts of ``spans`` to ``totals``.

    ``extra_children`` maps a span id to further child intervals, such as
    the pool tasks run for that span in other processes.
    """
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    for sid, intervals in (extra_children or {}).items():
        children.setdefault(sid, []).extend(intervals)
    for s in spans:
        own = (s.end - s.start) - covered(children.get(s.id, ()), s.start, s.end)
        totals[f"{s.layer}.calls"] += 1
        totals[f"{s.layer}.self_s"] += own
        if s.counts:
            totals.update(s.counts)


class Tracer:
    """Records spans for one query at a time and keeps running totals."""

    def __init__(self, spool_dir: str) -> None:
        self.spool_dir = spool_dir
        self.pid = os.getpid()
        self.totals: Counter = Counter()
        self.query = None
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        self._seq = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer, module in _MODULES.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj):
                    for attr, method in list(vars(obj).items()):
                        if inspect.isfunction(method) and not attr.startswith("_"):
                            self._patched.append((obj, attr, method))
                            setattr(obj, attr, self._wrap(
                                layer, f"{name}.{attr}", method, cross_layer_only=True
                            ))
        task = speclab.cli._run_task
        wrappers[task] = self._wrap_task(task)
        for module in _BINDING_SITES:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, name, value))
                    setattr(module, name, wrappers[value])

    def uninstall(self) -> None:
        for module, name, value in reversed(self._patched):
            setattr(module, name, value)
        self._patched.clear()

    def _wrap(self, layer: str, name: str, fn, cross_layer_only: bool = False):
        counter = _COUNTERS.get((layer, name))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.query is None or (
                cross_layer_only and tracer._stack and tracer._stack[-1].layer == layer
            ):
                return fn(*args, **kwargs)
            span = tracer._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result, span.parent_layer)
            return result

        return traced

    def _wrap_task(self, fn):
        tracer = self

        @functools.wraps(fn)
        def task(*args, **kwargs):
            if os.getpid() == tracer.pid or tracer.query is None:
                return fn(*args, **kwargs)
            first = len(tracer._spans)
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            end = time.perf_counter()
            tracer._spool(tracer._spans[first:], start, end)
            del tracer._spans[first:]
            return result

        return task

    # -- spans ----------------------------------------------------------

    def _open(self, layer: str, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._seq += 1
        span = Span(
            (os.getpid(), self._seq),
            parent.id if parent else None,
            parent.layer if parent else None,
            self.query, layer, name, time.perf_counter(),
        )
        self._stack.append(span)
        self._spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _spool(self, spans: list[Span], start: float, end: float) -> None:
        """Worker side: fold one pool task and append it to the spool."""
        root = self._stack[-1].id  # the run() span open when the pool forked
        totals: Counter = Counter()
        fold(spans, totals)
        top = [(s.start, s.end) for s in spans if s.parent == root]
        record = {
            "query": self.query,
            "start": start,
            "end": end,
            "cli_self_s": (end - start) - covered(top, start, end),
            "totals": totals,
        }
        path = os.path.join(self.spool_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    # -- queries --------------------------------------------------------

    def begin(self, query_id: int) -> None:
        self.query = query_id
        self._spans = []
        self._stack = []

    def end(self) -> int:
        """Fold the finished query; return the number of pool tasks seen."""
        query, self.query = self.query, None
        roots = [s for s in self._spans if s.parent is None]
        tasks = []
        for name in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, name)
            with open(path, encoding="utf-8") as fh:
                tasks.extend(json.loads(line) for line in fh)
            os.remove(path)
        if any(t["query"] != query for t in tasks):
            raise RuntimeError(f"pool task spans of another query in query {query}")
        extra = {}
        if tasks:
            if len(roots) != 1:
                raise RuntimeError("pool tasks without a single run() span")
            extra[roots[0].id] = [(t["start"], t["end"]) for t in tasks]
        fold(self._spans, self.totals, extra)
        for t in tasks:
            self.totals["cli.self_s"] += t["cli_self_s"]
            self.totals.update(t["totals"])
        self._spans = []
        return len(tasks)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


UNITS = {
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.self_ms_per_query": "ms",
    "tridiag.pivot_rows": "rows",
    "tridiag.ns_per_pivot_row": "ns",
    "tridiag.levels_per_call": "levels",
    "tridiag.column_pivot_share": "ratio",
    "jacobi_ops.build_rows": "rows",
    "jacobi_ops.doublings": "count",
    "jacobi_ops.final_size_row_share": "ratio",
    "recurrence.rows": "rows",
    "recurrence.ns_per_row": "ns",
    "hamiltonian.sturm_levels": "levels",
    "hamiltonian.levels_per_eigenvalue": "levels",
    "hamiltonian.secular_evals_per_eigenvalue": "count",
    "hamiltonian.truncation_size": "rows",
    "hamiltonian.form_evals": "count",
    "trace.overhead_share": "ratio",
}


def layer_metrics(totals: Counter, queries: int) -> dict[str, float]:
    """Per-layer metrics named as in BENCHMARK.json, from running totals."""
    t = totals
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = t[f"{layer}.calls"]
        m[f"{layer}.self_s"] = t[f"{layer}.self_s"]
    m["cli.self_ms_per_query"] = 1e3 * _ratio(t["cli.self_s"], queries)
    m["tridiag.pivot_rows"] = t["tridiag.pivot_rows"]
    m["tridiag.ns_per_pivot_row"] = 1e9 * _ratio(t["tridiag.self_s"], t["tridiag.pivot_rows"])
    m["tridiag.levels_per_call"] = _ratio(t["tridiag.levels"], t["tridiag.count_calls"])
    m["tridiag.column_pivot_share"] = _ratio(
        t["tridiag.column_pivot_rows"], t["tridiag.pivot_rows"]
    )
    m["jacobi_ops.build_rows"] = t["jacobi_ops.build_rows"]
    m["jacobi_ops.doublings"] = t["jacobi_ops.doublings"]
    m["jacobi_ops.final_size_row_share"] = _ratio(
        t["jacobi_ops.final_rows"], t["jacobi_ops.doubling_rows"]
    )
    m["recurrence.rows"] = t["recurrence.rows"]
    m["recurrence.ns_per_row"] = 1e9 * _ratio(t["recurrence.self_s"], t["recurrence.rows"])
    m["hamiltonian.sturm_levels"] = t["hamiltonian.sturm_levels"]
    m["hamiltonian.levels_per_eigenvalue"] = _ratio(
        t["hamiltonian.sturm_levels"], t["hamiltonian.eigenvalues"]
    )
    m["hamiltonian.secular_evals_per_eigenvalue"] = _ratio(
        t["hamiltonian.secular_evals"], t["hamiltonian.eigenvalues"]
    )
    m["hamiltonian.truncation_size"] = _ratio(
        t["hamiltonian.truncation_total"], t["hamiltonian.spectra"]
    )
    m["hamiltonian.form_evals"] = t["hamiltonian.form_evals"]
    return m


def layer_shares(totals: Counter) -> dict[str, float]:
    """Each layer's share of the summed self time."""
    total = sum(totals[f"{layer}.self_s"] for layer in LAYERS)
    return {layer: _ratio(totals[f"{layer}.self_s"], total) for layer in LAYERS}
