"""Span tracing of maxentkit layers, installed from outside the package.

The tracer replaces module-level names of the package with wrappers that
record one span per call: name, start, end and the index of the parent
span (the span open when the call began).  Spans stay in memory until
the run ends and are then written to one JSON file.  Counters ride on
the same wrappers, so counts and times are taken at the same
boundaries.

A name is wrapped in every namespace that holds a reference to it
(``bench`` imports ``_newton_batch`` by name, ``selection`` imports
``solve_newton`` by name, and so on), which is what :func:`targets`
lists.  A target the package no longer has is skipped and listed
as unpatched, so a later refactor shows up as a zero, not a crash.

Layer names are the package modules: the first dotted part of a span
name.  A span's self time is its duration minus the durations of its
direct children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("ising", "constraints", "solver", "selection", "simplex", "bench")

SELECT_METHODS = ("bic", "aic", "hyper_maxent", "hyper_maxent_lrt")


def _bound_arg(fn, name):
    """Getter for argument ``name`` of ``fn`` from a call's args/kwargs."""
    params = list(inspect.signature(fn).parameters)
    pos = params.index(name)

    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[pos] if pos < len(args) else None

    return get


def _select_span(fn):
    config_of = _bound_arg(fn, "config")

    def name(args, kwargs):
        return "selection.select_arrays." + config_of(args, kwargs).method

    return name


def _count_batch(fn):
    def after(counts, args, kwargs, out):
        _, _, converged = out
        counts["solver.newton_batch_systems"] += int(converged.size)
        counts["solver.newton_batch_converged"] += int(converged.sum())

    return after


def _count_scalar(fn):
    method_of = _bound_arg(fn, "method")

    def before(counts, args, kwargs):
        if method_of(args, kwargs) == "ipf":
            counts["solver.ipf_fallbacks"] += 1

    return before


def _count_newton(fn):
    def after(counts, args, kwargs, out):
        counts["solver.solve_newton_iterations"] += int(out.iterations)

    return after


def targets(mods):
    """(owner, attribute, span name or namer, hooks factory) per wrap."""
    bench, selection, solver, ising = (
        mods["bench"], mods["selection"], mods["solver"], mods["ising"],
    )
    ctx = getattr(bench, "_Context", None)
    return [
        (bench, "run_benchmark", "bench.run_benchmark", None),
        (ctx, "__init__", "bench.context_build", None),
        (ctx, "implying", "bench.implying", None),
        (bench, "_run_task", "bench.task", None),
        (bench, "_fit_all_models", "bench.fit_all", None),
        (bench, "_newton_batch", "solver.newton_batch", ("after", _count_batch)),
        (bench, "fit_linear_system", "solver.scalar_fit", ("before", _count_scalar)),
        (bench, "select_arrays", _select_span, None),
        (bench, "enumerate_models", "ising.enumerate_models", None),
        (bench, "random_params", "ising.random_params", None),
        (bench, "boltzmann", "ising.boltzmann", None),
        (bench, "entropy", "simplex.entropy", None),
        (ising, "enumerate_models", "ising.enumerate_models", None),
        (selection, "select", "selection.select", None),
        (selection, "select_arrays", _select_span, None),
        (selection, "fit_linear_system", "solver.fit_linear_system", None),
        (selection, "solve_newton", "solver.solve_newton", ("after", _count_newton)),
        (selection, "to_architecture", "constraints.to_architecture", None),
        (selection, "nesting_map", "constraints.nesting_map", None),
        (selection, "entropy", "simplex.entropy", None),
        (solver, "solve_newton", "solver.solve_newton", ("after", _count_newton)),
        (solver, "to_architecture", "constraints.to_architecture", None),
        (solver, "reduce_binary_support", "constraints.reduce_binary_support", None),
    ]


class Tracer:
    """Holds spans and counters; ``install`` wraps, ``remove`` restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.counts = Counter()
        self.unpatched = []
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, hooks):
        spans, stack, counts = self.spans, self._stack, self.counts
        namer = name(fn) if callable(name) else None
        before = after = None
        if hooks:
            kind, factory = hooks
            if kind == "before":
                before = factory(fn)
            else:
                after = factory(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [namer(args, kwargs) if namer else name, 0.0, 0.0,
                    stack[-1] if stack else -1]
            if before:
                before(counts, args, kwargs)
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after:
                after(counts, args, kwargs, out)
            return out

        return traced

    def install(self, mods):
        for owner, attr, name, hooks in targets(mods):
            fn = owner.__dict__.get(attr) if owner is not None else None
            if fn is None or not callable(fn):
                self.unpatched.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, hooks))

    def remove(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def totals(self):
        """Per span name: call count, total duration, total self time."""
        calls = Counter()
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child[i]
        return calls, total, self_time

    def write(self, path, meta):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "meta": meta,
            "fields": ["name", "start", "end", "parent"],
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def focus_shares(m):
    """Shares of operation time that say what each workload is for:
    (label, share, floor) with the floor the workload should clear."""
    op = m["trace.op_s"][0] or float("nan")
    selects = sum(m["selection.select_arrays_s." + k][0] for k in SELECT_METHODS)
    constraints = sum(m[k][0] for k in (
        "constraints.to_architecture_s", "constraints.reduce_binary_support_s",
        "constraints.nesting_map_s",
    ))
    return {
        "sweep_dense": ("solver.newton_batch_s / task time",
                        m["solver.newton_batch_s"][0] / op, 0.80),
        "sweep_sparse": ("(selection.select_arrays_s.* + solver.scalar_fit_s) / task time",
                         (selects + m["solver.scalar_fit_s"][0]) / op, 0.15),
        "select_library": ("(constraints.* + solver.solve_newton_s) / select time",
                           (constraints + m["solver.solve_newton_s"][0]) / op, 0.70),
    }


def layer_metrics(tracer, op_span):
    """Per-layer metrics from the spans and counters of a traced pass.

    ``op_span`` names the span of one closed-loop operation (a sweep
    task or one ``select`` call); ``trace.op_s`` is its total time.
    """
    calls, total, self_time = tracer.totals()
    counts = tracer.counts
    systems = counts["solver.newton_batch_systems"]
    select_s = {m: total["selection.select_arrays." + m] for m in SELECT_METHODS}
    m = {
        "solver.newton_batch_s": (total["solver.newton_batch"], "s"),
        "solver.newton_batch_calls": (calls["solver.newton_batch"], "count"),
        "solver.newton_batch_systems": (systems, "count"),
        "solver.batch_converged_frac": (
            counts["solver.newton_batch_converged"] / systems if systems else 0.0,
            "ratio",
        ),
        "solver.scalar_fits": (calls["solver.scalar_fit"], "count"),
        "solver.scalar_fit_s": (total["solver.scalar_fit"], "s"),
        "solver.ipf_fallbacks": (counts["solver.ipf_fallbacks"], "count"),
        "solver.solve_newton_s": (total["solver.solve_newton"], "s"),
        "solver.solve_newton_calls": (calls["solver.solve_newton"], "count"),
        "solver.solve_newton_iterations": (
            counts["solver.solve_newton_iterations"], "count",
        ),
        "constraints.to_architecture_s": (total["constraints.to_architecture"], "s"),
        "constraints.to_architecture_calls": (
            calls["constraints.to_architecture"], "count",
        ),
        "constraints.reduce_binary_support_s": (
            total["constraints.reduce_binary_support"], "s",
        ),
        "constraints.nesting_map_s": (total["constraints.nesting_map"], "s"),
        "constraints.nesting_map_calls": (calls["constraints.nesting_map"], "count"),
        "bench.implying_s": (total["bench.implying"], "s"),
        "bench.implying_calls": (calls["bench.implying"], "count"),
        "bench.fit_all_self_s": (self_time["bench.fit_all"], "s"),
        "bench.score_s": (self_time["bench.task"], "s"),
        "bench.context_build_s": (total["bench.context_build"], "s"),
        "ising.enumerate_models_s": (total["ising.enumerate_models"], "s"),
        "trace.op_s": (total[op_span], "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    for method, seconds in select_s.items():
        m["selection.select_arrays_s." + method] = (seconds, "s")
    for layer in LAYERS:
        m[f"self.{layer}_s"] = (
            sum(v for k, v in self_time.items() if k.split(".")[0] == layer), "s",
        )
    return m
