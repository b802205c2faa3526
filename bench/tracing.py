"""Per-layer tracing installed from outside the program.

The tracer replaces public functions of ``ndde`` modules, at the module
attributes through which other layers call them, with wrappers that record
spans or bump counters.  Nothing under ``src/`` is edited and ``uninstall``
restores every attribute.

A span is (id, name, start, end, parent id, request id); the part of its
name before the first dot is its layer.  Spans stay in memory and are
written out once, at the end of the run.  Hot calls (integrand samples,
cumulative-table queries, grid evaluations, compiled expression calls) only
bump counters.  Spans are kept per thread; the counters are plain dict
increments, exact while the program runs on one thread, which is its
default (``NDDE_THREADS`` unset).
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import threading
import time
from collections import Counter, defaultdict

class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, request]
        self.counters: Counter = Counter()
        self.request: str | None = None
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------ spans
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        # a span opened in a worker thread hangs under the main thread's
        # innermost span, which is the call that fanned the work out
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span = [len(self.spans), name, time.perf_counter(), None, parent, self.request]
            self.spans.append(span)
        stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack().pop()

    # ---------------------------------------------------------- patching
    def _patch(self, owner, attr: str, make):
        orig = getattr(owner, attr)
        setattr(owner, attr, make(orig))
        self._patches.append((owner, attr, orig))

    def span_wrap(self, owner, attr: str, name: str, after=None) -> None:
        tracer = self

        def make(orig):
            sig = inspect.signature(orig) if after is not None else None

            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                span = tracer.open(name)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    tracer.close(span)
                if after is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    after(bound.arguments, result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def count_wrap(self, owner, attr: str, counter: str) -> None:
        counters = self.counters

        def make(orig):
            @functools.wraps(orig)
            def wrapper(*args, **kwargs):
                counters[counter] += 1
                return orig(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # ------------------------------------------------------------ output
    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, request in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "request": request}
                    )
                    + "\n"
                )
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def _counting_callable(fn, counters: Counter, key: str):
    def counted(*args):
        counters[key] += 1
        return fn(*args)

    return counted


def install(tracer: Tracer) -> Tracer:
    """Wrap the public entry points of every layer; returns the tracer."""
    from ndde import cli, config, criteria, expressions, integrator, model, operator, quadrature

    counters = tracer.counters

    # cli: the request front end
    for attr in ("run_check", "run_picard"):
        tracer.span_wrap(cli, attr, f"cli.{attr}")

    # config: loading and validation of the request text
    for owner in (cli, config):
        tracer.span_wrap(owner, "load_config", "config.load")

    # expressions: code generation, and calls of compiled code, whether
    # through a callable from ``compiled()`` or through ``Expression.__call__``
    tracer.count_wrap(expressions, "_compile", "expressions.compiles")

    def compiled(orig):
        @functools.wraps(orig)
        def wrapper(self):
            return _counting_callable(orig(self), counters, "expressions.evals")

        return wrapper

    tracer._patch(expressions.Expression, "compiled", compiled)
    tracer.count_wrap(expressions.Expression, "__call__", "expressions.evals")

    # model: bindings (including their horizon scan) and horizons
    for owner in (criteria, operator, integrator):
        tracer.span_wrap(owner, "bind", "model.bind")
    for owner in (cli, integrator, operator):
        tracer.span_wrap(owner, "horizon", "model.horizon")

    # quadrature: sweeps, sup scans, one-shot weighted integrals, and the
    # counted hot calls underneath them
    for owner in (criteria, operator):
        tracer.span_wrap(owner, "WeightedSweep", "quadrature.sweep")
    for owner in (criteria, model):
        tracer._patch(owner, "sup_scan", lambda orig: _sup_scan_wrapper(tracer, orig))
    tracer.span_wrap(criteria, "weighted_integral", "quadrature.weighted_integral")
    tracer.count_wrap(quadrature.CumulativeExponent, "cumulative", "quadrature.cumulative.calls")

    def simpson(orig):
        @functools.wraps(orig)
        def wrapper(f, *args, **kwargs):
            counters["quadrature.simpson.calls"] += 1
            return orig(_counting_callable(f, counters, "quadrature.samples"), *args, **kwargs)

        return wrapper

    tracer._patch(quadrature, "adaptive_simpson", simpson)

    # criteria: the term sweep, the asymptotic diagnostics, the report
    tracer.span_wrap(cli, "evaluate_criteria", "criteria.evaluate")
    tracer.span_wrap(criteria, "_alpha_from_bound", "criteria.alpha")
    tracer.span_wrap(criteria, "asymptotic_check", "criteria.asymptotic")
    tracer.span_wrap(operator, "alpha_estimate", "criteria.precheck")

    # operator: Picard iteration, residual, grid-function evaluations
    def picard_after(args, result):
        counters["operator.iterations"] += result.iterations

    tracer.span_wrap(cli, "picard_solve", "operator.picard", after=picard_after)
    tracer.span_wrap(cli, "residual", "operator.residual")
    tracer.span_wrap(cli, "reconstruct_x", "operator.reconstruct")
    tracer.count_wrap(operator.GridFunction, "eval", "operator.grid_evals")
    tracer.count_wrap(operator.GridFunction, "__call__", "operator.grid_evals")

    # integrator: RK4 runs and stability families
    def integrate_after(args, result):
        counters["integrator.steps"] += len(result.nodes) - 1
        # each halving retry leaves a trajectory step below the requested one
        requested = float(args["h"])
        if result.h < requested:
            counters["integrator.halvings"] += round(math.log2(requested / result.h))

    for owner in (cli, integrator):
        tracer.span_wrap(owner, "integrate", "integrator.integrate", after=integrate_after)
    tracer.span_wrap(integrator, "stability_experiment", "integrator.stability")
    return tracer


def _sup_scan_wrapper(tracer: Tracer, orig):
    counters = tracer.counters

    @functools.wraps(orig)
    def wrapper(h, *args, **kwargs):
        span = tracer.open("quadrature.sup_scan")
        try:
            return orig(_counting_callable(h, counters, "quadrature.samples"), *args, **kwargs)
        finally:
            tracer.close(span)

    return wrapper


# ---------------------------------------------------------------- analysis


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_table(spans):
    """Durations, self times and children per span id."""
    children = defaultdict(list)
    for sid, name, start, end, parent, request in spans:
        if parent is not None:
            children[parent].append(sid)
    by_id = {s[0]: s for s in spans}
    dur = {sid: s[3] - s[2] for sid, s in by_id.items()}
    self_time = {
        sid: max(0.0, dur[sid] - _union((by_id[c][2], by_id[c][3]) for c in children[sid]))
        for sid in by_id
    }
    return by_id, dur, self_time, children


def layer_times(spans) -> dict[str, tuple[float, float]]:
    """(busy, self) seconds per layer over all given spans.

    Busy time adds the durations of the layer's outermost spans: a span
    nested in another span of the same layer adds nothing.  Self time adds
    each span's duration minus the part its children cover.
    """
    by_id, dur, self_time, _ = span_table(spans)
    out: dict[str, tuple[float, float]] = {}
    for sid, s in by_id.items():
        layer = layer_of(s[1])
        busy, own = out.get(layer, (0.0, 0.0))
        parent = s[4]
        while parent is not None and layer_of(by_id[parent][1]) != layer:
            parent = by_id[parent][4]
        out[layer] = (busy + (dur[sid] if parent is None else 0.0), own + self_time[sid])
    return out
