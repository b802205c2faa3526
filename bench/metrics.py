"""Names, units and intent of every metric the benchmark prints.

END_TO_END metrics come from untraced runs (``--trace 0``); PER_LAYER
metrics from the traced run (``--trace 1``).  ``moves`` records, before any
optimisation is attempted, which end-to-end metric a layer metric should
move and on which workload, so a later change can be held to its claim.
Per-request figures are means over the timed requests of the run.  Times
of the end-to-end metrics are calibrated to a reference machine speed (see
speed.py).
"""

from __future__ import annotations

import re
from typing import NamedTuple

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str


END_TO_END = (
    Metric("setup_s", "s", "lower",
           "fresh interpreter to first request ready: import ndde (median of 8-10 spread over the run, scaled by a reference spawn)"),
    Metric("requests_per_s", "1/s", "higher",
           "requests that passed their oracle per second of calibrated request time"),
    Metric("latency_s.p50", "s", "lower",
           "median calibrated time of one request (3-4 per run, so no tail percentile)"),
    Metric("peak_rss_mb", "MB", "lower",
           "peak resident set of the benchmark process (ru_maxrss)"),
    Metric("pass_rate", "ratio", "higher",
           "requests that passed their oracle over requests attempted (1 - fail rate)"),
)

PER_LAYER = (
    Metric("config.load_s", "s", "lower",
           "latency_s.p50 under 1% on every workload; guards validation growth"),
    Metric("expressions.evals", "count", "lower",
           "latency_s.p50 on all three workloads; vectorising cuts it most on certify"),
    Metric("expressions.compiles", "count", "lower",
           "setup_s / latency_s.p50 if compiled code is cached across requests"),
    Metric("model.bind.calls", "count", "lower",
           "latency_s.p50 on certify; peak_rss_mb if bindings are cached"),
    Metric("model.bind_s", "s", "lower", "same as model.bind.calls"),
    Metric("quadrature.cumulative.calls", "count", "lower",
           "latency_s.p50 and requests_per_s on certify and picard; none on stability"),
    Metric("quadrature.simpson.calls", "count", "lower", "same as quadrature.cumulative.calls"),
    Metric("quadrature.samples", "count", "lower", "same as quadrature.cumulative.calls"),
    Metric("quadrature.sweep_s", "s", "lower", "same as quadrature.cumulative.calls"),
    Metric("quadrature.sup_scan_s", "s", "lower", "latency_s.p50 on certify, small share"),
    Metric("quadrature.weighted_integral_s", "s", "lower",
           "latency_s.p50 on certify via asymptotic_check"),
    Metric("criteria.alpha_s", "s", "lower",
           "latency_s.p50 on certify (term sweep) and picard (precheck)"),
    Metric("criteria.asymptotic_s", "s", "lower", "latency_s.p50 on certify only"),
    Metric("criteria.self_s", "s", "lower", "latency_s.p50 on certify"),
    Metric("operator.iterations", "count", "lower", "latency_s.p50 on picard only"),
    Metric("operator.iteration_s", "s", "lower", "latency_s.p50 on picard only"),
    Metric("operator.grid_evals", "count", "lower", "latency_s.p50 on picard only"),
    Metric("operator.residual_s", "s", "lower", "latency_s.p50 on picard only"),
    Metric("integrator.steps", "count", "lower",
           "latency_s.p50 on stability, and picard through its cross-check; none on certify"),
    Metric("integrator.step_us", "us", "lower",
           "latency_s.p50 on stability (almost all of it) and picard (~15%)"),
    Metric("integrator.halvings", "count", "lower", "latency_s.p50 on stability"),
    Metric("integrator.family_overlap", "ratio", "higher",
           "requests_per_s on stability only (1.0 when the family runs sequentially)"),
    Metric("trace.overhead_ratio", "ratio", "lower",
           "traced over untraced latency of the same request; not a program metric"),
    Metric("layer.quadrature.share", "ratio", "lower",
           "share of request time inside quadrature spans: most of certify and picard, ~0 on stability"),
) + tuple(
    Metric(f"layer.{layer}.{kind}_s", "s", "lower", f"{kind} time of the {layer} layer per request")
    for layer in ("cli", "config", "model", "quadrature", "criteria", "operator", "integrator")
    for kind in ("busy", "self")
)

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}
