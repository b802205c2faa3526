"""Contraction-criterion evaluation and verdict reports.

The fixed-point route certifies boundedness/stability of a neutral delay
problem by summing a handful of nonnegative terms built from the problem
coefficients and an auxiliary pair (p, g), and checking that the supremum
over t of the sum stays below 1.  This module evaluates those terms
pointwise, sweeps them over a finite horizon, and assembles the result
into a :class:`CriteriaReport` with three verdicts (bounded response,
uniform stability, asymptotic stability), each "grid-certified": the
supremum over all t >= t0 is replaced by a refined scan over [t0, Tmax]
plus a tail-slope diagnostic.

Term labels, general form (the head sub-terms of the coupling integral are
reported separately)::

    neutral_head     |p(tau1(t))/p(t)| * bQ(tau1(t))
    drift_window     int_{tau1(t)}^{t} |g - p'/p|
    retarded_bracket weighted |(g(tau1)-p'(tau1)/p(tau1))(1-r1') - a p(tau1)/p|
    double_window    weighted |g(s)| * drift window at s
    neutral_damping  weighted |(g p - p')/p^2| * p(tau1) * bQ(tau1)
    coupling_pair    weighted |d/p| * (k2 p(tau1) + k3 p(tau2))
    nonlinear_tail   k4 * weighted |c/p| * p^gamma(tau2)

The linear-neutral form drops ``neutral_damping`` and ``coupling_pair``
(their effect is folded into the bracket through the combination
coefficients mu/cbar/beta) and its head is |cbar(t)|.

"weighted" always means the exponentially damped integral
int_{t0}^{t} exp(-int_s^t g) (...) ds.  Each term is written once, as one
record of its form's term table (``_LINEAR_TABLE``, ``_GENERAL_TABLE``):
the label, the body over a coefficient set (the binding, floats, or its
``arrays``, numpy arrays), the exact slope of a direct term, and the sweep
tolerance and kink arguments of a weighted term; the pointwise evaluator,
the sweep and the label tuples all read the table.  The sweep breaks its
panels where a kink argument changes sign (see
:class:`~ndde.quadrature.WeightedSweep`).  Over a horizon, all weighted terms are
swept together by one :class:`~ndde.quadrature.WeightedSweep` on the
Lobatto 4 / Kronrod 7
nodes of the grid panels, which reads G and the damping weights once per
node for every term and samples each term on all nodes of a chunk of
panels in one array call; the direct terms and their slopes are sampled on
the grid the same way.  A sweep failure names the term.  Every scanned term comes
with its exact slope: I' = f - g I for a swept term (read off the sweep),
the chain rule for the two direct terms, and the sum of the term slopes
for the sum.  So the sup scans polish each maximum by a root search on the
slope and query the sweep between grid nodes only a few times per
maximum.  Pointwise evaluation (:class:`TermEvaluator`) integrates each
term in one shot by adaptive Simpson.

A request is bound once: :func:`evaluate_criteria` hands its one
:class:`~ndde.model.BoundProblem` to the sweep and to every companion
constant (``window_lipschitz``, ``K_estimate``, ``asymptotic_check``,
``delta_bounds``), which read t0, tmax and the cumulative tables from it.
The damped coupling integral of ``asymptotic_check`` is the sweep's
``nonlinear_tail`` row over k4, and a damping window is two reads of the
table of g; the coupling windows are one array call of fixed-node panels.
The text report prints the leaves of the dict report, so each report key is
written once, in :meth:`CriteriaReport.to_dict`.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NddeError, QuadratureError, ValidationError
from .expressions import Expression
from .model import (
    AuxiliarySpec,
    BoundProblem,
    DelaySpec,
    ProblemSpec,
    bind,
    require,
)
from .quadrature import (
    _bulk,
    _kronrod_panels,
    sup_scan,
    weighted_integral,
    WeightedSweep,
)

# per-panel sweep tolerances of |K7 - L4|; the double-window integrand is
# itself quadrature-backed, so it gets a looser budget
_SWEEP_TOL = 1e-12
_DOUBLE_TOL = 5e-10

# a tail slope this small still counts as "not growing"
_TAIL_SLOPE_TOL = 1e-9
_WINDOW_CENTERS = 128  # the window starts of window_lipschitz, over [t0, tmax - 1]


def _signed(v, w):
    """sign(v) * w for floats and arrays alike (a float stays a float; sign(0) = 0)."""
    return (v > 0.0) * w - (v < 0.0) * w


def _coupling_weight(b, s):
    """|c/p| p^gamma(tau2): the tail's integrand over k4, the windows' c-term."""
    return abs(b.tail_scale(s)) * b.tail_weight(s)


def _general_head(b, t):
    u = b.tau1(t)
    return abs(b.p_of(u) / b.p_raw(t)) * b.q_bound(u)


def _general_head_slope(b, t):
    u, du = b.tau1(t), 1.0 - b.r1_slope(t)
    pt = b.p_raw(t)
    ratio = b.p_of(u) / pt
    ratio_prime = (b.pp_of(u) * du * pt - b.p_of(u) * b.pp_of(t)) / (pt * pt)
    return _signed(ratio, ratio_prime) * b.q_bound(u) + abs(ratio) * b.q_bound_prime(u) * du


def _damping(b, s):
    rate, u = b.damping_rate(s), b.tau1(s)
    return abs(rate) * b.p_of(u) * b.q_bound(u)


def _linear_bracket(b, s):
    return -b.mu(s) + b.retarded(s) - b.beta(s)


@dataclass(frozen=True)
class _Term:
    """One criterion term: its report label and its body over a coefficient
    set b (the binding or its ``arrays``) at time t.  A direct term is the
    body itself and carries its exact slope; a weighted term (``slope``
    None) is the damped integral of the body, swept to ``tol`` per panel.
    A weighted term's ``kinks`` gives, over the same sets, the argument of
    the abs in its body and the kink arguments inside the coefficients it
    reads, each at the time the body reads the coefficient: where one
    changes sign, the sweep breaks its panel."""

    label: str
    body: Callable
    slope: Callable | None = None
    tol: float = _SWEEP_TOL
    kinks: Callable | None = None


_WINDOW = _Term(
    "drift_window", lambda b, t: b.drift_window(t),
    lambda b, t: abs(b.drift(t)) - abs(b.drift(b.tau1(t))) * (1.0 - b.r1_slope(t)),
)
_DOUBLE = _Term(
    "double_window", lambda b, s: abs(b.g_of(s)) * b.drift_window(s), tol=_DOUBLE_TOL,
    kinks=lambda b, s: (b.g_of(s), *b.inner_kinks("g_of", s)),
)
_TAIL = _Term(
    "nonlinear_tail", lambda b, s: b.k4 * _coupling_weight(b, s),
    kinks=lambda b, s: (b.tail_scale(s), *b.inner_kinks("c", s)),
)

# the term tables, in report order: the direct terms first, as the grid sums
# and the pointwise sum of _alpha_from_bound add the terms in this order
_LINEAR_TABLE = (
    _Term(
        "neutral_head", lambda b, t: abs(b.cbar(t)),
        lambda b, t: _signed(b.cbar(t), b.cbar_prime(t)),
    ),
    _WINDOW,
    _Term(
        "retarded_bracket", lambda b, s: abs(_linear_bracket(b, s)),
        kinks=lambda b, s: (
            _linear_bracket(b, s), *b.inner_kinks("a", s), *b.inner_kinks("g_of", s),
            *b.inner_kinks("g_of", s, b.tau1),
        ),
    ),
    _DOUBLE,
    _TAIL,
)
_GENERAL_TABLE = (
    _Term("neutral_head", _general_head, _general_head_slope),
    _WINDOW,
    _Term(
        "retarded_bracket", lambda b, s: abs(b.bracket(s)),
        kinks=lambda b, s: (b.bracket(s), *b.inner_kinks("a", s), *b.inner_kinks("g_of", s, b.tau1)),
    ),
    _DOUBLE,
    _Term(
        "neutral_damping", _damping,
        kinks=lambda b, s: (
            b.damping_rate(s), *b.inner_kinks("g_of", s), *b.inner_kinks("q_bound", s, b.tau1),
        ),
    ),
    _Term(
        "coupling_pair",
        lambda b, s: abs(b.pair_scale(s)) * (b.k2 * b.p_of(b.tau1(s)) + b.k3 * b.p_of(b.tau2(s))),
        kinks=lambda b, s: (b.pair_scale(s), *b.inner_kinks("d", s)),
    ),
    _TAIL,
)
LINEAR_TERMS = tuple(term.label for term in _LINEAR_TABLE)
GENERAL_TERMS = tuple(term.label for term in _GENERAL_TABLE)


def _table(bound: BoundProblem) -> tuple[_Term, ...]:
    return _LINEAR_TABLE if bound.problem.form == "linear-neutral" else _GENERAL_TABLE


def _on_arrays(bound: BoundProblem, body: Callable) -> Callable[[np.ndarray], np.ndarray]:
    """body over the binding's array set, which is built on first use."""
    return lambda t: body(bound.arrays, t)


class TermEvaluator:
    """Reusable pointwise criterion-term evaluator.

    Binding a problem compiles every coefficient once; keep the evaluator
    around when querying many times.
    """

    def __init__(self, problem: ProblemSpec, aux: AuxiliarySpec, tmax: float = 100.0):
        self.bound = bind(problem, aux, tmax)
        self.table = _table(self.bound)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(term.label for term in self.table)

    def values(self, t: float, tol: float = 1e-10) -> np.ndarray:
        b = self.bound
        if t < b.t0:
            raise ValidationError(f"criterion terms need t >= t0, got t={t!r}")
        return np.asarray([
            term.body(b, t) if term.slope is not None
            else weighted_integral(functools.partial(term.body, b), b.gexp, t, tol=tol)
            for term in self.table
        ])

    def total(self, t: float, tol: float = 1e-10) -> float:
        return float(self.values(t, tol).sum())


def term_values_linear(
    problem: ProblemSpec, aux: AuxiliarySpec, t: float, tol: float = 1e-10
) -> np.ndarray:
    """The five linear-neutral criterion addends at time t (one-shot)."""
    require(t=t, tol=tol)
    if problem.form != "linear-neutral":
        raise ValidationError("term_values_linear needs a linear-neutral problem")
    return TermEvaluator(problem, aux, tmax=max(t, problem.t0 + 1.0)).values(t, tol)


def term_values_general(
    problem: ProblemSpec, aux: AuxiliarySpec, t: float, tol: float = 1e-10
) -> np.ndarray:
    """The general-form criterion addends at time t (one-shot).

    Seven entries: the coupling integral is split into its d-part and its
    c-part (``coupling_pair`` and ``nonlinear_tail``).
    """
    require(t=t, tol=tol)
    if problem.form != "general":
        raise ValidationError("term_values_general needs a general-form problem")
    return TermEvaluator(problem, aux, tmax=max(t, problem.t0 + 1.0)).values(t, tol)


def linear_coefficients(
    problem: ProblemSpec, aux: AuxiliarySpec, s: float
) -> tuple[float, float, float]:
    """(mu, cbar, beta) of the linear-neutral reduction at time s.

    mu is the retarded mass (a p(tau1) - b p'(tau1))/p, cbar the neutral
    ratio p(tau1)/p * b/(1 - r1'), and beta = g cbar + cbar' with cbar'
    assembled by exact symbolic/chain-rule differentiation.
    """
    require(s=s)
    if problem.form != "linear-neutral":
        raise ValidationError("linear_coefficients needs a linear-neutral problem")
    b = bind(problem, aux, tmax=max(s, problem.t0 + 1.0))
    return (b.mu(s), b.cbar(s), b.beta(s))


# --------------------------------------------------------------------------
# horizon sweeps


@dataclass(frozen=True)
class TermStat:
    label: str
    sup: float
    argsup: float


@dataclass(frozen=True)
class AlphaEstimate:
    """Grid-certified contraction estimate over [t0, tmax].

    ``alpha`` is the refined supremum of the pointwise term sum (this is
    what verdicts use); ``alpha_termwise`` sums the individual term
    suprema, a coarser bound matching the usual hand computation.
    """

    form: str
    alpha: float
    argsup: float
    tail_slope: float
    tmax: float
    grid: int
    terms: tuple[TermStat, ...]

    @property
    def alpha_termwise(self) -> float:
        return float(sum(st.sup for st in self.terms))

    def term(self, label: str) -> TermStat:
        for stat in self.terms:
            if stat.label == label:
                return stat
        raise KeyError(label)


def _node_slopes(
    slope: Callable[[float], float], slope_array: Callable[[np.ndarray], np.ndarray],
    ts: np.ndarray,
) -> np.ndarray:
    """slope at every node, in bulk; where the bulk call raises, node by
    node with NaN where it fails, so the scan falls back there."""
    try:
        with np.errstate(all="ignore"):
            return slope_array(ts)
    except (ArithmeticError, NddeError):
        pass
    out = []
    for t in ts.tolist():
        try:
            out.append(slope(t))
        except (ArithmeticError, NddeError):
            out.append(math.nan)
    return np.asarray(out)


def _alpha_from_bound(bound: BoundProblem, tmax: float, grid: int):
    """(estimate, the sweep of the weighted terms behind it)."""
    t0 = bound.t0
    if not tmax > t0:
        raise ValidationError("alpha_estimate needs tmax > t0")
    ts = np.linspace(t0, tmax, grid)
    table = _table(bound)
    direct = [term for term in table if term.slope is not None]
    weighted = [term for term in table if term.slope is None]
    fns = [functools.partial(term.body, bound) for term in direct]
    fn_slopes = [functools.partial(term.slope, bound) for term in direct]

    # scan inputs per term, in table order: label, the scalar function, a
    # (value, slope) function, and the values and exact slopes on the grid
    scans = [
        (term.label, fn, lambda t, fn=fn, slope=slope: (fn(t), slope(t)),
         _bulk(_on_arrays(bound, term.body), fn, ts),
         _node_slopes(slope, _on_arrays(bound, term.slope), ts))
        for term, fn, slope in zip(direct, fns, fn_slopes)
    ]
    # one sweep for every weighted term: shared nodes, G and damping weights
    sweep = WeightedSweep(
        [functools.partial(term.body, bound) for term in weighted], bound.gexp, ts,
        [term.tol for term in weighted], arrays=[_on_arrays(bound, term.body) for term in weighted],
        labels=[term.label for term in weighted],
        kinks=[_on_arrays(bound, term.kinks) for term in weighted],
    )
    swept_slopes = sweep.slopes()
    scans += [
        (term.label, lambda t, k=k: sweep.at(t, k), lambda t, k=k: sweep.at_slope(t, k),
         sweep.values[k], swept_slopes[k])
        for k, term in enumerate(weighted)
    ]
    total = np.sum([values for _, _, _, values, _ in scans], axis=0)
    total_slope = np.sum([slopes for _, _, _, _, slopes in scans], axis=0)

    def pointwise_sum(t: float) -> float:
        return sum(fn(t) for fn in fns) + float(sweep.at(t).sum())

    def sum_and_slope(t: float) -> tuple[float, float]:
        values, swept = sweep.at_slope(t)
        value = sum(fn(t) for fn in fns) + float(values.sum())
        return value, sum(fn(t) for fn in fn_slopes) + float(swept.sum())

    scan = sup_scan(
        pointwise_sum, t0, tmax, n=grid, samples=total,
        slopes=total_slope, value_slope=sum_and_slope,
    )

    stats = []
    for label, fn, pair, values, slopes in scans:
        s = sup_scan(fn, t0, tmax, n=grid, samples=values, slopes=slopes, value_slope=pair)
        stats.append(TermStat(label, s.sup, s.argsup))

    return AlphaEstimate(
        form=bound.problem.form,
        alpha=scan.sup,
        argsup=scan.argsup,
        tail_slope=scan.tail_slope,
        tmax=tmax,
        grid=grid,
        terms=tuple(stats),
    ), sweep


def alpha_estimate(
    problem: ProblemSpec,
    aux: AuxiliarySpec,
    tmax: float = 10_000.0,
    grid: int = 4096,
) -> AlphaEstimate:
    """Sweep every criterion term over [t0, tmax] and refine the supremum.

    The weighted terms advance together panel by panel along the grid, so
    the whole sweep costs one pass of fixed-node quadrature (G and the
    damping weights read once per node, shared by every term) rather than
    one integration per term and grid point.  ``grid`` is also the coarse
    sample count of the sup scan.
    """
    require(tmax=tmax, grid=grid)
    return _alpha_from_bound(bind(problem, aux, tmax), tmax, grid)[0]


# --------------------------------------------------------------------------
# companion constants


@dataclass(frozen=True)
class LipschitzEstimate:
    """Unit-window growth constant, measured two ways.

    ``windowed`` is the observed sup of |integral over a window| / width
    for sampled windows no wider than 1; ``pointwise`` is the refined sup
    of the |integrand|, the limit the windowed ratio approaches for
    continuous integrands.
    """

    kind: str
    windowed: float
    pointwise: float


def window_lipschitz(bound: BoundProblem, kind: str) -> LipschitzEstimate:
    """Empirical unit-window constant for the coupling or damping integrand.

    kind "c-term": integrand |c(u) p^gamma(tau2(u)) / p(u)| (the coupling
    window bound), one Lobatto 4 / Kronrod 7 panel a window, all sampled in
    one array call; kind "g": integrand g (the damping window bound), two
    reads of the binding's table of g a window.  The windows cover [t0, tmax].
    """
    b = bound
    t0, tmax = b.t0, b.tmax
    if not tmax > t0 + 1.0:
        raise ValidationError("window_lipschitz needs tmax > t0 + 1")
    if kind == "c-term":
        f = functools.partial(_coupling_weight, b)
        f_array = functools.partial(_coupling_weight, b.arrays)
    elif kind == "g":
        f, f_array = b.g_of, b.arrays.g_of
    else:
        raise ValidationError(f"unknown window kind {kind!r}; use 'c-term' or 'g'")

    widths = np.tile((1.0, 0.5, 0.25, 0.1, 0.02), _WINDOW_CENTERS)
    lo = np.repeat(np.linspace(t0, tmax - 1.0, _WINDOW_CENTERS), 5)
    try:
        samples = np.abs(_bulk(f_array, f, np.linspace(t0, tmax, 1024)))
        pointwise = sup_scan(lambda u: abs(f(u)), t0, tmax, n=1024, samples=samples).sup
        if kind == "g":
            windows = b.gexp.cumulative(lo + widths) - b.gexp.cumulative(lo)
        else:
            windows = _kronrod_panels(f, f_array, lo, lo + widths, 1e-10).totals()
    except QuadratureError as err:
        raise QuadratureError(
            f"window_lipschitz {kind!r} on the horizon [{t0!r}, {tmax!r}]: {err}"
        ) from err
    windowed = float((np.abs(windows) / widths).max())
    return LipschitzEstimate(kind=kind, windowed=windowed, pointwise=pointwise)


def K_estimate(bound: BoundProblem) -> float:
    """sup over t0 <= t1 <= t2 <= tmax of exp(-int_{t1}^{t2} g).

    Evaluated as exp of the largest prefix drop of the binding's cumulative
    table of g on 1,025 points of [t0, tmax].  Nonnegative rates give
    exactly 1 (attained on the diagonal); sign-changing rates are supported
    for robustness.
    """
    G = bound.gexp.cumulative(np.linspace(bound.t0, bound.tmax, 1025))
    drop = float((np.maximum.accumulate(G) - G).max())
    if drop < 1e-12:
        return 1.0
    return math.exp(drop)


@dataclass(frozen=True)
class AsymptoticCheck:
    """Decay diagnostics behind the asymptotic-stability verdict.

    ``a_tail`` is the damped coupling integral at Tmax, the sweep's
    ``nonlinear_tail`` row over k4, and ``a_slope`` its secant slope over
    the last tenth of the horizon; the decay condition asks this integral
    to vanish at infinity.  ``g_divergent`` witnesses
    int g -> infinity by comparing cumulative increments across the last
    two decades of the horizon (a log-growing integral keeps equal decade
    increments, a convergent one lets them die out).
    """

    a_tail: float
    a_slope: float
    g_end: float
    a_term_decaying: bool
    g_divergent: bool


def asymptotic_check(bound: BoundProblem, sweep: WeightedSweep | None = None) -> AsymptoticCheck:
    """Decay diagnostics over [t0, tmax] of the binding, read off ``sweep``
    (a criterion sweep from t0 to tmax; by default a one-term sweep of the
    ``nonlinear_tail`` row on 4096 nodes) at tmax and at 90% of the horizon.
    """
    b = bound
    t0, tmax, span = b.t0, b.tmax, b.tmax - b.t0
    if sweep is None:
        sweep = WeightedSweep(
            [functools.partial(_TAIL.body, b)], b.gexp, np.linspace(t0, tmax, 4096), _TAIL.tol,
            arrays=[functools.partial(_TAIL.body, b.arrays)], labels=[_TAIL.label],
            kinks=[functools.partial(_TAIL.kinks, b.arrays)],
        )
    k = sweep.labels.index(_TAIL.label)
    a_end = float(sweep.values[k, -1]) / b.k4
    a_slope = (a_end - sweep.at(t0 + 0.9 * span, k) / b.k4) / (0.1 * span)

    g_end, g_decade, g_two = map(b.gexp.cumulative, (tmax, t0 + span / 10, t0 + span / 100))
    inc_last = g_end - g_decade
    inc_prev = g_decade - g_two
    return AsymptoticCheck(
        a_tail=a_end,
        a_slope=a_slope,
        g_end=g_end,
        a_term_decaying=(a_slope < 0.0 or a_end < 1e-3),
        g_divergent=(inc_last > 1e-6 and inc_last >= 0.5 * inc_prev),
    )


@dataclass(frozen=True)
class DeltaBounds:
    """History-size allowances extracted from a contraction margin.

    ``existence`` = (1 - alpha)/C keeps the fixed-point iterate inside the
    unit ball, where C = 1 + int_{tau1(t0)}^{t0} |g - p'/p| + bQ(t0) prices
    the history's own contribution at its worst time t0.  ``uniform`` =
    min{eps, (1 - alpha) eps / (2K)}, shrunk by 1e-9 relative to keep the
    target inequality strict.
    """

    existence: float
    uniform: float
    prefactor: float


def delta_bounds(alpha: float, K: float, eps: float, bound: BoundProblem) -> DeltaBounds:
    require(alpha=alpha, K=K, eps=eps)
    if not alpha < 1.0:
        raise ValidationError(f"delta bounds need alpha < 1, got {alpha!r}")
    if not K >= 1.0:
        raise ValidationError("K >= 1 required (the diagonal already gives 1)")
    window = bound.drift_window(bound.t0)
    head = bound.q_bound(bound.t0)
    prefactor = 1.0 + window + abs(head)
    existence = (1.0 - alpha) / prefactor
    uniform = min(eps, (1.0 - alpha) * eps / (2.0 * K)) * (1.0 - 1e-9)
    return DeltaBounds(existence=existence, uniform=uniform, prefactor=prefactor)


# --------------------------------------------------------------------------
# constructions


def bracket_matching_a(
    b: Expression,
    delay: DelaySpec,
    aux: AuxiliarySpec,
    residual: Expression | None = None,
) -> Expression:
    """Retarded coefficient a(t) that pins the bracket term to ``residual``.

    Solves (g(tau1) - p'(tau1)/p(tau1))(1 - r1') - mu - beta = residual
    for a in closed form; with the default residual 0 the bracket term of
    the criterion vanishes identically.  Valid where tau1(t) >= t0, i.e.
    where the returned expression is evaluated without the left extension
    of p (vanishing lag at t0 qualifies).
    """
    one_minus, _, p_tau, pp_tau, beta = _reduction(b, delay, aux)
    g_tau = aux.g.substitute(t=delay.tau_expression).simplified()
    bracket = ((g_tau - pp_tau / p_tau) * one_minus - beta).simplified()
    if residual is not None:
        bracket = (bracket - residual).simplified()
    return ((bracket * aux.p + b * pp_tau) / p_tau).simplified()


def _reduction(b: Expression, delay: DelaySpec, aux: AuxiliarySpec):
    """(1 - r1', q = b/(1 - r1'), p(tau1), p'(tau1), beta = g cbar + cbar')."""
    one_minus = (1 - delay.slope_expression).simplified()
    q = (b / one_minus).simplified()
    p_tau = aux.p.substitute(t=delay.tau_expression).simplified()
    pp_tau = aux.p_prime.substitute(t=delay.tau_expression).simplified()
    cbar = ((p_tau / aux.p) * q).simplified()
    return one_minus, q, p_tau, pp_tau, (aux.g * cbar + cbar.derivative("t")).simplified()


def matched_general_form(problem: ProblemSpec, aux: AuxiliarySpec) -> ProblemSpec:
    """General-form re-encoding whose criterion terms track the linear ones.

    The coupling map becomes Q(t, x) = q(t/(1-theta)) x with q = b/(1-r1'),
    so the head bound evaluated at the delayed time equals |q(t)| and the
    head terms match exactly; the retarded coefficient absorbs mu + beta so
    the bracket terms match exactly.  The damping term of the general
    criterion has no linear counterpart and vanishes exactly when
    g = p'/p; for any other auxiliary rate the re-encoding is conservative
    by that surplus.  Requires a proportional lag (r1 = theta t, t0 = 0) so
    the delayed argument inverts in closed form.
    """
    if problem.form != "linear-neutral":
        raise ValidationError("matched_general_form needs a linear-neutral problem")
    if problem.t0 != 0.0:
        raise ValidationError("matched re-encoding needs t0 = 0")
    slope = problem.r1.slope_expression.simplified()
    if not slope.derivative("t").simplified().is_zero():
        raise ValidationError("matched re-encoding needs a constant-slope lag")
    if abs(problem.r1.r.evaluate(t=0.0)) > 1e-12:
        raise ValidationError("matched re-encoding needs a vanishing lag at t0")
    theta = slope.evaluate(t=0.0)

    t = Expression.variable("t")
    _, q, p_tau, pp_tau, beta = _reduction(problem.b, problem.r1, aux)
    mu = ((problem.a * p_tau - problem.b * pp_tau) / aux.p).simplified()
    a_matched = (((mu + beta) * aux.p) / p_tau).simplified()

    stretched = q.substitute(t=(t / (1.0 - theta))).simplified()
    x = Expression.variable("x")
    zero_f = Expression(Expression.constant(0.0).root, ("x", "y"))
    return ProblemSpec(
        form="general",
        t0=problem.t0,
        gamma=problem.gamma,
        r1=problem.r1,
        r2=problem.r2,
        a=a_matched,
        c=problem.c,
        G=problem.G,
        k4=problem.k4,
        Q=stretched * x,
        q_bound=stretched.apply("abs"),
        d=Expression(Expression.constant(0.0).root, ("t",)),
        F=zero_f,
        k2=0.0,
        k3=0.0,
    )


# --------------------------------------------------------------------------
# the assembled report


# the text report's names for keys of the dict report
_TEXT_NAMES = {"value": "", "terms": "term", "verdicts": "verdict"}


@dataclass(frozen=True)
class CriteriaReport:
    form: str
    gamma: str
    t0: float
    tmax: float
    grid: int
    alpha: float
    alpha_argsup: float
    alpha_tail_slope: float
    alpha_termwise: float
    terms: tuple[TermStat, ...]
    lipschitz_coupling: LipschitzEstimate
    lipschitz_damping: LipschitzEstimate
    K: float
    eps: float
    delta_existence: float | None
    delta_uniform: float | None
    delta_prefactor: float | None
    a_tail: float
    a_tail_slope: float
    g_end: float
    a_term_decaying: bool
    g_divergent: bool
    verdict_bounded: str
    verdict_uniform: str
    verdict_asymptotic: str
    certification = "grid-certified"  # a class constant, not a field

    def term(self, label: str) -> TermStat:
        for stat in self.terms:
            if stat.label == label:
                return stat
        raise KeyError(label)

    def to_dict(self) -> dict:
        def opt(v):
            return None if v is None or not math.isfinite(v) else v

        return {
            "form": self.form,
            "gamma": self.gamma,
            "t0": self.t0,
            "tmax": self.tmax,
            "grid": self.grid,
            "alpha": {
                "value": self.alpha,
                "argsup": self.alpha_argsup,
                "tail_slope": self.alpha_tail_slope,
                "termwise": self.alpha_termwise,
            },
            "terms": {
                s.label: {"sup": s.sup, "argsup": s.argsup} for s in self.terms
            },
            "lipschitz": {
                "coupling": {
                    "windowed": self.lipschitz_coupling.windowed,
                    "pointwise": self.lipschitz_coupling.pointwise,
                },
                "damping": {
                    "windowed": self.lipschitz_damping.windowed,
                    "pointwise": self.lipschitz_damping.pointwise,
                },
            },
            "K": self.K,
            "delta": {
                "eps": self.eps,
                "existence": opt(self.delta_existence),
                "uniform": opt(self.delta_uniform),
                "prefactor": opt(self.delta_prefactor),
            },
            "asymptotic": {
                "a_tail": self.a_tail,
                "a_slope": self.a_tail_slope,
                "g_end": self.g_end,
                "a_term_decaying": self.a_term_decaying,
                "g_divergent": self.g_divergent,
            },
            "verdicts": {
                "bounded": self.verdict_bounded,
                "uniform": self.verdict_uniform,
                "asymptotic": self.verdict_asymptotic,
            },
            "certification": self.certification,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        """One ``key = value`` line per leaf of :meth:`to_dict`, in order,
        the keys renamed by ``_TEXT_NAMES`` and joined by dots."""
        def fmt(v) -> str:
            if v is None:
                return "none"
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, float):
                return repr(float(v))
            return str(v)

        def leaves(node: dict, path: tuple[str, ...] = ()):
            for key, v in node.items():
                here = (*path, _TEXT_NAMES.get(key, key))
                if isinstance(v, dict):
                    yield from leaves(v, here)
                else:
                    yield ".".join(filter(None, here)), v

        return "".join(f"{k} = {fmt(v)}\n" for k, v in leaves(self.to_dict()))


def evaluate_criteria(
    problem: ProblemSpec,
    aux: AuxiliarySpec,
    tmax: float = 10_000.0,
    grid: int = 4096,
    eps: float = 0.1,
) -> CriteriaReport:
    """Full criterion evaluation: sweeps, companion constants, verdicts.

    The bounded/uniform verdicts read "satisfied" only when alpha < 1 and
    the tail slope of the term sum is nonpositive (within 1e-9); a growing
    tail downgrades to "inconclusive", alpha >= 1 reads "violated".  The
    asymptotic verdict additionally needs the damped coupling integral to
    decay and the cumulative rate to diverge, else it stays inconclusive.
    """
    require(tmax=tmax, grid=grid, eps=eps)
    if not tmax > problem.t0 + 1.0:
        raise ValidationError(
            f"tmax = {tmax!r} must exceed t0 + 1 = {problem.t0 + 1.0!r}: the check"
            " prices unit windows"
        )
    bound = bind(problem, aux, tmax)
    est, sweep = _alpha_from_bound(bound, tmax, grid)
    lip_c = window_lipschitz(bound, "c-term")
    lip_g = window_lipschitz(bound, "g")
    K = K_estimate(bound)
    asym = asymptotic_check(bound, sweep)

    if est.alpha < 1.0:
        deltas = delta_bounds(est.alpha, K, eps, bound)
        d_exist, d_unif, d_pref = deltas.existence, deltas.uniform, deltas.prefactor
    else:
        d_exist = d_unif = d_pref = None

    if est.alpha >= 1.0:
        bounded = "violated"
    elif est.tail_slope <= _TAIL_SLOPE_TOL:
        bounded = "satisfied"
    else:
        bounded = "inconclusive"
    uniform = bounded
    if bounded == "satisfied":
        asymptotic = (
            "satisfied" if (asym.a_term_decaying and asym.g_divergent) else "inconclusive"
        )
    else:
        asymptotic = bounded

    return CriteriaReport(
        form=problem.form,
        gamma=str(problem.gamma),
        t0=bound.t0,
        tmax=tmax,
        grid=grid,
        alpha=est.alpha,
        alpha_argsup=est.argsup,
        alpha_tail_slope=est.tail_slope,
        alpha_termwise=est.alpha_termwise,
        terms=est.terms,
        lipschitz_coupling=lip_c,
        lipschitz_damping=lip_g,
        K=K,
        eps=eps,
        delta_existence=d_exist,
        delta_uniform=d_unif,
        delta_prefactor=d_pref,
        a_tail=asym.a_tail,
        a_tail_slope=asym.a_slope,
        g_end=asym.g_end,
        a_term_decaying=asym.a_term_decaying,
        g_divergent=asym.g_divergent,
        verdict_bounded=bounded,
        verdict_uniform=uniform,
        verdict_asymptotic=asymptotic,
    )
