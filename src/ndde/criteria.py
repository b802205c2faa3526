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
int_{t0}^{t} exp(-int_s^t g) (...) ds.  Over a horizon, all weighted terms
are swept together by one :class:`~ndde.quadrature.WeightedSweep` on the
Lobatto 4 / Kronrod 7 nodes of the grid panels, which reads G and the
damping weights once per node for every term; the sup scans query it
between grid nodes.  Pointwise evaluation (:class:`TermEvaluator`)
integrates each term in one shot by adaptive Simpson.

A request is bound once: :func:`evaluate_criteria` hands its one
:class:`~ndde.model.BoundProblem` to the sweep and to every companion
constant (``window_lipschitz``, ``K_estimate``, ``asymptotic_check``,
``delta_bounds``), which read t0, tmax and the cumulative tables from it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import QuadratureError, ValidationError
from .expressions import Expression
from .model import (
    AuxiliarySpec,
    BoundProblem,
    DelaySpec,
    ProblemSpec,
    bind,
)
from .quadrature import (
    CumulativeExponent,
    sup_scan,
    weighted_integral,
    window_integral,
    WeightedSweep,
)

GENERAL_TERMS = (
    "neutral_head",
    "drift_window",
    "retarded_bracket",
    "double_window",
    "neutral_damping",
    "coupling_pair",
    "nonlinear_tail",
)
LINEAR_TERMS = (
    "neutral_head",
    "drift_window",
    "retarded_bracket",
    "double_window",
    "nonlinear_tail",
)

# per-panel sweep tolerances of |K7 - L4|; the double-window integrand is
# itself quadrature-backed, so it gets a looser budget
_SWEEP_TOL = 1e-12
_DOUBLE_TOL = 5e-10

# a tail slope this small still counts as "not growing"
_TAIL_SLOPE_TOL = 1e-9


class _TermSet:
    """Pointwise evaluators for every criterion term of one bound problem."""

    def __init__(self, bound: BoundProblem):
        self.bound = bound
        b = bound
        g = b.g_of
        p = b.p_raw
        p_of, pp_of = b.p_of, b.pp_of
        tau1, tau2 = b.tau1, b.tau2
        gamma = b.gamma
        k4 = b.k4
        c = b.c
        window = b.drift_window

        def tail(s: float) -> float:
            return k4 * abs(c(s) / p(s)) * p_of(tau2(s)) ** gamma

        def double(s: float) -> float:
            return abs(g(s)) * window(s)

        if b.problem.form == "linear-neutral":
            self.labels = LINEAR_TERMS

            def head(t: float) -> float:
                return abs(b.cbar(t))

            def bracket(s: float) -> float:
                u = tau1(s)
                ret = (g(u) - pp_of(u) / p_of(u)) * (1.0 - b.r1_slope(s))
                return abs(-b.mu(s) + ret - b.beta(s))

            weighted = {
                "retarded_bracket": bracket,
                "double_window": double,
                "nonlinear_tail": tail,
            }
        else:
            self.labels = GENERAL_TERMS
            q_bound = b.q_bound

            def head(t: float) -> float:
                u = tau1(t)
                return abs(p_of(u) / p(t)) * q_bound(u)

            def bracket(s: float) -> float:
                u = tau1(s)
                ret = (g(u) - pp_of(u) / p_of(u)) * (1.0 - b.r1_slope(s))
                return abs(ret - b.a(s) * p_of(u) / p(s))

            def damping(s: float) -> float:
                ps = p(s)
                u = tau1(s)
                return abs((g(s) * ps - pp_of(s)) / (ps * ps)) * p_of(u) * q_bound(u)

            def coupling(s: float) -> float:
                return abs(b.d(s) / p(s)) * (
                    b.k2 * p_of(tau1(s)) + b.k3 * p_of(tau2(s))
                )

            weighted = {
                "retarded_bracket": bracket,
                "double_window": double,
                "neutral_damping": damping,
                "coupling_pair": coupling,
                "nonlinear_tail": tail,
            }

        self.direct: Mapping[str, Callable[[float], float]] = {
            "neutral_head": head,
            "drift_window": window,
        }
        self.weighted: Mapping[str, Callable[[float], float]] = weighted

    def values(self, t: float, tol: float = 1e-10) -> np.ndarray:
        b = self.bound
        if t < b.t0:
            raise ValidationError(f"criterion terms need t >= t0, got t={t!r}")
        out = []
        for label in self.labels:
            if label in self.direct:
                out.append(self.direct[label](t))
            else:
                out.append(weighted_integral(self.weighted[label], b.gexp, t, tol=tol))
        return np.asarray(out)


class TermEvaluator:
    """Reusable pointwise criterion-term evaluator.

    Binding a problem compiles every coefficient once; keep the evaluator
    around when querying many times.
    """

    def __init__(self, problem: ProblemSpec, aux: AuxiliarySpec, tmax: float = 100.0):
        self.bound = bind(problem, aux, tmax)
        self._terms = _TermSet(self.bound)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._terms.labels

    def values(self, t: float, tol: float = 1e-10) -> np.ndarray:
        return self._terms.values(t, tol)

    def total(self, t: float, tol: float = 1e-10) -> float:
        return float(self.values(t, tol).sum())


def term_values_linear(
    problem: ProblemSpec, aux: AuxiliarySpec, t: float, tol: float = 1e-10
) -> np.ndarray:
    """The five linear-neutral criterion addends at time t (one-shot)."""
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
    alpha_termwise: float
    terms: tuple[TermStat, ...]
    tmax: float
    grid: int

    def term(self, label: str) -> TermStat:
        for stat in self.terms:
            if stat.label == label:
                return stat
        raise KeyError(label)


def _alpha_from_bound(bound: BoundProblem, tmax: float, grid: int) -> AlphaEstimate:
    t0 = bound.t0
    if not tmax > t0:
        raise ValidationError("alpha_estimate needs tmax > t0")
    terms = _TermSet(bound)
    ts = np.linspace(t0, tmax, grid)

    arrays: dict[str, np.ndarray] = {}
    fns: dict[str, Callable[[float], float]] = {}
    for label, fn in terms.direct.items():
        arrays[label] = np.asarray([fn(t) for t in ts])
        fns[label] = fn
    # one sweep for every weighted term: shared nodes, G and damping weights
    weighted = terms.weighted
    sweep = WeightedSweep(
        list(weighted.values()),
        bound.gexp,
        ts,
        [_DOUBLE_TOL if label == "double_window" else _SWEEP_TOL for label in weighted],
    )
    for k, label in enumerate(weighted):
        arrays[label] = sweep.values[k]
        fns[label] = lambda t, k=k: sweep.at(t, k)

    direct = list(terms.direct.values())
    total = np.sum([arrays[label] for label in terms.labels], axis=0)

    def pointwise_sum(t: float) -> float:
        return sum(fn(t) for fn in direct) + float(sweep.at(t).sum())

    scan = sup_scan(pointwise_sum, t0, tmax, n=grid, samples=total)
    stats = []
    for label in terms.labels:
        s = sup_scan(fns[label], t0, tmax, n=grid, samples=arrays[label])
        stats.append(TermStat(label, s.sup, s.argsup))
    return AlphaEstimate(
        form=bound.problem.form,
        alpha=scan.sup,
        argsup=scan.argsup,
        tail_slope=scan.tail_slope,
        alpha_termwise=float(sum(st.sup for st in stats)),
        terms=tuple(stats),
        tmax=tmax,
        grid=grid,
    )


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
    return _alpha_from_bound(bind(problem, aux, tmax), tmax, grid)


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


def window_lipschitz(
    bound: BoundProblem, kind: str, centers: int = 128
) -> LipschitzEstimate:
    """Empirical unit-window constant for the coupling or damping integrand.

    kind "c-term": integrand |c(u) p^gamma(tau2(u)) / p(u)| (the coupling
    window bound); kind "g": integrand g (the damping window bound).  The
    windows cover [t0, tmax] of the binding.
    """
    b = bound
    t0, tmax = b.t0, b.tmax
    if not tmax > t0 + 1.0:
        raise ValidationError("window_lipschitz needs tmax > t0 + 1")
    if kind == "c-term":

        def f(u: float) -> float:
            return abs(b.c(u) * b.p_of(b.tau2(u)) ** b.gamma / b.p_raw(u))

    elif kind == "g":
        f = b.g_of
    else:
        raise ValidationError(f"unknown window kind {kind!r}; use 'c-term' or 'g'")

    widths = (1.0, 0.5, 0.25, 0.1, 0.02)
    best = 0.0
    try:
        pointwise = sup_scan(lambda u: abs(f(u)), t0, tmax, n=1024).sup
        for t1 in np.linspace(t0, tmax - 1.0, centers):
            for w in widths:
                ratio = abs(window_integral(f, float(t1), float(t1) + w)) / w
                if ratio > best:
                    best = ratio
    except QuadratureError as err:
        raise QuadratureError(
            f"window_lipschitz {kind!r} on the horizon [{t0!r}, {tmax!r}]: {err}"
        ) from err
    return LipschitzEstimate(kind=kind, windowed=best, pointwise=pointwise)


def _as_rate_callable(source) -> Callable[[float], float]:
    if isinstance(source, AuxiliarySpec):
        return source.g.compiled()
    if isinstance(source, Expression):
        return source.compiled()
    if callable(source):
        return source
    raise ValidationError("expected an AuxiliarySpec, an Expression, or a callable")


def K_estimate(
    source,
    tmax: float,
    t0: float = 0.0,
    n: int = 1024,
    checkpoint: float = 1.0,
    tol: float = 1e-11,
) -> float:
    """sup over t0 <= t1 <= t2 <= tmax of exp(-int_{t1}^{t2} g).

    Evaluated as exp of the largest prefix drop of the cumulative exponent
    on a grid of n+1 points.  Nonnegative rates give exactly 1 (attained
    on the diagonal); sign-changing rates are supported for robustness.
    ``source`` may be a binding, an auxiliary pair, a rate expression, or
    a plain callable; a binding brings its own cumulative table of g, which
    fixes t0, ``checkpoint`` and ``tol``.
    """
    if isinstance(source, BoundProblem):
        gexp = source.gexp
    else:
        gexp = CumulativeExponent(_as_rate_callable(source), t0, checkpoint, tol)
    ts = np.linspace(gexp.start, tmax, n + 1)
    G = np.asarray([gexp.cumulative(float(t)) for t in ts])
    drop = float((np.maximum.accumulate(G) - G).max())
    if drop < 1e-12:
        return 1.0
    return math.exp(drop)


@dataclass(frozen=True)
class AsymptoticCheck:
    """Decay diagnostics behind the asymptotic-stability verdict.

    ``a_tail`` is the damped coupling integral at Tmax and ``a_slope`` its
    secant slope over the last tenth of the horizon; the decay condition
    asks this integral to vanish at infinity.  ``g_divergent`` witnesses
    int g -> infinity by comparing cumulative increments across the last
    two decades of the horizon (a log-growing integral keeps equal decade
    increments, a convergent one lets them die out).
    """

    a_tail: float
    a_slope: float
    g_end: float
    a_term_decaying: bool
    g_divergent: bool


def asymptotic_check(bound: BoundProblem, tol: float = 1e-9) -> AsymptoticCheck:
    """Decay diagnostics over [t0, tmax] of the binding."""
    b = bound
    t0, tmax = b.t0, b.tmax

    def f(s: float) -> float:
        return abs(b.c(s) / b.p_raw(s)) * b.p_of(b.tau2(s)) ** b.gamma

    def damped(t: float, quantity: str) -> float:
        try:
            return weighted_integral(f, b.gexp, t, tol=tol)
        except QuadratureError as err:
            raise QuadratureError(
                f"asymptotic.{quantity} on the horizon [{t0!r}, {tmax!r}]: {err}"
            ) from err

    a_end = damped(tmax, "a_tail")
    a_prev = damped(t0 + 0.9 * (tmax - t0), "a_slope")
    a_slope = (a_end - a_prev) / (0.1 * (tmax - t0))

    g_end = b.gexp.cumulative(tmax)
    span = tmax - t0
    g_decade = b.gexp.cumulative(t0 + span / 10.0)
    g_two = b.gexp.cumulative(t0 + span / 100.0)
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
    if not alpha < 1.0:
        raise ValidationError(f"delta bounds need alpha < 1, got {alpha!r}")
    if alpha < 0.0:
        raise ValidationError("alpha must be nonnegative")
    if not K >= 1.0:
        raise ValidationError("K >= 1 required (the diagonal already gives 1)")
    if not eps > 0.0:
        raise ValidationError("eps must be positive")
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
    tau1 = delay.tau_expression
    one_minus = (1 - delay.slope_expression).simplified()
    q = (b / one_minus).simplified()
    p, g = aux.p, aux.g
    p_tau = p.substitute(t=tau1).simplified()
    pp_tau = aux.p_prime.substitute(t=tau1).simplified()
    g_tau = g.substitute(t=tau1).simplified()
    cbar = ((p_tau / p) * q).simplified()
    beta = (g * cbar + cbar.derivative("t")).simplified()
    bracket = ((g_tau - pp_tau / p_tau) * one_minus - beta).simplified()
    if residual is not None:
        bracket = (bracket - residual).simplified()
    return ((bracket * p + b * pp_tau) / p_tau).simplified()


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
    tau1 = problem.r1.tau_expression
    one_minus = (1 - problem.r1.slope_expression).simplified()
    q = (problem.b / one_minus).simplified()
    p, g = aux.p, aux.g
    p_tau = p.substitute(t=tau1).simplified()
    pp_tau = aux.p_prime.substitute(t=tau1).simplified()
    cbar = ((p_tau / p) * q).simplified()
    beta = (g * cbar + cbar.derivative("t")).simplified()
    mu = ((problem.a * p_tau - problem.b * pp_tau) / p).simplified()
    a_matched = (((mu + beta) * p) / p_tau).simplified()

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
    certification: str = "grid-certified"

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
        def fmt(v) -> str:
            if v is None:
                return "none"
            if isinstance(v, bool):
                return "true" if v else "false"
            if isinstance(v, float):
                return repr(float(v))
            return str(v)

        lines = [
            ("form", self.form),
            ("gamma", self.gamma),
            ("t0", self.t0),
            ("tmax", self.tmax),
            ("grid", self.grid),
            ("alpha", self.alpha),
            ("alpha.argsup", self.alpha_argsup),
            ("alpha.tail_slope", self.alpha_tail_slope),
            ("alpha.termwise", self.alpha_termwise),
        ]
        for s in self.terms:
            lines.append((f"term.{s.label}.sup", s.sup))
            lines.append((f"term.{s.label}.argsup", s.argsup))
        lines += [
            ("lipschitz.coupling.windowed", self.lipschitz_coupling.windowed),
            ("lipschitz.coupling.pointwise", self.lipschitz_coupling.pointwise),
            ("lipschitz.damping.windowed", self.lipschitz_damping.windowed),
            ("lipschitz.damping.pointwise", self.lipschitz_damping.pointwise),
            ("K", self.K),
            ("delta.eps", self.eps),
            ("delta.existence", self.delta_existence),
            ("delta.uniform", self.delta_uniform),
            ("delta.prefactor", self.delta_prefactor),
            ("asymptotic.a_tail", self.a_tail),
            ("asymptotic.a_slope", self.a_tail_slope),
            ("asymptotic.g_end", self.g_end),
            ("asymptotic.a_term_decaying", self.a_term_decaying),
            ("asymptotic.g_divergent", self.g_divergent),
            ("verdict.bounded", self.verdict_bounded),
            ("verdict.uniform", self.verdict_uniform),
            ("verdict.asymptotic", self.verdict_asymptotic),
            ("certification", self.certification),
        ]
        return "\n".join(f"{k} = {fmt(v)}" for k, v in lines) + "\n"


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
    if not tmax > problem.t0 + 1.0:
        raise ValidationError(
            f"tmax = {tmax!r} must exceed t0 + 1 = {problem.t0 + 1.0!r}: the check"
            " prices unit windows"
        )
    bound = bind(problem, aux, tmax)
    est = _alpha_from_bound(bound, tmax, grid)
    lip_c = window_lipschitz(bound, "c-term")
    lip_g = window_lipschitz(bound, "g")
    K = K_estimate(bound, tmax)
    asym = asymptotic_check(bound)

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
