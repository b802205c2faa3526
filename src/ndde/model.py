"""Problem data: delays, equation coefficients, auxiliary pair, history.

Two equation forms share one record (t >= t0 throughout, x^gamma read as the
signed power):

linear-neutral
    x'(t) = -a(t) x(t - r1(t)) + b(t) x'(t - r1(t))
            + c(t) G(x^gamma(t - r2(t)))

general
    x'(t) = -a(t) x(t - r1(t)) + (d/dt) Q(t, x(t - r1(t)))
            + d(t) F(x(t - r1(t)), x(t - r2(t)))
            + c(t) G(x^gamma(t - r2(t)))

The auxiliary pair (p, g) reshapes the equation into a damped integral form;
p is specified for t >= t0 only and extended by the constant 1 to the left of
t0 (a warning is issued when p(t0) != 1, and every consumer then uses the
extended values at delayed arguments).  ``bind`` compiles a problem/auxiliary
pair into fast closures with shared cumulative-integral caches; criteria,
operator, and integrator all work off that binding.  A request binds once:
a criterion check hands its binding to the sweep and to every companion
constant, and a Picard run's residual reads the binding its iteration used.
"""

from __future__ import annotations

import functools
import math
import numbers
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import DomainError, NonDifferentiableError, ValidationError
from .expressions import Expression, _piecewise_derivative, differentiate
from .expressions import signed_power, signed_power_array
from .quadrature import _MAX_TABLE_PANELS, CumulativeExponent, sup_scan

__all__ = [
    "DelaySpec",
    "AuxiliarySpec",
    "HistoryFunction",
    "ProblemSpec",
    "HorizonResult",
    "horizon",
    "BoundProblem",
    "bind",
    "transformed_history",
]

_T = Expression.variable("t")

_TABLE_TOL = 1e-11  # the quadrature tolerance of a binding's cumulative tables
_VALIDATE_SEED = 0  # the seed of ProblemSpec.validate's sample points
_INF_MEMO = 16  # scanned intervals a DelaySpec keeps; a full memo starts over
# the config check's and the binding's one wording, for where a lag reaches
# below t0: the only place the left extension of p is used
_EXTENSION_NOTE = "p(t0) = {!r} != 1; using the constant-1 extension left of t0"


@dataclass(frozen=True)
class DelaySpec:
    """A time-dependent lag r(t) >= 0 acting as t - r(t)."""

    r: Expression
    slope_expression: Expression = field(init=False, repr=False)
    tau_expression: Expression = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "slope_expression", differentiate(self.r))
        object.__setattr__(self, "tau_expression", (_T - self.r).simplified())
        # (inf, arginf) of t - r(t) by scanned interval (t0, tmax); not a
        # field, so equality and hashing stay those of r
        object.__setattr__(self, "_infs", {})

    def lag_fn(self) -> Callable[[float], float]:
        return self.r.compiled()

    def tau_fn(self) -> Callable[[float], float]:
        return self.tau_expression.compiled()

    def _inf_tau(self, t0: float, tmax: float) -> tuple[float, float]:
        """inf over [t0, tmax] of t - r(t) and where it is reached, scanned
        once per interval: a Picard request asks for the same one four times."""
        key = (t0, tmax)
        if key not in self._infs:
            tau = self.tau_fn()
            samples = -self.tau_expression.vectorized()(np.linspace(t0, tmax, 1024))
            res = sup_scan(lambda t: -tau(t), t0, tmax, n=1024, samples=samples)
            if len(self._infs) >= _INF_MEMO:
                self._infs.clear()
            self._infs[key] = (-res.sup, res.argsup)
        return self._infs[key]

    def validate(self, t0: float, tmax: float, slope_restricted: bool) -> list[str]:
        """Sampled checks; raises on hard failures, returns soft warnings."""
        lag, lags = self.lag_fn(), self.r.vectorized()
        slope = self.slope_expression.vectorized()
        ts = np.linspace(t0, max(tmax, t0), 512)
        stages = [
            (lambda t: lags(t) < 0.0,
             lambda i: f"delay r(t) = {lag(float(ts[i]))!r} < 0 at t = {float(ts[i])!r}")
        ]
        if slope_restricted:
            stages.append((
                lambda t: abs(1.0 - slope(t)) < 1e-12,
                lambda i: f"delay slope r'(t) = 1 at t = {float(ts[i])!r}; the neutral combination "
                "divides by 1 - r1'(t), so r1' must stay away from 1",
            ))
        _check_rows(stages, ts)
        soft: list[str] = []
        taus = ts - lags(ts)
        if (taus[1:] < taus[:-1] - 1e-12).any():
            soft.append("delayed argument t - r(t) is not nondecreasing on the sample grid")
        if taus[-1] <= taus[0] and tmax > t0:
            soft.append("t - r(t) did not grow over the horizon; completeness is doubtful")
        return soft


def _check_rows(stages, *columns: np.ndarray) -> None:
    """Raise the ValidationError that a row-by-row loop would raise first.

    Each stage is (test, message): ``test(*columns)`` flags the failing rows
    in bulk and ``message(i)`` words row i's failure; a row fails at its
    first failing stage.  When a bulk test raises (a function that cannot
    be evaluated at some row), the rows run again one at a time, stage by
    stage, so that the error met first in row order is the one raised.
    """
    try:
        masks = [np.asarray(test(*columns), dtype=bool) for test, _ in stages]
    except DomainError:
        for i in range(len(columns[0])):
            row = [c[i : i + 1] for c in columns]
            for test, message in stages:
                if test(*row)[0]:
                    raise ValidationError(message(i)) from None
        raise
    failing = np.logical_or.reduce(masks)
    if failing.any():
        i = int(np.argmax(failing))
        for mask, (_, message) in zip(masks, stages):
            if mask[i]:
                raise ValidationError(message(i))


@dataclass(frozen=True)
class AuxiliarySpec:
    """The reshaping pair: positive weight p(t) and damping rate g(t)."""

    p: Expression
    g: Expression
    p_prime: Expression = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "p_prime", differentiate(self.p))

    def validate(self, t0: float, tmax: float) -> list[str]:
        p = self.p.compiled()
        soft: list[str] = []
        ts = np.linspace(t0, max(tmax, t0), 512)
        ps = self.p.vectorized()
        _check_rows(
            [(lambda t: ps(t) <= 0.0, lambda i: f"p(t) = {p(float(ts[i]))!r} <= 0 at t = {float(ts[i])!r}")],
            ts,
        )
        if ps(ts).max() > 1e12:
            soft.append("p(t) exceeds 1e12 on the sample grid; boundedness is doubtful")
        return soft


@dataclass(frozen=True)
class HistoryFunction:
    """Initial segment psi on [m(t0), t0], with an optional explicit slope."""

    psi: Expression
    psi_prime: Expression | None = None

    def derivative_expression(self) -> Expression:
        """psi', one expression per history, so its compiled form is shared."""
        return self._derivative

    @functools.cached_property
    def _derivative(self) -> Expression:
        if self.psi_prime is not None:
            return self.psi_prime
        try:
            return differentiate(self.psi)
        except NonDifferentiableError as err:
            raise NonDifferentiableError(
                f"{err}; pass psi_prime explicitly for this history"
            ) from None

    def norm(self, m: float, t0: float) -> float:
        """sup |psi| over [m, t0]."""
        fn = self.psi.compiled()
        if t0 - m < 1e-12:
            return abs(fn(t0))
        return sup_scan(lambda t: abs(fn(t)), m, t0, n=256).sup


def _check_gamma(gamma: Fraction) -> Fraction:
    gamma = Fraction(gamma)
    if not (0 < gamma < 1):
        raise ValidationError(f"gamma = {gamma} must lie strictly between 0 and 1")
    if gamma.denominator % 2 == 0:
        raise ValidationError(
            f"gamma = {gamma} must have an odd denominator in lowest terms "
            "(the signed root is otherwise undefined for negative states)"
        )
    return gamma


@dataclass(frozen=True)
class ProblemSpec:
    """One neutral delay equation in either form; see the module docstring.

    Linear-neutral requires ``b``; the general form requires ``Q`` (with
    ``q_bound``, its Lipschitz bound in x), ``d`` and ``F``.  ``Q_t``/``Q_x``
    are derived symbolically when not supplied.  k2/k3/k4 are the Lipschitz
    constants of F (each slot) and G.
    """

    form: str
    t0: float
    gamma: Fraction
    r1: DelaySpec
    r2: DelaySpec
    a: Expression
    c: Expression
    G: Expression
    k4: float
    b: Expression | None = None
    Q: Expression | None = None
    Q_t: Expression | None = None
    Q_x: Expression | None = None
    q_bound: Expression | None = None
    d: Expression | None = None
    F: Expression | None = None
    k2: float = 0.0
    k3: float = 0.0

    def __post_init__(self):
        if self.form not in ("linear-neutral", "general"):
            raise ValidationError(f"unknown form {self.form!r}")
        object.__setattr__(self, "gamma", _check_gamma(self.gamma))
        require(t0=self.t0, k2=self.k2, k3=self.k3, k4=self.k4)
        if self.form == "linear-neutral":
            if self.b is None:
                raise ValidationError("linear-neutral form requires b")
        else:
            for name in ("Q", "q_bound", "d", "F"):
                if getattr(self, name) is None:
                    raise ValidationError(f"general form requires {name}")
            if self.Q_t is None:
                object.__setattr__(self, "Q_t", self.Q.derivative("t"))
            if self.Q_x is None:
                object.__setattr__(self, "Q_x", self.Q.derivative("x"))
            if not self.F.is_zero() and (self.k2 <= 0 or self.k3 <= 0):
                raise ValidationError("k2 and k3 must be positive when F is not zero")

    # ------------------------------------------------------------------
    def as_general(self) -> "ProblemSpec":
        """Re-encode a linear-neutral problem in the general form.

        Uses Q(t, x) = q(t) x with q = b/(1 - r1'), which moves q' into the
        retarded coefficient: a_general = a + q'.  F is identically zero.
        """
        if self.form == "general":
            return self
        one_minus = (1 - self.r1.slope_expression).simplified()
        q = (self.b / one_minus).simplified()
        q_prime = q.derivative("t")
        x = Expression.variable("x")
        zero_t = Expression(Expression.constant(0.0).root, ("t",))
        zero_f = Expression(Expression.constant(0.0).root, ("x", "y"))
        return ProblemSpec(
            form="general",
            t0=self.t0,
            gamma=self.gamma,
            r1=self.r1,
            r2=self.r2,
            a=(self.a + q_prime).simplified(),
            c=self.c,
            G=self.G,
            k4=self.k4,
            Q=q * x,
            Q_t=q_prime * x,
            Q_x=Expression(q.root, ("t", "x")),
            q_bound=q.apply("abs"),
            d=zero_t,
            F=zero_f,
            k2=0.0,
            k3=0.0,
        )

    # ------------------------------------------------------------------
    def validate(self, tmax: float, aux: AuxiliarySpec | None = None) -> list[str]:
        """Structural and sampled checks.

        Raises ValidationError on hard failures (negative lags, r1' = 1,
        nonpositive p, broken Lipschitz bounds or unpinned zeros); returns
        the soft warnings.
        """
        soft = self.r1.validate(self.t0, tmax, slope_restricted=True)
        soft += self.r2.validate(self.t0, tmax, slope_restricted=False)
        if aux is not None:
            soft += aux.validate(self.t0, tmax)
        rng = np.random.default_rng(_VALIDATE_SEED)

        g_fn = self.G.compiled()
        if abs(g_fn(0.0)) > 1e-15:
            raise ValidationError(f"G(0) = {g_fn(0.0)!r} != 0")
        xs = rng.uniform(-2.0, 2.0, size=(10_000, 2))
        g_arr = self.G.vectorized()

        def lipschitz(f, x, y, k):
            # evaluates f(x) before f(y), as the row-by-row loop did
            return abs(f(x) - f(y)) > k * abs(x - y) * (1 + 1e-9) + 1e-14

        _check_rows(
            [(lambda x, y: lipschitz(g_arr, x, y, self.k4),
              lambda i: f"G violates its Lipschitz bound k4 = {self.k4} at ({xs[i, 0]}, {xs[i, 1]})")],
            xs[:, 0], xs[:, 1],
        )

        if self.form == "general":
            f_fn = self.F.compiled()
            if abs(f_fn(0.0, 0.0)) > 1e-15:
                raise ValidationError("F(0, 0) != 0")
            pts = rng.uniform(-2.0, 2.0, size=(5_000, 3))
            f_arr = self.F.vectorized()
            _check_rows(
                [(lambda x, y, z: lipschitz(lambda u: f_arr(u, y), x, z, self.k2),
                  lambda i: "F violates its first-slot Lipschitz bound k2"),
                 (lambda x, y, z: lipschitz(lambda v: f_arr(x, v), y, z, self.k3),
                  lambda i: "F violates its second-slot Lipschitz bound k3")],
                *pts.T,
            )
            q_arr = self.Q.vectorized()
            qb_arr = self.q_bound.vectorized()
            ts = rng.uniform(self.t0, max(tmax, self.t0 + 1.0), size=100)
            pairs = rng.uniform(-2.0, 2.0, size=(100, 2))
            # one row per (t, pair), t-major, the checks of t first
            rows = (np.repeat(ts, len(pairs)), *np.tile(pairs, (len(ts), 1)).T)
            at_t = lambda i: float(rows[0][i])  # noqa: E731
            _check_rows(
                [(lambda t, x, y: abs(q_arr(t, 0.0)) > 1e-15,
                  lambda i: f"Q(t, 0) != 0 at t = {at_t(i)!r}"),
                 (lambda t, x, y: qb_arr(t) < 0,
                  lambda i: f"q_bound(t) = {self.q_bound.compiled()(at_t(i))!r} < 0 at t = {at_t(i)!r}"),
                 (lambda t, x, y: lipschitz(lambda u: q_arr(t, u), x, y, qb_arr(t)),
                  lambda i: f"Q violates its Lipschitz bound q_bound at t = {at_t(i)!r}")],
                *rows,
            )
        p_t0 = 1.0 if aux is None else aux.p.compiled()(self.t0)
        if abs(p_t0 - 1.0) > 1e-12:  # checked last, so that hard failures come first
            ts = np.linspace(self.t0, max(tmax, self.t0), 512)
            if min(d.tau_expression.vectorized()(ts).min() for d in (self.r1, self.r2)) < self.t0:
                soft.append(_EXTENSION_NOTE.format(p_t0))  # a lag reaches below t0 on the grid
        return soft


# ---------------------------------------------------------------------------
# Horizon: where the delayed arguments start

@dataclass(frozen=True)
class HorizonResult:
    m: float
    argmin: float
    per_delay: tuple[tuple[float, float], ...]  # (inf, arginf) per delay


# The rule of each numeric argument of the API and the config file, by name: a finite
# number, positive or nonnegative, or a whole number in lo..hi of what it counts.
ARGUMENT_RULES = {
    "t0": "finite", "m": "finite", "T": "finite", "tmax": "finite", "K": "finite", "t": "finite", "s": "finite",
    "k2": "nonnegative", "k3": "nonnegative", "alpha": "nonnegative", "tol": "nonnegative",
    "k4": "positive", "eps": "positive", "delta": "positive", "step": "positive", "h": "positive",
    "checkpoint": "positive",
    "grid": (64, 1 << 20, "sample points (the supremum scan's coarse grid)"),  # the presets take 4,096
    "max_iter": (1, 1 << 16, "iterations"),
}


def argument_fault(value, rule) -> str | None:
    """What ``rule``, an entry of ``ARGUMENT_RULES``, finds wrong with ``value``; None if nothing."""
    if isinstance(rule, tuple):
        lo, hi, unit = rule
        if not isinstance(value, numbers.Integral):
            return "must be a whole number"
        if value < lo:
            return f"need at least {lo} {unit}"
        return f"need at most {hi} {unit}" if value > hi else None
    if not isinstance(value, numbers.Real):
        return "must be a number"
    if not math.isfinite(value):
        return "must be finite"
    if rule == "positive" and not value > 0 or rule == "nonnegative" and not value >= 0:
        return f"must be {rule}"
    return None


def require(**args) -> None:
    """Raise unless every argument obeys ``ARGUMENT_RULES``; a name may put a
    noun before the argument's ("horizon T"), and the rule is the last word's."""
    for name, value in args.items():
        fault = argument_fault(value, ARGUMENT_RULES[name.split()[-1]])
        if fault:
            shown = float(value) if isinstance(value, float) else value  # a numpy float too
            raise ValidationError(f"{name} {fault}, got {shown!r}")


def require_after_t0(T: float, t0: float) -> None:
    """Raise unless the horizon T lies after t0 (NaN fails too)."""
    if not T > t0:
        raise ValidationError(f"horizon {float(T)!r} lies at or below t0 = {t0!r}")


def horizon(problem: ProblemSpec, tmax: float) -> HorizonResult:
    """inf over [t0, tmax] of each delayed argument, and their minimum.

    The overall m is the left end of the history interval [m, t0].  Each
    lag's scan is kept on its DelaySpec, so a repeated call scans nothing.
    """
    require(tmax=tmax)
    if not tmax >= problem.t0:
        raise ValidationError(f"horizon {tmax!r} lies below t0 = {problem.t0!r}")
    per = [spec._inf_tau(problem.t0, tmax) for spec in (problem.r1, problem.r2)]
    m, argmin = min(per, key=lambda pair: pair[0])
    return HorizonResult(m=m, argmin=argmin, per_delay=tuple(per))


# ---------------------------------------------------------------------------
# Binding: compile a (problem, aux) pair once, share quadrature caches

class _Derived:
    """Quantities derived from a binding's coefficient functions.

    Written once over attribute names that both coefficient sets share:
    the binding itself (scalar functions) and its ``arrays`` (numpy
    functions over arrays).
    """

    def drift(self, u):
        """g - p'/p on the left-extended weight."""
        return self.g_of(u) - self.pp_of(u) / self.p_of(u)

    # window of |g - p'/p| over [tau1(t), t]
    def drift_window(self, t):
        return self.drift_cum.cumulative(t) - self.drift_cum.cumulative(self.tau1(t))

    # --- linear combination coefficients (left extension applied) -------
    def cbar(self, t):
        """Neutral ratio p(tau1)/p * b/(1 - r1')."""
        return self.p_of(self.tau1(t)) / self.p_raw(t) * self.q(t)

    def cbar_prime(self, t):
        """d/dt of cbar, assembled by exact chain rule on the extension."""
        u = self.tau1(t)
        s = 1.0 - self.r1_slope(t)
        pt = self.p_raw(t)
        ppt = self.pp_of(t)
        ratio = self.p_of(u) / pt
        ratio_prime = (self.pp_of(u) * s * pt - self.p_of(u) * ppt) / (pt * pt)
        return self.q_prime(t) * ratio + self.q(t) * ratio_prime

    def mu(self, t):
        """Retarded mass (a p(tau1) - b p'(tau1)) / p."""
        u = self.tau1(t)
        return (self.a(t) * self.p_of(u) - self.b(t) * self.pp_of(u)) / self.p_raw(t)

    def beta(self, t):
        """Combination derivative g cbar + cbar'."""
        return self.g_of(t) * self.cbar(t) + self.cbar_prime(t)

    # --- coefficients of the reshaped equation ---------------------------
    def retarded(self, t):
        """The delayed drift (g - p'/p)(tau1) (1 - r1') of both brackets."""
        return self.drift(self.tau1(t)) * (1.0 - self.r1_slope(t))

    def bracket(self, t):
        """General-form bracket (g - p'/p)(tau1) (1 - r1') - a p(tau1)/p."""
        return self.retarded(t) - self.a(t) * self.p_of(self.tau1(t)) / self.p_raw(t)

    def damping_rate(self, t):
        """(g p - p')/p^2, the rate of the neutral damping."""
        p = self.p_raw(t)
        return (self.g_of(t) * p - self.pp_of(t)) / (p * p)

    def tail_scale(self, t):
        """c/p, the scale of the gamma-power coupling."""
        return self.c(t) / self.p_raw(t)

    def tail_weight(self, t):
        """p(tau2)^gamma, the weight inside the gamma-power coupling."""
        return self.p_of(self.tau2(t)) ** self.gamma

    def tail_coupling(self, w, z):
        """G(w z^gamma), the gamma-power coupling of z at the weight w."""
        return self.G_fn(w * self.signed_power(z, self.gamma))

    def pair_scale(self, t):
        """d/p, the scale of the F coupling (general form)."""
        return self.d(t) / self.p_raw(t)

    def inner_kinks(self, name, t, delay=None):
        """The kink arguments inside coefficient ``name`` (see
        :meth:`~ndde.expressions.Expression.kink_arguments`) at t, or at
        delay(t) when a delay such as ``tau1`` is given: where one changes
        sign, the coefficient may have a kink."""
        kinks = self._kinks[name]
        if kinks and delay is not None:
            t = delay(t)
        return [self._target(e)(t) for e in kinks]


class BoundProblem(_Derived):
    """Fast closures for one problem/auxiliary pair over [t0, tmax].

    ``p_of``/``pp_of`` are the left-extended weight and its slope (1 and 0
    strictly left of t0).  ``gexp`` accumulates the damping rate from t0;
    ``drift_cum`` accumulates |g - p'/p| from m, which prices every
    drift-window term.  ``arrays`` holds the same coefficient functions
    over numpy arrays, built on first use.
    """

    _target = staticmethod(Expression.compiled)  # the form of inner_kinks' functions

    def __init__(
        self,
        problem: ProblemSpec,
        aux: AuxiliarySpec,
        tmax: float,
        checkpoint: float = 1.0,
    ):
        self.problem = problem
        self.aux = aux
        self.tmax = float(tmax)
        self.t0 = float(problem.t0)
        hor = horizon(problem, tmax)
        self.horizon = hor
        self.m = min(hor.m, self.t0)
        if not (self.tmax - self.m) / checkpoint <= _MAX_TABLE_PANELS:  # NaN too
            # blame the delay only when its reach below t0 makes most of the span
            if not self.t0 - self.m <= self.tmax - self.t0:
                name, delay = ("r1", problem.r1) if hor.per_delay[0][0] == hor.m else ("r2", problem.r2)
                cause = f"delay {name} = {delay.r} reaches m = {hor.m!r}"
            else:
                cause = f"the horizon tmax = {self.tmax!r} is too long"
            raise ValidationError(
                f"{cause}: tables over [{self.m!r}, {self.tmax!r}] need over"
                f" {_MAX_TABLE_PANELS} panels of width {checkpoint!r}"
            )
        self.gamma = float(problem.gamma)
        self.k4 = problem.k4
        self.signed_power = signed_power

        # every coefficient function, by attribute name
        exprs = {
            "tau1": problem.r1.tau_expression,
            "tau2": problem.r2.tau_expression,
            "r1_slope": problem.r1.slope_expression,
            "a": problem.a,
            "c": problem.c,
            "G_fn": problem.G,
            "g_of": aux.g,
            "p_raw": aux.p,
            "p_slope": aux.p_prime,
        }
        if problem.form == "linear-neutral":
            one_minus = (1 - problem.r1.slope_expression).simplified()
            q_expr = (problem.b / one_minus).simplified()
            exprs.update(
                q=q_expr, q_prime=q_expr.derivative("t"), b=problem.b,
                q_bound=q_expr.apply("abs"),
            )
        else:
            exprs.update(
                q_bound=problem.q_bound, q_bound_prime=_piecewise_derivative(problem.q_bound),
                Q_fn=problem.Q, d=problem.d, F_fn=problem.F,
            )
            self.k2 = problem.k2
            self.k3 = problem.k3
        self._exprs = exprs
        self._kinks = {name: expr.kink_arguments() for name, expr in exprs.items()}
        for name, expr in exprs.items():
            setattr(self, name, expr.compiled())

        p_fn, pp_fn = self.p_raw, self.p_slope
        t0 = self.t0
        p_t0 = p_fn(t0)
        if self.m < t0 and abs(p_t0 - 1.0) > 1e-12:
            warnings.warn(_EXTENSION_NOTE.format(p_t0), stacklevel=2)

        def p_of(u: float) -> float:
            return 1.0 if u < t0 else p_fn(u)

        def pp_of(u: float) -> float:
            return 0.0 if u < t0 else pp_fn(u)

        self.p_of = p_of
        self.pp_of = pp_of
        self.gexp = CumulativeExponent(
            self.g_of, t0, checkpoint, _TABLE_TOL, f_array=lambda u: self.arrays.g_of(u), name="g"
        )
        self.drift_cum = CumulativeExponent(
            lambda u: abs(self.drift(u)), self.m, checkpoint, _TABLE_TOL,
            f_array=lambda u: abs(self.arrays.drift(u)), name="drift",
        )

    @functools.cached_property
    def arrays(self) -> "_ArrayCoefficients":
        return _ArrayCoefficients(self)


class _ArrayCoefficients(_Derived):
    """A binding's coefficient functions over numpy arrays: each expression
    in its array form, the left extensions as masks."""

    _target = staticmethod(Expression.vectorized)

    def __init__(self, bound: BoundProblem):
        for name in ("t0", "gamma", "k4", "k2", "k3", "gexp", "drift_cum", "_kinks"):
            if hasattr(bound, name):
                setattr(self, name, getattr(bound, name))
        for name, expr in bound._exprs.items():
            setattr(self, name, expr.vectorized())
        self.signed_power = signed_power_array

    def p_of(self, u: np.ndarray) -> np.ndarray:
        return self._extended(u, 1.0, self.p_raw)

    def pp_of(self, u: np.ndarray) -> np.ndarray:
        return self._extended(u, 0.0, self.p_slope)

    def _extended(self, u: np.ndarray, left: float, fn) -> np.ndarray:
        out = np.full(np.shape(u), left)
        inside = ~(u < self.t0)  # NaN goes to fn, as in the scalar test
        out[inside] = fn(u[inside])
        return out


def bind(
    problem: ProblemSpec,
    aux: AuxiliarySpec,
    tmax: float,
    checkpoint: float = 1.0,
) -> BoundProblem:
    require(tmax=tmax, checkpoint=checkpoint)
    return BoundProblem(problem, aux, tmax, checkpoint)


def transformed_history(
    problem: ProblemSpec, aux: AuxiliarySpec, history: HistoryFunction, m: float
) -> HistoryFunction:
    """History for a direct run matching the weighted fixed-point route.

    The fixed-point iteration works on the reshaped unknown z with z = psi on
    [m, t0]; mapped back, the direct trajectory starts from p(t0) psi(t0).
    With p(t0) = 1 the history is unchanged.  With a point history ([m, t0]
    degenerate) the product p * psi is the correct start.  Anything else has
    no expression-level representation, so it is rejected.
    """
    require(m=m)
    p_t0 = aux.p.evaluate(t=problem.t0)
    if abs(p_t0 - 1.0) <= 1e-12:
        return history
    if problem.t0 - m <= 1e-12:
        psi_prime = None
        if history.psi_prime is not None:
            psi_prime = aux.p_prime * history.psi + aux.p * history.psi_prime
        return HistoryFunction(psi=(aux.p * history.psi), psi_prime=psi_prime)
    raise ValidationError(
        "transform matching needs p(t0) = 1 or a degenerate history interval"
    )
