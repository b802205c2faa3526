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

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import NonDifferentiableError, ValidationError
from .expressions import Expression, differentiate
from .quadrature import CumulativeExponent, sup_scan

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


@dataclass(frozen=True)
class DelaySpec:
    """A time-dependent lag r(t) >= 0 acting as t - r(t)."""

    r: Expression
    slope_expression: Expression = field(init=False, repr=False)
    tau_expression: Expression = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "slope_expression", differentiate(self.r))
        object.__setattr__(self, "tau_expression", (_T - self.r).simplified())

    def lag_fn(self) -> Callable[[float], float]:
        return self.r.compiled()

    def tau_fn(self) -> Callable[[float], float]:
        return self.tau_expression.compiled()

    def slope_fn(self) -> Callable[[float], float]:
        return self.slope_expression.compiled()

    def validate(self, t0: float, tmax: float, slope_restricted: bool) -> list[str]:
        """Sampled checks; raises on hard failures, returns soft warnings."""
        lag = self.lag_fn()
        slope = self.slope_fn()
        ts = np.linspace(t0, max(tmax, t0), 512)
        soft: list[str] = []
        for t in ts:
            t = float(t)
            if lag(t) < 0.0:
                raise ValidationError(f"delay r(t) = {lag(t)!r} < 0 at t = {t!r}")
            if slope_restricted and abs(1.0 - slope(t)) < 1e-12:
                raise ValidationError(
                    f"delay slope r'(t) = 1 at t = {t!r}; the neutral combination "
                    "divides by 1 - r1'(t), so r1' must stay away from 1"
                )
        taus = [float(t) - lag(float(t)) for t in ts]
        if any(b < a - 1e-12 for a, b in zip(taus, taus[1:])):
            soft.append("delayed argument t - r(t) is not nondecreasing on the sample grid")
        if taus[-1] <= taus[0] and tmax > t0:
            soft.append("t - r(t) did not grow over the horizon; completeness is doubtful")
        return soft


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
        vals = []
        for t in ts:
            v = p(float(t))
            if v <= 0.0:
                raise ValidationError(f"p(t) = {v!r} <= 0 at t = {float(t)!r}")
            vals.append(v)
        if max(vals) > 1e12:
            soft.append("p(t) exceeds 1e12 on the sample grid; boundedness is doubtful")
        if abs(p(t0) - 1.0) > 1e-12:
            soft.append(
                f"p(t0) = {p(t0)!r} != 1; the constant-1 left extension will be used"
            )
        return soft


@dataclass(frozen=True)
class HistoryFunction:
    """Initial segment psi on [m(t0), t0], with an optional explicit slope."""

    psi: Expression
    psi_prime: Expression | None = None

    def derivative_expression(self) -> Expression:
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
        if self.k4 <= 0:
            raise ValidationError("k4 must be positive (Lipschitz constant of G)")
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
            if self.k2 < 0 or self.k3 < 0:
                raise ValidationError("k2 and k3 must be nonnegative")

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
    def validate(self, tmax: float, aux: AuxiliarySpec | None = None, seed: int = 0) -> list[str]:
        """Structural and sampled checks.

        Raises ValidationError on hard failures (negative lags, r1' = 1,
        nonpositive p, broken Lipschitz bounds or unpinned zeros); returns
        the soft warnings.
        """
        soft = self.r1.validate(self.t0, tmax, slope_restricted=True)
        soft += self.r2.validate(self.t0, tmax, slope_restricted=False)
        if aux is not None:
            soft += aux.validate(self.t0, tmax)
        rng = np.random.default_rng(seed)

        g_fn = self.G.compiled()
        if abs(g_fn(0.0)) > 1e-15:
            raise ValidationError(f"G(0) = {g_fn(0.0)!r} != 0")
        xs = rng.uniform(-2.0, 2.0, size=(10_000, 2))
        for x, y in xs:
            lhs = abs(g_fn(float(x)) - g_fn(float(y)))
            if lhs > self.k4 * abs(x - y) * (1 + 1e-9) + 1e-14:
                raise ValidationError(
                    f"G violates its Lipschitz bound k4 = {self.k4} at ({x}, {y})"
                )

        if self.form == "general":
            f_fn = self.F.compiled()
            if abs(f_fn(0.0, 0.0)) > 1e-15:
                raise ValidationError("F(0, 0) != 0")
            pts = rng.uniform(-2.0, 2.0, size=(5_000, 3))
            for x, y, z in pts:
                lhs = abs(f_fn(float(x), float(y)) - f_fn(float(z), float(y)))
                if lhs > self.k2 * abs(x - z) * (1 + 1e-9) + 1e-14:
                    raise ValidationError("F violates its first-slot Lipschitz bound k2")
                lhs = abs(f_fn(float(x), float(y)) - f_fn(float(x), float(z)))
                if lhs > self.k3 * abs(y - z) * (1 + 1e-9) + 1e-14:
                    raise ValidationError("F violates its second-slot Lipschitz bound k3")
            q_fn = self.Q.compiled()
            qb_fn = self.q_bound.compiled()
            ts = rng.uniform(self.t0, max(tmax, self.t0 + 1.0), size=100)
            pairs = rng.uniform(-2.0, 2.0, size=(100, 2))
            for t in ts:
                t = float(t)
                if abs(q_fn(t, 0.0)) > 1e-15:
                    raise ValidationError(f"Q(t, 0) != 0 at t = {t!r}")
                bound = qb_fn(t)
                if bound < 0:
                    raise ValidationError(f"q_bound(t) = {bound!r} < 0 at t = {t!r}")
                for x, y in pairs:
                    lhs = abs(q_fn(t, float(x)) - q_fn(t, float(y)))
                    if lhs > bound * abs(x - y) * (1 + 1e-9) + 1e-14:
                        raise ValidationError(
                            f"Q violates its Lipschitz bound q_bound at t = {t!r}"
                        )
        return soft


# ---------------------------------------------------------------------------
# Horizon: where the delayed arguments start

@dataclass(frozen=True)
class HorizonResult:
    m: float
    argmin: float
    per_delay: tuple[tuple[float, float], ...]  # (inf, arginf) per delay


def horizon(problem: ProblemSpec, tmax: float) -> HorizonResult:
    """inf over [t0, tmax] of each delayed argument, and their minimum.

    The overall m is the left end of the history interval [m, t0].
    """
    if not tmax >= problem.t0:
        raise ValidationError(f"horizon {tmax!r} lies below t0 = {problem.t0!r}")
    per: list[tuple[float, float]] = []
    for spec in (problem.r1, problem.r2):
        tau = spec.tau_fn()
        res = sup_scan(lambda t: -tau(t), problem.t0, tmax, n=1024)
        per.append((-res.sup, res.argsup))
    m, argmin = min(per, key=lambda pair: pair[0])
    return HorizonResult(m=m, argmin=argmin, per_delay=tuple(per))


# ---------------------------------------------------------------------------
# Binding: compile a (problem, aux) pair once, share quadrature caches

class BoundProblem:
    """Fast closures for one problem/auxiliary pair over [t0, tmax].

    ``p_of``/``pp_of`` are the left-extended weight and its slope (1 and 0
    strictly left of t0).  ``gexp`` accumulates the damping rate from t0;
    ``drift_cum`` accumulates |g - p'/p| from m, which prices every
    drift-window term.
    """

    def __init__(
        self,
        problem: ProblemSpec,
        aux: AuxiliarySpec,
        tmax: float,
        checkpoint: float = 1.0,
        quad_tol: float = 1e-11,
    ):
        self.problem = problem
        self.aux = aux
        self.tmax = float(tmax)
        self.t0 = float(problem.t0)
        hor = horizon(problem, tmax)
        self.horizon = hor
        self.m = min(hor.m, self.t0)

        self.tau1 = problem.r1.tau_fn()
        self.tau2 = problem.r2.tau_fn()
        self.r1_slope = problem.r1.slope_fn()
        self.a = problem.a.compiled()
        self.c = problem.c.compiled()
        self.G_fn = problem.G.compiled()
        self.gamma = float(problem.gamma)
        self.k4 = problem.k4

        p_fn = aux.p.compiled()
        pp_fn = aux.p_prime.compiled()
        self.g_of = aux.g.compiled()
        t0 = self.t0
        p_t0 = p_fn(t0)
        if self.m < t0 and abs(p_t0 - 1.0) > 1e-12:
            warnings.warn(
                f"p(t0) = {p_t0!r} != 1; using the constant-1 extension left of t0",
                stacklevel=2,
            )
        self.p_raw = p_fn

        def p_of(u: float) -> float:
            return 1.0 if u < t0 else p_fn(u)

        def pp_of(u: float) -> float:
            return 0.0 if u < t0 else pp_fn(u)

        g = self.g_of

        def drift(u: float) -> float:
            return g(u) - pp_of(u) / p_of(u)

        self.p_of = p_of
        self.pp_of = pp_of
        self.drift = drift
        self.gexp = CumulativeExponent(g, t0, checkpoint, quad_tol)
        self.drift_cum = CumulativeExponent(
            lambda u: abs(drift(u)), self.m, checkpoint, quad_tol
        )

        if problem.form == "linear-neutral":
            one_minus = (1 - problem.r1.slope_expression).simplified()
            q_expr = (problem.b / one_minus).simplified()
            self.q = q_expr.compiled()
            self.q_prime = q_expr.derivative("t").compiled()
            self.b = problem.b.compiled()
            self.q_bound = q_expr.apply("abs").compiled()
        else:
            self.q_bound = problem.q_bound.compiled()
            self.Q_fn = problem.Q.compiled()
            self.Qt_fn = problem.Q_t.compiled()
            self.Qx_fn = problem.Q_x.compiled()
            self.d = problem.d.compiled()
            self.F_fn = problem.F.compiled()
            self.k2 = problem.k2
            self.k3 = problem.k3

    # window of |g - p'/p| over [tau1(t), t]
    def drift_window(self, t: float) -> float:
        return self.drift_cum.cumulative(t) - self.drift_cum.cumulative(self.tau1(t))

    # --- linear combination coefficients (left extension applied) -------
    def cbar(self, t: float) -> float:
        """Neutral ratio p(tau1)/p * b/(1 - r1')."""
        return self.p_of(self.tau1(t)) / self.p_raw(t) * self.q(t)

    def cbar_prime(self, t: float) -> float:
        """d/dt of cbar, assembled by exact chain rule on the extension."""
        u = self.tau1(t)
        s = 1.0 - self.r1_slope(t)
        pt = self.p_raw(t)
        ppt = self.pp_of(t)
        ratio = self.p_of(u) / pt
        ratio_prime = (self.pp_of(u) * s * pt - self.p_of(u) * ppt) / (pt * pt)
        return self.q_prime(t) * ratio + self.q(t) * ratio_prime

    def mu(self, t: float) -> float:
        """Retarded mass (a p(tau1) - b p'(tau1)) / p."""
        u = self.tau1(t)
        return (self.a(t) * self.p_of(u) - self.b(t) * self.pp_of(u)) / self.p_raw(t)

    def beta(self, t: float) -> float:
        """Combination derivative g cbar + cbar'."""
        return self.g_of(t) * self.cbar(t) + self.cbar_prime(t)


def bind(
    problem: ProblemSpec,
    aux: AuxiliarySpec,
    tmax: float,
    checkpoint: float = 1.0,
    quad_tol: float = 1e-11,
) -> BoundProblem:
    return BoundProblem(problem, aux, tmax, checkpoint, quad_tol)


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
