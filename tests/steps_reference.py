"""An independent reference solver for the tests: a spectral method of steps.

The equations as written read x only at delayed arguments:

    linear-neutral  x'(t) = -a x(tau1) + b x'(tau1) + c G(x(tau2)^gamma)
    general         x'(t) = -a x(tau1) + d/dt Q(t, x(tau1))
                            + d F(x(tau1), x(tau2)) + c G(x(tau2)^gamma)

with d/dt Q = Q_t + Q_x x'(tau1) tau1' by the chain rule.  So on a window
[A, B] whose delayed arguments all land at or before A, x' is an explicit
function of the past (Bellen & Zennaro, *Numerical Methods for Delay
Differential Equations*, OUP 2003, ch. 3).  Each window samples x' at the
Chebyshev points of the first kind, interpolates it by a Chebyshev series,
integrates the series from x(A), and reads the past from the earlier
windows' series or from the history (Trefethen, *Approximation Theory and
Approximation Practice*, SIAM 2013, chs. 3 and 19).  A window whose lags
vanish at its left end (proportional lags at t0) reads itself; it is kept
short and solved by fixed-point iteration on its samples.

Lags must be linear in t, tau(t) = alpha + beta t with 0 < beta <= 1: a
constant lag or a proportional one.  Windows end at the breaking points,
the images of t0 under the lags, where x' or a higher derivative jumps.

The coefficients are read only through ``Expression.evaluate``, the tree
interpreter: the solver shares the parser and ``differentiate`` with the
program, and nothing else (no code generator, binding, stepper, Hermite
dense output or ``transformed_history``).  Its own error is stated by
solving at two degrees and comparing.
"""

import math

import numpy as np
from numpy.polynomial import chebyshev

_ITERATIONS = 200
_LONGEST = 2.0  # the longest window
_FIRST = 0.2  # the length of a window whose lags vanish at its left end


class Reference:
    """x and x' of one solve on [m, T]: the history below t0, then one
    Chebyshev series per window."""

    def __init__(self, psi, t0):
        self.psi, self.t0 = psi, float(t0)
        self.dpsi = psi.derivative("t")
        self.ends, self.xs, self.ds = [], [], []

    def __call__(self, ts):
        return self._read(ts, self.xs, self.psi)

    def derivative(self, ts):
        return self._read(ts, self.ds, self.dpsi)

    def _read(self, ts, series, history):
        ts = np.asarray(ts, dtype=float)
        out = np.empty(ts.shape)
        past = ts < self.t0
        out[past] = [history.evaluate(t=t) for t in ts[past].tolist()]
        # a point on a window boundary reads the earlier window (end >= t)
        where = np.searchsorted(self.ends, ts, side="left")
        if np.any(where[~past] >= len(self.ends)):
            raise ValueError(f"the reference ends at T = {self.ends[-1]!r}")
        for i in np.unique(where[~past]):
            mask = ~past & (where == i)
            out[mask] = series[i](ts[mask])
        return out


def _linear_lag(delay, t0):
    """(alpha, beta) of tau(t) = t - r(t) = alpha + beta t, checked at a
    third point."""
    tau = [t - delay.r.evaluate(t=t) for t in (t0, t0 + 1.0, t0 + 2.5)]
    beta = tau[1] - tau[0]
    alpha = tau[0] - beta * t0
    if not (0.0 < beta <= 1.0 and abs(alpha + beta * (t0 + 2.5) - tau[2]) <= 1e-12):
        raise ValueError(f"the reference needs a lag linear in t, got r = {delay.r}")
    return alpha, beta


def _breaks(lags, t0, T):
    """t0 and its images under the lags up to T: where tau_i(t) = xi for an
    earlier break xi."""
    found, todo = {t0}, [t0]
    while todo:
        xi = todo.pop()
        for alpha, beta in lags:
            t = (xi - alpha) / beta
            if xi < t < T and not any(abs(t - s) <= 1e-12 * max(1.0, abs(t)) for s in found):
                found.add(t)
                todo.append(t)
    return sorted(found)


def _rate(problem):
    """The equation's right-hand side at sample times t: coefficients
    (x-independent, evaluated once per window) and their combination with
    the delayed values."""
    p, gamma = problem, float(problem.gamma)

    def tail(c, x):
        root = 0.0 if x == 0.0 else math.copysign(abs(x) ** gamma, x)
        return c * p.G.evaluate(x=root)

    if p.form == "linear-neutral":
        def coefficients(t):
            return [(p.a.evaluate(t=s), p.b.evaluate(t=s), p.c.evaluate(t=s)) for s in t]

        def combine(t, co, x1, xp1, x2):
            return np.array([
                -a * u + b * up + tail(c, v) for (a, b, c), u, up, v in zip(co, x1, xp1, x2)
            ])

        return coefficients, combine

    r1_slope = p.r1.r.derivative("t")

    def coefficients(t):
        return [
            (p.a.evaluate(t=s), 1.0 - r1_slope.evaluate(t=s), p.d.evaluate(t=s), p.c.evaluate(t=s))
            for s in t
        ]

    def combine(t, co, x1, xp1, x2):
        return np.array([
            -a * u + p.Q_t.evaluate(t=s, x=u) + p.Q_x.evaluate(t=s, x=u) * up * slope
            + d * p.F.evaluate(x=u, y=v) + tail(c, v)
            for s, (a, slope, d, c), u, up, v in zip(t, co, x1, xp1, x2)
        ])

    return coefficients, combine


def solve(problem, psi, T, degree=40):
    """x on [t0, T] from the history psi (an expression in t on [m, t0]).

    x' is interpolated at ``degree + 1`` points a window.  A window is at
    most _LONGEST long, ends at the next breaking point, and reaches no
    further than its lags allow; where a lag vanishes at its left end, it
    is _FIRST long and iterated.
    """
    t0, T = float(problem.t0), float(T)
    lags = [_linear_lag(problem.r1, t0), _linear_lag(problem.r2, t0)]
    breaks = _breaks(lags, t0, T) + [T]
    coefficients, combine = _rate(problem)
    ref = Reference(psi, t0)
    nodes = chebyshev.chebpts1(degree + 1)
    vander = chebyshev.chebvander(nodes, degree)
    lo, x_lo = t0, psi.evaluate(t=t0)
    while lo < T:
        reach = min((lo - alpha) / beta for alpha, beta in lags)
        brk = next(b for b in breaks if b > lo)
        hi = min(brk, lo + _LONGEST)
        hi = min(hi, reach) if reach > lo else min(hi, lo + _FIRST)
        if brk - hi <= 1e-9 * max(1.0, abs(brk)):  # no sliver before a break or T
            hi = brk
        t = lo + (hi - lo) * (nodes + 1.0) / 2.0
        u1, u2 = (alpha + beta * t for alpha, beta in lags)
        co = coefficients(t.tolist())
        ref.ends.append(hi)
        ref.xs.append(None)
        ref.ds.append(None)

        def fit(dx):
            # the interpolant of the samples dx, by the discrete orthogonality
            # of the first-kind points, and its integral from x(lo)
            coef = vander.T @ dx * (2.0 / len(dx))
            coef[0] /= 2.0
            ref.ds[-1] = chebyshev.Chebyshev(coef, domain=[lo, hi])
            ref.xs[-1] = ref.ds[-1].integ(lbnd=lo, k=x_lo)

        reads_self = max(u1.max(), u2.max()) > lo
        dx = np.zeros(len(t))
        for _ in range(_ITERATIONS):
            fit(dx)
            reads = (ref(u1), ref.derivative(u1), ref(u2))
            new = combine(t.tolist(), co, *(v.tolist() for v in reads))
            change, dx = np.max(np.abs(new - dx)), new
            if not reads_self or change <= 1e-14 * np.max(np.abs(new)):
                break
        else:
            raise ArithmeticError(f"the window [{lo!r}, {hi!r}] did not settle")
        fit(dx)
        lo, x_lo = hi, float(ref.xs[-1](hi))
    return ref


def solve_checked(problem, psi, T, probes):
    """The degree-60 solve, and its own error on the probes: the largest
    difference from the degree-40 solve."""
    fine, rough = (solve(problem, psi, T, degree=n) for n in (60, 40))
    return fine, float(np.max(np.abs(fine(probes) - rough(probes))))
