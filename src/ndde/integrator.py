"""Direct integration of the neutral delay equations, plus stability runs.

Method of steps with classical 4-stage Runge-Kutta and cubic Hermite dense
output, the continuous extensions of Bellen & Zennaro, *Numerical Methods
for Delay Differential Equations* (OUP, 2003).  Delayed state and delayed
derivative are read from the dense output; when a delayed argument lands
inside the step currently being computed (vanishing-delay overlap near t0
for proportional lags, or a neutral term with zero lag), the step closes
with an inner fixed-point correction: predict the right endpoint by
extrapolation, run the stages against the provisional panel, re-evaluate,
and iterate to tolerance.  Sustained non-convergence halves the step and
restarts, a bounded number of times.

One stepper advances a family of M >= 1 histories in lockstep on one grid:
:func:`integrate` and :func:`integrate_transformed` run it with one member,
:func:`stability_experiment` with the whole family.  At each stage time the
right-hand side splits into a t-only row (coefficients, delayed arguments,
and where each delayed argument lands: the stage state, the history, a
closed panel with its Hermite weights, or the open panel), evaluated once
for the whole family, and a per-member combination of that row with the
member's own state.  The members share only the coefficients and the
located lookups: a step values each lookup where a stage reads it, by one
rule for every kind of location.  Each member keeps its own inner
iteration, its own junction bootstrap, and its own step halving (only the
members that fail to settle rerun at h/2), and takes exactly the arithmetic
of a one-member run, so a family member is bitwise equal to its own run.  A
family that fails raises the error of the first failure in t.

Blocks.  The equations as written (linear and general form) read x only
at delayed arguments.  Wherever every lookup of a run of steps lands on
the history or on a closed panel (right node at or before the step the
run starts at), RK4's stages are values of an already-known function:
k2 = k3 = f(mid), k4 = f(end) = the next node's derivative, and the
nodes are a running sum of the increments, in the step loop's order.
Such a run is stepped as one numpy block.  The rows are evaluated in
passes of at most 1,024 steps by the forms' array halves (vectorized
coefficients, lookups located in bulk), once per pass for the whole
family.  The family's nodes are one (members x steps) array for x and
one for x', so a block gathers each lookup for every member at once and
combines the whole family in one array call per stage; each element
takes the arithmetic it takes in a one-member block.  A block that
raises is redone member by member.  Block boundaries are worked out
from the grid and the located panels alone, never from the members, so
a family member still takes exactly the arithmetic of its own run.  A
lookup the step loop must see (the stage state itself, an argument
below the horizon) or the open panel ends a block.  A member's block is
written only when it raised nothing on its own and every value is
finite; otherwise, and where the array rows of a pass cannot be
evaluated, its steps go through the step loop, which raises its own
error at its own t.  The reshaped equation reads the current state, so
it is always stepped one step at a time.

The derivative at the junction t0 comes from the equation itself, solved
by the same inner iteration (the history only supplies the predictor), so
a neutral term with a vanishing lag at t0 is handled as long as its
coefficient keeps the self-reference contractive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import IntegrationError, NddeError, ValidationError
from .expressions import parse_expression, signed_power, signed_power_array
from .hermite import GridFunction, hermite_eval, hermite_weights
from .model import (
    AuxiliarySpec,
    HistoryFunction,
    ProblemSpec,
    bind,
    horizon,
    require,
    require_after_t0,
)

_INNER_TOL = 1e-12
_INNER_MAX = 25
_MAX_HALVINGS = 6
_PROBES = 101  # the probe grid of convergence_order


class Trajectory:
    """A completed run: nodes (t, x, x'), dense output, and the history.

    The dense output is one :class:`~ndde.hermite.GridFunction` over the
    step nodes, queried over the trajectory's domain [m, T]: cubic Hermite
    on the step panels, exact at the nodes, and psi (psi') below t0.
    Immutable after construction.
    """

    def __init__(self, ts, xs, ds, history: HistoryFunction, m: float, h: float):
        self.m, self.h = float(m), float(h)
        self.curve = c = GridFunction(ts, xs, ds, domain=(self.m, float(ts[-1])))
        for arr in (c.mesh, c.values, c.derivs):
            arr.setflags(write=False)
        self.nodes, self.values, self.derivatives = c.mesh, c.values, c.derivs
        self.t0, self.T = float(c.mesh[0]), float(c.mesh[-1])
        self.history = history
        self._psi = history.psi.compiled()
        self._psi_prime = history.derivative_expression().compiled()

    # ------------------------------------------------------------------
    def eval(self, t: float) -> float:
        x = self.curve.eval(t)
        return float(self._psi(float(t))) if t < self.t0 else x

    __call__ = eval

    def deriv(self, t: float) -> float:
        x = self.curve.eval(t, True)
        return float(self._psi_prime(float(t))) if t < self.t0 else x

    def eval_array(self, ts) -> np.ndarray:
        """:meth:`eval` at every element of a 1-D array-like, bit for bit."""
        ts = np.asarray(ts, dtype=float)
        out, below = self.curve.eval_array(ts), ts < self.t0
        out[below] = [self._psi(t) for t in ts[below].tolist()]
        return out

    # ------------------------------------------------------------------
    def max_abs(self) -> float:
        return self.curve.sup_norm

    def end_abs(self) -> float:
        return float(abs(self.values[-1]))

    def window_max(self, lo: float, hi: float) -> float:
        """Largest |x| over the nodes in [lo, hi]; where no node lies there,
        the larger of |x(lo)| and |x(hi)| from the dense output."""
        mask = (self.nodes >= lo) & (self.nodes <= hi)
        inside = self.values[mask] if mask.any() else self.eval_array((lo, hi))
        return float(np.abs(inside).max())

    def to_csv(self, path) -> None:
        self.curve.to_csv(
            path,
            f"trajectory nodes={len(self.nodes)} t0={self.t0!r} T={self.T!r}"
            f" h={self.h!r} m={self.m!r}",
            slopes=True,
        )


# -------------------------------------------------------------------- forms
#
# A form is a pair (row, rhs), written once over a function set: the
# compiled coefficients on one stage time, or their vectorized twins on an
# array of stage times.  ``row(t, X, Xp)`` evaluates everything that depends
# on t alone and reads, through X(u, t) and Xp(u), the delayed lookups the
# equation reads at t, in the order it reads them; a lookup it does not
# read is never located.  ``rhs(co, v)`` combines the row's coefficients co
# with one member's lookup values v (None where a lookup was not read; on
# arrays, one row per member, which the coefficients broadcast over), in
# the operation order of the equation as written.  On arrays a lookup that
# only some of the stage times read is read at all of them, and its term
# is multiplied by 0 where it is not.


def _functions(problem: ProblemSpec, array: bool) -> SimpleNamespace:
    """The problem's coefficient functions: compiled, or vectorized."""
    exprs = {
        "a": problem.a, "b": problem.b, "c": problem.c, "d": problem.d, "G": problem.G,
        "Qt": problem.Q_t, "Qx": problem.Q_x, "F": problem.F,
        "tau1": problem.r1.tau_expression, "tau2": problem.r2.tau_expression,
        "slope1": problem.r1.slope_expression,
    }
    fns = {k: e.vectorized() if array else e.compiled() for k, e in exprs.items() if e is not None}
    if array:
        return SimpleNamespace(**fns, sgnpow=signed_power_array, any=np.any)
    return SimpleNamespace(**fns, sgnpow=signed_power, any=bool)


def _form_linear(problem: ProblemSpec, fx: SimpleNamespace):
    gamma = float(problem.gamma)
    # syntactically zero coefficients skip their lookups entirely, so a
    # plain ODE never touches the open panel and stays classical RK4
    has_b = not problem.b.is_zero()
    has_c = not problem.c.is_zero()

    def row(t, X, Xp):
        u1 = fx.tau1(t)
        na = -fx.a(t)
        l1 = X(u1, t)
        bv = lp1 = cv = l2 = None
        if has_b:
            bv = fx.b(t)
            lp1 = Xp(u1)
        if has_c:
            u2 = fx.tau2(t)
            cv = fx.c(t)
            l2 = X(u2, t)
        return (na, bv, cv), (l1, lp1, l2)

    def rhs(co, v):
        na, bv, cv = co
        x1, xp1, x2 = v
        out = na * x1
        if has_b:
            out += bv * xp1
        if has_c:
            out += cv * fx.G(fx.sgnpow(x2, gamma))
        return out

    return row, rhs


def _form_general(problem: ProblemSpec, fx: SimpleNamespace):
    gamma = float(problem.gamma)
    has_q = not problem.Q.is_zero()
    has_c = not problem.c.is_zero()

    def row(t, X, Xp):
        u1 = fx.tau1(t)
        l1 = X(u1, t)
        na = -fx.a(t)
        lp1 = s1 = l2 = cv = None
        if has_q:
            lp1 = Xp(u1)
            s1 = 1.0 - fx.slope1(t)
        dv = fx.d(t)
        if fx.any(dv != 0.0) or has_c:
            l2 = X(fx.tau2(t), t)
        if has_c:
            cv = fx.c(t)
        return (t, na, s1, dv, cv), (l1, lp1, l2)

    def rhs(co, v):
        t, na, s1, dv, cv = co
        x1, xp1, x2 = v
        out = na * x1
        if has_q:
            out += fx.Qt(t, x1) + fx.Qx(t, x1) * xp1 * s1
        if fx.any(dv != 0.0):
            out += dv * fx.F(x1, x2)
        if has_c:
            out += cv * fx.G(fx.sgnpow(x2, gamma))
        return out

    return row, rhs


def _form(problem: ProblemSpec):
    """(scalar form, array form) of the equation as written."""
    build = _form_linear if problem.form == "linear-neutral" else _form_general
    return build(problem, _functions(problem, False)), build(problem, _functions(problem, True))


def _form_transformed(bound):
    """The reshaped equation z' (x = p z); the state y is read as a lookup,
    so it has no array form."""
    b = bound

    def row(t, X, Xp):
        u1 = b.tau1(t)
        u2 = b.tau2(t)
        l1 = X(u1, t)
        l2 = X(u2, t)
        p1 = b.p_of(u1)
        pt = b.p_raw(t)
        pp1 = b.pp_of(u1)
        lp1 = Xp(u1)
        s1 = 1.0 - b.r1_slope(t)
        ky = -(b.pp_of(t) / pt)
        ka = b.a(t) / pt
        kd = b.pair_scale(t) or None  # the F term only where d != 0
        p2 = None if kd is None else b.p_of(u2)
        co = (t, p1, pp1, s1, pt, ky, ka, kd, p2, b.tail_scale(t), b.tail_weight(t))
        return co, (X(t, t), l1, l2, lp1)

    def rhs(co, v):
        t, p1, pp1, s1, pt, ky, ka, kd, p2, kc, p2g = co
        y, z1, z2, zp1 = v
        w = p1 * z1
        wp = (pp1 * z1 + p1 * zp1) * s1
        out = ky * y - ka * w
        out += (b.Qt_fn(t, w) + b.Qx_fn(t, w) * wp) / pt
        if kd is not None:
            out += kd * b.F_fn(w, p2 * z2)
        out += kc * b.tail_coupling(p2g, z2)
        return out

    return (row, rhs), None


# ------------------------------------------------------------------- stepper

# Where a lookup lands at one stage time: the stage state, the junction
# derivative being bootstrapped, the history, the left node of the open
# panel, a closed panel, or the open (provisional) panel.  A location is
# (kind, slope, where, weights); ``where`` is the argument of a history
# lookup and the panel index otherwise.
_SELF, _DSELF, _HIST, _NODE, _CLOSED, _OPEN = range(6)
_MOVING = (_SELF, _DSELF, _OPEN)  # kinds whose value changes within a step
_AT_SELF = (_SELF, False, None, None)
_AT_DSELF = (_DSELF, True, None, None)

# Blocks: the rows of at most _BLOCK steps are evaluated in one array pass,
# which bounds the memory a pass takes; a span shorter than _MIN_BLOCK is
# stepped one by one, where a block's fixed cost (a few array calls per
# lookup and member) would exceed the steps it saves.
_BLOCK = 1024
_MIN_BLOCK = 8
# most steps one sweep takes (24 bytes of nodes a step and history); the
# presets take 5e4 at their default step
_MAX_STEPS = 1 << 23
_ARRAY_ERRORS = (NddeError, ArithmeticError, ValueError)


def _step_count(t0: float, T: float, h: float) -> int:
    """The steps of a sweep of [t0, T] at most h long; more than the budget is refused."""
    steps = (T - t0) / h - 1e-9
    if not steps <= _MAX_STEPS:  # NaN too
        raise ValidationError(
            f"step {h!r} is too small for T = {T!r}: {(T - t0) / h:.3g} steps,"
            f" over the budget of {_MAX_STEPS}"
        )
    return max(1, math.ceil(steps))


class _Stage(NamedTuple):
    """One stage time's array row over a pass of steps."""

    co: tuple
    locs: tuple  # index into ``looks`` per lookup, None where not read
    looks: list  # (u, slope, history mask or None, panel, Hermite weights)


class _Pass(NamedTuple):
    k: int  # the pass covers steps k, k + 1, ...
    mid: _Stage
    end: _Stage
    need: np.ndarray  # per step, the first step a block holding it may start at


class _Lockstep:
    """One fixed-step sweep of a family of histories on one shared grid.

    The family's nodes are one (members x nodes) array for x and one for
    x', which the blocks gather from for all members at once; the step
    loop reads and writes them through per-member float views.  Every
    lookup is located once per stage time for the whole family; the
    members share only the coefficients and the located lookups, and the
    step loop values each lookup for each member where a stage reads it.
    ``counts`` records the steps taken one by one, the blocks, the steps in
    blocks, and the block attempts abandoned.
    """

    def __init__(self, histories, t0, T, h, tol, m):
        self.n = n = _step_count(t0, T, h)
        self.h = (T - t0) / n
        self.t0 = t0
        self.m = m
        self.tol = tol
        self.grid = t0 + self.h * np.arange(n + 1.0)  # t0 + h * i, bit for bit
        self._X = np.zeros((len(histories), n + 1))
        self._D = np.zeros((len(histories), n + 1))
        # float views: indexing them gives Python floats, as the step loop wants
        self.ts = memoryview(self.grid)
        self.xs = [memoryview(row) for row in self._X]
        self.ds = [memoryview(row) for row in self._D]
        # the array forms of psi and psi' are compiled when a block first
        # reads the history
        self._psi_exprs = [hist.psi for hist in histories]
        self._psi_prime_exprs = [hist.derivative_expression() for hist in histories]
        self.psi = [psi.compiled() for psi in self._psi_exprs]
        self.psi_prime = [prime.compiled() for prime in self._psi_prime_exprs]
        self.k = 0  # open panel index: [ts[k], ts[k+1]]
        self._fuzz = 1e-12 * max(1.0, abs(T))
        self._mfuzz = 1e-9 * max(1.0, abs(m))
        self.counts = {"steps": 0, "blocks": 0, "block_steps": 0, "abandoned": 0}

    # ------------------------------------------------------------ locating
    def _check_horizon(self, u):
        if u < self.m - self._mfuzz:
            raise ValidationError(
                f"delayed argument {u!r} below the horizon m = {self.m!r}"
            )

    def X(self, u, t):
        """Locate a delayed state at stage time t."""
        if abs(u - t) <= self._fuzz:
            return _AT_SELF
        return self._locate(u, False)

    def Xp(self, u):
        """Locate a delayed derivative."""
        return self._locate(u, True)

    def _locate(self, u, slope):
        if u < self.t0:
            self._check_horizon(u)
            return (_HIST, slope, u, None)
        h, k = self.h, self.k
        i = int((u - self.t0) / h)
        if i >= k:
            if u <= self.ts[k] + self._fuzz:
                return (_NODE, slope, k, None)
            s = min((u - self.ts[k]) / h, 1.0)
            return (_OPEN, slope, k, hermite_weights(s, h, slope))
        s = (u - self.ts[i]) / h
        return (_CLOSED, slope, i, hermite_weights(s, h, slope))

    # at the junction t0 the only self-references are the start value and
    # the derivative being solved for; everything else is history
    def _X0(self, u, t):
        if abs(u - self.t0) <= self._fuzz:
            return _AT_SELF
        self._check_horizon(u)
        return (_HIST, False, u, None)

    def _Xp0(self, u):
        if abs(u - self.t0) <= self._fuzz:
            return _AT_DSELF
        self._check_horizon(u)
        return (_HIST, True, u, None)

    # ------------------------------------------------------------- values
    def _values(self, j, locs, y, xr, dr):
        """Member j's value of each located lookup (None where not read), at
        stage state y with the open panel's provisional right end (xr, dr)."""
        xs, ds = self.xs[j], self.ds[j]
        out = []
        for loc in locs:
            v = None
            if loc is not None:
                kind, slope, where, w = loc
                if kind == _CLOSED:
                    v = hermite_eval(w, xs[where], ds[where], xs[where + 1], ds[where + 1])
                elif kind == _OPEN:
                    v = hermite_eval(w, xs[where], ds[where], xr, dr)
                elif kind == _HIST:
                    v = (self.psi_prime if slope else self.psi)[j](where)
                elif kind == _NODE:
                    v = (ds if slope else xs)[where]
                else:
                    v = y if kind == _SELF else dr
            out.append(v)
        return out

    # ------------------------------------------------------------------
    def _bootstrap(self, j, co, locs, rhs):
        """x'(t0) from the equation itself; the history only predicts."""
        t0 = self.t0
        x0 = float(self.psi[j](t0))
        self.xs[j][0] = x0
        d0 = float(self.psi_prime[j](t0))
        for _ in range(_INNER_MAX):
            d_new = rhs(co, self._values(j, locs, x0, None, d0))
            if abs(d_new - d0) <= self.tol:
                self.ds[j][0] = d_new
                return
            d0 = d_new
        raise IntegrationError(
            "derivative at t0 did not settle: the neutral self-reference at the "
            "junction is not contractive"
        )

    def run(self, form):
        """Step every member to T; returns (xs, ds) per member, or None for a
        member whose inner correction failed to settle at some step.

        ``form`` is (scalar form, array form or None).  Each pass of up to
        _BLOCK steps evaluates the array rows once; a span of at least
        _MIN_BLOCK steps that reads only closed panels and the history is
        then stepped as one block for the whole family, and every other
        step, and every member whose block failed, one by one.
        """
        (row, rhs), bulk = form
        members = range(len(self.xs))
        co, locs = row(self.t0, self._X0, self._Xp0)
        for j in members:
            self._bootstrap(j, co, locs, rhs)
        active = list(members)
        k = 0
        while k < self.n and active:
            stop = min(k + _BLOCK, self.n)
            plan = self._pass(bulk[0], k, stop) if bulk is not None else None
            while k < stop and active:
                span = self._span(plan, k) if plan is not None else 0
                if span >= _MIN_BLOCK:
                    single = self._block(plan, bulk[1], k, span, active)
                else:
                    span, single = 1, active
                for step in range(k, k + span):
                    if not single:
                        break
                    failed = self._step(step, single, row, rhs)
                    if failed:
                        active = [j for j in active if j not in failed]
                        single = [j for j in single if j not in failed]
                k += span
        done = set(active)
        return [(self._X[j], self._D[j]) if j in done else None for j in members]

    def _step(self, k, active, row, rhs):
        """Step k of the active members, one RK4 step with the inner
        correction, each member valuing every lookup where a stage reads it;
        returns the members that failed to settle."""
        self.counts["steps"] += 1
        self.k = k
        h = self.h
        half = 0.5 * h
        h6 = h / 6.0
        tn = self.ts[k + 1]
        mid_co, mid = row(self.ts[k] + half, self.X, self.Xp)
        end_co, end = row(tn, self.X, self.Xp)
        mid_kinds, end_kinds = ({loc[0] for loc in locs if loc is not None} for locs in (mid, end))
        # k2 and k3 differ only through the stage state, so k3 = k2 for a mid
        # row that does not read it, which is valued once a step if none of
        # its lookups moves; an end row none of whose lookups moves gives
        # x'(t_{k+1}) = k4.  Only the open panel needs the inner correction.
        mid_moves = not mid_kinds.isdisjoint(_MOVING)
        mid_reads_y = _SELF in mid_kinds
        end_moves = not end_kinds.isdisjoint(_MOVING)
        touched = _OPEN in mid_kinds or _OPEN in end_kinds
        values = self._values
        failed = []
        for j in active:
            xk, k1 = self.xs[j][k], self.ds[j][k]
            xr, dr = xk + h * k1, k1
            for it in range(_INNER_MAX):
                if it == 0 or mid_moves:
                    k2 = rhs(mid_co, values(j, mid, xk + half * k1, xr, dr))
                    k3 = rhs(mid_co, values(j, mid, xk + half * k2, xr, dr)) if mid_reads_y else k2
                k4 = rhs(end_co, values(j, end, xk + h * k3, xr, dr))
                x_prev, d_prev = xr, dr
                xr = xk + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                dr = rhs(end_co, values(j, end, xr, xr, d_prev)) if end_moves else k4
                if not touched or max(abs(xr - x_prev), h * abs(dr - d_prev)) <= self.tol:
                    break
            else:
                failed.append(j)
                continue
            if not (math.isfinite(xr) and math.isfinite(dr)):
                raise IntegrationError(f"state became non-finite near t = {tn!r}")
            self.xs[j][k + 1] = xr
            self.ds[j][k + 1] = dr
        return failed

    # -------------------------------------------------------------- blocks
    def _pass(self, row, k, stop):
        """The array rows of steps k..stop-1, or None (counted as abandoned)
        when they cannot be evaluated; those steps then go one by one."""
        grid = self.grid
        try:
            mid, mid_need = self._stage_rows(row, grid[k:stop] + 0.5 * self.h)
            end, end_need = self._stage_rows(row, grid[k + 1 : stop + 1])
        except _ARRAY_ERRORS:
            self.counts["abandoned"] += 1
            return None
        return _Pass(k, mid, end, np.maximum(mid_need, end_need))

    def _stage_rows(self, row, t):
        """The array row at stage times t, and per step the first step a
        block holding it may start at."""
        reads = []

        def X(u, at):
            reads.append((u, at, False))
            return len(reads) - 1

        def Xp(u):
            reads.append((u, None, True))
            return len(reads) - 1

        co, locs = row(t, X, Xp)
        looks, need = [], np.zeros(len(t))
        for u, at, slope in reads:
            look, first = self._locate_array(u, at, slope)
            looks.append(look)
            need = np.maximum(need, first)
        return _Stage(co, locs, looks), need

    def _locate_array(self, u, at, slope):
        """A lookup over an array of stage times: its gather data, and the
        first step at which a block may read it.  That step is 0 on the
        history, i + 1 on panel i, and never where the step loop must see
        the lookup (the stage state itself, an argument below the horizon),
        so a block holds only lookups whose values are already known."""
        u = np.asarray(u, dtype=float)
        h = self.h
        hist = u < self.t0
        i = np.floor((u - self.t0) / h)
        first = np.where(hist, 0.0, i + 1.0)
        never = hist & (u < self.m - self._mfuzz)
        if at is not None:
            never |= np.abs(u - at) <= self._fuzz
        first[never] = np.inf
        i = np.clip(i, 0, self.n - 1).astype(np.intp)
        w = hermite_weights((u - self.grid[i]) / h, h, slope)
        return (u, slope, hist if hist.any() else None, i, w), first

    def _span(self, plan, s):
        """Length of the block that may start at step s: the steps from s on
        whose lookups all need a start at or before s."""
        late = plan.need[s - plan.k :] > s
        return int(late.argmax()) if late.any() else len(late)

    def _gather(self, look, nodes, rows, sl):
        """One lookup's values over the block slice ``sl``: a row for each
        member in ``rows``, whose x and x' nodes are ``nodes``."""
        u, slope, hist, i, w = look
        i = i[sl]
        X, D = nodes
        w = tuple(c if c is None else c[sl] for c in w)
        out = hermite_eval(
            w, X.take(i, axis=1), D.take(i, axis=1), X.take(i + 1, axis=1), D.take(i + 1, axis=1)
        )
        if hist is not None:
            past = hist[sl]
            if past.any():
                exprs = self._psi_prime_exprs if slope else self._psi_exprs
                at = u[sl][past]
                for q, j in enumerate(rows):
                    out[q, past] = exprs[j].vectorized()(at)
        return out

    def _block(self, plan, rhs, s, span, active):
        """Steps s..s+span-1 of the active members as one block: every
        stage's lookups are known, so k2 = k3 = f(mid), k4 = f(end) and the
        nodes are a running sum of the RK4 increments, in the step loop's
        order.  The whole family takes one array call per stage; when that
        raises, each member is redone alone.  A member's block is written
        only when it raised nothing and every value is finite; returns the
        members whose block failed."""
        sl = slice(s - plan.k, s - plan.k + span)
        stages = []
        for stage in (plan.mid, plan.end):
            co = tuple(c if c is None else c[sl] for c in stage.co)
            stages.append((co, stage.locs, stage.looks))
        single = self._advance(stages, rhs, s, sl, active)
        if single is None:
            single = []
            for j in active:
                alone = self._advance(stages, rhs, s, sl, [j]) if len(active) > 1 else None
                single += [j] if alone is None else alone
        if len(single) < len(active):
            self.counts["blocks"] += 1
            self.counts["block_steps"] += span
        if single:
            self.counts["abandoned"] += 1
        return single

    def _advance(self, stages, rhs, s, sl, members):
        """The block of the given members in one array call per stage;
        writes the members whose values are all finite and returns the
        others, or None when the calls raise."""
        rows = np.array(members, dtype=np.intp)
        X, D = self._X, self._D
        # a block of the whole family gathers from the node arrays themselves
        nodes = (X, D) if len(rows) == len(X) else (X[rows], D[rows])
        try:
            with np.errstate(all="ignore"):
                k2, d = [
                    rhs(co, [None if q is None else self._gather(looks[q], nodes, members, sl)
                             for q in locs])
                    for co, locs, looks in stages
                ]
                k1 = np.concatenate((D[rows, s, None], d[:, :-1]), axis=1)
                incr = self.h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k2 + d)
                x = np.add.accumulate(np.concatenate((X[rows, s, None], incr), axis=1), axis=1)
        except _ARRAY_ERRORS:
            return None
        ok = np.isfinite(x).all(axis=1) & np.isfinite(d).all(axis=1)
        steps = slice(s + 1, s + d.shape[1] + 1)
        X[rows[ok], steps] = x[ok, 1:]
        D[rows[ok], steps] = d[ok]
        return rows[~ok].tolist()


def _drive(form, histories, t0, T, h, tol, m) -> list[Trajectory]:
    """Integrate every history; members that fail to settle rerun at h/2."""
    require_after_t0(T, t0)
    out: list[Trajectory | None] = [None] * len(histories)
    pending = list(range(len(histories)))
    step = min(h, T - t0)  # a longer step is one sweep of T - t0, which halving must shorten
    for _ in range(_MAX_HALVINGS + 1):
        sweep = _Lockstep([histories[j] for j in pending], t0, T, step, tol, m)
        runs = sweep.run(form)
        for j, run in zip(pending, runs):
            if run is not None:
                out[j] = Trajectory(sweep.grid, run[0], run[1], histories[j], m, sweep.h)
        pending = [j for j, run in zip(pending, runs) if run is None]
        if not pending:
            return out
        step *= 0.5
    raise IntegrationError(
        f"inner step correction kept failing down to h = {sweep.h!r}; "
        "the delay overlap is too strong for this stepper"
    )


# ------------------------------------------------------------------- public


def integrate(
    problem: ProblemSpec,
    psi: HistoryFunction,
    T: float,
    h: float = 1e-3,
    tol: float = _INNER_TOL,
) -> Trajectory:
    """Solve the equation forward from the history psi on [t0, T]."""
    require(**{"horizon T": T, "step h": h}, tol=tol)
    m = min(horizon(problem, T).m, problem.t0)
    return _drive(_form(problem), [psi], problem.t0, T, h, tol, m)[0]


def integrate_transformed(
    problem: ProblemSpec,
    aux: AuxiliarySpec,
    psi: HistoryFunction,
    T: float,
    h: float = 1e-3,
    tol: float = _INNER_TOL,
) -> Trajectory:
    """Solve the reshaped equation for z (x = p z) from the z-history psi.

    The coefficient path is disjoint from :func:`integrate` (weighted
    extensions instead of the raw equation), which makes the pair a
    cross-method consistency oracle.
    """
    require(**{"horizon T": T, "step h": h}, tol=tol)
    prob = problem.as_general()
    bound = bind(prob, aux, tmax=T)
    return _drive(_form_transformed(bound), [psi], prob.t0, T, h, tol, bound.m)[0]


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a family of perturbed starts around the zero solution."""

    eps: float
    delta: float
    T: float
    h: float
    labels: tuple[str, ...]
    max_abs: tuple[float, ...]
    end_abs: tuple[float, ...]
    trend_decreasing: tuple[bool, ...]
    stable: bool
    asymptotic: bool
    note = (  # a class constant, not a field
        "history family is an artifact choice (constants, cosine, ramp), "
        "not part of the stability definitions"
    )

    def to_text(self) -> str:
        rows = [
            f"stability.eps = {float(self.eps)!r}",
            f"stability.delta = {float(self.delta)!r}",
            f"stability.T = {float(self.T)!r}",
            f"stability.h = {float(self.h)!r}",
        ]
        for label, mx, end, tr in zip(
            self.labels, self.max_abs, self.end_abs, self.trend_decreasing
        ):
            rows.append(f"trajectory.{label}.max_abs = {float(mx)!r}")
            rows.append(f"trajectory.{label}.end_abs = {float(end)!r}")
            rows.append(f"trajectory.{label}.trend_decreasing = {str(tr).lower()}")
        rows.append(f"verdict.eps_bounded = {str(self.stable).lower()}")
        rows.append(f"verdict.asymptotic = {str(self.asymptotic).lower()}")
        rows.append(f"note = {self.note}")
        return "\n".join(rows)


def default_history_family(
    delta: float, t0: float, m: float
) -> list[tuple[str, HistoryFunction]]:
    """Constants of both signs, a cosine arch, and a ramp, all of size delta."""
    # plain floats only: the reprs below are parsed back as expression text
    require(delta=delta, t0=t0, m=m)
    delta, t0 = float(delta), float(t0)
    span = max(1.0, t0 - float(m))
    mk = parse_expression
    return [
        ("const_plus", HistoryFunction(mk(f"{delta!r} + 0*t"))),
        ("const_minus", HistoryFunction(mk(f"-{delta!r} + 0*t"))),
        ("cosine", HistoryFunction(mk(f"{delta!r} * cos(t - {t0!r})"))),
        ("ramp", HistoryFunction(mk(f"{delta!r} * (1 + (t - {t0!r}) / {span!r})"))),
    ]


def stability_experiment(
    problem: ProblemSpec,
    eps: float,
    delta: float,
    T: float,
    psi_family: Sequence[tuple[str, HistoryFunction]] | None = None,
    h: float = 0.02,
    tol: float = _INNER_TOL,
) -> StabilityReport:
    """Integrate a family of size-delta histories and grade the outcome.

    "eps-bounded" requires every trajectory to stay below eps in absolute
    value; the asymptotic verdict additionally wants small end values with
    a decreasing last-decade trend.  The family is stepped in lockstep;
    each member is bitwise equal to its own :func:`integrate` run.
    """
    require(**{"horizon T": T, "step h": h}, tol=tol, eps=eps, delta=delta)
    t0 = problem.t0
    m = min(horizon(problem, T).m, t0)
    family = list(psi_family) if psi_family is not None else default_history_family(delta, t0, m)
    if not family:
        raise ValidationError("psi_family is empty: a stability run needs at least one history")
    labels = tuple(label for label, _ in family)
    runs = _drive(_form(problem), [psi for _, psi in family], t0, T, h, tol, m)
    max_abs = tuple(tr.max_abs() for tr in runs)
    end_abs = tuple(tr.end_abs() for tr in runs)
    decade = (T - t0) / 10.0
    trend = tuple(
        tr.window_max(T - decade, T) <= tr.window_max(T - 2 * decade, T - decade)
        for tr in runs
    )
    stable = all(mx < eps for mx in max_abs)
    asymptotic = stable and all(e < 0.01 * eps for e in end_abs) and all(trend)
    return StabilityReport(
        eps=eps,
        delta=delta,
        T=T,
        h=h,
        labels=labels,
        max_abs=max_abs,
        end_abs=end_abs,
        trend_decreasing=trend,
        stable=stable,
        asymptotic=asymptotic,
    )


def convergence_order(
    problem: ProblemSpec,
    psi: HistoryFunction,
    T: float,
    steps: Sequence[float],
) -> float:
    """Self-convergence slope: least squares of log error against log h.

    Errors are sup-differences on a fixed probe grid of 101 points against
    a reference run at half the finest step.
    """
    require(**{"horizon T": T})
    for h in steps:
        require(**{"step h": h})
    steps = sorted(float(h) for h in steps)
    if len(steps) < 3:
        raise ValidationError("need at least three step sizes")
    ref = integrate(problem, psi, T, h=min(steps) / 2.0)
    grid = np.linspace(problem.t0, T, _PROBES)
    exact = ref.eval_array(grid)
    errors = [
        float(np.max(np.abs(integrate(problem, psi, T, h=h).eval_array(grid) - exact)))
        for h in steps
    ]
    if max(errors) < 1e-14:
        raise ValidationError(
            "errors are all at rounding level; the study is degenerate"
        )
    slope, _ = np.polyfit(np.log(steps), np.log(np.maximum(errors, 1e-300)), 1)
    return float(slope)
