"""Fixed-point split of the damped integral equation, on a grid-function space.

The reshaped unknown z (x = p z) solves z = (A z) + (B z) for t >= t0, where
A carries the fractional-power coupling

    (A z)(t) = int_t0^t exp(-int_s^t g) (c/p)(s) G(p^gamma(tau2) z^gamma(tau2)) ds

and B carries everything else in seven summands: the damped history head
(three psi-dependent constants, priced once), the signed drift window
int_{tau1(t)}^t (g - p'/p) z, minus the damped double window, the damped
delayed bracket, the coupling head Q(t, p(tau1) z(tau1))/p(t), minus the
damped coupling-times-damping integral, and the damped d*F term.  A is not a
contraction (the gamma-power has unbounded slope at 0) but B is whenever the
criterion sum without the tail term stays below 1, which makes plain Picard
iteration z_{n+1} = A z_n + B z_n a practical solver on finite horizons.

Candidates live in X_psi: piecewise-cubic grid functions on [m(t0), T]
(:class:`ndde.hermite.GridFunction`) that equal psi on the history segment.
The |z| <= 1 cap of the candidate space is monitored and reported, never
projected.

Everything about A and B that does not depend on the candidate is tabulated
once per request from (problem, aux, mesh, psi); the tables bind the
general-form re-encoding themselves, with checkpoints at the live step.
Each live mesh panel carries the 7 nodes of the Lobatto 4 / Kronrod 7 pair
of :mod:`ndde.quadrature` (the panel ends among them); a node's row holds
the damping factor exp(G(s) - G(t_j)) (G = int_t0 g, one array query), the
binding's coefficients of both integrands (``bracket``, ``tail_scale``,
... of :class:`~ndde.model.BoundProblem`, one call of their ``arrays`` form
each), and the mesh panel and Hermite weights of each delayed argument.
The drift window W(x) = int^x (g - p'/p) z is, on a live panel, z's four
Hermite coefficients times the K7 (and L4) moments of the drift against the
Hermite basis, tabulated per query point; below t0 it reads psi and is
computed once, from a cumulative table that also gives the history head's
window.  B reads W at its points s and at tau1(s) through one window over
both.  The arrays are laid out by column: a candidate's coefficients are
four rows over the mesh panels, a window's moments four rows over its
points, so a gather takes whole rows and c . M is four contiguous products
added in order.  Applying the tables to a candidate is a gather, one array
call each of G(w z^gamma), Q and F, weighted sums, and the panel recurrence
I_j = exp(G(t_{j-1}) - G(t_j)) I_{j-1} + panel_j.  B's point terms at a
panel's right end come from the same node rows (the right end is one of the
nodes), so one read of the rows gives the whole image.  The Picard result
carries its node rows, so the residual reuses them and adds only the rows
of the half panels that end at the panel midpoints.  A panel whose
|K7 - L4| exceeds 1e-11, and whose K7 sum also fails K7's own null-rule
estimate there, is refined by ``quadrature._refine``, A's panels and B's
in one call, on rows built at its sub-panels' nodes, which its
panels keep by node for the next candidate.  A window point whose product
estimate exceeds a quarter of that has its four drift moments refined
once, for every later candidate; only a candidate too large for the
refined moments' tolerance is refined by itself.  A non-finite sample
raises.

Linear-neutral problems are re-encoded through :meth:`ProblemSpec.as_general`
before iterating; the re-encoding preserves the dynamics exactly, so the
fixed point is the same function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .criteria import alpha_estimate  # noqa: F401  -- unused here; bench/tracing.py wraps this attribute
from .errors import NddeError, ValidationError
from .hermite import GridFunction, hermite_eval, hermite_weights, locate, uniform_step
from .integrator import _MAX_STEPS
from .model import (
    AuxiliarySpec, HistoryFunction, ProblemSpec, bind, horizon, require, require_after_t0,
)
from .quadrature import (
    _K7_W,
    _L4_W,
    CumulativeExponent,
    WeightedSweep,  # noqa: F401  -- unused here; bench/tracing.py wraps this attribute
    _advance,
    _bulk,
    _lk_points,
    _refine,
)

_MESH_FUZZ = 1e-9
_QUAD_TOL = 1e-11


def make_mesh(m: float, t0: float, T: float, step: float) -> np.ndarray:
    """History + live mesh over [m, T], uniform per segment, t0 a node."""
    require(m=m, t0=t0, **{"horizon T": T, "mesh step": step})
    require_after_t0(T, t0)
    panels = (T - min(m, t0)) / step
    if not panels <= _MAX_STEPS:  # the stepper's budget; an overflow to inf fails too
        raise ValidationError(f"mesh step {step!r} is too small for T = {T!r} from m = {m!r}:"
                              f" {panels:.3g} panels, over the budget of {_MAX_STEPS}")
    live_n = max(4, math.ceil((T - t0) / step - 1e-9))
    live = np.linspace(t0, T, live_n + 1)
    if t0 - m <= 1e-12:
        return live
    hist_n = max(4, math.ceil((t0 - m) / step - 1e-9))
    hist = np.linspace(m, t0, hist_n + 1)
    return np.concatenate([hist[:-1], live])


def _split_index(mesh: np.ndarray, t0: float) -> int:
    """Index of the node t0 in the mesh; the live segment starts there."""
    idx = int(np.searchsorted(mesh, t0 - _MESH_FUZZ))
    if idx >= len(mesh) or abs(mesh[idx] - t0) > _MESH_FUZZ * max(1.0, abs(t0)):
        raise ValidationError("mesh must contain t0 as a node")
    return idx


# ---------------------------------------------------------------------------
# Candidate-independent tables of A and B

# Window points whose drift moments are formed together.  The temporaries
# of a chunk take about 1 KB a point; on the 2,807 node-row points of a T =
# 20 request at mesh step 0.05 (2-vCPU Xeon), chunks of 1,024 built the node
# rows 25% faster than chunks of 256 and 5-10% faster than one chunk of them
# all, at +1.0 MB peak against +0.5 MB and +1.6 MB.
_CHUNK = 1024

# A window point whose product estimate |K7 - L4| exceeds this quarter of
# the tolerance has its four drift moments refined once, each to within it:
# early, so that a slowly moving iterate that fails there later finds them
# ready.  A candidate whose coefficients there sum to at most 4 in size
# meets the tolerance on the refined moments; a larger one is refined by
# itself.
_MOMENT_TOL = _QUAD_TOL / 4

# Sub-panel row sets a _Panels keeps; a full cache starts over, which bounds
# a long run whose candidates keep refining new sub-panels
_SUB_ROWS = 64


class _State(NamedTuple):
    """One candidate as the tables read it."""

    coef: np.ndarray  # (4, panels): rows z_i, z'_i, z_{i+1}, z'_{i+1} of each mesh panel
    window: np.ndarray | None  # drift window W at the mesh nodes


class _Gather:
    """Candidate values at fixed points u.

    Below t0 an analytic history, when the tables carry one, is read once;
    every other point keeps its mesh panel and Hermite weights.
    """

    def __init__(self, tab: "_Tables", u: np.ndarray):
        self.panel, self.weights = locate(tab.mesh, tab.step, u)
        self.history = None
        if tab.psi is not None:
            below = np.flatnonzero(u <= tab.t0)
            if len(below):
                self.history = (below, tab.history(u[below]))

    def __call__(self, st: _State) -> np.ndarray:
        out = hermite_eval(self.weights, *st.coef.take(self.panel, axis=1))
        if self.history is not None:
            below, values = self.history
            out[below] = values
        return out


class _Window:
    """The drift window W(x) = int_{mesh[0]}^x (g - p'/p) z at fixed points x.

    On a live panel [t_i, t_{i+1}] z is the cubic c . phi with c = (z_i, z'_i,
    z_{i+1}, z'_{i+1}), so the K7 value of int_{t_i}^x drift z is M(x) . c,
    where M(x) holds the K7 moments of the drift against the four Hermite
    basis functions phi; the L4 moments ride along for the error estimate.
    ``k7``, ``l4`` and ``fine`` hold one row per basis function and one
    column per live point, so M(x) . c is four contiguous products summed
    in order.  The first time a point's product estimate |K7 - L4| exceeds
    ``_MOMENT_TOL``, its four moments are refined and kept (``fine``, each
    within ``fine_tol``, NaN until then); a candidate whose product fails
    there reads them.  Below t0, z is psi and W is read once from the
    tables.  ``panel`` pins the panel of each point (a full panel ends on
    the next one's start).
    """

    def __init__(self, tab: "_Tables", x: np.ndarray, panel: np.ndarray | None = None):
        self.tab = tab
        if panel is None:
            panel, _ = locate(tab.mesh, tab.step, x)
        live = panel >= tab.split
        self.live = np.flatnonzero(live)
        self.panel = panel[live]
        self.x = x[live]
        self.fixed = np.zeros(len(x))
        self.fixed[~live] = tab.history_window.cumulative(x[~live])

        # moments over [t_i, x] against the basis of the panel [t_i, t_{i+1}],
        # a chunk of points at a time to keep the temporaries small
        b, mesh, k7, l4 = tab.bound, tab.mesh, [np.empty((4, 0))], [np.empty((4, 0))]
        for lo in range(0, len(self.x), _CHUNK):
            panel, x = self.panel[lo : lo + _CHUNK], self.x[lo : lo + _CHUNK]
            left = mesh[panel]
            u, half = _lk_points(left, x).T, 0.5 * (x - left)
            drift = _bulk(b.arrays.drift, b.drift, u)
            h = (mesh[panel + 1] - left)[:, None]
            basis = hermite_weights((u - left[:, None]) / h, h, False)
            k7.append(np.stack([(drift * phi) @ _K7_W for phi in basis]) * half)
            l4.append(np.stack([(drift * phi) @ _L4_W for phi in basis]) * half)
        self.k7, self.l4 = np.concatenate(k7, axis=1), np.concatenate(l4, axis=1)
        self.fine = np.full_like(self.k7, np.nan)
        self.fine_tol = np.full(len(self.x), np.nan)

    def _refine_moments(self, rows: np.ndarray) -> None:
        """Refine the four moments of each of ``rows`` to ``_MOMENT_TOL``,
        the drift sampled once a node for all four.  A row with a piece at
        the depth floor, or every row where the refinement fails, gets an
        infinite tolerance, so a candidate that fails there is refined by
        itself (and raises its own error)."""
        b, n = self.tab.bound, len(rows)
        start = self.tab.mesh[self.panel[rows]]
        h = self.tab.mesh[self.panel[rows] + 1] - start

        def sample(u, ids):  # interval k n + r: moment k of row r
            r, k = ids % n, ids // n
            nodes, where = np.unique(u, return_inverse=True)
            drift = _bulk(b.arrays.drift, b.drift, nodes)[where].reshape(u.shape)
            return drift * np.choose(k, hermite_weights((u - start[r]) / h[r], h[r], False))

        self.fine_tol[rows] = math.inf
        try:
            pieces = _refine(sample, np.tile(start, 4), np.tile(self.x[rows], 4), _MOMENT_TOL)
        except NddeError:
            return
        ok = np.ones(n, dtype=bool)
        ok[pieces.ids[pieces.floor] % n] = False
        self.fine[:, rows[ok]] = pieces.totals().reshape(4, n)[:, ok]
        self.fine_tol[rows[ok]] = _MOMENT_TOL

    def partial(self, coef: np.ndarray) -> np.ndarray:
        """int_{t_i}^x drift z from the start t_i of each live point's panel.

        Where |K7 - L4| fails, the refined moments serve a candidate whose
        coefficients c there have sum_k |c_k| fine_tol within the
        tolerance; elsewhere z is the cubic c . phi of the point's panel
        for the shared refinement.
        """
        c = coef.take(self.panel, axis=1)
        value = (self.k7 * c).sum(0)
        error = np.abs(value - (self.l4 * c).sum(0))
        new = np.flatnonzero(~(error <= _MOMENT_TOL) & np.isnan(self.fine_tol))  # NaN too
        if len(new):
            self._refine_moments(new)
        bad = np.flatnonzero(~(error <= _QUAD_TOL))
        if not len(bad):
            return value
        c = c.take(bad, axis=1)
        fine = np.abs(c).sum(0) * self.fine_tol[bad] <= _QUAD_TOL
        value[bad[fine]] = (self.fine.take(bad[fine], axis=1) * c[:, fine]).sum(0)
        if fine.all():
            return value
        bad, c = bad[~fine], c[:, ~fine]
        b, start = self.tab.bound, self.tab.mesh[self.panel[bad]]
        h = self.tab.mesh[self.panel[bad] + 1] - start

        def sample(u, ids):
            w = hermite_weights((u - start[ids]) / h[ids], h[ids], False)
            return _bulk(b.arrays.drift, b.drift, u) * hermite_eval(w, *c.take(ids, axis=1))

        value[bad] = _refine(sample, start, self.x[bad], _QUAD_TOL).totals()
        return value

    def __call__(self, st: _State) -> np.ndarray:
        out = self.fixed.copy()
        out[self.live] = st.window[self.panel] + self.partial(st.coef)
        return out


class _ARows:
    """The A integrand (c/p)(s) G(p(u2)^gamma z^gamma(u2)), u2 = tau2(s), at fixed s."""

    def __init__(self, tab: "_Tables", s: np.ndarray):
        b, arr = tab.bound, tab.bound.arrays
        self.z2 = _Gather(tab, _bulk(arr.tau2, b.tau2, s))
        self.scale = _bulk(arr.tail_scale, b.tail_scale, s)
        self.weight = _bulk(arr.tail_weight, b.tail_weight, s)
        self.coupling = arr.tail_coupling, b.tail_coupling

    def integrand(self, st: _State) -> np.ndarray:
        return self.scale * _bulk(*self.coupling, self.weight, self.z2(st))


class _BRows:
    """The B integrand at fixed points s and B's point terms there, from one
    read of z(u1) and one of the window, which holds the points s and then
    the points u1.

    With u_k = tau_k(s), x1 = p(u1) z(u1) and the binding's ``bracket``:

        integrand = bracket(s) z(u1) - g(s) (W(s) - W(u1))
                    - Q(s, x1) (g p - p')(s) / p(s)^2 + (d/p)(s) F(x1, p(u2) z(u2))
        point     = W(s) - W(u1) + Q(s, x1) / p(s)
    """

    def __init__(self, tab: "_Tables", s: np.ndarray):
        b, arr = tab.bound, tab.bound.arrays
        u1 = _bulk(arr.tau1, b.tau1, s)
        self.s = s
        self.z1 = _Gather(tab, u1)
        self.p = _bulk(arr.p_raw, b.p_raw, s)
        self.p1 = _bulk(arr.p_of, b.p_of, u1)
        self.bracket = _bulk(arr.bracket, b.bracket, s)
        self.g = _bulk(arr.g_of, b.g_of, s)
        self.damping = _bulk(arr.damping_rate, b.damping_rate, s)
        self.window = _Window(tab, np.concatenate((s, u1)))
        d = _bulk(arr.pair_scale, b.pair_scale, s)
        self.forced = np.flatnonzero(d != 0.0)
        self.d = d[self.forced]
        if len(self.forced):
            u2 = _bulk(arr.tau2, b.tau2, s[self.forced])
            self.z2 = _Gather(tab, u2)
            self.p2 = _bulk(arr.p_of, b.p_of, u2)
        self.Q, self.F = (arr.Q_fn, b.Q_fn), (arr.F_fn, b.F_fn)

    def terms(self, st: _State) -> tuple[np.ndarray, np.ndarray]:
        """The integrand and the point terms."""
        z1 = self.z1(st)
        x1 = self.p1 * z1
        q = _bulk(*self.Q, self.s, x1)
        window = self.window(st)
        window = window[: len(self.s)] - window[len(self.s) :]
        out = self.bracket * z1 - self.g * window - q * self.damping
        if len(self.forced):
            out[self.forced] += self.d * _bulk(*self.F, x1[self.forced], self.p2 * self.z2(st))
        return out, window + q / self.p

    def integrand(self, st: _State) -> np.ndarray:
        return self.terms(st)[0]


class _Panels:
    """Damped integrals int_left^right exp(G(s) - G(right)) f(s) ds on panels.

    Each panel's pair nodes carry the damping factor and the A (and, with
    psi, B) rows; ``decay`` is exp(G(left) - G(right)), which carries an
    integral that ends at left over to right.  The right end is the nodes'
    column 1, so B's point terms there are read from the same rows.  Rows
    built at refined sub-panels' nodes are kept, with their damping
    factors, by their nodes (``sub_rows``): the candidates of one request
    refine the same few panels alike.
    """

    def __init__(self, tab: "_Tables", left: np.ndarray, right: np.ndarray):
        self.tab, self.left, self.right = tab, left, right
        self.sub_rows: dict = {}
        s = _lk_points(left, right).T
        G = tab.bound.gexp.cumulative(s)  # the panel ends are columns 0 and 1
        self.G_right = G[:, 1]
        self.damping = np.exp(G - self.G_right[:, None])
        self.decay = np.exp(G[:, 0] - self.G_right)
        self.a = _ARows(tab, s.ravel()) if tab.with_a else None
        self.b = None
        if tab.psi is not None:
            self.b = _BRows(tab, s.ravel())
            self.head = tab.head * np.exp(-self.G_right)

    def integrals(self, st: _State, carry=(None, None)):
        """The damped A and B integrals up to each right end, and the damped
        history head plus B's point terms there (None where not tabulated);
        ``carry`` holds the A and B integrals up to each left end, if known.

        Each panel's sum comes from one shared refinement of A's panels,
        then B's, from the node rows and, at deeper levels, from ``_ARows``
        or ``_BRows`` at the sub-panels' nodes; an integral is carried over
        from ``carry``, or without it advanced panel by panel from 0, A and
        B in one loop."""
        n, gexp = len(self.left), self.tab.bound.gexp
        parts, point = [], None  # (rows class, node values, integrals up to the left ends)
        if self.a is not None:
            parts.append((_ARows, self.a.integrand(st), carry[0]))
        if self.b is not None:
            f, terms = self.b.terms(st)
            parts.append((_BRows, f, carry[1]))
            point = self.head + terms.reshape(self.damping.shape)[:, 1]

        def sample(x, ids):  # interval q n + j: panel j of part q
            out, which = np.empty(len(x)), ids // n
            for q, (make, _, _) in enumerate(parts):
                k = np.flatnonzero(which == q)
                if not len(k):
                    continue
                u, j = x[k], ids[k] - q * n
                key = (make, u.tobytes(), j.tobytes())
                if key not in self.sub_rows:
                    if len(self.sub_rows) >= _SUB_ROWS:
                        self.sub_rows.clear()
                    damping = np.exp(gexp.cumulative(u) - self.G_right[j])
                    self.sub_rows[key] = make(self.tab, u), damping
                rows, damping = self.sub_rows[key]
                out[k] = damping * rows.integrand(st)
            return out

        q = len(parts)
        f = np.concatenate([(self.damping * v.reshape(self.damping.shape)).T for _, v, _ in parts], axis=1)
        totals = _refine(sample, np.tile(self.left, q), np.tile(self.right, q), _QUAD_TOL, f).totals().reshape(q, n)
        if carry[0] is None and carry[1] is None:  # A and B advanced from 0 in one loop
            out = list(_advance(self.decay, totals if q == 2 else totals[0]).reshape(q, n))
        else:
            out = [self.decay * start + part for (_, _, start), part in zip(parts, totals)]
        a = out.pop(0) if self.a is not None else None
        b = out.pop(0) if self.b is not None else None
        return a, b, point


def _history_drift(coef, psi, u):
    """The drift window's integrand (g - p'/p) psi, over a coefficient set."""
    return coef.drift(u) * psi(u)


class _Tables:
    """Everything about A and B on one mesh that does not depend on z.

    Built once from the problem, aux, the mesh and psi; the tables bind
    the general-form re-encoding over the mesh themselves, with checkpoints
    at the live step within [1e-4, 1].  The rows of a set of panels live in
    a :class:`_Panels` on these tables, and :meth:`state` reads one
    candidate.  B is tabulated when psi is given, A when ``with_a`` is set;
    without psi, candidates are read through their own interpolant on the
    history segment too.
    """

    def __init__(
        self,
        problem: ProblemSpec,
        aux: AuxiliarySpec,
        mesh: np.ndarray,
        psi: HistoryFunction | None = None,
        with_a: bool = True,
    ):
        self.psi, self.with_a = psi, with_a
        self.mesh = mesh = np.asarray(mesh, dtype=float)
        self.t0 = t0 = problem.t0
        self.split = split = _split_index(mesh, t0)
        self.live = live = mesh[split:]
        cp = min(1.0, max(float(live[1] - live[0]), 1e-4))
        self.bound = b = bind(problem.as_general(), aux, tmax=float(mesh[-1]), checkpoint=cp)
        self.step = uniform_step(mesh)
        if mesh[0] > b.m + _MESH_FUZZ * max(1.0, abs(b.m)):
            raise ValidationError(
                f"mesh starts at {float(mesh[0])!r} but delayed arguments reach"
                f" down to m = {b.m!r}"
            )

        if psi is not None:
            fn, fa = psi.psi.compiled(), psi.psi.vectorized()
            self.history = functools.partial(_bulk, fa, fn)  # psi at every element of an array
            self.history_window = window = CumulativeExponent(
                functools.partial(_history_drift, b, fn), float(mesh[0]), b.gexp.checkpoint,
                _QUAD_TOL, f_array=functools.partial(_history_drift, b.arrays, fa),
            )
            u0 = b.tau1(t0)
            coupling = b.Q_fn(t0, b.p_of(u0) * fn(u0)) / b.p_raw(t0)
            self.head = float(fn(t0) - (window.cumulative(t0) - window.cumulative(u0)) - coupling)
            self.node_window = np.zeros(len(mesh))
            self.node_window[: split + 1] = self.history_window.cumulative(mesh[: split + 1])
            self.full_window = _Window(self, mesh[split + 1 :], np.arange(split, len(mesh) - 1))

    def node_panels(self) -> _Panels:
        """The live mesh panels, ending at the live nodes.

        A zero-width first panel [t0, t0] makes t0 an ordinary node.
        """
        return _Panels(self, np.concatenate(([self.t0], self.live[:-1])), self.live)

    def state(self, z: GridFunction) -> _State:
        """z's Hermite coefficients per panel and, with psi, W at the nodes."""
        v, d = z.values, z.derivs
        coef = np.stack((v[:-1], d[:-1], v[1:], d[1:]))
        if self.psi is None:
            return _State(coef, None)
        window = self.node_window.copy()
        window[self.split + 1 :] = window[self.split] + np.cumsum(self.full_window.partial(coef))
        return _State(coef, window)


def apply_A(
    z: GridFunction, problem: ProblemSpec, aux: AuxiliarySpec
) -> GridFunction:
    """The compact summand: damped integral of the gamma-power coupling.

    Zero on the history segment and at t0; same mesh as z.
    """
    tables = _Tables(problem, aux, z.mesh)
    values = np.zeros_like(z.values)
    values[tables.split :] = tables.node_panels().integrals(tables.state(z))[0]
    return GridFunction.from_values(z.mesh, values, breaks=(tables.split,))


def apply_B(
    z: GridFunction,
    problem: ProblemSpec,
    aux: AuxiliarySpec,
    psi: HistoryFunction,
) -> GridFunction:
    """The contraction summand (seven terms); equals psi on the history."""
    tables = _Tables(problem, aux, z.mesh, psi, with_a=False)
    values = np.empty_like(z.values)
    values[: tables.split] = tables.history(z.mesh[: tables.split])
    _, b, point = tables.node_panels().integrals(tables.state(z))
    values[tables.split :] = b + point
    return GridFunction.from_values(z.mesh, values, breaks=(tables.split,))


@dataclass(frozen=True)
class PicardResult:
    z: GridFunction
    iterations: int
    ratios: tuple[float, ...]
    converged: bool
    cap_exceeded: bool
    final_step: float
    # the node rows the iteration read, on its tables; residual reuses them
    nodes: _Panels = field(repr=False, compare=False)


def picard_solve(
    problem: ProblemSpec,
    aux: AuxiliarySpec,
    psi: HistoryFunction,
    T: float,
    tol: float = 1e-8,
    max_iter: int = 60,
    step: float | None = None,
) -> PicardResult:
    """Iterate z -> A z + B z from the constant extension of psi(t0).

    Stops when the sup-norm step falls below tol; non-convergence and
    divergence are reported in the result, never raised.  ``ratios`` holds
    successive step-norm quotients (> 1 sustained means the contraction
    part fails).  The candidate cap |z| <= 1 is monitored via
    ``cap_exceeded``.  The criterion sum is not evaluated here:
    :func:`ndde.criteria.evaluate_criteria` certifies it.  The
    candidate-independent tables, the rows of the live mesh panels and
    of their refined sub-panels, and the refined drift moments are built
    once, read by every iteration and kept in the result for
    :func:`residual`.
    """
    require(**{"horizon T": T}, tol=tol, max_iter=max_iter, **({} if step is None else {"step": step}))
    t0 = problem.t0
    require_after_t0(T, t0)
    if step is None:
        step = min(0.05, (T - t0) / 200.0)
    m = min(horizon(problem, T).m, t0)
    mesh = make_mesh(m, t0, T, step)
    tables = _Tables(problem, aux, mesh, psi)
    split = tables.split

    # psi on the history, continued by the constant psi(t0)
    values = np.empty(len(mesh))
    values[: split + 1] = tables.history(mesh[: split + 1])
    values[split:] = values[split]
    z = GridFunction.from_values(mesh, values, breaks=(split,))
    nodes = tables.node_panels()

    ratios: list[float] = []
    prev_step = None
    first_step = None
    converged = False
    cap = z.exceeds_unit_cap
    iterations = 0
    step_norm = math.inf

    for iterations in range(1, max_iter + 1):
        a, b, point = nodes.integrals(tables.state(z))
        new_values = values.copy()
        new_values[split:] = a + b + point
        if not np.all(np.isfinite(new_values)):
            step_norm = math.inf
            break
        step_norm = float(np.max(np.abs(new_values - z.values)))
        z = GridFunction.from_values(mesh, new_values, breaks=(split,))
        cap = cap or z.exceeds_unit_cap
        if prev_step is not None and prev_step > 0.0:
            ratios.append(step_norm / prev_step)
        prev_step = step_norm
        if first_step is None:
            first_step = step_norm
        if step_norm < tol:
            converged = True
            break
        if step_norm > 1e6 * max(1.0, first_step):
            break

    return PicardResult(
        z=z,
        iterations=iterations,
        ratios=tuple(ratios),
        converged=converged,
        cap_exceeded=cap,
        final_step=step_norm,
        nodes=nodes,
    )


def residual(result: PicardResult) -> float:
    """max |z(t) - (A z + B z)(t)| over the live mesh nodes and panel midpoints.

    z is the final iterate of ``result``; A and B at the nodes are read from
    the node rows its iteration built.  Midpoints probe the interpolation
    defect that node-only sampling cannot see (at a discrete fixed point the
    node defect is just the iteration tolerance), so mesh refinement shows
    the expected order there.
    """
    nodes, tables = result.nodes, result.nodes.tab
    st = tables.state(result.z)
    a, b, point = nodes.integrals(st)
    live = tables.live
    mids = 0.5 * (live[:-1] + live[1:])
    a_mid, b_mid, point_mid = _Panels(tables, live[:-1], mids).integrals(st, (a[:-1], b[:-1]))
    points = np.concatenate((live, mids))
    image = np.concatenate((a + b + point, a_mid + b_mid + point_mid))
    return float(np.max(np.abs(result.z.eval_array(points) - image)))


def reconstruct_x(z: GridFunction, aux: AuxiliarySpec, t0: float) -> GridFunction:
    """Map the reshaped unknown back: x = p z for t >= t0, x = z before.

    At t0 itself the user's p applies (the benchmark weight has p(t0) != 1,
    and the reshaped start is p(t0) psi(t0)).
    """
    require(t0=t0)
    values, derivs = z.values.copy(), z.derivs.copy()
    live = z.mesh >= t0 - _MESH_FUZZ * max(1.0, abs(t0))
    t = z.mesh[live]
    p, pp = aux.p.vectorized()(t), aux.p_prime.vectorized()(t)
    values[live] = p * z.values[live]
    derivs[live] = pp * z.values[live] + p * z.derivs[live]
    return GridFunction(z.mesh, values, derivs)
