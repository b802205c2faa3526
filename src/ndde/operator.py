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

Candidates live in X_psi: piecewise-cubic grid functions on [m(t0), T] that
equal psi on the history segment.  The |z| <= 1 cap of the candidate space is
monitored and reported, never projected.

Everything about A and B that does not depend on the candidate is tabulated
once per request from (binding, mesh, psi).  Each live mesh panel carries
the 7 nodes of the Lobatto 4 / Kronrod 7 pair of :mod:`ndde.quadrature`
(the panel ends among them); a node's row holds both rules' weights times
the damping factor exp(G(s) - G(t_j)) (G = int_t0 g), the coefficients of
both integrands, and the mesh panel and Hermite weights of each delayed
argument.  The drift window W(x) = int^x (g - p'/p) z is, on a live panel,
z's four Hermite coefficients times the K7 (and L4) moments of the drift
against the Hermite basis, tabulated per query point; below t0 it reads psi
and is computed once.  Applying the tables to a candidate is a gather,
scalar loops over G, Q and F, weighted sums, and the panel recurrence
I_j = exp(G(t_{j-1}) - G(t_j)) I_{j-1} + panel_j.  The Picard result
carries its tables, so the residual reads the iteration's binding and adds
only the rows of the half panels that end at the panel midpoints.  A panel
or window query whose |K7 - L4| exceeds 1e-11 is re-integrated by adaptive
Simpson on the scalar integrand (a panel's one-point rows are kept for the
next iteration), and a non-finite sample raises.

Linear-neutral problems are re-encoded through :meth:`ProblemSpec.as_general`
before iterating; the re-encoding preserves the dynamics exactly, so the
fixed point is the same function.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .criteria import alpha_estimate
from .errors import ValidationError
from .expressions import signed_power
from .hermite import hermite_eval, hermite_weights
from .model import AuxiliarySpec, BoundProblem, HistoryFunction, ProblemSpec, bind, horizon
from .quadrature import (
    _K7_W,
    _L4_W,
    CumulativeExponent,
    WeightedSweep,  # noqa: F401  -- unused here; bench/tracing.py wraps this attribute
    _advance,
    _kronrod_nodes,
    _map,
    adaptive_simpson,
    window_integral,
)

_MESH_FUZZ = 1e-9
_QUAD_TOL = 1e-11
_CAP_SLACK = 1e-12

# slopes from node values: 4th-order stencils on each uniform run
_EDGE_STENCILS_5 = (
    (-25.0, 48.0, -36.0, 16.0, -3.0),
    (-3.0, -10.0, 18.0, -6.0, 1.0),
)


def _run_slopes(values: np.ndarray, h: float) -> np.ndarray:
    n = len(values)
    out = np.empty(n)
    if n == 2:
        out[:] = (values[1] - values[0]) / h
    elif n == 3:
        out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
        out[1] = (values[2] - values[0]) / (2.0 * h)
        out[2] = (values[0] - 4.0 * values[1] + 3.0 * values[2]) / (2.0 * h)
    elif n == 4:
        v = values
        out[0] = (-11.0 * v[0] + 18.0 * v[1] - 9.0 * v[2] + 2.0 * v[3]) / (6.0 * h)
        out[1] = (-2.0 * v[0] - 3.0 * v[1] + 6.0 * v[2] - v[3]) / (6.0 * h)
        out[2] = (v[0] - 6.0 * v[1] + 3.0 * v[2] + 2.0 * v[3]) / (6.0 * h)
        out[3] = (-2.0 * v[0] + 9.0 * v[1] - 18.0 * v[2] + 11.0 * v[3]) / (6.0 * h)
    else:
        out[2:-2] = (
            values[:-4] - 8.0 * values[1:-3] + 8.0 * values[3:-1] - values[4:]
        ) / (12.0 * h)
        for row, idx in zip(_EDGE_STENCILS_5, (0, 1)):
            out[idx] = sum(c * values[k] for k, c in enumerate(row)) / (12.0 * h)
            out[n - 1 - idx] = -sum(
                c * values[n - 1 - k] for k, c in enumerate(row)
            ) / (12.0 * h)
    return out


def _fd_slopes(mesh: np.ndarray, values: np.ndarray, breaks=()) -> np.ndarray:
    """Per-node slope estimates, stencilled within each uniform run.

    ``breaks`` lists node indices where the function has a corner (e.g. the
    junction of history and live segments); stencils never straddle them.
    A break node keeps its right-sided slope.
    """
    d = np.diff(mesh)
    forced = {int(k) for k in breaks if 0 < int(k) < len(mesh) - 1}
    out = np.empty(len(mesh))
    start = 0
    for i in range(1, len(d) + 1):
        if i == len(d) or i in forced or not math.isclose(d[i], d[start], rel_tol=1e-9):
            out[start : i + 1] = _run_slopes(values[start : i + 1], d[start])
            start = i
    return out


def _uniform_step(mesh: np.ndarray) -> float | None:
    """The common width of a uniform mesh, None for any other mesh."""
    d = np.diff(mesh)
    return float(d[0]) if np.max(np.abs(d - d[0])) <= 1e-9 * d[0] else None


def _locate(mesh: np.ndarray, step: float | None, u: np.ndarray):
    """Panel indices and Hermite value weights at an array of points u.

    ``step`` is the width of a uniform mesh (None otherwise).  Panels and
    clamping follow :meth:`GridFunction.eval`.
    """
    fuzz = _MESH_FUZZ * max(1.0, abs(mesh[-1] - mesh[0]))
    inside = (u >= mesh[0] - fuzz) & (u <= mesh[-1] + fuzz)
    if not inside.all():
        bad = float(u[~inside][0])
        raise ValidationError(
            f"point t={bad!r} outside the mesh [{float(mesh[0])!r}, {float(mesh[-1])!r}]"
        )
    if step is not None:
        i = ((u - mesh[0]) / step).astype(np.intp)
    else:
        i = np.searchsorted(mesh, u, side="right") - 1
    i = np.minimum(np.maximum(i, 0), len(mesh) - 2)
    h = mesh[i + 1] - mesh[i]
    s = np.minimum(np.maximum((u - mesh[i]) / h, 0.0), 1.0)
    return i, hermite_weights(s, h, False)


class GridFunction:
    """Piecewise-cubic (Hermite) function on a strictly increasing mesh.

    Node values and node slopes; interpolation reproduces node values
    exactly.  The sup-norm is taken over the mesh nodes.
    """

    __slots__ = ("mesh", "values", "derivs", "_step")

    def __init__(self, mesh, values, derivs):
        mesh = np.asarray(mesh, dtype=float)
        values = np.asarray(values, dtype=float)
        derivs = np.asarray(derivs, dtype=float)
        if mesh.ndim != 1 or len(mesh) < 2:
            raise ValidationError("mesh must hold at least two nodes")
        if values.shape != mesh.shape or derivs.shape != mesh.shape:
            raise ValidationError("values and derivs must match the mesh shape")
        if not np.all(np.isfinite(mesh)) or not np.all(np.diff(mesh) > 0):
            raise ValidationError("mesh must be finite and strictly increasing")
        self.mesh = mesh
        self.values = values
        self.derivs = derivs
        self._step = _uniform_step(mesh)

    # ------------------------------------------------------------------
    @classmethod
    def from_callable(
        cls,
        mesh,
        f: Callable[[float], float],
        fprime: Callable[[float], float] | None = None,
        breaks=(),
    ) -> "GridFunction":
        mesh = np.asarray(mesh, dtype=float)
        values = np.asarray([f(float(t)) for t in mesh])
        if fprime is not None:
            derivs = np.asarray([fprime(float(t)) for t in mesh])
        else:
            derivs = _fd_slopes(mesh, values, breaks)
        return cls(mesh, values, derivs)

    @classmethod
    def from_values(cls, mesh, values, derivs=None, breaks=()) -> "GridFunction":
        mesh = np.asarray(mesh, dtype=float)
        values = np.asarray(values, dtype=float)
        if derivs is None:
            derivs = _fd_slopes(mesh, values, breaks)
        return cls(mesh, values, derivs)

    # ------------------------------------------------------------------
    def _locate(self, t: float) -> int:
        mesh = self.mesh
        fuzz = _MESH_FUZZ * max(1.0, abs(mesh[-1] - mesh[0]))
        if not mesh[0] - fuzz <= t <= mesh[-1] + fuzz:
            raise ValidationError(
                f"point t={t!r} outside the mesh [{float(mesh[0])!r}, {float(mesh[-1])!r}]"
            )
        if self._step is not None:
            i = int((t - mesh[0]) / self._step)
        else:
            i = int(np.searchsorted(mesh, t, side="right")) - 1
        return max(0, min(i, len(mesh) - 2))

    def eval(self, t: float) -> float:
        i = self._locate(t)
        h = self.mesh[i + 1] - self.mesh[i]
        s = min(max((t - self.mesh[i]) / h, 0.0), 1.0)
        w = hermite_weights(s, h, False)
        v, d = self.values, self.derivs
        return float(hermite_eval(w, v[i], d[i], v[i + 1], d[i + 1]))

    __call__ = eval

    # ------------------------------------------------------------------
    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    @property
    def exceeds_unit_cap(self) -> bool:
        """True when some node value leaves the candidate ball |z| <= 1."""
        return bool(self.sup_norm > 1.0 + _CAP_SLACK)

    def to_csv(self, path) -> None:
        """Two-column CSV (t, value) with a mesh-metadata header comment."""
        lines = [
            f"# gridfunction nodes={len(self.mesh)}"
            f" start={float(self.mesh[0])!r} end={float(self.mesh[-1])!r}"
            f" uniform={'true' if self._step is not None else 'false'}",
            "t,value",
        ]
        lines += [f"{float(t)!r},{float(v)!r}" for t, v in zip(self.mesh, self.values)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def make_mesh(m: float, t0: float, T: float, step: float) -> np.ndarray:
    """History + live mesh over [m, T], uniform per segment, t0 a node."""
    if not T > t0:
        raise ValidationError("mesh horizon T must exceed t0")
    if not step > 0:
        raise ValidationError("mesh step must be positive")
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


def _as_general(problem: ProblemSpec) -> ProblemSpec:
    return problem.as_general() if problem.form == "linear-neutral" else problem


def _bind_for_mesh(
    problem: ProblemSpec, aux: AuxiliarySpec, mesh: np.ndarray
) -> BoundProblem:
    """The binding over a mesh: checkpoints at the live step, within [1e-4, 1]."""
    live = mesh[_split_index(mesh, problem.t0) :]
    cp = min(1.0, max(float(live[1] - live[0]), 1e-4))
    return bind(problem, aux, tmax=float(mesh[-1]), checkpoint=cp)


# ---------------------------------------------------------------------------
# Candidate-independent tables of A and B

_CHUNK = 256  # window points whose drift moments are formed together
_KEPT_ROWS = 512  # one-point fallback rows kept per panel set


class _State(NamedTuple):
    """One candidate as the tables read it."""

    coef: np.ndarray  # per mesh panel: z_i, z'_i, z_{i+1}, z'_{i+1}
    window: np.ndarray | None  # drift window W at the mesh nodes


class _Gather:
    """Candidate values at fixed points u.

    Below t0 an analytic history, when the tables carry one, is read once;
    every other point keeps its mesh panel and Hermite weights.
    """

    def __init__(self, tab: "_Tables", u: np.ndarray):
        self.panel, self.weights = _locate(tab.mesh, tab.step, u)
        self.history = None
        if tab.psi is not None:
            below = np.flatnonzero(u <= tab.t0)
            if len(below):
                self.history = (below, _map(tab.psi, u[below]))

    def __call__(self, st: _State) -> np.ndarray:
        out = hermite_eval(self.weights, *st.coef[self.panel].T)
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
    Below t0, z is psi and W is read once from the tables.  ``panel`` pins
    the panel of each point (a full panel ends on the next one's start).
    """

    def __init__(self, tab: "_Tables", x: np.ndarray, panel: np.ndarray | None = None):
        self.tab = tab
        if panel is None:
            panel, _ = _locate(tab.mesh, tab.step, x)
        live = panel >= tab.split
        self.live = np.flatnonzero(live)
        self.panel = panel[live]
        self.x = x[live]
        self.fixed = np.zeros(len(x))
        self.fixed[~live] = _map(tab.history_window.cumulative, x[~live])

        # moments over [t_i, x] against the basis of the panel [t_i, t_{i+1}],
        # a chunk of points at a time to keep the temporaries small
        mesh, k7, l4 = tab.mesh, [np.empty((0, 4))], [np.empty((0, 4))]
        for lo in range(0, len(self.x), _CHUNK):
            panel, x = self.panel[lo : lo + _CHUNK], self.x[lo : lo + _CHUNK]
            left = mesh[panel]
            u, half = _kronrod_nodes(left, x)
            drift = _map(tab.bound.drift, u.ravel()).reshape(u.shape)
            h = (mesh[panel + 1] - left)[:, None]
            basis = hermite_weights((u - left[:, None]) / h, h, False)
            k7.append(np.stack([(drift * phi) @ _K7_W for phi in basis], axis=1) * half[:, None])
            l4.append(np.stack([(drift * phi) @ _L4_W for phi in basis], axis=1) * half[:, None])
        self.k7, self.l4 = np.concatenate(k7), np.concatenate(l4)

    def partial(self, coef: np.ndarray) -> np.ndarray:
        """int_{t_i}^x drift z from the start t_i of each live point's panel."""
        c = coef[self.panel]
        value = (self.k7 * c).sum(1)
        error = np.abs(value - (self.l4 * c).sum(1))
        for k in np.flatnonzero(~(error <= _QUAD_TOL)):  # NaN too: the fallback raises
            value[k] = self._fallback(c[k], self.panel[k], self.x[k])
        return value

    def _fallback(self, c: np.ndarray, panel: int, x: float) -> float:
        """Adaptive Simpson on drift z, z the cubic c . phi of the panel."""
        tab = self.tab
        drift = tab.bound.drift
        start = float(tab.mesh[panel])
        h = float(tab.mesh[panel + 1]) - start
        c = c.tolist()
        return adaptive_simpson(
            lambda u: drift(u) * hermite_eval(hermite_weights((u - start) / h, h, False), *c),
            start,
            float(x),
            _QUAD_TOL,
        )

    def __call__(self, st: _State) -> np.ndarray:
        out = self.fixed.copy()
        out[self.live] = st.window[self.panel] + self.partial(st.coef)
        return out


class _ARows:
    """The A integrand (c/p)(s) G(p(u2)^gamma z^gamma(u2)), u2 = tau2(s), at fixed s."""

    def __init__(self, tab: "_Tables", s: np.ndarray):
        b = tab.bound
        u2 = _map(b.tau2, s)
        self.z2 = _Gather(tab, u2)
        self.scale = _map(lambda x: b.c(x) / b.p_raw(x), s)
        self.weight = _map(lambda u: b.p_of(u) ** b.gamma, u2)
        self.G, self.gamma = b.G_fn, b.gamma

    def integrand(self, st: _State) -> np.ndarray:
        G, gamma = self.G, self.gamma
        coupling = _map(lambda w, z: G(w * signed_power(z, gamma)), self.weight, self.z2(st))
        return self.scale * coupling


class _BRows:
    """The B integrand at fixed points s, and B's point terms there.

    With u_k = tau_k(s) and x1 = p(u1) z(u1):

        integrand = bracket(s) z(u1) - g(s) (W(s) - W(u1))
                    - Q(s, x1) (g p - p')(s) / p(s)^2 + (d/p)(s) F(x1, p(u2) z(u2))
        point     = W(s) - W(u1) + Q(s, x1) / p(s)

    with bracket(s) = (g - p'/p)(u1) (1 - r1'(s)) - a(s) p(u1)/p(s).
    """

    def __init__(self, tab: "_Tables", s: np.ndarray):
        b = tab.bound
        u1 = _map(b.tau1, s)
        self.s = s
        self.z1 = _Gather(tab, u1)
        self.p = _map(b.p_raw, s)
        self.p1 = _map(b.p_of, u1)
        self.bracket = _map(
            lambda x, u, p1: (b.g_of(u) - b.pp_of(u) / p1) * (1.0 - b.r1_slope(x))
            - b.a(x) * p1 / b.p_raw(x),
            s,
            u1,
            self.p1,
        )
        self.g = _map(b.g_of, s)
        self.damping = (self.g * self.p - _map(b.pp_of, s)) / (self.p * self.p)
        self.window = _Window(tab, s)
        self.window_u1 = _Window(tab, u1)
        d = _map(b.d, s) / self.p
        self.forced = np.flatnonzero(d != 0.0)
        self.d = d[self.forced]
        if len(self.forced):
            u2 = _map(b.tau2, s[self.forced])
            self.z2 = _Gather(tab, u2)
            self.p2 = _map(b.p_of, u2)
        self.Q, self.F = b.Q_fn, b.F_fn

    def _coupling(self, st: _State):
        z1 = self.z1(st)
        x1 = self.p1 * z1
        return z1, x1, _map(self.Q, self.s, x1)

    def integrand(self, st: _State) -> np.ndarray:
        z1, x1, q = self._coupling(st)
        out = self.bracket * z1 - self.g * (self.window(st) - self.window_u1(st)) - q * self.damping
        if len(self.forced):
            out[self.forced] += self.d * _map(self.F, x1[self.forced], self.p2 * self.z2(st))
        return out

    def point(self, st: _State) -> np.ndarray:
        _, _, q = self._coupling(st)
        return self.window(st) - self.window_u1(st) + q / self.p


class _Panels:
    """Damped integrals int_left^right exp(G(s) - G(right)) f(s) ds on panels.

    Each panel's pair nodes carry the K7 and L4 weights times the damping
    factor, and the A (and, with psi, B) rows; ``decay`` is exp(G(left) -
    G(right)), which carries an integral that ends at left over to right.
    With psi the B point terms at the right ends are tabulated too.
    """

    def __init__(self, tab: "_Tables", left: np.ndarray, right: np.ndarray):
        self.tab, self.left, self.right = tab, left, right
        G = tab.bound.gexp.cumulative
        s, half = _kronrod_nodes(left, right)
        self.G_right = _map(G, right)
        damping = np.exp(_map(G, s.ravel()).reshape(s.shape) - self.G_right[:, None])
        damping *= half[:, None]
        self.k7 = damping * _K7_W
        self.l4 = damping * _L4_W
        self.decay = np.exp(_map(G, left) - self.G_right)
        self.a = _ARows(tab, s.ravel()) if tab.with_a else None
        self.b = self.ends = None
        self._rows: dict = {}
        if tab.psi is not None:
            self.b = _BRows(tab, s.ravel())
            self.ends = _BRows(tab, right)
            self.head = tab.head * np.exp(-self.G_right)

    def _integrate(self, rows, st: _State) -> np.ndarray:
        """Each panel's K7 sum; a panel whose |K7 - L4| exceeds the tolerance
        is re-integrated by adaptive Simpson on the scalar integrand."""
        f = rows.integrand(st).reshape(self.k7.shape)
        out = (self.k7 * f).sum(1)
        error = np.abs(out - (self.l4 * f).sum(1))
        for j in np.flatnonzero(~(error <= _QUAD_TOL)):  # NaN too: the fallback raises
            def sample(x, g_right=self.G_right[j]):
                row, g_x = self._row(rows, x)
                return math.exp(g_x - g_right) * row.integrand(st)[0]

            out[j] = adaptive_simpson(sample, float(self.left[j]), float(self.right[j]), _QUAD_TOL)
        return out

    def integrals(self, st: _State, carry=(None, None)):
        """The damped A and B integrals up to each right end (None where not
        tabulated): carried over from ``carry``, the integrals up to each
        left end, or without it advanced panel by panel from 0."""
        out = []
        for rows, start in zip((self.a, self.b), carry):
            if rows is None:
                out.append(None)
                continue
            part = self._integrate(rows, st)
            out.append(_advance(self.decay, part) if start is None else self.decay * start + part)
        return tuple(out)

    def _row(self, rows, x: float):
        """The one-point row at x, and G(x), for the fallback's integrand.

        A panel that fails its estimate usually fails again in the next
        iteration, and adaptive Simpson then samples the same points, so
        these are kept (up to a bound) for reuse.
        """
        key = (type(rows), x)
        found = self._rows.get(key)
        if found is None:
            found = type(rows)(self.tab, np.array([x])), self.tab.bound.gexp.cumulative(x)
            if len(self._rows) < _KEPT_ROWS:
                self._rows[key] = found
        return found

    def b_point(self, st: _State) -> np.ndarray:
        """The damped history head plus B's point terms at the right ends."""
        return self.head + self.ends.point(st)


class _Tables:
    """Everything about A and B on one mesh that does not depend on z.

    Built once from the binding, the mesh and psi; the rows of a set of
    panels live in a :class:`_Panels` on these tables, and :meth:`state`
    reads one candidate.  B is tabulated when psi is given, A when
    ``with_a`` is set; without psi, candidates are read through their own
    interpolant on the history segment too.
    """

    def __init__(
        self,
        bound: BoundProblem,
        mesh: np.ndarray,
        psi_fn: Callable[[float], float] | None = None,
        with_a: bool = True,
    ):
        b = bound
        self.bound, self.psi, self.with_a = b, psi_fn, with_a
        self.mesh = mesh = np.asarray(mesh, dtype=float)
        self.step = _uniform_step(mesh)
        self.t0 = t0 = b.t0
        self.split = split = _split_index(mesh, t0)
        span = float(mesh[-1] - mesh[0])
        if b.tmax < mesh[-1] - _MESH_FUZZ * max(1.0, span):
            raise ValidationError("bound horizon is shorter than the mesh")
        if mesh[0] > b.m + _MESH_FUZZ * max(1.0, abs(b.m)):
            raise ValidationError(
                f"mesh starts at {float(mesh[0])!r} but delayed arguments reach"
                f" down to m = {b.m!r}"
            )
        self.live = mesh[split:]

        if psi_fn is not None:
            drift = b.drift
            u0 = b.tau1(t0)
            head = psi_fn(t0)
            head -= window_integral(lambda u: drift(u) * psi_fn(u), u0, t0, _QUAD_TOL)
            head -= b.Q_fn(t0, b.p_of(u0) * psi_fn(u0)) / b.p_raw(t0)
            self.head = float(head)
            self.history_window = CumulativeExponent(
                lambda u: drift(u) * psi_fn(u), float(mesh[0]), b.gexp.checkpoint, _QUAD_TOL
            )
            self.node_window = np.zeros(len(mesh))
            self.node_window[: split + 1] = _map(self.history_window.cumulative, mesh[: split + 1])
            self.full_window = _Window(self, mesh[split + 1 :], np.arange(split, len(mesh) - 1))

    def node_panels(self) -> _Panels:
        """The live mesh panels, ending at the live nodes.

        A zero-width first panel [t0, t0] makes t0 an ordinary node.
        """
        return _Panels(self, np.concatenate(([self.t0], self.live[:-1])), self.live)

    def state(self, z: GridFunction) -> _State:
        """z's Hermite coefficients per panel and, with psi, W at the nodes."""
        v, d = z.values, z.derivs
        coef = np.column_stack((v[:-1], d[:-1], v[1:], d[1:]))
        if self.psi is None:
            return _State(coef, None)
        window = self.node_window.copy()
        window[self.split + 1 :] = window[self.split] + np.cumsum(self.full_window.partial(coef))
        return _State(coef, window)


def _psi_fn(psi: HistoryFunction) -> Callable[[float], float]:
    return psi.psi.compiled()


def apply_A(
    z: GridFunction, problem: ProblemSpec, aux: AuxiliarySpec
) -> GridFunction:
    """The compact summand: damped integral of the gamma-power coupling.

    Zero on the history segment and at t0; same mesh as z.
    """
    prob = _as_general(problem)
    tables = _Tables(_bind_for_mesh(prob, aux, z.mesh), z.mesh)
    values = np.zeros_like(z.values)
    values[tables.split :], _ = tables.node_panels().integrals(tables.state(z))
    return GridFunction.from_values(z.mesh, values, breaks=(tables.split,))


def apply_B(
    z: GridFunction,
    problem: ProblemSpec,
    aux: AuxiliarySpec,
    psi: HistoryFunction,
) -> GridFunction:
    """The contraction summand (seven terms); equals psi on the history."""
    prob = _as_general(problem)
    fn = _psi_fn(psi)
    tables = _Tables(_bind_for_mesh(prob, aux, z.mesh), z.mesh, fn, with_a=False)
    values = np.empty_like(z.values)
    values[: tables.split] = _map(fn, z.mesh[: tables.split])
    nodes, st = tables.node_panels(), tables.state(z)
    values[tables.split :] = nodes.integrals(st)[1] + nodes.b_point(st)
    return GridFunction.from_values(z.mesh, values, breaks=(tables.split,))


@dataclass(frozen=True)
class PicardResult:
    z: GridFunction
    iterations: int
    ratios: tuple[float, ...]
    converged: bool
    cap_exceeded: bool
    final_step: float
    # the candidate-independent tables the iteration read; residual reuses them
    tables: _Tables = field(repr=False, compare=False)


def picard_solve(
    problem: ProblemSpec,
    aux: AuxiliarySpec,
    psi: HistoryFunction,
    T: float,
    tol: float = 1e-8,
    max_iter: int = 60,
    step: float | None = None,
    precheck: bool = True,
) -> PicardResult:
    """Iterate z -> A z + B z from the constant extension of psi(t0).

    Stops when the sup-norm step falls below tol; non-convergence and
    divergence are reported in the result, never raised.  ``ratios`` holds
    successive step-norm quotients (> 1 sustained means the contraction
    part fails).  The candidate cap |z| <= 1 is monitored via
    ``cap_exceeded``.  The candidate-independent tables are built once and
    read by every iteration.
    """
    if not T > problem.t0:  # before the precheck, which is costly
        raise ValidationError(f"horizon {float(T)!r} lies at or below t0 = {problem.t0!r}")
    if precheck:
        est = alpha_estimate(problem, aux, tmax=max(T, problem.t0 + 1.0), grid=512)
        if est.alpha >= 1.0:
            warnings.warn(
                f"criterion sum reaches {est.alpha:.4g} >= 1 on [t0, {T:g}]; "
                "the iteration map need not contract",
                stacklevel=2,
            )
    prob = _as_general(problem)
    t0 = prob.t0
    if step is None:
        step = min(0.05, (T - t0) / 200.0)
    m = min(horizon(prob, T).m, t0)
    mesh = make_mesh(m, t0, T, step)
    fn = _psi_fn(psi)
    split = _split_index(mesh, t0)

    values = np.empty(len(mesh))
    values[:split] = _map(fn, mesh[:split])
    values[split:] = fn(t0)
    z = GridFunction.from_values(mesh, values, breaks=(split,))
    tables = _Tables(_bind_for_mesh(prob, aux, mesh), mesh, fn)
    nodes = tables.node_panels()

    ratios: list[float] = []
    prev_step = None
    first_step = None
    converged = False
    cap = z.exceeds_unit_cap
    iterations = 0
    step_norm = math.inf

    for iterations in range(1, max_iter + 1):
        st = tables.state(z)
        a, b = nodes.integrals(st)
        new_values = values.copy()
        new_values[split:] = a + b + nodes.b_point(st)
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
        tables=tables,
    )


def residual(result: PicardResult, include_midpoints: bool = True) -> float:
    """max |z(t) - (A z + B z)(t)| over live mesh nodes (and panel midpoints).

    z is the final iterate of ``result``, and A and B are read from the
    tables its iteration built.  Midpoints probe the interpolation defect
    that node-only sampling cannot see (at a discrete fixed point the node
    defect is just the iteration tolerance), so mesh refinement shows the
    expected order there.
    """
    z, tables = result.z, result.tables
    st = tables.state(z)
    nodes = tables.node_panels()
    a, b = nodes.integrals(st)
    live = tables.live
    worst = 0.0
    for t, value in zip(live.tolist(), (a + b + nodes.b_point(st)).tolist()):
        worst = max(worst, abs(z.eval(t) - value))
    if include_midpoints:
        del nodes  # the rows of the half panels below take the place of these
        mids = 0.5 * (live[:-1] + live[1:])
        half = _Panels(tables, live[:-1], mids)
        a_mid, b_mid = half.integrals(st, carry=(a[:-1], b[:-1]))
        for t, value in zip(mids.tolist(), (a_mid + b_mid + half.b_point(st)).tolist()):
            worst = max(worst, abs(z.eval(t) - value))
    return worst


def reconstruct_x(
    z: GridFunction, aux: AuxiliarySpec, t0: float | None = None
) -> GridFunction:
    """Map the reshaped unknown back: x = p z for t >= t0, x = z before.

    At t0 itself the user's p applies (the benchmark weight has p(t0) != 1,
    and the reshaped start is p(t0) psi(t0)).
    """
    if t0 is None:
        t0 = float(z.mesh[0])
    p = aux.p.compiled()
    pp = aux.p_prime.compiled()
    values = z.values.copy()
    derivs = z.derivs.copy()
    live = z.mesh >= t0 - _MESH_FUZZ * max(1.0, abs(t0))
    for i in np.flatnonzero(live):
        t = float(z.mesh[i])
        values[i] = p(t) * z.values[i]
        derivs[i] = pp(t) * z.values[i] + p(t) * z.derivs[i]
    return GridFunction(z.mesh, values, derivs)
