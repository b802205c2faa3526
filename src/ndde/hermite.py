"""Piecewise cubic Hermite functions: the weights, one locate rule, one type.

:class:`GridFunction` (node values and slopes on an increasing mesh) is the
Picard iterate, the dense output of a :class:`~ndde.integrator.Trajectory`
and the cell model of :func:`~ndde.quadrature.sup_scan`.  The helpers are
plain arithmetic, so they work on floats and, elementwise, on arrays.

Locate rule: a point lies in the cell of the last node at or before it,
int((u - t_0) / step) on a uniform mesh (widths within 1e-9 relative) and
by ``searchsorted`` otherwise; the cell is clamped to the mesh and the
fraction s to [0, 1].  :func:`locate` is the only implementation: a
:class:`GridFunction` query at one point runs it on a numpy scalar.
A node reads its own value and slope exactly from either cell: the weights
there are 0 and 1.

Fuzz rule: a query may leave its domain [lo, hi] (the mesh, or a
trajectory's [m, T]) by 1e-9 max(1, hi - lo); farther out it raises
``ValidationError``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ValidationError

_FUZZ = 1e-9
_CAP_SLACK = 1e-12

# slopes from node values: 4th-order stencils on each uniform run
_EDGE_STENCILS_5 = (
    (-25.0, 48.0, -36.0, 16.0, -3.0),
    (-3.0, -10.0, 18.0, -6.0, 1.0),
)


def hermite_weights(s, h, slope: bool) -> tuple:
    """Cubic Hermite weights at s = (u - t_i) / h on a panel of width h.

    Value: w0 x_i + w1 x'_i + w2 x_{i+1} + w3 x'_{i+1}.  Slope (w3 is
    None): w0 (x_i - x_{i+1}) + w1 x'_i + w2 x'_{i+1}.  Both are summed
    left to right by :func:`hermite_eval`.
    """
    if slope:
        return ((6 * s * s - 6 * s) / h, 3 * s * s - 4 * s + 1, 3 * s * s - 2 * s, None)
    s2, s3 = s * s, s * s * s
    return (2 * s3 - 3 * s2 + 1, (s3 - 2 * s2 + s) * h, -2 * s3 + 3 * s2, (s3 - s2) * h)


def hermite_eval(w: tuple, x0, d0, x1, d1):
    w0, w1, w2, w3 = w
    if w3 is None:
        return w0 * (x0 - x1) + w1 * d0 + w2 * d1
    return w0 * x0 + w1 * d0 + w2 * x1 + w3 * d1


def hermite_max(x0, d0, x1, d1, h):
    """Largest value of each cell's cubic Hermite, and where: (s, value).

    The cell has width h, end values x0, x1 and end slopes d0, d1; s is
    the fraction of the width at which the maximum sits.  The maximum is
    the larger end or the interior point where the Hermite's slope
    quadratic A s^2 + B s + C turns from + to -, taken in closed form.
    Arguments broadcast; the results are arrays.
    """
    x0, d0, x1, d1, h = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (x0, d0, x1, d1, h))
    )
    jump = 6.0 * (x0 - x1)
    A = jump + 3.0 * h * (d0 + d1)
    B = -jump - h * (4.0 * d0 + 2.0 * d1)
    C = h * d0
    with np.errstate(all="ignore"):
        root = np.sqrt(B * B - 4.0 * A * C)
        # the root where 2 A s + B = -root, in the form that does not cancel
        s = np.where(B <= 0.0, 2.0 * C / (root - B), (-B - root) / (2.0 * A))
        inside = (s > 0.0) & (s < 1.0)  # False for NaN: no interior maximum
        s = np.where(inside, s, 0.0)
        value = hermite_eval(hermite_weights(s, h, False), x0, d0, x1, d1)
    ends = np.maximum(x0, x1)
    interior = inside & (value > ends)
    s_end = np.where(x1 > x0, 1.0, 0.0)
    return np.where(interior, s, s_end), np.where(interior, value, ends)


def uniform_step(mesh: np.ndarray) -> float | None:
    """The common width of a uniform mesh, None for any other mesh."""
    d = np.diff(mesh)
    return float(d[0]) if np.max(np.abs(d - d[0])) <= 1e-9 * d[0] else None


def _outside(t, domain) -> ValidationError:
    lo, hi = domain
    return ValidationError(f"point t={t!r} outside the domain [{float(lo)!r}, {float(hi)!r}]")


def locate(mesh: np.ndarray, step: float | None, u: np.ndarray, slope: bool = False,
           domain=None):
    """Cell indices and Hermite value (or slope) weights at an array of points.

    ``step`` is the width of a uniform mesh (None otherwise); ``domain`` is
    where points are accepted, the mesh by default.  The module's locate and
    fuzz rules.
    """
    lo, hi = domain = (mesh[0], mesh[-1]) if domain is None else domain
    fuzz = _FUZZ * max(1.0, abs(hi - lo))
    inside = (u >= lo - fuzz) & (u <= hi + fuzz)
    if not inside.all():
        raise _outside(float(u[~inside][0]), domain)
    if step is not None:
        i = ((u - mesh[0]) / step).astype(np.intp)
    else:
        i = np.searchsorted(mesh, u, side="right") - 1
    i = np.minimum(np.maximum(i, 0), len(mesh) - 2)
    h = mesh[i + 1] - mesh[i]
    s = np.minimum(np.maximum((u - mesh[i]) / h, 0.0), 1.0)
    return i, hermite_weights(s, h, slope)


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
    A break node keeps its right-sided slope.  A run ends before the first
    width that differs from its first one by more than 1e-9 relative
    (``math.isclose``'s rule on finite widths), found by one array
    comparison a run.
    """
    d = np.diff(mesh)
    stops = sorted({int(k) for k in breaks if 0 < int(k) < len(mesh) - 1} | {len(d)})
    out = np.empty(len(mesh))
    start = 0
    while start < len(d):
        stop = next(k for k in stops if k > start)
        rest = d[start + 1 : stop]
        same = np.abs(rest - d[start]) <= 1e-9 * np.maximum(np.abs(rest), abs(d[start]))
        i = start + 1 + (len(rest) if same.all() else int(same.argmin()))
        out[start : i + 1] = _run_slopes(values[start : i + 1], d[start])
        start = i
    return out


class GridFunction:
    """Piecewise cubic Hermite function on a strictly increasing mesh.

    Node values and node slopes; between nodes, each cell's cubic Hermite.
    Queries follow the module's locate and fuzz rules over ``domain`` (the
    mesh by default).  The sup-norm is taken over the mesh nodes.
    """

    __slots__ = ("mesh", "values", "derivs", "_step", "domain")

    def __init__(self, mesh, values, derivs, domain=None):
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
        self._step = uniform_step(mesh)
        self.domain = (mesh[0], mesh[-1]) if domain is None else domain

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
        values = [f(float(t)) for t in mesh]
        derivs = None if fprime is None else [fprime(float(t)) for t in mesh]
        return cls.from_values(mesh, values, derivs, breaks)

    @classmethod
    def from_values(cls, mesh, values, derivs=None, breaks=()) -> "GridFunction":
        mesh = np.asarray(mesh, dtype=float)
        values = np.asarray(values, dtype=float)
        if derivs is None:
            derivs = _fd_slopes(mesh, values, breaks)
        return cls(mesh, values, derivs)

    # ------------------------------------------------------------------
    def eval(self, t: float, slope: bool = False) -> float:
        """Value (or slope) at one point: :meth:`eval_array`'s arithmetic on
        a numpy scalar, which costs less than on a one-element array."""
        return float(self._at(np.float64(t), slope))

    def eval_array(self, ts, slope: bool = False) -> np.ndarray:
        """Values (or slopes) at every element of a 1-D array-like."""
        return self._at(np.asarray(ts, dtype=float), slope)

    def _at(self, u, slope: bool):
        i, w = locate(self.mesh, self._step, u, slope, self.domain)
        return hermite_eval(w, self.values[i], self.derivs[i], self.values[i + 1], self.derivs[i + 1])

    __call__ = eval

    def cell_max(self, cells=slice(None)):
        """(s, value) of each cell's largest value by :func:`hermite_max`;
        ``cells`` indexes the cells (all by default)."""
        i = np.arange(len(self.mesh) - 1)[cells]
        mesh, v, d = self.mesh, self.values, self.derivs
        return hermite_max(v[i], d[i], v[i + 1], d[i + 1], mesh[i + 1] - mesh[i])

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    @property
    def exceeds_unit_cap(self) -> bool:
        """True when some node value leaves the candidate ball |z| <= 1."""
        return bool(self.sup_norm > 1.0 + _CAP_SLACK)

    def to_csv(self, path, comment: str | None = None, slopes: bool = False) -> None:
        """CSV of the nodes, (t, value) or with ``slopes`` (t, x, xprime),
        under a one-line comment (by default the mesh metadata)."""
        if comment is None:
            comment = (
                f"gridfunction nodes={len(self.mesh)}"
                f" start={float(self.mesh[0])!r} end={float(self.mesh[-1])!r}"
                f" uniform={'true' if self._step is not None else 'false'}"
            )
        columns = (self.mesh, self.values, self.derivs) if slopes else (self.mesh, self.values)
        lines = [f"# {comment}", "t,x,xprime" if slopes else "t,value"]
        lines += [",".join(repr(x) for x in row) for row in zip(*(c.tolist() for c in columns))]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
