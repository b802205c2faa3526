"""Quadrature kernels used by the criterion and the fixed-point operator.

Everything here works on plain callables of floats (compiled expressions
or a binding's coefficient formulas); the bulk path ``_bulk`` also takes
each callable's array form (one array per argument, an array out), and
uses it for batches of more than ``_SMALL`` points.  Where an array call
raises or gives a non-finite value, the scalar callable reruns the batch
point by point, so errors and their texts are the scalar ones.  The recurring shapes are

* running integrals from a fixed start (CumulativeExponent), tabulated at
  checkpoints that a Lobatto 4 / Kronrod 7 pair places (unit panels,
  halved down to 1/1024 where the pair's error estimate exceeds the
  tolerance); a query adds one Kronrod panel from the last checkpoint, with
  adaptive Simpson as the fallback, so exponential damping weights over
  long horizons cost a lookup and 7 samples, not an adaptive integration.
  An array of queries is answered at once: one ``searchsorted`` and one
  array call for all partial panels;
* exponentially weighted integrals  int_a^t exp(G(s) - G(t)) f(s) ds,
  one-shot (weighted_integral) and, for several integrands at once, swept
  along a grid on the same pair's fixed nodes (WeightedSweep), in bulk:
  chunks of grid panels at a time, the failing (panel, integrand) pairs
  halved together level by level;
* supremum scans over long windows with local refinement (sup_scan):
  given exact slopes at the coarse nodes and a value-and-slope callable, a
  cell whose node slopes bracket a maximum is polished by a root search on
  the slope; without them (or where the slopes fail) a cell gets a 64-point
  sub-scan and a golden-section search.  WeightedSweep supplies the slopes
  of its running integrals through I' = f - g I at one sample of g a node.

The pair (Gander & Gautschi's Lobatto 4 / Kronrod 7) and its fixed-node
helpers are shared with the operator's tables, so the package has one
fixed-node rule; every use of it checks |K7 - L4| and falls back to
adaptive Simpson.  Scalar and array panels alike go through ``_lk_nodes``
and ``_lk_sums``.
"""

from __future__ import annotations

import math
import threading
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NddeError, QuadratureError
from .hermite import hermite_max

__all__ = [
    "adaptive_simpson",
    "CumulativeExponent",
    "damping_weight",
    "weighted_integral",
    "WeightedSweep",
    "window_integral",
    "sup_scan",
    "SupScanResult",
]

# At max recursion depth a panel is still accepted if its Richardson defect
# is below this floor; lets integrable kinks through, keeps divergences fatal.
_DEPTH_FLOOR = 1e-9

# adaptive_simpson gives up after this many panels.  Around a pole the
# panels that fail multiply with every level long before the depth limit is
# reached; the largest call the benchmark decks make splits ~2,500 panels.
_MAX_PANELS = 1 << 16


def _non_finite(v: float, x: float) -> QuadratureError:
    return QuadratureError(f"non-finite integrand sample {v!r} at t={x!r}")


def _sample(f: Callable[[float], float], x: float) -> float:
    v = f(x)
    if not math.isfinite(v):
        raise _non_finite(v, x)
    return v


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, depth):
    # Depth-first refinement on an explicit stack: the left half is finished
    # before the right one is sampled and each split returns left + right,
    # exactly as the recursive form did.  A loop keeps the cost independent
    # of how deep the caller's stack already is, which matters because
    # CumulativeExponent queries run nested inside other integrands.
    isfinite = math.isfinite
    stack = [(a, fa, b, fb, m, fm, whole, tol, depth)]
    done: list[float] = []  # finished halves awaiting their sibling
    budget, whole_a, whole_b = _MAX_PANELS, a, b
    while stack:
        panel = stack.pop()
        if panel is None:  # both halves of a split are done
            right = done.pop()
            done[-1] += right
            continue
        budget -= 1
        if budget < 0:
            raise QuadratureError(
                f"no convergence on [{whole_a!r}, {whole_b!r}] within {_MAX_PANELS}"
                f" panels (refining [{panel[0]!r}, {panel[2]!r}])"
            )
        a, fa, b, fb, m, fm, whole, tol, depth = panel
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        if not isfinite(flm):
            raise _non_finite(flm, lm)
        frm = f(rm)
        if not isfinite(frm):
            raise _non_finite(frm, rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if abs(delta) <= tol:
            done.append(left + right + delta / 15.0)
            continue
        if depth <= 0:
            if abs(delta) <= _DEPTH_FLOOR:
                done.append(left + right + delta / 15.0)
                continue
            raise QuadratureError(
                f"no convergence on [{a!r}, {b!r}] after max refinement depth "
                f"(defect {abs(delta):.3e})"
            )
        half = 0.5 * tol
        stack.append(None)
        stack.append((m, fm, b, fb, rm, frm, right, half, depth - 1))
        stack.append((a, fa, m, fm, lm, flm, left, half, depth - 1))
    return done[0]


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-10,
    max_depth: int = 40,
) -> float:
    """Integrate f over [a, b] (a <= b) with Richardson-corrected Simpson.

    A panel is accepted when its two-half defect |S2 - S1| <= tol and the
    returned value carries the S2 + (S2 - S1)/15 correction.  Raises
    QuadratureError on non-finite samples or depth exhaustion.
    """
    if b < a:
        raise ValueError("adaptive_simpson needs a <= b; use window_integral for signed windows")
    if a == b:
        return 0.0
    fa = _sample(f, a)
    fb = _sample(f, b)
    m = 0.5 * (a + b)
    fm = _sample(f, m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adaptive(f, a, fa, b, fb, m, fm, whole, tol, max_depth)


def window_integral(
    f: Callable[[float], float], t1: float, t2: float, tol: float = 1e-10
) -> float:
    """Signed integral of f from t1 to t2 (antisymmetric under swap)."""
    if t1 <= t2:
        return adaptive_simpson(f, t1, t2, tol)
    return -adaptive_simpson(f, t2, t1, tol)


# The Gauss-Lobatto 4 / Kronrod 7 pair on [-1, 1] (Gander & Gautschi,
# "Adaptive quadrature -- revisited", BIT 40, 2000), nodes left to right: the
# Lobatto rule samples +-1 and +-1/sqrt(5), its Kronrod extension adds
# +-sqrt(2/3) and 0.  K7 is exact for degree 9, L4 for degree 5, and |K7 - L4|
# estimates the error of L4 (so, pessimistically, of K7).  Both rules sample
# the panel ends, so a kink close to an end cannot hide between the nodes,
# and panels that share an end share its sample.
_LK_X = np.array(
    [-1.0, -math.sqrt(2.0 / 3.0), -1.0 / math.sqrt(5.0), 0.0,
     1.0 / math.sqrt(5.0), math.sqrt(2.0 / 3.0), 1.0]
)
_K7_W = np.array([77.0, 432.0, 625.0, 672.0, 625.0, 432.0, 77.0]) / 1470.0
_L4_W = np.array([1.0, 0.0, 5.0, 0.0, 5.0, 0.0, 1.0]) / 6.0
_LK_XS = _LK_X.tolist()
_K7_WS = _K7_W.tolist()

# CumulativeExponent halves a table panel whose estimate fails only while it
# is longer than this; shorter ones go to adaptive Simpson.
_FINEST_PANEL = 1.0 / 1024.0

# WeightedSweep halves a panel whose estimate fails at most this many times
# (down to 1/1024 of it) before adaptive Simpson takes over.
_HALVINGS = 10

# WeightedSweep integrates at most this many grid panels per bulk call, which
# bounds the size of its sample arrays (and of the array expressions'
# temporaries) on long grids.
_CHUNK = 256


def _lk_nodes(a, b):
    """Half-width and the pair's nodes on [a, b], floats or arrays alike, in
    the order a, b, c -+ sqrt(2/3) h, c -+ h/sqrt(5), c (the midpoint last)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x1 = h * _LK_XS[5]  # sqrt(2/3) half-widths
    x2 = h * _LK_XS[4]  # 1/sqrt(5) half-widths
    return h, (a, b, c - x1, c + x1, c - x2, c + x2, c)


def _lk_sums(h, fa, fb, f1m, f1p, f2m, f2p, f0):
    """K7 value and |K7 - L4| from the samples at the ``_lk_nodes``."""
    ends = fa + fb
    f1 = f1m + f1p
    f2 = f2m + f2p
    we, w1, w2, w0 = _K7_WS[:4]
    kronrod = h * (we * ends + w1 * f1 + w2 * f2 + w0 * f0)
    lobatto = h * (ends + 5.0 * f2) / 6.0
    return kronrod, abs(kronrod - lobatto)


def _kronrod_nodes(left: np.ndarray, right: np.ndarray):
    """The (n, 7) pair nodes on the panels [left, right], and half-widths.

    Column 0 is ``left`` and column 6 is ``right``, exactly.
    """
    half = 0.5 * (right - left)
    nodes = (0.5 * (left + right))[:, None] + half[:, None] * _LK_X
    nodes[:, 0] = left
    nodes[:, -1] = right
    return nodes, half


# An array call costs tens of microseconds before its first element (a term
# body makes dozens of them), so batches up to this size go point by point.
_SMALL = 64


def _bulk(fa: Callable[..., np.ndarray] | None, f: Callable[..., float], *columns: np.ndarray):
    """f over equally shaped arrays of arguments, by its array form fa in one call.

    Where fa is None, the arrays have at most ``_SMALL`` elements, or fa
    raises or gives a non-finite value, f runs point by point in the
    arrays' order instead, so that the scalar form's error (or value) stands.
    """
    x = columns[0]
    if fa is not None and x.size > _SMALL:
        try:
            with np.errstate(all="ignore"):
                out = np.asarray(fa(*columns), dtype=float)
            if np.isfinite(out).all():
                return out
        except (NddeError, ArithmeticError):
            pass
    if x.ndim != 1:
        return _bulk(None, f, *(c.ravel() for c in columns)).reshape(x.shape)
    return np.fromiter(map(f, *[c.tolist() for c in columns]), float, len(x))


def _kronrod_panels(f, f_array, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """int f over each panel [a_j, b_j]: K7 from one ``_bulk`` call at all their
    nodes, adaptive Simpson at ``tol`` where |K7 - L4| exceeds ``tol``."""
    h, xs = _lk_nodes(a, b)
    samples = _bulk(f_array, f, np.stack(xs))
    with np.errstate(all="ignore"):
        value, error = _lk_sums(h, *samples)
    for j in np.flatnonzero(~(error <= tol)):
        value[j] = adaptive_simpson(f, float(a[j]), float(b[j]), tol)
    return value


def _advance(decay: np.ndarray, panels: np.ndarray) -> np.ndarray:
    """I_j = decay_j I_{j-1} + panel_j from I_{-1} = 0, one panel at a time.

    A cumulative sum of exp(G) terms instead would overflow on long horizons.
    """
    out = np.empty(len(panels))
    total = 0.0
    for j, (d, p) in enumerate(zip(decay.tolist(), panels.tolist())):
        total = d * total + p
        out[j] = total
    return out


class CumulativeExponent:
    """Running integral G(t) = int_start^t f, tabulated at checkpoints.

    The table covers [start, t] for the largest t queried so far, one
    ``checkpoint``-long panel at a time.  A panel is integrated by the
    Lobatto 4 / Kronrod 7 pair when the embedded error estimate |K7 - L4|
    is at most ``tol_per_unit``; otherwise it is halved, down to panels of
    at most 1/1024 (a ``checkpoint`` at or below 1/1024 is not split), where
    ``adaptive_simpson`` at that tolerance takes over (kinks, steep layers,
    non-finite samples).  Every accepted panel end becomes a checkpoint, so
    the table is finest where f is least smooth.  A query finds its
    checkpoint by bisection and integrates the partial panel from it by the
    same rule: one Kronrod panel, with ``adaptive_simpson`` as the fallback.
    A query thus costs a lookup and 7 samples of f when f is smooth there;
    a query at a checkpoint returns the table entry.

    ``cumulative`` also takes an array of queries.  It then finds every
    checkpoint by ``searchsorted`` and samples the partial panels of all
    queries in one call of ``f_array`` (f's array form; without it, f point
    by point).  A query whose estimate fails takes the scalar fallback.
    Up to ``_SMALL`` queries, or when the array call raises, or a query is
    non-finite or below the start, the queries run one by one in order (so
    an error is the scalar one).
    With a ``name``, an error of the table or of a query is re-raised as a
    QuadratureError that names it and the query t.

    When f is a damping rate g, ``weight(s, t) = exp(G(s) - G(t))`` is the
    damping factor over [s, t]; the class is equally used for plain running
    integrals of nonnegative windows.  Readers are thread-safe; table
    extension happens under a lock.
    """

    def __init__(
        self,
        f: Callable[[float], float],
        start: float,
        checkpoint: float = 1.0,
        tol_per_unit: float = 1e-11,
        f_array: Callable[[np.ndarray], np.ndarray] | None = None,
        name: str | None = None,
    ):
        if checkpoint <= 0:
            raise ValueError("checkpoint spacing must be positive")
        self.f = f
        self.f_array = f_array
        self.name = name
        self.start = float(start)
        self.checkpoint = float(checkpoint)
        self.tol_per_unit = float(tol_per_unit)
        # checkpoints and G at them; values grow first, so a reader that
        # finds a node always finds its value
        self._nodes = array("d", [self.start])
        self._values = array("d", [0.0])
        self._panels = 0  # checkpoint-long panels tabulated
        self._lock = threading.Lock()

    def _extend(self, t: float) -> None:
        if math.isinf(t):  # the table would never reach it
            raise QuadratureError(f"cumulative query at t={t!r}")
        with self._lock:
            nodes, values = self._nodes, self._values
            while nodes[-1] < t:
                i = self._panels
                pending = [
                    (self.start + i * self.checkpoint, self.start + (i + 1) * self.checkpoint)
                ]
                ends: list[float] = []
                sums: list[float] = []
                total = values[-1]
                while pending:  # left to right, halving where the pair fails
                    a, b = pending.pop()
                    h, xs = _lk_nodes(a, b)
                    value, error = _lk_sums(h, *map(self.f, xs))
                    if not error <= self.tol_per_unit:
                        if b - a > _FINEST_PANEL:
                            m = 0.5 * (a + b)
                            pending.append((m, b))
                            pending.append((a, m))
                            continue
                        value = adaptive_simpson(self.f, a, b, self.tol_per_unit)
                    total += value
                    ends.append(b)
                    sums.append(total)
                # the table grows only by whole panels, so a failed panel
                # leaves it consistent
                values.extend(sums)
                nodes.extend(ends)
                self._panels = i + 1

    def cumulative(self, t):
        """G(t) for a float t, or G at every element of an array t."""
        if isinstance(t, np.ndarray):
            return self._cumulative_many(t)
        try:
            if t < self.start:
                if t < self.start - 1e-9 * max(1.0, abs(self.start)):
                    raise QuadratureError(
                        f"cumulative query at t={t!r} below start {self.start!r}"
                    )
                t = self.start
            nodes = self._nodes
            if t > nodes[-1]:
                self._extend(t)
            i = bisect_right(nodes, t) - 1
            base = nodes[i]
            if t == base:
                return self._values[i]
            h, xs = _lk_nodes(base, t)
            value, error = _lk_sums(h, *map(self.f, xs))
            if not error <= self.tol_per_unit:  # NaN too: the fallback raises
                value = adaptive_simpson(self.f, base, t, self.tol_per_unit)
            return self._values[i] + value
        except (NddeError, ArithmeticError) as err:
            if self.name is None:
                raise
            raise QuadratureError(f"cumulative {self.name} at t={t!r}: {err}") from err

    def _cumulative_many(self, ts: np.ndarray) -> np.ndarray:
        flat = np.asarray(ts, dtype=float).ravel()
        low = self.start - 1e-9 * max(1.0, abs(self.start))
        if len(flat) > _SMALL and np.isfinite(flat).all() and not (flat < low).any():
            t = np.maximum(flat, self.start)
            # in chunks (the interior nodes of one sweep chunk) to bound
            # the size of the sample arrays
            size = 5 * _CHUNK
            try:
                pieces = [self._queries(t[i : i + size]) for i in range(0, len(t), size)]
                return np.concatenate(pieces).reshape(ts.shape)
            except (NddeError, ArithmeticError):
                pass  # the scalar queries below raise the first one's error
        return np.array([self.cumulative(t) for t in flat.tolist()]).reshape(ts.shape)

    def _queries(self, t: np.ndarray) -> np.ndarray:
        top = float(t.max())
        if top > self._nodes[-1]:
            self._extend(top)
        # copies: the table may grow under another reader; values grow first
        nodes, values = np.array(self._nodes), np.array(self._values)
        i = np.searchsorted(nodes, t, side="right") - 1
        out = values[i]
        part = t > nodes[i]
        if part.any():
            out[part] += _kronrod_panels(
                self.f, self.f_array, nodes[i[part]], t[part], self.tol_per_unit
            )
        return out

    def weight(self, s: float, t: float) -> float:
        return math.exp(self.cumulative(s) - self.cumulative(t))


def damping_weight(gexp: CumulativeExponent, s: float, t: float) -> float:
    """exp(-int_s^t g) via the cumulative table of g."""
    return gexp.weight(s, t)


def weighted_integral(
    f: Callable[[float], float],
    gexp: CumulativeExponent,
    t: float,
    t_start: float | None = None,
    tol: float = 1e-10,
) -> float:
    """One-shot int_{t_start}^{t} exp(G(s) - G(t)) f(s) ds."""
    a = gexp.start if t_start is None else float(t_start)
    gt = gexp.cumulative(t)
    return adaptive_simpson(
        lambda s: math.exp(gexp.cumulative(s) - gt) * f(s), a, t, tol
    )


class WeightedSweep:
    """Exp-weighted running integrals of several integrands along one grid.

    For every integrand f_k, ``values[k][i]`` is int_{grid[0]}^{grid[i]}
    exp(G(s) - G(grid[i])) f_k(s) ds, advanced panel by panel through
    I(t2) = exp(G(t1) - G(t2)) I(t1) + int_{t1}^{t2} exp(G(s) - G(t2)) f.
    Each grid panel carries the 7 nodes of the Lobatto 4 / Kronrod 7 pair.
    The panels are integrated in bulk, in chunks of at most ``_CHUNK``
    panels: G is read at the interior nodes of a chunk in one array query,
    shared by every integrand, and each integrand is sampled there in one
    call of its array form (``arrays[k]``; without one, f_k point by
    point), a grid node's G and samples serving both panels that end on it.
    An integrand's panel sum is K7 when |K7 - L4| is within its
    tolerance.  The (panel, integrand) pairs that fail are halved together,
    level by level (the tolerance split by width), at most ``_HALVINGS``
    times, and adaptive Simpson integrates what still fails, on the scalar
    f_k.  ``at(t)`` evaluates between grid points by the same routine on
    the one interval [grid[i], t].  ``counts[k]`` holds, per integrand, the
    panels (grid panels and ``at`` intervals) accepted whole, the panels
    halved, and the sub-panels handed to adaptive Simpson.  A failure is
    raised as a QuadratureError that names the integrand's label (and, in
    ``at``, the t).
    """

    def __init__(
        self,
        integrands: Sequence[Callable[[float], float]],
        gexp: CumulativeExponent,
        grid: Sequence[float],
        tols: Sequence[float] | float = 1e-11,
        arrays: Sequence[Callable[[np.ndarray], np.ndarray] | None] | None = None,
        labels: Sequence[str] | None = None,
    ):
        self.fs = list(integrands)
        self.gexp = gexp
        self.grid = np.asarray(grid, dtype=float)
        if self.grid.ndim != 1 or len(self.grid) < 1 or not self.fs:
            raise ValueError("need a non-empty 1-d grid and at least one integrand")
        n = len(self.fs)
        self.tols = [float(tols)] * n if np.ndim(tols) == 0 else [float(t) for t in tols]
        self.arrays = [None] * n if arrays is None else list(arrays)
        self.labels = [f"integrand {k}" for k in range(n)] if labels is None else list(labels)
        if not len(self.tols) == len(self.arrays) == len(self.labels) == n:
            raise ValueError("need one tolerance, array form and label per integrand")
        self.counts = np.zeros((n, 3), dtype=int)
        terms = list(range(n))
        grid, G = self.grid, gexp.cumulative(self.grid)
        self._G = G
        self._f_grid = np.array([self._sample(k, grid, "") for k in terms]).reshape(n, -1)
        panels = np.zeros((n, len(grid) - 1))
        for lo in range(0, len(grid) - 1, _CHUNK):
            hi = min(lo + _CHUNK, len(grid) - 1)
            f = self._f_grid
            panels[:, lo:hi] = self._integrate(
                grid[lo:hi], grid[lo + 1 : hi + 1], G[lo:hi], G[lo + 1 : hi + 1],
                f[:, lo:hi], f[:, lo + 1 : hi + 1], terms, "",
            )
        decay = np.exp(G[:-1] - G[1:])
        self.values = np.zeros((n, len(grid)))
        for k in terms:
            self.values[k, 1:] = _advance(decay, panels[k])

    def _sample(self, k: int, x: np.ndarray, where: str) -> np.ndarray:
        """Integrand k at every element of x."""
        try:
            return _bulk(self.arrays[k], self.fs[k], x)
        except (NddeError, ArithmeticError) as err:
            raise QuadratureError(f"sweep of {self.labels[k]}{where}: {err}") from err

    def _integrate(self, a, b, ga, gb, fa, fb, terms: list[int], where: str) -> np.ndarray:
        """int_{a_p}^{b_p} exp(G(s) - G(b_p)) f_k(s) ds, shape (len(terms), m),
        for the m intervals [a_p, b_p], given G and (row j for terms[j]) f at
        their ends."""
        m, rows = len(a), len(terms)
        # one entry per pending (interval, term) pair: panel p, term row j,
        # ends, G and f at the ends, tolerance, and position at this depth
        p = np.tile(np.arange(m), rows)
        j = np.repeat(np.arange(rows), m)
        lo, hi, g_lo, g_hi = a[p], b[p], ga[p], gb[p]
        f_lo, f_hi = fa.ravel(), fb.ravel()
        tol = np.asarray(self.tols)[terms][j]
        pos = np.zeros(len(p), dtype=np.int64)
        g_end = gb[p]
        done: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (pair id, left, value)
        for depth in range(_HALVINGS + 1):
            # the distinct intervals: G at their interior nodes, once for all terms
            key = (p << depth) + pos
            _, first, inv = np.unique(key, return_index=True, return_inverse=True)
            h, xs = _lk_nodes(lo[first], hi[first])
            inner = self.gexp.cumulative(np.stack(xs[2:]))[:, inv]
            h, inner_x = h[inv], np.stack(xs[2:])[:, inv]
            f_in = np.empty_like(inner_x)
            for r in np.flatnonzero(np.bincount(j)).tolist():
                sel = j == r
                f_in[:, sel] = self._sample(terms[r], inner_x[:, sel], where)
            G = np.concatenate([[g_lo, g_hi], inner])
            F = np.concatenate([[f_lo, f_hi], f_in])
            with np.errstate(all="ignore"):
                value, error = _lk_sums(h, *(np.exp(G - g_end) * F))
            ok = error <= tol
            if depth == 0:
                k = np.asarray(terms)[j]
                np.add.at(self.counts, (k, np.where(ok, 0, 1)), 1)
            done.append((j[ok] * m + p[ok], lo[ok], value[ok]))
            fail = ~ok
            if not fail.any():
                break
            if depth == _HALVINGS:  # NaN too: the fallback raises
                for i in np.lexsort((j[fail], lo[fail], p[fail])).tolist():
                    done.append(self._simpson(
                        terms, m, j[fail][i], p[fail][i], lo[fail][i], hi[fail][i],
                        g_end[fail][i], tol[fail][i], where,
                    ))
                break
            # halve the failed pairs: [lo, c] and [c, hi] at half the tolerance
            c, g_c, f_c = inner_x[4][fail], inner[4][fail], f_in[4][fail]
            p, j, g_end = np.tile(p[fail], 2), np.tile(j[fail], 2), np.tile(g_end[fail], 2)
            lo, hi = np.concatenate([lo[fail], c]), np.concatenate([c, hi[fail]])
            g_lo, g_hi = np.concatenate([g_lo[fail], g_c]), np.concatenate([g_c, g_hi[fail]])
            f_lo, f_hi = np.concatenate([f_lo[fail], f_c]), np.concatenate([f_c, f_hi[fail]])
            tol = np.tile(0.5 * tol[fail], 2)
            pos = np.concatenate([2 * pos[fail], 2 * pos[fail] + 1])
        # each pair's sum runs over its pieces left to right, from 0.0
        ids, left, value = (np.concatenate(col) for col in zip(*done))
        order = np.lexsort((left, ids))
        return np.bincount(ids[order], value[order], minlength=rows * m).reshape(rows, m)

    def _simpson(self, terms, m, j, p, a, b, g_end, tol, where):
        k = terms[j]
        f, cumulative = self.fs[k], self.gexp.cumulative
        self.counts[k, 2] += 1
        try:
            value = adaptive_simpson(
                lambda s: math.exp(cumulative(s) - g_end) * f(s), float(a), float(b), float(tol)
            )
        except (NddeError, ArithmeticError) as err:
            raise QuadratureError(f"sweep of {self.labels[k]}{where}: {err}") from err
        return np.array([j * m + p]), np.array([a]), np.array([value])

    def at(self, t: float, k: int | None = None):
        """Integrand k's running integral at t, or all of them as an array."""
        if t < self.grid[0] - 1e-9 or t > self.grid[-1] + 1e-9:
            raise ValueError(f"t={t!r} outside the sweep grid")
        i = int(np.searchsorted(self.grid, t, side="right")) - 1
        i = max(0, min(i, len(self.grid) - 1))
        terms = list(range(len(self.fs))) if k is None else [k]
        out = self.values[terms, i]
        if t > self.grid[i]:
            gt = self.gexp.cumulative(t)
            where = f" at t={t!r}"
            point = np.array([float(t)])
            ends = np.array([self._sample(j, point, where) for j in terms])
            panel = self._integrate(
                self.grid[i : i + 1], point, self._G[i : i + 1], np.array([gt]),
                self._f_grid[terms, i : i + 1], ends, terms, where,
            )
            out = math.exp(self._G[i] - gt) * out + panel[:, 0]
        return out if k is None else float(out[0])

    def slopes(self) -> np.ndarray:
        """d/dt of ``values`` at every grid node, one row per integrand.

        A running integral I(t) = int exp(G(s) - G(t)) f(s) ds has
        I' = f - g I, and the sweep holds f and I at the nodes, so the
        slopes cost one sample of g = ``gexp.f`` per node.
        """
        g = _bulk(self.gexp.f_array, self.gexp.f, self.grid)
        return self._f_grid - g * self.values

    def at_slope(self, t: float, k: int | None = None):
        """(value, slope) of integrand k's running integral at t, or of all
        of them as arrays: one ``at`` and, per integrand, one sample."""
        value = self.at(t, k)
        if k is None:
            f = np.asarray([fn(t) for fn in self.fs])
        else:
            f = self.fs[k](t)
        return value, f - self.gexp.f(t) * value


@dataclass(frozen=True)
class SupScanResult:
    sup: float
    argsup: float
    tail_slope: float


def _golden_max(h, a: float, b: float, iters: int = 80) -> tuple[float, float]:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = _sample(h, c)
    fd = _sample(h, d)
    for _ in range(iters):
        if (b - a) <= 1e-12 * max(1.0, abs(a) + abs(b)):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = _sample(h, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = _sample(h, d)
    return (c, fc) if fc >= fd else (d, fd)


def _sub_scan(h, a: float, b: float) -> tuple[float, float]:
    """(t, h(t)) of the best of 64 points on [a, b], golden-polished."""
    sub = np.linspace(a, b, 64)
    subvals = np.asarray([_sample(h, x) for x in sub])
    j = int(subvals.argmax())
    x, v = float(sub[j]), float(subvals[j])
    ga, gb = float(sub[max(j - 1, 0)]), float(sub[min(j + 1, 63)])
    if gb > ga:
        gx, gv = _golden_max(h, ga, gb)
        if gv > v:
            x, v = gx, gv
    return x, v


# Illinois steps one bracketed slope polish may take
_POLISH_ITERS = 100


def _polish(value_slope, a: float, da: float, b: float, db: float):
    """(t, h(t)) of the best sample of an Illinois search for h' = 0 on
    (a, b), where h'(a) = da > 0 > db = h'(b); None on a non-finite sample.
    """
    tol = 1e-12 * max(1.0, abs(a) + abs(b))
    x_best, v_best = a, -math.inf
    side, prev = 0, a
    for _ in range(_POLISH_ITERS):
        x = b - db * (b - a) / (db - da)
        if not a < x < b:
            x = 0.5 * (a + b)
        v, d = value_slope(x)
        if not (math.isfinite(v) and math.isfinite(d)):
            return None
        if v > v_best:
            x_best, v_best = x, v
        if d > 0.0:
            a, da = x, d
            if side == 1:
                db *= 0.5
            side = 1
        elif d < 0.0:
            b, db = x, d
            if side == -1:
                da *= 0.5
            side = -1
        else:
            break
        if b - a <= tol or abs(x - prev) <= tol:
            break
        prev = x
    return x_best, v_best


def sup_scan(
    h: Callable[[float], float],
    lo: float,
    hi: float,
    n: int = 4096,
    samples: Sequence[float] | None = None,
    slopes: Sequence[float] | None = None,
    value_slope: Callable[[float], tuple[float, float]] | None = None,
) -> SupScanResult:
    """Estimate sup h over [lo, hi]: coarse grid, then local refinement.

    The three best, mutually non-adjacent coarse nodes are refined, each
    on the two cells beside it.  Without slopes, each such window gets a
    64-point sub-scan followed by a golden-section polish, so narrow peaks
    between grid points are caught.  With ``slopes`` (h' on the coarse
    grid) and ``value_slope`` (t -> (h(t), h'(t))), a cell whose node
    slopes go from + to - is polished by an Illinois search for h' = 0
    instead; a cell whose slopes bracket nothing but whose cubic Hermite
    peaks inside above both ends, or whose slopes are non-finite or fail,
    gets the sub-scan and golden section.  The result never undercuts any
    sample taken.  ``tail_slope`` is the secant slope of h over the last
    tenth of the window, the growth witness used by the certification
    verdicts.  With ``samples`` given, they are taken as h on
    ``linspace(lo, hi, n)`` and not recomputed.
    """
    if hi < lo:
        raise ValueError("sup_scan needs lo <= hi")
    if hi == lo:
        v = _sample(h, lo)
        return SupScanResult(v, lo, 0.0)
    if n < 64:
        raise ValueError("need at least 64 coarse samples")
    if (slopes is None) != (value_slope is None):
        raise ValueError("slopes and value_slope go together")
    ts = np.linspace(lo, hi, n)
    if samples is None:
        vals = np.asarray([h(t) for t in ts], dtype=float)
    else:
        vals = np.asarray(samples, dtype=float)
        if vals.shape != ts.shape:
            raise ValueError("samples length must match n")
    if not np.all(np.isfinite(vals)):
        bad = int(np.argmax(~np.isfinite(vals)))
        raise QuadratureError(f"non-finite scan sample at t={ts[bad]!r}")
    if slopes is not None:
        slopes = np.asarray(slopes, dtype=float)
        if slopes.shape != ts.shape:
            raise ValueError("slopes length must match n")

    best = float(vals.max())
    arg = float(ts[int(vals.argmax())])

    # refine around the three best, mutually non-adjacent coarse cells
    order = np.argsort(vals)[::-1]
    picked: list[int] = []
    for idx in order:
        if len(picked) == 3:
            break
        if all(abs(int(idx) - p) > 1 for p in picked):
            picked.append(int(idx))
    for idx in picked:
        first, last = max(idx - 1, 0), min(idx + 1, n - 1)
        if slopes is None:
            found = [_sub_scan(h, float(ts[first]), float(ts[last]))]
        else:
            found = [_refine_cell(h, value_slope, ts, vals, slopes, i) for i in range(first, last)]
        for x, v in filter(None, found):
            if v > best:
                best = v
                arg = x

    ta = hi - 0.1 * (hi - lo)
    slope = (float(vals[-1]) - _sample(h, ta)) / (hi - ta)
    return SupScanResult(best, arg, slope)


def _refine_cell(h, value_slope, ts, vals, slopes, i: int):
    """(t, h(t)) refining the coarse cell [ts[i], ts[i+1]], or None when
    its node values and slopes show no maximum inside it."""
    a, b = float(ts[i]), float(ts[i + 1])
    da, db = float(slopes[i]), float(slopes[i + 1])
    if math.isfinite(da) and math.isfinite(db):
        if da > 0.0 > db:
            try:
                found = _polish(value_slope, a, da, b, db)
            except (ArithmeticError, ValueError, NddeError):
                found = None
            if found is not None:
                return found
        else:
            va, vb = float(vals[i]), float(vals[i + 1])
            if not float(hermite_max(va, da, vb, db, b - a)[1]) > max(va, vb):
                return None
    return _sub_scan(h, a, b)
