"""Quadrature kernels used by the criterion and the fixed-point operator.

Everything here works on plain ``float -> float`` callables (compiled
expressions or hand-written functions).  The recurring shapes are

* running integrals from a fixed start (CumulativeExponent), tabulated at
  checkpoints that a Lobatto 4 / Kronrod 7 pair places (unit panels,
  halved down to 1/1024 where the pair's error estimate exceeds the
  tolerance); a query adds one Kronrod panel from the last checkpoint, with
  adaptive Simpson as the fallback, so exponential damping weights over
  long horizons cost a lookup and 7 samples, not an adaptive integration;
* exponentially weighted integrals  int_a^t exp(G(s) - G(t)) f(s) ds,
  one-shot (weighted_integral) and, for several integrands at once, swept
  along a grid on the same pair's fixed nodes (WeightedSweep);
* supremum scans over long windows with local refinement (sup_scan).

The pair (Gander & Gautschi's Lobatto 4 / Kronrod 7) and its fixed-node
helpers are shared with the operator's tables, so the package has one
fixed-node rule; every use of it checks |K7 - L4| and falls back to
adaptive Simpson.
"""

from __future__ import annotations

import math
import threading
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError

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
    while stack:
        panel = stack.pop()
        if panel is None:  # both halves of a split are done
            right = done.pop()
            done[-1] += right
            continue
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
_L4_WS = _L4_W.tolist()

# CumulativeExponent halves a table panel whose estimate fails only while it
# is longer than this; shorter ones go to adaptive Simpson.
_FINEST_PANEL = 1.0 / 1024.0

# WeightedSweep halves a panel whose estimate fails at most this many times
# (down to 1/1024 of it) before adaptive Simpson takes over.
_HALVINGS = 10


def _lobatto_kronrod(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """K7 value of int_a^b f and its embedded error estimate |K7 - L4|.

    Samples are not checked one by one: a non-finite sample makes the
    error estimate non-finite, which callers treat as a failed estimate.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x1 = h * _LK_XS[5]  # sqrt(2/3) half-widths
    x2 = h * _LK_XS[4]  # 1/sqrt(5) half-widths
    ends = f(a) + f(b)
    f1 = f(c - x1) + f(c + x1)
    f2 = f(c - x2) + f(c + x2)
    f0 = f(c)
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


def _map(fn: Callable[..., float], *columns: np.ndarray) -> np.ndarray:
    """fn applied point by point to equally long arrays of arguments."""
    return np.fromiter(map(fn, *(c.tolist() for c in columns)), float, len(columns[0]))


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
    ):
        if checkpoint <= 0:
            raise ValueError("checkpoint spacing must be positive")
        self.f = f
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
                    value, error = _lobatto_kronrod(self.f, a, b)
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

    def cumulative(self, t: float) -> float:
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
        value, error = _lobatto_kronrod(self.f, base, t)
        if not error <= self.tol_per_unit:  # NaN too: the fallback raises
            value = adaptive_simpson(self.f, base, t, self.tol_per_unit)
        return self._values[i] + value

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
    Each grid panel carries the 7 nodes of the Lobatto 4 / Kronrod 7 pair:
    G and the damping weights are read there once and shared by every
    integrand, and a grid node's G and samples serve both panels that end
    on it.  An integrand's panel sum is K7 when |K7 - L4| is within its
    tolerance; otherwise the panel is halved (the tolerance split by
    width), at most ``_HALVINGS`` times, and adaptive Simpson integrates
    what still fails.  ``at(t)`` evaluates between grid points by the same
    rule on [grid[i], t].  ``counts[k]`` holds, per integrand, the panels
    (grid panels and ``at`` intervals) accepted whole, the panels halved,
    and the sub-panels handed to adaptive Simpson.
    """

    def __init__(
        self,
        integrands: Sequence[Callable[[float], float]],
        gexp: CumulativeExponent,
        grid: Sequence[float],
        tols: Sequence[float] | float = 1e-11,
    ):
        self.fs = list(integrands)
        self.gexp = gexp
        self.grid = np.asarray(grid, dtype=float)
        if self.grid.ndim != 1 or len(self.grid) < 1 or not self.fs:
            raise ValueError("need a non-empty 1-d grid and at least one integrand")
        n = len(self.fs)
        self.tols = [float(tols)] * n if np.ndim(tols) == 0 else [float(t) for t in tols]
        if len(self.tols) != n:
            raise ValueError("need one tolerance per integrand")
        self.counts = np.zeros((n, 3), dtype=int)
        self._G = _map(gexp.cumulative, self.grid)
        self._f_grid = [_map(f, self.grid) for f in self.fs]
        terms = list(range(n))
        panels = np.array(
            [
                self._panel(i - 1, float(self.grid[i]), float(self._G[i]), terms, i)
                for i in range(1, len(self.grid))
            ]
        ).reshape(-1, n)
        decay = np.exp(self._G[:-1] - self._G[1:])
        self.values = np.zeros((n, len(self.grid)))
        for k in terms:
            self.values[k, 1:] = _advance(decay, panels[:, k])

    def _panel(
        self, i: int, b: float, g_end: float, terms: list[int], j: int | None = None
    ) -> list[float]:
        """int_{grid[i]}^b exp(G(s) - g_end) f_k(s) ds for each k in ``terms``,
        with g_end = G(b) and, when b is a grid node, j its index.

        The pair runs on the interval and, for the integrands whose estimate
        fails, on halves of it, down to 1/2**_HALVINGS of its width;
        adaptive Simpson takes what still fails there.  G and the samples at
        grid nodes are read from the tables, every other one once.
        """
        cumulative, fs, counts = self.gexp.cumulative, self.fs, self.counts
        a = float(self.grid[i])
        G = {a: float(self._G[i]), b: g_end}
        F = {(k, a): float(self._f_grid[k][i]) for k in terms}
        if j is not None:
            F.update(((k, b), float(self._f_grid[k][j])) for k in terms)
        total = dict.fromkeys(terms, 0.0)
        stack = [(a, b, [(k, self.tols[k]) for k in terms], 0)]
        while stack:
            a, b, pending, depth = stack.pop()
            c, h = 0.5 * (a + b), 0.5 * (b - a)
            xs = [a, *(c + h * x for x in _LK_XS[1:-1]), b]
            for x in xs:
                if x not in G:
                    G[x] = cumulative(x)
            damp = [h * math.exp(G[x] - g_end) for x in xs]
            rejected = []
            for k, tol in pending:
                f = fs[k]
                wf = []
                for w, x in zip(damp, xs):
                    v = F.get((k, x))
                    if v is None:
                        v = F[k, x] = f(x)
                    wf.append(w * v)
                kronrod = sum(w * v for w, v in zip(_K7_WS, wf))
                error = abs(kronrod - sum(w * v for w, v in zip(_L4_WS, wf)))
                if depth == 0:
                    counts[k, 0 if error <= tol else 1] += 1
                if error <= tol:
                    total[k] += kronrod
                elif depth < _HALVINGS:
                    rejected.append((k, 0.5 * tol))
                else:  # NaN too: the fallback raises
                    counts[k, 2] += 1
                    total[k] += adaptive_simpson(
                        lambda s, f=f: math.exp(cumulative(s) - g_end) * f(s), a, b, tol
                    )
            if rejected:
                stack.append((c, b, rejected, depth + 1))
                stack.append((a, c, rejected, depth + 1))
        return [total[k] for k in terms]

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
            out = math.exp(self._G[i] - gt) * out + self._panel(i, float(t), gt, terms)
        return out if k is None else float(out[0])


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


def sup_scan(
    h: Callable[[float], float],
    lo: float,
    hi: float,
    n: int = 4096,
    samples: Sequence[float] | None = None,
) -> SupScanResult:
    """Estimate sup h over [lo, hi]: coarse grid, then local refinement.

    The top three coarse cells each get a 64-point sub-scan followed by a
    golden-section polish, so narrow peaks between grid points are caught.
    The result never undercuts any sample taken.  ``tail_slope`` is the
    secant slope of h over the last tenth of the window, the growth witness
    used by the certification verdicts.  With ``samples`` given, they are
    taken as h on ``linspace(lo, hi, n)`` and not recomputed.
    """
    if hi < lo:
        raise ValueError("sup_scan needs lo <= hi")
    if hi == lo:
        v = _sample(h, lo)
        return SupScanResult(v, lo, 0.0)
    if n < 64:
        raise ValueError("need at least 64 coarse samples")
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
        a = float(ts[max(idx - 1, 0)])
        b = float(ts[min(idx + 1, n - 1)])
        if b <= a:
            continue
        sub = np.linspace(a, b, 64)
        subvals = np.asarray([_sample(h, x) for x in sub])
        j = int(subvals.argmax())
        if float(subvals[j]) > best:
            best = float(subvals[j])
            arg = float(sub[j])
        ga, gb = float(sub[max(j - 1, 0)]), float(sub[min(j + 1, 63)])
        if gb > ga:
            x, v = _golden_max(h, ga, gb)
            if v > best:
                best = v
                arg = x

    ta = hi - 0.1 * (hi - lo)
    slope = (float(vals[-1]) - _sample(h, ta)) / (hi - ta)
    return SupScanResult(best, arg, slope)
