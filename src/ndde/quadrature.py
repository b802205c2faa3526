"""Quadrature kernels used by the criterion and the fixed-point operator.

Everything here works on plain callables of floats (compiled expressions
or a binding's coefficient formulas); the bulk path ``_bulk`` also takes
each callable's array form (one array per argument, an array out), and
uses it for batches of more than ``_SMALL`` points.  Where an array call
raises or gives a non-finite value, the scalar callable reruns the batch
point by point, so errors and their texts are the scalar ones.  The recurring shapes are

* running integrals from a fixed start (CumulativeExponent), tabulated at
  checkpoints that a Lobatto 4 / Kronrod 7 pair places (checkpoint-long
  panels, in bulk, refined by ``_refine``); a query reads the running
  integral of its piece's degree-6 interpolant through the piece's seven
  samples (Q7), so exponential damping weights over long horizons cost a
  lookup and a Horner evaluation, not a sample of the integrand.  An array
  of queries is answered at once by one ``searchsorted``;
* exponentially weighted integrals  int_a^t exp(G(s) - G(t)) f(s) ds,
  one-shot (weighted_integral) and, for several integrands at once, swept
  along a grid on the same pair's fixed nodes (WeightedSweep), in bulk:
  chunks of grid panels at a time, each panel first broken at the kinks
  of an integrand's |.| that its nodes bracket (the roots of the kink
  arguments, polished together by ``_roots``) where the kink can move
  the panel's integral by more than its tolerance, the failing (panel,
  integrand) pairs and pieces refined together by ``_refine``;
* supremum scans over long windows with local refinement (sup_scan):
  given exact slopes at the coarse nodes and a value-and-slope callable, a
  cell whose node slopes bracket a maximum is polished by a root search on
  the slope, which stops at its root (see ``_polish``); without them (or
  where the slopes fail) a cell gets a 64-point sub-scan and a
  golden-section search.  WeightedSweep supplies the slopes of its
  running integrals through I' = f - g I at one sample of g a node.

The pair (Gander & Gautschi's Lobatto 4 / Kronrod 7) and its fixed-node
helpers are shared with the operator's tables, so the package has one
fixed-node rule, and one refinement (``_refine``) where |K7 - L4| fails:
level by level, each failing piece split into the 2^d pieces its estimate
predicts, down to the depth floor.  Where a caller hands over the first
level's samples (the criterion sweep, the Picard panels), a first-level
interval that fails |K7 - L4| is still accepted where K7's own estimate,
from null rules on the same seven samples, is asymptotic and within its
tolerance.  Break points at kinks serve the
criterion sweep only; the cumulative tables and the operator's panels
refine into their kinks.  Panels go through ``_lk_points`` and
``_lk_sums``.
Adaptive Simpson serves the one-shot ``weighted_integral`` only, on no
request path.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NddeError, QuadratureError
from .hermite import GridFunction

__all__ = [
    "adaptive_simpson",
    "CumulativeExponent",
    "weighted_integral",
    "WeightedSweep",
    "window_integral",
    "sup_scan",
    "SupScanResult",
]

# At max refinement depth a piece is still accepted if its error estimate
# is below this floor; lets integrable kinks through, keeps divergences fatal.
_DEPTH_FLOOR = 1e-9

# |K7 - L4| within this multiple of a piece's K7 sum of |f| is rounding
# noise, which halving cannot lower: the piece is accepted (QUADPACK's 50 eps)
_ROUNDING = 50.0 * np.finfo(float).eps

# _refine and adaptive_simpson give up beyond this many panels.  Around a
# pole the panels that fail multiply with every level long before the depth
# limit is reached.
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
    # of how deep the caller's stack already is.
    isfinite = math.isfinite
    stack = [(a, fa, b, fb, m, fm, whole, tol, depth)]
    done: list[float] = []  # finished halves awaiting their sibling
    budget, whole_a, whole_b, whole_tol = _MAX_PANELS, a, b, tol
    while stack:
        panel = stack.pop()
        if panel is None:  # both halves of a split are done
            right = done.pop()
            done[-1] += right
            continue
        budget -= 1
        if budget < 0:
            raise QuadratureError(
                f"no convergence on [{whole_a!r}, {whole_b!r}] to tol = {whole_tol!r} within {_MAX_PANELS}"
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
# "Adaptive quadrature -- revisited", BIT 40, 2000): the Lobatto rule samples
# +-1 and +-1/sqrt(5), its Kronrod extension adds +-sqrt(2/3) and 0.  K7 is
# exact for degree 9, L4 for degree 5.  |K7 - L4| estimates the error of L4
# and stands in for K7's: on a smooth panel it overstates it by orders of
# magnitude (``_null_rule_passes`` estimates K7's own), and on a kink it can
# understate it (break points serve there).  Both rules sample the panel
# ends, so a kink close to an end cannot hide between the nodes, and panels
# that share an end share its sample.  Nodes and weights are listed ends
# first and the centre last, the order of ``_lk_points``.
_LK_X = np.array([-1.0, 1.0, -math.sqrt(2.0 / 3.0), math.sqrt(2.0 / 3.0),
                  -1.0 / math.sqrt(5.0), 1.0 / math.sqrt(5.0), 0.0])
_K7_W = np.array([77.0, 77.0, 432.0, 432.0, 625.0, 625.0, 672.0]) / 1470.0
_L4_W = np.array([1.0, 1.0, 0.0, 0.0, 5.0, 5.0, 0.0]) / 6.0
_LK_XS = _LK_X.tolist()
_K7_WS = _K7_W[::2].tolist()


def _running_rule(nodes: list[float]) -> list[list[float]]:
    """Q_k(x) = int_{-1}^x L_k for each Lagrange basis polynomial L_k of
    ``nodes``, its coefficients in rising powers of x: L_k built a factor at
    a time, integrated term by term.  Elementwise, as ``_null_rules``."""
    rows = []
    for k, xk in enumerate(nodes):
        c = [1.0]
        for xm in nodes[:k] + nodes[k + 1 :]:
            c = [(lo - xm * hi) / (xk - xm) for lo, hi in zip([0.0, *c], [*c, 0.0])]
        q = [ci / (i + 1) for i, ci in enumerate(c)]  # of x^(i + 1)
        rows.append([math.fsum(qi * (-1) ** i for i, qi in enumerate(q)), *q])
    return rows


def _over_one_plus_x(q: list[float]) -> list[float]:
    """The coefficients of Q(x) / (1 + x), rising powers, for a Q of rising
    coefficients q with Q(-1) = 0: synthetic division at -1."""
    r = [q[-1]]
    for qj in q[-2:0:-1]:
        r.append(qj - r[-1])
    return r[::-1]


# The running rules on the pair's nodes, one column a node, rows the rising
# powers of x: Q7 integrates from -1 to x the degree-6 interpolant through
# all seven nodes, Q5 the degree-4 one through the ends, +-1/sqrt(5) and the
# centre (zero columns at +-sqrt(2/3)).  At x = 1 they are K7 and L4, at
# x = 0 the half-panel rules H7 and H5: |H7 - H5| estimates H5's error and
# stands in for H7's, as |K7 - L4| does for K7, and a symmetric pair's two
# H7 weights add up to its K7 weight.  ``_R7`` is Q7 over 1 + x, which a
# cumulative table keeps a piece (see CumulativeExponent).
_Q7 = np.array(_running_rule(_LK_XS)).T
_Q5 = np.zeros((8, 7))
_Q5[:6, [0, 1, 4, 5, 6]] = np.array(_running_rule([_LK_XS[i] for i in (0, 1, 4, 5, 6)])).T
_R7 = np.array([_over_one_plus_x(q) for q in _Q7.T.tolist()]).T
_H7_W, _H5_W = _Q7[0], _Q5[0]
# where d/dx of Q7 - Q5, the interpolants' difference, vanishes whatever the
# samples: the nodes of the degree-4 one inside (-1, 1], and the end 1
_Q_EXTREMA = np.array([-_LK_XS[5], 0.0, _LK_XS[5], 1.0])[:, None]


def _null_rules() -> np.ndarray:
    """The six null rules of the pair's nodes, highest degree first: row j
    is w_i P_{6-j}(x_i), P_k the discrete orthogonal polynomials of degree k
    under the K7 weights w (Gram-Schmidt on x P_{k-1}), each scaled to
    sum w P_k^2 = sum w, the norm of K7 (P_0 = 1) in that product.  Row j
    integrates every polynomial of degree below 6 - j to 0, and K7 - L4 is
    -1.079 times row 0.  Elementwise: a first LAPACK call (a QR) would
    cost the import 0.5 MB of resident memory."""
    w, p = _K7_W, [np.ones(7)]
    for _ in range(6):
        v = _LK_X * p[-1]
        for u in p:
            v = v - (w * v * u).sum() / (w * u * u).sum() * u
        p.append(v)
    return np.array([w * v * math.sqrt(w.sum() / (w * v * v).sum()) for v in p[:0:-1]])


# K7's own error estimate (Berntsen & Espelid, "Error estimation in
# automatic quadrature routines", ACM TOMS 17, 1991; compared in Gonnet,
# ACM Comput. Surv. 44, 2012): the null rules, applied in pairs of falling
# degree, give E1 < E2 < E3 where f's expansion has settled into a
# geometric decay, and their largest ratio r = max(E1/E2, E2/E3) says
# whether it has.  Where r <= r_crit = 1/4 the regime is asymptotic, and
# K7's error, which starts four degrees above E1's (K7 is exact to degree
# 9, the top null rule sees degree 6), is estimated as
# K r_crit^(1 - a) r^a E1, a = 4 / 2 (each pair spans two degrees), K = 10.
# Above r_crit the estimate is K r E1 or more, at least 2.5 E1, while
# |K7 - L4| <= 1.08 E1: it never accepts a piece the pair refused, so the
# pair's estimate stands there.  (For the same reason the test r <= r_crit
# never decides on such a piece: 40 r^2 E1 exceeds 2.5 E1 above r_crit.)
_NULL = _null_rules()
_R_CRIT = 0.25
_NULL_GAIN = 10.0 * _R_CRIT ** (1 - 2)  # K r_crit^(1 - a), times r^2 E1


def _null_rule_passes(h: np.ndarray, samples: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Where K7's own error estimate on the intervals of half-width h, from
    their (7, m) samples at the ``_lk_points``, is asymptotic and within tol."""
    with np.errstate(all="ignore"):
        # einsum's own loop: a first BLAS call costs 0.4 MB of resident memory
        nulls = h * np.einsum("ij,jk->ik", _NULL, samples)
        e1, e2, e3 = np.hypot(*nulls.reshape(3, 2, -1).transpose(1, 0, 2))
        r = np.maximum(e1 / e2, e2 / e3)  # NaN where a pair vanishes: refused
        return (r <= _R_CRIT) & (_NULL_GAIN * r * r * e1 <= tol)


# _refine halves an interval whose estimate fails at most this many times
# (down to 2^-50 of it); the depth floor then decides.
_HALVINGS = 50

# _refine splits a failing piece into at most 2^this pieces at once.  On the
# seed-1 certify deck a cap of 8 takes 33/44 sampling calls a request (linear
# member/twin), this cap 32/43, and one of 32 32/44 with 0.5% more points;
# their raw request times were within 3% of each other (2-vCPU Xeon).
_MAX_SPLIT = 4

# WeightedSweep integrates, and CumulativeExponent tabulates, at most this
# many panels per bulk call, which bounds the size of the sample arrays (and
# of the array expressions' temporaries) on long grids.
_CHUNK = 256

# the rows of ``_lk_points`` in the order of their points, left to right
_LEFT_TO_RIGHT = [0, 2, 4, 6, 5, 3, 1]


def _lk_points(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pair's (7, n) nodes on the intervals [a, b], in one broadcast, in
    the order a, b, c -+ sqrt(2/3) h, c -+ h/sqrt(5), c (the midpoint last)."""
    x = 0.5 * (a + b) + 0.5 * (b - a) * _LK_X[:, None]
    x[0], x[1] = a, b
    return x


def _lk_sums(h, fa, fb, f1m, f1p, f2m, f2p, f0):
    """K7 value and |K7 - L4| from the samples at the ``_lk_points``."""
    ends = fa + fb
    f1 = f1m + f1p
    f2 = f2m + f2p
    we, w1, w2, w0 = _K7_WS
    kronrod = h * (we * ends + w1 * f1 + w2 * f2 + w0 * f0)
    lobatto = h * (ends + 5.0 * f2) / 6.0
    return kronrod, abs(kronrod - lobatto)


# An array call costs tens of microseconds before its first element (a term
# body makes dozens of them), so batches up to this size go point by point.
_SMALL = 64


def _bulk(fa: Callable[..., np.ndarray] | None, f: Callable[..., float], *columns: np.ndarray, small: int = _SMALL):
    """f over equally shaped arrays of arguments, by its array form fa in one call.

    Where fa is None, the arrays have at most ``small`` elements, or fa
    raises or gives a non-finite value, f runs point by point in the
    arrays' order instead, so that the scalar form's error (or value) stands.
    """
    x = columns[0]
    if fa is not None and x.size > small:
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


class _Pieces(NamedTuple):
    """The pieces :func:`_refine` accepted, by interval ``ids`` and left to
    right, which intervals ``passed`` whole, which pieces at the ``floor``;
    with a ``smooth`` test, each piece's ``samples`` at its ``_lk_points``
    (a column a piece; none without)."""

    ids: np.ndarray
    right: np.ndarray
    value: np.ndarray
    passed: np.ndarray
    floor: np.ndarray
    samples: np.ndarray = np.zeros((7, 0))

    def totals(self) -> np.ndarray:
        """Each interval's sum over its pieces, left to right from 0.0."""
        n = len(self.passed)  # n pieces are one per interval, in order
        return self.value if len(self.ids) == n else np.bincount(self.ids, self.value, minlength=n)


class _RefineError(QuadratureError):
    """A failure of :func:`_refine` on its interval number ``interval``."""

    def __init__(self, message: str, interval: int):
        super().__init__(message)
        self.interval = interval


def _sampled(sample, x, ids) -> np.ndarray:
    """sample(x, ids) at the points x of the intervals ids (one a column of
    x, or one a point), raising at its first non-finite value (the lowest
    interval's, at the smallest t)."""
    flat, ids = x.ravel(), np.broadcast_to(ids, x.shape).ravel()
    try:
        y = sample(flat, ids)
    except _RefineError as err:  # a nested refinement's failure is not this one's
        raise QuadratureError(str(err)) from err
    if not np.isfinite(y).all():
        bad = np.flatnonzero(~np.isfinite(y))
        k = bad[np.lexsort((flat[bad], ids[bad]))[0]]
        raise _RefineError(str(_non_finite(float(y[k]), float(flat[k]))), int(ids[k]))
    return y.reshape(x.shape)


def _refine(sample, a, b, tol, first=None, smooth=None) -> _Pieces:
    """int over each interval [a_i, b_i] by the Lobatto 4 / Kronrod 7 pair.

    ``sample(x, ids)`` gives the integrand at the points x, a 1-d array, of
    the intervals ``ids`` (one a point); ``first``, when given, holds the
    samples at the intervals' seven ``_lk_points``.  K7 is accepted where
    |K7 - L4| is within the interval's ``tol``, or within the piece's
    rounding noise (``_ROUNDING`` times its K7 sum of |f|), or, at the first
    level and only with ``first`` given, where K7's own estimate from its
    null rules is asymptotic and within ``tol`` (``_null_rule_passes``;
    such an interval counts as ``passed``).  With ``smooth``, a piece so
    accepted must also pass ``smooth(h, samples)``, the caller's own test
    on its half-width and (7, m) samples, and the accepted pieces carry
    their samples out.  The rest are
    split together into 2^d equal pieces each, the tolerance split by
    width.  L4's error falls like h^7 while each halving halves the
    tolerance, so a piece whose estimate is r times its tolerance takes
    d = ceil(log2(r) / 6) halvings, at least 1 and at most ``_MAX_SPLIT``
    (1 where r is not finite).  The boundaries come from repeated halving,
    so a split of 2 is a plain halving: the centre sample serves as an end,
    and the m - 2 new boundaries of a split of m are sampled in the same
    call as the pieces' inner nodes, one call a level.  A piece is halved
    at most ``_HALVINGS`` times (a split of 2^d counting d), and after the
    last accepted (as a ``floor`` piece) where |K7 - L4| is within
    ``_DEPTH_FLOOR``, whether it passes ``smooth`` or not.  Where a level's
    splits would make more than
    ``_MAX_PANELS`` pieces, every failing piece is halved instead.  A
    non-finite sample, a piece over the floor, or more than ``_MAX_PANELS``
    pieces to halve raise a QuadratureError that carries the number of the
    interval (the lowest; its leftmost piece, or over the budget its piece
    of largest |K7 - L4|, speaks).
    """
    n = len(a)
    ids, lo, hi, depth = np.arange(n), a, b, np.zeros(n, dtype=np.int64)
    given, tol = first is not None, np.full(n, tol, dtype=float)
    if not given:
        first = _sampled(sample, _lk_points(a, b), ids)
    fa, fb, *inner = first
    done = []  # per level: ids, left, right, value, floor of the accepted pieces
    kept = []  # per level, with ``smooth``: their samples
    for level in range(_HALVINGS + 1):
        if level:  # the pieces' inner nodes, then their new ends
            x = _lk_points(lo, hi)[2:]
            y = _sampled(sample, np.concatenate([x.ravel(), *new]), np.concatenate([np.tile(ids, 5), *new_ids]))
            inner, ends = y[: x.size].reshape(x.shape), np.concatenate((ends, y[x.size :]))
            fa, fb = ends[ia], ends[ib]
        with np.errstate(all="ignore"):
            value, error = _lk_sums(0.5 * (hi - lo), fa, fb, *inner)
            fails = ~(error <= tol)
            if fails.any():  # rounding noise, which halving cannot lower, passes too
                k = np.flatnonzero(fails)
                noise = _lk_sums(0.5 * (hi[k] - lo[k]), *(np.abs(f[k]) for f in (fa, fb, *inner)))[0]
                fails[k] = ~(error[k] <= _ROUNDING * noise)
        if level == 0 and given and fails.any():  # K7's own estimate, from the given samples
            k = np.flatnonzero(fails)
            fails[k] = ~_null_rule_passes(0.5 * (b[k] - a[k]), first[:, k], tol[k])
        if smooth is not None:
            rows = np.vstack((fa, fb, inner))
            k = np.flatnonzero(~fails)
            fails[k] = ~smooth(0.5 * (hi[k] - lo[k]), rows[:, k])
        if level == 0:
            passed = ~fails
            if passed.all():
                return _Pieces(ids, hi, value, passed, fails, *([] if smooth is None else [rows]))
            if not np.isfinite(error).all():  # raises at a non-finite given sample
                _sampled(lambda *_: first.ravel(), _lk_points(a, b), ids)
        last = depth == _HALVINGS
        stuck = np.flatnonzero(last & ~(error <= _DEPTH_FLOOR))
        if len(stuck):  # a NaN estimate (overflow) fails the floor too
            k = stuck[np.lexsort((lo[stuck], ids[stuck]))[0]]
            raise _RefineError(
                f"no convergence on [{float(lo[k])!r}, {float(hi[k])!r}] after max refinement"
                f" depth (defect {float(error[k]):.3e})", int(ids[k]),
            )
        keep = ~fails | last  # at the last halving all passed the floor
        done.append((ids[keep], lo[keep], hi[keep], value[keep], fails[keep]))
        if smooth is not None:
            kept.append(rows[:, keep])
        if keep.all():
            break
        k = np.flatnonzero(~keep)
        if 2 * len(k) > _MAX_PANELS:  # name its worst piece too
            i = int(ids[k].min())
            k = k[ids[k] == i]
            k = k[np.argmax(error[k])]
            raise _RefineError(
                f"no convergence on [{float(a[i])!r}, {float(b[i])!r}] within {_MAX_PANELS}"
                f" panels (refining [{float(lo[k])!r}, {float(hi[k])!r}])", i,
            )
        with np.errstate(all="ignore"):
            d = np.ceil(np.log2(error[k] / tol[k]) / 6.0)
        d = np.where(np.isfinite(d), np.clip(d, 1, _MAX_SPLIT), 1)
        d = np.minimum(d, _HALVINGS - depth[k]).astype(np.int64)
        if np.sum(1 << d) > _MAX_PANELS:
            d[:] = 1
        # halve each piece k d times.  A halving lists the pieces it leaves
        # whole, then the left halves, then the right ones.  The first cuts
        # at the centre (the last node), the later ones at new points, whose
        # samples extend ``ends`` (the end samples ia, ib and mid index)
        # next level
        m = len(k)
        ends, new, new_ids = np.concatenate((fa[k], fb[k], inner[4][k])), [], []
        ia, ib, mid = np.arange(m), np.arange(m, 2 * m), np.arange(2 * m, 3 * m)
        ids, lo, hi, depth, tol = ids[k], lo[k], hi[k], depth[k], tol[k]
        for times in range(int(d.max())):
            s = np.flatnonzero(d > times)
            c = 0.5 * (lo + hi)[s]
            if times:
                mid = len(ends) + sum(map(len, new)) + np.arange(len(s))
                new.append(c)
                new_ids.append(ids[s])
            src = np.concatenate((np.flatnonzero(d <= times), s, s))
            ids, d, lo, hi, ia, ib, depth, tol = (v[src] for v in (ids, d, lo, hi, ia, ib, depth, tol))
            left, right = slice(-2 * len(s), -len(s)), slice(-len(s), None)
            hi[left], ib[left], lo[right], ia[right] = c, mid, c, mid
            depth[-2 * len(s) :] += 1
            tol[-2 * len(s) :] *= 0.5
    ids, left, right, value, floor = (np.concatenate(col) for col in zip(*done))
    order = np.lexsort((left, ids))
    rows = [] if smooth is None else [np.concatenate(kept, axis=1)[:, order]]
    return _Pieces(ids[order], right[order], value[order], passed, floor[order], *rows)


def _kronrod_panels(f, f_array, a: np.ndarray, b: np.ndarray, tol: float) -> _Pieces:
    """int f over each panel [a_j, b_j] by :func:`_refine`, every level
    sampled by one ``_bulk`` call."""
    return _refine(lambda x, ids: _bulk(f_array, f, x), a, b, tol)


def _advance(decay: np.ndarray, panels: np.ndarray) -> np.ndarray:
    """I_j = decay_j I_{j-1} + panel_j from I_{-1} = 0, one panel at a time,
    for one row of panels or, in the same loop, for each of two.

    A cumulative sum of exp(G) terms instead would overflow on long horizons.
    """
    if panels.ndim == 1:
        out, total = [], 0.0
        for d, p in zip(decay.tolist(), panels.tolist()):
            total = d * total + p
            out.append(total)
        return np.array(out)
    first, second, u, v = [], [], 0.0, 0.0
    for d, p, q in zip(decay.tolist(), *panels.tolist()):
        u = d * u + p
        v = d * v + q
        first.append(u)
        second.append(v)
    return np.array([first, second])


_MAX_TABLE_PANELS = 1 << 22  # checkpoint-long panels a cumulative table may span; the presets need 1e4


def _running_error(h: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """h sup_x |int_{-1}^x (p6 - p4)| over [-1, 1] for the pieces of
    half-width h with (7, m) samples at the ``_lk_points``, p6 and p4 the
    interpolants that Q7 and Q5 integrate.  p6 - p4 vanishes at p4's five
    nodes, so it is w(x) (7 e7 x + 6 e6), w their monic node polynomial and
    e the running integral's coefficients: the integral peaks at p4's
    nodes inside (-1, 1], at 1, or at the root of that linear factor."""
    e = np.einsum("jk,km->jm", _Q7 - _Q5, samples)  # einsum's own loop, not BLAS
    with np.errstate(all="ignore"):
        root = -6.0 * e[6] / (7.0 * e[7])
    x = np.vstack((np.broadcast_to(_Q_EXTREMA, (4, len(h))), np.where(np.abs(root) < 1.0, root, 1.0)))
    acc = e[7] * x + e[6]
    for j in range(5, -1, -1):
        acc = acc * x + e[j]
    return h * np.abs(acc).max(axis=0)


class CumulativeExponent:
    """Running integral G(t) = int_start^t f, tabulated at checkpoints.

    The table covers [start, t] for the largest t queried so far, in batches
    of up to ``_CHUNK`` ``checkpoint``-long panels, sampled in one call of
    ``f_array`` (f's array form, whatever the number of points, so that a
    point's sample does not depend on its batch; without it, f point by
    point).  A panel is integrated by the Lobatto 4 / Kronrod 7 pair and
    refined by ``_refine`` where its piece fails: split into the 2^d equal
    pieces its estimate predicts, a level at a time, the tolerance split by
    width.  A piece passes where |K7 - L4| is within its tolerance and where
    the running integral of its interpolant is too (below).  Every accepted
    piece's end becomes a checkpoint, so the table is finest where f is
    least smooth; a batch that fails is redone panel by panel.  Each
    checkpoint panel is refined on its own and the running sum adds left to
    right, so the table does not depend on how its queries chunked it
    (unless a level's splits of a batch pass ``_MAX_PANELS``, when
    ``_refine`` halves them all).

    Query rule: a piece [a, a + 2h] keeps the degree-6 interpolant p6
    through its seven samples (K7 is the rule that integrates it), and a
    query at t = a + h (1 + x) returns G(a) + h int_{-1}^x p6 from its
    running rule Q7, stored as the seven coefficients of
    h int_{-1}^x p6 / (1 + x) (``_R7``).  A query costs a bisection and a
    Horner evaluation and takes no sample of f; a query at a checkpoint
    returns the table entry.  The estimate: a piece is accepted only where
    h sup_x |int_{-1}^x (p6 - p4)| (``_running_error``; p4 the degree-4
    interpolant through the ends, +-1/sqrt(5) and the centre) is within
    ``tol_per_unit`` or the rounding noise of its K7 sum of |f|, and split
    otherwise.  A piece accepted at the depth floor that fails it keeps no
    interpolant: a query in it integrates its partial panel from the
    checkpoint by the pair, refined by the same rule, and counts in
    ``_fallbacks``.

    ``cumulative`` also takes an array of queries, answered at once by
    ``searchsorted``, bit for bit as one by one.  Where the array call
    raises, or a query is non-finite or below the start, the queries run
    one by one in order (so an error is the scalar one).
    With a ``name``, an error of the table or of a query is re-raised as a
    QuadratureError that names it and the query t.  A query that would
    stretch the table past ``_MAX_TABLE_PANELS`` checkpoint panels is
    refused before any of it is tabulated.

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
        # checkpoints, G at them and each piece's coefficients (a row a
        # piece, by its left checkpoint), in arrays grown by doubling.  The
        # first ``_size`` nodes are published; a node is published after its
        # value and its piece, so a reader that finds a node finds both
        self._node_buf = np.full(64, self.start)
        self._value_buf = np.zeros(64)
        self._coef_buf = np.zeros((64, 7))
        self._size = 1
        self._panels = 0  # checkpoint-long panels tabulated
        self._end = self.start + _MAX_TABLE_PANELS * self.checkpoint  # the farthest it may reach
        self._lock = threading.Lock()
        self._fallbacks = 0  # queries answered by the pair, not by an interpolant

    def _table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The published nodes, values and piece coefficients."""
        n = self._size  # read first: every entry below it is written
        return self._node_buf[:n], self._value_buf[:n], self._coef_buf[: n - 1]

    @property
    def _nodes(self) -> np.ndarray:
        return self._table()[0]

    @property
    def _values(self) -> np.ndarray:
        return self._table()[1]

    def _sample(self, x: np.ndarray, ids=None) -> np.ndarray:
        return _bulk(self.f_array, self.f, x, small=0)

    def _smooth(self, h: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Where a piece's interpolant passes its estimate (see the class)."""
        error = _running_error(h, samples)
        ok = error <= self.tol_per_unit
        k = np.flatnonzero(~ok)
        if len(k):
            noise = _lk_sums(h[k], *np.abs(samples[:, k]))[0]
            ok[k] = error[k] <= _ROUNDING * noise
        return ok

    def _pair(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """int f over each [a_j, b_j] by the pair, refined (no interpolant)."""
        return _refine(self._sample, a, b, self.tol_per_unit).totals()

    def _extend(self, t: float) -> None:
        if not t <= self._end:
            raise QuadratureError(
                f"the table over [{self.start!r}, {t!r}] needs over {_MAX_TABLE_PANELS}"
                f" panels of width {self.checkpoint!r}"
            )
        with self._lock:
            while self._node_buf[self._size - 1] < t:
                i = self._panels
                n = min(_CHUNK, max(1, math.ceil((t - self.start) / self.checkpoint) - i))
                edges = self.start + np.arange(i, i + n + 1) * self.checkpoint
                try:
                    self._append(edges)
                except (NddeError, ArithmeticError):  # keep the whole panels before the failing one
                    for k in range(n):
                        self._append(edges[k : k + 2])

    def _append(self, edges: np.ndarray) -> None:
        """Tabulate the panels between ``edges``, or raise and change nothing."""
        pieces = _refine(self._sample, edges[:-1], edges[1:], self.tol_per_unit, smooth=self._smooth)
        h = 0.5 * (pieces.right - np.concatenate((edges[:1], pieces.right[:-1])))
        coefs = (h * np.einsum("jk,km->jm", _R7, pieces.samples)).T
        floor = np.flatnonzero(pieces.floor)
        if len(floor):  # NaN marks a piece whose queries take the pair
            coefs[floor[~self._smooth(h[floor], pieces.samples[:, floor])]] = math.nan
        n, m = self._size, len(h)
        # a running sum left to right, as one piece at a time would give it
        sums = np.cumsum(np.concatenate((self._value_buf[n - 1 : n], pieces.value)))[1:]
        if n + m > len(self._node_buf):  # readers keep the old arrays they hold
            size = max(2 * len(self._node_buf), n + m)
            for name in ("_value_buf", "_coef_buf", "_node_buf"):
                old = getattr(self, name)
                grown = np.empty((size, *old.shape[1:]))
                grown[:n] = old[:n]
                setattr(self, name, grown)
        self._value_buf[n : n + m] = sums
        self._coef_buf[n - 1 : n - 1 + m] = coefs
        self._node_buf[n : n + m] = pieces.right
        self._size = n + m
        self._panels += len(edges) - 1

    def cumulative(self, t):
        """G(t) for a float t, or G at every element of an array t."""
        if isinstance(t, np.ndarray):
            return self._cumulative_many(t)
        try:
            if not t >= self.start:
                if t != t:
                    raise QuadratureError(f"cumulative query at t={t!r} is not a number")
                if t < self.start - 1e-9 * max(1.0, abs(self.start)):
                    raise QuadratureError(
                        f"cumulative query at t={t!r} below start {self.start!r}"
                    )
                t = self.start
            if t > self._node_buf[self._size - 1]:
                self._extend(t)
            nodes, values, coefs = self._table()
            i = int(nodes.searchsorted(t, side="right")) - 1
            base = float(nodes[i])
            if t == base:
                return float(values[i])
            u = (t - base) / (0.5 * (float(nodes[i + 1]) - base))
            x = u - 1.0
            *rest, part = coefs[i].tolist()
            for c in reversed(rest):  # Horner, as _queries runs it
                part = part * x + c
            part = u * part
            if part != part:
                with self._lock:
                    self._fallbacks += 1
                part = float(self._pair(nodes[i : i + 1], np.array([t]))[0])
            return float(values[i] + part)
        except (NddeError, ArithmeticError) as err:
            if self.name is None:
                raise
            raise QuadratureError(f"cumulative {self.name} at t={t!r}: {err}") from err

    def _cumulative_many(self, ts: np.ndarray) -> np.ndarray:
        flat = np.asarray(ts, dtype=float).ravel()
        low = self.start - 1e-9 * max(1.0, abs(self.start))
        outside = (flat < low) | (flat > self._end)
        if outside.any() and flat[outside.argmax()] > self._end:  # refused before any is tabulated
            return self.cumulative(float(flat[outside.argmax()]))
        if len(flat) and np.isfinite(flat).all() and not outside.any():
            try:
                return self._queries(np.maximum(flat, self.start)).reshape(ts.shape)
            except (NddeError, ArithmeticError):
                pass  # the scalar queries below raise the first one's error
        return np.array([self.cumulative(t) for t in flat.tolist()]).reshape(ts.shape)

    def _queries(self, t: np.ndarray) -> np.ndarray:
        top = float(t.max())
        if top > self._node_buf[self._size - 1]:
            self._extend(top)
        nodes, values, coefs = self._table()
        i = nodes.searchsorted(t, side="right") - 1
        out = values[i]
        k = np.flatnonzero(t > nodes[i])
        if len(k):
            j = i[k]
            base = nodes[j]
            u = (t[k] - base) / (0.5 * (nodes[j + 1] - base))
            x = u - 1.0
            c = coefs[j]
            part = c[:, 6]
            for r in range(5, -1, -1):
                part = part * x + c[:, r]
            part = u * part
            slow = np.flatnonzero(np.isnan(part))
            if len(slow):
                with self._lock:
                    self._fallbacks += len(slow)
                part[slow] = self._pair(base[slow], t[k[slow]])
            out[k] += part
        return out

    def weight(self, s: float, t: float) -> float:
        return math.exp(self.cumulative(s) - self.cumulative(t))


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


_NO_BREAKS = (np.zeros(0, dtype=np.intp), np.zeros(0))

# Illinois steps one break point's polish may take
_ROOT_ITERS = 60


def _roots(f, a: np.ndarray, fa: np.ndarray, b: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """A root of f in each bracket [a_i, b_i], where f takes the values fa_i
    and fb_i of opposite sign (a zero counts as positive), by Illinois
    steps on all brackets at once.

    ``f(x, live)`` gives f at the points x of the brackets numbered
    ``live``.  A bracket is done where f vanishes, where the secant step
    rounds onto one of its ends (the root is that end to rounding), or
    where the bracket or the step shrinks to 1e-12 of max(1, |a| + |b|),
    the tolerance of ``_polish``: a break point that close to a kink leaves
    the pair a kink it integrates to rounding.  A non-finite value of f
    makes the root NaN.
    """
    a, fa, b, fb = (np.array(v, dtype=float) for v in (a, fa, b, fb))
    root = 0.5 * (a + b)
    tol = 1e-12 * np.maximum(1.0, np.abs(a) + np.abs(b))
    side = np.zeros(len(a), dtype=np.int8)  # which end the last step moved: -1 a, +1 b
    live = np.flatnonzero(np.isfinite(root))
    for _ in range(_ROOT_ITERS):
        if not len(live):
            break
        al, bl, wa, wb, prev = a[live], b[live], fa[live], fb[live], root[live]
        with np.errstate(all="ignore"):
            x = bl - wb * (bl - al) / (wb - wa)
        landed = (x == al) | (x == bl)  # on an end: that end is the root to rounding
        root[live[landed]] = x[landed]
        live, x, al, bl, wa, prev = (v[~landed] for v in (live, x, al, bl, wa, prev))
        off = ~((al < x) & (x < bl))
        x[off] = 0.5 * (al + bl)[off]
        with np.errstate(all="ignore"):
            fx = np.asarray(f(x, live), dtype=float)
        root[live] = x
        bad = ~np.isfinite(fx)
        root[live[bad]] = math.nan
        move_a = ((fx < 0.0) == (wa < 0.0)) & ~bad
        ia, ib = live[move_a], live[~move_a & ~bad]
        a[ia], fa[ia] = x[move_a], fx[move_a]
        b[ib], fb[ib] = x[~move_a & ~bad], fx[~move_a & ~bad]
        fb[ia[side[ia] == -1]] *= 0.5  # Illinois: the end that stayed twice weighs half
        fa[ib[side[ib] == 1]] *= 0.5
        side[ia], side[ib] = -1, 1
        done = bad | (fx == 0.0) | (b[live] - a[live] <= tol[live]) | (np.abs(x - prev) <= tol[live])
        live = live[~done]
    return root


def _stacked(kinks, x: np.ndarray) -> np.ndarray:
    """The kink arguments ``kinks(x)`` as one array, a leading axis over them."""
    return np.stack(np.broadcast_arrays(*kinks(x)))


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

    Break points: ``kinks[k]``, when given, maps an array of times to the
    kink arguments of f_k there (a sequence of arrays).  In each chunk they
    are read at the 7 nodes of every panel in one call; a sign change
    between neighbouring nodes gives a root, polished with the chunk's
    other roots by ``_roots``.  A panel is searched only where the kink
    can move its integral by more than its tolerance, that is where the
    panel's width times its largest |sample| exceeds it (a bracket pinned
    to zero up to rounding never breaks), and where its samples dip: where
    the smallest |sample| is at most half the largest.  A kink of |u| in a
    term |u| w pulls the samples beside it toward zero; samples that all
    exceed half their maximum hide a root of u only in a feature narrower
    than the nodes resolve.  The pieces are integrated as first-level
    intervals, each with the panel's tolerance split by width; the
    refinement stays the safety net for kinks the search misses.

    An integrand's panel (or piece) sum is K7 when |K7 - L4|, or K7's own
    null-rule estimate, is within its tolerance (see ``_refine``).  The
    (panel, integrand) pairs that fail are refined together
    by ``_refine`` (the tolerance split by width, G read once per distinct
    point).  ``at(t)`` evaluates between grid points by the same routine
    on the one interval [grid[i], t], broken at the sweep's break points in
    it.  ``counts[k]`` holds, per integrand, the panels (grid panels and
    ``at`` intervals) accepted whole, the panels refined, and the pieces
    accepted at the depth floor; a broken panel counts as accepted whole
    when each of its pieces passes at its first level, as refined
    otherwise.  A failure is raised as a QuadratureError that names the
    integrand's label (and, in ``at``, the t).
    """

    def __init__(
        self,
        integrands: Sequence[Callable[[float], float]],
        gexp: CumulativeExponent,
        grid: Sequence[float],
        tols: Sequence[float] | float = 1e-11,
        arrays: Sequence[Callable[[np.ndarray], np.ndarray] | None] | None = None,
        labels: Sequence[str] | None = None,
        kinks: Sequence[Callable[[np.ndarray], Sequence[np.ndarray]] | None] | None = None,
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
        self.kinks = [None] * n if kinks is None else list(kinks)
        if not len(self.tols) == len(self.arrays) == len(self.labels) == len(self.kinks) == n:
            raise ValueError("need one tolerance, array form, label and kink map per integrand")
        self.counts = np.zeros((n, 3), dtype=int)
        terms = list(range(n))
        grid, G = self.grid, gexp.cumulative(self.grid)
        self._G = G
        self._f_grid = np.array([self._sample(k, grid, "") for k in terms]).reshape(n, -1)
        panels = np.zeros((n, len(grid) - 1))
        found = []  # per chunk: the integrand and the t of each break point
        for lo in range(0, len(grid) - 1, _CHUNK):
            hi = min(lo + _CHUNK, len(grid) - 1)
            f = self._f_grid
            panels[:, lo:hi], (ids, roots) = self._integrate(
                grid[lo:hi], grid[lo + 1 : hi + 1], G[lo:hi], G[lo + 1 : hi + 1],
                f[:, lo:hi], f[:, lo + 1 : hi + 1], terms, "",
            )
            found.append((ids % n, roots))
        # each integrand's break points in increasing t, for ``at``
        ks, roots = (np.concatenate(col) for col in zip(*found)) if found else _NO_BREAKS
        self._breaks = [np.sort(roots[ks == k]) for k in terms]
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

    def _find_breaks(self, nodes: np.ndarray, first: np.ndarray, tol: np.ndarray, terms: list[int]):
        """(intervals, roots): the break points of the (panel p, term row j)
        intervals, numbered p * len(terms) + j, unsorted.

        ``nodes`` are the panels' ``_lk_points`` and ``first`` the weighted
        samples there, one column an interval.  A kink map that raises, or
        a root whose polish meets a non-finite value, gives no break point.
        """
        m, rows = nodes.shape[1], len(terms)
        xs = nodes[_LEFT_TO_RIGHT]
        size = np.abs(first)
        top = size.max(axis=0)
        with np.errstate(all="ignore"):
            reach = (nodes[1] - nodes[0])[:, None] * top.reshape(m, rows)
        worth = (reach > tol.reshape(m, rows)) & (size.min(axis=0) <= 0.5 * top).reshape(m, rows)
        found = [_NO_BREAKS]
        for j, k in enumerate(terms):
            cols, kinks = np.flatnonzero(worth[:, j]), self.kinks[k]
            if kinks is None or not len(cols):
                continue
            try:
                with np.errstate(all="ignore"):
                    u = _stacked(kinks, xs[:, cols])  # (kink, node, panel)
                finite = np.isfinite(u[:, :-1]) & np.isfinite(u[:, 1:])
                q, g, c = np.nonzero(((u[:, :-1] < 0.0) != (u[:, 1:] < 0.0)) & finite)
                if not len(q):
                    continue
                p = cols[c]
                roots = _roots(
                    lambda x, live, q=q, kinks=kinks: _stacked(kinks, x)[q[live], np.arange(len(live))],
                    xs[g, p], u[q, g, c], xs[g + 1, p], u[q, g + 1, c],
                )
            except (NddeError, ArithmeticError):
                continue
            inside = (xs[0, p] < roots) & (roots < xs[-1, p])  # NaN fails too
            found.append((p[inside] * rows + j, roots[inside]))
        return tuple(np.concatenate(col) for col in zip(*found))

    def _integrate(self, a, b, ga, gb, fa, fb, terms: list[int], where: str, breaks=None):
        """(values, breaks): int_{a_p}^{b_p} exp(G(s) - G(b_p)) f_k(s) ds,
        shape (len(terms), m), for the m intervals [a_p, b_p], given G and
        (row j for terms[j]) f at their ends; and the break points
        (``_find_breaks``' intervals and roots) the intervals were broken
        at: ``breaks``, or where None, the ones ``_find_breaks`` finds."""
        m, rows = len(a), len(terms)
        n = m * rows
        # one interval per (panel p, term row j) pair, numbered p * rows + j
        nodes = _lk_points(a, b)
        x = nodes[2:]
        with np.errstate(all="ignore"):
            damping = np.exp(self.gexp.cumulative(x) - gb)  # G once for all terms
            inner = np.stack([damping * self._sample(k, x, where) for k in terms], axis=2)
            first = np.concatenate(((np.exp(ga - gb)[:, None] * fa.T)[None], fb.T[None], inner))
        first = first.reshape(7, -1)
        lo, hi = np.repeat(a, rows), np.repeat(b, rows)
        tol = np.tile(np.asarray(self.tols)[terms], m)
        if breaks is None:  # a non-finite sample raises below, as without break points
            breaks = self._find_breaks(nodes, first, tol, terms) if np.isfinite(first).all() else _NO_BREAKS
        owner = np.arange(n)  # per interval _refine integrates: its (panel, term) pair
        cut, roots = breaks
        if len(cut):
            is_cut = np.zeros(n, dtype=bool)
            is_cut[cut] = True
            broken, whole = np.flatnonzero(is_cut), np.flatnonzero(~is_cut)
            # the pieces of the broken pairs, pair by pair and left to right
            # (a break point found twice gives a piece of width 0, which adds 0)
            p_owner = np.concatenate((broken, cut))
            p_lo = np.concatenate((lo[broken], roots))
            order = np.lexsort((p_lo, p_owner))
            p_owner, p_lo = p_owner[order], p_lo[order]
            last = np.append(p_owner[1:] != p_owner[:-1], True)
            p_hi = np.append(p_lo[1:], 0.0)
            p_hi[last] = hi[p_owner[last]]
            p_tol = tol[p_owner] * ((p_hi - p_lo) / (hi - lo)[p_owner])
            owner = np.concatenate((whole, p_owner))
            lo, hi = np.concatenate((lo[whole], p_lo)), np.concatenate((hi[whole], p_hi))
            tol = np.concatenate((tol[whole], p_tol))

        def sample(x, ids):
            # G once a distinct point, for all terms
            nodes, inverse = np.unique(x, return_inverse=True)
            G = self.gexp.cumulative(nodes)[inverse]
            p, j = np.divmod(owner[ids], rows)
            f = np.empty_like(x)
            for r in np.flatnonzero(np.bincount(j)).tolist():
                f[j == r] = self._sample(terms[r], x[j == r], where)
            with np.errstate(all="ignore"):
                return np.exp(G - gb[p]) * f

        try:
            if len(cut):
                fresh = np.arange(len(whole), len(owner))
                pieces = _sampled(sample, _lk_points(lo[fresh], hi[fresh]), fresh)
                first = np.concatenate((first[:, whole], pieces), axis=1)
            pieces = _refine(sample, lo, hi, tol, first)
        except _RefineError as err:
            label = self.labels[terms[owner[err.interval] % rows]]
            raise QuadratureError(f"sweep of {label}{where}: {err}") from err
        totals, halved = pieces.totals(), ~pieces.passed
        if len(owner) > n:  # a pair's sum over its pieces, left to right
            totals, halved = np.bincount(owner, totals, minlength=n), np.bincount(owner, halved, minlength=n) > 0
        passed = (~halved).reshape(m, rows).sum(0)
        self.counts[terms, 0] += passed
        self.counts[terms, 1] += m - passed
        self.counts[terms, 2] += np.bincount(owner[pieces.ids[pieces.floor]] % rows, minlength=rows)
        return totals.reshape(m, rows).T, breaks

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
            # the sweep's break points in (grid[i], t), interval j for terms[j]
            inside = [r[np.searchsorted(r, self.grid[i], "right") : np.searchsorted(r, t)]
                      for r in (self._breaks[j] for j in terms)]
            breaks = (np.repeat(np.arange(len(terms)), [len(r) for r in inside]), np.concatenate(inside))
            panel, _ = self._integrate(
                self.grid[i : i + 1], point, self._G[i : i + 1], np.array([gt]),
                self._f_grid[terms, i : i + 1], ends, terms, where, breaks,
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

    The search stops at its root: where the secant step rounds onto an end
    it has sampled itself (that end is the root to rounding), or where the
    most the bracket can still add, min(h'(a), -h'(b)) (b - a), is within
    four ulps of the best value.
    """
    tol = 1e-12 * max(1.0, abs(a) + abs(b))
    x_best, v_best = a, -math.inf
    side, prev = 0, a
    wa, wb = da, db  # the ends' slopes as the secant weighs them (Illinois halves one)
    a_own = b_own = False  # whether this search sampled the end a, b itself
    for _ in range(_POLISH_ITERS):
        x = b - wb * (b - a) / (wb - wa)
        if not a < x < b:
            if x == a and a_own or x == b and b_own:
                break
            x = 0.5 * (a + b)
        v, d = value_slope(x)
        if not (math.isfinite(v) and math.isfinite(d)):
            return None
        if v > v_best:
            x_best, v_best = x, v
        if d > 0.0:
            a, da, wa, a_own = x, d, d, True
            if side == 1:
                wb *= 0.5
            side = 1
        elif d < 0.0:
            b, db, wb, b_own = x, d, d, True
            if side == -1:
                wa *= 0.5
            side = -1
        else:
            break
        if b - a <= tol or abs(x - prev) <= tol or min(da, -db) * (b - a) <= 4.0 * math.ulp(v_best):
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
    sample taken.  With ``samples`` given, they are taken as h on
    ``linspace(lo, hi, n)`` and not recomputed.
    """
    if hi < lo:
        raise ValueError("sup_scan needs lo <= hi")
    if hi == lo:
        v = _sample(h, lo)
        return SupScanResult(v, lo)
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
        if np.shape(slopes) != ts.shape:
            raise ValueError("slopes length must match n")
        cells = GridFunction(ts, vals, slopes)

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
            found = [_refine_cell(h, value_slope, cells, i) for i in range(first, last)]
        for x, v in filter(None, found):
            if v > best:
                best = v
                arg = x

    return SupScanResult(best, arg)


def _tail_slope(h: Callable[[float], float], lo: float, hi: float, last: float) -> float:
    """The secant slope of h over the last tenth of [lo, hi], given
    last = h(hi): the growth witness of the certification verdicts."""
    ta = hi - 0.1 * (hi - lo)
    return (last - _sample(h, ta)) / (hi - ta)


def _refine_cell(h, value_slope, cells: GridFunction, i: int):
    """(t, h(t)) refining cell i of ``cells``, the scan's coarse nodes with
    their samples and slopes, or None when the cell's cubic Hermite shows no
    maximum inside it."""
    a, b = float(cells.mesh[i]), float(cells.mesh[i + 1])
    da, db = float(cells.derivs[i]), float(cells.derivs[i + 1])
    if math.isfinite(da) and math.isfinite(db):
        if da > 0.0 > db:
            try:
                found = _polish(value_slope, a, da, b, db)
            except (ArithmeticError, ValueError, NddeError):
                found = None
            if found is not None:
                return found
        elif not float(cells.cell_max(i)[1]) > max(cells.values[i], cells.values[i + 1]):
            return None
    return _sub_scan(h, a, b)
