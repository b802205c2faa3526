import bisect
import math
import random
import sys
import traceback

import numpy as np
import pytest

from ndde import quadrature
from ndde.errors import QuadratureError
from ndde.expressions import parse_expression
from ndde.hermite import hermite_max
from ndde.quadrature import (
    CumulativeExponent,
    SupScanResult,
    WeightedSweep,
    adaptive_simpson,
    sup_scan,
    weighted_integral,
    window_integral,
)

# the damping rate and weight of the shipped worked example
G_RATE = lambda t: 0.1 / (t + 0.1)
G_EXACT = lambda t: 0.1 * math.log((t + 0.1) / 0.1)


def _refuse_simpson(*args, **kwargs):
    raise AssertionError("adaptive Simpson called")


def test_simpson_polynomials_near_exact():
    assert adaptive_simpson(lambda t: t**3, 0.0, 2.0, 1e-12) == pytest.approx(4.0, abs=1e-12)
    assert adaptive_simpson(lambda t: 3 * t**2 - t, 0.0, 1.0, 1e-12) == pytest.approx(0.5, abs=1e-13)


def test_simpson_transcendental():
    assert adaptive_simpson(math.sin, 0.0, math.pi, 1e-12) == pytest.approx(2.0, abs=1e-11)
    assert adaptive_simpson(lambda t: math.exp(-t), 0.0, 5.0, 1e-12) == pytest.approx(
        1 - math.exp(-5.0), abs=1e-11
    )


def test_simpson_rejects_non_finite_sample():
    with pytest.raises(QuadratureError):
        adaptive_simpson(lambda t: math.inf if t >= 0.5 else 1.0, 0.0, 1.0)


def test_simpson_rejects_divergent_integrand():
    with pytest.raises(QuadratureError):
        adaptive_simpson(lambda t: 1.0 / t, 1e-300, 1.0, 1e-10)


def test_simpson_handles_integrable_kink():
    # |t - 1/3| has a kink off the dyadic grid; still converges
    v = adaptive_simpson(lambda t: abs(t - 1 / 3), 0.0, 1.0, 1e-12)
    exact = (1 / 3) ** 2 / 2 + (2 / 3) ** 2 / 2
    assert v == pytest.approx(exact, abs=1e-11)


def test_simpson_orientation_guard():
    with pytest.raises(ValueError):
        adaptive_simpson(math.sin, 1.0, 0.0)


def test_cumulative_against_closed_form():
    gexp = CumulativeExponent(G_RATE, 0.0)
    for t in (0.0, 0.4, 0.9, 1.0, 2.5, 7.3, 40.0):
        assert gexp.cumulative(t) == pytest.approx(G_EXACT(t), abs=1e-10)


def test_cumulative_prefix_additivity():
    gexp = CumulativeExponent(lambda t: math.sin(t) ** 2 + 0.2, 0.0)
    rng = random.Random(3)
    for _ in range(20):
        a, b = sorted((rng.uniform(0, 12), rng.uniform(0, 12)))
        direct = adaptive_simpson(lambda t: math.sin(t) ** 2 + 0.2, a, b, 1e-12)
        assert gexp.cumulative(b) - gexp.cumulative(a) == pytest.approx(direct, abs=1e-9)


def _recursive_simpson(f, a, b, tol, max_depth=40):
    """Reference: adaptive_simpson in its former recursive form.

    Returns the value, the samples in the order taken and the deepest
    refinement level reached.  Panels at max_depth are accepted outright,
    so callers keep clear of the depth floor.
    """
    samples = []
    deepest = 0

    def sample(x):
        samples.append(x)
        return f(x)

    def panel(a, fa, b, fb, m, fm, whole, tol, level):
        nonlocal deepest
        deepest = max(deepest, level)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = sample(lm)
        frm = sample(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if abs(delta) <= tol or level == max_depth:
            return left + right + delta / 15.0
        half = 0.5 * tol
        return panel(a, fa, m, fm, lm, flm, left, half, level + 1) + panel(
            m, fm, b, fb, rm, frm, right, half, level + 1
        )

    fa = sample(a)
    fb = sample(b)
    m = 0.5 * (a + b)
    fm = sample(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return panel(a, fa, b, fb, m, fm, whole, tol, 0), samples, deepest


def test_simpson_explicit_stack_matches_recursive_form_bitwise():
    # a kink off the dyadic grid refines far deeper than the stack allowance
    rng = random.Random(29)
    for _ in range(3):
        c = rng.uniform(0.2, 0.8)
        f = lambda t: abs(t - c) + math.sin(3.0 * t)
        expected, order, deepest = _recursive_simpson(f, 0.0, 1.0, 1e-13)
        assert deepest >= 25
        taken = []

        def traced(t):
            taken.append(t)
            return f(t)

        limit = sys.getrecursionlimit()
        try:
            # the lowest limit at which an unrefined call still runs here;
            # frames alone undercount what the limit counts
            floor = len(traceback.extract_stack())
            while True:
                try:
                    sys.setrecursionlimit(floor)
                    adaptive_simpson(traced, 0.0, 1.0, 1.0)
                    break
                except RecursionError:
                    floor += 1
            sys.setrecursionlimit(floor + 3)
            taken.clear()
            got = adaptive_simpson(traced, 0.0, 1.0, 1e-13)
        finally:
            sys.setrecursionlimit(limit)
        assert got == expected
        assert taken == order


def test_cumulative_fallback_on_kinked_partial_panel():
    # g = 0.5 + 0.4 sin t + |t - c|, kink strictly inside the partial panel
    rng = random.Random(31)
    calls = [0]

    def counted(f):
        def wrapped(t):
            calls[0] += 1
            return f(t)

        return wrapped

    for _ in range(10):
        c = rng.uniform(3.0, 12.0)
        rate = lambda s, c=c: 0.5 + 0.4 * math.sin(s) + abs(s - c)
        exact = lambda t, c=c: 0.5 * t + 0.4 * (1.0 - math.cos(t)) + 0.5 * (
            c * c + (t - c) * abs(t - c)
        )
        gexp = CumulativeExponent(counted(rate), 0.0)
        gexp.cumulative(c + 1.0)  # tabulates past the kink
        i = bisect.bisect_right(gexp._nodes, c) - 1
        base, end = gexp._nodes[i], gexp._nodes[i + 1]
        assert end - base <= 1.0 / 16.0  # the table refined around the kink
        t = c + rng.uniform(0.2, 0.8) * (end - c)
        calls[0] = 0
        assert gexp.cumulative(t) == pytest.approx(exact(t), abs=1e-11)
        # the table halved far below 1/1024 around the kink, so the partial
        # panel across it is narrow enough for its 7 samples
        assert base < c < end and end - base < 2.0**-20 and calls[0] == 7
        calls[0] = 0
        smooth = c - rng.uniform(1.0, 2.5)
        assert gexp.cumulative(smooth) == pytest.approx(exact(smooth), abs=1e-11)
        assert calls[0] == 7


def test_cumulative_sees_kinks_near_panel_ends():
    # |t - c| with c in the first or last 1% of the unit panel [3, 4]: the
    # pair samples the panel ends, so the kink cannot hide beyond the
    # outermost interior node, in the table or in a partial panel
    for c in (3.004, 3.01, 3.99, 3.996):
        gexp = CumulativeExponent(lambda t, c=c: abs(t - c), 0.0)
        for t in (5.0, 4.0, 3.5, 0.5 * (c + 4.0), 0.5 * (c + 3.0), 3.999):
            exact = 0.5 * (c * c + (t - c) * abs(t - c))
            assert abs(gexp.cumulative(t) - exact) <= 1e-11


def test_kronrod_panels_halve_kinks_before_simpson(monkeypatch):
    # |t - c| on panels of width w that hold c, and on panels clear of it:
    # the failing panels are split together, only the pieces beside c are
    # split again, and they go far below the 1/1024 of a panel where
    # adaptive Simpson used to take over, without it.  A split makes at
    # most 2^4 pieces, so a piece split off lies within 2^4 of its own
    # widths of the piece holding c
    c, w = 1.0 / 3.0, 0.8
    f = lambda t: abs(t - c)  # noqa: E731
    f_array = lambda t: np.abs(t - c)  # noqa: E731
    monkeypatch.setattr(quadrature, "adaptive_simpson", _refuse_simpson)
    rng = np.random.default_rng(23)
    a = np.concatenate([c - rng.uniform(0.05, 0.95, 12) * w, [2.0, 3.5, -4.0]])
    b = a + w
    pieces = quadrature._kronrod_panels(f, f_array, a, b, 1e-11)
    got = pieces.totals()
    exact = 0.5 * ((b - c) * np.abs(b - c) - (a - c) * np.abs(a - c))
    assert np.abs(got - exact).max() <= 1e-11
    starts = np.r_[True, pieces.ids[1:] != pieces.ids[:-1]]
    left = np.where(starts, a[pieces.ids], np.r_[0.0, pieces.right[:-1]])
    width = pieces.right - left
    gap = np.maximum(np.maximum(left - c, c - pieces.right), 0.0)
    split = width < 0.75 * w
    assert pieces.passed[-3:].all() and (gap[split] <= 2**4 * width[split]).all()
    assert width.min() < w / 2**20 and not pieces.floor.any()

    # a partial panel across c: the scalar query refines it as the array
    # query does
    gexp = CumulativeExponent(f, 0.0, f_array=f_array)
    gexp.cumulative(2.0)
    i = bisect.bisect_right(gexp._nodes, c) - 1
    base, end = gexp._nodes[i], gexp._nodes[i + 1]
    assert base < c < end
    ts = rng.uniform(c, end, 100)
    bulk = gexp.cumulative(ts)
    for t, value in zip(ts.tolist(), bulk.tolist()):
        assert abs(gexp.cumulative(t) - value) <= 1e-14


def test_refinement_floor_depth_budget_and_non_finite_samples():
    def panels(f, a, b, tol=1e-11):
        return quadrature._kronrod_panels(f, f, np.asarray(a), np.asarray(b), tol)

    # sqrt(|t - c|) outruns the halved tolerance at c: the pieces there are
    # accepted at the depth floor, and counted
    c = 1.0 / 3.0
    pieces = panels(lambda t: abs(t - c) ** 0.5, [0.0, 1.0], [1.0, 2.0])
    exact = 2.0 / 3.0 * (c**1.5 + (1.0 - c) ** 1.5)
    assert pieces.totals()[0] == pytest.approx(exact, abs=1e-9)
    floor = pieces.ids[pieces.floor]
    assert len(floor) and (floor == 0).all()
    # a jump of 1e7 still fails the floor on its last piece, 2^-50 wide
    with pytest.raises(QuadratureError) as info:
        panels(lambda t: 1e7 * (t >= c), [0.0], [1.0])
    text = str(info.value)
    assert text.startswith("no convergence on [0.33333333333333") and "after max refinement depth" in text
    # a pole multiplies the failing pieces: the budget names the first
    # interval, and the piece next to the pole it was refining
    with pytest.raises(QuadratureError) as info:
        panels(lambda t: 1.0 / (t - 1.3), [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    text = str(info.value)
    assert text.startswith("no convergence on [1.0, 2.0] within 65536 panels (refining [")
    lo, hi = map(float, text.split("(refining [")[1].rstrip("])").split(", "))
    assert lo <= 1.3 <= hi and hi - lo < 1e-3
    # a non-finite sample fails at once, named at its t (the first interval's)
    blow = lambda t: np.where(t > 2.5, math.inf, np.where(t > 1.5, math.nan, 1.0))  # noqa: E731
    with pytest.raises(QuadratureError, match=r"^non-finite integrand sample nan at t=1\.7236"):
        panels(blow, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])


def _refined(monkeypatch, f, a, b, tol, split=quadrature._MAX_SPLIT, first=None):
    """``_refine`` of the array integrand f over [a_i, b_i] with at most
    2^split pieces a split (1: plain halving), and its sampling calls;
    ``first``, when given, is passed on as the first level's samples (as
    the sweep and the Picard panels pass theirs), where K7's own estimate
    acts."""
    monkeypatch.setattr(quadrature, "_MAX_SPLIT", split)
    calls = []

    def sample(x, ids):
        calls.append(len(x))
        return f(x)

    return quadrature._refine(sample, np.asarray(a, float), np.asarray(b, float), tol, first), calls


def _piece_lefts(pieces, a):
    starts = np.r_[True, pieces.ids[1:] != pieces.ids[:-1]]
    return np.where(starts, a[pieces.ids], np.r_[0.0, pieces.right[:-1]])


def test_refinement_splits_to_the_depth_its_estimate_predicts(monkeypatch):
    # 1/(t + 0.1) is nearly singular left of 0: its first unit panel fails
    # by far more than 64 times, so it is split into up to 16 pieces a
    # level, in fewer sampling calls than halving takes
    a, tol = np.arange(10.0), 1e-11
    f = lambda t: 1.0 / (t + 0.1)  # noqa: E731
    exact = np.log((a + 1.1) / (a + 0.1))
    pieces, calls = _refined(monkeypatch, f, a, a + 1.0, tol)
    halved, halving = _refined(monkeypatch, f, a, a + 1.0, tol, split=1)
    assert np.abs(pieces.totals() - exact).max() <= 1e-11
    assert np.abs(halved.totals() - exact).max() <= 1e-11
    assert len(calls) == 4 and len(halving) == 10
    assert (pieces.passed == halved.passed).all() and not pieces.floor.any()

    # failing by less than 64 times, a piece is halved: the pieces are
    # those of halving, bit for bit, at the same calls
    a = np.array([0.0, 1.0])
    errors = [quadrature._lk_sums(h, *np.exp(x))[1] for h, x in (quadrature._lk_nodes(u, u + 1.0) for u in a)]
    tol = max(errors) / 40.0
    pieces, calls = _refined(monkeypatch, np.exp, a, a + 1.0, tol)
    halved, halving = _refined(monkeypatch, np.exp, a, a + 1.0, tol, split=1)
    assert not pieces.passed.any() and len(pieces.ids) == 4
    assert calls == halving and all(x.tobytes() == y.tobytes() for x, y in zip(pieces, halved))


def _damped(s, cbrt=np.cbrt):
    """A Picard-like integrand: the showcase's c times its damping factor
    exp(G(s) - G(1)), G = 0.1 ln((t + 0.1)/0.1)."""
    return ((s + 0.1) / 1.1) ** 0.1 * 0.01 * cbrt(0.8 * s + 0.2) / ((s + 0.1) * (s + 0.2))


def _damped_integral(lo, hi):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        return float(mpmath.quad(lambda s: _damped(s, mpmath.cbrt), [mpmath.mpf(lo), mpmath.mpf(hi)]))


# |t - c| on 0.8-wide panels that hold c at +-0.27 and +-0.7 half-widths
# from their centres: close to the pair's blind spots (_NULL_KINKS), so its
# estimate is small, yet far above the tolerance
_NEAR_BLIND = np.array([-0.7, -0.27, 0.27, 0.7])


@pytest.mark.parametrize("case", ["pole", "exp", "kink", "oscillation", "damped", "near_blind_kinks"])
def test_every_accepted_piece_is_within_its_tolerance(monkeypatch, case):
    # the true error of each accepted piece, against the closed form (or
    # mpmath), is within its share of the tolerance (split by width).  In
    # the last three cases the first level's samples are given, so K7's own
    # estimate acts there: it accepts smooth panels that fail |K7 - L4|
    # (oscillation, damped) and refuses kinks the pair nearly misses
    c, tol, first, width = 1.0 / 3.0, 1e-11, None, 0.8
    a = np.arange(-0.5 if case == "kink" else 0.0, 6.0, width)
    if case == "oscillation":
        width, tol = 0.4, 1e-12
        a = np.arange(0.0, 8.0, width)
    elif case == "damped":
        width = 0.05
        a = np.arange(0.0, 1.0, width)
    elif case == "near_blind_kinks":
        a = c - 0.5 * width * (1.0 + _NEAR_BLIND)
    b = a + width
    f, F = {
        "pole": (lambda t: 1.0 / (t + 0.1), lambda t: np.log(t + 0.1)),
        "exp": (np.exp, np.exp),
        "kink": (lambda t: np.abs(t - c), lambda t: 0.5 * (t - c) * np.abs(t - c)),
        "oscillation": (lambda t: np.sin(0.75 * t), lambda t: -np.cos(0.75 * t) / 0.75),
        "damped": (_damped, None),
    }["kink" if case == "near_blind_kinks" else case]
    if case in ("oscillation", "damped", "near_blind_kinks"):
        first = f(quadrature._lk_points(a, b))
    pieces, _ = _refined(monkeypatch, f, a, b, tol, first=first)
    left = _piece_lefts(pieces, a)
    share = tol * (pieces.right - left) / (b - a)[pieces.ids]
    if case == "damped":
        exact = np.array([_damped_integral(lo, hi) for lo, hi in zip(left.tolist(), pieces.right.tolist())])
    else:
        exact = F(pieces.right) - F(left)
    error = np.abs(pieces.value - exact)
    assert (error <= share + 1e-15).all()
    if first is None:
        assert len(pieces.ids) > len(a)
    else:  # the panels that fail the pair at the first level
        pair = quadrature._lk_sums(0.5 * (b - a), *first)[1] > tol
        if case == "near_blind_kinks":
            assert pair.all() and not pieces.passed.any() and len(pieces.ids) > len(a)
        else:
            assert (pieces.passed & pair).sum() >= (4 if case == "damped" else len(a))
    if case == "oscillation":  # without the given samples the pair alone decides
        assert not _refined(monkeypatch, f, a, b, tol)[0].passed.any()


def test_advance_carries_two_rows_as_two_one_row_loops():
    # A and B advance in one loop, bit for bit as the one-row loop kept here
    rng = np.random.default_rng(5)
    decay, panels = rng.uniform(0.5, 1.0, 300), rng.normal(size=(2, 300))
    both = quadrature._advance(decay, panels)
    for row, got in zip(panels, both):
        total, want = 0.0, []
        for d, p in zip(decay.tolist(), row.tolist()):
            total = d * total + p
            want.append(total)
        assert got.tobytes() == np.array(want).tobytes() == quadrature._advance(decay, row).tobytes()


def test_k7_estimate_refuses_rounding_noise():
    # the cancellation noise of (t + 1e8) - 1e8 - t, up to 7e-9, fails the
    # pair at 1e-12 on 0.4-wide panels; its null rules do not fall, so K7's
    # own estimate refuses every panel
    a = np.arange(0.0, 400.0, 0.4)
    b = a + 0.4
    x = quadrature._lk_points(a, b)
    noise = (x + 1e8) - 1e8 - x
    tol = np.full(len(a), 1e-12)
    assert (quadrature._lk_sums(0.2, *noise)[1] > tol).mean() > 0.75
    assert not quadrature._null_rule_passes(0.5 * (b - a), noise, tol).any()
    # on a smooth panel the same estimate passes
    assert quadrature._null_rule_passes(0.5 * (b - a), np.sin(0.75 * x), 1e-12).all()


def test_refinement_budget_on_an_oscillating_integrand():
    # sin(1e4 t) at 1e-11 still converges on [0, 1] within the piece budget
    f = lambda t: np.sin(1e4 * t)  # noqa: E731
    pieces = quadrature._kronrod_panels(f, f, np.array([0.0]), np.array([1.0]), 1e-11)
    assert len(pieces.ids) <= 65536
    assert pieces.totals()[0] == pytest.approx((1.0 - math.cos(1e4)) / 1e4, abs=1e-11)
    # the budget counts the pieces of a whole batch: ten such unit panels
    # together pass it
    with pytest.raises(QuadratureError, match=r"^no convergence on \[0\.0, 1\.0\] within 65536 panels"):
        quadrature._kronrod_panels(f, f, np.arange(10.0), np.arange(10.0) + 1.0, 1e-11)


def test_sweep_reads_g_once_a_point_across_depths(monkeypatch):
    # on one panel, exp(t) fails by less than 64 times and is halved, while
    # 1/(t + 0.01) is split into 16 pieces a level: the terms' pieces sit at
    # different depths, and swept together each term gives its own sweep's
    # values and counts, bit for bit
    refine, made = quadrature._refine, []

    def recording(*args, **kwargs):
        made.append(refine(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(quadrature, "_refine", recording)
    gexp = CumulativeExponent(lambda t: 0.5 + 0.1 * t, 0.0)
    fs = [math.exp, lambda t: 1.0 / (t + 0.01)]
    grid, tols = np.array([0.0, 1.0]), [1e-6, 1e-11]
    gexp.cumulative(1.0)  # the table first, so that the sweep's refinement is the last
    both = WeightedSweep(fs, gexp, grid, tols)
    pieces = made[-1]
    widths = [np.diff(np.r_[0.0, pieces.right[pieces.ids == k]]) for k in (0, 1)]
    assert (widths[0] == 0.5).all() and widths[1].max() <= 1.0 / 16.0
    for k, f in enumerate(fs):
        alone = WeightedSweep([f], gexp, grid, tols[k])
        assert both.values[k].tobytes() == alone.values[0].tobytes()
        assert (both.counts[k] == alone.counts[0]).all()
        assert both.at(0.7, k) == alone.at(0.7, 0)


def test_large_integrands_stop_at_rounding_noise():
    # |K7 - L4| of a rate near 1e6 sits at the rounding of its sums, above
    # the tables' 1e-11 a unit: halving cannot lower it, so the pieces are
    # accepted there instead of being halved into the piece budget
    rate = lambda t: 1e6 * (1.0 + 0.5 * np.sin(t))  # noqa: E731
    gexp = CumulativeExponent(rate, 0.0, f_array=rate)
    ts = np.linspace(0.0, 200.0, 1000)
    exact = 1e6 * (ts + 0.5 * (1.0 - np.cos(ts)))
    assert np.abs(gexp.cumulative(ts) - exact).max() <= 1e-14 * exact.max()


def test_cumulative_query_at_checkpoint_returns_table_entry():
    rng = random.Random(37)
    for checkpoint in (1.0, 0.3, 0.05):
        gexp = CumulativeExponent(lambda t: math.sin(3.0 * t) ** 2 + 0.2, 0.5, checkpoint)
        gexp.cumulative(20.0)
        for _ in range(10):
            i = rng.randrange(1, len(gexp._nodes))
            assert gexp.cumulative(gexp._nodes[i]) == gexp._values[i]


def test_cumulative_matches_direct_simpson_at_random_points():
    f = lambda t: math.sin(t) ** 2 + 0.2 + 0.1 * math.cos(3.0 * t)
    rng = random.Random(41)
    for checkpoint in (1.0, 0.3, 0.05):
        gexp = CumulativeExponent(f, 0.7, checkpoint)
        for _ in range(20):
            s = rng.uniform(0.7, 15.0)
            direct = adaptive_simpson(f, 0.7, s, 1e-13)
            assert abs(gexp.cumulative(s) - direct) < 1e-12


def test_cumulative_table_survives_failed_extension():
    # a non-finite sample past 5.3 fails the panel [5, 6]; the table must
    # keep only whole panels, so queries before that panel stay exact
    gexp = CumulativeExponent(lambda t: math.inf if t > 5.3 else G_RATE(t), 0.0)
    for _ in range(2):
        with pytest.raises(QuadratureError):
            gexp.cumulative(5.9)
    assert list(gexp._nodes) == sorted(gexp._nodes)
    assert gexp._nodes[-1] == 5.0
    for t in (2.5, 4.2, 5.0):
        assert gexp.cumulative(t) == pytest.approx(G_EXACT(t), abs=1e-10)


def test_cumulative_rejects_query_below_start():
    gexp = CumulativeExponent(G_RATE, 0.0)
    with pytest.raises(QuadratureError):
        gexp.cumulative(-0.5)
    # tiny negative fuzz is clamped
    assert gexp.cumulative(-1e-12) == 0.0


def test_cumulative_rejects_non_finite_query():
    gexp = CumulativeExponent(G_RATE, 0.0)
    for t in (math.inf, math.nan):
        with pytest.raises(QuadratureError):
            gexp.cumulative(t)


def test_damping_weight_values_and_composition():
    gexp = CumulativeExponent(G_RATE, 0.0)
    assert gexp.weight(0.0, 0.9) == pytest.approx(10 ** (-0.1), abs=1e-10)
    rng = random.Random(11)
    for _ in range(20):
        a, b, c = sorted(rng.uniform(0, 30) for _ in range(3))
        lhs = gexp.weight(a, b) * gexp.weight(b, c)
        assert lhs == pytest.approx(gexp.weight(a, c), abs=1e-9, rel=1e-9)


def test_weighted_integral_of_rate_is_one_minus_weight():
    # int_0^t e^{-(G(t)-G(s))} g(s) ds = 1 - e^{-G(t)}
    gexp = CumulativeExponent(G_RATE, 0.0)
    for t in (0.5, 2.0, 9.0):
        got = weighted_integral(G_RATE, gexp, t)
        assert got == pytest.approx(1.0 - math.exp(-G_EXACT(t)), abs=1e-9)


def test_weighted_sweep_matches_direct():
    rng = random.Random(19)
    g = lambda t: 0.3 + 0.2 * math.cos(t)
    f = lambda t: math.sin(1.7 * t) + 0.4
    gexp = CumulativeExponent(g, 0.0)
    grid = np.linspace(0.0, 10.0, 41)
    sweep = WeightedSweep([f], gexp, grid)
    for i in (1, 7, 23, 40):
        direct = weighted_integral(f, gexp, float(grid[i]), tol=1e-12)
        assert sweep.values[0][i] == pytest.approx(direct, abs=1e-9)
    for _ in range(10):
        t = rng.uniform(0.0, 10.0)
        assert sweep.at(t, 0) == pytest.approx(weighted_integral(f, gexp, t, tol=1e-12), abs=1e-9)


def test_weighted_sweep_matches_one_shot_reference_on_kinks_and_layers():
    # abs kinks (one in the last 2% of the grid panel [4.75, 5]) and a steep
    # layer, all swept together; each term at each grid node and at points
    # between nodes must match a one-shot adaptive weighted integral
    g = lambda t: 0.3 + 0.2 * math.cos(t)
    fs = [
        lambda t: abs(t - 4.997),
        lambda t: abs(math.sin(1.3 * t) - 0.2),
        lambda t: 1.0 / (1.0 + ((t - 7.31) / 0.01) ** 2),
    ]
    gexp = CumulativeExponent(g, 0.0)
    grid = np.linspace(0.0, 8.0, 33)
    sweep = WeightedSweep(fs, gexp, grid, [1e-12, 1e-12, 5e-12])
    accepted, halved, floor = sweep.counts.T
    assert halved[2] > 0  # the layer was resolved by halving...
    assert halved[0] > 0 and halved[1] > 0 and not floor.any()  # so were the kinks
    assert accepted[2] > 0  # and away from it took whole panels

    def reference(f, t):
        return weighted_integral(f, gexp, t, tol=1e-12)

    for k, f in enumerate(fs):
        for i, t in enumerate(grid.tolist()):
            assert abs(sweep.values[k][i] - reference(f, t)) < 1e-10, (k, t)
    for t in (4.9, 4.996, 4.9985, 7.305, 7.4, 7.9):
        got = sweep.at(t)
        for k, f in enumerate(fs):
            assert abs(got[k] - reference(f, t)) < 1e-10, (k, t)
            assert sweep.at(t, k) == got[k]


# Where |K7 - L4| of |x - k| on [-1, 1] vanishes: at these kinks the pair's
# estimate is zero while K7 is off by 0.0168 (inner) and 0.0099 (outer)
# times the squared half-width.
_NULL_KINKS = (-0.6997216778817332, -0.24881438791427704, 0.24881438791427704, 0.6997216778817332)


def _abs_integral(k, t):
    """int_0^t |s - k| ds for 0 <= k."""
    return 0.5 * (k * k + (t - k) * abs(t - k))


def test_sweep_breaks_panels_at_kinks_the_pair_cannot_see():
    # one kink a unit panel, each where the pair's estimate vanishes; with
    # g = 0 the sweep's values are the plain integrals of |s - k|
    grid = np.linspace(0.0, 4.0, 5)
    kinks = [p + 0.5 + 0.5 * r for p, r in enumerate(_NULL_KINKS)]
    fs = [lambda t, k=k: abs(t - k) for k in kinks]
    flat = CumulativeExponent(lambda t: 0.0, 0.0)

    blind = WeightedSweep(fs, flat, grid)
    assert (blind.counts == [4, 0, 0]).all()  # every kinked panel passed whole...
    errors = [abs(blind.values[j][-1] - _abs_integral(k, 4.0)) for j, k in enumerate(kinks)]
    assert min(errors) > 2e-3  # ...with an error of 0.0025 to 0.0042

    maps = [lambda x, k=k: (x - k,) for k in kinks]
    sweep = WeightedSweep(fs, flat, grid, kinks=maps)
    assert (sweep.counts == [4, 0, 0]).all()  # broken panels whose pieces pass count as accepted
    for j, k in enumerate(kinks):
        for i, t in enumerate(grid.tolist()):
            assert abs(sweep.values[j][i] - _abs_integral(k, t)) < 1e-14, (j, t)
        # between nodes, at() breaks its interval at the sweep's break point
        for t in (k - 0.01, k + 0.01, math.floor(k) + 0.99):
            assert abs(sweep.at(t, j) - _abs_integral(k, t)) < 1e-14, (j, t)
    assert [len(r) for r in sweep._breaks] == [1, 1, 1, 1]


def test_sweep_adds_no_break_point_on_rounding_noise():
    # a bracket pinned to zero up to rounding changes sign all along the
    # grid, but |bracket| times a weight cannot move a panel's integral by
    # its tolerance; a real kink beside it still breaks its panels
    g = lambda t: 0.3 + 0.2 * math.cos(t)
    gexp = CumulativeExponent(g, 0.0)
    noise = lambda t: 1.2e-15 * math.sin(37.0 * t) * math.cos(t)
    fs = [
        lambda t: abs(noise(t)),
        lambda t: abs(noise(t)) * (1.0 + math.sin(t) ** 2),
        lambda t: abs(math.sin(t)) * (1.0 + math.sin(t) ** 2),
    ]
    maps = [lambda x: (1.2e-15 * np.sin(37.0 * x) * np.cos(x),)] * 2 + [lambda x: (np.sin(x),)]
    grid = np.linspace(0.0, 200.0, 512)
    plain = WeightedSweep(fs[:2], gexp, grid, 1e-12)
    broken = WeightedSweep(fs, gexp, grid, 1e-12, kinks=maps)
    assert [len(r) for r in broken._breaks] == [0, 0, 63]  # the roots k pi of sin in (0, 200)
    assert np.abs(broken._breaks[2] - math.pi * np.arange(1, 64)).max() < 1e-12
    assert (broken.counts[:2] == plain.counts).all()
    assert broken.values[:2].tobytes() == plain.values.tobytes()
    assert (broken.at(123.456)[:2] == plain.at(123.456)).all()

    # a panel whose samples do not dip is not searched: the map is never read
    read = []
    WeightedSweep([lambda t: 2.0 + math.sin(t)], gexp, grid, 1e-12, kinks=[lambda x: read.append(x) or (x,)])
    assert read == []


def test_break_point_polish_finds_every_root_at_once():
    a = np.array([0.0, 3.0, 1.0, -1.0])
    b = np.array([2.0, 4.0, 1.5, 1.0])
    target = np.array([math.sqrt(2.0), math.pi, 1.2, 0.0])
    calls = []

    def f(x, live):
        calls.append(len(live))
        return np.exp(x) - np.exp(target[live])

    fa, fb = np.exp(a) - np.exp(target), np.exp(b) - np.exp(target)
    roots = quadrature._roots(f, a, fa, b, fb)
    assert (np.abs(roots - target) <= 1e-12 * np.maximum(1.0, np.abs(a) + np.abs(b))).all()
    assert len(calls) <= 12 and calls[0] == 4
    # a non-finite value leaves that bracket without a root
    roots = quadrature._roots(lambda x, live: np.where(live == 1, np.nan, f(x, live)), a, fa, b, fb)
    assert np.isnan(roots[1]) and np.isfinite(roots[[0, 2, 3]]).all()


def test_window_integral_antisymmetry_exact():
    f = lambda t: math.cos(3 * t) + t
    rng = random.Random(23)
    for _ in range(20):
        a, b = rng.uniform(0, 5), rng.uniform(0, 5)
        assert window_integral(f, a, b) == pytest.approx(-window_integral(f, b, a), abs=1e-12)
    assert window_integral(f, 2.0, 2.0) == 0.0


def test_sup_scan_constant():
    res = sup_scan(lambda t: 3.5, 1.0, 9.0, n=64)
    assert res == SupScanResult(3.5, 1.0)


def test_sup_scan_parabola():
    res = sup_scan(lambda t: -((t - 1.0) ** 2), 0.0, 2.0, n=64)
    assert abs(res.argsup - 1.0) < 1e-6
    assert -1e-10 < res.sup <= 0.0


def test_tail_slope_is_the_secant_over_the_last_tenth():
    # the growth witness of the verdicts, no longer taken by every scan
    h = lambda t: -((t - 1.0) ** 2)
    assert quadrature._tail_slope(h, 0.0, 2.0, h(2.0)) == pytest.approx(-1.8, abs=1e-9)
    with pytest.raises(QuadratureError, match="t=1.8"):
        quadrature._tail_slope(lambda t: math.inf, 0.0, 2.0, 0.0)


def test_sup_scan_never_undercuts_samples():
    h = lambda t: math.sin(t) / (1 + 0.01 * t)
    ts = np.linspace(0.0, 50.0, 128)
    res = sup_scan(h, 0.0, 50.0, n=128)
    assert res.sup >= max(h(float(t)) for t in ts) - 1e-15


def test_sup_scan_finds_narrow_peak_between_grid_points():
    # peak of width ~0.02 on a length-100 window with only 128 coarse points
    h = lambda t: math.exp(-((t - 37.3) ** 2) / 2e-4)
    res = sup_scan(h, 0.0, 100.0, n=128)
    assert res.sup == pytest.approx(1.0, abs=1e-6)
    assert res.argsup == pytest.approx(37.3, abs=1e-4)


def test_sup_scan_degenerate_window():
    res = sup_scan(lambda t: t * 2, 4.0, 4.0)
    assert res == SupScanResult(8.0, 4.0)


def test_sup_scan_example_head_ratio():
    # |p(tau1)/p| * |b(tau1)| envelope of the worked example approaches
    # 1.25/5.6 ~ 0.2232 from below; scan a mid-size window
    h = lambda t: (t + 0.2) / (0.8 * t + 0.2) * abs(math.sin(t)) / 5.6
    res = sup_scan(h, 0.0, 2000.0, n=2048)
    assert 0.222 < res.sup < 1.25 / 5.6 + 1e-9


def test_sup_scan_rejects_non_finite():
    with pytest.raises(QuadratureError):
        sup_scan(lambda t: math.nan if t > 5 else 0.0, 0.0, 10.0, n=64)


# -- sup scans with exact node slopes ----------------------------------------


def _with_slopes(h, dh, lo, hi, n, slopes=None):
    """sup_scan given exact slopes on the coarse grid and a (value, slope)
    callable, next to the slope-less scan of the same function."""
    ts = np.linspace(lo, hi, n)
    node_slopes = [dh(float(t)) for t in ts] if slopes is None else slopes
    fast = sup_scan(h, lo, hi, n=n, slopes=node_slopes, value_slope=lambda t: (h(t), dh(t)))
    return fast, sup_scan(h, lo, hi, n=n), ts


@pytest.mark.parametrize(
    "h, dh, lo, hi, n",
    [
        (lambda t: -((t - 1.0) ** 2), lambda t: -2.0 * (t - 1.0), 0.0, 2.0, 64),
        (
            lambda t: math.exp(-((t - 37.3) ** 2) / 2e-4),
            lambda t: -(t - 37.3) / 1e-4 * math.exp(-((t - 37.3) ** 2) / 2e-4),
            0.0,
            100.0,
            128,
        ),
        (
            lambda t: (t + 0.2) / (0.8 * t + 0.2) * abs(math.sin(t)) / 5.6,
            lambda t: (
                0.12 / (0.8 * t + 0.2) ** 2 * abs(math.sin(t))
                + (t + 0.2) / (0.8 * t + 0.2) * math.copysign(1.0, math.sin(t)) * math.cos(t)
            ) / 5.6,
            0.0,
            2000.0,
            2048,
        ),
    ],
    ids=["parabola", "narrow-peak", "head-ratio"],
)
def test_sup_scan_with_slopes_matches_slope_less_scan(h, dh, lo, hi, n):
    fast, slow, ts = _with_slopes(h, dh, lo, hi, n)
    assert fast.sup == pytest.approx(slow.sup, abs=1e-12)
    assert fast.sup >= max(h(float(t)) for t in ts)


def test_sup_scan_with_slopes_polishes_on_the_slope_alone():
    # a bracketed maximum costs a few (value, slope) samples and no sub-scan
    calls = {"h": 0, "pair": 0}

    def h(t):
        calls["h"] += 1
        return math.sin(t)

    def pair(t):
        calls["pair"] += 1
        return math.sin(t), math.cos(t)

    ts = np.linspace(0.0, 3.0, 64)
    res = sup_scan(
        h, 0.0, 3.0, n=64, samples=np.sin(ts), slopes=np.cos(ts), value_slope=pair
    )
    assert res.sup == pytest.approx(1.0, abs=1e-15)
    assert res.argsup == pytest.approx(math.pi / 2, abs=1e-7)
    assert calls["h"] == 0  # no sub-scan, and no tail-slope sample
    assert calls["pair"] <= 10


def test_sup_scan_polish_stops_at_its_root():
    # the best cell's secant lands on an end the polish sampled once the
    # slope there is at rounding level; the parent design then bisected
    # down to its width tolerance (50 calls here)
    k = 2.593
    h = lambda t: math.sin(k * t) / (1 + 0.01 * t)
    dh = lambda t: k * math.cos(k * t) / (1 + 0.01 * t) - 0.01 * math.sin(k * t) / (1 + 0.01 * t) ** 2
    calls = []

    def pair(t):
        calls.append(t)
        return h(t), dh(t)

    ts = np.linspace(0.0, 50.0, 128)
    res = sup_scan(h, 0.0, 50.0, n=128, slopes=[dh(float(t)) for t in ts], value_slope=pair)
    assert len(calls) <= 20
    # the maximum of the cell it found, by bisection on h'
    lo, hi = res.argsup - 0.2, res.argsup + 0.2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if dh(mid) > 0.0 else (lo, mid)
    assert abs(res.sup - h(lo)) <= 1e-15
    assert res.sup >= max(h(float(t)) for t in ts)


def test_sup_scan_with_slopes_finds_abs_kink_maximum_between_nodes():
    # the slope jumps from +1 to -1 at the peak, which sits inside a cell
    peak = 0.123456789
    h = lambda t: 1.0 - abs(t - peak)
    dh = lambda t: -math.copysign(1.0, t - peak)
    fast, slow, ts = _with_slopes(h, dh, 0.0, 1.0, 64)
    assert fast.sup == pytest.approx(1.0, abs=1e-12)
    assert fast.sup == pytest.approx(slow.sup, abs=1e-12)
    assert fast.argsup == pytest.approx(peak, abs=1e-11)
    assert fast.sup >= max(h(float(t)) for t in ts)


def test_sup_scan_with_non_finite_or_failing_slopes_falls_back():
    h = lambda t: -((t - 1.0) ** 2)
    dh = lambda t: -2.0 * (t - 1.0)
    ts = np.linspace(0.0, 2.0, 64)
    slow = sup_scan(h, 0.0, 2.0, n=64)
    # a NaN slope at the node beside the peak: that cell is sub-scanned
    slopes = [dh(float(t)) for t in ts]
    slopes[31] = math.nan
    fast, _, _ = _with_slopes(h, dh, 0.0, 2.0, 64, slopes=slopes)
    assert fast.sup == pytest.approx(slow.sup, abs=1e-12)

    # a slope callable that raises or returns NaN inside the bracket
    def raising(t):
        raise ZeroDivisionError("slope undefined")

    node_slopes = [dh(float(t)) for t in ts]
    for value_slope in (lambda t: (h(t), raising(t)), lambda t: (h(t), math.nan)):
        fast = sup_scan(h, 0.0, 2.0, n=64, slopes=node_slopes, value_slope=value_slope)
        assert fast.sup == pytest.approx(slow.sup, abs=1e-12)
        assert fast.sup >= max(h(float(t)) for t in ts)


def test_sup_scan_with_slopes_never_undercuts_samples():
    h = lambda t: math.sin(t) / (1 + 0.01 * t)
    dh = lambda t: math.cos(t) / (1 + 0.01 * t) - 0.01 * math.sin(t) / (1 + 0.01 * t) ** 2
    fast, slow, ts = _with_slopes(h, dh, 0.0, 50.0, 128)
    assert fast.sup >= max(h(float(t)) for t in ts)
    assert fast.sup == pytest.approx(slow.sup, abs=1e-12)


def test_sup_scan_rejects_half_a_slope_pair_and_bad_lengths():
    h = lambda t: -((t - 1.0) ** 2)
    with pytest.raises(ValueError):
        sup_scan(h, 0.0, 2.0, n=64, slopes=np.zeros(64))
    with pytest.raises(ValueError):
        sup_scan(h, 0.0, 2.0, n=64, slopes=np.zeros(63), value_slope=lambda t: (h(t), 0.0))


def test_hermite_max_closed_form():
    # a cubic is its own Hermite interpolant: compare with a dense sampling
    rng = random.Random(7)
    for _ in range(50):
        c = [rng.uniform(-1, 1) for _ in range(4)]
        a, b = rng.uniform(-2, 0), rng.uniform(0.1, 2)
        f = lambda t: c[0] + c[1] * t + c[2] * t * t + c[3] * t ** 3
        df = lambda t: c[1] + 2 * c[2] * t + 3 * c[3] * t * t
        s, v = hermite_max(f(a), df(a), f(b), df(b), b - a)
        dense = max(f(a + (b - a) * k / 20000) for k in range(20001))
        assert float(v) == pytest.approx(dense, abs=1e-8)
        assert float(v) == pytest.approx(f(a + (b - a) * float(s)), abs=1e-12)
    # vectorised over cells; a monotone cell takes its larger end
    s, v = hermite_max([0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [1.0, -1.0], 1.0)
    assert list(s) == [1.0, pytest.approx(0.5)] and list(v) == [1.0, pytest.approx(0.25)]


def test_cumulative_array_queries_match_scalar_queries():
    rate = lambda t: 0.5 + 0.4 * math.sin(t) + abs(t - 7.3)  # noqa: E731
    rate_array = lambda t: 0.5 + 0.4 * np.sin(t) + np.abs(t - 7.3)  # noqa: E731
    rng = np.random.default_rng(3)
    ts = np.concatenate([rng.uniform(0.0, 20.0, 300), [0.0, -1e-12, 5.0, 20.0]])
    scalar = CumulativeExponent(rate, 0.0)
    expected = [scalar.cumulative(float(t)) for t in ts]
    for f_array in (rate_array, None):  # the array form, or f point by point
        bulk = CumulativeExponent(rate, 0.0, f_array=f_array)
        got = bulk.cumulative(ts.reshape(4, -1))
        assert got.shape == (4, 76)
        assert np.abs(got.ravel() - expected).max() <= 1e-14
        # the tables are the same, and a query at a checkpoint is its entry
        assert list(bulk._nodes) == list(scalar._nodes)
        assert bulk.cumulative(np.array(bulk._nodes[:80]))[-1] == bulk._values[79]


def test_cumulative_array_queries_fail_as_the_first_scalar_query():
    gexp = CumulativeExponent(G_RATE, 0.0)
    queries = np.linspace(0.0, 3.0, 100)
    queries[[40, 70]] = (-0.5, math.inf)
    with pytest.raises(QuadratureError, match=r"query at t=-0\.5 below start"):
        gexp.cumulative(queries)
    pole = CumulativeExponent(lambda t: 1.0 / (t - 2.5), 0.0, name="g")
    # the table fails on its panel [2, 3], which the first query past 2 needs
    with pytest.raises(QuadratureError, match=r"^cumulative g at t=2\.0\d*: float division by zero$"):
        pole.cumulative(np.linspace(0.0, 5.0, 100))


def test_sweep_and_at_failures_name_the_integrand():
    gexp = CumulativeExponent(G_RATE, 0.0)
    bad = lambda t: 1.0 / (t - 3.0) if t > 2.0 else 1.0  # noqa: E731
    grid = np.linspace(0.0, 5.0, 101)  # 3.0 is a node
    with pytest.raises(QuadratureError, match=r"^sweep of tail: "):
        WeightedSweep([math.cos, bad], gexp, grid, labels=["head", "tail"])
    sweep = WeightedSweep([math.cos, bad], gexp, np.linspace(0.0, 2.0, 11), labels=["h", "t"])
    assert sweep.at(1.5, 1) == pytest.approx(weighted_integral(bad, gexp, 1.5), abs=1e-9)
    sweep.fs[1] = parse_expression("ln(t - 1.01)").compiled()
    with pytest.raises(QuadratureError, match=r"^sweep of t at t=1\.03: ln\(t - 1\.01\): math"):
        sweep.at(1.03, 1)


def test_every_cumulative_table_has_the_binding_budget(capped_python):
    # an unbound table grew without bound: 1,025 queries of g's table up to
    # tmax = 1e7 took seconds and hundreds of MB, and up to 1e9 ran out of memory
    done = capped_python("""
import time
import numpy as np
from ndde.config import loads
from ndde.errors import QuadratureError
from ndde.presets import preset_text
from ndde.quadrature import CumulativeExponent

aux = loads(preset_text("section4")).aux
start = time.perf_counter()
for tmax in (1e9, 1e7):
    try:
        CumulativeExponent(aux.g.compiled(), 0.0).cumulative(np.linspace(0.0, tmax, 1025))
    except QuadratureError as exc:
        print(exc)
try:
    CumulativeExponent(lambda t: 0.1, 0.0, 0.5, name="g").cumulative(3e6)
except QuadratureError as exc:
    print(exc)
print(time.perf_counter() - start < 5.0)
""", timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    budget = quadrature._MAX_TABLE_PANELS
    first, second, named, fast = done.stdout.splitlines()
    # an array of queries is refused at the first query past the budget
    assert first.startswith("the table over [0.0, 4882812.5] needs over") and second.startswith(
        "the table over [0.0, 4199218.75] needs over"
    )
    assert named == f"cumulative g at t=3000000.0: the table over [0.0, 3000000.0] needs over {budget} panels of width 0.5"
    assert fast == "True"
    assert budget == 1 << 22
