"""Grid functions, the A/B operator split, and Picard iteration."""

import dataclasses
import math
import re
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import ndde.operator
from ndde import (
    AuxiliarySpec,
    DelaySpec,
    DomainError,
    GridFunction,
    HistoryFunction,
    ProblemSpec,
    ValidationError,
    alpha_estimate,
    apply_A,
    apply_B,
    bind,
    bracket_matching_a,
    delta_bounds,
    K_estimate,
    make_mesh,
    parse_expression,
    picard_solve,
    reconstruct_x,
    residual,
    signed_power,
)
from ndde.model import BoundProblem
from ndde.quadrature import adaptive_simpson, window_integral
from steps_reference import solve_checked


def _refuse_simpson(*args, **kwargs):
    raise AssertionError("adaptive Simpson called")


def _aux():
    return AuxiliarySpec(
        p=parse_expression("1/(t + 0.2)"),
        g=parse_expression("0.1/(t + 0.1)"),
    )


def _showcase(b="sin(t)/7"):
    aux = _aux()
    r1 = DelaySpec(parse_expression("0.2*t"))
    b_expr = parse_expression(b)
    return (
        ProblemSpec(
            form="linear-neutral",
            t0=0.0,
            gamma=Fraction(1, 3),
            r1=r1,
            r2=DelaySpec(parse_expression("0.2*t")),
            a=bracket_matching_a(b_expr, r1, aux),
            b=b_expr,
            c=parse_expression("0.01*(0.8*t + 0.2)^(1/3) / ((t + 0.1) * (t + 0.2))"),
            G=parse_expression("sin(x)", variables=("x",)),
            k4=1.0,
        ),
        aux,
    )


def _const_history(value):
    return HistoryFunction(parse_expression(f"{value} + 0*t"))


def _inert_general():
    # every B kernel vanishes: g = 0, p = 1, a = 0, Q = 0, d = 0
    prob = ProblemSpec(
        form="general",
        t0=0.0,
        gamma=Fraction(1, 3),
        r1=DelaySpec(parse_expression("1")),
        r2=DelaySpec(parse_expression("1")),
        a=parse_expression("0*t"),
        c=parse_expression("0*t"),
        G=parse_expression("sin(x)", variables=("x",)),
        k4=1.0,
        Q=parse_expression("0*t + 0*x", variables=("t", "x")),
        q_bound=parse_expression("0*t"),
        d=parse_expression("0*t"),
        F=parse_expression("0*x + 0*y", variables=("x", "y")),
        k2=0.0,
        k3=0.0,
    )
    aux = AuxiliarySpec(p=parse_expression("1 + 0*t"), g=parse_expression("0*t"))
    return prob, aux


def _lagged():
    # constant r1 and a wobbling r2 reach back to m = -0.5: a history segment
    prob = ProblemSpec(
        form="linear-neutral",
        t0=0.0,
        gamma=Fraction(1, 3),
        r1=DelaySpec(parse_expression("0.5")),
        r2=DelaySpec(parse_expression("0.3 + 0.1*sin(t)")),
        a=parse_expression("0.05 + 0.01*cos(t)"),
        b=parse_expression("0.1*sin(t)"),
        c=parse_expression("0.02/(1 + t)"),
        G=parse_expression("sin(x)", variables=("x",)),
        k4=1.0,
    )
    aux = AuxiliarySpec(p=parse_expression("1 + 0.1*t"), g=parse_expression("0.2 + 0.05*t"))
    return prob, aux


def _reference(z, prob, aux, psi=None, tol=1e-12):
    """A z (psi None) or B z at the live nodes, from the scalar integrands.

    Every panel is integrated by adaptive Simpson and the drift windows by
    nested adaptive Simpson; below t0 a given psi replaces the candidate.
    """
    b = bind(prob.as_general(), aux, tmax=float(z.mesh[-1]))
    t0, G = b.t0, b.gexp.cumulative
    fn = None if psi is None else psi.psi.compiled()

    def zv(u):
        return fn(u) if fn is not None and u <= t0 else z.eval(u)

    def window(lo, hi):
        return window_integral(lambda u: b.drift(u) * zv(u), lo, hi, tol)

    def coupling(t):
        u1 = b.tau1(t)
        return b.Q_fn(t, b.p_of(u1) * zv(u1)) / b.p_raw(t)

    def f(s):
        u1, u2 = b.tau1(s), b.tau2(s)
        if psi is None:
            arg = b.p_of(u2) ** b.gamma * signed_power(zv(u2), b.gamma)
            return b.c(s) / b.p_raw(s) * b.G_fn(arg)
        p, p1 = b.p_raw(s), b.p_of(u1)
        bracket = (b.g_of(u1) - b.pp_of(u1) / p1) * (1.0 - b.r1_slope(s)) - b.a(s) * p1 / p
        out = bracket * zv(u1) - b.g_of(s) * window(u1, s)
        out -= coupling(s) * (b.g_of(s) * p - b.pp_of(s)) / p
        return out + b.d(s) / p * b.F_fn(p1 * zv(u1), b.p_of(u2) * zv(u2))

    live = [float(t) for t in z.mesh if t >= t0 - 1e-12]
    values, total = [], 0.0
    for j, t in enumerate(live):
        if j:
            g_t = G(t)
            panel = adaptive_simpson(lambda s: math.exp(G(s) - g_t) * f(s), live[j - 1], t, tol)
            total = math.exp(G(live[j - 1]) - g_t) * total + panel
        value = total
        if psi is not None:
            head = fn(t0) - window(b.tau1(t0), t0) - coupling(t0)
            value += head * math.exp(-G(t)) + window(b.tau1(t), t) + coupling(t)
        values.append(value)
    return np.asarray(values)


def _trig_candidate(mesh, rng, history_fn, t0=0.0, scale=0.9):
    """Smooth random candidate that satisfies the history constraint."""
    coef = rng.uniform(-1.0, 1.0, 3)
    coef *= scale / np.sum(np.abs(coef))
    freq = rng.uniform(0.3, 2.0, 3)
    phase = rng.uniform(0.0, 2.0 * math.pi, 3)
    base = history_fn(t0)

    def f(t):
        if t < t0:
            return history_fn(t)
        wave = float(np.sum(coef * np.sin(freq * (t - t0) + phase)))
        anchor = float(np.sum(coef * np.sin(phase)))
        return base + wave - anchor

    split = int(np.searchsorted(mesh, t0 - 1e-12))
    return GridFunction.from_callable(mesh, f, breaks=(split,))


# ---------------------------------------------------------------- grid functions


def test_grid_function_reproduces_nodes_exactly():
    rng = np.random.default_rng(0)
    mesh = np.linspace(0.0, 3.0, 31)
    vals = rng.uniform(-2.0, 2.0, 31)
    z = GridFunction.from_values(mesh, vals)
    for i in (0, 7, 15, 30):
        assert z.eval(mesh[i]) == vals[i]


def test_grid_function_interpolates_smooth_function():
    mesh = np.linspace(0.0, 5.0, 101)
    z = GridFunction.from_callable(mesh, math.sin)
    probes = np.linspace(0.013, 4.987, 311)
    worst = max(abs(z.eval(t) - math.sin(t)) for t in probes)
    assert worst < 1e-7


def test_grid_function_two_segment_mesh():
    mesh = make_mesh(-1.0, 0.0, 2.0, 0.25)
    assert 0.0 in mesh
    assert np.all(np.diff(mesh) > 0)
    z = GridFunction.from_callable(mesh, lambda t: t * t, lambda t: 2 * t)
    assert abs(z.eval(0.87) - 0.87**2) < 1e-12
    assert abs(z.eval(-0.53) - 0.53**2) < 1e-12
    with pytest.raises(ValidationError):
        z.eval(-1.5)
    with pytest.raises(ValidationError):
        z.eval(2.5)


@pytest.mark.parametrize("step", [0.25, 0.3], ids=["uniform", "two-step"])
def test_grid_function_array_queries_equal_scalar_queries(step):
    mesh = make_mesh(-1.0, 0.0, 2.0, step)
    z = GridFunction.from_callable(mesh, math.sin)
    assert (z._step is None) == (step == 0.3)
    rng = np.random.default_rng(9)
    # random points, every node, both ends and points within the end fuzz
    ts = np.concatenate((rng.uniform(-1.0, 2.0, 500), mesh, [-1.0 - 1e-10, 2.0 + 1e-10]))
    scalar = np.array([z.eval(float(t)) for t in ts])
    assert z.eval_array(ts).tobytes() == scalar.tobytes()
    assert np.array_equal(z.eval_array(mesh), z.values)
    with pytest.raises(ValidationError, match="t=2.5"):
        z.eval_array(np.array([0.5, 2.5]))


def test_grid_function_slopes_and_cell_maxima():
    mesh = make_mesh(-1.0, 0.0, 2.0, 0.3)
    z = GridFunction.from_callable(mesh, math.sin, math.cos)
    ts = np.concatenate((np.random.default_rng(3).uniform(-1.0, 2.0, 300), mesh))
    slopes = z.eval_array(ts, slope=True)
    assert slopes.tobytes() == np.array([z.eval(float(t), True) for t in ts]).tobytes()
    assert np.max(np.abs(slopes - np.cos(ts))) < 1e-3
    assert np.array_equal(z.eval_array(mesh, slope=True), z.derivs)
    # each cell's maximum tops a dense sampling of the cell, by less than
    # the sampling misses a smooth peak by (width 1.5e-4: about 3e-9)
    s, peak = z.cell_max()
    for i in range(len(mesh) - 1):
        dense = z.eval_array(np.linspace(mesh[i], mesh[i + 1], 2001))
        assert 0.0 <= peak[i] - dense.max() < 1e-8
        assert peak[i] >= max(z.values[i], z.values[i + 1])
        assert z.eval(mesh[i] + s[i] * (mesh[i + 1] - mesh[i])) == pytest.approx(peak[i], abs=1e-15)
    assert z.cell_max(4)[1] == peak[4]


def test_grid_function_norm_and_cap():
    mesh = np.linspace(0.0, 1.0, 11)
    z = GridFunction.from_values(mesh, np.linspace(-0.5, 0.8, 11))
    assert z.sup_norm == 0.8
    assert not z.exceeds_unit_cap
    z2 = GridFunction.from_values(mesh, np.linspace(0.0, 1.2, 11))
    assert z2.exceeds_unit_cap


def test_grid_function_validation():
    with pytest.raises(ValidationError):
        GridFunction.from_values([0.0, 1.0, 0.5], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        GridFunction.from_values([0.0, 1.0], [1.0, 2.0, 3.0])


def test_grid_function_csv(tmp_path):
    mesh = np.linspace(0.0, 1.0, 6)
    z = GridFunction.from_values(mesh, np.linspace(0.0, 2.5, 6))
    path = tmp_path / "z.csv"
    z.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# gridfunction nodes=6 ")
    assert lines[1] == "t,value"
    assert len(lines) == 8
    t, v = lines[5].split(",")
    assert float(t) == mesh[3]
    assert float(v) == z.values[3]


def test_make_mesh_names_a_horizon_at_t0():
    with pytest.raises(ValidationError, match=r"^horizon 0\.5 lies at or below t0 = 0\.5$"):
        make_mesh(0.0, 0.5, 0.5, 0.1)


@pytest.mark.parametrize(
    "args, message",
    [
        ({"T": math.nan}, "horizon T must be finite, got nan"),
        ({"T": math.inf}, "horizon T must be finite, got inf"),
        ({"tol": math.nan}, "tol must be finite, got nan"),
        ({"tol": -math.inf}, "tol must be finite, got -inf"),
        ({"step": math.nan}, "step must be finite, got nan"),
        ({"step": 0.0}, "step must be positive, got 0.0"),
    ],
)
def test_picard_arguments_are_checked_on_entry(args, message):
    # before the tables: no warning, no iteration
    prob, aux = _showcase()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            picard_solve(prob, aux, _const_history(0.001), **{"T": 2.0, **args})
    with pytest.raises(ValidationError, match=r"^mesh step must be finite, got nan$"):
        make_mesh(0.0, 0.0, 1.0, math.nan)


def test_make_mesh_bounds():
    with pytest.raises(ValidationError):
        make_mesh(0.0, 0.0, 0.0, 0.1)
    with pytest.raises(ValidationError):
        make_mesh(0.0, 0.0, 1.0, -0.1)
    mesh = make_mesh(0.0, 0.0, 1.0, 0.9)
    assert len(mesh) >= 5  # step is capped so runs support the slope stencils


# ---------------------------------------------------------------- A alone


def test_apply_A_zero_candidate_is_zero():
    prob, aux = _showcase()
    mesh = make_mesh(0.0, 0.0, 5.0, 0.1)
    z = GridFunction.from_values(mesh, np.zeros(len(mesh)))
    Az = apply_A(z, prob, aux)
    assert Az.sup_norm == 0.0


def test_apply_A_zero_coupling_is_zero():
    prob, aux = _showcase()
    prob = ProblemSpec(
        form=prob.form,
        t0=prob.t0,
        gamma=prob.gamma,
        r1=prob.r1,
        r2=prob.r2,
        a=prob.a,
        b=prob.b,
        c=parse_expression("0*t"),
        G=prob.G,
        k4=prob.k4,
    )
    mesh = make_mesh(0.0, 0.0, 5.0, 0.1)
    rng = np.random.default_rng(1)
    z = _trig_candidate(mesh, rng, _const_history(0.2).psi.compiled())
    Az = apply_A(z, prob, aux)
    assert Az.sup_norm == 0.0


def test_apply_A_unit_candidate_stays_small():
    # the coupling coefficient prices to a tail below 0.1 even at z == 1
    prob, aux = _showcase()
    mesh = make_mesh(0.0, 0.0, 40.0, 0.1)
    z = GridFunction.from_values(mesh, np.ones(len(mesh)))
    Az = apply_A(z, prob, aux)
    assert Az.eval(0.0) == 0.0
    assert Az.sup_norm <= 0.1 + 1e-9


# ---------------------------------------------------------------- B alone


def test_apply_B_zero_everything_is_zero():
    prob, aux = _showcase()
    mesh = make_mesh(0.0, 0.0, 5.0, 0.1)
    z = GridFunction.from_values(mesh, np.zeros(len(mesh)))
    Bz = apply_B(z, prob, aux, _const_history(0.0))
    assert Bz.sup_norm == 0.0


def test_apply_B_reduces_to_history_start_when_kernels_vanish():
    prob, aux = _inert_general()
    mesh = make_mesh(-1.0, 0.0, 5.0, 0.25)
    rng = np.random.default_rng(3)
    z = GridFunction.from_values(mesh, rng.uniform(-0.5, 0.5, len(mesh)))
    psi = HistoryFunction(parse_expression("0.3 + 0.1*t"))
    Bz = apply_B(z, prob, aux, psi)
    live = mesh >= 0.0
    assert np.max(np.abs(Bz.values[live] - 0.3)) < 1e-12
    # history nodes reproduce psi exactly
    assert np.max(np.abs(Bz.values[~live] - (0.3 + 0.1 * mesh[~live]))) == 0.0


def test_operator_sum_continuous_at_start():
    prob, aux = _showcase()
    mesh = make_mesh(0.0, 0.0, 5.0, 0.1)
    rng = np.random.default_rng(5)
    psi = _const_history(0.01)
    z = _trig_candidate(mesh, rng, psi.psi.compiled(), scale=0.5)
    total = apply_A(z, prob, aux).eval(0.0) + apply_B(z, prob, aux, psi).eval(0.0)
    assert abs(total - 0.01) < 1e-10


@pytest.mark.parametrize("segment", ["no history", "history"])
def test_apply_matches_adaptive_reference(segment):
    if segment == "history":
        prob, aux = _lagged()
        mesh = make_mesh(-0.6, 0.0, 3.0, 0.1)
        psi = HistoryFunction(parse_expression("0.2 + 0.1*sin(3*t)"))
    else:
        prob, aux = _showcase()
        mesh = make_mesh(0.0, 0.0, 3.0, 0.1)
        psi = _const_history(0.3)
    z = _trig_candidate(mesh, np.random.default_rng(17), psi.psi.compiled(), scale=0.4)
    live = mesh >= 0.0
    Az = apply_A(z, prob, aux)
    Bz = apply_B(z, prob, aux, psi)
    assert np.max(np.abs(Az.values[live] - _reference(z, prob, aux))) < 1e-10
    assert np.max(np.abs(Bz.values[live] - _reference(z, prob, aux, psi))) < 1e-10


def test_kinks_inside_panels_fall_back_and_match_reference(monkeypatch):
    # z changes sign at pi/6, inside the panel [0.5, 0.6], so z^gamma has a
    # cusp there (and at its delayed images); psi has a kink at -0.25, which
    # tau1 = t - 0.5 moves inside the live panel [0.2, 0.3]; g has a kink at
    # 0.55, inside the drift windows that end in (0.55, 0.6).  Failing panels
    # and windows are halved, and the halving alone resolves every kink:
    # adaptive Simpson is never called
    prob, aux = _lagged()
    aux = AuxiliarySpec(p=aux.p, g=parse_expression("0.2 + 0.3*abs(t - 0.55)"))
    mesh = make_mesh(-0.6, 0.0, 2.0, 0.1)
    psi = HistoryFunction(parse_expression("0.1 + abs(t + 0.25)"))
    fn = psi.psi.compiled()
    split = int(np.searchsorted(mesh, 0.0))
    z = GridFunction.from_callable(
        mesh, lambda t: fn(t) if t < 0.0 else fn(0.0) * math.cos(3.0 * t), breaks=(split,)
    )
    live = mesh >= 0.0
    with monkeypatch.context() as patch:
        patch.setattr(ndde.quadrature, "adaptive_simpson", _refuse_simpson)
        Az = apply_A(z, prob, aux)
        Bz = apply_B(z, prob, aux, psi)
    assert np.max(np.abs(Az.values[live] - _reference(z, prob, aux))) < 1e-10
    assert np.max(np.abs(Bz.values[live] - _reference(z, prob, aux, psi))) < 1e-10


def test_row_domain_error_keeps_its_scalar_text():
    # c = ln(5 - t) cannot be evaluated from t = 5 on; the rows are built
    # in bulk, and the error names the first failing node in node order
    prob, aux = _showcase()
    prob = dataclasses.replace(prob, c=parse_expression("ln(5 - t)"))
    mesh = make_mesh(0.0, 0.0, 8.0, 0.04)  # picard_solve's mesh at T = 8
    with pytest.raises(DomainError) as info:
        apply_A(GridFunction.from_values(mesh, np.full(len(mesh), 0.001)), prob, aux)
    assert str(info.value) == "ln(5 - t): math domain error at t=5.0"


def test_delayed_argument_below_mesh_is_an_error():
    prob, aux = _inert_general()
    mesh = make_mesh(0.0, 0.0, 5.0, 0.25)  # no history segment, lag is 1
    z = GridFunction.from_values(mesh, np.full(len(mesh), 0.1))
    with pytest.raises(ValidationError):
        apply_B(z, prob, aux, _const_history(0.1))


# ---------------------------------------------------------------- invariants


def test_contraction_ratio_matches_criterion_terms():
    prob, aux = _showcase()
    T = 8.0
    est = alpha_estimate(prob, aux, tmax=T, grid=256)
    alpha_B = sum(t.sup for t in est.terms if t.label != "nonlinear_tail")
    psi = _const_history(0.001)
    fn = psi.psi.compiled()
    mesh = make_mesh(0.0, 0.0, T, 0.1)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        z1 = _trig_candidate(mesh, rng, fn)
        z2 = _trig_candidate(mesh, rng, fn)
        B1 = apply_B(z1, prob, aux, psi)
        B2 = apply_B(z2, prob, aux, psi)
        num = float(np.max(np.abs(B1.values - B2.values)))
        den = float(np.max(np.abs(z1.values - z2.values)))
        worst = max(worst, num / den)
    assert worst < 1.0
    assert worst <= alpha_B + 0.05


def test_candidate_ball_closed_under_split_sum():
    # sup |A z1 + B z2| <= 1 whenever the history is below the existence size
    prob, aux = _showcase()
    T = 8.0
    est = alpha_estimate(prob, aux, tmax=T, grid=256)
    K = K_estimate(bind(prob, aux, T))
    bounds = delta_bounds(est.alpha, K, 0.1, bind(prob, aux, prob.t0 + 1.0))
    psi = _const_history(round(0.9 * bounds.existence, 6))
    fn = psi.psi.compiled()
    mesh = make_mesh(0.0, 0.0, T, 0.1)
    rng = np.random.default_rng(11)
    for _ in range(5):
        z1 = _trig_candidate(mesh, rng, fn, scale=0.25)
        z2 = _trig_candidate(mesh, rng, fn, scale=0.25)
        assert not z1.exceeds_unit_cap and not z2.exceeds_unit_cap
        total = apply_A(z1, prob, aux).values + apply_B(z2, prob, aux, psi).values
        assert float(np.max(np.abs(total))) <= 1.0 + 1e-9


# ---------------------------------------------------------------- picard


def test_picard_zero_history_converges_immediately():
    prob, aux = _showcase()
    res = picard_solve(prob, aux, _const_history(0.0), T=5.0)
    assert res.converged
    assert res.iterations == 1
    assert res.z.sup_norm == 0.0
    assert res.final_step == 0.0


def test_picard_converges_on_showcase_problem():
    prob, aux = _showcase()
    psi = _const_history(0.001)
    res = picard_solve(prob, aux, psi, T=20.0, tol=1e-8)
    assert res.converged
    assert res.iterations == 15
    assert not res.cap_exceeded
    assert max(res.ratios) < 1.0
    assert res.z.eval(0.0) == pytest.approx(0.001, abs=1e-9)
    assert residual(res) < 1e-6
    # node-only defect is just the iteration tolerance
    live = res.z.mesh >= 0.0
    image = apply_A(res.z, prob, aux).values + apply_B(res.z, prob, aux, psi).values
    assert np.max(np.abs(res.z.values - image)[live]) < 1e-8
    x = reconstruct_x(res.z, aux, 0.0)
    assert x.eval(0.0) == pytest.approx(0.005, abs=1e-12)


def test_residual_on_the_kept_rows_equals_fresh_rows():
    prob, aux = _showcase()
    res = picard_solve(prob, aux, _const_history(0.001), T=5.0)
    fresh = dataclasses.replace(res, nodes=res.nodes.tab.node_panels())
    assert fresh.nodes is not res.nodes
    assert residual(res).hex() == residual(fresh).hex()


def _refine_callers(monkeypatch):
    """Wrap ``ndde.operator._refine``: each call's (caller, iteration), the
    iteration counted by the candidates the tables read."""
    calls, read = [], [0]
    state, refine_ = ndde.operator._Tables.state, ndde.operator._refine

    def counted(self, z):
        read[0] += 1
        return state(self, z)

    def refine(*args, **kwargs):
        calls.append((sys._getframe(1).f_code.co_name, read[0]))
        return refine_(*args, **kwargs)

    monkeypatch.setattr(ndde.operator._Tables, "state", counted)
    monkeypatch.setattr(ndde.operator, "_refine", refine)
    return calls


def test_window_moments_are_refined_once_per_request(monkeypatch):
    # the benchmark's picard requests in shape: T = 20 at mesh step 0.05,
    # where the drift's pole at -0.1 makes the windows near t0 fail K7/L4
    calls = _refine_callers(monkeypatch)
    prob, aux = _showcase()
    res = picard_solve(prob, aux, _const_history(0.001), T=20.0)
    assert res.converged and res.iterations > 5
    windows = [(caller, it) for caller, it in calls if caller in ("partial", "_refine_moments")]
    # the moments are refined while the first candidate is read, and no
    # candidate after it is refined by itself
    assert windows and all(it == 1 for _, it in windows)
    assert ("partial", 1) not in windows
    # B's one window holds the points s, then tau1(s); both halves and the
    # node window have refined moments
    window, n = res.nodes.b.window, len(res.nodes.b.s)
    refined = window.live[np.isfinite(window.fine_tol)]
    assert (refined < n).any() and (refined >= n).any()
    assert np.isfinite(res.nodes.tab.full_window.fine_tol).any()


def test_panels_reuse_their_sub_panel_rows_bit_for_bit():
    # sin(10 t)/7 keeps node panels whose K7 sums fail both the pair's and
    # the null rules' estimates at the fixed point, so they are still refined
    prob, aux = _showcase("sin(10*t)/7")
    res = picard_solve(prob, aux, _const_history(0.001), T=20.0)
    kept, tables = res.nodes, res.nodes.tab
    st = tables.state(res.z)
    assert kept.sub_rows  # failing panels were refined on rows at their sub-panels
    built = set(kept.sub_rows)
    again = kept.integrals(st)
    assert set(kept.sub_rows) == built  # every sub-panel row was read from the cache
    fresh = tables.node_panels()
    assert not fresh.sub_rows
    anew = fresh.integrals(st)
    assert fresh.sub_rows and set(fresh.sub_rows) <= built
    for x, y in zip(again, anew):
        assert x.tobytes() == y.tobytes()


def test_panels_accepted_by_k7s_own_estimate_are_within_the_tolerance(monkeypatch):
    # in every iteration of a showcase solve, a node panel whose K7 sum
    # fails |K7 - L4| but passes K7's own estimate at the first level is
    # within the operator's tolerance of the same panel refined to 1e-15.
    # The integrands read z at delayed arguments, a C1 spline, so a panel
    # can hold a jump of z'' that no 7-sample estimate sees
    from ndde import operator, quadrature

    refine, seen = quadrature._refine, []

    def spy(sample, a, b, tol, first=None):
        pieces = refine(sample, a, b, tol, first)
        if first is not None:
            pair = quadrature._lk_sums(0.5 * (b - a), *first)[1] > tol
            k = np.flatnonzero(pair & pieces.passed)
            if len(k):
                fine = refine(lambda x, ids: sample(x, k[ids]), a[k], b[k], 1e-15).totals()
                seen.append(np.abs(pieces.totals()[k] - fine))
        return pieces

    monkeypatch.setattr(operator, "_refine", spy)
    prob, aux = _showcase()
    picard_solve(prob, aux, _const_history(0.001), T=20.0)
    errors = np.concatenate(seen)
    assert len(errors) >= 15 and errors.max() <= operator._QUAD_TOL


def test_window_refines_a_large_candidate_by_itself(monkeypatch):
    # refined moments hold within _MOMENT_TOL each: a candidate 1000 times
    # the fixed point has sum_k |c_k| _MOMENT_TOL over the tolerance where
    # K7/L4 fails, so it is refined by itself, and the window stays linear
    prob, aux = _showcase()
    res = picard_solve(prob, aux, _const_history(0.001), T=20.0)
    window, coef = res.nodes.tab.full_window, res.nodes.tab.state(res.z).coef
    fine = np.flatnonzero(np.isfinite(window.fine_tol))
    assert len(fine)
    assert coef.shape == (4, len(res.z.mesh) - 1)  # a row per Hermite coefficient
    c = 1e3 * coef[:, window.panel[fine]]
    assert (np.abs(c).sum(0) * window.fine_tol[fine] > 1e-11).any()
    base = window.partial(coef)
    calls = _refine_callers(monkeypatch)
    big = window.partial(1e3 * coef)
    # (more points now fail K7/L4 and have their moments refined first)
    assert [caller for caller, _ in calls][-1] == "partial"
    assert np.max(np.abs(big - 1e3 * base)) < 1e-8


def _partial_row_major(window, coef):
    """``_Window.partial`` on the same tables in a row-major layout: a
    point's four moments and four coefficients in one row each, summed by
    ``sum(1)``; returns the values and the points refined by themselves."""
    from ndde.hermite import hermite_eval, hermite_weights
    from ndde.quadrature import _bulk, _refine

    k7, l4, fine = (np.ascontiguousarray(m.T) for m in (window.k7, window.l4, window.fine))
    c = np.ascontiguousarray(coef.T)[window.panel]
    value = (k7 * c).sum(1)
    error = np.abs(value - (l4 * c).sum(1))
    bad = np.flatnonzero(~(error <= 1e-11))
    c = c[bad]
    ok = np.abs(c).sum(1) * window.fine_tol[bad] <= 1e-11
    value[bad[ok]] = (fine[bad[ok]] * c[ok]).sum(1)
    bad, c = bad[~ok], c[~ok]
    if len(bad):
        b, mesh = window.tab.bound, window.tab.mesh
        start = mesh[window.panel[bad]]
        h = mesh[window.panel[bad] + 1] - start

        def sample(u, ids):
            w = hermite_weights((u - start[ids]) / h[ids], h[ids], False)
            return _bulk(b.arrays.drift, b.drift, u) * hermite_eval(w, *c[ids].T)

        value[bad] = _refine(sample, start, window.x[bad], 1e-11).totals()
    return value, bad


def test_window_partial_equals_the_row_major_sums_bit_for_bit():
    # random coefficients of size 1 read the refined moments where K7/L4
    # fails; 1000 times larger ones are refined by themselves there
    prob, aux = _showcase()
    res = picard_solve(prob, aux, _const_history(0.001), T=20.0)
    rng = np.random.default_rng(7)
    for window, scale in ((res.nodes.b.window, 1.0), (res.nodes.tab.full_window, 1.0),
                          (res.nodes.tab.full_window, 1e3)):
        coef = scale * rng.uniform(-1.0, 1.0, res.nodes.tab.state(res.z).coef.shape)
        got = window.partial(coef)  # first, so that the moments it refines are there
        want, alone = _partial_row_major(window, coef)
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(window.fine_tol).any()
        assert (len(alone) > 0) == (scale > 1.0)


def _fd_slopes_per_node(mesh, values, breaks=()):
    """The slope rule with one ``math.isclose`` call a node, as a loop: the
    reference of ``hermite._fd_slopes``."""
    from ndde.hermite import _run_slopes

    d = np.diff(mesh)
    forced = {int(k) for k in breaks if 0 < int(k) < len(mesh) - 1}
    out = np.empty(len(mesh))
    start = 0
    for i in range(1, len(d) + 1):
        if i == len(d) or i in forced or not math.isclose(d[i], d[start], rel_tol=1e-9):
            out[start : i + 1] = _run_slopes(values[start : i + 1], d[start])
            start = i
    return out


def test_fd_slopes_find_the_runs_of_the_per_node_loop_bit_for_bit():
    from ndde.hermite import _fd_slopes

    rng = np.random.default_rng(3)
    picard = make_mesh(-0.25, 0.0, 20.0, 0.05)  # a history run and a live run
    stretch = np.concatenate((np.linspace(0.0, 1.0, 11), 1.0 + np.cumsum(0.1 * 1.07 ** np.arange(1, 30))))
    stretch = np.concatenate((stretch, stretch[-1] + 0.3 * np.arange(1, 12)))
    # widths within 1e-9 of the first stay one run, those just outside do not
    near = 0.1 * (1.0 + rng.uniform(-0.99e-9, 0.99e-9, 40))
    near[[10, 25]] = 0.1 * (1.0 + np.array([1.01e-9, -1.01e-9]))
    cases = [
        (picard, (int(np.searchsorted(picard, 0.0)),)),
        (picard, ()),
        (stretch, ()),
        (stretch, (5, 5, 12, 40)),
        (np.concatenate(([0.0], np.cumsum(near))), (0, 7, 40)),  # a break at either end is ignored
        (make_mesh(-1.0, 0.0, 5.0, 0.05), (20, 21, 23, 26, 30)),  # runs of 1 to 4 panels
        *((np.linspace(0.0, 1.0, n), ()) for n in (2, 3, 4, 5, 6)),
    ]
    for mesh, breaks in cases:
        values = rng.uniform(-1.0, 1.0, len(mesh))
        assert _fd_slopes(mesh, values, breaks).tobytes() == _fd_slopes_per_node(mesh, values, breaks).tobytes()


def test_picard_reports_noncontraction_without_crash():
    prob, aux = _showcase(b="10*sin(t)/7")
    psi = _const_history(0.001)
    res = picard_solve(prob, aux, psi, T=10.0, tol=1e-10, max_iter=10)
    assert not res.converged
    assert max(res.ratios) > 1.0
    assert np.all(np.isfinite(res.z.values))


def test_picard_rejects_degenerate_horizon():
    prob, aux = _showcase()
    with pytest.raises(ValidationError):
        picard_solve(prob, aux, _const_history(0.001), T=0.0)


def test_picard_and_residual_share_the_iteration_binding(monkeypatch):
    # the iteration binds the general-form re-encoding once, residual reads
    # the iteration's tables, and neither sweeps a criterion term
    import ndde.criteria

    calls, sweeps = [], []
    init, sweep = BoundProblem.__init__, ndde.criteria.WeightedSweep

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BoundProblem, "__init__", counted)
    monkeypatch.setattr(ndde.criteria, "WeightedSweep", lambda *a, **k: sweeps.append(1) or sweep(*a, **k))
    prob, aux = _showcase()
    psi = _const_history(0.001)
    res = picard_solve(prob, aux, psi, T=5.0)
    assert residual(res) < 1e-6
    assert len(calls) == 1 and sweeps == []
    assert "tables" not in repr(res)


def test_residual_drops_under_mesh_refinement():
    prob, aux = _showcase()
    psi = _const_history(0.05)
    defects = []
    for step in (0.1, 0.05):
        res = picard_solve(
            prob, aux, psi, T=8.0, tol=1e-11, max_iter=80, step=step
        )
        assert res.converged
        defects.append(residual(res))
    assert defects[0] / defects[1] >= 4.0


# ---------------------------------------------------------------- reconstruction


def test_reconstruct_scales_by_weight():
    aux = _aux()
    mesh = make_mesh(0.0, 0.0, 10.0, 0.1)
    z = GridFunction.from_values(mesh, np.ones(len(mesh)))
    x = reconstruct_x(z, aux, 0.0)
    assert x.eval(0.0) == pytest.approx(5.0, abs=1e-12)
    assert x.eval(9.8) == pytest.approx(0.1, abs=1e-12)


def test_reconstruct_leaves_history_alone():
    aux = _aux()
    mesh = make_mesh(-1.0, 0.0, 2.0, 0.25)
    z = GridFunction.from_values(mesh, np.full(len(mesh), 0.4))
    x = reconstruct_x(z, aux, t0=0.0)
    assert x.eval(-0.75) == pytest.approx(0.4, abs=1e-15)
    assert x.eval(0.0) == pytest.approx(2.0, abs=1e-12)
    assert x.eval(1.75) == pytest.approx(0.4 / 1.95, abs=1e-12)


# The six picard deck requests of seeds 1 and 1009, written out so that a
# change of the benchmark does not move them: r1 = theta t, b = amp
# sin(freq t)/7, p = 1/(t + kappa), g = lam/(t + 0.1), a pinned to the
# bracket, r2 = 0.2 t, the section4 c and G, psi = 0.001, T = 20.
_PICARD_DECK = {  # name: (theta, amp, freq, kappa, lam)
    "1-picard0": (0.1923, 0.9501, 1.0148, 0.2043, 0.0972),
    "1-picard1": (0.2037, 0.9775, 0.9965, 0.2026, 0.0979),
    "1-picard2": (0.1984, 0.9422, 1.0022, 0.1955, 0.1014),
    "1009-picard0": (0.209, 0.9984, 0.9966, 0.1994, 0.0998),
    "1009-picard1": (0.1938, 0.9423, 0.9937, 0.2016, 0.1002),
    "1009-picard2": (0.197, 0.9847, 0.9901, 0.2038, 0.0979),
}


@pytest.mark.parametrize("name", list(_PICARD_DECK))
def test_picard_fixed_point_error_against_the_reference(name):
    theta, amp, freq, kappa, lam = _PICARD_DECK[name]
    aux = AuxiliarySpec(
        p=parse_expression(f"1/(t + {kappa})"), g=parse_expression(f"{lam}/(t + 0.1)")
    )
    r1 = DelaySpec(parse_expression(f"{theta}*t"))
    b = parse_expression(f"{amp}*sin({freq}*t)/7")
    prob = dataclasses.replace(_showcase()[0], r1=r1, b=b, a=bracket_matching_a(b, r1, aux))
    psi = _const_history(0.001)
    result = picard_solve(prob, aux, psi, T=20.0, tol=1e-8)
    assert result.converged
    x = reconstruct_x(result.z, aux, prob.t0)
    bands = [(0.0, 0.1), (0.1, 1.0), (1.0, 20.0)]
    probes = [np.linspace(lo, hi, 2001)[: -1 if hi < 20.0 else None] for lo, hi in bands]
    ref, own = solve_checked(prob, aux.p * psi.psi, 20.0, np.concatenate(probes))
    assert own < 1e-11
    errors = [np.max(np.abs(x.eval_array(ts) - ref(ts))) for ts in probes]
    # The recorded baseline, not a target: x = p z is 1.76e-6 to 1.87e-6
    # off on [0, 0.1), 2.1e-7 to 2.3e-7 on [0.1, 1) and 6.6e-8 to 7.2e-8 on
    # [1, 20] over these six requests, because the iterate's node slopes
    # are finite differences, one-sided at t0.  Exact node slopes from the
    # map (ROADMAP item 12) should tighten these bounds.
    assert errors[0] < 2.0e-6 and errors[1] < 2.5e-7 and errors[2] < 8e-8


def test_cap_exceeded_is_reported_for_the_tenfold_preset():
    # section4-bx10 converges at T = 8 although its criterion sum on [0, 8] is 2.56,
    # leaving the |z| <= 1 candidate ball on the way (section4 stays inside:
    # test_picard_converges_on_showcase_problem)
    from ndde.config import loads
    from ndde.presets import preset_text

    cfg = loads(preset_text("section4-bx10"))
    res = picard_solve(cfg.problem, cfg.aux, cfg.history, T=8.0, tol=1e-8)
    assert res.converged and res.iterations < 50  # 32 today, within the 60-iteration budget
    assert res.cap_exceeded and res.z.sup_norm > 10.0
    assert max(res.ratios) > 1.0


def test_mesh_is_refused_beyond_the_stepper_budget(capped_python):
    # each mesh would take gigabytes or more; the budget refuses it at once,
    # and picard_solve asks for its mesh before it binds [t0, T]
    done = capped_python("""
from ndde.config import loads
from ndde.errors import ValidationError
from ndde.operator import make_mesh, picard_solve
from ndde.presets import preset_text

cfg = loads(preset_text("section4"))
for kwargs in ({"T": 20.0, "step": 1e-12}, {"T": 10**9}, {"T": 1e300}):
    try:
        picard_solve(cfg.problem, cfg.aux, cfg.history, **kwargs)
    except ValidationError as exc:
        print(exc)
for args in ((0.0, 0.0, 10**9, 0.05), (0.0, 0.0, 1e300, 0.05), (-1e300, 0.0, 2.0, 0.05)):
    try:
        make_mesh(*args)
    except ValidationError as exc:
        print(exc)
""")
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines() == [
        "mesh step 1e-12 is too small for T = 20.0 from m = 0.0: 2e+13 panels, over the budget of 8388608",
        "mesh step 0.05 is too small for T = 1000000000 from m = 0.0: 2e+10 panels, over the budget of 8388608",
        "mesh step 0.05 is too small for T = 1e+300 from m = 0.0: 2e+301 panels, over the budget of 8388608",
        "mesh step 0.05 is too small for T = 1000000000 from m = 0.0: 2e+10 panels, over the budget of 8388608",
        "mesh step 0.05 is too small for T = 1e+300 from m = 0.0: 2e+301 panels, over the budget of 8388608",
        "mesh step 0.05 is too small for T = 2.0 from m = -1e+300: 2e+301 panels, over the budget of 8388608",
    ]
    assert ndde.operator._MAX_STEPS == ndde.integrator._MAX_STEPS  # the stepper's budget


def test_mesh_budget_refuses_a_long_horizon():
    # T = 5e5 needs 1e7 mesh panels at step 0.05
    from ndde.config import loads
    from ndde.presets import preset_text

    cfg = loads(preset_text("section4"))
    with pytest.raises(ValidationError, match=r"^mesh step 0\.05 is too small for T = 500000\.0 from m = 0\.0"):
        picard_solve(cfg.problem, cfg.aux, cfg.history, T=5e5)
