"""Grid functions, the A/B operator split, and Picard iteration."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import ndde.operator
from ndde import (
    AuxiliarySpec,
    DelaySpec,
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
    # 0.55, inside the drift windows that end in (0.55, 0.6)
    prob, aux = _lagged()
    aux = AuxiliarySpec(p=aux.p, g=parse_expression("0.2 + 0.3*abs(t - 0.55)"))
    mesh = make_mesh(-0.6, 0.0, 2.0, 0.1)
    psi = HistoryFunction(parse_expression("0.1 + abs(t + 0.25)"))
    fn = psi.psi.compiled()
    split = int(np.searchsorted(mesh, 0.0))
    z = GridFunction.from_callable(
        mesh, lambda t: fn(t) if t < 0.0 else fn(0.0) * math.cos(3.0 * t), breaks=(split,)
    )
    fallbacks = []

    def counted(f, a, b, tol=1e-10, max_depth=40):
        fallbacks.append((a, b))
        return adaptive_simpson(f, a, b, tol, max_depth)

    monkeypatch.setattr(ndde.operator, "adaptive_simpson", counted)
    live = mesh >= 0.0
    Az = apply_A(z, prob, aux)
    assert any(a < math.pi / 6 < b for a, b in fallbacks)
    assert np.max(np.abs(Az.values[live] - _reference(z, prob, aux))) < 1e-10
    fallbacks.clear()
    Bz = apply_B(z, prob, aux, psi)
    assert any(a < 0.25 < b for a, b in fallbacks)
    assert any(abs(a - 0.5) < 1e-12 and 0.55 < b < 0.6 - 1e-9 for a, b in fallbacks)
    assert np.max(np.abs(Bz.values[live] - _reference(z, prob, aux, psi))) < 1e-10


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
    K = K_estimate(aux.g, tmax=T)
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
    res = picard_solve(prob, aux, _const_history(0.0), T=5.0, precheck=False)
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
    assert residual(res, include_midpoints=False) < 1e-8
    x = reconstruct_x(res.z, aux)
    assert x.eval(0.0) == pytest.approx(0.005, abs=1e-12)


def test_picard_reports_noncontraction_without_crash():
    prob, aux = _showcase(b="10*sin(t)/7")
    psi = _const_history(0.001)
    with pytest.warns(UserWarning, match="criterion sum"):
        res = picard_solve(prob, aux, psi, T=10.0, tol=1e-10, max_iter=10)
    assert not res.converged
    assert max(res.ratios) > 1.0
    assert np.all(np.isfinite(res.z.values))


def test_picard_rejects_degenerate_horizon():
    prob, aux = _showcase()
    with pytest.raises(ValidationError):
        picard_solve(prob, aux, _const_history(0.001), T=0.0, precheck=False)


def test_picard_and_residual_share_the_iteration_binding(monkeypatch):
    # the precheck binds the problem in its own form, the iteration binds the
    # general-form re-encoding once, and residual reads the iteration's tables
    calls = []
    init = BoundProblem.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BoundProblem, "__init__", counted)
    prob, aux = _showcase()
    psi = _const_history(0.001)
    for precheck, bindings in ((True, 2), (False, 1)):
        calls.clear()
        res = picard_solve(prob, aux, psi, T=5.0, precheck=precheck)
        assert residual(res) < 1e-6
        assert len(calls) == bindings
    assert "tables" not in repr(res)


def test_residual_drops_under_mesh_refinement():
    prob, aux = _showcase()
    psi = _const_history(0.05)
    defects = []
    for step in (0.1, 0.05):
        res = picard_solve(
            prob, aux, psi, T=8.0, tol=1e-11, max_iter=80, step=step, precheck=False
        )
        assert res.converged
        defects.append(residual(res))
    assert defects[0] / defects[1] >= 4.0


# ---------------------------------------------------------------- reconstruction


def test_reconstruct_scales_by_weight():
    aux = _aux()
    mesh = make_mesh(0.0, 0.0, 10.0, 0.1)
    z = GridFunction.from_values(mesh, np.ones(len(mesh)))
    x = reconstruct_x(z, aux)
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
