import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from ndde.criteria import (
    GENERAL_TERMS,
    LINEAR_TERMS,
    TermEvaluator,
    alpha_estimate,
    asymptotic_check,
    bracket_matching_a,
    delta_bounds,
    evaluate_criteria,
    K_estimate,
    linear_coefficients,
    matched_general_form,
    term_values_general,
    term_values_linear,
    window_lipschitz,
)
from ndde.errors import QuadratureError, ValidationError
from ndde.expressions import Expression, parse_expression
from ndde.model import AuxiliarySpec, BoundProblem, DelaySpec, ProblemSpec, bind
from ndde.quadrature import CumulativeExponent, adaptive_simpson, weighted_integral


def _aux():
    return AuxiliarySpec(
        p=parse_expression("1/(t + 0.2)"), g=parse_expression("0.1/(t + 0.1)")
    )


def _showcase(residual=None, b="sin(t)/7", a=None, **overrides):
    """The decaying-weight showcase problem with the bracket-solving a(t)."""
    aux = _aux()
    b_expr = parse_expression(b)
    r1 = DelaySpec(parse_expression("0.2*t"))
    if a is None:
        a = bracket_matching_a(b_expr, r1, aux, residual)
    elif isinstance(a, str):
        a = parse_expression(a)
    base = dict(
        form="linear-neutral",
        t0=0.0,
        gamma=Fraction(1, 3),
        r1=r1,
        r2=DelaySpec(parse_expression("0.2*t")),
        a=a,
        c=parse_expression("0.01*(0.8*t + 0.2)^(1/3) / ((t + 0.1) * (t + 0.2))"),
        G=parse_expression("sin(x)", variables=("x",)),
        k4=1.0,
        b=b_expr,
    )
    base.update(overrides)
    return ProblemSpec(**base), aux


def _g_cumulative_exact(t):
    return 0.1 * math.log((t + 0.1) / 0.1)


def _tail_exact(t):
    return 0.1 * (1.0 - math.exp(-_g_cumulative_exact(t)))


# ---------------------------------------------------------------------------
# pointwise terms


def test_bracket_solving_a_zeroes_the_bracket():
    prob, aux = _showcase()
    ev = TermEvaluator(prob, aux, tmax=20.0)
    idx = ev.labels.index("retarded_bracket")
    for t in (0.5, 2.0, 10.0):
        assert ev.values(t)[idx] < 1e-9


def test_bracket_residual_is_priced_exactly():
    w = parse_expression("0.015/(t + 0.1)")
    prob, aux = _showcase(residual=w)
    ev = TermEvaluator(prob, aux, tmax=20.0)
    idx = ev.labels.index("retarded_bracket")
    for t in (1.0, 8.0):
        # the residual is 0.15 g(s), so its damped integral has a closed form
        expected = 0.15 * (1.0 - math.exp(-_g_cumulative_exact(t)))
        assert ev.values(t)[idx] == pytest.approx(expected, abs=1e-7)


def test_nonlinear_tail_matches_closed_form():
    prob, aux = _showcase()
    ev = TermEvaluator(prob, aux, tmax=60.0)
    idx = ev.labels.index("nonlinear_tail")
    for t in (0.5, 5.0, 50.0):
        assert abs(ev.values(t)[idx] - _tail_exact(t)) < 1e-8


def test_linear_coefficients_at_origin():
    prob, aux = _showcase()
    mu, cbar, beta = linear_coefficients(prob, aux, 0.0)
    assert cbar == pytest.approx(0.0, abs=1e-15)
    # cbar' at 0 reduces to q'(0) = cos(0)/(7 * 0.8)
    assert beta == pytest.approx(1.0 / 5.6, abs=1e-12)
    with pytest.raises(ValidationError):
        linear_coefficients(prob.as_general(), aux, 0.0)


def test_term_value_wrappers_enforce_form():
    prob, aux = _showcase()
    vals = term_values_linear(prob, aux, 1.0)
    assert vals.shape == (len(LINEAR_TERMS),)
    assert TermEvaluator(prob, aux, tmax=2.0).labels == LINEAR_TERMS
    gen_vals = term_values_general(prob.as_general(), aux, 1.0)
    assert gen_vals.shape == (len(GENERAL_TERMS),)
    with pytest.raises(ValidationError):
        term_values_linear(prob.as_general(), aux, 1.0)
    with pytest.raises(ValidationError):
        term_values_general(prob, aux, 1.0)
    with pytest.raises(ValidationError):
        TermEvaluator(prob, aux, tmax=5.0).values(-1.0)


def test_zero_problem_vanishes_termwise():
    zero = parse_expression("0")
    prob = ProblemSpec(
        form="general",
        t0=0.0,
        gamma=Fraction(1, 3),
        r1=DelaySpec(parse_expression("0.2*t")),
        r2=DelaySpec(parse_expression("0.2*t")),
        a=zero,
        c=zero,
        G=parse_expression("sin(x)", variables=("x",)),
        k4=1.0,
        Q=Expression(Expression.constant(0.0).root, ("t", "x")),
        q_bound=zero,
        d=zero,
        F=Expression(Expression.constant(0.0).root, ("x", "y")),
    )
    aux = AuxiliarySpec(p=parse_expression("1"), g=parse_expression("0"))
    vals = term_values_general(prob, aux, 2.0)
    assert vals.shape == (len(GENERAL_TERMS),)
    assert np.all(vals == 0.0)
    est = alpha_estimate(prob, aux, tmax=2.0, grid=64)
    assert est.alpha == 0.0


# ---------------------------------------------------------------------------
# sweeps


def test_showcase_sups_sit_in_their_bands():
    prob, aux = _showcase()
    est = alpha_estimate(prob, aux, tmax=1000.0, grid=512)
    head = est.term("neutral_head")
    window = est.term("drift_window")
    assert 0.218 < head.sup < 0.22322
    assert 0.240 < window.sup < 0.245459
    assert est.term("nonlinear_tail").sup <= 0.1 + 1e-6
    assert est.term("retarded_bracket").sup < 1e-9
    assert est.alpha < 0.98
    # sup of the sum dominates every single term's own supremum, and the
    # sum of suprema dominates the sup of the sum (up to scan resolution)
    assert est.alpha >= max(s.sup for s in est.terms) - 1e-9
    assert est.alpha_termwise >= est.alpha - 1e-4


def test_flat_weight_head_value():
    prob, _ = _showcase()
    aux = AuxiliarySpec(p=parse_expression("1"), g=parse_expression("0.1/(t + 0.1)"))
    est = alpha_estimate(prob, aux, tmax=500.0, grid=256)
    head = est.term("neutral_head")
    # p == 1 strips the ratio: sup |b/(1 - r1')| = (1/7)/0.8
    assert 0.178 < head.sup < 0.178572
    assert est.term("drift_window").sup < 0.0224


def test_flat_weight_reduction_matches_hand_formulas():
    g_text = "0.1/(t + 0.1)"
    prob = ProblemSpec(
        form="linear-neutral",
        t0=0.0,
        gamma=Fraction(1, 3),
        r1=DelaySpec(parse_expression("0.5*t")),
        r2=DelaySpec(parse_expression("0.3*t")),
        a=parse_expression("0.3"),
        c=parse_expression("0.05/(1 + t)"),
        G=parse_expression("sin(x)", variables=("x",)),
        k4=1.0,
        b=parse_expression("0.1*sin(t)"),
    )
    aux = AuxiliarySpec(p=parse_expression("1"), g=parse_expression(g_text))
    g = parse_expression(g_text).compiled()
    gexp = CumulativeExponent(g, 0.0)

    def window(s):
        return adaptive_simpson(g, 0.5 * s, s, 1e-11)

    for t in (0.7, 3.0):
        vals = term_values_linear(prob, aux, t)
        q = 0.2 * math.sin(t)
        assert vals[0] == pytest.approx(abs(q), abs=1e-12)
        assert vals[1] == pytest.approx(window(t), abs=5e-9)

        def bracket(s):
            qs, qp = 0.2 * math.sin(s), 0.2 * math.cos(s)
            return abs(-0.3 + g(0.5 * s) * 0.5 - (g(s) * qs + qp))

        assert vals[2] == pytest.approx(
            weighted_integral(bracket, gexp, t), abs=5e-9
        )
        assert vals[3] == pytest.approx(
            weighted_integral(lambda s: g(s) * window(s), gexp, t), abs=5e-9
        )
        assert vals[4] == pytest.approx(
            weighted_integral(lambda s: abs(0.05 / (1 + s)), gexp, t), abs=5e-9
        )


def test_response_enters_only_through_its_constant():
    # the criterion reads the response G only through k4, so swapping a
    # 1-Lipschitz response for the identity changes nothing termwise
    prob, aux = _showcase()
    ident = dataclasses.replace(prob, G=parse_expression("x", variables=("x",)))
    for t in (0.5, 4.0):
        lhs = term_values_linear(prob, aux, t)
        rhs = term_values_linear(ident, aux, t)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_matched_general_form_tracks_linear_terms():
    rng = np.random.default_rng(7)
    for trial in range(20):
        th1, th2 = rng.uniform(0.1, 0.5, size=2)
        c1, c2 = rng.uniform(-0.3, 0.3, size=2)
        c3 = rng.uniform(-0.5, 0.5)
        c4 = rng.uniform(-0.2, 0.2)
        bshape = rng.uniform(-0.3, 0.5)
        p = parse_expression(f"1 + {bshape:.4f}*t/(1 + t)")
        aux = AuxiliarySpec(p=p, g=(p.derivative("t") / p).simplified())
        lin = ProblemSpec(
            form="linear-neutral",
            t0=0.0,
            gamma=Fraction(1, 3),
            r1=DelaySpec(parse_expression(f"{th1:.4f}*t")),
            r2=DelaySpec(parse_expression(f"{th2:.4f}*t")),
            a=parse_expression(f"{c3:.4f}*cos(t)"),
            c=parse_expression(f"{c4:.4f}/(1 + t)"),
            G=parse_expression("sin(x)", variables=("x",)),
            k4=1.0,
            b=parse_expression(f"{c1:.4f}*sin(t) + {c2:.4f}"),
        )
        gen = matched_general_form(lin, aux)

        est_lin = alpha_estimate(lin, aux, tmax=2.5, grid=64)
        est_gen = alpha_estimate(gen, aux, tmax=2.5, grid=64)
        assert abs(est_lin.alpha - est_gen.alpha) < 1e-6

        if trial < 3:
            ev_lin = TermEvaluator(lin, aux, tmax=3.0)
            ev_gen = TermEvaluator(gen, aux, tmax=3.0)
            for t in (0.6, 1.7):
                lv = dict(zip(ev_lin.labels, ev_lin.values(t)))
                gv = dict(zip(ev_gen.labels, ev_gen.values(t)))
                assert gv["neutral_head"] == pytest.approx(
                    lv["neutral_head"], abs=1e-9
                )
                assert gv["retarded_bracket"] == pytest.approx(
                    lv["retarded_bracket"], abs=1e-9
                )
                assert gv["nonlinear_tail"] == pytest.approx(
                    lv["nonlinear_tail"], abs=1e-12
                )
                # the auxiliary rate is p'/p, so the surplus terms vanish
                assert gv["neutral_damping"] < 1e-12
                assert gv["coupling_pair"] == 0.0
                assert sum(gv.values()) == pytest.approx(sum(lv.values()), abs=1e-8)


def test_matched_general_form_rejections():
    prob, aux = _showcase()
    with pytest.raises(ValidationError):
        matched_general_form(prob.as_general(), aux)
    shifted, _ = _showcase(t0=1.0)
    with pytest.raises(ValidationError):
        matched_general_form(shifted, aux)
    offset, _ = _showcase(r1=DelaySpec(parse_expression("0.2*t + 0.1")))
    with pytest.raises(ValidationError):
        matched_general_form(offset, aux)
    curved, _ = _showcase(
        r1=DelaySpec(parse_expression("0.1*t^2")), a=parse_expression("0.1")
    )
    with pytest.raises(ValidationError):
        matched_general_form(curved, aux)


def test_alpha_monotone_in_lipschitz_constants():
    zero = parse_expression("0")
    base = ProblemSpec(
        form="general",
        t0=0.0,
        gamma=Fraction(1, 3),
        r1=DelaySpec(parse_expression("0.3*t")),
        r2=DelaySpec(parse_expression("0.5*t")),
        a=parse_expression("0.2"),
        c=parse_expression("0.05/(1 + t)"),
        G=parse_expression("sin(x)", variables=("x",)),
        k4=1.0,
        Q=parse_expression("0.1*x", variables=("t", "x")),
        q_bound=parse_expression("0.1"),
        d=parse_expression("0.05"),
        F=parse_expression("0.5*(x + y)", variables=("x", "y")),
        k2=0.5,
        k3=0.5,
    )
    aux = AuxiliarySpec(p=parse_expression("1"), g=parse_expression("0.1"))
    alpha = alpha_estimate(base, aux, tmax=5.0, grid=64).alpha
    for field, value in (("k2", 1.0), ("k3", 1.0), ("k4", 2.0)):
        bumped = dataclasses.replace(base, **{field: value})
        assert alpha_estimate(bumped, aux, tmax=5.0, grid=64).alpha >= alpha - 1e-10


# ---------------------------------------------------------------------------
# companion constants


def test_K_estimate_cases():
    assert K_estimate(_aux(), tmax=50.0) == 1.0
    assert K_estimate(parse_expression("0"), tmax=10.0) == 1.0

    def dip(u):
        return -0.1 if u < 1.0 else 0.0

    assert K_estimate(dip, tmax=2.0, n=256) == pytest.approx(
        math.exp(0.1), abs=1e-6
    )


def test_window_lipschitz_cases():
    prob, aux = _showcase()
    bound = bind(prob, aux, 50.0)
    coupling = window_lipschitz(bound, "c-term")
    # the coupling integrand collapses to 0.01/(s + 0.1), peaking at s = 0
    assert coupling.pointwise == pytest.approx(0.1, abs=1e-9)
    assert coupling.windowed <= coupling.pointwise + 1e-12
    assert coupling.windowed > 0.09

    damping = window_lipschitz(bound, "g")
    assert damping.pointwise == pytest.approx(1.0, abs=1e-9)
    assert damping.windowed <= 1.0 + 1e-12

    still = AuxiliarySpec(p=parse_expression("1/(t + 0.2)"), g=parse_expression("0"))
    assert window_lipschitz(bind(prob, still, 10.0), "g").pointwise == 0.0

    with pytest.raises(ValidationError):
        window_lipschitz(bind(prob, aux, 10.0), "h")
    with pytest.raises(ValidationError):
        window_lipschitz(bind(prob, aux, 0.5), "g")

    # a pole in g: the window integrals across it cannot converge
    pole = AuxiliarySpec(p=parse_expression("1/(t + 0.2)"), g=parse_expression("1/(t - 2.5)"))
    message = r"window_lipschitz 'g' on the horizon \[0.0, 5.0\]"
    with pytest.raises(QuadratureError, match=message):
        window_lipschitz(bind(prob, pole, 5.0), "g", centers=8)


def test_asymptotic_check_cases():
    prob, aux = _showcase()
    res = asymptotic_check(bind(prob, aux, 1000.0))
    assert res.g_end == pytest.approx(_g_cumulative_exact(1000.0), abs=1e-6)
    assert res.a_tail == pytest.approx(_tail_exact(1000.0), abs=1e-4)
    assert not res.a_term_decaying  # the damped coupling integral saturates
    assert res.g_divergent

    quiet, _ = _showcase(c=parse_expression("0"))
    res = asymptotic_check(bind(quiet, aux, 200.0))
    assert res.a_tail == 0.0
    assert res.a_term_decaying

    fading = AuxiliarySpec(
        p=parse_expression("1/(t + 0.2)"), g=parse_expression("1/(1 + t)^2")
    )
    res = asymptotic_check(bind(prob, fading, 1000.0))
    assert not res.g_divergent


def test_delta_bounds_showcase_values():
    prob, aux = _showcase()
    d = delta_bounds(0.973, 1.0, 0.1, bind(prob, aux, prob.t0 + 1.0))
    assert d.uniform == pytest.approx(0.00135, abs=2e-6)
    assert d.prefactor == pytest.approx(1.0, abs=1e-12)
    assert d.existence == pytest.approx(0.027, abs=1e-12)
    assert d.prefactor * d.existence + 0.973 <= 1.0 + 1e-12


def test_delta_bounds_prefactor_with_constant_lag():
    prob = ProblemSpec(
        form="linear-neutral",
        t0=0.0,
        gamma=Fraction(1, 3),
        r1=DelaySpec(parse_expression("1")),
        r2=DelaySpec(parse_expression("1")),
        a=parse_expression("0.1"),
        c=parse_expression("0.05"),
        G=parse_expression("sin(x)", variables=("x",)),
        k4=1.0,
        b=parse_expression("0.3*cos(t)"),
    )
    aux = AuxiliarySpec(p=parse_expression("1/(1 + t)"), g=parse_expression("0.1"))
    d = delta_bounds(0.37, 1.0, 0.2, bind(prob, aux, prob.t0 + 1.0))
    # left of t0 the weight is extended by 1, so the window integrand is |g|
    assert d.prefactor == pytest.approx(1.4, abs=1e-9)
    assert d.prefactor * d.existence + 0.37 <= 1.0 + 1e-12


def test_delta_bounds_scaling_and_rejections():
    prob, aux = _showcase()
    bound = bind(prob, aux, prob.t0 + 1.0)
    one = delta_bounds(0.5, 1.0, 0.3, bound)
    two = delta_bounds(0.5, 1.0, 0.6, bound)
    assert two.uniform == pytest.approx(2.0 * one.uniform, rel=1e-12)

    calm, _ = _showcase(b="0", a="0.1")
    calm_bound = bind(calm, aux, calm.t0 + 1.0)
    assert delta_bounds(0.0, 1.0, 0.5, calm_bound).existence == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(ValidationError):
        delta_bounds(1.0, 1.0, 0.1, bound)
    with pytest.raises(ValidationError):
        delta_bounds(0.5, 0.5, 0.1, bound)
    with pytest.raises(ValidationError):
        delta_bounds(0.5, 1.0, 0.0, bound)


# ---------------------------------------------------------------------------
# the assembled report


def test_report_verdicts_and_rendering():
    prob, aux = _showcase()
    report = evaluate_criteria(prob, aux, tmax=500.0, grid=256, eps=0.1)
    assert report.verdict_bounded == "satisfied"
    assert report.verdict_uniform == "satisfied"
    assert report.verdict_asymptotic == "inconclusive"
    assert report.alpha < 0.98
    assert report.alpha_tail_slope <= 1e-9
    assert report.term("nonlinear_tail").sup <= 0.1 + 1e-6
    assert report.K == 1.0
    assert report.delta_uniform is not None
    assert report.delta_uniform == pytest.approx(
        (1.0 - report.alpha) * 0.1 / 2.0, rel=1e-6
    )

    text = report.to_text()
    assert "verdict.bounded = satisfied" in text
    assert "certification = grid-certified" in text
    assert "term.neutral_head.sup = " in text

    blob = json.loads(report.to_json())
    assert blob["verdicts"]["asymptotic"] == "inconclusive"
    assert blob["alpha"]["value"] == report.alpha
    assert blob["delta"]["uniform"] == report.delta_uniform
    assert blob["terms"]["drift_window"]["sup"] == report.term("drift_window").sup


def test_report_flags_violation():
    prob, aux = _showcase(b="10*sin(t)/7")
    report = evaluate_criteria(prob, aux, tmax=300.0, grid=128, eps=0.1)
    assert report.alpha > 1.0
    assert report.verdict_bounded == "violated"
    assert report.verdict_asymptotic == "violated"
    assert report.delta_uniform is None
    assert json.loads(report.to_json())["delta"]["uniform"] is None
    assert "delta.uniform = none" in report.to_text()


def test_report_binds_the_request_once(monkeypatch):
    # the sweep and every companion constant read one binding
    forms = []
    init = BoundProblem.__init__

    def counted(self, problem, *args, **kwargs):
        forms.append(problem.form)
        init(self, problem, *args, **kwargs)

    monkeypatch.setattr(BoundProblem, "__init__", counted)
    prob, aux = _showcase()
    linear = evaluate_criteria(prob, aux, tmax=50.0, grid=128, eps=0.1)
    assert linear.delta_uniform is not None  # delta_bounds ran too
    evaluate_criteria(matched_general_form(prob, aux), aux, tmax=50.0, grid=128, eps=0.1)
    assert forms == ["linear-neutral", "general"]
