import dataclasses
import json
import math
import re
import warnings
from fractions import Fraction
from pathlib import Path

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
from ndde.errors import NonDifferentiableError, QuadratureError, ValidationError
from ndde.expressions import Expression, parse_expression
from ndde.model import AuxiliarySpec, BoundProblem, DelaySpec, ProblemSpec, bind
from ndde.quadrature import (
    CumulativeExponent,
    adaptive_simpson,
    weighted_integral,
    window_integral,
)


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
    prob, aux = _showcase()
    assert K_estimate(bind(prob, aux, 50.0)) == 1.0
    still = AuxiliarySpec(p=aux.p, g=parse_expression("0"))
    assert K_estimate(bind(prob, still, 10.0)) == 1.0
    # a sign-changing rate: G = 0.1 sin t falls from 0.1 at pi/2 to -0.1 at
    # 3 pi/2; K samples G on 1,025 points, each extremum within 0.1 (h/2)^2 / 2
    swing = AuxiliarySpec(p=aux.p, g=parse_expression("0.1*cos(t)"))
    assert K_estimate(bind(prob, swing, 10.0)) == pytest.approx(math.exp(0.2), abs=5e-6)


def _windowed_reference(bound, kind, centers=128):
    """sup |window integral| / width by adaptive Simpson, window by window."""
    b = bound
    if kind == "c-term":

        def f(u):
            return abs(b.c(u) * b.p_of(b.tau2(u)) ** b.gamma / b.p_raw(u))

    else:
        f = b.g_of
    best = 0.0
    for t1 in np.linspace(b.t0, b.tmax - 1.0, centers):
        for w in (1.0, 0.5, 0.25, 0.1, 0.02):
            best = max(best, abs(window_integral(f, float(t1), float(t1) + w)) / w)
    return best


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

    # the windows agree with one adaptive Simpson integral per window, on
    # both forms, a longer horizon, and a tau2 that reads p's left extension
    member, _ = _certify_member()
    offset, _ = _showcase(r2=DelaySpec(parse_expression("0.2*t + 0.1")))
    with pytest.warns(UserWarning, match="constant-1 extension"):
        offset_bound = bind(offset, aux, 40.0)
    for b in [
        bound, bind(matched_general_form(prob, aux), aux, 50.0), bind(member, aux, 300.0),
        bind(matched_general_form(member, aux), aux, 300.0), offset_bound,
    ]:
        for kind in ("c-term", "g"):
            assert window_lipschitz(b, kind).windowed == pytest.approx(
                _windowed_reference(b, kind), abs=1e-12
            )

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
        window_lipschitz(bind(prob, pole, 5.0), "g")


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

    # the report reads the damped coupling integral off its criterion sweep;
    # it agrees with a one-shot integration at 1e-12
    member, _ = _certify_member()
    for problem in (prob, member):
        tmax = 200.0
        b = bind(problem, aux, tmax)

        def f(s, b=b):
            return abs(b.c(s) / b.p_raw(s)) * b.p_of(b.tau2(s)) ** b.gamma

        end = weighted_integral(f, b.gexp, tmax, tol=1e-12)
        prev = weighted_integral(f, b.gexp, 0.9 * tmax, tol=1e-12)
        report = evaluate_criteria(problem, aux, tmax=tmax, grid=256)
        assert report.a_tail == pytest.approx(end, abs=1e-12)
        assert report.a_tail_slope == pytest.approx((end - prev) / (0.1 * tmax), abs=1e-12)
        standalone = asymptotic_check(b)
        assert standalone.a_tail == pytest.approx(end, abs=1e-12)
        assert standalone.a_slope == pytest.approx(report.a_tail_slope, abs=1e-12)


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


def _text_key(key):
    """The text report's name for a dotted key of the dict report."""
    if key == "alpha.value":
        return "alpha"
    for old, new in (("terms.", "term."), ("verdicts.", "verdict.")):
        if key.startswith(old):
            return new + key[len(old) :]
    return key


def _dotted_leaves(node, prefix=""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _dotted_leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def test_text_report_lines_are_the_dict_leaves():
    prob, aux = _showcase()
    for problem, labels in ((prob, LINEAR_TERMS), (matched_general_form(prob, aux), GENERAL_TERMS)):
        report = evaluate_criteria(problem, aux, tmax=50.0, grid=128, eps=0.1)
        lines = report.to_text().splitlines()
        leaves = list(_dotted_leaves(report.to_dict()))
        assert [line.split(" = ")[0] for line in lines] == [_text_key(k) for k, _ in leaves]
        assert sum(line.startswith("term.") for line in lines) == 2 * len(labels)
        for line, (_, value) in zip(lines, leaves):
            text = line.split(" = ", 1)[1]
            if value is None or isinstance(value, bool):
                assert text == {None: "none", True: "true", False: "false"}[value]
            elif isinstance(value, float):
                assert float(text) == value
            else:
                assert text == str(value)


def test_schema_term_names_are_the_term_labels():
    schema_path = Path(__file__).parents[1] / "docs" / "criteria_report.schema.json"
    schema = json.loads(schema_path.read_text())
    names = schema["properties"]["terms"]["propertyNames"]["enum"]
    assert tuple(names) == GENERAL_TERMS
    assert set(LINEAR_TERMS) <= set(names)


def test_term_tables_put_the_direct_terms_first():
    # the grid sums and the pointwise sum add the direct terms, then the swept ones
    from ndde.criteria import _GENERAL_TABLE, _LINEAR_TABLE

    for table in (_LINEAR_TABLE, _GENERAL_TABLE):
        direct = [term.slope is not None for term in table]
        assert direct == sorted(direct, reverse=True) and direct[:2] == [True, True]


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


def test_report_integrates_no_companion_one_shot(monkeypatch):
    # the companion constants read the request's sweep and tables
    import ndde.criteria as criteria

    def refuse(*args, **kwargs):
        raise AssertionError("a one-shot weighted integral ran")

    monkeypatch.setattr(criteria, "weighted_integral", refuse)
    prob, aux = _showcase()
    for problem in (prob, matched_general_form(prob, aux)):
        report = evaluate_criteria(problem, aux, tmax=50.0, grid=128, eps=0.1)
        assert math.isfinite(report.a_tail) and math.isfinite(report.a_tail_slope)


# ---------------------------------------------------------------------------
# exact slopes behind the sup scans


def _certify_member(theta="0.2087", amp="1.0406", freq="1.026", rho="0.01283"):
    """A linear member of the certify decks, by default member 0 of seed 1:
    lag theta t, b = amp sin(freq t)/7 and bracket residual rho/(t + 0.1)."""
    b = f"{amp}*sin({freq}*t)/7"
    r1 = DelaySpec(parse_expression(f"{theta}*t"))
    a = bracket_matching_a(
        parse_expression(b), r1, _aux(), parse_expression(f"{rho}/(t + 0.1)")
    )
    return _showcase(b=b, a=a, r1=r1)


def test_twin_damping_sup_matches_a_reference_split_at_its_kinks():
    # member 0 of the seed-8 certify deck in its general form: the body of
    # neutral_damping has a kink at every root k pi / 1.0373 of
    # q_bound(tau1(s)), where the sweep breaks its panels.  Halving alone
    # accepted two pieces whose |K7 - L4| was about 1e-15 but whose errors
    # were 1e-11 and 5e-12, and the sup came out 1.47e-11 high.
    from ndde.criteria import _damping

    prob, aux = _certify_member("0.2046", "1.0441", "1.0373", "0.01261")
    twin = matched_general_form(prob, aux)
    stat = alpha_estimate(twin, aux, tmax=200.0, grid=512).term("neutral_damping")
    bound = bind(twin, aux, 200.0)
    end = bound.gexp.cumulative(stat.argsup)
    body = lambda s: math.exp(bound.gexp.cumulative(s) - end) * _damping(bound, s)  # noqa: E731
    kinks = [k * math.pi / 1.0373 for k in range(1, 100) if k * math.pi / 1.0373 < stat.argsup]
    cuts = [0.0, *kinks, stat.argsup]
    reference = sum(adaptive_simpson(body, a, b, 1e-15) for a, b in zip(cuts, cuts[1:]))
    assert abs(stat.sup - reference) <= 1e-13


def _recorded_scans(monkeypatch, prob, aux, tmax, grid):
    """(h, coarse grid, kwargs) of every sup scan one alpha estimate makes."""
    import ndde.criteria as criteria

    calls = []
    scan = criteria.sup_scan

    def recording(h, lo, hi, **kwargs):
        calls.append((h, np.linspace(lo, hi, kwargs["n"]), kwargs))
        return scan(h, lo, hi, **kwargs)

    monkeypatch.setattr(criteria, "sup_scan", recording)
    est = alpha_estimate(prob, aux, tmax=tmax, grid=grid)
    return est, calls


def test_alpha_estimate_scans_every_term_before_it_returns(monkeypatch):
    # terms is a plain field: the sum and all per-term scans run inside
    # alpha_estimate, and reading terms afterwards scans nothing
    from ndde.criteria import AlphaEstimate

    prob, aux = _certify_member()
    est, calls = _recorded_scans(monkeypatch, prob, aux, tmax=50.0, grid=128)
    assert len(calls) == 1 + len(est.terms) == 1 + len(LINEAR_TERMS)
    assert [t.label for t in est.terms] == list(LINEAR_TERMS)
    est.terms
    assert len(calls) == 1 + len(est.terms)
    names = [f.name for f in dataclasses.fields(AlphaEstimate)]
    assert "terms" in names and "_scan_terms" not in names
    # equal problems give equal estimates, terms included
    assert est == alpha_estimate(prob, aux, tmax=50.0, grid=128)


def test_a_certify_request_samples_one_tail_slope(monkeypatch, workloads):
    # of the sweep's between-node queries outside the slope polish, only
    # the term sum's tail-slope sample remains: no per-term scan samples a
    # tail slope, and the asymptotic check reads the tail term off it
    import sys

    from ndde.config import loads
    from ndde.quadrature import WeightedSweep

    request = next(r for r in workloads.certify_deck(1).requests if r.name == "linear0")
    cfg = loads(request.text)

    at, queries = WeightedSweep.at, []

    def spy(self, t, k=None):
        frame, callers = sys._getframe(1), set()
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        if "_polish" not in callers:
            queries.append((t, k, "_tail_slope" in callers, "asymptotic_check" in callers))
        return at(self, t, k)

    monkeypatch.setattr(WeightedSweep, "at", spy)
    tmax = request.params["tmax"]
    report = evaluate_criteria(cfg.problem, cfg.aux, tmax=tmax, grid=cfg.grid, eps=cfg.eps)
    t0 = cfg.problem.t0
    tail = tmax - 0.1 * (tmax - t0)
    assert queries == [(tail, None, True, False)]  # every term at once
    assert math.isfinite(report.alpha_tail_slope) and math.isfinite(report.a_tail_slope)


@pytest.mark.parametrize("twin", [False, True], ids=["linear", "general-twin"])
def test_scan_slopes_match_centred_differences(monkeypatch, twin):
    prob, aux = _certify_member()
    if twin:
        prob = matched_general_form(prob, aux)
    est, calls = _recorded_scans(monkeypatch, prob, aux, tmax=100.0, grid=256)
    assert len(calls) == 1 + len(est.terms)  # the sum, then every term
    step = 1e-4
    for h, ts, kwargs in calls:
        slopes = kwargs["slopes"]
        assert np.all(np.isfinite(slopes))
        checked = 0
        for i in range(5, len(ts) - 1, 7):
            t = float(ts[i])
            left, mid, right = h(t - step), h(t), h(t + step)
            centred = (right - left) / (2 * step)
            # skip a node that sits within a step of a kink of the term
            if abs((right - mid) - (mid - left)) > 1e-3 * abs(right - left) + 1e-12:
                continue
            assert slopes[i] == pytest.approx(centred, rel=1e-6, abs=1e-12), (i, t)
            checked += 1
            # between nodes, the (value, slope) callable agrees with h
            u = 0.5 * (t + float(ts[i + 1]))
            value, slope = kwargs["value_slope"](u)
            assert value == h(u)
            centred = (h(u + step) - h(u - step)) / (2 * step)
            assert slope == pytest.approx(centred, rel=1e-6, abs=1e-12), u
        assert checked >= 20


def test_one_check_makes_few_sweep_queries(monkeypatch):
    # exact node slopes let each refinement polish on the slope instead
    # of sub-scanning its cells: the parent design made 1,231 queries here
    from ndde.quadrature import WeightedSweep

    calls = []
    at = WeightedSweep.at

    def counted(self, *args, **kwargs):
        calls.append(args)
        return at(self, *args, **kwargs)

    monkeypatch.setattr(WeightedSweep, "at", counted)
    prob, aux = _certify_member()
    report = evaluate_criteria(prob, aux, tmax=200.0, grid=512, eps=0.1)
    assert report.alpha == pytest.approx(0.7330533, abs=1e-6)
    assert 0 < len(calls) <= 100


def test_public_derivative_still_rejects_kinks():
    for text in ("abs(t - 1)", "sgnpow(t, 1/3)", "2*t + abs(sin(t))"):
        with pytest.raises(NonDifferentiableError):
            parse_expression(text).derivative("t")
    # the scans' own derivative passes through them away from the kink
    from ndde.expressions import _piecewise_derivative

    d = _piecewise_derivative(parse_expression("abs(t - 1) + sgnpow(t, 1/3)")).compiled()
    assert d(2.0) == pytest.approx(1.0 + 2.0 ** (-2.0 / 3.0) / 3.0, rel=1e-14)
    assert d(0.5) == pytest.approx(-1.0 + 0.5 ** (-2.0 / 3.0) / 3.0, rel=1e-14)


@pytest.mark.parametrize("twin", [False, True], ids=["linear", "general-twin"])
def test_sweep_samples_the_weighted_terms_in_bulk(monkeypatch, twin):
    # the sweep samples every weighted term through its array form; the
    # scalar form is left to the few between-node queries of the sup scans
    # and to adaptive Simpson on the sub-panels the pair cannot settle (the
    # twin's kinked neutral_damping).  Sampling node by node, the parent
    # design made 11,078 (linear) and 31,694 (twin) scalar calls here.
    import ndde.criteria as criteria

    calls = [0]
    made = criteria.WeightedSweep

    def counting(integrands, *args, **kwargs):
        def counted(f):
            def wrapped(s):
                calls[0] += 1
                return f(s)

            return wrapped

        return made([counted(f) for f in integrands], *args, **kwargs)

    monkeypatch.setattr(criteria, "WeightedSweep", counting)
    prob, aux = _certify_member()
    if twin:
        prob = matched_general_form(prob, aux)
    evaluate_criteria(prob, aux, tmax=200.0, grid=512, eps=0.1)
    assert 0 < calls[0] <= (8_000 if twin else 2_000)


@pytest.mark.parametrize(
    "run, args, message",
    [
        ("evaluate_criteria", {"tmax": math.inf}, "tmax must be finite, got inf"),
        ("evaluate_criteria", {"tmax": math.nan}, "tmax must be finite, got nan"),
        ("evaluate_criteria", {"eps": math.nan}, "eps must be finite, got nan"),
        ("evaluate_criteria", {"eps": 0.0}, "eps must be positive, got 0.0"),
        ("alpha_estimate", {"tmax": math.inf}, "tmax must be finite, got inf"),
        ("alpha_estimate", {"tmax": -math.inf}, "tmax must be finite, got -inf"),
    ],
)
def test_criteria_arguments_are_checked_on_entry(run, args, message):
    # before the binding and the sweep: no numpy warning on the way
    prob, aux = _showcase()
    fn = {"evaluate_criteria": evaluate_criteria, "alpha_estimate": alpha_estimate}[run]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            fn(prob, aux, **{"tmax": 50.0, **args})
    # the horizon texts stand
    with pytest.raises(ValidationError, match=r"^tmax = 0\.5 must exceed t0 \+ 1 = 1\.0"):
        evaluate_criteria(prob, aux, tmax=0.5)
    with pytest.raises(ValidationError, match=r"^horizon -1\.0 lies below t0 = 0\.0$"):
        alpha_estimate(prob, aux, tmax=-1.0)
