"""End-to-end acceptance gate.

One test per shipped guarantee, each at its stated tolerance; every test
prints a ``[PASS] n. ...`` line with the measured numbers once its
assertions hold, so a verbose run doubles as a certification report.
"""

import dataclasses
import io
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ndde import (
    AuxiliarySpec,
    DelaySpec,
    GridFunction,
    HistoryFunction,
    ProblemSpec,
    alpha_estimate,
    apply_B,
    bind,
    delta_bounds,
    horizon,
    integrate,
    linear_coefficients,
    make_mesh,
    matched_general_form,
    parse_expression,
    picard_solve,
    reconstruct_x,
    residual,
    stability_experiment,
    term_values_linear,
    transformed_history,
)
from ndde.cli import run_check
from ndde.config import loads
from ndde.integrator import convergence_order
from ndde.presets import preset_text
from ndde.quadrature import CumulativeExponent, weighted_integral, window_integral

_G_SIN = parse_expression("sin(x)", variables=("x",))


def _reference():
    cfg = loads(preset_text("section4"))
    return cfg.problem, cfg.aux, cfg.history


def _trig_candidate(mesh, rng, history_fn, t0=0.0, scale=0.9):
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


# --------------------------------------------------------------------------


def test_criterion_1_reference_terms_and_closed_form_tail():
    started = time.monotonic()
    problem, aux, _ = _reference()
    est = alpha_estimate(problem, aux, tmax=1e4, grid=4096)
    head = est.term("neutral_head").sup
    window = est.term("drift_window").sup
    tail = est.term("nonlinear_tail").sup
    assert abs(head - 0.2231) < 0.01
    assert abs(window - 0.2449) < 0.01
    assert tail <= 0.1 + 1e-6

    # the coupling coefficient was built so the weighted tail integral has
    # the closed form 0.1 (1 - e^{-G(t)}) with G(t) = 0.1 ln((t + 0.1)/0.1)
    for t in (1.0, 10.0, 100.0, 1000.0, 10_000.0):
        G = 0.1 * math.log((t + 0.1) / 0.1)
        closed = 0.1 * (1.0 - math.exp(-G))
        quad = float(term_values_linear(problem, aux, t)[4])
        assert abs(quad - closed) < 1e-8

    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(
        f"[PASS] 1. terms head={head:.4f} window={window:.4f} tail={tail:.4f}, "
        f"closed-form tail matched to 1e-8, {elapsed:.1f}s"
    )


def test_criterion_2_reference_check_exits_zero(tmp_path):
    path = tmp_path / "reference.cfg"
    path.write_text(preset_text("section4"))
    out = io.StringIO()
    code = run_check(path, out=out)
    assert code == 0
    text = out.getvalue()
    alpha = float(text.split("\nalpha = ")[1].splitlines()[0])
    assert alpha < 0.98
    assert "verdict.bounded = satisfied" in text
    print(f"[PASS] 2. check exit 0 with alpha = {alpha:.4f} < 0.98")


def test_criterion_3_quadrature_identities():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(20):
        base = rng.uniform(0.05, 0.5)
        wobble = rng.uniform(0.0, base)
        freq = rng.uniform(0.5, 3.0)
        t = float(rng.uniform(0.5, 20.0))

        def g(u, base=base, wobble=wobble, freq=freq):
            return base + wobble * math.sin(freq * u)

        gexp = CumulativeExponent(g, 0.0)
        lhs = weighted_integral(g, gexp, t)
        rhs = 1.0 - math.exp(-gexp.cumulative(t))
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-9

    anti = 0.0
    for _ in range(20):
        a, b = rng.uniform(-5.0, 5.0, size=2)
        k = rng.uniform(0.2, 2.0)
        f = lambda s, k=k: math.cos(k * s)
        anti = max(anti, abs(window_integral(f, a, b) + window_integral(f, b, a)))
    assert anti < 1e-12
    print(f"[PASS] 3. weighted identity worst={worst:.2e} < 1e-9, antisymmetry {anti:.2e} < 1e-12")


def _plain(a="1 + 0*t", r1="0*t"):
    return ProblemSpec(
        form="linear-neutral",
        t0=0.0,
        gamma=Fraction(1, 3),
        r1=DelaySpec(parse_expression(r1)),
        r2=DelaySpec(parse_expression(r1)),
        a=parse_expression(a),
        b=parse_expression("0*t"),
        c=parse_expression("0*t"),
        G=_G_SIN,
        k4=1.0,
    )


def test_criterion_4_integrator_oracles():
    # x' = -x from x(0) = 1: exact solution known
    tr = integrate(_plain(), HistoryFunction(parse_expression("1 + 0*t")), T=5.0, h=1e-3)
    err = abs(tr.eval(5.0) - math.exp(-5.0))
    assert err < 1e-6

    order = convergence_order(
        _plain(), HistoryFunction(parse_expression("1 + 0*t")), T=2.0,
        steps=[0.2, 0.1, 0.05, 0.025],
    )
    assert order >= 3.5

    # proportional-delay equation x' = -x(0.8 t) against a fine Euler oracle
    prob = _plain(r1="0.2*t")
    tr = integrate(prob, HistoryFunction(parse_expression("1 + 0*t")), T=1.0, h=1e-3)
    n = 1_000_000
    h = 1.0 / n
    xs = np.empty(n + 1)
    xs[0] = 1.0
    for i in range(n):
        u = 0.8 * i * h
        j = int(u / h)
        frac = u / h - j
        xu = xs[j] * (1.0 - frac) + xs[min(j + 1, i)] * frac
        xs[i + 1] = xs[i] - h * xu
    panto = abs(tr.eval(1.0) - xs[-1])
    assert panto < 1e-4
    print(f"[PASS] 4. exp error {err:.2e} < 1e-6, order {order:.2f} >= 3.5, pantograph {panto:.2e} < 1e-4")


def test_criterion_5_cross_method_agreement():
    problem, aux, history = _reference()
    result = picard_solve(problem, aux, history, T=50.0, tol=1e-8)
    assert result.converged
    defect = residual(result)
    assert defect < 1e-6

    solution = reconstruct_x(result.z, aux, problem.t0)
    m = horizon(problem, 50.0).m
    direct = integrate(problem, transformed_history(problem, aux, history, m), T=50.0, h=1e-3)
    probes = np.linspace(0.0, 50.0, 1001)
    sup = max(abs(solution.eval(float(t)) - direct.eval(float(t))) for t in probes)
    assert sup < 1e-3

    fn = history.psi.compiled()
    mesh = make_mesh(0.0, 0.0, 8.0, 0.1)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        z1 = _trig_candidate(mesh, rng, fn)
        z2 = _trig_candidate(mesh, rng, fn)
        B1 = apply_B(z1, problem, aux, history)
        B2 = apply_B(z2, problem, aux, history)
        num = float(np.max(np.abs(B1.values - B2.values)))
        den = float(np.max(np.abs(z1.values - z2.values)))
        worst = max(worst, num / den)
    assert worst < 1.0
    print(
        f"[PASS] 5. residual {defect:.2e} < 1e-6, cross-method sup {sup:.2e} < 1e-3, "
        f"B-ratio worst {worst:.3f} < 1 on 10 pairs"
    )


def test_criterion_6_stability_experiment():
    started = time.monotonic()
    problem, aux, _ = _reference()
    # admissible size from the uniform bound at the documented contraction
    # level 0.973 (our computed alpha is smaller, so this delta is safe)
    bounds = delta_bounds(0.973, 1.0, 0.1, bind(problem, aux, problem.t0 + 1.0))
    assert bounds.uniform == pytest.approx(0.00135, rel=1e-2)

    report = stability_experiment(problem, eps=0.1, delta=0.00135, T=2000.0, h=0.02)
    assert report.stable
    assert max(report.max_abs) < 0.1
    assert all(end < 0.001 for end in report.end_abs)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(
        f"[PASS] 6. family max {max(report.max_abs):.2e} < 0.1, "
        f"end {max(report.end_abs):.2e} < 1e-3, {elapsed:.1f}s < 60s"
    )


def test_criterion_7_reduction_suite():
    # flat weight: the reduced coefficients collapse to the plain formulas
    # bit for bit (the weight contributes only exact *1.0 / -0.0 operations)
    prob = ProblemSpec(
        form="linear-neutral",
        t0=0.0,
        gamma=Fraction(1, 3),
        r1=DelaySpec(parse_expression("0.5*t")),
        r2=DelaySpec(parse_expression("0.3*t")),
        a=parse_expression("0.25/(1 + t)"),
        b=parse_expression("sin(t)/8"),
        c=parse_expression("0.05/(1 + t)"),
        G=_G_SIN,
        k4=1.0,
    )
    flat = AuxiliarySpec(p=parse_expression("1"), g=parse_expression("0.25/(1 + t)"))
    rng = np.random.default_rng(5)
    for s in rng.uniform(0.0, 20.0, size=25):
        s = float(s)
        mu, cbar, beta = linear_coefficients(prob, flat, s)
        q = math.sin(s) / 4.0
        qp = math.cos(s) / 4.0
        assert mu == 0.25 / (1 + s)
        assert cbar == q
        assert beta == (0.25 / (1 + s)) * q + qp

    # identity response: G enters only through its Lipschitz constant, so
    # swapping sin for the identity leaves every term unchanged
    ident = dataclasses.replace(prob, G=parse_expression("x", variables=("x",)))
    worst_ident = 0.0
    for t in (0.5, 2.0, 6.0):
        lhs = term_values_linear(prob, flat, t)
        rhs = term_values_linear(ident, flat, t)
        worst_ident = max(worst_ident, float(np.max(np.abs(lhs - rhs))))
    assert worst_ident < 1e-12

    # linear form against its general-form re-encoding: same criterion sum
    rng = np.random.default_rng(2024)
    worst_alpha = 0.0
    for _ in range(20):
        th1, th2 = rng.uniform(0.1, 0.5, size=2)
        c1, c2 = rng.uniform(-0.3, 0.3, size=2)
        c3 = rng.uniform(-0.5, 0.5)
        c4 = rng.uniform(-0.2, 0.2)
        shape = rng.uniform(-0.3, 0.5)
        p = parse_expression(f"1 + {shape:.4f}*t/(1 + t)")
        aux = AuxiliarySpec(p=p, g=(p.derivative("t") / p).simplified())
        lin = ProblemSpec(
            form="linear-neutral",
            t0=0.0,
            gamma=Fraction(1, 3),
            r1=DelaySpec(parse_expression(f"{th1:.4f}*t")),
            r2=DelaySpec(parse_expression(f"{th2:.4f}*t")),
            a=parse_expression(f"{c3:.4f}*cos(t)"),
            c=parse_expression(f"{c4:.4f}/(1 + t)"),
            G=_G_SIN,
            k4=1.0,
            b=parse_expression(f"{c1:.4f}*sin(t) + {c2:.4f}"),
        )
        gen = matched_general_form(lin, aux)
        est_lin = alpha_estimate(lin, aux, tmax=2.5, grid=64)
        est_gen = alpha_estimate(gen, aux, tmax=2.5, grid=64)
        worst_alpha = max(worst_alpha, abs(est_lin.alpha - est_gen.alpha))
    assert worst_alpha < 1e-6
    print(
        f"[PASS] 7. flat-weight coefficients exact, identity response {worst_ident:.1e} < 1e-12, "
        f"re-encoding alpha gap {worst_alpha:.1e} < 1e-6 on 20 problems"
    )


def test_criterion_8_negative_control(tmp_path):
    path = tmp_path / "scaled.cfg"
    path.write_text(preset_text("section4-bx10"))
    out = io.StringIO()
    code = run_check(path, out=out)
    assert code == 2
    text = out.getvalue()
    alpha = float(text.split("\nalpha = ")[1].splitlines()[0])
    assert alpha > 1.0
    assert "verdict.bounded = violated" in text

    cfg = loads(preset_text("section4-bx10"))
    result = picard_solve(cfg.problem, cfg.aux, cfg.history, T=10.0, tol=1e-10, max_iter=10)
    assert not result.converged
    assert max(result.ratios) > 1.0
    assert np.all(np.isfinite(result.z.values))
    print(
        f"[PASS] 8. check exit 2 with alpha = {alpha:.2f} > 1; picard ratio "
        f"{max(result.ratios):.2f} > 1, non-convergence reported, values finite"
    )
