import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ndde.errors import DomainError, NonDifferentiableError, ValidationError
from ndde.expressions import Expression, parse_expression
from ndde.model import (
    AuxiliarySpec,
    DelaySpec,
    HistoryFunction,
    ProblemSpec,
    bind,
    horizon,
    transformed_history,
)


def _linear_problem(**overrides):
    base = dict(
        form="linear-neutral",
        t0=0.0,
        gamma=Fraction(1, 3),
        r1=DelaySpec(parse_expression("0.2*t")),
        r2=DelaySpec(parse_expression("0.2*t")),
        a=parse_expression("0.1"),
        c=parse_expression("0.01*(0.8*t + 0.2)^(1/3) / ((t + 0.1) * (t + 0.2))"),
        G=parse_expression("sin(x)", variables=("x",)),
        k4=1.0,
        b=parse_expression("sin(t)/7"),
    )
    base.update(overrides)
    return ProblemSpec(**base)


def _aux():
    return AuxiliarySpec(p=parse_expression("1/(t + 0.2)"), g=parse_expression("0.1/(t + 0.1)"))


def test_horizon_examples():
    prob = _linear_problem()
    res = horizon(prob, 100.0)
    assert res.m == pytest.approx(0.0, abs=1e-12)
    assert res.argmin == pytest.approx(0.0, abs=1e-9)

    prob = _linear_problem(t0=1.0)
    res = horizon(prob, 100.0)
    assert res.m == pytest.approx(0.8, abs=1e-9)

    prob = _linear_problem(r1=DelaySpec(parse_expression("1")), r2=DelaySpec(parse_expression("1")))
    res = horizon(prob, 5.0)
    assert res.m == pytest.approx(-1.0, abs=1e-12)


def test_horizon_scans_each_lag_once_per_interval(monkeypatch):
    import ndde.model

    scans = []
    scan = ndde.model.sup_scan
    monkeypatch.setattr(ndde.model, "sup_scan", lambda *a, **k: scans.append(a[1:3]) or scan(*a, **k))
    r1 = DelaySpec(parse_expression("0.2*t"))
    r2 = DelaySpec(parse_expression("0.3 + 0.1*sin(t)"))
    prob = _linear_problem(r1=r1, r2=r2)
    first = horizon(prob, 20.0)
    assert scans == [(0.0, 20.0), (0.0, 20.0)]
    assert first.m == pytest.approx(-0.3, abs=1e-12)
    # the same interval again, on the re-encoding, or on another problem
    # with the same lags: no scan
    assert horizon(prob, 20.0) == first
    assert horizon(prob.as_general(), 20.0) == first
    assert horizon(_linear_problem(r1=r1, r2=r2, a=parse_expression("0.2")), 20.0) == first
    assert len(scans) == 2
    # another tmax, or another t0, scans both lags again
    horizon(prob, 30.0)
    horizon(_linear_problem(r1=r1, r2=r2, t0=1.0), 20.0)
    assert scans[2:] == [(0.0, 30.0), (0.0, 30.0), (1.0, 20.0), (1.0, 20.0)]

    # equality and hashing stay those of the lag, whatever a spec has scanned
    twin = DelaySpec(parse_expression("0.2*t"))
    assert twin == r1 and hash(twin) == hash(r1)
    assert twin != r2
    assert [f.name for f in dataclasses.fields(DelaySpec)] == ["r", "slope_expression", "tau_expression"]


def test_gamma_validation():
    _linear_problem(gamma=Fraction(1, 3))
    _linear_problem(gamma=Fraction(3, 5))
    assert _linear_problem(gamma=Fraction(2, 6)).gamma == Fraction(1, 3)
    with pytest.raises(ValidationError):
        _linear_problem(gamma=Fraction(1, 2))
    with pytest.raises(ValidationError):
        _linear_problem(gamma=Fraction(5, 3))
    with pytest.raises(ValidationError):
        _linear_problem(gamma=Fraction(-1, 3))


def test_form_requirements():
    with pytest.raises(ValidationError):
        _linear_problem(b=None)
    with pytest.raises(ValidationError):
        ProblemSpec(
            form="general",
            t0=0.0,
            gamma=Fraction(1, 3),
            r1=DelaySpec(parse_expression("0.2*t")),
            r2=DelaySpec(parse_expression("0.2*t")),
            a=parse_expression("0.1"),
            c=parse_expression("0.01"),
            G=parse_expression("x", variables=("x",)),
            k4=1.0,
        )
    with pytest.raises(ValidationError):
        _linear_problem(form="weird")
    with pytest.raises(ValidationError):
        _linear_problem(k4=0.0)


@pytest.mark.parametrize("name", ["t0", "k2", "k3", "k4"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_problem_spec_refuses_non_finite_numbers(name, value):
    with pytest.raises(ValidationError, match=f"^{name} must be finite, got {value!r}$"):
        _linear_problem(**{name: value})


def test_validate_rejects_unit_delay_slope():
    prob = _linear_problem(r1=DelaySpec(parse_expression("t + 1")))
    with pytest.raises(ValidationError) as err:
        prob.validate(tmax=10.0)
    assert "r1'" in str(err.value) or "slope" in str(err.value)


def test_validate_rejects_negative_lag():
    prob = _linear_problem(r1=DelaySpec(parse_expression("-0.5")))
    with pytest.raises(ValidationError):
        prob.validate(tmax=10.0)


def test_validate_lipschitz_spot_checks():
    _linear_problem().validate(tmax=50.0)  # sin with k4 = 1 passes
    bad = _linear_problem(G=parse_expression("2*x", variables=("x",)), k4=1.0)
    with pytest.raises(ValidationError):
        bad.validate(tmax=50.0)
    shifted = _linear_problem(G=parse_expression("x + 1", variables=("x",)))
    with pytest.raises(ValidationError):
        shifted.validate(tmax=50.0)  # G(0) != 0


def test_validate_rejects_nonpositive_p():
    prob = _linear_problem()
    aux = AuxiliarySpec(p=parse_expression("t - 1"), g=parse_expression("0.1"))
    with pytest.raises(ValidationError):
        prob.validate(tmax=10.0, aux=aux)


def test_validate_warns_on_p_not_one_at_t0_where_a_lag_reaches_below_it():
    lag = DelaySpec(parse_expression("1"))
    soft = _linear_problem(r1=lag, r2=lag).validate(tmax=10.0, aux=_aux())
    assert "p(t0) = 5.0 != 1; using the constant-1 extension left of t0" in soft
    # 0.2*t keeps t - r(t) >= t0: the left extension is never read
    assert not any("p(t0)" in s for s in _linear_problem().validate(tmax=10.0, aux=_aux()))


def test_as_general_reencoding():
    prob = _linear_problem()
    gen = prob.as_general()
    assert gen.form == "general"
    # q = b / (1 - r1') = sin(t) / 5.6
    t, x = 2.0, 0.7
    assert gen.Q.evaluate(t=t, x=x) == pytest.approx(math.sin(t) / 5.6 * x)
    assert gen.q_bound.evaluate(t=t) == pytest.approx(abs(math.sin(t)) / 5.6)
    # a_general = a + q'
    assert gen.a.evaluate(t=t) == pytest.approx(0.1 + math.cos(t) / 5.6)
    assert gen.F.is_zero()
    assert gen.d.is_zero()
    gen.validate(tmax=20.0)


def test_general_derives_q_partials():
    gen = _linear_problem().as_general()
    prob = ProblemSpec(
        form="general",
        t0=0.0,
        gamma=Fraction(1, 3),
        r1=DelaySpec(parse_expression("0.2*t")),
        r2=DelaySpec(parse_expression("0.4*t")),
        a=parse_expression("0.1"),
        c=parse_expression("0.01"),
        G=parse_expression("x", variables=("x",)),
        k4=1.0,
        Q=parse_expression("0.2*cos(t)*x", variables=("t", "x")),
        q_bound=parse_expression("0.2*abs(cos(t))"),
        d=parse_expression("0.01"),
        F=parse_expression("(x + y)/4", variables=("x", "y")),
        k2=0.25,
        k3=0.25,
    )
    assert prob.Q_t.evaluate(t=1.0, x=2.0) == pytest.approx(-0.2 * math.sin(1.0) * 2.0)
    assert prob.Q_x.evaluate(t=1.0, x=2.0) == pytest.approx(0.2 * math.cos(1.0))
    prob.validate(tmax=20.0)
    assert gen.Q_t.evaluate(t=1.0, x=3.0) == pytest.approx(math.cos(1.0) / 5.6 * 3.0)


def test_bound_problem_worked_example_coefficients():
    prob = _linear_problem()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bp = bind(prob, _aux(), tmax=100.0)
    t = 1.0
    # cbar = p(0.8 t)/p(t) * sin(t)/5.6 with p = 1/(t+0.2)
    expect = (t + 0.2) / (0.8 * t + 0.2) * math.sin(t) / 5.6
    assert bp.cbar(t) == pytest.approx(expect, rel=1e-12)
    # mu = (a p(0.8t) - b p'(0.8t)) / p(t)
    p = lambda u: 1 / (u + 0.2)
    pp = lambda u: -1 / (u + 0.2) ** 2
    expect_mu = (0.1 * p(0.8) - math.sin(1.0) / 7 * pp(0.8)) / p(1.0)
    assert bp.mu(t) == pytest.approx(expect_mu, rel=1e-12)
    # beta = g cbar + cbar'
    assert bp.beta(t) == pytest.approx(0.1 / 1.1 * bp.cbar(t) + bp.cbar_prime(t), rel=1e-12)


def test_cbar_prime_matches_finite_differences():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bp = bind(_linear_problem(), _aux(), tmax=100.0)
    for t in (0.5, 1.7, 9.0):
        h = 1e-6
        fd = (bp.cbar(t + h) - bp.cbar(t - h)) / (2 * h)
        assert bp.cbar_prime(t) == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_drift_window_closed_form():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bp = bind(_linear_problem(), _aux(), tmax=100.0)
    for t in (0.5, 3.0, 20.0):
        expect = 0.1 * math.log((t + 0.1) / (0.8 * t + 0.1)) + math.log(
            (t + 0.2) / (0.8 * t + 0.2)
        )
        assert bp.drift_window(t) == pytest.approx(expect, abs=1e-9)


def test_extension_used_left_of_t0():
    prob = _linear_problem(
        t0=0.0,
        r1=DelaySpec(parse_expression("1")),
        r2=DelaySpec(parse_expression("1")),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bp = bind(prob, _aux(), tmax=10.0)
    assert bp.m == pytest.approx(-1.0)
    assert bp.p_of(-0.5) == 1.0
    assert bp.pp_of(-0.5) == 0.0
    assert bp.p_of(0.5) == pytest.approx(1 / 0.7)


def test_history_norm():
    hist = HistoryFunction(parse_expression("0.001"))
    assert hist.norm(0.0, 0.0) == pytest.approx(0.001)
    hist = HistoryFunction(parse_expression("sin(t)"))
    assert hist.norm(-2.0, 0.0) == pytest.approx(1.0, abs=1e-9)


def test_history_derivative_requires_smoothness():
    hist = HistoryFunction(parse_expression("abs(t)"))
    with pytest.raises(NonDifferentiableError):
        hist.derivative_expression()
    hist = HistoryFunction(parse_expression("abs(t)"), psi_prime=parse_expression("1"))
    assert hist.derivative_expression()(3.0) == 1.0


def test_transformed_history_point_interval():
    prob = _linear_problem()
    hist = HistoryFunction(parse_expression("0.001"))
    scaled = transformed_history(prob, _aux(), hist, m=0.0)
    assert scaled.psi(0.0) == pytest.approx(0.005)


def test_transformed_history_identity_when_p_is_one_at_t0():
    prob = _linear_problem()
    aux = AuxiliarySpec(p=parse_expression("1 + t^2"), g=parse_expression("0.1"))
    hist = HistoryFunction(parse_expression("0.001"))
    assert transformed_history(prob, aux, hist, m=-1.0) is hist


def test_transformed_history_rejects_ambiguous_case():
    prob = _linear_problem()
    hist = HistoryFunction(parse_expression("0.001"))
    with pytest.raises(ValidationError):
        transformed_history(prob, _aux(), hist, m=-1.0)


def _lipschitz_failure_by_loop(problem):
    """The G and F checks of ``validate`` as the row-by-row loops that the
    bulk checks replaced: the message of the first failure, or None."""
    rng = np.random.default_rng(0)
    g, f = problem.G.compiled(), problem.F.compiled()
    try:
        for x, y in rng.uniform(-2.0, 2.0, size=(10_000, 2)):
            if abs(g(float(x)) - g(float(y))) > problem.k4 * abs(x - y) * (1 + 1e-9) + 1e-14:
                return f"G violates its Lipschitz bound k4 = {problem.k4} at ({x}, {y})"
        for x, y, z in rng.uniform(-2.0, 2.0, size=(5_000, 3)):
            x, y, z = float(x), float(y), float(z)
            if abs(f(x, y) - f(z, y)) > problem.k2 * abs(x - z) * (1 + 1e-9) + 1e-14:
                return "F violates its first-slot Lipschitz bound k2"
            if abs(f(x, y) - f(x, z)) > problem.k3 * abs(y - z) * (1 + 1e-9) + 1e-14:
                return "F violates its second-slot Lipschitz bound k3"
    except DomainError as err:
        return str(err)
    return None


@pytest.mark.parametrize(
    "G, F",
    [
        ("2*x", "0*x"),  # G violates its bound at some pair
        ("ln(x + 1.5) - ln(1.5)", "0*x"),  # G cannot be evaluated below -1.5
        ("sin(x)", "3*y"),  # F violates its second-slot bound
        ("sin(x)", "ln(x + 1)"),  # F cannot be evaluated at some triple
        ("sin(x)", "2*x + ln(y + 1)"),  # a violation before the domain error
        ("sin(x)", "ln(x + 1) + 2*y"),  # the first slot fails before the second
    ],
)
def test_bulk_lipschitz_checks_fail_as_the_loop_would(G, F):
    general = _linear_problem().as_general()
    problem = dataclasses.replace(
        general,
        G=parse_expression(G, variables=("x",)),
        F=parse_expression(F, variables=("x", "y")),
        k2=1.0,
        k3=1.0,
    )
    expected = _lipschitz_failure_by_loop(problem)
    assert expected is not None
    with pytest.raises((ValidationError, DomainError)) as err:
        problem.validate(tmax=10.0)
    assert str(err.value) == expected


def _section4():
    from ndde.config import loads
    from ndde.presets import preset_text

    return loads(preset_text("section4"))


def test_section4_tables_match_their_closed_forms():
    # G = int_0^t g and D = int_0^t |g - p'/p| of section4's pair, at 10^4
    # random points, as an array and one by one: within 1e-12 of the
    # closed forms, and the two answers bit for bit the same
    cfg = _section4()
    b = bind(cfg.problem, cfg.aux, 1e4)
    assert b.gexp.start == b.drift_cum.start == 0.0
    ts = np.random.default_rng(43).uniform(0.0, 1e4, 10_000)
    G = 0.1 * np.log((ts + 0.1) / 0.1)
    for table, exact in ((b.gexp, G), (b.drift_cum, G + np.log((ts + 0.2) / 0.2))):
        got = table.cumulative(ts)
        assert np.abs(got - exact).max() <= 1e-12
        assert got.tolist() == [table.cumulative(t) for t in ts.tolist()]
        assert table._fallbacks == 0


def test_a_binding_owns_its_tables():
    # two bindings of one pair build their own tables, equal bit for bit,
    # and a binding's tables are freed with it
    import gc
    import weakref

    cfg = _section4()
    first, again = (bind(cfg.problem, cfg.aux, 200.0) for _ in range(2))
    assert first.gexp is not again.gexp and first.drift_cum is not again.drift_cum
    ts = np.linspace(0.0, 200.0, 1001)
    for name in ("gexp", "drift_cum"):
        assert getattr(first, name).cumulative(ts).tolist() == getattr(again, name).cumulative(ts).tolist()
    tables = [weakref.ref(t) for t in (first.gexp, first.drift_cum)]
    del first
    gc.collect()
    assert [ref() for ref in tables] == [None, None]


def test_certify_reports_do_not_depend_on_the_order_of_requests(workloads):
    # the seed-1 certify deck in two orders in one process, after the preset
    # warm-up, prints the reports that a fresh process prints for each
    # request alone
    import os
    import subprocess
    import sys
    from pathlib import Path

    deck = workloads.certify_deck(1).requests
    code = """
import sys
from ndde.config import loads
from ndde.criteria import evaluate_criteria
from ndde.presets import preset_text
texts = sys.stdin.read().split("\\f")
for text in texts:
    cfg = loads(text)
    report = evaluate_criteria(cfg.problem, cfg.aux, tmax=cfg.tmax, grid=cfg.grid, eps=cfg.eps)
    print(report.to_text(), end="\\f")
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def run(texts):
        done = subprocess.run([sys.executable, "-c", code], input="\f".join(texts), env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        return done.stdout.split("\f")[:-1]

    texts = [request.text for request in deck]
    from ndde.presets import preset_text

    fresh = [run([text])[0] for text in texts]
    both = run([preset_text("section4"), *texts, *texts[::-1]])
    assert both[1 : 1 + len(texts)] == fresh and both[1 + len(texts) :] == fresh[::-1]
