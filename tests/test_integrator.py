"""Direct integration: oracles, the method-of-steps reference, dense output
and stability runs."""

import dataclasses
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ndde import (
    AuxiliarySpec,
    DelaySpec,
    DomainError,
    GridFunction,
    HistoryFunction,
    IntegrationError,
    ProblemSpec,
    Trajectory,
    ValidationError,
    bracket_matching_a,
    convergence_order,
    default_history_family,
    integrate,
    parse_expression,
    stability_experiment,
    transformed_history,
)
from ndde import integrator
from steps_reference import solve_checked

_G = parse_expression("sin(x)", variables=("x",))
_ZERO = parse_expression("0*t")


def _linear(a="1 + 0*t", b="0*t", c="0*t", r1="0*t", r2=None, t0=0.0):
    return ProblemSpec(
        form="linear-neutral",
        t0=t0,
        gamma=Fraction(1, 3),
        r1=DelaySpec(parse_expression(r1)),
        r2=DelaySpec(parse_expression(r2 if r2 is not None else r1)),
        a=parse_expression(a),
        b=parse_expression(b),
        c=parse_expression(c),
        G=_G,
        k4=1.0,
    )


def _showcase():
    aux = AuxiliarySpec(
        p=parse_expression("1/(t + 0.2)"),
        g=parse_expression("0.1/(t + 0.1)"),
    )
    r1 = DelaySpec(parse_expression("0.2*t"))
    b = parse_expression("sin(t)/7")
    prob = ProblemSpec(
        form="linear-neutral",
        t0=0.0,
        gamma=Fraction(1, 3),
        r1=r1,
        r2=DelaySpec(parse_expression("0.2*t")),
        a=bracket_matching_a(b, r1, aux),
        b=b,
        c=parse_expression("0.01*(0.8*t + 0.2)^(1/3) / ((t + 0.1) * (t + 0.2))"),
        G=_G,
        k4=1.0,
    )
    return prob, aux


def _hist(expr):
    return HistoryFunction(parse_expression(expr))


# ---------------------------------------------------------------- oracles


def test_exponential_decay():
    tr = integrate(_linear(), _hist("1 + 0*t"), T=5.0, h=1e-3)
    assert abs(tr.eval(5.0) - math.exp(-5.0)) < 1e-6


def test_pantograph_against_euler_oracle():
    prob = _linear(r1="0.2*t")
    tr = integrate(prob, _hist("1 + 0*t"), T=1.0, h=1e-3)
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
    assert abs(tr.eval(1.0) - xs[-1]) < 1e-4


def test_general_reencoding_matches_linear_dynamics():
    # Q = q x with q = b/(1 - r1') reproduces the neutral term exactly
    prob, _ = _showcase()
    psi = _hist("0.01 + 0*t")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tr_lin = integrate(prob, psi, T=10.0, h=0.01)
        tr_gen = integrate(prob.as_general(), psi, T=10.0, h=0.01)
    diff = np.max(np.abs(tr_lin.values - tr_gen.values))
    assert diff < 1e-12


def test_showcase_stays_bounded():
    prob, _ = _showcase()
    tr = integrate(prob, _hist("0.00135 + 0*t"), T=200.0, h=0.02)
    assert tr.max_abs() < 0.1


# ---------------------------------------------------------------- dense output


def test_dense_output_reproduces_nodes():
    prob = _linear(r1="0.2*t")
    tr = integrate(prob, _hist("1 + 0*t"), T=2.0, h=0.05)
    for i in (0, 11, 40):
        assert tr.eval(tr.nodes[i]) == tr.values[i]
        assert tr.deriv(tr.nodes[i]) == tr.derivatives[i]


def test_dense_output_returns_every_node_bit_for_bit_on_an_inexact_grid():
    # t0 + h i is inexact for t0 = 0.3 and h = 0.05, so node queries land
    # on either neighbouring cell; both give the stored node exactly
    prob = _linear(a="0.5 + 0.1*cos(t)", b="0.2 + 0*t", r1="0.2*t + 0.06", t0=0.3)
    tr = integrate(prob, _hist("1 + 0.5*t"), T=2.3, h=0.05)
    assert len(tr.nodes) == 41 and np.all(tr.values != 0.0) and np.all(tr.derivatives != 0.0)
    assert tr.eval_array(tr.nodes).tobytes() == tr.values.tobytes()
    slopes = np.array([tr.deriv(t) for t in tr.nodes])
    assert slopes.tobytes() == tr.derivatives.tobytes()


@pytest.mark.parametrize("kind", ["grid-function", "trajectory"])
def test_array_queries_take_any_1d_array_like(kind):
    if kind == "trajectory":
        f = integrate(_linear(), _hist("1 + 0*t"), T=1.0, h=0.1)
    else:
        f = GridFunction.from_callable(np.linspace(0.0, 1.0, 11), math.sin)
    empty = f.eval_array(np.array([]))
    assert empty.dtype == float and empty.shape == (0,)
    assert f.eval_array([]).shape == (0,)
    assert f.eval_array([0.25, 1]).tolist() == [f.eval(0.25), f.eval(1.0)]


def test_dense_output_continuous_at_step_boundaries():
    prob = _linear(r1="0.2*t")
    tr = integrate(prob, _hist("1 + 0*t"), T=2.0, h=0.05)
    scale = max(1.0, tr.max_abs())
    for i in range(1, len(tr.nodes) - 1):
        t = float(tr.nodes[i])
        jump = abs(tr.eval(t - 1e-13) - tr.eval(t + 1e-13))
        assert jump < 1e-12 * scale


def test_history_queries_are_exact():
    prob = _linear(a="0.2 + 0*t", b="0.1 + 0*t", r1="1")
    psi = HistoryFunction(parse_expression("0.01*cos(t)"))
    tr = integrate(prob, psi, T=3.0, h=0.05)
    assert tr.m == pytest.approx(-1.0)
    for t in (-1.0, -0.63, -0.2):
        assert tr.eval(t) == 0.01 * math.cos(t)
        assert tr.deriv(t) == -0.01 * math.sin(t)
    with pytest.raises(ValidationError):
        tr.eval(-1.5)
    with pytest.raises(ValidationError):
        tr.eval(3.5)


def test_array_queries_equal_scalar_queries_bit_for_bit():
    prob = _linear(a="0.2 + 0*t", b="0.1 + 0*t", r1="1")
    tr = integrate(prob, HistoryFunction(parse_expression("0.01*cos(t)")), T=3.0, h=0.05)
    rng = np.random.default_rng(5)
    # random points on both sides of t0, every node, and both domain ends
    ts = np.concatenate((rng.uniform(tr.m, tr.T, 500), tr.nodes, [tr.m, tr.t0, tr.T]))
    scalar = np.array([tr.eval(float(t)) for t in ts])
    assert tr.eval_array(ts).tobytes() == scalar.tobytes()
    below = ts[ts < tr.t0]
    assert len(below) > 50
    assert tr.eval_array(below).tolist() == [0.01 * math.cos(t) for t in below.tolist()]
    with pytest.raises(ValidationError):
        tr.eval_array(np.array([0.5, 3.5]))


def test_trajectory_is_immutable():
    tr = integrate(_linear(), _hist("1 + 0*t"), T=1.0, h=0.1)
    with pytest.raises(ValueError):
        tr.values[0] = 5.0


def test_trajectory_csv(tmp_path):
    tr = integrate(_linear(), _hist("1 + 0*t"), T=1.0, h=0.25)
    path = tmp_path / "run.csv"
    tr.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# trajectory nodes=5 ")
    assert lines[1] == "t,x,xprime"
    t, x, xp = lines[3].split(",")
    assert float(t) == tr.nodes[1]
    assert float(x) == tr.values[1]
    assert float(xp) == tr.derivatives[1]


# ---------------------------------------------------------------- structure


def test_degenerate_history_uses_only_the_start_value():
    # proportional lags at t0 = 0: the history interval is the point {0}
    prob, _ = _showcase()
    a = integrate(prob, _hist("0.002 + 0*t"), T=5.0, h=0.05)
    b = integrate(prob, HistoryFunction(parse_expression("0.002 + 0.5*t")), T=5.0, h=0.05)
    assert np.array_equal(a.values, b.values)


def test_linearity_witness():
    # G never enters (c = 0), Q/F absent: trajectories scale with the history
    prob = _linear(a="0.2 + 0*t", b="0.3*cos(t)", r1="1")
    lam = 3.7
    base = integrate(prob, _hist("0.01*(1 + t/2)"), T=8.0, h=0.05)
    scaled = integrate(prob, _hist(f"{0.01 * lam!r}*(1 + t/2)"), T=8.0, h=0.05)
    rel = np.max(np.abs(scaled.values - lam * base.values)) / np.max(
        np.abs(lam * base.values)
    )
    assert rel < 1e-9


def test_noncontractive_neutral_junction_fails_fast():
    # |b| > 1 with a vanishing lag at t0 makes x'(t0) non-solvable by iteration
    prob = _linear(a="1 + 0*t", b="1.2 + 0*t", r1="0.2*t")
    with pytest.raises(IntegrationError, match="did not settle"):
        integrate(prob, _hist("0.1 + 0*t"), T=1.0, h=0.01)


def test_exhausted_halvings_name_the_last_step_tried():
    # a lag far shorter than the step with |b| > 1 on the open panel never
    # settles; the sweeps run at 0.1 / 2^0 .. 0.1 / 2^6, and the error names
    # the last of them
    prob = _linear(a="1 + 0*t", b="2 + 0*t", c="0.3 + 0*t", r1="0.0001 + 0*t", r2="0.2*t")
    with pytest.raises(IntegrationError, match=r"kept failing down to h = 0\.0015625;"):
        integrate(prob, _hist("0.1 + 0*t"), T=1.0, h=0.1)


def test_rejects_bad_horizon_and_step():
    prob = _linear()
    with pytest.raises(ValidationError):
        integrate(prob, _hist("1 + 0*t"), T=0.0, h=0.1)
    with pytest.raises(ValidationError):
        integrate(prob, _hist("1 + 0*t"), T=1.0, h=0.0)


# ---------------------------------------------------------------- convergence


def test_convergence_order_smooth_ode():
    order = convergence_order(_linear(), _hist("1 + 0*t"), T=2.0, steps=[0.05, 0.025, 0.0125])
    assert order == pytest.approx(4.0, abs=0.3)


def test_convergence_order_pantograph():
    prob = _linear(r1="0.2*t")
    order = convergence_order(prob, _hist("1 + 0*t"), T=2.0, steps=[0.05, 0.025, 0.0125])
    assert order >= 3.0


def test_convergence_order_showcase():
    prob, _ = _showcase()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        order = convergence_order(
            prob, _hist("0.01 + 0*t"), T=3.0, steps=[0.08, 0.04, 0.02]
        )
    assert order >= 3.0


@pytest.mark.parametrize(
    "make, psi, T, steps",
    [
        (_linear, "1 + 0*t", 2.0, [0.05, 0.025, 0.0125]),
        (lambda: _linear(r1="0.2*t"), "1 + 0*t", 2.0, [0.05, 0.025, 0.0125]),
        (lambda: _showcase()[0], "0.01 + 0*t", 3.0, [0.08, 0.04, 0.02]),
    ],
    ids=["smooth_ode", "pantograph", "showcase"],
)
def test_step_doubling_estimate_bounds_the_error(make, psi, T, steps):
    # the estimate picard's cross-check reports, max |x_h - x_2h| over 801
    # probes, unscaled: it must bound the error of x_h against an h/8 run
    prob = make()
    probes = np.linspace(prob.t0, T, 801)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for h in steps:
            coarse, fine, ref = (
                integrate(prob, _hist(psi), T=T, h=s).eval_array(probes) for s in (2 * h, h, h / 8)
            )
            assert 0.0 < np.max(np.abs(fine - ref)) <= np.max(np.abs(fine - coarse))


def test_convergence_order_degenerate_errors():
    prob = _linear(a="0*t")  # x' = 0: every step size is exact
    with pytest.raises(ValidationError, match="degenerate"):
        convergence_order(prob, _hist("1 + 0*t"), T=1.0, steps=[0.2, 0.1, 0.05])


# ---------------------------------------------------------------- reference
#
# The method-of-steps reference (tests/steps_reference.py) shares the parser
# and differentiate with the program and no other code: each case states its
# own error, degree 40 against 60, below 1e-11.


def _stability_member():
    # member0 of the stability deck of seed 1, written out: r1 = 0.1644 t,
    # b = 0.9993 sin(0.9482 t)/7 and a bracket residual 0.00824/(t + 0.1);
    # the deck runs it to T = 250 with delta = 0.000984
    prob, aux = _showcase()
    r1 = DelaySpec(parse_expression("0.1644*t"))
    b = parse_expression("0.9993*sin(0.9482*t)/7")
    a = bracket_matching_a(b, r1, aux, residual=parse_expression("0.00824/(t + 0.1)"))
    return dataclasses.replace(prob, r1=r1, a=a, b=b)


@pytest.mark.parametrize(
    "make, psi, T",
    [
        (_linear, "1 + 0*t", 2.0),
        (lambda: _linear(r1="0.2*t"), "1 + 0*t", 2.0),
        (lambda: _showcase()[0], "0.01 + 0*t", 3.0),
        (_stability_member, "0.000984 + 0*t", 20.0),
    ],
    ids=["smooth_ode", "pantograph", "showcase", "stability_member"],
)
def test_direct_route_matches_the_reference(make, psi, T):
    prob = make()
    probes = np.linspace(prob.t0, T, 2001)
    ref, own = solve_checked(prob, parse_expression(psi), T, probes)
    assert own < 1e-11
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tr = integrate(prob, _hist(psi), T=T, h=1e-3)
    assert np.max(np.abs(tr.eval_array(probes) - ref(probes))) < 1e-10


def test_direct_route_from_a_transformed_start_matches_the_reference():
    # p(t0) = 5 != 1: the run that matches the fixed-point route starts from
    # x = p z, which transformed_history builds and the reference forms itself
    prob, aux = _showcase()
    psi_z = _hist("0.001 + 0*t")
    psi_x = transformed_history(prob, aux, psi_z, 0.0)
    assert psi_x.psi.evaluate(t=0.0) == pytest.approx(0.005)
    probes = np.linspace(0.0, 50.0, 5001)
    ref, own = solve_checked(prob, aux.p * psi_z.psi, 50.0, probes)
    assert own < 1e-11
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tr = integrate(prob, psi_x, T=50.0, h=1e-3)
    assert np.max(np.abs(tr.eval_array(probes) - ref(probes))) < 1e-10


def _constant_lag_general():
    # constant lags 1 and 0.5 reach back to m = -1: the history segment is
    # read through d/dt Q(t, x(t - 1)), F and G
    return ProblemSpec(
        form="general",
        t0=0.0,
        gamma=Fraction(1, 3),
        r1=DelaySpec(parse_expression("1")),
        r2=DelaySpec(parse_expression("0.5")),
        a=parse_expression("0.5/(t + 1)"),
        c=parse_expression("0.01/(t + 1)"),
        G=_G,
        k4=1.0,
        Q=parse_expression("0.05*sin(t)*sin(x)", variables=("t", "x")),
        q_bound=parse_expression("0.05*abs(sin(t))"),
        d=parse_expression("0.1 + 0*t"),
        F=parse_expression("0.5*sin(x) - 0.3*y", variables=("x", "y")),
        k2=0.5,
        k3=0.3,
    )


@pytest.mark.parametrize("case", ["blocks", "step_loop"])
def test_a_constant_lag_general_run_matches_the_reference(monkeypatch, case):
    prob, psi, T, h = _constant_lag_general(), "0.2 + 0.1*sin(3*t)", 5.0, 1e-3
    probes = np.linspace(0.0, T, 5001)
    ref, own = solve_checked(prob, parse_expression(psi), T, probes)
    assert own < 1e-11
    made = _sweeps(monkeypatch)
    if case == "step_loop":
        _one_by_one(monkeypatch)
    err = np.abs(integrate(prob, _hist(psi), T=T, h=h).eval_array(probes) - ref(probes))
    # the history is read after the junction: by _gather in blocks, or by
    # the step loop's _locate
    sweep = made[0]
    assert sweep._read_history
    assert sweep.counts["steps" if case == "step_loop" else "block_steps"] == sweep.n
    # before t0 + 1 the run is RK4-accurate (2.5e-15 measured).  The step
    # that ends at the breaking point t0 + 1 values its end stage with x'(t0)
    # from the equation (-0.073), where psi'(t0) = 0.3 holds on the step's
    # side; times Q_x tau1' ~ 0.04, the jump costs h/6 of 0.015: 2.56e-6 at
    # t = 1, and 2.64e-6 at most on [1, 5] (measured, first order in h)
    early = probes < 1.0 - h
    assert err[early].max() < 1e-10
    assert err[~early].max() < 3e-6


# ---------------------------------------------------------------- stability


def test_stability_zero_family():
    prob, _ = _showcase()
    rep = stability_experiment(
        prob,
        eps=0.1,
        delta=1e-9,
        T=20.0,
        psi_family=[("zero", _hist("0*t"))],
        h=0.05,
    )
    assert rep.stable
    assert rep.max_abs == (0.0,)


def test_stability_default_family_sizes():
    family = default_history_family(0.05, t0=0.0, m=-2.0)
    assert [label for label, _ in family] == ["const_plus", "const_minus", "cosine", "ramp"]
    for _, psi in family:
        fn = psi.psi.compiled()
        worst = max(abs(fn(t)) for t in np.linspace(-2.0, 0.0, 101))
        assert worst <= 0.05 + 1e-12


def test_stability_showcase_short_run():
    prob, _ = _showcase()
    rep = stability_experiment(prob, eps=0.1, delta=0.00135, T=300.0, h=0.05)
    assert rep.stable
    assert all(mx < 0.01 for mx in rep.max_abs)
    assert "artifact" in rep.note
    text = rep.to_text()
    assert "verdict.eps_bounded = true" in text


def test_stability_trend_reads_a_decade_without_nodes_from_the_dense_output():
    # h = 0.3 runs at 0.25 over [0, 1]: the decade [0.8, 0.9] holds no node,
    # so it is priced by |x| at its ends, not by 0
    from ndde.config import loads
    from ndde.presets import preset_text

    prob = loads(preset_text("section4")).problem
    for h in (0.1, 0.3):
        rep = stability_experiment(prob, eps=0.1, delta=0.001, T=1.0, h=h)
        assert rep.trend_decreasing == (True,) * 4, h
    run = integrate(prob, HistoryFunction(parse_expression("0.001 + 0*t")), T=1.0, h=0.3)
    assert run.h == 0.25
    assert run.window_max(0.8, 0.9) == max(abs(run.eval(0.8)), abs(run.eval(0.9))) > 0.0
    assert run.window_max(0.7, 0.8) == abs(run.values[3])  # the node 0.75 alone


def test_stability_rejects_empty_family():
    prob, _ = _showcase()
    with pytest.raises(ValidationError, match="empty"):
        stability_experiment(prob, eps=0.1, delta=0.001, T=10.0, psi_family=[])


def _family_runs(monkeypatch, prob, **kwargs):
    """The trajectories a stability run builds, in construction order."""
    built = []

    class Recording(Trajectory):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            built.append(self)

    monkeypatch.setattr(integrator, "Trajectory", Recording)
    stability_experiment(prob, eps=1.0, **kwargs)
    monkeypatch.undo()
    return built


def _assert_same_run(member, solo):
    assert member.h == solo.h
    for got, want in (
        (member.nodes, solo.nodes),
        (member.values, solo.values),
        (member.derivatives, solo.derivatives),
    ):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["showcase", "general", "constant_lag", "step_loop"])
def test_family_members_equal_one_member_runs_bitwise(monkeypatch, case):
    prob, _ = _showcase()
    if case in ("general", "step_loop"):
        prob = prob.as_general()
    if case == "constant_lag":
        prob = _linear(a="0.3 + 0*t", b="0.2*cos(t)", c="0.1 + 0*t", r1="1 + 0*t", r2="0.5 + 0*t")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if case == "step_loop":
            _one_by_one(monkeypatch)
        made = _sweeps(monkeypatch)
        members = _family_runs(monkeypatch, prob, delta=0.001, T=20.0, h=0.05)
        # the lag 0.2 t vanishes at t0, so only the sign of psi(t0) tells the
        # members apart; a constant lag reads each member's own history
        assert [sweep.counts["rows"] for sweep in made] == [4 if case == "constant_lag" else 2]
        if case == "step_loop":
            _one_by_one(monkeypatch)  # _family_runs undid the first patch
        assert len(members) == 4
        for member in members:
            _assert_same_run(member, integrate(prob, member.history, T=20.0, h=0.05))
    if case == "constant_lag":
        # the family is not one run re-signed: only the two constants mirror
        # each other (the equation is odd in x); cosine and ramp differ
        assert len({np.abs(member.values).tobytes() for member in members}) == 3


def test_family_halves_only_the_members_that_fail_to_settle(monkeypatch):
    # a lag shorter than the step keeps every step's lookups on the open
    # panel; the zero history settles at once, the other needs h/4
    prob = _linear(a="1 + 0*t", b="0.8 + 0*t", c="0.3 + 0*t", r1="0.01 + 0*t")
    family = [("zero", _hist("0*t")), ("start", _hist("0.1 + 0*t"))]
    members = _family_runs(monkeypatch, prob, delta=0.1, T=1.0, h=0.1, psi_family=family)
    assert [member.h for member in members] == [0.1, 0.025]
    for member in members:
        _assert_same_run(member, integrate(prob, member.history, T=1.0, h=0.1))


def test_stability_rejects_nonpositive_delta():
    prob, _ = _showcase()
    with pytest.raises(ValidationError):
        stability_experiment(prob, eps=0.1, delta=0.0, T=10.0)


def test_stability_accepts_numpy_scalar_delta():
    # delta often arrives as a numpy scalar from upstream estimates; the
    # default-family expressions must still parse
    family = default_history_family(np.float64(0.05), t0=np.float64(0.0), m=-2.0)
    assert family[0][1].psi.compiled()(0.0) == 0.05
    prob, _ = _showcase()
    rep = stability_experiment(prob, eps=0.1, delta=np.float64(0.00135), T=20.0, h=0.05)
    assert "np.float64" not in rep.to_text()


# ---------------------------------------------------------------- blocks


def _sweeps(monkeypatch):
    """Every stepper built while the test runs, to read its counts."""
    made = []

    class Recording(integrator._Lockstep):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            made.append(self)

    monkeypatch.setattr(integrator, "_Lockstep", Recording)
    return made


def _one_by_one(monkeypatch):
    """Make every span too short for a block: the step loop takes all steps."""
    monkeypatch.setattr(integrator, "_MIN_BLOCK", 10**9)


def _general_qf():
    return ProblemSpec(
        form="general",
        t0=0.0,
        gamma=Fraction(1, 3),
        r1=DelaySpec(parse_expression("0.3*t")),
        r2=DelaySpec(parse_expression("1 + 0*t")),
        a=parse_expression("0.5 + 0.1*sin(t)"),
        c=parse_expression("0.05 + 0*t"),
        G=_G,
        k4=1.0,
        Q=parse_expression("0.2*cos(t)*sin(x)", variables=("t", "x")),
        q_bound=parse_expression("0.2*abs(cos(t))"),
        d=parse_expression("0.1 + 0*t"),
        F=parse_expression("0.5*sin(x) - 0.3*y", variables=("x", "y")),
        k2=0.5,
        k3=0.3,
    )


def test_section4_stability_request_steps_in_blocks(monkeypatch):
    from ndde.config import loads
    from ndde.presets import preset_text

    cfg = loads(preset_text("section4"))
    made = _sweeps(monkeypatch)
    stability_experiment(cfg.problem, eps=cfg.eps, delta=0.00135, T=250.0, h=0.02)
    assert len(made) == 1
    counts = made[0].counts
    assert counts["steps"] + counts["block_steps"] == 12_500
    assert counts["steps"] <= 100
    assert counts["abandoned"] == 0
    assert counts["rows"] == 2  # psi(t0) = +delta or -delta; nothing else is read


def test_a_proportional_family_steps_one_row_per_start(monkeypatch):
    from ndde.config import loads
    from ndde.presets import preset_text

    prob = loads(preset_text("section4")).problem
    made = _sweeps(monkeypatch)
    members = _family_runs(monkeypatch, prob, delta=0.00135, T=50.0, h=0.02)
    assert len(made) == 1 and made[0].counts["rows"] == 2
    assert [member.history for member in members] == [
        psi for _, psi in default_history_family(0.00135, 0.0, 0.0)
    ]
    for member in members:
        _assert_same_run(member, integrate(prob, member.history, T=50.0, h=0.02))


def test_starts_are_compared_by_their_bits(monkeypatch):
    # x(t0) = 0.0 and -0.0 are equal numbers but start different runs (the
    # node x(t0) keeps its sign); the two texts of -0 share one row
    prob, _ = _showcase()
    family = [("zero", _hist("0*t")), ("minus", _hist("-0*t")), ("flipped", _hist("0*t*-1"))]
    made = _sweeps(monkeypatch)
    members = _family_runs(monkeypatch, prob, delta=0.001, T=2.0, h=0.05, psi_family=family)
    assert made[0].counts["rows"] == 2
    assert [math.copysign(1.0, member.values[0]) for member in members] == [1.0, -1.0, -1.0]
    for member in members:
        _assert_same_run(member, integrate(prob, member.history, T=2.0, h=0.05))


@pytest.mark.parametrize("case", ["passes", "step_loop"])
def test_a_history_first_read_after_the_junction_unshares_the_family(monkeypatch, case):
    # the lag 0.5 t^2 vanishes at t0 = 0, so the junction reads no history
    # and the four members start as two rows; t - 0.5 t^2 first falls below
    # t0 at t = 2, so from there cosine and ramp read their own histories
    prob = _linear(a="1 + 0*t", c="0.1 + 0*t", r1="0.5*t^2", r2="0.2*t")
    T, h = 4.0, 4e-4
    made, started, split = _sweeps(monkeypatch), [], []
    share, unshare = integrator._Lockstep._share, integrator._Lockstep._split

    def shared(self):
        share(self)
        started.append(self.counts["rows"])

    def unshared(self, members):
        if self._unsafe and self._read_history:
            split.append((self.counts["steps"] + self.counts["block_steps"], self.counts["block_steps"]))
        return unshare(self, members)

    monkeypatch.setattr(integrator._Lockstep, "_share", shared)
    monkeypatch.setattr(integrator._Lockstep, "_split", unshared)
    if case == "step_loop":
        # no array rows: the step loop locates the first history lookup
        monkeypatch.setattr(integrator._Lockstep, "_pass", lambda self, row, k, stop: None)
    members = _family_runs(monkeypatch, prob, delta=0.001, T=T, h=h)
    if case == "step_loop":
        monkeypatch.setattr(integrator._Lockstep, "_pass", lambda self, row, k, stop: None)
    assert started == [2] and made[0].counts["rows"] == 4
    assert len(split) == 1
    taken, block_steps = split[0]  # the steps counted when the rows split
    if case == "passes":  # before the second pass of 4,096 steps, which holds t = 2
        assert taken == integrator._BLOCK and block_steps > 0
    else:  # in step 5000, whose mid stage t = 2.0002 reads the history first
        assert taken == 5001 and block_steps == 0
    assert len({member.values.tobytes() for member in members}) == 4
    for member in members:
        _assert_same_run(member, integrate(prob, member.history, T=T, h=h))


@pytest.mark.parametrize("case", ["proportional", "history_segment", "general_qf"])
def test_blocks_match_the_step_loop(monkeypatch, case):
    if case == "proportional":
        (prob, _), psi, T, h = _showcase(), _hist("0.00135 + 0*t"), 50.0, 0.02
    elif case == "history_segment":
        # t0 = 0 > m = -1: the first blocks read the history, not the grid
        prob = _linear(a="0.3 + 0*t", b="0.2*cos(t)", c="0.1 + 0*t", r1="1 + 0*t", r2="0.5 + 0*t")
        psi, T, h = _hist("0.5*cos(3*t)"), 20.0, 0.05
    else:
        prob, psi, T, h = _general_qf(), _hist("0.2 + 0.1*sin(t)"), 20.0, 0.05
    made = _sweeps(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        blocks = integrate(prob, psi, T=T, h=h)
        _one_by_one(monkeypatch)
        loop = integrate(prob, psi, T=T, h=h)
    assert made[0].counts["block_steps"] > 0.9 * made[0].n
    assert made[1].counts["steps"] == made[1].n
    if case == "history_segment":
        assert made[0].counts["steps"] == 0
    tol = 1e-14 * np.max(np.abs(loop.values))
    assert np.max(np.abs(blocks.values - loop.values)) <= tol
    assert np.max(np.abs(blocks.derivatives - loop.derivatives)) <= tol


@pytest.mark.parametrize("case", ["section4", "general_qf"])
def test_a_pass_row_interleaves_the_mid_and_end_rows_bit_for_bit(case):
    # one row over both stage times of each step equals the two stages'
    # own rows: coefficients, located lookups, the first step a block may
    # start at, and the right-hand side on the family's nodes
    from ndde.config import loads
    from ndde.model import horizon
    from ndde.presets import preset_text

    if case == "section4":
        prob = loads(preset_text("section4")).problem  # the linear form
    else:
        prob = _general_qf()  # d F(x1, x2) with d != 0
    T, h = 30.0, 0.02
    family = [psi for _, psi in default_history_family(0.001, 0.0, horizon(prob, T).m)]
    sweep = integrator._Lockstep(family, 0.0, T, h, integrator._INNER_TOL, horizon(prob, T).m)
    _, (row, rhs) = integrator._form(prob)
    assert all(run is not None for run in sweep.run(integrator._form(prob)))
    k, stop = 0, 1000  # general_qf's lag 1 reads the history up to t = 1
    plan = sweep._pass(row, k, stop)
    mid, mid_need = sweep._stage_rows(row, sweep.grid[k:stop] + 0.5 * sweep.h)
    end, end_need = sweep._stage_rows(row, sweep.grid[k + 1 : stop + 1])
    assert plan.need.tobytes() == np.maximum(mid_need, end_need).tobytes()
    both = plan.stage
    assert both.locs == mid.locs == end.locs
    for half, stage in ((slice(0, None, 2), mid), (slice(1, None, 2), end)):
        for got, want in zip(both.co, stage.co, strict=True):
            assert (got is None and want is None) or got[half].tobytes() == want.tobytes()
        for got, want in zip(both.looks, stage.looks, strict=True):
            u, slope, hist, i, w = got
            assert slope == want[1] and u[half].tobytes() == want[0].tobytes()
            assert i[half].tobytes() == want[3].tobytes()
            assert (hist is None) == (want[2] is None)
            if hist is not None:
                assert hist[half].tobytes() == want[2].tobytes()
            for a, b in zip(w, want[4]):
                assert (a is None and b is None) or a[half].tobytes() == b.tobytes()
    members = list(range(len(family)))
    nodes = (sweep._X, sweep._D)

    def image(stage):
        return rhs(stage.co, [None if q is None else sweep._gather(stage.looks[q], nodes, members, slice(None))
                              for q in stage.locs])

    assert (case == "general_qf") == any(look[2] is not None for look in both.looks)
    f = image(both)
    assert f[:, 0::2].tobytes() == image(mid).tobytes()
    assert f[:, 1::2].tobytes() == image(end).tobytes()


@pytest.mark.parametrize("case", ["overflow", "coefficient", "rhs", "horizon"])
def test_a_failing_block_raises_the_step_loop_error(monkeypatch, case):
    a, c, G, r1, T = "1 + 0*t", "0*t", "sin(x)", "1 + 0*t", 6.0
    if case == "overflow":
        a = "-1e100 + 0*t"
    elif case == "coefficient":
        a = "ln(3 - t)"
    elif case == "rhs":
        a, c, G, T = "-1 + 0*t", "1 + 0*t", "ln(2 - x)", 10.0
    else:
        # a lag spike narrower than the horizon scan's grid: the scan misses
        # it, and the stage time t = 3.3 reads below the horizon
        r1 = "0.5 + 100*exp(-1000000*(t - 3.3)^2)"
    prob = ProblemSpec(
        form="linear-neutral",
        t0=0.0,
        gamma=Fraction(1, 3),
        r1=DelaySpec(parse_expression(r1)),
        r2=DelaySpec(parse_expression(r1)),
        a=parse_expression(a),
        b=_ZERO,
        c=parse_expression(c),
        G=parse_expression(G, variables=("x",)),
        k4=1.0,
    )
    made = _sweeps(monkeypatch)
    errors = []
    for _ in range(2):
        with pytest.raises((IntegrationError, ValidationError, DomainError)) as err:
            integrate(prob, _hist("1 + 0*t"), T=T, h=0.05)
        errors.append((type(err.value), str(err.value)))
        _one_by_one(monkeypatch)
    assert errors[0] == errors[1]
    want = {
        "overflow": "state became non-finite near t = ",
        "coefficient": "ln(3 - t): math domain error at t=",
        "rhs": "ln(2 - x): math domain error at x=",
        "horizon": "below the horizon m = ",
    }[case]
    assert want in errors[0][1]
    # the step loop sees a lookup below the horizon before any block holds
    # it; the other failures abandon one block (or, for a coefficient, the
    # array rows of the pass), and the blocks before them are kept
    counts = made[0].counts
    assert counts["abandoned"] == (0 if case == "horizon" else 1)
    assert (counts["blocks"] > 0) == (case != "coefficient")


# ---------------------------------------------------------------- grid and arguments


@pytest.mark.parametrize(
    "t0, T, h",
    [(0.0, 250.0, 0.02), (0.0, 20.0, 1e-3), (0.5, 7.3, 0.013), (-1.25, 3.0, 0.1), (2.0, 2.07, 0.007)],
)
def test_grid_is_t0_plus_h_times_i_bitwise(t0, T, h):
    sweep = integrator._Lockstep([_hist("1 + 0*t")], t0, T, h, 1e-12, t0)
    want = [t0 + sweep.h * i for i in range(sweep.n + 1)]
    assert sweep.grid.tobytes() == np.array(want).tobytes()
    # the step loop reads the grid and the nodes as Python floats
    assert type(sweep.ts[sweep.n]) is float and type(sweep.xs[0][0]) is float


def _run(run, **args):
    prob, _ = _showcase()
    psi = _hist("0.001 + 0*t")
    if run == "integrate":
        return integrate(prob, psi, **args)
    return stability_experiment(prob, **{"eps": 0.1, "delta": 0.001, **args})


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("run", ["integrate", "stability_experiment"])
@pytest.mark.parametrize(
    "name, value, message",
    [
        ("T", _NAN, "horizon T must be finite, got nan"),
        ("T", _INF, "horizon T must be finite, got inf"),
        ("h", _INF, "step h must be finite, got inf"),
        ("h", _NAN, "step h must be finite, got nan"),
        ("h", 0.0, "step h must be positive, got 0.0"),
        ("h", -0.5, "step h must be positive, got -0.5"),
        ("tol", _NAN, "tol must be finite, got nan"),
        ("tol", -_INF, "tol must be finite, got -inf"),
    ],
)
def test_run_arguments_are_checked_on_entry(run, name, value, message):
    args = {"T": 2.0, "h": 0.05, "tol": 1e-12, name: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            _run(run, **args)


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("eps", _NAN, "eps must be finite, got nan"),
        ("eps", -1.0, "eps must be positive, got -1.0"),
        ("eps", 0.0, "eps must be positive, got 0.0"),
        ("delta", _NAN, "delta must be finite, got nan"),
        ("delta", _INF, "delta must be finite, got inf"),
        ("delta", -0.5, "delta must be positive, got -0.5"),
    ],
)
def test_stability_checks_eps_and_delta_on_entry(name, value, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            _run("stability_experiment", T=2.0, h=0.05, **{name: value})


def test_a_step_longer_than_the_run_is_halved_from_the_run():
    # h = 1e300 is one sweep of T - t0 = 50, as h = 50 is; its halvings
    # must shorten that sweep, so both runs settle at h = 12.5, byte for byte
    prob, _ = _showcase()
    long, run = (integrate(prob, _hist("0.001 + 0*t"), T=50.0, h=h) for h in (1e300, 50.0))
    assert long.h == run.h == 12.5
    for a, b in zip((long.nodes, long.values, long.derivatives), (run.nodes, run.values, run.derivatives)):
        assert a.tobytes() == b.tobytes()
