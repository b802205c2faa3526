"""Direct integration: oracles, dense output, transform and stability runs."""

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
    integrate_transformed,
    parse_expression,
    stability_experiment,
    transformed_history,
)
from ndde import integrator

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


def test_convergence_order_degenerate_errors():
    prob = _linear(a="0*t")  # x' = 0: every step size is exact
    with pytest.raises(ValidationError, match="degenerate"):
        convergence_order(prob, _hist("1 + 0*t"), T=1.0, steps=[0.2, 0.1, 0.05])


# ---------------------------------------------------------------- transform


def test_transform_route_agrees_with_direct_route():
    prob, aux = _showcase()
    psi_z = _hist("0.001 + 0*t")
    psi_x = transformed_history(prob, aux, psi_z, 0.0)
    assert psi_x.psi.evaluate(t=0.0) == pytest.approx(0.005)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tr_x = integrate(prob, psi_x, T=50.0, h=1e-3)
        tr_z = integrate_transformed(prob, aux, psi_z, T=50.0, h=1e-3)
    p = aux.p.compiled()
    probes = np.linspace(0.0, 50.0, 501)
    worst = max(abs(p(float(t)) * tr_z.eval(float(t)) - tr_x.eval(float(t))) for t in probes)
    assert worst < 1e-4


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
        members = _family_runs(monkeypatch, prob, delta=0.001, T=20.0, h=0.05)
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
    prob, aux = _showcase()
    psi = _hist("0.001 + 0*t")
    if run == "integrate":
        return integrate(prob, psi, **args)
    if run == "integrate_transformed":
        return integrate_transformed(prob, aux, psi, **args)
    return stability_experiment(prob, **{"eps": 0.1, "delta": 0.001, **args})


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("run", ["integrate", "integrate_transformed", "stability_experiment"])
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
