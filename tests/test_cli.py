"""Command line behavior: exit codes, summaries, artifacts, determinism."""

import filecmp
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from ndde.cli import main, run_check, run_picard, run_simulate
from ndde.config import loads
from ndde.criteria import evaluate_criteria, matched_general_form
from ndde.integrator import integrate
from ndde.presets import available, preset_text

# [PRESET CHEAP VARIANTS] the shipped presets sweep to tmax = 10000 with a
# 4096-point grid; the tests shrink both so the whole file stays fast
def _cheap(name="section4", tmax="1000", grid="768"):
    text = preset_text(name)
    text = text.replace('tmax = "10000"', f'tmax = "{tmax}"')
    return text.replace('grid = "4096"', f'grid = "{grid}"')


@pytest.fixture()
def cheap_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(_cheap())
    return path


def test_preset_names_are_stable():
    assert available() == ("section4", "section4-boundary", "section4-bx10")


def test_example_materializes_a_loadable_preset(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    from ndde.cli import run_example

    assert run_example("section4", out=out) == 0
    assert (tmp_path / "section4.cfg").exists()
    assert "wrote" in out.getvalue()
    # written file equals the in-memory preset byte for byte
    assert (tmp_path / "section4.cfg").read_text() == preset_text("section4")


def test_example_rejects_unknown_name(capsys):
    assert main(["example", "nope"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_check_satisfied_exits_zero(cheap_cfg, tmp_path, capsys):
    json_path = tmp_path / "report.json"
    out = io.StringIO()
    code = run_check(cheap_cfg, json_path=json_path, out=out)
    assert code == 0
    text = out.getvalue()
    assert "verdict.bounded = satisfied" in text
    assert "alpha = 0." in text
    data = json.loads(json_path.read_text())
    assert data["verdicts"]["bounded"] == "satisfied"
    assert 0.0 < data["alpha"]["value"] < 1.0


def test_check_violated_exits_two(tmp_path):
    # a violated verdict only needs the sup to pass 1, so a short horizon does
    path = tmp_path / "big.cfg"
    path.write_text(_cheap("section4-bx10", tmax="300"))
    out = io.StringIO()
    assert run_check(path, out=out) == 2
    assert "verdict.bounded = violated" in out.getvalue()


def test_check_growing_tail_is_inconclusive(tmp_path):
    # alpha stays below 1 on the horizon but the term sum keeps growing,
    # so boundedness cannot be certified either way
    text = """\
[problem]
form = "linear-neutral"
t0 = "0"
gamma = "1/3"
r1 = "0.5*t"
r2 = "0.5*t"
a = "0*t"
b = "0*t"
c = "0.0001 + 0*t"
G = "sin(x)"
k4 = "1"

[aux]
p = "1 + 0*t"
g = "0*t"

[history]
psi = "0.01 + 0*t"

[run]
tmax = "100"
grid = "512"
"""
    path = tmp_path / "grow.cfg"
    path.write_text(text)
    out = io.StringIO()
    assert run_check(path, out=out) == 3
    assert "verdict.bounded = inconclusive" in out.getvalue()


def test_check_zero_problem_is_satisfied(tmp_path):
    # zero coefficients AND inert weights: every criterion term vanishes
    # (with a nontrivial damping pair the window terms stay positive even
    # when the equation itself is zero)
    text = """\
[problem]
form = "linear-neutral"
t0 = "0"
gamma = "1/3"
r1 = "0.5*t"
r2 = "0.5*t"
a = "0*t"
b = "0*t"
c = "0*t"
G = "sin(x)"
k4 = "1"

[aux]
p = "1 + 0*t"
g = "0*t"

[history]
psi = "0.01 + 0*t"

[run]
tmax = "200"
grid = "512"
"""
    path = tmp_path / "zero.cfg"
    path.write_text(text)
    out = io.StringIO()
    assert run_check(path, out=out) == 0
    assert "alpha = 0.0" in out.getvalue()


def test_simulate_summary_and_deterministic_csv(cheap_cfg, tmp_path):
    out1, out2 = io.StringIO(), io.StringIO()
    csv1, csv2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_simulate(cheap_cfg, T=5.0, step=0.01, csv_path=csv1, out=out1) == 0
    assert run_simulate(cheap_cfg, T=5.0, step=0.01, csv_path=csv2, out=out2) == 0
    assert filecmp.cmp(csv1, csv2, shallow=False)
    text = out1.getvalue()
    assert "command = simulate" in text
    assert "nodes = 501" in text
    assert "trajectory.max_abs = 0.0" in text  # stays small, starts at 0.001
    # summaries agree except for the artifact path
    trim = lambda s: [ln for ln in s.splitlines() if not ln.startswith("csv = ")]
    assert trim(out1.getvalue()) == trim(out2.getvalue())


def test_picard_summary_reports_crosscheck(cheap_cfg, tmp_path):
    out = io.StringIO()
    csv = tmp_path / "fp.csv"
    assert run_picard(cheap_cfg, T=8.0, csv_path=csv, out=out) == 0
    text = out.getvalue()
    assert "picard.converged = true" in text
    sup = float(text.split("crosscheck.sup_diff = ")[1].splitlines()[0])
    assert sup < 1e-3
    keys = [line.partition(" = ")[0] for line in text.splitlines()]
    at = keys.index("crosscheck.sup_diff")
    assert keys[at : at + 3] == ["crosscheck.sup_diff", "crosscheck.step", "crosscheck.error_estimate"]
    defect = float(text.split("picard.residual.sup = ")[1].splitlines()[0])
    assert defect < 1e-6
    header = csv.read_text().splitlines()[0]
    assert header.startswith("# gridfunction")


_CONSTANT_LAG = """
[problem]
form = "linear-neutral"
t0 = "0"
gamma = "1/3"
r1 = "1"
r2 = "0.5"
a = "0.5/(t + 1)"
b = "0.05*sin(t)"
c = "0.01/(t + 1)"
G = "sin(x)"
k4 = "1"

[aux]
p = "2/(t + 2)"
g = "0.1/(t + 2)"

[history]
psi = "0.001 + 0*t"

[run]
T = "5"
"""


def test_picard_csv_holds_psi_below_t0(tmp_path):
    # m = -1 < t0 = 0, and p = 2 on the history: x is psi there, not p psi
    path, csv = tmp_path / "lag.cfg", tmp_path / "fp.csv"
    path.write_text(_CONSTANT_LAG)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the precheck's criterion sum exceeds 1
        assert run_picard(path, csv_path=csv, out=io.StringIO()) == 0
    rows = [tuple(map(float, line.split(","))) for line in csv.read_text().splitlines()[2:]]
    history = [x for t, x in rows if t < 0.0]
    assert rows[0][0] == -1.0 and len(history) == 40
    assert history == [0.001] * 40


def test_picard_keeps_its_summary_when_no_history_matches(tmp_path):
    # p(t0) = 0.5 on a history segment: the fixed point has no direct-run
    # history to compare with, so the cross-check is skipped, not an error
    path = tmp_path / "lag.cfg"
    path.write_text(_CONSTANT_LAG.replace('p = "2/(t + 2)"', 'p = "1/(t + 2)"'))
    out = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # p(t0) != 1 and the precheck's criterion sum
        assert run_picard(path, out=out) == 0
    text = out.getvalue()
    assert "picard.converged = true" in text
    assert (
        "crosscheck.sup_diff = skipped (transform matching needs p(t0) = 1"
        " or a degenerate history interval)"
    ) in text.splitlines()
    assert {"crosscheck.step = none", "crosscheck.error_estimate = none"} <= set(text.splitlines())


def _recording(monkeypatch, *names):
    """Wrap ``ndde.cli`` functions so that every call's result is kept, in call order."""
    import ndde.cli

    kept = {name: [] for name in names}
    for name in names:
        fn = getattr(ndde.cli, name)

        def record(*a, fn=fn, name=name, **k):
            kept[name].append(fn(*a, **k))
            return kept[name][-1]

        monkeypatch.setattr(ndde.cli, name, record)
    return kept


def _crosscheck_lines(text):
    return {key: value for key, _, value in (line.partition(" = ") for line in text.splitlines())
            if key.startswith("crosscheck.")}


def test_crosscheck_sup_equals_the_pointwise_loop(cheap_cfg, monkeypatch):
    kept = _recording(monkeypatch, "reconstruct_x", "integrate")
    out = io.StringIO()
    assert run_picard(cheap_cfg, T=8.0, out=out) == 0
    text = out.getvalue()
    assert "picard.converged = true" in text
    lines = _crosscheck_lines(text)
    sup, step = float(lines["crosscheck.sup_diff"]), float(lines["crosscheck.step"])
    # the Richardson pair at 2 h1 and h1, h1 = a tenth of the mesh step 0.04
    (solution,), runs = kept["reconstruct_x"], kept["integrate"]
    assert [run.h for run in runs] == [0.008, 0.004] and step == 0.004
    probes = np.linspace(0.0, 8.0, 801)
    loop = max(abs(solution.eval(float(t)) - runs[1].eval(float(t))) for t in probes)
    assert 0.0 < sup == loop
    gap = max(abs(runs[1].eval(float(t)) - runs[0].eval(float(t))) for t in probes)
    assert 0.0 < float(lines["crosscheck.error_estimate"]) == gap <= sup / 100


@pytest.mark.parametrize("T, halved", [(8.0, 0), (7.9995, 1)])
def test_crosscheck_falls_back_to_the_floor_step_when_a_pair_run_halves(cheap_cfg, monkeypatch, T, halved):
    # one run of the pair is made to halve its step, as _drive does when an
    # inner correction fails to settle: a halved coarse run's estimate would
    # read 0, so the pair is refused and the floor run decides; after the
    # fine run halves (on T = 7.9995, to a step off the floor run's) no run
    # of the pair is left to estimate with, and the floor run is run anew
    import ndde.cli

    integrate, calls = ndde.cli.integrate, []

    def halving(*a, h, **k):
        calls.append(h)
        return integrate(*a, h=h / 2 if len(calls) == halved + 1 else h, **k)

    monkeypatch.setattr(ndde.cli, "integrate", halving)
    kept = _recording(monkeypatch, "reconstruct_x", "integrate")
    out = io.StringIO()
    assert run_picard(cheap_cfg, T=T, out=out) == 0
    lines = _crosscheck_lines(out.getvalue())
    (solution,), runs = kept["reconstruct_x"], kept["integrate"]
    h1 = T / 2000
    assert calls == [2 * h1, h1, 0.001]
    assert runs[halved].h == calls[halved] / 2 and runs[2].h == T / 8000
    assert lines["crosscheck.step"] == repr(runs[2].h)
    probes = np.linspace(0.0, T, 801)
    floor, fine = runs[2].eval_array(probes), runs[1].eval_array(probes)
    assert float(lines["crosscheck.sup_diff"]) == np.max(np.abs(solution.eval_array(probes) - floor))
    if halved:
        assert lines["crosscheck.error_estimate"] == "none"
    else:
        assert float(lines["crosscheck.error_estimate"]) == np.max(np.abs(floor - fine)) > 0.0


@pytest.mark.parametrize("T", [2.0, 3.0, 5.0])
def test_crosscheck_on_a_short_horizon_runs_only_the_floor_step(cheap_cfg, monkeypatch, T):
    # T < 6 at the default step: the pair at a tenth of the mesh step T / 200
    # would take 3,000 steps, more than half the one run's at 0.001, so that
    # run alone decides and carries no estimate
    kept = _recording(monkeypatch, "reconstruct_x", "integrate")
    out = io.StringIO()
    assert run_picard(cheap_cfg, T=T, out=out) == 0
    lines = _crosscheck_lines(out.getvalue())
    (solution,), (run,) = kept["reconstruct_x"], kept["integrate"]
    assert run.h == 0.001 and lines["crosscheck.step"] == "0.001"
    assert lines["crosscheck.error_estimate"] == "none"
    probes = np.linspace(0.0, T, 801)
    assert float(lines["crosscheck.sup_diff"]) == np.max(np.abs(solution.eval_array(probes) - run.eval_array(probes)))


def test_crosscheck_falls_back_to_the_floor_step_when_a_pair_run_fails(tmp_path, monkeypatch):
    # x' = -400 x: RK4 at the pair's coarse step 0.01 is unstable (h a = 4)
    # and raises, while the floor run at 0.001 integrates; the fixed point
    # keeps its cross-check, with no estimate to report
    text = _cheap(tmax="50", grid="64")
    for key, value in (("a", "400 + 0*t"), ("g", "400 + 0*t"), ("r1", "0*t"), ("b", "0*t")):
        start = text.index(f"\n{key} = ") + 1
        text = text[:start] + f'{key} = "{value}"' + text[text.index("\n", start):]
    path = tmp_path / "stiff.cfg"
    path.write_text(text)
    kept = _recording(monkeypatch, "integrate")
    out = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run_picard(path, T=10.0, out=out) == 0
    lines = _crosscheck_lines(out.getvalue())
    assert [run.h for run in kept["integrate"]] == [0.001]
    assert lines["crosscheck.step"] == "0.001" and lines["crosscheck.error_estimate"] == "none"
    assert float(lines["crosscheck.sup_diff"]) > 0.0


def test_picard_keeps_its_summary_when_the_floor_run_fails(tmp_path, capsys):
    # x' = -400 x(t - 0.001 t): the iteration converges, but every direct
    # run blows up, the floor run at 0.001 too; the cross-check is skipped
    # with the run's error, and the command still succeeds
    text = _cheap(tmax="50", grid="64")
    for key, value in (("a", "400 + 0*t"), ("g", "400 + 0*t"), ("r1", "0.001*t"), ("b", "0*t")):
        start = text.index(f"\n{key} = ") + 1
        text = text[:start] + f'{key} = "{value}"' + text[text.index("\n", start):]
    path = tmp_path / "blowup.cfg"
    path.write_text(text)
    assert main(["picard", str(path), "--T", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "picard.converged = true" in lines
    assert _crosscheck_lines("\n".join(lines)) == {
        "crosscheck.sup_diff": "skipped (state became non-finite near t = 16.503)",
        "crosscheck.step": "none",
        "crosscheck.error_estimate": "none",
    }


def _literals():
    """The literal configs of ``tools/compare_reports.py``, which reach a history segment."""
    path = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"
    spec = importlib.util.spec_from_file_location("_compare_reports", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LITERALS


@pytest.mark.parametrize("name", ["constant-lag", "general-qf"])
def test_crosscheck_estimate_bounds_the_error_of_its_run(tmp_path, monkeypatch, name):
    # the reported run against one at an eighth of its step, at T = 8 (at
    # the literals' own T = 5 the pair does not run); constant-lag's pair is
    # refused (its neutral term carries the jumps of x', so it converges at
    # first order) and its floor run decides
    path = tmp_path / "lit.cfg"
    path.write_text(_literals()[name])
    kept = _recording(monkeypatch, "integrate")
    out = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the literals' precheck sums exceed 1
        assert run_picard(path, T=8.0, out=out) == 0
    lines = _crosscheck_lines(out.getvalue())
    step, estimate = float(lines["crosscheck.step"]), float(lines["crosscheck.error_estimate"])
    assert step == {"constant-lag": 0.001, "general-qf": 0.004}[name]
    run = next(run for run in kept["integrate"] if run.h == step)
    cfg = loads(path.read_text())
    reference = integrate(cfg.problem, run.history, T=8.0, h=step / 8)
    probes = np.linspace(cfg.problem.t0, 8.0, 801)
    error = np.max(np.abs(run.eval_array(probes) - reference.eval_array(probes)))
    assert 0.0 < error <= estimate


def test_exponential_lag_is_one_line_error(tmp_path, capsys):
    # by t = 20 the lag exp(2.05 t) sends the delayed argument to m ~ -6.4e17,
    # whose cumulative tables would need ~6e17 panels
    text = _cheap("section4-bx10", tmax="20", grid="64")
    path = tmp_path / "lag.cfg"
    path.write_text(text.replace('r1 = "0.2*t"', 'r1 = "(0.2*t) + exp(2.05*t)"'))
    errors = []
    for argv in (["check", str(path)], ["picard", str(path), "--T", "2"]):
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(lines) == 1
        errors.append(lines[0])
    assert "delay r1" in errors[0] and "m = -6.39" in errors[0] and "[-6.39" in errors[0]


def test_long_horizon_error_names_tmax(tmp_path, capsys):
    # section4's lags never reach below t0, so the span of the tables is the
    # horizon's alone and the message must not blame a delay (picard's mesh
    # budget refuses such a T before any table is bound)
    path = tmp_path / "long.cfg"
    path.write_text(_cheap())
    assert main(["check", str(path), "--tmax", "1e12"]) == 1
    err = capsys.readouterr().err
    (line,) = [line for line in err.splitlines() if line.startswith("error:")]
    assert "tmax = 1000000000000.0" in line and "delay" not in line
    assert "Traceback" not in err


def _capped_cli(cwd, *argv, cap=1 << 30, timeout=60):
    """Run the CLI in a child process whose address space is capped, so that
    an oversized allocation fails at once instead of taking the host's memory."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    script = "import sys; from ndde.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, argv)], cwd=cwd, env=env,
        preexec_fn=limit, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize(
    "argv, run, message",
    [
        (["check"], 'grid = "1000000000000"', "grid: need at most"),
        (["simulate", "--T", "1e13"], "", "1e+16 steps, over the budget"),
        # picard asks for its mesh before the precheck binds [t0, T]
        (["picard", "--T", "1e7"], "", "mesh step 0.05 is too small for T = 10000000.0"),
        (["check", "--tmax", "1e7"], "", "need over 4194304 panels of width 1.0"),
    ],
    ids=["grid", "simulate-steps", "picard-mesh", "check-tables"],
)
def test_oversized_inputs_are_one_line_errors(tmp_path, argv, run, message):
    text = _cheap(tmax="50", grid="64")
    if run:
        key = run.split(" = ")[0]
        start = text.index(f"{key} = ")
        text = text[:start] + run + text[text.index("\n", start):]
    path = tmp_path / "big.cfg"
    path.write_text(text)
    done = _capped_cli(tmp_path, argv[0], path, *argv[1:])
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr
    (line,) = [line for line in done.stderr.splitlines() if line.startswith("error:")]
    assert message in line


def test_crosscheck_over_the_step_budget_is_skipped(tmp_path):
    # picard's cross-check integrates at min(step, 1e-3): 2e10 steps here,
    # over the stepper's budget; the converged iteration keeps its summary
    path = tmp_path / "fine.cfg"
    text = _cheap(tmax="50", grid="64")
    assert 'step = "0.001"' in text
    path.write_text(text.replace('step = "0.001"', 'step = "1e-10"'))
    done = _capped_cli(tmp_path, "picard", path, "--T", "2")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "picard.converged = true" in lines
    assert "crosscheck.sup_diff = skipped (step 1e-10 is too small for T = 2.0:" \
        " 2e+10 steps, over the budget of 8388608)" in lines


def test_cli_prints_library_warnings_as_one_line(tmp_path):
    path = tmp_path / "bx10.cfg"
    path.write_text(_cheap("section4-bx10"))
    done = _capped_cli(tmp_path, "picard", path, "--T", "8")
    assert done.returncode == 0, done.stderr
    lines = done.stderr.splitlines()
    assert any("criterion sum reaches" in line for line in lines)
    for line in lines:
        assert line.startswith("warning: ") and ".py:" not in line


def test_picard_divergence_reported_not_raised(tmp_path):
    # tol = 0 is unreachable, so the iteration budget runs out and the
    # summary must report the failure instead of raising
    path = tmp_path / "big.cfg"
    path.write_text(_cheap("section4-bx10"))
    out = io.StringIO()
    with pytest.warns(UserWarning, match="criterion sum"):
        code = run_picard(path, T=8.0, tol=0.0, out=out)
    assert code == 0
    text = out.getvalue()
    assert "picard.converged = false" in text
    assert "crosscheck.sup_diff = skipped" in text
    ratio = float(text.split("picard.ratio.max = ")[1].splitlines()[0])
    assert ratio > 1.0


def _bench_module(name):
    """A module of the benchmark's sources, loaded by path and only read."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_no_request_path_calls_adaptive_simpson(tmp_path, monkeypatch):
    # the criterion sweep, the cumulative tables and the operator refine
    # by halving alone: the certify twin whose kinked neutral_damping
    # panels, and the tenfold Picard run whose cusps, were once handed to
    # adaptive Simpson, run without it, as do a preset and a stability run
    import ndde.quadrature
    from ndde.integrator import stability_experiment

    def refuse(*args, **kwargs):
        raise AssertionError("adaptive Simpson called on a request path")

    twin = next(r for r in _bench_module("workloads").certify_deck(1).requests if r.name == "twin0")
    monkeypatch.setattr(ndde.quadrature, "adaptive_simpson", refuse)
    for name, text in (("twin0", twin.text), ("section4", preset_text("section4"))):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        assert run_check(path, out=io.StringIO()) in (0, 2, 3)
    path = tmp_path / "bx10.cfg"
    path.write_text(preset_text("section4-bx10"))
    out = io.StringIO()
    with pytest.warns(UserWarning, match="criterion sum"):
        assert run_picard(path, T=8.0, tol=0.0, out=out) == 0
    assert "picard.converged = false" in out.getvalue()
    cfg = loads(preset_text("section4"))
    report = stability_experiment(cfg.problem, eps=cfg.eps, delta=0.00135, T=cfg.T, h=0.02)
    assert report.to_text()


def test_main_wires_subcommands(cheap_cfg, capsys, tmp_path, monkeypatch):
    assert main(["check", str(cheap_cfg)]) == 0
    assert "verdict.bounded = satisfied" in capsys.readouterr().out

    assert main(["simulate", str(cheap_cfg), "--T", "2", "--step", "0.01"]) == 0
    assert "command = simulate" in capsys.readouterr().out

    monkeypatch.chdir(tmp_path)
    assert main(["example", "section4-boundary"]) == 0
    assert (tmp_path / "section4-boundary.cfg").exists()


def test_usage_errors_exit_one(cheap_cfg, capsys):
    # flag from the wrong subcommand
    assert main(["simulate", str(cheap_cfg), "--tol", "1e-9"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    # no subcommand at all
    assert main([]) == 1
    # unknown subcommand
    assert main(["frobnicate"]) == 1


def test_runtime_errors_exit_one(tmp_path, capsys):
    assert main(["check", str(tmp_path / "absent.cfg")]) == 1
    assert "error: " in capsys.readouterr().err

    bad = tmp_path / "bad.cfg"
    bad.write_text("[problem]\nform = 3\n")
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


def test_simulate_step_too_small_for_an_index_is_one_line_error(tmp_path, capsys):
    # (T - t0) / step = 5e301 steps: rejected before any node is allocated
    path = tmp_path / "tiny.cfg"
    path.write_text(_cheap().replace('step = "0.001"', 'step = "1e-300"'))
    assert main(["simulate", str(path)]) == 1
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1
    assert "1e-300" in lines[0] and "T = 50.0" in lines[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "picard"])
def test_horizon_below_t0_is_one_line_error(cheap_cfg, capsys, command):
    assert main([command, str(cheap_cfg), "--T", "-1"]) == 1
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1
    assert "-1.0" in lines[0] and "below t0" in lines[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "picard"])
def test_horizon_at_t0_is_one_line_error_naming_both(cheap_cfg, capsys, command):
    assert main([command, str(cheap_cfg), "--T", "0"]) == 1
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert lines == ["error: horizon 0.0 lies at or below t0 = 0.0"]
    assert "Traceback" not in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert "check" in out and "simulate" in out and "picard" in out and "example" in out


def test_picard_rejects_horizon_before_the_precheck(cheap_cfg, capsys, monkeypatch):
    import ndde.operator

    def precheck(*args, **kwargs):
        raise AssertionError("the precheck ran before T was validated")

    monkeypatch.setattr(ndde.operator, "alpha_estimate", precheck)
    assert main(["picard", str(cheap_cfg), "--T", "-1"]) == 1
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1 and "-1.0" in lines[0] and "below t0" in lines[0]
    assert "Traceback" not in err


def test_check_short_tmax_is_one_line_error(tmp_path, capsys):
    path = tmp_path / "short.cfg"
    path.write_text(_cheap(tmax="0.5"))
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1
    assert "tmax = 0.5" in lines[0] and "t0 + 1 = 1.0" in lines[0]
    assert "Traceback" not in err


def _growing_probe(tmp_path):
    """section4 at tmax 50 with g = -1: the damping weights exp(G(s) - G(t))
    = exp(t - s) reach e^50."""
    text = _cheap(tmax="50")
    growing = text.replace('g = "0.1/(t + 0.1)"', 'g = "-1 + 0*t"')
    assert growing != text
    path = tmp_path / "growing.cfg"
    path.write_text(growing)
    return path


def test_growing_damping_weight_ends_in_a_verdict(tmp_path, capsys):
    # the damped coupling integral is read off the criterion sweep, whose
    # panels are damped from their own right end, so the huge weights still
    # give a finite a_tail and a full report
    assert main(["check", str(_growing_probe(tmp_path))]) == 2
    captured = capsys.readouterr()
    assert "verdict.bounded = violated" in captured.out
    (line,) = [ln for ln in captured.out.splitlines() if ln.startswith("asymptotic.a_tail = ")]
    assert math.isfinite(float(line.split(" = ")[1]))
    assert not any(ln.startswith("error:") for ln in captured.err.splitlines())
    assert "Traceback" not in captured.err


def test_reports_follow_the_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    schema_path = Path(__file__).parents[1] / "docs" / "criteria_report.schema.json"
    schema = json.loads(schema_path.read_text())
    cfg = loads(_cheap(tmax="50", grid="128"))
    linear = evaluate_criteria(cfg.problem, cfg.aux, tmax=cfg.tmax, grid=cfg.grid, eps=cfg.eps)
    twin = evaluate_criteria(
        matched_general_form(cfg.problem, cfg.aux), cfg.aux, tmax=cfg.tmax, grid=cfg.grid,
        eps=cfg.eps,
    )
    json_path = tmp_path / "growing.json"
    assert run_check(_growing_probe(tmp_path), json_path=json_path, out=io.StringIO()) == 2
    for blob in (linear.to_dict(), twin.to_dict(), json.loads(json_path.read_text())):
        jsonschema.validate(blob, schema)


def test_domain_error_names_expression_and_t(tmp_path, capsys):
    text = _cheap(tmax="50", grid="64")
    start = text.index('c = "')
    path = tmp_path / "ln.cfg"
    path.write_text(text[:start] + 'c = "ln(t - 5)"' + text[text.index("\n", start) :])
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1
    assert "ln(t - 5): math domain error at t=" in lines[0]
    assert "Traceback" not in err


def test_pole_in_a_term_is_one_line_error_naming_the_term(tmp_path, capsys):
    # c has a pole between the grid nodes of the horizon: the sweep halves
    # the panel around it, adaptive Simpson gives up on the last sub-panel,
    # and the error names the criterion term that failed
    text = _cheap(tmax="100", grid="256")
    start = text.index('c = "')
    path = tmp_path / "pole.cfg"
    path.write_text(text[:start] + 'c = "0.01/(t - 50.3)"' + text[text.index("\n", start) :])
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1
    assert lines[0].startswith("error: sweep of nonlinear_tail: no convergence on [50.")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        (command, flag, value)
        for command, flag in [
            ("check", "--tmax"), ("simulate", "--T"), ("simulate", "--step"),
            ("picard", "--T"), ("picard", "--tol"),
        ]
        for value in ("nan", "inf", "-inf") + (("0", "-1") if flag != "--T" else ())
    ],
)
def test_refused_override_is_a_usage_error_naming_the_flag(cheap_cfg, capsys, command, flag, value):
    # the flags obey the [run] rule of the config file; T alone may be
    # negative here, since it is checked against t0 where it is used
    argv = [command, str(cheap_cfg), f"{flag}={value}"] + (["--T", "2"] if flag == "--tol" else [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: {flag[2:]}: " in captured.err
    assert "Traceback" not in captured.err and not caught


def test_picard_infinite_tol_does_not_converge_in_one_step(cheap_cfg, capsys):
    assert main(["picard", str(cheap_cfg), "--T", "2", "--tol", "inf"]) == 1
    captured = capsys.readouterr()
    assert "picard.converged" not in captured.out
    assert "tol: 'inf' is not a finite number" in captured.err
