"""Command line behavior: exit codes, summaries, artifacts, determinism."""

import filecmp
import io
import json

import pytest

from ndde.cli import main, run_check, run_picard, run_simulate
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
    defect = float(text.split("picard.residual.sup = ")[1].splitlines()[0])
    assert defect < 1e-6
    header = csv.read_text().splitlines()[0]
    assert header.startswith("# gridfunction")


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


def test_asymptotic_quadrature_failure_names_the_quantity(tmp_path, capsys):
    # with g = -1 the damping weight exp(G(s) - G(t)) = exp(t - s) reaches
    # e^50, and the damped tail integral cannot meet its absolute tolerance
    text = _cheap(tmax="50")
    growing = text.replace('g = "0.1/(t + 0.1)"', 'g = "-1 + 0*t"')
    assert growing != text
    path = tmp_path / "growing.cfg"
    path.write_text(growing)
    assert main(["check", str(path)]) == 1
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1
    assert "asymptotic.a_tail on the horizon [0.0, 50.0]: no convergence" in lines[0]
    assert "Traceback" not in err


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
