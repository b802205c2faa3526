"""tools/compare_reports.py: the --diff mode on hand-written report files."""

import importlib.util
import io
import sys
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", _PATH)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)

_REPORT = """alpha = {alpha}
alpha.argsup = {argsup}
term.retarded_bracket.sup = 4e-14
term.retarded_bracket.argsup = {bracket_argsup}
verdict.bounded = {verdict}
exit = 0
"""


def _write(root: Path, name: str, **values) -> Path:
    fields = dict(alpha="0.5", argsup="10.0", bracket_argsup="3.0", verdict="satisfied")
    fields.update(values)
    root.mkdir(exist_ok=True)
    (root / name).write_text(_REPORT.format(**fields))
    return root


def test_diff_reports_differences_and_argsup_shifts(tmp_path, capsys):
    a = _write(tmp_path / "a", "x.txt")
    b = _write(tmp_path / "b", "x.txt", alpha="0.5000000000000004", bracket_argsup="5.5")
    assert compare_reports.main(["--diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "alpha: 4.441e-16 (x.txt)" in out
    assert "non-numeric changes: 0" in out
    assert "argsup shifts: 1" in out
    assert "term.retarded_bracket.argsup 3.0 -> 5.5 (sup 4e-14)" in out


def test_diff_fails_on_verdict_change_missing_file_or_tolerance(tmp_path, capsys):
    a = _write(tmp_path / "a", "x.txt")
    b = _write(tmp_path / "b", "x.txt", verdict="violated")
    assert compare_reports.main(["--diff", str(a), str(b)]) == 1
    assert "x.txt: verdict.bounded satisfied -> violated" in capsys.readouterr().out

    b = _write(tmp_path / "c", "x.txt", alpha="0.6")
    assert compare_reports.main(["--diff", str(a), str(b)]) == 1
    assert compare_reports.main(["--diff", str(a), str(b), "--tol", "0.2"]) == 0

    _write(a, "y.txt")
    assert compare_reports.main(["--diff", str(a), str(b), "--tol", "0.2"]) == 1
    assert "only in" in capsys.readouterr().out


def test_diff_lists_a_key_held_on_one_side_once(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for name in ("x.txt", "y.txt"):
        _write(a, name)
        _write(b, name)
        (b / name).write_text((b / name).read_text() + "crosscheck.step = 0.005\n")
    (a / "x.txt").write_text((a / "x.txt").read_text() + "old.key = 1\n")
    assert compare_reports.main(["--diff", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "non-numeric changes: 0" in out
    assert "keys on one side only: 2" in out
    assert f"  only in {a}: old.key (1 files)" in out
    assert f"  only in {b}: crosscheck.step (2 files)" in out
    assert "None" not in out  # no per-file "None -> value" lines


def test_diff_sums_each_side_over_all_of_its_decision_lines(tmp_path, capsys):
    # the same decisions made in fewer calls: A refines in 4 calls what B
    # refines in 2, so the totals agree though no line does
    a, b = tmp_path / "a", tmp_path / "b"
    for root, lines in ((a, ["1 10", "2 20", "3 30", "0 4"]), (b, ["3 30", "3 34"])):
        _write(root, "x.txt")
        text = "".join(f"operator.refine.iteration1.{n} = {line}\n" for n, line in enumerate(lines))
        (root / "x.txt").write_text((root / "x.txt").read_text() + text)
    assert compare_reports.main(["--diff", str(a), str(b)]) == 1  # a changed decision line
    out = capsys.readouterr().out
    assert "quadrature decisions changed: 1" in out
    assert "x.txt: operator.refine (solve) failed 6 -> 6, pieces 64 -> 64 (lines 4 -> 2, 4 changed)" in out
    assert "keys on one side only: 0" in out  # the 2 lines A alone holds are decisions

    # equal decision lines are no change
    (b / "x.txt").write_text((a / "x.txt").read_text())
    assert compare_reports.main(["--diff", str(a), str(b)]) == 0
    assert "quadrature decisions changed: 0" in capsys.readouterr().out


def test_dump_writes_the_sweep_counts_of_each_request(tmp_path, monkeypatch, capsys):
    from ndde import criteria
    from ndde.presets import preset_text

    text = preset_text("section4").replace('tmax = "10000"', 'tmax = "50"')
    text = text.replace('grid = "4096"', 'grid = "64"')
    monkeypatch.setattr(compare_reports, "_requests", lambda root: iter([("cheap", "check", text)]))
    made = criteria.WeightedSweep
    assert compare_reports.main(["--dump", str(tmp_path / "a")]) == 0
    assert criteria.WeightedSweep is made  # the wrapper is removed again
    lines = (tmp_path / "a" / "cheap.txt").read_text().splitlines()
    counts = [line for line in lines if line.startswith("sweep.")]
    # one sweep of the three linear-form weighted terms, then the exit code
    assert [line.split(" = ")[0] for line in counts] == [f"sweep.0.counts.{k}" for k in range(3)]
    accepted, refined, floor = map(int, counts[0].split(" = ")[1].split())
    assert accepted >= 63 and refined >= 0 and floor >= 0
    assert lines[-1] == "exit = 0"

    # a changed quadrature decision fails the diff
    b = tmp_path / "b"
    b.mkdir()
    changed = "sweep.0.counts.1 = 1 2 3"
    (b / "cheap.txt").write_text("\n".join(changed if line == counts[1] else line for line in lines))
    capsys.readouterr()
    assert compare_reports.main(["--diff", str(tmp_path / "a"), str(b)]) == 1
    # summed over the file's sweep lines, apart from the other non-numeric changes
    rows = [[int(v) for v in line.split(" = ")[1].split()] for line in counts]
    before = [sum(col) for col in zip(*rows)]
    after = [x - y + z for x, y, z in zip(before, rows[1], (1, 2, 3))]
    out = capsys.readouterr().out
    assert "non-numeric changes: 0" in out
    assert (f"cheap.txt: sweep counts accepted {before[0]} -> {after[0]}, refined {before[1]} -> {after[1]},"
            f" floor {before[2]} -> {after[2]} (lines 3 -> 3, 1 changed)") in out


def test_dump_writes_the_operator_refinements_of_each_picard_run(tmp_path, monkeypatch, capsys):
    from ndde import operator
    from ndde.cli import run_picard
    from ndde.presets import preset_text

    # at T = 20 (mesh step 0.05) the panels and windows near t0 fail K7/L4
    text = preset_text("section4").replace('T = "50"', 'T = "20"')
    monkeypatch.setattr(compare_reports, "_requests", lambda root: iter([("fp", "picard", text)]))
    from ndde import cli

    refine, state, residual = operator._refine, operator._Tables.__dict__["state"], cli.residual
    assert compare_reports.main(["--dump", str(tmp_path / "a")]) == 0
    # the wrappers are removed again
    assert operator._refine is refine and operator._Tables.__dict__["state"] is state and cli.residual is residual
    lines = (tmp_path / "a" / "fp.txt").read_text().splitlines()
    counts = [line for line in lines if line.startswith("operator.refine.")]
    assert lines[-1] == "exit = 0" and lines[-1 - len(counts) : -1] == counts  # after the sweeps

    # one line per call, in call order: intervals that failed the first
    # level, and pieces accepted, labelled by the solve's iteration (the
    # candidates the tables read) or the residual check, and numbered per label
    calls, read = [], [0]

    def reading(self, z):
        read[0] += 1
        return state(self, z)

    def recording(sample, a, b, tol, first=None):
        pieces = refine(sample, a, b, tol, first)
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        label = "residual" if "residual" in names else f"iteration{read[0]}"
        calls.append((label, len(a), int(np.count_nonzero(~pieces.passed)), len(pieces.ids)))
        return pieces

    monkeypatch.setattr(operator._Tables, "state", reading)
    monkeypatch.setattr(operator, "_refine", recording)
    cfg = tmp_path / "fp.cfg"
    cfg.write_text(text)
    assert run_picard(str(cfg), out=io.StringIO()) == 0
    labels = [label for label, *_ in calls]
    assert labels[0] == "iteration1" and labels[-1] == "residual"
    assert counts == [f"operator.refine.{label}.{labels[:k].count(label)} = {failed} {pieces}"
                      for k, (label, _, failed, pieces) in enumerate(calls)]
    assert any(failed for _, _, failed, _ in calls)  # some panel or window was refined
    assert all(failed <= n <= pieces for _, n, failed, pieces in calls)

    # a changed refinement fails the diff at any tolerance
    b = tmp_path / "b"
    b.mkdir()
    (b / "fp.txt").write_text("\n".join(line + ("0" if line == counts[0] else "") for line in lines))
    capsys.readouterr()
    assert compare_reports.main(["--diff", str(tmp_path / "a"), str(b), "--tol", "1e300"]) == 1
    # ...and is summed per file and caller, apart from the other non-numeric changes
    solve = [line for line in counts if line.startswith("operator.refine.iteration")]
    failed, total = (sum(int(line.split(" = ")[1].split()[i]) for line in solve) for i in (0, 1))
    first = int(counts[0].split()[-1])  # the pieces of the changed line, 10 times over in B
    out = capsys.readouterr().out
    assert "non-numeric changes: 0" in out and "quadrature decisions changed: 1" in out
    assert (f"fp.txt: operator.refine (solve) failed {failed} -> {failed}, pieces {total} -> {total + 9 * first}"
            f" (lines {len(solve)} -> {len(solve)}, 1 changed)") in out

    # a changed residual check lists the residual's decisions alone
    (b / "fp.txt").write_text("\n".join(line + ("0" if line == counts[-1] else "") for line in lines))
    assert compare_reports.main(["--diff", str(tmp_path / "a"), str(b), "--tol", "1e300"]) == 1
    out = capsys.readouterr().out
    assert "quadrature decisions changed: 1" in out and "fp.txt: operator.refine (residual)" in out


def test_dump_writes_stability_reports_as_the_benchmark_runs_them(tmp_path, monkeypatch):
    from ndde.config import loads
    from ndde.integrator import stability_experiment
    from ndde.presets import preset_text

    text = preset_text("section4").replace('T = "50"', 'T = "5"')
    broken = text.replace('T = "5"', 'T = "-1"')
    requests = [("stab", "stability", text, 0.00135), ("stab-bad", "stability", broken, 0.00135)]
    monkeypatch.setattr(compare_reports, "_requests", lambda root: iter(requests))
    assert compare_reports.main(["--dump", str(tmp_path)]) == 0
    lines = (tmp_path / "stab.txt").read_text().splitlines()
    cfg = loads(text)
    report = stability_experiment(cfg.problem, eps=cfg.eps, delta=0.00135, T=cfg.T, h=0.02)
    assert lines == [*report.to_text().splitlines(), "exit = 0"]
    assert "stability.h = 0.02" in lines
    # a request that fails ends in one error line and exit 1
    bad = (tmp_path / "stab-bad.txt").read_text().splitlines()
    assert len(bad) == 2 and bad[0].startswith("error: ") and bad[1] == "exit = 1"


def test_dump_writes_the_csv_bodies_of_simulate_and_picard(tmp_path, monkeypatch):
    from ndde.cli import run_picard, run_simulate
    from ndde.presets import preset_text

    text = preset_text("section4").replace('T = "50"', 'T = "2"').replace('step = "0.001"', 'step = "0.05"')
    kinds = ("simulate-csv", "picard-csv")
    monkeypatch.setattr(compare_reports, "_requests", lambda root: iter((k, k, text) for k in kinds))
    assert compare_reports.main(["--dump", str(tmp_path / "a")]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    for kind, command in zip(kinds, (run_simulate, run_picard)):
        csv = tmp_path / f"{kind}.csv"
        assert command(str(cfg), csv_path=str(csv), out=io.StringIO()) == 0
        lines = (tmp_path / "a" / f"{kind}.txt").read_text().splitlines()
        body = [line.partition(" = ")[2] for line in lines if line.startswith("csv.")]
        assert body == csv.read_text().splitlines() and len(body) > 10
        assert f"csv = {kind}.csv" in lines and lines[-1] == "exit = 0"

    # one changed digit in a CSV row fails the diff even at a loose tolerance
    b = tmp_path / "b"
    b.mkdir()
    lines = (tmp_path / "a" / "simulate-csv.txt").read_text().splitlines()
    row = next(k for k, line in enumerate(lines) if line.startswith("csv.5 = "))
    lines[row] = lines[row][:-1] + ("1" if lines[row][-1] != "1" else "2")
    (b / "simulate-csv.txt").write_text("\n".join(lines) + "\n")
    (b / "picard-csv.txt").write_text((tmp_path / "a" / "picard-csv.txt").read_text())
    assert compare_reports.main(["--diff", str(tmp_path / "a"), str(b), "--tol", "1"]) == 1


def test_dump_writes_a_trajectory_digest_per_family_member(tmp_path, monkeypatch, capsys):
    import hashlib

    from ndde import integrator
    from ndde.config import loads
    from ndde.model import horizon
    from ndde.presets import preset_text

    text = preset_text("section4").replace('T = "50"', 'T = "5"')
    broken = text.replace('T = "5"', 'T = "-1"')
    requests = [("stab", "stability", text, 0.00135), ("stab-bad", "stability", broken, 0.00135)]
    monkeypatch.setattr(compare_reports, "_requests", lambda root: iter(requests))
    drive = integrator._drive
    assert compare_reports.main(["--dump", str(tmp_path / "a")]) == 0
    assert integrator._drive is drive  # the wrapper is removed again
    lines = (tmp_path / "a" / "stab.trajectories.txt").read_text().splitlines()
    cfg = loads(text)
    m = min(horizon(cfg.problem, cfg.T).m, cfg.problem.t0)
    want = []
    for label, psi in integrator.default_history_family(0.00135, cfg.problem.t0, m):
        run = integrator.integrate(cfg.problem, psi, T=cfg.T, h=0.02)
        digest = hashlib.sha256(run.nodes.tobytes() + run.values.tobytes() + run.derivatives.tobytes())
        want.append(f"trajectory.{label}.sha256 = {digest.hexdigest()}")
    assert lines == want
    # a failed request has no members to hash
    assert (tmp_path / "a" / "stab-bad.trajectories.txt").read_text() == ""

    # one changed trajectory byte fails the diff at any tolerance
    b = tmp_path / "b"
    b.mkdir()
    for path in (tmp_path / "a").iterdir():
        (b / path.name).write_text(path.read_text())
    first = lines[0][:-1] + ("0" if lines[0][-1] != "0" else "1")
    (b / "stab.trajectories.txt").write_text("\n".join([first, *lines[1:]]) + "\n")
    capsys.readouterr()
    assert compare_reports.main(["--diff", str(tmp_path / "a"), str(b), "--tol", "1e300"]) == 1
    assert f"stab.trajectories.txt: {lines[0].split(' = ')[0]} " in capsys.readouterr().out


def test_dump_runs_the_literal_configs_through_every_run(monkeypatch):
    import sys

    from ndde.config import loads
    from ndde.model import horizon

    monkeypatch.setattr(sys, "path", list(sys.path))  # _requests puts the checkout first
    requests = {stem: rest for stem, *rest in compare_reports._requests(_PATH.parent.parent)}
    for name, text in compare_reports.LITERALS.items():
        for kind in ("check", "picard-csv", "simulate-csv"):
            assert requests[f"{name}-{kind}"] == [kind, text]
        assert requests[f"{name}-stability"] == ["stability", text, compare_reports.LITERAL_DELTA]
        # each has a history segment before t0, which no deck has
        cfg = loads(text)
        assert horizon(cfg.problem, cfg.T).m < cfg.problem.t0
    general = loads(compare_reports.LITERALS["general-qf"]).problem
    assert general.form == "general" and not general.d.is_zero()


def test_dump_writes_the_error_line_of_each_refused_request(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(compare_reports, "_requests", lambda root: compare_reports._refusals())
    assert compare_reports.main(["--dump", str(tmp_path / "a")]) == 0
    files = {p.stem: p.read_text().splitlines() for p in (tmp_path / "a").glob("*.txt")}
    assert sorted(files) == sorted(f"refused-{name}" for name, *_ in compare_reports.REFUSED)
    for lines in files.values():
        assert len([line for line in lines if line.startswith("stderr.")]) == 1
        assert lines[-1] == "exit = 1"
    # the config path is replaced by the request's name; usage errors name the flag
    assert files["refused-grid-63"][0] == (
        "stderr.0 = error: refused-grid-63: line 25: grid: need at least 64 sample points"
        " (the supremum scan's coarse grid), got 63"
    )
    assert files["refused-picard-tol-0"][0] == "stderr.0 = ndde picard: error: argument --tol: tol: must be positive"
    assert "reaches m = -6.39" in files["refused-lag-reach"][0]

    # a changed refusal text fails the diff at any tolerance
    b = tmp_path / "b"
    b.mkdir()
    for path in (tmp_path / "a").iterdir():
        (b / path.name).write_text(path.read_text().replace("got 63", "got 62"))
    capsys.readouterr()
    assert compare_reports.main(["--diff", str(tmp_path / "a"), str(b), "--tol", "1e300"]) == 1
    assert "refused-grid-63.txt: stderr.0 " in capsys.readouterr().out
