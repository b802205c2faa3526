"""Every script in demos/ runs to its end: exit 0 and no traceback; so do
the README's Python examples, and its command-line examples print what
the README shows.

Each runs in its own temporary working directory, since the demos write
their JSON report and CSV files there.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(tmp_path, demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stdout + done.stderr


def test_readme_python_examples_run(tmp_path, monkeypatch, capsys):
    # after `ndde example section4`, the README's python blocks run in order
    # in one namespace, as a reader would paste them
    from ndde.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["example", "section4"]) == 0
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].verdict_bounded == "satisfied"
    assert namespace["x"].eval(0.0) == pytest.approx(0.005, abs=1e-12)


def _readme_runs():
    """(argv, shown lines) of each ``$ ndde`` run in the README's
    command-line block, its elided ``...`` lines left out."""
    block = re.search(r"^## Command line\n.*?^```\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    runs = []
    for chunk in block.group(1).split("\n\n"):
        command, *shown = chunk.strip().splitlines()
        argv = command.split("#")[0].split()[2:]  # after "$ ndde"
        runs.append((argv, [line for line in shown if line != "..."]))
    return runs


@pytest.mark.parametrize("argv", [["check", "section4.cfg"], ["picard", "section4.cfg", "--T", "20"]], ids=["check", "picard"])
def test_readme_command_line_examples_match_the_cli(tmp_path, monkeypatch, capsys, argv):
    # every key the README shows is printed, with its text where it is not
    # a number, within 1e-9 relative where it is, and an argsup within 1e-6
    from ndde.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["example", "section4"]) == 0
    shown = next(lines for run, lines in _readme_runs() if run == argv)
    capsys.readouterr()
    assert main(argv) == 0
    printed = dict(line.split(" = ", 1) for line in capsys.readouterr().out.splitlines() if " = " in line)
    assert shown
    for line in shown:
        key, value = line.split(" = ", 1)
        assert key in printed, key
        try:
            number = float(value)
        except ValueError:
            assert printed[key] == value, key
            continue
        rel = 1e-6 if key.endswith("argsup") else 1e-9
        assert float(printed[key]) == pytest.approx(number, rel=rel, abs=0.0), key
