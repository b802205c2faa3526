"""Every script in demos/ runs to its end: exit 0 and no traceback; so do
the README's Python examples.

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
