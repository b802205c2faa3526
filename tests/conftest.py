"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def capped_python():
    """Run Python source in a child process whose address space is capped
    (1 GiB by default), so that an oversized allocation fails at once
    instead of taking the host's memory; returns the CompletedProcess."""
    import resource

    def run(code: str, cap: int = 1 << 30, timeout: float = 120.0):
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        env = dict(os.environ, PYTHONPATH=_SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        return subprocess.run(
            [sys.executable, "-c", code], env=env, preexec_fn=limit,
            capture_output=True, text=True, timeout=timeout,
        )

    return run


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's request decks, ``bench/workloads.py`` loaded by path
    and only read."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


@pytest.fixture(autouse=True)
def _empty_code_cache(monkeypatch):
    """Each test starts from an empty process-wide expression code cache and
    leaves the process's own untouched, so no count of compiles, here or in
    ``bench/``, depends on which tests ran before."""
    from ndde import expressions

    monkeypatch.setattr(expressions, "_codes", {})
