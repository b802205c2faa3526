"""Seeded fuzz of the numeric parameters of the public Python API.

Every numeric parameter of the callables in ``ndde.__all__`` is probed, one
at a time from cheap base arguments on the ``section4`` preset, with
non-finite, negative, zero, fractional, huge, non-numeric and missing
values, and with two seeded finite draws.  Each call must return, or raise
an ``NddeError`` whose text names the parameter (a horizon ``T`` or
``tmax``, and the evaluation times ``t`` and ``s``, may be named as
"horizon", the steps of ``convergence_order`` as "step h", and the left end
``m`` of a history as its "history interval").  The calls run
in one child process whose address space is capped at 1 GiB, with warnings
turned into errors, so that an oversized allocation fails at once and a
numpy warning counts as a failure.

A guard lists the numeric parameters of every public callable (those
annotated ``float`` or ``int``, or named in ``ARGUMENT_RULES``) and fails
when one of them is missing from the fuzz table, so a new numeric knob
cannot go unchecked.  Only the records the program builds and returns,
and one elementwise primitive, are left out, each with its reason.
"""

import inspect
import json
import re

import ndde
from ndde.model import ARGUMENT_RULES

# the fuzz table: one entry per public callable, its base arguments by name
_TABLE = r"""
import dataclasses, io
import numpy as np
from ndde import GridFunction
from ndde.cli import run_check, run_picard, run_simulate
from ndde.config import loads
from ndde.criteria import (
    alpha_estimate, delta_bounds, evaluate_criteria, linear_coefficients, term_values_general,
    term_values_linear,
)
from ndde.integrator import (
    convergence_order, default_history_family, integrate, integrate_transformed, stability_experiment,
)
from ndde.model import bind, horizon, transformed_history
from ndde.operator import make_mesh, picard_solve, reconstruct_x
from ndde.presets import preset_text

text = preset_text("section4")
for key, old, new in (("tmax", "10000", "20"), ("grid", "4096", "64"), ("T", "50", "2"), ("step", "0.001", "0.05")):
    text = text.replace(f'{key} = "{old}"', f'{key} = "{new}"')
cfg = loads(text)
path = "fuzz.cfg"  # the CLI runners' config, written by the child into its working directory
prob, aux, psi = cfg.problem, cfg.aux, cfg.history
general = prob.as_general()
bound = bind(prob, aux, 20.0)
mesh = make_mesh(-1.0, 0.0, 2.0, 0.05)
z = GridFunction.from_values(mesh, np.full(len(mesh), 0.001))
run = {"T": 2.0, "h": 0.05, "tol": 1e-12}
CALLS = {
    "ProblemSpec": (lambda **k: dataclasses.replace(prob, **k), {"t0": 0.0, "k2": 0.0, "k3": 0.0, "k4": 1.0}),
    "alpha_estimate": (lambda **k: alpha_estimate(prob, aux, **k), {"tmax": 20.0, "grid": 64}),
    "evaluate_criteria": (lambda **k: evaluate_criteria(prob, aux, **k), {"tmax": 20.0, "grid": 64, "eps": 0.1}),
    "delta_bounds": (lambda **k: delta_bounds(bound=bound, **k), {"alpha": 0.5, "K": 1.0, "eps": 0.1}),
    "make_mesh": (make_mesh, {"m": -1.0, "t0": 0.0, "T": 2.0, "step": 0.05}),
    "picard_solve": (
        lambda **k: picard_solve(prob, aux, psi, **k), {"T": 2.0, "tol": 1e-8, "max_iter": 60, "step": 0.05}
    ),
    "integrate": (lambda **k: integrate(prob, psi, **k), run),
    "integrate_transformed": (lambda **k: integrate_transformed(prob, aux, psi, **k), run),
    "stability_experiment": (
        lambda **k: stability_experiment(prob, **k), {"eps": 0.1, "delta": 0.001, **run}
    ),
    "bind": (lambda **k: bind(prob, aux, **k), {"tmax": 20.0, "checkpoint": 1.0}),
    "horizon": (lambda **k: horizon(prob, **k), {"tmax": 20.0}),
    "convergence_order": (
        lambda T, steps: convergence_order(prob, psi, T=T, steps=[steps, 0.025, 0.0125]),
        {"T": 1.0, "steps": 0.05},
    ),
    "reconstruct_x": (lambda **k: reconstruct_x(z, aux, **k), {"t0": 0.0}),
    "default_history_family": (default_history_family, {"delta": 0.001, "t0": 0.0, "m": -1.0}),
    "transformed_history": (lambda **k: transformed_history(prob, aux, psi, **k), {"m": 0.0}),
    "term_values_linear": (lambda **k: term_values_linear(prob, aux, **k), {"t": 2.0, "tol": 1e-10}),
    "term_values_general": (lambda **k: term_values_general(general, aux, **k), {"t": 2.0, "tol": 1e-10}),
    "linear_coefficients": (lambda **k: linear_coefficients(prob, aux, **k), {"s": 2.0}),
    "run_check": (lambda **k: run_check(path, out=io.StringIO(), **k), {"tmax": 20.0}),
    "run_simulate": (lambda **k: run_simulate(path, out=io.StringIO(), **k), {"T": 2.0, "step": 0.05}),
    "run_picard": (lambda **k: run_picard(path, out=io.StringIO(), **k), {"T": 2.0, "tol": 1e-8}),
}
"""

_CHILD = _TABLE + r"""
import contextlib, json, os, random, tempfile, warnings
from ndde import NddeError

workdir = tempfile.TemporaryDirectory()  # removed when the child exits
os.chdir(workdir.name)
with open(path, "w") as fh:
    fh.write(text)

VALUES = [float("nan"), float("inf"), -float("inf"), -1.0, 0.0, 64.5, 10**9, 1e300, "x", None]
rng = random.Random(20261019)
warnings.simplefilter("error")
for name, (fn, base) in CALLS.items():
    for arg in base:
        if arg in ("grid", "max_iter"):
            draws = [rng.randint(-100, 2000) for _ in range(2)]
        else:
            draws = [rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-2.0, 2.0) for _ in range(2)]
        for value in VALUES + draws:
            try:
                with contextlib.redirect_stderr(io.StringIO()):  # the CLI's config warnings
                    fn(**{**base, arg: value})
                kind, said = "ok", ""
            except NddeError as exc:
                kind, said = "NddeError", str(exc)
            except Exception as exc:  # the outcome under test
                kind, said = type(exc).__name__, str(exc)
            print(json.dumps([name, arg, repr(value), kind, said[:300]]), flush=True)
"""

# other words an error may name a parameter by
_ALIASES = {
    "T": "horizon", "tmax": "horizon", "t": "horizon", "s": "horizon", "steps": "step h",
    "m": "history interval",
}

# public callables whose numeric parameters are not knobs, with the reason
_NOT_KNOBS = {
    "AlphaEstimate": "a result record, built by alpha_estimate",
    "CriteriaReport": "a result record, built by evaluate_criteria",
    "PicardResult": "a result record, built by picard_solve",
    "StabilityReport": "a result record, built by stability_experiment",
    "Trajectory": "a result record, built by integrate",
    "RunConfig": "a record of checked values, built by load_config",
    "ConfigError": "an error, built with the line it cites",
    "ParseError": "an error, built with the offset it cites",
    "signed_power": "the elementwise power inside compiled expressions: nan in, nan out",
}


def _names(arg: str, text: str) -> bool:
    named = re.search(rf"\b{re.escape(arg)}\b", text)
    return bool(named) or arg in _ALIASES and _ALIASES[arg] in text


def _numeric_parameters() -> set[tuple[str, str]]:
    """(callable, parameter) for every numeric parameter of ``ndde.__all__``."""
    found = set()
    for name in ndde.__all__:
        obj = getattr(ndde, name)
        if not callable(obj) or name in _NOT_KNOBS:
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except ValueError:  # an error class without a Python signature
            continue
        for param in params:
            if param.name in ARGUMENT_RULES or re.search(r"\b(float|int)\b", str(param.annotation)):
                found.add((name, param.name))
    return found


def test_every_public_numeric_parameter_is_fuzzed():
    space = {}
    exec(_TABLE, space)
    fuzzed = {(name, arg) for name, (_, base) in space["CALLS"].items() for arg in base}
    numeric = _numeric_parameters()
    assert not numeric - fuzzed, sorted(numeric - fuzzed)
    assert fuzzed <= numeric  # the table probes only what exists
    assert all(name in ndde.__all__ for name in _NOT_KNOBS)


def test_api_arguments_end_in_a_result_or_an_error_naming_them(capped_python):
    done = capped_python(_CHILD, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    space = {}
    exec(_TABLE, space)
    assert len(rows) == 12 * sum(len(base) for _, base in space["CALLS"].values())
    bad = [
        row for row in rows
        if row[3] != "ok" and not (row[3] == "NddeError" and _names(row[1], row[4]))
    ]
    assert not bad, "\n".join(map(str, bad))
    # the values reach results as well as refusals
    assert {"ok", "NddeError"} == {row[3] for row in rows}
