"""Seeded fuzz of the numeric arguments of the Python API entry points.

Every numeric argument of ``ProblemSpec``, ``alpha_estimate``,
``evaluate_criteria``, ``delta_bounds``, ``make_mesh``, ``picard_solve``,
``integrate``, ``integrate_transformed`` and ``stability_experiment`` is
probed, one at a time from cheap base arguments on the ``section4`` preset,
with non-finite, negative, zero, fractional, huge, non-numeric and missing
values, and with two seeded finite draws.  Each call must return, or raise
an ``NddeError`` whose text names the argument (a horizon ``T`` or ``tmax``
may be named as "horizon").  The calls run in one child process whose
address space is capped at 1 GiB, with warnings turned into errors, so that
an oversized allocation fails at once and a numpy warning counts as a
failure.
"""

import json
import re

_CHILD = r"""
import dataclasses, json, random, warnings
from ndde import NddeError
from ndde.config import loads
from ndde.criteria import alpha_estimate, delta_bounds, evaluate_criteria
from ndde.integrator import integrate, integrate_transformed, stability_experiment
from ndde.model import bind
from ndde.operator import make_mesh, picard_solve
from ndde.presets import preset_text

cfg = loads(preset_text("section4"))
prob, aux, psi = cfg.problem, cfg.aux, cfg.history
bound = bind(prob, aux, 20.0)
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
}
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
                fn(**{**base, arg: value})
                kind, text = "ok", ""
            except NddeError as exc:
                kind, text = "NddeError", str(exc)
            except Exception as exc:  # the outcome under test
                kind, text = type(exc).__name__, str(exc)
            print(json.dumps([name, arg, repr(value), kind, text[:300]]), flush=True)
"""


def _names(arg: str, text: str) -> bool:
    named = re.search(rf"\b{re.escape(arg)}\b", text)
    return bool(named) or arg in ("T", "tmax") and "horizon" in text


def test_api_arguments_end_in_a_result_or_an_error_naming_them(capped_python):
    done = capped_python(_CHILD, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    rows = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(rows) == 31 * 12
    bad = [
        row for row in rows
        if row[3] != "ok" and not (row[3] == "NddeError" and _names(row[1], row[4]))
    ]
    assert not bad, "\n".join(map(str, bad))
    # the values reach results as well as refusals
    assert {"ok", "NddeError"} == {row[3] for row in rows}
