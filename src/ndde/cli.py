"""Command line front end.

Four subcommands over one config-file format:

* ``check <cfg>``     evaluate the contraction criterion and print the
                      report; exit 0 when satisfied, 2 when violated,
                      3 when inconclusive.
* ``simulate <cfg>``  direct integration from the configured history;
                      optionally writes the trajectory as CSV.
* ``picard <cfg>``    fixed-point iteration on the reshaped unknown,
                      residual check, and a cross-method comparison
                      against direct integration, at the step a Richardson
                      pair certifies, with that run's error estimate (on a
                      horizon too short for the pair to pay, at
                      min(step, 1e-3), with none);
                      optionally writes the reconstructed solution as CSV.
* ``example <name>``  materialize a shipped preset config in the current
                      directory.

All failures (unreadable config, parse errors, numerical blowups) exit 1
with a one-line message on stderr; usage errors also exit 1, among them an
override (``--tmax``, ``--T``, ``--step``, ``--tol``) that the config file's
``[run]`` rule refuses.  Summaries are flat ``key = value`` lines so they
diff cleanly; CSV bodies contain no timestamps and are byte-identical across
runs.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config, run_value
from .criteria import evaluate_criteria
from .errors import ConfigError, NddeError, ValidationError
from .integrator import _step_count, integrate
from .model import (
    horizon,  # noqa: F401  -- unused here; bench/tracing.py wraps this attribute
    transformed_history,
)
from .operator import picard_solve, reconstruct_x, residual
from .presets import available, write_preset

__all__ = ["build_parser", "main", "run_check", "run_example", "run_picard", "run_simulate"]


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, matching every other failure path of the tool
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _override(key: str):
    """The argparse ``type`` of the flag overriding ``[run]`` key ``key``: the file's rule."""

    def read(raw: str):
        try:
            return run_value(key, raw)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return read


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ndde",
        description="Stability checks and solvers for neutral delay equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate the contraction criterion")
    p.add_argument("config", help="run configuration file")
    p.add_argument("--tmax", type=_override("tmax"), default=None, help="override the sweep horizon")
    p.add_argument("--json", default=None, metavar="PATH", help="also write the report as JSON")
    p.set_defaults(func=lambda ns: run_check(ns.config, tmax=ns.tmax, json_path=ns.json))

    p = sub.add_parser("simulate", help="integrate the equation directly")
    p.add_argument("config", help="run configuration file")
    p.add_argument("--T", type=_override("T"), default=None, help="override the horizon")
    p.add_argument("--step", type=_override("step"), default=None, help="override the step size")
    p.add_argument("--csv", default=None, metavar="PATH", help="write the trajectory as CSV")
    p.set_defaults(func=lambda ns: run_simulate(ns.config, T=ns.T, step=ns.step, csv_path=ns.csv))

    p = sub.add_parser("picard", help="solve by fixed-point iteration and cross-check")
    p.add_argument("config", help="run configuration file")
    p.add_argument("--T", type=_override("T"), default=None, help="override the horizon")
    p.add_argument("--tol", type=_override("tol"), default=None, help="override the iteration tolerance")
    p.add_argument("--csv", default=None, metavar="PATH", help="write the reconstructed solution as CSV")
    p.set_defaults(func=lambda ns: run_picard(ns.config, T=ns.T, tol=ns.tol, csv_path=ns.csv))

    p = sub.add_parser("example", help="write a shipped preset config to the current directory")
    p.add_argument("name", choices=available())
    p.set_defaults(func=lambda ns: run_example(ns.name))

    return parser


_noted: list[str] = []  # the last config's warnings, not printed again by main


def _load(config_path) -> RunConfig:
    cfg = load_config(config_path)
    _noted[:] = cfg.warnings
    for note in cfg.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return cfg


_VERDICT_EXIT = {"satisfied": 0, "violated": 2, "inconclusive": 3}


def run_check(config_path, tmax=None, json_path=None, out=None) -> int:
    """Criterion check; exit 0 satisfied, 2 violated, 3 inconclusive."""
    out = out or sys.stdout
    cfg = _load(config_path)
    report = evaluate_criteria(
        cfg.problem,
        cfg.aux,
        tmax=cfg.tmax if tmax is None else tmax,
        grid=cfg.grid,
        eps=cfg.eps,
    )
    print(report.to_text(), file=out)
    if json_path is not None:
        Path(json_path).write_text(report.to_json() + "\n")
    return _VERDICT_EXIT.get(report.verdict_bounded, 3)


def run_simulate(config_path, T=None, step=None, csv_path=None, out=None) -> int:
    out = out or sys.stdout
    cfg = _load(config_path)
    T = cfg.T if T is None else T
    step = cfg.step if step is None else step
    trajectory = integrate(cfg.problem, cfg.history, T=T, h=step)
    lines = [
        "command = simulate",
        f"config = {config_path}",
        f"T = {float(T)!r}",
        f"step = {trajectory.h!r}",
        f"nodes = {len(trajectory.nodes)}",
        f"trajectory.max_abs = {trajectory.max_abs()!r}",
        f"trajectory.end_abs = {trajectory.end_abs()!r}",
    ]
    if csv_path is not None:
        trajectory.to_csv(csv_path)
        lines.append(f"csv = {csv_path}")
    print("\n".join(lines), file=out)
    return 0


def run_picard(config_path, T=None, tol=None, csv_path=None, out=None) -> int:
    """Fixed-point run; divergence is reported in the summary, not raised."""
    out = out or sys.stdout
    cfg = _load(config_path)
    T = cfg.T if T is None else T
    tol = cfg.tol if tol is None else tol
    result = picard_solve(cfg.problem, cfg.aux, cfg.history, T=T, tol=tol)
    defect = residual(result)
    solution = reconstruct_x(result.z, cfg.aux, cfg.problem.t0)
    lines = [
        "command = picard",
        f"config = {config_path}",
        f"T = {float(T)!r}",
        f"tol = {float(tol)!r}",
        f"picard.iterations = {result.iterations}",
        f"picard.converged = {'true' if result.converged else 'false'}",
        f"picard.ratio.max = {float(max(result.ratios))!r}" if result.ratios else "picard.ratio.max = none",
        f"picard.final_step = {float(result.final_step)!r}",
        f"picard.residual.sup = {float(defect)!r}",
    ]
    sup_diff, step, estimate = "skipped (iteration did not converge)", "none", "none"
    if result.converged:
        sup_diff, step, estimate = _crosscheck(cfg, T, solution)
    lines += [
        f"crosscheck.sup_diff = {sup_diff}",
        f"crosscheck.step = {step}",
        f"crosscheck.error_estimate = {estimate}",
    ]
    if csv_path is not None:
        solution.to_csv(csv_path)
        lines.append(f"csv = {csv_path}")
    print("\n".join(lines), file=out)
    return 0


# The cross-check's Richardson pair runs at 2 h1 and h1 on nested grids, h1
# about a tenth of the Picard mesh step, where the floor run would take at
# least _PAIR_SAVING times the pair's steps: each run also has a cost of its
# own (the horizon scan, the start-up steps), which the pair pays twice.  It
# is accepted when its estimate reads at most sup_diff / 100.
_PAIR_MESH_PARTS = 10
_PAIR_SAVING = 2
_PAIR_MARGIN = 100
_PROBES = 801


def _crosscheck(cfg, T, solution) -> tuple[str, str, str]:
    """Cross-method check: map the fixed point back through the weight and
    compare with a direct integration started from the matching history.

    Returns sup_diff, the step of the run it was read from, and that run's
    error estimate, all as maxima over 801 probes.  The pair runs only when
    its 3 k steps (k at 2 h1, 2 k at h1) are at most half the floor run's at
    min(step, 1e-3), so h1 is then above that floor.  It is accepted when
    both runs kept the step they were asked for (a halved run is no pair)
    and max |x_h1 - x_2h1| is at most sup_diff / 100; otherwise the floor
    run decides, with max |x_floor - x_h1| as its estimate.  The estimate
    reads ``none`` when no pair run kept its step to compare with, as on a
    horizon too short for the pair.  The cross-check is skipped, saying why,
    when no history matches, the floor run would take more steps than the
    stepper's budget, or the floor run fails."""
    problem, t0 = cfg.problem, cfg.problem.t0
    floor = min(cfg.step, 1e-3)
    try:
        history_x = transformed_history(problem, cfg.aux, cfg.history, float(solution.mesh[0]))
        floor_steps = _step_count(t0, T, floor)
    except ValidationError as exc:
        return f"skipped ({exc})", "none", "none"
    probes = np.linspace(t0, T, _PROBES)
    x = solution.eval_array(probes)

    def run(h):
        trajectory = integrate(problem, history_x, T=T, h=h)
        return trajectory.h, trajectory.eval_array(probes)

    def gap(a, b):
        return float(np.max(np.abs(a - b)))

    mesh_step = (T - t0) / np.count_nonzero(solution.mesh > t0)
    k = _step_count(t0, T, 2.0 * max(mesh_step / _PAIR_MESH_PARTS, floor))
    h1 = (T - t0) / (2 * k)
    h_coarse = h_fine = None
    if _PAIR_SAVING * 3 * k <= floor_steps:
        try:
            (h_coarse, coarse), (h_fine, fine) = run(2.0 * h1), run(h1)
        except NddeError:  # a pair run that fails is no pair; the floor run decides
            h_coarse = h_fine = None
    if h_fine == h1 and h_coarse == 2.0 * h1:
        sup, estimate = gap(x, fine), gap(fine, coarse)
        if estimate <= sup / _PAIR_MARGIN:
            return repr(sup), repr(h_fine), repr(estimate)
    try:
        step, direct = run(floor)
    except NddeError as exc:  # the fixed point stands; the direct run could not check it
        return f"skipped ({exc})", "none", "none"
    estimate = repr(gap(direct, fine)) if h_fine == h1 else "none"
    return repr(gap(x, direct)), repr(step), estimate


def run_example(name, directory=".", out=None) -> int:
    out = out or sys.stdout
    path = write_preset(name, directory)
    print(f"wrote {path}", file=out)
    return 0


def _show_warning(message, *_, **__) -> None:
    # library warnings read like config warnings: one line, no source
    # location, and none that repeats a config warning
    if str(message) not in _noted:
        print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return namespace.func(namespace)
        except (NddeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
