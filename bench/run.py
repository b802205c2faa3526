"""ndde benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports ``ndde`` from its
``src/`` directory; it exits 2 without a result when that is missing.

Load shape: a closed loop with one client in one process; each request is
issued only after the previous one returns.  A run measures set-up time in
fresh interpreters, issues one untimed warm-up request, then repeats whole
passes over the workload's request deck until the requests have taken
``--seconds`` (a pass is never cut, so every run sees the same request
mix).  Oracles check the outputs between passes, outside the timed
requests.  Request and set-up times are calibrated to a reference machine
speed (see ``speed.py``); the raw wall times are printed alongside.

With ``--trace 1`` the timed requests run under the per-layer tracer and
the run prints the per-layer metrics instead of the end-to-end ones; the
warm-up request is then repeated traced to measure the tracing overhead.
The last line of standard output is the result object; the line before it
records per-request figures and the run environment.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import metrics
import oracles
import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
# fresh interpreters timed before the warm-up and after each request of the
# first pass, so that set-up samples spread over the whole run
SETUP_PER_SLOT = 2

_READY = "import ndde, sys; sys.stdout.write(ndde.__file__ + '\\n'); sys.stdout.flush()"


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def _spawn_until_ready(code: str, env: dict) -> tuple[float, str]:
    """Seconds from spawning ``python -c code`` to its first output line."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        line = proc.stdout.readline().decode().strip()
        ready = time.perf_counter()
        proc.communicate(timeout=60)
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, printed {line!r})")
    return ready - start, line


def measure_setup(pairs: int) -> list[tuple[float, float]]:
    """(program, reference) raw seconds of back-to-back fresh interpreters.

    The program interpreter runs ``import ndde``; the reference one imports
    standard-library modules only (``speed.SPAWN_REFERENCE_CODE``), so no
    change to the program can move it.  The caller scales each program
    time by its reference neighbour (see ``speed.calibrated_setup``)."""
    env = {k: v for k, v in os.environ.items() if k not in ("NDDE_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    samples = []
    for _ in range(pairs):
        program, imported = _spawn_until_ready(_READY, env)
        if not _inside_src(imported):
            raise RuntimeError(f"set-up probe imported {imported!r}, not ndde from {SRC}")
        reference, _ = _spawn_until_ready(speed.SPAWN_REFERENCE_CODE, env)
        samples.append((program, reference))
    return samples


def environment(thread_count: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "thread_count": thread_count,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "warmup_requests": 1,
    }


class Runner:
    """Executes requests through the public API, reading module attributes
    at call time so that the tracer's wrappers are seen."""

    def __init__(self, workdir: Path):
        from ndde import cli, config, integrator

        self.cli, self.config, self.integrator = cli, config, integrator
        self.workdir = workdir
        self.paths: dict[int, str] = {}

    def path(self, request) -> str:
        key = id(request)
        if key not in self.paths:
            fd, name = tempfile.mkstemp(suffix=".cfg", dir=self.workdir)
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(request.text)
            self.paths[key] = name
        return self.paths[key]

    def execute(self, request, path: str):
        # soft validation warnings go to stderr; keep them off the console
        with contextlib.redirect_stderr(io.StringIO()):
            if request.kind == "check":
                out = io.StringIO()
                code = self.cli.run_check(path, out=out)
                return {"code": code, "text": out.getvalue()}
            if request.kind == "picard":
                out = io.StringIO()
                code = self.cli.run_picard(path, out=out)
                return {"code": code, "text": out.getvalue()}
            cfg = self.config.load_config(path)
            report = self.integrator.stability_experiment(
                cfg.problem, eps=cfg.eps, delta=request.params["delta"], T=cfg.T, h=0.02
            )
            return {
                "max_abs": list(report.max_abs),
                "end_abs": list(report.end_abs),
                "stable": report.stable,
            }

    def timed(self, request):
        """(output, start, end); the printed summary is parsed after ``end``."""
        path = self.path(request)
        start = time.perf_counter()
        try:
            output = self.execute(request, path)
        except Exception as exc:  # a failed request is counted, not fatal
            output = {"error": f"{type(exc).__name__}: {exc}"}
        end = time.perf_counter()
        if "text" in output:
            output = {"code": output["code"], "report": oracles.parse_summary(output["text"])}
        return output, start, end


def verify(request, output, partner=None) -> list[str]:
    """Oracle failures of one output; ``partner`` is a twin's linear output."""
    if "error" in output:
        return [output["error"]]
    try:
        if request.kind == "check":
            if partner is not None and "error" in partner:
                partner = None
            return oracles.check_certify(request.params, output, partner)
        if request.kind == "picard":
            return oracles.check_picard(request.params, output)
        return oracles.check_stability(request.params, output)
    except (KeyError, ValueError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def end_to_end(setup, passed, attempted, latencies) -> dict[str, float]:
    # one client in a closed loop: the timed wall time is the sum of the
    # request times (the oracles run between requests, outside it)
    return {
        "setup_s": statistics.median(setup),
        "requests_per_s": passed / sum(latencies),
        "latency_s.p50": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_rate": passed / attempted,
    }


def result_object(checks, attempted, passed, values) -> dict:
    return {
        "correct": all(not bad for bad in checks),
        "attempted": attempted,
        "failed": attempted - passed,
        "metrics": {name: {"value": v, "unit": metrics.UNITS[name]} for name, v in values.items()},
    }


def per_layer(spans, c, n_requests: int, overhead: float) -> dict[str, float]:
    by_id, dur, self_time, children = tracing.span_table(spans)
    c = Counter(c)
    n = max(1, n_requests)

    def total(name):
        return sum(dur[s[0]] for s in spans if s[1] == name)

    picard = [s[0] for s in spans if s[1] == "operator.picard"]
    precheck = sum(dur[k] for sid in picard for k in children[sid] if by_id[k][1] == "criteria.precheck")
    iterations = c["operator.iterations"]
    steps = c["integrator.steps"]
    families = [s[0] for s in spans if s[1] == "integrator.stability"]
    member_time = sum(
        dur[k] for sid in families for k in children[sid] if by_id[k][1] == "integrator.integrate"
    )
    family_time = sum(dur[sid] for sid in families)
    layers = tracing.layer_times(spans)
    request_time = layers.get("request", (0.0, 0.0))[0]

    out = {
        "config.load_s": total("config.load") / n,
        "expressions.evals": c["expressions.evals"] / n,
        "expressions.compiles": c["expressions.compiles"] / n,
        "model.bind.calls": sum(1 for s in spans if s[1] == "model.bind") / n,
        "model.bind_s": total("model.bind") / n,
        "quadrature.cumulative.calls": c["quadrature.cumulative.calls"] / n,
        "quadrature.simpson.calls": c["quadrature.simpson.calls"] / n,
        "quadrature.samples": c["quadrature.samples"] / n,
        "quadrature.sweep_s": total("quadrature.sweep") / n,
        "quadrature.sup_scan_s": total("quadrature.sup_scan") / n,
        "quadrature.weighted_integral_s": total("quadrature.weighted_integral") / n,
        "criteria.alpha_s": total("criteria.alpha") / n,
        "criteria.asymptotic_s": total("criteria.asymptotic") / n,
        "criteria.self_s": sum(self_time[s[0]] for s in spans if s[1] == "criteria.evaluate") / n,
        "operator.iterations": iterations / n,
        "operator.iteration_s": (sum(dur[s] for s in picard) - precheck) / iterations if iterations else 0.0,
        "operator.grid_evals": c["operator.grid_evals"] / n,
        "operator.residual_s": total("operator.residual") / n,
        "integrator.steps": steps / n,
        "integrator.step_us": 1e6 * total("integrator.integrate") / steps if steps else 0.0,
        "integrator.halvings": c["integrator.halvings"] / n,
        "integrator.family_overlap": member_time / family_time if family_time else 0.0,
        "trace.overhead_ratio": overhead,
        "layer.quadrature.share": layers.get("quadrature", (0.0, 0.0))[0] / request_time if request_time else 0.0,
    }
    for layer in ("cli", "config", "model", "quadrature", "criteria", "operator", "integrator"):
        busy, own = layers.get(layer, (0.0, 0.0))
        out[f"layer.{layer}.busy_s"] = busy / n
        out[f"layer.{layer}.self_s"] = own / n
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ndde" / "__init__.py").is_file():
        return _fail(f"no ndde sources under {SRC}; run from a source checkout")
    os.environ.pop("NDDE_THREADS", None)
    sys.path.insert(0, str(SRC))
    import ndde

    if not _inside_src(ndde.__file__):
        return _fail(f"imported ndde from {ndde.__file__}, not from {SRC}")
    from ndde.concurrency import thread_count

    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; expected one of {', '.join(workloads.WORKLOADS)}")

    deck = workloads.deck(args.workload, args.seed)
    RUN_DIR.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=RUN_DIR) as workdir, speed.SpeedSampler() as sampler:
        raw_setup = measure_setup(SETUP_PER_SLOT)
        runner = Runner(Path(workdir))

        def calibrated(request):
            output, start, end = runner.timed(request)
            return output, end - start, (end - start) / sampler.slowdown(start, end)

        checks: list[list[str]] = []
        warm_out, _, warm_latency = calibrated(deck.warmup)
        checks.append(verify(deck.warmup, warm_out))

        tracer = tracing.install(tracing.Tracer()) if args.trace else None
        raw: list[float] = []
        latencies: list[float] = []
        outcomes: list[bool] = []
        passes = 0
        while sum(raw) < args.seconds:
            outputs = {}
            for request in deck.requests:
                if tracer is not None:
                    tracer.request = f"{passes}:{request.name}"
                    span = tracer.open("request")
                output, wall, latency = calibrated(request)
                if tracer is not None:
                    tracer.close(span)
                outputs[request.name] = output
                raw.append(wall)
                latencies.append(latency)
                if passes == 0:
                    raw_setup += measure_setup(SETUP_PER_SLOT)
            passes += 1
            # oracles run between passes, outside every timed request
            for request in deck.requests:
                partner = outputs.get(request.params.get("twin_of"))
                bad = verify(request, outputs[request.name], partner)
                checks.append(bad)
                outcomes.append(not bad)

        if tracer is not None:
            counters = dict(tracer.counters)
            spans = list(tracer.spans)
            tracer.request = "overhead-probe"
            span = tracer.open("request")
            probe_out, _, probe_latency = calibrated(deck.warmup)
            tracer.close(span)
            checks.append(verify(deck.warmup, probe_out))
            tracer.uninstall()
            tracer.dump(RUN_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")

    setup = [speed.calibrated_setup(program, reference) for program, reference in raw_setup]

    attempted = len(outcomes)
    passed = sum(outcomes)
    if tracer is None:
        values = end_to_end(setup, passed, attempted, latencies)
    else:
        values = per_layer(spans, counters, attempted, probe_latency / warm_latency)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": passes,
        "samples": {"requests": attempted, "setup": len(setup)},
        "latencies_s": latencies,
        "raw_latencies_s": raw,
        "setup_s": setup,
        "raw_setup_s": [program for program, _ in raw_setup],
        "reference_spawn_s": [reference for _, reference in raw_setup],
        "warmup": {"request": deck.warmup.name, "latency_s": warm_latency},
        "failures": [msg for bad in checks for msg in bad],
        "env": environment(thread_count()),
    }
    print(json.dumps(details))
    print(json.dumps(result_object(checks, attempted, passed, values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
