"""Machine-speed sampling for calibrated timings.

On a shared host the same request can take 40% longer from one minute to
the next, because other tenants load the cores.  To keep run-to-run spread
below the benchmark's bounds, every timing is scaled to a reference
machine speed: while requests run, a timer signal interrupts the process
every INTERVAL seconds and times a fixed pure-Python workload (an adaptive
Simpson integral, the same kind of work the program does).  A request's
calibrated time is its wall time multiplied by REFERENCE over the mean
probe time measured during it.  Raw wall times are reported next to the
calibrated ones.  The probe is the benchmark's own code, so no change to
the program can move it; it costs about 2% of run time.

Set-up time (a fresh interpreter importing the program, about 0.25 s) is
too short for the probe: on a jittery host the raw figure moved by 40%
between groups of runs while the probe followed it poorly, because
spawning an interpreter is dominated by process creation, file reads and
page faults rather than by interpreter speed.  Each program spawn is
instead paired with a reference spawn that imports standard-library
modules only, timed right after it, and scaled by SPAWN_REFERENCE over
the reference time.  Under the same jitter that ratio moved by 6%.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL = 0.05
# probe time on the reference machine (2-vCPU Xeon, Python 3.11) when
# uncontended; calibrated seconds equal raw seconds at that speed
REFERENCE = 0.00075
# a fresh interpreter that imports standard-library modules only, and its
# spawn-to-ready time on the reference machine when uncontended
SPAWN_REFERENCE_CODE = (
    "import argparse, dataclasses, decimal, fractions, json, sys; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)
SPAWN_REFERENCE = 0.07


def _g(x: float) -> float:
    return math.exp(-0.1 * x) * math.sin(3.0 * x) / (x + 0.2)


def _simpson(a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = _g(lm), _g(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= tol:
        return left + right
    return _simpson(a, m, fa, flm, fm, left, 0.5 * tol, depth - 1) + _simpson(
        m, b, fm, frm, fb, right, 0.5 * tol, depth - 1
    )


def probe() -> float:
    """Seconds taken by one fixed unit of interpreter work."""
    start = time.perf_counter()
    fa, fm, fb = _g(0.0), _g(1.0), _g(2.0)
    _simpson(0.0, 2.0, fa, fm, fb, (fa + 4.0 * fm + fb) / 3.0, 1e-9, 30)
    return time.perf_counter() - start


class SpeedSampler:
    """Times the probe on a timer signal; use as a context manager."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, duration)
        self._previous = None

    def _handler(self, signum, frame):
        duration = probe()
        self.samples.append((time.perf_counter(), duration))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe time over [start, end] relative to REFERENCE."""
        window = [d for t, d in self.samples if start <= t <= end]
        if len(window) < 5:
            window += [probe() for _ in range(5 - len(window))]
        return statistics.fmean(window) / REFERENCE


def calibrated_setup(program: float, reference: float) -> float:
    """A program spawn time scaled by its neighbouring reference spawn."""
    return program * SPAWN_REFERENCE / reference
