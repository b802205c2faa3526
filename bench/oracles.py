"""Correctness oracles for benchmark requests.

Every check compares a request's output against a closed form or against a
second computation, never against stored program output.  Oracles run after
the timed loop, so they cost nothing in the measured latency.  Each returns
a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

# section4 reference value at the preset's own size (tmax 1e4, grid 4096)
SECTION4_ALPHA = 0.6919659355563393
SECTION4_ALPHA_TOL = 1e-6
PRESET_VERDICTS = {
    "section4": "satisfied",
    "section4-boundary": "satisfied",
    "section4-bx10": "violated",
}
CLOSED_FORM_TOL = 1e-8
TWIN_TOL = 1e-9
TWIN_SHARED_TERMS = (
    "neutral_head",
    "drift_window",
    "retarded_bracket",
    "double_window",
    "nonlinear_tail",
)
VERDICT_EXIT = {"satisfied": 0, "violated": 2, "inconclusive": 3}
PICARD_RESIDUAL_MAX = 1e-5
PICARD_CROSSCHECK_MAX = 1e-3
STABILITY_END_MAX = 1e-3
FAMILY_REL_TOL = 1e-9


def parse_summary(text: str) -> dict[str, str]:
    """Flat ``key = value`` lines (check reports and picard summaries)."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def damping_exponent(tmax: float) -> float:
    """G(t) = int_0^t 0.1/(s + 0.1) ds for the family's damping rate."""
    return 0.1 * math.log((tmax + 0.1) / 0.1)


def check_certify(params: dict, out: dict, partner: dict | None = None) -> list[str]:
    """One run_check output: closed-form terms, verdicts, twin agreement."""
    bad = []
    rep = out["report"]
    verdict = rep.get("verdict.bounded")
    if VERDICT_EXIT.get(verdict) != out["code"]:
        bad.append(f"exit code {out['code']} does not match verdict {verdict!r}")
    decay = 1.0 - math.exp(-damping_exponent(params["tmax"]))
    tail = float(rep["term.nonlinear_tail.sup"])
    if not abs(tail - 0.1 * decay) <= CLOSED_FORM_TOL:
        bad.append(f"nonlinear_tail.sup {tail!r} != closed form {0.1 * decay!r}")
    bracket = float(rep["term.retarded_bracket.sup"])
    want = 10.0 * params["rho"] * decay
    if not abs(bracket - want) <= CLOSED_FORM_TOL:
        bad.append(f"retarded_bracket.sup {bracket!r} != closed form {want!r}")
    preset = params.get("preset")
    if preset is not None:
        if verdict != PRESET_VERDICTS[preset]:
            bad.append(f"preset {preset} verdict {verdict!r}, expected {PRESET_VERDICTS[preset]!r}")
        if preset == "section4":
            alpha = float(rep["alpha"])
            if not abs(alpha - SECTION4_ALPHA) <= SECTION4_ALPHA_TOL:
                bad.append(f"section4 alpha {alpha!r} != {SECTION4_ALPHA!r}")
    if params.get("twin_of") is not None:
        if partner is None:
            bad.append("twin has no linear partner output to compare with")
        else:
            lin = partner["report"]
            for label in TWIN_SHARED_TERMS:
                key = f"term.{label}.sup"
                a, b = float(rep[key]), float(lin[key])
                if not abs(a - b) <= TWIN_TOL:
                    bad.append(f"twin {key} {a!r} differs from linear {b!r}")
            if not float(rep["alpha"]) >= float(lin["alpha"]):
                bad.append("twin alpha is below its linear partner's")
    return bad


def check_picard(params: dict, out: dict) -> list[str]:
    """One run_picard output: converged, small residual, methods agree."""
    bad = []
    s = out["report"]
    if out["code"] != 0:
        bad.append(f"exit code {out['code']}")
    if s.get("picard.converged") != "true":
        return bad + ["fixed-point iteration did not converge"]
    res = float(s["picard.residual.sup"])
    if not res < PICARD_RESIDUAL_MAX:
        bad.append(f"residual {res!r} >= {PICARD_RESIDUAL_MAX}")
    diff = float(s["crosscheck.sup_diff"])
    if not diff < PICARD_CROSSCHECK_MAX:
        bad.append(f"cross-method difference {diff!r} >= {PICARD_CROSSCHECK_MAX}")
    return bad


def _same(values) -> bool:
    ref = values[0]
    return all(abs(v - ref) <= FAMILY_REL_TOL * max(abs(ref), 1e-300) for v in values)


def check_stability(params: dict, out: dict) -> list[str]:
    """One stability_experiment output.

    With proportional lags the history interval collapses to t0, so only
    psi(t0) = delta enters and the equation is odd in x: all four members
    must report the same max_abs and end_abs, and max_abs >= delta.
    """
    bad = []
    max_abs, end_abs = out["max_abs"], out["end_abs"]
    if len(max_abs) != 4:
        bad.append(f"expected four family members, got {len(max_abs)}")
    if not _same(max_abs):
        bad.append(f"family max_abs differ: {max_abs!r}")
    if not _same(end_abs):
        bad.append(f"family end_abs differ: {end_abs!r}")
    if min(max_abs) < params["delta"] * (1.0 - 1e-12):
        bad.append("a trajectory never reaches its own starting size delta")
    if params.get("fixed"):
        if not out["stable"]:
            bad.append("fixed section4 request is not eps-stable")
        if not all(e < STABILITY_END_MAX for e in end_abs):
            bad.append(f"fixed section4 end_abs {end_abs!r} not all < {STABILITY_END_MAX}")
    return bad
