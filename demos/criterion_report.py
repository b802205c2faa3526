"""
Evaluating the boundedness criterion on the built-in benchmark
==============================================================

"""

import json

from ndde import bind, delta_bounds, evaluate_criteria
from ndde.config import loads
from ndde.presets import preset_text

# Load the built-in benchmark: proportional lags, a slowly decaying neutral
# coefficient, and a cube-root response under log-like damping.
cfg = loads(preset_text("section4"))
print("problem form:", cfg.problem.form, " gamma:", cfg.problem.gamma)
print("lags: r1 =", cfg.problem.r1.r, "  r2 =", cfg.problem.r2.r)
print()

# Evaluate every criterion term over a finite sweep horizon.  The report
# carries the term suprema, the contraction constant alpha, damping
# diagnostics, and the resulting verdicts.
report = evaluate_criteria(cfg.problem, cfg.aux, tmax=cfg.tmax, grid=cfg.grid, eps=cfg.eps)
print(report.to_text())
print()

# The same report serializes to JSON (schema shipped in docs/).
with open("criterion_report.json", "w") as fh:
    fh.write(report.to_json())
print("wrote criterion_report.json")
print()

# The history-size bounds can also be recomputed directly from alpha and K
# at any target amplitude; they price the history at t0, so a binding one
# unit past t0 is enough.
bound = bind(cfg.problem, cfg.aux, cfg.problem.t0 + 1.0)
for eps in (0.1, 0.01):
    bounds = delta_bounds(report.alpha, report.K, eps, bound)
    print(f"eps = {eps}: delta_existence = {bounds.existence:.3e}  delta_uniform = {bounds.uniform:.3e}")
print()

# Scaling the sin-driven neutral coefficient up tenfold pushes the term sum
# past 1, and the verdict flips.
cfg10 = loads(preset_text("section4-bx10"))
report10 = evaluate_criteria(cfg10.problem, cfg10.aux, tmax=300.0, grid=512, eps=0.1)
print("tenfold neutral coefficient: alpha =", round(report10.alpha, 4), "->", report10.verdict_bounded)
doc = json.loads(report10.to_json())
print("JSON delta block when violated:", doc["delta"])
