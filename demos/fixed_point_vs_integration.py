"""
Fixed-point solve versus direct integration on the benchmark
============================================================

"""

import numpy as np

from ndde import (
    horizon,
    integrate,
    picard_solve,
    reconstruct_x,
    residual,
    transformed_history,
)
from ndde.config import loads
from ndde.presets import preset_text

cfg = loads(preset_text("section4"))
T = 20.0

# Route one: iterate the integral-operator fixed point for the transformed
# variable z, then map back to x through the weight p.
result = picard_solve(cfg.problem, cfg.aux, cfg.history, T=T, tol=1e-8)
print("iterations =", result.iterations, " converged =", result.converged)
print("successive-sweep ratios:", [round(r, 4) for r in result.ratios[:6]], "...")
res = residual(result)
print("operator residual sup =", res)
x_fixed = reconstruct_x(result.z, cfg.aux, cfg.problem.t0)

# Route two: integrate the equation for x directly from the matching
# history on the lag horizon.
m = horizon(cfg.problem, T).m
history_x = transformed_history(cfg.problem, cfg.aux, cfg.history, m)
trajectory = integrate(cfg.problem, history_x, T=T, h=1e-3)
print("direct integration nodes =", len(trajectory.nodes))

# The two routes should agree everywhere, not just at the endpoints.
probes = np.linspace(cfg.problem.t0, T, 801)
sup = np.max(np.abs(x_fixed.eval_array(probes) - trajectory.eval_array(probes)))
print("sup |x_fixed - x_direct| on [0, 20] =", sup)

# Both solutions can be dumped for plotting elsewhere.
x_fixed.to_csv("fixed_point_x.csv")
trajectory.to_csv("direct_x.csv")
print("wrote fixed_point_x.csv and direct_x.csv")
