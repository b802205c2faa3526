"""
Damped and windowed integrals behind the criterion terms
========================================================

"""

import math

from ndde.quadrature import (
    CumulativeExponent,
    adaptive_simpson,
    weighted_integral,
    window_integral,
)

# The adaptive Simpson rule is exact on cubics and meets the requested
# tolerance on smooth integrands.
val = adaptive_simpson(lambda s: s**3 - 2.0 * s, 0.0, 2.0)
print("int_0^2 (s^3 - 2s) ds =", val, " exact = 0.0")

val = adaptive_simpson(math.exp, 0.0, 1.0, tol=1e-12)
print("int_0^1 e^s ds        =", val, " exact =", math.exp(1.0) - 1.0)

# window_integral is the oriented integral over [t1, t2]; swapping the
# endpoints flips the sign.
fwd = window_integral(math.cos, 0.0, math.pi / 2.0)
bwd = window_integral(math.cos, math.pi / 2.0, 0.0)
print("oriented window: forward =", fwd, " reversed =", bwd)

# CumulativeExponent tabulates the running integral G(t) = int_0^t g at
# checkpoints (unit panels, halved where g varies fast) and adds a 7-point
# Lobatto-Kronrod panel from the last one, so repeated queries along a sweep
# stay cheap.  For the rate
# g(s) = 0.1/(s + 0.1) the closed form is G(t) = 0.1 ln((t + 0.1)/0.1).
g = lambda s: 0.1 / (s + 0.1)
G = CumulativeExponent(g, start=0.0)
for t in (1.0, 30.0, 500.0):
    exact = 0.1 * math.log((t + 0.1) / 0.1)
    print(f"G({t:5.0f}) = {G.cumulative(t):.12f}  closed form = {exact:.12f}")

# weight(s, t) = exp(G(s) - G(t)) is the damping factor over [s, t].
print("weight(0, 30) =", G.weight(0.0, 30.0), " exact =", math.exp(-0.1 * math.log(30.1 / 0.1)))

# The damped integral of the rate itself telescopes:
#   int_0^t exp(-(G(t) - G(s))) g(s) ds = 1 - exp(-G(t)).
for t in (5.0, 50.0, 400.0):
    got = weighted_integral(g, G, t)
    want = 1.0 - math.exp(-0.1 * math.log((t + 0.1) / 0.1))
    print(f"t = {t:5.0f}: damped integral = {got:.12f}  identity = {want:.12f}  diff = {abs(got - want):.2e}")
