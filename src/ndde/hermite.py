"""Cubic Hermite weights, shared by grid functions and trajectories.

The weight helpers are plain arithmetic, so they work on floats and,
elementwise, on numpy arrays (the operator gathers a whole set of fixed
points at once).  :func:`hermite_max` is vectorised over cells the same way.
"""

from __future__ import annotations

import numpy as np


def hermite_weights(s, h, slope: bool) -> tuple:
    """Cubic Hermite weights at s = (u - t_i) / h on a panel of width h.

    Value: w0 x_i + w1 x'_i + w2 x_{i+1} + w3 x'_{i+1}.  Slope (w3 is
    None): w0 (x_i - x_{i+1}) + w1 x'_i + w2 x'_{i+1}.  Both are summed
    left to right by :func:`hermite_eval`.
    """
    if slope:
        return ((6 * s * s - 6 * s) / h, 3 * s * s - 4 * s + 1, 3 * s * s - 2 * s, None)
    s2, s3 = s * s, s * s * s
    return (2 * s3 - 3 * s2 + 1, (s3 - 2 * s2 + s) * h, -2 * s3 + 3 * s2, (s3 - s2) * h)


def hermite_eval(w: tuple, x0, d0, x1, d1):
    w0, w1, w2, w3 = w
    if w3 is None:
        return w0 * (x0 - x1) + w1 * d0 + w2 * d1
    return w0 * x0 + w1 * d0 + w2 * x1 + w3 * d1


def hermite_max(x0, d0, x1, d1, h):
    """Largest value of each cell's cubic Hermite, and where: (s, value).

    The cell has width h, end values x0, x1 and end slopes d0, d1; s is
    the fraction of the width at which the maximum sits.  The maximum is
    the larger end or the interior point where the Hermite's slope
    quadratic A s^2 + B s + C turns from + to -, taken in closed form.
    Arguments broadcast; the results are arrays.
    """
    x0, d0, x1, d1, h = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (x0, d0, x1, d1, h))
    )
    jump = 6.0 * (x0 - x1)
    A = jump + 3.0 * h * (d0 + d1)
    B = -jump - h * (4.0 * d0 + 2.0 * d1)
    C = h * d0
    with np.errstate(all="ignore"):
        root = np.sqrt(B * B - 4.0 * A * C)
        # the root where 2 A s + B = -root, in the form that does not cancel
        s = np.where(B <= 0.0, 2.0 * C / (root - B), (-B - root) / (2.0 * A))
        inside = (s > 0.0) & (s < 1.0)  # False for NaN: no interior maximum
        s = np.where(inside, s, 0.0)
        value = hermite_eval(hermite_weights(s, h, False), x0, d0, x1, d1)
    ends = np.maximum(x0, x1)
    interior = inside & (value > ends)
    s_end = np.where(x1 > x0, 1.0, 0.0)
    return np.where(interior, s, s_end), np.where(interior, value, ends)
