"""Cubic Hermite weights, shared by grid functions and trajectories.

Both helpers are plain arithmetic, so they work on floats and, elementwise,
on numpy arrays (the operator gathers a whole set of fixed points at once).
"""

from __future__ import annotations


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
