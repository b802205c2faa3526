"""Ready-made run configurations for the log-damped benchmark family.

All three presets share the proportional-lag skeleton (both lags 0.2*t, weight
1/(t + 0.2), damping rate 0.1/(t + 0.1)) and differ in the neutral
coefficient.  The retarded coefficient is not hand-written: it is derived
symbolically so that the delayed bracket term of the contraction criterion is
pinned exactly (to zero, or to a decaying residual for the boundary variant),
then rendered back to expression text.

* ``section4``          the reference problem; criterion sum 0.6919659355560066.
* ``section4-boundary`` bracket pinned to 0.015/(t + 0.1) instead of zero, so
                        the criterion sum sits closer to 1 while staying under.
* ``section4-bx10``     neutral coefficient scaled by ten; the criterion sum
                        blows past 1, so nothing is certified.  The
                        fixed-point iteration still converges (T = 8, tol
                        1e-8: 32 iterations, step ratios up to 2.25) but
                        leaves the |z| <= 1 ball (sup |z| about 10.9), which
                        ``PicardResult.cap_exceeded`` reports.  Useful for
                        exercising the failure paths.
"""

from __future__ import annotations

from pathlib import Path

from .criteria import bracket_matching_a
from .expressions import parse_expression
from .model import AuxiliarySpec, DelaySpec

__all__ = ["available", "preset_text", "write_preset"]

_TEMPLATE = """\
# Log-damped neutral benchmark: proportional lags and a matched retarded
# coefficient (derived so the bracket term of the criterion is pinned).
{extra_comment}
[problem]
form = "linear-neutral"
t0 = "0"
gamma = "1/3"
r1 = "0.2*t"
r2 = "0.2*t"
a = "{a}"
b = "{b}"
c = "0.01*(0.8*t + 0.2)^(1/3) / ((t + 0.1) * (t + 0.2))"
G = "sin(x)"
k4 = "1"

[aux]
p = "1/(t + 0.2)"
g = "0.1/(t + 0.1)"

[history]
psi = "0.001 + 0*t"

[run]
tmax = "10000"
grid = "4096"
eps = "0.1"
T = "50"
step = "0.001"
tol = "1e-8"
"""

# preset name -> (neutral coefficient, bracket residual, comment line)
_VARIANTS: dict[str, tuple[str, str | None, str]] = {
    "section4": (
        "sin(t)/7",
        None,
        "# Reference parameters; expected verdict: satisfied.",
    ),
    "section4-boundary": (
        "sin(t)/7",
        "0.015/(t + 0.1)",
        "# Bracket pinned to a decaying residual; still satisfied, less slack.",
    ),
    "section4-bx10": (
        "10*sin(t)/7",
        None,
        "# Neutral coefficient scaled by ten; expected verdict: violated.",
    ),
}


def available() -> tuple[str, ...]:
    return tuple(sorted(_VARIANTS))


def preset_text(name: str) -> str:
    """Config file content for the named preset (byte-deterministic)."""
    if name not in _VARIANTS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(available())}")
    b_text, residual, comment = _VARIANTS[name]
    aux = AuxiliarySpec(
        p=parse_expression("1/(t + 0.2)"),
        g=parse_expression("0.1/(t + 0.1)"),
    )
    delay = DelaySpec(parse_expression("0.2*t"))
    res = parse_expression(residual) if residual is not None else None
    a = bracket_matching_a(parse_expression(b_text), delay, aux, residual=res)
    return _TEMPLATE.format(a=a, b=b_text, extra_comment=comment)


def write_preset(name: str, directory: str | Path = ".") -> Path:
    """Materialize the named preset as ``<name>.cfg`` under ``directory``."""
    path = Path(directory) / f"{name}.cfg"
    path.write_text(preset_text(name))
    return path
