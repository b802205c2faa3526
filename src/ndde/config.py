"""Run configuration files.

The format is a flat INI dialect chosen so that a whole problem fits in one
screen of plain text: four sections, every value a double-quoted string that
is either an expression over the listed variables or a number.  Example::

    [problem]
    form = "linear-neutral"
    t0 = "0"
    gamma = "1/3"
    r1 = "0.2*t"
    r2 = "0.2*t"
    a = "0.5/(t + 1)"
    b = "sin(t)/7"
    c = "0.01/(t + 1)"
    G = "sin(x)"
    k4 = "1"

    [aux]
    p = "1/(t + 0.2)"
    g = "0.1/(t + 0.1)"

    [history]
    psi = "0.001 + 0*t"

    [run]
    T = "50"

Unknown sections and keys are rejected rather than ignored: a typo in a
coefficient name must not silently zero that coefficient.  Every error the
parser raises carries the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError, NddeError
from .expressions import Expression, parse_expression
from .model import AuxiliarySpec, DelaySpec, HistoryFunction, ProblemSpec

__all__ = ["RunConfig", "load_config", "loads"]


_PROBLEM_COMMON = ("form", "t0", "gamma", "r1", "r2", "a", "c", "G", "k4")
_PROBLEM_LINEAR = ("b",)
_PROBLEM_GENERAL = ("Q", "q_bound", "d", "F", "k2", "k3")
_AUX_KEYS = ("p", "g")
_HISTORY_KEYS = ("psi", "psi_prime")
_RUN_KEYS = ("tmax", "grid", "eps", "T", "step", "tol")
_MIN_GRID = 64  # fewest coarse samples sup_scan accepts
_MAX_GRID = 1 << 20  # most coarse samples a check may ask for; the presets take 4,096

_SECTIONS = ("problem", "aux", "history", "run")


@dataclass(frozen=True)
class RunConfig:
    """A fully validated problem plus the run parameters that drive it.

    ``tmax``/``grid``/``eps`` feed the criterion check, ``T``/``step`` the
    direct integration, ``T``/``tol`` the fixed-point iteration.  Soft
    warnings from the structural validation (monotonicity of the delayed
    arguments and the like) ride along without blocking the load.
    """

    problem: ProblemSpec
    aux: AuxiliarySpec
    history: HistoryFunction
    tmax: float = 10_000.0
    grid: int = 4096
    eps: float = 0.1
    T: float = 50.0
    step: float = 1e-3
    tol: float = 1e-8
    warnings: tuple[str, ...] = ()


# --------------------------------------------------------------------------
# line-level parsing

# each entry: (raw string value, line number it came from)
_Entry = tuple[str, int]


def _split_sections(text: str) -> tuple[dict[str, dict[str, _Entry]], dict[str, int]]:
    sections: dict[str, dict[str, _Entry]] = {}
    headers: dict[str, int] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("malformed section header (missing ']')", lineno)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(
                    f"unknown section [{name}]; expected one of "
                    + ", ".join(f"[{s}]" for s in _SECTIONS),
                    lineno,
                )
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            sections[name] = {}
            headers[name] = lineno
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f'expected key = "value", got {line!r}', lineno)
        if current is None:
            raise ConfigError("key assignment before any section header", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key name", lineno)
        if len(value) < 2 or value[0] != '"' or value[-1] != '"':
            raise ConfigError(
                f"value for {key!r} must be a double-quoted string", lineno
            )
        inner = value[1:-1]
        if '"' in inner:
            raise ConfigError(f"value for {key!r} contains an embedded quote", lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r} in [{current}]", lineno)
        sections[current][key] = (inner, lineno)
    return sections, headers


def _check_keys(section: str, entries: dict[str, _Entry], allowed: tuple[str, ...]):
    for key, (_, lineno) in entries.items():
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} in [{section}]; expected one of "
                + ", ".join(allowed),
                lineno,
            )


def _require(section: str, entries: dict[str, _Entry], key: str, header_line: int) -> _Entry:
    if key not in entries:
        raise ConfigError(f"[{section}] is missing required key {key!r}", header_line)
    return entries[key]


def _expr(entry: _Entry, key: str, variables: tuple[str, ...]) -> Expression:
    raw, lineno = entry
    try:
        return parse_expression(raw, variables)
    except NddeError as exc:
        raise ConfigError(f"{key}: {exc}", lineno) from exc


def _number(entry: _Entry, key: str) -> float:
    raw, lineno = entry
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {raw!r} is not a number", lineno) from exc


def _integer(entry: _Entry, key: str) -> int:
    raw, lineno = entry
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: {raw!r} is not an integer", lineno) from exc


def _fraction(entry: _Entry, key: str) -> Fraction:
    raw, lineno = entry
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key}: {raw!r} is not a fraction", lineno) from exc


# --------------------------------------------------------------------------
# assembly


def loads(text: str, *, validate: bool = True) -> RunConfig:
    """Parse config text into a RunConfig; see :func:`load_config`."""
    sections, headers = _split_sections(text)
    for name in ("problem", "aux", "history"):
        if name not in sections:
            raise ConfigError(f"missing [{name}] section")

    prob = sections["problem"]
    _check_keys("problem", prob, _PROBLEM_COMMON + _PROBLEM_LINEAR + _PROBLEM_GENERAL)
    form_raw, form_line = _require("problem", prob, "form", headers["problem"])
    if form_raw == "linear-neutral":
        allowed = _PROBLEM_COMMON + _PROBLEM_LINEAR
    elif form_raw == "general":
        allowed = _PROBLEM_COMMON + _PROBLEM_GENERAL
    else:
        raise ConfigError(
            f"form: {form_raw!r} is neither 'linear-neutral' nor 'general'", form_line
        )
    _check_keys("problem", prob, allowed)
    for key in allowed:
        _require("problem", prob, key, headers["problem"])

    kwargs = dict(
        form=form_raw,
        t0=_number(prob["t0"], "t0"),
        gamma=_fraction(prob["gamma"], "gamma"),
        r1=DelaySpec(_expr(prob["r1"], "r1", ("t",))),
        r2=DelaySpec(_expr(prob["r2"], "r2", ("t",))),
        a=_expr(prob["a"], "a", ("t",)),
        c=_expr(prob["c"], "c", ("t",)),
        G=_expr(prob["G"], "G", ("x",)),
        k4=_number(prob["k4"], "k4"),
    )
    if form_raw == "linear-neutral":
        kwargs["b"] = _expr(prob["b"], "b", ("t",))
    else:
        kwargs["Q"] = _expr(prob["Q"], "Q", ("t", "x"))
        kwargs["q_bound"] = _expr(prob["q_bound"], "q_bound", ("t",))
        kwargs["d"] = _expr(prob["d"], "d", ("t",))
        kwargs["F"] = _expr(prob["F"], "F", ("x", "y"))
        kwargs["k2"] = _number(prob["k2"], "k2")
        kwargs["k3"] = _number(prob["k3"], "k3")
    try:
        problem = ProblemSpec(**kwargs)
    except NddeError as exc:
        raise ConfigError(f"[problem]: {exc}", headers["problem"]) from exc

    aux_sec = sections["aux"]
    _check_keys("aux", aux_sec, _AUX_KEYS)
    for key in _AUX_KEYS:
        _require("aux", aux_sec, key, headers["aux"])
    try:
        aux = AuxiliarySpec(
            p=_expr(aux_sec["p"], "p", ("t",)),
            g=_expr(aux_sec["g"], "g", ("t",)),
        )
    except NddeError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"[aux]: {exc}", headers["aux"]) from exc

    hist = sections["history"]
    _check_keys("history", hist, _HISTORY_KEYS)
    psi = _expr(_require("history", hist, "psi", headers["history"]), "psi", ("t",))
    psi_prime = (
        _expr(hist["psi_prime"], "psi_prime", ("t",)) if "psi_prime" in hist else None
    )
    history = HistoryFunction(psi, psi_prime)

    run = sections.get("run", {})
    _check_keys("run", run, _RUN_KEYS)
    # a key left out keeps RunConfig's default
    params = {key: (_integer if key == "grid" else _number)(run[key], key) for key in run}
    grid = params.get("grid", RunConfig.grid)
    if not _MIN_GRID <= grid <= _MAX_GRID:
        need = f"at least {_MIN_GRID}" if grid < _MIN_GRID else f"at most {_MAX_GRID}"
        raise ConfigError(
            f"grid: need {need} sample points (the supremum scan's coarse grid), got {grid}",
            run["grid"][1],
        )
    for name in ("tmax", "eps", "step", "tol"):
        if name in run and params[name] <= 0:
            raise ConfigError(f"{name}: must be positive", run[name][1])

    soft: tuple[str, ...] = ()
    if validate:
        # hard failures (negative lags, unit lag slope, nonpositive weight,
        # broken Lipschitz bounds) raise here with a descriptive message
        soft = tuple(problem.validate(tmax=params.get("tmax", RunConfig.tmax), aux=aux))

    return RunConfig(problem=problem, aux=aux, history=history, warnings=soft, **params)


def load_config(path: str | Path, *, validate: bool = True) -> RunConfig:
    """Read and validate a run configuration file.

    Raises ConfigError on syntax problems, unknown or missing keys, and
    unparsable values, always citing the offending line; structural
    rejections (for instance a lag whose slope hits 1, which the neutral
    combination cannot tolerate) surface with the validator's message.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return loads(text, validate=validate)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
