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

``_KEYS`` lists every key of every section and how its value is read, the
``[problem]`` keys as the common ones and then each form's own.  A number
must be finite and obey the API's rule of its name (``model.ARGUMENT_RULES``;
a file also refuses ``tmax`` and ``tol`` at or below zero), which
:func:`run_value` also applies to the command-line overrides.

Unknown sections and keys are rejected rather than ignored: a typo in a
coefficient name must not silently zero that coefficient.  Every error the
parser raises carries the offending line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import ConfigError, NddeError
from .expressions import parse_expression
from .model import ARGUMENT_RULES, AuxiliarySpec, DelaySpec, HistoryFunction, ProblemSpec, argument_fault

__all__ = ["RunConfig", "load_config", "loads", "run_value"]


# how a key's value is read: a tuple names the variables of an expression,
# a type converts the text (str, float, int or Fraction)
_T = ("t",)
_PROBLEM = {
    "form": str, "t0": float, "gamma": Fraction, "r1": _T, "r2": _T,
    "a": _T, "c": _T, "G": ("x",), "k4": float,
}
_FORMS = {
    "linear-neutral": {"b": _T},
    "general": {"Q": ("t", "x"), "q_bound": _T, "d": _T, "F": ("x", "y"), "k2": float, "k3": float},
}
_KEYS = {
    "problem": {**_PROBLEM, **_FORMS["linear-neutral"], **_FORMS["general"]},
    "aux": {"p": _T, "g": _T},
    "history": {"psi": _T, "psi_prime": _T},
    "run": {"tmax": float, "grid": int, "eps": float, "T": float, "step": float, "tol": float},
}
_OPTIONAL = ("psi_prime", *_KEYS["run"])  # a [run] key left out keeps RunConfig's default
_NOUNS = {float: "a number", int: "an integer", Fraction: "a fraction"}
_RULES = {**ARGUMENT_RULES, "tmax": "positive", "tol": "positive"}  # stricter in a file than in the API


@dataclass(frozen=True)
class RunConfig:
    """A fully validated problem plus the run parameters that drive it.

    ``tmax``/``grid``/``eps`` feed the criterion check, ``T``/``step`` the
    direct integration, ``T``/``tol`` the fixed-point iteration.  In
    ``picard``'s cross-check, ``step`` only sets a floor: its direct runs
    take min(step, 1e-3) or a coarser step that a Richardson pair
    certifies (see ``cli._crosscheck``).  Soft
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
            if name not in _KEYS:
                raise ConfigError(
                    f"unknown section [{name}]; expected one of "
                    + ", ".join(f"[{s}]" for s in _KEYS),
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
        key, _, value = (part.strip() for part in line.partition("="))
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


def _read(key: str, raw: str, line: int | None, how):
    """One value read as ``how`` says; a number must be finite and obey its rule."""
    if isinstance(how, tuple):
        try:
            return parse_expression(raw, how)
        except NddeError as exc:
            raise ConfigError(f"{key}: {exc}", line) from exc
    try:
        value = how(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{key}: {raw!r} is not {_NOUNS[how]}", line) from exc
    if how is float and not math.isfinite(value):
        raise ConfigError(f"{key}: {raw!r} is not a finite number", line)
    fault = key in _RULES and argument_fault(value, _RULES[key])
    if fault:  # an out-of-range whole number is named; a sign refusal has its line
        raise ConfigError(f"{key}: {fault}" + (f", got {value}" if how is int else ""), line)
    return value


def run_value(key: str, raw: str):
    """A ``[run]`` value given outside a file (a command-line override),
    read by the same rule as in a file; raises ConfigError without a line."""
    return _read(key, raw, None, _KEYS["run"][key])


def _section(
    sections: dict[str, dict[str, _Entry]], headers: dict[str, int], name: str, table: dict
) -> dict:
    """The values of one section, checked against and read by ``table``."""
    entries = sections.get(name, {})
    _check_keys(name, entries, tuple(table))
    for key in table:
        if key not in _OPTIONAL:
            _require(name, entries, key, headers[name])
    return {key: _read(key, *entries[key], how) for key, how in table.items() if key in entries}


# --------------------------------------------------------------------------
# assembly


def loads(text: str, *, validate: bool = True) -> RunConfig:
    """Parse config text into a RunConfig; see :func:`load_config`."""
    sections, headers = _split_sections(text)
    for name in ("problem", "aux", "history"):
        if name not in sections:
            raise ConfigError(f"missing [{name}] section")

    prob = sections["problem"]
    _check_keys("problem", prob, tuple(_KEYS["problem"]))
    form, form_line = _require("problem", prob, "form", headers["problem"])
    if form not in _FORMS:
        raise ConfigError(
            f"form: {form!r} is neither 'linear-neutral' nor 'general'", form_line
        )
    values = _section(sections, headers, "problem", {**_PROBLEM, **_FORMS[form]})
    # equal lags share one DelaySpec, so that its lag, slope and tau compile once
    r1 = values["r1"] = DelaySpec(values["r1"])
    values["r2"] = r1 if r1.r.same_code(values["r2"]) else DelaySpec(values["r2"])
    try:
        problem = ProblemSpec(**values)
    except NddeError as exc:
        raise ConfigError(f"[problem]: {exc}", headers["problem"]) from exc

    values = _section(sections, headers, "aux", _KEYS["aux"])
    try:
        aux = AuxiliarySpec(**values)
    except NddeError as exc:
        raise ConfigError(f"[aux]: {exc}", headers["aux"]) from exc

    history = HistoryFunction(**_section(sections, headers, "history", _KEYS["history"]))
    params = _section(sections, headers, "run", _KEYS["run"])

    soft: tuple[str, ...] = ()
    if validate:
        # hard failures (negative lags, unit lag slope, nonpositive weight,
        # broken Lipschitz bounds) raise here with a descriptive message
        soft = tuple(problem.validate(tmax=params.get("tmax", RunConfig.tmax), aux=aux))

    return RunConfig(problem=problem, aux=aux, history=history, warnings=soft, **params)


def load_config(path: str | Path, *, validate: bool = True) -> RunConfig:
    """Read and validate a run configuration file.

    Raises ConfigError on syntax problems, unknown or missing keys, and
    unparsable or non-finite values, always citing the offending line;
    structural rejections (for instance a lag whose slope hits 1, which the
    neutral combination cannot tolerate) surface with the validator's message.
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
