"""Seeded fuzz of the command line over mutated preset texts.

Every input must end in a verdict (exit 0, 2 or 3) or in exactly one
``error:`` line with exit 1, never in a Python traceback.  The mutations put
domain errors, poles and kinks into the coefficients (so array evaluations
fail and their scalar reruns raise), break the syntax, and drop or repeat
lines.  Horizons are short so that the whole run stays within seconds;
``picard`` runs at T = 2.
"""

import contextlib
import io
import random

import pytest

from ndde.cli import main
from ndde.presets import available, preset_text

_HOSTILE = (
    "ln(t - {x})",
    "1/(t - {x})",
    "sgnpow(t - {x}, -1/3)",
    "exp({k}*t)",
    "(t - {x})^0.5",
    "abs(t - {x})",
    "sin({k}*t)/(t - {x})",
    "t^-2",
    "1/0",
    "0",
    "-1",
    "{x}",
)


# the coefficient expressions; other lines are mutated one time in five
_COEFFICIENTS = ("r1", "r2", "a", "b", "c", "G", "p", "g", "psi")


def _mutate(rng: random.Random, text: str) -> str:
    lines = text.split("\n")
    keyed = [n for n, line in enumerate(lines) if ' = "' in line]
    if rng.random() < 0.8:
        keyed = [n for n in keyed if lines[n].partition(" = ")[0] in _COEFFICIENTS]
    i = rng.choice(keyed)
    key, _, quoted = lines[i].partition(" = ")
    value = quoted.strip('"')
    x = repr(round(rng.uniform(-2.0, 25.0), 3))
    hostile = rng.choice(_HOSTILE).format(x=x, k=repr(round(rng.uniform(-3.0, 3.0), 2)))
    kind = rng.randrange(7)
    if kind == 0:
        value = hostile
    elif kind == 1:
        value = f"({value}) {rng.choice('+-*/')} {hostile}"
    elif kind == 2 and value:
        j = rng.randrange(len(value))
        value = value[:j] + rng.choice("()+-*/^t.0x,") + value[j + 1 :]
    elif kind == 3:
        digits = [j for j, ch in enumerate(value) if ch.isdigit()]
        if digits:
            j = rng.choice(digits)
            value = value[:j] + str(rng.randrange(10)) + value[j + 1 :]
    elif kind == 4:
        del lines[i]
        return "\n".join(lines)
    elif kind == 5:
        lines.insert(i, lines[i])
        return "\n".join(lines)
    else:
        value = value.replace("t", f"(t - {x})", 1)
    lines[i] = f'{key} = "{value}"'
    return "\n".join(lines)


def _short(text: str) -> str:
    for long, short in (
        ('tmax = "10000"', 'tmax = "20"'),
        ('grid = "4096"', 'grid = "64"'),
        ('T = "50"', 'T = "2"'),
        ('step = "0.001"', 'step = "0.01"'),
    ):
        assert long in text
        text = text.replace(long, short)
    return text


# picard cases, drawn after the check and simulate ones
_PICARD_CASES = 40


def test_mutated_presets_end_in_a_verdict_or_one_error_line(tmp_path, capsys):
    rng = random.Random(20261018)
    path = tmp_path / "fuzz.cfg"
    codes = []
    errors = []
    for case in range(80 + _PICARD_CASES):
        text = _short(preset_text(rng.choice(available())))
        for _ in range(rng.randint(1, 2)):
            text = _mutate(rng, text)
        command = rng.choice(("check", "simulate")) if case < 80 else "picard"
        path.write_text(text)
        args = [command, str(path)] + (["--T", "2"] if command == "picard" else [])
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(args)
        except BaseException as exc:  # noqa: BLE001 - the traceback is the failure
            pytest.fail(f"case {case} ({command}) raised {exc!r} on:\n{text}")
        err = capsys.readouterr().err
        assert "Traceback" not in err, (case, text)
        assert code in (0, 1, 2, 3), (case, code, text)
        lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(lines) == (1 if code == 1 else 0), (case, lines, text)
        codes.append(code)
        errors += lines
    # the inputs reach verdicts as well as errors, among them errors met by
    # evaluating coefficients on arrays
    assert {0, 1, 2} <= set(codes)
    assert any("math domain error at t=" in line for line in errors)
    assert any(line.startswith("error: sweep of ") for line in errors)
