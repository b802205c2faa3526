"""Seeded fuzz of the stability family over mutated section4 problems.

A family is stepped in lockstep, its blocks as one array call for all
members, and a block that raises is redone member by member.  Whatever the
coefficients and histories do, a family run must either return members
that each equal their own ``integrate`` run byte for byte, or raise one
``NddeError`` whose text is the error of some member's own run; no other
exception and no numpy warning.  The mutations put domain errors, poles,
overflow and kinks into the coefficients, the lags and the histories;
lags that reach below t0 make the blocks read the histories, and a
history with a gap in its domain fails one member's blocks alone.  Each
family also holds members that start alike: one history twice, one text
parsed twice, and a history that starts where another does but differs
below t0, so members share rows and, where a lag reads the history, part.
"""

import random
import warnings

import pytest

from ndde import HistoryFunction, NddeError, integrate, integrator, parse_expression
from ndde.config import loads
from ndde.presets import preset_text

_HOSTILE = (
    "ln(t - {x})",
    "1/(t - {x})",
    "sgnpow(t - {x}, -1/3)",
    "exp({k}*t)",
    "(t - {x})^0.5",
    "abs(t - {x})",
    "sin({k}*t)/(t - {x})",
    "{k}",
)
# both lags; constant ones most often: they read the history on [-y, 0]
_LAGS = ("{y} + 0*t", "{y} + 0*t", "{y} + 0.1*sin(t)", "0.2*t", "{y}*t", "(t - {x})^2")
# lags that vanish at t0 and send the delayed time below t0 later: rows
# shared at the junction part where the history is read again
_PARTING_LAGS = ("{y}*t^2", "{y}*t^2 + 0.1*t", "{y}*t^3")
_T, _H = 4.0, 0.04


def _hostile(rng: random.Random, lo: float, hi: float) -> str:
    x = repr(round(rng.uniform(lo, hi), 3))
    return rng.choice(_HOSTILE).format(x=x, k=repr(round(rng.uniform(-30.0, 30.0), 2)))


def _mutate(rng: random.Random, value: str, lo: float, hi: float) -> str:
    """``value`` with a pole, a domain edge or a kink placed in [lo, hi]."""
    kind = rng.randrange(3)
    if kind == 0:
        return _hostile(rng, lo, hi)
    if kind == 1:
        return f"({value}) {rng.choice('+-*/')} {_hostile(rng, lo, hi)}"
    return value.replace("t", f"(t - {round(rng.uniform(lo, hi), 3)!r})", 1)


def _case(rng: random.Random):
    """A mutated section4 problem and a seven-member history family."""
    lines = preset_text("section4").split("\n")
    keyed = [n for n, line in enumerate(lines) if line.split(" = ")[0] in ("a", "b", "c")]
    for n in rng.sample(keyed, rng.randint(0, 2)):
        key, _, quoted = lines[n].partition(" = ")
        lines[n] = f'{key} = "{_mutate(rng, quoted.strip(chr(34)), -1.0, _T + 0.5)}"'
    y = round(rng.uniform(0.3, 1.5), 3)
    if rng.random() < 0.8:
        lag = rng.choice(_LAGS).format(y=repr(y), x=repr(round(rng.uniform(0.0, _T), 3)))
        lines = [f'{line[:2]} = "{lag}"' if line[:5] in ("r1 = ", "r2 = ") else line for line in lines]
    family, texts = [], []
    for label, psi in (
        ("plus", "0.001 + 0*t"),
        ("minus", "-0.001 + 0*t"),
        ("cosine", "0.001 * cos(t)"),
        ("ramp", "0.001 * (1 + t)"),
    ):
        # a constant lag y reads the history on [-y, 0]; a gap (x, z) there
        # in the domain of a history fails that member's blocks alone
        if rng.random() < 0.2:
            psi = _mutate(rng, psi, -y - 0.1, 0.2)
        elif rng.random() < 0.3:
            x = round(rng.uniform(0.2 - y, -0.1), 3)
            z = round(x + rng.uniform(0.02, min(0.3, -0.05 - x)), 3)
            psi = f"{psi} + 0.001 * ((t - {x!r}) * (t - {z!r}))^0.5"
        family.append((label, HistoryFunction(parse_expression(psi))))
        texts.append(psi)
    family += [
        ("plus_again", family[0][1]),
        ("cosine_again", HistoryFunction(parse_expression(texts[2]))),
        ("plus_start", HistoryFunction(parse_expression("0.001 * cos(2*t)"))),
    ]
    return "\n".join(lines), family


def _parting_case(rng: random.Random):
    """A section4 problem, one of its a, b, c mutated half the time, both
    lags one of ``_PARTING_LAGS``, and the seven-member family of ``_case``
    without domain gaps (a parting lag reads the whole history interval)."""
    lines = preset_text("section4").split("\n")
    if rng.random() < 0.5:
        n = rng.choice([n for n, line in enumerate(lines) if line.split(" = ")[0] in ("a", "b", "c")])
        key, _, quoted = lines[n].partition(" = ")
        lines[n] = f'{key} = "{_mutate(rng, quoted.strip(chr(34)), -1.0, _T + 0.5)}"'
    lag = rng.choice(_PARTING_LAGS).format(y=repr(round(rng.uniform(0.3, 1.5), 3)))
    lines = [f'{line[:2]} = "{lag}"' if line[:5] in ("r1 = ", "r2 = ") else line for line in lines]
    psis = ("0.001 + 0*t", "-0.001 + 0*t", "0.001 * cos(t)", "0.001 * (1 + t)")
    family = [
        (label, HistoryFunction(parse_expression(psi)))
        for label, psi in zip(("plus", "minus", "cosine", "ramp"), psis)
    ]
    family += [
        ("plus_again", family[0][1]),
        ("cosine_again", HistoryFunction(parse_expression(psis[2]))),
        ("plus_start", HistoryFunction(parse_expression("0.001 * cos(2*t)"))),
    ]
    return "\n".join(lines), family


def _own(problem, psi):
    """A member's own run: its trajectory, or its error."""
    try:
        return integrate(problem, psi, T=_T, h=_H)
    except NddeError as exc:
        return exc


def test_family_runs_equal_member_runs_or_raise_a_member_error(monkeypatch):
    built, calls, redone, shared, split = [], [], 0, 0, 0

    class Recording(integrator.Trajectory):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            built.append(self)

    advance = integrator._Lockstep._advance
    share, unshare = integrator._Lockstep._share, integrator._Lockstep._split

    def logged(self, stages, rhs, s, sl, members):
        single = advance(self, stages, rhs, s, sl, members)
        calls.append((s, list(members), single is None))
        return single

    def shares(self):
        nonlocal shared
        share(self)
        shared += self.counts["rows"] < len(self.xs)

    def splits(self, members):
        nonlocal split
        split += bool(self._unsafe and self._read_history)
        return unshare(self, members)

    monkeypatch.setattr(integrator, "Trajectory", Recording)
    monkeypatch.setattr(integrator._Lockstep, "_advance", logged)
    monkeypatch.setattr(integrator._Lockstep, "_share", shares)
    monkeypatch.setattr(integrator._Lockstep, "_split", splits)
    rng = random.Random(20261019)
    outcomes = []
    for case in range(60):
        text, family = _case(rng)
        try:
            problem = loads(text).problem
        except NddeError:
            continue
        built.clear()
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                integrator.stability_experiment(
                    problem, eps=1.0, delta=0.001, T=_T, psi_family=family, h=_H
                )
                error = None
            except NddeError as exc:
                error = exc
            except BaseException as exc:  # noqa: BLE001 - any other type is the failure
                pytest.fail(f"case {case} raised {exc!r} on:\n{text}\n{family}")
            members = list(built)
            own = [_own(problem, psi) for _, psi in family]
        # a family block that raised is redone by each of its members alone
        for n, (s, group, raised) in enumerate(calls):
            if raised and len(group) > 1:
                assert calls[n + 1 : n + 1 + len(group)] == [
                    (s, [j], calls[n + 1 + q][2]) for q, j in enumerate(group)
                ], case
                redone += 1
        if error is None:
            assert len(members) == len(family), case
            for member in members:
                solo = own[next(j for j, (_, psi) in enumerate(family) if psi is member.history)]
                assert isinstance(solo, integrator.Trajectory), (case, solo)
                assert member.h == solo.h
                for got, want in (
                    (member.nodes, solo.nodes),
                    (member.values, solo.values),
                    (member.derivatives, solo.derivatives),
                ):
                    assert got.tobytes() == want.tobytes(), case
        else:
            errors = [(type(e), str(e)) for e in own if isinstance(e, NddeError)]
            assert (type(error), str(error)) in errors, (case, error, errors)
        outcomes.append(error is None)
    # both outcomes occur, and some blocks were redone member by member
    assert len(outcomes) > 40 and any(outcomes) and not all(outcomes)
    assert redone >= 5
    # the duplicates share rows in every family; a lag y t with y > 1 reads
    # the history from the first step, so a case parts its rows there
    assert shared >= 40 and split >= 1


def test_families_whose_rows_part_equal_member_runs(monkeypatch):
    # a case set of its own seed, every lag vanishing at t0 and reaching
    # below t0 later, so that members sharing a row at the junction part
    # when the history is read again, and some of those families succeed
    built, runs = [], []

    class Recording(integrator.Trajectory):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            built.append(self)

    share = integrator._Lockstep._share

    def shares(self):
        share(self)
        runs.append((self, self.counts["rows"]))

    monkeypatch.setattr(integrator, "Trajectory", Recording)
    monkeypatch.setattr(integrator._Lockstep, "_share", shares)
    rng = random.Random(20261020)
    parted_and_passed = 0
    for case in range(24):
        text, family = _parting_case(rng)
        try:
            problem = loads(text).problem
        except NddeError:
            continue
        built.clear()
        runs.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                integrator.stability_experiment(
                    problem, eps=1.0, delta=0.001, T=_T, psi_family=family, h=_H
                )
                error = None
            except NddeError as exc:
                error = exc
            members = list(built)
            own = [_own(problem, psi) for _, psi in family]
        if error is not None:
            errors = [(type(e), str(e)) for e in own if isinstance(e, NddeError)]
            assert (type(error), str(error)) in errors, (case, error, errors)
            continue
        assert len(members) == len(family), case
        for member in members:
            solo = own[next(j for j, (_, psi) in enumerate(family) if psi is member.history)]
            assert isinstance(solo, integrator.Trajectory), (case, solo)
            for got, want in (
                (member.nodes, solo.nodes),
                (member.values, solo.values),
                (member.derivatives, solo.derivatives),
            ):
                assert got.tobytes() == want.tobytes(), case
        parted_and_passed += any(run.counts["rows"] > rows for run, rows in runs)
    assert parted_and_passed >= 10  # 19 of the 24 cases here
