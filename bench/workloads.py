"""Seeded request decks for the three benchmark workloads.

A deck is one untimed warm-up request plus the ordered requests of one
timed pass, which a run repeats.  Every request carries the config text
the program sees (nothing else reaches the program) plus the parameters
its oracle needs.  The same seed gives byte-identical texts.  Seeds 1-10 are the tuning seeds; seed 1009 is held
out for confirming a later claim and was not used while the decks were
tuned.

Parameter ranges are kept narrow on purpose: the spread check runs each
workload under ten different seeds, so a seed may move the inputs but must
not move the cost of a deck by much.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ndde.config import loads
from ndde.criteria import bracket_matching_a, matched_general_form
from ndde.expressions import parse_expression
from ndde.model import AuxiliarySpec, DelaySpec
from ndde.presets import preset_text

HELD_OUT_SEED = 1009

# the benchmark family shares c, G, r2 and (for certify) the auxiliary pair
# with the shipped presets; c is built so the damped tail has a closed form
_C = "0.01*(0.8*t + 0.2)^(1/3) / ((t + 0.1) * (t + 0.2))"
_P = "1/(t + 0.2)"
_G = "0.1/(t + 0.1)"

PRESETS = ("section4", "section4-boundary", "section4-bx10")
# bracket residual rho/(t + 0.1) each preset pins (see ndde.presets)
PRESET_RHO = {"section4": 0.0, "section4-boundary": 0.015, "section4-bx10": 0.0}


@dataclass(frozen=True)
class Request:
    """One call of the public API on one generated config text."""

    name: str
    kind: str  # "check", "picard" or "stability"
    text: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Deck:
    """The untimed warm-up request and the requests of one timed pass."""

    warmup: Request
    requests: list[Request]


def _num(x: float) -> str:
    return repr(float(x))


def _text(problem: list[str], p: str, g: str, run: dict) -> str:
    lines = ["[problem]", *problem, "", "[aux]", f'p = "{p}"', f'g = "{g}"', ""]
    lines += ["[history]", 'psi = "0.001 + 0*t"', "", "[run]"]
    lines += [f'{k} = "{v}"' for k, v in run.items()]
    return "\n".join(lines) + "\n"


def _linear_text(member: dict, p: str, g: str, run: dict) -> str:
    problem = [
        'form = "linear-neutral"',
        't0 = "0"',
        'gamma = "1/3"',
        f'r1 = "{member["r1"]}"',
        'r2 = "0.2*t"',
        f'a = "{member["a"]}"',
        f'b = "{member["b"]}"',
        f'c = "{_C}"',
        'G = "sin(x)"',
        'k4 = "1"',
    ]
    return _text(problem, p, g, run)


def _general_text(spec, p: str, g: str, run: dict) -> str:
    """Render a general-form ProblemSpec back to config text."""
    problem = [
        'form = "general"',
        f't0 = "{_num(spec.t0)}"',
        f'gamma = "{spec.gamma}"',
        f'r1 = "{spec.r1.r}"',
        f'r2 = "{spec.r2.r}"',
        f'a = "{spec.a}"',
        f'c = "{spec.c}"',
        f'G = "{spec.G}"',
        f'k4 = "{_num(spec.k4)}"',
        f'Q = "{spec.Q}"',
        f'q_bound = "{spec.q_bound}"',
        f'd = "{spec.d}"',
        f'F = "{spec.F}"',
        f'k2 = "{_num(spec.k2)}"',
        f'k3 = "{_num(spec.k3)}"',
    ]
    return _text(problem, p, g, run)


def _member(rng: random.Random, p: str, g: str, residual: bool, width: float = 1.0) -> dict:
    """Seeded family member around section4: lag proportion theta, neutral
    amplitude and frequency, and (with ``residual``) a bracket residual
    rho/(t + 0.1); ``a`` is derived so the bracket is pinned to it.
    ``width`` scales how far theta, amplitude and frequency stray."""
    theta = round(0.2 + 0.05 * width * rng.uniform(-1.0, 1.0), 4)
    amp = round(1.0 + 0.3 * width * rng.uniform(-1.0, 1.0), 4)
    freq = round(1.0 + 0.1 * width * rng.uniform(-1.0, 1.0), 4)
    rho = round(rng.uniform(0.008, 0.016), 5) if residual else 0.0
    b = f"{_num(amp)}*sin({_num(freq)}*t)/7"
    r1 = f"{_num(theta)}*t"
    aux = AuxiliarySpec(p=parse_expression(p), g=parse_expression(g))
    res = parse_expression(f"{_num(rho)}/(t + 0.1)") if rho > 0.0 else None
    a = bracket_matching_a(parse_expression(b), DelaySpec(parse_expression(r1)), aux, residual=res)
    return {"rho": rho, "a": str(a), "b": b, "r1": r1}


def certify_deck(seed: int) -> Deck:
    # Why: quadrature and criteria do >90% of the work and the integrator
    # none.  Every request shares one (p, g, c, r2), so reuse of cumulative
    # tables across requests would show here.  The verdicts mix satisfied,
    # violated (presets, twins) and inconclusive (members whose tail slope
    # lands positive).  A pass holds two seeded linear members, each with
    # its general-form twin (seven-term path, ~1.4x its partner's cost), at
    # tmax 200.  At the presets' own size (tmax 1e4, grid 4096) a twin alone
    # takes ~25 s, longer than a whole run, a member's cost moves by +-15%
    # with its parameters, and even the fixed section4 request timed with
    # +-10% noise against +-3% at tmax 200; each moved the median request
    # from run to run.  The presets therefore run as the warm-up.
    rng = random.Random(f"certify:{seed}")
    small = {"tmax": "200", "grid": "512", "eps": "0.1"}
    timed = []
    for i in range(2):
        member = _member(rng, _P, _G, residual=True, width=0.5)
        lin_text = _linear_text(member, _P, _G, small)
        lin_cfg = loads(lin_text, validate=False)
        twin = matched_general_form(lin_cfg.problem, lin_cfg.aux)
        params = {"tmax": 200.0, "rho": member["rho"]}
        timed.append(Request(f"linear{i}", "check", lin_text, params))
        timed.append(Request(f"twin{i}", "check", _general_text(twin, _P, _G, small),
                             {**params, "twin_of": f"linear{i}"}))

    # The warm-up is a preset at its own size, rotated by seed so that the
    # oracles of all three presets run; they differ by ~35% in cost.
    preset = PRESETS[seed % len(PRESETS)]
    params = {"tmax": 10000.0, "rho": PRESET_RHO[preset], "preset": preset}
    return Deck(Request(f"preset:{preset}", "check", preset_text(preset), params), timed)


def picard_deck(seed: int) -> Deck:
    # Why: the only workload in which the operator layer works.  Quadrature
    # is used differently from certify: a short horizon, checkpoints at the
    # mesh step (0.05) instead of 1, and a fresh drift-window table in every
    # iteration.  Each request has its own (p, g), so a cross-request cache
    # of cumulative tables gets no hits.  The cross-check runs one
    # fine-step direct integration.  The iteration count follows the
    # parameters, so they stay close to section4 to keep the cost of a
    # pass nearly seed-independent.  The warm-up repeats the first request:
    # a shorter horizon is no cheaper (T = 5 costs more than T = 20).
    rng = random.Random(f"picard:{seed}")
    run = {"T": "20", "tol": "1e-8", "step": "0.001"}
    deck = []
    for i in range(3):
        kappa = round(rng.uniform(0.195, 0.205), 4)
        lam = round(rng.uniform(0.097, 0.103), 4)
        p = f"1/(t + {_num(kappa)})"
        g = f"{_num(lam)}/(t + 0.1)"
        member = _member(rng, p, g, residual=False, width=0.2)
        text = _linear_text(member, p, g, run)
        deck.append(Request(f"picard{i}", "picard", text))
    return Deck(deck[0], deck)


def stability_deck(seed: int) -> Deck:
    # Why: the integrator and expressions do nearly all of the work and
    # quadrature nothing beyond the horizon scan, so a quadrature or
    # operator change should show no change here.  The four-history family
    # is the only place the concurrency layer acts.  The acceptance test's
    # fixed request (section4, delta 0.00135) runs at the workload horizon
    # instead of T = 2000, which alone would take ~35 s; the warm-up is the
    # same request at the preset's own T = 50.
    rng = random.Random(f"stability:{seed}")
    T = 250
    preset = preset_text("section4")
    fixed = preset.replace('T = "50"', f'T = "{T}"')
    if fixed == preset:
        raise ValueError("the section4 preset no longer sets T = 50; update the stability deck")
    warmup = Request("section4-T50", "stability", preset, {"delta": 0.00135, "fixed": True})
    deck = [Request("section4", "stability", fixed, {"delta": 0.00135, "fixed": True})]
    for i in range(3):
        member = _member(rng, _P, _G, residual=True)
        t_end = int(rng.uniform(0.99, 1.01) * T)
        delta = round(rng.uniform(0.8e-3, 1.2e-3), 6)
        run = {"T": str(t_end), "eps": "0.1"}
        text = _linear_text(member, _P, _G, run)
        deck.append(Request(f"member{i}", "stability", text, {"delta": delta}))
    return Deck(warmup, deck)


_DECKS = {"certify": certify_deck, "picard": picard_deck, "stability": stability_deck}
WORKLOADS = tuple(_DECKS)


def deck(workload: str, seed: int) -> Deck:
    """The request deck of one workload for one seed."""
    if workload not in _DECKS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    return _DECKS[workload](seed)
