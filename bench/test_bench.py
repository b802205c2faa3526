"""Tests of the benchmark itself: generator, oracles, tracer, metric table.

    python3 -m pytest bench/test_bench.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = workloads.deck(workload, 3)
    again = workloads.deck(workload, 3)
    other = workloads.deck(workload, 4)
    texts = [r.text for r in [first.warmup, *first.requests]]
    assert texts == [r.text for r in [again.warmup, *again.requests]]
    assert [r.params for r in first.requests] == [r.params for r in again.requests]
    assert texts != [r.text for r in [other.warmup, *other.requests]]


def test_generated_configs_load():
    from ndde.config import loads

    for workload in workloads.WORKLOADS:
        deck = workloads.deck(workload, workloads.HELD_OUT_SEED)
        for request in [deck.warmup, *deck.requests]:
            loads(request.text, validate=False)


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        workloads.deck("nope", 1)


# ------------------------------------------------------------------ oracles


def _decay(tmax):
    return 1.0 - math.exp(-oracles.damping_exponent(tmax))


def _report(tmax, rho, alpha, verdict, shift=0.0):
    rep = {
        "alpha": repr(alpha),
        "verdict.bounded": verdict,
        "term.neutral_head.sup": repr(0.2232 + shift),
        "term.drift_window.sup": "0.2454",
        "term.retarded_bracket.sup": repr(10.0 * rho * _decay(tmax)),
        "term.double_window.sup": "0.1553",
        "term.nonlinear_tail.sup": repr(0.1 * _decay(tmax)),
    }
    return {"code": oracles.VERDICT_EXIT[verdict], "report": rep}


def test_section4_alpha_oracle_rejects_offset():
    params = {"tmax": 1e4, "rho": 0.0, "preset": "section4"}
    good = _report(1e4, 0.0, oracles.SECTION4_ALPHA, "satisfied")
    assert oracles.check_certify(params, good) == []
    off = _report(1e4, 0.0, oracles.SECTION4_ALPHA + 1e-5, "satisfied")
    assert oracles.check_certify(params, off)


def test_closed_form_terms_reject_perturbation():
    params = {"tmax": 300.0, "rho": 0.01}
    out = _report(300.0, 0.01, 0.7, "satisfied")
    assert oracles.check_certify(params, out) == []
    out["report"]["term.retarded_bracket.sup"] = repr(10.0 * 0.01 * _decay(300.0) + 1e-7)
    assert oracles.check_certify(params, out)


def test_preset_verdict_and_exit_code_checked():
    params = {"tmax": 1e4, "rho": 0.0, "preset": "section4-bx10"}
    assert oracles.check_certify(params, _report(1e4, 0.0, 2.7, "violated")) == []
    assert oracles.check_certify(params, _report(1e4, 0.0, 0.9, "satisfied"))
    wrong_code = _report(1e4, 0.0, 2.7, "violated")
    wrong_code["code"] = 0
    assert oracles.check_certify(params, wrong_code)


def test_twin_oracle_rejects_term_offset():
    params = {"tmax": 300.0, "rho": 0.01, "twin_of": "linear"}
    linear = _report(300.0, 0.01, 0.7, "satisfied")
    twin = _report(300.0, 0.01, 1.5, "violated")
    assert oracles.check_certify(params, twin, linear) == []
    shifted = _report(300.0, 0.01, 1.5, "violated", shift=1e-6)
    assert oracles.check_certify(params, shifted, linear)
    below = _report(300.0, 0.01, 0.6, "satisfied")
    assert oracles.check_certify(params, below, linear)
    assert oracles.check_certify(params, twin, None)


def test_picard_oracle():
    good = {"picard.converged": "true", "picard.residual.sup": "2e-6", "crosscheck.sup_diff": "5e-6"}
    assert oracles.check_picard({}, {"code": 0, "report": good}) == []
    for key, value in (("picard.converged", "false"), ("picard.residual.sup", "2e-5"),
                       ("crosscheck.sup_diff", "2e-3")):
        assert oracles.check_picard({}, {"code": 0, "report": {**good, key: value}})


def test_stability_oracle_rejects_one_member_off():
    params = {"delta": 0.00135, "fixed": True}
    out = {"max_abs": [0.0034] * 4, "end_abs": [2.9e-5] * 4, "stable": True}
    assert oracles.check_stability(params, out) == []
    off = {**out, "end_abs": [2.9e-5, 2.9e-5, 2.9e-5 * (1 + 1e-6), 2.9e-5]}
    assert oracles.check_stability(params, off)
    off = {**out, "max_abs": [0.0034, 0.0035, 0.0034, 0.0034]}
    assert oracles.check_stability(params, off)
    assert oracles.check_stability(params, {**out, "stable": False})
    assert oracles.check_stability(params, {**out, "end_abs": [2e-3] * 4})


def test_failed_request_is_reported():
    request = workloads.Request("x", "check", "", {})
    assert run.verify(request, {"error": "DomainError: boom"}) == ["DomainError: boom"]
    assert run.verify(request, {"code": 0, "report": oracles.parse_summary("alpha = 0.5\n")})


# ------------------------------------------------------------------ tracing


def test_self_and_busy_time_from_spans():
    # request [0, 10] > criteria [1, 9] > quadrature [2, 5] and [6, 8]
    spans = [
        [0, "request", 0.0, 10.0, None, "r"],
        [1, "criteria.evaluate", 1.0, 9.0, 0, "r"],
        [2, "quadrature.sweep", 2.0, 5.0, 1, "r"],
        [3, "quadrature.sweep", 6.0, 8.0, 1, "r"],
    ]
    times = tracing.layer_times(spans)
    assert times["criteria"] == pytest.approx((8.0, 3.0))
    assert times["quadrature"] == pytest.approx((5.0, 5.0))
    assert times["request"] == pytest.approx((10.0, 2.0))


def test_install_and_uninstall_restore_the_program(tmp_path):
    from ndde import cli, expressions, quadrature

    def program():
        return (cli.run_check, quadrature.adaptive_simpson, quadrature.CumulativeExponent.cumulative,
                expressions._compile, expressions.Expression.__call__)

    originals = program()
    tracer = tracing.install(tracing.Tracer())
    try:
        assert quadrature.adaptive_simpson(lambda x: x, 0.0, 1.0) == pytest.approx(0.5)
        assert tracer.counters["quadrature.simpson.calls"] == 1
        assert tracer.counters["quadrature.samples"] >= 5
        expr = expressions.parse_expression("2*t + 1")
        assert expr(1.0) == 3.0 and expr.compiled()(2.0) == 5.0
        assert tracer.counters["expressions.compiles"] == 1
        assert tracer.counters["expressions.evals"] == 2
    finally:
        tracer.uninstall()
    assert program() == originals
    tracer.dump(tmp_path / "spans.jsonl")
    assert json.loads((tmp_path / "spans.jsonl").read_text().splitlines()[-1])["counters"]


# ------------------------------------------------------------------ metrics


def test_metric_names_and_units():
    for m in metrics.END_TO_END + metrics.PER_LAYER:
        assert metrics.NAME_RE.fullmatch(m.name), m.name
        assert m.unit and m.better in ("lower", "higher")
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))


def test_every_metric_is_printed_with_its_unit():
    layer = run.per_layer([], {}, 1, 1.0)
    assert set(layer) == {m.name for m in metrics.PER_LAYER}
    e2e = run.end_to_end([0.3], 3, 3, [6.0, 7.0, 8.0])
    assert set(e2e) == {m.name for m in metrics.END_TO_END}
    result = run.result_object([], 3, 3, e2e)
    for name, entry in result["metrics"].items():
        assert entry == {"value": e2e[name], "unit": metrics.UNITS[name]}


def test_benchmark_json_matches_the_metric_table():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    table = {m.name: m for m in metrics.END_TO_END + metrics.PER_LAYER}
    for group, source in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        assert [e["name"] for e in spec[group]] == [m.name for m in source]
        for entry in spec[group]:
            assert entry["unit"] == table[entry["name"]].unit
            assert entry["better"] == table[entry["name"]].better
