import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from ndde.errors import DomainError, NonDifferentiableError, ParseError
from ndde.config import loads
from ndde.expressions import Expression, _codegen, differentiate, parse_expression, signed_power
from ndde.presets import preset_text


def test_parse_basic_values():
    e = parse_expression("sin(t)/7")
    assert e(math.pi / 2) == pytest.approx(1 / 7, abs=1e-15)
    e = parse_expression("0.2*t")
    assert e(5.0) == pytest.approx(1.0)
    e = parse_expression("1/(t + 0.2)")
    assert e(0.0) == pytest.approx(5.0)


def test_parse_precedence_and_associativity():
    assert parse_expression("2 + 3 * 4")(0.0) == 14.0
    assert parse_expression("2 - 3 - 4")(0.0) == -5.0
    assert parse_expression("2 / 4 / 2")(0.0) == 0.25
    assert parse_expression("-2^2")(0.0) == -4.0  # unary minus binds looser than ^
    assert parse_expression("2^3^2")(0.0) == 512.0  # right associative
    assert parse_expression("2^-1")(0.0) == 0.5


def test_parse_scientific_notation():
    assert parse_expression("1e-3 + 2.5E2")(0.0) == pytest.approx(250.001)


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_expression("t + $")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse_expression("t + q")
    assert "unknown identifier 'q'" in str(err.value)
    with pytest.raises(ParseError):
        parse_expression("sin(t")
    with pytest.raises(ParseError):
        parse_expression("t + ")
    with pytest.raises(ParseError):
        parse_expression("foo(t)")
    with pytest.raises(ParseError):
        parse_expression("(t))")


def test_multivariable_expressions():
    f = parse_expression("x - y + t", variables=("t", "x", "y"))
    assert f(1.0, 10.0, 3.0) == 8.0
    with pytest.raises(ParseError):
        parse_expression("x + y")  # only t is declared by default


def test_sgnpow_parsing_and_fraction_kept():
    e = parse_expression("sgnpow(t, 1/3)")
    node = e.root
    assert node.exponent == Fraction(1, 3)
    assert e(-8.0) == pytest.approx(-2.0)
    assert e(0.512) == pytest.approx(0.8)
    with pytest.raises(ParseError):
        parse_expression("sgnpow(t, 0.5)")
    with pytest.raises(ParseError):
        parse_expression("sgnpow(t)")


def test_signed_power_values():
    assert signed_power(-8.0, Fraction(1, 3)) == pytest.approx(-2.0)
    assert signed_power(0.512, Fraction(1, 3)) == pytest.approx(
        math.exp(math.log(0.512) / 3)
    )
    assert signed_power(0.0, Fraction(1, 3)) == 0.0
    assert signed_power(4.0, 0.5) == pytest.approx(2.0)
    assert signed_power(-4.0, 0.5) == pytest.approx(-2.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        parse_expression("1/t")(0.0)
    with pytest.raises(DomainError):
        parse_expression("ln(t)")(0.0)
    with pytest.raises(DomainError):
        parse_expression("ln(t)")(-1.0)
    with pytest.raises(DomainError):
        parse_expression("t^0.5")(-4.0)
    with pytest.raises(DomainError):
        parse_expression("t^-2")(0.0)
    with pytest.raises(DomainError):
        parse_expression("exp(t)")(1e9)  # overflow is an error, not inf
    # integer exponents accept negative bases
    assert parse_expression("t^2")(-3.0) == 9.0
    assert parse_expression("t^3")(-2.0) == -8.0


def test_interpreted_and_compiled_agree():
    rng = random.Random(7)
    texts = [
        "sin(t) * cos(t) - exp(-t)",
        "(t + 0.2)^2 / (t + 0.1)",
        "abs(t - 1) + sgnpow(t - 0.5, 1/3)",
        "ln(t + 2) * t^3 - 4",
        "0.1 / (t + 0.1)",
    ]
    for text in texts:
        e = parse_expression(text)
        fn = e.compiled()
        for _ in range(50):
            t = rng.uniform(0.0, 10.0)
            assert fn(t) == pytest.approx(e.evaluate(t=t), rel=1e-15, abs=1e-300)


def _random_node(rng: random.Random, depth: int) -> str:
    if depth == 0:
        return rng.choice(["t", str(rng.randint(1, 9)), repr(rng.uniform(0.1, 3.0))])
    kind = rng.randrange(8)
    a = _random_node(rng, depth - 1)
    b = _random_node(rng, depth - 1)
    if kind == 0:
        return f"({a} + {b})"
    if kind == 1:
        return f"({a} - {b})"
    if kind == 2:
        return f"({a} * {b})"
    if kind == 3:
        return f"({a} / ({b} + 4))"
    if kind == 4:
        return f"-({a})"
    if kind == 5:
        return f"sin({a})"
    if kind == 6:
        return f"({a} + 5)^{rng.randint(1, 3)}"
    return f"sgnpow({a}, {rng.choice(['1/3', '3/5', '1/5'])})"


def test_print_parse_round_trip_on_random_trees():
    rng = random.Random(123)
    for _ in range(200):
        e = parse_expression(_random_node(rng, rng.randint(1, 4)))
        text = str(e)
        again = parse_expression(text)
        assert again.root == e.root, f"round trip changed tree for {text!r}"
        assert str(again) == text


def test_round_trip_keeps_values():
    rng = random.Random(5)
    for _ in range(100):
        e = parse_expression(_random_node(rng, 3))
        again = parse_expression(str(e))
        for _ in range(10):
            t = rng.uniform(0.0, 5.0)
            try:
                v1 = e.evaluate(t=t)
            except DomainError:
                continue
            assert again.evaluate(t=t) == pytest.approx(v1, rel=1e-15, abs=1e-300)


def test_derivative_examples():
    d = differentiate(parse_expression("0.2*t"))
    assert d(3.0) == pytest.approx(0.2)
    d = differentiate(parse_expression("1/(t + 0.2)"))
    assert d(0.0) == pytest.approx(-25.0)
    d = differentiate(parse_expression("sin(t)/7"))
    assert d(0.0) == pytest.approx(1 / 7)


def test_derivative_against_finite_differences():
    rng = random.Random(17)
    texts = [
        "sin(t) * exp(-0.3*t)",
        "(t + 0.2)^3 / (t + 1)",
        "ln(t + 2) + cos(2*t)",
        "t^2 * sin(t) - t / (t + 3)",
        "exp(sin(t))",
        "(2*t + 1)^(1/2)",
    ]
    for text in texts:
        e = parse_expression(text)
        d = differentiate(e).compiled()
        for _ in range(25):
            t = rng.uniform(0.1, 4.0)
            h = 1e-6
            fd = (e(t + h) - e(t - h)) / (2 * h)
            assert d(t) == pytest.approx(fd, rel=5e-7, abs=5e-7)


def test_derivative_rejects_abs_and_sgnpow():
    with pytest.raises(NonDifferentiableError):
        differentiate(parse_expression("abs(t)"))
    with pytest.raises(NonDifferentiableError):
        differentiate(parse_expression("sgnpow(t, 1/3)"))


def test_derivative_of_unused_variable_is_zero():
    e = parse_expression("x^2", variables=("t", "x"))
    assert differentiate(e, "t").is_zero()


def test_substitute_composes():
    q = parse_expression("sin(t)/5.6")
    composed = q.substitute(t=parse_expression("t/0.8"))
    assert composed(0.8) == pytest.approx(math.sin(1.0) / 5.6)


def test_operator_building_matches_parsing():
    t = Expression.variable("t")
    built = (1 + t * t) / (t - 7) - (-t) ** 3
    for v in (2.5, 9.0):
        assert built(v) == pytest.approx((1 + v * v) / (v - 7) - (-v) ** 3)
    # printed form reparses to the identical tree
    assert parse_expression(str(built)).root == built.root


def test_domain_errors_name_expression_and_arguments():
    with pytest.raises(DomainError, match=r"^ln\(t - 5\): math domain error at t=0\.0$"):
        parse_expression("ln(t - 5)")(0.0)
    with pytest.raises(DomainError, match=r"^1 / t: .*division by zero at t=0\.0$"):
        parse_expression("1/t").compiled()(0.0)
    with pytest.raises(DomainError, match=r"^exp\(t\): .* at t=1000000000\.0$"):
        parse_expression("exp(t)")(1e9)
    with pytest.raises(DomainError, match=r"^x / y: .* at x=1\.5, y=0\.0$"):
        parse_expression("x/y", variables=("x", "y"))(1.5, 0.0)
    with pytest.raises(DomainError, match=r"^t\^0\.5: negative base .* at t=-4\.0$"):
        parse_expression("t^0.5")(-4.0)
    # the happy path is unchanged
    assert parse_expression("ln(t - 5)")(6.0) == 0.0


def test_simplify_folds_trivialities():
    e = parse_expression("0*t + 1*t + t^1 + 0")
    assert str(e.simplified()) == "t + t"
    assert parse_expression("2*3 + 1").simplified().root.value == 7.0


def test_evaluate_rejects_unbound_variable():
    e = parse_expression("x", variables=("x",))
    with pytest.raises(DomainError):
        e.evaluate(t=1.0)


# ---------------------------------------------------------------------------
# the array target


def test_array_form_matches_scalar_form_on_random_trees():
    rng = random.Random(321)
    checked = 0
    for _ in range(200):
        e = parse_expression(_random_node(rng, rng.randint(1, 4)))
        ts, expected = [], []
        for _ in range(16):
            t = rng.uniform(-3.0, 5.0)
            try:
                expected.append(e(t))
            except DomainError:
                continue
            ts.append(t)
        got = e.vectorized()(np.array(ts))
        assert got.shape == (len(ts),)
        for g, x in zip(got.tolist(), expected):
            assert g == pytest.approx(x, rel=1e-12, abs=1e-300), str(e)
        checked += len(ts)
    assert checked > 2000


@pytest.mark.parametrize(
    "text, variables, args, message",
    [
        ("ln(t - 5)", ("t",), ([6.0, 7.5, 0.0, -1.0],), r"^ln\(t - 5\): math domain error at t=0\.0$"),
        ("1/t", ("t",), ([2.0, 0.0, 1.0],), r"^1 / t: .*division by zero at t=0\.0$"),
        ("exp(t)", ("t",), ([1.0, 1e9, 2e9],), r"^exp\(t\): .* at t=1000000000\.0$"),
        ("x/y", ("x", "y"), ([1.0, 1.5], [2.0, 0.0]), r"^x / y: .* at x=1\.5, y=0\.0$"),
        ("t^0.5", ("t",), ([4.0, -4.0],), r"^t\^0\.5: negative base .* at t=-4\.0$"),
    ],
)
def test_array_domain_errors_match_the_scalar_message(text, variables, args, message):
    fn = parse_expression(text, variables=variables).vectorized()
    with pytest.raises(DomainError, match=message):
        fn(*(np.array(a) for a in args))


def test_array_form_watches_no_finite_literal():
    # section4's a divides by the literals 7, 0.8, 49 and 0.64; a finite
    # literal can never be non-finite, so the array target checks none
    a = loads(preset_text("section4")).problem.a
    source = _codegen(a.root, {"t": "_a0"}, lambda src: f"_k({src})")
    assert "/ (7.0)" in source and "/ (0.6400000000000001)" in source
    assert not re.search(r"_k\(\(-?\d", source)
    # on literal-only operands the array form is IEEE arithmetic, bitwise
    # the tree walk's; a non-finite literal keeps its watch
    ts = np.linspace(-3.0, 40.0, 301)
    for text in ("(t - 0.2*t + 0.1) / 7 / 0.8 - t^2 / 49 * 0.64 + 2^-3 * t", "t / 1e999 + 1"):
        e = parse_expression(text)
        want = [e.evaluate(t=t).hex() for t in ts.tolist()]
        assert [v.hex() for v in e.vectorized()(ts).tolist()] == want, text
    assert "_k(float('inf'))" in _codegen(
        parse_expression("t / 1e999").root, {"t": "_a0"}, lambda src: f"_k({src})"
    )


def test_array_form_raises_where_the_scalar_form_would_have():
    # an error inside the tree that a later node would turn finite
    # (exp(-inf) = 0, 1/inf = 0) still raises, as the scalar form does
    for text in ("exp(-1/t)", "1/(1/t)", "2^(1/t) * 0 + 1"):
        with pytest.raises(DomainError, match="division by zero at t=0.0"):
            parse_expression(text).vectorized()(np.array([1.0, 0.0]))
    # overflow raises, never returns inf
    for text, x in (("exp(t)", 800.0), ("t * 1e300 * 1e300", 1.0), ("t^400", 1e3)):
        with pytest.raises(DomainError):
            parse_expression(text).vectorized()(np.array([0.5, x]))
    # a constant subtree that fails fails everywhere
    with pytest.raises(DomainError, match="division by zero"):
        parse_expression("t + 1/0").vectorized()(np.array([1.0]))


def test_array_sgnpow_and_constant_trees():
    u = np.array([-8.0, -0.0, 0.0, 0.125])
    assert parse_expression("sgnpow(t, 0)").vectorized()(u).tolist() == [-1.0, 0.0, 0.0, 1.0]
    cube = parse_expression("sgnpow(t, 1/3)").vectorized()(u)
    assert cube.tolist() == pytest.approx([-2.0, 0.0, 0.0, 0.5], rel=1e-15)
    # a constant tree broadcasts to the shape of its arguments
    two = parse_expression("2 + 0.5", variables=("t", "x")).vectorized()
    grid = np.zeros((2, 3))
    assert two(grid, 1.0).shape == (2, 3)
    assert np.all(two(grid, np.zeros(3)) == 2.5)
    # the result is a fresh array, never an argument
    t = np.array([1.0, 2.0])
    same = parse_expression("t").vectorized()(t)
    same[0] = 7.0
    assert t[0] == 1.0


# ---------------------------------------------------------------------------
# repeated subtrees: computed once, same values and errors


def _without_sgnpow(rng: random.Random, depth: int) -> str:
    while True:
        text = _random_node(rng, depth)
        if "sgnpow" not in text:
            return text


def test_repeated_subtree_is_computed_once_with_the_same_values(monkeypatch):
    from ndde import expressions

    calls = []
    scalar, array = expressions.signed_power, expressions._array_sgnpow
    monkeypatch.setattr(expressions, "signed_power", lambda x, e: calls.append(0) or scalar(x, e))
    monkeypatch.setattr(expressions, "_array_sgnpow", lambda x, e: calls.append(1) or array(x, e))
    rng = random.Random(2026)
    checked = 0
    for _ in range(100):
        shared = f"sgnpow({_without_sgnpow(rng, rng.randint(1, 3))}, 1/3)"
        a, b = _without_sgnpow(rng, 2), _without_sgnpow(rng, 2)
        e = parse_expression(f"({shared} + {a}) * sin({shared}) - {b} / ({shared} + 4)")
        ts, expected = [], []
        for _ in range(12):
            t = rng.uniform(-3.0, 5.0)
            try:
                want = e.evaluate(t=t)
            except DomainError:
                with pytest.raises(DomainError):
                    e(t)
                continue
            calls.clear()
            got = e(t)
            assert calls == [0]  # evaluate computes the subtree three times
            assert got.hex() == want.hex(), str(e)
            ts.append(t)
            expected.append(got)
        calls.clear()
        values = e.vectorized()(np.array(ts))
        assert calls == [1]
        for g, x in zip(values.tolist(), expected):
            assert g == pytest.approx(x, rel=1e-12, abs=1e-300), str(e)
        checked += len(ts)
    assert checked > 900


def test_signed_zero_constants_are_not_merged():
    # at t = -0.0 the two factors are 0.0 and -0.0, so the product is -0.0
    e = parse_expression("(t + 0) * (t + -0)")
    assert math.copysign(1.0, e(-0.0)) == -1.0
    assert math.copysign(1.0, e.vectorized()(np.array([-0.0]))[0]) == -1.0


def test_domain_error_in_a_repeated_subtree_keeps_the_scalar_message():
    rng = random.Random(99)
    for _ in range(30):
        a, b = _random_node(rng, 2), _random_node(rng, 2)
        e = parse_expression(f"ln(t - 2) * ({a}) + sin(ln(t - 2)) - {b} / (ln(t - 2) + 4)")
        with pytest.raises(DomainError) as scalar:
            e(1.5)
        assert str(scalar.value) == f"{e}: math domain error at t=1.5"
        with pytest.raises(DomainError) as vector:
            e.vectorized()(np.array([3.0, 2.5, 1.5, 1.0]))
        assert str(vector.value) == str(scalar.value)


# ---------------------------------------------------------------------------
# the process-wide code cache


@pytest.fixture()
def compiles(monkeypatch):
    """(target, repr of the tree, variables) of every compile, in order;
    each test starts from an empty code cache (see conftest)."""
    from ndde import expressions

    made = []
    for target, name in (("scalar", "_compile"), ("array", "_compile_array")):
        def counted(node, variables, compile_=getattr(expressions, name), target=target):
            made.append((target, repr(node), variables))
            return compile_(node, variables)

        monkeypatch.setattr(expressions, name, counted)
    return made


def test_a_second_parse_of_the_same_text_compiles_nothing(compiles):
    first = parse_expression("cos(t) * 7.375 + 0.0625")
    assert first(0.0) == 7.4375
    assert first.vectorized()(np.array([0.0])).tolist() == [7.4375]
    assert [target for target, *_ in compiles] == ["scalar", "array"]
    second = parse_expression("cos(t) * 7.375 + 0.0625")
    assert second(0.0) == 7.4375
    assert second.compiled() is first.compiled() and second.vectorized() is first.vectorized()
    assert len(compiles) == 2


def test_signed_zeros_do_not_share_code(compiles):
    plus, minus = parse_expression("0*t"), parse_expression("-0*t")
    assert not plus.same_code(minus)
    assert math.copysign(1.0, plus(3.0)) == 1.0 and math.copysign(1.0, minus(3.0)) == -1.0
    signs = [math.copysign(1.0, e.vectorized()(np.array([3.0]))[0]) for e in (plus, minus)]
    assert signs == [1.0, -1.0]
    assert len(compiles) == 4


def test_a_tree_keeps_its_code_key_as_its_repr():
    # the key a tree keeps is its repr: printed once, apart for -0.0 and
    # 0.0, and unseen by equality and hashing
    from ndde import expressions

    f = parse_expression("sgnpow(-0*t - sin(t)^2, 5/3) + abs(exp(-t)/(1 + t)) - -3.25")
    trees = [f.root, expressions._piecewise_derivative(f).root, f.substitute(t=parse_expression("2*t")).root]
    trees += [parse_expression(text).root for text in ("0*t", "-0*t", "t", "-t", "3", "ln(t)^t")]
    for root in trees:
        assert expressions._key(root) == repr(root)
        assert root.__dict__["key"] is expressions._key(root)
    assert expressions._key(trees[3]) != expressions._key(trees[4])
    again = parse_expression("sgnpow(-0*t - sin(t)^2, 5/3) + abs(exp(-t)/(1 + t)) - -3.25").root
    assert "key" not in again.__dict__ and again == f.root and hash(again) == hash(f.root)


def test_cached_code_raises_the_fresh_code_error(compiles):
    fresh, cached = parse_expression("ln(t - 1.875) * 3"), parse_expression("ln(t - 1.875) * 3")
    for t in (1.5, 0.25):
        with pytest.raises(DomainError) as first:
            fresh(t)
        with pytest.raises(DomainError) as second:
            cached(t)
        assert str(second.value) == str(first.value) == f"ln(t - 1.875) * 3: math domain error at t={t!r}"
    assert len(compiles) == 1


def test_the_cache_stays_within_its_bound(compiles):
    from ndde import expressions

    for k in range(expressions._CODE_LIMIT + 5):
        assert Expression.constant(k + 0.5)() == k + 0.5
        assert len(expressions._codes) <= expressions._CODE_LIMIT
    assert len(compiles) == expressions._CODE_LIMIT + 5


def test_two_variable_orders_of_one_tree_compile_apart(compiles):
    xy = parse_expression("x - 2.5*y", variables=("x", "y"))
    yx = parse_expression("x - 2.5*y", variables=("y", "x"))
    assert not xy.same_code(yx)
    assert (xy(1.0, 2.0), yx(1.0, 2.0)) == (-4.0, 2.0 - 2.5)
    assert [v for *_, v in compiles] == [("x", "y"), ("y", "x")]


def test_array_code_compiles_its_scalar_form_only_for_a_rerun(compiles):
    e = parse_expression("ln(t - 0.625) + 4.5")
    f = e.vectorized()
    assert f(np.array([1.625, 2.625])).tolist() == [4.5, 4.5 + math.log(2.0)]
    assert [target for target, *_ in compiles] == ["array"]
    with pytest.raises(DomainError) as vector:
        f(np.array([1.625, 0.5, 0.25]))  # ln of a negative value: nan, rerun by the scalar form
    assert [target for target, *_ in compiles] == ["array", "scalar"]
    with pytest.raises(DomainError) as scalar:
        e(0.5)
    assert str(vector.value) == str(scalar.value) == "ln(t - 0.625) + 4.5: math domain error at t=0.5"
    assert len(compiles) == 2


def test_a_stability_request_compiles_each_tree_once_per_target(compiles):
    # the stability deck's fixed section4 request, at the preset's own T
    from ndde.integrator import stability_experiment

    cfg = loads(preset_text("section4"))
    report = stability_experiment(cfg.problem, eps=cfg.eps, delta=0.00135, T=cfg.T, h=0.02)
    assert report.stable
    assert compiles and len(set(compiles)) == len(compiles)
