"""Symbolic scalar expressions: parsing, evaluation, differentiation.

Coefficient functions (equation coefficients, delays, the auxiliary pair,
histories) are kept as small expression trees rather than opaque callables so
that the derivatives the stability criteria need (delay slopes, p', the
neutral-combination derivative) are exact.

Grammar (EBNF in docs/grammar.ebnf):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := NUMBER | VARIABLE | FUNC "(" expr ")"
            | "sgnpow" "(" expr "," RATIONAL ")" | "(" expr ")"

Functions: sin, cos, exp, ln, abs, sgnpow.  ``sgnpow(x, p/q)`` is the signed
power sign(x) * |x|^(p/q); its exponent is stored as an exact Fraction so odd
denominators survive round-trips.  ``^`` with an integer literal exponent
accepts negative bases; any other exponent requires a positive base.

Evaluation is total on the declared domain: division by zero, ln of a
non-positive argument, an illegal power, or a non-finite result raise
DomainError instead of silently producing inf/nan.

An expression compiles to two targets.  ``compiled()`` is a scalar Python
function over ``math``.  ``vectorized()`` takes numpy arrays (broadcast
together; a constant tree broadcasts to their shape) and maps sin, cos,
exp, ln and abs to the numpy functions and ``sgnpow`` to
copysign(|x|^e, x) with 0 sent to 0.  It runs with floating-point warnings
off and checks the result, and every intermediate that could turn an
error into a finite value (a denominator, an exponential's argument, a
power's operands), for non-finite elements.  Those elements are rerun by
the scalar form in the arrays' order, which raises the scalar form's
DomainError, text included, at the first one that fails; the scalar form
is compiled only when such a rerun needs it.  Both targets compute each
repeated subexpression once (see ``_codegen``).

Compiled code is kept in one process-wide cache, as ``re`` keeps compiled
patterns, so equal trees share code across bindings and requests.  Its key
is the target, ``repr`` of the tree (each constant to the bit: -0.0 and 0.0
never share code; a tree keeps it once printed, see ``_key``) and the
variables, as ``Expression.same_code`` compares.
It is cleared when it holds ``_CODE_LIMIT`` entries.  Under the GIL each
lookup and store is atomic and no lock is taken: threads that miss together
compile a tree twice, and may pass the bound by an entry each until a miss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import DomainError, NonDifferentiableError, ParseError

__all__ = [
    "Expression",
    "parse_expression",
    "differentiate",
    "signed_power",
    "signed_power_array",
]

_UNARY_FUNCS = ("sin", "cos", "exp", "ln", "abs")


# ---------------------------------------------------------------------------
# AST nodes

class Node:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Node):
    value: float


@dataclass(frozen=True)
class Var(Node):
    name: str


@dataclass(frozen=True)
class Neg(Node):
    arg: Node


@dataclass(frozen=True)
class BinOp(Node):
    op: str  # one of + - * / ^
    left: Node
    right: Node


@dataclass(frozen=True)
class Call(Node):
    func: str  # sin | cos | exp | ln | abs
    arg: Node


@dataclass(frozen=True)
class SgnPow(Node):
    arg: Node
    exponent: Fraction


def _neg(node: Node) -> Node:
    # fold so printed negative literals reparse to the same tree
    if isinstance(node, Const):
        return Const(-node.value)
    return Neg(node)


# ---------------------------------------------------------------------------
# Tokenizer

_OPS = set("+-*/^(),")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent, see module grammar)

class _Parser:
    def __init__(self, text: str, variables: tuple[str, ...]):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = variables

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, op: str) -> None:
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}", off)
        self.pos += 1

    def parse(self) -> Node:
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", off)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.pos += 1
                right = self.term()
                node = BinOp(val, node, right)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.pos += 1
                right = self.factor()
                node = BinOp(val, node, right)
            else:
                return node

    def factor(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.pos += 1
            return _neg(self.factor())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.pos += 1
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Node:
        kind, val, off = self.take()
        if kind == "num":
            try:
                return Const(float(val))
            except ValueError:  # more than one decimal point
                raise ParseError(f"malformed number {val!r}", off) from None
        if kind == "name":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                return self.call(val, off)
            if val in self.variables:
                return Var(val)
            if val in _UNARY_FUNCS or val == "sgnpow":
                raise ParseError(f"function {val!r} needs an argument list", off)
            raise ParseError(f"unknown identifier {val!r}", off)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {val or 'end of input'!r}", off)

    def call(self, name: str, off: int) -> Node:
        self.expect("(")
        if name in _UNARY_FUNCS:
            arg = self.expr()
            self.expect(")")
            return Call(name, arg)
        if name == "sgnpow":
            arg = self.expr()
            self.expect(",")
            kind, val, eoff = self.peek()
            exponent = _as_fraction(self.expr(), eoff)
            self.expect(")")
            return SgnPow(arg, exponent)
        raise ParseError(f"unknown function {name!r}", off)


def _as_fraction(node: Node, off: int) -> Fraction:
    if isinstance(node, Neg):
        return -_as_fraction(node.arg, off)
    if isinstance(node, Const):
        if node.value == int(node.value):
            return Fraction(int(node.value))
    if isinstance(node, BinOp) and node.op == "/":
        num, den = node.left, node.right
        if (
            isinstance(num, Const)
            and isinstance(den, Const)
            and num.value == int(num.value)
            and den.value == int(den.value)
            and int(den.value) != 0
        ):
            return Fraction(int(num.value), int(den.value))
    raise ParseError("sgnpow exponent must be an integer ratio like 1/3", off)


# ---------------------------------------------------------------------------
# Printing.  Precedence levels: +- (1), */ (2), unary minus (3), ^ (4),
# atoms (5).  Parenthesization is chosen so parse(str(e)) rebuilds the same
# tree, which the round-trip tests rely on.

_ADD, _MUL, _UNARY, _POW, _ATOM = 1, 2, 3, 4, 5


def _precedence(node: Node) -> int:
    if isinstance(node, Const):
        return _UNARY if node.value < 0 else _ATOM
    if isinstance(node, (Var, Call, SgnPow)):
        return _ATOM
    if isinstance(node, Neg):
        return _UNARY
    op = node.op  # type: ignore[union-attr]
    if op in "+-":
        return _ADD
    if op in "*/":
        return _MUL
    return _POW


def _fmt_number(v: float) -> str:
    if float(v).is_integer() and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _fmt(node: Node, minimum: int) -> str:
    prec = _precedence(node)
    if isinstance(node, Const):
        s = _fmt_number(node.value)
    elif isinstance(node, Var):
        s = node.name
    elif isinstance(node, Neg):
        s = "-" + _fmt(node.arg, _UNARY)
    elif isinstance(node, Call):
        s = f"{node.func}({_fmt(node.arg, _ADD)})"
    elif isinstance(node, SgnPow):
        e = node.exponent
        etxt = str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}"
        s = f"sgnpow({_fmt(node.arg, _ADD)}, {etxt})"
    elif isinstance(node, BinOp):
        op = node.op
        if op == "^":
            s = f"{_fmt(node.left, _ATOM)}^{_fmt(node.right, _UNARY)}"
        elif op in "+-":
            s = f"{_fmt(node.left, _ADD)} {op} {_fmt(node.right, _MUL)}"
        else:
            s = f"{_fmt(node.left, _MUL)} {op} {_fmt(node.right, _UNARY)}"
    else:  # pragma: no cover
        raise TypeError(f"unknown node {node!r}")
    if prec < minimum:
        return f"({s})"
    return s


# ---------------------------------------------------------------------------
# Interpreted evaluation

def _eval(node: Node, env: Mapping[str, float]) -> float:
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise DomainError(f"unbound variable {node.name!r}") from None
    if isinstance(node, Neg):
        return -_eval(node.arg, env)
    if isinstance(node, BinOp):
        a = _eval(node.left, env)
        if node.op == "^":
            return _pow(a, _eval(node.right, env))
        b = _eval(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0.0:
            raise DomainError("division by zero")
        return a / b
    if isinstance(node, Call):
        x = _eval(node.arg, env)
        if node.func == "sin":
            return math.sin(x)
        if node.func == "cos":
            return math.cos(x)
        if node.func == "exp":
            try:
                return math.exp(x)
            except OverflowError:
                raise DomainError("exp overflow") from None
        if node.func == "ln":
            if x <= 0.0:
                raise DomainError(f"ln of non-positive value {x!r}")
            return math.log(x)
        return abs(x)
    if isinstance(node, SgnPow):
        return signed_power(_eval(node.arg, env), node.exponent)
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


def _pow(base: float, exponent: float) -> float:
    if float(exponent).is_integer():
        n = int(exponent)
        if base == 0.0 and n < 0:
            raise DomainError("zero base with negative exponent")
        try:
            return base**n
        except OverflowError:
            raise DomainError("power overflow") from None
    if base > 0.0:
        try:
            return base**exponent
        except OverflowError:
            raise DomainError("power overflow") from None
    if base == 0.0:
        if exponent > 0.0:
            return 0.0
        raise DomainError("zero base with negative exponent")
    raise DomainError("negative base with non-integer exponent; use sgnpow")


def signed_power(x: float, gamma: Fraction | float) -> float:
    """Signed power sign(x) * |x|^gamma; the odd-root reading of x^gamma."""
    if x == 0.0:
        return 0.0
    g = float(gamma)
    try:
        mag = abs(x) ** g
    except OverflowError:
        raise DomainError("power overflow") from None
    return math.copysign(mag, x)


def _check_finite(v: float) -> float:
    if math.isfinite(v):
        return v
    raise DomainError("non-finite result")


# ---------------------------------------------------------------------------
# Compilation to a plain Python callable (hot paths: quadrature, stepping)
# and to a numpy function over arrays (bulk sampling)

def _codegen(node: Node, names: Mapping[str, str], watch=lambda src: src) -> str:
    """Source of ``node`` as one expression.  The array target passes a
    ``watch`` that wraps each operand that could turn a non-finite value,
    where the scalar form may have raised, into a finite one (x / inf,
    exp(-inf), inf^-1, 1^nan, sgnpow(inf, -1)), for the finiteness check;
    a finite literal operand is never watched.

    A compound subtree evaluated more than once is computed once: its first
    evaluation binds a local, ``(_cN := ...)``, which later occurrences
    read.  The operands keep the nested form's evaluation order, so the
    first error raised is the nested form's.  Subtrees match by their
    nested source text, so -0.0 and 0.0 never merge; a subtree evaluated
    once stays nested, and its array temporaries are freed as it is used.
    """

    def guard(operand: Node, src: str) -> str:  # a finite literal needs no watch
        if isinstance(operand, Const) and math.isfinite(operand.value):
            return src
        return watch(src)

    def source(node: Node, sub) -> str:  # node's code, its operands by ``sub``
        if isinstance(node, Const):  # repr(inf) is no Python literal
            return f"({node.value!r})" if math.isfinite(node.value) else f"float('{node.value!r}')"
        if isinstance(node, Var):
            return names[node.name]
        if isinstance(node, Neg):
            return f"(-{sub(node.arg)})"
        if isinstance(node, BinOp):
            a = sub(node.left)
            r = node.right
            if node.op == "^" and isinstance(r, Const) and float(r.value).is_integer():
                return f"({a if r.value > 0 else guard(node.left, a)} ** {int(r.value)})"
            b = sub(r)
            if node.op == "^":
                return f"_pow({guard(node.left, a)}, {guard(r, b)})"
            if node.op == "/":
                return f"({a} / {guard(r, b)})"
            return f"({a} {node.op} {b})"
        if isinstance(node, Call):
            a = sub(node.arg)
            return f"_{node.func}({guard(node.arg, a) if node.func == 'exp' else a})"
        if isinstance(node, SgnPow):
            e = float(node.exponent)
            a = sub(node.arg)
            return f"_sgnpow({a if e > 0 else guard(node.arg, a)}, {e!r})"
        raise TypeError(f"unknown node {node!r}")  # pragma: no cover

    texts: dict[int, str] = {}  # id(node) -> nested source

    def text(node: Node) -> str:
        if id(node) not in texts:
            texts[id(node)] = source(node, text)
        return texts[id(node)]

    evals: dict[str, int] = {}  # per compound subtree

    def count(node: Node) -> str:  # ``source`` visits operands in evaluation order
        key = text(node)
        if not isinstance(node, (Const, Var)):
            evals[key] = evals.get(key, 0) + 1
            if evals[key] > 1:
                return key  # a repeat reads the local: its operands do not run
        source(node, count)
        return key

    count(node)
    bound: dict[str, str] = {}

    def emit(node: Node) -> str:
        if isinstance(node, (Const, Var)) or evals[text(node)] < 2:
            return source(node, emit)
        key = text(node)
        if key not in bound:
            code = source(node, emit)
            bound[key] = f"_c{len(bound)}"
            return f"({bound[key]} := {code})"
        return bound[key]

    return emit(node)


def _domain_error(
    node: Node, variables: tuple[str, ...], err: Exception, values: tuple
) -> DomainError:
    """``err`` restated with the expression text and the argument values."""
    where = ", ".join(f"{v}={x!r}" for v, x in zip(variables, values))
    text = f"{_fmt(node, _ADD)}: {err}"
    return DomainError(f"{text} at {where}" if where else text)


def _compile(node: Node, variables: tuple[str, ...]) -> Callable[..., float]:
    names = {v: f"_a{i}" for i, v in enumerate(variables)}
    body = _codegen(node, names)
    args = ", ".join(names[v] for v in variables)
    values = f"({args},)" if args else "()"
    src = (
        f"def _f({args}):\n"
        f"    try:\n"
        f"        _r = {body}\n"
        f"    except (DomainError, ZeroDivisionError, ValueError, OverflowError) as e:\n"
        f"        raise _where(e, {values}) from None\n"
        f"    if _isfinite(_r):\n"
        f"        return _r\n"
        f"    raise _where(DomainError('non-finite result'), {values})\n"
    )
    scope = {
        "_where": lambda err, values: _domain_error(node, variables, err, values),
        "_isfinite": math.isfinite,
        "_pow": _pow,
        "_sgnpow": signed_power,
        "_sin": math.sin,
        "_cos": math.cos,
        "_exp": math.exp,
        "_ln": math.log,
        "_abs": abs,
        "DomainError": DomainError,
    }
    exec(src, scope)  # noqa: S102 - generated from a closed grammar
    # popped: a function left in its own globals is a reference cycle, which
    # only the cyclic collector frees, so each binding's would pile up
    return scope.pop("_f")


def _array_sgnpow(x, e: float):
    return np.where(x == 0.0, 0.0, np.copysign(np.abs(x) ** e, x))


def signed_power_array(x: np.ndarray, gamma: Fraction | float) -> np.ndarray:
    """:func:`signed_power` elementwise; a non-finite element is rerun by the
    scalar form, which raises its DomainError where that form would."""
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        out = _array_sgnpow(x, float(gamma))
    for i in np.flatnonzero(~np.isfinite(out)):
        out.flat[i] = signed_power(float(x.flat[i]), gamma)
    return out


def _compile_array(node: Node, variables: tuple[str, ...]):
    names = {v: f"_a{i}" for i, v in enumerate(variables)}
    args = ", ".join(names[v] for v in variables)
    src = (
        f"def _body({args}):\n"
        f"    _bad = []\n"
        f"    def _k(x):\n"
        f"        if not _isfinite(x).all():\n"
        f"            _bad.append(~_isfinite(x))\n"
        f"        return x\n"
        f"    return {_codegen(node, names, lambda src: f'_k({src})')}, _bad\n"
    )
    scope = {
        "_pow": np.power, "_sgnpow": _array_sgnpow, "_sin": np.sin, "_cos": np.cos,
        "_exp": np.exp, "_ln": np.log, "_abs": np.abs, "_isfinite": np.isfinite,
    }
    exec(src, scope)  # noqa: S102 - generated from a closed grammar
    body = scope.pop("_body")  # no cycle, as in _compile

    def _f(*arrays):
        arrays = [np.asarray(a, dtype=float) for a in arrays]
        shape = np.broadcast_shapes(*(a.shape for a in arrays))
        try:
            with np.errstate(all="ignore"):
                value, flagged = body(*arrays)
            out = value
            # a constant, an argument or a narrower array is copied out to a
            # new array of the full shape
            if not isinstance(out, np.ndarray) or out.shape != shape or any(out is a for a in arrays):
                out = np.array(np.broadcast_to(value, shape), dtype=float)
            bad = ~np.isfinite(out)
            for mask in flagged:
                bad |= mask
            if not bad.any():
                return out
        except (ZeroDivisionError, ValueError, OverflowError):  # a constant subtree
            out = np.empty(shape)
            bad = np.ones(shape, dtype=bool)
        scalar = _code("scalar", node, variables)
        columns = [np.broadcast_to(a, shape) for a in arrays]
        for i in np.flatnonzero(bad):
            out.flat[i] = scalar(*(float(c.flat[i]) for c in columns))
        return out

    return _f


_CODE_LIMIT = 1024
_codes: dict[tuple, Callable] = {}  # (target, *_code_key) -> code


def _printed(node: Node) -> str:
    """``repr(node)``, each constant to the bit (-0.0 and 0.0 differ),
    without the recursion guard the dataclasses' own ``repr`` runs at
    every node."""
    kind = type(node)
    if kind is BinOp:
        return f"BinOp(op={node.op!r}, left={_printed(node.left)}, right={_printed(node.right)})"
    if kind is Const:
        return f"Const(value={node.value!r})"
    if kind is Var:
        return f"Var(name={node.name!r})"
    if kind is Call:
        return f"Call(func={node.func!r}, arg={_printed(node.arg)})"
    if kind is Neg:
        return f"Neg(arg={_printed(node.arg)})"
    return f"SgnPow(arg={_printed(node.arg)}, exponent={node.exponent!r})"


def _key(node: Node) -> str:
    """``repr(node)``, kept on the node once printed (in its ``__dict__``,
    outside the dataclass fields that equality and ``repr`` read)."""
    key = node.__dict__.get("key")
    if key is None:
        key = node.__dict__["key"] = _printed(node)
    return key


def _code_key(node: Node, variables: tuple[str, ...]) -> tuple:
    return _key(node), variables


def _code(target: str, node: Node, variables: tuple[str, ...]) -> Callable:
    """The cached "scalar" or "array" code of ``node``, compiled on a miss."""
    key = (target, *_code_key(node, variables))
    fn = _codes.get(key)
    if fn is None:
        if len(_codes) >= _CODE_LIMIT:
            _codes.clear()
        fn = _codes[key] = (_compile if target == "scalar" else _compile_array)(node, variables)
    return fn


# ---------------------------------------------------------------------------
# Differentiation (exact; abs and sgnpow are rejected unless ``kinks``)

def _diff(node: Node, var: str, kinks: bool = False) -> Node:
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0 if node.name == var else 0.0)
    if isinstance(node, Neg):
        return Neg(_diff(node.arg, var, kinks))
    if isinstance(node, BinOp):
        u, v = node.left, node.right
        du, dv = _diff(u, var, kinks), _diff(v, var, kinks)
        if node.op == "+":
            return BinOp("+", du, dv)
        if node.op == "-":
            return BinOp("-", du, dv)
        if node.op == "*":
            return BinOp("+", BinOp("*", du, v), BinOp("*", u, dv))
        if node.op == "/":
            num = BinOp("-", BinOp("*", du, v), BinOp("*", u, dv))
            return BinOp("/", num, BinOp("^", v, Const(2.0)))
        # power rule when the exponent is constant, else b^e * (e' ln b + e b'/b)
        if isinstance(v, Const):
            scaled = BinOp("*", v, BinOp("^", u, Const(v.value - 1.0)))
            return BinOp("*", scaled, du)
        logterm = BinOp("+", BinOp("*", dv, Call("ln", u)), BinOp("*", v, BinOp("/", du, u)))
        return BinOp("*", node, logterm)
    if isinstance(node, Call):
        inner = _diff(node.arg, var, kinks)
        if node.func == "sin":
            outer: Node = Call("cos", node.arg)
        elif node.func == "cos":
            outer = Neg(Call("sin", node.arg))
        elif node.func == "exp":
            outer = node
        elif node.func == "ln":
            outer = BinOp("/", Const(1.0), node.arg)
        elif kinks:  # the sign of the argument
            outer = SgnPow(node.arg, Fraction(0))
        else:
            raise NonDifferentiableError("abs is not differentiable; supply the derivative explicitly")
        return BinOp("*", outer, inner)
    if isinstance(node, SgnPow):
        if not kinks:
            raise NonDifferentiableError(
                "sgnpow is not differentiable; supply the derivative explicitly"
            )
        e = node.exponent
        outer = BinOp("*", Const(float(e)), BinOp("^", Call("abs", node.arg), Const(float(e - 1))))
        return BinOp("*", outer, _diff(node.arg, var, kinks))
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Simplification: constant folding plus unit/zero identities.  Conservative:
# nothing that could widen the domain (0/x is not folded).

def _simplify(node: Node) -> Node:
    if isinstance(node, (Const, Var)):
        return node
    if isinstance(node, Neg):
        a = _simplify(node.arg)
        if isinstance(a, Const):
            return Const(-a.value)
        if isinstance(a, Neg):
            return a.arg
        return Neg(a)
    if isinstance(node, Call):
        a = _simplify(node.arg)
        if isinstance(a, Const):
            try:
                return Const(_eval(Call(node.func, a), {}))
            except DomainError:
                pass
        return Call(node.func, a)
    if isinstance(node, SgnPow):
        return SgnPow(_simplify(node.arg), node.exponent)
    a = _simplify(node.left)
    b = _simplify(node.right)
    op = node.op
    if isinstance(a, Const) and isinstance(b, Const):
        try:
            return Const(_eval(BinOp(op, a, b), {}))
        except DomainError:
            pass
    if op == "+":
        if isinstance(a, Const) and a.value == 0.0:
            return b
        if isinstance(b, Const) and b.value == 0.0:
            return a
    elif op == "-":
        if isinstance(b, Const) and b.value == 0.0:
            return a
        if isinstance(a, Const) and a.value == 0.0:
            return _neg(b) if not isinstance(b, Neg) else b.arg
    elif op == "*":
        if (isinstance(a, Const) and a.value == 0.0) or (isinstance(b, Const) and b.value == 0.0):
            return Const(0.0)
        if isinstance(a, Const) and a.value == 1.0:
            return b
        if isinstance(b, Const) and b.value == 1.0:
            return a
    elif op == "/":
        if isinstance(b, Const) and b.value == 1.0:
            return a
    elif op == "^":
        if isinstance(b, Const) and b.value == 1.0:
            return a
    return BinOp(op, a, b)


def _substitute(node: Node, mapping: Mapping[str, Node]) -> Node:
    if isinstance(node, Const):
        return node
    if isinstance(node, Var):
        return mapping.get(node.name, node)
    if isinstance(node, Neg):
        return Neg(_substitute(node.arg, mapping))
    if isinstance(node, BinOp):
        return BinOp(node.op, _substitute(node.left, mapping), _substitute(node.right, mapping))
    if isinstance(node, Call):
        return Call(node.func, _substitute(node.arg, mapping))
    if isinstance(node, SgnPow):
        return SgnPow(_substitute(node.arg, mapping), node.exponent)
    raise TypeError(f"unknown node {node!r}")  # pragma: no cover


def _collect_vars(node: Node, out: list[str]) -> None:
    if isinstance(node, Var):
        if node.name not in out:
            out.append(node.name)
    elif isinstance(node, Neg):
        _collect_vars(node.arg, out)
    elif isinstance(node, BinOp):
        _collect_vars(node.left, out)
        _collect_vars(node.right, out)
    elif isinstance(node, (Call, SgnPow)):
        _collect_vars(node.arg, out)


def _collect_kinks(node: Node, out: list[Node]) -> None:
    """Append, once each and outermost first, the arguments of node's abs
    calls and of its signed powers other than odd integer ones, which are
    plain powers; a constant argument is left out."""
    if isinstance(node, Neg):
        _collect_kinks(node.arg, out)
    elif isinstance(node, BinOp):
        _collect_kinks(node.left, out)
        _collect_kinks(node.right, out)
    elif isinstance(node, (Call, SgnPow)):
        kinked = node.func == "abs" if isinstance(node, Call) else not (
            node.exponent.denominator == 1 and node.exponent.numerator % 2
        )
        if kinked and not isinstance(node.arg, Const) and node.arg not in out:
            out.append(node.arg)
        _collect_kinks(node.arg, out)


# ---------------------------------------------------------------------------
# Public wrapper

class Expression:
    """An expression tree together with its ordered argument list.

    ``variables`` fixes both the set of legal identifiers and the positional
    argument order of the compiled callable.
    """

    __slots__ = ("root", "variables", "_fn", "_array_fn")

    def __init__(self, root: Node, variables: Iterable[str] = ("t",)):
        self.root = root
        self.variables = tuple(variables)
        self._fn: Callable[..., float] | None = None
        self._array_fn: Callable[..., np.ndarray] | None = None

    # construction -----------------------------------------------------
    @staticmethod
    def parse(text: str, variables: Iterable[str] = ("t",)) -> "Expression":
        variables = tuple(variables)
        root = _Parser(text, variables).parse()
        return Expression(root, variables)

    @staticmethod
    def constant(value: float) -> "Expression":
        return Expression(Const(float(value)), ())

    @staticmethod
    def variable(name: str = "t") -> "Expression":
        return Expression(Var(name), (name,))

    # evaluation -------------------------------------------------------
    def evaluate(self, **env: float) -> float:
        return _check_finite(_eval(self.root, env))

    def __call__(self, *args: float) -> float:
        if self._fn is None:  # not via compiled(): a tracer counts calls of both
            self._fn = _code("scalar", self.root, self.variables)
        return self._fn(*args)

    def compiled(self) -> Callable[..., float]:
        """Fast positional-argument callable (args follow ``variables``)."""
        if self._fn is None:
            self._fn = _code("scalar", self.root, self.variables)
        return self._fn

    def vectorized(self) -> Callable[..., np.ndarray]:
        """Array callable (args follow ``variables``, broadcast together);
        see the module docstring for its finiteness check and scalar rerun."""
        if self._array_fn is None:
            self._array_fn = _code("array", self.root, self.variables)
        return self._array_fn

    # calculus / rewriting ----------------------------------------------
    def derivative(self, var: str = "t") -> "Expression":
        return Expression(_simplify(_diff(self.root, var)), self.variables)

    def substitute(self, **mapping: "Expression | float") -> "Expression":
        nodes: dict[str, Node] = {}
        for name, val in mapping.items():
            nodes[name] = val.root if isinstance(val, Expression) else Const(float(val))
        root = _substitute(self.root, nodes)
        merged = [v for v in self.variables if v not in mapping]
        for val in mapping.values():
            if isinstance(val, Expression):
                for v in val.variables:
                    if v not in merged:
                        merged.append(v)
        used: list[str] = []
        _collect_vars(root, used)
        ordered = [v for v in merged if v in used] or used
        return Expression(root, tuple(ordered))

    def simplified(self) -> "Expression":
        return Expression(_simplify(self.root), self.variables)

    def same_code(self, other: "Expression") -> bool:
        """Whether the two compile to the same code: the same tree with every
        constant to the bit (their printed text merges 0.0 and -0.0)."""
        return self is other or (
            _code_key(self.root, self.variables) == _code_key(other.root, other.variables)
        )

    def is_zero(self) -> bool:
        r = _simplify(self.root)
        return isinstance(r, Const) and r.value == 0.0

    def kink_arguments(self) -> tuple["Expression", ...]:
        """The arguments u of every abs(u) and sgnpow(u, e) in the tree (e not
        an odd integer), over this expression's variables: where one changes
        sign, the expression may have a kink (or, for sgnpow, a cusp)."""
        found: list[Node] = []
        _collect_kinks(self.root, found)
        return tuple(Expression(node, self.variables) for node in found)

    # operators ----------------------------------------------------------
    def _merge_vars(self, other: "Expression") -> tuple[str, ...]:
        out = list(self.variables)
        for v in other.variables:
            if v not in out:
                out.append(v)
        return tuple(out)

    @staticmethod
    def _coerce(value: "Expression | float") -> "Expression":
        if isinstance(value, Expression):
            return value
        return Expression.constant(value)

    def _binop(self, op: str, other: "Expression | float", flip: bool = False) -> "Expression":
        other = Expression._coerce(other)
        left, right = (other, self) if flip else (self, other)
        return Expression(BinOp(op, left.root, right.root), left._merge_vars(right))

    def __add__(self, other):
        return self._binop("+", other)

    def __radd__(self, other):
        return self._binop("+", other, flip=True)

    def __sub__(self, other):
        return self._binop("-", other)

    def __rsub__(self, other):
        return self._binop("-", other, flip=True)

    def __mul__(self, other):
        return self._binop("*", other)

    def __rmul__(self, other):
        return self._binop("*", other, flip=True)

    def __truediv__(self, other):
        return self._binop("/", other)

    def __rtruediv__(self, other):
        return self._binop("/", other, flip=True)

    def __pow__(self, other):
        return self._binop("^", other)

    def __neg__(self):
        return Expression(_neg(self.root), self.variables)

    def apply(self, func: str) -> "Expression":
        if func not in _UNARY_FUNCS:
            raise ValueError(f"unknown function {func!r}")
        return Expression(Call(func, self.root), self.variables)

    def sgnpow(self, exponent: Fraction) -> "Expression":
        return Expression(SgnPow(self.root, Fraction(exponent)), self.variables)

    # identity -----------------------------------------------------------
    def __str__(self) -> str:
        return _fmt(self.root, _ADD)

    def __repr__(self) -> str:
        return f"Expression({str(self)!r}, variables={self.variables!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Expression) and self.root == other.root

    def __hash__(self) -> int:
        return hash((Expression, str(self)))


def parse_expression(text: str, variables: Iterable[str] = ("t",)) -> Expression:
    """Parse ``text`` over the given variables; see the module grammar."""
    return Expression.parse(text, variables)


def _piecewise_derivative(expr: Expression, var: str = "t") -> Expression:
    """Derivative of ``expr`` that also passes through abs and sgnpow.

    abs(u)' = sgnpow(u, 0) u' and sgnpow(u, e)' = e |u|^(e - 1) u': exact
    away from u = 0, where abs gets slope 0 and sgnpow with e < 1 fails to
    evaluate.  For callers that handle a kink themselves; the public
    :meth:`Expression.derivative` keeps rejecting both.
    """
    return Expression(_simplify(_diff(expr.root, var, kinks=True)), expr.variables)


def differentiate(expr: Expression, var: str = "t") -> Expression:
    """Exact derivative of ``expr`` with respect to ``var``.

    Raises NonDifferentiableError if abs or sgnpow occur anywhere in the tree.
    """
    return expr.derivative(var)
