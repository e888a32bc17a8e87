"""Small closed expression language with exact symbolic differentiation.

The grammar (whitespace insignificant, ``x`` is the sole variable)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ['^' number]
    atom   := number | 'x' | '(' expr ')' | ('ln'|'exp'|'abs') '(' expr ')'
    number := decimal literal with optional sign and exponent

Exponents are numeric literals only, which keeps differentiation total.
Every AST is an immutable value; evaluation accepts either a float or a
numpy array and refuses to return NaN silently: domain problems (log of a
nonpositive value, division by zero, negative base under a fractional
power) raise :class:`EvalDomainError` instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "Const",
    "Var",
    "BinOp",
    "Pow",
    "Call",
    "ExprNode",
    "ExprError",
    "ParseError",
    "EvalDomainError",
    "parse",
    "evaluate",
    "as_function",
    "differentiate",
    "to_source",
    "domain_check",
    "DomainReport",
    "DomainViolation",
]


class ExprError(Exception):
    pass


class ParseError(ExprError):
    """Syntax or identifier error; ``offset`` is the byte offset in the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    pass


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Pow:
    base: "ExprNode"
    exponent: float  # literal only


@dataclass(frozen=True)
class Call:
    fn: str  # one of ln exp abs
    arg: "ExprNode"


ExprNode = Union[Const, Var, BinOp, Pow, Call]

_FUNCTIONS = ("ln", "exp", "abs")

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Parser:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def _number(self) -> float:
        self._skip_ws()
        m = _NUMBER_RE.match(self.src, self.pos)
        if m is None:
            raise ParseError("expected a number", self.pos)
        self.pos = m.end()
        return float(m.group())

    def _signed_number(self) -> float:
        sign = 1.0
        ch = self._peek()
        if ch in "+-":
            self.pos += 1
            if ch == "-":
                sign = -1.0
        return sign * self._number()

    def parse(self) -> ExprNode:
        node = self._expr()
        self._skip_ws()
        if self.pos != len(self.src):
            raise ParseError(f"unexpected input {self.src[self.pos]!r}", self.pos)
        return node

    def _expr(self) -> ExprNode:
        node = self._term()
        while self._peek() in ("+", "-"):
            op = self.src[self.pos]
            self.pos += 1
            node = BinOp(op, node, self._term())
        return node

    def _term(self) -> ExprNode:
        node = self._factor()
        while self._peek() in ("*", "/"):
            op = self.src[self.pos]
            self.pos += 1
            node = BinOp(op, node, self._factor())
        return node

    def _factor(self) -> ExprNode:
        node = self._atom()
        if self._peek() == "^":
            self.pos += 1
            ch = self._peek()
            if ch not in ("+", "-") and _NUMBER_RE.match(self.src, self.pos) is None:
                raise ParseError("exponent must be a numeric literal", self.pos)
            node = Pow(node, self._signed_number())
        return node

    def _atom(self) -> ExprNode:
        ch = self._peek()
        if ch == "":
            raise ParseError("unexpected end of input", self.pos)
        if ch in ("+", "-"):
            # A sign is legal only as part of a number literal.
            return Const(self._signed_number())
        if ch == "(":
            self.pos += 1
            node = self._expr()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return node
        m = _NUMBER_RE.match(self.src, self.pos)
        if m is not None:
            self.pos = m.end()
            return Const(float(m.group()))
        m = _NAME_RE.match(self.src, self.pos)
        if m is not None:
            name = m.group()
            if name == "x":
                self.pos = m.end()
                return Var()
            if name in _FUNCTIONS:
                self.pos = m.end()
                if self._peek() != "(":
                    raise ParseError(f"expected '(' after {name!r}", self.pos)
                self.pos += 1
                arg = self._expr()
                if self._peek() != ")":
                    raise ParseError("expected ')'", self.pos)
                self.pos += 1
                return Call(name, arg)
            raise ParseError(f"unknown identifier {name!r}", self.pos)
        raise ParseError(f"unexpected character {ch!r}", self.pos)


def parse(source: str) -> ExprNode:
    """Parse a source string into an AST."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    return _Parser(source).parse()


def _is_integral(e: float) -> bool:
    return float(e).is_integer()


def evaluate(node: ExprNode, x):
    """Evaluate ``node`` at ``x`` (a float or numpy array).

    Raises :class:`EvalDomainError` on any domain violation instead of
    propagating NaN/complex values.
    """
    if isinstance(node, Const):
        if isinstance(x, np.ndarray):
            return np.full(x.shape, node.value)
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, BinOp):
        lv = evaluate(node.left, x)
        rv = evaluate(node.right, x)
        if node.op == "+":
            return lv + rv
        if node.op == "-":
            return lv - rv
        if node.op == "*":
            return lv * rv
        if np.any(rv == 0):
            raise EvalDomainError("division by zero")
        return lv / rv
    if isinstance(node, Pow):
        base = evaluate(node.base, x)
        e = node.exponent
        if _is_integral(e):
            if e < 0 and np.any(base == 0):
                raise EvalDomainError("zero base with negative exponent")
        else:
            if np.any(base < 0):
                raise EvalDomainError("negative base with non-integer exponent")
            if e < 0 and np.any(base == 0):
                raise EvalDomainError("zero base with negative exponent")
        return base ** e
    if isinstance(node, Call):
        v = evaluate(node.arg, x)
        if node.fn == "ln":
            if np.any(v <= 0):
                raise EvalDomainError("ln of a non-positive value")
            return np.log(v)
        if node.fn == "exp":
            return np.exp(v)
        return np.abs(v)
    raise TypeError(f"not an expression node: {node!r}")


def as_function(node: ExprNode):
    """Return ``node`` as a plain callable of x (vectorized over arrays)."""
    return lambda x: evaluate(node, x)


# -- differentiation ----------------------------------------------------------

def _add(l: ExprNode, r: ExprNode) -> ExprNode:
    if isinstance(l, Const) and isinstance(r, Const):
        return Const(l.value + r.value)
    if isinstance(l, Const) and l.value == 0:
        return r
    if isinstance(r, Const) and r.value == 0:
        return l
    return BinOp("+", l, r)


def _sub(l: ExprNode, r: ExprNode) -> ExprNode:
    if isinstance(l, Const) and isinstance(r, Const):
        return Const(l.value - r.value)
    if isinstance(r, Const) and r.value == 0:
        return l
    return BinOp("-", l, r)


def _mul(l: ExprNode, r: ExprNode) -> ExprNode:
    if isinstance(l, Const) and isinstance(r, Const):
        return Const(l.value * r.value)
    if isinstance(l, Const):
        if l.value == 0:
            return Const(0.0)
        if l.value == 1:
            return r
    if isinstance(r, Const):
        if r.value == 0:
            return Const(0.0)
        if r.value == 1:
            return l
    return BinOp("*", l, r)


def _div(l: ExprNode, r: ExprNode) -> ExprNode:
    if isinstance(l, Const) and l.value == 0:
        return Const(0.0)
    if isinstance(r, Const) and r.value == 1:
        return l
    return BinOp("/", l, r)


def _pow(b: ExprNode, e: float) -> ExprNode:
    if e == 0:
        return Const(1.0)
    if e == 1:
        return b
    return Pow(b, e)


def differentiate(node: ExprNode) -> ExprNode:
    """Exact symbolic derivative of ``node`` with respect to x.

    The derivative of ``abs(u)`` is represented as ``u/abs(u) * u'``; it is
    defined away from zeros of ``u``, and evaluating it at a kink raises a
    division-by-zero :class:`EvalDomainError` (the non-differentiability flag).
    """
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0)
    if isinstance(node, BinOp):
        dl = differentiate(node.left)
        dr = differentiate(node.right)
        if node.op == "+":
            return _add(dl, dr)
        if node.op == "-":
            return _sub(dl, dr)
        if node.op == "*":
            return _add(_mul(dl, node.right), _mul(node.left, dr))
        return _div(
            _sub(_mul(dl, node.right), _mul(node.left, dr)),
            _pow(node.right, 2.0),
        )
    if isinstance(node, Pow):
        e = node.exponent
        if e == 0:
            return Const(0.0)
        return _mul(_mul(Const(e), _pow(node.base, e - 1)), differentiate(node.base))
    if isinstance(node, Call):
        da = differentiate(node.arg)
        if node.fn == "ln":
            return _div(da, node.arg)
        if node.fn == "exp":
            return _mul(Call("exp", node.arg), da)
        return _mul(_div(node.arg, Call("abs", node.arg)), da)
    raise TypeError(f"not an expression node: {node!r}")


# -- printing -----------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _fmt(node: ExprNode, parent_prec: int) -> str:
    if isinstance(node, Const):
        text, prec = repr(float(node.value)), _PREC_ATOM
    elif isinstance(node, Var):
        text, prec = "x", _PREC_ATOM
    elif isinstance(node, BinOp):
        if node.op in "+-":
            prec = _PREC_ADD
        else:
            prec = _PREC_MUL
        text = f"{_fmt(node.left, prec)}{node.op}{_fmt(node.right, prec + 1)}"
    elif isinstance(node, Pow):
        prec = _PREC_POW
        text = f"{_fmt(node.base, _PREC_ATOM)}^{repr(float(node.exponent))}"
    elif isinstance(node, Call):
        text, prec = f"{node.fn}({_fmt(node.arg, _PREC_ADD)})", _PREC_ATOM
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if prec < parent_prec:
        return f"({text})"
    return text


def to_source(node: ExprNode) -> str:
    """Print ``node`` back to parseable source (parse∘to_source is identity)."""
    return _fmt(node, _PREC_ADD)


# -- static domain checking ---------------------------------------------------

@dataclass(frozen=True)
class DomainViolation:
    node_source: str
    reason: str


@dataclass(frozen=True)
class DomainReport:
    ok: bool
    violations: tuple[DomainViolation, ...]


def domain_check(node: ExprNode, interval, samples: int = 1025) -> DomainReport:
    """Check that ``node`` is evaluable everywhere on ``interval``.

    Uses a dense grid: a sub-expression is flagged if a risky operation (ln,
    division, fractional power) sees a bad argument at any grid point, or if
    a denominator changes sign between adjacent points (a zero crossing that
    the grid may have stepped over).
    """
    xs = np.linspace(float(interval.a), float(interval.b), samples)
    violations: list[DomainViolation] = []

    def flag(n: ExprNode, reason: str) -> None:
        violations.append(DomainViolation(to_source(n), reason))

    def rec(n: ExprNode):
        if isinstance(n, Const):
            return np.full(xs.shape, n.value)
        if isinstance(n, Var):
            return xs
        if isinstance(n, BinOp):
            lv, rv = rec(n.left), rec(n.right)
            if lv is None or rv is None:
                return None
            if n.op == "+":
                return lv + rv
            if n.op == "-":
                return lv - rv
            if n.op == "*":
                return lv * rv
            if np.any(rv == 0):
                flag(n, "denominator vanishes on the interval")
                return None
            if np.any(rv[:-1] * rv[1:] < 0):
                flag(n, "denominator changes sign on the interval (zero crossing)")
                return None
            return lv / rv
        if isinstance(n, Pow):
            bv = rec(n.base)
            if bv is None:
                return None
            e = n.exponent
            if _is_integral(e):
                if e < 0 and (np.any(bv == 0) or np.any(bv[:-1] * bv[1:] < 0)):
                    flag(n, "base vanishes on the interval with a negative exponent")
                    return None
            else:
                if np.any(bv < 0):
                    flag(n, "negative base with a non-integer exponent")
                    return None
                if e < 0 and np.any(bv == 0):
                    flag(n, "zero base with a negative exponent")
                    return None
            with np.errstate(over="ignore"):
                return bv ** e
        if isinstance(n, Call):
            av = rec(n.arg)
            if av is None:
                return None
            if n.fn == "ln":
                if np.any(av <= 0):
                    flag(n, "argument of ln is not strictly positive on the interval")
                    return None
                return np.log(av)
            if n.fn == "exp":
                with np.errstate(over="ignore"):
                    return np.exp(av)
            return np.abs(av)
        raise TypeError(f"not an expression node: {n!r}")

    rec(node)
    return DomainReport(not violations, tuple(violations))
