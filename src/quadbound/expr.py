"""Small closed expression language with exact symbolic differentiation.

The grammar (whitespace insignificant, ``x`` is the sole variable)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := atom ['^' number]
    atom   := number | 'x' | '(' expr ')' | ('ln'|'exp'|'abs'|'sgn') '(' expr ')'
    number := decimal literal with optional sign and exponent

Exponents are numeric literals only, which keeps differentiation total.
``sgn(u)`` is copysign(1, u), so d|u| = sgn(u)·u' has a one-sided value at
a kink of |u| and never raises there.
Every AST is an immutable value; evaluation accepts either a float or a
numpy array and refuses to return NaN silently: domain problems (log of a
nonpositive value, division by zero, negative base under a fractional
power) raise :class:`EvalDomainError` instead.  A power past the float
range is a signed inf at a number as on an array; numpy warns, and
``np.errstate`` silences it.
"""

from __future__ import annotations

import operator
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
    fn: str  # one of ln exp abs sgn
    arg: "ExprNode"


ExprNode = Union[Const, Var, BinOp, Pow, Call]

_FUNCTIONS = ("ln", "exp", "abs", "sgn")

# A token is a number literal, a name, or any other single character but
# whitespace; finditer skips the whitespace between tokens.  A sign is a
# token of its own.
_TOKEN_RE = re.compile(r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                       r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<char>\S)")
_SIGNS, _ADD_OPS, _MUL_OPS = ("+", "-"), ("+", "-"), ("*", "/")


def parse(source: str) -> ExprNode:
    """Parse a source string into an AST.  A :class:`ParseError` gives the
    offset of the token at which parsing stopped."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    # (kind, text, offset) of each token, last first: tokens[-1] is the next
    # one and pop() takes it.  The end token is taken only to raise.
    tokens = [(m.lastgroup, m[0], m.start()) for m in _TOKEN_RE.finditer(source)]
    tokens.append(("end", "", len(source)))
    tokens.reverse()

    def expect(char: str, message: str) -> None:
        offset = tokens[-1][2]
        if tokens.pop()[1] != char:
            raise ParseError(message, offset)

    def number() -> float:
        sign = tokens.pop()[1] if tokens[-1][1] in _SIGNS else "+"
        kind, text, offset = tokens.pop()
        if kind != "number":
            raise ParseError("expected a number", offset)
        return -float(text) if sign == "-" else float(text)

    def binary(ops=_ADD_OPS) -> ExprNode:
        # An expr joins terms by + and -; a term joins factors by * and /.
        # Both associate to the left.  Each operand is parsed inline, so a
        # parenthesis nests four calls deep: expr, term, factor, atom.
        node = factor() if ops is _MUL_OPS else binary(_MUL_OPS)
        while tokens[-1][1] in ops:
            op = tokens.pop()[1]
            node = BinOp(op, node, factor() if ops is _MUL_OPS else binary(_MUL_OPS))
        return node

    def factor() -> ExprNode:
        node = atom()
        if tokens[-1][1] == "^":
            tokens.pop()
            kind, text, offset = tokens[-1]
            if kind != "number" and text not in _SIGNS:
                raise ParseError("exponent must be a numeric literal", offset)
            node = Pow(node, number())
        return node

    def atom() -> ExprNode:
        kind, text, offset = tokens[-1]
        if kind == "number" or text in _SIGNS:
            # A sign is read only as part of a number literal.
            return Const(number())
        if kind == "end":
            raise ParseError("unexpected end of input", offset)
        tokens.pop()
        if text == "x":
            return Var()
        if text == "(":
            node = binary()
        elif text in _FUNCTIONS:
            expect("(", f"expected '(' after {text!r}")
            node = Call(text, binary())
        elif kind == "name":
            raise ParseError(f"unknown identifier {text!r}", offset)
        else:
            raise ParseError(f"unexpected character {text!r}", offset)
        expect(")", "expected ')'")
        return node

    node = binary()
    kind, _, offset = tokens[-1]
    if kind != "end":
        raise ParseError(f"unexpected input {source[offset]!r}", offset)
    return node


# -- compiling: one tree walk for evaluation and domain checking --------------

@dataclass(frozen=True)
class DomainViolation:
    node_source: str
    reason: str


@dataclass(frozen=True)
class DomainReport:
    ok: bool
    violations: tuple[DomainViolation, ...]


# rule -> (EvalDomainError message, domain_check reason)
_RULES = {
    "divide": ("division by zero", "denominator vanishes on the interval"),
    # domain_check only: a sign change between adjacent grid points is a zero
    # the grid may have stepped over.
    "cross": ("", "denominator changes sign on the interval (zero crossing)"),
    "pole": ("zero base with negative exponent",
             "base vanishes on the interval with a negative exponent"),
    "zero": ("zero base with negative exponent", "zero base with a negative exponent"),
    "root": ("negative base with non-integer exponent",
             "negative base with a non-integer exponent"),
    "ln": ("ln of a non-positive value",
           "argument of ln is not strictly positive on the interval"),
    # domain_check only: sgn is defined everywhere, but a zero or a sign
    # change on the grid is a jump of f, which no bound here covers.
    "jump": ("", "argument of sgn vanishes or changes sign on the interval (a jump)"),
}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def _violated(found, node: ExprNode, bad, rule: str) -> bool:
    """Report a violation of ``rule`` if ``bad`` holds anywhere: evaluation
    (``found`` None) raises; domain_check appends to its list ``found``, and
    the sub-expression evaluates to None.  At a number ``bad`` is a bool or
    an np.bool_ and is read as it is: np.any would first make it an array."""
    if not (bad.any() if isinstance(bad, np.ndarray) else bad):
        return False
    message, reason = _RULES[rule]
    if found is None:
        raise EvalDomainError(message)
    found.append(DomainViolation(to_source(node), reason))
    return True


def _crosses_zero(found, node: ExprNode, v, rule: str) -> bool:
    # A sign change between neighbours, by the product of their signs: the
    # product of the values can underflow to -0.0.  A literal never crosses.
    return (found is not None and isinstance(v, np.ndarray)
            and _violated(found, node, np.sign(v[:-1]) * np.sign(v[1:]) < 0, rule))


def _kernel(node: ExprNode, found):
    """The operation of an interior node on its operands' values."""
    if isinstance(node, BinOp):
        if node.op in _ARITHMETIC:
            return _ARITHMETIC[node.op]
        return lambda lv, rv: (None if _violated(found, node, rv == 0, "divide")
                               or _crosses_zero(found, node, rv, "cross") else lv / rv)
    if isinstance(node, Pow):
        e = node.exponent
        integral = float(e).is_integer()
        odd = integral and e % 2 == 1

        def power(base):
            if not integral and _violated(found, node, base < 0, "root"):
                return None
            if e < 0 and (_violated(found, node, base == 0, "pole" if integral else "zero")
                          or integral and _crosses_zero(found, node, base, "pole")):
                return None
            if not integral or not isinstance(base, np.ndarray):
                # A number keeps C pow's bits; past the float range, where
                # Python raises, numpy's scalar power gives a signed inf.
                try:
                    return base ** e
                except OverflowError:
                    return np.float64(base) ** e
            # numpy raises a negative array base ~35x slower than a positive
            # one, so an integral power is taken of |base| and the sign put back.
            v = np.abs(base) ** e
            return np.copysign(v, base) if odd else v
        return power
    if node.fn == "ln":
        return lambda v: None if _violated(found, node, v <= 0, "ln") else np.log(v)
    if node.fn == "sgn":
        if found is None:
            return lambda v: np.copysign(1.0, v)
        return lambda v: (None if _violated(found, node, v == 0, "jump")
                          or _crosses_zero(found, node, v, "jump") else np.copysign(1.0, v))
    return np.exp if node.fn == "exp" else np.abs


def _operand(node: ExprNode, other: ExprNode, found):
    """Compile an operand of + - * /: a literal beside a non-literal is its
    float, which acts as its array in x's shape."""
    if isinstance(node, Const) and not isinstance(other, Const):
        v = node.value
        return lambda x: v
    return _compile(node, found)


def _compile(node: ExprNode, found=None):
    """Compile ``node`` to a function of x, a number or an array.  A literal
    is an array of x's shape when x is an array, and a sub-expression
    without x is computed as it stands at each call."""
    if isinstance(node, Const):
        v = node.value
        return lambda x: np.full(x.shape, v) if isinstance(x, np.ndarray) else v
    if isinstance(node, Var):
        return lambda x: x
    if not isinstance(node, (BinOp, Pow, Call)):
        raise TypeError(f"not an expression node: {node!r}")
    kernel = _kernel(node, found)
    if found is not None:
        unguarded = kernel

        def kernel(*values):
            return None if any(v is None for v in values) else unguarded(*values)
    if isinstance(node, BinOp):
        lf = _operand(node.left, node.right, found)
        rf = _operand(node.right, node.left, found)
        return lambda x: kernel(lf(x), rf(x))
    f = _compile(node.base if isinstance(node, Pow) else node.arg, found)
    return lambda x: kernel(f(x))


def as_function(node: ExprNode):
    """Compile ``node`` once into a callable of x (a float or a float64
    array) that raises :class:`EvalDomainError` on a domain violation."""
    return _compile(node)


def evaluate(node: ExprNode, x):
    """Evaluate ``node`` at ``x`` (a float or numpy array); see as_function."""
    return _compile(node)(x)


_DOMAIN_GRID_POINTS = 1025


def domain_check(node: ExprNode, interval) -> DomainReport:
    """Check that ``node`` is evaluable everywhere on ``interval``.

    Uses a dense grid of 1,025 evenly spaced points: a sub-expression is flagged if a risky operation (ln,
    division, fractional power) sees a bad argument at any grid point, or if
    a denominator changes sign between adjacent points (a zero crossing that
    the grid may have stepped over).
    """
    xs = np.linspace(float(interval.a), float(interval.b), _DOMAIN_GRID_POINTS)
    found: list[DomainViolation] = []
    with np.errstate(over="ignore", invalid="ignore"):
        _compile(node, found)(xs)
    return DomainReport(not found, tuple(found))


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
    return BinOp("/", l, r)


def _pow(b: ExprNode, e: float) -> ExprNode:
    if e == 0:
        return Const(1.0)
    if e == 1:
        return b
    return Pow(b, e)


def differentiate(node: ExprNode) -> ExprNode:
    """Exact symbolic derivative of ``node`` with respect to x.

    The derivative of ``abs(u)`` is ``sgn(u) * u'``: at a kink, where u is
    ±0, it takes the one-sided value of the side the zero's sign names.  The
    derivative of ``sgn(u)`` is 0, its value away from the jump.
    """
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0)
    if isinstance(node, BinOp):
        if node.op == "/" and isinstance(node.right, Pow):
            # l/u^e as l*u^-e: the quotient rule's (u^e)^2 overflows first
            return differentiate(BinOp("*", node.left, Pow(node.right.base, -node.right.exponent)))
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
        if node.fn == "abs":
            return _mul(Call("sgn", node.arg), da)
        return Const(0.0)
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
