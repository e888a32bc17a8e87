"""The token-list parser against the character-scanning parser it replaced.

``_ReferenceParser`` and ``_reference_parse`` are verbatim copies of the
scanner that ``expr.parse`` used before it lexed with one token regex.  On
seeded random strings over the token alphabet, on every golden CLI source
and on campaign draws, both must give the same tree, or the same exception
type, message and offset.
"""

import random
import re

import numpy as np

from quadbound import campaign
from quadbound.expr import BinOp, Call, Const, ParseError, Pow, Var, parse
from test_cli_golden import COMMANDS

_FUNCTIONS = ("ln", "exp", "abs")

# -- reference: the parser before the token regex (verbatim) ------------------

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _ReferenceParser:
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

    def parse(self):
        node = self._expr()
        self._skip_ws()
        if self.pos != len(self.src):
            raise ParseError(f"unexpected input {self.src[self.pos]!r}", self.pos)
        return node

    def _expr(self):
        node = self._term()
        while self._peek() in ("+", "-"):
            op = self.src[self.pos]
            self.pos += 1
            node = BinOp(op, node, self._term())
        return node

    def _term(self):
        node = self._factor()
        while self._peek() in ("*", "/"):
            op = self.src[self.pos]
            self.pos += 1
            node = BinOp(op, node, self._factor())
        return node

    def _factor(self):
        node = self._atom()
        if self._peek() == "^":
            self.pos += 1
            ch = self._peek()
            if ch not in ("+", "-") and _NUMBER_RE.match(self.src, self.pos) is None:
                raise ParseError("exponent must be a numeric literal", self.pos)
            node = Pow(node, self._signed_number())
        return node

    def _atom(self):
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


def _reference_parse(source: str):
    """Parse a source string into an AST."""
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    return _ReferenceParser(source).parse()


# -- comparison ---------------------------------------------------------------

def _outcome(parser, source):
    """The tree's repr, or the exception's type, message and offset."""
    try:
        return repr(parser(source))
    except ParseError as exc:
        return type(exc), str(exc), exc.offset


def _assert_same(source):
    assert _outcome(parse, source) == _outcome(_reference_parse, source), repr(source)


# Lexemes and near-lexemes: numbers with and without exponents, names that
# are and are not identifiers, every operator, ASCII and Unicode whitespace,
# a Unicode digit and characters outside the grammar.
_FRAGMENTS = ("x", "2", "0", "17", ".", "5", "e", "E", "e-3", "1e", "2.5e+1", ".5",
              "+", "-", "*", "/", "^", "(", ")", "ln", "exp", "abs", "sin", "xx",
              "_", "a9", " ", "  ", "\t", "\n", " ", "٣", "#", "é", ",")
_LEAVES = ("x", "2", "0.5", "1e-3", "3.", ".25", "7E2")
_SPACES = ("", "", " ", "  ")
_SIGNS = ("", "", "-", "+", "- ")


def _random_tree_source(rng: random.Random, depth: int = 0) -> str:
    """A mostly well-formed source, with optional whitespace and signs."""
    kind = rng.randrange(6) if depth < 4 else 0
    sub = lambda: _random_tree_source(rng, depth + 1)
    ws = lambda: rng.choice(_SPACES)
    if kind == 0:
        return rng.choice(_SIGNS) + rng.choice(_LEAVES)
    if kind == 1:
        return f"({ws()}{sub()}{ws()})"
    if kind == 2:
        return f"{rng.choice(_FUNCTIONS)}{ws()}({sub()})"
    if kind == 3:
        return f"{sub()}{ws()}^{ws()}{rng.choice(_SIGNS)}{rng.choice(_LEAVES[1:])}"
    return f"{sub()}{ws()}{rng.choice('+-*/')}{ws()}{sub()}"


def _random_source(rng: random.Random) -> str:
    """A string of random fragments, or a random tree's source that is left
    as it is, or has one fragment inserted or removed at a random place."""
    if rng.random() < 0.4:
        return "".join(rng.choices(_FRAGMENTS, k=rng.randrange(15)))
    source = _random_tree_source(rng)
    cut = rng.randrange(len(source) + 1)
    edit = rng.randrange(3)
    if edit == 1:
        return source[:cut] + rng.choice(_FRAGMENTS) + source[cut:]
    if edit == 2:
        return source[:cut] + source[cut + 1:]
    return source


_MESSAGES = ("empty expression", "expected a number", "exponent must be a numeric literal",
             "unexpected end of input", "expected ')'", "expected '(' after",
             "unknown identifier", "unexpected character", "unexpected input")


def test_parse_equals_reference_on_random_strings():
    rng = random.Random(20131008)
    trees, messages = 0, set()
    for _ in range(100_000):
        source = _random_source(rng)
        outcome = _outcome(parse, source)
        assert outcome == _outcome(_reference_parse, source), repr(source)
        if isinstance(outcome, str):
            trees += 1
        else:
            messages.update(m for m in _MESSAGES if outcome[1].startswith(m))
    # Both outcomes are exercised: well-formed sources and every error.
    assert 20_000 < trees < 80_000
    assert messages == set(_MESSAGES)


def test_parse_equals_reference_on_golden_and_campaign_sources():
    sources = {argv[argv.index("--f") + 1] for argv in COMMANDS if "--f" in argv}
    rng = np.random.default_rng(0)
    for family in campaign.FAMILIES:
        for _ in range(200):
            sources.add(campaign.draw_function(rng, family, 2.0).source)
    assert len(sources) > 500
    for source in sources:
        _assert_same(source)
        assert isinstance(_outcome(parse, source), str), source


def test_parse_equals_reference_on_deep_nesting():
    # The token-list parser nests no deeper per parenthesis than the scanner.
    for depth in (1, 50, 200):
        _assert_same("(" * depth + "x" + ")" * depth)
        _assert_same("ln(" * depth + "x" + ")" * depth)
