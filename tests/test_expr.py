import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadbound.expr import (
    BinOp,
    Call,
    Const,
    DomainReport,
    DomainViolation,
    EvalDomainError,
    ParseError,
    Pow,
    Var,
    as_function,
    differentiate,
    domain_check,
    evaluate,
    parse,
    to_source,
)
from quadbound.oracle import Interval


def test_parse_single_productions():
    assert parse("x^2") == Pow(Var(), 2.0)
    assert parse("ln(x)") == Call("ln", Var())


def test_parse_eval_hand_arithmetic():
    assert evaluate(parse("2*x^3 - x"), 2.0) == 14.0
    assert evaluate(parse("x^2"), 1.5) == 2.25
    assert evaluate(parse("ln(x)"), 1.0) == 0.0


def test_parse_precedence_and_signs():
    assert parse("2*x^3-x") == BinOp("-", BinOp("*", Const(2.0), Pow(Var(), 3.0)), Var())
    assert parse("x^-2") == Pow(Var(), -2.0)
    assert parse("2*-3") == BinOp("*", Const(2.0), Const(-3.0))
    assert parse("(x+1)^2") == Pow(BinOp("+", Var(), Const(1.0)), 2.0)
    assert evaluate(parse("2 - 3"), 0.0) == -1.0


@pytest.mark.parametrize("source, message, offset", [
    ("", "empty expression", 0),
    ("   ", "empty expression", 0),
    ("-x", "expected a number", 1),
    ("x^- (2)", "expected a number", 4),
    ("x^(2)", "exponent must be a numeric literal", 2),
    ("x^", "exponent must be a numeric literal", 2),
    ("x +", "unexpected end of input", 3),
    ("(x", "expected ')'", 2),
    ("abs(x 2", "expected ')'", 6),
    ("ln x", "expected '(' after 'ln'", 3),
    ("2*sin(x)", "unknown identifier 'sin'", 2),
    ("2**3", "unexpected character '*'", 2),
    ("x 25", "unexpected input '2'", 2),
    ("(x))", "unexpected input ')'", 3),
])
def test_parse_syntax_errors_carry_offset(source, message, offset):
    with pytest.raises(ParseError) as exc_info:
        parse(source)
    assert str(exc_info.value) == f"{message} (at offset {offset})"
    assert exc_info.value.offset == offset


def test_parse_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("sin(x)")


def test_parse_variable_exponent_rejected():
    with pytest.raises(ParseError, match="numeric literal"):
        parse("x^x")
    with pytest.raises(ParseError, match="numeric literal"):
        parse("x^(2)")


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        evaluate(parse("ln(x)"), -1.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("1/x"), 0.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("x^0.5"), -1.0)
    # integral exponents are fine on negative bases
    assert evaluate(parse("x^3"), -2.0) == -8.0


@pytest.mark.parametrize("source, bad, message", [
    ("ln(x)", 0.0, "ln of a non-positive value"),
    ("1/x", 0.0, "division by zero"),
    ("x^-1.5", 0.0, "zero base with negative exponent"),
    ("x^-2", 0.0, "zero base with negative exponent"),
    ("x^0.5", -1.0, "negative base with non-integer exponent"),
])
def test_domain_error_is_the_same_at_a_number_and_on_an_array(source, bad, message, monkeypatch):
    # a number's test is a bool or an np.bool_, read without np.any, which
    # is made to fail here; an array's is reduced by its own any()
    def no_reduction(*args, **kwargs):
        raise AssertionError("np.any called")

    monkeypatch.setattr(np, "any", no_reduction)
    assert isinstance(np.float64(bad) == 0, np.bool_)
    fn = as_function(parse(source))
    for x in (bad, np.float64(bad), np.array([bad])):
        with pytest.raises(EvalDomainError, match=f"^{message}$"):
            fn(x)
    # and evaluates where the operation is defined
    for x in (2.0, np.float64(2.0), np.array([2.0])):
        assert np.isfinite(fn(x))


def test_eval_vectorized():
    xs = np.linspace(1.0, 2.0, 7)
    got = evaluate(parse("x^2+1"), xs)
    assert np.allclose(got, xs**2 + 1, rtol=0, atol=0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("ln(x)"), np.array([0.5, -0.5]))


def test_differentiate_power_rule_shape():
    d = differentiate(parse("x^3"))
    assert d == BinOp("*", Const(3.0), Pow(Var(), 2.0))
    # s x^(s-1) for fractional s as well
    d = differentiate(parse("x^2.5"))
    assert d == BinOp("*", Const(2.5), Pow(Var(), 1.5))


def test_differentiate_ln():
    assert differentiate(parse("ln(x)")) == BinOp("/", Const(1.0), Var())


def test_differentiate_cubic_at_one():
    d = differentiate(parse("2*x^3 - x"))
    f = as_function(parse("2*x^3 - x"))
    h = 1e-5
    central = (f(1.0 + h) - f(1.0 - h)) / (2 * h)
    assert evaluate(d, 1.0) == 5.0
    assert abs(evaluate(d, 1.0) - central) < 1e-8


def test_abs_derivative_is_one_sided_at_the_kink():
    # d|u| = sgn(u)*u': at u = +0.0 the right derivative, at -0.0 the left
    d = differentiate(parse("abs(x)"))
    assert to_source(d) == "sgn(x)"
    assert evaluate(d, 2.0) == 1.0
    assert evaluate(d, -2.0) == -1.0
    assert evaluate(d, 0.0) == 1.0
    assert evaluate(d, -0.0) == -1.0
    assert evaluate(differentiate(parse("abs(1-x)")), 1.0) == -1.0


def test_sgn_is_copysign_at_a_number_and_on_an_array():
    sgn = as_function(parse("sgn(x)"))
    xs = [0.0, -0.0, 2.0, -2.0]
    want = [1.0, -1.0, 1.0, -1.0]
    assert [sgn(x) for x in xs] == want
    assert all(type(sgn(x)) is np.float64 for x in xs)
    assert sgn(np.array(xs)).tolist() == want
    assert differentiate(parse("sgn(x-1)")) == Const(0.0)


def test_domain_check_cases():
    assert domain_check(parse("ln(x)"), Interval(1, 2)).ok
    report = domain_check(parse("ln(x)"), Interval(-1, 2))
    assert not report.ok
    assert report.violations[0].node_source == "ln(x)"
    assert domain_check(parse("x^0.5"), Interval(0.25, 4)).ok
    assert not domain_check(parse("x^0.5"), Interval(-1, 4)).ok
    # denominator zero crossing between grid points
    assert not domain_check(parse("1/(x-0.51234567)"), Interval(0, 1)).ok
    # a jump of sgn, on a grid point or between two
    assert domain_check(parse("sgn(x)*x^2"), Interval(1, 2)).ok
    assert not domain_check(parse("sgn(x-0.5)"), Interval(0, 1)).ok
    assert not domain_check(parse("sgn(x-0.51234567)"), Interval(0, 1)).ok
    # a crossing of values whose product underflows to -0.0
    assert not domain_check(parse("1/(1e-200*(x-0.51234567))"), Interval(0, 1)).ok
    assert not domain_check(parse("(1e-200*(x-0.51234567))^-1"), Interval(0, 1)).ok
    assert not domain_check(parse("sgn(1e-200*(x-0.51234567))"), Interval(0, 1)).ok


_exprs = st.recursive(
    st.one_of(
        st.builds(Const, st.floats(-10, 10, allow_nan=False, allow_infinity=False)),
        st.just(Var()),
    ),
    lambda children: st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/"]), children, children),
        st.builds(Pow, children, st.sampled_from([-2.0, -1.0, -0.5, 0.5, 2.0, 3.0])),
        st.builds(Call, st.sampled_from(["ln", "exp", "abs", "sgn"]), children),
    ),
    max_leaves=12,
)


@given(_exprs)
@settings(max_examples=300)
def test_print_parse_roundtrip(ast):
    assert parse(to_source(ast)) == ast


def _random_family_expr(rng):
    kind = rng.integers(0, 6)
    if kind == 0:  # polynomial, degree <= 4
        degree = int(rng.integers(1, 5))
        coeffs = rng.uniform(-2, 2, degree + 1)
        terms = [f"{repr(float(c))}*x^{k}" if k else repr(float(c))
                 for k, c in enumerate(coeffs)]
        return parse("+".join(terms))
    if kind == 1:  # power
        s = float(rng.choice([-2.0, -1.5, -1.0, -0.5, 0.5, 1.5, 2.0, 2.5, 3.0]))
        return parse(f"x^{repr(s)}")
    if kind == 2:
        return parse("ln(x)")
    if kind == 3:  # gentle exponential of a quadratic
        c = rng.uniform(-0.4, 0.4, 3)
        return parse(f"exp({repr(float(c[0]))}+{repr(float(c[1]))}*x"
                     f"+{repr(float(c[2]))}*x^2)")
    if kind == 4:  # abs of an affine function
        c = rng.uniform(-2, 2, 2)
        return parse(f"abs({repr(float(c[0]))}+{repr(float(c[1]))}*x)")
    c = rng.uniform(0.5, 2, 2)  # reciprocal of a positive quadratic
    return parse(f"{repr(float(c[0]))}/({repr(float(c[1]))}+x^2)")


def _wildness_guard(f, x, h):
    # Reject sample points where the central difference itself is unstable
    # (domain edges, abs kinks, large curvature): Richardson consistency at
    # two step sizes plus a magnitude cap.
    values = [f(x - 2 * h), f(x - h), f(x), f(x + h), f(x + 2 * h)]
    if any(abs(v) > 1e3 for v in values):
        return None
    cd1 = (values[3] - values[1]) / (2 * h)
    cd2 = (values[4] - values[0]) / (4 * h)
    if abs(cd1 - cd2) > 1e-7 * max(1.0, abs(cd1)):
        return None
    return cd1


def test_derivative_matches_central_difference():
    rng = np.random.default_rng(0)
    h = 1e-5
    checked = 0
    while checked < 1000:
        ast = _random_family_expr(rng)
        x = float(rng.uniform(0.3, 2.5))
        f = as_function(ast)
        d = differentiate(ast)
        try:
            cd = _wildness_guard(f, x, h)
            if cd is None:
                continue
            sym = float(evaluate(d, x))
        except EvalDomainError:
            continue
        assert abs(sym - cd) <= 1e-6, (to_source(ast), x, sym, cd)
        checked += 1


def _quotient_rule(node):
    """The derivative of l/r by the quotient rule, (l'r - lr')/r^2."""
    l, r = node.left, node.right
    return BinOp("/", BinOp("-", BinOp("*", differentiate(l), r),
                            BinOp("*", l, differentiate(r))), Pow(r, 2.0))


def test_reciprocal_power_derivative_matches_the_quotient_rule():
    # l/u^e is differentiated as l*u^-e: where the quotient rule's form is
    # finite, the two agree to rounding of the larger of their two terms
    assert to_source(differentiate(parse("1/x^400"))) == "-400.0*x^-401.0"
    rng = np.random.default_rng(61)
    compared = 0
    for _ in range(2000):
        c0, c1 = rng.uniform(-2, 2, 2).tolist()
        d0, d1 = rng.uniform(0.1, 2, 2).tolist()
        e = float(rng.choice([rng.integers(-6, 7), rng.uniform(-6, 6)]))
        l, u = parse(f"{c0!r}+{c1!r}*x"), parse(f"{d0!r}+{d1!r}*x^2")
        node = BinOp("/", l, Pow(u, e))
        x = float(rng.uniform(0.1, 5))
        new, old = evaluate(differentiate(node), x), evaluate(_quotient_rule(node), x)
        uv, duv = evaluate(u, x), evaluate(differentiate(u), x)
        scale = abs(c1 * uv ** -e) + abs(evaluate(l, x) * e * uv ** (-e - 1) * duv)
        assert abs(new - old) <= 16 * math.ulp(1.0) * scale, (to_source(node), x)
        compared += 1
    assert compared == 2000


def test_reciprocal_power_derivative_is_finite_where_the_quotient_rule_is_nan():
    # u^e and the numerator both overflow, their quotient is -inf/inf
    rng = np.random.default_rng(67)
    for _ in range(200):
        e = float(rng.uniform(150, 400))
        x = float(np.exp(rng.uniform(711, 740) / e))  # x^e is past the float range
        node = parse(f"1/x^{e!r}")
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(evaluate(_quotient_rule(node), x)), (e, x)
        assert evaluate(differentiate(node), x) == -e * x ** (-e - 1), (e, x)


def test_differentiate_is_linear():
    rng = np.random.default_rng(1)
    xs = np.linspace(1.1, 2.3, 41)
    for _ in range(50):
        f = _random_family_expr(rng)
        g = _random_family_expr(rng)
        alpha, beta = rng.uniform(-3, 3, 2)
        combo = parse(f"{repr(float(alpha))}*({to_source(f)})"
                      f"+{repr(float(beta))}*({to_source(g)})")
        try:
            lhs = evaluate(differentiate(combo), xs)
            rhs = (alpha * evaluate(differentiate(f), xs)
                   + beta * evaluate(differentiate(g), xs))
        except EvalDomainError:
            continue
        scale = np.maximum(1.0, np.abs(rhs))
        assert np.all(np.abs(lhs - rhs) <= 1e-12 * scale)


def test_to_source_examples():
    assert to_source(parse("x^2")) == "x^2.0"
    assert to_source(parse("ln(x+1)")) == "ln(x+1.0)"
    assert math.isclose(evaluate(parse(to_source(parse("2*x^3-x"))), 2.0), 14.0)


# -- reference: the tree walks that the compile pass replaced ----------------
# Copies of the evaluator and the domain checker before expressions were
# compiled once, with the documented power (_reference_power); compiled
# closures must reproduce them bit for bit.

def _reference_power(base, e):
    """The documented power: an array base with an integral e is raised as
    |base|^e with the sign of base put back for odd e; a number by C pow,
    and past the float range, where Python raises, by numpy's scalar power,
    a signed inf."""
    if float(e).is_integer() and isinstance(base, np.ndarray):
        v = np.abs(base) ** e
        return np.copysign(v, base) if e % 2 == 1 else v
    try:
        return base ** e
    except OverflowError:
        return np.float64(base) ** e


def _reference_evaluate(node, x):
    if isinstance(node, Const):
        if isinstance(x, np.ndarray):
            return np.full(x.shape, node.value)
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, BinOp):
        lv = _reference_evaluate(node.left, x)
        rv = _reference_evaluate(node.right, x)
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
        base = _reference_evaluate(node.base, x)
        e = node.exponent
        if float(e).is_integer():
            if e < 0 and np.any(base == 0):
                raise EvalDomainError("zero base with negative exponent")
        else:
            if np.any(base < 0):
                raise EvalDomainError("negative base with non-integer exponent")
            if e < 0 and np.any(base == 0):
                raise EvalDomainError("zero base with negative exponent")
        return _reference_power(base, e)
    if isinstance(node, Call):
        v = _reference_evaluate(node.arg, x)
        if node.fn == "ln":
            if np.any(v <= 0):
                raise EvalDomainError("ln of a non-positive value")
            return np.log(v)
        if node.fn == "exp":
            return np.exp(v)
        if node.fn == "sgn":
            return np.copysign(1.0, v)
        return np.abs(v)
    raise TypeError(f"not an expression node: {node!r}")


def _reference_domain_check(node, interval, samples=1025):
    xs = np.linspace(float(interval.a), float(interval.b), samples)
    violations = []

    def flag(n, reason):
        violations.append(DomainViolation(to_source(n), reason))

    def rec(n):
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
            if np.any(np.sign(rv[:-1]) * np.sign(rv[1:]) < 0):
                flag(n, "denominator changes sign on the interval (zero crossing)")
                return None
            return lv / rv
        if isinstance(n, Pow):
            bv = rec(n.base)
            if bv is None:
                return None
            e = n.exponent
            if float(e).is_integer():
                if e < 0 and (np.any(bv == 0)
                              or np.any(np.sign(bv[:-1]) * np.sign(bv[1:]) < 0)):
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
                return _reference_power(bv, e)
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
            if n.fn == "sgn":
                if np.any(av == 0) or np.any(np.sign(av[:-1]) * np.sign(av[1:]) < 0):
                    flag(n, "argument of sgn vanishes or changes sign on the interval (a jump)")
                    return None
                return np.copysign(1.0, av)
            return np.abs(av)
        raise TypeError(f"not an expression node: {n!r}")

    rec(node)
    return DomainReport(not violations, tuple(violations))


def _outcome(evaluator, node, x):
    """The exception raised (type and message), or the value's type, dtype,
    shape and bytes."""
    with np.errstate(all="ignore"):
        try:
            v = evaluator(node, x)
        except (EvalDomainError, OverflowError) as exc:
            return type(exc), str(exc)
    return type(v), np.asarray(v).dtype, np.shape(v), np.asarray(v).tobytes()


_coords = st.floats(-4, 4, allow_nan=False)
_points = st.one_of(_coords, st.lists(_coords, min_size=1, max_size=6).map(np.array))


@given(_exprs, _points)
@settings(max_examples=500, deadline=None)
def test_compiled_evaluation_equals_reference(ast, x):
    # Literals, and so sub-expressions without x, are folded into constants;
    # at an array they must be computed as arrays (an array power is not C
    # pow), and failures must still be raised only when evaluated.
    for node in (ast, differentiate(ast)):
        assert _outcome(evaluate, node, x) == _outcome(_reference_evaluate, node, x)
        assert (_outcome(lambda n, v: as_function(n)(v), node, x)
                == _outcome(_reference_evaluate, node, x))


@pytest.mark.parametrize("source", [
    "3.3^3*x", "x/0.7^-0.5", "(0.7^2.5)^3+x", "7.1^-1.5", "x/2",  # pow: C != numpy
    "x+1/(2-2)", "x*ln(0-1)", "x+(1e200)^2", "x-exp(800)",  # failures stay lazy
])
@pytest.mark.parametrize("x", [1.7, np.linspace(-1.0, 2.0, 5)])
def test_constant_subexpressions_equal_reference(source, x):
    for node in (parse(source), differentiate(parse(source))):
        with np.errstate(all="ignore"):
            as_function(node)  # compiling raises nothing; evaluating may
        assert _outcome(evaluate, node, x) == _outcome(_reference_evaluate, node, x)


_rng = np.random.default_rng(18)
_magnitudes = np.concatenate([np.linspace(0.01, 2.5, 500), 10.0 ** _rng.uniform(-40, 40, 500)])
_BASES = np.concatenate([-_magnitudes, [0.0, -0.0], _magnitudes])


@pytest.mark.parametrize("e", [3, 4, 5, -2, -3])
def test_array_power_within_one_ulp_of_exact(e):
    bases = _BASES if e > 0 else _BASES[_BASES != 0]
    power = as_function(Pow(Var(), float(e)))(bases)
    for b, v in zip(bases.tolist(), power.tolist()):
        exact = Fraction(b) ** e
        assert abs(Fraction(v) - exact) <= Fraction(math.ulp(float(exact))), (b, v)
        # the sign too, -0.0 included
        assert math.copysign(1.0, v) == math.copysign(1.0, b ** e), (b, v)
    if e < 0:
        with pytest.raises(EvalDomainError):
            as_function(Pow(Var(), float(e)))(np.array([1.0, -0.0]))


@pytest.mark.parametrize("e", [-1, 0, 1, 2])
def test_array_power_is_numpy_power_for_small_exponents(e):
    bases = _BASES if e >= 0 else _BASES[_BASES != 0]
    power = as_function(Pow(Var(), float(e)))(bases)
    assert power.tobytes() == (bases ** float(e)).tobytes()


@given(_exprs, st.sampled_from([(-2.0, 2.0), (0.5, 3.0), (-3.0, -0.25)]))
@settings(max_examples=300, deadline=None)
def test_domain_check_equals_reference(ast, ab):
    interval = Interval(*ab)
    with np.errstate(all="ignore"):
        assert domain_check(ast, interval) == _reference_domain_check(ast, interval)


def test_domain_check_reports_each_failing_branch():
    report = domain_check(parse("ln(x)+1/(x-0.5)^0.5+1/ln(x)"), Interval(-1, 2))
    assert [v.node_source for v in report.violations] == ["ln(x)", "(x-0.5)^0.5", "ln(x)"]
    assert report == _reference_domain_check(parse("ln(x)+1/(x-0.5)^0.5+1/ln(x)"),
                                             Interval(-1, 2))
