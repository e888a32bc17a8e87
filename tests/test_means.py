import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from folded_fixtures import average_value, node_values
from quadbound.bounds import DerivEndpoints, HolderParams, bound, bound_pq, form_p
from quadbound.convexity import admissible_power
from quadbound.expr import Call, Pow, Var, as_function, differentiate, evaluate, parse
from quadbound.means import (
    MEANS_THEOREMS,
    _ls_power,
    compute_mean,
    means_bound,
    means_gap,
)
from quadbound.oracle import Interval
from quadbound.rules import LMRule, rule_from_lm

EPS = np.finfo(float).eps


def test_mean_values():
    assert compute_mean("A", 1, 2) == 1.5
    assert compute_mean("G", 4, 9) == 6.0
    assert compute_mean("H", 1, 2) == 4 / 3
    assert compute_mean("L", 3, 3) == 3
    assert abs(compute_mean("Ls", 1, 2, s=2) ** 2 - 7 / 3) <= 1e-14


def test_means_of_large_or_small_floats_lie_between_them():
    assert compute_mean("A", 1e308, 1.7e308) == 1.35e308
    assert compute_mean("H", 1e200, 1e200) == 1e200
    assert compute_mean("H", 1e-200, 1e-200) == 1e-200
    assert compute_mean("H", 1e308, 1.7e308) == 1e308 * (1.7e308 / 1.35e308)


def test_ls_past_the_float_range_names_ls_s_and_the_interval():
    # Ls itself is about 6.3e199, but [Ls(a, b)]^3 overflows on the way
    with pytest.raises(ValueError) as exc:
        compute_mean("Ls", 1.0, 1e200, s=3)
    assert str(exc.value) == "Ls(a, b)^s at s = 3 is past the float range on [1.0, 1e+200]"


def test_ls_where_b_to_the_s_plus_1_overflows_scales_from_in_range():
    # b^1.5 overflows at b = 1.7e308, but Ls is homogeneous of degree 1:
    # Ls(ka, kb) = k Ls(a, b), with k = 1e208 from an in-range interval
    ls = compute_mean("Ls", 1e308, 1.7e308, s=0.5)
    assert math.isclose(ls, 1e208 * compute_mean("Ls", 1e100, 1.7e100, s=0.5), rel_tol=1e-14)
    assert math.isclose(ls ** 0.5, 1.1585988740656193e154, rel_tol=1e-15)
    # a/b below eps, where 1 - a/b rounds to 1: [Ls]^0.5 is b^0.5/1.5 to rounding
    assert math.isclose(compute_mean("Ls", 1.0, 1.7e308, s=0.5), 1.7e308 / 2.25, rel_tol=1e-15)


def test_ls_where_a_to_the_s_plus_1_overflows_at_negative_s_plus_1():
    # a^u overflows at u = s + 1 < 0, and so does (a/b)^u; [Ls]^s is taken
    # from its log, so its relative error is a few eps times |ln [Ls]^s|
    rng = np.random.default_rng(53)
    cases = [(-3, 1e-160, 1e100), (-3, 1e100, 1e-160)]
    for _ in range(2000):
        s, a = -int(rng.integers(2, 8)), 10 ** float(rng.uniform(-320, -1))
        cases.append((s, a, 10 ** float(rng.uniform(math.log10(a), 300))))
    checked = 0
    for s, a, b in cases:
        A, B, u = Fraction(a), Fraction(b), s + 1
        exact = (B**u - A**u) / (u * (B - A))
        if A**u <= 1e308 or not 1e-300 < exact < 1e300:
            continue
        power = compute_mean("Ls", a, b, s=s) ** s
        assert abs(Fraction(power) / exact - 1) <= 8 * EPS * abs(math.log(power)), (s, a, b)
        checked += 1
    assert checked >= 100, checked
    # [Ls]^-3 = (a^-2 - b^-2)/(2(b - a)), about 5e219
    assert math.isclose(compute_mean("Ls", 1e-160, 1e100, s=-3) ** -3, 5e219, rel_tol=1e-13)


def test_log_gap_at_the_float_limit_is_finite():
    gap = means_gap("4.5-p1", 2, 1, 1e308, 1.7e308)
    assert abs(gap - -0.023354484191258962) <= 1e-15
    assert abs(gap) <= means_bound("4.5-p1", 2, 1, 1e308, 1.7e308)


def test_means_reject_nonpositive():
    with pytest.raises(ValueError):
        compute_mean("A", -1, 2)
    with pytest.raises(ValueError):
        compute_mean("G", 1, 0)


@pytest.mark.parametrize("theorem", ["4.2-p1", "4.3-p1", "4.5-p1"])
@pytest.mark.parametrize("a, b", [(1.0, math.inf), (math.nan, 2.0)])
def test_means_reject_non_finite_and_name_the_given_values(theorem, a, b):
    # checked before any mean is taken, so the harmonic family names the
    # given b and not b**-1 = 0
    with pytest.raises(ValueError, match=f"got a={a}, b={b}"):
        means_gap(theorem, 6, 1, a, b, s=2)
    with pytest.raises(ValueError, match=f"got a={a}, b={b}"):
        means_bound(theorem, 6, 1, a, b, s=2)


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
def test_means_reject_non_finite_s(s):
    with pytest.raises(ValueError, match="s must be finite"):
        means_gap("4.2-p1", 6, 1, 1.0, 2.0, s=s)
    with pytest.raises(ValueError, match="s must be finite"):
        means_bound("4.2-p1", 6, 1, 1.0, 2.0, s=s)
    with pytest.raises(ValueError, match="s must be finite"):
        compute_mean("Ls", 1.0, 2.0, s=s)


@pytest.mark.parametrize("s, a, b", [(3.0, 1.0, 1e200), (-2.0, 1e-200, 1.0)])
def test_means_gap_overflow_names_f_s_and_the_interval(s, a, b):
    # b**s or a**s is past the largest float
    with pytest.raises(ValueError) as exc:
        means_gap("4.2-p1", 2, 1, a, b, s=s)
    assert str(exc.value) == f"the gap of f = x^s overflows on [{a}, {b}] at s = {s}"


@pytest.mark.parametrize("theorem, a, q, message", [
    ("4.2-p1", 1e-200, 1.0, "|f'| is not finite at the ends of [1e-200, 1.0]: "
                            "|f'(a)|, |f'(b)| = inf, 2.0"),
], ids=["inf"])
def test_means_bound_overflow_is_named_by_bound(theorem, a, q, message):
    # |f'| = 2 x^-3 of f = x^-2 overflows a float power at a
    with pytest.raises(ValueError) as exc:
        means_bound(theorem, 2, 1, a, 1.0, s=-2.0, q=q)
    assert str(exc.value) == message


def test_means_bound_takes_f_prime_relative_to_its_larger_end():
    # |f'(a)| = 2 a^-3 = 2e300 is finite but its square is not: the bound,
    # homogeneous of degree 1 in |f'|, is m times the bound at |f'|/m
    d = DerivEndpoints(1.9999999999999998e+300, 2.0)
    m = d.scale(2.0)
    assert m == d.da
    rhs = means_bound("4.2-pq", 2, 1, 1e-100, 1.0, s=-2.0, q=2.0)
    unit = bound(rule_from_lm(LMRule(2, 1)), DerivEndpoints(1.0, d.db / m),
                 Interval(1e-100, 1.0), 2.0, 2.0)[0]
    assert abs(rhs - m * unit) <= 4 * EPS * rhs
    assert means_gap("4.2-pq", 2, 1, 1e-100, 1.0, s=-2.0) < rhs


def test_all_means_collapse_at_equal_arguments():
    for kind in ("A", "G", "H", "L", "I"):
        assert compute_mean(kind, 1.7, 1.7) == 1.7
    assert compute_mean("Ls", 1.7, 1.7, s=2.5) == 1.7


def test_ls_dispatch_and_continuity():
    a, b = 1.0, 2.0
    assert compute_mean("Ls", a, b, s=-1) == compute_mean("L", a, b)
    assert compute_mean("Ls", a, b, s=0) == compute_mean("I", a, b)
    assert abs(compute_mean("Ls", a, b, s=1) - compute_mean("A", a, b)) <= 1e-14
    # continuity across the dispatch points
    assert abs(compute_mean("Ls", a, b, s=1e-6) - compute_mean("I", a, b)) <= 1e-5
    assert abs(compute_mean("Ls", a, b, s=-1e-6) - compute_mean("I", a, b)) <= 1e-5
    assert abs(compute_mean("Ls", a, b, s=-1 + 1e-6) - compute_mean("L", a, b)) <= 1e-5
    assert abs(compute_mean("Ls", a, b, s=-1 - 1e-6) - compute_mean("L", a, b)) <= 1e-5


def test_identric_closed_form_matches_oracle():
    f = as_function(parse("ln(x)"))
    for a, b in ((1.0, 2.0), (0.5, 7.0), (3.0, 3.1)):
        oracle_value = math.exp(average_value(f, Interval(a, b)))
        assert abs(compute_mean("I", a, b) - oracle_value) <= 1e-11 * oracle_value


def test_identric_large_arguments_no_overflow():
    v = compute_mean("I", 1e8, 5e8)
    assert math.isfinite(v) and 1e8 < v < 5e8


def test_mean_ordering_chain():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        a = float(rng.uniform(0.05, 20))
        b = a + float(rng.uniform(0.01, 20))
        H = compute_mean("H", a, b)
        G = compute_mean("G", a, b)
        L = compute_mean("L", a, b)
        I = compute_mean("I", a, b)
        A = compute_mean("A", a, b)
        scale = max(1.0, A)
        assert H <= G + 1e-12 * scale
        assert G <= L + 1e-12 * scale
        assert L <= I + 1e-12 * scale
        assert I <= A + 1e-12 * scale
        assert H < G < L < I < A  # strict for a != b


def test_means_where_b_over_a_overflows_lie_between_a_and_b():
    # (b - a)/a is past the float range, so ln(b/a) is taken as ln b - ln a:
    # L = (b - a)/ln(b/a) is about 1.40e7, and I = b/e to rounding
    a, b = 1e-300, 1e10
    H, G, L, I, A = (compute_mean(kind, a, b) for kind in "HGLIA")
    assert a < H < G < L < I < A < b
    assert math.isclose(L, 1e10 / (310 * math.log(10)), rel_tol=1e-14)
    assert math.isclose(I, b / math.e, rel_tol=1e-14)
    assert compute_mean("Ls", a, b, s=-1) == L and compute_mean("Ls", a, b, s=0) == I
    for s in (-2.0, -0.5, 0.5, 2.0):
        assert a < compute_mean("Ls", a, b, s=s) < b, s


def test_gap_power_hand_values():
    assert abs(means_gap("4.2-p1", 2, 1, 1, 2, s=2) - 1 / 6) <= 1e-14
    assert abs(means_gap("4.2-p1", 1, 0, 1, 2, s=2) + 1 / 12) <= 1e-14
    assert means_gap("4.2-p1", 3, 1, 1.4, 1.4, s=2) == 0.0


def test_gap_power_is_rule_deficit_of_power_function():
    rng = np.random.default_rng(37)
    for _ in range(25):
        m = float(rng.uniform(0.5, 6))
        ell = float(rng.uniform(0, m / 2))
        s = float(rng.uniform(-2, 3))
        if abs(s) < 0.05:
            continue
        a = float(rng.uniform(0.2, 2))
        b = a + float(rng.uniform(0.1, 2))
        f = parse(f"x^{repr(s)}")
        iv = Interval(a, b)
        mean = average_value(as_function(f), iv)
        from quadbound.rules import lhs_value

        deficit = lhs_value(rule_from_lm(LMRule(m, ell)), *node_values(f, iv), mean)
        gap = means_gap("4.2-p1", m, ell, a, b, s=s)
        assert abs(gap - deficit) <= 1e-9 * max(1.0, abs(deficit))


def test_gap_log_against_oracle():
    f = as_function(parse("ln(x)"))
    for (m, ell, a, b) in ((2, 1, 1.0, math.e), (1, 0, 1.0, 2.0), (6, 1, 0.4, 5.0)):
        ln_i = average_value(f, Interval(a, b))
        combo = (2 * ell * math.log(math.sqrt(a * b))
                 + (m - 2 * ell) * math.log((a + b) / 2)) / m
        assert abs(means_gap("4.5-p1", m, ell, a, b) - (combo - ln_i)) <= 1e-11


def test_gap_validation():
    with pytest.raises(ValueError):
        means_gap("4.2-p1", 2, 3, 1, 2, s=2)  # m < 2 ell
    with pytest.raises(ValueError):
        means_gap("4.2-p1", 2, 1, 1, 2, s=0)  # s = 0
    with pytest.raises(ValueError):
        means_gap("4.5-p1", -1, 0, 1, 2)
    with pytest.raises(ValueError, match="^need a <= b, got a=2.0, b=1.0$"):
        means_gap("4.2-p1", 2, 1, 2.0, 1.0, s=2)  # as means_bound


def test_means_bound_worked_instance():
    # (m, ell, s, a, b) = (2, 1, 2, 1, 2): gap 1/6, q = 1 bound 3/4
    gap = means_gap("4.2-p1", 2, 1, 1, 2, s=2)
    rhs = means_bound("4.2-p1", 2, 1, 1, 2, s=2, q=1.0)
    assert abs(gap - 1 / 6) <= 1e-14
    assert abs(rhs - 0.75) <= 1e-14
    assert abs(gap) <= rhs


def test_means_bound_particular_forms():
    rng = np.random.default_rng(41)
    for _ in range(25):
        m = float(rng.uniform(0.5, 6))
        ell = float(rng.uniform(0, m / 2))
        a = float(rng.uniform(0.2, 3))
        b = a + float(rng.uniform(0.1, 3))
        s = float(rng.uniform(2, 3))  # (s-1)q >= 1 must hold at q = 1
        # q = 1 power bound collapses to |s| [4 ell^2 + (m-2 ell)^2] A(a^(s-1), b^(s-1))
        want = ((b - a) / (4 * m**2) * abs(s) * (4 * ell**2 + (m - 2 * ell) ** 2)
                * compute_mean("A", a ** (s - 1), b ** (s - 1)))
        got = means_bound("4.2-p1", m, ell, a, b, s=s, q=1.0)
        assert abs(got - want) <= 1e-12 * max(1.0, want)
        # q = 1 log bound collapses to [4 ell^2 + (m-2 ell)^2] / H(a, b)
        want = ((b - a) / (4 * m**2) * (4 * ell**2 + (m - 2 * ell) ** 2)
                / compute_mean("H", a, b))
        got = means_bound("4.5-p1", m, ell, a, b, q=1.0)
        assert abs(got - want) <= 1e-12 * max(1.0, want)
        # q = 1 harmonic bound collapses to [4 ell^2 + (m-2 ell)^2] / H(a^2, b^2)
        want = ((b - a) / (4 * m**2) * (4 * ell**2 + (m - 2 * ell) ** 2)
                / compute_mean("H", a**2, b**2))
        got = means_bound("4.3-p1", m, ell, a, b, q=1.0)
        assert abs(got - want) <= 1e-12 * max(1.0, want)


def test_means_bound_routes_through_dsl_functions():
    # the bound must equal the generic bound computed from f as a DSL
    # expression, guarding against transcription drift
    rng = np.random.default_rng(43)
    for _ in range(20):
        m = float(rng.uniform(0.5, 6))
        ell = float(rng.uniform(0, m / 2))
        a = float(rng.uniform(0.2, 3))
        b = a + float(rng.uniform(0.1, 3))
        q = float(rng.uniform(1.1, 4))
        p = q * float(rng.uniform(0.05, 1.0))
        s = float(rng.uniform(-2, 3))
        if s == 0 or not admissible_power(s, q):
            continue
        rule = rule_from_lm(LMRule(m, ell))
        iv = Interval(a, b)
        for theorem, source in (("4.1", f"x^{repr(s)}"), ("4.4", "ln(x)")):
            deriv = differentiate(parse(source))
            d = DerivEndpoints(abs(float(evaluate(deriv, a))),
                               abs(float(evaluate(deriv, b))))
            want = bound_pq(rule, HolderParams(p, q), d, iv)
            got = means_bound(theorem, m, ell, a, b,
                              s=s if theorem == "4.1" else None, p=p, q=q)
            assert abs(got - want) <= 1e-12 * max(1.0, want), theorem
        deriv = differentiate(parse(f"x^{repr(s)}"))
        d = DerivEndpoints(abs(float(evaluate(deriv, a))),
                           abs(float(evaluate(deriv, b))))
        assert abs(means_bound("4.2-p1", m, ell, a, b, s=s, q=q)
                   - bound(rule, d, iv, q, 1.0)[0]) <= 1e-12
        assert abs(means_bound("4.2-pq", m, ell, a, b, s=s, q=q)
                   - bound(rule, d, iv, q, q)[0]) <= 1e-12


@pytest.mark.parametrize("theorem, s", [("4.2-p1", 2.5), ("4.3-p1", None), ("4.5-p1", None)])
def test_means_bound_differentiates_f_once_through_the_instance(monkeypatch, theorem, s):
    # f' is differentiated from f by the Instance the bound builds, once
    from quadbound import campaign

    calls = []
    differentiate = campaign.differentiate
    monkeypatch.setattr(campaign, "differentiate",
                        lambda node: calls.append(node) or differentiate(node))
    means_bound(theorem, 2, 1, 1.0, 2.0, s=s, q=1.0)
    f = {"4.2-p1": Pow(Var(), 2.5), "4.3-p1": Pow(Var(), -1.0), "4.5-p1": Call("ln", Var())}
    assert calls == [f[theorem]]


def _hand_written_bound(theorem, m, ell, a, b, s, p, q):
    """means_bound with |f'| at the ends written out by hand: |s| x^(s-1)
    by numpy's scalar power (inf past the float range), or 1/x."""
    family, form = MEANS_THEOREMS[theorem]
    s = {"power": s, "harmonic": -1.0, "log": None}[family]
    if s is None:
        d = DerivEndpoints(1 / a, 1 / b)
    else:
        with np.errstate(over="ignore"):
            d = DerivEndpoints(*(float(abs(s) * np.float64(x) ** (s - 1)) for x in (a, b)))
    return bound(rule_from_lm(LMRule(m, ell)), d, Interval(a, b), q, form_p(form, q, p))[0]


def _outcome(fn, *args):
    try:
        return fn(*args).hex()
    except ValueError as exc:
        return str(exc)


def test_means_bound_equals_the_bound_on_hand_written_ends():
    # bit for bit, and the same error where an end or the bound overflows,
    # at 10^+-300 and relative widths down to 1e-15
    rng = np.random.default_rng(71)
    theorems = sorted(MEANS_THEOREMS)
    errors = set()
    for _ in range(2000):
        theorem = theorems[int(rng.integers(len(theorems)))]
        general = MEANS_THEOREMS[theorem][1] == "general"
        m = float(rng.uniform(0.5, 6))
        ell = float(rng.uniform(0, m / 2))
        a = float(10.0 ** rng.uniform(-300, 300))
        b = a * (1 + float(10.0 ** rng.uniform(-15, 0.5)))
        q = float(rng.uniform(1.05, 3)) if general or rng.random() < 0.5 else 1.0
        p = q * float(rng.uniform(0.05, 1)) if general else None
        s = 0.0
        while s == 0 or not admissible_power(s, q):
            s = float(rng.uniform(-2, 3))
        args = (theorem, m, ell, a, b, s, p, q)
        got = _outcome(lambda *x: means_bound(*x[:5], s=x[5], p=x[6], q=x[7]), *args)
        assert got == _outcome(_hand_written_bound, *args), args
        if not got.startswith("0x"):
            errors.add(got.split(" [")[0])
    assert errors >= {"|f'| is not finite at the ends of", "the bound overflows on"}, errors


def test_means_bound_admissibility_errors():
    with pytest.raises(ValueError, match="inadmissible"):
        means_bound("4.2-p1", 2, 1, 1, 2, s=1.5, q=1.0)
    with pytest.raises(ValueError, match="requires q > 1"):
        means_bound("4.1", 2, 1, 1, 2, s=2, q=1.0, p=1.0)
    with pytest.raises(ValueError, match="requires p"):
        means_bound("4.4", 2, 1, 1, 2, q=2.0)
    with pytest.raises(ValueError, match="unknown theorem"):
        means_bound("4.9", 2, 1, 1, 2)


@pytest.mark.parametrize("q", [math.nan, 0.5])
def test_means_bound_checks_q_before_admissibility(q):
    # (s = 2, q) is checked for the form first, so a bad q is blamed on q
    with pytest.raises(ValueError, match="the p1 form requires q >= 1"):
        means_bound("4.2-p1", 2, 1, 1, 2, s=2, q=q)


def test_means_bound_equal_endpoints():
    assert means_bound("4.2-p1", 2, 1, 1.3, 1.3, s=2, q=1.0) == 0.0
    assert means_gap("4.2-p1", 2, 1, 1.3, 1.3, s=2) == 0.0


def test_means_soundness_sampled():
    rng = np.random.default_rng(47)
    for theorem in MEANS_THEOREMS:
        checked = 0
        while checked < 60:
            m = float(rng.uniform(0.5, 6))
            ell = float(rng.uniform(0, m / 2))
            a = float(rng.uniform(0.2, 4))
            b = a + float(rng.uniform(0.1, 4))
            needs_p = MEANS_THEOREMS[theorem][1] == "general"
            q = float(rng.uniform(1.05, 4)) if needs_p else float(rng.uniform(1, 4))
            p = q * float(rng.uniform(0.05, 1.0)) if needs_p else None
            s = None
            if MEANS_THEOREMS[theorem][0] == "power":
                s = float(rng.uniform(-2, 3))
                if s == 0 or not admissible_power(s, q):
                    continue
            gap = means_gap(theorem, m, ell, a, b, s=s)
            rhs = means_bound(theorem, m, ell, a, b, s=s, p=p, q=q)
            assert abs(gap) <= rhs + 1e-9, (theorem, m, ell, s, a, b, q, p)
            checked += 1


def test_power_gaps_against_a_60_digit_reference():
    # Theorems 4.1-4.3 on intervals of every width down to b - a = 1e-13 a,
    # at scales 1e-30 to 1e30, against the deficit taken in 60-digit decimal
    # arithmetic.  The gap may err by the rounding of its own terms, and must
    # never exceed the bound.
    rng = np.random.default_rng(59)
    theorems = [t for t, (family, _) in MEANS_THEOREMS.items() if family != "log"]
    ctx = decimal.Context(prec=60)
    worst = 0.0
    for _ in range(2000):
        theorem = theorems[int(rng.integers(len(theorems)))]
        family, form = MEANS_THEOREMS[theorem]
        m = float(rng.uniform(1, 8))
        ell = float(rng.uniform(0, m / 2))
        a = 10 ** float(rng.uniform(-30, 30))
        b = a * (1 + 10 ** float(rng.uniform(-13, 1)))
        q = 1.0 if form == "p1" and rng.random() < 0.5 else float(rng.uniform(1.05, 3))
        p = q * float(rng.uniform(0.05, 1)) if form == "general" else None
        s = -1.0  # f(x) = 1/x for the harmonic theorems
        if family == "power":
            s = float(rng.uniform(-3, 4))
            while not admissible_power(s, q):
                s = float(rng.uniform(-3, 4))

        A, B, S = Decimal(a), Decimal(b), Decimal(s)
        U = ctx.add(S, 1)
        if U:
            mean = ctx.divide(ctx.subtract(ctx.power(B, U), ctx.power(A, U)),
                              ctx.multiply(U, ctx.subtract(B, A)))
        else:
            mean = ctx.divide(ctx.subtract(ctx.ln(B), ctx.ln(A)), ctx.subtract(B, A))
        fa, fb, fm = (ctx.power(x, S) for x in (A, B, ctx.divide(ctx.add(A, B), 2)))
        lam = ctx.divide(Decimal(ell), Decimal(m))
        exact = ctx.subtract(ctx.add(ctx.multiply(lam, ctx.add(fa, fb)),
                                     ctx.multiply(ctx.subtract(1, ctx.multiply(2, lam)), fm)),
                             mean)

        draw = (theorem, m, ell, s, a, b, q, p)
        assert abs(_ls_power(s, a, b) / float(mean) - 1) <= 8 * EPS, draw
        gap = means_gap(theorem, m, ell, a, b, s=s)
        terms = float(abs(fa) + abs(fb) + abs(fm) + abs(mean))
        assert abs(gap - float(exact)) <= 8 * EPS * terms, draw
        rhs = means_bound(theorem, m, ell, a, b, s=s, p=p, q=q)
        assert abs(gap) <= rhs, draw
        worst = max(worst, abs(gap - float(exact)) / rhs)
    print(f"worst |gap - exact|/rhs over 2000 draws: {worst:.3g}")
