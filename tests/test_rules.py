import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from folded_fixtures import (
    folded_params_for_rule,
    identity_rhs_folded,
    lhs_value_folded,
    rule_for_folded,
)
from quadbound.campaign import draw_function
from quadbound.expr import differentiate, parse, as_function
from quadbound.oracle import Interval, average_value
from quadbound.rules import (
    LMRule,
    NAMED_RULES,
    RuleParams,
    identity_rhs_half,
    lhs_value,
    named_rule,
    rule_from_lm,
)


def test_rule_from_lm_examples():
    assert rule_from_lm(LMRule(6, 1)) == RuleParams(1 / 6, 5 / 6)
    assert rule_from_lm(LMRule(1, 0)) == RuleParams(0.0, 1.0)
    assert rule_from_lm(LMRule(2, 1)) == RuleParams(0.5, 0.5)


def test_lm_rule_rejects_zero_m():
    with pytest.raises(ValueError):
        LMRule(0, 1)


@pytest.mark.parametrize("m, ell", [(math.inf, 1), (2, math.inf), (math.nan, 1)])
def test_lm_rule_rejects_non_finite_parameters(m, ell):
    with pytest.raises(ValueError, match="m and ell must be finite"):
        LMRule(m, ell)


def test_named_rules_table():
    expected = {"midpoint": (1, 0), "trapezoid": (2, 1), "avg3": (3, 1),
                "avg-mid": (4, 1), "fifth-13": (5, 1), "fifth-221": (5, 2),
                "simpson": (6, 1)}
    assert {k: (v.m, v.ell) for k, v in NAMED_RULES.items()} == expected
    with pytest.raises(ValueError, match="unknown rule"):
        named_rule("gauss")


def test_bound_admissibility_flags():
    assert RuleParams(0.2, 0.9).bound_admissible
    assert not RuleParams(0.7, 0.9).bound_admissible
    assert not RuleParams(0.2, 0.4).bound_admissible
    assert LMRule(6, 1).bound_admissible
    assert not LMRule(2, 3).bound_admissible
    assert not LMRule(-1, -1).bound_admissible


def test_lhs_value_examples():
    f = parse("x^2")
    iv = Interval(1.0, 2.0)
    mean = average_value(as_function(f), iv)
    assert abs(lhs_value(RuleParams(0.5, 0.5), f, iv, mean) - 1 / 6) <= 1e-12
    assert abs(lhs_value(RuleParams(0.0, 1.0), f, iv, mean) + 1 / 12) <= 1e-12


@given(
    lam=st.floats(-1, 2),
    c0=st.floats(-5, 5),
    c1=st.floats(-5, 5),
    a=st.floats(-3, 3),
    width=st.floats(0.1, 3),
)
@settings(max_examples=200)
def test_lhs_exact_on_affine(lam, c0, c1, a, width):
    # Weights sum to 1, and with the symmetric node contract mu = 1 - lam the
    # weighted node average is the interval midpoint, so the deficit vanishes
    # on affine functions for every lam (the asymmetric weights lam + mu != 1
    # are not exact even on affine f: the identity gives the deficit
    # c1*(b-a)*((lam+mu)/2 - 1/2) there).
    f = parse(f"{repr(c0)}+{repr(c1)}*x")
    iv = Interval(a, a + width)
    mean = c0 + c1 * (iv.a + iv.b) / 2
    scale = max(1.0, abs(c0) + abs(c1) * (abs(a) + width))
    assert abs(lhs_value(RuleParams(lam, 1 - lam), f, iv, mean)) <= 1e-12 * scale


def test_lhs_affine_deficit_off_symmetry():
    # sanity check of the formula above for an asymmetric rule
    f = parse("x")
    iv = Interval(0.0, 1.0)
    got = lhs_value(RuleParams(0.0, 0.0), f, iv, 0.5)
    assert math.isclose(got, -0.5)


def test_identity_examples():
    f = parse("x^2")
    df = differentiate(f)
    iv = Interval(1.0, 2.0)
    assert abs(identity_rhs_half(RuleParams(0.5, 0.5), df, iv) - 1 / 6) <= 1e-10
    # constant function: f' == 0
    zero = differentiate(parse("3.7"))
    assert identity_rhs_half(RuleParams(0.3, 0.6), zero, iv) == 0.0
    assert identity_rhs_folded(0.4, 0.9, zero, iv) == 0.0
    # simpson weights on a cubic
    f3 = parse("x^3")
    mean = average_value(as_function(f3), Interval(0.0, 1.0))
    simpson = rule_from_lm(NAMED_RULES["simpson"])
    lhs = lhs_value(simpson, f3, Interval(0.0, 1.0), mean)
    rhs = identity_rhs_half(simpson, differentiate(f3), Interval(0.0, 1.0))
    assert abs(lhs - rhs) <= 1e-10


def test_identity_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(60):
        draw = draw_function(rng, "mixed", q=1.0)
        lam = float(rng.uniform(-0.5, 1.0))
        mu = float(rng.uniform(0.0, 1.5))
        rule = RuleParams(lam, mu)
        mean = average_value(as_function(draw.ast), draw.interval)
        lhs = lhs_value(rule, draw.ast, draw.interval, mean)
        rhs = identity_rhs_half(rule, draw.deriv, draw.interval)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)), draw.source


def test_second_parametrization_and_equivalence():
    f = parse("x^2")
    df = differentiate(f)
    iv = Interval(1.0, 2.0)
    mean = average_value(as_function(f), iv)
    # lam = mu = 1 is the trapezoid deficit, lam = mu = 0 the midpoint deficit
    assert abs(lhs_value_folded(1, 1, f, iv, mean) - 1 / 6) <= 1e-12
    assert abs(identity_rhs_folded(1, 1, df, iv) - 1 / 6) <= 1e-10
    assert abs(lhs_value_folded(0, 0, f, iv, mean) + 1 / 12) <= 1e-12
    assert abs(identity_rhs_folded(0, 0, df, iv) + 1 / 12) <= 1e-10

    rng = np.random.default_rng(11)
    for _ in range(40):
        draw = draw_function(rng, "mixed", q=1.0)
        lam_f = float(rng.uniform(-0.5, 1.5))
        mu_f = float(rng.uniform(-0.5, 1.5))
        mean = average_value(as_function(draw.ast), draw.interval)
        lhs_f = lhs_value_folded(lam_f, mu_f, draw.ast, draw.interval, mean)
        rhs_f = identity_rhs_folded(lam_f, mu_f, draw.deriv, draw.interval)
        assert abs(lhs_f - rhs_f) <= 1e-9 * max(1.0, abs(lhs_f))
        # the two parametrizations agree through the substitution
        rule = rule_for_folded(lam_f, mu_f)
        lhs_h = lhs_value(rule, draw.ast, draw.interval, mean)
        assert abs(lhs_h - lhs_f) <= 1e-12 * max(1.0, abs(lhs_f))
        back = folded_params_for_rule(rule)
        assert math.isclose(back[0], lam_f, abs_tol=1e-12)
        assert math.isclose(back[1], mu_f, abs_tol=1e-12)


def test_named_rule_identities():
    # each named rule's deficit equals its explicit half-interval integral form
    rng = np.random.default_rng(13)
    for name, lm in NAMED_RULES.items():
        rule = rule_from_lm(lm)
        draw = draw_function(rng, "poly", q=1.0)
        mean = average_value(as_function(draw.ast), draw.interval)
        lhs = lhs_value(rule, draw.ast, draw.interval, mean)
        rhs = identity_rhs_half(rule, draw.deriv, draw.interval)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs)), name
