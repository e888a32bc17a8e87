"""The three-point quadrature rule family and its integral identities.

A rule Q(lam, mu) approximates the mean integral of f over [a, b] by

    (1 - mu) f(a) + lam f(b) + (mu - lam) f((a+b)/2),

and ``lhs_value`` returns the signed deficit Q - mean integral.  The deficit
equals two half-interval integrals of (weight - t) f'(ta + (1-t)b) --
``identity_rhs_half``, computed numerically so the identity is a testable
equality.

Note the substitution orientation: t = 0 maps to b and t = 1 to a.  This is
deliberate; do not "fix" it.
"""

from __future__ import annotations

from dataclasses import dataclass

# evaluate is unused here but stays a module attribute: perfbench/spans.py traces it.
from .expr import ExprNode, as_function, evaluate
from .oracle import DEFAULT_TOL, Interval, integrate

__all__ = [
    "RuleParams",
    "LMRule",
    "NAMED_RULES",
    "named_rule",
    "rule_from_lm",
    "lhs_value",
    "identity_rhs_half",
]


@dataclass(frozen=True)
class RuleParams:
    """Rule weights (lam, mu).  Any reals satisfy the integral identity; the
    error bounds additionally require 0 <= lam <= 1/2 <= mu <= 1."""

    lam: float
    mu: float

    @property
    def bound_admissible(self) -> bool:
        return 0 <= self.lam <= 0.5 <= self.mu <= 1


@dataclass(frozen=True)
class LMRule:
    """(m, ell) parametrization: lam = ell/m, mu = 1 - ell/m."""

    m: float
    ell: float

    def __post_init__(self):
        if self.m == 0:
            raise ValueError("m must be nonzero")

    @property
    def bound_admissible(self) -> bool:
        return self.m > 0 and self.m >= 2 * self.ell >= 0


NAMED_RULES = {
    "midpoint": LMRule(1, 0),
    "trapezoid": LMRule(2, 1),
    "avg3": LMRule(3, 1),
    "avg-mid": LMRule(4, 1),
    "fifth-13": LMRule(5, 1),
    "fifth-221": LMRule(5, 2),
    "simpson": LMRule(6, 1),
}


def named_rule(name: str) -> LMRule:
    try:
        return NAMED_RULES[name]
    except KeyError:
        raise ValueError(
            f"unknown rule {name!r}; expected one of {', '.join(NAMED_RULES)}"
        )


def rule_from_lm(lm: LMRule) -> RuleParams:
    lam = lm.ell / lm.m
    return RuleParams(lam, 1 - lam)


def lhs_value(rule: RuleParams, f: ExprNode, interval: Interval,
              mean_integral: float) -> float:
    """Signed deficit (1-mu) f(a) + lam f(b) + (mu-lam) f(mid) - mean_integral."""
    fn = as_function(f)
    fa, fb, fm = fn(float(interval.a)), fn(float(interval.b)), fn(float(interval.midpoint))
    return (1 - rule.mu) * fa + rule.lam * fb + (rule.mu - rule.lam) * fm - mean_integral


def identity_rhs_half(rule: RuleParams, fprime: ExprNode, interval: Interval,
                    tol: float = DEFAULT_TOL) -> float:
    """Half-interval identity right-hand side for the deficit of ``rule``."""
    a, b = float(interval.a), float(interval.b)
    fp = as_function(fprime)

    def left(t):
        return (rule.lam - t) * fp(t * a + (1 - t) * b)

    def right(t):
        return (rule.mu - t) * fp(t * a + (1 - t) * b)

    li = integrate(left, Interval(0.0, 0.5), tol)
    ri = integrate(right, Interval(0.5, 1.0), tol)
    return (b - a) * (li.value + ri.value)
