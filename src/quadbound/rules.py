"""The three-point quadrature rule family and its signed deficit.

A rule Q(lam, mu) approximates the mean integral of f over [a, b] by

    (1 - mu) f(a) + lam f(b) + (mu - lam) f((a+b)/2),

and ``lhs_value`` returns the signed deficit Q - mean integral from f(a),
f(b), f((a+b)/2) and the mean.  The deficit equals two half-interval
integrals of (weight - t) f'(ta + (1-t)b), with t = 0 mapping to b and
t = 1 to a (deliberate; do not "fix" it); the tests compute that identity
numerically as a fixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# as_function, evaluate and integrate are unused here but stay module
# attributes: perfbench/spans.py traces them.
from .expr import as_function, evaluate
from .oracle import integrate

__all__ = [
    "RuleParams",
    "LMRule",
    "NAMED_RULES",
    "named_rule",
    "rule_from_lm",
    "lhs_value",
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
        if not (math.isfinite(self.m) and math.isfinite(self.ell)):
            raise ValueError(f"m and ell must be finite, got m={self.m}, ell={self.ell}")
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


def lhs_value(rule: RuleParams, fa: float, fb: float, fm: float,
              mean_integral: float) -> float:
    """Signed deficit (1-mu) f(a) + lam f(b) + (mu-lam) f(mid) - mean_integral."""
    return (1 - rule.mu) * fa + rule.lam * fb + (rule.mu - rule.lam) * fm - mean_integral
