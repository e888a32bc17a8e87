"""Test fixtures: the rule family's integral identities, numerically.

The deficit ``rules.lhs_value`` equals two half-interval integrals of
(weight - t) f'(ta + (1-t)b), ``identity_rhs_half``; ``average_value`` is
the mean integral it is taken against.  Note the substitution orientation:
t = 0 maps to b and t = 1 to a.  This is deliberate; do not "fix" it.

The rule family in a second ("folded") parametrization: the deficit of
(lam f(a) + mu f(b))/2 + ((2-lam-mu)/2) f(mid) equals a single-interval
integral of f'.  No bound or command uses this form; the tests use it as an
independent check of ``rules.lhs_value`` and the half-interval identity,
through the substitution lam -> mu/2, mu -> 1 - lam/2.
"""

from typing import Callable

from quadbound.expr import ExprNode, as_function, evaluate
from quadbound.oracle import DEFAULT_TOL, Interval, integrate
from quadbound.rules import RuleParams


def average_value(f: Callable, interval: Interval) -> float:
    """(1/(b-a)) * integral of f over [a, b], to ``DEFAULT_TOL``."""
    return integrate(f, interval).value / (interval.b - interval.a)


def node_values(f: ExprNode, interval: Interval) -> tuple[float, float, float]:
    """f(a), f(b), f(mid) at floats, in the order ``rules.lhs_value`` takes them."""
    return tuple(evaluate(f, float(x)) for x in (interval.a, interval.b, interval.midpoint))


def identity_rhs_half(rule: RuleParams, fprime: ExprNode, interval: Interval) -> float:
    """Half-interval identity right-hand side for the deficit of ``rule``,
    each half integrated to ``DEFAULT_TOL``."""
    a, b = float(interval.a), float(interval.b)
    fp = as_function(fprime)

    def left(t):
        return (rule.lam - t) * fp(t * a + (1 - t) * b)

    def right(t):
        return (rule.mu - t) * fp(t * a + (1 - t) * b)

    li = integrate(left, Interval(0.0, 0.5))
    ri = integrate(right, Interval(0.5, 1.0))
    return (b - a) * (li.value + ri.value)


def lhs_value_folded(lam: float, mu: float, f: ExprNode, interval: Interval,
                     mean_integral: float) -> float:
    """Deficit in the second parametrization:
    (lam f(a) + mu f(b))/2 + ((2-lam-mu)/2) f(mid) - mean_integral."""
    fa = evaluate(f, float(interval.a))
    fb = evaluate(f, float(interval.b))
    fm = evaluate(f, float(interval.midpoint))
    return (lam * fa + mu * fb) / 2 + (2 - lam - mu) / 2 * fm - mean_integral


def identity_rhs_folded(lam: float, mu: float, fprime: ExprNode, interval: Interval,
                        tol: float = DEFAULT_TOL) -> float:
    """Single-interval identity right-hand side matching ``lhs_value_folded``."""
    a, b = float(interval.a), float(interval.b)
    mid = (a + b) / 2
    fp = as_function(fprime)

    def integrand(t):
        return ((1 - lam - t) * fp(t * a + (1 - t) * mid)
                + (mu - t) * fp(t * mid + (1 - t) * b))

    r = integrate(integrand, Interval(0.0, 1.0), tol)
    return (b - a) / 4 * r.value


def rule_for_folded(lam: float, mu: float) -> RuleParams:
    """The half-interval rule whose deficit equals the (lam, mu) deficit of
    the second parametrization (substitute lam -> mu/2, mu -> 1 - lam/2)."""
    return RuleParams(mu / 2, 1 - lam / 2)


def folded_params_for_rule(rule: RuleParams) -> tuple[float, float]:
    """Inverse of :func:`rule_for_folded`."""
    return 2 * (1 - rule.mu), 2 * rule.lam
