"""Test fixture: the rule family in a second ("folded") parametrization.

The deficit of (lam f(a) + mu f(b))/2 + ((2-lam-mu)/2) f(mid) equals a
single-interval integral of f'.  No bound or command uses this form; the
tests use it as an independent check of ``rules.lhs_value`` and the
half-interval identity, through the substitution lam -> mu/2,
mu -> 1 - lam/2.
"""

from quadbound.expr import ExprNode, as_function, evaluate
from quadbound.oracle import DEFAULT_TOL, Interval, integrate
from quadbound.rules import RuleParams


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
