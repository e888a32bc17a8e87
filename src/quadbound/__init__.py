"""Certified a-priori error bounds for three-point quadrature rules
(midpoint / trapezoid / Simpson and the whole (lambda, mu) family) for
functions whose first derivative raised to a power q is convex, plus the
special-means inequalities these bounds imply."""

from .bounds import (
    DerivEndpoints,
    HolderParams,
    bound,
    bound_pq,
    bound_q1,
    kernel_moments_closed,
    optimize_p,
    optimize_rule,
)
from .convexity import ConvexityCertificate, admissible_power, certify_convex
from .expr import differentiate, domain_check, evaluate, parse, to_source
from .means import compute_mean, means_bound, means_gap_log, means_gap_power
from .oracle import (
    Interval,
    IntegrationError,
    QuadratureResult,
    average_value,
    integrate,
    kernel_moment_numeric,
)
from .rules import (
    LMRule,
    NAMED_RULES,
    RuleParams,
    identity_rhs_half,
    lhs_value,
    rule_from_lm,
)

__version__ = "0.1.0"
