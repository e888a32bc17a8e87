"""Closed-form error bounds for the three-point rule family.

Two master formulas are implemented and ``bound`` dispatches to them on (q, p):

* ``bound_q1`` -- the |f'|-convex bound, a pair of cubic polynomials in
  (lam, mu).  Written in plain rational arithmetic so Fraction inputs stay
  exact.
* ``bound_pq`` -- the Hoelder (p, q) bound for q > 1, 0 < p <= q, assembled
  per half-interval from the closed-form kernel moments, whose per-half
  forms ``kernel_moments_closed`` shares.  It is one point of the curve
  p -> bound that ``_pq_curve`` builds once per (rule, q, d, interval);
  ``optimize_p`` searches that curve.

The specializations (p = 1, p = q, the (m, ell) family, the seven named
rules) are not reimplemented: each is ``bound`` at some (rule, q, p), and
their fully expanded closed forms live in the test suite as golden fixtures
asserting equality with this dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .oracle import Interval
from .rules import LMRule, RuleParams

__all__ = [
    "HolderParams",
    "DerivEndpoints",
    "overflow_as_inf",
    "KernelMoments",
    "q1_coefficients",
    "bound_q1",
    "kernel_moments_closed",
    "bound_pq",
    "bound",
    "form",
    "form_p",
    "formula_id",
    "optimize_p",
    "optimize_rule",
]

_P_GRID_POINTS = 64  # log-spaced p values tried before the golden refinement
_RULE_TOL = 1.25e-7  # golden-section tolerance on each rule weight
_GOLDEN_MAX_ITER = 200  # golden-section steps at most, far above any tolerance's need


@dataclass(frozen=True)
class HolderParams:
    """Hoelder exponent pair: q > 1 and q >= p > 0."""

    p: float
    q: float

    def __post_init__(self):
        if not self.q > 1:
            raise ValueError(f"q must be > 1, got {self.q}")
        if not 0 < self.p <= self.q:
            raise ValueError(f"p must satisfy 0 < p <= q, got p={self.p}, q={self.q}")


@dataclass(frozen=True)
class DerivEndpoints:
    """Endpoint derivative magnitudes |f'(a)|, |f'(b)|."""

    da: float
    db: float

    def __post_init__(self):
        if self.da < 0 or self.db < 0:
            raise ValueError("derivative magnitudes must be nonnegative")

    @classmethod
    def of(cls, fp, a, b) -> "DerivEndpoints":
        """|fp| at a and b; inf at an end where a float power overflows, for ``bound`` to name."""
        return cls(abs(overflow_as_inf(fp, a)), abs(overflow_as_inf(fp, b)))


def overflow_as_inf(fn, x):
    """fn(x), or inf where a float power in fn overflows (Python raises there)."""
    try:
        return fn(x)
    except OverflowError:
        return math.inf


def _require_bound_admissible(rule: RuleParams) -> None:
    if not rule.bound_admissible:
        raise ValueError(
            f"rule (lam={rule.lam}, mu={rule.mu}) is not bound-admissible: "
            "need 0 <= lam <= 1/2 <= mu <= 1"
        )


def q1_coefficients(lam, mu):
    """The two cubics multiplying |f'(a)| and |f'(b)| in the q = 1 bound."""
    ca = 10 - 3 * lam + 8 * lam**3 - 15 * mu + 8 * mu**3
    cb = 8 - 9 * lam + 24 * lam**2 - 8 * lam**3 - 21 * mu + 24 * mu**2 - 8 * mu**3
    return ca, cb


def bound_q1(rule: RuleParams, d: DerivEndpoints, interval: Interval):
    """|f'|-convex bound.  Exact under Fraction inputs."""
    _require_bound_admissible(rule)
    ca, cb = q1_coefficients(rule.lam, rule.mu)
    return (interval.b - interval.a) * (ca * d.da + cb * d.db) / 24


class KernelMoments(NamedTuple):
    hoelder_factor: float
    weight_a: float
    weight_b: float


# The closed forms below are written once and shared by
# ``kernel_moments_closed`` and ``_pq_curve``.  Each keeps the expressions,
# and their order, of the per-side formulas, so every result is the same
# float whichever caller computes it.

def _p_terms(p, q, two_q, q_minus_1):
    """The terms of both halves that depend on p: p + 1, p + 2, p + 3, the
    Hoelder exponent (2q - p - 1)/(q - 1), the factor's prefactor
    (q - 1)/(2q - p - 1) and the weights' divisor (p + 1)(p + 2)."""
    expo_num = two_q - p - 1
    expo = expo_num / q_minus_1
    if not math.isfinite(expo):
        raise OverflowError(f"Hoelder exponent overflow for q={q}, p={p}")
    p1, p2 = p + 1, p + 2
    return p1, p2, p + 3, expo, q_minus_1 / expo_num, p1 * p2


def _left_half(lam, near, terms):
    """(hoelder_factor, weight_a, weight_b) of the left half; near = 1/2 - lam."""
    p1, p2, p3, expo, factor, denom = terms
    near_p1 = near ** p1
    return (factor * (near ** expo + lam ** expo),
            (0.5 * (p1 + 2 * lam) * near_p1 + lam ** p2) / denom,
            (0.5 * (p3 - 2 * lam) * near_p1 + (p2 - lam) * lam ** p1) / denom)


def _right_half(mu, near, far, terms):
    """(hoelder_factor, weight_a, weight_b) of the right half; near = mu - 1/2,
    far = 1 - mu."""
    p1, p2, p3, expo, factor, denom = terms
    near_p1 = near ** p1
    return (factor * (near ** expo + far ** expo),
            (0.5 * (p1 + 2 * mu) * near_p1 + (p1 + mu) * far ** p1) / denom,
            (0.5 * (p3 - 2 * mu) * near_p1 + far ** p2) / denom)


def _factor_underflow(q, p) -> OverflowError:
    # The factor is strictly positive mathematically; an exact zero means
    # base**expo underflowed (q extremely close to 1), and powering it by
    # 1 - 1/q downstream would silently collapse the bound.
    return OverflowError(f"Hoelder factor underflow for q={q}, p={p} (q too close to 1)")


def kernel_moments_closed(shift: float, side: str, hp: HolderParams) -> KernelMoments:
    """Closed forms of the three half-interval kernel moments.

    ``hoelder_factor`` is the integral of |shift - t|**((q-p)/(q-1)) over the
    half-interval; ``weight_a``/``weight_b`` are the coefficients of
    |f'(a)|**q and |f'(b)|**q in the integral of |shift - t|**p * (t, 1-t)
    weights, already divided by (p+1)(p+2).
    """
    p, q = hp.p, hp.q
    terms = _p_terms(p, q, 2 * q, q - 1)
    if side == "left":
        if not 0 <= shift <= 0.5:
            raise ValueError(f"left shift must lie in [0, 1/2], got {shift}")
        h, wa, wb = _left_half(shift, 0.5 - shift, terms)
    elif side == "right":
        if not 0.5 <= shift <= 1:
            raise ValueError(f"right shift must lie in [1/2, 1], got {shift}")
        h, wa, wb = _right_half(shift, shift - 0.5, 1 - shift, terms)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if h == 0:
        raise _factor_underflow(q, p)
    return KernelMoments(h, wa, wb)


def _pq_curve(rule: RuleParams, q: float, d: DerivEndpoints, interval: Interval):
    """p -> the Hoelder bound at (p, q), for 0 < p <= q.

    Everything that does not depend on p (the check of the rule, the
    half-interval distances, |f'(a)|**q, |f'(b)|**q, 1/q and b - a) is
    computed here once, so an overflow of |f'|^q is raised here, before any
    p; each p computes only its own terms.  Both callers have checked q and p.
    """
    _require_bound_admissible(rule)
    lam, mu = rule.lam, rule.mu
    near_left, near_right, far_right = 0.5 - lam, mu - 0.5, 1 - mu
    two_q, q_minus_1 = 2 * q, q - 1
    daq, dbq = d.da ** q, d.db ** q
    factor_exp, weight_exp = 1 - 1 / q, 1 / q
    width = interval.b - interval.a

    def rhs(p):
        terms = _p_terms(p, q, two_q, q_minus_1)
        hl, wal, wbl = _left_half(lam, near_left, terms)
        if hl == 0:
            raise _factor_underflow(q, p)
        hr, war, wbr = _right_half(mu, near_right, far_right, terms)
        if hr == 0:
            raise _factor_underflow(q, p)
        return width * (hl ** factor_exp * (wal * daq + wbl * dbq) ** weight_exp
                        + hr ** factor_exp * (war * daq + wbr * dbq) ** weight_exp)

    return rhs


def bound_pq(rule: RuleParams, hp: HolderParams, d: DerivEndpoints,
             interval: Interval) -> float:
    """General Hoelder bound, assembled per half-interval as

    (b-a) * sum_side hoelder_factor**(1-1/q) * (wa |f'(a)|^q + wb |f'(b)|^q)**(1/q).
    """
    return _pq_curve(rule, hp.q, d, interval)(hp.p)


def bound(rule: RuleParams, d: DerivEndpoints, interval: Interval,
          q: float = 1.0, p: Optional[float] = None) -> tuple[float, Optional[float]]:
    """The bound at exponents (q, p), and the p it used.

    q = 1 is the |f'|-convex bound, which does not involve p (p is ignored
    and None returned); q > 1 is the Hoelder bound at p, or at the p that
    minimizes it when p is None.
    """
    # Every command's bound comes here: |f'| finite at the ends, 1 <= q < inf, |f'|^q finite.
    da, db = d.da, d.db
    if not (math.isfinite(da) and math.isfinite(db)):
        raise ValueError(f"|f'| is not finite at the ends of [{interval.a}, {interval.b}]: "
                         f"|f'(a)|, |f'(b)| = {da}, {db}")
    if not 1 <= q < math.inf:
        raise ValueError(f"q must be finite and >= 1, got {q}")
    if q > 1:  # d ** 1 is d
        try:
            max(da, db) ** q
        except OverflowError:
            raise ValueError(f"|f'|^q overflows at the ends of [{interval.a}, {interval.b}] "
                             f"at q = {q}: |f'(a)|, |f'(b)| = {da}, {db}") from None
    if q == 1:
        rhs, p = bound_q1(rule, d, interval), None
    elif p is None:
        p, rhs = optimize_p(rule, q, d, interval)
    else:
        rhs = bound_pq(rule, HolderParams(p, q), d, interval)
    # finite ends near 1e308 can still overflow the rhs: named, not printed as Infinity
    if not math.isfinite(rhs):
        raise ValueError(f"the bound overflows on [{interval.a}, {interval.b}] at q = {q}: "
                         f"rhs = {rhs} from |f'(a)|, |f'(b)| = {da}, {db}")
    return rhs, p


def form(q: float, p: Optional[float]) -> str:
    """The form of the bound at (q, p): q = 1, p = 1, p = q, or general p."""
    if q == 1:
        return "q1"
    if p == 1:
        return "p1"
    if p == q:
        return "pq"
    return "general"


def form_p(kind: str, q: float, p: Optional[float] = None) -> float:
    """The p at which a bound of form ``kind`` (p1, pq or general) is taken
    at q, and the one check of which (q, p) each form takes: p1 and pq need
    q >= 1 and fix p, so take none; general needs q > 1 and a p."""
    if kind == "general":
        if not q > 1:
            raise ValueError(f"the general form requires q > 1, got q={q}")
        if p is None:
            raise ValueError("the general form requires p")
        return p
    if not q >= 1:
        raise ValueError(f"the {kind} form requires q >= 1, got q={q}")
    if p is not None:
        raise ValueError(f"the {kind} form fixes p; do not pass p")
    return {"p1": 1.0, "pq": q}[kind]


# form -> formula id when the rule is given by (lam, mu), by (m, ell), by name
_FORMULA_IDS = {
    "q1": ("thm3.1", "thm3.1", "cor3.7-{}"),
    "p1": ("cor3.1-p1", "cor3.3-p1", "cor3.6-{}"),
    "pq": ("cor3.1-pq", "cor3.3-pq", "cor3.5-{}"),
    "general": ("thm3.2", "cor3.2", "cor3.4-{}"),
}


def formula_id(q: float, p: Optional[float], given: Union[str, LMRule, None] = None) -> str:
    """Identifier of the theorem/corollary a bound instance was produced by;
    ``given`` is how its rule was given: its name, an LMRule, or None for (lam, mu)."""
    column = 2 if isinstance(given, str) else 1 if given is not None else 0
    return _FORMULA_IDS[form(q, p)][column].format(given)


def _golden_min(f, lo: float, hi: float, tol: float):
    """Golden-section search for the minimum of f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1) / 2
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_MAX_ITER):
        if hi - lo <= tol:
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    x = (lo + hi) / 2
    return x, f(x)


def optimize_p(rule: RuleParams, q: float, d: DerivEndpoints,
               interval: Interval) -> tuple[float, float]:
    """Minimize ``bound_pq`` over p in (0, q].

    Brackets the minimum on a log-spaced grid (p = 1 and p = q are always
    included), then refines by golden-section search, all on one curve.  An
    |f'|^q that overflows is raised before any p.  A p whose bound
    underflows or overflows scores +inf; if every grid point does, the
    first grid point's error is raised.
    """
    if not q > 1:
        raise ValueError(f"optimize_p requires q > 1, got {q}")
    curve = _pq_curve(rule, q, d, interval)
    errors = []

    def f(p):
        try:
            return curve(p)
        except OverflowError as exc:
            errors.append(exc)
            return math.inf

    n = _P_GRID_POINTS
    grid = sorted({q * 10 ** (-6 * (1 - i / (n - 1))) for i in range(n)} | {1.0, q})
    values = [f(p) for p in grid]
    if len(errors) == len(grid):
        raise errors[0]
    i = min(range(len(grid)), key=values.__getitem__)
    lo = grid[i - 1] if i > 0 else grid[i]
    hi = grid[i + 1] if i + 1 < len(grid) else grid[i]
    p_star, v_star = _golden_min(f, lo, hi, tol=1e-9 * q)
    if values[i] < v_star:
        p_star, v_star = grid[i], values[i]
    return p_star, v_star


def optimize_rule(q: float, p: Optional[float], d: DerivEndpoints,
                  interval: Interval) -> tuple[RuleParams, float]:
    """Minimize ``bound`` at fixed (q, p) over the rule weights.

    Both bounds are a left-half term in lam plus a right-half term in mu, so
    the minimum over [0, 1/2] x [1/2, 1] is found by golden-section search
    one half at a time: mu at lam = 0, lam at that mu, then mu at that lam.
    In exact arithmetic the first mu search is redundant; running the lam
    search at the minimizing mu fixes its rounding.
    """
    if q > 1 and p is None:
        raise ValueError(f"optimizing the rule at q = {q} > 1 requires p")

    def f(lam, mu):
        return bound(RuleParams(lam, mu), d, interval, q, p)[0]

    mu, _ = _golden_min(lambda t: f(0.0, t), 0.5, 1.0, tol=_RULE_TOL)
    lam, _ = _golden_min(lambda t: f(t, mu), 0.0, 0.5, tol=_RULE_TOL)
    mu, value = _golden_min(lambda t: f(lam, t), 0.5, 1.0, tol=_RULE_TOL)
    return RuleParams(lam, mu), value
