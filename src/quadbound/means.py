"""Special means of two positive numbers and the inequalities they satisfy.

Means: A (arithmetic), G (geometric), H (harmonic), L (logarithmic),
I (identric/exponential), and the generalized logarithmic family Ls, with
the usual dispatch Ls -> L at s = -1 and Ls -> I at s = 0.  All means return
``a`` when a == b.

Each inequality is the three-point rule (m, ell) applied to f(x) = x**s or
f(x) = ln x, whose mean on [a, b] is [Ls(a, b)]**s or ln I(a, b).  So
``means_gap`` is that rule's deficit, taken by ``rules.lhs_value``, and
``means_bound`` its bound, taken by ``bounds.bound`` from |f'| at the ends:
the mean inequalities are never a second copy of the algebra.
"""

from __future__ import annotations

import math
import sys
from typing import Optional

import numpy as np

from . import bounds
from .convexity import admissible_power
from .oracle import Interval, midpoint
from .rules import LMRule, lhs_value, rule_from_lm

__all__ = [
    "MEAN_KINDS",
    "compute_mean",
    "means_bound",
    "means_gap",
    "MEANS_THEOREMS",
]

MEAN_KINDS = ("A", "G", "H", "L", "I", "Ls")


def _check_positive(a: float, b: float) -> None:
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError(f"means are defined for finite positive numbers, got a={a}, b={b}")


def _log_ratio(a: float, b: float) -> float:
    """ln(b/a) as log1p((b - a)/a), or ln b - ln a where (b - a)/a overflows."""
    d = (b - a) / a
    return math.log1p(d) if d < math.inf else math.log(b) - math.log(a)


def _log_identric(a: float, b: float) -> float:
    # ln I = (b ln b - a ln a)/(b - a) - 1, rewritten to avoid cancellation:
    # b ln b - a ln a = a ln(b/a) + (b-a) ln b.
    if a == b:
        return math.log(a)
    return a * _log_ratio(a, b) / (b - a) + math.log(b) - 1.0


def _ls_power(s: float, a: float, b: float) -> float:
    """[Ls(a, b)]**s, the mean of x**s on [a, b] for a != b, with no cancellation.

    With u = s + 1 and x0 the end where x**u is larger, it is
    x0^s expm1(u L) / (u d), with d = (x1 - x0)/x0 and L = ln(x1/x0); the
    expm1 quotient is L itself at u = 0.  Where x0 = lo and lo^s or d is past
    the float range, it is taken from its log,
    u ln lo + ln(expm1(u L)/u) - ln(hi - lo)."""
    lo, hi = min(a, b), max(a, b)
    u = s + 1
    x0, x1 = (hi, lo) if u > 0 else (lo, hi)
    d = (x1 - x0) / x0
    lr = math.copysign(_log_ratio(lo, hi), d)  # ln(x1/x0)
    q = math.expm1(u * lr) / u if u else lr
    if u <= 0 and not (d < math.inf and s * math.log(lo) < math.log(sys.float_info.max)):
        return math.exp(u * math.log(lo) + math.log(q) - math.log(hi - lo))
    return x0**s * (q / d)


def compute_mean(kind: str, a: float, b: float, s: Optional[float] = None) -> float:
    _check_positive(a, b)
    if kind == "A":
        return midpoint(a, b)
    if kind == "G":
        return math.sqrt(a) * math.sqrt(b)
    if kind == "H":
        h = 2 * a * b / (a + b)
        # 2ab overflows or underflows where a and b are near the float limits
        return h if 0 < h < math.inf else a * (b / midpoint(a, b))
    if kind == "L":
        if a == b:
            return a
        return (b - a) / _log_ratio(a, b)
    if kind == "I":
        return math.exp(_log_identric(a, b))
    if kind == "Ls":
        if s is None:
            raise ValueError("Ls requires the parameter s")
        if a == b:
            return a
        if s == -1:
            return compute_mean("L", a, b)
        if s == 0:
            return compute_mean("I", a, b)
        try:
            power = _ls_power(s, a, b)
        except OverflowError:
            power = math.inf
        if not 0 < power < math.inf:
            raise ValueError(f"Ls(a, b)^s at s = {s} is past the float range on [{a}, {b}]")
        return power ** (1 / s)
    raise ValueError(f"kind must be one of {MEAN_KINDS}, got {kind!r}")


def _check_lm(m: float, ell: float) -> None:
    if not LMRule(m, ell).bound_admissible:
        raise ValueError(f"need m > 0 and m >= 2*ell >= 0, got m={m}, ell={ell}")


# theorem id -> (gap family, bound form (see bounds.form_p)).  Each gap is
# that of f(x) = x**s, at s = -1 for the harmonic family, or of f(x) = ln x.
MEANS_THEOREMS = {
    "4.1": ("power", "general"),
    "4.2-p1": ("power", "p1"),
    "4.2-pq": ("power", "pq"),
    "4.3-p1": ("harmonic", "p1"),
    "4.3-pq": ("harmonic", "pq"),
    "4.4": ("log", "general"),
    "4.5-p1": ("log", "p1"),
    "4.5-pq": ("log", "pq"),
}


def _theorem(theorem: str, s: Optional[float]) -> tuple[Optional[float], str]:
    """The exponent s of f(x) = x**s (None for f(x) = ln x) and the bound
    form of ``theorem``."""
    try:
        family, form = MEANS_THEOREMS[theorem]
    except KeyError:
        raise ValueError(
            f"unknown theorem {theorem!r}; expected one of {', '.join(MEANS_THEOREMS)}"
        )
    if family == "power":
        if s is None:
            raise ValueError(f"theorem {theorem} requires s")
        if not math.isfinite(s):
            raise ValueError(f"s must be finite, got {s}")
        if s == 0:
            raise ValueError("s must be nonzero")
    return {"power": s, "harmonic": -1.0, "log": None}[family], form


def means_bound(theorem: str, m: float, ell: float, a: float, b: float,
                s: Optional[float] = None, p: Optional[float] = None,
                q: float = 1.0) -> float:
    """Bound on |means_gap| for the given theorem, routed through bounds."""
    _check_positive(a, b)
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    _check_lm(m, ell)
    s, mode = _theorem(theorem, s)
    p = bounds.form_p(mode, q, p)
    if s is not None and not admissible_power(s, q):
        raise ValueError(
            f"(s={s}, q={q}) inadmissible: |s x^(s-1)|^q is convex only for "
            "s > 1 with (s-1)q >= 1, or s < 1 with s != 0"
        )
    if a == b:
        return 0.0

    if s is None:
        d = bounds.DerivEndpoints(1 / a, 1 / b)
    else:
        # an end past the float range is inf, for bounds.bound to name
        with np.errstate(over="ignore"):
            d = bounds.DerivEndpoints(*(float(abs(s) * np.float64(x) ** (s - 1))
                                        for x in (a, b)))
    return bounds.bound(rule_from_lm(LMRule(m, ell)), d, Interval(a, b), q, p)[0]


def means_gap(theorem: str, m: float, ell: float, a: float, b: float,
              s: Optional[float] = None) -> float:
    """The signed gap matching ``means_bound``: the deficit of rule (m, ell)
    on f(x) = x**s, or on f(x) = ln x, over [a, b]."""
    s = _theorem(theorem, s)[0]
    _check_positive(a, b)
    _check_lm(m, ell)
    if a == b:
        return 0.0
    nodes = (a, b, midpoint(a, b))
    try:
        if s is None:
            fs, mean = [math.log(x) for x in nodes], _log_identric(a, b)
        else:
            fs, mean = [x**s for x in nodes], _ls_power(s, a, b)
        gap = lhs_value(rule_from_lm(LMRule(m, ell)), *fs, mean)
    except OverflowError:  # a float power past the largest float
        gap = math.inf
    if not math.isfinite(gap):
        raise ValueError(f"the gap of f = x^s overflows on [{a}, {b}] at s = {s}")
    return gap
