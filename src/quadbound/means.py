"""Special means of two positive numbers and the inequalities they satisfy.

Means: A (arithmetic), G (geometric), H (harmonic), L (logarithmic),
I (identric/exponential), and the generalized logarithmic family Ls, with
the usual dispatch Ls -> L at s = -1 and Ls -> I at s = 0.  All means return
``a`` when a == b.

``means_gap_power`` / ``means_gap_log`` are the signed mean-combination gaps
whose absolute values the bound theorems control; ``means_bound`` produces
those bounds by routing f(x) = x**s or f(x) = ln x (via their endpoint
derivative magnitudes) into the generic bounds module, so the mean
inequalities are never a second copy of the algebra.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import bounds
from .convexity import admissible_power
from .oracle import Interval, midpoint
from .rules import LMRule, rule_from_lm

__all__ = [
    "MEAN_KINDS",
    "compute_mean",
    "means_gap_power",
    "means_gap_log",
    "means_bound",
    "means_gap",
    "MEANS_THEOREMS",
]

MEAN_KINDS = ("A", "G", "H", "L", "I", "Ls")


def _check_positive(a: float, b: float) -> None:
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ValueError(f"means are defined for finite positive numbers, got a={a}, b={b}")


def _log_identric(a: float, b: float) -> float:
    # ln I = (b ln b - a ln a)/(b - a) - 1, rewritten to avoid cancellation:
    # b ln b - a ln a = a*log1p((b-a)/a) + (b-a) ln b.
    if a == b:
        return math.log(a)
    w = b - a
    return a * math.log1p(w / a) / w + math.log(b) - 1.0


def _ls_power(s: float, a: float, b: float) -> float:
    """[Ls(a, b)]**s computed directly (the mean value of x**s on [a, b])."""
    if s == 0:
        raise ValueError("s must be nonzero")
    if a == b:
        return a**s
    if s == -1:
        return math.log1p((b - a) / a) / (b - a)
    u = s + 1
    la, lb = math.log(a), math.log(b)
    if abs(u) < 0.5:
        num = math.expm1(u * lb) - math.expm1(u * la)
    else:
        try:
            num = b**u - a**u
        except OverflowError:
            if u < 0:
                # a**u overflows, and so would r**u or b**s below:
                # a^u expm1(u ln(b/a)) / (u (b - a)) from its log, with a < b
                lo, hi = min(a, b), max(a, b)
                return math.exp(u * math.log(lo) - math.log(hi - lo)
                                + math.log(math.expm1(u * math.log1p((hi - lo) / lo)) / u))
            # b**u overflows: b^s (1 - r^u) / (u (1 - r)), r = a/b
            t = (b - a) / b  # 1 - r
            lr = math.log1p(-t) if t < 0.5 else la - lb  # log r; t is 1.0 where r < eps
            return b**s * -math.expm1(u * lr) / (u * t)
    return num / (u * (b - a))


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
        return (b - a) / math.log1p((b - a) / a)
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


def means_gap_power(m: float, ell: float, s: float, a: float, b: float) -> float:
    """Signed gap (2l A(a^s,b^s) + (m-2l) A(a,b)^s)/m - Ls(a,b)^s."""
    _check_positive(a, b)
    _check_lm(m, ell)
    if s == 0:
        raise ValueError("s must be nonzero")
    try:
        combo = (2 * ell * compute_mean("A", a**s, b**s)
                 + (m - 2 * ell) * compute_mean("A", a, b) ** s) / m
        gap = combo - _ls_power(s, a, b)
    except OverflowError:  # a float power past the largest float
        gap = math.inf
    if not math.isfinite(gap):
        raise ValueError(f"the gap of f = x^s overflows on [{a}, {b}] at s = {s}")
    return gap


def means_gap_log(m: float, ell: float, a: float, b: float) -> float:
    """Signed gap (2l ln G + (m-2l) ln A)/m - ln I."""
    _check_positive(a, b)
    _check_lm(m, ell)
    combo = (2 * ell * (math.log(a) + math.log(b)) / 2
             + (m - 2 * ell) * math.log(midpoint(a, b))) / m
    return combo - _log_identric(a, b)


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
    if family == "power" and s is None:
        raise ValueError(f"theorem {theorem} requires s")
    if family == "power" and not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
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
    """The signed gap matching ``means_bound`` for the given theorem."""
    s = _theorem(theorem, s)[0]
    if s is None:
        return means_gap_log(m, ell, a, b)
    return means_gap_power(m, ell, s, a, b)
