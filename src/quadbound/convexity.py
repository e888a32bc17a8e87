"""Dyadic midpoint-convexity certificates.

Every error bound in this package assumes |f'|^q is convex on [a, b].  That
hypothesis is checked numerically: g is evaluated once on the 4,097 points
x_k = a + k(b-a)/2^12, and the midpoint residual
g(x_{j+s}) - (g(x_j) + g(x_{j+2s}))/2 is taken on the dyadic tree: for every
spacing s = 2^k (k = 0..11), the triples (js, (j+1)s, (j+2)s), 8,178 in all.
That is midpoint convexity at every dyadic scale on those points, Jensen's
route to convexity (Acta Math. 30, 1906).  The certificate passes while the
worst residual is within rounding, 1024 eps * max|g|, so the verdict does not
depend on the scale of f.  It needs no seed.  A passing certificate is
evidence, not proof; a failing one carries a concrete violating pair, which
is definitive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .oracle import Interval

__all__ = ["ConvexityCertificate", "certify_convex", "grid", "admissible_power"]

_LEVELS = 12
_INTERVALS = 1 << _LEVELS  # the grid has 4,097 points
# k/2^12 for k = 0..2^12: times b - a, the same floats as k(b-a)/2^12
_UNIT = np.arange(_INTERVALS + 1) / _INTERVALS
_UNIT.flags.writeable = False
# A residual passes while at most this many eps * max|g| over the certificate:
# near a zero of f', g's rounding error scales with the terms of f', not with
# |f'| (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).  Valid
# seed-0 verify-campaign certificates reach 6.6 eps, invalid ones 8.2e4 eps
# and more.
_ROUNDING_FACTOR = 1024


@dataclass(frozen=True)
class ConvexityCertificate:
    samples: int  # residuals checked
    evaluations: int  # points g was evaluated on: the 4,097 of the grid
    max_violation: float
    valid: bool
    witness: Optional[tuple[float, float]] = None


# The grid indices of every level's points, level after level: 0, s, ..., 2^12
# for s = 1, 2, ..., 2^11 (8,202 in all).  Consecutive triples of it are the
# tree's triples, level by level and in order, except the 22 that straddle a
# seam between two levels: each seam's two residuals are overwritten with the
# level's last real one, which comes before them, so argmax still returns the
# first maximum and the min is unchanged.  Every certificate shares them.
_LEVEL_POINTS = np.concatenate([np.arange(0, _INTERVALS + 1, 1 << k) for k in range(_LEVELS)])
_LEVEL_POINTS.flags.writeable = False
_SAMPLES = _LEVEL_POINTS.size - 2 * _LEVELS  # 8,178 real triples
# The residual index of the last real triple of every level but the top one,
# and below it the indices of the two seam triples that follow it.
_LAST_REAL = np.cumsum([(_INTERVALS >> k) + 1 for k in range(_LEVELS - 1)]) - 3
_SEAMS = _LAST_REAL + np.array([[1], [2]])
_LAST_REAL.flags.writeable = _SEAMS.flags.writeable = False


def grid(interval: Interval) -> np.ndarray:
    """The certificate's points a + k(b-a)/2^12, with the last one b."""
    a, b = float(interval.a), float(interval.b)
    x = _UNIT * (b - a)
    x += a
    x[-1] = b
    return x


def certify_convex(g: Callable, interval: Interval) -> ConvexityCertificate:
    """Certify that ``g`` is (midpoint) convex on ``interval`` on the dyadic tree.

    ``g`` must be vectorized over numpy arrays and defined on [a, b]; it is
    called once, on the 4,097 grid points, and an evaluation failure
    propagates to the caller.
    """
    x = grid(interval)
    # an overflow in g or in a residual is named below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        g_all = np.asarray(g(x), dtype=float)
        level = g_all[_LEVEL_POINTS]
        residuals = level[1:-1] - (level[:-2] + level[2:]) * 0.5
    residuals[_SEAMS] = residuals[_LAST_REAL]
    # argmax stops at the first NaN, so a NaN or +inf shows in the max
    worst = int(np.argmax(residuals))
    max_violation = float(residuals[worst])
    if not (math.isfinite(max_violation) and math.isfinite(residuals.min())):
        raise ValueError("g produced non-finite values during certification")
    # every g value enters a residual, so g is finite here
    valid = max_violation <= _ROUNDING_FACTOR * math.ulp(1.0) * float(max(g_all.max(), -g_all.min()))
    return ConvexityCertificate(
        samples=_SAMPLES,
        evaluations=x.size,
        max_violation=max_violation,
        valid=valid,
        witness=None if valid else (float(x[_LEVEL_POINTS[worst]]), float(x[_LEVEL_POINTS[worst + 2]])),
    )


def admissible_power(s: float, q: float) -> bool:
    """True iff |d/dx x**s|**q = |s|^q x^((s-1)q) is convex on the positive
    axis: either s > 1 with (s-1)q >= 1, or s < 1 with s != 0."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return (s > 1 and (s - 1) * q >= 1) or (s < 1 and s != 0)
