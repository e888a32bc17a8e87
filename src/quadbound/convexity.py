"""Sampled midpoint-convexity certificates.

Every error bound in this package assumes |f'|^q is convex on [a, b].  That
hypothesis is checked numerically: g is evaluated on all 2,016 pairs of a
deterministic 64-point low-discrepancy grid plus 4,096 seeded random pairs,
and the worst residual g((x+y)/2) - (g(x)+g(y))/2 is recorded.  The certificate
passes while that residual is within rounding, 1024 eps * max|g|, so the
verdict does not depend on the scale of f.  A passing certificate is evidence,
not proof; a failing one carries a concrete violating pair, which is definitive.

Random pairs are kept at least 1e-3*(b-a) apart so that true curvature
dominates floating-point noise in the residuals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expr import EvalDomainError
from .oracle import Interval

__all__ = ["ConvexityCertificate", "certify_convex", "admissible_power"]

_GRID_POINTS = 64
_SAMPLES = 4096  # random pairs per certificate, after the grid's 2,016 pairs
_MIN_PAIR_GAP = 1e-3
# A residual passes while at most this many eps * max|g| over the certificate:
# near a zero of f', g's rounding error scales with the terms of f', not with
# |f'| (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3).  Valid
# verify-campaign certificates reach 6.6 eps, invalid ones 1.3e5 eps and more.
_ROUNDING_FACTOR = 1024


@dataclass(frozen=True)
class ConvexityCertificate:
    samples: int
    max_violation: float
    valid: bool
    witness: Optional[tuple[float, float]] = None


# Additive golden-ratio (Weyl) sequence on [0, 1): low discrepancy,
# deterministic.  Every certificate scales the same grid and pairs it the same
# way, so both are built once.
_UNIT_GRID = np.sort((np.arange(1, _GRID_POINTS + 1) * ((math.sqrt(5.0) - 1) / 2)) % 1.0)
_PAIRS = np.triu_indices(_GRID_POINTS, k=1)
# Pair k of a point set is (points[_XI[k]], points[_YI[k]]): the grid pairs,
# then random x j with random y j.  Read-only, as every certificate shares them.
_XI = np.concatenate([_PAIRS[0], _GRID_POINTS + np.arange(_SAMPLES)])
_YI = np.concatenate([_PAIRS[1], _GRID_POINTS + _SAMPLES + np.arange(_SAMPLES)])
_XI.flags.writeable = _YI.flags.writeable = False


def _evaluate_nudged(g: Callable, pts: np.ndarray, toward: float) -> np.ndarray:
    # Derivative-of-abs kinks are defined away from a measure-zero set; a
    # point that hits one exactly is retried one ulp toward the interval
    # interior.  Only the failing points move: the Weyl grid is additive, so
    # a neighbour one ulp beside a kink would be moved onto it.  A failing
    # call is halved until each failing point is alone.  Genuine domain
    # failures fail again and propagate.
    try:
        return np.asarray(g(pts), dtype=float)
    except EvalDomainError:
        if pts.size == 1:
            return np.asarray(g(np.nextafter(pts, toward)), dtype=float)
        return np.concatenate([_evaluate_nudged(g, half, toward)
                               for half in np.array_split(pts, 2)])


@functools.lru_cache(maxsize=4)
def _point_set(a: float, b: float, seed: int) -> np.ndarray:
    """The points a certificate evaluates g on, as one read-only array in
    blocks: the grid, the random x's, the random y's, the grid-pair
    midpoints, then the random-pair midpoints.  Built in place once per
    (a, b, seed), so certificates that share those share the array itself."""
    n, ii, jj, m = _GRID_POINTS, *_PAIRS, _SAMPLES
    points = np.empty(n + 2 * m + len(ii) + m)
    ends, mids = points[:n + 2 * m], points[n + 2 * m:]
    u, v = ends[n:n + m], ends[n + m:]
    ends[:n] = _UNIT_GRID
    rng = np.random.default_rng(seed)
    rng.random(out=u)
    # v = (u + gap) mod 1, gap uniform in [_MIN_PAIR_GAP, 1 - _MIN_PAIR_GAP).
    # w = u + gap is in [0, 2), where w - 1 is exact (Sterbenz) and w - 0 is
    # w; subtracting the mask w >= 1 does not branch per element.
    rng.random(out=v)
    v *= 1 - 2 * _MIN_PAIR_GAP
    v += _MIN_PAIR_GAP
    v += u
    v -= v >= 1
    ends *= b - a
    ends += a
    np.add(ends[ii], ends[jj], out=mids[:len(ii)])
    np.add(u, v, out=mids[len(ii):])
    mids *= 0.5  # bit-identical to / 2, and faster
    points.flags.writeable = False
    return points


def certify_convex(g: Callable, interval: Interval, seed: int = 0) -> ConvexityCertificate:
    """Certify that ``g`` is (midpoint) convex on ``interval`` by sampling.

    ``g`` must be vectorized over numpy arrays and defined on [a, b] except
    possibly at isolated derivative-of-abs kinks (exact hits are retried one
    ulp inward); any other evaluation failure propagates to the caller.  g
    is called once, on every point of the certificate, unless a point hits
    a kink.
    """
    points = _point_set(float(interval.a), float(interval.b), seed)
    g_all = _evaluate_nudged(g, points, float(interval.midpoint))
    # g(mid) - (g(x) + g(y)) / 2 per pair, in _point_set's block order: only
    # the grid pairs gather, the random pairs are the x and y blocks.
    n, ii, jj, m = _GRID_POINTS, *_PAIRS, _SAMPLES
    residuals = np.empty(len(_XI))
    np.add(g_all[ii], g_all[jj], out=residuals[:len(ii)])
    np.add(g_all[n:n + m], g_all[n + m:n + 2 * m], out=residuals[len(ii):])
    residuals *= 0.5
    np.subtract(g_all[-len(_XI):], residuals, out=residuals)
    # argmax stops at the first NaN, so a NaN or +inf shows in the max
    worst = int(np.argmax(residuals))
    max_violation = float(residuals[worst])
    if not (math.isfinite(max_violation) and math.isfinite(residuals.min())):
        raise ValueError("g produced non-finite values during certification")
    # every g value enters a residual, so g is finite here
    valid = max_violation <= _ROUNDING_FACTOR * math.ulp(1.0) * float(max(g_all.max(), -g_all.min()))
    return ConvexityCertificate(
        samples=len(_XI),
        max_violation=max_violation,
        valid=valid,
        witness=None if valid else (float(points[_XI[worst]]), float(points[_YI[worst]])),
    )


def admissible_power(s: float, q: float) -> bool:
    """True iff |d/dx x**s|**q = |s|^q x^((s-1)q) is convex on the positive
    axis: either s > 1 with (s-1)q >= 1, or s < 1 with s != 0."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return (s > 1 and (s - 1) * q >= 1) or (s < 1 and s != 0)
