"""Sampled midpoint-convexity certificates.

Every error bound in this package assumes |f'|^q is convex on [a, b].  That
hypothesis is checked numerically: g is evaluated on all pairs of a
deterministic low-discrepancy grid plus a seeded batch of random pairs, and
the worst residual g((x+y)/2) - (g(x)+g(y))/2 is recorded.  A passing
certificate is evidence, not proof; a failing one carries a concrete
violating pair, which is definitive.

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

DEFAULT_SAMPLES = 4096
DEFAULT_TOL = 1e-10
_GRID_POINTS = 64
_MIN_PAIR_GAP = 1e-3


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
def _point_set(a: float, b: float, samples: int, seed: int):
    """The points a certificate evaluates g on, as one read-only array: the
    grid, the random x's, the random y's, then the midpoint of every pair.
    Pair k is (points[xi[k]], points[yi[k]]).  Built once per
    (a, b, samples, seed), so certificates that share those share the array
    itself."""
    rng = np.random.default_rng(seed)
    u = rng.random(samples)
    gap = _MIN_PAIR_GAP + (1 - 2 * _MIN_PAIR_GAP) * rng.random(samples)
    # (u + gap) mod 1 for u + gap in [0, 2); w - 1 is exact there (Sterbenz).
    w = u + gap
    v = np.where(w >= 1, w - 1, w)
    ends = a + (b - a) * np.concatenate([_UNIT_GRID, u, v])

    n = _GRID_POINTS
    ii, jj = _PAIRS
    xi = np.concatenate([ii, n + np.arange(samples)])
    yi = np.concatenate([jj, n + samples + np.arange(samples)])
    points = np.concatenate([ends, (ends[xi] + ends[yi]) / 2])
    for arr in (points, xi, yi):
        arr.flags.writeable = False
    return points, xi, yi


def certify_convex(g: Callable, interval: Interval, samples: int = DEFAULT_SAMPLES,
                   tol: float = DEFAULT_TOL, seed: int = 0) -> ConvexityCertificate:
    """Certify that ``g`` is (midpoint) convex on ``interval`` by sampling.

    ``g`` must be vectorized over numpy arrays and defined on [a, b] except
    possibly at isolated derivative-of-abs kinks (exact hits are retried one
    ulp inward); any other evaluation failure propagates to the caller.  g
    is called once, on every point of the certificate, unless a point hits
    a kink.
    """
    if samples < 64:
        raise ValueError(f"samples must be >= 64, got {samples}")
    points, xi, yi = _point_set(float(interval.a), float(interval.b), samples, seed)
    g_all = _evaluate_nudged(g, points, float(interval.midpoint))
    residuals = g_all[-len(xi):] - (g_all[xi] + g_all[yi]) / 2
    if not np.all(np.isfinite(residuals)):
        raise ValueError("g produced non-finite values during certification")
    worst = int(np.argmax(residuals))
    max_violation = float(residuals[worst])
    valid = max_violation <= tol
    return ConvexityCertificate(
        samples=len(xi),
        max_violation=max_violation,
        valid=valid,
        witness=None if valid else (float(points[xi[worst]]), float(points[yi[worst]])),
    )


def admissible_power(s: float, q: float) -> bool:
    """True iff |d/dx x**s|**q = |s|^q x^((s-1)q) is convex on the positive
    axis: either s > 1 with (s-1)q >= 1, or s < 1 with s != 0."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    return (s > 1 and (s - 1) * q >= 1) or (s < 1 and s != 0)
