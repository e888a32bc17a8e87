"""Sampled midpoint-convexity certificates.

Every error bound in this package assumes |f'|^q is convex on [a, b].  That
hypothesis is checked numerically: g is evaluated on all pairs of a
deterministic low-discrepancy grid plus a seeded batch of random pairs, and
the worst residual g((x+y)/2) - (g(x)+g(y))/2 is recorded.  The certificate
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

DEFAULT_SAMPLES = 4096
# A certificate holds 3 * samples float64 points, two int64 index arrays and
# the g values and residuals, about 72 bytes per sample, so a library
# caller's samples=10**9 would ask for tens of GB
_MAX_SAMPLES = 1_000_000
_GRID_POINTS = 64
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


@functools.lru_cache(maxsize=2)
def _pair_indices(samples: int):
    """Pair k of a point set is (points[xi[k]], points[yi[k]]): the grid
    pairs, then random x j with random y j.  The indices depend on samples
    only, so they are built once per sample count and are read-only."""
    n = _GRID_POINTS
    ii, jj = _PAIRS
    xi = np.concatenate([ii, np.arange(n, n + samples)])
    yi = np.concatenate([jj, np.arange(n + samples, n + 2 * samples)])
    xi.flags.writeable = yi.flags.writeable = False
    return xi, yi


@functools.lru_cache(maxsize=4)
def _point_set(a: float, b: float, samples: int, seed: int):
    """The points a certificate evaluates g on, as one read-only array in
    blocks: the grid, the random x's, the random y's, the grid-pair
    midpoints, then the random-pair midpoints.  Built in place once per
    (a, b, samples, seed), so certificates that share those share the array
    itself; returned with the pair indices of ``_pair_indices``."""
    n, ii, jj = _GRID_POINTS, *_PAIRS
    points = np.empty(n + 2 * samples + len(ii) + samples)
    ends, mids = points[:n + 2 * samples], points[n + 2 * samples:]
    u, v = ends[n:n + samples], ends[n + samples:]
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
    return (points, *_pair_indices(samples))


def certify_convex(g: Callable, interval: Interval, samples: int = DEFAULT_SAMPLES,
                   seed: int = 0) -> ConvexityCertificate:
    """Certify that ``g`` is (midpoint) convex on ``interval`` by sampling.

    ``g`` must be vectorized over numpy arrays and defined on [a, b] except
    possibly at isolated derivative-of-abs kinks (exact hits are retried one
    ulp inward); any other evaluation failure propagates to the caller.  g
    is called once, on every point of the certificate, unless a point hits
    a kink.
    """
    if not 64 <= samples <= _MAX_SAMPLES:
        raise ValueError(f"samples must be in [64, {_MAX_SAMPLES}], got {samples}")
    points, xi, yi = _point_set(float(interval.a), float(interval.b), samples, seed)
    g_all = _evaluate_nudged(g, points, float(interval.midpoint))
    # g(mid) - (g(x) + g(y)) / 2 per pair, in _point_set's block order: only
    # the grid pairs gather, the random pairs are the x and y blocks.
    n, ii, jj = _GRID_POINTS, *_PAIRS
    residuals = np.empty(len(xi))
    np.add(g_all[ii], g_all[jj], out=residuals[:len(ii)])
    np.add(g_all[n:n + samples], g_all[n + samples:n + 2 * samples], out=residuals[len(ii):])
    residuals *= 0.5
    np.subtract(g_all[-len(xi):], residuals, out=residuals)
    # argmax stops at the first NaN, so a NaN or +inf shows in the max
    worst = int(np.argmax(residuals))
    max_violation = float(residuals[worst])
    if not (math.isfinite(max_violation) and math.isfinite(residuals.min())):
        raise ValueError("g produced non-finite values during certification")
    # every g value enters a residual, so g is finite here
    valid = max_violation <= _ROUNDING_FACTOR * math.ulp(1.0) * float(max(g_all.max(), -g_all.min()))
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
