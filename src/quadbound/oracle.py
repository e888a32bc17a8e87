"""High-accuracy globally adaptive quadrature used as numeric ground truth.

Gauss-Kronrod 7-15 panels under global error control (QUADPACK QAG;
Piessens et al., 1983): the Kronrod value is a panel's estimate and
|K15 - G7| its embedded error estimate.  Starting from the whole interval,
the panel with the largest error estimate is bisected until the summed error
of all panels is at most the tolerance (or at the rounding floor of the panel
values), so work goes where the error is -- an integrable endpoint
singularity such as ``t**-0.5`` or ``|shift - t|**0.001`` costs a few dozen
bisections, not a descent to underflow.  Breakpoints seed the first panels
(QUADPACK QAGP), and the kernel moments grade them toward their kink, so
they need few bisections.  Each step calls the integrand once, on the nodes
of all its panels, whose sums are ``np.vecdot`` rows: one BLAS dot per row,
rounded as a 1-D product per panel is.  The step is array-shaped: it takes
the panel edges as one array; their nodes and values come from whole-array
expressions and their errors from one pass over the values, with no Python
loop over the panels.  A first call that meets the tolerance returns at
once; the heap of panels is built only when a panel must be bisected.
Deterministic for fixed inputs; exhausting the node budget is an explicit
failure, never a silent best-effort value.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Interval",
    "midpoint",
    "QuadratureResult",
    "IntegrationError",
    "integrate",
    "kernel_moment_numeric",
]

DEFAULT_TOL = 1e-11
MAX_EVALS = 10**6  # integrand evaluations before integrate gives up


class IntegrationError(Exception):
    pass


def midpoint(a, b):
    """(a + b)/2, or a/2 + b/2 where a + b overflows: so the midpoint of two
    finite numbers is finite, and equals (a + b)/2 wherever that is."""
    total = a + b
    return total / 2 if math.isfinite(total) else a / 2 + b / 2


@dataclass(frozen=True)
class Interval:
    a: float
    b: float

    def __post_init__(self):
        if not -math.inf < self.a < self.b < math.inf:
            raise ValueError(f"interval requires finite a < b, got [{self.a}, {self.b}]")
        if not self.b - self.a < math.inf:
            raise ValueError(f"interval width b - a overflows on [{self.a}, {self.b}]")

    @property
    def width(self):
        return self.b - self.a

    @property
    def midpoint(self):
        return midpoint(self.a, self.b)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


# Kronrod-15 abscissae (ascending) and weights; the 7 Gauss nodes are the
# odd-indexed entries.
_XGK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_WGK = np.array([
    0.02293532201052922, 0.06309209262997855, 0.10479001032225018,
    0.14065325971552592, 0.16900472663926790, 0.19035057806478541,
    0.20443294007529889, 0.20948214108472783, 0.20443294007529889,
    0.19035057806478541, 0.16900472663926790, 0.14065325971552592,
    0.10479001032225018, 0.06309209262997855, 0.02293532201052922,
])
_WG = np.array([
    0.12948496616886969, 0.27970539148927664, 0.38183005050511894,
    0.41795918367346938, 0.38183005050511894, 0.27970539148927664,
    0.12948496616886969,
])
# Each set of weights sums to 2, so finite values near the largest float could
# sum past it; halved, they sum to 1, and a sum of finite values is finite.
_WGK_HALF, _WG_HALF = _WGK / 2, _WG / 2

_EPS = float(np.finfo(float).eps)


def _panel(f: Callable, edges: np.ndarray) -> tuple[list[float], list[float]]:
    """K15 values and |K15 - G7| errors of the panels between consecutive
    ``edges`` (a float array), from one call of ``f`` on the nodes of all of
    them.  Runs under ``integrate``'s errstate: a value past the float range
    is raised as an error, not warned about."""
    lo, hi = edges[:-1], edges[1:]
    w = hi - lo
    x = (0.5 * (lo + hi)[:, None] + 0.5 * w[:, None] * _XGK).ravel()
    y = f(x)
    if type(y) is not np.ndarray or y.dtype != float:
        y = np.asarray(y, dtype=float)
    if y.ndim == 0:
        y = np.full(x.shape, float(y))
    # One BLAS dot per row, as a 1-D product takes per panel: a batched
    # (n, 15) @ (15,) product can round differently.  Halving and doubling
    # are exact, so a sum against the halved weights times hi - lo (= 2h) is
    # the sum against the weights times h, to the bit.
    y = y.reshape(-1, 15)
    k15 = np.vecdot(y, _WGK_HALF)
    values = (k15 * w).tolist()
    if not all(map(math.isfinite, values)):
        # Every node has a positive Kronrod weight, so a K15 sum is
        # non-finite exactly where a value is: the values are scanned only
        # then.  Otherwise a finite sum times the width overflowed.
        if not np.isfinite(k15).all():
            k = int(np.argmin(np.isfinite(y.ravel()))) // 15
            raise IntegrationError(f"non-finite integrand value on [{edges[k]}, {edges[k + 1]}]")
        k = next(k for k, v in enumerate(values) if not math.isfinite(v))
        raise IntegrationError(f"the K15 value of the panel [{edges[k]}, {edges[k + 1]}] is "
                               "past the float range")
    # The float subtraction rounds as numpy's does, and on two panels (a
    # bisection) one pass over the lists is cheaper than two more array calls.
    g7w = (w * np.vecdot(y[:, 1::2], _WG_HALF)).tolist()
    return values, list(map(abs, map(operator.sub, values, g7w)))


def integrate(f: Callable, interval: Interval, tol: float = DEFAULT_TOL,
              breakpoints: Iterable[float] = ()) -> QuadratureResult:
    """Integrate a vectorized callable over ``interval`` to absolute tolerance.

    The first panels are those between a, the ``breakpoints`` and b, all
    from one call of ``f`` (QUADPACK QAGP): a kink or an integrable
    singularity placed at a breakpoint sits at a panel end from the start.
    Breakpoints must be finite, strictly increasing and strictly inside
    (a, b), or a ``ValueError`` is raised.  With none, the one first panel is
    the whole interval.

    Globally adaptive: the panel with the largest error estimate is bisected
    (both halves in one call of ``f``) until the summed error of all panels is
    at most ``tol`` or at most ``4 * eps * sum(|panel value|)``, a floor that
    cancelling values do not lower, so ``tol = 0`` terminates.  ``value`` and
    ``error_estimate`` are the sums of the panel values and errors, so on
    success ``error_estimate <= tol`` unless it is at that rounding floor.  A
    panel whose midpoint no longer splits it is kept as it is; if only such
    panels are left, the result is returned with the error they carry.

    ``f`` runs with numpy's overflow and invalid-value warnings off.  Raises
    :class:`IntegrationError` on a non-finite integrand value, on a panel
    value or a sum of them past the float range, and after ``MAX_EVALS``
    integrand evaluations rather than returning an unconverged value.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    edges = (float(interval.a), *map(float, breakpoints), float(interval.b))
    if not all(lo < hi for lo, hi in zip(edges, edges[1:])):
        raise ValueError("breakpoints must be finite, strictly increasing and strictly "
                         f"inside ({edges[0]}, {edges[-1]}), got {list(edges[1:-1])}")
    evals = 15 * (len(edges) - 1)
    if evals > MAX_EVALS:
        raise IntegrationError(_budget_message(tol))
    with np.errstate(over="ignore", invalid="ignore"):
        values, errors = _panel(f, np.array(edges))
        value_sum, err_sum, abs_sum = _exact_sums(values, errors, interval)
        # Most first calls meet tol: they return with no heap.
        if err_sum <= max(tol, 4 * _EPS * abs_sum):
            return QuadratureResult(value_sum, err_sum, evals)
        # Max-heap on error: entries are (-err, lo, hi, value).
        heap = [(-err, lo, hi, value)
                for lo, hi, value, err in zip(edges, edges[1:], values, errors)]
        heapq.heapify(heap)
        kept: list[tuple[float, float, float, float]] = []
        while True:
            # The running sums drift; confirm a stop with exact sums.
            if not heap or err_sum <= max(tol, 4 * _EPS * abs_sum):
                panels = heap + kept
                value_sum, err_sum, abs_sum = _exact_sums(
                    [p[3] for p in panels], [-p[0] for p in panels], interval)
                if not heap or err_sum <= max(tol, 4 * _EPS * abs_sum):
                    return QuadratureResult(value_sum, err_sum, evals)
            neg_err, lo, hi, value = heap[0]
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                kept.append(heapq.heappop(heap))
                continue
            evals += 30
            if evals > MAX_EVALS:
                raise IntegrationError(_budget_message(tol))
            (v1, v2), (e1, e2) = _panel(f, np.array((lo, mid, hi)))
            # No two entries compare equal (their ends differ), so the pops
            # that follow turn only on the entries held, not on their layout.
            heapq.heapreplace(heap, (-e1, lo, mid, v1))
            heapq.heappush(heap, (-e2, mid, hi, v2))
            err_sum += e1 + e2 + neg_err
            abs_sum += abs(v1) + abs(v2) - abs(value)


def _exact_sums(values: list[float], errors: list[float],
                interval: Interval) -> tuple[float, float, float]:
    """math.fsum of the panel values, of their errors and of |values|."""
    try:
        return math.fsum(values), math.fsum(errors), math.fsum(map(abs, values))
    except OverflowError:
        raise IntegrationError(f"the panel values on [{interval.a}, {interval.b}] sum "
                               "past the float range") from None


def _budget_message(tol: float) -> str:
    return (f"node budget exceeded ({MAX_EVALS} evaluations) before "
            f"reaching tol={tol}")


# None is the weight 1, which the integrand skips: y * 1.0 is y, to the bit.
_WEIGHTS = {
    "1": None,
    "t": lambda t: t,
    "1-t": lambda t: 1.0 - t,
}


_MOMENT_TOL = 1e-12
# Cuts graded toward the kink: at _GRADE_RATIO**k of the distance from the
# kink to each end, for k = 1 .. _GRADE_DEPTH.
_GRADE_RATIO = 0.35
_GRADE_DEPTH = 14
_GRADES = tuple(_GRADE_RATIO ** k for k in range(1, _GRADE_DEPTH + 1))


def kernel_moment_numeric(side: str, shift: float, exponent: float,
                          weight: str = "1") -> float:
    """Brute-force half-interval kernel moment.

    Integrates ``|shift - t|**exponent * w(t)`` for t in [0, 1/2] (``side ==
    "left"``) or [1/2, 1] (``side == "right"``) with one :func:`integrate`
    call to 1e-12; no closed form is used.  The kink at ``shift`` (for
    exponents below 1, an algebraic singularity of the derivatives) and cuts
    that close in on it geometrically from each side are breakpoints, so the
    first panels already shrink toward it (Babuska and Guo, 1988), and few
    bisections are left to do.  A cut that rounds onto its neighbour or an
    end is dropped, so every panel has a positive width.
    """
    if not exponent >= 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    if side == "left":
        lo, hi = 0.0, 0.5
        if not lo <= shift <= hi:
            raise ValueError(f"left shift must lie in [0, 1/2], got {shift}")
    elif side == "right":
        lo, hi = 0.5, 1.0
        if not lo <= shift <= hi:
            raise ValueError(f"right shift must lie in [1/2, 1], got {shift}")
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    try:
        w = _WEIGHTS[weight]
    except KeyError:
        raise ValueError(f"weight must be one of {sorted(_WEIGHTS)}, got {weight!r}")

    def integrand(t):
        y = np.abs(shift - t) ** exponent
        return y if w is None else y * w(t)

    cuts = ([shift - (shift - lo) * g for g in _GRADES] + [shift]
            + [shift + (hi - shift) * g for g in reversed(_GRADES)])
    edges = [lo]
    for x in cuts:
        if edges[-1] < x < hi:
            edges.append(x)
    return integrate(integrand, Interval(lo, hi), _MOMENT_TOL, edges[1:]).value
