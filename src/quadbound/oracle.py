"""High-accuracy globally adaptive quadrature used as numeric ground truth.

Gauss-Kronrod 7-15 panels under global error control (QUADPACK QAG;
Piessens et al., 1983): the Kronrod value is a panel's estimate and
|K15 - G7| its embedded error estimate.  Starting from the whole interval,
the panel with the largest error estimate is bisected until the summed error
of all panels is at most the tolerance (or at the rounding floor of the panel
values), so work goes where the error is -- an integrable endpoint
singularity such as ``t**-0.5`` or ``|shift - t|**0.001`` costs a few dozen
bisections, not a descent to underflow.  Deterministic for fixed inputs;
exhausting the node budget is an explicit failure, never a silent
best-effort value.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Interval",
    "midpoint",
    "QuadratureResult",
    "IntegrationError",
    "integrate",
    "average_value",
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

_EPS = float(np.finfo(float).eps)


def _panel(f: Callable, *edges: float) -> list[tuple[float, float]]:
    """K15 value and |K15 - G7| error of each panel between consecutive
    ``edges``, from one call of ``f`` on the nodes of all of them."""
    halves = [(0.5 * (lo + hi), 0.5 * (hi - lo)) for lo, hi in zip(edges, edges[1:])]
    x = np.concatenate([c + h * _XGK for c, h in halves])
    y = np.asarray(f(x), dtype=float)
    if y.ndim == 0:
        y = np.full(x.shape, float(y))
    finite = np.isfinite(y)
    if not finite.all():
        k = int(np.argmin(finite)) // 15
        raise IntegrationError(f"non-finite integrand value on [{edges[k]}, {edges[k + 1]}]")
    out = []
    # Per-panel 1-D products: a batched (n, 15) product can round differently.
    for k, (_, h) in enumerate(halves):
        yp = y[15 * k:15 * k + 15]
        k15 = h * float(_WGK @ yp)
        g7 = h * float(_WG @ yp[1::2])
        out.append((k15, abs(k15 - g7)))
    return out


def integrate(f: Callable, interval: Interval, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """Integrate a vectorized callable over ``interval`` to absolute tolerance.

    Globally adaptive: the panel with the largest error estimate is bisected
    (both halves in one call of ``f``) until the summed error of all panels is
    at most ``tol`` or at most ``4 * eps * sum(|panel value|)``, a floor that
    cancelling values do not lower, so ``tol = 0`` terminates.  ``value`` and
    ``error_estimate`` are the sums of the panel values and errors, so on
    success ``error_estimate <= tol`` unless it is at that rounding floor.  A
    panel whose midpoint no longer splits it is kept as it is; if only such
    panels are left, the result is returned with the error they carry.

    Raises :class:`IntegrationError` on a non-finite integrand value, and
    after ``MAX_EVALS`` integrand evaluations rather than returning an
    unconverged value.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    lo, hi = float(interval.a), float(interval.b)
    evals = 15
    if evals > MAX_EVALS:
        raise IntegrationError(_budget_message(tol))
    [(value, err)] = _panel(f, lo, hi)
    # Max-heap on error: entries are (-err, lo, hi, value).
    heap = [(-err, lo, hi, value)]
    kept: list[tuple[float, float, float, float]] = []
    value_sum, err_sum, abs_sum = value, err, abs(value)
    while True:
        # The running sums drift; confirm a stop with exact sums.
        if not heap or err_sum <= max(tol, 4 * _EPS * abs_sum):
            panels = heap + kept
            value_sum = math.fsum(p[3] for p in panels)
            err_sum = math.fsum(-p[0] for p in panels)
            abs_sum = math.fsum(abs(p[3]) for p in panels)
            if not heap or err_sum <= max(tol, 4 * _EPS * abs_sum):
                return QuadratureResult(value_sum, err_sum, evals)
        neg_err, lo, hi, value = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            kept.append((neg_err, lo, hi, value))
            continue
        evals += 30
        if evals > MAX_EVALS:
            raise IntegrationError(_budget_message(tol))
        (v1, e1), (v2, e2) = _panel(f, lo, mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        value_sum += v1 + v2 - value
        err_sum += e1 + e2 + neg_err
        abs_sum += abs(v1) + abs(v2) - abs(value)


def _budget_message(tol: float) -> str:
    return (f"node budget exceeded ({MAX_EVALS} evaluations) before "
            f"reaching tol={tol}")


def average_value(f: Callable, interval: Interval) -> float:
    """(1/(b-a)) * integral of f over [a, b], to ``DEFAULT_TOL``."""
    return integrate(f, interval).value / (interval.b - interval.a)


_WEIGHTS = {
    "1": lambda t: np.ones_like(t),
    "t": lambda t: t,
    "1-t": lambda t: 1.0 - t,
}


_MOMENT_TOL = 1e-12


def kernel_moment_numeric(side: str, shift: float, exponent: float,
                          weight: str = "1") -> float:
    """Brute-force half-interval kernel moment.

    Integrates ``|shift - t|**exponent * w(t)`` for t in [0, 1/2] (``side ==
    "left"``) or [1/2, 1] (``side == "right"``) with :func:`integrate`.  An
    interior ``shift`` is cut out as a piece boundary, so the kink (for
    exponents below 1, an algebraic endpoint singularity) sits at an end of
    each piece, where global error control resolves it in a few dozen
    bisections.  Each piece is integrated to 1e-12; no closed form is used.
    """
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    if side == "left":
        lo, hi = 0.0, 0.5
    elif side == "right":
        lo, hi = 0.5, 1.0
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    try:
        w = _WEIGHTS[weight]
    except KeyError:
        raise ValueError(f"weight must be one of {sorted(_WEIGHTS)}, got {weight!r}")

    def integrand(t):
        return np.abs(shift - t) ** exponent * w(t)

    cuts = [lo, hi]
    if lo < shift < hi:
        cuts = [lo, float(shift), hi]
    total = 0.0
    for piece_lo, piece_hi in zip(cuts[:-1], cuts[1:]):
        total += integrate(integrand, Interval(piece_lo, piece_hi), _MOMENT_TOL).value
    return total
