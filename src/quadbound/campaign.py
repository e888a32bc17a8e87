"""Seeded randomized verification campaigns.

The documented generator family (reproducible from the seed alone):

* ``poly``  -- polynomials of degree <= 4 with coefficients uniform in
  [-2, 2], on intervals inside [-2.5, 2.5] of width in [0.3, 2.0];
* ``power`` -- f(x) = x**s with s uniform in [-2, 3] excluding 0, resampled
  until |f'|^q is convex by the analytic power predicate, on positive
  intervals inside [0.3, 3.5];
* ``log``   -- f(x) = ln x on positive intervals inside [0.3, 3.5];
* ``mixed`` -- poly/power/log with probabilities 0.5/0.3/0.2;
* ``concave-test`` -- a deliberately inadmissible family (|f'| concave on
  the drawn interval), used to exercise certificate gating: such instances
  must be skipped and counted, never asserted.

Rule weights are uniform over 0 <= lam <= 1/2 <= mu <= 1, q is uniform in
(1.05, 3], and p = q * uniform(0.01, 1].  Each instance is checked against
every bound path whose convexity certificate passes; a violation is
|deficit| > bound + 1e-9.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bounds, convexity, oracle
from .convexity import ConvexityCertificate, admissible_power, certify_convex
# evaluate is unused here but stays a module attribute: perfbench/spans.py traces it.
from .expr import ExprError, ExprNode, as_function, differentiate, evaluate, parse
from .oracle import Interval, QuadratureResult
from .rules import RuleParams, lhs_value

__all__ = ["Instance", "FunctionDraw", "draw_function", "run_verify"]

SLACK_FLOOR = 1e-9
Q_LOW = 1.05
Q_HIGH = 3.0


class Instance:
    """One f on one [a, b], with f' compiled once: ``d`` (|f'| at the ends),
    ``quad`` (f integrated on first use), ``deficit(rule)`` and
    ``certificate(q, ...)``, the pieces of every bound claim about f."""

    def __init__(self, ast: ExprNode, deriv: ExprNode, interval: Interval, tol: float):
        self.ast, self.interval, self.tol = ast, interval, tol
        self._fp = as_function(deriv)
        self._last = None, None
        # f' needs only the endpoints and the certificate samples (an interior
        # abs kink is fine: |f'| convex covers V-shaped derivatives), so it is
        # checked where it is used rather than over the whole interval.
        try:
            self.d = bounds.DerivEndpoints(abs(float(self._fp(float(interval.a)))),
                                           abs(float(self._fp(float(interval.b)))))
        except ExprError as exc:
            raise ValueError(f"f' is not evaluable at the interval endpoints: {exc}")

    @functools.cached_property
    def quad(self) -> QuadratureResult:
        return oracle.integrate(as_function(self.ast), self.interval, self.tol)

    def deficit(self, rule: RuleParams) -> float:
        """Signed deficit of ``rule`` against the mean integral of f."""
        mean = self.quad.value / self.interval.width
        return float(lhs_value(rule, self.ast, self.interval, mean))

    def _abs_fp(self, x):
        # The certificate's point arrays are cached and read-only, so the
        # same object means the same points.
        if x is not self._last[0]:
            self._last = x, np.abs(self._fp(x))
        return self._last[1]

    def certificate(self, q: float, samples: int, tol: float,
                    seed: int) -> ConvexityCertificate:
        """Sampled certificate that |f'|^q is convex.  Certificates with the
        same samples and seed share one point set and one evaluation of f'."""
        return certify_convex(lambda x: self._abs_fp(x) ** q, self.interval,
                              samples=samples, tol=tol, seed=seed)


@dataclass(frozen=True)
class FunctionDraw:
    family: str
    source: str
    ast: ExprNode
    deriv: ExprNode
    interval: Interval


def _poly_source(coeffs) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            body = repr(float(c))
        elif k == 1:
            body = f"{repr(abs(float(c)))}*x"
        else:
            body = f"{repr(abs(float(c)))}*x^{k}"
        if not terms:
            terms.append(body if (c > 0 or k == 0) else f"0-{body}")
        else:
            terms.append(f"+{body}" if c > 0 else f"-{body}")
    if not terms:
        return "0"
    return "".join(terms)


def _draw_poly(rng: np.random.Generator, q: float) -> tuple[str, Interval]:
    degree = int(rng.integers(1, 5))
    coeffs = rng.uniform(-2, 2, degree + 1)
    a = rng.uniform(-2.5, 0.5)
    b = a + rng.uniform(0.3, 2.0)
    return _poly_source(coeffs), Interval(a, b)


def _draw_power(rng: np.random.Generator, q: float) -> tuple[str, Interval]:
    s = 0.0
    while s == 0 or not admissible_power(s, q):
        s = rng.uniform(-2, 3)
    a = rng.uniform(0.3, 2.0)
    b = a + rng.uniform(0.3, 1.5)
    return f"x^{repr(float(s))}", Interval(a, b)


def _draw_log(rng: np.random.Generator, q: float) -> tuple[str, Interval]:
    a = rng.uniform(0.3, 2.0)
    b = a + rng.uniform(0.3, 1.5)
    return "ln(x)", Interval(a, b)


def _draw_concave(rng: np.random.Generator, q: float) -> tuple[str, Interval]:
    # |d/dx exp(-x^2)| = 2x exp(-x^2) is concave on (0, sqrt(3/2)).
    a = rng.uniform(0.15, 0.5)
    b = a + rng.uniform(0.3, 0.7)
    return "exp(0-x^2)", Interval(a, b)


# family -> drawer of (source, interval); each takes (rng, q), only power uses q
_DRAWS = {"poly": _draw_poly, "power": _draw_power, "log": _draw_log,
          "concave-test": _draw_concave}
FAMILIES = ("mixed", *_DRAWS)


def draw_function(rng: np.random.Generator, family: str, q: float) -> FunctionDraw:
    if family == "mixed":
        family = str(rng.choice(["poly", "power", "log"], p=[0.5, 0.3, 0.2]))
    if family not in _DRAWS:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    source, iv = _DRAWS[family](rng, q)
    ast = parse(source)
    return FunctionDraw(family, source, ast, differentiate(ast), iv)


def run_verify(trials: int, seed: int = 0, family: str = "mixed",
               tol: float = oracle.DEFAULT_TOL,
               cert_samples: int = convexity.DEFAULT_SAMPLES,
               cert_tol: float = convexity.DEFAULT_TOL) -> dict:
    """Run a seeded campaign of ``trials`` random instances and check every
    certified bound path.  Returns a JSON-ready summary (deterministic for a
    fixed configuration)."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    paths_checked = 0
    skipped_q1 = 0
    skipped_q = 0
    family_counts: dict[str, int] = {}
    min_slack: Optional[float] = None
    min_slack_path = ""
    violations: list[dict] = []

    for trial in range(trials):
        q = float(rng.uniform(Q_LOW, Q_HIGH))
        p = float(q * rng.uniform(0.01, 1.0))
        lam = float(rng.uniform(0.0, 0.5))
        mu = float(rng.uniform(0.5, 1.0))
        draw = draw_function(rng, family, q)
        cert_seed = int(rng.integers(2**63))
        rng.integers(2**63)  # was the q certificate's seed; drawn so later draws stay the same

        family_counts[draw.family] = family_counts.get(draw.family, 0) + 1
        rule = RuleParams(lam, mu)
        inst = Instance(draw.ast, draw.deriv, draw.interval, tol)
        lhs_abs = abs(inst.deficit(rule))

        # Both certificates share one seed, so one point set, on which |f'|
        # is evaluated once: the q certificate raises the same values to q.
        cert1 = inst.certificate(1.0, cert_samples, cert_tol, cert_seed)
        certq = inst.certificate(q, cert_samples, cert_tol, cert_seed)

        # (q, p) of each bound path: q = 1 needs |f'| convex, the rest |f'|^q.
        exponents: list[tuple[float, Optional[float]]] = []
        if cert1.valid:
            exponents.append((1.0, None))
        else:
            skipped_q1 += 1
        if certq.valid:
            exponents += [(q, p), (q, 1.0), (q, q)]
        else:
            skipped_q += 1

        for path_q, path_p in exponents:
            rhs, _ = bounds.bound(rule, inst.d, draw.interval, path_q, path_p)
            path = bounds.formula_id(path_q, path_p)
            paths_checked += 1
            slack = float(rhs - lhs_abs)
            if min_slack is None or slack < min_slack:
                min_slack = slack
                min_slack_path = path
            if lhs_abs > rhs + SLACK_FLOOR:
                violations.append({
                    "trial": trial,
                    "path": path,
                    "family": draw.family,
                    "source": draw.source,
                    "a": float(draw.interval.a),
                    "b": float(draw.interval.b),
                    "lambda": lam,
                    "mu": mu,
                    "q": q,
                    "p": p,
                    "lhs_abs": float(lhs_abs),
                    "rhs": float(rhs),
                    "slack": slack,
                })

    return {
        "schema": 1,
        "config": {
            "trials": trials,
            "seed": seed,
            "family": family,
            "tol": tol,
            "cert_samples": cert_samples,
            "cert_tol": cert_tol,
            "q_low": Q_LOW,
            "q_high": Q_HIGH,
        },
        "instances": trials,
        "families": {k: family_counts[k] for k in sorted(family_counts)},
        "paths_checked": paths_checked,
        "skipped_q1_certificate": skipped_q1,
        "skipped_q_certificate": skipped_q,
        "min_slack": min_slack,
        "min_slack_path": min_slack_path,
        "violations": violations,
    }
