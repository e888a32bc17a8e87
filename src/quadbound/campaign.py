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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import bounds, convexity, oracle
from .convexity import admissible_power, certify_convex
from .expr import ExprNode, as_function, differentiate, evaluate, parse
from .oracle import Interval, average_value
from .rules import RuleParams, lhs_value

__all__ = ["FunctionDraw", "draw_function", "run_verify", "GeneratorExhausted"]

SLACK_FLOOR = 1e-9
Q_LOW = 1.05
Q_HIGH = 3.0
_MAX_RESAMPLES = 500


class GeneratorExhausted(RuntimeError):
    pass


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
    for _ in range(_MAX_RESAMPLES):
        s = rng.uniform(-2, 3)
        if s == 0 or not admissible_power(s, q):
            continue
        a = rng.uniform(0.3, 2.0)
        b = a + rng.uniform(0.3, 1.5)
        return f"x^{repr(float(s))}", Interval(a, b)
    raise GeneratorExhausted(
        f"power family: admissibility rejection rate too high at q={q}"
    )


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
        cert_seed_1 = int(rng.integers(2**63))
        cert_seed_q = int(rng.integers(2**63))

        family_counts[draw.family] = family_counts.get(draw.family, 0) + 1
        rule = RuleParams(lam, mu)
        fp = as_function(draw.deriv)
        d = bounds.DerivEndpoints(
            abs(float(evaluate(draw.deriv, float(draw.interval.a)))),
            abs(float(evaluate(draw.deriv, float(draw.interval.b)))),
        )
        mean = average_value(as_function(draw.ast), draw.interval, tol)
        lhs = lhs_value(rule, draw.ast, draw.interval, mean)
        lhs_abs = abs(lhs)

        cert1 = certify_convex(lambda x: np.abs(fp(x)), draw.interval,
                               samples=cert_samples, tol=cert_tol, seed=cert_seed_1)
        certq = certify_convex(lambda x: np.abs(fp(x)) ** q, draw.interval,
                               samples=cert_samples, tol=cert_tol, seed=cert_seed_q)

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
            rhs, _ = bounds.bound(rule, d, draw.interval, path_q, path_p)
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
