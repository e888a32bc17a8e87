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
every bound path whose convexity certificate passes; a path is a violation
unless its ``Claim`` holds, bound >= |deficit|, the verdict every command uses.
The dyadic certificates take no seed; |f'|^q is certified only when |f'|
fails, since a convex |f'| makes |f'|^q convex for q >= 1.

f is integrated to ``QUAD_RTOL * (b - a) * (max - min of f at a, (a+b)/2, b)``,
which scales with f as the deficit and its bound do and ignores a constant added to f.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import bounds, oracle
from .convexity import ConvexityCertificate, admissible_power, certify_convex, grid
# evaluate is unused here but stays a module attribute: perfbench/spans.py traces it.
from .expr import ExprError, ExprNode, as_function, differentiate, evaluate, parse
from .oracle import Interval, QuadratureResult
from .rules import LMRule, RuleParams, lhs_value

__all__ = ["Claim", "Instance", "FunctionDraw", "draw_function", "run_verify"]

Q_LOW = 1.05
Q_HIGH = 3.0
QUAD_RTOL = 1e-11


@dataclass(frozen=True)
class Claim:
    """A bound claim |deficit or means gap| <= rhs, with the p and formula of rhs."""

    lhs: float
    rhs: float
    p: Optional[float]
    formula_id: str

    @property
    def slack(self) -> float:
        return self.rhs - abs(self.lhs)

    @property
    def holds(self) -> bool:
        """The one verdict, rhs >= |lhs|; a NaN slack never holds."""
        return self.slack >= 0


def _at(fn, *xs: float) -> tuple[float, ...]:
    """The compiled ``fn`` at each of ``xs``, as floats, with numpy's
    overflow and invalid-value warnings off."""
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(float(fn(float(x))) for x in xs)


class Instance:
    """One f on one [a, b]: f' compiled once, and f once on first use.  ``d``
    (|f'| at the ends), ``nodes`` (f at a, (a+b)/2, b), ``quad`` (f integrated),
    ``deficit(rule)``, ``certificate(q)``, ``claim(rule, q, p, given)``."""

    def __init__(self, ast: ExprNode, deriv: ExprNode, interval: Interval):
        self.ast, self.interval = ast, interval
        self._fp = as_function(deriv)
        # f' needs only the endpoints and the certificate grid (an interior
        # abs kink is fine: |f'| convex covers V-shaped derivatives), so it is
        # checked where it is used rather than over the whole interval.  An
        # f' that overflows at an end leaves d infinite, with no warning:
        # bounds.bound names it.
        try:
            self.d = bounds.DerivEndpoints(*map(abs, _at(self._fp, interval.a, interval.b)))
        except ExprError as exc:
            raise ValueError(f"f' is not evaluable at the interval endpoints: {exc}")

    @functools.cached_property
    def _f(self):
        return as_function(self.ast)

    @functools.cached_property
    def nodes(self) -> tuple[float, float, float]:
        """f(a), f((a+b)/2), f(b), each a float; a power past the float
        range in f is a signed inf there, as on an array."""
        iv = self.interval
        return _at(self._f, iv.a, iv.midpoint, iv.b)

    @functools.cached_property
    def quad(self) -> QuadratureResult:
        fx, iv = self.nodes, self.interval
        if not all(map(math.isfinite, fx)):
            raise ValueError(f"f overflows on [{iv.a}, {iv.b}]: "
                             f"f(a), f((a+b)/2), f(b) = {', '.join(map(str, fx))}")
        if not iv.width * max(map(abs, fx)) < math.inf:
            raise ValueError(f"the integral of f on [{iv.a}, {iv.b}] is past the float range: "
                             "(b - a) * max(|f(a)|, |f((a+b)/2)|, |f(b)|) overflows")
        # a power inside f may overflow between the nodes while f stays finite
        with np.errstate(over="ignore", invalid="ignore"):
            return oracle.integrate(self._f, iv, QUAD_RTOL * iv.width * (max(fx) - min(fx)))

    def deficit(self, rule: RuleParams) -> float:
        """Signed deficit of ``rule`` against the mean integral of f."""
        mean = self.quad.value / self.interval.width
        fa, fm, fb = self.nodes
        return float(lhs_value(rule, fa, fb, fm, mean))

    def claim(self, rule: RuleParams, q: float, p: Optional[float],
              given: Union[str, LMRule, None] = None) -> Claim:
        """The claim of ``rule`` at (q, p); ``given`` (how the rule was given:
        its name, an LMRule, or None) names its formula id."""
        lhs = self.deficit(rule)
        rhs, p = bounds.bound(rule, self.d, self.interval, q, p)
        return Claim(lhs, rhs, p, bounds.formula_id(q, p, given))

    @functools.cached_property
    def _abs_fp(self) -> np.ndarray:
        """|f'| on the certificate grid of the interval, read-only, evaluated
        once for every certificate; an overflow or invalid value in f' is
        named by certify_convex, not warned about."""
        with np.errstate(over="ignore", invalid="ignore"):
            abs_fp = np.abs(self._fp(grid(self.interval)))
        abs_fp.flags.writeable = False
        return abs_fp

    def certificate(self, q: float) -> ConvexityCertificate:
        """Dyadic certificate that |f'|^q is convex, taken of g = (|f'|/m)^q as
        the bound is (m = ``d.scale(q)``); at q = 1 and m = 1, g is |f'| itself.
        An overflow in g is named by certify_convex, not warned about."""
        m, g = self.d.scale(q), self._abs_fp
        with np.errstate(over="ignore"):
            g = g if m == 1 else g / m
            g = g if q == 1 else g ** q
        return certify_convex(g, self.interval)


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


# The mixed family's members and the cumulative distribution of their
# probabilities 0.5/0.3/0.2, normalized as Generator.choice normalizes p.
_MIXED = ("poly", "power", "log")
_CDF = np.cumsum([0.5, 0.3, 0.2])
_CDF /= _CDF[-1]
_CDF.flags.writeable = False


def draw_function(rng: np.random.Generator, family: str, q: float) -> FunctionDraw:
    if family == "mixed":
        # Generator.choice(_MIXED, p=...)'s own algorithm, so the stream is
        # the same: one random() placed in the CDF by a right-sided search
        family = _MIXED[int(_CDF.searchsorted(rng.random(), side="right"))]
    if family not in _DRAWS:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    source, iv = _DRAWS[family](rng, q)
    ast = parse(source)
    return FunctionDraw(family, source, ast, differentiate(ast), iv)


def run_verify(trials: int, seed: int = 0, family: str = "mixed") -> dict:
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
    min_claim: Optional[Claim] = None
    violations: list[dict] = []

    for trial in range(trials):
        q = float(rng.uniform(Q_LOW, Q_HIGH))
        p = float(q * rng.uniform(0.01, 1.0))
        lam = float(rng.uniform(0.0, 0.5))
        mu = float(rng.uniform(0.5, 1.0))
        draw = draw_function(rng, family, q)
        rng.integers(2**63, size=2)  # the certificates' old seeds, so later draws stay the same

        family_counts[draw.family] = family_counts.get(draw.family, 0) + 1
        rule = RuleParams(lam, mu)
        inst = Instance(draw.ast, draw.deriv, draw.interval)

        # |f'| convex makes |f'|^q convex, as t -> t^q is convex and
        # nondecreasing on t >= 0 for q >= 1; so the q certificate is built
        # only when the q = 1 one fails.
        q1_valid = inst.certificate(1.0).valid
        q_valid = q1_valid or inst.certificate(q).valid

        # (q, p) of each bound path: q = 1 needs |f'| convex, the rest |f'|^q.
        exponents: list[tuple[float, Optional[float]]] = []
        if q1_valid:
            exponents.append((1.0, None))
        else:
            skipped_q1 += 1
        if q_valid:
            exponents += [(q, p), (q, 1.0), (q, q)]
        else:
            skipped_q += 1

        for path_q, path_p in exponents:
            claim = inst.claim(rule, path_q, path_p)
            paths_checked += 1
            if min_claim is None or claim.slack < min_claim.slack:
                min_claim = claim
            if not claim.holds:
                violations.append({
                    "trial": trial,
                    "path": claim.formula_id,
                    "family": draw.family,
                    "source": draw.source,
                    "a": float(draw.interval.a),
                    "b": float(draw.interval.b),
                    "lambda": lam,
                    "mu": mu,
                    "q": q,
                    "p": p,
                    "lhs_abs": abs(claim.lhs),
                    "rhs": float(claim.rhs),
                    "slack": float(claim.slack),
                })

    return {
        "config": {
            "trials": trials,
            "seed": seed,
            "family": family,
            "q_low": Q_LOW,
            "q_high": Q_HIGH,
        },
        "instances": trials,
        "families": {k: family_counts[k] for k in sorted(family_counts)},
        "paths_checked": paths_checked,
        "skipped_q1_certificate": skipped_q1,
        "skipped_q_certificate": skipped_q,
        "min_slack": None if min_claim is None else float(min_claim.slack),
        "min_slack_path": "" if min_claim is None else min_claim.formula_id,
        "violations": violations,
    }
