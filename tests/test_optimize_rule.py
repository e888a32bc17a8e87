"""The per-half rule optimizer against the coordinate descent it replaced.

``bound`` is a left-half term in lam plus a right-half term in mu, so its
minimum over the rule weights splits into one search per half.  The tests
check that split directly, and compare ``optimize_rule`` with a verbatim copy
of the earlier coordinate descent (3 x 3 starts, up to 100 sweeps each).

The descent costs ~10 ms an instance, so its results on the 2,000 seeded
instances are kept in ``optimize_rule_reference.json``; a sample is re-run
here to show the fixture is the descent's output.  Re-record it with

    PYTHONPATH=src python tests/test_optimize_rule.py
"""

import json
import math
import pathlib
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest

from quadbound.bounds import DerivEndpoints, _golden_min, bound, optimize_rule
from quadbound.oracle import Interval
from quadbound.rules import RuleParams

FIXTURE = pathlib.Path(__file__).with_name("optimize_rule_reference.json")
INSTANCES = 2000


# -- reference: the rule optimizer before it searched one half at a time ------

def _reference_optimize_rule(q: float, p: Optional[float], d: DerivEndpoints,
                             interval: Interval, param_tol: float = 1e-6,
                             ) -> tuple[RuleParams, float]:
    """Minimize ``bound`` at fixed (q, p) over the rule weights by coordinate
    descent on (lam, mu) over [0, 1/2] x [1/2, 1] from a 3x3 grid of starts.
    Returns the best local optimum found (no global certificate)."""
    if q > 1 and p is None:
        raise ValueError(f"optimizing the rule at q = {q} > 1 requires p")

    def f(lam, mu):
        return bound(RuleParams(lam, mu), d, interval, q, p)[0]

    best: Optional[tuple[float, float, float]] = None
    for lam0 in (0.0, 0.25, 0.5):
        for mu0 in (0.5, 0.75, 1.0):
            lam, mu = lam0, mu0
            for _ in range(100):
                new_lam, _ = _golden_min(lambda t: f(t, mu), 0.0, 0.5, tol=param_tol / 8)
                new_mu, _ = _golden_min(lambda t: f(new_lam, t), 0.5, 1.0, tol=param_tol / 8)
                moved = abs(new_lam - lam) + abs(new_mu - mu)
                lam, mu = new_lam, new_mu
                if moved < param_tol:
                    break
            value = f(lam, mu)
            if best is None or value < best[2]:
                best = (lam, mu, value)
    assert best is not None
    return RuleParams(best[0], best[1]), best[2]


def _instances(n: int = INSTANCES, seed: int = 2024):
    """Seeded (q, p, d, interval): the four (q, p) forms in turn, derivative
    magnitudes 0, ~1e-6, ~5 and ~1e3, widths from 1e-3 to 50."""
    rng = np.random.default_rng(seed)
    scales = (0.0, 1e-6, 5.0, 1e3)
    out = []
    for i in range(n):
        q = 1.0 if i % 4 == 0 else float(rng.choice([rng.uniform(1.01, 1.5),
                                                      rng.uniform(1.5, 6.0)]))
        p = (None, 1.0, q, float(rng.uniform(0.02, q)))[i % 4]
        da = float(rng.choice(scales) * rng.uniform(0.5, 2.0))
        db = float(rng.choice(scales) * rng.uniform(0.5, 2.0))
        a = float(rng.uniform(-5.0, 5.0))
        width = float(10 ** rng.uniform(-3.0, math.log10(50.0)))
        out.append((q, p, DerivEndpoints(da, db), Interval(a, a + width)))
    return out


def _result(rule: RuleParams, value: float) -> list[float]:
    return [float(rule.lam), float(rule.mu), float(value)]


@pytest.fixture(scope="module")
def instances():
    return _instances()


@pytest.fixture(scope="module")
def reference():
    return json.loads(FIXTURE.read_text())


def test_fixture_is_the_reference_output(instances, reference):
    assert len(reference) == len(instances) == INSTANCES
    for i in range(0, INSTANCES, 40):
        assert _result(*_reference_optimize_rule(*instances[i])) == reference[i]


def test_per_half_search_matches_reference(instances, reference):
    identical = 0
    for inst, (lam, mu, value) in zip(instances, reference):
        got = _result(*optimize_rule(*inst))
        identical += got == [lam, mu, value]
        assert abs(got[0] - lam) <= 1e-6 and abs(got[1] - mu) <= 1e-6, inst
        assert abs(got[2] - value) <= 1e-13 * abs(value), inst
    # every instance was byte-identical when this test was written
    assert identical / INSTANCES >= 0.995, identical


def _bound(lam, mu, q, p, d, interval):
    return bound(RuleParams(lam, mu), d, interval, q, p)[0]


def test_q1_bound_separates_exactly():
    # under Fractions the q = 1 bound is exact, so the change from mu to mu'
    # is the same for every lam
    d = DerivEndpoints(Fraction(3, 7), Fraction(11, 5))
    interval = Interval(Fraction(-1, 3), Fraction(5, 2))
    rng = np.random.default_rng(5)
    for _ in range(50):
        mu, mu2 = (Fraction(int(rng.integers(500, 1001)), 1000) for _ in range(2))
        steps = {_bound(Fraction(int(k), 1000), mu, 1.0, None, d, interval)
                 - _bound(Fraction(int(k), 1000), mu2, 1.0, None, d, interval)
                 for k in rng.integers(0, 501, size=4)}
        assert len(steps) == 1


@pytest.mark.parametrize("q, p", [(1.0, None), (1.3, 1.0), (2.5, 2.5), (4.0, 0.3)])
def test_bound_separates_up_to_rounding(q, p):
    rng = np.random.default_rng(17)
    for _ in range(200):
        d = DerivEndpoints(*rng.uniform(0.0, 10.0, size=2))
        a = float(rng.uniform(-3.0, 3.0))
        interval = Interval(a, a + float(rng.uniform(0.1, 5.0)))
        mu, mu2 = rng.uniform(0.5, 1.0, size=2)
        lam, lam2 = rng.uniform(0.0, 0.5, size=2)
        values = [_bound(x, y, q, p, d, interval)
                  for x in (lam, lam2) for y in (mu, mu2)]
        step, step2 = values[0] - values[1], values[2] - values[3]
        assert abs(step - step2) <= 16 * np.finfo(float).eps * max(values)


def _record():
    rows = [json.dumps(_result(*_reference_optimize_rule(*inst))) for inst in _instances()]
    FIXTURE.write_text("[\n" + ",\n".join(rows) + "\n]\n")


if __name__ == "__main__":
    _record()
