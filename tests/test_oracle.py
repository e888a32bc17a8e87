import math

import numpy as np
import pytest

from quadbound.expr import as_function, parse
from quadbound.oracle import (
    Interval,
    IntegrationError,
    integrate,
    kernel_moment_numeric,
    midpoint,
)


def test_interval_requires_a_lt_b():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 1.0),
                                  (-math.inf, math.inf), (0.0, math.nan)])
def test_interval_requires_finite_endpoints(a, b):
    with pytest.raises(ValueError, match="interval requires"):
        Interval(a, b)


def test_interval_requires_a_finite_width():
    with pytest.raises(ValueError) as exc:
        Interval(-1e308, 1e308)
    assert str(exc.value) == "interval width b - a overflows on [-1e+308, 1e+308]"


def test_midpoint_is_finite_past_the_float_range():
    assert Interval(1e308, 1.7e308).midpoint == 1.35e308
    assert midpoint(-1.7e308, -1e308) == -1.35e308
    # where a + b is finite, the midpoint is (a + b)/2 to the bit
    rng = np.random.default_rng(5)
    for a, b in 10.0 ** rng.uniform(-300, 307, (2000, 2)) * rng.choice([-1, 1], (2000, 2)):
        a, b = float(a), float(b)
        assert midpoint(a, b) == (a + b) / 2


def test_integrate_x_squared():
    r = integrate(as_function(parse("x^2")), Interval(1, 2), tol=1e-12)
    assert abs(r.value - 7 / 3) <= 1e-12
    assert r.error_estimate >= 0
    assert r.evaluations >= 15


def test_integrate_ln():
    r = integrate(as_function(parse("ln(x)")), Interval(1, 2), tol=1e-12)
    assert abs(r.value - (2 * math.log(2) - 1)) <= 1e-12


def test_integrate_polynomial_exactness():
    # The embedded Gauss rule is exact to degree 13; check up to there.
    rng = np.random.default_rng(3)
    for degree in range(14):
        coeffs = rng.uniform(-2, 2, degree + 1)
        a, b = -1.3, 2.1

        def f(x, c=coeffs):
            return sum(ci * x**k for k, ci in enumerate(c))

        exact = sum(c / (k + 1) * (b ** (k + 1) - a ** (k + 1))
                    for k, c in enumerate(coeffs))
        r = integrate(f, Interval(a, b))
        assert abs(r.value - exact) <= 1e-13 * max(1.0, abs(exact))


def test_integrate_tol_zero_stops_at_the_rounding_floor():
    r = integrate(np.exp, Interval(0, 1), tol=0.0)
    assert r.error_estimate <= 4 * np.finfo(float).eps * abs(r.value)
    assert abs(r.value - (math.e - 1)) <= 1e-15
    assert r.evaluations < 1000


def test_integrate_zero_error_estimate_is_positive_zero():
    r = integrate(np.exp, Interval(0, 1), tol=0.0)
    assert r.error_estimate == 0.0 and math.copysign(1.0, r.error_estimate) == 1.0


def test_integrate_rounding_floor_survives_cancellation():
    # the panel values of an odd integrand cancel, so a floor of
    # 4 eps |sum| would be ~0 and tol = 0 would run out the budget
    r = integrate(lambda x: x**5 - 2 * x**3 + x, Interval(-1, 1), tol=0.0)
    assert abs(r.value) <= 1e-15
    assert r.evaluations <= 45


@pytest.mark.parametrize("tol", [-1e-12, math.nan, math.inf])
def test_integrate_rejects_negative_or_non_finite_tol(tol):
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        integrate(lambda x: x, Interval(0, 1), tol=tol)


def test_integrate_budget_is_an_explicit_failure(monkeypatch):
    from quadbound import oracle

    monkeypatch.setattr(oracle, "MAX_EVALS", 300)
    with pytest.raises(IntegrationError, match="node budget"):
        integrate(lambda x: np.sin(50 * x), Interval(0, 10), tol=1e-13)


def test_integrate_rejects_nonfinite_integrand():
    with pytest.raises(IntegrationError, match="non-finite"):
        integrate(lambda x: np.where(x > 0.5, np.inf, 1.0), Interval(0, 1))


def test_kernel_moment_examples():
    assert abs(kernel_moment_numeric("left", 0.0, 1.0) - 1 / 8) <= 1e-12
    assert abs(kernel_moment_numeric("right", 1.0, 1.0) - 1 / 8) <= 1e-12
    assert abs(kernel_moment_numeric("left", 0.25, 0.0) - 1 / 2) <= 1e-12


def test_kernel_moment_rejects_negative_exponent():
    with pytest.raises(ValueError):
        kernel_moment_numeric("left", 0.2, -0.5)


def test_kernel_moment_split_equals_panel_sum():
    for side, shift in (("left", 0.2), ("right", 0.8)):
        lo, hi = (0.0, 0.5) if side == "left" else (0.5, 1.0)
        for exponent in (0.4, 1.0, 2.3):
            def f(t):
                return np.abs(shift - t) ** exponent
            whole = kernel_moment_numeric(side, shift, exponent)
            parts = (integrate(f, Interval(lo, shift), 1e-12).value
                     + integrate(f, Interval(shift, hi), 1e-12).value)
            assert abs(whole - parts) <= 1e-12


def test_kernel_moment_closed_forms_low_exponent():
    # integral of (shift - t)^e over [0, shift] + (t - shift)^e over [shift, 1/2]
    for shift in (0.1, 0.3, 0.5):
        for e in (0.05, 0.5, 1.7, 3.0):
            exact = (shift ** (e + 1) + (0.5 - shift) ** (e + 1)) / (e + 1)
            got = kernel_moment_numeric("left", shift, e)
            assert abs(got - exact) <= 1e-11 * max(1.0, abs(exact))


def _kink(t):
    return np.abs(0.2 - t) ** 0.05 * t


# Integrable endpoint singularities: (integrand, interval, exact value).
_SINGULAR = (
    (_kink, Interval(0.0, 0.2), 0.2**2.05 / 1.05 - 0.2**2.05 / 2.05),
    (_kink, Interval(0.2, 0.5), 0.3**2.05 / 2.05 + 0.2 * 0.3**1.05 / 1.05),
    (lambda x: x**-0.5, Interval(0.0, 1.0), 2.0),
    (np.log, Interval(0.0, 1.0), -1.0),
)


def test_integrate_endpoint_singularity_within_budget():
    # A panel touching t = 0.2 has a width-independent relative error; it must
    # be bisected only until the summed error meets tol.
    for f, iv, exact in _SINGULAR[:2]:
        r = integrate(f, iv, 1e-12)
        assert r.evaluations <= 5000
        assert r.error_estimate <= 1e-12
        assert abs(r.value - exact) <= 1e-12


def test_integrate_singular_endpoint_value():
    for f, iv, exact in _SINGULAR[2:]:
        r = integrate(f, iv, 1e-12)
        assert abs(r.value - exact) <= 1e-12
        assert r.error_estimate <= 1e-12


def test_integrate_matches_scipy_on_singular_integrands():
    quad = pytest.importorskip("scipy.integrate").quad
    for f, iv, _ in _SINGULAR:
        ref, _ = quad(f, iv.a, iv.b, epsabs=1e-13, epsrel=1e-13, limit=200)
        assert abs(integrate(f, iv, 1e-12).value - ref) <= 1e-10


def test_kernel_moment_extreme_exponents():
    for e in (1e-3, 6.5e-3, 0.03):
        for side, start in (("left", 0.0), ("right", 0.5)):
            for s in (0.0, 0.13, 0.5):
                exact = (s ** (e + 1) + (0.5 - s) ** (e + 1)) / (e + 1)
                got = kernel_moment_numeric(side, start + s, e)
                assert abs(got - exact) <= 1e-11 * exact


def test_integrate_deterministic():
    f = as_function(parse("exp(0-x^2)"))
    r1 = integrate(f, Interval(0, 3))
    r2 = integrate(f, Interval(0, 3))
    assert r1 == r2
