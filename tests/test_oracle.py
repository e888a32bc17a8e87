import heapq
import math

import numpy as np
import pytest

from quadbound import oracle
from quadbound.bounds import HolderParams, kernel_moments_closed
from quadbound.campaign import QUAD_RTOL, draw_function
from quadbound.expr import as_function, parse
from quadbound.oracle import (
    _EPS,
    _WG,
    _WGK,
    _XGK,
    Interval,
    IntegrationError,
    QuadratureResult,
    _budget_message,
    _panel,
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
    # every panel's |K15 - G7| is exactly 0 here, on any numpy kernels
    r = integrate(lambda x: 0.0 * x, Interval(0, 1), tol=0.0)
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


_BIG = 1.7e308


@pytest.mark.parametrize("f, top, exact, budget", [
    (lambda x: np.exp(709.7 - 1000 * (x - 0.5) ** 2), math.exp(709.7),
     math.exp(709.7) * math.sqrt(math.pi / 1000), 1000),
    # some panels here would overflow only their Gauss sum
    (lambda x: _BIG * np.sin(123 * x) ** 2, _BIG, _BIG * (0.5 - math.sin(246) / 492), 10_000),
], ids=["gaussian", "sin2"])
def test_integrate_panel_sums_past_the_float_range(f, top, exact, budget):
    # values near the largest float would sum past it against the weights,
    # which sum to 2, while the integral is a float: the halved weights keep
    # each sum finite, with no warning, and integrate converges
    tol = 1e-11 * top
    r = integrate(f, Interval(0, 1), tol)
    assert r.error_estimate <= tol and r.evaluations < budget
    assert abs(r.value - exact) <= tol


def test_integrate_names_a_panel_value_past_the_float_range():
    # K15 * (hi - lo) overflows on the first panel: named at once, with no
    # warning, rather than an inf value, a NaN error and the node budget
    points = []

    def f(x):
        points.append(x.size)
        return 1e308 + 0 * x

    with pytest.raises(IntegrationError) as exc:
        integrate(f, Interval(0, 10))
    assert str(exc.value) == "the K15 value of the panel [0.0, 10.0] is past the float range"
    assert sum(points) < 1000


def test_integrate_names_panel_values_that_sum_past_the_float_range():
    # each panel value is finite, their sum is not
    with pytest.raises(IntegrationError) as exc:
        integrate(lambda x: 1e308 + 0 * x, Interval(0, 1.9), 1e300, [0.95])
    assert str(exc.value) == "the panel values on [0, 1.9] sum past the float range"


def test_integrate_keeps_panels_that_no_longer_split():
    # sin(1e17 x) turns within an ulp of 1, so bisection reaches the eight
    # one-ulp panels, whose midpoints round onto an end: they are kept, with
    # the error they carry, and tol = 0 still returns
    r = integrate(lambda x: np.sin(1e17 * x), Interval(1.0, 1.0 + 8 * math.ulp(1.0)), 0.0)
    assert r.evaluations == 15 + 7 * 30
    assert r.error_estimate > 4 * _EPS * abs(r.value)


def test_kernel_moment_examples():
    assert abs(kernel_moment_numeric("left", 0.0, 1.0) - 1 / 8) <= 1e-12
    assert abs(kernel_moment_numeric("right", 1.0, 1.0) - 1 / 8) <= 1e-12
    assert abs(kernel_moment_numeric("left", 0.25, 0.0) - 1 / 2) <= 1e-12


def test_kernel_moment_rejects_negative_exponent():
    with pytest.raises(ValueError):
        kernel_moment_numeric("left", 0.2, -0.5)


@pytest.mark.parametrize("side, shift, exponent, message", [
    ("left", 0.2, math.nan, "exponent must be >= 0, got nan"),
    ("left", math.nan, 1.0, r"left shift must lie in \[0, 1/2\], got nan"),
    ("right", 0.2, 1.0, r"right shift must lie in \[1/2, 1\], got 0.2"),
], ids=["nan-exponent", "nan-shift", "shift-off-side"])
def test_kernel_moment_checks_its_arguments_as_the_closed_form_does(side, shift, exponent,
                                                                    message):
    with pytest.raises(ValueError, match=message):
        kernel_moment_numeric(side, shift, exponent)
    if not math.isnan(exponent):  # a shift off its side: the closed form's words
        with pytest.raises(ValueError, match=message):
            kernel_moments_closed(shift, side, HolderParams(1.5, 2.0))


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


# -- the vecdot panel sums and the one-panel start, against the loop -----------
# Verbatim copies of _panel and integrate as they were before the panel sums
# took np.vecdot and integrate took breakpoints.  The arithmetic is meant to
# be unchanged, so results must be equal, not close.

def _panel_loop(f, *edges):
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


def _integrate_one_panel(f, interval, tol=oracle.DEFAULT_TOL):
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    lo, hi = float(interval.a), float(interval.b)
    evals = 15
    if evals > oracle.MAX_EVALS:
        raise IntegrationError(_budget_message(tol))
    [(value, err)] = _panel_loop(f, lo, hi)
    # Max-heap on error: entries are (-err, lo, hi, value).
    heap = [(-err, lo, hi, value)]
    kept = []
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
        if evals > oracle.MAX_EVALS:
            raise IntegrationError(_budget_message(tol))
        (v1, e1), (v2, e2) = _panel_loop(f, lo, mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        value_sum += v1 + v2 - value
        err_sum += e1 + e2 + neg_err
        abs_sum += abs(v1) + abs(v2) - abs(value)


def _panel_pairs(f, *edges):
    # the array-shaped _panel, as the (value, error) pairs _panel_loop returns
    values, errors = _panel(f, np.array(edges))
    return list(zip(values, errors))


def test_panel_equals_the_per_panel_loop():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        n = int(rng.integers(1, 41))
        edges = np.unique(rng.uniform(-3, 3, n + 1)).tolist()
        m = 15 * (len(edges) - 1)
        values = rng.standard_normal(m) * 10.0 ** rng.uniform(-5, 5, m)
        assert _panel_pairs(lambda x: values, *edges) == _panel_loop(lambda x: values, *edges)
    # a scalar-valued f, and the panel a non-finite value is reported on
    assert _panel_pairs(lambda x: 2.5, 0.0, 0.3, 1.0) == _panel_loop(lambda x: 2.5, 0.0, 0.3, 1.0)
    assert (_panel_pairs(lambda x: np.array(2.5), 0.0, 0.3, 1.0)
            == _panel_loop(lambda x: np.array(2.5), 0.0, 0.3, 1.0))
    for bad in (math.inf, -math.inf, math.nan):
        values = np.ones(45)
        values[int(rng.integers(15, 45))] = bad
        with pytest.raises(IntegrationError) as got:
            _panel_pairs(lambda x: values, 0.0, 1.0, 2.0, 3.0)
        with pytest.raises(IntegrationError) as want:
            _panel_loop(lambda x: values, 0.0, 1.0, 2.0, 3.0)
        assert str(got.value) == str(want.value)


# A verbatim copy of integrate as it was before the panel step took edge
# arrays and a first call that meets tol returned with no heap (the panel
# step is _panel_loop, which _panel equals).  Results must be equal, not close.

def _integrate_heap(f, interval, tol=oracle.DEFAULT_TOL, breakpoints=()):
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    edges = (float(interval.a), *map(float, breakpoints), float(interval.b))
    if not all(lo < hi for lo, hi in zip(edges, edges[1:])):
        raise ValueError("breakpoints must be finite, strictly increasing and strictly "
                         f"inside ({edges[0]}, {edges[-1]}), got {list(edges[1:-1])}")
    evals = 15 * (len(edges) - 1)
    if evals > oracle.MAX_EVALS:
        raise IntegrationError(_budget_message(tol))
    # Max-heap on error: entries are (-err, lo, hi, value).
    heap = [(-err, lo, hi, value)
            for lo, hi, (value, err) in zip(edges, edges[1:], _panel_loop(f, *edges))]
    heapq.heapify(heap)
    kept = []
    # Zero running sums send the first pass to the exact sums below.
    err_sum = abs_sum = 0.0
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
        if evals > oracle.MAX_EVALS:
            raise IntegrationError(_budget_message(tol))
        (v1, e1), (v2, e2) = _panel_loop(f, lo, mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        err_sum += e1 + e2 + neg_err
        abs_sum += abs(v1) + abs(v2) - abs(value)


def _integrands():
    """(f, interval, tolerances): the campaign's draws at the tolerance
    Instance.quad gives them, and smooth, kinked and singular integrands."""
    rng = np.random.default_rng(29)
    for family in ("poly", "power", "log") * 10:
        draw = draw_function(rng, family, q=float(rng.uniform(1.05, 3.0)))
        f, iv = as_function(draw.ast), draw.interval
        y = f(np.array([iv.a, iv.midpoint, iv.b]))
        yield f, iv, (QUAD_RTOL * iv.width * (max(y) - min(y)), 0.0)
    yield as_function(parse("exp(0-x^2)")), Interval(0.0, 3.0), (1e-11, 0.0)
    yield as_function(parse("exp(0-x^2)")), Interval(0.2, 0.9), (1e-11, 0.0)
    yield as_function(parse("abs(x-0.3)")), Interval(0.0, 1.0), (1e-11, 1e-13)
    for f, iv, _ in _SINGULAR:
        yield f, iv, (1e-11, 1e-12)


def test_integrate_with_no_breakpoints_equals_the_one_panel_start():
    for f, iv, tols in _integrands():
        for tol in tols:
            assert integrate(f, iv, tol) == _integrate_one_panel(f, iv, tol)


def test_integrate_equals_the_heap_loop():
    for f, iv, tols in _integrands():
        for tol in tols:
            assert integrate(f, iv, tol) == _integrate_heap(f, iv, tol)


# -- breakpoints ----------------------------------------------------------------

@pytest.mark.parametrize("breakpoints", [(0.6, 0.4), (0.5, 0.5), (1.5,), (-0.5,), (0.0,),
                                         (1.0,), (math.nan,), (math.inf,), (0.5, -math.inf)])
def test_integrate_rejects_bad_breakpoints(breakpoints):
    with pytest.raises(ValueError, match="breakpoints must be finite, strictly increasing "
                                         r"and strictly inside \(0.0, 1.0\)"):
        integrate(lambda x: x, Interval(0.0, 1.0), 1e-12, breakpoints)


def test_integrate_from_breakpoint_panels():
    # the kink is a panel end, so K15 is exact on both pieces from the start
    r = integrate(lambda x: np.abs(x - 0.3), Interval(0.0, 1.0), 1e-12, [0.3])
    assert abs(r.value - 0.29) <= 1e-12 and r.error_estimate <= 1e-12
    assert r.evaluations == 30
    # without it, the kink costs bisections
    assert integrate(lambda x: np.abs(x - 0.3), Interval(0.0, 1.0), 1e-12).evaluations > 30
    # breakpoints need not be at a kink
    r = integrate(np.exp, Interval(0.0, 1.0), 1e-13, (0.1, 0.2, 0.7))
    assert abs(r.value - (math.e - 1)) <= 1e-13


@pytest.mark.parametrize("side, lo, hi", [("left", 0.0, 0.5), ("right", 0.5, 1.0)])
def test_kernel_moment_at_and_next_to_the_ends(side, lo, hi):
    for shift in (lo, hi, float(np.nextafter(lo, hi)), float(np.nextafter(hi, lo))):
        for p, q in ((1.5, 2.0), (0.05, 2.5), (3.9, 4.0), (1.0, 1.05)):
            km = kernel_moments_closed(shift, side, HolderParams(p, q))
            for closed, exponent, weight in ((km.hoelder_factor, (q - p) / (q - 1), "1"),
                                             (km.weight_a, p, "t"), (km.weight_b, p, "1-t")):
                got = kernel_moment_numeric(side, shift, exponent, weight)
                assert abs(closed - got) <= 1e-12, (shift, p, q, weight)


def _criterion_4_draws():
    # the draws of tests/test_acceptance.py::test_criterion_4_moment_oracle_500
    rng = np.random.default_rng(0)
    for k in range(500):
        q = float(rng.uniform(1.05, 4.0))
        p = q * float(rng.uniform(0.02, 1.0))
        if k % 2 == 0:
            side, shift = "left", float(rng.uniform(0, 0.5))
        else:
            side, shift = "right", float(rng.uniform(0.5, 1.0))
        for exponent, weight in (((q - p) / (q - 1), "1"), (p, "t"), (p, "1-t")):
            yield side, shift, exponent, weight


def test_kernel_moments_equal_the_heap_loop(monkeypatch):
    # every breakpoint start of the criterion-4 moments, first call and
    # bisections alike, against the heap loop
    real, calls = oracle.integrate, []

    def both(f, interval, tol, breakpoints):
        got = real(f, interval, tol, breakpoints)
        assert got == _integrate_heap(f, interval, tol, breakpoints), breakpoints
        calls.append(got.evaluations > 15 * (len(breakpoints) + 1))
        return got

    monkeypatch.setattr(oracle, "integrate", both)
    for draw in _criterion_4_draws():
        kernel_moment_numeric(*draw)
    assert len(calls) == 1500
    # both paths are taken: a first call that meets tol, and bisections
    assert 0 < sum(calls) < 1500


def test_kernel_moment_is_one_integrate_call_of_few_panel_calls(monkeypatch):
    # Graded cuts leave few bisections: 2.67 panel calls per moment, where
    # two integrate calls, one either side of the kink, needed 22.3.
    calls = {"integrate": 0, "panel": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracle, "integrate", counted("integrate", oracle.integrate))
    monkeypatch.setattr(oracle, "_panel", counted("panel", oracle._panel))
    moments = 0
    for draw in _criterion_4_draws():
        before = calls["integrate"]
        kernel_moment_numeric(*draw)
        assert calls["integrate"] == before + 1, draw
        moments += 1
    assert moments == 1500
    assert calls["panel"] / moments <= 3.0
