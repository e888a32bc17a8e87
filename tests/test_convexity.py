import math

import numpy as np
import pytest

from quadbound.campaign import Instance, draw_function
from quadbound.convexity import ConvexityCertificate, admissible_power, certify_convex
from quadbound.expr import EvalDomainError, as_function, differentiate, parse
from quadbound.oracle import Interval


def test_certify_linear_is_convex():
    cert = certify_convex(lambda x: np.abs(2 * x), Interval(1, 2))
    assert cert.valid
    assert cert.max_violation <= 1e-10
    assert cert.witness is None


def test_certify_inverse_square_is_convex():
    # |d/dx ln x|^2 = x^(-2) on a positive interval
    cert = certify_convex(lambda x: np.abs(1 / x) ** 2, Interval(1, 2))
    assert cert.valid


def test_certify_concave_yields_definitive_witness():
    g = lambda x: -(x**2)
    cert = certify_convex(g, Interval(0, 1))
    assert not cert.valid
    assert cert.max_violation > 1e-10
    x, y = cert.witness
    # re-evaluate the witness pair independently: the violation is real
    residual = g((x + y) / 2) - (g(x) + g(y)) / 2
    assert residual > 1e-10
    assert abs(residual - cert.max_violation) <= 1e-12 * max(1.0, abs(residual))


def test_certify_calls_g_once_without_a_kink():
    calls = []

    def g(x):
        calls.append(np.size(x))
        return np.abs(x) ** 1.5

    cert = certify_convex(g, Interval(-1, 2), seed=4)
    # the grid, the random x's and y's, and one midpoint per pair
    assert calls == [64 + 2 * 4096 + cert.samples]
    assert cert.samples == 2016 + 4096


def test_certify_deterministic_given_seed():
    g = lambda x: np.abs(x) ** 1.5
    c1 = certify_convex(g, Interval(-1, 2), seed=42)
    c2 = certify_convex(g, Interval(-1, 2), seed=42)
    assert c1 == c2
    c3 = certify_convex(g, Interval(-1, 2), seed=43)
    assert c3.valid == c1.valid  # same verdict, different samples


def test_certify_propagates_evaluation_failure():
    from quadbound.expr import EvalDomainError

    g = as_function(parse("ln(x)"))
    with pytest.raises(EvalDomainError):
        certify_convex(g, Interval(-1, 1))


def test_exact_kink_hits_are_nudged_one_ulp():
    from quadbound.convexity import _evaluate_nudged
    from quadbound.expr import EvalDomainError, differentiate

    # |d/dx abs(x)| is undefined exactly at 0; a sample landing there is
    # retried one ulp toward the interval interior
    fp = as_function(differentiate(parse("abs(x)")))
    g = lambda x: np.abs(fp(x))
    pts = np.array([-0.5, 0.0, 0.5])
    got = _evaluate_nudged(g, pts, 0.7)
    assert np.all(got == 1.0)
    # a genuine domain failure still fails after the nudge
    with pytest.raises(EvalDomainError):
        _evaluate_nudged(as_function(parse("ln(x)")), np.array([-0.5, 0.5]), 0.7)
    # only the failing point moves: a neighbour one ulp beyond the kink
    # would otherwise be moved onto it
    kinked = as_function(differentiate(parse("abs(x-0.3)")))
    beside = np.nextafter(0.3, 1.0)
    got = _evaluate_nudged(lambda x: np.abs(kinked(x)), np.array([beside, 0.3]), 0.0)
    assert np.all(got == 1.0)
    # end to end: the certificate of a V-shaped derivative magnitude passes
    cert = certify_convex(g, Interval(-1.0, 1.0), seed=5)
    assert cert.valid


def test_admissible_power_examples():
    assert admissible_power(2, 1)
    assert admissible_power(-1, 2)
    assert not admissible_power(1.5, 1)
    assert not admissible_power(0, 3)
    assert not admissible_power(1, 2)
    assert admissible_power(0.5, 1)
    with pytest.raises(ValueError):
        admissible_power(2, 0.5)


def test_certificate_agrees_with_power_predicate():
    # whenever the analytic predicate accepts (s, q), the sampled certificate
    # of |s x^(s-1)|^q on a positive interval must accept too
    rng = np.random.default_rng(19)
    accepted = 0
    for _ in range(500):
        s = float(rng.uniform(-2, 3))
        q = float(rng.uniform(1, 4))
        if s == 0 or not admissible_power(s, q):
            continue
        a = float(rng.uniform(0.3, 2.0))
        b = a + float(rng.uniform(0.3, 1.5))
        fp = as_function(differentiate(parse(f"x^{repr(s)}")))
        cert = certify_convex(lambda x: np.abs(fp(x)) ** q, Interval(a, b),
                              seed=int(rng.integers(2**63)))
        assert cert.valid, (s, q, a, b, cert.max_violation)
        accepted += 1
    assert accepted > 200


# -- reference: the certificate before it evaluated each point once ----------
# A verbatim copy (grid and pairs rebuilt per call, g evaluated on the
# midpoints, all x's and all y's), which the certificate must reproduce.

def _reference_grid(interval, n):
    k = np.arange(1, n + 1)
    u = (k * ((math.sqrt(5.0) - 1) / 2)) % 1.0
    return interval.a + (interval.b - interval.a) * np.sort(u)


def _reference_evaluate_nudged(g, pts, toward):
    try:
        return np.asarray(g(pts), dtype=float)
    except EvalDomainError:
        return np.asarray(g(np.nextafter(pts, toward)), dtype=float)


def _reference_certify_convex(g, interval, samples=4096, seed=0):
    pts = _reference_grid(interval, 64)
    ii, jj = np.triu_indices(64, k=1)
    xs = pts[ii]
    ys = pts[jj]

    rng = np.random.default_rng(seed)
    u = rng.random(samples)
    gap = 1e-3 + (1 - 2 * 1e-3) * rng.random(samples)
    v = (u + gap) % 1.0
    width = interval.b - interval.a
    xs = np.concatenate([xs, interval.a + width * u])
    ys = np.concatenate([ys, interval.a + width * v])

    mids = (xs + ys) / 2
    toward = float(interval.midpoint)
    residuals = _reference_evaluate_nudged(g, mids, toward) - (
        _reference_evaluate_nudged(g, xs, toward) + _reference_evaluate_nudged(g, ys, toward)) / 2
    if not np.all(np.isfinite(residuals)):
        raise ValueError("g produced non-finite values during certification")
    worst = int(np.argmax(residuals))
    max_violation = float(residuals[worst])
    valid = max_violation <= 1024 * np.finfo(float).eps * np.max(np.abs(
        _reference_evaluate_nudged(g, np.concatenate([xs, ys, mids]), toward)))
    return (len(xs), valid, max_violation,
            None if valid else (float(xs[worst]), float(ys[worst])))


def _derivative_power(source, q):
    fp = as_function(differentiate(parse(source)))
    return lambda x: np.abs(fp(x)) ** q


@pytest.mark.parametrize("source, a, b", [
    ("0.3+1.2*x-0.7*x^2+1.9*x^3-1.1*x^4", -1.2, 0.9),
    ("1.5-0.4*x+0.8*x^2", -2.5, -0.5),
    ("0-1.3*x^3+x", 0.2, 1.7),
    ("x^-1.5", 0.4, 2.3),
    ("x^2.5", 0.3, 1.4),
    ("ln(x)", 0.6, 3.1),
    ("exp(0-x^2)", 0.2, 1.1),
    ("exp(0.3*x)", -1.0, 2.0),
    ("abs(x-0.3)^3", -1.0, 1.0),
])
@pytest.mark.parametrize("q", [1.0, 2.7])
@pytest.mark.parametrize("seed", [0, 11, 2**62 + 5])
def test_certificate_equals_reference(source, a, b, q, seed):
    g = _derivative_power(source, q)
    cert = certify_convex(g, Interval(a, b), seed=seed)
    got = (cert.samples, cert.valid, cert.max_violation, cert.witness)
    assert got == _reference_certify_convex(g, Interval(a, b), seed=seed)


@pytest.mark.parametrize("k", range(64))
def test_kink_on_a_grid_point_keeps_the_verdict(k):
    # g fails exactly at grid point k, so that point is retried one ulp
    # inward.  The reference retried the whole call holding it (all x's or
    # all y's), the certificate retries only the failing point: a retried
    # point moves by one ulp (<= 2.3e-16 on this interval), which moves g by
    # at most max |g'| (< 70) times that, so a residual moves by < 4e-14.
    # g = 3^1.5 |x - kink|^3 is convex, so every certificate is valid.  A
    # failing call is halved until each failing point is alone, so the kink
    # costs O(log n) calls of g per failing point, not a call per point.
    from quadbound.convexity import _UNIT_GRID

    interval = Interval(-0.8, 1.3)
    kink = float(interval.a + (interval.b - interval.a) * _UNIT_GRID[k])
    g = _derivative_power(f"abs(x-{kink!r})^3", 1.5)
    with pytest.raises(EvalDomainError):
        g(np.array([kink]))
    calls = []

    def counted(x):
        calls.append(len(x))
        return g(x)

    for seed in (0, 3):
        calls.clear()
        cert = certify_convex(counted, interval, seed=seed)
        assert cert.valid
        assert len(calls) <= 200, (seed, len(calls))
        try:
            samples, valid, max_violation, _ = _reference_certify_convex(g, interval, seed=seed)
        except EvalDomainError:
            # the reference moved a midpoint one ulp beside the kink onto it
            continue
        assert (cert.samples, cert.valid) == (samples, valid)
        assert abs(cert.max_violation - max_violation) < 4e-14


@pytest.mark.parametrize("k", [-12, -6, 6])
def test_verdict_does_not_depend_on_the_scale_of_f(k):
    # |f'| of exp(-x^2) is concave on [0.2, 0.8]: scaled by 1e-12 its
    # residuals fall below an absolute 1e-10.  |f'| of x^2 is piecewise
    # linear, so its residuals are rounding noise: scaled by 1e6 they exceed it.
    rng = np.random.default_rng(5)
    cases = [("exp(0-x^2)", Interval(0.2, 0.8), 1.0), ("x^2", Interval(-1.2, 0.9), 1.0)]
    for family in ("poly", "power", "log", "concave-test"):
        for q in (1.0, *rng.uniform(1.05, 3.0, size=4)):
            draw = draw_function(rng, family, float(q))
            cases.append((draw.source, draw.interval, float(q)))
    verdicts = []
    for source, interval, q in cases:
        cert = certify_convex(_derivative_power(source, q), interval)
        scaled = certify_convex(_derivative_power(f"1e{k}*({source})", q), interval)
        assert scaled.valid == cert.valid, (source, interval, q)
        verdicts.append(cert.valid)
    assert 0 < sum(verdicts) < len(verdicts)


# -- reference: the certificate before its point set was built in place ------
# Verbatim copies of the point set and certificate that concatenated the
# points and gathered every pair, with the module constants they read.  The
# in-place point set and the sliced residuals must reproduce them bit for bit.

_PARENT_GRID_POINTS = 64
_PARENT_MIN_PAIR_GAP = 1e-3
_PARENT_ROUNDING_FACTOR = 1024
_PARENT_MAX_SAMPLES = 1_000_000
_PARENT_UNIT_GRID = np.sort((np.arange(1, _PARENT_GRID_POINTS + 1)
                             * ((math.sqrt(5.0) - 1) / 2)) % 1.0)
_PARENT_PAIRS = np.triu_indices(_PARENT_GRID_POINTS, k=1)


def _parent_point_set(a: float, b: float, samples: int, seed: int):
    rng = np.random.default_rng(seed)
    u = rng.random(samples)
    gap = _PARENT_MIN_PAIR_GAP + (1 - 2 * _PARENT_MIN_PAIR_GAP) * rng.random(samples)
    # (u + gap) mod 1 for u + gap in [0, 2); w - 1 is exact there (Sterbenz).
    w = u + gap
    v = np.where(w >= 1, w - 1, w)
    ends = a + (b - a) * np.concatenate([_PARENT_UNIT_GRID, u, v])

    n = _PARENT_GRID_POINTS
    ii, jj = _PARENT_PAIRS
    xi = np.concatenate([ii, n + np.arange(samples)])
    yi = np.concatenate([jj, n + samples + np.arange(samples)])
    points = np.concatenate([ends, (ends[xi] + ends[yi]) / 2])
    for arr in (points, xi, yi):
        arr.flags.writeable = False
    return points, xi, yi


def _parent_certify_convex(g, interval, samples=4096, seed=0):
    from quadbound.convexity import _evaluate_nudged

    if not 64 <= samples <= _PARENT_MAX_SAMPLES:
        raise ValueError(f"samples must be in [64, {_PARENT_MAX_SAMPLES}], got {samples}")
    points, xi, yi = _parent_point_set(float(interval.a), float(interval.b), samples, seed)
    g_all = _evaluate_nudged(g, points, float(interval.midpoint))
    residuals = g_all[-len(xi):] - (g_all[xi] + g_all[yi]) / 2
    if not np.all(np.isfinite(residuals)):
        raise ValueError("g produced non-finite values during certification")
    worst = int(np.argmax(residuals))
    max_violation = float(residuals[worst])
    valid = max_violation <= _PARENT_ROUNDING_FACTOR * math.ulp(1.0) * float(np.abs(g_all).max())
    return ConvexityCertificate(
        samples=len(xi),
        max_violation=max_violation,
        valid=valid,
        witness=None if valid else (float(points[xi[worst]]), float(points[yi[worst]])),
    )


def _seeded_cases(count=4):
    rng = np.random.default_rng(4096)
    for _ in range(count):
        a = float(rng.uniform(-3, 2))
        yield a, a + float(rng.uniform(1e-3, 4)), int(rng.integers(2**63))


def test_point_set_equals_parent():
    from quadbound.convexity import _XI, _YI, _point_set

    for a, b, seed in _seeded_cases():
        got, want = (_point_set(a, b, seed), _XI, _YI), _parent_point_set(a, b, 4096, seed)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (a, b, seed)
            assert not g.flags.writeable


def test_certificate_equals_parent():
    from quadbound.convexity import _UNIT_GRID

    for k, (a, b, seed) in enumerate(_seeded_cases()):
        interval = Interval(a, b)
        kink = float(a + (b - a) * _UNIT_GRID[17 * k % 64])
        kinked = _derivative_power(f"abs(x-{kink!r})^3", 1.5)
        with pytest.raises(EvalDomainError):
            kinked(np.array([kink]))
        for g in (lambda x: np.abs(x - a) ** 1.7, lambda x: -(x - a) ** 2, kinked):
            cert = certify_convex(g, interval, seed=seed)
            assert cert == _parent_certify_convex(g, interval, seed=seed)
        assert cert.valid
        concave = certify_convex(lambda x: -(x - a) ** 2, interval, seed=seed)
        assert concave.witness is not None


@pytest.mark.parametrize("q", [1.0, 2.7])
def test_instance_certificate_equals_parent(q):
    # at q = 1 the certificate reads the remembered |f'| itself
    rng = np.random.default_rng(23)
    for family in ("poly", "power", "log", "concave-test"):
        for _ in range(3):
            draw = draw_function(rng, family, q)
            seed = int(rng.integers(2**63))
            ast = parse(draw.source)
            inst = Instance(ast, differentiate(ast), draw.interval)
            want = _parent_certify_convex(_derivative_power(draw.source, q), draw.interval,
                                          seed=seed)
            assert inst.certificate(q, seed) == want, (draw.source, q)
    # a kink on grid point 9 takes the nudge path
    from quadbound.convexity import _UNIT_GRID

    interval = Interval(-0.8, 1.3)
    kink = float(interval.a + (interval.b - interval.a) * _UNIT_GRID[9])
    source = f"abs(x-{kink!r})^3+x"
    ast = parse(source)
    inst = Instance(ast, differentiate(ast), interval)
    with pytest.raises(EvalDomainError):
        _derivative_power(source, q)(np.array([kink]))
    assert inst.certificate(q, 5) == _parent_certify_convex(
        _derivative_power(source, q), interval, seed=5)
