import numpy as np
import pytest

from quadbound.campaign import Instance, draw_function
from quadbound.convexity import ConvexityCertificate, admissible_power, certify_convex
from quadbound.expr import as_function, differentiate, parse
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

    cert = certify_convex(g, Interval(-1, 2))
    # the 4,097 grid points, once; one residual per triple of the tree
    assert calls == [4097]
    assert (cert.samples, cert.evaluations) == (8178, 4097)


def test_certify_takes_no_seed():
    # the dyadic grid is fixed by [a, b] alone
    g = lambda x: np.abs(x) ** 1.5
    assert certify_convex(g, Interval(-1, 2)) == certify_convex(g, Interval(-1, 2))
    with pytest.raises(TypeError):
        certify_convex(g, Interval(-1, 2), seed=42)


def test_certify_propagates_evaluation_failure():
    from quadbound.expr import EvalDomainError

    g = as_function(parse("ln(x)"))
    with pytest.raises(EvalDomainError):
        certify_convex(g, Interval(-1, 1))


def test_non_finite_g_is_named_without_a_warning():
    # |f'| overflows near x = 1/2, and the residuals beside it are inf - inf:
    # one named error, and no numpy warning (an error under pytest)
    ast = parse("exp(709-1000*(x-0.5)^2)")
    inst = Instance(ast, differentiate(ast), Interval(0.0, 1.0))
    with pytest.raises(ValueError, match="^g produced non-finite values during certification$"):
        inst.certificate(1.0)


def test_v_shaped_derivative_magnitude_is_certified():
    # |d/dx abs(x)| is 1 on both sides of the kink and at it, where sgn(+0.0)
    # gives the one-sided value; on [-1, 1] the kink is the grid's midpoint
    fp = as_function(differentiate(parse("abs(x)")))
    cert = certify_convex(lambda x: np.abs(fp(x)), Interval(-1.0, 1.0))
    assert cert.valid and cert.evaluations == 4097


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
        cert = certify_convex(lambda x: np.abs(fp(x)) ** q, Interval(a, b))
        assert cert.valid, (s, q, a, b, cert.max_violation)
        accepted += 1
    assert accepted > 200


# -- reference: the dyadic certificate, written plainly ----------------------
# The grid a + k(b-a)/2^12 (k = 0..4096, the last point b) is built point by
# point, and the residuals level by level from slices of every 2^k-th value.
# The certificate must reproduce it bit for bit.

_EPS = float(np.finfo(float).eps)


def _reference_grid(a, b):
    x = np.array([a + k * (b - a) / 4096 for k in range(4097)])
    x[-1] = b
    return x


def _reference_certify_convex(g, interval):
    a, b = float(interval.a), float(interval.b)
    x = _reference_grid(a, b)
    residuals, lefts, rights = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        gx = np.asarray(g(x), dtype=float)
        for k in range(12):
            sub, xs = gx[::2**k], x[::2**k]
            residuals.append(sub[1:-1] - (sub[:-2] + sub[2:]) / 2)
            lefts.append(xs[:-2])
            rights.append(xs[2:])
    residuals = np.concatenate(residuals)
    if not np.isfinite(residuals).all():
        raise ValueError("g produced non-finite values during certification")
    worst = int(np.argmax(residuals))
    valid = residuals[worst] <= 1024 * _EPS * np.max(np.abs(gx))
    return ConvexityCertificate(
        samples=len(residuals), evaluations=len(x),
        max_violation=float(residuals[worst]), valid=bool(valid),
        witness=None if valid else (float(np.concatenate(lefts)[worst]),
                                    float(np.concatenate(rights)[worst])))


def _every_offset_valid(g, interval):
    """The verdict of midpoint convexity at every dyadic spacing and every
    offset of the grid (~41k residuals), not only on the tree."""
    x = _reference_grid(float(interval.a), float(interval.b))
    gx = np.asarray(g(x), dtype=float)
    worst = max(float(np.max(gx[s:-s] - (gx[:-2 * s] + gx[2 * s:]) / 2))
                for s in (2**k for k in range(12)))
    return worst <= 1024 * _EPS * np.max(np.abs(gx))


def _derivative_power(source, q):
    fp = as_function(differentiate(parse(source)))
    return lambda x: np.abs(fp(x)) ** q


def test_grid_and_tree_are_dyadic():
    from quadbound.convexity import _LAST_REAL, _LEVEL_POINTS, _SEAMS, _UNIT, grid

    rng = np.random.default_rng(4096)
    for _ in range(4):
        a = float(rng.uniform(-3, 2))
        b = a + float(rng.uniform(1e-3, 4))
        got = grid(Interval(a, b))
        assert got.tobytes() == _reference_grid(a, b).tobytes(), (a, b)
        assert got[0] == a and got[-1] == b
    assert not _UNIT.flags.writeable  # every grid is scaled from it
    # (js, (j+1)s, (j+2)s) for s = 1, 2, ..., 2^11, level by level
    want = [(j * s, (j + 1) * s, (j + 2) * s)
            for s in (2**k for k in range(12)) for j in range(4096 // s - 1)]
    assert len(want) == 8178
    # consecutive triples of the level points, minus the seams, are the tree's
    points = _LEVEL_POINTS.tolist()
    seams = set(_SEAMS.ravel().tolist())
    assert len(points) == 8202 and len(seams) == 22
    got = [tuple(points[i:i + 3]) for i in range(len(points) - 2) if i not in seams]
    assert got == want
    # each seam pair follows its level's last real triple
    assert (_SEAMS == _LAST_REAL + np.array([[1], [2]])).all()
    assert [tuple(points[i:i + 3]) for i in _LAST_REAL.tolist()] == [
        (4096 - 2 * s, 4096 - s, 4096) for s in (2**k for k in range(11))]
    for constant in (_LEVEL_POINTS, _SEAMS, _LAST_REAL):
        assert not constant.flags.writeable


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
def test_certificate_equals_reference(source, a, b, q):
    g = _derivative_power(source, q)
    assert certify_convex(g, Interval(a, b)) == _reference_certify_convex(g, Interval(a, b))


# every 64th grid point (the ends, the midpoint and the quarter points among
# them) and a few odd ones
@pytest.mark.parametrize("k", [*range(0, 4097, 64), 1, 7, 1365, 4095])
def test_kink_on_a_grid_point_keeps_the_verdict(k):
    # g has a kink exactly at grid point k, where sgn gives f' its one-sided
    # value, so g is evaluated there as anywhere.  g = 3^1.5 |x - kink|^3 is
    # convex, so every certificate is valid.
    interval = Interval(-0.8, 1.3)
    kink = float(_reference_grid(interval.a, interval.b)[k])
    g = _derivative_power(f"abs(x-{kink!r})^3", 1.5)
    assert np.isfinite(g(np.array([kink]))).all()
    calls = []

    def counted(x):
        calls.append(len(x))
        return g(x)

    cert = certify_convex(counted, interval)
    assert cert.valid and cert.evaluations == 4097
    assert calls == [4097]
    assert cert == _reference_certify_convex(g, interval)


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


def test_certificate_equals_reference_on_seeded_intervals():
    rng = np.random.default_rng(4096)
    for _ in range(4):
        a = float(rng.uniform(-3, 2))
        interval = Interval(a, a + float(rng.uniform(1e-3, 4)))
        kink = float(_reference_grid(interval.a, interval.b)[int(rng.integers(4097))])
        kinked = _derivative_power(f"abs(x-{kink!r})^3", 1.5)
        assert np.isfinite(kinked(np.array([kink]))).all()
        for g in (lambda x: np.abs(x - a) ** 1.7, lambda x: -(x - a) ** 2, kinked):
            cert = certify_convex(g, interval)
            assert cert == _reference_certify_convex(g, interval)
        assert cert.valid
        concave = certify_convex(lambda x: -(x - a) ** 2, interval)
        assert concave.witness is not None


@pytest.mark.parametrize("q", [1.0, 2.7])
def test_instance_certificate_equals_reference(q):
    # at q = 1 the certificate reads the remembered |f'| itself
    rng = np.random.default_rng(23)
    for family in ("poly", "power", "log", "concave-test"):
        for _ in range(3):
            draw = draw_function(rng, family, q)
            ast = parse(draw.source)
            inst = Instance(ast, differentiate(ast), draw.interval)
            want = _reference_certify_convex(_derivative_power(draw.source, q), draw.interval)
            assert inst.certificate(q) == want, (draw.source, q)
    # a kink on grid point 9, evaluated there
    interval = Interval(-0.8, 1.3)
    kink = float(_reference_grid(interval.a, interval.b)[9])
    source = f"abs(x-{kink!r})^3+x"
    ast = parse(source)
    inst = Instance(ast, differentiate(ast), interval)
    assert np.isfinite(_derivative_power(source, q)(np.array([kink]))).all()
    assert inst.certificate(q) == _reference_certify_convex(_derivative_power(source, q), interval)


def test_tree_verdict_equals_every_offset_verdict():
    # the tree checks 8,178 of the ~41k dyadic triples; on seeded draws of
    # every campaign family it decides as all of them do
    rng = np.random.default_rng(31)
    verdicts = []
    for family in ("poly", "power", "log", "concave-test"):
        for _ in range(40):
            q = 1.0 if rng.random() < 0.5 else float(rng.uniform(1.05, 3.0))
            draw = draw_function(rng, family, q)
            g = _derivative_power(draw.source, q)
            cert = certify_convex(g, draw.interval)
            assert cert.valid == _every_offset_valid(g, draw.interval), (draw.source, q)
            verdicts.append(cert.valid)
    assert 0 < sum(verdicts) < len(verdicts)


def test_concave_derivatives_stay_rejected():
    # a scaled-down concave |f'| and every concave-test draw, at q = 1 and q > 1
    assert not certify_convex(_derivative_power("1e-10*exp(0-x^2)", 1.0), Interval(0.2, 0.8)).valid
    rng = np.random.default_rng(37)
    for _ in range(25):
        q = float(rng.uniform(1.05, 3.0))
        draw = draw_function(rng, "concave-test", q)
        for power in (1.0, q):
            assert not certify_convex(_derivative_power(draw.source, power), draw.interval).valid


def test_certificate_equals_reference_on_seeded_widths():
    # 2,000 seeded g's of every campaign family, at q = 1 and q > 1, on
    # intervals of relative width 1e-12 to 10: the certificate is the
    # reference's, bit for bit, whether it passes or fails
    rng = np.random.default_rng(8202)
    verdicts = []
    for trial in range(2000):
        family = ("poly", "power", "log", "concave-test")[trial % 4]
        q = 1.0 if rng.random() < 0.5 else float(rng.uniform(1.05, 3.0))
        draw = draw_function(rng, family, q)
        a = float(draw.interval.a)
        interval = Interval(a, a + max(abs(a), 0.1) * 10 ** float(rng.uniform(-12, 1)))
        g = _derivative_power(draw.source, q)
        cert = certify_convex(g, interval)
        assert cert == _reference_certify_convex(g, interval), (draw.source, interval, q)
        verdicts.append(cert.valid)
    assert 200 < sum(verdicts) < len(verdicts) - 200


def _values(values):
    """A g that returns ``values`` (one per grid point) wherever it is called."""
    return lambda x: values


@pytest.mark.parametrize("k", [0, 4096])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_g_at_a_seam_point_is_named(k, bad):
    # every level ends at grid point 4096 and the next one starts at 0, so
    # the seam triples between levels touch both; the real triples name it
    values = np.linspace(-1.0, 1.0, 4097) ** 2
    values[k] = bad
    g, interval = _values(values), Interval(0.5, 2.0)
    for certify in (certify_convex, _reference_certify_convex):
        with pytest.raises(ValueError, match="^g produced non-finite values during certification$"):
            certify(g, interval)


@pytest.mark.parametrize("k, first", [
    (2, (1, 3)),            # levels 0 and 1
    (4094, (4093, 4095)),   # levels 0 and 1, the last triple of level 1
    (3072, (3071, 3073)),   # levels 0 to 10, the last triple of level 10
])
def test_equal_maxima_on_several_levels_witness_the_first(k, first):
    # a unit bump at grid point k is the middle of one triple on every level
    # that holds k, each with residual 1; the witness is level 0's, even
    # where a level's last triple, copied into the seams after it, holds it
    values = np.zeros(4097)
    values[k] = 1.0
    g, interval = _values(values), Interval(-0.8, 1.3)
    x = _reference_grid(interval.a, interval.b)
    cert = certify_convex(g, interval)
    assert cert == _reference_certify_convex(g, interval)
    assert cert.max_violation == 1.0 and not cert.valid
    assert cert.witness == (float(x[first[0]]), float(x[first[1]]))


def test_overflowing_sum_of_outer_points_is_named():
    # g is finite everywhere, but g(a) + g(b) overflows in the top triple
    interval = Interval(-1.0, 3.0)
    values = 1.7e308 * np.linspace(-1.0, 1.0, 4097) ** 2
    assert np.isfinite(values).all() and values[0] == values[-1] == 1.7e308
    for certify in (certify_convex, _reference_certify_convex):
        with pytest.raises(ValueError, match="^g produced non-finite values during certification$"):
            certify(_values(values), interval)
