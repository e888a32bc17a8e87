import math
from fractions import Fraction

import numpy as np
import pytest

import display_fixtures as fx
from quadbound.bounds import (
    _P_GRID_POINTS,
    DerivEndpoints,
    HolderParams,
    KernelMoments,
    _golden_min,
    _pq_curve,
    _require_bound_admissible,
    bound,
    bound_pq,
    bound_q1,
    formula_id,
    kernel_moments_closed,
    optimize_p,
    optimize_rule,
    q1_coefficients,
)
from quadbound.oracle import Interval, kernel_moment_numeric
from quadbound.rules import LMRule, NAMED_RULES, RuleParams, named_rule, rule_from_lm


IV = Interval(0.4, 2.1)
W = IV.b - IV.a
D = DerivEndpoints(0.7, 1.9)


def test_holder_params_validation():
    with pytest.raises(ValueError):
        HolderParams(1.0, 1.0)
    with pytest.raises(ValueError):
        HolderParams(0.0, 2.0)
    with pytest.raises(ValueError):
        HolderParams(3.0, 2.0)
    HolderParams(2.0, 2.0)


def test_deriv_endpoints_validation():
    with pytest.raises(ValueError):
        DerivEndpoints(-1.0, 0.0)


def test_bound_q1_named_constants_exact():
    iv = Interval(Fraction(0), Fraction(1))
    d = DerivEndpoints(Fraction(1, 2), Fraction(1, 2))
    for name, constant in fx.NAMED_Q1_CONSTANTS.items():
        lm = NAMED_RULES[name]
        rule = rule_from_lm(LMRule(Fraction(int(lm.m)), Fraction(int(lm.ell))))
        assert bound_q1(rule, d, iv) == constant


def test_bound_q1_simpson_coefficients():
    # both cubics evaluate to 5/3 at the simpson weights
    ca, cb = q1_coefficients(Fraction(1, 6), Fraction(5, 6))
    assert ca == Fraction(5, 3)
    assert cb == Fraction(5, 3)


def test_bound_q1_rejects_inadmissible():
    with pytest.raises(ValueError, match="not bound-admissible"):
        bound_q1(RuleParams(0.7, 0.9), D, IV)


def test_bound_q1_matches_proof_moment_split():
    rng = np.random.default_rng(5)
    for _ in range(50):
        lam = rng.uniform(0, 0.5)
        mu = rng.uniform(0.5, 1.0)
        da, db = rng.uniform(0, 3, 2)
        left, right = fx.q1_proof_moments(lam, mu, da, db)
        got = bound_q1(RuleParams(lam, mu), DerivEndpoints(da, db), Interval(0, 1))
        assert abs(got - (left + right)) <= 1e-14 * max(1.0, got)
        # and each piece agrees with the brute-force kernel moments
        num_left = (da * kernel_moment_numeric("left", lam, 1.0, "t")
                    + db * kernel_moment_numeric("left", lam, 1.0, "1-t"))
        num_right = (da * kernel_moment_numeric("right", mu, 1.0, "t")
                     + db * kernel_moment_numeric("right", mu, 1.0, "1-t"))
        assert abs(left - num_left) <= 1e-11
        assert abs(right - num_right) <= 1e-11


def test_kernel_moments_closed_examples():
    km = kernel_moments_closed(0.0, "left", HolderParams(1, 2))
    assert abs(km.hoelder_factor - 1 / 8) <= 1e-15
    # at lam = 0 the weight_a bracket reduces to (p+1)(1/2)^(p+1)/2/((p+1)(p+2))
    for p, q in ((1.0, 2.0), (0.7, 1.6), (2.0, 3.5)):
        km = kernel_moments_closed(0.0, "left", HolderParams(p, q))
        expected = 0.5 * (p + 1) * 0.5 ** (p + 1) / ((p + 1) * (p + 2))
        assert abs(km.weight_a - expected) <= 1e-15
    # right side at mu = 1 mirrors left at lam = 0
    for p, q in ((1.0, 2.0), (0.4, 2.2)):
        hp = HolderParams(p, q)
        left = kernel_moments_closed(0.0, "left", hp)
        right = kernel_moments_closed(1.0, "right", hp)
        assert abs(left.hoelder_factor - right.hoelder_factor) <= 1e-15
        assert abs(left.weight_a - right.weight_b) <= 1e-15
        assert abs(left.weight_b - right.weight_a) <= 1e-15


def test_kernel_moments_validation():
    hp = HolderParams(1.0, 2.0)
    with pytest.raises(ValueError):
        kernel_moments_closed(0.7, "left", hp)
    with pytest.raises(ValueError):
        kernel_moments_closed(0.2, "right", hp)
    with pytest.raises(ValueError):
        kernel_moments_closed(0.2, "middle", hp)


def test_kernel_moments_overflow_reported():
    # q barely above 1 drives the exponent to ~1e15 and underflows the
    # Hoelder factor; that must surface as an error, not a zero bound
    q = float(np.nextafter(1.0, 2.0))
    with pytest.raises(OverflowError):
        kernel_moments_closed(0.2, "left", HolderParams(0.5, q))
    with pytest.raises(OverflowError):
        bound_pq(RuleParams(0.2, 0.8), HolderParams(0.5, q), D, IV)


def test_moment_agreement_with_oracle():
    rng = np.random.default_rng(17)
    for _ in range(100):
        q = rng.uniform(1.05, 4.0)
        p = q * rng.uniform(0.02, 1.0)
        hp = HolderParams(p, q)
        lam = rng.uniform(0, 0.5)
        mu = rng.uniform(0.5, 1.0)
        for side, shift in (("left", lam), ("right", mu)):
            km = kernel_moments_closed(shift, side, hp)
            assert abs(km.hoelder_factor
                       - kernel_moment_numeric(side, shift, (q - p) / (q - 1))) <= 1e-10
            assert abs(km.weight_a
                       - kernel_moment_numeric(side, shift, p, "t")) <= 1e-10
            assert abs(km.weight_b
                       - kernel_moment_numeric(side, shift, p, "1-t")) <= 1e-10


def _grid_lam_mu():
    return [(lam, mu) for lam in (0.0, 0.1, 0.3, 0.5) for mu in (0.5, 0.7, 0.9, 1.0)]


def test_bound_pq_reduces_to_p1_and_pq_displays():
    for lam, mu in _grid_lam_mu():
        rule = RuleParams(lam, mu)
        for q in (1.5, 2.0, 3.0):
            got = bound_pq(rule, HolderParams(1.0, q), D, IV)
            want = fx.rule_p1(lam, mu, q, D.da, D.db, W)
            assert fx.relerr(got, want) <= 1e-12
            got = bound_pq(rule, HolderParams(q, q), D, IV)
            want = fx.rule_pq(lam, mu, q, D.da, D.db, W)
            assert fx.relerr(got, want) <= 1e-12


def test_bound_collapses_to_q1_at_one():
    for lam, mu in _grid_lam_mu():
        rule = RuleParams(lam, mu)
        # at q = 1, p = 1 and p = q are the same request
        assert bound(rule, D, IV, 1.0, 1.0) == (bound_q1(rule, D, IV), None)
        # the displays at q = 1 agree with the q = 1 bound too
        assert fx.relerr(fx.rule_p1(lam, mu, 1.0, D.da, D.db, W),
                         bound_q1(rule, D, IV)) <= 1e-12
        assert fx.relerr(fx.rule_pq(lam, mu, 1.0, D.da, D.db, W),
                         bound_q1(rule, D, IV)) <= 1e-12


def test_bound_rejects_q_below_one():
    with pytest.raises(ValueError):
        bound(RuleParams(0.5, 0.5), D, IV, 0.9, 1.0)


_HUGE_END = DerivEndpoints(0.0, 1e200)  # finite, and so is its first power; its square is not
_INFINITE_END = DerivEndpoints(709.0, math.inf)
_NOT_FINITE = "|f'| is not finite at the ends of [0.0, 1.0]: |f'(a)|, |f'(b)| = 709.0, inf"


@pytest.mark.parametrize("d, q, error", [
    (_HUGE_END, 1.0, None),
    (_HUGE_END, 0.5, "q must be finite and >= 1, got 0.5"),
    (_HUGE_END, math.inf, "q must be finite and >= 1, got inf"),
    (_HUGE_END, 2.0, "|f'|^q overflows at the ends of [0.0, 1.0] at q = 2.0: "
                     "|f'(a)|, |f'(b)| = 0.0, 1e+200"),
    (_INFINITE_END, 1.0, _NOT_FINITE),
    (_INFINITE_END, math.inf, _NOT_FINITE),
    (_INFINITE_END, math.nan, _NOT_FINITE),
], ids=["q1", "q-below-1", "q-inf", "q-overflows", "inf", "inf-q-inf", "inf-q-nan"])
def test_bound_checks_the_ends_then_q_then_the_power(d, q, error):
    # the power is tried only at a q the bound takes, and above 1
    rule = RuleParams(0.2, 0.8)
    if error is None:
        assert bound(rule, d, Interval(0.0, 1.0), q) == (bound_q1(rule, d, Interval(0.0, 1.0)),
                                                         None)
    else:
        with pytest.raises(ValueError) as exc:
            bound(rule, d, Interval(0.0, 1.0), q, 1.0)
        assert str(exc.value) == error


def test_bound_pq_reduces_to_lm_display():
    for m, ell in [(1, 0), (2, 1), (3, 1), (4, 1), (5, 1), (5, 2), (6, 1), (7, 3)]:
        rule = rule_from_lm(LMRule(m, ell))
        for p, q in ((0.7, 2.0), (1.5, 1.5), (2.0, 3.0)):
            got = bound_pq(rule, HolderParams(p, q), D, IV)
            want = fx.lm_general(m, ell, p, q, D.da, D.db, W)
            assert fx.relerr(got, want) <= 1e-12, (m, ell, p, q)


def test_bound_pq_homogeneity():
    rng = np.random.default_rng(23)
    for _ in range(50):
        rule = RuleParams(rng.uniform(0, 0.5), rng.uniform(0.5, 1))
        q = rng.uniform(1.1, 4)
        hp = HolderParams(q * rng.uniform(0.05, 1), q)
        da, db = rng.uniform(0.1, 3, 2)
        c = rng.uniform(0.1, 5)
        base = bound_pq(rule, hp, DerivEndpoints(da, db), Interval(0, 1))
        scaled = bound_pq(rule, hp, DerivEndpoints(c * da, c * db), Interval(0, 1))
        assert fx.relerr(scaled, c * base) <= 1e-12
        wide = bound_pq(rule, hp, DerivEndpoints(da, db), Interval(0, c))
        assert fx.relerr(wide, c * base) <= 1e-12
        # and the q = 1 bound likewise
        base1 = bound_q1(rule, DerivEndpoints(da, db), Interval(0, 1))
        assert fx.relerr(bound_q1(rule, DerivEndpoints(c * da, c * db),
                                  Interval(0, c)), c * c * base1) <= 1e-12


def test_named_dispatch_equals_displays():
    for name in NAMED_RULES:
        rule = rule_from_lm(named_rule(name))
        for q in (1.3, 2.0, 3.5):
            for frac in (0.4, 1.0):
                p = frac * q
                got, _ = bound(rule, D, IV, q, p)
                want = fx.NAMED_GENERAL[name](p, q, D.da, D.db, W)
                assert fx.relerr(got, want) <= 1e-12, (name, p, q)
        for q in (1.0, 1.5, 2.5, 4.0):
            got, _ = bound(rule, D, IV, q, 1.0)
            want = fx.NAMED_P1[name](q, D.da, D.db, W)
            assert fx.relerr(got, want) <= 1e-12, (name, q)
            got, _ = bound(rule, D, IV, q, q)
            if name in fx.NAMED_PQ:
                want = fx.NAMED_PQ[name](q, D.da, D.db, W)
            else:
                want = fx.avgmid_pq_corrected(q, D.da, D.db, W)
            assert fx.relerr(got, want) <= 1e-12, (name, q)
        got, _ = bound(rule, D, IV)
        want = float(fx.NAMED_Q1_CONSTANTS[name]) * W * (D.da + D.db)
        assert fx.relerr(got, want) <= 1e-14


def test_bound_dispatch_validation():
    rule = RuleParams(0.2, 0.7)
    # q > 1 without p minimizes over p; q = 1 ignores p
    p_star, v_star = optimize_p(rule, 2.0, D, IV)
    assert bound(rule, D, IV, 2.0) == (v_star, p_star)
    assert bound(rule, D, IV, 1.0, 0.3) == (bound_q1(rule, D, IV), None)
    with pytest.raises(ValueError, match="p must satisfy"):
        bound(rule, D, IV, 2.0, 3.0)
    with pytest.raises(ValueError, match="requires p"):
        optimize_rule(2.0, None, D, IV)


def test_formula_ids():
    assert formula_id(1.0, None) == "thm3.1"
    assert formula_id(2.0, 0.7) == "thm3.2"
    assert formula_id(2.0, 1.0) == "cor3.1-p1"
    assert formula_id(2.0, 2.0) == "cor3.1-pq"
    assert formula_id(2.0, 0.7, LMRule(7, 2)) == "cor3.2"
    assert formula_id(2.0, 1.0, LMRule(7, 2)) == "cor3.3-p1"
    assert formula_id(1.0, None, "simpson") == "cor3.7-simpson"
    assert formula_id(2.0, 1.0, "simpson") == "cor3.6-simpson"
    assert formula_id(2.0, 2.0, "avg3") == "cor3.5-avg3"
    assert formula_id(2.0, 0.5, "avg3") == "cor3.4-avg3"


def test_optimize_p_contracts():
    rule = RuleParams(0.5, 0.5)
    q = 2.0
    p_star, v_star = optimize_p(rule, q, D, IV)
    assert 0 < p_star <= q
    assert v_star <= bound_pq(rule, HolderParams(1.0, q), D, IV) + 1e-9
    assert v_star <= bound_pq(rule, HolderParams(q, q), D, IV) + 1e-9
    # degenerate derivatives: everything is zero
    _, v_zero = optimize_p(rule, q, DerivEndpoints(0.0, 0.0), IV)
    assert v_zero == 0.0
    with pytest.raises(ValueError):
        optimize_p(rule, 1.0, D, IV)


def test_optimize_p_against_dense_grid():
    rng = np.random.default_rng(29)
    for _ in range(5):
        rule = RuleParams(rng.uniform(0, 0.5), rng.uniform(0.5, 1))
        q = rng.uniform(1.2, 4)
        d = DerivEndpoints(rng.uniform(0.1, 3), rng.uniform(0.1, 3))
        p_star, v_star = optimize_p(rule, q, d, IV)
        ps = np.linspace(q * 1e-4, q, 10_000)
        dense = min(bound_pq(rule, HolderParams(p, q), d, IV) for p in ps)
        assert fx.relerr(v_star, dense) <= 1e-6


def test_optimize_rule_symmetric_q1():
    # symmetric derivatives at q = 1: the optimum is (1/4, 3/4)
    d = DerivEndpoints(1.0, 1.0)
    rule, value = optimize_rule(1.0, None, d, Interval(0, 1))
    assert abs(rule.lam - 0.25) <= 1e-5
    assert abs(rule.mu - 0.75) <= 1e-5
    assert abs(value - 1 / 8) <= 1e-9


def test_optimize_rule_zero_derivatives():
    _, value = optimize_rule(1.0, None, DerivEndpoints(0.0, 0.0), Interval(0, 1))
    assert value == 0.0


def test_optimize_rule_swap_symmetry():
    # swapping (da, db) mirrors the optimizer through (lam, mu) -> (1-mu, 1-lam)
    d = DerivEndpoints(0.5, 2.0)
    r1, v1 = optimize_rule(1.0, None, d, Interval(0, 1))
    r2, v2 = optimize_rule(1.0, None, DerivEndpoints(d.db, d.da), Interval(0, 1))
    assert abs(v1 - v2) <= 1e-9
    assert abs(r2.lam - (1 - r1.mu)) <= 1e-4
    assert abs(r2.mu - (1 - r1.lam)) <= 1e-4


def test_simpson_weighted_crosscheck():
    for q in (1.0, 1.5, 2.0, 3.0, 5.0):
        got, _ = bound(rule_from_lm(named_rule("simpson")), D, IV, q, 1.0)
        want = fx.simpson_weighted_q(q, D.da, D.db, W)
        assert fx.relerr(got, want) <= 1e-12


def test_optimize_p_scores_an_underflowing_p_as_inf():
    # at q = 1.001 the Hoelder factor underflows for the smallest grid p's;
    # those points lose, and p = 1 and p = q stay in play
    rule, d, iv = RuleParams(1 / 6, 5 / 6), DerivEndpoints(2.0, 4.0), Interval(1.0, 2.0)
    q = 1.001
    with pytest.raises(OverflowError, match="underflow"):
        bound_pq(rule, HolderParams(q * 1e-6, q), d, iv)
    p_star, v_star = optimize_p(rule, q, d, iv)
    assert abs(p_star - 1) <= 1e-6
    assert v_star <= bound_pq(rule, HolderParams(1.0, q), d, iv)
    assert v_star <= bound_pq(rule, HolderParams(q, q), d, iv)


def test_holder_bound_is_convex_in_p():
    # Each half's term is H(p)^(1-1/q) W(p)^(1/q), where H and W integrate
    # |shift - t|^r against a nonnegative weight with r affine in p; by
    # Hoelder's inequality r -> log of such an integral is convex, so each
    # term is log-convex, hence convex, and so is their sum.  Second
    # differences on a uniform grid are >= 0 up to rounding.
    for rule, hp, d, iv in _reference_draws(2000, seed=43):
        curve = _pq_curve(rule, hp.q, d, iv)
        values = np.array([curve(p) for p in np.linspace(hp.q * 1e-6, hp.q, 257).tolist()])
        second = values[:-2] - 2 * values[1:-1] + values[2:]
        assert second.min() >= -8 * np.finfo(float).eps * values.max(), (rule, hp.q, d)


# -- reference: the Hoelder bound before it was one curve per instance --------
# Verbatim copies of kernel_moments_closed, bound_pq and optimize_p as they
# were when bound_pq rebuilt its moments for every p.  The curve must
# reproduce them bit for bit, except that it raises an overflow of |f'|^q
# before any p (test_power_overflow_is_raised_before_any_p).
# _require_bound_admissible, _golden_min and
# _P_GRID_POINTS did not change, so the copies use the module's.

def _reference_kernel_moments_closed(shift: float, side: str, hp: HolderParams) -> KernelMoments:
    p, q = hp.p, hp.q
    expo = (2 * q - p - 1) / (q - 1)
    if not math.isfinite(expo):
        raise OverflowError(f"Hoelder exponent overflow for q={q}, p={p}")
    denom = (p + 1) * (p + 2)
    if side == "left":
        lam = shift
        if not 0 <= lam <= 0.5:
            raise ValueError(f"left shift must lie in [0, 1/2], got {lam}")
        h = (q - 1) / (2 * q - p - 1) * ((0.5 - lam) ** expo + lam**expo)
        wa = (0.5 * (p + 1 + 2 * lam) * (0.5 - lam) ** (p + 1) + lam ** (p + 2)) / denom
        wb = (0.5 * (p + 3 - 2 * lam) * (0.5 - lam) ** (p + 1)
              + (p + 2 - lam) * lam ** (p + 1)) / denom
    elif side == "right":
        mu = shift
        if not 0.5 <= mu <= 1:
            raise ValueError(f"right shift must lie in [1/2, 1], got {mu}")
        h = (q - 1) / (2 * q - p - 1) * ((mu - 0.5) ** expo + (1 - mu) ** expo)
        wa = (0.5 * (p + 1 + 2 * mu) * (mu - 0.5) ** (p + 1)
              + (p + 1 + mu) * (1 - mu) ** (p + 1)) / denom
        wb = (0.5 * (p + 3 - 2 * mu) * (mu - 0.5) ** (p + 1) + (1 - mu) ** (p + 2)) / denom
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if h == 0:
        # The factor is strictly positive mathematically; an exact zero means
        # base**expo underflowed (q extremely close to 1), and powering it by
        # 1 - 1/q downstream would silently collapse the bound.
        raise OverflowError(
            f"Hoelder factor underflow for q={q}, p={p} (q too close to 1)"
        )
    return KernelMoments(h, wa, wb)


def _reference_bound_pq(rule: RuleParams, hp: HolderParams, d: DerivEndpoints,
                        interval: Interval) -> float:
    _require_bound_admissible(rule)
    q = hp.q
    left = _reference_kernel_moments_closed(rule.lam, "left", hp)
    right = _reference_kernel_moments_closed(rule.mu, "right", hp)
    daq = d.da**q
    dbq = d.db**q
    total = 0.0
    for mom in (left, right):
        total += (mom.hoelder_factor ** (1 - 1 / q)
                  * (mom.weight_a * daq + mom.weight_b * dbq) ** (1 / q))
    return (interval.b - interval.a) * total


def _reference_optimize_p(rule: RuleParams, q: float, d: DerivEndpoints,
                          interval: Interval) -> tuple[float, float]:
    if not q > 1:
        raise ValueError(f"optimize_p requires q > 1, got {q}")

    def f(p):
        return _reference_bound_pq(rule, HolderParams(p, q), d, interval)

    n = _P_GRID_POINTS
    grid = sorted({q * 10 ** (-6 * (1 - i / (n - 1))) for i in range(n)} | {1.0, q})
    values = [f(p) for p in grid]
    i = min(range(len(grid)), key=values.__getitem__)
    lo = grid[i - 1] if i > 0 else grid[i]
    hi = grid[i + 1] if i + 1 < len(grid) else grid[i]
    p_star, v_star = _golden_min(f, lo, hi, tol=1e-9 * q)
    if values[i] < v_star:
        p_star, v_star = grid[i], values[i]
    return p_star, v_star


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def _raised(fn, *args):
    """The type and message of what fn raises."""
    with pytest.raises((ValueError, OverflowError)) as info:
        fn(*args)
    return info.type, str(info.value)


def _reference_draws(n, seed):
    """n seeded (rule, hp, d, interval) as Python floats.  Each of lam, mu,
    p and (|f'(a)|, |f'(b)|) independently takes an edge value a quarter of
    the time: lam in {0, 1/2}, mu in {1/2, 1}, p in {1, q}, a zero
    derivative at a or at b."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        q = float(rng.uniform(1.05, 4.0))
        p = q * float(rng.uniform(1e-6, 1.0))
        lam, mu = float(rng.uniform(0, 0.5)), float(rng.uniform(0.5, 1.0))
        da, db = float(rng.uniform(0, 3)), float(rng.uniform(0, 3))
        a = float(rng.uniform(-2, 1))
        b = a + float(rng.uniform(0.3, 2))
        edge = rng.random(4) < 0.25
        if edge[0]:
            lam = float(rng.choice([0.0, 0.5]))
        if edge[1]:
            mu = float(rng.choice([0.5, 1.0]))
        if edge[2]:
            p = float(rng.choice([1.0, q]))
        if edge[3]:
            da, db = (0.0, db) if rng.random() < 0.5 else (da, 0.0)
        yield RuleParams(lam, mu), HolderParams(p, q), DerivEndpoints(da, db), Interval(a, b)


def test_bound_pq_curve_equals_reference():
    edges = dict.fromkeys(("lam", "mu", "p", "d"), 0)
    for rule, hp, d, iv in _reference_draws(2000, seed=41):
        for side, shift in (("left", rule.lam), ("right", rule.mu)):
            assert (kernel_moments_closed(shift, side, hp)
                    == _reference_kernel_moments_closed(shift, side, hp)), (side, shift, hp)
        assert bound_pq(rule, hp, d, iv) == _reference_bound_pq(rule, hp, d, iv), (rule, hp, d, iv)
        assert (optimize_p(rule, hp.q, d, iv)
                == _reference_optimize_p(rule, hp.q, d, iv)), (rule, hp.q, d, iv)
        edges["lam"] += rule.lam in (0.0, 0.5)
        edges["mu"] += rule.mu in (0.5, 1.0)
        edges["p"] += hp.p in (1.0, hp.q)
        edges["d"] += 0.0 in (d.da, d.db)
    assert min(edges.values()) >= 400, edges


_Q_NEAR_1 = float(np.nextafter(1.0, 2.0))


@pytest.mark.parametrize("rule, hp, d", [
    # the factor underflows
    (RuleParams(0.2, 0.8), HolderParams(0.5, _Q_NEAR_1), D),
    (RuleParams(0.5, 0.8), HolderParams(1e-6, 1.001), D),
    # |f'|^q overflows
    (RuleParams(0.2, 0.8), HolderParams(1.0, 2.0), DerivEndpoints(1.0, 1e300)),
    # an inadmissible rule
    (RuleParams(0.7, 0.9), HolderParams(1.0, 2.0), D),
])
def test_bound_pq_errors_equal_reference(rule, hp, d):
    assert _raised(bound_pq, rule, hp, d, IV) == _raised(_reference_bound_pq, rule, hp, d, IV)
    for side, shift in (("left", rule.lam), ("right", rule.mu), ("middle", 0.5)):
        assert (_outcome(kernel_moments_closed, shift, side, hp)
                == _outcome(_reference_kernel_moments_closed, shift, side, hp))


@pytest.mark.parametrize("rule, q, d", [
    # every grid point raises: the first grid point's error is raised
    (RuleParams(0.2, 0.8), 1.5, DerivEndpoints(1e300, 1.0)),
    (RuleParams(0.7, 0.9), 2.0, D),
    (RuleParams(0.2, 0.8), 1.0, D),
])
def test_optimize_p_errors_equal_reference(rule, q, d):
    assert (_raised(optimize_p, rule, q, d, IV)
            == _raised(_reference_optimize_p, rule, q, d, IV))


@pytest.mark.parametrize("fn, rule, exponents, d", [
    # the factor underflows at p, or the exponent overflows
    (bound_pq, RuleParams(0.2, 0.8), HolderParams(1.001e-6, 1.001), DerivEndpoints(1e308, 1.0)),
    (bound_pq, RuleParams(0.2, 0.8), HolderParams(1.0, 1e308), DerivEndpoints(2.0, 1.0)),
    (optimize_p, RuleParams(0.2, 0.8), 1.001, DerivEndpoints(1e308, 1.0)),
])
def test_power_overflow_is_raised_before_any_p(fn, rule, exponents, d):
    # |f'(a)|^q overflows too.  The curve computes it before any p, as bound
    # checks it first, so it is raised where the reference raised the
    # factor's or the exponent's error at p.
    assert _raised(fn, rule, exponents, d, IV) == (
        OverflowError, "(34, 'Numerical result out of range')")
    if fn is bound_pq:  # the kernel moments, which do not take d, are unchanged
        for side, shift in (("left", rule.lam), ("right", rule.mu)):
            assert (_outcome(kernel_moments_closed, shift, side, exponents)
                    == _outcome(_reference_kernel_moments_closed, shift, side, exponents))
