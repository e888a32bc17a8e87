"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import time
from fractions import Fraction

import numpy as np

import display_fixtures as fx
from folded_fixtures import (
    folded_params_for_rule,
    identity_rhs_folded,
    lhs_value_folded,
)
from quadbound.bounds import (
    DerivEndpoints,
    HolderParams,
    bound,
    bound_pq,
    bound_q1,
    kernel_moments_closed,
    optimize_p,
    optimize_rule,
    q1_coefficients,
)
from quadbound.campaign import draw_function, run_verify
from quadbound.convexity import admissible_power
from quadbound.expr import as_function
from quadbound.means import MEANS_THEOREMS, compute_mean, means_bound, means_gap
from quadbound.oracle import Interval, average_value, kernel_moment_numeric
from quadbound.rules import (
    LMRule,
    NAMED_RULES,
    RuleParams,
    identity_rhs_half,
    lhs_value,
    named_rule,
    rule_from_lm,
)


def test_criterion_1_identity_suite():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(500):
        draw = draw_function(rng, "mixed", q=1.0)
        lam = float(rng.uniform(-0.5, 1.0))
        mu = float(rng.uniform(0.0, 1.5))
        rule = RuleParams(lam, mu)
        mean = average_value(as_function(draw.ast), draw.interval)

        lhs = lhs_value(rule, draw.ast, draw.interval, mean)
        rhs = identity_rhs_half(rule, draw.deriv, draw.interval)
        dev = abs(lhs - rhs) / max(1.0, abs(lhs))
        worst = max(worst, dev)
        assert dev <= 1e-9, (draw.source, lam, mu)

        lam_f, mu_f = folded_params_for_rule(rule)
        lhs2 = lhs_value_folded(lam_f, mu_f, draw.ast, draw.interval, mean)
        rhs2 = identity_rhs_folded(lam_f, mu_f, draw.deriv, draw.interval)
        dev2 = abs(lhs2 - rhs2) / max(1.0, abs(lhs2))
        worst = max(worst, dev2)
        assert dev2 <= 1e-9, (draw.source, lam_f, mu_f)

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"identity suite took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 PASS: 500 instances x 2 identities, worst relative "
          f"deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_named_constants_rational():
    iv = Interval(Fraction(0), Fraction(1))          # b - a = 1
    d = DerivEndpoints(Fraction(1, 2), Fraction(1, 2))  # da + db = 1
    for name, constant in fx.NAMED_Q1_CONSTANTS.items():
        lm = NAMED_RULES[name]
        rule = rule_from_lm(LMRule(Fraction(int(lm.m)), Fraction(int(lm.ell))))
        got = bound_q1(rule, d, iv)
        assert isinstance(got, Fraction)
        assert abs(got - constant) <= Fraction(1, 10**14)
        assert got == constant  # exact in rational arithmetic
    print("ACCEPTANCE 2 PASS: seven named q=1 constants exact in rational "
          "arithmetic (1/8, 1/8, 5/72, 1/16, 13/200, 17/200, 5/72)")


def test_criterion_3_specialization_grid():
    d = DerivEndpoints(0.7, 1.9)
    iv = Interval(0.4, 2.1)
    w = iv.b - iv.a
    points = 0
    worst = 0.0

    def check(got, want, ctx):
        nonlocal points, worst
        err = fx.relerr(got, want)
        worst = max(worst, err)
        assert err <= 1e-12, (ctx, got, want)
        points += 1

    # p = 1 and p = q displays over a (lam, mu, q) grid
    for lam in (0.0, 0.15, 0.35, 0.5):
        for mu in (0.5, 0.65, 0.85, 1.0):
            rule = RuleParams(lam, mu)
            for q in (1.0, 1.4, 2.2, 3.6):
                check(bound(rule, d, iv, q, 1.0)[0],
                      fx.rule_p1(lam, mu, q, d.da, d.db, w), ("p1", lam, mu, q))
                check(bound(rule, d, iv, q, q)[0],
                      fx.rule_pq(lam, mu, q, d.da, d.db, w), ("pq", lam, mu, q))

    # (m, ell) displays: general p, p = 1, p = q
    lm_pairs = [(1, 0), (2, 1), (3, 1), (4, 1), (5, 1), (5, 2), (6, 1),
                (7, 3), (9, 2), (8, 4)]
    for m, ell in lm_pairs:
        rule = rule_from_lm(LMRule(m, ell))
        for q in (1.3, 2.0, 3.1):
            for frac in (0.25, 0.6, 1.0):
                p = frac * q
                check(bound_pq(rule, HolderParams(p, q), d, iv),
                      fx.lm_general(m, ell, p, q, d.da, d.db, w),
                      ("lm", m, ell, p, q))
        for q in (1.0, 1.4, 2.2, 3.6):
            check(bound(rule, d, iv, q, 1.0)[0],
                  fx.lm_p1(m, ell, q, d.da, d.db, w), ("lm-p1", m, ell, q))
            check(bound(rule, d, iv, q, q)[0],
                  fx.lm_pq(m, ell, q, d.da, d.db, w), ("lm-pq", m, ell, q))

    # the seven named rules: general p, p = q, p = 1 displays
    for name in NAMED_RULES:
        rule = rule_from_lm(named_rule(name))
        for q in (1.3, 2.0, 3.1):
            for frac in (0.4, 1.0):
                p = frac * q
                check(bound(rule, d, iv, q, p)[0],
                      fx.NAMED_GENERAL[name](p, q, d.da, d.db, w),
                      ("named", name, p, q))
        for q in (1.0, 1.4, 2.2, 3.6):
            check(bound(rule, d, iv, q, 1.0)[0],
                  fx.NAMED_P1[name](q, d.da, d.db, w), ("named-p1", name, q))
            # avg-mid's p = q display is one of the two flagged misprints; it
            # asserts against the corrected transcription of the general value
            want = (fx.NAMED_PQ[name](q, d.da, d.db, w) if name in fx.NAMED_PQ
                    else fx.avgmid_pq_corrected(q, d.da, d.db, w))
            check(bound(rule, d, iv, q, q)[0], want,
                  ("named-pq", name, q))

    assert points >= 200
    print(f"ACCEPTANCE 3 PASS: {points} specialization grid points, worst "
          f"relative deviation {worst:.2e} (tolerance 1e-12)")


def test_criterion_4_moment_oracle_500():
    rng = np.random.default_rng(0)
    worst = 0.0
    for k in range(500):
        q = float(rng.uniform(1.05, 4.0))
        p = q * float(rng.uniform(0.02, 1.0))
        hp = HolderParams(p, q)
        if k % 2 == 0:
            side, shift = "left", float(rng.uniform(0, 0.5))
        else:
            side, shift = "right", float(rng.uniform(0.5, 1.0))
        km = kernel_moments_closed(shift, side, hp)
        for closed, exponent, weight in (
            (km.hoelder_factor, (q - p) / (q - 1), "1"),
            (km.weight_a, p, "t"),
            (km.weight_b, p, "1-t"),
        ):
            dev = abs(closed - kernel_moment_numeric(side, shift, exponent, weight))
            worst = max(worst, dev)
            assert dev <= 1e-10, (side, shift, p, q, weight)
    print(f"ACCEPTANCE 4 PASS: 500 moment draws, worst |closed - numeric| "
          f"= {worst:.2e} (tolerance 1e-10)")


def test_criterion_5_soundness_campaign_5000():
    start = time.monotonic()
    summary = run_verify(trials=5000, seed=0)
    elapsed = time.monotonic() - start
    assert summary["violations"] == [], summary["violations"][:3]
    assert summary["paths_checked"] > 10_000
    assert summary["min_slack"] >= 0
    assert elapsed < 300.0, f"campaign took {elapsed:.1f}s"
    print(f"ACCEPTANCE 5 PASS: 5000 trials, {summary['paths_checked']} bound "
          f"checks across thm3.1/thm3.2/cor3.1-p1/cor3.1-pq, 0 violations, "
          f"min slack {summary['min_slack']:.2e}, {elapsed:.1f}s")


def _admissible_means_draw(rng, theorem):
    family, form = MEANS_THEOREMS[theorem]
    needs_p = form == "general"
    while True:
        m = float(rng.uniform(0.5, 6))
        ell = float(rng.uniform(0, m / 2))
        a = float(rng.uniform(0.2, 4))
        b = a + float(rng.uniform(0.1, 4))
        q = float(rng.uniform(1.05, 4)) if needs_p else float(rng.uniform(1, 4))
        p = q * float(rng.uniform(0.05, 1.0)) if needs_p else None
        s = None
        if family == "power":
            s = float(rng.uniform(-2, 3))
            if s == 0 or not admissible_power(s, q):
                continue
        return m, ell, a, b, q, p, s


def test_criterion_6_means_suites():
    rng = np.random.default_rng(0)
    # 500 admissible draws per theorem; the sub-variant ids split the count
    plans = [("4.1", 500), ("4.2-p1", 250), ("4.2-pq", 250), ("4.3-p1", 250),
             ("4.3-pq", 250), ("4.4", 500), ("4.5-p1", 250), ("4.5-pq", 250)]
    min_slack = float("inf")
    for theorem, count in plans:
        for _ in range(count):
            m, ell, a, b, q, p, s = _admissible_means_draw(rng, theorem)
            gap = means_gap(theorem, m, ell, a, b, s=s)
            rhs = means_bound(theorem, m, ell, a, b, s=s, p=p, q=q)
            min_slack = min(min_slack, rhs - abs(gap))
            assert abs(gap) <= rhs + 1e-9, (theorem, m, ell, s, a, b, q, p)

    # the worked instance: gap 1/6 against bound 3/4
    gap = means_gap("4.2-p1", 2, 1, 1, 2, s=2)
    rhs = means_bound("4.2-p1", 2, 1, 1, 2, s=2, q=1.0)
    assert abs(gap - 1 / 6) <= 1e-12
    assert abs(rhs - 0.75) <= 1e-12

    # mean ordering chain on 1000 positive pairs
    for _ in range(1000):
        a = float(rng.uniform(0.05, 20))
        b = a + float(rng.uniform(0.01, 20))
        values = [compute_mean(k, a, b) for k in ("H", "G", "L", "I", "A")]
        scale = max(1.0, values[-1])
        for low, high in zip(values, values[1:]):
            assert low <= high + 1e-12 * scale
            assert low < high  # strict for a != b

    print(f"ACCEPTANCE 6 PASS: 2500 means draws across thm4.1–4.5 "
          f"(min slack {min_slack:.2e}), worked instance gap 1/6 <= 3/4, "
          f"H<G<L<I<A on 1000 pairs")


def test_criterion_7_optimizers():
    rng = np.random.default_rng(0)
    # optimize_p versus a 10^4-point dense grid on 50 instances
    worst_p = 0.0
    for _ in range(50):
        rule = RuleParams(float(rng.uniform(0, 0.5)), float(rng.uniform(0.5, 1)))
        q = float(rng.uniform(1.2, 4))
        d = DerivEndpoints(float(rng.uniform(0.05, 3)), float(rng.uniform(0.05, 3)))
        iv = Interval(0.0, float(rng.uniform(0.5, 3)))
        p_star, v_star = optimize_p(rule, q, d, iv)
        assert 0 < p_star <= q
        dense = min(bound_pq(rule, HolderParams(p, q), d, iv)
                    for p in np.linspace(q * 1e-4, q, 10_000))
        err = fx.relerr(v_star, dense)
        worst_p = max(worst_p, err)
        assert err <= 1e-6, (rule, q, d)
        assert v_star <= dense + 1e-9

    # optimize_rule versus brute-force (lam, mu) grids
    worst_r = 0.0
    lams = np.linspace(0, 0.5, 201)
    mus = np.linspace(0.5, 1.0, 201)
    grid_l, grid_m = np.meshgrid(lams, mus, indexing="ij")
    ca, cb = q1_coefficients(grid_l, grid_m)
    for _ in range(6):
        da, db = float(rng.uniform(0, 2)), float(rng.uniform(0, 2))
        width = float(rng.uniform(0.5, 2))
        brute = float(np.min(width * (ca * da + cb * db) / 24))
        _, v_star = optimize_rule(1.0, None, DerivEndpoints(da, db),
                                  Interval(0.0, width))
        err = abs(v_star - brute)
        worst_r = max(worst_r, err)
        assert v_star <= brute + 1e-9
        assert err <= 1e-4, (da, db, width)
    for q in (1.6, 2.5):
        d = DerivEndpoints(0.9, 1.4)
        iv = Interval(0.0, 1.0)
        brute = min(bound(RuleParams(l, u), d, iv, q, q)[0]
                    for l in np.linspace(0, 0.5, 161)
                    for u in np.linspace(0.5, 1.0, 161))
        _, v_star = optimize_rule(q, q, d, iv)
        err = abs(v_star - brute)
        worst_r = max(worst_r, err)
        assert v_star <= brute + 1e-9
        assert err <= 1e-4, q

    print(f"ACCEPTANCE 7 PASS: optimize_p within {worst_p:.2e} relative of "
          f"10^4-point dense grids (50 instances); optimize_rule within "
          f"{worst_r:.2e} of brute-force grids")


def test_criterion_8_simpson_crosscheck():
    # the simpson p = 1 bound at general q must coincide with the
    # (29, 61)/90-weighted 5(b-a)/72 power-mean form from the earlier
    # literature result it generalizes
    worst = 0.0
    for q in (1.0, 1.5, 2.0, 3.0, 5.0):
        for da, db in ((0.7, 1.9), (1.0, 1.0), (0.0, 2.3), (2.4, 0.1)):
            for iv in (Interval(0.4, 2.1), Interval(-1.0, 1.0)):
                w = iv.b - iv.a
                got, _ = bound(rule_from_lm(named_rule("simpson")),
                               DerivEndpoints(da, db), iv, q, 1.0)
                want = fx.simpson_weighted_q(q, da, db, w)
                err = fx.relerr(got, want)
                worst = max(worst, err)
                assert err <= 1e-12, (q, da, db)
    print(f"ACCEPTANCE 8 PASS: simpson p=1 bound equals the weighted "
          f"(29,61)/90 power-mean form, worst relative deviation {worst:.2e}")
