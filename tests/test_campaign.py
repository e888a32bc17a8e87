import numpy as np
import pytest

from quadbound.campaign import FAMILIES, draw_function, run_verify


def test_families_listed():
    assert FAMILIES == ("mixed", "poly", "power", "log", "concave-test")


def test_draw_function_sources_reparse():
    from quadbound.expr import parse

    rng = np.random.default_rng(53)
    for _ in range(50):
        draw = draw_function(rng, "mixed", q=2.0)
        assert parse(draw.source) == draw.ast
        assert draw.interval.a < draw.interval.b


def test_power_family_respects_admissibility():
    from quadbound.convexity import admissible_power

    rng = np.random.default_rng(59)
    for _ in range(50):
        draw = draw_function(rng, "power", q=1.2)
        s = float(draw.source.split("^")[1])
        assert admissible_power(s, 1.2)


def test_run_verify_no_violations_small():
    summary = run_verify(trials=100, seed=0)
    assert summary["violations"] == []
    assert summary["instances"] == 100
    assert summary["paths_checked"] > 150
    assert summary["min_slack"] >= 0


def test_run_verify_deterministic():
    s1 = run_verify(trials=40, seed=7)
    s2 = run_verify(trials=40, seed=7)
    assert s1 == s2
    s3 = run_verify(trials=40, seed=8)
    assert s3 != s1


def test_concave_family_is_gated_never_asserted():
    summary = run_verify(trials=25, seed=0, family="concave-test")
    assert summary["paths_checked"] == 0
    assert summary["skipped_q1_certificate"] == 25
    assert summary["skipped_q_certificate"] == 25
    assert summary["violations"] == []
    assert summary["min_slack"] is None


def test_run_verify_rejects_bad_trials():
    with pytest.raises(ValueError):
        run_verify(trials=0)


def _f_prime_points(monkeypatch, run) -> int:
    """Points at which ``run()`` evaluates the one f' it differentiates.
    draw_function differentiates in campaign, the CLI's _instance in cli."""
    from quadbound import campaign, cli

    derivs, points = [], {}
    differentiate, as_function = campaign.differentiate, campaign.as_function

    def counted_differentiate(node):
        derivs.append(differentiate(node))
        return derivs[-1]

    def counted_as_function(node):
        fn = as_function(node)

        def counted(x):
            points[id(node)] = points.get(id(node), 0) + np.size(x)
            return fn(x)

        return counted

    monkeypatch.setattr(campaign, "differentiate", counted_differentiate)
    monkeypatch.setattr(cli, "differentiate", counted_differentiate)
    monkeypatch.setattr(campaign, "as_function", counted_as_function)
    run()
    (deriv,) = derivs
    return points[id(deriv)]


def test_trial_evaluates_f_prime_once_per_certificate_point(monkeypatch):
    # both certificates of a trial share one point set, 64 grid points,
    # 2 * 4096 random ones and 2,016 + 4,096 midpoints, on which f' is
    # evaluated once; the two endpoints come from the same compiled f'
    points = _f_prime_points(monkeypatch, lambda: run_verify(trials=1, seed=3))
    assert points == 64 + 2 * 4096 + (2016 + 4096) + 2


def test_bound_evaluates_f_prime_once_per_certificate_point(monkeypatch, capsys):
    # a bound call builds its instance the same way, with one certificate
    from quadbound.cli import main

    argv = ["bound", "--f", "x^3", "--a", "1", "--b", "2", "--rule", "simpson", "--q", "2"]
    points = _f_prime_points(monkeypatch, lambda: main(argv))
    assert points == 64 + 2 * 4096 + (2016 + 4096) + 2


# Trial 341 of the seed-0 mixed campaign.  Its |f'|^q is not convex, yet the
# q certificate's own seed, which the campaign used before both certificates
# shared one, drew no violating pair.
_TRIAL_341 = ("-0.5861351558292163-1.8820104187757019*x-0.9129293370577596*x^2"
              "+0.3552116897194568*x^3+0.07725775465957918*x^4",
              -2.130633666203733, -1.2436793356380575, 2.454900773962044)
_TRIAL_341_SEEDS = {"shared": 5085182945748197998, "old q": 4845258992122741743}


def test_trial_341_q_certificate_is_rejected():
    from quadbound.convexity import certify_convex
    from quadbound.expr import as_function, differentiate, parse
    from quadbound.oracle import Interval

    source, a, b, q = _TRIAL_341
    fp = as_function(differentiate(parse(source)))
    g = lambda x: np.abs(fp(x)) ** q
    interval = Interval(a, b)
    assert not certify_convex(g, interval, seed=_TRIAL_341_SEEDS["shared"]).valid
    assert certify_convex(g, interval, seed=_TRIAL_341_SEEDS["old q"]).valid
    dense = certify_convex(g, interval, samples=65536, seed=0)
    assert not dense.valid and dense.max_violation > 1e-6
    # and the campaign skips the instance's q paths
    before, through = run_verify(trials=341, seed=0), run_verify(trials=342, seed=0)
    assert through["skipped_q_certificate"] == before["skipped_q_certificate"] + 1
    assert through["paths_checked"] == before["paths_checked"]
