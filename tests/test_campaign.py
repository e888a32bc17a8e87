import math

import numpy as np
import pytest

from quadbound.campaign import FAMILIES, Claim, draw_function, run_verify


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


def test_mixed_draw_follows_generator_choice():
    # the mixed family is drawn as Generator.choice draws it with p, so the
    # stream, and with it every seeded campaign, is the same as with choice
    from quadbound.campaign import _DRAWS

    for seed in range(200):
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            q = float(want.uniform(1.05, 3.0))
            assert float(got.uniform(1.05, 3.0)) == q
            family = str(want.choice(["poly", "power", "log"], p=[0.5, 0.3, 0.2]))
            _DRAWS[family](want, q)
            assert draw_function(got, "mixed", q).family == family
        assert got.bit_generator.state == want.bit_generator.state, seed


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


@pytest.mark.parametrize("lhs, rhs, holds", [
    (0.825, 0.825, True),                          # the equality case holds
    (0.825, math.nextafter(0.825, 0), False),      # one ulp short does not
    (-0.825, 0.825, True),                         # lhs is judged by |lhs|
    (-0.825, math.nextafter(0.825, 0), False),
    (0.825, math.nan, False),                      # a NaN rhs never holds
    (math.inf, math.inf, False),                   # nor does a NaN slack
])
def test_claim_holds_iff_rhs_covers_abs_lhs(lhs, rhs, holds):
    assert Claim(lhs, rhs, None, "thm3.1").holds == holds


@pytest.mark.parametrize("low_rhs", [lambda lhs_abs: lhs_abs - 1e-12,
                                     lambda lhs_abs: math.nan], ids=["1e-12 below", "nan"])
def test_run_verify_reports_a_bound_just_below_the_deficit(low_rhs, monkeypatch):
    # The second bound path drawn gets an rhs 1e-12 below |deficit|, or NaN:
    # verify judges it by rhs >= |lhs| like bound does, and reports exactly
    # that path.  An absolute slack floor of 1e-9 would pass both.
    from quadbound import campaign

    lhs_value, bound, draw = campaign.lhs_value, campaign.bounds.bound, campaign.draw_function
    draws, deficits, paths = [], {}, []  # deficits and paths keyed by the trial checked

    def counted_draw(*args):
        draws.append(draw(*args))
        return draws[-1]

    def recorded_lhs_value(*args):
        deficits[len(draws) - 1] = float(lhs_value(*args))
        return deficits[len(draws) - 1]

    def low_bound(rule, d, interval, q, p=None):
        rhs, p = bound(rule, d, interval, q, p)
        paths.append((len(draws) - 1, campaign.bounds.formula_id(q, p)))
        if len(paths) == 2:
            rhs = low_rhs(abs(deficits[len(draws) - 1]))
        return rhs, p

    monkeypatch.setattr(campaign, "draw_function", counted_draw)
    monkeypatch.setattr(campaign, "lhs_value", recorded_lhs_value)
    monkeypatch.setattr(campaign.bounds, "bound", low_bound)
    summary = run_verify(trials=3, seed=0)
    trial, path = paths[1]
    (violation,) = summary["violations"]
    assert (violation["trial"], violation["path"]) == (trial, path)
    assert violation["lhs_abs"] == abs(deficits[trial])
    if math.isnan(low_rhs(1.0)):
        assert math.isnan(violation["rhs"]) and math.isnan(violation["slack"])
    else:
        assert -2e-12 < violation["slack"] < 0


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


@pytest.mark.parametrize("family", ["mixed", "concave-test"])
def test_trial_evaluates_f_prime_once_per_grid_point_per_instance(monkeypatch, family):
    # the instance evaluates f' once on its 4,097-point dyadic grid, however
    # many certificates it builds: a mixed trial builds one (|f'| passes), a
    # concave-test trial two (|f'| fails, so |f'|^q is certified too); the
    # two endpoints come from the same compiled f'
    points = _f_prime_points(monkeypatch, lambda: run_verify(trials=1, seed=3, family=family))
    assert points == 4097 + 2


def test_bound_evaluates_f_prime_once_per_certificate_point(monkeypatch, capsys):
    # a bound call builds its instance the same way, with one certificate
    from quadbound.cli import main

    argv = ["bound", "--f", "x^3", "--a", "1", "--b", "2", "--rule", "simpson", "--q", "2"]
    points = _f_prime_points(monkeypatch, lambda: main(argv))
    assert points == 4097 + 2


def _instance_work(monkeypatch, run):
    """Run ``run()`` and return the Instances it builds, the compiles of each
    node, the floats each node was evaluated at, and the integrations."""
    from quadbound import campaign, rules

    instances, compiles, floats, integrations = [], {}, {}, []
    as_function, integrate = campaign.as_function, campaign.oracle.integrate

    def counted_as_function(node):
        compiles[id(node)] = compiles.get(id(node), 0) + 1
        fn = as_function(node)

        def counted(x):
            if np.ndim(x) == 0:
                floats.setdefault(id(node), []).append(x)
            return fn(x)

        return counted

    class CountedInstance(campaign.Instance):
        def __init__(self, ast, deriv, interval):
            instances.append(self)  # kept alive, so node ids stay unique
            self.deriv, self.claims = deriv, 0
            super().__init__(ast, deriv, interval)

        def claim(self, *args):
            self.claims += 1
            return super().claim(*args)

    def counted_integrate(*args):
        integrations.append(args)
        return integrate(*args)

    for module in (campaign, rules):  # rules too, so that lhs_value compiling f is counted
        monkeypatch.setattr(module, "as_function", counted_as_function)
    monkeypatch.setattr(campaign, "Instance", CountedInstance)
    monkeypatch.setattr(campaign.oracle, "integrate", counted_integrate)
    run()
    return instances, compiles, floats, len(integrations)


def _sweep_lambda():
    from quadbound.cli import main

    assert main(["sweep", "--f", "x^3", "--a", "1", "--b", "2", "--axis", "lambda",
                 "--from", "0", "--to", "0.5", "--step", "0.1"]) == 0


@pytest.mark.parametrize("run, claim_counts", [
    (lambda: run_verify(trials=60, seed=0), {0, 3, 4}),
    (lambda: run_verify(trials=20, seed=0, family="concave-test"), {0}),
    (_sweep_lambda, {6}),
], ids=["mixed", "concave-test", "sweep-lambda"])
def test_instance_compiles_evaluates_and_integrates_f_once(monkeypatch, run, claim_counts):
    # the deficit depends on f only through f(a), f((a+b)/2), f(b) and the
    # mean: f and f' are compiled once per instance, f is evaluated at the
    # three nodes once however many claims there are, and an instance that
    # makes no claim compiles, evaluates and integrates no f
    instances, compiles, floats, integrations = _instance_work(monkeypatch, run)
    assert {inst.claims for inst in instances} == claim_counts
    for inst in instances:
        iv = inst.interval
        assert compiles[id(inst.deriv)] == 1
        assert compiles.get(id(inst.ast), 0) == (inst.claims > 0)
        assert floats.get(id(inst.ast), []) == ([iv.a, iv.midpoint, iv.b] if inst.claims else [])
    assert integrations == sum(inst.claims > 0 for inst in instances)


@pytest.mark.parametrize("family, certificates, paths", [
    ("log", 1, 4), ("concave-test", 2, 0)])
def test_valid_q1_certificate_certifies_the_q_paths(monkeypatch, family, certificates, paths):
    # |f'| convex makes |f'|^q convex for q >= 1, so a trial whose q = 1
    # certificate passes builds no q certificate and checks all four paths;
    # one whose q = 1 certificate fails builds the q certificate too
    from quadbound import campaign

    certify, calls = campaign.certify_convex, []

    def counted(g, interval):
        calls.append(certify(g, interval))
        return calls[-1]

    monkeypatch.setattr(campaign, "certify_convex", counted)
    summary = run_verify(trials=1, seed=3, family=family)
    assert len(calls) == certificates
    assert calls[0].valid == (family == "log")
    assert summary["paths_checked"] == paths


# Trial 341 of the seed-0 mixed campaign.  Its |f'|^q is not convex; a
# sampled certificate with one of the two seeds it drew found no violating
# pair, and the dyadic certificate, which needs no seed, rejects it.
_TRIAL_341 = ("-0.5861351558292163-1.8820104187757019*x-0.9129293370577596*x^2"
              "+0.3552116897194568*x^3+0.07725775465957918*x^4",
              -2.130633666203733, -1.2436793356380575, 2.454900773962044)

# Trial 802 of the seed-0 mixed campaign: |f'| is concave in the last 1.3% of
# [a, b], which the sampled certificate passed.
_TRIAL_802 = ("1.4782208209513743+0.3557663653494685*x-0.2252225697423076*x^2"
              "+0.6964220880337391*x^3+1.9064376011753068*x^4",
              -1.5619355542768354, -0.5281404166676151, 2.7647084370077835)


@pytest.mark.parametrize("source, a, d", [
    ("x^-2", 1e-200, (math.inf, 2.0)),    # (1e-200)^-3 overflows a float power
    ("exp(709*x)", 0.0, (709.0, math.inf)),  # exp overflows in numpy
], ids=["float-power", "numpy"])
def test_instance_takes_an_overflowing_end_as_inf(source, a, d):
    # f' that overflows at an end is an infinite |f'| there, left for
    # bounds.bound to name, not an errno tuple raised from the constructor
    from quadbound.campaign import Instance
    from quadbound.expr import differentiate, parse
    from quadbound.oracle import Interval

    ast = parse(source)
    inst = Instance(ast, differentiate(ast), Interval(a, 1.0))
    assert (inst.d.da, inst.d.db) == d


@pytest.mark.parametrize("source, nodes", [
    ("0-x^400", (-1.0, -math.inf, -math.inf)),
    ("x^400", (1.0, math.inf, math.inf)),
    ("(0-x)^401", (-1.0, -math.inf, -math.inf)),
])
def test_instance_nodes_keep_the_sign_of_an_overflow(source, nodes):
    # a power past the float range at a number is numpy's signed inf, so
    # the node is an inf of f's sign
    from quadbound.campaign import Instance
    from quadbound.expr import differentiate, parse
    from quadbound.oracle import Interval

    ast = parse(source)
    assert Instance(ast, differentiate(ast), Interval(1.0, 1e10)).nodes == nodes


def _earlier_point(node, x: float) -> float:
    """node at x as points were evaluated before a power past the float range
    was an inf: the reference walk with C pow, and where a float power
    raised, the walk on a one-element array instead."""
    import test_expr

    try:
        return float(test_expr._reference_evaluate(node, float(x)))
    except OverflowError:
        return float(test_expr._reference_evaluate(node, np.array([x]))[0])


def _points():
    """(f, f', interval) of 2,000 seeded draws of each family, then 10^400*x
    on [-2, -1] and [0, 1]."""
    from quadbound.expr import differentiate, parse
    from quadbound.oracle import Interval

    for family in FAMILIES:
        rng = np.random.default_rng(26)
        for _ in range(2000):
            draw = draw_function(rng, family, float(rng.uniform(1.05, 3.0)))
            yield draw.ast, draw.deriv, draw.interval
    ast = parse("10^400*x")
    for a, b in ((-2.0, -1.0), (0.0, 1.0)):
        yield ast, differentiate(ast), Interval(a, b)


def test_instance_points_are_the_earlier_points_bit_for_bit(monkeypatch):
    # The nodes and |f'| ends keep C pow's bits, and an overflow keeps the
    # signed inf (or nan) that the one-element-array retry gave.
    import test_expr
    from quadbound.campaign import Instance

    array_power = test_expr._reference_power

    def raising_power(base, e):  # the reference power before: a number's overflow raises
        return array_power(base, e) if isinstance(base, np.ndarray) else base ** e

    monkeypatch.setattr(test_expr, "_reference_power", raising_power)
    nodes = []
    for ast, deriv, iv in _points():
        inst = Instance(ast, deriv, iv)
        with np.errstate(over="ignore", invalid="ignore"):
            want_nodes = [_earlier_point(ast, x) for x in (iv.a, iv.midpoint, iv.b)]
            want_d = [abs(_earlier_point(deriv, x)) for x in (iv.a, iv.b)]
        assert list(map(float.hex, inst.nodes)) == list(map(float.hex, want_nodes)), (ast, iv)
        assert [float.hex(inst.d.da), float.hex(inst.d.db)] == list(map(float.hex, want_d))
        nodes.append(inst.nodes)
    assert len(nodes) == 10_002
    assert list(map(str, nodes[-2] + nodes[-1])) == ["-inf"] * 3 + ["nan", "inf", "inf"]


@pytest.mark.parametrize("a, b", [(1e308, 1.7e308), (1e300, 1.7e300), (-1e300, 1e300),
                                  (1e154, 1e155)])
def test_integral_past_the_float_range_is_named(a, b):
    # f = x is finite at a, (a+b)/2 and b, but (b - a) * max|f| is not
    from quadbound.campaign import Instance
    from quadbound.expr import Const, Var
    from quadbound.oracle import Interval

    inst = Instance(Var(), Const(1.0), Interval(a, b))
    with pytest.raises(ValueError) as exc:
        inst.quad
    assert str(exc.value) == (f"the integral of f on [{a}, {b}] is past the float range: "
                              "(b - a) * max(|f(a)|, |f((a+b)/2)|, |f(b)|) overflows")


def test_trial_341_q_certificate_is_rejected():
    from quadbound.convexity import certify_convex, grid
    from quadbound.expr import as_function, differentiate, parse
    from quadbound.oracle import Interval

    source, a, b, q = _TRIAL_341
    fp = as_function(differentiate(parse(source)))
    g = lambda x: np.abs(fp(x)) ** q
    interval = Interval(a, b)
    cert = certify_convex(g(grid(interval)), interval)
    assert not cert.valid
    # its witness pair violates midpoint convexity beyond rounding
    x, y = cert.witness
    assert g(np.array([(x + y) / 2]))[0] - (g(np.array([x]))[0] + g(np.array([y]))[0]) / 2 > 1e-6
    # a dense check of 65,536 seeded pairs finds the violation too
    x, y = a + (b - a) * np.random.default_rng(0).random((2, 65536))
    assert np.max(g((x + y) / 2) - (g(x) + g(y)) / 2) > 1e-6
    # and the campaign skips the instance's q paths
    before, through = run_verify(trials=341, seed=0), run_verify(trials=342, seed=0)
    assert through["skipped_q_certificate"] == before["skipped_q_certificate"] + 1
    assert through["paths_checked"] == before["paths_checked"]


def test_trial_802_end_concave_poly_is_rejected_at_q_1():
    from quadbound.convexity import certify_convex, grid
    from quadbound.expr import as_function, differentiate, parse
    from quadbound.oracle import Interval

    source, a, b, q = _TRIAL_802
    fp = as_function(differentiate(parse(source)))
    g = lambda x: np.abs(fp(x))
    interval = Interval(a, b)
    cert = certify_convex(g(grid(interval)), interval)
    assert not cert.valid
    # the witness lies in the concave end
    assert min(cert.witness) > a + 0.98 * (b - a)
    # a dense check on 20,001 points: every second difference beyond
    # rounding lies in the last 2% of [a, b]
    x = np.linspace(a, b, 20001)
    gx = g(x)
    residuals = gx[1:-1] - (gx[:-2] + gx[2:]) / 2
    concave = x[1:-1][residuals > 1024 * np.finfo(float).eps * gx.max()]
    assert concave.size > 100 and concave.min() > a + 0.98 * (b - a)
    # |f'|^q is convex there, so the campaign skips the q = 1 path alone
    assert certify_convex(g(grid(interval)) ** q, interval).valid
    before, through = run_verify(trials=802, seed=0), run_verify(trials=803, seed=0)
    assert through["skipped_q1_certificate"] == before["skipped_q1_certificate"] + 1
    assert through["skipped_q_certificate"] == before["skipped_q_certificate"]
    assert through["paths_checked"] == before["paths_checked"] + 3


_SCALES = range(-900, 901, 100)


def test_verdict_and_bound_do_not_depend_on_the_scale_of_f():
    # 300 seeded draws, each run as 2^k f: |f'| scales by 2^k exactly, so the
    # certificate of |f'|^q must give the same verdict and the bound 2^k times
    # the bound, with |f'|^q below or above the float range as well as in it
    from quadbound import bounds
    from quadbound.campaign import Instance
    from quadbound.expr import BinOp, Const, differentiate
    from quadbound.rules import RuleParams

    rng = np.random.default_rng(11)
    families = ("poly", "power", "log", "concave-test")
    passes = 0
    for i in range(300):
        q = float(rng.uniform(1.05, 3.0))
        rule = RuleParams(float(rng.uniform(0, 0.5)), float(rng.uniform(0.5, 1)))
        p = q * float(rng.uniform(0.01, 1.0))
        draw = draw_function(rng, families[i % 4], q)
        base = Instance(draw.ast, draw.deriv, draw.interval)
        valid = base.certificate(q).valid
        rhs = bounds.bound(rule, base.d, draw.interval, q, p)[0]
        passes += valid
        for k in _SCALES:
            ast = BinOp("*", Const(2.0 ** k), draw.ast)
            inst = Instance(ast, differentiate(ast), draw.interval)
            case = (draw.source, draw.interval, q, p, k)
            assert inst.certificate(q).valid == valid, case
            scaled = bounds.bound(rule, inst.d, draw.interval, q, p)[0]
            assert abs(scaled - 2.0 ** k * rhs) <= 1e-12 * 2.0 ** k * rhs, case
    assert 150 <= passes < 300  # both verdicts are drawn
