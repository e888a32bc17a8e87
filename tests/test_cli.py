import json
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from quadbound import bounds, cli
from quadbound.cli import main
from quadbound.oracle import Interval
from quadbound.rules import RuleParams, named_rule, rule_from_lm

CLI = [sys.executable, "-m", "quadbound"]


def run_cli(*args, timeout=None):
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          timeout=timeout)


def test_bound_trapezoid_example():
    r = run_cli("bound", "--f", "x^2", "--a", "1", "--b", "2",
                "--rule", "trapezoid", "--q", "1")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["schema"] == 1
    assert abs(payload["lhs_abs"] - 1 / 6) <= 1e-10
    assert payload["rhs"] == 0.75
    assert payload["slack"] > 0
    assert payload["certificate"]["valid"] is True
    assert payload["formula_id"] == "cor3.7-trapezoid"


def test_bound_simpson_value():
    r = run_cli("bound", "--f", "x^2", "--a", "1", "--b", "2",
                "--rule", "simpson", "--q", "1")
    payload = json.loads(r.stdout)
    # 5 (b-a)/72 * (|f'(a)| + |f'(b)|) = 5/72 * 6 = 5/12
    assert abs(payload["rhs"] - 5 / 12) <= 1e-14


def test_bound_endpoint_derivative_error_exit_1(capsys):
    # f = x^0.5 is defined on [0, 1], but f' is not at 0
    code = main(["bound", "--f", "x^0.5", "--a", "0", "--b", "1", "--rule", "simpson"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "f' is not evaluable at the interval endpoints" in err
    assert out == ""


def test_bound_without_f_is_exit_1(capsys):
    code = main(["bound", "--a", "1", "--b", "2", "--rule", "simpson"])
    assert code == 1
    assert capsys.readouterr() == ("", "error: --f is required\n")


def test_bound_accepts_interior_abs_kink():
    # |f'| convex covers V-shaped derivatives; an interior kink of f' must
    # not be rejected
    r = run_cli("bound", "--f", "abs(x-0.25)", "--a", "-1", "--b", "1",
                "--rule", "midpoint", "--q", "1")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert abs(payload["lhs_abs"] - 0.28125) <= 1e-10
    assert payload["rhs"] == 0.5
    assert payload["certificate"]["valid"] is True


def test_bound_invalid_certificate_exit_2():
    # |f'| = 2x exp(-x^2) is concave on this interval: certificate must fail
    r = run_cli("bound", "--f", "exp(0-x^2)", "--a", "0.2", "--b", "1.1",
                "--rule", "midpoint", "--q", "1")
    assert r.returncode == 2
    payload = json.loads(r.stdout)
    assert payload["certificate"]["valid"] is False


def test_scaled_down_f_is_not_a_false_violation(capsys):
    # integrated to a fixed absolute tolerance, the deficit of 1e-9 |x - 0.49|
    # came out 2.5079e-10 against a bound of 2.5e-10 and exited 1
    code, out = _call(["bound", "--f", "1e-9*abs(x-0.49)", "--a", "0", "--b", "1",
                       "--rule", "trapezoid"], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["lhs_abs"] == pytest.approx(0.2499e-9, rel=1e-9)


def test_odd_f_with_zero_spread_stops_at_the_rounding_floor(capsys):
    # f is 0 at a, (a+b)/2 and b, so the tolerance is 0, and its panel values
    # cancel; a floor of 4 eps |sum| would run out the 10^6 evaluation budget
    code, out = _call(["bound", "--f", "(x^2-1)^2*x", "--a", "-1", "--b", "1",
                       "--rule", "simpson"], capsys)
    assert code == 2
    assert json.loads(out)["timings"]["integrand_evaluations"] <= 45


def _scale_cases(n=40):
    """(f at scale s, args) of seeded s |x - c| and s x^0.5 bound instances."""
    rng = np.random.default_rng(5)
    for k in range(2 * n):
        if k < n:
            a = rng.uniform(0.0, 2.0)
            b = a + rng.uniform(0.2, 2.0)
            c = rng.uniform(a, b)
            source, interval = (lambda s, c=c: f"{s!r}*abs(x-{c!r})"), (a, b)
        else:
            source, interval = (lambda s: f"{s!r}*x^0.5"), (1e-6, 1.0)
        lam, mu = rng.uniform(0.0, 0.5), rng.uniform(0.5, 1.0)
        q = 1.0 if rng.random() < 0.5 else rng.uniform(1.05, 3.0)
        args = ["--a", repr(interval[0]), "--b", repr(interval[1]),
                "--lambda", repr(lam), "--mu", repr(mu), "--q", repr(q)]
        yield source, args


def test_verdict_does_not_depend_on_the_scale_of_f(capsys):
    def bound(source, args, s):
        code, out = _call(["bound", "--f", source(s), *args], capsys)
        return code, json.loads(out)

    for source, args in _scale_cases():
        code, ref = bound(source, args, 1.0)
        # a power of two scales every value of the quadrature exactly
        for s in (2.0**-30, 2.0**20):
            scaled_code, scaled = bound(source, args, s)
            assert scaled_code == code, (source(s), args)
            assert scaled["lhs"] == s * ref["lhs"], (source(s), args)
            assert (scaled["timings"]["integrand_evaluations"]
                    == ref["timings"]["integrand_evaluations"]), (source(s), args)
        assert bound(source, args, 1e-9)[0] == code, (source(1e-9), args)


def test_bound_rule_spec_forms():
    base = ["bound", "--f", "x^2", "--a", "1", "--b", "2", "--q", "1"]
    by_name = json.loads(run_cli(*base, "--rule", "trapezoid").stdout)
    by_lm = json.loads(run_cli(*base, "--m", "2", "--ell", "1").stdout)
    by_weights = json.loads(run_cli(*base, "--lambda", "0.5", "--mu", "0.5").stdout)
    assert by_name["rhs"] == by_lm["rhs"] == by_weights["rhs"]
    assert by_lm["formula_id"] == "thm3.1"
    assert by_weights["formula_id"] == "thm3.1"
    # exactly one rule spec form
    r = run_cli(*base, "--rule", "simpson", "--m", "2", "--ell", "1")
    assert r.returncode == 1
    r = run_cli(*base)
    assert r.returncode == 1
    r = run_cli(*base, "--lambda", "0.5")
    assert r.returncode == 1


def test_bound_q_gt_1_defaults_to_optimized_p():
    r = run_cli("bound", "--f", "x^2", "--a", "1", "--b", "2",
                "--rule", "trapezoid", "--q", "2")
    payload = json.loads(r.stdout)
    assert payload["p"] is not None
    assert 0 < payload["p"] <= 2
    r2 = run_cli("bound", "--f", "x^2", "--a", "1", "--b", "2",
                 "--rule", "trapezoid", "--q", "2", "--p", str(payload["p"]))
    assert abs(json.loads(r2.stdout)["rhs"] - payload["rhs"]) <= 1e-12


def test_bound_deterministic_bytes():
    # the dyadic certificate needs no seed, so none is given
    args = ("bound", "--f", "x^2+0.5*x", "--a", "0.5", "--b", "2.5",
            "--rule", "avg3", "--q", "1.7")
    r1, r2 = run_cli(*args), run_cli(*args)
    assert r1.stdout == r2.stdout
    assert r1.returncode == r2.returncode == 0


def test_verify_small_campaign():
    r = run_cli("verify", "--trials", "30", "--seed", "0")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["violations"] == []
    assert payload["instances"] == 30


def test_verify_concave_family_gating():
    r = run_cli("verify", "--trials", "10", "--family", "concave-test")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert payload["paths_checked"] == 0
    assert payload["skipped_q_certificate"] == 10


def test_verify_deterministic_bytes():
    r1 = run_cli("verify", "--trials", "25", "--seed", "11")
    r2 = run_cli("verify", "--trials", "25", "--seed", "11")
    assert r1.stdout == r2.stdout


def test_sweep_csv_shape_and_endpoints():
    r = run_cli("sweep", "--f", "x^2", "--a", "1", "--b", "2", "--axis", "lambda",
                "--from", "0", "--to", "0.5", "--step", "0.25", "--q", "1")
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "axis,value,lhs_abs,rhs,slack,formula_id"
    assert len(lines) == 4
    first = lines[1].split(",")
    last = lines[-1].split(",")
    # midpoint and trapezoid endpoints share the (b-a)/8 (da+db) constant
    assert abs(float(first[3]) - 0.75) <= 1e-12
    assert abs(float(last[3]) - 0.75) <= 1e-12


def test_sweep_single_point():
    r = run_cli("sweep", "--f", "x^2", "--a", "1", "--b", "2", "--axis", "q",
                "--from", "2", "--to", "2", "--step", "1",
                "--rule", "trapezoid", "--p", "1")
    lines = r.stdout.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[-1] == "cor3.6-trapezoid"


def test_sweep_p_minimum_matches_optimizer():
    common = ("--f", "x^2", "--a", "1", "--b", "2", "--rule", "trapezoid", "--q", "2")
    r = run_cli("sweep", *common, "--axis", "p", "--from", "0.05", "--to", "2",
                "--step", "0.0005")
    rows = [line.split(",") for line in r.stdout.strip().splitlines()[1:]]
    sweep_min = min(float(row[3]) for row in rows)
    o = run_cli("optimize", *common, "--what", "p")
    opt = json.loads(o.stdout)
    assert opt["rhs_star"] <= sweep_min + 1e-9
    assert abs(opt["rhs_star"] - sweep_min) <= 1e-6 * sweep_min


# q = 1.001: the Hoelder factor underflows at the smallest p's the
# optimizer tries, which must not end the search
_Q_NEAR_1 = ("--f", "x^2", "--a", "1", "--b", "2", "--rule", "simpson")


def test_bound_near_q_1_optimizes_past_an_underflowing_p(capsys):
    assert main(["bound", *_Q_NEAR_1, "--q", "1.001"]) == 0
    optimized = json.loads(capsys.readouterr().out)
    assert main(["bound", *_Q_NEAR_1, "--q", "1.001", "--p", "1"]) == 0
    at_p1 = json.loads(capsys.readouterr().out)
    assert abs(optimized["p"] - 1) <= 1e-6
    assert optimized["rhs"] <= at_p1["rhs"]
    assert optimized["formula_id"] == "cor3.4-simpson"


def test_sweep_q_near_1_prints_every_row(capsys):
    argv = ["sweep", *_Q_NEAR_1, "--axis", "q", "--from", "1", "--to", "1.01",
            "--step", "0.001"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 11
    # the bound grows with q from the q = 1 bound 5/12
    rhs = [float(row[3]) for row in rows]
    assert rhs == sorted(rhs)
    assert abs(rhs[0] - 5 / 12) <= 1e-14


def test_sweep_grid_over_the_cap_exits_1_at_once(capsys):
    # 5*10^11 points: an uncapped grid loops until memory runs out, so the
    # first call runs in a subprocess whose timeout fails the test instead
    argv = ["sweep", "--f", "x^2", "--a", "1", "--b", "2", "--rule", "simpson",
            "--axis", "lambda", "--from", "0", "--to", "0.5", "--step", "1e-12"]
    r = run_cli(*argv, timeout=5)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr.startswith("error: sweep grid must have 1 to 100000 points")
    assert r.stderr.count("\n") == 1
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 0.1
    assert capsys.readouterr().out == ""


def test_means_worked_instance():
    r = run_cli("means", "--theorem", "4.2-p1", "--m", "2", "--ell", "1",
                "--s", "2", "--a", "1", "--b", "2")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert abs(payload["gap"] - 1 / 6) <= 1e-12
    assert abs(payload["rhs"] - 0.75) <= 1e-12


def test_means_equal_endpoints():
    r = run_cli("means", "--theorem", "4.2-p1", "--m", "2", "--ell", "1",
                "--s", "2", "--a", "1", "--b", "1")
    payload = json.loads(r.stdout)
    assert payload["gap"] == 0.0
    assert payload["rhs"] == 0.0
    assert r.returncode == 0


def test_optimize_rule_output():
    r = run_cli("optimize", "--f", "x^2", "--a", "0", "--b", "1",
                "--what", "rule", "--q", "1", "--format", "json")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert payload["mode"] == "q1"
    assert 0 <= payload["lambda_star"] <= 0.5 <= payload["mu_star"] <= 1


def test_text_format():
    r = run_cli("bound", "--f", "x^2", "--a", "1", "--b", "2",
                "--rule", "trapezoid", "--q", "1", "--format", "text")
    assert r.returncode == 0
    assert "lhs_abs:" in r.stdout
    assert "formula_id:" in r.stdout


CUBE = ("--f", "x^3", "--a", "1", "--b", "2")
MEANS = ("--m", "6", "--ell", "1", "--a", "1", "--b", "2")


@pytest.mark.parametrize("argv", [
    ["optimize", *CUBE, "--rule", "simpson", "--q", "2", "--what", "p", "--p", "0.3"],
    # --what rule optimizes over the rule, so it takes no rule spec
    ["optimize", *CUBE, "--what", "rule", "--rule", "simpson", "--q", "2"],
    ["optimize", *CUBE, "--what", "rule", "--lambda", "0.2", "--mu", "0.7"],
    ["optimize", *CUBE, "--what", "rule", "--m", "7", "--ell", "3"],
    ["means", "--theorem", "4.2-p1", *MEANS, "--s", "2", "--p", "0.5"],
    ["means", "--theorem", "4.5-pq", *MEANS, "--q", "2", "--p", "0.5"],
    # only the power theorems are about x^s, so the others take no --s
    ["means", "--theorem", "4.5-p1", *MEANS, "--s", "3"],
    ["means", "--theorem", "4.3-pq", *MEANS, "--q", "2", "--s", "3"],
    ["means", "--theorem", "4.4", *MEANS, "--q", "2", "--p", "1.5", "--s", "3"],
    # sweeping p overrides a fixed --p, and the q = 1 bound does not involve p
    ["sweep", *CUBE, "--rule", "simpson", "--axis", "p", "--q", "2", "--p", "0.7",
     "--from", "0.5", "--to", "1", "--step", "0.25"],
    ["sweep", *CUBE, "--rule", "simpson", "--axis", "p",
     "--from", "0.5", "--to", "1", "--step", "0.25"],
    # sweeping q overrides a fixed --q, even one equal to its default
    ["sweep", *CUBE, "--rule", "simpson", "--axis", "q", "--q", "2.5", "--p", "1",
     "--from", "1", "--to", "2", "--step", "0.5"],
    ["sweep", *CUBE, "--rule", "simpson", "--axis", "q", "--q", "1", "--p", "1",
     "--from", "1", "--to", "2", "--step", "0.5"],
], ids=lambda argv: " ".join(argv))
def test_dropped_or_mismatched_exponent_rejected(argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["bound", *CUBE, "--rule", "simpson"],
    ["verify", "--trials", "3"],
    ["sweep", *CUBE, "--rule", "simpson", "--axis", "q", "--from", "1", "--to", "2",
     "--step", "0.5"],
    ["means", "--theorem", "4.2-p1", *MEANS, "--s", "2"],
    ["optimize", *CUBE, "--rule", "simpson", "--q", "2"],
], ids=lambda argv: argv[0])
def test_handlers_return_their_report_and_print_nothing(argv, capsys):
    # main alone writes the report, so a handler's result is all there is
    result = getattr(cli, f"cmd_{argv[0]}")(cli.build_parser().parse_args(argv))
    assert capsys.readouterr() == ("", "")
    fields, code = result
    assert type(fields) is dict and type(code) is int


def test_scaled_down_concave_derivative_is_rejected(capsys):
    # |f'| = 2e-10 x exp(-x^2) is concave on [0.2, 0.8], as is 2 x exp(-x^2)
    code = main(["bound", "--f", "1e-10*exp(0-x^2)", "--a", "0.2", "--b", "0.8",
                 "--rule", "midpoint", "--q", "1", "--format", "json"])
    assert json.loads(capsys.readouterr().out)["certificate"]["valid"] is False
    assert code == 2


# A known wrong verdict (ROADMAP item 1), pinned so that the fix flips it on
# purpose: strict xfail turns an unnoticed pass into a failure.

@pytest.mark.xfail(strict=True, reason="slack >= 0 is tested with no error budget, "
                   "so the equality case reads as a violation")
def test_sharp_midpoint_instance_is_not_a_violation(capsys):
    # |f'| = 1: the midpoint constant 1/8 is attained, lhs_abs = rhs = 0.825
    code = main(["bound", "--f", "abs(x+1.35)", "--a", "-3", "--b", "0.3",
                 "--rule", "midpoint", "--q", "1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["lhs_abs"] == pytest.approx(0.825, rel=1e-14)
    assert payload["rhs"] == pytest.approx(0.825, rel=1e-14)
    assert code != 1


SWEEP = ["sweep", *CUBE, "--axis", "lambda", "--from", "0", "--to", "0.5", "--step", "0.25"]
OPTIMIZE = ["optimize", *CUBE, "--what", "rule", "--q", "1"]


@pytest.mark.parametrize("argv", [
    # sweep and optimize read no certificate options, so they take none
    *[[*command, flag, value] for command in (SWEEP, OPTIMIZE)
      for flag, value in (("--seed", "3"), ("--cert-samples", "128"),
                          ("--cert-tol", "1e-9"))],
    # the certificate's threshold follows from the size of g, so it is not an
    # option, and its dyadic grid needs no seed
    ["bound", *CUBE, "--rule", "simpson", "--cert-tol", "1e-10"],
    ["bound", *CUBE, "--rule", "simpson", "--seed", "3"],
    ["verify", "--trials", "3", "--cert-tol", "1e-10"],
    # bad choices and missing required options
    ["sweep", *CUBE, "--axis", "r", "--from", "0", "--to", "1", "--step", "0.5"],
    ["sweep", *CUBE, "--axis", "p", "--to", "1", "--step", "0.5"],
    ["sweep", *CUBE, "--axis", "p", "--from", "0", "--to", "1", "--step", "0.5",
     "--format", "text"],
    ["verify", "--trials", "3", "--family", "cubic"],
    ["optimize", *CUBE, "--what", "lambda"],
    ["optimize", *CUBE, "--what", "rule", "--format", "csv"],
    ["bound", *CUBE, "--rule", "simpson", "--format", "csv"],
    ["means", *MEANS],
    ["means", "--theorem", "4.9", *MEANS],
    ["bound", "--f", "x^3", "--b", "2", "--rule", "simpson"],
    ["means", "--theorem", "4.2-p1", "--m", "6", "--ell", "1", "--a", "1", "--s", "2"],
    # the quadrature tolerance follows from the spread of f, and a certificate
    # has a fixed grid, so neither is an option
    *[[*command, "--tol", value]
      for command in (["bound", *CUBE, "--rule", "simpson"], SWEEP, OPTIMIZE,
                      ["verify", "--trials", "3"])
      for value in ("1e-9", "nan")],
    ["bound", *CUBE, "--rule", "simpson", "--cert-samples", "1000001"],
    ["verify", "--trials", "1", "--cert-samples", "1000001"],
    # the form of the bound follows from (q, p), so it is not an option
    ["optimize", *CUBE, "--what", "rule", "--mode", "pq", "--q", "2"],
    ["means", "--theorem", "4.2-particular", *MEANS, "--s", "2"],
], ids=lambda argv: " ".join(argv))
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err


def test_kink_off_the_dyadic_grid(capsys):
    # |f'|^1.5 = 3^1.5 |x - c|^3 is convex; c sat on a point of the sampled
    # certificate's grid, and lies between two dyadic grid points
    code = main(["bound", "--f", "abs(x+0.42128623625220707)^3", "--a", "-0.8",
                 "--b", "1.3", "--rule", "midpoint", "--q", "1.5", "--p", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["valid"] is True
    assert payload["timings"]["certificate_evaluations"] == 4097
    assert code == 0


# Kinks at grid points x_k = a + k(b-a)/2^12 of the dyadic certificate: the
# midpoint (k = 2048), a quarter point (k = 1024) and x_1.  At a kink f' is
# sgn(±0)·u', its one-sided value, so the point is evaluated where it lies.
# Each exit code and verdict is the one the sampled certificate gave.
_KINKS = {(0.0, 1.0): ("0.5", "0.25", "0.000244140625"),
          (-0.8, 1.3): ("0.25", "-0.275", "-0.7994873046875001")}


@pytest.mark.parametrize("template, q, code", [
    ("abs(x-{})", "1", 0), ("abs(x-{})^3", "1.5", 0), ("abs(x-{})^1.5", "1", 2)],
    ids=["v", "cubic", "concave"])
@pytest.mark.parametrize("interval, k", [((a, b), k) for a, b in _KINKS for k in range(3)],
                         ids=lambda v: str(v))
def test_kink_on_a_dyadic_grid_point_keeps_its_verdict(template, q, code, interval, k, capsys):
    a, b = interval
    kink = _KINKS[interval][k]
    assert float(kink) == a + [2048, 1024, 1][k] * (b - a) / 4096
    source = template.format(kink).replace("--", "+")
    assert main(["bound", f"--f={source}", "--a", repr(a), "--b", repr(b),
                 "--rule", "trapezoid", "--q", q]) == code
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["valid"] is (code == 0)
    # the kink's point is evaluated once, with the rest of the grid
    assert payload["timings"]["certificate_evaluations"] == 4097


# The parser is built on the first main() call and reused for the process.

def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_import_does_not_build_parser():
    code = ("import quadbound, quadbound.cli; "
            "print(quadbound.cli.build_parser.cache_info().currsize)")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "0\n"


def _call(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_reused_parser_leaks_nothing_between_calls(capsys):
    golden = {tuple(case["argv"]): case for case in json.loads(
        pathlib.Path(__file__).with_name("cli_golden.json").read_text())}
    cli.build_parser.cache_clear()
    # a usage error and --help exit through argparse on the parser that the
    # later calls reuse
    assert _call(["sweep", *CUBE, "--axis", "r", "--from", "0", "--to", "1",
                  "--step", "0.5"], capsys) == (2, "")
    assert _call(["--help"], capsys) == (0, cli.build_parser.__wrapped__().format_help())
    # each subcommand keeps its own defaults: csv for sweep, json for bound
    sweep = ["sweep", *CUBE, "--axis", "lambda", "--from", "0", "--to", "0.5",
             "--step", "0.1"]
    bound = ["bound", *CUBE, "--rule", "simpson", "--q", "1"]
    means = ["means", "--theorem", "4.2-p1", "--m", "6", "--ell", "1", "--a", "1",
             "--b", "2", "--s", "2"]
    for argv, key in ((sweep, (*sweep, "--format", "csv")),
                      (bound, (*bound, "--format", "json")),
                      (means, tuple(means))):
        assert _call(argv, capsys) == (golden[key]["exit"], golden[key]["stdout"])
    assert cli.build_parser.cache_info().misses == 1


_EXP_400 = ["--f", "exp(400*x)", "--a", "0", "--b", "1", "--q", "2"]
_LAMBDA_AXIS = ["--axis", "lambda", "--from", "0", "--to", "0.5", "--step", "0.5"]
_SIMPSON = rule_from_lm(named_rule("simpson"))


@pytest.mark.parametrize("argv, key, rules", [
    (["bound", *_EXP_400, "--rule", "simpson"], "rhs", [_SIMPSON]),
    (["optimize", *_EXP_400, "--what", "p", "--rule", "simpson"], "rhs_star", [_SIMPSON]),
    (["sweep", *_EXP_400, *_LAMBDA_AXIS], "rhs", [RuleParams(0.0, 1.0), RuleParams(0.5, 0.5)]),
], ids=["bound-q", "optimize-q", "sweep-q"])
def test_derivative_q_past_the_float_range_is_taken_at_its_scale(capsys, argv, key, rules):
    # |f'(b)| = 400 e^400 is finite but its square is not: each bound is the
    # bound at |f'|/m on [0, m], m = |f'(b)|, the same floats as it is computed
    d = cli._instance(cli.parse("exp(400*x)"), 0.0, 1.0).d
    m = d.scale(2.0)
    assert m == d.db > 1e155
    unit = bounds.DerivEndpoints(d.da / m, 1.0)
    assert main([*argv, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    got = [row[key] for row in out["rows"]] if "rows" in out else [out[key]]
    assert got == [bounds.bound(r, unit, Interval(0.0, m), 2.0)[0] for r in rules]


SWEEP_P = ["sweep", "--f", "x^2", "--a", "0", "--b", "1", "--axis", "p", "--q", "2"]
SIMPSON_X2 = ["bound", "--f", "x^2", "--b", "1", "--rule", "simpson"]


@pytest.mark.parametrize("argv, option, value, code", [
    (SIMPSON_X2, "--a", "-1e-3", 0),
    (SIMPSON_X2, "--a", "-inf", 1),
    ([*SWEEP_P, "--to", "1", "--step", "0.5"], "--from", "-inf", 1),
    (["means", "--theorem", "4.2-p1", *MEANS], "--s", "-5e-1", 0),
    (["bound", "--a", "1", "--b", "2", "--rule", "simpson"], "--f", "-2*x+x^2", 0),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_negative_number_value_spellings_agree(argv, option, value, code, capsys):
    # "--a -1e-3" and "--a=-1e-3" agree only if argparse takes -1e-3 for a
    # value and not for an option name
    outcomes = []
    for spelling in ([option, value], [f"{option}={value}"]):
        try:
            exit_code = main([*argv, *spelling])
        except SystemExit as exc:
            exit_code = exc.code
        outcomes.append((exit_code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code


@pytest.mark.parametrize("axis, fixed", [
    ("lambda", []), ("mu", ["--lambda", "0.25"]), ("p", ["--rule", "simpson", "--q", "2"]),
    ("q", ["--rule", "simpson", "--p", "1"]), ("s", ["--rule", "simpson"]),
])
def test_sweep_builds_the_instance_once_unless_it_sweeps_s(axis, fixed, monkeypatch, capsys):
    # f does not depend on the swept value, except on the s axis, where f = x^s
    grid = {"lambda": ("0", "0.375"), "mu": ("0.5", "0.875"), "p": ("0.5", "0.875"),
            "q": ("1", "1.375"), "s": ("-2", "-1.625")}[axis]
    from quadbound import campaign
    from quadbound.expr import Pow, Var, parse

    built = []

    class CountedInstance(campaign.Instance):
        def __init__(self, ast, interval):
            built.append(ast)
            super().__init__(ast, interval)

    monkeypatch.setattr(campaign, "Instance", CountedInstance)
    integrals = _count_integrals(monkeypatch)
    f = [] if axis == "s" else ["--f", "x^3"]
    code = main(["sweep", *f, "--a", "1", "--b", "2", *fixed, "--axis", axis,
                 "--from", grid[0], "--to", grid[1], "--step", "0.125"])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert built == ([Pow(Var(), s) for s in (-2.0, -1.875, -1.75, -1.625)] if axis == "s"
                     else [parse("x^3")])
    # and integrates f once per instance
    assert len(integrals) == len(built)


def _count_integrals(monkeypatch) -> list:
    """Record every quadrature an instance runs; the list grows by one per call."""
    from quadbound import oracle

    integrals = []
    integrate = oracle.integrate
    monkeypatch.setattr(oracle, "integrate",
                        lambda *args: integrals.append(args) or integrate(*args))
    return integrals


@pytest.mark.parametrize("argv, integrals", [
    (["bound", *CUBE, "--rule", "simpson", "--q", "2"], 1),
    (["optimize", *CUBE, "--what", "p", "--rule", "simpson", "--q", "2"], 0),
    (["optimize", *CUBE, "--what", "rule", "--q", "2"], 0),
], ids=("bound", "optimize-p", "optimize-rule"))
def test_bound_integrates_once_and_optimize_never(argv, integrals, monkeypatch, capsys):
    # optimizing the bound needs only |f'| at the ends, never the deficit
    counted = _count_integrals(monkeypatch)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)
    assert len(counted) == integrals
