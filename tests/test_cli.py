import json
import pathlib
import subprocess
import sys

import pytest

from quadbound import cli
from quadbound.cli import main

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


def test_bound_domain_error_exit_1():
    r = run_cli("bound", "--f", "ln(x)", "--a", "-1", "--b", "2",
                "--rule", "trapezoid", "--q", "1")
    assert r.returncode == 1
    assert "error" in r.stderr
    assert r.stdout == ""


def test_bound_endpoint_derivative_error_exit_1(capsys):
    # f = |x| is defined on [0, 1], but f' is not at 0
    code = main(["bound", "--f", "abs(x)", "--a", "0", "--b", "1", "--rule", "simpson"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "f' is not evaluable at the interval endpoints" in err
    assert out == ""


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
    args = ("bound", "--f", "x^2+0.5*x", "--a", "0.5", "--b", "2.5",
            "--rule", "avg3", "--q", "1.7", "--seed", "3")
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


def test_verify_zero_trials_usage_error():
    r = run_cli("verify", "--trials", "0")
    assert r.returncode == 1
    assert "trials" in r.stderr


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


def test_sweep_empty_grid_rejected():
    r = run_cli("sweep", "--f", "x^2", "--a", "1", "--b", "2", "--axis", "p",
                "--from", "2", "--to", "1", "--step", "0.5",
                "--rule", "trapezoid", "--q", "2")
    assert r.returncode == 1


def test_means_worked_instance():
    r = run_cli("means", "--theorem", "4.2-particular", "--m", "2", "--ell", "1",
                "--s", "2", "--a", "1", "--b", "2")
    assert r.returncode == 0, r.stderr
    payload = json.loads(r.stdout)
    assert abs(payload["gap"] - 1 / 6) <= 1e-12
    assert abs(payload["rhs"] - 0.75) <= 1e-12


def test_means_equal_endpoints():
    r = run_cli("means", "--theorem", "4.2-particular", "--m", "2", "--ell", "1",
                "--s", "2", "--a", "1", "--b", "1")
    payload = json.loads(r.stdout)
    assert payload["gap"] == 0.0
    assert payload["rhs"] == 0.0
    assert r.returncode == 0


def test_means_inadmissible_exit_1():
    r = run_cli("means", "--theorem", "4.1", "--m", "2", "--ell", "1",
                "--s", "1.5", "--a", "1", "--b", "2", "--q", "1.2", "--p", "1")
    assert r.returncode == 1
    assert "inadmissible" in r.stderr


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
    # the q = 1 formula is smaller here (0.9148 against 1.1658 for p = q)
    # but is not a bound under a q > 1 hypothesis
    ["optimize", *CUBE, "--what", "rule", "--mode", "q1", "--q", "2"],
    ["optimize", *CUBE, "--rule", "simpson", "--q", "2", "--what", "p", "--p", "0.3"],
    ["optimize", *CUBE, "--what", "rule", "--mode", "p1", "--q", "2", "--p", "0.7"],
    ["optimize", *CUBE, "--what", "rule", "--mode", "pq", "--q", "2", "--p", "0.7"],
    ["optimize", *CUBE, "--what", "rule", "--mode", "q1", "--p", "0.5"],
    # --what rule optimizes over the rule, so it takes no rule spec
    ["optimize", *CUBE, "--what", "rule", "--rule", "simpson", "--q", "2"],
    ["optimize", *CUBE, "--what", "rule", "--lambda", "0.2", "--mu", "0.7"],
    ["optimize", *CUBE, "--what", "rule", "--m", "7", "--ell", "3"],
    ["means", "--theorem", "4.2-p1", *MEANS, "--s", "2", "--p", "0.5"],
    ["means", "--theorem", "4.5-pq", *MEANS, "--q", "2", "--p", "0.5"],
    ["means", "--theorem", "4.3-particular", *MEANS, "--p", "0.5"],
    ["means", "--theorem", "4.5-particular", *MEANS, "--q", "2"],
    # only the power theorems are about x^s, so the others take no --s
    ["means", "--theorem", "4.5-p1", *MEANS, "--s", "3"],
    ["means", "--theorem", "4.5-particular", *MEANS, "--s", "3"],
    ["means", "--theorem", "4.3-pq", *MEANS, "--q", "2", "--s", "3"],
    ["means", "--theorem", "4.3-particular", *MEANS, "--s", "-1"],
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


# Known wrong verdicts (ROADMAP item 1), pinned so that the fix flips them on
# purpose: strict xfail turns an unnoticed pass into a failure.

@pytest.mark.xfail(strict=True, reason="the certificate compares residuals with an "
                   "absolute tolerance, so its verdict depends on the scale of f")
def test_scaled_down_concave_derivative_is_rejected(capsys):
    # |f'| = 2e-10 x exp(-x^2) is concave on [0.2, 0.8], as is 2 x exp(-x^2)
    code = main(["bound", "--f", "1e-10*exp(0-x^2)", "--a", "0.2", "--b", "0.8",
                 "--rule", "midpoint", "--q", "1", "--format", "json"])
    assert json.loads(capsys.readouterr().out)["certificate"]["valid"] is False
    assert code == 2


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
], ids=lambda argv: " ".join(argv))
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err


def test_kink_on_a_certificate_grid_point(capsys):
    # |f'|^1.5 = 3^1.5 |x - c|^3 is convex; c sits on a certificate grid
    # point, and a midpoint one ulp beside it must not be moved onto it
    code = main(["bound", "--f", "abs(x+0.42128623625220707)^3", "--a", "-0.8",
                 "--b", "1.3", "--rule", "midpoint", "--q", "1.5", "--p", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["valid"] is True
    assert code == 0


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


# Non-finite grid bounds, a NaN step and an infinite interval endpoint are
# input errors.  An unchecked unbounded sweep loops forever, so each call has
# a timeout that fails the test instead of hanging it; the loop's list grows
# by ~55 MB/s, so the timeout also bounds its memory.

SWEEP_P = ["sweep", "--f", "x^2", "--a", "0", "--b", "1", "--axis", "p", "--q", "2"]
TO_INF = ("--a", "0", "--b", "inf")


@pytest.mark.parametrize("argv", [
    [*SWEEP_P, "--from", "0.5", "--to", "inf", "--step", "0.5"],
    [*SWEEP_P, "--from=-inf", "--to", "1", "--step", "0.5"],
    ["sweep", "--f", "x^2", "--a", "0", "--b", "1", "--axis", "lambda",
     "--from", "0", "--to", "0.5", "--step", "nan"],
    ["bound", "--f", "x^2", *TO_INF, "--rule", "simpson", "--q", "1"],
    ["optimize", "--f", "x^2", *TO_INF, "--what", "p", "--rule", "simpson", "--q", "2"],
    ["optimize", "--f", "x^2", *TO_INF, "--what", "rule", "--q", "2"],
    ["sweep", "--f", "x^2", *TO_INF, "--axis", "lambda", "--from", "0",
     "--to", "0.5", "--step", "0.25"],
    ["means", "--theorem", "4.2-p1", "--m", "6", "--ell", "1", "--s", "2",
     "--a", "1", "--b", "inf"],
    ["means", "--theorem", "4.3-p1", "--m", "6", "--ell", "1", "--a", "1",
     "--b", "inf"],
], ids=lambda argv: " ".join(argv))
def test_non_finite_input_exit_1(argv):
    r = run_cli(*argv, timeout=5)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr
    assert "RuntimeWarning" not in r.stderr


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
    calls = []
    parse = cli.parse
    monkeypatch.setattr(cli, "parse", lambda source: calls.append(source) or parse(source))
    integrals = _count_integrals(monkeypatch)
    f = [] if axis == "s" else ["--f", "x^3"]
    code = main(["sweep", *f, "--a", "1", "--b", "2", *fixed, "--axis", axis,
                 "--from", grid[0], "--to", grid[1], "--step", "0.125"])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert calls == (["x^-2.0", "x^-1.875", "x^-1.75", "x^-1.625"] if axis == "s"
                     else ["x^3"])
    # and integrates f once per instance
    assert len(integrals) == len(calls)


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
