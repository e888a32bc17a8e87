"""The command line as a user runs it: ``python -m quadbound`` in a fresh
process, judged by its exit code, stdout and stderr.

Exit 0 prints a report and nothing on stderr; exit 1 prints one ``error:``
line and nothing on stdout; exit 2 is a ``bound`` report whose certificate
failed, or an argparse usage error with nothing on stdout.  No command
lets a numpy RuntimeWarning or a bare overflow errno through.
"""

import json
import subprocess
import sys

import pytest

CASES = [
    (["--help"], 0),
    (["bound", "--f", "x^2", "--a", "1", "--b", "2", "--rule", "trapezoid", "--q", "1"], 0),
    (["bound", "--f", "x^2", "--a", "-1e-3", "--b", "1", "--rule", "simpson"], 0),
    (["bound", "--f", "-2*x+x^2", "--a", "1", "--b", "2", "--rule", "simpson"], 0),
    (["sweep", "--a", "1", "--b", "2", "--rule", "midpoint", "--axis", "s",
      "--from", "-2", "--to", "-0.5", "--step", "0.5"], 0),
    (["verify", "--trials", "20", "--format", "text"], 0),
    (["means", "--theorem", "4.2-p1", "--m", "2", "--ell", "1", "--s", "2", "--a", "1", "--b", "2"], 0),
    (["optimize", "--f", "x^2", "--a", "1", "--b", "2", "--what", "rule", "--q", "2"], 0),
    (["optimize", "--f", "x^2", "--a", "1", "--b", "2", "--what", "rule", "--q", "2", "--p", "1"], 0),
    # at q = 1.001 the smallest p's underflow; optimizing over p still exits 0
    (["bound", "--f", "x^2", "--a", "1", "--b", "2", "--rule", "simpson", "--q", "1.001"], 0),
    (["optimize", "--f", "x^2", "--a", "1", "--b", "2", "--rule", "simpson", "--q", "1.001",
      "--what", "p"], 0),
    # a scaled-down concave |f'| is rejected (exit 2), and an oversized sweep
    # grid is an input error (exit 1), not a loop
    (["bound", "--f", "1e-10*exp(0-x^2)", "--a", "0.2", "--b", "0.8", "--rule", "midpoint",
      "--q", "1"], 2),
    (["sweep", "--f", "x^2", "--a", "1", "--b", "2", "--rule", "simpson", "--axis", "lambda",
      "--from", "0", "--to", "0.5", "--step", "1e-12"], 1),
    # verify judges every path by rhs >= |lhs|, as bound does, with no floor
    (["verify", "--trials", "200", "--seed", "1", "--family", "poly"], 0),
    (["verify", "--trials", "200", "--seed", "1", "--family", "power"], 0),
    # the quadrature tolerance, the certificate size and its seed are not
    # options of bound (exit 2); verify keeps its campaign --seed
    (["bound", "--f", "x^2", "--a", "1", "--b", "2", "--rule", "simpson",
      "--cert-samples", "1000001"], 2),
    (["verify", "--trials", "1", "--tol", "1e-9"], 2),
    (["bound", "--f", "x^2", "--a", "1", "--b", "2", "--rule", "simpson", "--seed", "3"], 2),
    # the tolerance scales with f, so a scaled-down f is not a false violation
    (["bound", "--f", "1e-9*abs(x-0.49)", "--a", "0", "--b", "1", "--rule", "trapezoid"], 0),
    # an integral power of an array base below 0 (|x|^e, sign put back)
    (["bound", "--f", "x^4-x^3", "--a", "-2", "--b", "-0.5", "--rule", "simpson", "--q", "2"], 0),
    # a kink at the midpoint, itself a point of the certificate's grid
    (["bound", "--f", "abs(x-0.5)", "--a", "0", "--b", "1", "--rule", "trapezoid", "--q", "1"], 0),
    # a kink at an end: f'(0) is sgn(0) = +1, the one-sided derivative on [0, 1]
    (["bound", "--f", "abs(x)", "--a", "0", "--b", "1", "--rule", "simpson"], 0),
    # a jump of f is a domain error
    (["bound", "--f", "sgn(x-0.5)", "--a", "0", "--b", "1", "--rule", "simpson"], 1),
    # also where the argument is too small for the product of neighbours
    (["bound", "--f", "sgn(1e-200*(x-0.51234567))", "--a", "0", "--b", "1", "--rule",
      "simpson"], 1),
    # an f that overflows at b is an input error naming f
    (["bound", "--f", "exp(1000*x)", "--a", "0", "--b", "1", "--rule", "simpson"], 1),
    # optimize never integrates f, so an |f'| that overflows at b is named
    # there, not printed as "rhs_star": Infinity
    (["optimize", "--what", "p", "--rule", "simpson", "--q", "2", "--f", "exp(1000*x)",
      "--a", "0", "--b", "1"], 1),
    (["optimize", "--what", "rule", "--q", "2", "--f", "exp(1000*x)", "--a", "0", "--b", "1"], 1),
    # inf - inf on the domain check's grid is an error line, not a warning
    (["bound", "--f", "exp(1000*x)-exp(1000*x)", "--a", "0", "--b", "1", "--rule", "simpson"], 1),
    # an |f'| that is not finite at an end
    (["sweep", "--f", "exp(709*x)", "--a", "0", "--b", "1", "--axis", "lambda", "--from", "0",
      "--to", "0.5", "--step", "0.5", "--format", "json"], 1),
    (["bound", "--f", "exp(709*x)", "--a", "0", "--b", "1", "--rule", "simpson"], 1),
    # an |f'|^q past the float range at an end: the bound and the certificate
    # take |f'| relative to its larger end
    (["bound", "--f", "exp(400*x)", "--a", "0", "--b", "1", "--rule", "simpson", "--q", "2"], 0),
    (["optimize", "--f", "exp(400*x)", "--a", "0", "--b", "1", "--rule", "simpson", "--q", "2"], 0),
    (["sweep", "--f", "exp(400*x)", "--a", "0", "--b", "1", "--axis", "lambda", "--from", "0",
      "--to", "0.5", "--step", "0.5", "--q", "2"], 0),
    (["means", "--theorem", "4.2-pq", "--m", "2", "--ell", "1", "--s", "-2", "--a", "1e-100",
      "--b", "1", "--q", "2"], 0),
    # |f'| near the largest float: the q = 1 bound takes it relative to its
    # larger end too
    (["bound", "--f", "5e307*x^2", "--a", "0.9", "--b", "1", "--rule", "simpson", "--q", "1"], 0),
    # (b - a)*m overflows, but the optimal q = 1 bound, (b - a)/24*m*..., does not
    (["optimize", "--what", "rule", "--q", "1", "--f", "1e307*x^2", "--a", "0", "--b", "5"], 0),
    # g overflows on the certificate's grid: the certificate names it, with
    # no numpy warning
    (["bound", "--f", "exp(709-1000*(x-0.5)^2)", "--a", "0", "--b", "1", "--rule", "simpson"], 1),
    # f' is finite on the grid, but |f'|^2 overflows: named, with no warning
    (["bound", "--f", "exp(700-2800*(x-0.5)^2)", "--a", "0", "--b", "1", "--rule", "simpson",
      "--q", "2", "--p", "1"], 1),
    # |f'|^3 underflows, and the concave |f'| is still rejected
    (["bound", "--f", "1e-110*exp(0-x^2)", "--a", "0.5", "--b", "1.1", "--rule", "midpoint",
      "--q", "3", "--p", "1"], 2),
    # a float power past the largest float, at an end of f' or in a means gap
    (["bound", "--f", "x^-2", "--a", "1e-200", "--b", "1", "--rule", "simpson"], 1),
    (["bound", "--f", "10^400*x", "--a", "0", "--b", "1", "--rule", "simpson"], 1),
    (["bound", "--f", "x^400", "--a", "1", "--b", "1e10", "--rule", "simpson"], 1),
    (["bound", "--f", "0-x^400", "--a", "1", "--b", "1e10", "--rule", "simpson"], 1),
    (["sweep", "--axis", "s", "--a", "1e-200", "--b", "1", "--rule", "simpson", "--from", "-2",
      "--to", "-2", "--step", "1"], 1),
    (["optimize", "--what", "p", "--q", "2", "--f", "x^-2", "--a", "1e-200", "--b", "1",
      "--rule", "simpson"], 1),
    (["means", "--theorem", "4.2-p1", "--m", "2", "--ell", "1", "--s", "3", "--a", "1",
      "--b", "1e200"], 1),
    (["means", "--theorem", "4.2-p1", "--m", "2", "--ell", "1", "--s", "-2", "--a", "1e-200",
      "--b", "1"], 1),
    # an interval whose width b - a overflows
    (["optimize", "--what", "p", "--rule", "simpson", "--q", "2", "--f", "x", "--a", "-1e308",
      "--b", "1e308"], 1),
    (["bound", "--f", "x", "--a", "-1e308", "--b", "1e308", "--rule", "simpson"], 1),
    # f is finite at a, (a+b)/2 and b, but its integral is past the float range
    (["bound", "--f", "x", "--a", "1e308", "--b", "1.7e308", "--rule", "simpson"], 1),
    (["bound", "--f", "x", "--a", "1e300", "--b", "1.7e300", "--rule", "simpson"], 1),
    (["bound", "--f", "x", "--a", "-1e300", "--b", "1e300", "--rule", "simpson"], 1),
    (["bound", "--f", "x", "--a", "1e154", "--b", "1e155", "--rule", "simpson"], 1),
    # (a+b)/2 overflows, but the mean A(a, b) does not
    (["means", "--theorem", "4.5-p1", "--m", "2", "--ell", "1", "--a", "1e308", "--b",
      "1.7e308"], 0),
    # b^1.5 overflows, but [Ls(a, b)]^0.5 does not
    (["means", "--theorem", "4.2-p1", "--m", "2", "--ell", "1", "--s", "0.5", "--a", "1e308",
      "--b", "1.7e308"], 0),
    # a and b close: the means gap is the rule's deficit, with no cancellation
    # in the mean of x^s
    (["means", "--theorem", "4.2-p1", "--m", "2", "--ell", "1", "--s", "2.247178124835633",
      "--a", "2.128500219781677e24", "--b", "2.1285002217710902e24"], 0),
    # |f'|^2 underflows at the ends, but the bound does not
    (["bound", "--f", "1e-200*x^2", "--a", "1", "--b", "2", "--rule", "trapezoid", "--q", "2",
      "--p", "1"], 0),
    # x^400 overflows inside [a, b] while f = 1/x^400 and f' = -400 x^-401 stay finite
    (["bound", "--f", "1/x^400", "--a", "1", "--b", "1e10", "--rule", "simpson"], 0),
]


@pytest.mark.parametrize("argv, code", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_entry_point(argv, code):
    r = subprocess.run([sys.executable, "-m", "quadbound", *argv], capture_output=True,
                       text=True, timeout=60)
    assert r.returncode == code, r.stderr
    assert "RuntimeWarning" not in r.stderr
    if code == 0:
        assert r.stdout and r.stderr == ""
    elif code == 1:
        assert r.stdout == ""
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1, r.stderr
        assert "Numerical result out of range" not in r.stderr
    elif r.stdout:  # a failed certificate: the report, with no bound asserted
        assert json.loads(r.stdout)["certificate"]["valid"] is False and r.stderr == ""
    else:
        assert "usage:" in r.stderr
