"""The command line as a user runs it: ``python -m quadbound`` in a fresh
process, judged by its exit code, stdout and stderr.

Exit 0 prints a report and nothing on stderr; exit 1 prints one ``error:``
line and nothing on stdout; exit 2 is a ``bound`` report whose certificate
failed, or an argparse usage error with nothing on stdout.  No command
lets a numpy RuntimeWarning or a bare overflow errno through.

A row of ``CASES`` is ``(argv, code)`` or ``(argv, code, stderr_prefix)``:
stderr must start with the third column, so a whole ``error: ...\n`` line,
with the one-line rule of exit 1, pins the message exactly.  Each command's
contract is a row here; CI runs the installed console script only to see
that it is installed and runs.
"""

import json
import subprocess
import sys

import pytest

SWEEP_P = ["sweep", "--f", "x^2", "--a", "0", "--b", "1", "--axis", "p", "--q", "2"]
TO_INF = ["--a", "0", "--b", "inf"]
NOT_FINITE = "error: interval requires finite a < b, got [0.0, inf]\n"
FP_INF = "error: |f'| is not finite at the ends of [0.0, 1.0]: |f'(a)|, |f'(b)| = {}, inf\n"

CASES = [
    (["--help"], 0),
    (["bound", "--f", "x^2", "--a", "1", "--b", "2", "--rule", "trapezoid", "--q", "1"], 0),
    (["bound", "--f", "x^2", "--a", "-1e-3", "--b", "1", "--rule", "simpson"], 0),
    (["bound", "--f", "-2*x+x^2", "--a", "1", "--b", "2", "--rule", "simpson"], 0),
    (["sweep", "--a", "1", "--b", "2", "--rule", "midpoint", "--axis", "s",
      "--from", "-2", "--to", "-0.5", "--step", "0.5"], 0),
    (["verify", "--trials", "20", "--format", "text"], 0),
    # every campaign family (the concave-test trials build both certificates
    # from one f' grid per instance), and a trial count or seed out of range
    (["verify", "--trials", "20", "--seed", "0"], 0),
    (["verify", "--trials", "20", "--seed", "0", "--family", "concave-test"], 0),
    (["verify", "--trials", "20", "--seed", "0", "--family", "poly"], 0),
    (["verify", "--trials", "20", "--seed", "0", "--family", "power"], 0),
    (["verify", "--trials", "20", "--seed", "0", "--family", "log"], 0),
    (["verify", "--trials", "0"], 1, "error: trials must be >= 1, got 0\n"),
    (["verify", "--seed", "-1"], 1, "error: seed must be >= 0, got -1\n"),
    (["means", "--theorem", "4.2-p1", "--m", "2", "--ell", "1", "--s", "2", "--a", "1", "--b", "2"], 0),
    # the log means bound, as the s-axis sweep does, builds f as a tree
    (["means", "--theorem", "4.4", "--m", "6", "--ell", "1", "--a", "1", "--b", "2", "--q", "3",
      "--p", "1.2"], 0),
    (["means", "--theorem", "4.1", "--m", "2", "--ell", "1", "--s", "1.5", "--a", "1", "--b", "2",
      "--q", "1.2", "--p", "1"], 1,
     "error: (s=1.5, q=1.2) inadmissible: |s x^(s-1)|^q is convex only for s > 1 with "
     "(s-1)q >= 1, or s < 1 with s != 0\n"),
    # the general theorems take --p, the p1 and pq theorems fix it
    (["means", "--theorem", "4.1", "--m", "2", "--ell", "1", "--a", "1", "--b", "2", "--s", "2",
      "--q", "2"], 1, "error: theorem 4.1 requires --p\n"),
    (["means", "--theorem", "4.4", "--m", "2", "--ell", "1", "--a", "1", "--b", "2", "--q", "2"],
     1, "error: theorem 4.4 requires --p\n"),
    (["means", "--theorem", "4.2-p1", "--m", "6", "--ell", "1", "--a", "1", "--b", "2", "--s", "2",
      "--p", "0.5"], 1, "error: theorem 4.2-p1 fixes p; do not pass --p\n"),
    (["means", "--theorem", "4.5-pq", "--m", "6", "--ell", "1", "--a", "1", "--b", "2", "--q", "2",
      "--p", "0.5"], 1, "error: theorem 4.5-pq fixes p; do not pass --p\n"),
    (["optimize", "--f", "x^2", "--a", "1", "--b", "2", "--what", "rule", "--q", "2"], 0),
    (["optimize", "--f", "x^2", "--a", "1", "--b", "2", "--what", "rule", "--q", "2", "--p", "1"], 0),
    (["optimize", "--f", "x^3", "--a", "1", "--b", "2", "--rule", "simpson", "--q", "2",
      "--what", "p"], 0),
    (["sweep", "--a", "1", "--b", "2", "--rule", "midpoint", "--axis", "s", "--q", "1.5",
      "--p", "1", "--from", "-2", "--to", "-0.5", "--step", "0.5"], 0),
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
    (["sweep", "--f", "x^2", "--a", "1", "--b", "2", "--axis", "p", "--from", "2", "--to", "1",
      "--step", "0.5", "--rule", "trapezoid", "--q", "2"], 1,
     "error: sweep grid must have 1 to 100000 points: from=2.0, to=1.0, step=0.5\n"),
    # non-finite grid bounds, a NaN step, an infinite end of the interval and
    # non-finite rule parameters and exponents are input errors
    ([*SWEEP_P, "--from", "0.5", "--to", "inf", "--step", "0.5"], 1,
     "error: --from and --to must be finite, got 0.5 and inf\n"),
    ([*SWEEP_P, "--from=-inf", "--to", "1", "--step", "0.5"], 1,
     "error: --from and --to must be finite, got -inf and 1.0\n"),
    (["sweep", "--f", "x^2", "--a", "0", "--b", "1", "--axis", "lambda", "--from", "0",
      "--to", "0.5", "--step", "nan"], 1, "error: --step must be positive, got nan\n"),
    (["bound", "--f", "x^2", *TO_INF, "--rule", "simpson", "--q", "1"], 1, NOT_FINITE),
    (["optimize", "--f", "x^2", *TO_INF, "--what", "p", "--rule", "simpson", "--q", "2"], 1,
     NOT_FINITE),
    (["optimize", "--f", "x^2", *TO_INF, "--what", "rule", "--q", "2"], 1, NOT_FINITE),
    (["sweep", "--f", "x^2", *TO_INF, "--axis", "lambda", "--from", "0", "--to", "0.5",
      "--step", "0.25"], 1, NOT_FINITE),
    (["means", "--theorem", "4.2-p1", "--m", "6", "--ell", "1", "--s", "2", "--a", "1",
      "--b", "inf"], 1, "error: means are defined for finite positive numbers, got a=1.0, b=inf\n"),
    (["means", "--theorem", "4.3-p1", "--m", "6", "--ell", "1", "--a", "1", "--b", "inf"], 1,
     "error: means are defined for finite positive numbers, got a=1.0, b=inf\n"),
    (["bound", "--f", "x^2", "--a", "1", "--b", "2", "--rule", "simpson", "--q", "nan"], 1,
     "error: q must be finite and >= 1, got nan\n"),
    (["bound", "--f", "x^2", "--a", "1", "--b", "2", "--rule", "simpson", "--q", "inf"], 1,
     "error: q must be finite and >= 1, got inf\n"),
    (["means", "--theorem", "4.2-p1", "--m", "6", "--ell", "1", "--a", "1", "--b", "2", "--s", "2",
      "--q", "nan"], 1, "error: the p1 form requires q >= 1, got q=nan\n"),
    (["bound", "--f", "x^2", "--a", "1", "--b", "2", "--m", "inf", "--ell", "1"], 1,
     "error: m and ell must be finite, got m=inf, ell=1.0\n"),
    (["means", "--theorem", "4.2-p1", "--m", "inf", "--ell", "1", "--s", "2", "--a", "1",
      "--b", "2"], 1, "error: m and ell must be finite, got m=inf, ell=1.0\n"),
    (["means", "--theorem", "4.2-p1", "--m", "2", "--ell", "1", "--s", "inf", "--a", "1",
      "--b", "2"], 1, "error: s must be finite, got inf\n"),
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
    # f outside its domain, or a jump of f, is a domain error
    (["bound", "--f", "ln(x)", "--a", "-1", "--b", "2", "--rule", "trapezoid", "--q", "1"], 1,
     "error: domain error for f on [-1.0, 2.0]: ln(x): argument of ln is not strictly positive "
     "on the interval\n"),
    (["bound", "--f", "sgn(x-0.5)", "--a", "0", "--b", "1", "--rule", "simpson"], 1),
    # also where the argument is too small for the product of neighbours
    (["bound", "--f", "sgn(1e-200*(x-0.51234567))", "--a", "0", "--b", "1", "--rule",
      "simpson"], 1),
    # an f that overflows at b is an input error naming f (and the quadrature
    # tolerance, from the spread of f, would be inf); f((a+b)/2) is np.exp's
    (["bound", "--f", "exp(1000*x)", "--a", "0", "--b", "1", "--rule", "simpson"], 1,
     "error: f overflows on [0.0, 1.0]: f(a), f((a+b)/2), f(b) = 1.0, "),
    # optimize never integrates f, so an |f'| that overflows at b is named
    # there, not printed as "rhs_star": Infinity
    (["optimize", "--what", "p", "--rule", "simpson", "--q", "2", "--f", "exp(1000*x)",
      "--a", "0", "--b", "1"], 1, FP_INF.format("1000.0")),
    (["optimize", "--what", "rule", "--q", "2", "--f", "exp(1000*x)", "--a", "0", "--b", "1"], 1,
     FP_INF.format("1000.0")),
    # inf - inf on the domain check's grid is an error line, not a warning
    (["bound", "--f", "exp(1000*x)-exp(1000*x)", "--a", "0", "--b", "1", "--rule", "simpson"], 1,
     "error: f overflows on [0.0, 1.0]: f(a), f((a+b)/2), f(b) = 0.0, 0.0, nan\n"),
    # an |f'| that is not finite at an end: every bound would be inf, and
    # JSON has no Infinity
    (["sweep", "--f", "exp(709*x)", "--a", "0", "--b", "1", "--axis", "lambda", "--from", "0",
      "--to", "0.5", "--step", "0.5", "--format", "json"], 1, FP_INF.format("709.0")),
    (["bound", "--f", "exp(709*x)", "--a", "0", "--b", "1", "--rule", "simpson"], 1,
     FP_INF.format("709.0")),
    # the harmonic means bound, whose |f'| = x^-2 overflows at a
    (["means", "--theorem", "4.3-p1", "--m", "2", "--ell", "1", "--a", "1e-160", "--b", "1"], 1,
     "error: |f'| is not finite at the ends of [1e-160, 1.0]: |f'(a)|, |f'(b)| = inf, 1.0\n"),
    # |f'| and |f'|^q are finite at the ends, but the bound built from them is
    # not: every command's bound goes through bounds.bound, which names it
    (["optimize", "--what", "rule", "--q", "1", "--f", "1e305*x^2", "--a", "0", "--b", "500"], 1,
     "error: the bound overflows on [0.0, 500.0] at q = 1.0: rhs = inf "
     "from |f'(a)|, |f'(b)| = 0.0, 1e+308\n"),
    (["optimize", "--what", "p", "--rule", "simpson", "--q", "1.5", "--f", "1e200*x",
      "--a", "0", "--b", "1.5e109"], 1,
     "error: the bound overflows on [0.0, 1.5e+109] at q = 1.5: rhs = inf "
     "from |f'(a)|, |f'(b)| = 1e+200, 1e+200\n"),
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
      "--q", "2", "--p", "1"], 1, "error: g produced non-finite values during certification\n"),
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
    # f is finite at a, (a+b)/2 and b, but peaks between them, and its integral
    # (~2.1e308) is past the float range: the first panel's value names it
    (["bound", "--f", "exp(709.7-2*(x-1)^2)", "--a", "0", "--b", "3.9", "--rule", "simpson"], 1,
     "error: the K15 value of the panel [0.0, 3.9] is past the float range\n"),
    # x^400 overflows inside [a, b] while f = 1/x^400 and f' = -400 x^-401 stay finite
    (["bound", "--f", "1/x^400", "--a", "1", "--b", "1e10", "--rule", "simpson"], 0),
]


@pytest.mark.parametrize("argv, code, stderr_prefix", [(*case, "")[:3] for case in CASES],
                         ids=[" ".join(case[0]) for case in CASES])
def test_entry_point(argv, code, stderr_prefix):
    # the timeout fails a command that hangs, such as an unbounded sweep, whose
    # grid grows by ~55 MB/s: so it also caps that memory at ~275 MB
    r = subprocess.run([sys.executable, "-m", "quadbound", *argv], capture_output=True,
                       text=True, timeout=5)
    assert r.returncode == code, r.stderr
    assert r.stderr.startswith(stderr_prefix), r.stderr
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
