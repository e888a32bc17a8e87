"""Golden CLI output: replay a fixed command list and compare stdout byte for
byte, and the exit code, against ``cli_golden.json``.

The fixture pins the CLI's observable output so that refactors behind it
(bound dispatch, option handling) cannot change a single byte unnoticed.
Re-record it only for an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py

It prints the argv of every recorded entry whose exit code or stdout
changed, so an intended change shows as exactly its entries.
"""

import contextlib
import hashlib
import io
import json
import pathlib

import pytest

from quadbound import cli

FIXTURE = pathlib.Path(__file__).with_name("cli_golden.json")

_CUBE = ["--f", "x^3", "--a", "1", "--b", "2"]
_LN = ["--f", "ln(x)", "--a", "0.5", "--b", "2"]
_QUARTIC = ["--f", "x^4-x", "--a", "-1", "--b", "1.5"]
_GAUSS = ["--f", "exp(0-x^2)", "--a", "0.2", "--b", "1.1"]
_RULE_FORMS = (
    (*_CUBE, "--rule", "simpson"),
    (*_LN, "--lambda", "0.2", "--mu", "0.7"),
    (*_QUARTIC, "--m", "7", "--ell", "3"),
)
_QP = (("--q", "1"), ("--q", "2", "--p", "0.7"), ("--q", "2.5"))

_MEANS = (
    ("4.1", "--s", "3", "--q", "2", "--p", "0.5"),
    ("4.2-p1", "--s", "2"), ("4.2-pq", "--s", "2", "--q", "2"),
    ("4.3-p1",), ("4.3-pq", "--q", "1.5"),
    ("4.4", "--q", "3", "--p", "1.2"),
    ("4.5-p1", "--q", "2"), ("4.5-pq", "--q", "2"), ("4.5-p1",),
)

COMMANDS = (
    # bound: three rule-spec forms x (q = 1, q > 1 with p, q > 1 without p)
    *[["bound", *rule, *qp, "--format", fmt]
      for rule in _RULE_FORMS for qp in _QP for fmt in ("json", "text")],
    ["bound", *_CUBE, "--rule", "trapezoid", "--q", "1", "--p", "0.3"],
    ["bound", "--f", "exp(0-x^2)", "--a", "0.2", "--b", "1.1", "--rule", "midpoint"],
    ["bound", "--f", "exp(0-x^2)", "--a", "0.2", "--b", "1.1", "--rule", "midpoint",
     "--format", "text"],
    ["bound", *_CUBE, "--rule", "simpson", "--q", "0.5"],
    ["bound", *_CUBE, "--rule", "simpson", "--q", "2", "--p", "3"],
    # optimize over p, and over the rule at every (q, p) form
    ["optimize", *_CUBE, "--rule", "simpson", "--q", "2", "--what", "p"],
    ["optimize", *_LN, "--m", "7", "--ell", "3", "--q", "3", "--format", "text"],
    ["optimize", *_CUBE, "--what", "rule", "--q", "1"],
    ["optimize", *_CUBE, "--what", "rule", "--q", "2"],
    ["optimize", *_CUBE, "--what", "rule", "--q", "2", "--p", "0.7"],
    ["optimize", *_CUBE, "--what", "rule", "--p", "1"],
    ["optimize", *_LN, "--what", "rule", "--q", "2", "--p", "1"],
    ["optimize", *_LN, "--what", "rule", "--q", "2", "--p", "0.7", "--format", "text"],
    ["optimize", *_CUBE, "--what", "p", "--rule", "simpson", "--q", "1"],
    # optimize --what rule across forms, q values and functions
    ["optimize", *_GAUSS, "--what", "rule", "--q", "1"],
    ["optimize", *_QUARTIC, "--what", "rule", "--q", "1", "--format", "text"],
    ["optimize", *_CUBE, "--what", "rule", "--q", "1.3", "--p", "1"],
    ["optimize", *_LN, "--what", "rule", "--q", "4", "--format", "text"],
    ["optimize", *_QUARTIC, "--what", "rule", "--q", "2.5", "--p", "0.4"],
    ["optimize", *_GAUSS, "--what", "rule", "--q", "1.3"],
    ["optimize", *_QUARTIC, "--what", "rule", "--q", "4", "--p", "1",
     "--format", "text"],
    ["optimize", *_LN, "--what", "rule", "--q", "2.5"],
    ["optimize", *_GAUSS, "--what", "rule", "--q", "4", "--p", "2.5",
     "--format", "text"],
    ["optimize", *_CUBE, "--what", "rule", "--q", "1.3", "--p", "1.3"],
    ["optimize", *_LN, "--what", "rule", "--q", "4", "--p", "0.05", "--format", "text"],
    ["optimize", "--f", "x^2", "--a", "-1", "--b", "1", "--what", "rule", "--q", "2.5"],
    # the form is what bounds.form gives (q, p), with p = q when --p is omitted
    ["optimize", *_CUBE, "--what", "rule", "--q", "2", "--p", "1"],
    ["optimize", *_CUBE, "--what", "rule", "--q", "2", "--p", "2"],
    ["optimize", *_CUBE, "--what", "rule", "--q", "1", "--p", "0.5"],
    # sweep every axis in csv and json
    *[[*argv, "--format", fmt] for fmt in ("csv", "json") for argv in (
        ["sweep", *_CUBE, "--axis", "lambda", "--from", "0", "--to", "0.5",
         "--step", "0.1"],
        ["sweep", *_LN, "--axis", "mu", "--lambda", "0.2", "--q", "2",
         "--from", "0.5", "--to", "1", "--step", "0.125"],
        ["sweep", *_CUBE, "--rule", "simpson", "--axis", "p", "--q", "2",
         "--from", "0.2", "--to", "2", "--step", "0.3"],
        ["sweep", *_QUARTIC, "--m", "7", "--ell", "3", "--axis", "q", "--p", "1",
         "--from", "1", "--to", "3", "--step", "0.5"],
        ["sweep", "--a", "1", "--b", "2", "--rule", "midpoint", "--axis", "s",
         "--q", "1.5", "--p", "1", "--from", "-2", "--to", "-0.5", "--step", "0.5"],
    )],
    # every means theorem, the p1 forms also at q = 1
    *[["means", "--theorem", theorem, "--m", "6", "--ell", "1", "--a", "1",
       "--b", "2", *rest] for theorem, *rest in _MEANS],
    ["means", "--theorem", "4.5-pq", "--m", "2", "--ell", "1", "--a", "1",
     "--b", "3", "--q", "2", "--format", "text"],
    # seeded campaigns
    ["verify", "--trials", "300", "--seed", "0"],
    ["verify", "--trials", "300", "--seed", "0", "--family", "concave-test"],
    ["verify", "--trials", "20", "--seed", "0", "--format", "text"],
)


def run(argv):
    """(exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_command_list(golden):
    assert [case["argv"] for case in golden] == [list(c) for c in COMMANDS]


@pytest.mark.parametrize("i", range(len(COMMANDS)),
                         ids=[" ".join(c) for c in COMMANDS])
def test_cli_output_matches_golden(i, golden):
    code, stdout = run(golden[i]["argv"])
    assert code == golden[i]["exit"]
    assert stdout == golden[i]["stdout"]


# The stdout sha1 of the full seeded campaigns, too long to keep in the
# fixture.  On a mismatch the assertion prints the new sha1.
VERIFY_SHA1 = {
    ("verify", "--trials", "5000", "--seed", "0"): "b2bc1c79235b0129d3da00b82a56ec76d42d5b1b",
    **{("verify", "--trials", "1500", "--seed", "4", "--family", family): sha1
       for family, sha1 in (("mixed", "249e640caa0057bf7c7bf9cc35db70de7449237f"),
                            ("poly", "0da6e71ea89d2ef8314775280debedd96c01af21"),
                            ("power", "c02d0c30a2832fc6bb924951b1f9d2d36b7b927b"),
                            ("log", "e4e19a86b7f616f3d3f4098383e4cf8bfffb441f"),
                            ("concave-test", "2d8c45d8e39bd9a95ccd441b06ec7722b9d7a429"))},
}


@pytest.mark.parametrize("argv, sha1", VERIFY_SHA1.items(),
                         ids=[" ".join(argv) for argv in VERIFY_SHA1])
def test_verify_stdout_sha1(argv, sha1):
    code, stdout = run(argv)
    assert code == 0
    assert hashlib.sha1(stdout.encode()).hexdigest() == sha1, (
        f"stdout sha1 of {' '.join(argv)} is now {hashlib.sha1(stdout.encode()).hexdigest()}")


def _record():
    """Re-record the fixture, and print the argv of every entry it already
    held whose exit code or stdout changed."""
    old = {}
    if FIXTURE.exists():
        old = {tuple(case["argv"]): case for case in json.loads(FIXTURE.read_text())}
    cases = []
    for argv in COMMANDS:
        code, stdout = run(argv)
        case = {"argv": list(argv), "exit": code, "stdout": stdout}
        before = old.get(tuple(argv))
        if before is not None and before != case:
            print("changed:", " ".join(argv))
        cases.append(case)
    FIXTURE.write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    _record()
