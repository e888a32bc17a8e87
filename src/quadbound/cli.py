"""Command-line front end.

Subcommands::

    bound     evaluate one bound instance, emit a JSON/text report
    verify    seeded randomized soundness campaign
    sweep     sweep one axis (lambda, mu, p, q, s) to CSV
    means     check a special-means inequality
    optimize  minimize the bound over p or over the rule weights

Exit codes: 0 success (claim holds, rhs >= |lhs|; certificate valid / no
violations), 2 certificate invalid (bound not asserted) or a usage error from
argparse (unknown option, missing required option, bad choice), 1 otherwise.
No option sets a tolerance or a sample count: the quadrature tolerance and the
certificate threshold follow from f.  Output is byte-identical for identical
configuration and seed; the ``timings`` block therefore reports deterministic
work counters, not wall-clock times.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from typing import Optional, Union

from . import bounds, campaign, means
# certify_convex, as_function, differentiate, integrate and lhs_value are unused
# here but stay module attributes: perfbench/spans.py traces them.
from .convexity import certify_convex
from .expr import (ExprError, ExprNode, Pow, Var, as_function, differentiate,
                   domain_check, parse)
from .oracle import Interval, IntegrationError, integrate
from .rules import LMRule, NAMED_RULES, RuleParams, lhs_value, named_rule, rule_from_lm

__all__ = ["main"]

SCHEMA = 1


def _config_dict(cfg: argparse.Namespace) -> dict:
    flags = (*_SUBCOMMANDS[cfg.command][2], "--format")
    keys = [_OPTIONS[flag].get("dest", flag[2:]) for flag in _OPTIONS if flag in flags]
    values = vars(cfg)
    return {k: values[k] for k in ("command", *keys) if values[k] is not None}


def _resolve_rule(cfg: argparse.Namespace, optimized: bool = False,
                  ) -> tuple[Optional[RuleParams], Union[str, LMRule, None]]:
    """The rule and how it was given (its name, an LMRule, or None for
    (lam, mu)); exactly one rule spec form must be provided, or none when
    the rule is ``optimized``."""
    given = {"named": cfg.rule is not None,
             "lambda/mu": cfg.lam is not None or cfg.mu is not None,
             "m/ell": cfg.m is not None or cfg.ell is not None}
    forms = [form for form, present in given.items() if present]
    if optimized:
        if forms:
            raise ValueError("--what rule optimizes over the rule; do not pass "
                             "--rule, --lambda/--mu or --m/--ell")
        return None, None
    if len(forms) > 1:
        raise ValueError(f"give exactly one rule spec form, got {' and '.join(forms)}")
    if not forms:
        raise ValueError("a rule spec is required: --rule, --lambda/--mu, or --m/--ell")
    if given["named"]:
        return rule_from_lm(named_rule(cfg.rule)), cfg.rule
    if given["lambda/mu"]:
        if cfg.lam is None or cfg.mu is None:
            raise ValueError("--lambda and --mu must be given together")
        return RuleParams(cfg.lam, cfg.mu), None
    if cfg.m is None or cfg.ell is None:
        raise ValueError("--m and --ell must be given together")
    lm = LMRule(cfg.m, cfg.ell)
    return rule_from_lm(lm), lm


def _parse_f(cfg: argparse.Namespace) -> ExprNode:
    if cfg.f is None:
        raise ValueError("--f is required")
    return parse(cfg.f)


def _instance(ast: ExprNode, a: float, b: float) -> campaign.Instance:
    """The instance of f on [a, b], once f's domain is checked there."""
    interval = Interval(a, b)
    report = domain_check(ast, interval)
    if not report.ok:
        msgs = "; ".join(f"{v.node_source}: {v.reason}" for v in report.violations)
        raise ValueError(f"domain error for f on [{a}, {b}]: {msgs}")
    return campaign.Instance(ast, interval)


def _emit(cfg: argparse.Namespace, fields: dict) -> None:
    """Write a command's report: JSON under the schema and config echo (a
    report that brings its own, as verify's does, keeps it), ``key: value``
    text lines, or the CSV of its rows."""
    if cfg.fmt == "json":
        print(json.dumps({"schema": SCHEMA, "config": _config_dict(cfg), **fields},
                         indent=2))
    elif cfg.fmt == "csv":
        print(",".join(fields["rows"][0]))
        for row in fields["rows"]:
            print(",".join(map(str, row.values())))
    else:
        for key, value in fields.items():
            if key != "config":
                print(f"{key}: {value}")


# Each command returns its report fields and exit code; main writes the report.
def cmd_bound(cfg: argparse.Namespace) -> tuple[dict, int]:
    rule, given = _resolve_rule(cfg)
    inst = _instance(_parse_f(cfg), cfg.a, cfg.b)
    # the claim checks (q, p) before the certificate raises f' to q
    claim = inst.claim(rule, cfg.q, cfg.p, given)
    cert = inst.certificate(cfg.q)
    fields = {
        "lhs": claim.lhs,
        "lhs_abs": abs(claim.lhs),
        "rhs": claim.rhs,
        "slack": claim.slack,
        "formula_id": claim.formula_id,
        "p": claim.p,
        "certificate": {
            "valid": cert.valid,
            "samples": cert.samples,
            "max_violation": cert.max_violation,
        },
        "timings": {
            "integrand_evaluations": inst.quad.evaluations,
            "certificate_evaluations": cert.evaluations,
        },
    }
    if not cert.valid:
        return fields, 2
    return fields, 0 if claim.holds else 1


def cmd_verify(cfg: argparse.Namespace) -> tuple[dict, int]:
    summary = campaign.run_verify(cfg.trials, seed=cfg.seed, family=cfg.family)
    return summary, 0 if not summary["violations"] else 1


_SWEEP_AXES = ("lambda", "mu", "p", "q", "s")
# a mistyped --step (1e-12 over [0, 0.5]) would build a grid until memory runs out
_MAX_SWEEP_POINTS = 100_000


def _sweep_grid(cfg: argparse.Namespace) -> list[float]:
    if not (math.isfinite(cfg.start) and math.isfinite(cfg.stop)):
        raise ValueError(f"--from and --to must be finite, got {cfg.start} and {cfg.stop}")
    if not cfg.step > 0:
        raise ValueError(f"--step must be positive, got {cfg.step}")
    limit = cfg.stop + 1e-12 * max(1.0, abs(cfg.stop))
    steps = (limit - cfg.start) / cfg.step  # the grid has floor(steps) + 1 points
    if not 0 <= steps < _MAX_SWEEP_POINTS:
        raise ValueError(f"sweep grid must have 1 to {_MAX_SWEEP_POINTS} points: "
                         f"from={cfg.start}, to={cfg.stop}, step={cfg.step}")
    grid = [cfg.start]
    while (v := cfg.start + len(grid) * cfg.step) <= limit:
        grid.append(v)
    return grid


def cmd_sweep(cfg: argparse.Namespace) -> tuple[dict, int]:
    grid = _sweep_grid(cfg)
    if cfg.axis == "s":
        if cfg.f is not None:
            raise ValueError("axis 's' sweeps f = x^s; do not pass --f")
        if cfg.a <= 0:
            raise ValueError("axis 's' needs a positive interval: --a > 0")
    if cfg.axis in ("lambda", "mu"):
        if cfg.rule is not None or cfg.m is not None or cfg.ell is not None:
            raise ValueError(f"axis {cfg.axis!r} sweeps the rule weights; "
                             "give at most the complementary --lambda/--mu")
        rule = given = None
    else:
        rule, given = _resolve_rule(cfg)
    # argparse keeps a default object as it is and makes a new float of a
    # given value, so --q was given iff cfg.q is not its default object
    fixed = {"lambda": cfg.lam is not None, "mu": cfg.mu is not None,
             "p": cfg.p is not None, "q": cfg.q is not _OPTIONS["--q"]["default"]}
    if fixed.get(cfg.axis):
        raise ValueError(f"--{cfg.axis} cannot be fixed while sweeping it")
    if cfg.axis == "p" and cfg.q == 1:
        raise ValueError("axis 'p' needs --q > 1: the q = 1 bound does not involve p")

    # f is fixed on every axis but s, where it is x^v
    f = None if cfg.axis == "s" else _parse_f(cfg)
    rows = []
    for v in grid:
        if not rows or f is None:
            if f is None and v == 0:
                raise ValueError("s = 0 is not a power function; exclude it from the grid")
            inst = _instance(Pow(Var(), v) if f is None else f, cfg.a, cfg.b)
        point_rule, q, p = rule, cfg.q, cfg.p
        if cfg.axis == "lambda":
            point_rule = RuleParams(v, cfg.mu if cfg.mu is not None else 1 - v)
        elif cfg.axis == "mu":
            point_rule = RuleParams(cfg.lam if cfg.lam is not None else 1 - v, v)
        elif cfg.axis == "p":
            p = v
        elif cfg.axis == "q":
            q = v
        claim = inst.claim(point_rule, q, p, given)
        rows.append({"axis": cfg.axis, "value": v, "lhs_abs": abs(claim.lhs),
                     "rhs": float(claim.rhs), "slack": float(claim.slack),
                     "formula_id": claim.formula_id})
    return {"rows": rows}, 0


def cmd_means(cfg: argparse.Namespace) -> tuple[dict, int]:
    if cfg.m is None or cfg.ell is None:
        raise ValueError("--m and --ell are required for means")
    if cfg.s is not None and means.MEANS_THEOREMS[cfg.theorem][0] != "power":
        raise ValueError(f"theorem {cfg.theorem} is not about x^s; do not pass --s")
    gap = means.means_gap(cfg.theorem, cfg.m, cfg.ell, cfg.a, cfg.b, s=cfg.s)
    rhs = means.means_bound(cfg.theorem, cfg.m, cfg.ell, cfg.a, cfg.b,
                            s=cfg.s, p=cfg.p, q=cfg.q)
    claim = campaign.Claim(gap, rhs, cfg.p, f"thm{cfg.theorem}")
    fields = {
        "gap": float(gap),
        "gap_abs": abs(float(gap)),
        "rhs": float(rhs),
        "slack": float(claim.slack),
        "formula_id": claim.formula_id,
    }
    return fields, 0 if claim.holds else 1


def cmd_optimize(cfg: argparse.Namespace) -> tuple[dict, int]:
    rule, given = _resolve_rule(cfg, optimized=cfg.what == "rule")
    inst = _instance(_parse_f(cfg), cfg.a, cfg.b)
    d = inst.d
    fields = {"what": cfg.what}
    if cfg.what == "p":
        if cfg.p is not None:
            raise ValueError("--what p optimizes over p; do not pass --p")
        if not cfg.q > 1:
            raise ValueError(f"--what p needs q > 1, got {cfg.q}: the q = 1 bound does not involve p")
        # bound at p = None is the bound at the p that minimizes it
        rhs_star, p_star = bounds.bound(rule, d, inst.interval, cfg.q)
        fields["p_star"] = float(p_star)
        fields["rhs_star"] = float(rhs_star)
        fields["formula_id"] = bounds.formula_id(cfg.q, p_star, given)
    else:
        p = cfg.q if cfg.p is None else cfg.p
        rule_star, rhs_star = bounds.optimize_rule(cfg.q, p, d, inst.interval)
        fields["mode"] = bounds.form(cfg.q, p)
        fields["lambda_star"] = float(rule_star.lam)
        fields["mu_star"] = float(rule_star.mu)
        fields["rhs_star"] = float(rhs_star)
    return fields, 0


# Every option is defined once; each subcommand lists the flags it takes.  A
# command's config echo follows this order.
_OPTIONS = {
    "--f": {"help": "function source, e.g. 'x^2' or 'ln(x)'"},
    "--a": {"type": float, "required": True, "help": "interval left endpoint"},
    "--b": {"type": float, "required": True, "help": "interval right endpoint"},
    "--rule": {"choices": sorted(NAMED_RULES),
               "help": "named rule (one rule spec form only)"},
    "--lambda": {"dest": "lam", "type": float, "help": "rule weight lambda"},
    "--mu": {"type": float, "help": "rule weight mu"},
    "--m": {"type": float, "help": "rule family parameter m"},
    "--ell": {"type": float, "help": "rule family parameter ell"},
    "--q": {"type": float, "default": 1.0, "help": "convexity exponent q >= 1"},
    "--p": {"type": float, "help": "Hoelder parameter 0 < p <= q "
            "(bound, sweep: optimized when q > 1 and omitted; "
            "optimize --what rule: p = q when omitted)"},
    "--seed": {"type": int, "default": 0, "help": "RNG seed (default 0)"},
    "--axis": {"choices": _SWEEP_AXES, "required": True},
    "--from": {"dest": "start", "type": float, "required": True},
    "--to": {"dest": "stop", "type": float, "required": True},
    "--step": {"type": float, "required": True},
    "--format": {"dest": "fmt"},
    "--theorem": {"required": True,
                  "choices": sorted(means.MEANS_THEOREMS)},
    "--s": {"type": float},
    "--what": {"choices": ("p", "rule"), "default": "p"},
    "--trials": {"type": int, "default": 1000},
    "--family": {"choices": campaign.FAMILIES, "default": "mixed"},
}
_INSTANCE = ("--f", "--a", "--b", "--rule", "--lambda", "--mu", "--m", "--ell",
             "--q", "--p")
# subcommand -> (handler, help, flags, --format choices with the default first)
_SUBCOMMANDS = {
    "bound": (cmd_bound, "evaluate one bound instance", _INSTANCE, ("json", "text")),
    "verify": (cmd_verify, "seeded randomized soundness campaign",
               ("--trials", "--family", "--seed"), ("json", "text")),
    "sweep": (cmd_sweep, "sweep one axis to CSV",
              (*_INSTANCE, "--axis", "--from", "--to", "--step"), ("csv", "json")),
    "means": (cmd_means, "check a special-means inequality",
              ("--theorem", "--m", "--ell", "--s", "--a", "--b", "--q", "--p"),
              ("json", "text")),
    "optimize": (cmd_optimize, "minimize the bound over p or the rule",
                 (*_INSTANCE, "--what"), ("json", "text")),
}


# argparse reads an argument that starts with '-' as a value only if it
# matches the parser's negative-number pattern.  Its own pattern takes -1 and
# -.5 but not -1e-3, -inf or the source -2*x+x^2, which it would read as
# option names.  No option name starts with a digit, '.digit', inf or nan.
_NEGATIVE_NUMBER = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE)


# Built on the first call and reused: parse_args keeps no state in the parser,
# and building it lazily keeps the cost out of ``import quadbound.cli``.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadbound",
        description="Certified error bounds for three-point quadrature rules "
                    "under convex-derivative hypotheses.",
    )
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, flags, formats) in _SUBCOMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp._negative_number_matcher = _NEGATIVE_NUMBER
        for flag in flags:
            sp.add_argument(flag, **_OPTIONS[flag])
        sp.add_argument("--format", **_OPTIONS["--format"], choices=formats,
                        default=formats[0])
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    cfg = build_parser().parse_args(argv)
    try:
        fields, code = _SUBCOMMANDS[cfg.command][0](cfg)
    except (ExprError, IntegrationError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(cfg, fields)
    return code


if __name__ == "__main__":
    sys.exit(main())
