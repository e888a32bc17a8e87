"""The three benchmark workloads: seeded inputs, one op each, output checks.

Each workload is a ``Workload``: ``make(seed, stream)`` returns an endless
iterator of inputs, ``op(item)`` is the timed unit of work and
``check(item, output)`` compares its output with a reference that does not
share the timed code path.  The ``"timed"`` and ``"warm-up"`` streams of a
seed are independent, so the warm-up never runs an input the timed loop runs.

A check returns ``None`` when the output is right, ``(FAILED, reason)`` when
the program itself reported a failure (an exit code of 1, a campaign
violation) and ``(WRONG, reason)`` when the output disagrees with the
reference.  Both count as failed ops; only WRONG makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple, Optional

import numpy as np

from quadbound import bounds, campaign, cli, oracle

FAILED = "failed"
WRONG = "wrong"
STREAMS = {"timed": 0, "warm-up": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int, str], Iterator]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], Optional[tuple[str, str]]]
    # The traced run replays a fixed prefix of the timed stream, this many
    # ops per second of --seconds, so that its work counters depend only on
    # the seed and --seconds.
    trace_ops_per_s: int
    # op_tail_ms is the latency at this percentile.  It is fixed, so that a
    # faster program, which completes more ops, is not measured further out
    # in its tail; at run_seconds it leaves at least ten ops beyond it.
    tail_percentile: float


# -- verify-campaign ----------------------------------------------------------

def _make_verify(seed: int, stream: str) -> Iterator[int]:
    rng = np.random.default_rng([seed, 0, STREAMS[stream]])
    while True:
        yield from (int(s) for s in rng.integers(2**63, size=1024))


def _op_verify(trial_seed: int):
    summary = campaign.run_verify(trials=1, seed=trial_seed, family="mixed")
    return summary["instances"], len(summary["violations"]), summary["min_slack"]


def _check_verify(trial_seed: int, out) -> Optional[tuple[str, str]]:
    instances, violations, min_slack = out
    if instances != 1:
        return WRONG, f"summary reports {instances} instances for one trial"
    if violations:
        return FAILED, f"{violations} bound violation(s)"
    if min_slack is not None and min_slack < 0:
        return FAILED, f"min_slack {min_slack!r} < 0"
    return None


# -- moment-oracle ------------------------------------------------------------

class MomentOp(NamedTuple):
    side: str
    shift: float
    exponent: float
    weight: str
    p: float
    q: float


_SET_BITS = 7  # 2^7 draws per weight, 384 ops in all, cycled by the timed loop
_WORD = 32


def _sobol_2d(bits: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """The first 2^bits points of the two-dimensional Sobol sequence, with a
    random digital shift: each point is uniform on the unit square, and every
    prefix of 2^k points has one point in each of the 2^k equal boxes of any
    dyadic shape."""
    directions = (
        [1 << (_WORD - 1 - j) for j in range(bits)],  # van der Corput
        [0] * bits,  # second dimension: m_j = 2 m_(j-1) xor m_(j-1), m_1 = 1
    )
    m = 1
    for j in range(bits):
        directions[1][j] = m << (_WORD - 1 - j)
        m ^= m << 1
    i = np.arange(1 << bits)
    out = []
    for dirs in directions:
        x = np.zeros(1 << bits, dtype=np.uint64)
        for j, v in enumerate(dirs):
            x ^= np.where((i >> j) & 1, np.uint64(v), np.uint64(0))
        shift = np.uint64(int(rng.integers(1 << _WORD)))
        out.append(((x ^ shift).astype(float) + 0.5) / 2.0**_WORD)
    return out[0], out[1]


def _make_moment(seed: int, stream: str) -> Iterator[MomentOp]:
    """A fixed set of draws from the criterion-4 distribution, cycled:
    q ~ U(1.05, 4), p = q * U(0.02, 1), sides alternating, shift uniform on
    the side's half, 2^7 draws for each of the three weights.

    Nearly all the time goes to the few draws whose exponent is close to 0,
    so the set's cost depends on how many of them it holds.  The (q, p/q)
    pairs of each weight are therefore a randomly shifted Sobol point set:
    each draw is still uniform, but every prefix of 2^k draws covers the
    square evenly, so sets from different seeds cost about the same.  The
    set is fixed, so a faster program times more passes over the same ops,
    not different ops."""
    rng = np.random.default_rng([seed, 1, STREAMS[stream]])
    n = 1 << _SET_BITS
    side = np.where(np.arange(n) % 2 == 0, "left", "right")
    streams = []
    for weight in ("1", "t", "1-t"):
        uq, ur = _sobol_2d(_SET_BITS, rng)
        q = 1.05 + 2.95 * uq
        p = q * (0.02 + 0.98 * ur)
        exponent = (q - p) / (q - 1) if weight == "1" else p
        u = rng.random(n)
        shift = np.where(side == "left", 0.5 * u, 0.5 + 0.5 * u)
        columns = (a.tolist() for a in (side, shift, exponent, p, q))
        streams.append([MomentOp(s, sh, e, weight, pp, qq) for s, sh, e, pp, qq in zip(*columns)])
    return itertools.cycle([op for ops in zip(*streams) for op in ops])


def _op_moment(m: MomentOp) -> float:
    return oracle.kernel_moment_numeric(m.side, m.shift, m.exponent, m.weight)


def _check_moment(m: MomentOp, value: float) -> Optional[tuple[str, str]]:
    km = bounds.kernel_moments_closed(m.shift, m.side, bounds.HolderParams(m.p, m.q))
    closed = {"1": km.hoelder_factor, "t": km.weight_a, "1-t": km.weight_b}[m.weight]
    if not abs(closed - value) <= 1e-10:
        return WRONG, f"|closed - numeric| = {abs(closed - value):.3g} > 1e-10 for {m}"
    return None


# -- cli-requests -------------------------------------------------------------

# (m, ell) of the named rules and their q = 1 constants c, from the README
# table: |deficit| <= c (b-a)(|f'(a)| + |f'(b)|).
_NAMED = {
    "midpoint": ((1, 0), 1 / 8),
    "trapezoid": ((2, 1), 1 / 8),
    "avg3": ((3, 1), 5 / 72),
    "avg-mid": ((4, 1), 1 / 16),
    "fifth-13": ((5, 1), 13 / 200),
    "fifth-221": ((5, 2), 17 / 200),
    "simpson": ((6, 1), 5 / 72),
}

# Request kinds and how many of each go into every block of 20 requests.
# Fixed counts (shuffled within the block) keep the mix, and so the cost per
# request, the same from seed to seed.
_BLOCK = (("bound-q1", 5), ("bound-pq", 4), ("bound-popt", 3), ("optimize-p", 3),
          ("optimize-rule", 1), ("sweep-lambda", 2), ("means", 2))
_KINDS = tuple(k for k, n in _BLOCK for _ in range(n))

_MEANS_THEOREMS = {  # theorem -> (family, needs q > 1 and p)
    "4.1": ("power", True), "4.2-p1": ("power", False), "4.2-pq": ("power", False),
    "4.3-p1": ("harmonic", False), "4.3-pq": ("harmonic", False),
    "4.4": ("log", True), "4.5-p1": ("log", False), "4.5-pq": ("log", False),
}


@dataclass(frozen=True)
class Fn:
    """A test function with everything the checks need, computed here from
    closed forms rather than by the program."""

    source: str
    a: float
    b: float
    f: Callable[[float], float]
    df: Callable[[float], float]
    mean: float  # closed-form mean integral over [a, b]

    def deficit(self, lam: float, mu: float) -> float:
        mid = (self.a + self.b) / 2
        return ((1 - mu) * self.f(self.a) + lam * self.f(self.b)
                + (mu - lam) * self.f(mid) - self.mean)

    def scale(self) -> float:
        return 1 + abs(self.f(self.a)) + abs(self.f(self.b)) + abs(self.mean)


def _power_mean(s: float, a: float, b: float) -> float:
    """Mean of x**s over [a, b]: (b^(s+1) - a^(s+1)) / ((s+1)(b-a))."""
    u = s + 1
    if u == 0:
        return math.log(b / a) / (b - a)
    return (math.expm1(u * math.log(b)) - math.expm1(u * math.log(a))) / (u * (b - a))


def _positive_interval(rng) -> tuple[float, float]:
    a = rng.uniform(0.3, 2.0)
    return a, a + rng.uniform(0.3, 1.5)


def _draw_fn(rng) -> Fn:
    family = rng.choices(range(4), weights=(0.4, 0.25, 0.2, 0.15))[0]
    if family == 0:  # polynomial of degree 1..4, coefficients U(-2, 2)
        c = [rng.uniform(-2, 2) for _ in range(rng.randint(2, 5))]
        a = rng.uniform(-2.5, 0.5)
        b = a + rng.uniform(0.3, 2.0)
        # The constant term keeps its sign, so sources often start with '-'.
        source = repr(c[0]) + "".join(
            f"{'+' if ck >= 0 else '-'}{abs(ck)!r}*x" + (f"^{k}" if k > 1 else "")
            for k, ck in enumerate(c[1:], 1))
        mean = sum(ck * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                   for k, ck in enumerate(c)) / (b - a)
        return Fn(source, a, b,
                  lambda x: sum(ck * x**k for k, ck in enumerate(c)),
                  lambda x: sum(k * ck * x ** (k - 1) for k, ck in enumerate(c) if k),
                  mean)
    if family == 1:  # x^s, s ~ U(-2, 3) away from 0
        s = 0.0
        while abs(s) < 0.05:
            s = rng.uniform(-2, 3)
        a, b = _positive_interval(rng)
        return Fn(f"x^{s!r}", a, b, lambda x: x**s, lambda x: s * x ** (s - 1),
                  _power_mean(s, a, b))
    if family == 2:  # ln x
        a, b = _positive_interval(rng)
        return Fn("ln(x)", a, b, math.log, lambda x: 1 / x,
                  (b * math.log(b) - a * math.log(a)) / (b - a) - 1)
    # exp(-x^2), whose |f'| is concave here: the certificate must refuse it
    a = rng.uniform(0.15, 0.5)
    b = a + rng.uniform(0.3, 0.7)
    return Fn("exp(0-x^2)", a, b, lambda x: math.exp(-x * x),
              lambda x: -2 * x * math.exp(-x * x),
              math.sqrt(math.pi) / 2 * (math.erf(b) - math.erf(a)) / (b - a))


@dataclass(frozen=True)
class CliRequest:
    kind: str
    argv: tuple[str, ...]
    fn: Optional[Fn] = None
    rule: Optional[str] = None  # named rule, if one was given
    lam: Optional[float] = None
    mu: Optional[float] = None
    q: float = 1.0
    p: Optional[float] = None
    grid: tuple[float, ...] = ()
    means: Optional[tuple] = None  # (family, m, ell, s, a, b)


def _fn_args(fn: Fn) -> list[str]:
    # '--f=<source>': a source such as '-1.2+x' after a bare '--f' would be
    # taken by argparse for an option.
    return [f"--f={fn.source}", f"--a={fn.a!r}", f"--b={fn.b!r}"]


def _draw_rule(rng) -> tuple[Optional[str], float, float, list[str]]:
    if rng.random() < 0.5:
        name = rng.choice(tuple(_NAMED))
        (m, ell), _ = _NAMED[name]
        lam = ell / m
        return name, lam, 1 - lam, [f"--rule={name}"]
    lam, mu = rng.uniform(0, 0.5), rng.uniform(0.5, 1)
    return None, lam, mu, [f"--lambda={lam!r}", f"--mu={mu!r}"]


def _draw_qp(rng) -> tuple[float, float]:
    q = rng.uniform(1.05, 3.0)
    return q, q * rng.uniform(0.01, 1.0)


def _admissible_power(s: float, q: float) -> bool:
    # |s x^(s-1)|^q is convex on x > 0 iff s > 1 with (s-1)q >= 1, or s < 1.
    return (s > 1 and (s - 1) * q >= 1) or (s < 1 and s != 0)


def _draw_request(kind: str, rng) -> CliRequest:
    if kind == "means":
        theorem = rng.choice(tuple(_MEANS_THEOREMS))
        family, needs_p = _MEANS_THEOREMS[theorem]
        q, p = _draw_qp(rng)
        if not needs_p:
            p = None
            if rng.random() < 0.5:
                q = 1.0
        m = rng.uniform(0.5, 6)
        ell = m / 2 * rng.uniform(0, 1)
        a, b = _positive_interval(rng)
        s = None
        if family == "power":
            s = 0.0
            while abs(s) < 0.05 or not _admissible_power(s, q):
                s = rng.uniform(-2, 3)
        argv = ["means", f"--theorem={theorem}", f"--m={m!r}", f"--ell={ell!r}",
                f"--a={a!r}", f"--b={b!r}", f"--q={q!r}"]
        argv += [f"--s={s!r}"] if s is not None else []
        argv += [f"--p={p!r}"] if p is not None else []
        return CliRequest(kind, tuple(argv), q=q, p=p,
                          means=(family, m, ell, s, a, b))

    fn = _draw_fn(rng)
    if kind == "optimize-rule":
        q, p = _draw_qp(rng)
        if rng.random() < 0.5:
            p = None
        argv = ["optimize", "--what=rule", *_fn_args(fn), f"--q={q!r}"]
        argv += [f"--p={p!r}"] if p is not None else []
        return CliRequest(kind, tuple(argv), fn, q=q, p=p)
    if kind == "sweep-lambda":
        q, p = _draw_qp(rng)
        if rng.random() < 0.5:
            p = None  # optimize_p at every grid point
        step = rng.choice((0.05, 0.1, 0.125, 0.25))
        grid, k = [], 0
        while k * step <= 0.5 + 1e-12:
            grid.append(k * step)
            k += 1
        argv = ["sweep", "--axis=lambda", *_fn_args(fn), f"--q={q!r}",
                "--from=0.0", "--to=0.5", f"--step={step!r}"]
        argv += [f"--p={p!r}"] if p is not None else []
        return CliRequest(kind, tuple(argv), fn, q=q, p=p, grid=tuple(grid))

    name, lam, mu, rule_args = _draw_rule(rng)
    if kind == "bound-q1":
        q, p = 1.0, None
    else:
        q, p = _draw_qp(rng)
        if kind != "bound-pq":
            p = None
    command = ["optimize", "--what=p"] if kind == "optimize-p" else ["bound"]
    argv = [*command, *_fn_args(fn), *rule_args, f"--q={q!r}"]
    argv += [f"--p={p!r}"] if p is not None else []
    return CliRequest(kind, tuple(argv), fn, name, lam, mu, q, p)


def _make_cli(seed: int, stream: str) -> Iterator[CliRequest]:
    """Fresh requests, drawn one at a time, so that no request repeats."""
    rng = random.Random(f"cli-requests:{seed}:{stream}")
    while True:
        for kind in rng.sample(_KINDS, len(_KINDS)):
            yield _draw_request(kind, rng)


def _op_cli(req: CliRequest) -> tuple[Optional[int], str, str]:
    """Exit code (None if argparse raised SystemExit), stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(req.argv))
        except SystemExit:
            code = None
    return code, out.getvalue(), err.getvalue()


def _close(x: float, y: float, scale: float, rel: float = 1e-9) -> bool:
    return abs(x - y) <= rel * scale


def _check_bound(req: CliRequest, doc: dict, code: int) -> Optional[tuple[str, str]]:
    fn = req.fn
    ref = fn.deficit(req.lam, req.mu)
    if not _close(doc["lhs"], ref, fn.scale()):
        return WRONG, f"lhs {doc['lhs']!r} != closed-form deficit {ref!r}"
    if not _close(doc["slack"], doc["rhs"] - abs(doc["lhs"]), 1 + abs(doc["rhs"]), 1e-12):
        return WRONG, "slack != rhs - |lhs|"
    valid = doc["certificate"]["valid"]
    expected = 2 if not valid else (0 if doc["slack"] >= 0 else 1)
    if code != expected:
        return WRONG, f"exit {code} disagrees with certificate/slack (expected {expected})"
    if req.q == 1 and req.rule is not None:
        _, c = _NAMED[req.rule]
        rhs = c * (fn.b - fn.a) * (abs(fn.df(fn.a)) + abs(fn.df(fn.b)))
        if not _close(doc["rhs"], rhs, abs(rhs), 1e-12):
            return WRONG, f"rhs {doc['rhs']!r} != {req.rule} constant bound {rhs!r}"
    if req.q > 1:
        p = doc["p"]
        if (req.p is not None and p != req.p) or not 0 < p <= req.q:
            return WRONG, f"reported p {p!r} for q={req.q}, requested p={req.p}"
    if code == 1:
        return FAILED, f"bound violated: slack {doc['slack']!r}"
    return None


def _check_cli(req: CliRequest, out: tuple[int, str, str]) -> Optional[tuple[str, str]]:
    code, stdout, stderr = out
    if code is None:
        return FAILED, f"argv rejected: {stderr.strip()[-200:]}"
    if code == 1 and not (req.kind.startswith("bound") and stdout):
        return FAILED, f"exit 1: {stderr.strip()[-200:]}"
    if req.kind.startswith("bound"):
        return _check_bound(req, json.loads(stdout), code)
    if code != 0:
        return WRONG, f"exit {code} from {req.kind}"
    if req.kind == "sweep-lambda":
        lines = stdout.splitlines()
        if lines[0] != "axis,value,lhs_abs,rhs,slack,formula_id" or len(lines) != len(req.grid) + 1:
            return WRONG, f"sweep printed {len(lines)} lines for {len(req.grid)} grid points"
        for v, line in zip(req.grid, lines[1:]):
            _, value, lhs_abs, rhs, slack, _ = line.split(",")
            ref = abs(req.fn.deficit(v, 1 - v))
            if not (_close(float(value), v, 1, 1e-12)
                    and _close(float(lhs_abs), ref, req.fn.scale())
                    and _close(float(slack), float(rhs) - float(lhs_abs), 1 + float(rhs), 1e-12)):
                return WRONG, f"sweep row {line!r} disagrees with lambda={v}, |deficit|={ref!r}"
        return None
    doc = json.loads(stdout)
    if req.kind == "optimize-p":
        if not (0 < doc["p_star"] <= req.q and 0 <= doc["rhs_star"] < math.inf):
            return WRONG, f"optimize p returned p*={doc['p_star']!r}, rhs*={doc['rhs_star']!r}"
        return None
    if req.kind == "optimize-rule":
        mode = "pq" if req.p is None else "general"
        if not (doc["mode"] == mode and 0 <= doc["lambda_star"] <= 0.5 <= doc["mu_star"] <= 1
                and 0 <= doc["rhs_star"] < math.inf):
            return WRONG, f"optimize rule returned {doc}"
        return None
    family, m, ell, s, a, b = req.means
    if family == "log":
        combo = (2 * ell * (math.log(a) + math.log(b)) / 2 + (m - 2 * ell) * math.log((a + b) / 2)) / m
        mean = (b * math.log(b) - a * math.log(a)) / (b - a) - 1
    else:
        s = -1.0 if family == "harmonic" else s
        combo = (2 * ell * (a**s + b**s) / 2 + (m - 2 * ell) * ((a + b) / 2) ** s) / m
        mean = _power_mean(s, a, b)
    if not _close(doc["gap"], combo - mean, 1 + abs(combo) + abs(mean)):
        return WRONG, f"means gap {doc['gap']!r} != closed form {combo - mean!r}"
    if not _close(doc["slack"], doc["rhs"] - abs(doc["gap"]), 1 + abs(doc["rhs"]), 1e-12):
        return WRONG, "means slack != rhs - |gap|"
    return None


WORKLOADS = {
    w.name: w for w in (
        Workload("verify-campaign", _make_verify, _op_verify, _check_verify, 100, 99.0),
        Workload("moment-oracle", _make_moment, _op_moment, _check_moment, 10, 98.0),
        Workload("cli-requests", _make_cli, _op_cli, _check_cli, 40, 99.0),
    )
}
