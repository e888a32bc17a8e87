"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402
from quadbound import bounds  # noqa: E402

WORK_COUNTERS = ("oracle.integrate.evaluations", "convexity.certify_convex.samples",
                 "expr.eval.points", "bounds.bound_pq.calls")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_work_counters_repeat_exactly(workload):
    results = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    first, second = ({k: r["metrics"][k]["value"] for k in WORK_COUNTERS} for r in results)
    assert first == second
    assert set(results[0]["metrics"]) == {m["name"] for m in
                                          json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert results[0]["correct"] and results[0]["failed"] == 0


def test_end_to_end_result_line():
    proc = bench("--workload", "cli-requests", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli-requests", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_the_program():
    from quadbound import cli
    before = (bounds.bound_pq, cli.certify_convex, cli.as_function)
    with spans.Tracer().install():
        assert bounds.bound_pq is not before[0]
    assert (bounds.bound_pq, cli.certify_convex, cli.as_function) == before


def test_streams_are_seeded_and_independent():
    for wl in workloads.WORKLOADS.values():
        # A CLI request is identified by its argv; its Fn holds fresh closures.
        first, again, warm = ([getattr(item, "argv", item)
                               for item in itertools.islice(wl.make(5, stream), 40)]
                              for stream in ("timed", "timed", "warm-up"))
        assert first == again
        assert not set(first) & set(warm)


def test_cli_requests_do_not_repeat():
    requests = itertools.islice(workloads.WORKLOADS["cli-requests"].make(5, "timed"), 2000)
    argvs = [r.argv for r in requests]
    assert len(set(argvs)) == len(argvs)


def test_checks_reject_wrong_outputs():
    moment = workloads.WORKLOADS["moment-oracle"]
    op = list(itertools.islice(moment.make(5, "timed"), 2))[1]
    value = moment.op(op)
    assert moment.check(op, value) is None
    assert moment.check(op, value + 1e-9)[0] == workloads.WRONG

    cli_wl = workloads.WORKLOADS["cli-requests"]
    req = next(r for r in cli_wl.make(5, "timed") if r.kind == "bound-q1")
    code, stdout, stderr = cli_wl.op(req)
    assert cli_wl.check(req, (code, stdout, stderr)) is None
    doc = json.loads(stdout)
    doc["lhs"] += 1e-6
    assert cli_wl.check(req, (code, json.dumps(doc), stderr))[0] == workloads.WRONG
    assert cli_wl.check(req, (None, "", "usage: error"))[0] == workloads.FAILED
