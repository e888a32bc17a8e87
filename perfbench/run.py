"""quadbound benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the program from
``src/`` there and from nowhere else.  Workloads (see workloads.py):
``verify-campaign``, ``moment-oracle``, ``cli-requests``.  One process, one
thread, a closed loop with a single caller: each op starts when the previous
one has returned.

``--trace 0`` times the workload untraced for S seconds and reports the
end-to-end metrics: ``setup_s`` (median over fresh interpreters, from launch
until the inputs are ready), ``ops_per_s``, ``op_p50_ms`` and ``op_tail_ms``
(the latency at the workload's fixed tail percentile; the number of ops
beyond it is printed beside it).  All four are scaled to the nominal machine
speed measured by the calibration kernel (speed.py); the raw wall-clock
figures are printed beside them.  ``failed_share`` is printed with them and
carried exactly by the ``attempted``/``failed`` fields.

``--trace 1`` replays a fixed prefix of the same inputs, each op once
untraced and once with spans recorded around every layer function
(spans.py), and reports per-layer calls, self time and work counters, plus
``tracing.overhead_share``, the traced ops' extra time over the untraced ones.

Every op's output is checked against a reference that does not use the timed
code path.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seed, nproc and the Python and numpy versions.  The exit status
is 0 unless an output disagreed with its reference, or the program could not
be imported (then nothing is printed on stdout).
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported; child
# processes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_SAMPLES = 15
SETUP_KERNEL_RUNS = 10  # calibration kernel runs before and after each set-up child
WARMUP_S = 0.5
MAX_REASONS = 5


def load_workloads():
    """Import the program from ./src, then the workload definitions."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import quadbound
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import quadbound from {SRC}: {exc}")
    if Path(quadbound.__file__).resolve().parent != SRC / "quadbound":
        sys.exit(f"perfbench: quadbound was imported from {quadbound.__file__}, not {SRC}")
    import workloads
    return workloads


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds from launching a fresh interpreter until it has imported the
    program and built the workload's inputs, once per child: raw, and scaled
    by the calibration kernel run just before and just after the child."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    samples, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        before = [speed.kernel() for _ in range(SETUP_KERNEL_RUNS)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"perfbench: set-up child exited {code} without getting ready")
        after = [speed.kernel() for _ in range(SETUP_KERNEL_RUNS)]
        samples.append(ready - start)
        scaled.append(samples[-1] * speed.NOMINAL_S / statistics.median(before + after))
    return samples, scaled


def run_op(wl, item):
    try:
        return wl.op(item), None
    except Exception as exc:  # a failed op is counted, and the run goes on
        return None, exc


def warm_up(wl, items) -> None:
    """Run ops and the calibration kernel untimed for WARMUP_S so that lazy
    set-up is done before timing."""
    deadline = time.perf_counter() + WARMUP_S
    while time.perf_counter() < deadline:
        speed.kernel()
        run_op(wl, next(items))


def timed_loop(wl, items, seconds: float, meter):
    """Closed loop over the items for `seconds`, with the calibration kernel
    run between ops when due.  Drawing an item is not timed.  Returns the
    per-op latencies, each op's speed factor and (item, output, error)."""
    clock = time.perf_counter
    latencies, calibration, outcomes = [], [], []
    now = clock()
    deadline = now + seconds
    while now < deadline:
        calibration.append(meter.tick())
        item = next(items)
        t0 = clock()
        out, exc = run_op(wl, item)
        now = clock()
        latencies.append(now - t0)
        outcomes.append((item, out, exc))
    meter.tick()
    return np.array(latencies), meter.factors(calibration), outcomes


def tally(workloads, wl, outcomes) -> tuple[int, int, list[str]]:
    """(failed ops, ops whose output disagreed with the reference, reasons)."""
    failed = wrong = 0
    reasons = []
    for item, out, exc in outcomes:
        if exc is not None:
            verdict = (workloads.FAILED, f"{type(exc).__name__}: {exc}")
        else:
            try:
                verdict = wl.check(item, out)
            except (ValueError, KeyError, IndexError, TypeError) as err:
                verdict = (workloads.WRONG, f"unreadable output ({err!r}): {out!r}"[:300])
        if verdict is not None:
            failed += 1
            wrong += verdict[0] == workloads.WRONG
            if len(reasons) < MAX_REASONS:
                reasons.append(f"{verdict[0]}: {verdict[1]}")
    return failed, wrong, reasons


def figures(latencies, tail_percentile: float) -> tuple[float, float, float, int]:
    """ops_per_s, op_p50_ms, op_tail_ms and the number of ops beyond the tail."""
    lat = np.sort(latencies)
    n = len(lat)
    beyond = int(n * (100 - tail_percentile) / 100)
    return n / lat.sum(), 1e3 * float(np.median(lat)), 1e3 * float(lat[n - 1 - beyond]), beyond


def end_to_end(workloads, wl, args, info):
    setup_raw, setup = measure_setup(args.workload, args.seed)
    warm_up(wl, wl.make(args.seed, "warm-up"))
    meter = speed.Speed()
    latencies, factors, outcomes = timed_loop(wl, wl.make(args.seed, "timed"), args.seconds, meter)
    failed, wrong, reasons = tally(workloads, wl, outcomes)

    n = len(latencies)
    ops_per_s, p50_ms, tail_ms, beyond = figures(latencies * factors, wl.tail_percentile)
    raw = figures(latencies, wl.tail_percentile)
    info.update(op_tail_percentile=wl.tail_percentile, op_tail_beyond=beyond,
                failed_share=failed / n, setup_samples_s=setup, setup_raw_samples_s=setup_raw,
                kernel_median_ms=1e3 * statistics.median(meter.kernel_s),
                kernel_runs=len(meter.kernel_s),
                raw={"setup_s": statistics.median(setup_raw), "ops_per_s": raw[0],
                     "op_p50_ms": raw[1], "op_tail_ms": raw[2]})
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50_ms, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
    }
    return metrics, n, failed, wrong, reasons


def per_layer(workloads, wl, args, info):
    import spans

    items = list(itertools.islice(wl.make(args.seed, "timed"), wl.trace_ops_per_s * args.seconds))
    warm_up(wl, wl.make(args.seed, "warm-up"))
    tracer = spans.Tracer()
    elapsed = {False: 0.0, True: 0.0}
    outcomes = {False: [], True: []}
    # Each op runs untraced and traced back to back, in alternating order, so
    # that drifts in machine speed cancel out of the tracing overhead.
    for i, item in enumerate(items):
        for traced in ((False, True) if i % 2 else (True, False)):
            with tracer.install() if traced else contextlib.nullcontext():
                start = time.perf_counter()
                out, exc = run_op(wl, item)
                elapsed[traced] += time.perf_counter() - start
            outcomes[traced].append((item, out, exc))
    failed, wrong, reasons = tally(workloads, wl, outcomes[True])
    wrong += tally(workloads, wl, outcomes[False])[1]

    metrics = tracer.metrics()
    metrics["tracing.overhead_share"] = (elapsed[True] / elapsed[False] - 1, "share")
    info.update(spans=len(tracer.start), untraced_s=elapsed[False], traced_s=elapsed[True])
    return metrics, len(items), failed, wrong, reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print 'ready' and exit (set-up timing)")
    args = parser.parse_args(argv)

    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl.make(args.seed, "timed")
        print("ready", flush=True)
        return 0
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__}
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, wrong, reasons = measure(workloads, wl, args, info)

    for reason in reasons:
        print(f"perfbench: {reason}", file=sys.stderr)
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{args.workload:16s} {name:12s} {value:12.6g} {unit:4s}"
                  f" (raw wall clock {info['raw'][name]:.6g})")
        print(f"{args.workload:16s} {'failed_share':12s} {failed / attempted:12.6g} share "
              f"({failed}/{attempted})")
    print(json.dumps(info))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
