"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py [--workloads W ...] [--seeds 1 2 ...]
                                 [--seconds S] [--trace 0|1] [--out FILE]

Runs ``run.py`` once per (workload, seed), one run at a time, and prints for
each metric its median, quartiles (``statistics.quantiles(values, n=4)``) and
the interquartile spread as a share of the median, next to the metric's
bound from BENCHMARK.json.  ``--out`` also writes the summary as JSON.
Exits 1 if any run failed or reported an incorrect output.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            return next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary, ok, environment = {}, True, {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            environment = {k: v for k, v in json.loads(lines[-2]).items()
                           if k in ("nproc", "python", "numpy")}
            ok &= result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  file=sys.stderr)
        rows = {}
        for name in (runs[0]["metrics"] if runs else {}):
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else float("nan")
            rows[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                          "q1": q1, "q3": q3, "spread": spread, "bound": bounds.get(name),
                          "values": values}
            bound = bounds.get(name)
            print(f"{workload:16s} {name:42s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.2%}" + (f"  bound {bound:.0%}" if bound else ""))
        summary[workload] = {"seeds": args.seeds, "seconds": args.seconds,
                             "environment": {**environment, "cpu": cpu_model()},
                             "failed": sum(r["failed"] for r in runs),
                             "attempted": sum(r["attempted"] for r in runs), "metrics": rows}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
