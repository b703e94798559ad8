"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads catalog users pool --seeds 1-10

Runs `run.py` once per (seed, workload), interleaving the workloads (and
reversing their order every other round) so that slow machine drift does
not land on one workload.  For each metric it prints the median, the
quartiles as statistics.quantiles(n=4) gives them, and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["catalog", "users", "pool"])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", default=os.path.join(HERE, "out", "spread.json"))
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    values = {w: {} for w in args.workloads}
    failures = 0
    for round_index, seed in enumerate(args.seeds):
        order = args.workloads if round_index % 2 == 0 else args.workloads[::-1]
        for workload in order:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(declared["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures += 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-1000:]}", file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            shown = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items() if n in ("run_s", "setup_s"))
            print(f"{workload} seed {seed}: correct={result['correct']} {shown}", flush=True)

    summary = {}
    for workload, metrics in values.items():
        for name, samples in metrics.items():
            median = statistics.median(samples)
            q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (median, median, median)
            spread = (q3 - q1) / median if median else 0.0
            summary.setdefault(workload, {})[name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name], "n": len(samples),
                "min": min(samples), "max": max(samples),
            }
            bound = bounds[name]
            flag = "ok" if spread <= bound / 3 else "WIDE" if spread <= bound else "OVER"
            print(f"{workload:8} {name:36} median={median:<12.5g} q1={q1:<12.5g} q3={q3:<12.5g} "
                  f"spread={spread:6.3f} bound={bound} {flag}")
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"seeds": args.seeds, "summary": summary, "values": values}, fh, indent=1)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
