#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics across seeds.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 [--workloads live-search ...]
                                    [--trace 0|1] [--first-seed 101]
                                    [--json OUT]

Runs `perfbench/run.py` once per seed for each workload, then prints, per
workload and metric, the median and quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median. With --trace 0 each spread is compared
with its bound in BENCHMARK.json: "ok" below a third of the bound, "WIDE"
above the bound. Every raw value is kept in the --json output, with each run's
steal share of the host's CPU over the window.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STEAL = "host.steal_pct (diagnostic)"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness check failed")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    steal = [l for l in lines if l.startswith("# host steal_pct=")]
    if steal:
        values[STEAL] = float(steal[0].split("=")[1].split()[0])
    return values


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else 0.0
    return q1, q2, q3, spread


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    for workload in args.workloads:
        runs = [run_once(workload, args.first_seed + i, args.seconds, args.trace)
                for i in range(args.runs)]
        raw[workload] = runs
        print(f"\n{workload} ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, trace={args.trace})")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name in runs[0]:
            q1, q2, q3, spread = summarize([r[name] for r in runs])
            verdict = ""
            if name in bounds and args.trace == 0:
                bound = bounds[name]
                verdict = ("ok" if spread < bound / 3 else
                           "WIDE" if spread > bound else "within bound")
                verdict += f" (bound {bound})"
            print(f"  {name:34} {q2:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {verdict}")
        sys.stdout.flush()
    if args.json:
        args.json.write_text(json.dumps(raw, indent=1) + "\n")


if __name__ == "__main__":
    main()
