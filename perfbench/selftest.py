#!/usr/bin/env python3
"""Sensitivity self-check of the benchmark's per-layer attribution.

Run from the repository root:

    python3 perfbench/selftest.py [--delay-us 50] [--seconds 5] [--seed 7]

The benchmark's ProxyHandler decorator can busy-wait a fixed delay inside
the proxy span of every request (--inject-delay-us). This script runs traced
workloads with and without that delay and checks that the cost shows up
where it was put. On proxy-saturation:

  * proxy.query_us.p50 and the end-to-end p50 rise by about the delay;
  * net.rtt_self_us.p50 (client span minus proxy span) stays within the
    p50_ms bound of BENCHMARK.json, and engine.search_or_us.p50 stays 0.

On live-search, the only workload that calls the engine, it checks that
engine.search_or_us.p50 stays within that bound too.

The default delay, 50 us, is close to one proxy-saturation request. Larger
delays lower the closed loop's request rate enough that threads sleep
longer between requests and wake more slowly on this VM: net.rtt_self_us
then rises by about 0.12 us per us of delay, past the bound at 200 us.
Exits 1 if any check fails.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# "About the delay": within a quarter of it, plus timer slack.
RISE_TOLERANCE = 0.25
RISE_SLACK_US = 10.0


def traced_run(workload, seed, seconds, delay_us):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
           "--inject-delay-us", str(delay_us)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} delay {delay_us}: exit {proc.returncode}")
    return {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-us", type=float, default=50.0)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "p50_ms")
    delay = args.delay_us

    failures = 0

    def check(label, ok, detail):
        nonlocal failures
        failures += 0 if ok else 1
        print(f"  {'PASS' if ok else 'FAIL'}  {label:32} {detail}")

    def compare(workload, rises, steady):
        base = traced_run(workload, args.seed, args.seconds, 0)
        slow = traced_run(workload, args.seed, args.seconds, delay)
        print(f"{workload}: injected {delay:g} us per request")
        for name, scale in rises:
            rise = (slow[name] - base[name]) * scale
            ok = abs(rise - delay) <= RISE_TOLERANCE * delay + RISE_SLACK_US
            check(name, ok, f"{base[name]:.4g} -> {slow[name]:.4g} (rise {rise:.1f} us)")
        for name in steady:
            if base[name] == 0:
                ok = slow[name] == 0
            else:
                ok = abs(slow[name] / base[name] - 1) <= bound
            check(name, ok, f"{base[name]:.4g} -> {slow[name]:.4g} (bound {bound})")

    compare("proxy-saturation",
            (("proxy.query_us.p50", 1.0), ("traced.p50_ms", 1000.0)),
            ("net.rtt_self_us.p50", "engine.search_or_us.p50"))
    compare("live-search", (), ("engine.search_or_us.p50",))
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
