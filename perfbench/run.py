#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload live-search --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles ../src) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs the
benchmark binary. Build output goes to stderr; the binary's stdout is passed
through, so the last line is the JSON result. Scratch files (the sealed seed
checkpoints) live in a per-run directory under the build directory and are
removed afterwards; `--trace 1` keeps its span dump under
<build>/traces/. Exits non-zero, without a result line, when the build or
the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["live-search", "proxy-saturation", "batch-saturation", "new-users"]
RUN_TIMEOUT_S = 170


def build(source: Path, build_dir: Path) -> bool:
    configure = ["cmake", "-S", str(source), "-B", str(build_dir),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", str(build_dir), "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--inject-delay-us", type=float)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not build(root / "perfbench", build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = build_dir / f"work-{os.getpid()}"
    cmd = [str(build_dir / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    if args.trace:
        cmd += ["--trace-out",
                str(build_dir / "traces" / f"{args.workload}.csv")]
    if args.inject_delay_us is not None:
        cmd += ["--inject-delay-us", str(args.inject_delay_us)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
