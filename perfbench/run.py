#!/usr/bin/env python3
"""Build and run the libfreq end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark (Release) under .bench_build/; later calls only rebuild what
changed. Every argument is passed on to the benchmark binary, whose last
line of output is the result object. Build output goes to stderr.
"""

import fcntl
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"


def build() -> pathlib.Path:
    """Configures (once) and builds the benchmark; returns the binary."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # The Makefile appears only once configuring has succeeded.
        if not (BUILD / "Makefile").exists():
            subprocess.run(
                ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                 "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                       check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def commit() -> str:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_timeout(args: list) -> float:
    """A run measures for --seconds; a traced one then replays its input
    through the lower layers, which takes at most as long again."""
    try:
        seconds = float(args[args.index("--seconds") + 1])
    except (ValueError, IndexError):
        seconds = 0.0
    return 2 * max(seconds, 0.0) + 120


def main() -> int:
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    TRACES.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), *sys.argv[1:], "--trace-dir", str(TRACES),
           "--commit", commit()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=run_timeout(sys.argv[1:])).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
