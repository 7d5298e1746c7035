#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny input size.

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json it checks that
  * the untraced run prints exactly the end-to-end metrics, each with its
    declared unit, and the traced run exactly the per-layer metrics;
  * the exact oracle reports zero failed operations;
  * a deliberately perturbed oracle (--perturb-oracle) drives the failure
    share above zero and the run reads as incorrect.
Exits non-zero on the first workload that breaks any of these.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--scale", "0.02",
           *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if p.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr[-2000:]}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    keys = sorted(result)
    if keys != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{workload}: result keys {keys}")
    return result


def check_metrics(workload, result, declared):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise AssertionError(f"{workload}: missing {missing}, unexpected {extra}, "
                             f"wrong units {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{workload}: {name} is not a number")


def main():
    for w in (w["name"] for w in SPEC["workloads"]):
        plain = run(w, 0)
        check_metrics(w, plain, SPEC["end_to_end"])
        if plain["failed"] != 0 or not plain["correct"] or plain["attempted"] < 1:
            raise AssertionError(f"{w}: oracle reports {plain['failed']} failures at HEAD")

        traced = run(w, 1)
        check_metrics(w, traced, SPEC["per_layer"])
        if traced["failed"] != 0 or not traced["correct"]:
            raise AssertionError(f"{w}: traced run reports {traced['failed']} failures")

        perturbed = run(w, 0, "--perturb-oracle")
        share = perturbed["failed"] / perturbed["attempted"]
        if share <= 0 or perturbed["correct"]:
            raise AssertionError(f"{w}: a perturbed oracle still reads as correct")
        print(f"ok {w}: {len(plain['metrics'])} end-to-end and "
              f"{len(traced['metrics'])} per-layer metrics, 0 failures at HEAD, "
              f"failure share {share:.2e} with a perturbed oracle")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        print(f"smoke test FAILED: {e}", file=sys.stderr)
        sys.exit(1)
