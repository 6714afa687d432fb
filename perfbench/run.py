#!/usr/bin/env python3
"""Benchmark launcher for viloss.

Runs each workload in its own process with BLAS/OpenMP pinned to one
thread, from the root of a source checkout (viloss is imported from
``src/``; nothing is installed):

    python3 perfbench/run.py --workload weigh-1e5 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

``--workload all`` runs the three workloads one after another. ``--smoke``
runs every workload at tiny size, traced and untraced, and fails unless
every metric is printed with its unit (or as n/a) and every check passes.
See perfbench/README.md for the metrics, the seeds and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TIMEOUT_S = 170  # each workload process; a run must end within 180 s


def run_workload(workload, seed, seconds, trace, smoke=False, capture=False):
    # No bytecode cache: every import compiles viloss from source, so setup_s
    # does not depend on what an earlier run left in the checkout.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               **dict.fromkeys(PINNED, "1"))
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd + ["--smoke"] * smoke, env=env, cwd=ROOT, timeout=TIMEOUT_S,
                          stdout=subprocess.PIPE if capture else None, text=True)


def run_all(args) -> int:
    """Every workload in turn; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = run_workload(workload, args.seed, args.seconds, args.trace, capture=True)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def smoke_problems(stdout: str, trace: int) -> list[str]:
    expected = PER_LAYER if trace else END_TO_END
    problems = []
    for name, unit in expected.items():
        if not re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}( +computed)?$",
                         stdout, re.M):
            problems.append(f"{name} not printed with unit {unit}")
    result = json.loads(stdout.splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"checks failed: {stdout}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != listed:
        problems.append(f"result metrics {sorted(result['metrics'])}")
    return problems


def run_smoke() -> int:
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_workload(workload, 0, 1, trace, smoke=True, capture=True)
            problems = ([f"exit code {proc.returncode}"] if proc.returncode
                        else smoke_problems(proc.stdout, trace))
            for problem in problems:
                print(f"smoke {workload} trace={trace}: {problem}")
            failures += bool(problems)
            if not problems:
                print(f"smoke {workload} trace={trace}: ok")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "viloss" / "__init__.py").is_file():
        print(f"error: no viloss sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return run_smoke()
        if args.workload == "all":
            return run_all(args)
        return run_workload(args.workload, args.seed, args.seconds, args.trace).returncode
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
