"""One benchmark workload in one process; started by run.py.

Prints the environment, any failed checks, a table of every metric with
its unit (``n/a`` where the workload does not exercise it) and, as the
last line, one JSON object with the metrics BENCHMARK.json lists: its
end-to-end metrics with ``--trace 0``, its per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"  # scratch files and traces, inside the checkout
SETUP_REPEATS = 7

sys.path.insert(0, str(ROOT / "src"))
import numpy as np  # noqa: E402
import viloss  # noqa: E402
import viloss.cli  # noqa: E402

from catalog import COMPUTED, END_TO_END, PER_LAYER  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class OpFailed(Exception):
    pass


def calibrate() -> float:
    """Seconds for a fixed mix of the kinds of work viloss does: an
    interpreted loop building a dict of tuple keys, small numpy calls,
    gathered 500-row matmuls, and a sort of a larger array (about 30 ms).

    The machine's speed drifts by up to 2x over minutes (see README.md), so
    the benchmark runs this around every op and also reports each pass in
    its units (wall_rel): the drift divides out, the program's cost does not.
    """
    t0 = perf_counter()
    cells: dict = {}
    for i, key in enumerate(map(tuple, (np.arange(12_000)[:, None] * [7, 13]) % 50)):
        cells.setdefault(key, []).append(i)
    w, x = np.zeros(8), np.ones((1, 8))
    for _ in range(300):
        w -= 0.01 * (x @ w - 1.0) * x[0]
    phi, v = np.ones((5_000, 28)), np.zeros(28)
    for k in range(100):
        batch = phi[np.arange(k, 5_000, 10)]
        v -= 1e-6 * (batch @ v - 1.0) @ batch
    np.sort(np.sin(np.arange(100_000.0)))
    return perf_counter() - t0


class Runner:
    """Times the ops of a pass and records which ops failed their checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failures: dict[int, list[str]] = {}  # op id -> problems
        self.labels: list[str] = []  # by op id
        self.pass_of: list[int] = []  # by op id
        self.op = -1
        self.pass_index = 0
        self.pass_times: list[float] = []  # each op of the current pass
        self.pass_calibration: list[float] = []  # before each op, and after the last

    def call(self, label, fn, *args):
        self.op = self.attempted
        self.attempted += 1
        self.labels.append(label)
        self.pass_of.append(self.pass_index)
        if self.tracer is not None:
            self.tracer.op = self.op
        self.pass_calibration.append(calibrate())
        t0 = perf_counter()
        try:
            return fn(*args)
        except Exception as exc:
            self.check(False, f"raised {exc!r}")
            raise OpFailed from exc
        finally:
            self.pass_times.append(perf_counter() - t0)

    def end_pass(self) -> tuple[float, float]:
        """(wall time, wall time in calibration units) of the pass just run;
        each op's time is divided by the mean of the calibrations around it."""
        c = self.pass_calibration + [calibrate()]
        rel = sum(t / (0.5 * (a + b)) for t, a, b in zip(self.pass_times, c, c[1:]))
        wall = sum(self.pass_times)
        self.pass_times, self.pass_calibration = [], []
        return wall, rel

    def check(self, ok, problem, op=None) -> bool:
        if not ok:
            self.failures.setdefault(self.op if op is None else op, []).append(problem)
        return bool(ok)

    def report(self, problems, op=None) -> None:
        for problem in problems:
            self.check(False, problem, op)


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing viloss's CLI."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import viloss.cli"], check=True, cwd=ROOT)
    return perf_counter() - t0


def setup(workload, repeats) -> float:
    times = []
    for _ in range(repeats):
        t = import_seconds()
        t0 = perf_counter()
        workload.generate()
        times.append(t + perf_counter() - t0)
    return statistics.median(times)


def run_passes(workload, runner, seconds, tracer):
    """Closed loop: passes until ``seconds`` have passed and the workload's
    minimum is met. With a tracer, passes alternate untraced and traced.

    Returns, for untraced and traced passes, each pass's wall time and its
    time in calibration units."""
    walls, rels = {False: [], True: []}, {False: [], True: []}
    min_passes = max(workload.min_passes, 2 if tracer else 1)
    deadline = perf_counter() + seconds
    i = 0
    while i < min_passes or perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        runner.pass_index = i
        if traced:
            tracer.install()
        try:
            workload.run_pass(runner, i)
        except OpFailed:
            pass
        finally:
            if traced:
                tracer.remove()
        wall, rel = runner.end_pass()
        walls[traced].append(wall)
        rels[traced].append(rel)
        i += 1
    return walls, rels


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas['name']} {blas['version']}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def fmt(value) -> str:
    if value is None:
        return "n/a"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, no reference")
    args = parser.parse_args(argv)

    if not Path(viloss.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported viloss from {viloss.__file__}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        tracer = Tracer(viloss) if args.trace else None
        if tracer:
            tracer.op = "setup"
            tracer.install()
        try:
            setup_s = setup(workload, 1 if tracer else SETUP_REPEATS)
        finally:
            if tracer:
                tracer.remove()
        runner = Runner(tracer)
        walls, rels = run_passes(workload, runner, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        quality = workload.finish(runner, args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wall_s = statistics.median(walls[False])
    failed = len(runner.failures)
    if tracer:
        overhead = statistics.median(walls[True]) - wall_s
        metrics = layer_metrics(
            tracer.spans, lambda op: op if op == "setup" else runner.pass_of[op], overhead)
        units, wanted = PER_LAYER, spec["per_layer"]
        tracer.write(RUNS / f"trace-{args.workload}-seed{args.seed}.json", runner.labels)
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "wall_rel": statistics.median(rels[False]),
            "train_samples_per_s": workload.train_samples / wall_s if workload.train_samples else None,
            "weigh_rows_per_s": workload.weighed_rows / wall_s,
            "peak_rss_mb": peak_rss_mb,
            "fail_rate": failed / runner.attempted,
            "mae_ratio": quality.get("mae_ratio"),
            "gamma_auc": quality.get("gamma_auc"),
        }
        units, wanted = END_TO_END, spec["end_to_end"]

    print("env:", json.dumps(environment(), sort_keys=True))
    print(f"workload: {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f" passes={len(walls[False])} untraced, {len(walls[True])} traced")
    print("untraced pass wall_s:", " ".join(f"{w:.4f}" for w in walls[False]))
    print("untraced pass wall_rel:", " ".join(f"{r:.3f}" for r in rels[False]))
    if tracer and tracer.missing:
        print("not traced (no longer in viloss):", ", ".join(tracer.missing))
    for op, problems in sorted(runner.failures.items()):
        for problem in problems:
            print(f"FAILED op {op} ({runner.labels[op]}): {problem}")
    print(f"{'metric':<26} {'value':>14}  unit")
    for name, unit in units.items():
        print(f"{name:<26} {fmt(metrics[name]):>14}  {unit}{'  computed' * (name in COMPUTED)}")
    out = {}
    for m in wanted:
        if m["unit"] != units[m["name"]]:
            raise SystemExit(f"BENCHMARK.json unit of {m['name']} is not {units[m['name']]}")
        value = metrics[m["name"]]
        out[m["name"]] = {"value": 0 if value is None else value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
