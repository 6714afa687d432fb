#!/usr/bin/env python3
"""Write perfbench/reference.json: the pool of data seeds that
repro-small-batch and csv-large-batch draw from, and the results rows
their checks compare against.

The pool is the first POOL data seeds on which every op succeeds; a seed
on which one fails (for instance SGD diverging) is listed under
"excluded" with the error. Run from the root of a checkout, only when a
change is meant to alter these results, and say so where the change is
described:

    python3 perfbench/record_reference.py
"""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads, as the benchmark runs it
sys.path.insert(0, str(ROOT / "src"))

from viloss import cli  # noqa: E402
from viloss.data import SynthSpec  # noqa: E402
from workloads import (CSV_EPOCHS, POOL, REFERENCE, REPRO_EPOCHS,  # noqa: E402
                       CsvLargeBatch, quiet, repro_argv)


def results(seed, tmp, csv) -> tuple[dict, list]:
    """results.csv text of each op for one data seed, and the errors."""
    texts, errors = {}, []
    for name in ("synth-1d", "logistic-synth", "csv-large-batch"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            if name == "csv-large-batch":
                csv.data_seed = seed
                cli.save_csv(cli.generate_synth(SynthSpec("synth-2d", n=csv.n, seed=seed)),
                             csv.csv)
                code, _ = quiet(csv.argv("train"))
                out = csv.run_dir / "results.csv"
            else:
                code, _ = quiet(repro_argv(name, seed, REPRO_EPOCHS, tmp))
                out = tmp / "results.csv"
        if code == 0:
            texts[name] = out.read_text()
        else:
            errors.append(f"{name}: {err.getvalue().strip().splitlines()[-1]}")
    return texts, errors


def main() -> int:
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    ref = {"recorded_at_commit": commit, "repro_epochs": REPRO_EPOCHS, "csv_epochs": CSV_EPOCHS,
           "pool": [], "excluded": {}, "repro": {"synth-1d": {}, "logistic-synth": {}},
           "csv-large-batch": {}}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        csv = CsvLargeBatch(0, False, Path(tmp))
        for seed in itertools.takewhile(lambda _: len(ref["pool"]) < POOL, itertools.count()):
            texts, errors = results(seed, Path(tmp), csv)
            if errors:
                ref["excluded"][str(seed)] = errors
                print(f"seed {seed} excluded: {errors}", flush=True)
                continue
            ref["pool"].append(seed)
            ref["csv-large-batch"][str(seed)] = texts.pop("csv-large-batch")
            for name, text in texts.items():
                ref["repro"][name][str(seed)] = text
            print(f"seed {seed} recorded", flush=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
