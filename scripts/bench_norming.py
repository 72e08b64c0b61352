#!/usr/bin/env python3
"""Time the norming constant a_n and the command that reads it most.

    PYTHONPATH=src python3 scripts/bench_norming.py [--out BENCH_norming.json]

Measures, in one process:

* the seconds per ``norming_constant(law, [n])`` call on five lattice laws
  at n = 64, 512 and 4096 (the median of up to five calls, fewer when the
  calls take more than two seconds in all);
* the in-process seconds of ``converge theorem1 --law uniform3`` at the
  benchmark's ``pertrial`` size (n = 512, 500 trials, its pinned seed): the
  median of three runs after one that pays the lazy imports.

The file holds the benchmark's result object (``correct``, ``attempted``,
``failed`` and ``metrics``, each metric a value with its unit) and, under
``info``, the provenance: nproc, the Python and numpy versions, the git
SHA and whether tracked files differ from it.  ``correct`` is true when
every a_n is a finite number of at least 1 and every converge run ended
with a report (exit status 0 or 1).
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

import numpy as np

from fluctwalk.cli import main
from fluctwalk.increments import IncrementLaw
from fluctwalk.scaling import norming_constant

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
F = Fraction
LAWS = {
    "pm1": IncrementLaw.fair_pm1(),
    "uniform3": IncrementLaw.uniform3(),
    "biased": IncrementLaw.biased_pm1(F(3, 4)),
    "skip-up": IncrementLaw.lattice([-1, 2], [F(2, 3), F(1, 3)]),
    "five-atom": IncrementLaw.lattice([-2, -1, 0, 1, 2],
                                      [F(1, 10), F(1, 5), F(2, 5), F(1, 5), F(1, 10)]),
}
N_GRID = (64, 512, 4096)
THEOREM1 = ["--seed", "20240808", "--n-grid", "512", "--trials", "500",
            "converge", "theorem1", "--law", "uniform3"]


def a_n(law, n):
    return norming_constant(law, [n])[0]


def seconds_per_call(law, n, reps=5, budget=2.0):
    times, values = [], []
    while len(times) < reps and sum(times) < budget:
        t0 = perf_counter()
        values.append(a_n(law, n))
        times.append(perf_counter() - t0)
    return statistics.median(times), values[0]


def provenance():
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "git_sha": git("rev-parse", "HEAD") or None,
            "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def run(out_path):
    metrics, values, failed = {}, {}, 0
    for name, law in LAWS.items():
        for n in N_GRID:
            seconds, value = seconds_per_call(law, n)
            metrics[f"norming.{name}.n{n}_s"] = {"value": seconds, "unit": "s"}
            values[f"{name}.n{n}"] = value
            failed += not (math.isfinite(value) and value >= 1)
    times, codes = [], []
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(4):
            t0 = perf_counter()
            codes.append(main(["--out", tmp] + THEOREM1))
            times.append(perf_counter() - t0)
    metrics["converge.theorem1_uniform3_s"] = {"value": statistics.median(times[1:]),
                                               "unit": "s"}
    failed += sum(code not in (0, 1) for code in codes)
    result = {"info": {"provenance": provenance(), "a_n": values,
                       "theorem1_exit_codes": codes, "theorem1_s": times},
              "correct": failed == 0, "attempted": len(values) + len(codes), "failed": failed,
              "metrics": metrics}
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return result


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_norming.json"))
    result = run(parser.parse_args().out)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")}))
    sys.exit(0 if result["correct"] else 1)
