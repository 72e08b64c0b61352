#!/usr/bin/env python3
"""Time the enumeration oracle and the reversal certificate built on it.

    PYTHONPATH=src python3 scripts/bench_reversal.py [--out BENCH_reversal.json]

Measures, in one process:

* the enumeration rate of ``path_matrix`` in paths per second: one call
  that builds the 3^10 paths of the uniform {-1, 0, +1} law (the median of
  five calls);
* the seconds of ``certify_reversal`` at ``max_length`` 8 (the benchmark's
  ``exact-enum`` size) and 10 (the acceptance size): the median of five
  runs after one warm-up.

The file has the schema of ``BENCH_norming.json`` (``correct``,
``attempted``, ``failed`` and ``metrics``, and the provenance under
``info``).  ``correct`` is true when every certificate run passed.
"""

import argparse
import json
import os
import statistics
import sys
from time import perf_counter

from bench_norming import ROOT, provenance
from fluctwalk.certify import certify_reversal
from fluctwalk.increments import IncrementLaw
from fluctwalk.oracle import path_matrix

ENUM_LAW, ENUM_LENGTH = IncrementLaw.uniform3(), 10
MAX_LENGTHS = (8, 10)
REPS = 5


def paths_per_second():
    rates = []
    for _ in range(REPS):
        t0 = perf_counter()
        n = len(path_matrix(ENUM_LAW, ENUM_LENGTH)[0])
        rates.append(n / (perf_counter() - t0))
    return statistics.median(rates)


def run(out_path):
    metrics = {"oracle.paths_per_s": {"value": paths_per_second(), "unit": "1/s"}}
    times, passed = {}, []
    for max_length in MAX_LENGTHS:
        runs = []
        for _ in range(REPS + 1):
            t0 = perf_counter()
            passed.append(certify_reversal(max_length).passed)
            runs.append(perf_counter() - t0)
        times[f"max_length{max_length}"] = runs
        metrics[f"certify_reversal.max_length{max_length}_s"] = {
            "value": statistics.median(runs[1:]), "unit": "s"}
    failed = passed.count(False)
    result = {"info": {"provenance": provenance(), "certify_reversal_s": times},
              "correct": failed == 0, "attempted": len(passed), "failed": failed,
              "metrics": metrics}
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return result


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_reversal.json"))
    result = run(parser.parse_args().out)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")}))
    sys.exit(0 if result["correct"] else 1)
