#!/usr/bin/env python3
"""Time and trace the Monte Carlo row batches and their two biggest readers.

    PYTHONPATH=src python3 scripts/bench_rows.py [--out BENCH_rows.json]

Measures, in one process:

* steps per second of the ``sample_rows`` batches that ``iter_rows`` draws,
  on fair +-1 at 20 000 walks of 32 steps (the Monte Carlo survival size)
  and on Gaussian steps at 2000 walks of 1000 steps (``verify idloc``'s
  size): the median of five passes after one warm-up;
* nanoseconds per path element of ``certify._idloc_violations`` on those
  Gaussian batches (the median of five passes);
* the traced peak (``tracemalloc``) of ``certify_idloc(12, 2000, 1000)``
  and of ``simulate --kind walk --paths 2000 --length 1000`` run in
  process, with the seconds of one untraced ``simulate`` run;
* the seconds (the median of five passes, the caps interleaved) and the
  traced peak of ``certify_idloc(12, 2000, 1000)`` with the row-batch cap
  ``increments._BATCH_STEPS`` set to each of 2^14 .. 2^20 steps.

The file has the schema of ``BENCH_norming.json`` (``correct``,
``attempted``, ``failed`` and ``metrics``, and the provenance under
``info``).  ``correct`` is true when every idloc run passed and every
``simulate`` run exited 0 and wrote 2000 x 1001 cells.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import tracemalloc
from time import perf_counter

from bench_norming import ROOT, provenance
from fluctwalk import certify, increments
from fluctwalk.cli import main
from fluctwalk.increments import IncrementLaw, iter_rows

SEED = 20240808
REPS = 5
ROWS = {"pm1_20000x32": (IncrementLaw.fair_pm1(), 32, 20_000),
        "gaussian_2000x1000": (IncrementLaw.gaussian(0.0, 1.0), 1000, 2000)}
IDLOC = (12, 2000, 1000)
SIMULATE = ["--seed", str(SEED), "simulate", "--kind", "walk", "--paths", "2000",
            "--length", "1000"]
CAPS = [1 << k for k in range(14, 21)]
MIB = 1 << 20


def median_seconds(run, reps=REPS):
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        run()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def traced_peak(run):
    """(result of ``run()``, its traced peak in MiB)."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def drain(law, length, count):
    for _ in iter_rows(law, length, SEED, count):
        pass


def simulate():
    """Exit status of one in-process ``simulate`` run and the cells it wrote."""
    with tempfile.TemporaryDirectory() as tmp:
        code = main(["--out", tmp] + SIMULATE)
        with open(os.path.join(tmp, "walk_paths.csv")) as fh:
            return code, sum(1 for _ in fh) - 1


def run(out_path):
    metrics, passed = {}, []
    for name, (law, length, count) in ROWS.items():
        drain(law, length, count)
        seconds = median_seconds(lambda: drain(law, length, count))
        metrics[f"rows.{name}.steps_per_s"] = {"value": length * count / seconds,
                                               "unit": "1/s"}
    law, length, count = ROWS["gaussian_2000x1000"]
    batches = list(iter_rows(law, length, SEED, count))
    seconds = median_seconds(lambda: [certify._idloc_violations(V, "verbatim")
                                      for V in batches])
    metrics["idloc.violations.ns_per_elem"] = {
        "value": seconds * 1e9 / sum(V.size for V in batches), "unit": "ns"}
    del batches

    res, peak = traced_peak(lambda: certify.certify_idloc(*IDLOC))
    passed.append(res.passed)
    metrics["idloc.traced_peak_mib"] = {"value": peak, "unit": "MiB"}
    (code, cells), peak = traced_peak(simulate)
    passed.append(code == 0 and cells == 2000 * 1001)
    metrics["simulate.walk_2000x1000.traced_peak_mib"] = {"value": peak, "unit": "MiB"}
    t0 = perf_counter()
    code, cells = simulate()
    metrics["simulate.walk_2000x1000_s"] = {"value": perf_counter() - t0, "unit": "s"}
    passed.append(code == 0 and cells == 2000 * 1001)

    default_cap = increments._BATCH_STEPS
    sweep = {cap: [] for cap in CAPS}
    try:
        for _ in range(REPS + 1):
            for cap in CAPS:
                increments._BATCH_STEPS = cap
                t0 = perf_counter()
                passed.append(certify.certify_idloc(*IDLOC).passed)
                sweep[cap].append(perf_counter() - t0)
        for cap in CAPS:
            increments._BATCH_STEPS = cap
            res, peak = traced_peak(lambda: certify.certify_idloc(*IDLOC))
            passed.append(res.passed)
            metrics[f"idloc.cap{cap}.traced_peak_mib"] = {"value": peak, "unit": "MiB"}
            # the first pass of each cap is a warm-up
            metrics[f"idloc.cap{cap}_s"] = {"value": statistics.median(sweep[cap][1:]),
                                            "unit": "s"}
    finally:
        increments._BATCH_STEPS = default_cap
    failed = passed.count(False)
    result = {"info": {"provenance": provenance(), "batch_steps": default_cap,
                       "idloc_cap_s": {str(cap): runs for cap, runs in sweep.items()}},
              "correct": failed == 0, "attempted": len(passed), "failed": failed,
              "metrics": metrics}
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return result


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_rows.json"))
    result = run(parser.parse_args().out)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")}))
    sys.exit(0 if result["correct"] else 1)
