#!/usr/bin/env python3
"""Time the two certificates built on the kernel-chain laws.

    PYTHONPATH=src python3 scripts/bench_conditioning.py [--out BENCH_conditioning.json]

Measures, in one process:

* the seconds of ``certify_meander_ac(10, 32, 100_000)`` and of
  ``certify_h_kernel(10)`` (the benchmark's ``exact-enum`` sizes), and of
  ``certify_h_kernel(16)``, where the path matrix holds 2**16 rows: the
  median of five runs after one warm-up;
* the number of ``h_kernel_row`` calls one run of each makes, the chain
  passes, the sampler's table and the direct row checks together.

The file has the schema of ``BENCH_reversal.json`` (``correct``,
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
from fluctwalk import certify, conditioning

CERTIFICATES = {
    "certify_meander_ac": lambda: certify.certify_meander_ac(10, 32, 100_000),
    "certify_h_kernel": lambda: certify.certify_h_kernel(10),
}
# timed only, at a window length past the benchmark's
LONG = {"certify_h_kernel.max_length16_s": lambda: certify.certify_h_kernel(16)}
REPS = 5


def kernel_row_calls(run):
    """Run once with ``h_kernel_row`` counted in every module that holds it."""
    original = conditioning.h_kernel_row
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    modules = (conditioning, certify)
    for mod in modules:
        mod.h_kernel_row = counted
    try:
        passed = run().passed
    finally:
        for mod in modules:
            mod.h_kernel_row = original
    return calls[0], passed


def timed(certificate, passed):
    """Seconds of one warm-up and REPS runs; each run's pass goes to ``passed``."""
    runs = []
    for _ in range(REPS + 1):
        t0 = perf_counter()
        passed.append(certificate().passed)
        runs.append(perf_counter() - t0)
    return runs


def run(out_path):
    metrics, times, passed = {}, {}, []
    for name, certificate in CERTIFICATES.items():
        times[name] = timed(certificate, passed)
        metrics[f"{name}.max_length10_s"] = {"value": statistics.median(times[name][1:]),
                                             "unit": "s"}
        calls, ok = kernel_row_calls(certificate)
        passed.append(ok)
        metrics[f"{name}.h_kernel_row_calls"] = {"value": calls, "unit": "count"}
    for name, certificate in LONG.items():
        times[name] = timed(certificate, passed)
        metrics[name] = {"value": statistics.median(times[name][1:]), "unit": "s"}
    failed = passed.count(False)
    result = {"info": {"provenance": provenance(), "certificate_s": times},
              "correct": failed == 0, "attempted": len(passed), "failed": failed,
              "metrics": metrics}
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return result


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_conditioning.json"))
    result = run(parser.parse_args().out)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")}))
    sys.exit(0 if result["correct"] else 1)
