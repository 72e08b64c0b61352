#!/usr/bin/env python3
"""Time the ladder-pair identity behind ``verify fristedt``.

    PYTHONPATH=src python3 scripts/bench_fristedt.py [--out BENCH_fristedt.json]

Measures, in one process, the median seconds of seven calls after one
warm-up:

* ``certify_fristedt(60)``, the whole ``verify fristedt`` certificate;
* ``fristedt_residual(law, alphas, betas, 60)`` on each default law at the
  certificate's (alpha, beta) grid, the call the certificate makes per law.

The file has the schema of ``BENCH_norming.json`` (``correct``,
``attempted``, ``failed`` and ``metrics``, and the provenance under
``info``).  ``correct`` is true when every certificate run passed and every
report of every timed call has its residual within its tail bound.
"""

import argparse
import json
import os
import statistics
import sys
from time import perf_counter

from bench_norming import ROOT, provenance
from fluctwalk.certify import (_FRISTEDT_ALPHAS, _FRISTEDT_BETAS, DEFAULT_LAWS,
                               certify_fristedt)
from fluctwalk.scaling import fristedt_residual

K = 60
REPS = 7
# metric names of the default laws, in DEFAULT_LAWS order
LAW_NAMES = ("pm1", "biased", "uniform3")


def timed(run, reps=REPS):
    """(median seconds of ``reps`` calls after one warm-up, every result)."""
    results, times = [run()], []
    for _ in range(reps):
        t0 = perf_counter()
        results.append(run())
        times.append(perf_counter() - t0)
    return statistics.median(times), results


def run(out_path):
    metrics, passed = {}, []
    seconds, results = timed(lambda: certify_fristedt(K))
    metrics[f"certify_fristedt.k{K}_s"] = {"value": seconds, "unit": "s"}
    passed += [res.passed for res in results]
    laws = dict(zip(LAW_NAMES, DEFAULT_LAWS()))
    for name, law in laws.items():
        seconds, results = timed(
            lambda: fristedt_residual(law, _FRISTEDT_ALPHAS, _FRISTEDT_BETAS, K))
        metrics[f"fristedt_residual.{name}.k{K}_s"] = {"value": seconds, "unit": "s"}
        passed += [all(rep.residual <= rep.tail_bound for rep in reports)
                   for reports in results]
    failed = passed.count(False)
    result = {"info": {"provenance": provenance(), "truncation": K,
                       "laws": {name: law.description for name, law in laws.items()},
                       "alphas": list(_FRISTEDT_ALPHAS), "betas": list(_FRISTEDT_BETAS)},
              "correct": failed == 0, "attempted": len(passed), "failed": failed,
              "metrics": metrics}
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return result


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(ROOT, "BENCH_fristedt.json"))
    result = run(parser.parse_args().out)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")}))
    sys.exit(0 if result["correct"] else 1)
