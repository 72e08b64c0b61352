"""Set-up probe: a fresh interpreter imports fluctwalk and builds a workload.

Prints the seconds from its first statement to the end of set-up (imports
of fluctwalk and its dependencies, law construction, config files written),
which is what ``run.py`` reports as ``setup_s``.

    python3 bench/probe.py <workload> <seed or -> <size> <config dir>
"""

from time import perf_counter

T0 = perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import fluctwalk.cli  # noqa: E402,F401
import mpmath  # noqa: E402,F401  (imported lazily by scaling; counted as set-up)

import workloads  # noqa: E402


def setup(workload: str, seed, size: str, cfg_dir: str):
    tasks = workloads.build_plan(workload, seed, size)
    return tasks, workloads.write_configs(tasks, cfg_dir)


if __name__ == "__main__":
    wl, sd, sz, cfg = sys.argv[1:5]
    setup(wl, None if sd == "-" else int(sd), sz, cfg)
    print(perf_counter() - T0)
