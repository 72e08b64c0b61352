"""Record the digests of the exact tables into bench/expected.json.

The digests pin the CheckResult rows of the exact tasks as the seed commit
wrote them; a later change that keeps the certificates keeps the digests.
Re-record only when a table is meant to change, and say so in CHANGES.md.

    python3 bench/record_digests.py
"""

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import fluctwalk.cli  # noqa: E402

import workloads  # noqa: E402


def record(size: str, work: str) -> dict:
    out = {}
    for wl in workloads.WORKLOADS:
        tasks = workloads.build_plan(wl, None, size)
        cfgs = workloads.write_configs(tasks, os.path.join(work, size, wl, "config"))
        for task in tasks:
            if task.digest is None:
                continue
            d = os.path.join(work, size, wl, task.tid)
            workloads.run_task(task, cfgs.get(task.tid), d, fluctwalk.cli.main)
            out[task.tid] = workloads.table_digest(os.path.join(d, task.digest),
                                                   task.digest_skip)
    return out


if __name__ == "__main__":
    build = os.path.join(os.path.dirname(HERE), ".bench_build")
    os.makedirs(build, exist_ok=True)
    work = tempfile.mkdtemp(prefix="bench-digests-", dir=build)
    try:
        result = {size: record(size, work) for size in ("full", "smoke")}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result, indent=2))
