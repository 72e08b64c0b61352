"""Smoke self-test of the benchmark harness at tiny task sizes.

    python3 -m pytest -q bench/test_smoke.py

Checks the result schema of every workload in both modes, that metric and
workload names match BENCHMARK.json, and that the benchmark fails cleanly
where the sources are missing.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_result_schema(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for v in result["metrics"].values():
        assert isinstance(v["value"], float) and math.isfinite(v["value"])
    info = json.loads(lines[-2])["info"]
    assert {"nproc", "python", "numpy", "scipy", "mpmath", "git_sha", "git_dirty",
            "threads_env"} <= set(info["provenance"])
    if workload.startswith("exact"):
        assert info["seedless_tasks"] == [t.tid for t in workloads.build_plan(workload, 3, "smoke")]
    if trace:
        layers = result["metrics"]
        # layer self times plus the benchmark's own frame add up to the traced pass
        total = sum(layers[f"{m}.self_s"]["value"] for m in (
            "cli", "certify", "experiments", "oracle", "conditioning", "scaling",
            "fluctuation", "transforms", "increments", "stats", "limit_laws", "bench"))
        assert total == pytest.approx(layers["trace.wall_s"]["value"], rel=0.25)


def test_fails_without_sources():
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_build"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("--workload", "exact-enum", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
