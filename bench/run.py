"""fluctwalk benchmark: three workloads over the exact and Monte Carlo halves.

    python3 bench/run.py --workload exact-enum --seed 1 --seconds 36 --trace 0

One process, one thread (BLAS/OpenMP thread variables are forced to 1),
closed loop: a pass runs the workload's tasks back to back and checks their
outputs; passes repeat until the next one would end after ``--seconds``.
The first pass warms up (lazy imports, allocator, caches): it is checked
like every pass but left out of the timings.

* ``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
  fresh-interpreter set-up probes), ``wall_s`` (median pass time, checks
  included) and ``peak_rss_mb``.
* ``--trace 1`` alternates untraced and traced passes and reports the
  per-layer metrics: self time, calls and work counts per fluctwalk module
  from the span recorder in ``spans.py``, per-command seconds from the
  untraced passes, check counts, and the tracing overhead.

Without ``--seed`` every Monte Carlo task uses its pinned acceptance seed.
The last line of standard output is the result object; the line before it
carries provenance and every check that missed.  See README.md.
"""

from time import perf_counter

T0 = perf_counter()

import os  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _v in THREAD_VARS:
    os.environ[_v] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_build")
SETUP_PROBES = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

LAYERS = ("cli", "certify", "experiments", "oracle", "conditioning", "scaling",
          "fluctuation", "transforms", "increments", "stats", "limit_laws")

PER_LAYER = {
    "oracle.iter_paths.paths": "count",
    "oracle.iter_paths.self_s": "s",
    "oracle.paths_per_s": "1/s",
    "oracle.distribution_equality.self_s": "s",
    "certify.calls": "count",
    "fluctuation.calls": "count",
    "fluctuation.ns_per_elem": "ns",
    "transforms.calls": "count",
    "transforms.ns_per_elem": "ns",
    "conditioning.level_steps": "count",
    "conditioning.level_steps_per_s": "1/s",
    "conditioning.survival_sequence.self_s": "s",
    "conditioning.hchain.self_s": "s",
    "conditioning.meander_sample.accept_ratio": "ratio",
    "scaling.step_distributions.self_s": "s",
    "scaling.fristedt_residual.self_s": "s",
    "increments.streams": "count",
    "increments.steps_drawn": "count",
    "increments.ns_per_step": "ns",
    "experiments.windowed_ladder_pairs.self_s": "s",
    "experiments.resampled_frac": "ratio",
    "stats.ks_statistic.samples": "count",
    "stats.ns_per_sample": "ns",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio",
    "check_fail_frac": "ratio",
    "checks_attempted": "count",
    "checks_failed": "count",
    **{f"{c}_s": "s" for c in wl.COMMAND_METRICS},
}


# ---------------------------------------------------------------------------
# passes


def run_pass(workload, tasks, cfgs, pass_dir, expected, recorder=None):
    """Run every task once, check the outputs, return the pass record."""
    import fluctwalk.cli as cli

    def cli_main(argv):
        return cli.main(argv)   # attribute looked up per call: sees the tracer

    start = perf_counter()
    commands = defaultdict(float)
    checks, digests = [], {}
    with recorder.root() if recorder is not None else nullcontext():
        for task in tasks:
            out = os.path.join(pass_dir, task.tid)
            t = perf_counter()
            try:
                found = wl.run_task(task, cfgs.get(task.tid), out, cli_main)
            except Exception as exc:  # a task that raises is a failed check, not a crash
                found = [wl.Check(f"{task.tid}.completed", False, "robust",
                                  detail=f"{type(exc).__name__}: {exc}")]
            commands[task.command] += perf_counter() - t
            checks.extend(wl.finish_checks(workload, task, out, found, expected))
            digests[task.tid] = wl.tree_digest(out)
        shutil.rmtree(pass_dir, ignore_errors=True)
    return {"wall": perf_counter() - start, "commands": dict(commands),
            "checks": checks, "digests": digests, "traced": recorder is not None}


def layer_metrics(rec, wall):
    """Per-layer metrics of one traced pass."""
    fw = "fluctwalk."
    ls, lc, c = rec.layer_self(), rec.layer_calls(), rec.counts

    def ratio(a, b):
        return a / b if b else 0.0

    paths = c[fw + "oracle.iter_paths.yields"]
    ip_self = rec.self_of(fw + "oracle.iter_paths")
    sweep = rec.self_of(fw + "conditioning.survival_sequence")
    hchain = (fw + "conditioning.hchain_path_distribution",
              fw + "conditioning.hchain_endpoint_distribution")
    ms = fw + "conditioning.meander_sample"
    m = {
        "oracle.iter_paths.paths": paths,
        "oracle.iter_paths.self_s": ip_self,
        "oracle.paths_per_s": ratio(paths, ip_self),
        "oracle.distribution_equality.self_s": rec.self_of(fw + "oracle.distribution_equality"),
        "certify.calls": lc["certify"],
        "fluctuation.calls": lc["fluctuation"],
        "fluctuation.ns_per_elem": ratio(1e9 * ls["fluctuation"], c["fluctuation.elems"]),
        "transforms.calls": lc["transforms"],
        "transforms.ns_per_elem": ratio(1e9 * ls["transforms"], c["transforms.elems"]),
        "conditioning.level_steps": c["conditioning.level_steps"],
        "conditioning.level_steps_per_s": ratio(c["conditioning.level_steps"], sweep),
        "conditioning.survival_sequence.self_s": sweep,
        "conditioning.hchain.self_s": rec.self_of(*hchain) + rec.self_under(
            hchain, fw + "conditioning.h_kernel_row"),
        "conditioning.meander_sample.accept_ratio": ratio(
            rec.calls_of(ms), rec.calls_under((ms,), fw + "increments.sample_walk")),
        "scaling.step_distributions.self_s": rec.self_of(fw + "scaling.step_distributions"),
        "scaling.fristedt_residual.self_s": rec.self_of(fw + "scaling.fristedt_residual"),
        "increments.streams": rec.calls_of(fw + "increments.derive_seed"),
        "increments.steps_drawn": c["increments.steps_drawn"],
        "increments.ns_per_step": ratio(1e9 * ls["increments"], c["increments.steps_drawn"]),
        "experiments.windowed_ladder_pairs.self_s":
            rec.self_of(fw + "experiments.windowed_ladder_pairs"),
        "experiments.resampled_frac": ratio(c["experiments.windows_resampled"],
                                            c["experiments.windows"]),
        "stats.ks_statistic.samples": c["stats.ks_samples"],
        "stats.ns_per_sample": ratio(1e9 * ls["stats"], c["stats.ks_samples"]),
        "bench.self_s": ls["bench"],
        "trace.accounted_frac": ratio(sum(ls[layer] for layer in LAYERS), wall),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = ls[layer]
    return m


def function_table(rec):
    return {name: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
            for name, v in sorted(rec.stats.items(), key=lambda kv: -kv[1][2])}


# ---------------------------------------------------------------------------
# set-up and provenance


def probe_setup(workload, seed, size, work):
    """Median set-up seconds over fresh interpreters, run one at a time."""
    samples = []
    for i in range(SETUP_PROBES):
        cfg = os.path.join(work, f"probe{i}")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "probe.py"), workload,
             "-" if seed is None else str(seed), size, cfg],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def provenance():
    import mpmath
    import numpy
    import scipy
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "machine": platform.machine(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": None,
        "git_dirty": None,
    }
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain",
                                    "--untracked-files=no"],
                                   capture_output=True, text=True, timeout=30)
            info["git_sha"] = sha.stdout.strip() or None
            info["git_dirty"] = bool(dirty.stdout.strip()) if dirty.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "fluctwalk")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    info["src_sha256"] = h.hexdigest()
    return info


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the pinned acceptance seeds)")
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=sorted(wl.SIZES), default="full",
                   help="smoke: tiny tasks for the harness self-test")
    return p.parse_args(argv)


def measure(args, tasks, cfgs, expected, work):
    """Passes back to back until the next would end after ``args.seconds``.

    The first pass is the untimed warm-up.  A traced run then alternates
    traced and untraced passes and makes at least one timed pass of each.
    Returns (passes, recorders); ``passes[0]`` is the warm-up.
    """
    passes, recs = [], []
    start = perf_counter()
    while True:
        rec = spans.Recorder() if args.trace and len(passes) % 2 == 1 else None
        if rec is not None:
            rec.install()
        try:
            p = run_pass(args.workload, tasks, cfgs,
                         os.path.join(work, f"pass{len(passes)}"), expected, rec)
        finally:
            if rec is not None:
                rec.uninstall()
        if rec is not None:
            p["layers"] = layer_metrics(rec, p["wall"])
            recs.append(rec)
        passes.append(p)
        timed = passes[1:]
        if len(timed) < 1 + args.trace:
            continue
        if perf_counter() - start + statistics.median(q["wall"] for q in timed) > args.seconds:
            return passes, recs


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fluctwalk", "__init__.py")):
        print(f"error: no fluctwalk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        import probe
    except ImportError as exc:
        print(f"error: cannot import fluctwalk: {exc}", file=sys.stderr)
        return 2

    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)[args.size]
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"bench-{args.workload}-", dir=WORK_DIR)
    try:
        tasks, cfgs = probe.setup(args.workload, args.seed, args.size,
                                  os.path.join(work, "config"))
        setup_inline = perf_counter() - T0
        setup_s, setup_samples = probe_setup(args.workload, args.seed, args.size, work)
        passes, recs = measure(args, tasks, cfgs, expected, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # with one seed every pass writes identical files (traced ones included)
    first = passes[0]["digests"]
    for p in passes[1:]:
        for tid, d in p["digests"].items():
            p["checks"].append(wl.Check(f"{tid}.repeatable", d == first[tid], "robust",
                                        detail="output identical to the first pass"))
    # verdicts at the pinned seeds are known for the measured sizes only
    pinned = args.seed is None and args.size == "full"
    attempted = failed = 0
    for p in passes:
        for task in tasks:
            attempted += 1
            mine = [c for c in p["checks"] if c.cid.startswith(task.tid + ".")]
            failed += any(not c.passed and wl.gating(c, pinned) for c in mine)
    # check_fail_frac counts the first pass, whose set of checks is fixed;
    # misses that only later passes show are listed as well
    base = passes[0]["checks"]
    missed = [c for c in base if not c.passed]
    for p in passes[1:]:
        ids = {c.cid for c in missed}
        missed += [c for c in p["checks"] if not c.passed and c.cid not in ids]

    untraced = [p for p in passes[1:] if not p["traced"]]
    wall_s = statistics.median(p["wall"] for p in untraced)
    commands = {k: statistics.median(p["commands"].get(k, 0.0) for p in untraced)
                for k in passes[0]["commands"]}
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {k: statistics.median(p["layers"][k] for p in traced)
                   for k in traced[0]["layers"]}
        for c in wl.COMMAND_METRICS:
            metrics[f"{c}_s"] = commands.get(c, 0.0)
        metrics["trace.wall_s"] = statistics.median(p["wall"] for p in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall_s
        n_base_missed = sum(1 for c in base if not c.passed)
        metrics["checks_attempted"] = len(base)
        metrics["checks_failed"] = n_base_missed
        metrics["check_fail_frac"] = n_base_missed / len(base)
        units = PER_LAYER
        with open(os.path.join(WORK_DIR, f"trace-{args.workload}.json"), "w") as fh:
            json.dump({"functions": function_table(recs[-1]),
                       "spans": recs[-1].spans[:20000]}, fh)
    else:
        metrics = {"setup_s": setup_s, "wall_s": wall_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        units = END_TO_END

    for c in missed:
        tag = "known" if c.known else ("gating" if wl.gating(c, pinned) else "counted")
        print(f"[miss:{tag}] {c.cid}: {c.detail}", file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "pinned_seeds": pinned,
        "size": args.size, "seconds": args.seconds, "trace": args.trace,
        "pass_walls": [p["wall"] for p in passes],
        "setup_inline_s": setup_inline, "setup_samples": setup_samples,
        "seedless_tasks": [t.tid for t in tasks if t.seed is None],
        "task_seeds": {t.tid: t.seed for t in tasks if t.seed is not None},
        "commands_s": commands,
        "checks": {"attempted": len(base), "missed": [
            {"id": c.cid, "kind": c.kind, "known": c.known, "detail": c.detail}
            for c in missed]},
        "provenance": provenance(),
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
