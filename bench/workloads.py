"""The three workloads: their tasks, the inputs made from a seed, and checks.

A task drives one user-facing entry point from outside the package:
``fluctwalk.cli.main`` in-process with a generated ``--config`` file and its
own ``--out`` directory, or a public library function where the CLI has no
command for it.  The acceptance-module parameters are the reference size of
each task; where a task runs below it, the size table says so.

Checks come in three kinds:

* ``exact`` -- certificates, TV rows, digests of exact tables and closed
  forms.  Seed-independent; a miss means the program is wrong.
* ``robust`` -- checks on Monte Carlo output whose false-alarm rate is
  negligible at any seed: the task completed, its output repeats byte for
  byte within a run, sampled meanders stay nonnegative, and the survival
  estimate lies within six standard errors of its closed form.
* ``mc`` -- the configured Monte Carlo criteria.  At the pinned acceptance
  seeds and the ``full`` sizes their verdicts are known and a change of
  verdict is an error; at any other seed they are statistical outcomes (a
  criterion tuned to its pinned seed can miss on another) and are counted,
  not gated.

``KNOWN_FAILURES`` are counted like any other miss and never gate.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

# A fourth workload, "montecarlo", is left out: README.md says why.
WORKLOADS = ("exact-enum", "exact-sweep", "pertrial")

# per-command seconds reported by the traced run (zero where not run)
COMMAND_METRICS = (
    "verify.reversal", "verify.fristedt", "verify.idloc",
    "converge.harmonic", "converge.theorem1", "survival.montecarlo",
)

# master seeds of tests/test_acceptance.py and the CLI/library defaults
PINNED_SEEDS = {
    "verify.idloc": 20240808,
    "survival.montecarlo": 0,
    "converge.theorem1.uniform3": 20240808,
    "simulate.meander": 20240808,
}

# (workload, task, criterion): misses by design, documented in the README
KNOWN_FAILURES = {
    ("pertrial", "converge.theorem1.uniform3", "ladder_time_ks"),
}

# Task parameters.  "full" is what the benchmark measures; "smoke" only
# exercises the harness in a few seconds.  Reference (acceptance) sizes:
# reversal max_length 10, harmonic to 2^13, idloc 1e4 paths,
# survival budget 2e5, theorem1 uniform3 n [256, 1024] with 2000 trials.
SIZES = {
    "full": {
        "reversal": {"max_length": 8},
        "h-kernel": {"max_length": 10},
        "meander-ac": {"max_length": 10, "weight_n": 32, "weight_trials": 100_000},
        "harmonic": {"n_grid": [2 ** q for q in range(8, 12)],
                     "params": {"x_grid": [1.0, 3.0]}},
        "fristedt": {"truncation": 60},
        "idloc": {"enum_length": 12, "gaussian_paths": 2000, "gaussian_length": 1000},
        "survival": {"k": 32, "budget": 20_000},
        "theorem1.uniform3": {"law": "uniform3", "n_grid": [512], "trials": 500},
        "simulate": {"kind": "meander", "paths": 64, "length": 256},
    },
    "smoke": {
        "reversal": {"max_length": 4},
        "h-kernel": {"max_length": 4},
        "meander-ac": {"max_length": 4, "weight_n": 8, "weight_trials": 2000},
        "harmonic": {"n_grid": [256, 512, 1024], "params": {"x_grid": [1.0, 3.0]}},
        "fristedt": {"truncation": 30},
        "idloc": {"enum_length": 6, "gaussian_paths": 20, "gaussian_length": 100},
        "survival": {"k": 16, "budget": 1000},
        "theorem1.uniform3": {"law": "uniform3", "n_grid": [64], "trials": 100},
        "simulate": {"kind": "meander", "paths": 4, "length": 32},
    },
}


@dataclass
class Check:
    cid: str
    passed: bool
    kind: str            # "exact" | "robust" | "mc"
    known: bool = False
    detail: str = ""


@dataclass
class Task:
    """One call into fluctwalk; ``command`` names its per-command metric."""

    tid: str
    command: str
    argv: Optional[List[str]] = None      # CLI subcommand argv, or None
    config: Dict = field(default_factory=dict)
    call: Optional[Callable] = None       # library task: call(out_dir) -> checks
    seed: Optional[int] = None            # None: the task ignores the seed
    exact: bool = False
    extra_checks: Optional[Callable] = None  # (out_dir) -> list of Check
    digest: Optional[str] = None          # CSV table whose rows are digested
    digest_skip: tuple = ()               # first cells of rows left out


def task_seed(tid: str, seed: Optional[int]) -> int:
    """Pinned acceptance seed when no workload seed is given, else derived."""
    if seed is None:
        return PINNED_SEEDS[tid]
    h = hashlib.sha256(f"{seed}:{tid}".encode()).digest()
    return int.from_bytes(h[:4], "big")


def read_csv(path: str) -> List[List[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def table_digest(path: str, skip: tuple = ()) -> str:
    rows = [r for r in read_csv(path) if not (r and r[0] in skip)]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def tree_digest(out_dir: str) -> str:
    """Digest of every file a task wrote, for the within-run repeat check."""
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(out_dir)):
        for name in sorted(files):
            path = os.path.join(root, name)
            h.update(os.path.relpath(path, out_dir).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# task-specific checks


def _tv_rows_zero(out_dir):
    rows = read_csv(os.path.join(out_dir, "reversal.csv"))[1:]
    bad = [r for r in rows if r[4] != "0"]
    return [Check("verify.reversal.tv_rows_zero", not bad and bool(rows), "exact",
                  detail=f"{len(bad)} of {len(rows)} TV rows nonzero")]


def _harmonic_closed_form(out_dir):
    rows = read_csv(os.path.join(out_dir, "harmonic.csv"))
    col = rows[0].index("P_Cn")
    worst = 0.0
    for r in rows[1:]:
        n = int(r[0])
        closed = math.comb(n, n // 2) / (1 << n)
        worst = max(worst, abs(float(r[col]) / closed - 1.0))
    # relative 1e-9 admits a float sweep, whose error is O(n u) ~ 1e-12
    return [Check("converge.harmonic.survival_closed_form", worst <= 1e-9 and len(rows) > 1,
                  "exact", detail=f"worst relative error {worst:.3e} over {len(rows) - 1} n")]


def _meanders_nonneg(paths, length):
    def check(out_dir):
        rows = read_csv(os.path.join(out_dir, "meander_paths.csv"))[1:]
        by_trial: Dict[str, list] = {}
        for t, _, v, w in rows:
            by_trial.setdefault(t, []).append((float(v), float(w)))
        ok = len(by_trial) == paths and all(
            len(p) == length + 1 and min(v for v, _ in p[1:]) >= 0
            and all(w == 1.0 for _, w in p) for p in by_trial.values())
        return [Check("simulate.meander.paths_nonneg", ok, "robust",
                      detail=f"{len(by_trial)} paths of {length} steps")]
    return check


def _survival_call(law_factory, k, budget, seed):
    def call(out_dir):
        from fluctwalk import conditioning
        est = conditioning.survival_probability(law_factory(), k, "montecarlo",
                                                budget=budget, seed=seed)
        closed = math.comb(k, k // 2) / (1 << k)
        dev = abs(est.probability - closed) / est.error
        with open(os.path.join(out_dir, "survival.json"), "w") as fh:
            json.dump({"k": k, "budget": budget, "seed": seed,
                       "probability": est.probability, "error": est.error}, fh)
        return [Check("survival.montecarlo.within_6se", dev <= 6.0, "robust",
                      detail=f"|p - C(k,k/2)2^-k| = {dev:.2f} se")]
    return call


# ---------------------------------------------------------------------------
# plans


def build_plan(workload: str, seed: Optional[int], size: str = "full") -> List[Task]:
    """The tasks of one workload, in the order a pass runs them."""
    from fluctwalk.increments import IncrementLaw

    z = SIZES[size]

    def mc(tid, key, argv, **kw):
        s = task_seed(tid, seed)
        return Task(tid, tid.rsplit(".", 1)[0] if tid.count(".") > 1 else tid,
                    argv=argv, config={**z[key], "seed": s}, seed=s, **kw)

    if workload == "exact-enum":
        return [
            Task("verify.reversal", "verify.reversal", ["verify", "reversal"],
                 dict(z["reversal"]), exact=True, extra_checks=_tv_rows_zero,
                 digest="reversal.csv"),
            Task("verify.h-kernel", "verify.h-kernel", ["verify", "h-kernel"],
                 dict(z["h-kernel"]), exact=True, digest="h_kernel.csv"),
            # the weight-normalization part is Monte Carlo on the A3 seed,
            # which stays pinned: this workload ignores the seed entirely
            Task("verify.meander-ac", "verify.meander-ac", ["verify", "meander-ac"],
                 {**z["meander-ac"], "seed": 20240808}, exact=True,
                 digest="meander_ac.csv", digest_skip=("weight_mean",)),
        ]
    if workload == "exact-sweep":
        return [
            Task("converge.harmonic", "converge.harmonic", ["converge", "harmonic"],
                 dict(z["harmonic"]), exact=True, extra_checks=_harmonic_closed_form),
            Task("verify.fristedt", "verify.fristedt", ["verify", "fristedt"],
                 dict(z["fristedt"]), exact=True, digest="fristedt.csv"),
        ]
    if workload == "pertrial":
        sv = z["survival"]
        sm = z["simulate"]
        s_surv = task_seed("survival.montecarlo", seed)
        return [
            # violation counts are an identity at every seed: digested
            mc("verify.idloc", "idloc", ["verify", "idloc"], exact=True,
               digest="idloc.csv"),
            Task("survival.montecarlo", "survival.montecarlo", seed=s_surv,
                 call=_survival_call(IncrementLaw.fair_pm1, sv["k"], sv["budget"], s_surv)),
            mc("converge.theorem1.uniform3", "theorem1.uniform3", ["converge", "theorem1"]),
            mc("simulate.meander", "simulate", ["simulate"],
               extra_checks=_meanders_nonneg(sm["paths"], sm["length"])),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(tasks: List[Task], cfg_dir: str) -> Dict[str, str]:
    os.makedirs(cfg_dir, exist_ok=True)
    paths = {}
    for t in tasks:
        if t.argv is not None:
            paths[t.tid] = os.path.join(cfg_dir, f"{t.tid}.json")
            with open(paths[t.tid], "w") as fh:
                json.dump(t.config, fh, sort_keys=True)
    return paths


# ---------------------------------------------------------------------------
# running one task


def run_task(task: Task, cfg_path: Optional[str], out_dir: str, cli_main) -> List[Check]:
    """Run a task into ``out_dir`` and return every check on its output.

    ``cli_main`` is looked up by the caller at call time, so a traced run
    sees the wrapped entry point.
    """
    os.makedirs(out_dir, exist_ok=True)
    if task.call is not None:
        return [Check(f"{task.tid}.completed", True, "robust")] + task.call(out_dir)
    argv = ["--config", cfg_path, "--out", out_dir]
    if task.seed is not None:
        argv += ["--seed", str(task.seed)]
    with redirect_stdout(io.StringIO()):
        code = cli_main(argv + task.argv)
    report_path = os.path.join(out_dir, "report.json")
    if task.command.startswith("simulate"):
        return [Check(f"{task.tid}.completed", code == 0, "robust", detail=f"exit {code}")]
    done = code in (0, 1) and os.path.exists(report_path)
    checks = [Check(f"{task.tid}.completed", done, "robust", detail=f"exit {code}")]
    if not done:
        return checks
    with open(report_path) as fh:
        report = json.load(fh)
    kind = "exact" if task.exact else "mc"
    for c in report["criteria"]:
        finite = isinstance(c["value"], (int, float)) and math.isfinite(c["value"])
        checks.append(Check(f"{task.tid}.{c['id']}", bool(c["pass"]) and finite, kind,
                            detail=f"{c['value']:.6g} {c['comparator']} {c['threshold']:.6g}"))
    return checks


def finish_checks(workload: str, task: Task, out_dir: str, checks: List[Check],
                  expected_digests: Dict[str, str]) -> List[Check]:
    """Add the digest and task-specific checks; mark the known failures."""
    if not checks[0].passed:   # the task did not complete
        return checks
    if task.extra_checks is not None:
        try:
            checks = checks + task.extra_checks(out_dir)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            checks.append(Check(f"{task.tid}.output_readable", False, "exact",
                                detail=f"{type(exc).__name__}: {exc}"))
    if task.digest is not None:
        try:
            got = table_digest(os.path.join(out_dir, task.digest), task.digest_skip)
        except OSError as exc:
            got = f"unreadable ({exc})"
        want = expected_digests.get(task.tid)
        checks.append(Check(f"{task.tid}.digest", got == want, "exact",
                            detail=f"{got[:12]} vs recorded {str(want)[:12]}"))
    for c in checks:
        crit = c.cid[len(task.tid) + 1:]
        c.known = (workload, task.tid, crit) in KNOWN_FAILURES
    return checks


def gating(check: Check, pinned: bool) -> bool:
    """Whether a miss of this check makes the run's output incorrect."""
    if check.known:
        return False
    return check.kind != "mc" or pinned
