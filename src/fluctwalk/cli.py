"""Batch command-line interface.

Two command families mirror the two halves of the package:

* ``verify`` runs the exact-arithmetic certification suites (enumeration
  oracle; identities hold with total variation exactly zero or residuals
  under rigorous tail bounds);
* ``converge`` runs the Monte Carlo scaling experiments against closed-form
  limit targets.

Exit status: 0 when every configured tolerance passes, 1 on a tolerance
failure, 2 when the supplied law violates a regularity hypothesis (the
experiment refuses to produce numbers rather than producing meaningless
ones).  Each command writes ``report.json`` plus plot-ready CSV tables.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import certify
from .conditioning import (conditioned_walk, harmonic_limits, meander_sample,
                           renewal_function)
from .errors import FluctwalkError, HypothesisViolationError, UnsupportedModeError
from .experiments import (Criterion, ExperimentConfig, ExperimentReport,
                          run_lemma1, run_localtime_stability, run_meander,
                          run_theorem1)
from .increments import IncrementLaw, derive_seed, iter_rows, path_from_steps
from .limit_laws import (half_stable_tau_tail, kappa_bm, levy_half_cdf,
                         rayleigh_cdf, h_bm)

LAW_SHORTCUTS = {
    "fair-pm1": IncrementLaw.fair_pm1,
    "biased-pm1": lambda: IncrementLaw.biased_pm1(Fraction(3, 4)),
    "uniform3": IncrementLaw.uniform3,
    "gaussian": lambda: IncrementLaw.gaussian(0.0, 1.0),
    "cauchy": lambda: IncrementLaw.heavy_tail(1.0),
}


def _parse_law(text):
    if text in LAW_SHORTCUTS:
        return LAW_SHORTCUTS[text]()
    if os.path.exists(text):
        with open(text) as fh:
            return IncrementLaw.from_json(fh.read())
    return IncrementLaw.from_json(text)


def _load_config_file(path):
    if not path:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _write_rows(out_dir, name, rows):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.csv"), "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _finish(report: ExperimentReport, out_dir: str) -> int:
    report.write(out_dir)
    for c in report.criteria:
        status = "pass" if c.passed else "FAIL"
        print(f"[{status}] {c.cid}: {c.value:.6g} {c.comparator} {c.threshold:.6g}")
    return report.exit_code()


def _verify_to_report(results, out_dir, config_echo) -> int:
    criteria = [Criterion(r.name, 0.0 if r.passed else 1.0, 0.0) for r in results]
    tables = {r.name: r.rows for r in results if r.rows}
    rep = ExperimentReport(config=config_echo, criteria=criteria, tables=tables,
                           notes={r.name: r.detail for r in results})
    return _finish(rep, out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fluctwalk",
        description="Random-walk fluctuation theory: exact certificates and "
                    "Monte Carlo scaling experiments.")
    parser.add_argument("--config", default=None, help="JSON file overriding defaults")
    parser.add_argument("--seed", type=int, default=20240808)
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--n-grid", default=None,
                        help="comma-separated strictly increasing integers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="exact certification suites")
    p_verify.add_argument("suite", choices=["fristedt", "reversal", "idloc",
                                            "meander-ac", "h-kernel"])
    p_verify.add_argument("--max-length", type=int, default=8)

    p_conv = sub.add_parser("converge", help="Monte Carlo scaling experiments")
    p_conv.add_argument("experiment", choices=["theorem1", "localtime", "lemma1",
                                               "meander", "harmonic"])
    p_conv.add_argument("--law", default=None)

    p_sim = sub.add_parser("simulate", help="stream sampled paths to CSV")
    p_sim.add_argument("--law", default="gaussian")
    p_sim.add_argument("--length", type=int, default=256)
    p_sim.add_argument("--paths", type=int, default=8)
    p_sim.add_argument("--kind", choices=["walk", "conditioned", "meander"],
                       default="walk")

    p_tab = sub.add_parser("tables", help="reference limit-law tables")
    p_tab.add_argument("--points", type=int, default=200)

    args = parser.parse_args(argv)
    overrides = _load_config_file(args.config)
    out_dir = args.out or overrides.get("out") or f"fluctwalk-out/{args.command}"
    seed = overrides.get("seed", args.seed)

    try:
        if args.command == "verify":
            return _cmd_verify(args, overrides, out_dir, seed)
        if args.command == "converge":
            return _cmd_converge(args, overrides, out_dir, seed)
        if args.command == "simulate":
            return _cmd_simulate(args, overrides, out_dir, seed, p_sim.error)
        if args.command == "tables":
            return _cmd_tables(args, out_dir)
    except HypothesisViolationError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except FluctwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args, overrides, out_dir, seed) -> int:
    m = overrides.get("max_length", args.max_length)
    if args.suite == "fristedt":
        res = [certify.certify_fristedt(K=overrides.get("truncation", 60))]
    elif args.suite == "reversal":
        res = [certify.certify_reversal(max_length=m)]
    elif args.suite == "idloc":
        res = [certify.certify_idloc(
            enum_length=overrides.get("enum_length", m),
            gaussian_paths=overrides.get("gaussian_paths", 2000),
            gaussian_length=overrides.get("gaussian_length", 500),
            seed=seed)]
    elif args.suite == "meander-ac":
        res = [certify.certify_meander_ac(
            max_length=m,
            weight_n=overrides.get("weight_n", 32),
            weight_trials=overrides.get("weight_trials", 20_000),
            seed=seed)]
    else:
        res = [certify.certify_h_kernel(max_length=m)]
    echo = {"command": "verify", "suite": args.suite, "seed": seed,
            "max_length": m, "overrides": overrides}
    return _verify_to_report(res, out_dir, echo)


def _default_config(args, overrides, seed, experiment, law, n_grid, trials,
                    tolerances, params) -> ExperimentConfig:
    if args.n_grid:
        n_grid = [int(x) for x in args.n_grid.split(",")]
    n_grid = overrides.get("n_grid", n_grid)
    if args.trials:
        trials = args.trials
    trials = overrides.get("trials", trials)
    tolerances = {**tolerances, **overrides.get("tolerances", {})}
    params = {**params, **overrides.get("params", {})}
    return ExperimentConfig(experiment=experiment, law=law, n_grid=list(n_grid),
                            trials=int(trials), seed=seed, tolerances=tolerances,
                            params=params)


def _cmd_converge(args, overrides, out_dir, seed) -> int:
    law_text = args.law or overrides.get("law")
    if args.experiment == "theorem1":
        law = _parse_law(law_text) if law_text else IncrementLaw.gaussian()
        cfg = _default_config(args, overrides, seed, "theorem1", law,
                              [256, 1024], 2000,
                              {"ks": 0.03, "height_mean": 0.03, "height_sd": 0.12},
                              {"height_cap": 20_000})
        return _finish(run_theorem1(cfg), out_dir)
    if args.experiment == "localtime":
        law = _parse_law(law_text) if law_text else IncrementLaw.gaussian()
        cfg = _default_config(args, overrides, seed, "localtime", law,
                              [2**q for q in range(6, 11)], 100,
                              {"violations": 1, "ratio": 0.6},
                              {"base_resolution": 2**13, "paths": 100})
        return _finish(run_localtime_stability(cfg), out_dir)
    if args.experiment == "lemma1":
        law = _parse_law(law_text) if law_text else IncrementLaw.gaussian()
        cfg = _default_config(args, overrides, seed, "lemma1", law,
                              [512, 2048], 1000,
                              {"drift_rel": 0.05, "interval_mass": 0.03,
                               "ratio_rel": 0.15},
                              {"height_samples": 50_000, "height_cap": 20_000})
        return _finish(run_lemma1(cfg), out_dir)
    if args.experiment == "meander":
        law = _parse_law(law_text) if law_text else IncrementLaw.fair_pm1()
        cfg = _default_config(args, overrides, seed, "meander", law,
                              [256, 1024], 4000,
                              {"endpoint_ks": 0.04, "cross_method_ks": 0.02},
                              {"cross_check_n": 32, "cross_check_trials": 20_000})
        return _finish(run_meander(cfg), out_dir)
    # harmonic
    law = _parse_law(law_text) if law_text else IncrementLaw.fair_pm1()
    n_grid = overrides.get("n_grid", [2**q for q in range(8, 12)])
    if args.n_grid:
        n_grid = [int(x) for x in args.n_grid.split(",")]
    x_grid = overrides.get("params", {}).get("x_grid", [1.0, 3.0])
    tol = {"product_rel": 0.05, "doubling_rel": 0.02,
           **overrides.get("tolerances", {})}
    rep = harmonic_limits(law, x_grid, n_grid)
    target = half_stable_tau_tail(1.0)
    criteria = [
        Criterion("harmonic_product_rel_error",
                  abs(rep.product[-1] / target - 1.0), tol["product_rel"]),
        Criterion("harmonic_last_doubling_change",
                  rep.relative_changes[-1], tol["doubling_rel"]),
    ]
    echo = {"command": "converge", "experiment": "harmonic",
            "law": law.describe(), "n_grid": n_grid, "x_grid": x_grid,
            "seed": seed, "tolerances": tol}
    report = ExperimentReport(config=echo, criteria=criteria,
                              tables={"harmonic": rep.to_csv_rows()})
    return _finish(report, out_dir)


def _cmd_simulate(args, overrides, out_dir, seed, usage_error) -> int:
    law = _parse_law(overrides.get("law", args.law))
    length = overrides.get("length", args.length)
    n_paths = overrides.get("paths", args.paths)
    kind = overrides.get("kind", args.kind)
    if kind == "walk":
        paths = [(path_from_steps(steps), 1.0)
                 for rows in iter_rows(law, length, seed, n_paths) for steps in rows]
    elif kind == "conditioned":
        try:
            V = renewal_function(law, mode="exact")
        except UnsupportedModeError as exc:
            usage_error(f"--kind conditioned needs a --law with an exact renewal "
                        f"function, such as fair-pm1: {exc}")
        paths = [(conditioned_walk(law, length, derive_seed(seed, t), method="h_chain",
                                   V=V), 1.0) for t in range(n_paths)]
    else:
        paths = [meander_sample(law, length, derive_seed(seed, t), method="rejection")
                 for t in range(n_paths)]
    rows = [["trial", "index", "value", "weight"]]
    for t, (path, weight) in enumerate(paths):
        for i, v in enumerate(path.values):
            rows.append([t, i, v, weight])
    _write_rows(out_dir, f"{kind}_paths", rows)
    print(f"wrote {n_paths} {kind} paths of length {length} to {out_dir}")
    return 0


def _cmd_tables(args, out_dir) -> int:
    pts = args.points
    s = np.linspace(0.01, 25.0, pts)
    _write_rows(out_dir, "ladder_time_cdf",
                [["s", "cdf"]] + [[float(x), float(levy_half_cdf(x))] for x in s])
    x = np.linspace(0.0, 4.0, pts)
    _write_rows(out_dir, "meander_endpoint_cdf",
                [["x", "cdf"]] + [[float(v), float(rayleigh_cdf(v))] for v in x])
    grid = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
    _write_rows(out_dir, "ladder_exponent",
                [["alpha", "beta", "kappa"]] +
                [[a, b, kappa_bm(a, b)] for a in grid for b in grid])
    _write_rows(out_dir, "renewal_limit",
                [["x", "h"]] + [[float(v), float(h_bm(v))] for v in x])
    _write_rows(out_dir, "constants",
                [["name", "value"],
                 ["ladder_time_tail_beyond_1", half_stable_tau_tail(1.0)]])
    print(f"wrote reference tables to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
