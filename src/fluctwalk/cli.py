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
import inspect
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import certify
from .conditioning import conditioned_walk, meander_sample
from .errors import FluctwalkError, HypothesisViolationError, UnsupportedModeError
from .experiments import (RUNS, Criterion, ExperimentConfig, ExperimentReport,
                          reject_unknown, write_rows)
from .increments import IncrementLaw, WalkPath, derive_seed, iter_rows
from .limit_laws import (half_stable_tau_tail, kappa_bm, levy_half_cdf,
                         rayleigh_cdf, h_bm)

LAW_SHORTCUTS = {
    "fair-pm1": IncrementLaw.fair_pm1,
    "biased-pm1": lambda: IncrementLaw.biased_pm1(Fraction(3, 4)),
    "uniform3": IncrementLaw.uniform3,
    "gaussian": lambda: IncrementLaw.gaussian(0.0, 1.0),
    "cauchy": lambda: IncrementLaw.heavy_tail(1.0),
}


# each verify suite: its certificate in ``certify`` and the config keys it
# reads, mapped to the certificate's parameters (a later key beats an earlier
# one).  The certificate's keyword defaults are the suite's only defaults.
VERIFY = {
    "fristedt": ("certify_fristedt", {"truncation": "K"}),
    "reversal": ("certify_reversal", {"max_length": "max_length"}),
    "idloc": ("certify_idloc", {"max_length": "enum_length", "enum_length": "enum_length",
                                "gaussian_paths": "gaussian_paths",
                                "gaussian_length": "gaussian_length"}),
    "meander-ac": ("certify_meander_ac", {"max_length": "max_length", "weight_n": "weight_n",
                                          "weight_trials": "weight_trials"}),
    "h-kernel": ("certify_h_kernel", {"max_length": "max_length"}),
}

# the config-file keys each command reads besides "seed" and "out"
CONFIG_KEYS = {
    **{f"verify {suite}": tuple(keys) for suite, (_, keys) in VERIFY.items()},
    "converge": ("law", "n_grid", "trials", "tolerances", "params"),
    "simulate": ("law", "length", "paths", "kind"),
    "tables": (),
}


def integers(text):
    """``--n-grid``: comma-separated integers; anything else is a usage error."""
    return [int(x) for x in text.split(",")]


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


def _finish(report: ExperimentReport, out_dir: str) -> int:
    report.write(out_dir)
    for c in report.criteria:
        status = "pass" if c.passed else "FAIL"
        print(f"[{status}] {c.cid}: {c.value:.6g} <= {c.threshold:.6g}")
    return report.exit_code()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fluctwalk",
        description="Random-walk fluctuation theory: exact certificates and "
                    "Monte Carlo scaling experiments.")
    parser.add_argument("--config", default=None, help="JSON file overriding defaults")
    parser.add_argument("--seed", type=int, default=20240808)
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--n-grid", type=integers, default=None,
                        help="comma-separated strictly increasing integers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="exact certification suites")
    p_verify.add_argument("suite", choices=list(VERIFY))
    p_verify.add_argument("--max-length", type=int, default=None)

    p_conv = sub.add_parser("converge", help="Monte Carlo scaling experiments")
    p_conv.add_argument("experiment", choices=list(RUNS))
    p_conv.add_argument("--law", default=None)

    p_sim = sub.add_parser("simulate", help="stream sampled paths to CSV")
    p_sim.add_argument("--law", default=None, help="default: gaussian")
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

    command = f"verify {args.suite}" if args.command == "verify" else args.command
    try:
        reject_unknown(command, "config", overrides, CONFIG_KEYS[command] + ("seed", "out"))
        if args.command == "verify":
            return _cmd_verify(args, overrides, out_dir, seed, p_verify.error)
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


def _cmd_verify(args, overrides, out_dir, seed, usage_error) -> int:
    name, keys = VERIFY[args.suite]
    certificate = getattr(certify, name)
    given = dict(overrides)
    if args.max_length is not None:
        if "max_length" not in keys:
            usage_error(f"--max-length: verify {args.suite} reads no length")
        given["max_length"] = args.max_length
    kwargs = {param: given[key] for key, param in keys.items() if key in given}
    signature = inspect.signature(certificate)
    if "seed" in signature.parameters:
        kwargs["seed"] = seed
    resolved = signature.bind(**kwargs)
    resolved.apply_defaults()
    res = certificate(**kwargs)
    echo = {"command": "verify", "suite": args.suite, "seed": seed,
            "params": resolved.arguments, "overrides": overrides}
    criteria = [Criterion(res.name, 0.0 if res.passed else 1.0, 0.0)]
    return _finish(ExperimentReport(config=echo, criteria=criteria,
                                    tables={res.name: res.rows} if res.rows else {},
                                    notes={res.name: res.detail}), out_dir)


def _cmd_converge(args, overrides, out_dir, seed) -> int:
    law_text = args.law or overrides.get("law")
    cfg = ExperimentConfig(
        experiment=args.experiment, law=_parse_law(law_text) if law_text else None,
        n_grid=overrides.get("n_grid", args.n_grid),
        trials=overrides.get("trials", args.trials), seed=seed,
        tolerances=overrides.get("tolerances", {}), params=overrides.get("params", {}))
    return _finish(RUNS[args.experiment](cfg), out_dir)


def _cmd_simulate(args, overrides, out_dir, seed, usage_error) -> int:
    law = _parse_law(args.law or overrides.get("law") or "gaussian")
    length = overrides.get("length", args.length)
    n_paths = overrides.get("paths", args.paths)
    kind = overrides.get("kind", args.kind)
    if kind == "walk":
        paths = [(WalkPath(values=tuple(row)), 1.0)
                 for S in iter_rows(law, length, seed, n_paths) for row in S.tolist()]
    elif kind == "conditioned":
        try:
            paths = [(conditioned_walk(law, length, derive_seed(seed, t)), 1.0)
                     for t in range(n_paths)]
        except UnsupportedModeError as exc:
            usage_error(f"--kind conditioned needs a --law with an exact renewal "
                        f"function, such as fair-pm1: {exc}")
    else:
        paths = [meander_sample(law, length, derive_seed(seed, t))
                 for t in range(n_paths)]
    rows = [["trial", "index", "value", "weight"]]
    for t, (path, weight) in enumerate(paths):
        for i, v in enumerate(path.values):
            rows.append([t, i, v, weight])
    write_rows(out_dir, f"{kind}_paths", rows)
    print(f"wrote {n_paths} {kind} paths of length {length} to {out_dir}")
    return 0


def _cmd_tables(args, out_dir) -> int:
    pts = args.points
    s = np.linspace(0.01, 25.0, pts)
    write_rows(out_dir, "ladder_time_cdf",
               [["s", "cdf"]] + [[float(x), float(levy_half_cdf(x))] for x in s])
    x = np.linspace(0.0, 4.0, pts)
    write_rows(out_dir, "meander_endpoint_cdf",
               [["x", "cdf"]] + [[float(v), float(rayleigh_cdf(v))] for v in x])
    grid = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
    write_rows(out_dir, "ladder_exponent",
               [["alpha", "beta", "kappa"]] +
               [[a, b, kappa_bm(a, b)] for a in grid for b in grid])
    write_rows(out_dir, "renewal_limit",
               [["x", "h"]] + [[float(v), float(h_bm(v))] for v in x])
    write_rows(out_dir, "constants",
               [["name", "value"],
                ["ladder_time_tail_beyond_1", half_stable_tau_tail(1.0)]])
    print(f"wrote reference tables to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
