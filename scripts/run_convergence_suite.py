#!/usr/bin/env python3
"""Run the Monte Carlo convergence experiments at desk scale.

Writes one report directory per experiment under out/converge.  Pass
``--full`` for the acceptance-grade parameters (several minutes); the
default settings finish in well under a minute.
"""

import json
import os
import sys
import tempfile

from fluctwalk.cli import main

FULL = "--full" in sys.argv

CONFIGS = {
    "theorem1": {
        "n_grid": [1024, 4096] if FULL else [256, 1024],
        "trials": 10_000 if FULL else 2_000,
        "tolerances": {"ks": 0.02, "height_mean": 0.02, "height_sd": 0.08}
        if FULL else {"ks": 0.05, "height_mean": 0.05, "height_sd": 0.12},
        "params": {"height_cap": 100_000 if FULL else 20_000},
        "seed": 23,
    },
    "localtime": {
        "n_grid": [2 ** q for q in range(8, 14)] if FULL
        else [2 ** q for q in range(6, 11)],
        "trials": 200 if FULL else 2_000,
        "seed": 211,
    },
    "lemma1": {
        "n_grid": [1024, 4096] if FULL else [512, 2048],
        "tolerances": {"drift_rel": 0.03 if FULL else 0.06,
                       "interval_mass": 0.02 if FULL else 0.04},
        "params": {"height_samples": 100_000 if FULL else 30_000,
                   "height_cap": 100_000 if FULL else 20_000},
        "seed": 23,
    },
    "meander": {
        "n_grid": [1024, 4096] if FULL else [256, 1024],
        "trials": 10_000 if FULL else 4_000,
        "seed": 23,
    },
    "harmonic": {
        "n_grid": [2 ** q for q in range(8, 14)] if FULL
        else [2 ** q for q in range(7, 11)],
        "tolerances": {"product_rel": 0.05, "doubling_rel": 0.02},
        "seed": 23,
    },
}

if __name__ == "__main__":
    worst = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in CONFIGS.items():
            print(f"== converge {name}")
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(cfg, fh)
            code = main(["--config", path, "--out", f"out/converge/{name}",
                         "converge", name])
            worst = max(worst, code)
    sys.exit(worst)
