#!/usr/bin/env python3
"""Re-record ``tests/outputs.json``, the digests of every command's outputs.

    PYTHONPATH=src python3 scripts/record_outputs.py [--out tests/outputs.json]

Runs each command of ``COMMANDS`` in process at the small sizes of the CLI
tests: every ``verify`` suite, every ``converge`` experiment, ``converge
theorem1|lemma1|harmonic --law uniform3``, all three ``simulate`` kinds and
``tables``.  Each runs in a fresh temporary directory with a relative
``--config`` and ``--out``, so no absolute path reaches an output, and it
records the exit code and, for every file written and for stdout, its
SHA-256.  Every output but a ``verify`` table also keeps the numbers in it
(the tokens as written) and the SHA-256 of its layout, the text with each
number replaced by ``#``.  The provenance (Python, numpy, platform) goes
with the digests: ``tests/test_outputs.py`` compares bytes when it matches
and otherwise the layout and the numbers within ``REL_TOL``, since float
outputs can differ in their last digits across numpy and LAPACK builds.
``verify`` tables are exact and compare bytes always.

Run it only on purpose: a changed digest is a changed output, and the
change that causes it names each changed file, and why, in CHANGES.md.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import sys
import tempfile

import numpy as np

from fluctwalk.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "tests", "outputs.json")

# relative (and, near zero, absolute) tolerance on numbers across builds
REL_TOL = 1e-9
ABS_TOL = 1e-12

NUMBER = re.compile(r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|[-+]?\b(?:nan|inf|NaN|Infinity)\b")

# (argv after the global flags, config file contents), each at a small size
COMMANDS = [
    (["verify", "reversal"], {"max_length": 4}),
    (["verify", "h-kernel"], {"max_length": 6}),
    (["verify", "meander-ac"], {"weight_trials": 4000, "weight_n": 16, "max_length": 6}),
    (["verify", "idloc"], {"gaussian_paths": 200, "gaussian_length": 120, "enum_length": 7}),
    (["verify", "fristedt"], {"truncation": 40}),
    (["converge", "theorem1"], {"n_grid": [64, 128], "trials": 300,
                                "tolerances": {"ks": 0.2, "height_mean": 0.2, "height_sd": 0.5},
                                "params": {"height_cap": 5000}}),
    (["converge", "localtime"], {"n_grid": [32, 64, 128, 256], "trials": 300}),
    (["converge", "lemma1"], {"n_grid": [128, 512],
                              "tolerances": {"drift_rel": 0.1, "interval_mass": 0.05},
                              "params": {"height_samples": 20000, "height_cap": 10000}}),
    (["converge", "meander"], {"n_grid": [64, 128], "trials": 1000}),
    (["converge", "harmonic"], {"n_grid": [64, 128, 256, 512]}),
    (["converge", "theorem1", "--law", "uniform3"],
     {"n_grid": [64, 128], "trials": 300,
      "tolerances": {"ks": 0.2, "height_mean": 0.2, "height_sd": 0.5}}),
    (["converge", "lemma1", "--law", "uniform3"], {"n_grid": [128, 512]}),
    (["converge", "harmonic", "--law", "uniform3"], {"n_grid": [64, 128, 256, 512]}),
    (["simulate", "--kind", "walk"], {"length": 16, "paths": 4}),
    (["simulate", "--kind", "conditioned", "--law", "fair-pm1"], {"length": 16, "paths": 4}),
    (["simulate", "--kind", "meander"], {"length": 16, "paths": 4}),
    (["tables"], {}),
]


def provenance():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}"}


def record(text: str, exact: bool) -> dict:
    """The SHA-256 of ``text``; unless ``exact``, also its numbers and layout."""
    entry = {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    if not exact:
        entry["layout_sha256"] = hashlib.sha256(NUMBER.sub("#", text).encode()).hexdigest()
        entry["numbers"] = " ".join(NUMBER.findall(text))
    return entry


def run_command(argv, config, workdir):
    """Run one command in ``workdir``: (exit code, {output name: record})."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with open("config.json", "w") as fh:
            json.dump(config, fh)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["--config", "config.json", "--out", "out"] + argv)
        texts = {"stdout": stdout.getvalue()}
        for name in sorted(os.listdir("out")):
            with open(os.path.join("out", name)) as fh:
                texts[name] = fh.read()
    finally:
        os.chdir(here)
    leaked = [name for name, text in texts.items() if os.path.abspath(workdir) in text]
    if leaked:
        raise ValueError(f"{' '.join(argv)}: an absolute path in {leaked}")
    return code, {name: record(text, argv[0] == "verify" and name.endswith(".csv"))
                  for name, text in texts.items()}


def record_all():
    commands = []
    for argv, config in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            code, outputs = run_command(argv, config, tmp)
        commands.append({"argv": argv, "config": config, "exit": code, "outputs": outputs})
    return {"provenance": provenance(), "commands": commands}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=MANIFEST)
    args = parser.parse_args()
    manifest = record_all()
    with open(args.out, "w") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(manifest['commands'])} commands to {args.out}", file=sys.stderr)
