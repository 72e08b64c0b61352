"""Every command's outputs against the manifest ``tests/outputs.json``.

``scripts/record_outputs.py`` records the manifest, and is re-run only on
purpose.  On the build it was recorded on (same Python, numpy and platform)
every output compares byte for byte; on another build the layout compares
byte for byte and the numbers within the script's ``REL_TOL``, except the
exact ``verify`` tables, which compare bytes always.
"""

import json
import math
import os
import runpy

import pytest

from fluctwalk.cli import SIMULATE_KINDS, VERIFY
from fluctwalk.experiments import RUNS

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "record_outputs.py")
RECORD = runpy.run_path(SCRIPT)
with open(os.path.join(os.path.dirname(__file__), "outputs.json")) as fh:
    MANIFEST = json.load(fh)


def mismatches(recorded: dict, fresh: dict, same_build: bool) -> list:
    """The names of the outputs of one command that differ from the record."""
    bad = sorted(recorded.keys() ^ fresh.keys())
    for name in sorted(recorded.keys() & fresh.keys()):
        want, got = recorded[name], fresh[name]
        if same_build or "numbers" not in want:
            ok = got["sha256"] == want["sha256"]
        else:
            a, b = want["numbers"].split(), got["numbers"].split()
            ok = (got["layout_sha256"] == want["layout_sha256"] and len(a) == len(b)
                  and all(math.isclose(float(x), float(y), rel_tol=RECORD["REL_TOL"],
                                       abs_tol=RECORD["ABS_TOL"])
                          or (math.isnan(float(x)) and math.isnan(float(y)))
                          for x, y in zip(a, b)))
        if not ok:
            bad.append(name)
    return bad


def test_the_manifest_records_every_command():
    recorded = [(c["argv"], c["config"]) for c in MANIFEST["commands"]]
    assert recorded == [(list(a), c) for a, c in RECORD["COMMANDS"]]
    argvs = [a for a, _ in recorded]
    assert {a[1] for a in argvs if a[0] == "verify"} == set(VERIFY)
    assert {a[1] for a in argvs if a[:1] == ["converge"] and len(a) == 2} == set(RUNS)
    assert [a[1] for a in argvs if a[2:] == ["--law", "uniform3"]] == [
        "theorem1", "lemma1", "harmonic"]
    assert [a[2] for a in argvs if a[0] == "simulate"] == list(SIMULATE_KINDS)
    assert ["tables"] in argvs


@pytest.mark.parametrize("entry", MANIFEST["commands"],
                         ids=lambda e: "-".join(a for a in e["argv"] if a[:2] != "--"))
def test_command_outputs_match_the_manifest(tmp_path, entry):
    code, outputs = RECORD["run_command"](entry["argv"], entry["config"], tmp_path)
    assert code == entry["exit"]
    same_build = MANIFEST["provenance"] == RECORD["provenance"]()
    assert mismatches(entry["outputs"], outputs, same_build) == []


def test_another_build_compares_numbers_within_the_tolerance(tmp_path):
    # the comparison used when the provenance differs: a last-digit change
    # passes, a change of relative 1e-6 or of the layout does not, and a
    # verify table still compares bytes
    harmonic = next(c for c in MANIFEST["commands"] if c["argv"] == ["converge", "harmonic"])
    _, fresh = RECORD["run_command"](harmonic["argv"], harmonic["config"], tmp_path)
    text = (tmp_path / "out" / "harmonic.csv").read_text()
    value = RECORD["NUMBER"].findall(text)[-1]

    def edited(new):
        return {**fresh, "harmonic.csv": RECORD["record"](text.replace(value, new), False)}

    recorded = harmonic["outputs"]
    last_digit = edited(repr(math.nextafter(float(value), math.inf)))
    assert mismatches(recorded, fresh, same_build=False) == []
    assert mismatches(recorded, last_digit, same_build=True) == ["harmonic.csv"]
    assert mismatches(recorded, last_digit, same_build=False) == []
    assert mismatches(recorded, edited(repr(float(value) * (1 + 1e-6))),
                      same_build=False) == ["harmonic.csv"]
    assert mismatches(recorded, edited(value + ","), same_build=False) == ["harmonic.csv"]
    reversal = MANIFEST["commands"][0]
    table = {**reversal["outputs"], "reversal.csv": {"sha256": "0" * 64}}
    assert mismatches(reversal["outputs"], table, same_build=False) == ["reversal.csv"]
