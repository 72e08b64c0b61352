import csv
import functools
import importlib
import inspect
import io
import json
import os
import runpy
import subprocess
import sys
import tracemalloc
import warnings

import pytest

import numpy as np

from fluctwalk import certify, cli, experiments
from fluctwalk.cli import VERIFY, main
from fluctwalk.conditioning import conditioned_states, meander_sample
from fluctwalk.increments import IncrementLaw, sample_rows, stream

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")
BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def run(args):
    return main(args)


def test_verify_h_kernel(tmp_path):
    out = str(tmp_path / "hk")
    assert run(["--out", out, "verify", "h-kernel", "--max-length", "6"]) == 0
    data = json.loads(open(os.path.join(out, "report.json")).read())
    assert data["pass"] is True


def test_verify_fristedt_with_config_override(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"truncation": 40}))
    out = str(tmp_path / "fr")
    assert run(["--config", str(cfgfile), "--out", out, "verify", "fristedt"]) == 0
    assert os.path.exists(os.path.join(out, "fristedt.csv"))


@pytest.mark.parametrize("suite", [s for s in VERIFY
                                   if "max_length" not in cli.CONFIG_KEYS[f"verify {s}"]])
def test_max_length_on_a_suite_without_length_is_a_usage_error(tmp_path, capsys, suite):
    out = str(tmp_path / "v")
    with pytest.raises(SystemExit) as exc:
        run(["--out", out, "verify", suite, "--max-length", "3"])
    assert exc.value.code == 2
    assert "--max-length" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_verify_reversal_small(tmp_path):
    out = str(tmp_path / "rev")
    assert run(["--out", out, "verify", "reversal", "--max-length", "4"]) == 0


@pytest.mark.parametrize("suite,length", [("reversal", "0"), ("reversal", "-3"),
                                          ("h-kernel", "0"), ("meander-ac", "0")])
def test_verify_over_no_window_length_is_one_error_line(tmp_path, capsys, suite, length):
    # a certificate that compares nothing must not report a pass
    out = str(tmp_path / "v")
    assert run(["--out", out, "verify", suite, "--max-length", length]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "max_length" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("suite,length", [("reversal", "13"), ("h-kernel", "20"),
                                          ("meander-ac", "20")])
def test_verify_over_the_budget_is_refused_before_any_length_runs(tmp_path, capsys,
                                                                 monkeypatch, suite, length):
    # the cells and D**m grow with m, so max_length alone decides; no
    # smaller window is enumerated first
    ran = []

    def counted(name, fn):
        def call(*args, **kwargs):
            ran.append(name)
            return fn(*args, **kwargs)
        return call

    for name in ("_reversal_differences", "path_matrix"):
        monkeypatch.setattr(certify, name, counted(name, getattr(certify, name)))
    out = str(tmp_path / "v")
    assert run(["--out", out, "verify", suite, "--max-length", length]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"cells at length {length} exceed" in err
    assert ran == []
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv,config", [
    (["--seed", "-1", "converge", "theorem1"], None),
    (["--seed", "-1", "verify", "idloc"], None),
    (["--seed", "-5", "simulate"], None),
    (["converge", "theorem1"], {"seed": -1}),
    (["verify", "idloc"], {"seed": True}),
    (["simulate"], {"seed": 2.0}),
    (["simulate"], {"seed": "5"}),
], ids=["flag-converge", "flag-verify", "flag-simulate", "config-negative", "config-bool",
        "config-float", "config-text"])
def test_a_seed_that_is_not_a_non_negative_integer_is_one_error_line(tmp_path, capsys,
                                                                      argv, config):
    # every stream hashes the seed as non-negative words: anything else is
    # refused before a command runs
    out = str(tmp_path / "o")
    prefix = ["--out", out]
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        prefix += ["--config", str(tmp_path / "c.json")]
    assert run(prefix + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "seed" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv,config", [
    (["verify", "reversal"], {"max_length": "3"}),
    (["verify", "reversal"], {"max_length": 2.5}),
    (["verify", "h-kernel"], {"max_length": True}),
    (["verify", "idloc"], {"gaussian_paths": 10.5}),
    (["verify", "meander-ac"], {"weight_trials": "100"}),
    (["verify", "fristedt"], {"truncation": 10.5}),
    (["converge", "theorem1"], {"trials": "500"}),
    (["converge", "theorem1"], {"trials": 500.5}),
    (["converge", "meander"], {"trials": True}),
    (["converge", "theorem1"], {"n_grid": 64}),
    (["converge", "theorem1"], {"n_grid": [64.5, 128]}),
    (["converge", "theorem1"], {"n_grid": ["64"]}),
    (["converge", "theorem1"], {"tolerances": []}),
    (["converge", "theorem1"], {"tolerances": {"ks": "0.5"}}),
    (["converge", "theorem1"], {"params": []}),
    (["converge", "theorem1"], {"params": {"height_cap": "x"}}),
    (["converge", "lemma1"], {"params": {"height_samples": 2.5}}),
    (["converge", "lemma1"], {"params": {"height_cap": True}}),
    (["converge", "harmonic"], {"params": {"x_grid": 3}}),
    (["converge", "harmonic"], {"params": {"x_grid": ["a"]}}),
    (["converge", "theorem1"], {"law": {"kind": "gaussian"}}),
    (["simulate"], {"law": {"kind": "gaussian"}}),
    (["tables"], {"out": 5}),
], ids=["reversal-length-text", "reversal-length-float", "h-kernel-length-bool",
        "idloc-paths-float", "meander-ac-trials-text", "fristedt-truncation-float",
        "converge-trials-text", "converge-trials-float", "converge-trials-bool",
        "converge-grid-number", "converge-grid-float", "converge-grid-text",
        "converge-tolerances-list", "converge-tolerance-text", "converge-params-list",
        "theorem1-cap-text", "lemma1-samples-float", "lemma1-cap-bool",
        "harmonic-x-grid-number", "harmonic-x-grid-text",
        "converge-law-object", "simulate-law-object", "tables-out-number"])
def test_a_config_value_of_the_wrong_type_is_one_error_line(tmp_path, capsys, argv, config):
    # counts are ints and not bools, tolerances an object of numbers, params
    # an object whose values have the JSON type of their declared defaults,
    # and a law and the output directory strings: refused before anything runs
    (tmp_path / "c.json").write_text(json.dumps(config))
    out = str(tmp_path / "o")
    assert run(["--config", str(tmp_path / "c.json"), "--out", out] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not os.path.exists(os.path.join(out, "report.json"))


@pytest.mark.parametrize("trials", [1, 0])
def test_verify_meander_ac_without_weight_spread_is_one_error_line(tmp_path, capsys, trials):
    # one weight has no standard error: the input is rejected, not certified
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"weight_trials": trials, "max_length": 2}))
    out = str(tmp_path / "v")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["--config", str(cfgfile), "--out", out, "verify", "meander-ac"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "weight_trials" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("suite, config, name", [
    ("idloc", {"enum_length": 0}, "enum_length"),
    ("idloc", {"gaussian_paths": 0}, "gaussian_paths"),
    ("fristedt", {"truncation": 0}, "truncation"),
    ("fristedt", {"truncation": -2}, "truncation"),
])
def test_verify_over_an_empty_family_is_one_error_line(tmp_path, capsys, suite, config,
                                                       name):
    # no enumerated window, no sampled path or no truncation term: the input
    # is rejected, not certified
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(config))
    out = str(tmp_path / "v")
    assert run(["--config", str(cfgfile), "--out", out, "verify", suite]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err
    assert not os.path.exists(out)


def test_verify_idloc_small(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"gaussian_paths": 200, "gaussian_length": 120,
                                   "enum_length": 7}))
    out = str(tmp_path / "id")
    assert run(["--config", str(cfgfile), "--out", out, "verify", "idloc"]) == 0


def test_verify_meander_ac_small(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"weight_trials": 4000, "weight_n": 16,
                                   "max_length": 6}))
    out = str(tmp_path / "ac")
    assert run(["--config", str(cfgfile), "--out", out, "verify", "meander-ac"]) == 0


def _stand_in_certificate(monkeypatch, suite):
    """Replace the certificate of ``verify suite`` by a stand-in with the real
    signature; return the list of keyword arguments it will receive."""
    name = VERIFY[suite]
    calls = []

    @functools.wraps(getattr(certify, name))
    def stand_in(**kwargs):
        calls.append(kwargs)
        return certify.CheckResult(suite, True, "stand-in")

    monkeypatch.setattr(certify, name, stand_in)
    return calls


def _recorded_verify(tmp_path, monkeypatch, suite, argv=(), config=None):
    """Run ``verify suite`` on a stand-in certificate with the real signature;
    return the keyword arguments it received and the echoed parameters."""
    calls = _stand_in_certificate(monkeypatch, suite)
    cfgfile = tmp_path / f"{suite}.json"
    cfgfile.write_text(json.dumps(config or {}))
    out = str(tmp_path / suite)
    assert run(["--config", str(cfgfile), "--out", out, "verify", suite, *argv]) == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    return calls, report["config"]["params"]


@pytest.mark.parametrize("suite", list(VERIFY))
def test_verify_runs_each_certificate_at_its_own_defaults(tmp_path, monkeypatch, suite):
    # the certify_* keyword defaults are the only declared sizes: the command
    # passes nothing but the master seed, and echoes the defaults it ran at
    signature = inspect.signature(getattr(certify, VERIFY[suite]))
    calls, params = _recorded_verify(tmp_path, monkeypatch, suite)
    assert calls == [{"seed": 20240808} if "seed" in signature.parameters else {}]
    assert params == json.loads(json.dumps(
        {k: p.default for k, p in signature.parameters.items()}))


@pytest.mark.parametrize("suite,argv,config,given", [
    ("idloc", [], {"enum_length": 4}, {"enum_length": 4}),
    ("idloc", [], {"gaussian_paths": 7, "gaussian_length": 9},
     {"gaussian_paths": 7, "gaussian_length": 9}),
    ("fristedt", [], {"truncation": 40}, {"truncation": 40}),
    ("meander-ac", ["--max-length", "3"], {"max_length": 4, "weight_n": 8},
     {"max_length": 3, "weight_n": 8}),
])
def test_verify_config_keys_are_certificate_parameters(tmp_path, monkeypatch,
                                                        suite, argv, config, given):
    # a config key passes to the certificate parameter of the same name, and
    # --max-length beats a config max_length
    calls, params = _recorded_verify(tmp_path, monkeypatch, suite, argv, config)
    seed = {"seed": 20240808} if "seed" in params else {}
    assert calls == [{**given, **seed}]
    assert given.items() <= params.items()


def test_converge_harmonic_small(tmp_path):
    out = str(tmp_path / "h")
    code = run(["--out", out, "--n-grid", "64,128,256,512",
                "converge", "harmonic"])
    assert code == 0
    data = json.loads(open(os.path.join(out, "report.json")).read())
    ids = {c["id"] for c in data["criteria"]}
    assert "harmonic_product_rel_error" in ids


def test_converge_harmonic_detects_hypothesis_violation(tmp_path):
    out = str(tmp_path / "bad")
    law = json.dumps({"kind": "lattice", "support": ["1"], "probs": ["1"]})
    code = run(["--out", out, "converge", "harmonic", "--law", law])
    assert code == 2


def test_converge_harmonic_refuses_a_drifting_law(tmp_path, capsys):
    # a_hat_n P(C_n) -> P(tau > 1) holds only for oscillating walks; the
    # biased walk drifts, so the experiment is refused before any row
    out = str(tmp_path / "drift")
    assert run(["--out", out, "converge", "harmonic", "--law", "biased-pm1"]) == 2
    assert "zero-mean" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))


def test_converge_harmonic_tolerance_failure_exits_one(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"tolerances": {"product_rel": 1e-9},
                                   "n_grid": [64, 128, 256]}))
    out = str(tmp_path / "f")
    assert run(["--config", str(cfgfile), "--out", out,
                "converge", "harmonic"]) == 1


def test_converge_harmonic_on_a_one_point_grid_is_one_error_line(tmp_path, capsys,
                                                                  monkeypatch):
    # the criteria read the last two rows: a grid of one n is refused
    # before anything is computed
    def computed(*args):
        raise AssertionError("computed on a one-point grid")

    monkeypatch.setattr(experiments, "norming_constant", computed)
    monkeypatch.setattr(experiments, "meander_endpoint_floats", computed)
    out = str(tmp_path / "h")
    assert run(["--out", out, "--n-grid", "256", "converge", "harmonic"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not os.path.exists(out)


def test_converge_meander_small_and_deterministic(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "n_grid": [64, 128], "trials": 1000}))
    out1, out2 = str(tmp_path / "m1"), str(tmp_path / "m2")
    assert run(["--config", str(cfgfile), "--out", out1, "converge", "meander"]) == 0
    assert run(["--config", str(cfgfile), "--out", out2, "converge", "meander"]) == 0
    b1 = open(os.path.join(out1, "report.json"), "rb").read()
    b2 = open(os.path.join(out2, "report.json"), "rb").read()
    assert b1 == b2


def test_converge_meander_defaults_pass(tmp_path):
    assert run(["--out", str(tmp_path), "converge", "meander"]) == 0


def test_converge_theorem1_small(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "n_grid": [64, 128], "trials": 300,
        "tolerances": {"ks": 0.2, "height_mean": 0.2, "height_sd": 0.5},
        "params": {"height_cap": 5000}}))
    out = str(tmp_path / "t1")
    assert run(["--config", str(cfgfile), "--out", out, "converge", "theorem1"]) == 0


FIVE_ATOM = ('{"kind": "lattice", "support": [-2, -1, 0, 1, 2], '
             '"probs": ["1/10", "1/5", "2/5", "1/5", "1/10"]}')


@pytest.mark.parametrize("name,law", [("theorem1", "uniform3"), ("lemma1", "uniform3"),
                                      ("theorem1", FIVE_ATOM)],
                         ids=["theorem1-uniform3", "lemma1-uniform3", "theorem1-five-atom"])
def test_converge_lattice_laws_pass_at_defaults(tmp_path, name, law):
    # symmetric lattice laws other than the fair walk draw ladder times from
    # the swept first-ascent table; the five-atom law can ascend to level 2,
    # so its ladder heights are drawn and their spread is not zero
    out = str(tmp_path / name)
    assert run(["--out", out, "converge", name, "--law", law]) == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    if name == "theorem1":
        sd = {c["id"]: c["value"] for c in report["criteria"]}["height_sd"]
        assert (sd > 0) is (law == FIVE_ATOM)


def test_converge_localtime_small(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"n_grid": [32, 64, 128, 256], "trials": 300}))
    out = str(tmp_path / "lt")
    assert run(["--config", str(cfgfile), "--out", out, "converge", "localtime"]) == 0
    report = json.loads(open(os.path.join(out, "report.json")).read())
    assert report["config"]["trials"] == 300
    assert report["config"]["tolerances"] == {} == report["config"]["params"]
    rows = open(os.path.join(out, "localtime.csv")).read().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["32", "64", "128", "256"]


def test_converge_localtime_defaults_pass(tmp_path):
    assert run(["--out", str(tmp_path), "converge", "localtime"]) == 0


def test_converge_lemma1_small(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({
        "n_grid": [128, 512],
        "tolerances": {"drift_rel": 0.1, "interval_mass": 0.05},
        "params": {"height_samples": 20000, "height_cap": 10000}}))
    out = str(tmp_path / "l1")
    assert run(["--config", str(cfgfile), "--out", out, "converge", "lemma1"]) == 0


def test_simulate_writes_paths(tmp_path):
    out = str(tmp_path / "sim")
    assert run(["--out", out, "simulate", "--law", "fair-pm1", "--length", "16",
                "--paths", "3", "--kind", "meander"]) == 0
    rows = open(os.path.join(out, "meander_paths.csv")).read().splitlines()
    assert rows[0] == "trial,index,value,weight"
    assert len(rows) == 1 + 3 * 17


@pytest.mark.parametrize("flag,config,pm1", [
    (["--law", "fair-pm1"], {"law": "gaussian"}, True),
    ([], {"law": "fair-pm1"}, True),
    ([], {}, False),
])
def test_simulate_law_flag_beats_config_law(tmp_path, flag, config, pm1):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(config))
    out = str(tmp_path / "sim")
    assert run(["--config", str(cfgfile), "--out", out, "simulate", *flag,
                "--length", "4", "--paths", "2"]) == 0
    rows = [row.split(",") for row in
            open(os.path.join(out, "walk_paths.csv")).read().splitlines()[1:]]
    steps = {abs(float(b[2]) - float(a[2])) for a, b in zip(rows, rows[1:])
             if a[0] == b[0]}
    assert (steps == {1.0}) is pm1


def test_simulate_conditioned(tmp_path):
    out = str(tmp_path / "simc")
    assert run(["--out", out, "simulate", "--law", "fair-pm1", "--length", "8",
                "--paths", "2", "--kind", "conditioned"]) == 0
    assert os.path.exists(os.path.join(out, "conditioned_paths.csv"))


def _simulated_paths(out, kind):
    rows = [row.split(",") for row in
            open(os.path.join(out, f"{kind}_paths.csv")).read().splitlines()[1:]]
    paths = {}
    for t, i, v, w in rows:
        assert w == "1.0"
        paths.setdefault(int(t), []).append(float(v))
    return [paths[t] for t in range(len(paths))]


HALF = '{"kind": "lattice", "support": ["-1/2", "1/2"], "probs": ["1/2", "1/2"]}'


@pytest.mark.parametrize("law,unit", [("fair-pm1", 1), ("uniform3", 1), (HALF, 0.5)])
def test_simulate_conditioned_rows_are_one_conditioned_states_batch(tmp_path, law, unit):
    out = str(tmp_path / "simc")
    assert run(["--seed", "11", "--out", out, "simulate", "--law", law, "--length", "12",
                "--paths", "5", "--kind", "conditioned"]) == 0
    levels = np.column_stack([np.zeros(5, dtype=np.int64)] + list(
        conditioned_states(cli._parse_law(law), 12, 5, stream(11, "chains"))))
    assert _simulated_paths(out, "conditioned") == (levels * unit).tolist()


@pytest.mark.parametrize("law", ["fair-pm1", "gaussian"])
def test_simulate_meander_rows_are_one_meander_sample_batch(tmp_path, law):
    out = str(tmp_path / "simm")
    assert run(["--seed", "11", "--out", out, "simulate", "--law", law, "--length", "12",
                "--paths", "5", "--kind", "meander"]) == 0
    expected = meander_sample(cli._parse_law(law), 12, 5, 11).tolist()
    assert _simulated_paths(out, "meander") == expected


def _listed_csv(kind, law, length, n_paths, seed):
    # the CSV of simulate as one list of every cell, written in one call
    if kind == "walk":
        paths = sample_rows(law, length, seed, 0, n_paths).tolist()
    elif kind == "conditioned":
        levels = np.column_stack([np.zeros(n_paths, dtype=np.int64)] + list(
            conditioned_states(law, length, n_paths, stream(seed, "chains"))))
        unit = law.lattice_integer_form()[0]
        paths = (levels * unit.numerator / unit.denominator).tolist()
    else:
        paths = meander_sample(law, length, n_paths, seed).tolist()
    rows = [["trial", "index", "value", "weight"]]
    for t, values in enumerate(paths):
        for i, v in enumerate(values):
            rows.append([t, i, v, 1.0])
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


@pytest.mark.parametrize("kind,law", [("walk", "gaussian"), ("walk", "cauchy"),
                                      ("meander", "gaussian"), ("conditioned", HALF)],
                         ids=["walk-gaussian", "walk-cauchy", "meander-gaussian",
                              "conditioned-half"])
def test_streamed_simulate_csv_equals_the_listed_one(tmp_path, kind, law):
    # 40 walks of 30 steps come in batches of 16 and 24 rows, so the trial
    # index must run on across batches
    out = str(tmp_path / "sim")
    assert run(["--seed", "5", "--out", out, "simulate", "--law", law, "--length", "30",
                "--paths", "40", "--kind", kind]) == 0
    with open(os.path.join(out, f"{kind}_paths.csv"), "rb") as fh:
        assert fh.read() == _listed_csv(kind, cli._parse_law(law), 30, 40, 5)


def test_simulate_streams_walks_without_holding_their_rows(tmp_path):
    # 400 walks of 1000 steps as one list of cells trace about 58 MiB; streamed,
    # a 2^16-step batch and its values as floats stay near 3.5 MiB
    out = str(tmp_path / "sim")
    tracemalloc.start()
    try:
        assert run(["--out", out, "simulate", "--kind", "walk", "--paths", "400",
                    "--length", "1000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_simulate_conditioned_holds_one_copy_of_its_levels(tmp_path):
    # 200 chains of 1000 steps: one int64 level matrix is 1.5 MiB and the
    # whole run traces about 2.7 MiB; a list of per-step levels, its stacked
    # matrix and a scaled float copy trace about 5.5 MiB
    out = str(tmp_path / "sim")
    tracemalloc.start()
    try:
        assert run(["--out", out, "simulate", "--kind", "conditioned", "--law", "fair-pm1",
                    "--paths", "200", "--length", "1000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


@pytest.mark.parametrize("argv,config", [
    (["--paths", "-3"], None),
    (["--paths", "0"], None),
    ([], {"kind": "bogus"}),
    ([], {"paths": "3"}),
    ([], {"paths": True}),
    ([], {"length": 2.5}),
    ([], {"kind": "meander", "length": "12"}),
], ids=["flag-paths-negative", "flag-paths-zero", "config-kind-bogus", "config-paths-text",
        "config-paths-bool", "config-length-float", "config-meander-length-text"])
def test_simulate_refuses_a_bad_count_or_kind_before_drawing(tmp_path, capsys, argv, config):
    # every kind needs paths >= 1 and length >= 1 as exact ints, and a known
    # kind: one "error:" line, exit 1, no file
    out = str(tmp_path / "o")
    prefix = ["--out", out]
    if config is not None:
        (tmp_path / "c.json").write_text(json.dumps(config))
        prefix += ["--config", str(tmp_path / "c.json")]
    assert run(prefix + ["simulate"] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("argv,flag", [
    (["--trials", "5", "--n-grid", "3,4", "tables"], "--trials"),
    (["--trials", "7", "verify", "reversal"], "--trials"),
    (["--n-grid", "64", "verify", "h-kernel"], "--n-grid"),
    (["--n-grid", "64", "simulate"], "--n-grid"),
])
def test_global_flags_outside_converge_are_a_usage_error(tmp_path, capsys, argv, flag):
    # only converge reads --trials and --n-grid; elsewhere they would be ignored
    out = str(tmp_path / "o")
    with pytest.raises(SystemExit) as exc:
        run(["--out", out] + argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("law", [None, "cauchy",
                                 '{"kind": "lattice", "support": ["-2", "1"], '
                                 '"probs": ["1/3", "2/3"]}'])
def test_simulate_conditioned_rejects_law_without_exact_renewal(tmp_path, capsys, law):
    # the default Gaussian law, a non-lattice law and a lattice law that can
    # jump two units down have no exact renewal function: usage error, no file
    out = str(tmp_path / "bad")
    argv = ["--out", out, "simulate", "--kind", "conditioned"]
    if law is not None:
        argv += ["--law", law]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "--law" in capsys.readouterr().err
    assert not os.path.exists(out)


class Validated(Exception):
    """Raised in place of the run once a config has passed validation."""


def _stop_after_validation(monkeypatch):
    # every run_* calls check_bilateral right after config.validate
    def stop(law):
        raise Validated
    monkeypatch.setattr(experiments, "check_bilateral", stop)


EXPERIMENTS = ["theorem1", "localtime", "lemma1", "meander", "harmonic"]


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_converge_defaults_pass_config_validation(tmp_path, monkeypatch, name):
    _stop_after_validation(monkeypatch)
    with pytest.raises(Validated):
        run(["--out", str(tmp_path), "converge", name])


def _validate_only(monkeypatch):
    # every experiment stops after its config checks and reports no criteria
    def validate_only(config):
        config.validate(config.experiment)
        return experiments.ExperimentReport(config.echo(), [], {})
    for name in experiments.RUNS:
        monkeypatch.setitem(experiments.RUNS, name, validate_only)


@pytest.mark.parametrize("full", [False, True])
def test_convergence_suite_configs_pass_validation(tmp_path, monkeypatch, full):
    # every config of the script, run through the CLI's key checks: a key
    # the experiment no longer declares fails here
    monkeypatch.setattr(sys, "argv", ["run_convergence_suite.py"] + ["--full"] * full)
    configs = runpy.run_path(os.path.join(SCRIPTS, "run_convergence_suite.py"))["CONFIGS"]
    _validate_only(monkeypatch)
    assert sorted(configs) == sorted(EXPERIMENTS)
    for name, config in configs.items():
        cfgfile = tmp_path / f"{name}.json"
        cfgfile.write_text(json.dumps(config))
        assert run(["--config", str(cfgfile), "--out", str(tmp_path / name),
                    "converge", name]) == 0, name


def test_convergence_suite_leaves_no_config_files(monkeypatch):
    # each experiment's config file is gone once the suite exits
    seen = []

    def fake_main(argv):
        path = argv[argv.index("--config") + 1]
        assert os.path.exists(path)
        seen.append(path)
        return 0
    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(sys, "argv", ["run_convergence_suite.py"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(os.path.join(SCRIPTS, "run_convergence_suite.py"),
                       run_name="__main__")
    assert exc.value.code == 0
    assert len(seen) == len(EXPERIMENTS)
    assert not any(os.path.exists(p) for p in seen)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_converge_precedence(tmp_path, monkeypatch, name):
    # config n_grid / trials > --n-grid / --trials > declaration; --law > config law
    validate = experiments.ExperimentConfig.validate

    def capture(config, experiment):
        validate(config, experiment)
        raise Validated(config)
    monkeypatch.setattr(experiments.ExperimentConfig, "validate", capture)

    def resolved(overrides, flags=(), law_flag=()):
        cfgfile = tmp_path / "c.json"
        cfgfile.write_text(json.dumps(overrides))
        with pytest.raises(Validated) as exc:
            run(["--config", str(cfgfile), "--out", str(tmp_path), *flags,
                 "converge", name, *law_flag])
        return exc.value.args[0]

    declared = experiments.DECLARED[name]
    draws = declared.trials is not None
    flags = ["--n-grid", "64,128,256"] + ["--trials", "300"] * draws
    config = {"n_grid": [32, 64, 128], **({"trials": 200} if draws else {})}
    c = resolved({})
    assert (c.n_grid, c.trials, c.law) == (declared.n_grid, declared.trials, declared.law)
    c = resolved({}, flags)
    assert (c.n_grid, c.trials) == ([64, 128, 256], 300 if draws else None)
    c = resolved(config, flags)
    assert (c.n_grid, c.trials) == ([32, 64, 128], 200 if draws else None)
    assert resolved({"law": "uniform3"}).law == IncrementLaw.uniform3()
    c = resolved({"law": "uniform3"}, law_flag=["--law", "fair-pm1"])
    assert c.law == IncrementLaw.fair_pm1()


def test_malformed_n_grid_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--out", str(tmp_path), "--n-grid", "64,x", "converge", "theorem1"])
    assert exc.value.code == 2
    assert "--n-grid" in capsys.readouterr().err


@pytest.mark.parametrize("argv,key", [
    (["verify", "idloc"], "gausian_paths"),
    (["converge", "theorem1"], "n_gird"),
    (["converge", "harmonic"], "trials"),
    (["simulate"], "trials"),
    (["converge", "lemma1"], "trials"),
    (["converge", "theorem1"], "params.tail_table"),
    (["verify", "idloc"], "max_length"),
    (["verify", "fristedt"], "K"),
    (["converge", "theorem1"], "params.window_mult"),
    (["converge", "localtime"], "params.variant"),
    (["converge", "lemma1"], "params.interval"),
    (["converge", "lemma1"], "params.interval1"),
    (["converge", "lemma1"], "params.interval2"),
    (["converge", "lemma1"], "params.time_tail_cutoff"),
])
def test_unread_config_keys_rejected(tmp_path, capsys, argv, key):
    # "section.name" is the key name inside the config's section
    section, _, name = key.rpartition(".")
    entry = {section: {name: 5}} if section else {name: 5}
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({**entry, "seed": 1, "out": str(tmp_path / "o")}))
    assert run(["--config", str(cfgfile)] + argv) == 1
    assert repr(name) in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_tables(tmp_path):
    out = str(tmp_path / "tab")
    assert run(["--out", out, "tables"]) == 0
    for name in ("ladder_time_cdf", "meander_endpoint_cdf", "ladder_exponent",
                 "renewal_limit", "constants"):
        assert os.path.exists(os.path.join(out, f"{name}.csv"))
    # 200 points per reference curve, plus the header
    assert len(open(os.path.join(out, "ladder_time_cdf.csv")).readlines()) == 201


def test_tables_reads_no_points_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--out", str(tmp_path / "tab"), "tables", "--points", "50"])
    assert exc.value.code == 2
    assert "--points" in capsys.readouterr().err


GAUSS_X = '{"kind": "gaussian", "mean": 0, "stddev": "x"}'


@pytest.mark.parametrize("law,config", [
    ("nosuchlaw", None),
    ('{"kind": "lattice"}', None),
    (GAUSS_X, None),
    (None, "missing"),
    (None, "{bad"),
    (None, "[1, 2]"),
    (os.curdir, None),
], ids=["law-not-json", "lattice-without-support", "gaussian-stddev-text",
        "config-missing", "config-not-json", "config-not-object", "law-a-directory"])
def test_malformed_input_is_one_error_line(tmp_path, capsys, law, config):
    # a --law that is not a law object, or a --config that is not a readable
    # JSON object: one "error:" line on stderr, exit 1, no output
    out = str(tmp_path / "o")
    argv = ["--out", out]
    if config is not None:
        path = tmp_path / "c.json"
        if config != "missing":
            path.write_text(config)
        argv += ["--config", str(path)]
    argv += ["converge", "harmonic"] + (["--law", law] if law else [])
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not os.path.exists(out)


@pytest.mark.parametrize("size", ["full", "smoke"])
def test_benchmark_configs_pass_the_cli_key_checks(tmp_path, monkeypatch, size):
    # every CLI task of every benchmark workload, on stand-ins for the
    # certificates, the experiments and the meander sampler, so nothing runs:
    # a key the CLI does not read fails here before it fails the benchmark
    monkeypatch.syspath_prepend(BENCH)
    workloads = importlib.import_module("workloads")
    for suite in VERIFY:
        _stand_in_certificate(monkeypatch, suite)
    _validate_only(monkeypatch)
    monkeypatch.setattr(cli, "meander_sample",
                        lambda law, k, count, seed: np.zeros((count, k + 1)))
    ran = []
    for workload in workloads.WORKLOADS:
        tasks = [t for t in workloads.build_plan(workload, None, size) if t.argv]
        configs = workloads.write_configs(tasks, str(tmp_path / workload))
        for t in tasks:
            argv = ["--config", configs[t.tid], "--out", str(tmp_path / "out" / t.tid)]
            argv += ["--seed", str(t.seed)] * (t.seed is not None)
            assert run(argv + t.argv) == 0, t.tid
            ran.append(t.tid)
    assert len(ran) == 8


# every verify suite and converge experiment at the small sizes of the tests
# above, and tables: each exits 0 in an interpreter that cannot import scipy
# or mpmath, since numpy is the only runtime dependency
_NO_SCIPY_COMMANDS = [
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
    (["tables"], {}),
]

_REFUSE_SCIPY_AND_MPMATH = """
import json, sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in ("scipy", "mpmath"):
            raise ModuleNotFoundError(f"{name} is refused", name=name)

sys.meta_path.insert(0, Refuse())
from fluctwalk.cli import main

codes = []
for argv in json.loads(sys.argv[1]):
    try:
        codes.append(main(argv))
    except Exception as exc:
        codes.append(type(exc).__name__)
print(json.dumps(codes))
"""


def test_every_command_runs_without_scipy_or_mpmath(tmp_path):
    runs = []
    for i, (command, config) in enumerate(_NO_SCIPY_COMMANDS):
        (tmp_path / f"{i}.json").write_text(json.dumps(config))
        runs.append(["--config", str(tmp_path / f"{i}.json"), "--out", str(tmp_path / str(i))]
                    + command)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _REFUSE_SCIPY_AND_MPMATH, json.dumps(runs)],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out.splitlines()[-1]) == [0] * len(runs)
