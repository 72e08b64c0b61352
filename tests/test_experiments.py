import json
import math

import numpy as np
import pytest

from fluctwalk.errors import BudgetError, ConfigError, HypothesisViolationError
from fluctwalk.experiments import (ExperimentConfig, check_bilateral,
                                   first_passage_heights, gaussian_norming,
                                   pm1_conditioned_endpoints,
                                   pm1_meander_endpoints_rejection, pm1_t1_tail,
                                   run_lemma1, run_localtime_stability,
                                   run_meander, run_theorem1,
                                   sample_ladder_times, universal_t1_tail)
from fluctwalk.increments import IncrementLaw, _rng, derive_seed
from fluctwalk.limit_laws import levy_half_cdf
from fluctwalk.scaling import norming_constant, positivity_rule
from fluctwalk.stats import Sample, ks_statistic

GAUSS = IncrementLaw.gaussian()
FAIR = IncrementLaw.fair_pm1()
RAMP = IncrementLaw.lattice([1], [1])


def cfg(experiment, law, n_grid, trials=200, tolerances=None, params=None, seed=7):
    return ExperimentConfig(experiment=experiment, law=law, n_grid=n_grid,
                            trials=trials, seed=seed,
                            tolerances=tolerances or {}, params=params or {})


def test_config_validation():
    with pytest.raises(ConfigError):
        cfg("x", GAUSS, [8, 4]).validate()
    with pytest.raises(ConfigError):
        cfg("x", GAUSS, []).validate()
    with pytest.raises(ConfigError):
        cfg("x", GAUSS, [8], trials=10).validate()


def test_monotone_laws_rejected_everywhere():
    with pytest.raises(HypothesisViolationError):
        check_bilateral(RAMP)
    for run, law in ((run_theorem1, RAMP), (run_lemma1, RAMP), (run_meander, RAMP)):
        with pytest.raises(HypothesisViolationError):
            run(cfg("x", law, [64, 128]))


def test_ladder_time_tails_match_exact_counts():
    # universal: P(T>k) = C(2k,k) 4^-k; fair lattice: C(k, floor(k/2)) 2^-k
    u = universal_t1_tail(6)
    for k in range(1, 7):
        assert u[k - 1] == pytest.approx(math.comb(2 * k, k) / 4 ** k)
    p = pm1_t1_tail(6)
    for k in range(1, 7):
        assert p[k - 1] == pytest.approx(math.comb(k, k // 2) / 2 ** k)


def test_ladder_time_sampler_matches_tail_law():
    tail = universal_t1_tail(100_000)
    rng = _rng(99)
    draws = sample_ladder_times(rng, 40_000, tail, "universal")
    # exact CDF at k: 1 - tail[k-1]
    for k in (1, 2, 5, 20):
        emp = float((draws <= k).mean())
        assert abs(emp - (1 - tail[k - 1])) < 0.01


def test_first_passage_heights_fair_walk_are_unit():
    h, cens = first_passage_heights(FAIR, 500, cap=4096, seed=11)
    assert np.all(h == 1.0)


def test_first_passage_heights_gaussian_mean():
    h, cens = first_passage_heights(GAUSS, 30_000, cap=50_000, seed=5)
    assert abs(h.mean() - 1 / math.sqrt(2)) < 0.015
    assert cens < 0.02


def test_gaussian_norming_closed_form():
    rule = positivity_rule(GAUSS)
    for n in (16, 256, 4096):
        assert gaussian_norming(n) == pytest.approx(norming_constant(rule, n, 1e-12))


def test_run_theorem1_small_gaussian():
    c = cfg("theorem1", GAUSS, [64, 256], trials=400,
            tolerances={"ks": 0.2, "height_mean": 0.2, "height_sd": 0.5},
            params={"height_cap": 20_000, "tail_table": 100_000})
    rep = run_theorem1(c)
    assert rep.passed
    by_id = {x.cid: x.value for x in rep.criteria}
    assert by_id["ladder_time_ks"] < 0.1
    assert abs(by_id["height_mean_error"]) < 0.1


def test_run_theorem1_fair_lattice_heights_deterministic():
    c = cfg("theorem1", FAIR, [256, 1024], trials=400,
            tolerances={"ks": 0.2, "height_mean": 0.05, "height_sd": 0.01},
            params={"tail_table": 200_000})
    rep = run_theorem1(c)
    by_id = {x.cid: x.value for x in rep.criteria}
    assert by_id["height_sd"] == 0.0
    assert rep.passed


def test_run_theorem1_windowed_route_for_general_lattice():
    # symmetric three-point lattice: no closed ladder-time law, so the walk
    # is simulated on windows; scaled marginals still approach the limits
    law = IncrementLaw.uniform3()
    c = cfg("theorem1", law, [64, 128], trials=400,
            tolerances={"ks": 0.25, "height_mean": 0.25, "height_sd": 0.6},
            params={"window_mult": 64})
    rep = run_theorem1(c)
    assert rep.passed
    by_id = {x.cid: x.value for x in rep.criteria}
    assert by_id["ladder_time_ks"] < 0.15
    assert rep.notes["norming_source"] == "montecarlo positivity"


def test_run_theorem1_windowed_route_fail_mode(monkeypatch):
    # a block of 65 ladder epochs fits in no window of 64 steps, so every
    # window fails and the route gives up after 8 * 200 + 32 windows
    from fluctwalk import experiments
    from fluctwalk.errors import InsufficientLadderError
    monkeypatch.setattr(experiments, "norming_constant", lambda *args: 65.0)
    law = IncrementLaw.uniform3()
    c = cfg("theorem1", law, [64], trials=200, params={"window_mult": 1})
    with pytest.raises(InsufficientLadderError,
                       match=r"only 0/200 windows .* 1632 windows read"):
        run_theorem1(c)


def test_run_theorem1_reports_are_byte_identical():
    c1 = cfg("theorem1", GAUSS, [64], trials=200,
             params={"height_cap": 5_000, "tail_table": 50_000})
    c2 = cfg("theorem1", GAUSS, [64], trials=200,
             params={"height_cap": 5_000, "tail_table": 50_000})
    assert run_theorem1(c1).to_json() == run_theorem1(c2).to_json()


def test_run_localtime_stability_small():
    c = cfg("localtime", GAUSS, [2 ** q for q in range(5, 10)], trials=100,
            tolerances={"violations": 2, "ratio": 0.9},
            params={"base_resolution": 2 ** 12, "paths": 60})
    rep = run_localtime_stability(c)
    meds = [r[2] for r in rep.tables["localtime_stability"][1:]]
    assert meds[-1] < meds[0]
    assert rep.passed


def test_run_localtime_stability_rejects_bad_grids():
    with pytest.raises(ConfigError):
        run_localtime_stability(cfg("lt", GAUSS, [48, 96, 192], trials=100,
                                    params={"base_resolution": 2 ** 12, "paths": 8}))
    with pytest.raises(ConfigError):
        run_localtime_stability(cfg("lt", FAIR, [32, 64, 128], trials=100,
                                    params={"base_resolution": 2 ** 12, "paths": 8}))


def test_run_lemma1_gaussian_small():
    c = cfg("lemma1", GAUSS, [256, 1024], trials=200,
            tolerances={"drift_rel": 0.08, "interval_mass": 0.05},
            params={"height_samples": 30_000, "height_cap": 20_000})
    rep = run_lemma1(c)
    assert rep.passed
    assert rep.notes["time_tail_rel_error"] < 0.05


def test_run_lemma1_cauchy_ratio_small():
    law = IncrementLaw.heavy_tail(1.0)
    c = cfg("lemma1", law, [512], trials=200,
            tolerances={"ratio_rel": 0.3},
            params={"height_samples": 60_000, "height_cap": 4_000})
    rep = run_lemma1(c)
    assert rep.passed


def test_pm1_conditioned_endpoints_distribution():
    # exact endpoint law at short horizon vs the vectorized chain
    from fluctwalk.conditioning import hchain_endpoint_distribution
    dist = hchain_endpoint_distribution(FAIR, 4)
    x = pm1_conditioned_endpoints(4, 40_000, seed=13)
    for v, p in dist.atoms.items():
        assert abs(float((x == v).mean()) - float(p)) < 0.01


def test_pm1_rejection_acceptance_rate_matches_survival():
    n = 16
    xe = pm1_meander_endpoints_rejection(n, 5_000, seed=3)
    assert xe.size == 5_000 and xe.min() >= 0
    # acceptance frequency is pinned by the survival probability elsewhere;
    # here check endpoints take only even values within range
    assert set(np.unique(xe % 2)) == {0}


def test_pm1_rejection_budget_error_rate_counts_rows_drawn():
    n, count, seed = 200, 1000, 5
    with pytest.raises(BudgetError) as exc:
        pm1_meander_endpoints_rejection(n, count, seed, budget_factor=2)
    got = drawn = 0
    for stream in range(2):
        batch = max(1024, (count - got) * 8)
        rng = _rng(derive_seed(seed, stream))
        S = np.cumsum(np.where(rng.random((batch, n)) < 0.5, 1, -1), axis=1)
        got += int((S.min(axis=1) >= 0).sum())
        drawn += batch
    rate = exc.value.acceptance_rate
    assert got < count and rate == got / drawn
    # P(C_n) = C(n, n/2) 2^-n for the fair walk
    p = math.comb(n, n // 2) / 2 ** n
    assert abs(rate - p) < 4 * math.sqrt(p * (1 - p) / drawn)


def test_run_meander_small():
    c = cfg("meander", FAIR, [64, 256], trials=2_000,
            tolerances={"endpoint_ks": 0.08, "cross_method_ks": 0.05},
            params={"cross_check_n": 16, "cross_check_trials": 4_000})
    rep = run_meander(c)
    assert rep.passed
    assert rep.tables["meander"][0] == ["n", "P_Cn", "weighted_endpoint_ks"]


def test_report_write_and_exit_codes(tmp_path):
    c = cfg("meander", FAIR, [64], trials=500,
            tolerances={"endpoint_ks": 0.5, "cross_method_ks": 0.5},
            params={"cross_check_n": 8, "cross_check_trials": 2_000})
    rep = run_meander(c)
    rep.write(str(tmp_path))
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["pass"] is True and rep.exit_code() == 0
    assert (tmp_path / "meander.csv").exists()
    rep.criteria[0].threshold = -1.0
    assert rep.exit_code() == 1


def test_joint_records_marginals_against_limits():
    # triple (walk value, scaled up-records, scaled down-records) at the
    # window end, simulated directly; each marginal must sit near its limit
    # (normal value; half-normal-type local time scaled by sqrt(2))
    rng = _rng(4242)
    n = 1024
    trials = 4_000
    steps = rng.standard_normal((trials, n)) / math.sqrt(n)
    S = np.concatenate([np.zeros((trials, 1)), np.cumsum(steps, axis=1)], axis=1)
    M = np.maximum.accumulate(S, axis=1)
    rec_up = ((np.diff(S, axis=1) > 0) & (S[:, 1:] == M[:, 1:])).sum(axis=1)
    Mn = np.maximum.accumulate(-S, axis=1)
    rec_dn = ((np.diff(-S, axis=1) > 0) & (-S[:, 1:] == Mn[:, 1:])).sum(axis=1)
    a = gaussian_norming(n)
    from scipy.special import erf
    # endpoint ~ standard normal
    d1 = ks_statistic(Sample(S[:, -1]),
                      lambda x: 0.5 * (1 + erf(x / math.sqrt(2)))).statistic
    # normalized record counts ~ sqrt(2) |endpoint| in law
    half_normal = lambda x: erf(np.maximum(x, 0) / math.sqrt(2) / math.sqrt(2))
    d2 = ks_statistic(Sample(rec_up / a), lambda x: half_normal(x * 1.0)).statistic
    d3 = ks_statistic(Sample(rec_dn / a), lambda x: half_normal(x * 1.0)).statistic
    assert d1 < 0.05
    assert d2 < 0.08 and d3 < 0.08


def test_quadrivariate_ladder_marginals_stable_across_n():
    # per-coordinate two-sample distances between successive n shrink toward
    # the sampling noise floor for the scaled ladder-time coordinate, and the
    # height coordinates collapse onto the drift constant
    tail = universal_t1_tail(200_000)
    rng = _rng(777)
    trials = 3_000
    prev = None
    dists = []
    for n in (64, 256, 1024):
        a = int(gaussian_norming(n))
        T = sample_ladder_times(rng, (trials, a), tail, "universal").sum(axis=1) / n
        cur = Sample(T)
        if prev is not None:
            dists.append(ks_statistic(prev, cur).statistic)
        prev = cur
    assert dists[-1] < 0.08
    d_limit = ks_statistic(prev, levy_half_cdf).statistic
    assert d_limit < 0.05
