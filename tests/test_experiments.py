import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fluctwalk.errors import BudgetError, ConfigError, HypothesisViolationError
from fluctwalk.experiments import (ExperimentConfig, first_ascent_tail,
                                   first_passage_heights, gaussian_norming,
                                   pm1_meander_endpoints_rejection, pm1_t1_tail,
                                   run_harmonic, run_lemma1,
                                   run_localtime_stability, run_meander,
                                   run_theorem1,
                                   sample_ladder_times, universal_t1_tail)
from fluctwalk.increments import IncrementLaw, _rng, derive_seed
from fluctwalk.limit_laws import levy_half_cdf
from fluctwalk.scaling import check_bilateral, norming_constant, positivity_rule
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
        cfg("x", GAUSS, [8, 4]).validate("theorem1")
    with pytest.raises(ConfigError):
        cfg("x", GAUSS, []).validate("theorem1")
    with pytest.raises(ConfigError):
        cfg("x", GAUSS, [8], trials=10).validate("theorem1")


@pytest.mark.parametrize("run,kind,key", [
    (run_theorem1, "params", "windw_mult"),
    (run_theorem1, "params", "resample"),
    (run_meander, "tolerances", "resample"),
    (run_lemma1, "params", "windw_mult"),
    (run_localtime_stability, "tolerances", "resample"),
    (run_harmonic, "tolerances", "product_rell"),
])
def test_unknown_config_keys_rejected(run, kind, key):
    c = cfg("x", FAIR, [64, 128], **{kind: {key: 1}})
    with pytest.raises(ConfigError, match=repr(key)):
        run(c)


def test_monotone_laws_rejected_everywhere():
    with pytest.raises(HypothesisViolationError):
        check_bilateral(RAMP)
    # lemma1 draws no trials, so its config sets none
    for run, trials in ((run_theorem1, 200), (run_lemma1, None), (run_meander, 200)):
        with pytest.raises(HypothesisViolationError):
            run(cfg("x", RAMP, [64, 128], trials=trials))


def test_ladder_time_tails_match_exact_counts():
    # universal: P(T>k) = C(2k,k) 4^-k; fair lattice: C(k, floor(k/2)) 2^-k
    u = universal_t1_tail(6)
    for k in range(1, 7):
        assert u[k - 1] == pytest.approx(math.comb(2 * k, k) / 4 ** k)
    # the fair tail in exact arithmetic, within the a-priori bound: at
    # k = 2m + 1 the m factors and m products each round once, by at most
    # 2^-53 relative; an even k repeats the odd k below it exactly
    p = pm1_t1_tail(64)
    for k in range(1, 65):
        exact = Fraction(math.comb(k, k // 2), 2 ** k)
        assert abs(Fraction(p[k - 1]) - exact) <= exact * k * Fraction(1, 2 ** 53)
    assert np.array_equal(p[1::2], p[0::2])


def test_pm1_t1_tail_matches_the_running_product():
    # the accumulated factors are the floats of the running product, bit for bit
    kmax = 100_001
    q, cur = [0.5], 0.5
    for k in range(2, kmax + 1):
        if k % 2:
            m = (k - 1) // 2
            cur *= (2 * m + 1) / (2.0 * (m + 1))
        q.append(cur)
    assert np.array_equal(pm1_t1_tail(kmax), np.array(q))
    assert pm1_t1_tail(1).tolist() == [0.5] and pm1_t1_tail(2).tolist() == [0.5, 0.5]


def test_first_ascent_tail_decided_by_law():
    table, c = first_ascent_tail(FAIR)
    assert c == 2.0 and np.array_equal(table, pm1_t1_tail(table.size))
    for law in (GAUSS, IncrementLaw.heavy_tail(1.0)):
        table, c = first_ascent_tail(law)
        assert c == 1.0 and np.array_equal(table, universal_t1_tail(table.size))
    for law in (IncrementLaw.uniform3(), IncrementLaw.biased_pm1(Fraction(3, 4)),
                IncrementLaw.gaussian(0.5)):
        assert first_ascent_tail(law) is None
    # both asymptotes: the table's last entry is close to sqrt(c / (pi k))
    for law in (FAIR, GAUSS):
        table, c = first_ascent_tail(law)
        assert table[-1] == pytest.approx(math.sqrt(c / (math.pi * table.size)), rel=1e-6)


def test_ladder_time_sampler_matches_tail_law():
    tail = universal_t1_tail(100_000)
    rng = _rng(99)
    draws = sample_ladder_times(rng, 40_000, tail, 1.0)
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
            params={"height_cap": 20_000})
    rep = run_theorem1(c)
    assert rep.passed
    by_id = {x.cid: x.value for x in rep.criteria}
    assert by_id["ladder_time_ks"] < 0.1
    assert abs(by_id["height_mean_error"]) < 0.1


def test_run_theorem1_fair_lattice_heights_deterministic():
    c = cfg("theorem1", FAIR, [256, 1024], trials=400,
            tolerances={"ks": 0.2, "height_mean": 0.05, "height_sd": 0.01})
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
    # a_n draws no random numbers: the same at another seed, and the
    # positivity rule's constant
    other = run_theorem1(cfg("theorem1", law, [64, 128], trials=400, seed=8,
                             params={"window_mult": 64}))
    a_n = [row[1] for row in rep.tables["theorem1"][1:]]
    assert a_n == [row[1] for row in other.tables["theorem1"][1:]]
    assert a_n == [norming_constant(positivity_rule(law), n, 1e-9) for n in (64, 128)]


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
    c1 = cfg("theorem1", GAUSS, [64], trials=200, params={"height_cap": 5_000})
    c2 = cfg("theorem1", GAUSS, [64], trials=200, params={"height_cap": 5_000})
    assert run_theorem1(c1).to_json() == run_theorem1(c2).to_json()


def test_run_localtime_stability_small():
    c = cfg("localtime", GAUSS, [2 ** q for q in range(5, 10)], trials=None,
            tolerances={"violations": 2, "ratio": 0.9},
            params={"base_resolution": 2 ** 12, "paths": 60})
    rep = run_localtime_stability(c)
    meds = [r[2] for r in rep.tables["localtime_stability"][1:]]
    assert meds[-1] < meds[0]
    assert rep.passed


def test_run_localtime_stability_rejects_bad_grids():
    with pytest.raises(ConfigError):
        run_localtime_stability(cfg("lt", GAUSS, [48, 96, 192], trials=None,
                                    params={"base_resolution": 2 ** 12, "paths": 8}))
    with pytest.raises(ConfigError):
        run_localtime_stability(cfg("lt", FAIR, [32, 64, 128], trials=None,
                                    params={"base_resolution": 2 ** 12, "paths": 8}))


def test_run_lemma1_gaussian_small():
    c = cfg("lemma1", GAUSS, [256, 1024], trials=None,
            tolerances={"drift_rel": 0.08, "interval_mass": 0.05},
            params={"height_samples": 30_000, "height_cap": 20_000})
    rep = run_lemma1(c)
    assert rep.passed
    assert rep.notes["time_tail_rel_error"] < 0.05


def test_run_lemma1_cauchy_ratio_small():
    law = IncrementLaw.heavy_tail(1.0)
    c = cfg("lemma1", law, [512], trials=None,
            tolerances={"ratio_rel": 0.3},
            params={"height_samples": 60_000, "height_cap": 4_000})
    rep = run_lemma1(c)
    assert rep.passed


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
        T = sample_ladder_times(rng, (trials, a), tail, 1.0).sum(axis=1) / n
        cur = Sample(T)
        if prev is not None:
            dists.append(ks_statistic(prev, cur).statistic)
        prev = cur
    assert dists[-1] < 0.08
    d_limit = ks_statistic(prev, levy_half_cdf).statistic
    assert d_limit < 0.05


FAIR_ENCODINGS = [FAIR, IncrementLaw.lattice(["-1/2", "1/2"], ["1/2", "1/2"]),
                  IncrementLaw.lattice([-1, 0, 1], ["1/2", 0, "1/2"]),
                  IncrementLaw.lattice([-1, "1/2", 1], ["1/2", 0, "1/2"])]


@pytest.mark.parametrize("run,experiment,n_grid,trials,params", [
    (run_theorem1, "theorem1", [64, 128], 200, {}),
    (run_lemma1, "lemma1", [64, 128], None, {}),
    (run_meander, "meander", [32, 64], 200,
     {"cross_check_n": 8, "cross_check_trials": 500}),
    (run_harmonic, "harmonic", [64, 128, 256], None, {}),
])
def test_fair_walk_encodings_give_identical_reports(run, experiment, n_grid, trials,
                                                    params):
    # the fair walk as +-1, as +-1/2 and with a zero-mass atom at 0 or at
    # 1/2: sigma scales by a power of two and zero-mass atoms are dropped, so
    # every criterion and table is the same
    reports = [run(cfg(experiment, law, n_grid, trials=trials, params=params))
               for law in FAIR_ENCODINGS]
    values = [[(c.cid, c.value) for c in rep.criteria] for rep in reports]
    assert all(v == values[0] for v in values[1:])
    assert all(rep.tables == reports[0].tables for rep in reports[1:])
