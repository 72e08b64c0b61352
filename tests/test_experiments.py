import json
import math
from fractions import Fraction

import numpy as np
import pytest

from fluctwalk.errors import ConfigError, HypothesisViolationError
from fluctwalk.experiments import (ExperimentConfig, first_ascent_tail,
                                   first_passage_heights, pm1_t1_tail,
                                   record_count_law, run_harmonic, run_lemma1,
                                   run_localtime, run_meander, run_theorem1,
                                   sample_ladder_times, universal_t1_tail)
from fluctwalk.fluctuation import local_time_curve_np
from fluctwalk.increments import IncrementLaw, _rng
from fluctwalk.limit_laws import levy_half_cdf, rayleigh_cdf
from fluctwalk.scaling import check_bilateral, norming_constant
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
    (run_localtime, "tolerances", "resample"),
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
            tolerances={"ks": 0.25, "height_mean": 0.25, "height_sd": 0.6})
    rep = run_theorem1(c)
    assert rep.passed
    by_id = {x.cid: x.value for x in rep.criteria}
    assert by_id["ladder_time_ks"] < 0.15
    # a_n draws no random numbers: the same at another seed, and the
    # Wiener-Hopf constant
    other = run_theorem1(cfg("theorem1", law, [64, 128], trials=400, seed=8))
    a_n = [row[1] for row in rep.tables["theorem1"][1:]]
    assert a_n == [row[1] for row in other.tables["theorem1"][1:]]
    assert a_n == norming_constant(law, [64, 128])


def test_run_theorem1_windowed_route_fail_mode(monkeypatch):
    # a block of 4097 ladder epochs fits in no window of 64 * 64 steps, so
    # every window fails and the route gives up after 8 * 200 + 32 windows
    from fluctwalk import experiments
    from fluctwalk.errors import InsufficientLadderError
    monkeypatch.setattr(experiments, "norming_constant",
                        lambda rule, n_grid: [4097.0] * len(n_grid))
    law = IncrementLaw.uniform3()
    c = cfg("theorem1", law, [64], trials=200)
    with pytest.raises(InsufficientLadderError,
                       match=r"only 0/200 windows .* 1632 windows read"):
        run_theorem1(c)


def test_windowed_route_targets_the_law_conditioned_on_its_window(monkeypatch):
    # the route keeps only pairs with T <= 64 n, so its target is the limit
    # CDF over its value at 64.  Pairs drawn exactly from that conditioned
    # law sit inside the DKW band; against the unconditioned CDF their KS
    # distance would be P(tau > 64) = 0.0704
    from scipy.special import erfcinv
    from fluctwalk import experiments
    from fluctwalk.stats import dkw_epsilon
    trials, n = 4000, 64
    u = _rng(5).random(trials) * levy_half_cdf(64.0)
    s = 1.0 / (4.0 * erfcinv(u) ** 2)
    monkeypatch.setattr(experiments, "windowed_ladder_pairs",
                        lambda law, n, block, count, seed, mult: (n * s, np.ones(count), 0.0))
    rep = run_theorem1(cfg("theorem1", IncrementLaw.uniform3(), [n], trials=trials))
    ks = rep.tables["theorem1"][1][2]
    assert ks <= dkw_epsilon(trials) < 1 - levy_half_cdf(64.0)
    assert ks_statistic(Sample(s), levy_half_cdf) > 0.07


def test_run_theorem1_reports_are_byte_identical():
    c1 = cfg("theorem1", GAUSS, [64], trials=200, params={"height_cap": 5_000})
    c2 = cfg("theorem1", GAUSS, [64], trials=200, params={"height_cap": 5_000})
    assert run_theorem1(c1).to_json() == run_theorem1(c2).to_json()


def _fraction_record_law(n):
    # P(R_n = r) = sum_j P(T_r = j) P(T_1 > n - j): the r-th strict ladder
    # epoch T_r is a sum of r independent first-ascent times, whose tail is
    # P(T_1 > k) = C(2k, k) 4^-k on a symmetric walk without ties
    tail = [Fraction(math.comb(2 * k, k), 4 ** k) for k in range(n + 1)]
    first = [Fraction(0)] + [tail[k - 1] - tail[k] for k in range(1, n + 1)]
    t_r = [Fraction(1)] + [Fraction(0)] * n          # law of T_0 = 0
    law = []
    for _ in range(n + 1):
        law.append(sum(t_r[j] * tail[n - j] for j in range(n + 1)))
        t_r = [sum(t_r[i] * first[j - i] for i in range(j + 1)) for j in range(n + 1)]
    return law


def test_record_count_law_matches_the_renewal_route():
    # float law within its a-priori bound: C(2n, n) / 4^n rounds once, and
    # each of the r steps rounds the ratio and the product once
    for n in range(1, 13):
        exact = _fraction_record_law(n)
        p = record_count_law(n)
        assert len(p) == n + 1 and sum(exact) == 1
        for r in range(n + 1):
            assert abs(Fraction(p[r]) - exact[r]) <= exact[r] * (2 * r + 2) * Fraction(1, 2 ** 53)
        assert exact[n] == Fraction(1, 2 ** n)
        mean = sum(r * q for r, q in enumerate(exact))
        assert mean == Fraction((2 * n + 1) * math.comb(2 * n, n), 4 ** n) - 1
        assert mean == sum(Fraction(math.comb(2 * k, k), 4 ** k) for k in range(1, n + 1))


def test_sup_gap_median_is_the_limit_law_median():
    # the median of sqrt(v) (sqrt(2) |N|)^(1/2) K, K = sup_{t<=1} |B_t|,
    # from the series of P(K <= x) (theta form below 1, its reflection form
    # from 1 on; the two agree to 1e-15 there) integrated against |N|
    import mpmath
    from scipy.integrate import quad
    from scipy.optimize import brentq
    from scipy.special import erfc
    from fluctwalk.experiments import _SUP_GAP_MEDIAN

    rho = -float(mpmath.zeta(0.5)) / math.sqrt(2 * math.pi)
    v = 2 * math.sqrt(2) * rho - 1
    assert v == pytest.approx(0.647834, abs=1e-6)

    def k_cdf(x):
        if x < 1:
            return 4 / math.pi * sum((-1) ** j / (2 * j + 1)
                                     * math.exp(-(2 * j + 1) ** 2 * math.pi ** 2 / (8 * x * x))
                                     for j in range(20))
        return 1 - 2 * sum((-1) ** j * erfc((2 * j + 1) * x / math.sqrt(2)) for j in range(20))

    def z_cdf(z):
        def f(u):
            return (math.sqrt(2 / math.pi) * math.exp(-u * u / 2)
                    * k_cdf(z / math.sqrt(v * math.sqrt(2) * u)))
        return quad(f, 0, math.inf, epsabs=1e-13, epsrel=1e-13, limit=200)[0]

    median = brentq(lambda z: z_cdf(z) - 0.5, 0.5, 1.5, xtol=1e-12)
    assert median == pytest.approx(_SUP_GAP_MEDIAN, abs=1e-7)


def test_run_localtime_small():
    rep = run_localtime(cfg("localtime", GAUSS, [16, 64, 256], trials=400))
    assert rep.passed
    assert [c.cid for c in rep.criteria] == ["record_exact_ks_over_band", "endpoint_gap_z",
                                             "sup_gap_excess_over_band"]
    rows = rep.tables["localtime"]
    assert [r[0] for r in rows[1:]] == [16, 64, 256]
    assert [r[1] for r in rows[1:]] == norming_constant(GAUSS, [16, 64, 256])
    # any sigma: the gaps are in units of sigma, the record counts unscaled
    wide = run_localtime(cfg("localtime", IncrementLaw.gaussian(0.0, 3.0), [16, 64, 256],
                             trials=400))
    assert [r[2] for r in wide.tables["localtime"][1:]] == [r[2] for r in rows[1:]]
    assert wide.passed


def test_run_localtime_takes_any_increasing_grid_and_only_a_centred_gaussian():
    rep = run_localtime(cfg("localtime", GAUSS, [48, 96, 100, 192], trials=200))
    assert [r[0] for r in rep.tables["localtime"][1:]] == [48, 96, 100, 192]
    for law in (FAIR, IncrementLaw.gaussian(0.5)):
        with pytest.raises(ConfigError, match="centred Gaussian"):
            run_localtime(cfg("localtime", law, [32, 64], trials=200))


@pytest.mark.parametrize("mutation,failing", [
    (lambda R: R + 1, {"record_exact_ks_over_band", "endpoint_gap_z"}),
    (lambda R: R / 1.05, {"record_exact_ks_over_band", "endpoint_gap_z"}),
], ids=["index0-counted", "an-times-1.05"])
def test_localtime_checks_fail_on_mutated_counts(monkeypatch, mutation, failing):
    # negative controls at the CLI defaults: counting index 0 as a record,
    # and record counts over 1.05 (a_n 5 % too large in the gap only)
    from fluctwalk import experiments
    monkeypatch.setattr(experiments, "local_time_curve_np",
                        lambda S, variant: mutation(local_time_curve_np(S, variant)))
    rep = run_localtime(cfg("localtime", GAUSS, [2 ** q for q in range(6, 11)],
                            trials=2000, seed=20240808))
    assert {c.cid for c in rep.criteria if not c.passed} == failing


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


def test_lemma1_refuses_other_tail_indices_before_drawing(monkeypatch):
    from fluctwalk import experiments

    def no_draws(*args):
        raise AssertionError("drew heights for a refused law")
    monkeypatch.setattr(experiments, "first_passage_heights", no_draws)
    with pytest.raises(ConfigError, match="tail index 1"):
        run_lemma1(cfg("lemma1", IncrementLaw.heavy_tail(1.5), [512], trials=None))


def test_run_meander_small():
    rep = run_meander(cfg("meander", FAIR, [64, 256], trials=2_000))
    assert rep.passed
    assert rep.tables["meander"][0] == ["n", "P_Cn", "chain_exact_ks", "dkw_band",
                                        "exact_rayleigh_ks_sqrt_n"]


def test_meander_sampler_check_fails_on_unweighted_chains(monkeypatch):
    # negative control: without the meander weights the chain endpoints have
    # the conditioned law, not the meander law, and their KS distance to the
    # exact meander law is several DKW bands
    from fluctwalk import experiments
    c = cfg("meander", FAIR, [256], trials=4_000)
    weighted = {x.cid: x for x in run_meander(c).criteria}["chain_exact_ks_over_band"]
    monkeypatch.setattr(experiments, "meander_weights",
                        lambda law, n, levels, p_survival=None: np.ones(len(levels)))
    unweighted = {x.cid: x for x in run_meander(c).criteria}["chain_exact_ks_over_band"]
    assert weighted.passed and weighted.threshold == 1.0
    assert unweighted.value > 5


def test_meander_limit_check_fails_on_a_scaled_target(monkeypatch):
    # negative control: against Rayleigh stretched by 5 % the exact law's
    # sqrt(n) KS is past 2 e^{-1/2} already at n = 64
    from fluctwalk import experiments
    monkeypatch.setattr(experiments, "rayleigh_cdf", lambda x: rayleigh_cdf(x / 1.05))
    rep = run_meander(cfg("meander", FAIR, [64], trials=500))
    limit = {x.cid: x for x in rep.criteria}["exact_rayleigh_ks_sqrt_n"]
    assert not limit.passed and limit.value > 1.35


def test_exact_meander_law_stays_within_one_lattice_step_of_rayleigh():
    # sqrt(n) KS of the exact law from Rayleigh stays below the lattice step
    # 2 / sqrt(n) times the largest Rayleigh density e^{-1/2}, at every n
    rep = run_meander(cfg("meander", FAIR, list(range(1, 41)) + [63, 64, 65], trials=100))
    limit = {x.cid: x for x in rep.criteria}["exact_rayleigh_ks_sqrt_n"]
    assert limit.threshold == 2 * math.exp(-0.5)
    assert all(0 < row[4] < limit.threshold for row in rep.tables["meander"][1:])


def test_report_write_and_exit_codes(tmp_path):
    rep = run_meander(cfg("meander", FAIR, [64], trials=500))
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
    a = norming_constant(GAUSS, [n])[0]
    from scipy.special import erf
    # endpoint ~ standard normal
    d1 = ks_statistic(Sample(S[:, -1]),
                      lambda x: 0.5 * (1 + erf(x / math.sqrt(2))))
    # normalized record counts ~ sqrt(2) |endpoint| in law
    half_normal = lambda x: erf(np.maximum(x, 0) / math.sqrt(2) / math.sqrt(2))
    d2 = ks_statistic(Sample(rec_up / a), lambda x: half_normal(x * 1.0))
    d3 = ks_statistic(Sample(rec_dn / a), lambda x: half_normal(x * 1.0))
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
    for n, a_n in zip((64, 256, 1024), norming_constant(GAUSS, [64, 256, 1024])):
        a = int(a_n)
        T = sample_ladder_times(rng, (trials, a), tail, 1.0).sum(axis=1) / n
        cur = Sample(T)
        if prev is not None:
            dists.append(ks_statistic(prev, cur))
        prev = cur
    assert dists[-1] < 0.08
    d_limit = ks_statistic(prev, levy_half_cdf)
    assert d_limit < 0.05


FAIR_ENCODINGS = [FAIR, IncrementLaw.lattice(["-1/2", "1/2"], ["1/2", "1/2"]),
                  IncrementLaw.lattice([-1, 0, 1], ["1/2", 0, "1/2"]),
                  IncrementLaw.lattice([-1, "1/2", 1], ["1/2", 0, "1/2"])]


@pytest.mark.parametrize("run,experiment,n_grid,trials,params", [
    (run_theorem1, "theorem1", [64, 128], 200, {}),
    (run_lemma1, "lemma1", [64, 128], None, {}),
    (run_meander, "meander", [32, 64], 200, {}),
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
