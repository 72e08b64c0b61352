"""Acceptance suite: one test per acceptance criterion, strict tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
pass/fail line per criterion.  Every tolerance is pinned here, not deferred
to configuration.  Monte Carlo criteria run on fixed master seeds recorded
in this file; re-running reproduces identical numbers.

The spread of the scaled ladder height at n = 4096 is checked two-sided
against its theory value sqrt([a_n] Var H_1 / n) ~ 0.569 n^{-1/4}, with
Var H_1 taken from the Gaussian overshoot constant -zeta(1/2)/sqrt(2 pi),
to within four sampling standard errors (see test_a5_height_stddev for the
derivation).  The paper bounds no such spread at a fixed n.
"""

import math
import time

import mpmath
import numpy as np
import pytest
from scipy.special import erfcinv

from fluctwalk.certify import (certify_fristedt, certify_h_kernel,
                               certify_idloc, certify_meander_ac,
                               certify_reversal)
from fluctwalk.conditioning import harmonic_limits
from fluctwalk.experiments import (ExperimentConfig, run_lemma1,
                                   run_localtime_stability, run_meander,
                                   run_theorem1)
from fluctwalk.increments import IncrementLaw
from fluctwalk.limit_laws import half_stable_tau_tail, rayleigh_cdf, levy_half_cdf
from fluctwalk.stats import Sample, ks_statistic

GAUSS = IncrementLaw.gaussian()
FAIR = IncrementLaw.fair_pm1()

# master seeds for the Monte Carlo criteria, frozen with the configs
SEED_THEOREM1 = 23
SEED_LOCALTIME = 211
SEED_LEMMA1_GAUSS = 23
SEED_LEMMA1_CAUCHY = 99
SEED_MEANDER = 23


def _line(cid, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {cid}: {detail}")


# ---------------------------------------------------------------------------
# A1: exact ladder-pair identity


def test_a1_fristedt_identity_exact():
    t0 = time.monotonic()
    res = certify_fristedt(K=60)
    elapsed = time.monotonic() - t0
    spot = [r for r in res.rows[1:]
            if r[0] == "fair +-1" and r[1] == 1.0 and r[2] == 0.0][0]
    s = math.exp(-1.0)
    gf = 1 - (1 - math.sqrt(1 - s * s)) / s  # first-passage generating function
    _line("A1", res.passed and elapsed < 5.0,
          f"{res.detail}; spot lhs {spot[3]:.6f} vs {gf:.6f}; {elapsed:.1f}s")
    assert res.passed
    assert abs(spot[3] - gf) < 1e-4 and abs(spot[4] - gf) < 1e-4
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# A2: time-reversal laws, exact


def test_a2_time_reversal_exact():
    t0 = time.monotonic()
    res = certify_reversal(max_length=10)
    elapsed = time.monotonic() - t0
    _line("A2", res.passed and elapsed < 60.0, f"{res.detail}; {elapsed:.1f}s")
    assert res.passed
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# A3: conditioning consistency


def test_a3_conditioning_consistency():
    t0 = time.monotonic()
    kern = certify_h_kernel(max_length=10)
    ac = certify_meander_ac(max_length=10, weight_n=32, weight_trials=100_000,
                            seed=20240808)
    elapsed = time.monotonic() - t0
    ok = kern.passed and ac.passed and elapsed < 60.0
    _line("A3", ok, f"{kern.detail}; {ac.detail}; {elapsed:.1f}s")
    assert kern.passed
    assert ac.passed
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# A4: local-time identity under the excursion rebuild


def test_a4_local_time_identity_window():
    t0 = time.monotonic()
    res = certify_idloc(enum_length=12, gaussian_paths=10_000,
                        gaussian_length=1_000, seed=20240808)
    elapsed = time.monotonic() - t0
    _line("A4", res.passed and elapsed < 60.0, f"{res.detail}; {elapsed:.1f}s")
    assert res.passed
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# A5: ladder-pair scaling at desk scale (Gaussian, n = 4096, 10^4 trials)


@pytest.fixture(scope="module")
def theorem1_report():
    cfg = ExperimentConfig(
        "theorem1", GAUSS, [4096], trials=10_000, seed=SEED_THEOREM1,
        tolerances={"ks": 0.02, "height_mean": 0.02, "height_sd": 0.05},
        params={"height_cap": 100_000})
    t0 = time.monotonic()
    rep = run_theorem1(cfg)
    rep.notes["elapsed"] = time.monotonic() - t0
    return rep


def test_a5_ladder_time_ks(theorem1_report):
    c = {x.cid: x for x in theorem1_report.criteria}["ladder_time_ks"]
    ok = c.passed and theorem1_report.notes["elapsed"] < 600
    _line("A5.ks", ok, f"KS {c.value:.4f} <= {c.threshold}; "
          f"{theorem1_report.notes['elapsed']:.0f}s")
    assert c.passed
    assert theorem1_report.notes["elapsed"] < 600


def test_a5_height_mean(theorem1_report):
    c = {x.cid: x for x in theorem1_report.criteria}["height_mean_error"]
    _line("A5.mean", c.passed, f"|mean - 0.70711| = {c.value:.4f} <= {c.threshold}")
    assert c.passed


def test_a5_height_stddev(theorem1_report):
    """Scaled ladder-height spread against its n^{-1/4} theory value.

    The first ladder height H_1 of the standard Gaussian walk has
    E H_1 = 1/sqrt(2) and E H_1^2 = 2 rho E H_1, where
    rho = -zeta(1/2)/sqrt(2 pi) = 0.5826 is the mean overshoot constant
    (Siegmund, "Corrected diffusion approximations in certain random walk
    problems", 1979); hence Var H_1 = sqrt(2) rho - 1/2 = 0.32392.  The
    scaled height is a sum of [a_n] independent copies divided by sqrt(n)
    (sigma = 1), so its standard deviation is sqrt([a_n] Var H_1 / n), about
    0.569 n^{-1/4}: 0.07114 at n = 4096, where [a_n] = 64.  The sample
    standard deviation of N trials has standard error about
    pred / sqrt(2 (N - 1)); the check is two-sided at four of them (about
    0.0020), so it covers the second moment of the simulated heights and the
    independence of the blocks.  The fixture's absolute bound
    height_sd <= 0.05 lies below the true value at this n and is not
    asserted.
    """
    n, a_n, _, _, sd = theorem1_report.tables["theorem1"][-1]
    trials = theorem1_report.config["trials"]
    rho = -float(mpmath.zeta(0.5)) / math.sqrt(2 * math.pi)
    mean_h1 = 1 / math.sqrt(2)
    var_h1 = 2 * rho * mean_h1 - mean_h1 ** 2
    pred = math.sqrt(int(a_n) * var_h1 / n)
    tol = 4 * pred / math.sqrt(2 * (trials - 1))
    ok = abs(sd - pred) <= tol
    _line("A5.sd", ok, f"sample stddev {sd:.5f} vs predicted {pred:.5f}, "
          f"|diff| {abs(sd - pred):.5f} <= {tol:.4f}")
    assert ok


# ---------------------------------------------------------------------------
# A6: nested-skeleton local-time stability


def test_a6_localtime_stability():
    cfg = ExperimentConfig(
        "localtime", GAUSS, [2 ** q for q in range(8, 14)], trials=None,
        seed=SEED_LOCALTIME, tolerances={"violations": 1, "ratio": 0.5},
        params={"base_resolution": 2 ** 16, "paths": 200})
    t0 = time.monotonic()
    rep = run_localtime_stability(cfg)
    elapsed = time.monotonic() - t0
    vals = {x.cid: x.value for x in rep.criteria}
    ok = rep.passed and elapsed < 600
    _line("A6", ok, f"violations {vals['median_trend_violations']:.0f} <= 1, "
          f"final/initial {vals['median_final_over_initial']:.3f} <= 0.5; "
          f"{elapsed:.0f}s")
    assert rep.passed
    assert elapsed < 600


# ---------------------------------------------------------------------------
# A7: ladder asymptotics (Gaussian drift constant; stable-ratio family)


def test_a7_lemma1_gaussian_and_cauchy():
    t0 = time.monotonic()
    cfg_g = ExperimentConfig(
        "lemma1", GAUSS, [1024, 4096], trials=None, seed=SEED_LEMMA1_GAUSS,
        tolerances={"drift_rel": 0.03, "interval_mass": 0.02},
        params={"height_samples": 100_000, "height_cap": 100_000,
                "interval": (0.5, 1.0)})
    rep_g = run_lemma1(cfg_g)
    cfg_c = ExperimentConfig(
        "lemma1", IncrementLaw.heavy_tail(1.0), [4096], trials=None,
        seed=SEED_LEMMA1_CAUCHY, tolerances={"ratio_rel": 0.10},
        params={"height_samples": 400_000, "height_cap": 20_000})
    rep_c = run_lemma1(cfg_c)
    elapsed = time.monotonic() - t0
    gv = {x.cid: x.value for x in rep_g.criteria}
    cv = {x.cid: x.value for x in rep_c.criteria}
    ok = rep_g.passed and rep_c.passed and elapsed < 600
    _line("A7", ok,
          f"drift rel err {gv['drift_rel_error']:.4f} <= 0.03, interval mass "
          f"{gv['height_interval_mass']:.4f} <= 0.02, tail ratio rel err "
          f"{cv['height_tail_ratio_error']:.4f} <= 0.10; {elapsed:.0f}s")
    assert rep_g.passed
    assert rep_c.passed
    assert elapsed < 600


# ---------------------------------------------------------------------------
# A8: harmonic products across the survival recursion, read from the float
# form of the level sweep: P(C_n) within relative (r + 1) n u + (L - 1) u
# of the exact value (r = 2 atoms, L <= n + 1 levels, u = 2^-53), so below
# 4e-12 at n = 8192


def test_a8_harmonic_limits():
    t0 = time.monotonic()
    rep = harmonic_limits(FAIR, [1.0, 3.0], [2 ** q for q in range(8, 14)])
    elapsed = time.monotonic() - t0
    target = half_stable_tau_tail(1.0)
    rel = abs(rep.product[-1] / target - 1.0)
    ok = rel <= 0.05 and rep.relative_changes[-1] < 0.02 and elapsed < 120
    _line("A8", ok, f"product {rep.product[-1]:.5f} vs {target:.5f} "
          f"(rel {rel:.4f} <= 0.05), last-doubling change "
          f"{rep.relative_changes[-1]:.4f} < 0.02; {elapsed:.0f}s")
    assert rel <= 0.05
    assert rep.relative_changes[-1] < 0.02
    assert elapsed < 120


# ---------------------------------------------------------------------------
# A9: meander endpoint law and cross-method agreement


def test_a9_meander_convergence():
    cfg = ExperimentConfig(
        "meander", FAIR, [4096], trials=10_000, seed=SEED_MEANDER,
        tolerances={"endpoint_ks": 0.02, "cross_method_ks": 0.01},
        params={"cross_check_n": 32, "cross_check_trials": 100_000})
    t0 = time.monotonic()
    rep = run_meander(cfg)
    elapsed = time.monotonic() - t0
    vals = {x.cid: x.value for x in rep.criteria}
    ok = rep.passed and elapsed < 600
    _line("A9", ok, f"weighted endpoint KS {vals['weighted_endpoint_ks']:.4f} "
          f"<= 0.02, cross-method KS {vals['cross_method_ks']:.4f} <= 0.01; "
          f"{elapsed:.0f}s")
    assert rep.passed
    assert elapsed < 600


# ---------------------------------------------------------------------------
# A10: property-suite umbrella and envelope calibration
#
# The per-invariant property suites (>= 10^3 random cases each, hypothesis
# harness) live in the module test files and run in the same pytest
# invocation; the calibration below checks that the distribution-free
# envelope used by every A-series statistic holds its confidence level.


def _inverse_rayleigh(u):
    return np.sqrt(-2.0 * np.log1p(-u))


def _inverse_ladder_time_cdf(u):
    # invert erfc(1/(2 sqrt(s)))
    return 1.0 / (4.0 * erfcinv(u) ** 2)


def test_a10_dkw_calibration():
    t0 = time.monotonic()
    breaches = {"rayleigh": 0, "ladder_time": 0}
    n = 2_000
    rng = np.random.default_rng(20240808)
    for rep in range(100):
        u = rng.random(n)
        d1 = ks_statistic(Sample(_inverse_rayleigh(u)), rayleigh_cdf)
        breaches["rayleigh"] += d1.statistic > d1.dkw_epsilon
        v = rng.random(n)
        d2 = ks_statistic(Sample(_inverse_ladder_time_cdf(v)), levy_half_cdf)
        breaches["ladder_time"] += d2.statistic > d2.dkw_epsilon
    elapsed = time.monotonic() - t0
    ok = breaches["rayleigh"] <= 5 and breaches["ladder_time"] <= 5
    _line("A10", ok, f"envelope breaches over 100 repetitions: {breaches} "
          f"(allowing 5 at the 0.99 level); {elapsed:.0f}s")
    assert breaches["rayleigh"] <= 5
    assert breaches["ladder_time"] <= 5
