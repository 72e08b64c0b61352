import math
from fractions import Fraction

import numpy as np
import pytest

from fluctwalk.conditioning import (RenewalFunction, conditioned_walk,
                                    h_kernel_row, h_kernel_step,
                                    harmonic_limits, hchain_endpoint_distribution,
                                    hchain_path_distribution, meander_sample,
                                    renewal_function, survival_probability,
                                    survival_sequence)
from fluctwalk.errors import (DegenerateStateError, HypothesisViolationError,
                              ParameterError, UnsupportedModeError)
from fluctwalk.increments import IncrementLaw, _rng, derive_seed
from fluctwalk.limit_laws import h_bm, half_stable_tau_tail
from fluctwalk.oracle import (distribution_equality, exact_functional_distribution)

F = Fraction
FAIR = IncrementLaw.fair_pm1()


def test_renewal_fair_walk_counting_form():
    V = renewal_function(FAIR)
    assert V(F(5, 2)) == 3
    assert V(0) == 1
    assert V(7) == 8
    with pytest.raises(ParameterError):
        V(-1)


def test_renewal_biased_walk_geometric():
    law = IncrementLaw.biased_pm1(F(3, 4))
    V = renewal_function(law)
    r = F(1, 3)  # descent probability q/p
    assert V(0) == 1
    assert V(2) == 1 + r + r * r


def test_renewal_rejects_non_skip_free_exact():
    law = IncrementLaw.lattice([-2, 1], [F(1, 3), F(2, 3)])
    with pytest.raises(UnsupportedModeError):
        renewal_function(law)


def test_renewal_montecarlo_gaussian():
    V = renewal_function(IncrementLaw.gaussian(), mode="montecarlo",
                         budget=300, seed=11, x_max=3.0, step_cap=200_000)
    assert V(0.0) == 1.0  # only the zeroth renewal sits at height zero
    v1, v2 = V(1.0), V(2.5)
    assert v1 < v2
    se = V.standard_error(2.5)
    # drift-free limit: V grows like sqrt(2) x for x away from 0
    assert abs(v2 - (1 + h_bm(2.5))) < 6 * se + 0.8


def per_element_renewal_heights(law, budget, seed, x_max, step_cap):
    """Descending ladder heights per trial, as the per-element record loop found them."""
    heights = []
    for t in range(budget):
        rng = _rng(derive_seed(seed, t))
        s, mn, recs, steps_done = 0.0, 0.0, [], 0
        while mn >= -x_max and steps_done < step_cap:
            b = min(1024, step_cap - steps_done)
            c = s + np.cumsum(law.mean + law.stddev * rng.standard_normal(b))
            for v in c:
                if v < mn:
                    mn = v
                    recs.append(-v)
                    if mn < -x_max:
                        break
            s = c[-1] if mn >= -x_max else mn
            steps_done += b
        heights.append(np.array(recs))
    return heights


@pytest.mark.parametrize("law,x_max,step_cap", [
    (IncrementLaw.gaussian(), 3.0, 200_000),
    (IncrementLaw.gaussian(-0.05, 0.7), 2.0, 2_500),   # partial last block
    (IncrementLaw.gaussian(0.4, 1.0), 1.5, 3_000),     # drifts up: censored walks
])
def test_renewal_montecarlo_matches_per_element_loop(law, x_max, step_cap):
    budget, seed = 60, 4
    V = renewal_function(law, mode="montecarlo", budget=budget, seed=seed,
                         x_max=x_max, step_cap=step_cap)
    heights = per_element_renewal_heights(law, budget, seed, x_max, step_cap)
    for x in np.linspace(0.0, x_max, 13):
        counts = np.array([1 + int((h <= x).sum()) for h in heights], dtype=np.float64)
        assert V(x) == float(counts.mean())
        assert V.standard_error(x) == float(counts.std(ddof=1) / math.sqrt(budget))


def test_renewal_montecarlo_rejects_non_gaussian_before_sampling():
    for law in (FAIR, IncrementLaw.heavy_tail(1.0)):
        with pytest.raises(UnsupportedModeError):
            renewal_function(law, mode="montecarlo", budget=0)


def test_kernel_rows_fair_walk():
    V = renewal_function(FAIR)
    assert h_kernel_row(0, FAIR, V) == [(F(1), F(1))]
    row = dict(h_kernel_row(1, FAIR, V))
    assert row == {F(0): F(1, 4), F(2): F(3, 4)}
    for x in range(12):
        assert sum(p for _, p in h_kernel_row(x, FAIR, V)) == 1


def test_kernel_harmonic_for_skip_free_laws():
    law = IncrementLaw.uniform3()
    V = renewal_function(law)
    for x in range(10):
        assert sum(p for _, p in h_kernel_row(x, law, V)) == 1


def test_kernel_degenerate_state():
    V = RenewalFunction(evaluator=lambda x: F(0), mode="exact", law=FAIR)
    with pytest.raises(DegenerateStateError):
        h_kernel_row(1, FAIR, V)


def test_kernel_step_samples_from_row():
    V = renewal_function(FAIR)
    y, row = h_kernel_step(0, FAIR, V, seed=5)
    assert y == 1 and row == [(F(1), F(1))]
    ys = {h_kernel_step(1, FAIR, V, seed=s)[0] for s in range(40)}
    assert ys == {F(0), F(2)}


def test_conditioned_walk_first_step_up():
    for method in ("h_chain", "tanaka_transform"):
        w = conditioned_walk(FAIR, 1, seed=3, method=method)
        assert w.values == (0.0, 1.0)


def test_conditioned_walk_point_mass_is_ramp():
    law = IncrementLaw.lattice([1], [1])
    for method in ("h_chain", "tanaka_transform"):
        w = conditioned_walk(law, 4, seed=1, method=method)
        assert w.values == (0.0, 1.0, 2.0, 3.0, 4.0)


def test_conditioned_methods_share_endpoint_law_exactly():
    # full path laws differ on lattice windows (zero-boundary effect), but
    # endpoint laws coincide exactly; both facts are pinned here
    from fluctwalk.transforms import tanaka_transform
    for m in (3, 5, 8):
        td_paths = exact_functional_distribution(FAIR, m,
                                                 lambda v: tuple(tanaka_transform(v)))
        chain_paths = hchain_path_distribution(FAIR, m)
        td_end = exact_functional_distribution(FAIR, m,
                                               lambda v: tanaka_transform(v)[-1])
        chain_end = hchain_endpoint_distribution(FAIR, m)
        assert distribution_equality(td_end, chain_end) == 0
        if m == 3:
            assert distribution_equality(td_paths, chain_paths) == F(1, 8)


def test_survival_examples():
    assert survival_probability(FAIR, 2).probability == F(1, 2)
    assert survival_probability(FAIR, 3).probability == F(3, 8)
    ramp = IncrementLaw.lattice([1], [1])
    assert survival_probability(ramp, 9).probability == 1


def test_survival_matches_central_binomial_closed_form():
    # independent oracle: nonnegative fair paths of length n number C(n, n//2)
    seq = survival_sequence(FAIR, range(1, 65))
    for n, p in seq.items():
        assert p == F(math.comb(n, n // 2), 2 ** n)


def test_survival_monotone_in_horizon():
    seq = survival_sequence(IncrementLaw.uniform3(), range(1, 30))
    vals = [seq[k] for k in range(1, 30)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_survival_montecarlo_agrees_with_exact():
    est = survival_probability(FAIR, 8, mode="montecarlo", budget=30_000, seed=2)
    exact = float(survival_probability(FAIR, 8).probability)
    assert abs(est.probability - exact) < 5 * est.error + 1e-3


def test_meander_length_one_forced_up():
    for method in ("rejection", "reweight"):
        path, w = meander_sample(FAIR, 1, seed=9, method=method)
        assert path.values[-1] == 1.0


def test_meander_rejection_only_emits_nonnegative_paths():
    for s in range(30):
        path, w = meander_sample(FAIR, 6, seed=s, method="rejection")
        assert min(path.values) >= 0 and w == 1.0


def test_meander_two_step_endpoint_law():
    ends = [meander_sample(FAIR, 2, seed=s, method="rejection")[0].values[-1]
            for s in range(600)]
    frac2 = sum(1 for e in ends if e == 2.0) / len(ends)
    assert abs(frac2 - 0.5) < 0.08
    assert set(ends) == {0.0, 2.0}


def test_meander_reweight_weights_average_to_one():
    n = 16
    V = renewal_function(FAIR)
    surv = survival_probability(FAIR, n)
    ws = [meander_sample(FAIR, n, seed=s, method="reweight", V=V,
                         survival=surv)[1] for s in range(800)]
    w = np.array(ws)
    assert abs(w.mean() - 1.0) < 4 * w.std(ddof=1) / math.sqrt(w.size)


def test_chain_and_meander_absolute_continuity_exact():
    # P(walk path) * V(endpoint) equals the chain mass, path by path, for
    # every nonnegative path; equivalently the reweighted chain is the
    # meander law
    V = renewal_function(FAIR)
    for m in (2, 4, 6):
        chain = hchain_path_distribution(FAIR, m, V)
        total = F(0)
        from fluctwalk.oracle import iter_paths
        for _, vals, prob in iter_paths(FAIR, m):
            if min(vals[1:]) < 0:
                continue
            assert prob * V(F(vals[-1])) == chain.atoms[tuple(vals)]
            total += prob
        assert total == survival_probability(FAIR, m).probability


def test_meander_endpoint_distribution_matches_enumeration():
    from fluctwalk.conditioning import meander_endpoint_distribution
    from fluctwalk.oracle import iter_paths
    for law in (FAIR, IncrementLaw.uniform3()):
        for k in (2, 5):
            dp = meander_endpoint_distribution(law, k)
            direct = {}
            surv = F(0)
            for _, vals, prob in iter_paths(law, k):
                if min(vals[1:]) < 0:
                    continue
                surv += prob
                direct[vals[-1]] = direct.get(vals[-1], F(0)) + prob
            direct = {y: p / surv for y, p in direct.items()}
            assert direct == dp.atoms
    assert meander_endpoint_distribution(FAIR, 2).atoms == {0: F(1, 2), 2: F(1, 2)}


def test_exact_meander_endpoint_approaches_limit_law():
    # sup-distance of the exact scaled endpoint staircase to its limit CDF
    # shrinks as the horizon doubles (the cross-check behind the Monte Carlo
    # endpoint criterion)
    from fluctwalk.conditioning import meander_endpoint_distribution
    from fluctwalk.limit_laws import rayleigh_cdf
    dists = []
    for n in (4, 16, 64):
        dp = meander_endpoint_distribution(FAIR, n)
        xs = sorted(dp.atoms)
        cum = F(0)
        worst = 0.0
        for x in xs:
            lo = float(cum)
            cum += dp.atoms[x]
            ref = rayleigh_cdf(x / math.sqrt(n))
            worst = max(worst, abs(ref - lo), abs(ref - float(cum)))
        dists.append(worst)
    assert dists[2] < dists[1] < dists[0]
    assert dists[2] < 0.16


def test_rejection_acceptance_rate_matches_survival_probability():
    # acceptance frequency of the rejection sampler sits inside a binomial
    # confidence band around the exact survival probability
    from fluctwalk.increments import sample_walk, derive_seed
    k, trials = 12, 4000
    p_exact = float(survival_probability(FAIR, k).probability)
    hits = sum(
        1 for t in range(trials)
        if min(sample_walk(FAIR, k, derive_seed(404, t)).values[1:]) >= 0)
    se = math.sqrt(p_exact * (1 - p_exact) / trials)
    assert abs(hits / trials - p_exact) < 4 * se


def test_harmonic_limits_rejects_monotone_law():
    with pytest.raises(HypothesisViolationError):
        harmonic_limits(IncrementLaw.lattice([1], [1]), [1.0], [16, 32, 64])


def test_harmonic_limits_product_tracks_target():
    rep = harmonic_limits(FAIR, [1.0, 3.0], [64, 128, 256, 512])
    target = half_stable_tau_tail(1.0)
    assert abs(rep.product[-1] / target - 1.0) < 0.08
    # part-two products approach the scaled renewal limit gamma * h(x)
    for x in (1.0, 3.0):
        assert abs(rep.v_at_x[x][-1] / (target * h_bm(x)) - 1.0) < 0.12
    rows = rep.to_csv_rows()
    assert rows[0][:4] == ["n", "a_hat_n", "P_Cn", "product"]
