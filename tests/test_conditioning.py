import math
from fractions import Fraction

import numpy as np
import pytest

from fluctwalk.conditioning import (conditioned_states, h_kernel_row,
                                    harmonic_limits, hchain_endpoint_distribution,
                                    hchain_path_distribution, meander_endpoint_distribution,
                                    meander_endpoint_floats, meander_sample, meander_weights, renewal_function, survival_probability,
                                    survival_sequence)
from fluctwalk.errors import (DegenerateStateError, HypothesisViolationError,
                              ParameterError, UnsupportedModeError)
from fluctwalk.increments import IncrementLaw, _rng, derive_seed, sample_walk
from fluctwalk.limit_laws import h_bm, half_stable_tau_tail
from fluctwalk.oracle import (distribution_equality, exact_functional_distribution)
from fluctwalk.scaling import _split_at_zero, wiener_hopf_factor
from fluctwalk.transforms import tanaka_transform

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
    with pytest.raises(DegenerateStateError):
        h_kernel_row(1, FAIR, lambda x: F(0))
    # a walk that only steps down has no chain conditioned to stay >= 0
    with pytest.raises(DegenerateStateError):
        next(conditioned_states(IncrementLaw.lattice([-1], [1]), 3, 10, seed=0))


def test_kernel_step_samples_from_row():
    # a +-1 chain steps up from 0; every chain moves only to the states of
    # its kernel row and never goes negative
    for law in (FAIR, IncrementLaw.biased_pm1(F(3, 4))):
        assert (next(conditioned_states(law, 1, 2000, 5)) == 1).all()
    for law in (FAIR, IncrementLaw.biased_pm1(F(3, 4)), IncrementLaw.uniform3()):
        V = renewal_function(law)
        prev = np.zeros(2000, dtype=np.int64)
        for x in conditioned_states(law, 12, 2000, 5):
            assert x.min() >= 0
            for a in np.unique(prev):
                row = {int(y) for y, _ in h_kernel_row(int(a), law, V)}
                assert set(np.unique(x[prev == a]).tolist()) <= row
            prev = x
    ys = {int(x[0]) for s in range(40) for x in conditioned_states(FAIR, 2, 1, s)}
    assert ys == {0, 1, 2}


def reference_pm1_endpoints(n, trials, seed):
    """Fair +-1 chain endpoints by the closed-form up-probability."""
    rng = _rng(seed)
    x = np.zeros(trials, dtype=np.int64)
    for _ in range(n):
        p_up = (x + 2) / (2.0 * (x + 1))
        x = np.where(rng.random(trials) < p_up, x + 1, x - 1)
    return x


@pytest.mark.parametrize("n,trials,seed", [
    (32, 100_000, derive_seed(20240808, 7)),   # verify meander-ac weights
    (4096, 10_000, derive_seed(23, 200)),      # converge meander, A9
    (1024, 4000, 5),
    (256, 4000, 5),
], ids=["meander-ac", "a9", "n1024", "n256"])
def test_conditioned_states_fair_pm1_is_bit_identical_to_closed_form(n, trials, seed):
    for x in conditioned_states(FAIR, n, trials, seed):
        pass
    assert np.array_equal(x, reference_pm1_endpoints(n, trials, seed))


@pytest.mark.parametrize("law", [FAIR, IncrementLaw.biased_pm1(F(3, 4)),
                                 IncrementLaw.uniform3()],
                         ids=["fair", "biased", "uniform3"])
def test_conditioned_states_endpoint_law_in_dkw_band(law):
    trials = 20_000
    eps = math.sqrt(math.log(2000) / (2 * trials))  # the DKW half-width at 0.999
    for k, x in enumerate(conditioned_states(law, 8, trials, 31), start=1):
        exact = hchain_endpoint_distribution(law, k).atoms
        cum = np.cumsum([float(exact[y]) for y in sorted(exact)])
        emp = np.array([np.count_nonzero(x <= y) for y in sorted(exact)]) / trials
        assert np.abs(emp - cum).max() <= eps, (law.description, k)
        assert set(np.unique(x).tolist()) <= set(exact)


def one_chain(law, length, seed):
    """Levels S_0 = 0, ..., S_length of the one trial of conditioned_states."""
    return [0] + [int(x[0]) for x in conditioned_states(law, length, 1, seed)]


def test_conditioned_walk_first_step_up():
    assert one_chain(FAIR, 1, seed=3) == [0, 1]
    assert tanaka_transform(sample_walk(FAIR, 1, 3).values) == (0.0, 1.0)


def test_conditioned_walk_point_mass_is_ramp():
    law = IncrementLaw.lattice([1], [1])
    assert one_chain(law, 4, seed=1) == [0, 1, 2, 3, 4]
    assert tanaka_transform(sample_walk(law, 4, 1).values) == (0.0, 1.0, 2.0, 3.0, 4.0)


def test_conditioned_methods_share_endpoint_law_exactly():
    # full path laws differ on lattice windows (zero-boundary effect), but
    # endpoint laws coincide exactly; both facts are pinned here
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
    paths = meander_sample(FAIR, 1, 5, seed=9)
    assert paths.tolist() == [[0.0, 1.0]] * 5


def test_meander_rejection_only_emits_nonnegative_paths():
    for s in range(3):
        paths = meander_sample(FAIR, 6, 10, seed=s)
        assert paths.shape == (10, 7) and paths.min() >= 0


def test_meander_two_step_endpoint_law():
    ends = meander_sample(FAIR, 2, 600, seed=0)[:, -1]
    frac2 = float(np.mean(ends == 2.0))
    assert abs(frac2 - 0.5) < 0.08
    assert set(ends.tolist()) == {0.0, 2.0}


def test_meander_reweight_weights_average_to_one():
    # one chain per seed, weighted at its last level
    n = 16
    last = [list(conditioned_states(FAIR, n, 1, s))[-1][0] for s in range(800)]
    w = meander_weights(FAIR, n, last)
    assert abs(w.mean() - 1.0) < 4 * w.std(ddof=1) / math.sqrt(w.size)


@pytest.mark.parametrize("law", [FAIR, IncrementLaw.biased_pm1(F(3, 4)),
                                 IncrementLaw.uniform3()],
                         ids=["fair", "biased", "uniform3"])
def test_meander_weights_carry_chain_endpoints_to_meander_endpoints(law):
    # chain endpoint mass times its weight is the meander endpoint mass
    for n in range(1, 7):
        chain = hchain_endpoint_distribution(law, n).atoms
        meander = meander_endpoint_distribution(law, n).atoms
        assert set(chain) == set(meander)
        levels = sorted(chain)
        w = meander_weights(law, n, levels)
        for x, wx in zip(levels, w):
            assert float(chain[x]) * wx == pytest.approx(float(meander[x]), rel=1e-12)
        p = survival_sequence(law, [n])[n]
        assert np.array_equal(meander_weights(law, n, levels, p_survival=p), w)


def test_chain_and_meander_absolute_continuity_exact():
    # P(walk path) * V(endpoint) equals the chain mass, path by path, for
    # every nonnegative path; equivalently the reweighted chain is the
    # meander law
    V = renewal_function(FAIR)
    for m in (2, 4, 6):
        chain = hchain_path_distribution(FAIR, m)
        total = F(0)
        from fluctwalk.oracle import iter_paths
        for _, vals, c in iter_paths(FAIR, m):
            if min(vals[1:]) < 0:
                continue
            prob = F(c, 2 ** m)
            assert prob * V(F(vals[-1])) == chain.atoms[tuple(vals)]
            total += prob
        assert total == survival_probability(FAIR, m).probability


def test_meander_endpoint_distribution_matches_enumeration():
    from fluctwalk.oracle import integer_law, iter_paths
    for law in (FAIR, IncrementLaw.uniform3()):
        D = integer_law(law)[2]
        for k in (2, 5):
            dp = meander_endpoint_distribution(law, k)
            direct = {}
            surv = F(0)
            for _, vals, c in iter_paths(law, k):
                if min(vals[1:]) < 0:
                    continue
                prob = F(c, D ** k)
                surv += prob
                direct[vals[-1]] = direct.get(vals[-1], F(0)) + prob
            direct = {y: p / surv for y, p in direct.items()}
            assert direct == dp.atoms
    assert meander_endpoint_distribution(FAIR, 2).atoms == {0: F(1, 2), 2: F(1, 2)}


@pytest.mark.parametrize("law", [FAIR, IncrementLaw.uniform3(),
                                 IncrementLaw.lattice([-1, 2], [F(2, 3), F(1, 3)])],
                         ids=["fair", "uniform3", "skip-up"])
def test_float_meander_law_within_its_bound_of_the_exact_law(law):
    # one float sweep for the grid: P(C_n) within (r + 1) n u + (L - 1) u and
    # each endpoint probability within 2 (r + 1) n u + L u of the exact law,
    # with r atoms and L <= n * max step + 1 levels; nothing underflows here
    grid = [1, 7, 64, 256]
    u, r, top = 2.0 ** -53, len(law.support), max(law.lattice_integer_form()[1])
    floats = meander_endpoint_floats(law, grid)
    surv = survival_sequence(law, grid)
    assert sorted(floats) == grid
    for n in grid:
        p, levels, probs = floats[n]
        L = n * top + 1
        assert abs(F(p) - surv[n]) <= ((r + 1) * n * u + (L - 1) * u) * surv[n]
        exact = meander_endpoint_distribution(law, n).atoms
        assert levels.tolist() == sorted(exact)
        for x, q in zip(levels.tolist(), probs):
            assert abs(F(q) - exact[x]) <= (2 * (r + 1) * n * u + L * u) * exact[x]


def test_exact_meander_endpoint_approaches_limit_law():
    # sup-distance of the exact scaled endpoint staircase to its limit CDF
    # shrinks as the horizon doubles (the cross-check behind the Monte Carlo
    # endpoint criterion)
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


def test_harmonic_survival_is_the_central_binomial_within_the_float_bound():
    # harmonic_limits reads P(C_n) from the float sweep; on fair +-1 over
    # A8's grid it is C(n, n//2) 2^-n within (r + 1) n u + (L - 1) u with
    # r = 2 atoms and L <= n + 1 levels summed
    grid = [2 ** q for q in range(8, 14)]
    rep = harmonic_limits(FAIR, [1.0], grid)
    for n, p in zip(grid, rep.survival):
        exact = F(math.comb(n, n // 2), 2 ** n)
        assert abs(F(p) - exact) <= 4 * n * 2.0 ** -53 * exact


def test_harmonic_limits_norming_on_a_law_without_closed_form():
    # {-1, +2} has no closed form: a_hat_n, the constant of -S, is read off
    # the Wiener-Hopf roots of -X.  log a_hat_n lies above the sum over the
    # exact P(S_k < 0) out to K = 1152 by at most the tail
    # sum_{k>K} e^{-k/n} / k <= e^{-(K+1)/n} / ((K + 1)(1 - e^{-1/n})), plus
    # rounding
    law = IncrementLaw.lattice([-1, 2], [F(2, 3), F(1, 3)])
    negated = IncrementLaw.lattice([1, -2], [F(2, 3), F(1, 3)])
    grid, K = [16, 32, 64], 1152
    exact = [F(int(above.sum()), Dk) for _, Dk, _, above, _ in
             _split_at_zero(negated, K, keep=0)]
    rep = harmonic_limits(law, [1.0], grid)
    for n, a in zip(grid, rep.a_hat):
        assert a == 1 / wiener_hopf_factor(negated, math.exp(-1 / n), 1.0)[0]
        partial = math.fsum(math.exp(-k / n) / k * float(exact[k - 1]) for k in range(1, K + 1))
        tail = math.exp(-(K + 1) / n) / ((K + 1) * -math.expm1(-1 / n))
        assert -1e-14 <= math.log(a) - partial <= tail + 1e-14
    assert harmonic_limits(law, [1.0], [256]).a_hat[0] > rep.a_hat[-1]


def test_harmonic_limits_reach_n_8192_on_uniform3():
    # the roots serve every n at once: uniform3 out to n = 8192, where a
    # positivity sweep would run to 144 000 steps.  sqrt(n) (a_hat_n P(C_n) /
    # P(tau > 1) - 1) rises across the grid (0.8047 at n = 64, 0.8611 at
    # 8192) and stays below 1 / (sigma sqrt 2) = 0.866
    law = IncrementLaw.uniform3()
    grid = [2 ** q for q in range(6, 14)]
    rep = harmonic_limits(law, [1.0], grid)
    assert rep.a_hat == [1 / wiener_hopf_factor(law, math.exp(-1 / n), 1.0)[0] for n in grid]
    scaled = [math.sqrt(n) * (p / half_stable_tau_tail(1.0) - 1)
              for n, p in zip(grid, rep.product)]
    assert all(b > a for a, b in zip(scaled, scaled[1:]))
    assert 0.80 < scaled[0] and scaled[-1] < 1 / (law.sigma() * math.sqrt(2))


def test_harmonic_limits_product_tracks_target():
    rep = harmonic_limits(FAIR, [1.0, 3.0], [64, 128, 256, 512])
    target = half_stable_tau_tail(1.0)
    assert abs(rep.product[-1] / target - 1.0) < 0.08
    # part-two products approach the scaled renewal limit gamma * h(x)
    for x in (1.0, 3.0):
        assert abs(rep.v_at_x[x][-1] / (target * h_bm(x)) - 1.0) < 0.12
    rows = rep.to_csv_rows()
    assert rows[0][:4] == ["n", "a_hat_n", "P_Cn", "product"]
