import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from fluctwalk.certify import DEFAULT_LAWS
from fluctwalk.conditioning import survival_sequence
from fluctwalk.errors import BudgetError, ParameterError
from fluctwalk.increments import IncrementLaw
from fluctwalk.oracle import (DEFAULT_BUDGET, ExactDistribution, distribution_equality,
                              integer_law, lattice_sweep, path_matrix)
from fluctwalk.scaling import _split_at_zero
from fluctwalk.stats import dkw_epsilon
from reference import (exact_functional_distribution, local_time_strict, local_time_verbatim,
                       meander_endpoint_distribution, oracle_walk)

F = Fraction


def test_fair_walk_two_steps_enumerates_four_paths():
    d = exact_functional_distribution(IncrementLaw.fair_pm1(), 2, tuple)
    assert len(d.atoms) == 4
    assert all(p == F(1, 4) for p in d.atoms.values())


def test_point_mass_single_path():
    d = exact_functional_distribution(IncrementLaw.lattice([2], [1]), 5, tuple)
    assert len(d.atoms) == 1
    assert d.total() == 1


def test_biased_walk_product_probabilities():
    d = exact_functional_distribution(IncrementLaw.biased_pm1(F(3, 4)), 2, tuple)
    assert sorted(d.atoms.values()) == [F(1, 16), F(3, 16), F(3, 16), F(9, 16)]


def test_local_time_pushforwards():
    law = IncrementLaw.fair_pm1()
    verb = exact_functional_distribution(law, 2, lambda v: local_time_verbatim(v)[-1])
    assert verb.atoms == {0: F(1, 4), 1: F(1, 2), 2: F(1, 4)}
    strict = exact_functional_distribution(law, 2, lambda v: local_time_strict(v)[-1])
    assert strict.atoms == {0: F(1, 2), 1: F(1, 4), 2: F(1, 4)}
    assert distribution_equality(verb, strict) == F(1, 4)


def test_constant_functional_collapses_to_one_atom():
    c = exact_functional_distribution(IncrementLaw.uniform3(), 3, lambda vals: "x")
    assert c.atoms == {"x": F(1)}


def test_tv_of_distribution_with_itself_is_zero():
    d = exact_functional_distribution(IncrementLaw.fair_pm1(), 4, tuple)
    assert distribution_equality(d, d) == 0


def test_mass_conservation_validated():
    d = exact_functional_distribution(IncrementLaw.uniform3(), 5, lambda v: v[-1])
    assert d.total() == 1
    bad = ExactDistribution({0: F(1, 2)})
    with pytest.raises(ParameterError):
        bad.validate()


def test_enumeration_budget_guard():
    with pytest.raises(BudgetError):
        path_matrix(IncrementLaw.uniform3(), 30)


def test_empirical_frequencies_within_dkw_band_of_oracle():
    # endpoint distribution of a 6-step fair walk vs 4000 sampled walks
    law = IncrementLaw.fair_pm1()
    exact = exact_functional_distribution(law, 6, lambda v: v[-1])
    xs = sorted(exact.atoms)
    cdf_exact = np.cumsum([float(exact.atoms[x]) for x in xs])
    n = 4000
    ends = np.array([oracle_walk(law, 6, 5150, t)[-1]
                     for t in range(n)])
    emp = np.array([(ends <= x).mean() for x in xs])
    assert np.max(np.abs(emp - cdf_exact)) <= dkw_epsilon(n)


ZERO_ATOM = IncrementLaw.lattice([-1, 0, 2], [F(2, 5), 0, F(3, 5)],
                                 description="zero-atom")


@pytest.mark.parametrize("law", DEFAULT_LAWS() + [ZERO_ATOM],
                         ids=lambda law: law.description)
def test_iter_paths_weights_are_the_integer_sweep(law):
    # a path's weight is an integer over D**m; summed by endpoint they are the
    # integer level weights of lattice_sweep at step m (the zero-probability
    # atom of ZERO_ATOM is dropped with the law and leaves empty levels)
    _, live, D = integer_law(law)
    for m, lo, w, Ds in lattice_sweep(law, 6):
        ends = {}
        n = 0
        P, W = path_matrix(law, m)
        for vals, c in zip(map(tuple, P.tolist()), W.tolist()):
            assert type(c) is int and c > 0
            ends[vals[-1]] = ends.get(vals[-1], 0) + c
            n += 1
        assert n == len(live) ** m
        assert Ds == D and sum(ends.values()) == D ** m
        assert ends == {lo + j: c for j, c in enumerate(w) if c}


# steps {-1, +2}: skips upward, so one step spans three levels
UP_TWO = IncrementLaw.lattice([-1, 2], [F(2, 3), F(1, 3)], description="-1/+2")


@pytest.mark.parametrize("law", DEFAULT_LAWS() + [UP_TWO], ids=lambda law: law.description)
def test_float_sweep_survival_within_its_bound(law):
    # the float form of lattice_sweep reads P(C_k) within its documented
    # relative bound (r + 1) k u + (L - 1) u of survival_sequence, at every
    # k <= 512 (r atoms, L levels summed, u = 2^-53)
    K, u = 512, 2.0 ** -53
    r = len(integer_law(law)[1])
    surv = survival_sequence(law, range(1, K + 1))
    ks = []
    for k, lo, w, D in lattice_sweep(law, K, keep=+1, exact=False):
        assert w.dtype == np.float64 and D == 1
        above = w[max(0, -lo):]
        p = above.sum() / D ** k
        assert abs(F(p) - surv[k]) <= ((r + 1) * k + len(above) - 1) * u * surv[k]
        ks.append(k)
    assert ks == list(range(1, K + 1))


@pytest.mark.parametrize("law", DEFAULT_LAWS(), ids=lambda law: law.description)
def test_level_sweeps_match_path_enumeration(law):
    # every exact quantity built on lattice_sweep equals the pushforward of
    # the enumerated paths, atom by atom (biased 3/4 has D = 4, the others 2, 3)
    K = 7
    D = integer_law(law)[2]
    surv = survival_sequence(law, range(1, K + 1))
    # the sweep that keeps levels <= 0: its levels > 0 at t are the first
    # ascents (T_1 = t, H_1), its levels <= 0 the mass still without one
    ascents, survivors = {}, {}
    for t, Dt, x0, above, below in _split_at_zero(law, K, keep=-1):
        ascents.update({(t, x0 + j): F(c, Dt) for j, c in enumerate(above) if c})
        survivors[t] = F(int(below.sum()), Dt)
    for k in range(1, K + 1):
        table, meander = {}, {}
        survivor = alive = F(0)
        P, W = path_matrix(law, k)
        for vals, c in zip(map(tuple, P.tolist()), W.tolist()):
            prob = F(c, D ** k)
            t = next((j for j in range(1, k + 1) if vals[j] > 0), None)
            if t is None:
                survivor += prob
            else:
                table[(t, vals[t])] = table.get((t, vals[t]), F(0)) + prob
            if min(vals[1:]) >= 0:
                alive += prob
                meander[vals[-1]] = meander.get(vals[-1], F(0)) + prob
        assert {a: p for a, p in ascents.items() if a[0] <= k} == table
        assert survivors[k] == survivor
        assert surv[k] == alive
        assert meander_endpoint_distribution(law, k).atoms == {
            y: p / alive for y, p in meander.items()}


FIVE_ATOM = IncrementLaw.lattice([-2, -1, 0, 1, 2], [F(1, 10), F(1, 5), F(2, 5), F(1, 5),
                                                     F(1, 10)], description="five-atom")


@pytest.mark.parametrize("law", DEFAULT_LAWS() + [UP_TWO, ZERO_ATOM, FIVE_ATOM],
                         ids=lambda law: law.description)
def test_path_matrix_is_the_product_enumeration_row_by_row(law):
    # rows in lexicographic order of the increment choices, first step
    # slowest, each weighing the product of its steps' numerators over D**m;
    # m = 0 is the single row [0] of weight 1
    _, live, D = integer_law(law)
    for m in range(7):
        P, c = path_matrix(law, m)
        assert P.dtype == c.dtype == np.int64
        choices = list(itertools.product(live, repeat=m))
        assert P.tolist() == [list(itertools.accumulate((s for s, _ in ch), initial=0))
                              for ch in choices]
        assert c.tolist() == [math.prod(a for _, a in ch) for ch in choices]
        assert int(c.sum()) == D ** m


def test_path_matrix_refuses_weights_that_overflow_int64():
    # D = 2**31: eight rows fit the budget, but D**3 = 2**93 does not fit int64
    law = IncrementLaw.lattice([-1, 1], [F(1, 2 ** 31), 1 - F(1, 2 ** 31)])
    assert path_matrix(law, 2)[1].tolist() == [1, 2 ** 31 - 1, 2 ** 31 - 1, (2 ** 31 - 1) ** 2]
    with pytest.raises(ParameterError, match="int64"):
        path_matrix(law, 3)


def test_path_matrix_budget_counts_cells():
    # 3**14 rows fit the budget alone; with their 15 values each they do not
    assert 3 ** 14 <= DEFAULT_BUDGET < 3 ** 14 * 15
    with pytest.raises(BudgetError, match="cells"):
        path_matrix(IncrementLaw.uniform3(), 14)
