import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from fluctwalk.certify import _FRISTEDT_ALPHAS, _FRISTEDT_BETAS, DEFAULT_LAWS
from fluctwalk.errors import ParameterError, UnboundedTailError, UnsupportedModeError
from fluctwalk.increments import IncrementLaw
from fluctwalk.scaling import (_REL_TOL, FristedtReport, _split_at_zero, fristedt_residual,
                               norming_constant, positivity_rule, required_truncation)

F = Fraction


def test_zero_positivity_gives_unit_constant():
    assert norming_constant(lambda k: np.zeros(np.shape(k)), [5]) == [1.0]


def test_constant_half_closed_form_at_n1():
    # sum k^-1 e^-k / 2 = -(1/2) log(1 - e^-1); the truncated sum falls
    # short of it by at most half the tail bound 1e-9
    [a1] = norming_constant(lambda k: np.full(np.shape(k), 0.5), [1])
    gap = -0.5 * math.log(1 - math.exp(-1)) - math.log(a1)
    assert -1e-15 < gap <= 0.5 * _REL_TOL


def exact_positivity(law, K):
    """P(S_k > 0) for k = 1..K as Fractions, from the integer sweep."""
    return [F(int(above.sum()), Dk) for _, Dk, _, above, _ in _split_at_zero(law, K, keep=0)]


def test_fair_walk_exact_positivity_sequence():
    assert exact_positivity(IncrementLaw.fair_pm1(), 4) == [F(1, 2), F(1, 4), F(1, 2), F(5, 16)]


def test_point_mass_positivity_is_one():
    law = IncrementLaw.lattice([1], [1])
    assert exact_positivity(law, 6) == [1] * 6
    assert np.array_equal(positivity_rule(law)(np.arange(1, 7)), np.ones(6))


def test_symmetric_diffuse_positivity_near_half():
    law = IncrementLaw.gaussian()
    assert np.array_equal(positivity_rule(law)(np.arange(1, 8)), np.full(7, 0.5))


def test_truncation_respects_tail_bound():
    assert _REL_TOL == 1e-9
    for n in (1, 7, 64, 1024):
        K = required_truncation(n)
        assert (n / K) * math.exp(-K / n) <= 1e-9
        assert (n / (K - 1)) * math.exp(-(K - 1) / n) > 1e-9


def test_norming_monotone_and_growing_in_n():
    rule = positivity_rule(IncrementLaw.fair_pm1())
    vals = norming_constant(rule, [1, 2, 4, 8, 16, 32])
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_symmetric_diffuse_companion_constant_matches():
    # P(S_k < 0) = P(S_k > 0) = 1/2 on a symmetric diffuse law, so the one
    # rule gives the constant of -S too: (1 - e^{-1/n})^{-1/2}, less at most
    # half the tail bound 1e-9 in the exponent
    [down] = norming_constant(positivity_rule(IncrementLaw.gaussian()), [64])
    gap = -0.5 * math.log(1 - math.exp(-1 / 64)) - math.log(down)
    assert -1e-15 < gap <= 0.5 * _REL_TOL


@pytest.mark.parametrize("law", [IncrementLaw.fair_pm1(),
                                 IncrementLaw.lattice(["-1/2", "1/2"], ["1/2", "1/2"])],
                         ids=["pm1", "pm-half"])
def test_positivity_rule_is_exact_positivity_and_negativity(law):
    # the closed form against the exact sweep of S and of -S, k <= 40
    ks = np.arange(1, 41)
    rule = positivity_rule(law)(ks)
    negated = IncrementLaw.lattice([-s for s in law.support], law.probs)
    for l in (law, negated):
        assert rule == pytest.approx([float(p) for p in exact_positivity(l, 40)], rel=1e-13)


@pytest.mark.parametrize("law", [IncrementLaw.uniform3(), IncrementLaw.biased_pm1(F(3, 4)),
                                 IncrementLaw.lattice([-1, 2], [F(2, 3), F(1, 3)]),
                                 IncrementLaw.lattice([1], [1])],
                         ids=["uniform3", "biased", "skip-up", "point-mass"])
def test_positivity_rule_sweep_within_its_bound(law):
    # the float sweep against the integer one: every k <= 60 within
    # (r + 1) k u + (L - 1) u, with r atoms and L levels above 0 summed
    K, u, r = 60, 2.0 ** -53, len(law.support)
    swept = positivity_rule(law)(np.arange(1, K + 1))
    for k, (_, Dk, _, above, _) in zip(range(1, K + 1), _split_at_zero(law, K, keep=0)):
        exact = F(int(above.sum()), Dk)
        assert abs(F(swept[k - 1]) - exact) <= ((r + 1) * k * u + (len(above) - 1) * u) * exact


def test_positivity_rule_reads_at_most_one():
    # on a walk that rises with probability 9/10, rounding lifts the float
    # P(S_k > 0) past 1 from k = 61 on; the rule reads 1 there, so a_n exists
    rule = positivity_rule(IncrementLaw.biased_pm1(F(9, 10)))
    assert rule(np.arange(1, 144)).max() == 1.0
    assert 1 < norming_constant(rule, [8])[0] <= 1 / (1 - math.exp(-1 / 8))


@pytest.mark.parametrize("law", [IncrementLaw.fair_pm1(), IncrementLaw.uniform3(),
                                 IncrementLaw.lattice([-1, 2], [F(2, 3), F(1, 3)]),
                                 IncrementLaw.gaussian()],
                         ids=["pm1", "uniform3", "skip-up", "gaussian"])
def test_norming_grid_reads_the_rule_once_and_equals_one_point_calls(law):
    # one rule call out to the largest truncation; each a_n equals, bit for
    # bit, the one-point call and the sum over its own prefix of the rule
    rule = positivity_rule(law)
    calls = []

    def counting(ks):
        calls.append(int(ks.max()))
        return rule(ks)

    grid = [16, 64, 256]
    a = norming_constant(counting, grid)
    assert calls == [required_truncation(256)]
    assert a == [norming_constant(rule, [n])[0] for n in grid]
    for n, a_n in zip(grid, a):
        ks = np.arange(1, required_truncation(n) + 1, dtype=np.float64)
        p = rule(np.arange(1, required_truncation(n) + 1))
        assert a_n == math.exp(np.sum(np.exp(-ks / n) / ks * p))


@pytest.mark.parametrize("law", [IncrementLaw.gaussian(0.5), IncrementLaw.gaussian(-1.0, 2.0)],
                         ids=["drifting-gaussian", "falling-gaussian"])
def test_positivity_rule_none_off_the_lattice(law):
    # the heavy-tailed family is symmetric, so only drifting diffuse laws
    # are left without a rule
    assert positivity_rule(law) is None


def test_first_ladder_pair_table_fair_walk():
    # first ascent of the fair walk: height always 1, odd epochs, survivor
    # mass P(no ascent by K) = C(K, K/2) 2^-K; levels > 0 of the sweep that
    # keeps levels <= 0 are the first ascents at t
    table = {}
    for t, Dt, x0, above, below in _split_at_zero(IncrementLaw.fair_pm1(), 8, keep=-1):
        table.update({(t, x0 + j): F(c, Dt) for j, c in enumerate(above) if c})
        survivor = F(int(below.sum()), Dt)
    assert all(h == 1 for (_, h) in table)
    assert table[(1, 1)] == F(1, 2) and table[(3, 1)] == F(1, 8)
    assert survivor == F(math.comb(8, 4), 2 ** 8)


def test_fristedt_point_mass_collapses_to_geometric_series():
    law = IncrementLaw.lattice([1], [1])
    for a, b in ((0.5, 0.0), (1.0, 1.0), (2.0, 0.5)):
        rep = fristedt_residual(law, a, b, K=50)[0]
        target = 1 - math.exp(-a - b)
        assert abs(rep.lhs - target) < 1e-12
        assert abs(rep.rhs - target) < 1e-12


def test_fristedt_spot_value_fair_walk():
    # first-passage generating function of the fair walk at s = e^-1:
    # E s^T = (1 - sqrt(1 - s^2)) / s
    s = math.exp(-1.0)
    target = 1 - (1 - math.sqrt(1 - s * s)) / s
    rep = fristedt_residual(IncrementLaw.fair_pm1(), 1.0, 0.0, K=60)[0]
    assert abs(rep.lhs - target) < 1e-10
    assert abs(rep.rhs - target) < 1e-10
    assert rep.residual <= rep.tail_bound <= 1e-6


@pytest.mark.parametrize("law", DEFAULT_LAWS(), ids=lambda law: law.description)
def test_fristedt_grid_reports_equal_one_point_reports(law):
    # one grid call shares its sweeps and weighted sums; every report equals
    # the one-point call's, field by field, in (alpha, beta) order
    alphas, betas = _FRISTEDT_ALPHAS, _FRISTEDT_BETAS
    grid = fristedt_residual(law, alphas, betas, K=60)
    points = [fristedt_residual(law, a, b, K=60)[0] for a in alphas for b in betas]
    assert len(grid) == len(points) == 9
    for g, p in zip(grid, points):
        for f in fields(FristedtReport):
            assert getattr(g, f.name) == getattr(p, f.name)
    assert fristedt_residual(law, 1.0, [0.0], K=60) == [points[3]]


def test_fristedt_large_alpha_pins_both_sides_near_one():
    rep = fristedt_residual(IncrementLaw.fair_pm1(), 20.0, 0.0, K=40)[0]
    assert abs(rep.lhs - 1) <= math.exp(-20) * 1.01
    assert abs(rep.rhs - 1) <= math.exp(-20) * 1.01


def test_fristedt_requires_positive_alpha_and_lattice():
    with pytest.raises(UnboundedTailError):
        fristedt_residual(IncrementLaw.fair_pm1(), 0.0, 1.0)
    with pytest.raises(UnsupportedModeError):
        fristedt_residual(IncrementLaw.gaussian(), 1.0, 0.0)
    with pytest.raises(ParameterError):
        fristedt_residual(IncrementLaw.fair_pm1(), 1.0, -1.0)

