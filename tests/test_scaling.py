import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from fluctwalk.certify import _FRISTEDT_ALPHAS, _FRISTEDT_BETAS, DEFAULT_LAWS
from fluctwalk.errors import ParameterError, UnboundedTailError, UnsupportedModeError
from fluctwalk.increments import IncrementLaw
from fluctwalk.oracle import lattice_sweep
from fluctwalk.scaling import (FristedtReport, _split_at_zero, fristedt_residual,
                               norming_constant, wiener_hopf_factor)

F = Fraction
U = 2.0 ** -53

# the laws the Wiener-Hopf factor is checked on: two with a closed form or
# one up-step, two asymmetric (so X and -X differ), one with two up-steps
LAWS = [IncrementLaw.fair_pm1(), IncrementLaw.uniform3(), IncrementLaw.biased_pm1(F(3, 4)),
        IncrementLaw.lattice([-1, 2], [F(2, 3), F(1, 3)]),
        IncrementLaw.lattice([-2, -1, 0, 1, 2], [F(1, 10), F(1, 5), F(2, 5), F(1, 5), F(1, 10)])]
LAW_IDS = ["pm1", "uniform3", "biased", "skip-up", "five-atom"]


def exact_positivity(law, K):
    """P(S_k > 0) for k = 1..K as Fractions, from the integer sweep."""
    return [F(int(above.sum()), Dk) for _, Dk, _, above, _ in _split_at_zero(law, K, keep=0)]


def positivity_rule(law):
    """The tests' positivity oracle: k -> P(S_k > 0) on int64 arrays of k.

    1/2 on symmetric diffuse laws; on the simple symmetric walk 1/2 at odd k
    and (1 - C(k, k/2) 2^{-k}) / 2 at even k (symmetric, so also
    P(S_k < 0)); on every other lattice law the levels above 0 of one float
    sweep, each within relative (r + 1) k u + (L - 1) u of the exact value
    (r atoms, L levels summed), read as at most 1.  None off the lattice.
    """
    if law.is_diffuse() and law.is_symmetric():
        return lambda ks: np.full(ks.shape, 0.5)
    if law.kind != "lattice":
        return None
    if not law.is_simple_symmetric():
        def swept(ks):
            p = np.empty(int(ks.max()))
            for k, lo, w, _ in lattice_sweep(law, len(p), exact=False):
                p[k - 1] = w[max(0, 1 - lo):].sum()
            return np.minimum(p, 1.0)[ks - 1]
        return swept

    def rule(ks):
        out = np.full(ks.shape, 0.5)
        ev = ks % 2 == 0
        ke = ks[ev].astype(np.float64)
        lg = (np.vectorize(math.lgamma)(ke + 1)
              - 2 * np.vectorize(math.lgamma)(ke / 2 + 1) - ke * math.log(2))
        out[ev] = 0.5 - 0.5 * np.exp(lg)
        return out
    return rule


def log_series_tail(n, K):
    """sum_{k>K} e^{-k/n} / k <= e^{-(K+1)/n} / ((K + 1)(1 - e^{-1/n}))."""
    return math.exp(-(K + 1) / n) / ((K + 1) * -math.expm1(-1 / n))


def test_zero_positivity_gives_unit_constant():
    # a walk that never steps up has no ascent: the factor is 1 exactly
    law = IncrementLaw.lattice([-1, -2], [F(1, 2), F(1, 2)])
    assert norming_constant(law, [1, 5, 4096]) == [1.0, 1.0, 1.0]
    assert wiener_hopf_factor(law, 0.5, 0.3) == (1.0, 0.0)


def test_constant_half_closed_form_at_n1():
    # P(S_k > 0) = 1/2 gives log a_1 = sum k^-1 e^-k / 2 = -(1/2) log(1 - e^-1)
    for law in (IncrementLaw.gaussian(), IncrementLaw.heavy_tail(1.0)):
        [a1] = norming_constant(law, [1])
        assert a1 == (-math.expm1(-1.0)) ** -0.5
        assert math.log(a1) == pytest.approx(-0.5 * math.log1p(-math.exp(-1)), rel=1e-15)


def test_fair_walk_exact_positivity_sequence():
    assert exact_positivity(IncrementLaw.fair_pm1(), 4) == [F(1, 2), F(1, 4), F(1, 2), F(5, 16)]


def test_point_mass_positivity_is_one():
    # P(S_k > 0) = 1, so a_n = exp(sum e^{-k/n} / k) = 1 / (1 - e^{-1/n})
    law = IncrementLaw.lattice([1], [1])
    assert exact_positivity(law, 6) == [1] * 6
    assert np.array_equal(positivity_rule(law)(np.arange(1, 7)), np.ones(6))
    for n in (1, 64, 8192):
        s = math.exp(-1 / n)
        assert norming_constant(law, [n])[0] == pytest.approx(1 / (1 - s), rel=4 * U)


def test_symmetric_diffuse_positivity_near_half():
    # P(S_k > 0) = 1/2 on every symmetric diffuse law, at every sigma, so
    # a_n is (1 - e^{-1/n})^{-1/2}, bit for bit
    grid = [1, 7, 64, 4096]
    closed = [(-math.expm1(-1 / n)) ** -0.5 for n in grid]
    for law in (IncrementLaw.gaussian(), IncrementLaw.gaussian(0.0, 3.0),
                IncrementLaw.heavy_tail(1.0)):
        assert np.array_equal(positivity_rule(law)(np.arange(1, 8)), np.full(7, 0.5))
        assert norming_constant(law, grid) == closed


def test_norming_monotone_and_growing_in_n():
    for law in LAWS[:2]:
        vals = norming_constant(law, [1, 2, 4, 8, 16, 32])
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_symmetric_diffuse_companion_constant_matches():
    # the constant of -S is the same call on the negated law; a symmetric
    # diffuse law is its own negation, so both read the closed form, which
    # is the series of P(S_k < 0) = 1/2 to rounding
    [down] = norming_constant(IncrementLaw.gaussian(0.0, 2.0), [64])
    assert down == (-math.expm1(-1 / 64)) ** -0.5
    assert math.log(down) == pytest.approx(-0.5 * math.log1p(-math.exp(-1 / 64)), rel=1e-15)


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
    K, r = 60, len(law.support)
    swept = positivity_rule(law)(np.arange(1, K + 1))
    for k, (_, Dk, _, above, _) in zip(range(1, K + 1), _split_at_zero(law, K, keep=0)):
        exact = F(int(above.sum()), Dk)
        assert abs(F(swept[k - 1]) - exact) <= ((r + 1) * k * U + (len(above) - 1) * U) * exact


def test_positivity_rule_reads_at_most_one():
    # on a walk that rises with probability 9/10, rounding lifts the float
    # P(S_k > 0) past 1 from k = 61 on; the oracle reads 1 there.  The
    # roots need no such guard: a_n stays below the point mass's 1/(1 - s)
    law = IncrementLaw.biased_pm1(F(9, 10))
    assert positivity_rule(law)(np.arange(1, 144)).max() == 1.0
    assert 1 < norming_constant(law, [8])[0] <= 1 / (1 - math.exp(-1 / 8))


@pytest.mark.parametrize("law", LAWS + [IncrementLaw.gaussian()],
                         ids=LAW_IDS + ["gaussian"])
def test_norming_grid_equals_one_point_calls_and_the_swept_sum(law):
    # each a_n is computed on its own: a grid call equals one-point calls
    # bit for bit.  Against the oracle's positivity out to K = 16 * 1024,
    # read once: log a_n lies above the partial sum by at most its tail
    # (7e-9 at n = 1024, below 1e-25 at n <= 256), less the oracle's
    # rounding, within the roots' bound (1e-12 here) and (n + 1) u for
    # rounding s
    grid, K = [64, 256, 1024], 16 * 1024
    a = norming_constant(law, grid)
    assert a == [norming_constant(law, [n])[0] for n in grid]
    p = positivity_rule(law)(np.arange(1, K + 1))
    ks = np.arange(1, K + 1, dtype=np.float64)
    r = len(law.support) if law.kind == "lattice" else 1
    span = (max(law.support) - min(law.support)) / law.lattice_integer_form()[0] \
        if law.kind == "lattice" else 0
    for n, a_n in zip(grid, a):
        partial = math.fsum(np.exp(-ks / n) / ks * p)
        swept = ((r + 1) * K + K * span + K) * U * partial
        gap = math.log(a_n) - partial
        slack = 1e-12 + (n + 1) * U
        assert -swept - slack <= gap <= log_series_tail(n, K) + slack


@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_wiener_hopf_factor_matches_exact_positivity_at_small_n(law):
    # the exact integer sweep (Fractions) out to K = 36 * 16: log(1 / factor)
    # minus the partial sum lies in [0, tail], to rounding
    K = 36 * 16
    exact = exact_positivity(law, K)
    for n in (1, 4, 16):
        value, bound = wiener_hopf_factor(law, math.exp(-1 / n), 1.0)
        partial = math.fsum(math.exp(-k / n) / k * float(p) for k, p in enumerate(exact, 1))
        gap = -math.log(value) - partial
        assert -bound - 1e-15 <= gap <= log_series_tail(n, K) + bound + 1e-15


def test_wiener_hopf_factor_fair_walk_closed_form():
    # E s^{T_1} = s / (1 + sqrt(1 - s^2)) on fair +-1, so the factor is
    # (1 - s + r) / (1 + r) with r = sqrt((1 - s)(1 + s)), every term
    # positive, to a few u
    for n in (1, 2, 16, 64, 1024, 8192, 2 ** 16, 2 ** 20):
        s = math.exp(-1 / n)
        root = math.sqrt((1 - s) * (1 + s))
        value, bound = wiener_hopf_factor(IncrementLaw.fair_pm1(), s, 1.0)
        assert value == pytest.approx((1 - s + root) / (1 + root), rel=bound + 8 * U)
        assert 1 / value == norming_constant(IncrementLaw.fair_pm1(), [n])[0]


@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_wiener_hopf_factor_against_the_first_ladder_table(law):
    # 1 - E(s^{T_1} z^{H_1}) from the exact first-ascent table out to
    # K = 330 (levels > 0 of the sweep that keeps levels <= 0), whose tail
    # E(s^T z^H; T > K) is at most s^K <= 0.9^330 < 1e-15
    K = 330
    table = [(t, [(x0 + j, F(c, Dt)) for j, c in enumerate(above) if c])
             for t, Dt, x0, above, _ in _split_at_zero(law, K, keep=-1)]
    for s in (0.5, 0.9):
        for z in (-1.0, 0.0, 0.5, 0.9):
            value, bound = wiener_hopf_factor(law, s, z)
            truncated = 1 - math.fsum(s ** t * float(p) * z ** h
                                      for t, atoms in table for h, p in atoms)
            assert abs(value - truncated) <= s ** K + bound * abs(value) + 1e-15


@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
def test_wiener_hopf_factor_within_its_bound_of_high_precision_roots(law):
    # the roots of z^d (1 - s E z^X) in 60 digits at the same float s: the
    # value is within its stated bound, and the bound below 2e-12, out to
    # n = 2^20, where the root near 1 is 0.0014 from it
    mp = pytest.importorskip("mpmath")
    _, steps, probs = law.lattice_integer_form()
    d = -min(steps)
    with mp.workdps(60):
        for n in (1, 64, 8192, 2 ** 20):
            s = math.exp(-1 / n)
            poly = [mp.mpf(0)] * (max(steps) + d + 1)
            poly[d] += 1
            for j, p in zip(steps, probs):
                poly[j + d] -= mp.mpf(s) * mp.mpf(p.numerator) / p.denominator
            outer = [x for x in mp.polyroots(poly[::-1], maxsteps=200, extraprec=200)
                     if abs(x) > 1]
            for z in (1.0, 0.5, -1.0):
                value, bound = wiener_hopf_factor(law, s, z)
                exact = mp.re(mp.fprod(1 - z / x for x in outer))
                assert abs(value / exact - 1) <= bound <= 2e-12


@pytest.mark.parametrize("law", [IncrementLaw.gaussian(0.5), IncrementLaw.gaussian(-1.0, 2.0)],
                         ids=["drifting-gaussian", "falling-gaussian"])
def test_positivity_rule_none_off_the_lattice(law):
    # drifting diffuse laws have neither a positivity oracle nor a norming
    # constant; the Wiener-Hopf factor is for lattice laws only
    assert positivity_rule(law) is None
    with pytest.raises(UnsupportedModeError):
        norming_constant(law, [64])
    with pytest.raises(UnsupportedModeError):
        wiener_hopf_factor(law, 0.5, 1.0)


def test_wiener_hopf_factor_rejects_s_and_z_outside_their_ranges():
    for s, z in ((0.0, 1.0), (1.0, 1.0), (0.5, 1.5), (0.5, -1.5)):
        with pytest.raises(ParameterError):
            wiener_hopf_factor(IncrementLaw.fair_pm1(), s, z)
    with pytest.raises(ParameterError):
        norming_constant(IncrementLaw.fair_pm1(), [0])


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

