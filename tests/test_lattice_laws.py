"""Properties over drawn small lattice laws: the batched functionals, the path
matrix and the float meander law against the single-path references, and the
norming constant against its swept series."""

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctwalk import certify
from fluctwalk.conditioning import meander_endpoint_floats, survival_sequence
from fluctwalk.fluctuation import local_time_curve_np
from fluctwalk.oracle import lattice_sweep, path_matrix
from fluctwalk.scaling import norming_constant, wiener_hopf_factor
from fluctwalk.transforms import future_min_local_time_np
from reference import (future_min_local_time, last_max_index, lattice_laws,
                       local_time_strict, local_time_verbatim, meander_endpoint_distribution)

F = Fraction


# every window length the properties enumerate
LENGTHS = range(5)


@given(lattice_laws())
@settings(max_examples=100, deadline=None)
def test_batched_functionals_match_the_references_on_every_path(law):
    for m in LENGTHS:
        P = path_matrix(law, m)[0]
        paths = list(map(tuple, P.tolist()))
        for variant, scalar in (("strict", local_time_strict),
                                ("verbatim", local_time_verbatim)):
            assert local_time_curve_np(P, variant).tolist() == [list(scalar(p)) for p in paths]
            assert future_min_local_time_np(P, variant).tolist() == [
                list(future_min_local_time(p, variant)) for p in paths]
        # the last strict ladder epoch is the first index at the final record count
        t_last, rule = certify._last_max_ladder(P)
        epochs = [lam.index(lam[-1]) for lam in map(local_time_strict, paths)]
        assert t_last.tolist() == epochs
        assert rule.tolist() == [last_max_index(p) == t for p, t in zip(paths, epochs)]


@given(lattice_laws())
@settings(max_examples=100, deadline=None)
def test_path_matrix_is_the_product_enumeration(law):
    # rows in lexicographic order of the step choices, first step most
    # significant, each weighing its integer numerators over D**m
    _, steps, probs = law.lattice_integer_form()
    D = math.lcm(*(p.denominator for p in probs))
    for m in LENGTHS:
        rows, weights = [], []
        for choice in itertools.product(zip(steps, probs), repeat=m):
            rows.append(list(itertools.accumulate((s for s, _ in choice), initial=0)))
            weights.append(math.prod(int(p * D) for _, p in choice))
        P, c = path_matrix(law, m)
        assert P.dtype == c.dtype == np.int64
        assert P.tolist() == rows
        assert c.tolist() == weights
        assert sum(weights) == D ** m


@given(lattice_laws(), st.lists(st.integers(1, 60), min_size=1, max_size=3, unique=True))
@settings(max_examples=60, deadline=None)
def test_float_meander_law_within_its_stated_bound(law, ks):
    # with r atoms and L levels summed, P(C_k) within relative
    # (r + 1) k u + (L - 1) u and each probability within 2 (r + 1) k u + L u,
    # plus at most L 2**-1074 of underflow
    u, tiny = 2.0 ** -53, F(2) ** -1074
    r, top = len(law.support), max(law.lattice_integer_form()[1])
    floats = meander_endpoint_floats(law, ks)
    surv = survival_sequence(law, ks)
    assert sorted(floats) == sorted(ks)
    for k in ks:
        p, levels, probs = floats[k]
        L = k * top + 1
        assert abs(F(p) - surv[k]) <= F((r + 1) * k * u + (L - 1) * u) * surv[k] + L * tiny
        exact = meander_endpoint_distribution(law, k).atoms
        assert levels.tolist() == sorted(exact)
        for x, q in zip(levels.tolist(), probs):
            bound = F(2 * (r + 1) * k * u + L * u) * exact[x] + L * tiny
            assert abs(F(q) - exact[x]) <= bound


@given(lattice_laws())
@settings(max_examples=100, deadline=None)
def test_norming_constant_is_the_swept_positivity_sum(law):
    # log a_n = sum_k k^{-1} s^k P(S_k > 0) with s = e^{-1/n} (Sparre
    # Andersen), summed to K = 25 n with P(S_k > 0) read off one float
    # sweep.  The gap lies within the roots' bound plus (n + 1) u for
    # rounding s, plus each term's sweep error, relative (r + 1) k u for the
    # weights and (L - 1) u <= span k u for summing L levels, plus 8 u for
    # exp (at most 4 ulp), the division, the product, fsum and log; above,
    # it also holds the tail s^{K+1} / ((K + 1)(1 - s)) the sum stops short of
    n, K, u = 16, 400, 2.0 ** -53
    s = math.exp(-1 / n)
    steps = law.lattice_integer_form()[1]
    r, span = len(steps), max(steps) - min(steps)
    positive = np.array([w[1 - lo:].sum() for _, lo, w, _ in lattice_sweep(law, K, exact=False)])
    k = np.arange(1, K + 1)
    terms = np.exp(-k / n) / k * positive
    partial = math.fsum(terms)
    rounding = math.fsum(terms * ((r + 1 + span) * k + 8) * u)
    roots = wiener_hopf_factor(law, s, 1.0)[1] + (n + 1) * u
    tail = s ** (K + 1) / ((K + 1) * -math.expm1(-1 / n))
    gap = math.log(norming_constant(law, [n])[0]) - partial
    assert -rounding - roots <= gap <= tail + rounding + roots
