import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluctwalk.fluctuation import local_time_curve_np
from fluctwalk.increments import IncrementLaw, iter_rows
from fluctwalk.oracle import path_matrix
from reference import (ladder_epochs, last_max_index, local_time_strict, local_time_verbatim,
                       oracle_walk)

lattice_steps = st.lists(st.sampled_from([-2, -1, 0, 1, 2]), min_size=1, max_size=40)

# every path of these laws up to the given length is checked against the
# scalar functionals, one stacked array per length
ENUMERATED = [(IncrementLaw.fair_pm1(), 12),
              (IncrementLaw.biased_pm1(Fraction(3, 4)), 10),
              (IncrementLaw.uniform3(), 8)]
ENUMERATED_IDS = ["fair_pm1", "biased_pm1", "uniform3"]

# stacks of equal-length float rows: integer values make ties, infinities
# stand for overflowed heavy-tailed walks
float_values = st.one_of(st.integers(-3, 3).map(float),
                         st.floats(-100.0, 100.0, allow_nan=False),
                         st.sampled_from([math.inf, -math.inf]))
float_rows = st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(float_values, min_size=n, max_size=n), min_size=1, max_size=5))


def path_from(steps):
    vals = [0]
    for s in steps:
        vals.append(vals[-1] + s)
    return vals


def test_local_time_verbatim_examples():
    assert local_time_verbatim([0]) == (0,)
    assert local_time_verbatim([0, 1, 0, 2]) == (0, 1, 1, 2)
    # the tie at level 1 is reached by an up-step, so it counts
    assert local_time_verbatim([0, 1, 0, 1]) == (0, 1, 1, 2)


def test_local_time_strict_examples():
    assert local_time_strict([0, 1, 0, 1]) == (0, 1, 1, 1)
    assert local_time_strict([0, 1, 0, 2]) == (0, 1, 1, 2)
    assert local_time_strict([0]) == (0,)


def test_ladder_sequence_examples():
    assert ladder_epochs([0, 1, 0, 2]) == [0, 1, 3]
    assert ladder_epochs([0, -1, -2]) == [0]
    assert ladder_epochs([0, -1, 1]) == [0, 2]


def test_last_max_index_examples():
    assert last_max_index([0, 1, 0]) == 1
    assert last_max_index([0, 1, 0, 2]) == 3
    assert last_max_index([0]) == 0


@given(lattice_steps)
@settings(max_examples=1000, deadline=None)
def test_strict_count_inverts_ladder_epochs(steps):
    vals = path_from(steps)
    lam = local_time_strict(vals)
    for k, t in enumerate(ladder_epochs(vals)):
        assert lam[t] == k


@given(lattice_steps)
@settings(max_examples=1000, deadline=None)
def test_counts_are_unit_increment_and_bounded(steps):
    vals = path_from(steps)
    for lam in (local_time_verbatim(vals), local_time_strict(vals)):
        diffs = [b - a for a, b in zip(lam, lam[1:])]
        assert all(d in (0, 1) for d in diffs)
        ups = 0
        for k in range(1, len(vals)):
            ups += vals[k] > vals[k - 1]
            assert lam[k] <= k and lam[k] <= ups


def test_variant_agreement_on_diffuse_paths():
    # ties have probability zero for Gaussian steps, so the two counts agree
    # pathwise; checked over 10^4 sampled paths, trial t being
    # oracle_walk(law, 64, 314159, t), drawn from stream(314159, "rows", t)
    law = IncrementLaw.gaussian()
    for V in iter_rows(law, 64, 314159, 10_000):
        assert (local_time_curve_np(V, "verbatim") == local_time_curve_np(V, "strict")).all()


@pytest.mark.parametrize("law, max_length", ENUMERATED, ids=ENUMERATED_IDS)
def test_batched_counts_match_scalar_on_every_lattice_path(law, max_length):
    for m in range(max_length + 1):
        paths = list(map(tuple, path_matrix(law, m)[0].tolist()))
        V = np.array(paths)
        for variant, scalar in (("strict", local_time_strict),
                                ("verbatim", local_time_verbatim)):
            assert local_time_curve_np(V, variant).tolist() == [
                list(scalar(p)) for p in paths]


@given(float_rows)
@settings(max_examples=300, deadline=None)
@example([[0.0]])
@example([[0.0, -1.0, -1.0, -3.0], [0.0, 0.0, -2.0, 0.0]])
def test_batched_counts_match_scalar_on_float_rows(rows):
    # integer-valued floats give ties, and rows without ladder epochs or of
    # length one are drawn too
    V = np.array(rows)
    for variant, scalar in (("strict", local_time_strict),
                            ("verbatim", local_time_verbatim)):
        with np.errstate(invalid="ignore"):  # inf - inf in the step signs
            got = local_time_curve_np(V, variant)
            alone = [local_time_curve_np(np.array(r), variant).tolist() for r in rows]
        assert got.dtype == np.int64
        assert got.tolist() == [list(scalar(r)) for r in rows]
        # one row alone is the same curve as in the stack
        assert alone == got.tolist()


@given(st.integers(0, 2**32))
@settings(max_examples=1000, deadline=None)
def test_vectorized_counts_match_scalar(seed):
    w = oracle_walk(IncrementLaw.gaussian(), 50, seed)
    v = np.asarray(w)
    assert local_time_curve_np(v, "verbatim").tolist() == list(
        local_time_verbatim(w))
    assert local_time_curve_np(v, "strict").tolist() == list(
        local_time_strict(w))


def test_vectorized_counts_match_scalar_on_lattice_ties():
    vals = np.array([0, 1, 0, 1, 2, 1, 2], dtype=float)
    assert local_time_curve_np(vals, "verbatim").tolist() == list(
        local_time_verbatim(vals.tolist()))
    assert local_time_curve_np(vals, "strict").tolist() == list(
        local_time_strict(vals.tolist()))


def test_monotone_path_counts_every_step():
    vals = list(range(12))
    assert local_time_verbatim(vals) == tuple(range(12))
    assert local_time_strict(vals) == tuple(range(12))

