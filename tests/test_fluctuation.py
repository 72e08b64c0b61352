import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluctwalk.fluctuation import (ladder_sequence, last_max_index,
                                   last_min_index, local_time_curve_np,
                                   local_time_strict, local_time_verbatim,
                                   records_ratio, running_max)
from fluctwalk.increments import IncrementLaw, iter_rows, sample_walk
from fluctwalk.oracle import iter_paths

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


def test_running_max_examples():
    assert running_max([0, 1, 0, 2]) == [0, 1, 1, 2]
    assert running_max([0, -1, -2]) == [0, 0, 0]
    assert running_max([0]) == [0]


def test_local_time_verbatim_examples():
    assert local_time_verbatim([0]).counts == (0,)
    assert local_time_verbatim([0, 1, 0, 2]).counts == (0, 1, 1, 2)
    # the tie at level 1 is reached by an up-step, so it counts
    assert local_time_verbatim([0, 1, 0, 1]).counts == (0, 1, 1, 2)


def test_local_time_strict_examples():
    assert local_time_strict([0, 1, 0, 1]).counts == (0, 1, 1, 1)
    assert local_time_strict([0, 1, 0, 2]).counts == (0, 1, 1, 2)
    assert local_time_strict([0]).counts == (0,)


def test_ladder_sequence_examples():
    ls = ladder_sequence([0, 1, 0, 2])
    assert ls.epochs == (0, 1, 3) and ls.heights == (0, 1, 2)
    assert not ls.killed  # window ends exactly at a ladder epoch
    ls = ladder_sequence([0, -1, -2])
    assert ls.epochs == (0,) and ls.killed
    ls = ladder_sequence([0, -1, 1])
    assert ls.epochs == (0, 2) and ls.heights == (0, 1)


def test_ladder_json_summary():
    ls = ladder_sequence([0, 1, 0, 2])
    js = ls.to_json()
    assert js["epochs"] == [0, 1, 3] and js["killed"] is False


def test_last_max_index_examples():
    assert last_max_index([0, 1, 0, 2], 2) == 1
    assert last_max_index([0, 1, 0, 2], 3) == 3
    assert last_max_index([0, -5, 3], 0) == 0


def test_last_min_index_examples():
    assert last_min_index([0, -1, 1, -2], 2) == 1
    assert last_min_index([0, -1, 1, -2], 3) == 3
    assert last_min_index([0, 7, -7], 0) == 0


def test_records_ratio_examples():
    r = records_ratio([0, 1, 0, 2])
    assert (r.upward, r.downward, r.ratio, r.flag) == (2, 1, 2.0, "finite")
    r = records_ratio([0, 1, 2])
    assert r.downward == 0 and r.flag == "infinite" and r.ratio is None
    r = records_ratio([0])
    assert r.flag == "undefined"


@given(lattice_steps)
@settings(max_examples=1000, deadline=None)
def test_strict_count_inverts_ladder_epochs(steps):
    vals = path_from(steps)
    lam = local_time_strict(vals)
    ls = ladder_sequence(vals)
    for k, t in enumerate(ls.epochs):
        assert lam[t] == k


@given(lattice_steps)
@settings(max_examples=1000, deadline=None)
def test_counts_are_unit_increment_and_bounded(steps):
    vals = path_from(steps)
    for lam in (local_time_verbatim(vals), local_time_strict(vals)):
        diffs = [b - a for a, b in zip(lam.counts, lam.counts[1:])]
        assert all(d in (0, 1) for d in diffs)
        ups = 0
        for k in range(1, len(vals)):
            ups += vals[k] > vals[k - 1]
            assert lam[k] <= k and lam[k] <= ups


@given(lattice_steps)
@settings(max_examples=1000, deadline=None)
def test_descending_ladder_is_ascending_of_negated_path(steps):
    vals = path_from(steps)
    down = ladder_sequence(vals, direction="descending")
    up = ladder_sequence([-v for v in vals], direction="ascending")
    assert down.epochs == up.epochs
    assert down.heights == up.heights
    assert down.killed == up.killed


def test_variant_agreement_on_diffuse_paths():
    # ties have probability zero for Gaussian steps, so the two counts agree
    # pathwise; checked over 10^4 sampled paths, trial t being
    # sample_walk(law, 64, derive_seed(314159, t))
    law = IncrementLaw.gaussian()
    for steps in iter_rows(law, 64, 314159, 10_000):
        V = np.zeros((len(steps), 65))
        np.cumsum(steps, axis=1, out=V[:, 1:])
        assert (local_time_curve_np(V, "verbatim") == local_time_curve_np(V, "strict")).all()


@pytest.mark.parametrize("law, max_length", ENUMERATED, ids=ENUMERATED_IDS)
def test_batched_counts_match_scalar_on_every_lattice_path(law, max_length):
    for m in range(max_length + 1):
        paths = [vals for _, vals, _ in iter_paths(law, m)]
        V = np.array(paths)
        for variant, scalar in (("strict", local_time_strict),
                                ("verbatim", local_time_verbatim)):
            assert local_time_curve_np(V, variant).tolist() == [
                list(scalar(p).counts) for p in paths]


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
        assert got.tolist() == [list(scalar(r).counts) for r in rows]
        # one row alone is the same curve as in the stack
        assert alone == got.tolist()


@given(st.integers(0, 2**32))
@settings(max_examples=1000, deadline=None)
def test_vectorized_counts_match_scalar(seed):
    w = sample_walk(IncrementLaw.gaussian(), 50, seed)
    v = np.asarray(w.values)
    assert local_time_curve_np(v, "verbatim").tolist() == list(
        local_time_verbatim(w).counts)
    assert local_time_curve_np(v, "strict").tolist() == list(
        local_time_strict(w).counts)


def test_vectorized_counts_match_scalar_on_lattice_ties():
    vals = np.array([0, 1, 0, 1, 2, 1, 2], dtype=float)
    assert local_time_curve_np(vals, "verbatim").tolist() == list(
        local_time_verbatim(vals.tolist()).counts)
    assert local_time_curve_np(vals, "strict").tolist() == list(
        local_time_strict(vals.tolist()).counts)


def test_monotone_path_counts_every_step():
    vals = list(range(12))
    assert local_time_verbatim(vals).counts == tuple(range(12))
    assert local_time_strict(vals).counts == tuple(range(12))


def test_curve_csv_rows():
    lam = local_time_verbatim([0, 1, 0, 2])
    assert lam.to_csv_rows() == [(0, 0), (1, 1), (2, 1), (3, 2)]


def test_index_out_of_window_rejected():
    from fluctwalk.errors import ParameterError
    with pytest.raises(ParameterError):
        last_max_index([0, 1], 5)
    with pytest.raises(ParameterError):
        last_min_index([0, 1], -1)
