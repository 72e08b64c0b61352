import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluctwalk.errors import ParameterError
from fluctwalk.fluctuation import ladder_epochs, local_time_strict, local_time_verbatim
from fluctwalk.increments import IncrementLaw, WalkPath, derive_seed, sample_walk
from fluctwalk.oracle import distribution_equality, exact_functional_distribution, iter_paths
from fluctwalk.transforms import (future_min_local_time, future_min_local_time_np,
                                  tanaka_transform, tanaka_transform_np)

lattice_steps = st.lists(st.sampled_from([-2, -1, 0, 1, 2]), min_size=1, max_size=30)

# every path of these laws up to the given length is checked against the
# scalar functionals, one stacked array per length
ENUMERATED = [(IncrementLaw.fair_pm1(), 12),
              (IncrementLaw.biased_pm1(Fraction(3, 4)), 10),
              (IncrementLaw.uniform3(), 8)]
ENUMERATED_IDS = ["fair_pm1", "biased_pm1", "uniform3"]

# stacks of equal-length float rows: integer values make ties; an infinite
# record (an overflowed heavy-tailed walk) makes the rebuild's choice of
# epochs visible at the epochs themselves
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


def test_excursion_rebuild_examples():
    assert tanaka_transform([0, 1, 0, 2]) == (0, 1, 3, 2)
    assert tanaka_transform([0, 1, 2]) == (0, 1, 2)
    assert tanaka_transform([0, -1, 1]) == (0, 2, 1)


def test_rebuild_returns_walkpath_for_walkpath_input():
    w = WalkPath(values=(0, 1, 0, 2))
    out = tanaka_transform(w)
    assert isinstance(out, WalkPath) and out.values == (0, 1, 3, 2)


def test_future_min_local_time_examples():
    assert future_min_local_time([0, 1, 3, 2]).counts == (0, 1, 1, 1)
    assert future_min_local_time([0, 1, 2, 3]).counts == (0, 1, 2, 2)
    assert future_min_local_time([0]).counts == (0,)


def _assert_batched_forms_match_scalar(rows):
    V = np.array(rows)
    with np.errstate(invalid="ignore"):  # inf - inf, as in the scalar loop
        rebuilt = tanaka_transform_np(V)
    assert rebuilt.shape == V.shape and rebuilt.dtype == V.dtype
    expected = np.array([tanaka_transform(r) for r in rows], dtype=V.dtype)
    # nan only where the scalar rebuild also subtracts two infinities
    assert np.array_equal(rebuilt, expected, equal_nan=V.dtype.kind == "f")
    for variant in ("verbatim", "strict"):
        counts = future_min_local_time_np(V, variant)
        assert counts.dtype == np.int64
        assert counts.tolist() == [list(future_min_local_time(r, variant).counts)
                                   for r in rows]
    # a 1-D path is one row
    for r, u in zip(rows, rebuilt):
        with np.errstate(invalid="ignore"):
            one = tanaka_transform_np(np.array(r))
        assert np.array_equal(one, u, equal_nan=V.dtype.kind == "f")
        assert future_min_local_time_np(np.array(r), "strict").tolist() == list(
            future_min_local_time(r, "strict").counts)


@pytest.mark.parametrize("law, max_length", ENUMERATED, ids=ENUMERATED_IDS)
def test_batched_rebuild_and_future_min_match_scalar_on_every_lattice_path(
        law, max_length):
    for m in range(max_length + 1):
        _assert_batched_forms_match_scalar([vals for _, vals, _ in iter_paths(law, m)])


@given(float_rows)
@settings(max_examples=300, deadline=None)
@example([[0.0]])
@example([[0.0, -1.0, -1.0, -3.0], [0.0, 0.0, -2.0, 0.0]])
@example([[0.0, 1.0, math.inf], [0.0, 0.5, 0.25]])
def test_batched_rebuild_and_future_min_match_scalar_on_float_rows(rows):
    _assert_batched_forms_match_scalar(rows)


def test_batched_rebuild_of_gaussian_rows_is_bit_identical():
    law = IncrementLaw.gaussian()
    rows = [sample_walk(law, 200, derive_seed(4242, t)).values for t in range(400)]
    _assert_batched_forms_match_scalar(rows)


def test_batched_future_min_rejects_unknown_variant():
    with pytest.raises(ParameterError):
        future_min_local_time_np(np.zeros((2, 3)), "weak")


@given(lattice_steps)
@settings(max_examples=1000, deadline=None)
def test_rebuild_is_nonnegative_and_positive_inside(steps):
    vals = path_from(steps)
    out = tanaka_transform(vals)
    T = ladder_epochs(vals)
    assert all(v >= 0 for v in out)
    assert all(out[i] > 0 for i in range(1, T[-1] + 1))


@given(lattice_steps)
@settings(max_examples=1000, deadline=None)
def test_rebuild_preserves_ladder_heights(steps):
    vals = path_from(steps)
    out = tanaka_transform(vals)
    for t in ladder_epochs(vals):
        assert out[t] == vals[t]


@given(lattice_steps)
@settings(max_examples=1000, deadline=None)
def test_rebuild_reverses_increments_on_each_ladder_interval(steps):
    vals = path_from(steps)
    out = tanaka_transform(vals)
    T = ladder_epochs(vals)
    for a, b in zip(T, T[1:]):
        incr_in = [vals[i + 1] - vals[i] for i in range(a, b)]
        incr_out = [out[i + 1] - out[i] for i in range(a, b)]
        assert incr_out == incr_in[::-1]


@given(lattice_steps)
@settings(max_examples=1000, deadline=None)
def test_rebuild_endpoint_is_reflected_about_running_max(steps):
    vals = path_from(steps)
    out = tanaka_transform(vals)
    assert out[-1] == 2 * max(vals) - vals[-1]


@given(lattice_steps)
@settings(max_examples=1000, deadline=None)
def test_strict_future_min_count_matches_strict_record_count_below_last_epoch(steps):
    # window identity: the strict future-min count of the rebuilt path equals
    # the strict record count of the source, strictly below the last epoch
    vals = path_from(steps)
    T = ladder_epochs(vals)
    if len(T) < 2:
        return
    a = local_time_strict(vals).counts
    b = future_min_local_time(tanaka_transform(vals), variant="strict").counts
    assert all(a[j] == b[j] for j in range(T[-1]))


def test_weak_record_identity_fails_on_lattice_ties():
    # steps (+1, -1, +1, +1): the source has a weak record at step 3, the
    # rebuilt path has its weak future-min tie at step 2 instead; the
    # verbatim identity therefore cannot hold pathwise on lattices (the
    # strict variant does, see above)
    vals = [0, 1, 0, 1, 2]
    a = local_time_verbatim(vals).counts
    b = future_min_local_time(tanaka_transform(vals), variant="verbatim").counts
    t_last = ladder_epochs(vals)[-1]
    assert any(a[j] != b[j] for j in range(t_last))


def test_diffuse_paths_satisfy_verbatim_identity():
    law = IncrementLaw.gaussian()
    for t in range(300):
        w = sample_walk(law, 120, derive_seed(777, t))
        vals = w.values
        T = ladder_epochs(vals)
        if len(T) < 2:
            continue
        a = local_time_verbatim(vals).counts
        b = future_min_local_time(tanaka_transform(vals), variant="verbatim").counts
        assert all(a[j] == b[j] for j in range(T[-1]))


def test_reversed_ladder_segment_law_equals_rebuilt_segment_law():
    # distributional identity certified by the oracle: the reversed walk up
    # to its k-th ladder epoch has the law of the rebuilt path up to the same
    # epoch (segments reorder under the rebuild, so paths differ but the laws
    # agree exactly)
    for law in (IncrementLaw.fair_pm1(), IncrementLaw.uniform3()):
        for m, k in ((6, 1), (6, 2), (8, 3)):
            def rev(vals, k=k):
                T = ladder_epochs(vals)
                if len(T) - 1 < k:
                    return "unrealized"
                t = T[k]
                return tuple(vals[t] - vals[t - i] for i in range(t + 1))

            def fwd(vals, k=k):
                T = ladder_epochs(vals)
                if len(T) - 1 < k:
                    return "unrealized"
                return tuple(tanaka_transform(vals)[: T[k] + 1])

            d1 = exact_functional_distribution(law, m, rev)
            d2 = exact_functional_distribution(law, m, fwd)
            assert distribution_equality(d1, d2) == 0


def test_reversal_certificate_reports_nonzero_tv_exactly(monkeypatch):
    # marks counted at the segment start instead of strictly before it break
    # the identity; the certificate must then fail and report each total
    # variation exactly, with the right denominator and every atom
    from bisect import bisect_right

    from fluctwalk import certify
    monkeypatch.setattr(certify, "bisect_left", bisect_right)
    res = certify.certify_reversal(max_length=3)
    assert res.passed is False
    tv = {(law, m, check, k): value for law, m, check, k, value in res.rows[1:]}
    fair, biased, uniform = (law.description for law in certify.DEFAULT_LAWS())
    assert tv[(fair, 3, "ladder_segment", 1)] == "5/8"
    assert tv[(fair, 3, "ladder_segment", 2)] == "1/4"
    assert tv[(fair, 3, "ladder_segment", 3)] == "1/8"
    assert tv[(fair, 3, "last_maximum", "")] == "3/4"
    assert tv[(biased, 3, "ladder_segment", 1)] == "57/64"
    assert tv[(uniform, 3, "ladder_segment", 1)] == "14/27"
