import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fluctwalk import certify
from fluctwalk.errors import ParameterError
from fluctwalk.increments import IncrementLaw
from fluctwalk.oracle import distribution_equality, path_matrix
from fluctwalk.transforms import future_min_local_time_np, tanaka_transform_np
from reference import (exact_functional_distribution, future_min_local_time, ladder_epochs,
                       last_max_index, local_time_strict, local_time_verbatim, oracle_walk,
                       tanaka_transform)

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


def test_future_min_local_time_examples():
    assert future_min_local_time([0, 1, 3, 2]) == (0, 1, 1, 1)
    assert future_min_local_time([0, 1, 2, 3]) == (0, 1, 2, 2)
    assert future_min_local_time([0]) == (0,)


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
        assert counts.tolist() == [list(future_min_local_time(r, variant))
                                   for r in rows]
    # a 1-D path is one row
    for r, u in zip(rows, rebuilt):
        with np.errstate(invalid="ignore"):
            one = tanaka_transform_np(np.array(r))
        assert np.array_equal(one, u, equal_nan=V.dtype.kind == "f")
        assert future_min_local_time_np(np.array(r), "strict").tolist() == list(
            future_min_local_time(r, "strict"))


@pytest.mark.parametrize("law, max_length", ENUMERATED, ids=ENUMERATED_IDS)
def test_batched_rebuild_and_future_min_match_scalar_on_every_lattice_path(
        law, max_length):
    for m in range(max_length + 1):
        _assert_batched_forms_match_scalar(list(map(tuple, path_matrix(law, m)[0].tolist())))


@given(float_rows)
@settings(max_examples=300, deadline=None)
@example([[0.0]])
@example([[0.0, -1.0, -1.0, -3.0], [0.0, 0.0, -2.0, 0.0]])
@example([[0.0, 1.0, math.inf], [0.0, 0.5, 0.25]])
def test_batched_rebuild_and_future_min_match_scalar_on_float_rows(rows):
    _assert_batched_forms_match_scalar(rows)


def test_batched_rebuild_of_gaussian_rows_is_bit_identical():
    law = IncrementLaw.gaussian()
    rows = [oracle_walk(law, 200, 4242, t) for t in range(400)]
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
    a = local_time_strict(vals)
    b = future_min_local_time(tanaka_transform(vals), variant="strict")
    assert all(a[j] == b[j] for j in range(T[-1]))


def test_weak_record_identity_fails_on_lattice_ties():
    # steps (+1, -1, +1, +1): the source has a weak record at step 3, the
    # rebuilt path has its weak future-min tie at step 2 instead; the
    # verbatim identity therefore cannot hold pathwise on lattices (the
    # strict variant does, see above)
    vals = [0, 1, 0, 1, 2]
    a = local_time_verbatim(vals)
    b = future_min_local_time(tanaka_transform(vals), variant="verbatim")
    t_last = ladder_epochs(vals)[-1]
    assert any(a[j] != b[j] for j in range(t_last))


def test_diffuse_paths_satisfy_verbatim_identity():
    law = IncrementLaw.gaussian()
    for t in range(300):
        vals = oracle_walk(law, 120, 777, t)
        T = ladder_epochs(vals)
        if len(T) < 2:
            continue
        a = local_time_verbatim(vals)
        b = future_min_local_time(tanaka_transform(vals), variant="verbatim")
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
    # marks counted at the segment start (1 + lam_i) instead of strictly
    # before it break the identity; the certificate must then fail and report
    # each total variation exactly, with the right denominator and every atom
    monkeypatch.setattr(certify, "_segment_marks", lambda lam: 1 + lam)
    res = certify.certify_reversal(max_length=3)
    assert res.passed is False
    tv = {(law, m, check, k): value for law, m, check, k, value in res.rows[1:]}
    fair, biased, uniform = (law.description for law in certify.DEFAULT_LAWS())
    assert tv[(fair, 3, "ladder_segment", 1)] == "5/8"
    assert tv[(fair, 3, "ladder_segment", 2)] == "1/4"
    assert tv[(fair, 3, "ladder_segment", 3)] == "1/8"
    # the windows whose only maximum is S_0 count here: without them it is 1/2
    assert tv[(fair, 3, "last_maximum", "")] == "3/4"
    assert tv[(biased, 3, "ladder_segment", 1)] == "57/64"
    assert tv[(uniform, 3, "ladder_segment", 1)] == "14/27"


def reversal_differences_per_path(law, m, segment_starts=bisect_left):
    """Per-path reference for ``certify._reversal_differences``.

    The same nonzero signed differences, one dict per entry (entry 0 the
    last maximum), built path by path from the scalar functionals.
    ``segment_starts(T, i)`` counts the marks at index i from the ladder
    epochs T: ``bisect_left`` counts starts strictly before i.
    """
    diffs = [{} for _ in range(m + 1)]

    def add(k, rev_key, fwd_key, c):
        d = diffs[k]
        for key, p in ((rev_key, c), (fwd_key, -c)):
            v = d.pop(key, 0) + p
            if v:
                d[key] = v

    P, W = path_matrix(law, m)
    for vals, c in zip(map(tuple, P.tolist()), W.tolist()):
        T = ladder_epochs(vals)
        lam = local_time_strict(vals)
        up = tanaka_transform(vals)
        marks = [segment_starts(T, i) for i in range(T[-1] + 1)]
        keys = [((tuple(vals[t] - vals[t - i] for i in range(t + 1)),
                  tuple(lam[t] - lam[t - i] for i in range(t + 1))),
                 (tuple(up[: t + 1]), tuple(marks[: t + 1]))) for t in T]
        for k in range(1, len(T)):
            add(k, *keys[k], c)
        if last_max_index(vals) == T[-1]:
            add(0, *keys[-1], c)
    return diffs


SKIP_UP = IncrementLaw.lattice([-1, 2], [Fraction(2, 3), Fraction(1, 3)])
FIVE_ATOM = IncrementLaw.lattice([-2, -1, 0, 1, 2], [Fraction(1, 10), Fraction(1, 5),
                                                     Fraction(2, 5), Fraction(1, 5),
                                                     Fraction(1, 10)])
REVERSAL_LAWS = [(law, 7) for law in certify.DEFAULT_LAWS()] + [(SKIP_UP, 5), (FIVE_ATOM, 5)]
REVERSAL_IDS = ["fair_pm1", "biased_pm1", "uniform3", "skip-up", "five-atom"]


@pytest.mark.parametrize("law,max_length", REVERSAL_LAWS, ids=REVERSAL_IDS)
@pytest.mark.parametrize("rule", ["strictly_before", "at_start"])
def test_reversal_differences_equal_the_per_path_reference(monkeypatch, law, max_length,
                                                           rule):
    # atom by atom, so also the total |difference| of every entry; under the
    # correct mark rule every entry is empty (the identity holds), under the
    # rule "at the segment start" the atoms are many and must still agree
    if rule == "at_start":
        monkeypatch.setattr(certify, "_segment_marks", lambda lam: 1 + lam)
    starts = bisect_left if rule == "strictly_before" else bisect_right
    nonzero = 0
    for m in range(1, max_length + 1):
        reference = reversal_differences_per_path(law, m, starts)
        assert certify._reversal_differences(law, m) == reference
        nonzero += sum(map(len, reference))
    assert (nonzero > 0) == (rule == "at_start")


@pytest.mark.parametrize("law,m", ENUMERATED, ids=ENUMERATED_IDS)
def test_last_max_rule_matches_last_max_index_row_by_row(law, m):
    for n in range(m + 1):
        paths = list(map(tuple, path_matrix(law, n)[0].tolist()))
        t_last, rule = certify._last_max_ladder(np.array(paths))
        epochs = [ladder_epochs(vals)[-1] for vals in paths]
        assert t_last.tolist() == epochs
        assert rule.tolist() == [last_max_index(vals) == t for vals, t in zip(paths, epochs)]


def test_reversal_differences_refuse_weights_that_overflow_int64():
    # D = 2**31: the signed sums are int64, so 2 D**m must stay below 2**63
    law = IncrementLaw.lattice([-1, 1], [Fraction(1, 2 ** 31), 1 - Fraction(1, 2 ** 31)])
    assert certify._reversal_differences(law, 1) == [{}, {}]
    with pytest.raises(ParameterError, match="int64"):
        certify._reversal_differences(law, 2)
