import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctwalk.errors import InputError
from fluctwalk.stats import Sample, dkw_epsilon, ecdf_points, ks_statistic

floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def test_ks_identical_samples_zero():
    s = Sample(np.array([1.0, 2.0, 3.0]))
    assert ks_statistic(s, Sample(np.array([1.0, 2.0, 3.0]))) == 0.0


def test_ks_disjoint_supports_one():
    a = Sample(np.array([0.0, 1.0]))
    b = Sample(np.array([5.0, 6.0]))
    assert ks_statistic(a, b) == 1.0


def test_ks_against_uniform_cdf():
    # sample {0, 1} against U(0,1): sup gap is 1/2 at the lower breakpoint
    s = Sample(np.array([0.0, 1.0]))
    d = ks_statistic(s, lambda x: np.clip(x, 0, 1))
    assert d == 0.5


def test_ks_weighted_sample_uses_effective_size():
    s = Sample(np.array([0.0, 1.0, 2.0]), weights=np.array([1.0, 1.0, 2.0]))
    assert s.effective_size() == pytest.approx(16 / 6)
    d = ks_statistic(s, Sample(np.array([0.0, 1.0, 2.0])))
    assert d == pytest.approx(abs(2 / 4 - 2 / 3))


def test_dkw_epsilon_formula():
    assert dkw_epsilon(100) == pytest.approx(math.sqrt(math.log(200) / 200))


def test_empty_sample_rejected():
    with pytest.raises(InputError):
        ks_statistic(Sample(np.array([])), lambda x: x)


@given(st.lists(floats, min_size=1, max_size=60))
@settings(max_examples=1000, deadline=None)
def test_ecdf_shape(vals):
    xs, F = ecdf_points(Sample(np.array(vals)))
    assert np.all(np.diff(xs) > 0)
    assert np.all(np.diff(F) > 0)
    assert F[-1] == pytest.approx(1.0)


@given(st.lists(floats, min_size=1, max_size=40), st.lists(floats, min_size=1, max_size=40))
@settings(max_examples=1000, deadline=None)
def test_two_sample_ks_symmetric(a, b):
    sa, sb = Sample(np.array(a)), Sample(np.array(b))
    assert ks_statistic(sa, sb) == pytest.approx(ks_statistic(sb, sa))


coarse = st.integers(-5000, 5000).map(lambda k: k / 100.0)


@given(st.lists(coarse, min_size=2, max_size=40), st.lists(coarse, min_size=2, max_size=40))
@settings(max_examples=1000, deadline=None)
def test_ks_invariant_under_increasing_transform(a, b):
    # injectivity must survive float rounding, hence the coarse grid
    sa, sb = Sample(np.array(a)), Sample(np.array(b))
    f = lambda x: np.exp(x / 50.0) + 0.1 * x
    ta, tb = Sample(f(np.array(a))), Sample(f(np.array(b)))
    assert ks_statistic(sa, sb) == pytest.approx(ks_statistic(ta, tb))


def test_one_sample_ks_calibration_against_known_cdf():
    # draws from the reference law exceed the 99% envelope rarely
    rng = np.random.default_rng(8)
    breaches = 0
    for _ in range(60):
        u = rng.random(400)
        breaches += ks_statistic(Sample(u), lambda x: np.clip(x, 0, 1)) > dkw_epsilon(400)
    assert breaches <= 3
