import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from fluctwalk.errors import ParameterError
from fluctwalk.limit_laws import (BROWNIAN_DRIFT, h_bm, half_stable_tau_tail, kappa_bm,
                                  levy_half_cdf, rayleigh_cdf)


def test_kappa_normalization():
    assert kappa_bm(1.0, 0.0) == 1.0


def test_kappa_marginal_exponents_on_grid():
    for a in (0.25, 0.5, 1.0, 2.0, 4.0):
        assert kappa_bm(a, 0.0) == pytest.approx(math.sqrt(a))
    for b in (0.25, 0.5, 1.0, 2.0, 4.0):
        assert kappa_bm(0.0, b) == pytest.approx(b / math.sqrt(2))
    assert BROWNIAN_DRIFT == pytest.approx(1 / math.sqrt(2))


def test_kappa_joint_form():
    # L = sqrt(2) M: H(l) = l / sqrt(2) and L^{-1}(l) is the first passage to
    # l / sqrt(2), so the exponent is additive in alpha and beta
    assert kappa_bm(1.0, 1.0) == pytest.approx(1 + 1 / math.sqrt(2))
    for a in (0.0, 0.25, 1.0, 4.0):
        for b in (0.0, 0.5, 1.0, 3.0):
            assert kappa_bm(a, b) == pytest.approx(kappa_bm(a, 0.0) + kappa_bm(0.0, b))


def test_ladder_time_cdf_values_and_shape():
    assert levy_half_cdf(1.0) == pytest.approx(erfc(0.5))
    assert abs(levy_half_cdf(1.0) - 0.4795) < 1e-4
    s = np.linspace(0.0, 400.0, 2000)
    F = levy_half_cdf(s)
    assert F[0] == 0.0
    assert np.all(np.diff(F) >= 0)
    assert levy_half_cdf(1e8) > 1 - 1e-3


def test_ladder_time_cdf_laplace_transform():
    # the density integrates against e^{-alpha s} to e^{-sqrt(alpha)}
    dens = lambda s: s ** -1.5 * math.exp(-1.0 / (4 * s)) / (2 * math.sqrt(math.pi))
    for alpha in (0.5, 1.0, 2.0):
        val, err = quad(lambda s: math.exp(-alpha * s) * dens(s), 0, np.inf)
        assert abs(val - math.exp(-math.sqrt(alpha))) < 1e-6


def test_rayleigh_cdf_values():
    assert rayleigh_cdf(math.sqrt(2 * math.log(2))) == pytest.approx(0.5)
    dens = lambda x: x * math.exp(-x * x / 2)
    val, err = quad(dens, 0, np.inf)
    assert abs(val - 1.0) < 1e-9


def test_tau_tail_constant():
    assert half_stable_tau_tail() == pytest.approx(1 / math.sqrt(math.pi))
    # integral of the jump density s^{-3/2}/(2 sqrt(pi)) beyond c
    for c in (0.5, 1.0, 2.0):
        val, _ = quad(lambda s: s ** -1.5 / (2 * math.sqrt(math.pi)), c, np.inf)
        assert half_stable_tau_tail(c) == pytest.approx(val)


def test_renewal_limit_is_linear():
    assert h_bm(0.0) == 0.0
    assert h_bm(3.0) == pytest.approx(3 * math.sqrt(2))


def test_reference_dispatch_and_domains():
    with pytest.raises(ParameterError):
        rayleigh_cdf(-1.0)
    with pytest.raises(ParameterError):
        levy_half_cdf(-2.0)
    with pytest.raises(ParameterError):
        kappa_bm(-1.0, 0.0)
