import math
import os
import subprocess
import sys

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


def test_ladder_time_cdf_matches_a_40_digit_erfc():
    # at the same float argument 1/(2 sqrt(s)), on a log grid over nine decades
    # and on the grid of `tables`; the CDF falls to about 1e-110 at s = 1e-3
    mpmath = pytest.importorskip("mpmath")
    s = np.concatenate([np.logspace(-3, 6, 2000), np.linspace(0.01, 25.0, 200)])
    F = levy_half_cdf(s)
    with mpmath.workdps(40):
        ref = [mpmath.erfc(1.0 / (2.0 * math.sqrt(v))) for v in s.tolist()]
        worst = max(abs((f - r) / r) for f, r in zip(F.tolist(), ref))
    assert worst <= 1e-15
    assert [levy_half_cdf(v) for v in s.tolist()] == F.tolist()


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


def test_importing_the_cli_leaves_scipy_special_unloaded():
    # no module of the package imports scipy.special, so a fresh interpreter
    # that only imports the command line never loads it
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, fluctwalk.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
