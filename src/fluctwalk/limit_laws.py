"""Closed-form limit targets in the Brownian calibration regime.

With the local time normalized so that the ladder-pair exponent satisfies
kappa(1, 0) = 1, the Brownian-limit objects have elementary closed forms:

* kappa(alpha, beta) = sqrt(alpha) + beta / sqrt(2): the local time is
  L = sqrt(2) M, so the ladder height is the drift H(l) = l / sqrt(2) and
  the inverse local time L^{-1}(l) is the first passage of the Brownian
  motion to l / sqrt(2), with E e^{-alpha L^{-1}(l) - beta H(l)} =
  e^{-l (sqrt(alpha) + beta / sqrt(2))};
* the inverse local time is the 1/2-stable subordinator with Laplace
  exponent sqrt(alpha); its time-1 marginal has CDF erfc(1 / (2 sqrt(s)));
* the ladder height process is pure drift with rate 1/sqrt(2) (its jump
  measure vanishes), and the descending renewal-function limit is
  h(x) = sqrt(2) x under the mirrored normalization;
* the ladder-time jump measure has density s^{-3/2} / (2 sqrt(pi)), so its
  tail beyond 1 integrates to 1/sqrt(pi);
* the meander endpoint at horizon 1 is Rayleigh: 1 - exp(-x^2 / 2).

Symmetric-stable limits enter the experiments only through
normalization-free ratios, so no further constants are tabulated here.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

__all__ = [
    "kappa_bm",
    "levy_half_cdf",
    "rayleigh_cdf",
    "half_stable_tau_tail",
    "h_bm",
    "BROWNIAN_DRIFT",
]

# drift coefficient of the Brownian-limit ladder height process
BROWNIAN_DRIFT = 1.0 / math.sqrt(2.0)


def kappa_bm(alpha, beta) -> float:
    """Ladder-pair exponent of the Brownian limit; kappa(1, 0) = 1."""
    if alpha < 0 or beta < 0:
        raise ParameterError("kappa is defined for nonnegative arguments")
    return math.sqrt(alpha) + BROWNIAN_DRIFT * beta


# the stdlib erfc elementwise; it returns an object array or a Python float
_erfc = np.frompyfunc(math.erfc, 1, 1)


def levy_half_cdf(s):
    """CDF of the 1/2-stable subordinator marginal, erfc(1/(2 sqrt(s))) by math.erfc."""
    arr = np.asarray(s, dtype=np.float64)
    if np.any(arr < 0):
        raise ParameterError("the subordinator marginal lives on s >= 0")
    with np.errstate(divide="ignore"):
        out = np.asarray(_erfc(1.0 / (2.0 * np.sqrt(arr))), dtype=np.float64)
    return float(out) if np.ndim(s) == 0 else out


def rayleigh_cdf(x):
    """Meander endpoint law at horizon 1: 1 - exp(-x^2/2) on x >= 0."""
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0):
        raise ParameterError("the meander endpoint law lives on x >= 0")
    out = 1.0 - np.exp(-0.5 * arr * arr)
    return float(out) if np.ndim(x) == 0 else out


def half_stable_tau_tail(c: float = 1.0) -> float:
    """Tail mass of the ladder-time jump measure beyond c: 1/sqrt(pi c)."""
    if not (c > 0):
        raise ParameterError("tail cutoff must be positive")
    return 1.0 / math.sqrt(math.pi * c)


def h_bm(x) -> float:
    """Descending renewal-function limit: h(x) = sqrt(2) x on x >= 0."""
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0):
        raise ParameterError("the renewal limit is defined on x >= 0")
    out = math.sqrt(2.0) * arr
    return float(out) if np.ndim(x) == 0 else out
