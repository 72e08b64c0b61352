"""Norming constants, positivity probabilities and the ladder-pair identity.

The scale that turns record counts into a convergent local time is

    a_n = exp( sum_{k>=1} k^{-1} e^{-k/n} P(S_k > 0) ),

an infinite sum truncated here at a K chosen from the analytic tail bound
sum_{k>K} k^{-1} e^{-k/n} <= (n/K) e^{-K/n}, never at a fixed constant.
Strict positivity P(S_k > 0) is used exactly as written; the weak version is
not substituted even on lattices.

The module also evaluates both sides of the first-ladder-pair identity

    1 - E e^{-alpha T_1 - beta H_1}
        = exp( - sum_{k>=1} k^{-1} e^{-alpha k} E(e^{-beta S_k}; S_k > 0) )

for lattice laws in exact arithmetic up to a truncation K, reporting the
residual together with a rigorous combined tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Union

import numpy as np

from .errors import (HypothesisViolationError, InsufficientDataError, ParameterError,
                     UnboundedTailError, UnsupportedModeError)
from .increments import IncrementLaw, derive_seed, iter_rows
from .oracle import lattice_sweep

__all__ = [
    "PositivitySequence",
    "norming_constant",
    "required_truncation",
    "positivity_probabilities",
    "positivity_rule",
    "check_bilateral",
    "FristedtReport",
    "fristedt_residual",
]


@dataclass
class PositivitySequence:
    """Map k -> P(S_k > 0) for k = 1..K, exact or estimated.

    Exact entries are Fractions from the integer level sweep;
    estimated entries are floats with per-entry standard errors.
    """

    probabilities: Dict[int, Union[Fraction, float]]
    standard_errors: Optional[Dict[int, float]] = None

    def __post_init__(self):
        for k, p in self.probabilities.items():
            if not (0 <= p <= 1):
                raise ParameterError(f"P(S_{k}>0) = {p} outside [0, 1]")

    @property
    def max_index(self) -> int:
        return max(self.probabilities) if self.probabilities else 0


def required_truncation(n: int, rel_tol: float) -> int:
    """Smallest K with (n/K) e^{-K/n} <= rel_tol (tail bound of the a_n sum)."""
    if not (rel_tol > 0):
        raise ParameterError("rel_tol must be positive")
    K = max(1, int(n))
    while (n / K) * math.exp(-K / n) > rel_tol:
        K *= 2
    lo, hi = K // 2, K
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if (n / mid) * math.exp(-mid / n) <= rel_tol:
            hi = mid
        else:
            lo = mid
    return hi


def norming_constant(probs, n: int, rel_tol: float = 1e-9) -> float:
    """a_n = exp(sum k^{-1} e^{-k/n} P(S_k > 0)), truncated by the tail bound.

    ``probs`` is a PositivitySequence or a :func:`positivity_rule` (a map
    from the int64 array of k to the array of P(S_k > 0)).  The companion
    constant for -S is the same call with P(S_k < 0).
    """
    if n < 1:
        raise ParameterError("n must be a positive integer")
    K = required_truncation(n, rel_tol)
    ks = np.arange(1, K + 1, dtype=np.float64)
    if isinstance(probs, PositivitySequence):
        if probs.max_index < K:
            raise InsufficientDataError(
                f"positivity sequence reaches k={probs.max_index}, "
                f"truncation needs K={K} at rel_tol={rel_tol}")
        p = np.array([float(probs.probabilities[k]) for k in range(1, K + 1)])
    else:
        p = np.asarray(probs(np.arange(1, K + 1)), dtype=np.float64)
    if np.any((p < 0) | (p > 1)):
        raise ParameterError("positivity probabilities must lie in [0, 1]")
    return float(math.exp(np.sum(np.exp(-ks / n) / ks * p)))


def positivity_rule(law: IncrementLaw):
    """Closed-form rule k -> P(S_k > 0) on int64 arrays of k, or None.

    Symmetric diffuse laws give 1/2 identically.  The simple symmetric walk
    gives 1/2 at odd k and (1 - C(k, k/2) 2^{-k})/2 at even k.  Both laws
    are symmetric, so the rule is also k -> P(S_k < 0).  Returns None for
    every other law.
    """
    if law.is_diffuse() and law.is_symmetric():
        return lambda ks: np.full(ks.shape, 0.5)
    if not law.is_simple_symmetric():
        return None

    def rule(ks):
        out = np.full(ks.shape, 0.5)
        ev = ks % 2 == 0
        ke = ks[ev].astype(np.float64)
        # log C(k, k/2) 2^-k via lgamma
        lg = (np.vectorize(math.lgamma)(ke + 1)
              - 2 * np.vectorize(math.lgamma)(ke / 2 + 1) - ke * math.log(2))
        out[ev] = 0.5 - 0.5 * np.exp(lg)
        return out
    return rule


def check_bilateral(law: IncrementLaw) -> None:
    """Reject walks that cannot both rise and fall."""
    if not (law.has_positive_steps() and law.has_negative_steps()):
        raise HypothesisViolationError(
            f"law {law.description or law.kind!r} is monotone; the scaling "
            "limits under test require movement in both directions")


def positivity_probabilities(law: IncrementLaw, K: int, mode: str = "exact",
                             budget: int = 100_000, seed: int = 0) -> PositivitySequence:
    """P(S_k > 0) for k = 1..K, exact (lattice) or Monte Carlo with errors."""
    if K < 1:
        raise ParameterError("K must be >= 1")
    if mode == "exact":
        if law.kind != "lattice":
            raise UnsupportedModeError("exact positivity requires a lattice law")
        probs = {k: Fraction(int(above.sum()), Dk)
                 for k, Dk, _, above, _ in _split_at_zero(law, K, keep=0)}
        return PositivitySequence(probabilities=probs)
    if mode != "montecarlo":
        raise ParameterError(f"unknown mode {mode!r}")
    rng_seed = derive_seed(seed, 0)
    trials = max(100, budget // max(K, 1))
    counts = np.zeros(K, dtype=np.int64)
    for S in iter_rows(law, K, rng_seed, trials):
        counts += (S[:, 1:] > 0).sum(axis=0)
    p = counts / trials
    se = np.sqrt(np.maximum(p * (1 - p), 1e-12) / trials)
    return PositivitySequence(
        probabilities={k + 1: float(p[k]) for k in range(K)},
        standard_errors={k + 1: float(se[k]) for k in range(K)},
    )


@dataclass(frozen=True)
class FristedtReport:
    """Both sides of the first-ladder-pair identity with tail bounds."""

    alpha: float
    beta: float
    lhs: float
    rhs: float
    residual: float
    tail_bound: float
    truncation: int


def _split_at_zero(law: IncrementLaw, K: int, keep: int):
    """:func:`~fluctwalk.oracle.lattice_sweep` steps split at level 0.

    Yields (t, D**t, x0, above, below): ``above`` holds the integer weights
    of the levels > 0, the first at level x0, and ``below`` those of the
    levels <= 0; each weight is over D**t.
    """
    for t, lo, w, D in lattice_sweep(law, K, keep=keep):
        cut = max(0, 1 - lo)
        yield t, D ** t, lo + cut, w[cut:], w[:cut]


# decimal digits of the mpmath evaluation in fristedt_residual
_DPS = 80


def fristedt_residual(law: IncrementLaw, alpha: float, beta: float,
                      K: int = 60) -> FristedtReport:
    """Residual between the two sides of the ladder-pair identity.

    Requires alpha > 0 so that both truncation tails decay geometrically.
    The left side truncates the (T_1, H_1) expectation at T_1 <= K with tail
    at most e^{-alpha K}; the right side truncates the exponent sum at K with
    its computable geometric tail.  The reported bound is the sum of both.

    The truncation tails sit far below double precision already for moderate
    alpha * K, so both sides are evaluated in 80-digit arithmetic on
    top of the exact integer sweeps of the first ascents (T_1, H_1) and of
    the walk's step laws: at each t the integer weights times
    e^{-beta x} are summed and divided once by D^t.  The residual is then a
    genuine truncation gap, not rounding noise.
    """
    if not (alpha > 0):
        raise UnboundedTailError("alpha must be strictly positive to bound the tails")
    if beta < 0:
        raise ParameterError("beta must be nonnegative")
    if law.kind != "lattice":
        raise UnsupportedModeError("exact ladder-pair table requires a lattice law")
    # imported here: mpmath adds start-up time that only this function needs
    from mpmath import mp, mpf, exp as mexp

    unit = law.lattice_integer_form()[0]
    with mp.workdps(_DPS):
        u = mpf(unit.numerator) / mpf(unit.denominator)
        al = mpf(repr(float(alpha)))
        be = mpf(repr(float(beta)))
        ea = mexp(-al)

        # cache e^{-beta x u} over the lattice positions that occur
        exp_h: Dict[int, object] = {}

        def weighted(x0: int, above) -> object:
            """sum_j above[j] e^{-beta (x0 + j) u}, still over D^t."""
            total = mpf(0)
            for j, c in enumerate(above):
                if c:
                    x = x0 + j
                    if x not in exp_h:
                        exp_h[x] = mexp(-be * x * u)
                    total += c * exp_h[x]
            return total

        # first ascents at t (walks at or below 0 before t)
        lhs = 1 - sum((ea ** t) * weighted(x0, above) / Dt
                      for t, Dt, x0, above, _ in _split_at_zero(law, K, keep=-1))
        lhs_tail = ea ** K

        # E(e^{-beta S_k}; S_k > 0) at each k
        s = sum((ea ** k) / k * (weighted(x0, above) / Dk)
                for k, Dk, x0, above, _ in _split_at_zero(law, K, keep=0))
        rhs = mexp(-s)
        # sum_{k>K} e^{-alpha k}/k <= e^{-alpha(K+1)} / ((K+1)(1 - e^{-alpha}))
        rhs_tail = (ea ** (K + 1)) / ((K + 1) * (1 - ea))
        residual = abs(lhs - rhs)
        bound = lhs_tail + rhs_tail

    return FristedtReport(
        alpha=float(alpha), beta=float(beta), lhs=float(lhs), rhs=float(rhs),
        residual=float(residual), tail_bound=float(bound), truncation=K,
    )
