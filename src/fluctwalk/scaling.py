"""Norming constants, positivity probabilities and the ladder-pair identity.

The scale that turns record counts into a convergent local time is

    a_n = exp( sum_{k>=1} k^{-1} e^{-k/n} P(S_k > 0) ),

an infinite sum truncated here at a K chosen from the analytic tail bound
sum_{k>K} k^{-1} e^{-k/n} <= (n/K) e^{-K/n}, never at a fixed constant.
Strict positivity P(S_k > 0) is used exactly as written; the weak version is
not substituted even on lattices.  :func:`positivity_rule` is the one source
of P(S_k > 0): a closed form for the simple symmetric walk and symmetric
diffuse laws, the float level sweep with its stated error bound for every
other lattice law.

The module also evaluates both sides of the first-ladder-pair identity

    1 - E e^{-alpha T_1 - beta H_1}
        = exp( - sum_{k>=1} k^{-1} e^{-alpha k} E(e^{-beta S_k}; S_k > 0) )

for lattice laws in exact arithmetic up to a truncation K, reporting the
residual together with a rigorous combined tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import (HypothesisViolationError, ParameterError, UnboundedTailError,
                     UnsupportedModeError)
from .increments import IncrementLaw
from .oracle import lattice_sweep

__all__ = [
    "norming_constant",
    "required_truncation",
    "positivity_rule",
    "check_bilateral",
    "FristedtReport",
    "fristedt_residual",
]


# relative tail bound of every a_n sum
_REL_TOL = 1e-9


def required_truncation(n: int) -> int:
    """Smallest K with (n/K) e^{-K/n} <= 1e-9 (tail bound of the a_n sum)."""
    K = max(1, int(n))
    while (n / K) * math.exp(-K / n) > _REL_TOL:
        K *= 2
    lo, hi = K // 2, K
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if (n / mid) * math.exp(-mid / n) <= _REL_TOL:
            hi = mid
        else:
            lo = mid
    return hi


def norming_constant(rule, n_grid: Sequence[int]) -> List[float]:
    """a_n = exp(sum k^{-1} e^{-k/n} P(S_k > 0)) for every n of ``n_grid``.

    ``rule`` is a :func:`positivity_rule` (a map from the int64 array of k
    to the array of P(S_k > 0)), called once out to the largest truncation;
    each a_n sums its own prefix, truncated by the tail bound, so it is the
    same number bit for bit whatever else the grid holds.  The companion
    constant for -S is the same call with P(S_k < 0).
    """
    if not n_grid or min(n_grid) < 1:
        raise ParameterError("n must be a positive integer")
    truncations = [required_truncation(n) for n in n_grid]
    p = np.asarray(rule(np.arange(1, max(truncations) + 1)), dtype=np.float64)
    if np.any((p < 0) | (p > 1)):
        raise ParameterError("positivity probabilities must lie in [0, 1]")
    out = []
    for n, K in zip(n_grid, truncations):
        ks = np.arange(1, K + 1, dtype=np.float64)
        out.append(float(math.exp(np.sum(np.exp(-ks / n) / ks * p[:K]))))
    return out


def positivity_rule(law: IncrementLaw):
    """Rule k -> P(S_k > 0) on int64 arrays of k; None off the lattice.

    Symmetric diffuse laws give 1/2 identically.  The simple symmetric walk
    gives 1/2 at odd k and (1 - C(k, k/2) 2^{-k})/2 at even k.  Both laws
    are symmetric, so their rule is also k -> P(S_k < 0).  Every other
    lattice law reads the levels above 0 of one float level sweep
    (:func:`~fluctwalk.oracle.lattice_sweep` with ``exact=False``) out to
    the largest k asked for.  With r atoms, each such P(S_k > 0) is within
    relative (r + 1) k u + (L - 1) u of the exact value (u = 2**-53, L the
    number of levels above 0 summed), plus at most L 2**-1074 from
    underflow; a value that rounding lifts past 1 reads 1.  The sweep costs
    K steps of r vector updates over up to K * span + 1 levels, about
    r * span * K**2 / 2 operations for K = max k and span the largest step
    minus the smallest.  Laws off the lattice without a closed form give
    None.
    """
    if law.is_diffuse() and law.is_symmetric():
        return lambda ks: np.full(ks.shape, 0.5)
    if law.kind != "lattice":
        return None
    if not law.is_simple_symmetric():
        def swept(ks):
            p = np.empty(int(ks.max()))
            for k, lo, w, _ in lattice_sweep(law, len(p), exact=False):
                p[k - 1] = w[max(0, 1 - lo):].sum()
            return np.minimum(p, 1.0)[ks - 1]
        return swept

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


def fristedt_residual(law: IncrementLaw, alpha, beta, K: int = 60) -> List[FristedtReport]:
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

    ``alpha`` and ``beta`` are numbers or sequences of numbers; the reports
    of the (alpha, beta) grid come as a list, alpha outer and beta inner
    (one report for two numbers).  The two sweeps run once per call
    and the weighted sums once per beta; each alpha then only weighs them by
    e^{-alpha t}, in the same operation order as a one-point call, so a grid
    report equals the one-point report bit for bit.
    """
    alphas = [float(a) for a in np.atleast_1d(alpha)]
    betas = [float(b) for b in np.atleast_1d(beta)]
    if not all(a > 0 for a in alphas):
        raise UnboundedTailError("alpha must be strictly positive to bound the tails")
    if any(b < 0 for b in betas):
        raise ParameterError("beta must be nonnegative")
    if law.kind != "lattice":
        raise UnsupportedModeError("exact ladder-pair table requires a lattice law")
    # imported here: mpmath adds start-up time that only this function needs
    from mpmath import mp, mpf, exp as mexp

    # first ascents at t (walks at or below 0 before t), and the step laws
    ascents = [(t, Dt, x0, above) for t, Dt, x0, above, _ in _split_at_zero(law, K, keep=-1)]
    walks = [(k, Dk, x0, above) for k, Dk, x0, above, _ in _split_at_zero(law, K, keep=0)]
    unit = law.lattice_integer_form()[0]
    reports = []
    with mp.workdps(_DPS):
        u = mpf(unit.numerator) / mpf(unit.denominator)

        def weighted(be, exp_h, x0: int, above) -> object:
            """sum_j above[j] e^{-beta (x0 + j) u}, still over D^t; ``exp_h``
            caches e^{-beta x u} over the lattice positions that occur."""
            total = mpf(0)
            for j, c in enumerate(above):
                if c:
                    x = x0 + j
                    if x not in exp_h:
                        exp_h[x] = mexp(-be * x * u)
                    total += c * exp_h[x]
            return total

        # per beta: E(e^{-beta H_1}; T_1 = t) still over D^t, and
        # E(e^{-beta S_k}; S_k > 0)
        sums = []
        for b in betas:
            be, exp_h = mpf(repr(b)), {}
            sums.append(([weighted(be, exp_h, x0, above) for _, _, x0, above in ascents],
                         [weighted(be, exp_h, x0, above) / Dk for _, Dk, x0, above in walks]))

        for a in alphas:
            ea = mexp(-mpf(repr(a)))
            powers = [ea ** t for t in range(K + 2)]
            # lhs tail e^{-alpha K}, and the rhs tail
            # sum_{k>K} e^{-alpha k}/k <= e^{-alpha(K+1)} / ((K+1)(1 - e^{-alpha}))
            bound = powers[K] + powers[K + 1] / ((K + 1) * (1 - ea))
            for b, (first, positive) in zip(betas, sums):
                lhs = 1 - sum(powers[t] * W / Dt for (t, Dt, _, _), W in zip(ascents, first))
                s = sum(powers[k] / k * W for (k, _, _, _), W in zip(walks, positive))
                rhs = mexp(-s)
                reports.append(FristedtReport(
                    alpha=a, beta=b, lhs=float(lhs), rhs=float(rhs),
                    residual=float(abs(lhs - rhs)), tail_bound=float(bound),
                    truncation=K))
    return reports
