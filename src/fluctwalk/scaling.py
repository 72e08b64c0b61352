"""Norming constants, the Wiener-Hopf factor and the ladder-pair identity.

The scale that turns record counts into a convergent local time is

    a_n = exp( sum_{k>=1} k^{-1} e^{-k/n} P(S_k > 0) ) = 1 / (1 - E e^{-T_1/n}),

with T_1 the first strict ascent epoch (Sparre Andersen).  Strict
positivity is used exactly as written, even on lattices.
:func:`norming_constant` reads a_n in closed form on symmetric diffuse
laws, where P(S_k > 0) = 1/2, and on lattice laws from the Wiener-Hopf
roots of :func:`wiener_hopf_factor`, so no series is summed or truncated.

The module also evaluates both sides of the first-ladder-pair identity

    1 - E e^{-alpha T_1 - beta H_1}
        = exp( - sum_{k>=1} k^{-1} e^{-alpha k} E(e^{-beta S_k}; S_k > 0) )

for lattice laws in exact arithmetic up to a truncation K, reporting the
residual together with a rigorous combined tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import (HypothesisViolationError, ParameterError, UnboundedTailError,
                     UnsupportedModeError)
from .increments import IncrementLaw
from .oracle import integer_law, lattice_sweep

__all__ = [
    "norming_constant",
    "wiener_hopf_factor",
    "check_bilateral",
    "FristedtReport",
    "fristedt_residual",
]


def wiener_hopf_factor(law: IncrementLaw, s: float, z: float) -> Tuple[float, float]:
    """(value, bound): 1 - E(s^{T_1} z^{H_1}) on a lattice law, within
    relative ``bound`` of ``value``, at the floats 0 < s < 1, -1 <= z <= 1.

    T_1 is the first strict ascent epoch and H_1 = S_{T_1} in lattice units.
    For integer steps in [-d, u] the factor is prod_j (1 - z / zeta_j) over
    the u roots outside the unit circle of z^d (1 - s E z^X), which has d
    roots inside and none on it (Spitzer; Feller Vol. II, XII; Rouche); a
    law that never steps up gives 1.  The roots are taken as w = zeta - 1,
    by np.roots and two Newton steps, on Q(w) = (1 + w)^d (1 - s E (1 + w)^X)
    of degree m = u + d.  Its coefficients C(d, k) (1 - s) - s B_k / D, with
    probabilities a_j / D and the integer B_k = sum_j a_j (C(j + d, k) -
    C(d, k)), do not cancel as s -> 1, so the root near 1 keeps its relative
    accuracy (in z it would lose a factor 1 / (1 - s)).  Q'/Q = sum_i
    1 / (w - w_i), so a root of Q lies within rho = m |Q(w)| / |Q'(w)| of
    each w, with |Q| raised and |Q'| lowered by 8 (m + 1) eps times their
    sums over |q_k| |w|^k for rounding (eps = 2**-53).  The u discs must be
    disjoint and outside the circle, else a ParameterError.  Then
    bound = prod_j (1 + (rho_j + e_j) / |zeta_j - z|)
    (1 + rho_j / (|zeta_j| - rho_j)) (1 + 6 eps) - 1, with
    e_j = eps (|1 - z| + |w_j|) for rounding zeta_j - z; below 2e-12 on
    the laws of the tests for s = e^{-1/n}, n <= 2^20.
    """
    if law.kind != "lattice":
        raise UnsupportedModeError("the Wiener-Hopf factor is computed for lattice laws")
    if not (0 < s < 1 and -1 <= z <= 1):
        raise ParameterError("need 0 < s < 1 and -1 <= z <= 1")
    _, live, D = integer_law(law)
    d = max(0, -min(j for _, j, _ in live))
    u = max(0, max(j for _, j, _ in live))
    if u == 0:
        return 1.0, 0.0
    m, eps = u + d, 2.0 ** -53
    B = [sum(a * (math.comb(j + d, k) - math.comb(d, k)) for _, j, a in live)
         for k in range(m, -1, -1)]
    q = np.array([math.comb(d, m - i) * (1 - s) - s * (b / D) for i, b in enumerate(B)])
    size = np.array([math.comb(d, m - i) * (1 - s) + s * abs(b / D) for i, b in enumerate(B)])
    dq = np.polyder(q)
    w = np.roots(q).astype(complex)
    for _ in range(2):
        w = w - np.polyval(q, w) / np.polyval(dq, w)
    w = w[np.abs(1 + w) > 1]
    slack = 8 * (m + 1) * eps
    rho = m * ((np.abs(np.polyval(q, w)) + slack * np.polyval(size, np.abs(w)))
               / (np.abs(np.polyval(dq, w)) - slack * np.polyval(np.polyder(size), np.abs(w))))
    zeta = 1 + w
    apart = np.abs(w[:, None] - w[None, :]) > rho[:, None] + rho[None, :]
    np.fill_diagonal(apart, True)
    if len(w) != u or not (np.all(rho >= 0) and np.all(np.abs(zeta) - rho > 1) and apart.all()):
        raise ParameterError(f"the outer roots of 1 - s E z^X are not separated at s = {s!r}")
    grow = ((1 + (rho + eps * (abs(1 - z) + np.abs(w))) / np.abs(zeta - z))
            * (1 + rho / (np.abs(zeta) - rho)) * (1 + 6 * eps))
    return float(np.prod((1 - z + w) / zeta).real), float(np.prod(grow) - 1)


def norming_constant(law: IncrementLaw, n_grid: Sequence[int]) -> List[float]:
    """a_n = exp(sum k^{-1} e^{-k/n} P(S_k > 0)) for every n of ``n_grid``.

    Lattice laws: 1 / (1 - E s^{T_1}) at s = e^{-1/n}, within relative the
    bound of :func:`wiener_hopf_factor` plus (n + 1) 2**-53 for rounding s.
    Symmetric diffuse laws: (1 - e^{-1/n})^{-1/2}, as P(S_k > 0) = 1/2.
    Other laws raise an UnsupportedModeError.  Each a_n is computed on its
    own; the constant a_hat_n of -S is the same call on the negated law.
    """
    if not n_grid or min(n_grid) < 1:
        raise ParameterError("n must be a positive integer")
    if law.kind == "lattice":
        return [1.0 / wiener_hopf_factor(law, math.exp(-1.0 / n), 1.0)[0] for n in n_grid]
    if law.is_diffuse() and law.is_symmetric():
        return [(-math.expm1(-1.0 / n)) ** -0.5 for n in n_grid]
    raise UnsupportedModeError(f"no norming constant for law {law.description or law.kind!r}")


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
