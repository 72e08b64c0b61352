"""Single-path references that the library's batched forms are tested against.

Each function here is the plain, one-path-at-a-time form of a functional
that the package computes on whole arrays of paths: the local times at the
running maximum and at the future minimum, the last contact with the
maximum, the strict ladder epochs and the excursion rebuild, the exact
pushforward of the path law under a Python callable run on every path, the
exact meander endpoint law by forward recursion, and the per-row walk
sampler as written before batching (a fresh PCG64 per trial seed).  No
command calls them; tests compare the batched forms against them row by
row.  ``lattice_laws`` draws small lattice laws for property tests.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from typing import Dict, Hashable

import numpy as np
from hypothesis import strategies as st

from fluctwalk.errors import ParameterError, UnsupportedModeError
from fluctwalk.increments import IncrementLaw
from fluctwalk.oracle import ExactDistribution, integer_law, lattice_sweep, path_matrix
from fluctwalk.scaling import FristedtReport, _split_at_zero


# ---------------------------------------------------------------------------
# local times at the running maximum and the last maximum


def local_time_verbatim(vals) -> tuple:
    """Count up-steps landing on the running maximum (weak records)."""
    counts = [0]
    mx = vals[0]
    c = 0
    prev = vals[0]
    for v in vals[1:]:
        if v > mx:
            mx = v
        if prev < v and v == mx:
            c += 1
        counts.append(c)
        prev = v
    return tuple(counts)


def local_time_strict(vals) -> tuple:
    """Count strict running-max records; inverse of the ladder epochs."""
    counts = [0]
    mx = vals[0]
    c = 0
    for v in vals[1:]:
        if v > mx:
            c += 1
            mx = v
        counts.append(c)
    return tuple(counts)


def last_max_index(vals) -> int:
    """Last index at which the path touches its running maximum."""
    mx = vals[0]
    last = 0
    for j in range(1, len(vals)):
        if vals[j] > mx:
            mx = vals[j]
        if vals[j] == mx:
            last = j
    return last


# ---------------------------------------------------------------------------
# ladder epochs and the excursion rebuild


def ladder_epochs(vals) -> list:
    """Strict ascending ladder epochs [0, T_1, ..., T_K] within the window."""
    epochs = [0]
    mx = vals[0]
    for j in range(1, len(vals)):
        if vals[j] > mx:
            epochs.append(j)
            mx = vals[j]
    return epochs


def tanaka_transform(vals) -> tuple:
    """Rebuild the path from reversed reflected excursions above the ladder.

    Same length as the input.  On complete ladder intervals the interval
    formula holds exactly; past the last observed ladder epoch the output is
    H_last + (M - S).  Output values are >= 0 everywhere and strictly
    positive at indices 1..T_last.
    """
    m = len(vals) - 1
    T = ladder_epochs(vals)
    out = [vals[0]] * (m + 1)
    for k in range(len(T) - 1):
        a, b = T[k], T[k + 1]
        ha = vals[a]
        hb = vals[b]
        for i in range(a, b + 1):
            out[i] = ha + (hb - vals[b - (i - a)])
    a = T[-1]
    h_last = vals[a]
    for i in range(a, m + 1):
        # running max past the last epoch stays at h_last
        out[i] = h_last + (h_last - vals[i])
    return tuple(out)


# ---------------------------------------------------------------------------
# local time at the future minimum


def future_min_local_time(vals, variant: str = "verbatim") -> tuple:
    """Count times the path sits at its future minimum and then steps up.

    Future minima are taken over the finite window; the final index has no
    successor and is never counted.  The verbatim variant uses the weak
    condition S_j = min_{i >= j} S_i; the strict variant requires S_j to be
    strictly below everything after it.  As with the local time at the
    maximum, the two agree on diffuse paths and differ on lattice ties, and
    only the strict count matches the strict ladder structure exactly.
    """
    m = len(vals) - 1
    counts = [0]
    c = 0
    # suffix minima over the window
    suf = list(vals)
    for i in range(m - 1, -1, -1):
        if suf[i + 1] < suf[i]:
            suf[i] = suf[i + 1]
    for j in range(1, m + 1):
        if j < m and vals[j] < vals[j + 1]:
            if variant == "verbatim":
                ok = vals[j] == suf[j]
            elif variant == "strict":
                ok = vals[j] < suf[j + 1]
            else:
                raise ParameterError(f"unknown local time variant {variant!r}")
            if ok:
                c += 1
        counts.append(c)
    return tuple(counts)


# ---------------------------------------------------------------------------
# exact pushforward, one path at a time


def exact_functional_distribution(law: IncrementLaw, length: int,
                                  functional) -> ExactDistribution:
    """Exact pushforward of the law of the length-step path under ``functional``.

    The functional receives each row of :func:`path_matrix` as a tuple of
    Python ints and must return a hashable result.  The rows' integer
    weights are summed per result and divided once by D**length.
    """
    P, c = path_matrix(law, length)
    out: Dict[Hashable, int] = {}
    for vals, w in zip(map(tuple, P.tolist()), c.tolist()):
        y = functional(vals)
        out[y] = out.get(y, 0) + w
    Dm = integer_law(law)[2] ** length
    result = ExactDistribution({y: Fraction(w, Dm) for y, w in out.items()})
    result.validate()
    return result


# ---------------------------------------------------------------------------
# exact meander endpoint law


def meander_endpoint_distribution(law: IncrementLaw, k: int) -> ExactDistribution:
    """Exact endpoint law of the k-step meander, on the integer lattice.

    Forward recursion over nonnegative levels conditioned on survival;
    the independent route to the same law is rejection over the enumeration
    oracle, which tests compare against.
    """
    if law.kind != "lattice":
        raise UnsupportedModeError("exact meander endpoints require a lattice law")
    if k < 1:
        raise ParameterError("k must be >= 1")
    for _, lo, w, _ in lattice_sweep(law, k, keep=+1):
        pass  # only the last step's levels are needed
    start = max(0, -lo)
    total = int(w[start:].sum())
    dist = ExactDistribution({lo + j: Fraction(w[j], total)
                              for j in range(start, len(w)) if w[j]})
    dist.validate()
    return dist


# ---------------------------------------------------------------------------
# the ladder-pair identity, one exponential per level


def fristedt_per_level_exp(law: IncrementLaw, alphas, betas, K: int) -> list:
    """The reports of :func:`fluctwalk.scaling.fristedt_residual` on the grid
    ``alphas`` x ``betas`` (lists of floats), at the same precision, with
    e^{-beta x u} taken as one ``Decimal.exp`` per level x that occurs and
    each weighted sum accumulated term by term, skipping zero weights."""
    ascents = [(t, Dt, x0, above) for t, Dt, x0, above, _ in _split_at_zero(law, K, keep=-1)]
    walks = [(k, Dk, x0, above) for k, Dk, x0, above, _ in _split_at_zero(law, K, keep=0)]
    unit = law.lattice_integer_form()[0]
    digits = max(80, math.ceil(max(alphas) * K / math.log(10)) + 20)
    reports = []
    with localcontext(Context(prec=digits)):
        u = Decimal(unit.numerator) / unit.denominator

        def weighted(be, exp_h, x0, above):
            total = Decimal(0)
            for j, c in enumerate(above):
                if c:
                    x = x0 + j
                    if x not in exp_h:
                        exp_h[x] = (-be * x * u).exp()
                    total += c * exp_h[x]
            return total

        sums = []
        for b in betas:
            be, exp_h = Decimal(repr(b)), {}
            sums.append(([weighted(be, exp_h, x0, above) for _, _, x0, above in ascents],
                         [weighted(be, exp_h, x0, above) / Dk for _, Dk, x0, above in walks]))
        for a in alphas:
            ea = (-Decimal(repr(a))).exp()
            powers = [ea ** t for t in range(K + 2)]
            bound = powers[K] + powers[K + 1] / ((K + 1) * (1 - ea))
            for b, (first, positive) in zip(betas, sums):
                lhs = 1 - sum(powers[t] * W / Dt for (t, Dt, _, _), W in zip(ascents, first))
                s = sum(powers[k] / k * W for (k, _, _, _), W in zip(walks, positive))
                rhs = (-s).exp()
                reports.append(FristedtReport(
                    alpha=a, beta=b, lhs=float(lhs), rhs=float(rhs),
                    residual=float(abs(lhs - rhs)), tail_bound=float(bound),
                    truncation=K))
    return reports


# ---------------------------------------------------------------------------
# the per-row walk sampler: numpy's own seeding of each row's stream


def oracle_steps(law, length, master, trial=0):
    """Per-row sampler as written before batching: numpy's generator of row
    ``trial`` of ``master``, seeded by tag position 0 ("rows") and jumped."""
    bit_gen = np.random.PCG64DXSM(np.random.SeedSequence((master, 0))).jumped(trial)
    rng = np.random.Generator(bit_gen)
    if law.kind == "lattice":
        cum = np.cumsum([float(p) for p in law.probs])
        cum[-1] = 1.0
        idx = np.searchsorted(cum, rng.random(length), side="right")
        return np.array([float(s) for s in law.support])[idx]
    if law.kind == "gaussian":
        return law.mean + law.stddev * rng.standard_normal(length)
    u = rng.random(length)
    if law.alpha == 1.0:
        return np.tan(np.pi * (u - 0.5))
    signs = np.where(rng.random(length) < 0.5, -1.0, 1.0)
    return signs * (1.0 - u) ** (-1.0 / law.alpha)


def oracle_walk(law, length, master, trial=0):
    """The walk S_0 = 0, ..., S_length of :func:`oracle_steps`, as a tuple."""
    vals = np.concatenate([[0.0], np.cumsum(oracle_steps(law, length, master, trial))])
    return tuple(vals.tolist())


# ---------------------------------------------------------------------------
# small lattice laws


@st.composite
def lattice_laws(draw):
    """Lattice laws with support in [-3, 3], both signs, and masses k/D, D <= 12.

    Every drawn atom has mass at least 1/D, so none is dropped.
    """
    points = {draw(st.integers(-3, -1)), draw(st.integers(1, 3))}
    points |= set(draw(st.lists(st.integers(-3, 3), max_size=5)))
    points = sorted(points)
    r = len(points)
    D = draw(st.integers(r, 12))
    cuts = sorted(draw(st.lists(st.integers(1, D - 1), min_size=r - 1, max_size=r - 1,
                                unique=True)))
    masses = [Fraction(b - a, D) for a, b in zip([0] + cuts, cuts + [D])]
    return IncrementLaw.lattice(points, masses)
