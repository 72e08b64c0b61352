"""Conditioning walks to stay positive: renewal function, kernel, meanders.

The harmonic function for conditioning is the renewal function of the
descending ladder heights,

    V(x) = sum_{k>=0} P(Hdown_k <= x),        V(0) >= 1,

which reweights the walk killed on entering the negative half-line into the
walk conditioned to stay positive:

    q_up(x, dy) = (V(y) / V(x)) P(step to dy, y >= 0).

On lattice laws the state 0 itself is reachable and carries mass (the
boundary atom is preserved throughout, matching the weak inequalities in
the meander event C_k = {S_1 >= 0, ..., S_k >= 0}); the kernel is therefore
defined at every x >= 0 with V(x) > 0.

V is exact and rational: skip-free-downward lattice laws (descents by one
lattice unit) have closed forms for it, and every function here that needs
V builds it with :func:`renewal_function`.  :func:`conditioned_states` is
the one sampler of the conditioned chain: it runs many chains at once by
table lookup in the float-rounded cumulative kernel rows.

Meanders come three ways, one per job.  :func:`meander_sample` draws a
batch by rejection from the walk's own trials, on any law.  The chains of
:func:`conditioned_states` weighted by 1 / (P(C_k) V(endpoint))
(:func:`meander_weights`, the one place that knows this weight) have
exactly the meander law, path by path on lattices; they reach the large
horizons.  :func:`meander_endpoint_distribution` is the exact endpoint law
on lattices and :func:`meander_endpoint_floats` that law in float: ``converge
meander`` checks the chains against the float law, and it against Rayleigh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Dict, Iterator, List, Sequence, Tuple, Union

import numpy as np

from .errors import (BudgetError, DegenerateStateError, ParameterError,
                     UnsupportedModeError)
from .increments import IncrementLaw, iter_rows, _rng
from .oracle import ExactDistribution, lattice_sweep
from .scaling import check_bilateral, norming_constant

__all__ = [
    "renewal_function",
    "h_kernel_row",
    "conditioned_states",
    "meander_sample",
    "meander_weights",
    "SurvivalEstimate",
    "survival_probability",
    "survival_sequence",
    "meander_endpoint_distribution",
    "meander_endpoint_floats",
    "hchain_path_distribution",
    "hchain_endpoint_distribution",
    "HarmonicReport",
    "harmonic_limits",
]


# ---------------------------------------------------------------------------
# renewal function


def _skip_free_down(law: IncrementLaw) -> bool:
    """Whether a lattice law never descends by more than one lattice step."""
    return all(s >= -1 for s in law.lattice_integer_form()[1])


def _descent_probability(law: IncrementLaw) -> Fraction:
    """P(the walk ever makes a strict descent), for skip-free-down laws
    and for laws that never step down (0)."""
    unit, steps, probs = law.lattice_integer_form()
    live = list(zip(steps, probs))
    if all(s >= 0 for s, _ in live):
        return Fraction(0)
    drift = sum(s * p for s, p in live)
    if drift <= 0:
        return Fraction(1)
    if len(live) == 2 and {s for s, _ in live} == {-1, 1}:
        p_up = dict(live)[1]
        return (1 - p_up) / p_up
    raise UnsupportedModeError(
        "no exact descent probability for this drifting skip-free law")


def renewal_function(law: IncrementLaw) -> Callable:
    """Exact renewal function V(x) = sum_k P(Hdown_k <= x), as a callable.

    Covers skip-free-downward lattice laws, where descending ladder heights
    are one lattice unit each and V is a truncated geometric series in the
    descent probability r (V(x) = floor(x/unit) + 1 in the recurrent case
    r = 1), and lattice laws that never step down (r = 0: only the zeroth
    renewal contributes, V = 1).
    """
    if law.kind != "lattice" or not _skip_free_down(law):
        raise UnsupportedModeError(
            "exact renewal function requires a skip-free-downward lattice law")
    unit = law.lattice_integer_form()[0]
    r = _descent_probability(law)

    def V(x) -> Fraction:
        if x < 0:
            raise ParameterError("renewal function is defined on x >= 0")
        xf = Fraction(x) if not isinstance(x, float) else Fraction(x).limit_denominator(10**12)
        kmax = int(xf / unit)
        if r == 1:
            return Fraction(kmax + 1)
        return (1 - r ** (kmax + 1)) / (1 - r)

    return V


# ---------------------------------------------------------------------------
# conditioned kernel and walks


def h_kernel_row(x, law: IncrementLaw, V: Callable) -> List[Tuple[Fraction, Fraction]]:
    """Exact transition row of the conditioned kernel at a lattice state.

    Entries (y, probability) with y >= 0; states y < 0 are killed.  For a
    renewal-function V the row sums to one (V is harmonic for the killed
    walk), which tests assert rather than assume.
    """
    if law.kind != "lattice":
        raise UnsupportedModeError("exact kernel rows require a lattice law")
    xf = x if isinstance(x, Fraction) else Fraction(x)
    if xf < 0:
        raise ParameterError("kernel states must be nonnegative")
    vx = V(xf)
    if vx == 0:
        raise DegenerateStateError(f"V({x}) = 0")
    row = []
    for s, p in zip(law.support, law.probs):
        y = xf + s
        if y < 0:
            continue
        row.append((y, V(y) * p / vx))
    return row


def conditioned_states(law: IncrementLaw, length: int, trials: int,
                       seed: int) -> Iterator[np.ndarray]:
    """Run ``trials`` kernel chains from 0 at once; yield their levels per step.

    For lattice laws with an exact V (skip-free downward); for any other
    law :func:`renewal_function` raises.  Each step draws
    one ``rng.random(trials)`` from ``_rng(seed)`` and moves trial i by the
    first step, up-step first, whose cumulative kernel probability exceeds
    its uniform; so on fair +-1 a chain at level x steps up when
    u < (x + 2) / (2 (x + 1)).  The cumulative entries are float() of the
    exact partial sums of ``h_kernel_row``; the last one is 1 and is not
    stored; a row that does not sum to one raises.  The table covers the
    levels reached so far and doubles when a chain climbs past it.  Yields
    the integer level array (lattice units) after steps 1..length, a fresh
    array each step.
    """
    if length < 1 or trials < 1:
        raise ParameterError("length and trials must be >= 1")
    V = renewal_function(law)
    unit, steps, probs = law.lattice_integer_form()
    steps = sorted(steps, reverse=True)

    def cumulative(levels):
        rows = []
        for x in levels:
            row = {int(y / unit) - x: p for y, p in h_kernel_row(x * unit, law, V)}
            if sum(row.values()) != 1:
                raise DegenerateStateError(f"kernel row at level {x} does not sum to 1")
            rows.append([float(c) for c in accumulate(row.get(s, 0) for s in steps[:-1])])
        return np.array(rows).T.reshape(len(steps) - 1, len(levels))

    moves = np.array(steps, dtype=np.int64)
    rise = max(steps[0], 0)
    rng = _rng(seed)
    x = np.zeros(trials, dtype=np.int64)
    cum = np.empty((len(steps) - 1, 0))
    top = 0  # no chain is above this level
    for _ in range(length):
        if top >= cum.shape[1]:
            top = int(x.max())
            size = max(cum.shape[1], 1)
            while size <= top:
                size *= 2
            cum = np.hstack([cum, cumulative(range(cum.shape[1], size))])
        u = rng.random(trials)
        j = np.zeros(trials, dtype=np.intp)
        for col in cum:
            j += u >= col[x]
        x = x + moves[j]
        top += rise
        yield x


# ---------------------------------------------------------------------------
# survival probabilities and meanders


@dataclass(frozen=True)
class SurvivalEstimate:
    """P(C_k), exact rational or a Monte Carlo estimate with its error."""

    probability: Union[Fraction, float]
    error: float


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


def meander_endpoint_floats(law: IncrementLaw, ks: Sequence[int]) -> Dict[int, tuple]:
    """{k: (P(C_k), levels, probabilities)} of the k-step meander endpoint
    law for every k in ks, in float off one level sweep to the largest k.

    The levels are those >= 0 with a float weight other than 0.  All weights
    are nonnegative, so with r atoms and L levels summed, P(C_k) is within
    relative (r + 1) k u + (L - 1) u of its exact value and each probability
    within 2 (r + 1) k u + L u (u = 2**-53), plus at most L 2**-1074 of
    underflow.  :func:`meander_endpoint_distribution` is the exact law.
    """
    wanted = {int(k) for k in ks}
    out = {}
    for k, lo, w, _ in lattice_sweep(law, max(wanted), keep=+1, exact=False):
        if k in wanted:
            w = w[max(0, -lo):]
            live = np.flatnonzero(w)
            out[k] = (float(w.sum()), max(0, lo) + live, w[live] / w.sum())
    return out


def survival_probability(law: IncrementLaw, k: int, mode: str = "exact",
                         budget: int = 200_000, seed: int = 0) -> SurvivalEstimate:
    """P(C_k) = P(S_1 >= 0, ..., S_k >= 0), exact (lattice) or Monte Carlo."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    if mode == "exact":
        if law.kind != "lattice":
            raise UnsupportedModeError("exact survival requires a lattice law")
        return SurvivalEstimate(survival_sequence(law, [k])[k], 0.0)
    if mode != "montecarlo":
        raise ParameterError(f"unknown mode {mode!r}")
    trials = max(100, budget)
    hits = sum(int((S.min(axis=1) >= 0).sum()) for S in iter_rows(law, k, seed, trials))
    p = hits / trials
    se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
    return SurvivalEstimate(p, se)


def survival_sequence(law: IncrementLaw, ks: Sequence[int]) -> Dict[int, Fraction]:
    """Exact P(C_k) for every k in ks, from one recursion sweep."""
    record = set(int(k) for k in ks)
    out = {}
    for k, lo, w, D in lattice_sweep(law, max(record), keep=+1):
        if k in record:
            out[k] = Fraction(int(w[max(0, -lo):].sum()), D ** k)
    return out


# rejection attempts per meander that meander_sample asks for
_MEANDER_ATTEMPTS = 100_000


def meander_sample(law: IncrementLaw, k: int, count: int, seed: int) -> np.ndarray:
    """``count`` meander paths of length k by rejection, one row each.

    Attempt t is trial t of ``seed`` (:func:`~fluctwalk.increments.iter_rows`);
    the rows are the first ``count`` walks that stay >= 0, in trial order,
    so each has the exact meander law.  Returns an array of shape
    (count, k + 1).  At most count * 100 000 attempts are drawn; a shortfall
    raises a BudgetError carrying the observed acceptance rate.
    """
    if k < 1 or count < 1:
        raise ParameterError("length and count must be >= 1")
    budget = count * _MEANDER_ATTEMPTS
    kept = []
    got = 0
    for S in iter_rows(law, k, seed, budget):
        ok = S[S.min(axis=1) >= 0][: count - got]
        kept.append(ok)
        got += len(ok)
        if got == count:
            return np.concatenate(kept)
    raise BudgetError(f"only {got} of {count} meanders accepted in {budget} attempts",
                      acceptance_rate=got / budget)


def meander_weights(law: IncrementLaw, n: int, levels,
                    p_survival=None) -> np.ndarray:
    """Meander weights 1 / (P(C_n) V(x)) of kernel-chain levels after n steps.

    ``levels`` are integer chain levels in lattice units (as
    :func:`conditioned_states` yields them); ``p_survival`` is the number
    P(C_n), taken from the exact recursion when not given.  Weighted by
    these, the n-step paths of the conditioned chain have the n-step meander
    law.
    """
    V = renewal_function(law)
    if p_survival is None:
        p_survival = survival_sequence(law, [n])[n]
    levels = np.asarray(levels)
    unit = law.lattice_integer_form()[0]
    v = np.array([float(V(j * unit)) for j in range(int(levels.max()) + 1)])
    return 1.0 / (float(p_survival) * v[levels])


# ---------------------------------------------------------------------------
# exact conditioned-walk distributions (certification helpers)


def hchain_path_distribution(law: IncrementLaw, length: int) -> ExactDistribution:
    """Exact law of the kernel chain over integer-lattice paths."""
    V = renewal_function(law)
    unit, _, _ = law.lattice_integer_form()
    atoms: Dict[tuple, Fraction] = {}

    def rec(prefix, x, prob):
        if len(prefix) == length + 1:
            atoms[tuple(prefix)] = atoms.get(tuple(prefix), Fraction(0)) + prob
            return
        for y, p in h_kernel_row(x * unit, law, V):
            rec(prefix + [int(y / unit)], int(y / unit), prob * p)

    rec([0], 0, Fraction(1))
    dist = ExactDistribution(atoms=atoms)
    dist.validate()
    return dist


def hchain_endpoint_distribution(law: IncrementLaw, length: int) -> ExactDistribution:
    """Exact law of the kernel chain's endpoint, by forward recursion."""
    V = renewal_function(law)
    unit, _, _ = law.lattice_integer_form()
    cur = {0: Fraction(1)}
    for _ in range(length):
        nxt: Dict[int, Fraction] = {}
        for x, px in cur.items():
            for y, p in h_kernel_row(x * unit, law, V):
                yi = int(y / unit)
                nxt[yi] = nxt.get(yi, Fraction(0)) + px * p
        cur = nxt
    dist = ExactDistribution(atoms=cur)
    dist.validate()
    return dist


# ---------------------------------------------------------------------------
# harmonic limits


@dataclass
class HarmonicReport:
    """Products a_hat_n P(C_n) and P(C_n) V_n(x) across an n-grid."""

    n_grid: List[int]
    a_hat: List[float]
    survival: List[float]
    product: List[float]
    v_at_x: Dict[float, List[float]]
    relative_changes: List[float]

    def to_csv_rows(self):
        header = ["n", "a_hat_n", "P_Cn", "product"] + [
            f"V_at_{x:g}" for x in self.v_at_x]
        rows = [header]
        for i, n in enumerate(self.n_grid):
            rows.append([n, self.a_hat[i], self.survival[i], self.product[i]]
                        + [self.v_at_x[x][i] for x in self.v_at_x])
        return rows


def harmonic_limits(law: IncrementLaw, x_grid: Sequence[float],
                    n_grid: Sequence[int]) -> HarmonicReport:
    """Track a_hat_n P(C_n) and P(C_n) V_n(x) across n.

    Lattice route: survival P(C_n) by the float level sweep
    (:func:`meander_endpoint_floats`), V by the skip-free closed form
    evaluated at x / c_n with c_n = 1 / (sigma sqrt(n)), and a_hat_n, the
    norming constant of -S, from the Wiener-Hopf roots of -X
    (:func:`~fluctwalk.scaling.norming_constant`), each with its stated
    bound, not a certificate (P(C_n) within 4e-12 on fair +-1 at n = 8192).

    Laws without sign changes are rejected: without descents the descending
    ladder structure the limits describe does not exist.
    """
    n_grid = [int(n) for n in n_grid]
    if any(n2 <= n1 for n1, n2 in zip(n_grid, n_grid[1:])):
        raise ParameterError("n grid must be strictly increasing")
    if law.kind != "lattice":
        raise UnsupportedModeError("harmonic limit tracking is exact-lattice only")
    check_bilateral(law)
    sigma = law.sigma()

    negated = IncrementLaw.lattice([-s for s in law.support], law.probs)
    a_hat = norming_constant(negated, n_grid)
    floats = meander_endpoint_floats(law, n_grid)
    p_surv = [floats[n][0] for n in n_grid]
    product = [a * p for a, p in zip(a_hat, p_surv)]

    V = renewal_function(law)
    v_at_x: Dict[float, List[float]] = {}
    for x in x_grid:
        col = []
        for i, n in enumerate(n_grid):
            c_n = 1.0 / (sigma * math.sqrt(n))
            col.append(p_surv[i] * float(V(x / c_n)))
        v_at_x[float(x)] = col

    rel = [abs(product[i + 1] - product[i]) / product[i]
           for i in range(len(product) - 1)]
    return HarmonicReport(n_grid=n_grid, a_hat=a_hat, survival=p_surv,
                          product=product, v_at_x=v_at_x, relative_changes=rel)
