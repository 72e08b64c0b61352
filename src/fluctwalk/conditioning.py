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

Two meander samplers are provided.  Rejection sampling is the ground truth
at small horizons; above that the conditioned walk is reweighted by
1 / (P(C_k) V(endpoint)), whose weighted empirical law is exactly the
meander law, path by path on lattices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (BudgetError, DegenerateStateError, HypothesisViolationError,
                     ParameterError, UnsupportedModeError)
from .increments import (IncrementLaw, WalkPath, derive_seed, draw_steps, iter_rows,
                         path_from_steps, sample_walk, _rng)
from .oracle import ExactDistribution, lattice_sweep
from .scaling import (norming_constant, positivity_probabilities, positivity_rule,
                      required_truncation)
from .transforms import tanaka_transform

__all__ = [
    "RenewalFunction",
    "renewal_function",
    "h_kernel_row",
    "h_kernel_step",
    "conditioned_walk",
    "meander_sample",
    "SurvivalEstimate",
    "survival_probability",
    "survival_sequence",
    "meander_endpoint_distribution",
    "hchain_path_distribution",
    "hchain_endpoint_distribution",
    "HarmonicReport",
    "harmonic_limits",
]


# ---------------------------------------------------------------------------
# renewal function


@dataclass
class RenewalFunction:
    """Evaluator for V(x) = sum_k P(Hdown_k <= x).

    ``mode`` is "exact" (closed form for recognized structures) or
    "estimated" (Monte Carlo over descending ladder chains, with a standard
    error evaluator and a recorded step cap).
    """

    evaluator: Callable
    mode: str
    law: IncrementLaw
    standard_error: Optional[Callable] = None
    x_max: Optional[float] = None
    step_cap: Optional[int] = None

    def __call__(self, x):
        return self.evaluator(x)


def _skip_free_down_unit(law: IncrementLaw) -> Optional[Fraction]:
    """Lattice unit if every descent is by exactly one lattice step."""
    if law.kind != "lattice":
        return None
    unit, steps, probs = law.lattice_integer_form()
    neg = [s for s, p in zip(steps, probs) if p > 0 and s < 0]
    if neg == [-1]:
        return unit
    return None


def _descent_probability(law: IncrementLaw) -> Fraction:
    """P(the walk ever makes a strict descent), for skip-free-down laws."""
    unit, steps, probs = law.lattice_integer_form()
    live = [(s, p) for s, p in zip(steps, probs) if p > 0]
    drift = sum(s * p for s, p in live)
    if drift <= 0:
        return Fraction(1)
    if len(live) == 2 and {s for s, _ in live} == {-1, 1}:
        p_up = dict(live)[1]
        return (1 - p_up) / p_up
    raise UnsupportedModeError(
        "no exact descent probability for this drifting skip-free law")


def renewal_function(law: IncrementLaw, mode: str = "exact",
                     budget: int = 20_000, seed: int = 0,
                     x_max: float = 16.0, step_cap: int = 1 << 20) -> RenewalFunction:
    """Renewal function of the descending ladder heights.

    Exact mode covers skip-free-downward lattice laws, where descending
    ladder heights are one lattice unit each and V is a truncated geometric
    series (V(x) = floor(x/unit) + 1 in the recurrent case).  Estimated mode
    simulates descending ladder chains directly and counts renewals below
    each level; the step cap and per-point standard errors are recorded.
    """
    if mode == "exact":
        if law.kind == "lattice" and not law.has_negative_steps():
            # no descents ever happen: only the zeroth renewal contributes
            def evaluator(x):
                if x < 0:
                    raise ParameterError("renewal function is defined on x >= 0")
                return Fraction(1)

            return RenewalFunction(evaluator=evaluator, mode="exact", law=law)
        unit = _skip_free_down_unit(law)
        if unit is None:
            raise UnsupportedModeError(
                "exact renewal function requires a skip-free-downward lattice law")
        r = _descent_probability(law)

        def evaluator(x):
            if x < 0:
                raise ParameterError("renewal function is defined on x >= 0")
            xf = Fraction(x) if not isinstance(x, float) else Fraction(x).limit_denominator(10**12)
            kmax = int(xf / unit)
            if r == 1:
                return Fraction(kmax + 1)
            return (1 - r ** (kmax + 1)) / (1 - r)

        return RenewalFunction(evaluator=evaluator, mode="exact", law=law)

    if mode != "montecarlo":
        raise ParameterError(f"unknown mode {mode!r}")

    if law.kind != "gaussian":
        raise UnsupportedModeError("estimated renewal function implemented for gaussian laws")
    # Simulate walks until the running minimum drops below -x_max (or the cap
    # hits); strict new minima are the descending ladder points.
    heights: List[np.ndarray] = []
    block = 1024
    for t in range(budget):
        rng = _rng(derive_seed(seed, t))
        s = 0.0
        mn = 0.0
        recs = []
        steps_done = 0
        while mn >= -x_max and steps_done < step_cap:
            b = min(block, step_cap - steps_done)
            c = s + np.cumsum(draw_steps(law, rng, np.empty(b)))
            # strict new minima, up to and including the first one below -x_max
            low = c[c < np.minimum.accumulate(np.concatenate([[mn], c[:-1]]))]
            deep = np.flatnonzero(low < -x_max)
            if deep.size:
                low = low[: deep[0] + 1]
            if low.size:
                mn = low[-1]
                recs.append(-low)
            s = c[-1]
            steps_done += b
        heights.append(np.concatenate(recs) if recs else np.array([]))

    def evaluator(x):
        if not (0 <= x <= x_max):
            raise ParameterError(f"estimated evaluator only covers [0, {x_max}]")
        counts = np.array([1 + int((h <= x).sum()) for h in heights], dtype=np.float64)
        return float(counts.mean())

    def std_error(x):
        counts = np.array([1 + int((h <= x).sum()) for h in heights], dtype=np.float64)
        return float(counts.std(ddof=1) / math.sqrt(len(counts)))

    return RenewalFunction(evaluator=evaluator, mode="estimated", law=law,
                           standard_error=std_error, x_max=x_max, step_cap=step_cap)


# ---------------------------------------------------------------------------
# conditioned kernel and walks


def h_kernel_row(x, law: IncrementLaw, V: RenewalFunction) -> List[Tuple[Fraction, Fraction]]:
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
        if p == 0:
            continue
        y = xf + s
        if y < 0:
            continue
        row.append((y, V(y) * p / vx))
    return row


def h_kernel_step(x, law: IncrementLaw, V: RenewalFunction, seed: int):
    """One kernel step from x; returns (next state, row or None).

    Lattice laws sample from the exact row and return it.  Gaussian laws
    sample the reweighted density V(y) f(y - x) on y > 0 by inverse CDF on a
    fine grid (resolution is a numeric approximation, recorded here; exact
    work always goes through lattice rows).
    """
    rng = _rng(seed)
    if law.kind == "lattice":
        row = h_kernel_row(x, law, V)
        u = rng.random()
        acc = 0.0
        for y, p in row:
            acc += float(p)
            if u < acc:
                return y, row
        return row[-1][0], row
    if law.kind == "gaussian":
        vx = float(V(float(x)))
        if vx == 0:
            raise DegenerateStateError(f"V({x}) = 0")
        hi = float(x) + law.mean + 10 * law.stddev
        grid = np.linspace(1e-12, max(hi, 10 * law.stddev), 4096)
        dens = np.array([float(V(min(g, V.x_max))) if V.x_max else float(V(g))
                         for g in grid])
        dens *= np.exp(-0.5 * ((grid - float(x) - law.mean) / law.stddev) ** 2)
        cum = np.cumsum(dens)
        if cum[-1] == 0:
            raise DegenerateStateError("degenerate conditioned step density")
        cum /= cum[-1]
        y = float(np.interp(rng.random(), cum, grid))
        return y, None
    raise UnsupportedModeError("conditioned kernel not implemented for heavy-tailed laws")


def conditioned_walk(law: IncrementLaw, length: int, seed: int,
                     method: str = "h_chain",
                     V: Optional[RenewalFunction] = None) -> WalkPath:
    """A walk conditioned to stay positive, by kernel chain or by transform.

    ``h_chain`` iterates the conditioned kernel and realizes the conditioned
    law exactly (lattice laws, exact rows).  ``tanaka_transform`` transforms an
    unconditioned sample pathwise; the two constructions share scaling limit
    and endpoint law, but on lattice windows their path laws differ at the
    zero boundary (quantified in tests), so law-sensitive estimators use the
    kernel chain.
    """
    if length < 1:
        raise ParameterError("length must be >= 1")
    if method == "tanaka_transform":
        return tanaka_transform(sample_walk(law, length, seed))
    if method != "h_chain":
        raise ParameterError(f"unknown method {method!r}")
    if V is None:
        V = renewal_function(law, mode="exact")
    x = Fraction(0) if law.kind == "lattice" else 0.0
    vals = [0.0]
    for i in range(length):
        x, _ = h_kernel_step(x, law, V, derive_seed(seed, i))
        vals.append(float(x))
    return WalkPath(values=tuple(vals))


# ---------------------------------------------------------------------------
# survival probabilities and meanders


@dataclass(frozen=True)
class SurvivalEstimate:
    """P(C_k), exact rational or a Monte Carlo estimate with its error."""

    probability: Union[Fraction, float]
    error: float
    mode: str

    def __float__(self):
        return float(self.probability)


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


def survival_probability(law: IncrementLaw, k: int, mode: str = "exact",
                         budget: int = 200_000, seed: int = 0) -> SurvivalEstimate:
    """P(C_k) = P(S_1 >= 0, ..., S_k >= 0), exact (lattice) or Monte Carlo."""
    if k < 1:
        raise ParameterError("k must be >= 1")
    if mode == "exact":
        if law.kind != "lattice":
            raise UnsupportedModeError("exact survival requires a lattice law")
        return SurvivalEstimate(survival_sequence(law, [k])[k], 0.0, "exact")
    if mode != "montecarlo":
        raise ParameterError(f"unknown mode {mode!r}")
    trials = max(100, budget)
    hits = sum(int((np.cumsum(rows, axis=1).min(axis=1) >= 0).sum())
               for rows in iter_rows(law, k, seed, trials))
    p = hits / trials
    se = math.sqrt(max(p * (1 - p), 1e-12) / trials)
    return SurvivalEstimate(p, se, "montecarlo")


def survival_sequence(law: IncrementLaw, ks: Sequence[int]) -> Dict[int, Fraction]:
    """Exact P(C_k) for every k in ks, from one recursion sweep."""
    record = set(int(k) for k in ks)
    out = {}
    for k, lo, w, D in lattice_sweep(law, max(record), keep=+1):
        if k in record:
            out[k] = Fraction(int(w[max(0, -lo):].sum()), D ** k)
    return out


def meander_sample(law: IncrementLaw, k: int, seed: int,
                   method: str = "rejection", budget: int = 100_000,
                   V: Optional[RenewalFunction] = None,
                   survival: Optional[SurvivalEstimate] = None) -> Tuple[WalkPath, float]:
    """One meander path of length k, with its importance weight.

    Rejection returns exact-law paths with weight 1.  Reweight returns a
    conditioned-walk path with weight 1 / (P(C_k) V(endpoint)); the weighted
    empirical law over such samples is the meander law.
    """
    if k < 1:
        raise ParameterError("length must be >= 1")
    if method == "rejection":
        # attempt t is trial t of ``seed``
        for rows in iter_rows(law, k, seed, budget):
            ok = np.cumsum(rows, axis=1).min(axis=1) >= 0
            if ok.any():
                return path_from_steps(rows[int(np.argmax(ok))]), 1.0
        raise BudgetError(
            f"no meander accepted in {budget} attempts",
            acceptance_rate=0.0)
    if method != "reweight":
        raise ParameterError(f"unknown method {method!r}")
    if V is None:
        V = renewal_function(law, mode="exact")
    if survival is None:
        survival = survival_probability(law, k, mode="exact")
    path = conditioned_walk(law, k, seed, method="h_chain", V=V)
    end = path.values[-1]
    weight = 1.0 / (float(survival.probability) * float(V(Fraction(end).limit_denominator(10**9)
                                                         if law.kind == "lattice" else end)))
    return path, weight


# ---------------------------------------------------------------------------
# exact conditioned-walk distributions (certification helpers)


def hchain_path_distribution(law: IncrementLaw, length: int,
                             V: Optional[RenewalFunction] = None) -> ExactDistribution:
    """Exact law of the kernel chain over integer-lattice paths."""
    if law.kind != "lattice":
        raise UnsupportedModeError("exact chain law requires a lattice law")
    if V is None:
        V = renewal_function(law, mode="exact")
    unit, _, _ = law.lattice_integer_form()
    atoms: Dict[tuple, Fraction] = {}

    def rec(prefix, x, prob):
        if len(prefix) == length + 1:
            atoms[tuple(prefix)] = atoms.get(tuple(prefix), Fraction(0)) + prob
            return
        for y, p in h_kernel_row(x * unit, law, V):
            if p > 0:
                rec(prefix + [int(y / unit)], int(y / unit), prob * p)

    rec([0], 0, Fraction(1))
    dist = ExactDistribution(atoms=atoms)
    dist.validate()
    return dist


def hchain_endpoint_distribution(law: IncrementLaw, length: int,
                                 V: Optional[RenewalFunction] = None) -> ExactDistribution:
    """Exact law of the kernel chain's endpoint, by forward recursion."""
    if law.kind != "lattice":
        raise UnsupportedModeError("exact chain law requires a lattice law")
    if V is None:
        V = renewal_function(law, mode="exact")
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
                    n_grid: Sequence[int], rel_tol: float = 1e-9,
                    exact_positivity_cap: int = 4096) -> HarmonicReport:
    """Track a_hat_n P(C_n) and P(C_n) V_n(x) across n.

    Exact lattice route: survival by integer recursion, V by the skip-free
    closed form evaluated at x / c_n with c_n = 1 / (sigma sqrt(n)), and
    a_hat_n from a closed-form negativity rule where available (falling back
    to exact convolution when the truncation stays below the cap).

    Laws without sign changes are rejected: without descents the descending
    ladder structure the limits describe does not exist.
    """
    n_grid = [int(n) for n in n_grid]
    if any(n2 <= n1 for n1, n2 in zip(n_grid, n_grid[1:])):
        raise ParameterError("n grid must be strictly increasing")
    if law.kind != "lattice":
        raise UnsupportedModeError("harmonic limit tracking is exact-lattice only")
    if not (law.has_negative_steps() and law.has_positive_steps()):
        raise HypothesisViolationError(
            "law is monotone: descending ladder structure degenerate, "
            "survival probabilities do not decay")

    var = sum(p * s * s for s, p in zip(law.support, law.probs)) - law.mean_step() ** 2
    sigma = math.sqrt(float(var))

    rule = positivity_rule(law, sign=-1)
    a_hat = []
    for n in n_grid:
        if rule is not None:
            a_hat.append(norming_constant(rule, n, rel_tol))
        else:
            K = required_truncation(n, rel_tol)
            if K > exact_positivity_cap:
                raise UnsupportedModeError(
                    f"n={n} needs positivity out to K={K}, above the exact cap; "
                    "no closed-form rule for this law")
            negated = IncrementLaw.lattice([-s for s in law.support], law.probs)
            seq = positivity_probabilities(negated, K, mode="exact")
            a_hat.append(norming_constant(seq, n, rel_tol))

    surv = survival_sequence(law, n_grid)
    p_surv = [float(surv[n]) for n in n_grid]
    product = [a * p for a, p in zip(a_hat, p_surv)]

    V = renewal_function(law, mode="exact")
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
