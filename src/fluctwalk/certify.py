"""Exact-arithmetic certification suites.

Every check here runs over complete enumerations of lattice walks with
rational probabilities and asserts identities with total-variation distance
exactly zero (or residuals below rigorous tail bounds).  Windowing
conventions, chosen so the identities are theorems on finite windows rather
than approximations:

* Ladder-segment reversal (part 1).  The reversed pre-T_k path is compared
  with the excursion-rebuilt path truncated at T_k; both sides carry marks
  counting completed segment starts strictly before the current index, and
  the event "k ladder epochs not observed" is one atom of both laws.
  The mark convention matters: counting *at* rather than *strictly before*
  segment boundaries shifts discrete marks by one step and breaks exact
  equality.
* Last-maximum reversal (part 2) restricts to windows whose last maximum
  contact is a ladder epoch; on diffuse laws that event has full
  probability, and on lattices it is exactly the windowable core (trailing
  weak revisits of the maximum are a window artifact).
* The strict local-time variants are used on lattice laws throughout: the
  weak-record forms of the same identities fail pathwise on paths that
  revisit the running maximum from below, e.g. steps (+1, -1, +1, +1)
  starting from 0, while the strict forms hold on every path.
* The conditioned-walk comparison is at the endpoint law.  On lattice
  windows the kernel chain and the excursion rebuild differ as path laws at
  the zero boundary (total variation 1/8 already at three steps for the
  fair walk), but their endpoints agree exactly: the rebuilt endpoint is
  twice the running maximum minus the walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List

import numpy as np

from .conditioning import (conditioned_states, h_kernel_row,
                           hchain_endpoint_distribution, hchain_path_distribution,
                           meander_weights, renewal_function)
from .errors import ParameterError
from .fluctuation import local_time_curve_np
from .increments import IncrementLaw, iter_rows, stream
from .oracle import (ExactDistribution, check_path_matrix, distribution_equality,
                     integer_law, path_matrix)
from .scaling import fristedt_residual
from .transforms import future_min_local_time_np, tanaka_transform_np

__all__ = [
    "CheckResult",
    "certify_fristedt",
    "certify_reversal",
    "certify_idloc",
    "certify_meander_ac",
    "certify_h_kernel",
    "DEFAULT_LAWS",
]


def DEFAULT_LAWS() -> List[IncrementLaw]:
    return [IncrementLaw.fair_pm1(),
            IncrementLaw.biased_pm1(Fraction(3, 4)),
            IncrementLaw.uniform3()]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    rows: List[list] = field(default_factory=list)


def _check_max_length(max_length: int, laws: List[IncrementLaw]) -> None:
    # a certificate over no window length would pass having compared nothing
    if max_length < 1:
        raise ParameterError(f"max_length must be >= 1, got {max_length}")
    # refused before any length runs: what fits at max_length fits below it
    for law in laws:
        check_path_matrix(law, max_length)


# ---------------------------------------------------------------------------
# ladder-pair identity


# the (alpha, beta) grid of the identity, and the largest tail bound that
# makes a residual a certificate
_FRISTEDT_ALPHAS = (0.5, 1.0, 2.0)
_FRISTEDT_BETAS = (0.0, 0.5, 1.0)
_FRISTEDT_BOUND = 1e-6


def certify_fristedt(truncation: int = 60) -> CheckResult:
    rows = [["law", "alpha", "beta", "lhs", "rhs", "residual", "tail_bound"]]
    ok = True
    worst = 0.0
    for law in DEFAULT_LAWS():
        for rep in fristedt_residual(law, _FRISTEDT_ALPHAS, _FRISTEDT_BETAS, truncation):
            rows.append([law.description, rep.alpha, rep.beta, rep.lhs, rep.rhs,
                         rep.residual, rep.tail_bound])
            good = rep.residual <= rep.tail_bound and rep.tail_bound <= _FRISTEDT_BOUND
            ok = ok and good
            worst = max(worst, rep.residual)
    return CheckResult("fristedt", ok,
                       f"worst residual {worst:.3e} over {len(rows) - 1} cases",
                       rows)


# ---------------------------------------------------------------------------
# time reversal at ladder epochs and at the last maximum


def _segment_marks(lam: np.ndarray) -> np.ndarray:
    """Marks of the rebuilt path: segment starts strictly before each index.

    With lam the strict local time (one path per row), index 0 has no start
    before it and index i >= 1 has T_0 = 0 plus the lam[i - 1] ladder epochs
    in 1..i-1.
    """
    marks = np.zeros_like(lam)
    np.add(lam[:, :-1], 1, out=marks[:, 1:])
    return marks


def _last_max_ladder(P: np.ndarray) -> tuple:
    """(T_last, last-maximum rule) for each row of P.

    T_last, the last strict ladder epoch, is the first index at the row's
    maximum.  The last contact with the running maximum is the last index at
    that maximum, so the rule "the last contact is T_last" holds exactly when
    the row touches its maximum once.
    """
    at_max = P == P.max(axis=-1, keepdims=True)
    return at_max.argmax(axis=-1), np.count_nonzero(at_max, axis=-1) == 1


def _reversal_differences(law: IncrementLaw, m: int) -> List[Dict]:
    """Signed differences of every reversal comparison at length m, one pass.

    Entry k = 1..m is the exact law of the marked reversed pre-T_k path minus
    that of the marked rebuilt path truncated at T_k; windows with fewer than
    k ladder epochs form one atom "unrealized" on both sides.  Entry 0 is the
    same difference for the last-maximum reversal, whose windows with a last
    maximum contact off the ladder epochs form one atom "boundary" on both
    sides (on diffuse laws it is null).  A common atom has zero difference,
    so those windows add nothing.  Half the total absolute mass of an entry
    is the total-variation distance between its two laws; atoms of zero
    difference are not stored.  Differences are integer weights over D**m
    (:func:`~fluctwalk.oracle.path_matrix`).

    The m-step paths are the oracle's integer matrix, one row per path, cast
    to the narrowest integer type that holds every key entry.  At each
    index t the rows with a ladder epoch there (labelled k = lam_t) and the
    last-maximum rows with T_last = t (labelled 0) give two key rows each:
    the marked reversed path (S_t - S_{t-i}, lam_t - lam_{t-i})_{i<=t} with
    weight +c and the marked rebuilt path (up_i, marks_i)_{i<=t} with weight
    -c, both led by the label.  One lexicographic sort of the keys and one
    int64 sum per run of equal keys give every atom's difference at t; keys
    of different t have different lengths, so no atom spans two indices.
    """
    _, live, D = integer_law(law)
    if 2 * D ** m >= 2 ** 63:
        raise ParameterError(f"weights over {D}**{m} overflow int64 differences")
    # the narrowest integer type that holds every |S_i|, up_i, lam_i and mark
    bound = max(m * max(abs(s) for s, _ in live), m + 1)
    key_type = np.min_scalar_type(-bound - 1)
    P, c = path_matrix(law, m)
    P = P.astype(key_type)
    lam = local_time_curve_np(P, "strict")
    up = tanaka_transform_np(P)
    marks = _segment_marks(lam)
    epoch = np.diff(lam, prepend=0) > 0
    t_last, last_max_rule = _last_max_ladder(P)

    diffs: List[Dict] = [{} for _ in range(m + 1)]
    for t in range(m + 1):
        ladder = np.flatnonzero(epoch[:, t])
        rows = np.concatenate([ladder, np.flatnonzero(last_max_rule & (t_last == t))])
        keys = np.empty((2, rows.size, 2 * t + 3), dtype=key_type)
        keys[:, :, 0] = 0
        keys[:, :ladder.size, 0] = lam[ladder, t]
        keys[0, :, 1:t + 2] = P[rows, t:t + 1] - P[rows, t::-1]
        keys[0, :, t + 2:] = lam[rows, t:t + 1] - lam[rows, t::-1]
        keys[1, :, 1:t + 2] = up[rows, :t + 1]
        keys[1, :, t + 2:] = marks[rows, :t + 1]
        keys = keys.reshape(2 * rows.size, -1)
        # any order that brings equal keys together will do
        order = np.lexsort(keys.T)
        keys = keys[order]
        starts = np.ones(len(keys), dtype=bool)
        np.any(keys[1:] != keys[:-1], axis=1, out=starts[1:])
        starts = np.flatnonzero(starts)
        sums = np.add.reduceat(np.concatenate([c[rows], -c[rows]])[order], starts)
        for j in np.flatnonzero(sums):
            label, *key = keys[starts[j]].tolist()
            diffs[label][tuple(key[:t + 1]), tuple(key[t + 1:])] = int(sums[j])
    return diffs


def _total_variation(diff: Dict, Dm: int) -> Fraction:
    """Total variation of a signed difference of integer weights over Dm."""
    return Fraction(sum(map(abs, diff.values())), 2 * Dm)


def certify_reversal(max_length: int = 8) -> CheckResult:
    laws = DEFAULT_LAWS()
    _check_max_length(max_length, laws)
    rows = [["law", "length", "check", "k", "tv"]]
    ok = True
    for law in laws:
        D = integer_law(law)[2]
        for m in range(1, max_length + 1):
            diffs = _reversal_differences(law, m)
            for k in range(1, m + 1):
                tv = _total_variation(diffs[k], D ** m)
                rows.append([law.description, m, "ladder_segment", k, str(tv)])
                ok = ok and tv == 0
            tv = _total_variation(diffs[0], D ** m)
            rows.append([law.description, m, "last_maximum", "", str(tv)])
            ok = ok and tv == 0
    return CheckResult("reversal", ok,
                       f"{len(rows) - 1} marked-law comparisons, all exact" if ok
                       else "nonzero total variation found", rows)


# ---------------------------------------------------------------------------
# local-time identity under the excursion rebuild


def _idloc_violations(V: np.ndarray, variant: str) -> tuple:
    """(rows with a ladder epoch, rows violating the local-time identity).

    A row of V is a path S_0..S_m.  It violates the identity when its local
    time at the maximum and the future-minimum local time of its rebuild
    differ at some j < T_last, the last strict ladder epoch.
    """
    fut = future_min_local_time_np(tanaka_transform_np(V), variant)
    differ = local_time_curve_np(V, variant) != fut
    del fut
    t_last = _last_max_ladder(V)[0]
    first = np.where(differ.any(axis=-1), differ.argmax(axis=-1), V.shape[-1])
    return int(np.count_nonzero(t_last)), int(np.count_nonzero(first < t_last))


def certify_idloc(enum_length: int = 8, gaussian_paths: int = 2000,
                  gaussian_length: int = 500, seed: int = 20240808) -> CheckResult:
    if min(enum_length, gaussian_paths) < 1:  # an empty family compares nothing
        raise ParameterError("enum_length and gaussian_paths must be >= 1, got "
                             f"{enum_length} and {gaussian_paths}")
    law = IncrementLaw.fair_pm1()
    checked, violations = _idloc_violations(path_matrix(law, enum_length)[0], "strict")

    glaw = IncrementLaw.gaussian(0.0, 1.0)
    g_viol = sum(_idloc_violations(V, "verbatim")[1]
                 for V in iter_rows(glaw, gaussian_length, seed, gaussian_paths))

    passed = violations == 0 and g_viol == 0
    detail = (f"{checked} enumerated lattice windows and {gaussian_paths} sampled "
              f"diffuse paths, {violations + g_viol} violations")
    return CheckResult("idloc", passed, detail,
                       [["family", "violations"],
                        ["lattice_enumeration_strict", violations],
                        ["gaussian_sampled_verbatim", g_viol]])


# ---------------------------------------------------------------------------
# meander absolute continuity and weight normalization


def certify_meander_ac(max_length: int = 8, weight_n: int = 32,
                       weight_trials: int = 20_000,
                       seed: int = 20240808) -> CheckResult:
    law = IncrementLaw.fair_pm1()
    _check_max_length(max_length, [law])
    if weight_trials < 2:  # one weight has no standard error
        raise ParameterError(f"weight_trials must be >= 2, got {weight_trials}")
    D = integer_law(law)[2]
    V = renewal_function(law)
    v_end = [V(Fraction(x)) for x in range(max_length + 1)]
    rows = [["length", "paths_checked", "mismatches"]]
    ok = True
    for m, chain in enumerate(hchain_path_distribution(law, max_length), start=1):
        Dm = D ** m
        P, c = path_matrix(law, m)
        alive = P[:, 1:].min(axis=1) >= 0
        paths = list(map(tuple, P[alive].tolist()))
        # meander mass of this path times P(C_m) V(endpoint) must equal
        # the conditioned-chain mass, path by path
        mism = sum(Fraction(w, Dm) * v_end[vals[-1]] != chain.atoms.get(vals, Fraction(0))
                   for vals, w in zip(paths, c[alive].tolist()))
        # the chain must place no mass outside the surviving paths
        mism += len(chain.atoms.keys() - set(paths))
        ok = ok and mism == 0
        rows.append([m, len(paths), mism])

    # weight normalization: mean of the meander weights over chain samples
    for x in conditioned_states(law, weight_n, weight_trials, stream(seed, "chains")):
        pass
    w = meander_weights(law, weight_n, x)
    mean = float(w.mean())
    se = float(w.std(ddof=1) / math.sqrt(w.size))
    weight_ok = abs(mean - 1.0) <= 3 * se
    rows.append(["weight_mean", mean, f"se={se:.2e}"])
    ok = ok and weight_ok
    return CheckResult(
        "meander_ac", ok,
        f"path-by-path identity exact to length {max_length}; "
        f"weight mean {mean:.5f} (3 se = {3 * se:.2e})", rows)


# ---------------------------------------------------------------------------
# conditioned kernel rows and endpoint equivalence


def _rebuild_endpoint_law(law: IncrementLaw, m: int) -> ExactDistribution:
    """Exact law of the excursion rebuild's endpoint over every m-step path.

    The last column of the batched rebuild of the path matrix; the paths'
    int64 weights are summed per endpoint in int64 (a float sum would round
    above 2**53) and divided once by D**m.
    """
    P, c = path_matrix(law, m)
    ends, which = np.unique(tanaka_transform_np(P)[:, -1], return_inverse=True)
    weights = np.zeros(ends.size, dtype=np.int64)
    np.add.at(weights, which, c)
    Dm = integer_law(law)[2] ** m
    dist = ExactDistribution({y: Fraction(w, Dm)
                              for y, w in zip(ends.tolist(), weights.tolist())})
    dist.validate()
    return dist


def certify_h_kernel(max_length: int = 8) -> CheckResult:
    law = IncrementLaw.fair_pm1()
    _check_max_length(max_length, [law])
    V = renewal_function(law)
    rows = [["check", "value", "pass"]]
    ok = True

    row0 = h_kernel_row(0, law, V)
    up_only = row0 == [(Fraction(1), Fraction(1))]
    rows.append(["row_at_0_forces_up", repr(row0), up_only])
    ok = ok and up_only

    row1 = dict(h_kernel_row(1, law, V))
    expect = {Fraction(2): Fraction(3, 4), Fraction(0): Fraction(1, 4)}
    rows.append(["row_at_1", repr(sorted(row1.items())), row1 == expect])
    ok = ok and row1 == expect

    sums_ok = True
    for x in range(0, 16):
        s = sum(p for _, p in h_kernel_row(x, law, V))
        sums_ok = sums_ok and s == 1
    rows.append(["rows_sum_to_one_x<16", "", sums_ok])
    ok = ok and sums_ok

    # endpoint law of the excursion rebuild equals the kernel-chain endpoint law
    endpoint_ok = True
    worst = Fraction(0)
    for m, chain_end in enumerate(hchain_endpoint_distribution(law, max_length), start=1):
        tv = distribution_equality(_rebuild_endpoint_law(law, m), chain_end)
        worst = max(worst, tv)
        endpoint_ok = endpoint_ok and tv == 0
    rows.append([f"endpoint_equivalence_to_{max_length}", str(worst), endpoint_ok])
    ok = ok and endpoint_ok
    return CheckResult("h_kernel", ok,
                       "kernel rows exact and endpoint laws identical" if ok
                       else "kernel certification failed", rows)
