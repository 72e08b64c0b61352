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
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List

import numpy as np

from .conditioning import (conditioned_states, h_kernel_row,
                           hchain_endpoint_distribution, hchain_path_distribution,
                           meander_weights, renewal_function)
from .fluctuation import (ladder_epochs, last_max_index, local_time_curve_np,
                          local_time_strict)
from .increments import IncrementLaw, derive_seed, iter_rows
from .oracle import (distribution_equality, exact_functional_distribution,
                     integer_law, iter_paths)
from .scaling import fristedt_residual
from .transforms import future_min_local_time_np, tanaka_transform, tanaka_transform_np

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
    (:func:`~fluctwalk.oracle.iter_paths`).
    """
    diffs: List[Dict] = [{} for _ in range(m + 1)]

    def add(k, rev_key, fwd_key, c):
        # atoms whose difference returns to zero are dropped, which keeps
        # the m + 1 live maps small
        d = diffs[k]
        for key, p in ((rev_key, c), (fwd_key, -c)):
            v = d.pop(key, 0) + p
            if v:
                d[key] = v

    for _, vals, c in iter_paths(law, m):
        T = ladder_epochs(vals)
        lam = local_time_strict(vals)
        up = tanaka_transform(vals)
        # segment starts strictly before i, for i = 0..T_last
        marks = [bisect_left(T, i) for i in range(T[-1] + 1)]
        # per epoch t: the marked reversed pre-t path and the marked rebuilt
        # path truncated at t (lam[t] = k at t = T_k)
        keys = [((tuple(vals[t] - vals[t - i] for i in range(t + 1)),
                  tuple(lam[t] - lam[t - i] for i in range(t + 1))),
                 (tuple(up[: t + 1]), tuple(marks[: t + 1]))) for t in T]
        for k in range(1, len(T)):
            add(k, *keys[k], c)
        if last_max_index(vals) == T[-1]:
            add(0, *keys[-1], c)
    return diffs


def _total_variation(diff: Dict, Dm: int) -> Fraction:
    """Total variation of a signed difference of integer weights over Dm."""
    return Fraction(sum(map(abs, diff.values())), 2 * Dm)


def certify_reversal(max_length: int = 8) -> CheckResult:
    rows = [["law", "length", "check", "k", "tv"]]
    ok = True
    for law in DEFAULT_LAWS():
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
    # the last strict ladder epoch is the first index at the overall maximum
    t_last = np.argmax(V == V.max(axis=-1, keepdims=True), axis=-1)
    first = np.where(differ.any(axis=-1), differ.argmax(axis=-1), V.shape[-1])
    return int(np.count_nonzero(t_last)), int(np.count_nonzero(first < t_last))


def certify_idloc(enum_length: int = 8, gaussian_paths: int = 2000,
                  gaussian_length: int = 500, seed: int = 20240808) -> CheckResult:
    law = IncrementLaw.fair_pm1()
    paths = np.array([vals for _, vals, _ in iter_paths(law, enum_length)])
    checked, violations = _idloc_violations(paths, "strict")

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
    D = integer_law(law)[2]
    V = renewal_function(law)
    rows = [["length", "paths_checked", "mismatches"]]
    ok = True
    for m in range(1, max_length + 1):
        chain = hchain_path_distribution(law, m)
        mism = 0
        total = 0
        seen = set()
        for _, vals, c in iter_paths(law, m):
            if min(vals[1:]) < 0:
                continue
            total += 1
            seen.add(vals)
            # meander mass of this path times P(C_m) V(endpoint) must equal
            # the conditioned-chain mass, path by path
            lhs = Fraction(c, D ** m) * V(Fraction(vals[-1]))
            rhs = chain.atoms.get(tuple(vals), Fraction(0))
            if lhs != rhs:
                mism += 1
        # the chain must place no mass outside the surviving paths
        extra = [k for k in chain.atoms if k not in seen]
        if extra:
            mism += len(extra)
        ok = ok and mism == 0
        rows.append([m, total, mism])

    # weight normalization: mean of the meander weights over chain samples
    for x in conditioned_states(law, weight_n, weight_trials, derive_seed(seed, 7)):
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


def certify_h_kernel(max_length: int = 8) -> CheckResult:
    law = IncrementLaw.fair_pm1()
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
    for m in range(1, max_length + 1):
        td_end = exact_functional_distribution(law, m, lambda v: tanaka_transform(v)[-1])
        chain_end = hchain_endpoint_distribution(law, m)
        tv = distribution_equality(td_end, chain_end)
        worst = max(worst, tv)
        endpoint_ok = endpoint_ok and tv == 0
    rows.append([f"endpoint_equivalence_to_{max_length}", str(worst), endpoint_ok])
    ok = ok and endpoint_ok
    return CheckResult("h_kernel", ok,
                       "kernel rows exact and endpoint laws identical" if ok
                       else "kernel certification failed", rows)
