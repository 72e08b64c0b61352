"""Orchestration of the Monte Carlo convergence experiments.

Each ``run_*`` function consumes an :class:`ExperimentConfig`, simulates the
relevant functionals across an n-grid, compares them to closed-form limit
targets, and returns an :class:`ExperimentReport` with explicit pass/fail
criteria and plot-ready tables.  Reports embed their full configuration and
master seed; re-running a config reproduces byte-identical numbers.

Sampling notes, load-bearing for honesty about what is exact:

* :func:`first_ascent_tail` is the one place that decides which laws have
  a closed first-ascent law: symmetric diffuse laws have the universal tail
  P(T_1 > k) = C(2k, k) 4^{-k} (Sparre Andersen), the simple symmetric walk
  +-u (``IncrementLaw.is_simple_symmetric``, at any u) the tail
  C(k, floor(k/2)) 2^{-k}.  Ladder times of those laws are sampled by exact
  inverse CDF of the table, with the asymptotic inverse beyond it; every
  other law takes the windowed route.  Space is scaled by
  ``IncrementLaw.sigma``.
* The same universality gives the strict record count of a symmetric walk
  without ties a closed law (:func:`record_count_law`), so the local time
  at the supremum is checked against its exact law and exact mean at every
  n, and against its limit sqrt(2) M through a seed-free limit median.
* Ladder heights are simulated by capped first-passage runs; the cap and
  the censoring rate are recorded.  Height and time marginals are sampled
  separately: every reported statistic is per-coordinate, so the joint
  dependence of (time, height) is never claimed.
* Walks that cannot both rise and fall are rejected up front with a
  hypothesis violation: the limits being tested do not exist for them.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .conditioning import (conditioned_states, harmonic_limits,
                           meander_endpoint_floats, meander_weights)
from .errors import ConfigError, InsufficientLadderError
from .increments import IncrementLaw, derive_seed, draw_steps, iter_rows, _rng
from .limit_laws import (BROWNIAN_DRIFT, half_stable_tau_tail, levy_half_cdf,
                         rayleigh_cdf)
from .fluctuation import local_time_curve_np
from .scaling import check_bilateral, norming_constant
from .stats import Sample, dkw_epsilon, ks_statistic

__all__ = [
    "DECLARED",
    "ExperimentConfig",
    "Criterion",
    "ExperimentReport",
    "run_theorem1",
    "run_localtime",
    "run_lemma1",
    "run_meander",
    "run_harmonic",
]


# ---------------------------------------------------------------------------
# configs and reports


def reject_unknown(owner: str, kind: str, given, known) -> None:
    """Raise a ConfigError naming every key of ``given`` outside ``known``."""
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ConfigError(f"{owner}: unknown {kind} key(s) "
                          + ", ".join(map(repr, unknown)))


@dataclass
class ExperimentConfig:
    """Everything an experiment needs, echoed verbatim into its report.

    ``law``, ``n_grid`` and ``trials`` left at None, and the tolerance and
    param keys left out, take their values in ``DECLARED`` (where ``seed``
    is None) when :meth:`validate` runs.
    """

    experiment: str
    law: Optional[IncrementLaw]
    n_grid: Optional[List[int]]
    trials: Optional[int]
    seed: Optional[int]
    tolerances: Dict[str, float] = field(default_factory=dict)
    params: Dict[str, object] = field(default_factory=dict)

    def validate(self, name: str) -> None:
        """Fill what is unset from ``DECLARED[name]``, reject keys it does not
        declare, check the grid and the trials, and that the law rises and falls."""
        declared = DECLARED[name]
        reject_unknown(self.experiment, "tolerances", self.tolerances,
                       declared.tolerances)
        reject_unknown(self.experiment, "params", self.params, declared.params)
        if declared.trials is None and self.trials is not None:
            reject_unknown(self.experiment, "config", ["trials"], ())
        self.law = declared.law if self.law is None else self.law
        self.n_grid = list(declared.n_grid if self.n_grid is None else self.n_grid)
        self.trials = declared.trials if self.trials is None else self.trials
        self.tolerances = {**declared.tolerances, **self.tolerances}
        self.params = {**declared.params, **self.params}
        if not self.n_grid:
            raise ConfigError("empty n grid")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError("n grid must be strictly increasing")
        if self.trials is not None and self.trials < 100:
            raise ConfigError("at least 100 trials per n are required")
        check_bilateral(self.law)

    def echo(self) -> dict:
        echo = {
            "experiment": self.experiment,
            "law": self.law.describe(),
            "n_grid": list(self.n_grid),
            "trials": self.trials,
            "seed": self.seed,
            "tolerances": dict(sorted(self.tolerances.items())),
            "params": {k: repr(v) for k, v in sorted(self.params.items())},
        }
        return {k: v for k, v in echo.items() if v is not None}  # no trials if none drawn


# the one place each experiment's defaults are written: the config that
# `fluctwalk converge <name>` runs as it stands, less the seed
DECLARED = {c.experiment: c for c in (
    ExperimentConfig("theorem1", IncrementLaw.gaussian(), [256, 1024], 2000, None,
                     {"ks": 0.03, "height_mean": 0.03, "height_sd": 0.12},
                     {"height_cap": 20_000}),
    ExperimentConfig("localtime", IncrementLaw.gaussian(), [2 ** q for q in range(6, 11)],
                     2000, None),
    ExperimentConfig("lemma1", IncrementLaw.gaussian(), [512, 2048], None, None,
                     {"drift_rel": 0.05, "interval_mass": 0.03, "ratio_rel": 0.15},
                     {"height_samples": 50_000, "height_cap": 20_000}),
    ExperimentConfig("meander", IncrementLaw.fair_pm1(), [256, 1024], 4000, None),
    ExperimentConfig("harmonic", IncrementLaw.fair_pm1(), [2 ** q for q in range(8, 12)],
                     None, None, {"product_rel": 0.05, "doubling_rel": 0.02},
                     {"x_grid": (1.0, 3.0)}),
)}


@dataclass
class Criterion:
    """Passes when ``value <= threshold``."""

    cid: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.value <= self.threshold

    def to_json(self) -> dict:
        return {"id": self.cid, "value": self.value, "threshold": self.threshold,
                "comparator": "<=", "pass": self.passed}


@dataclass
class ExperimentReport:
    config: dict
    criteria: List[Criterion]
    tables: Dict[str, List[list]]
    notes: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "criteria": [c.to_json() for c in self.criteria],
            "notes": self.notes,
            "pass": self.passed,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def write(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")
        for name, rows in self.tables.items():
            write_rows(out_dir, name, rows)


def write_rows(out_dir: str, name: str, rows: List[list]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{name}.csv"), "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


# ---------------------------------------------------------------------------
# ladder-time and ladder-height samplers


def universal_t1_tail(kmax: int) -> np.ndarray:
    """P(T_1 > k) = C(2k, k) 4^{-k}, k = 1..kmax, for symmetric laws without ties."""
    k = np.arange(1, kmax + 1, dtype=np.float64)
    return np.exp(np.cumsum(np.log1p(-1.0 / (2.0 * k))))


def pm1_t1_tail(kmax: int) -> np.ndarray:
    """P(T_1 > k) = C(k, floor(k/2)) 2^{-k}, k = 1..kmax, for the simple
    symmetric walk: at k = 2m + 1 the product of 1/2 and (2j + 1) / (2j + 2)
    over j = 1..m, taken in that order; an even k repeats k - 1."""
    j = np.arange(1, (kmax - 1) // 2 + 1, dtype=np.float64)
    odd = np.multiply.accumulate(np.concatenate([[0.5], (2 * j + 1) / (2 * j + 2)]))
    return odd[np.arange(kmax) // 2]


# entries of every first-ascent tail table
_TAIL_TABLE = 1_000_000


def first_ascent_tail(law: IncrementLaw) -> Optional[tuple]:
    """The closed law of the first strict ascent time T_1: (table, c) or None.

    ``table[k - 1]`` is P(T_1 > k) for k <= 1 000 000; beyond the table
    P(T_1 > k) ~ sqrt(c / (pi k)).  Symmetric diffuse laws have Sparre
    Andersen's universal tail C(2k, k) 4^{-k} (c = 1), the simple symmetric
    walk the reflection-principle tail C(k, floor(k/2)) 2^{-k} (c = 2).
    Every other law gives None.
    """
    if law.is_simple_symmetric():
        return pm1_t1_tail(_TAIL_TABLE), 2.0
    if law.is_diffuse() and law.is_symmetric():
        return universal_t1_tail(_TAIL_TABLE), 1.0
    return None


def sample_ladder_times(rng, shape, table: np.ndarray, c: float) -> np.ndarray:
    """Inverse-CDF samples of T_1 from a :func:`first_ascent_tail` pair:
    exact inside the table, ceil(c / (pi u^2)) beyond it."""
    u = rng.random(shape)
    q_full = np.concatenate([[1.0], table])
    idx = np.searchsorted(-q_full, -u, side="right")
    out = idx.astype(np.int64)
    big = idx > table.size
    if big.any():
        out[big] = np.ceil(c / (math.pi * u[big] ** 2)).astype(np.int64)
    return out


# windowed_ladder_pairs reads at most 8 * count + 32 windows: failure rates
# up to about 7/8 pass.  run_theorem1's windows are 64 n steps long.
_WINDOWS_PER_PAIR = 8
_SPARE_WINDOWS = 32
_WINDOW_MULT = 64


def windowed_ladder_pairs(law: IncrementLaw, n: int, block: int, count: int,
                          seed: int, window_mult: int) -> tuple:
    """(T_block, H_block) read off simulated windows of length window_mult * n.

    Window t is trial t of ``seed``; windows are read in order, a pair comes
    from each window that realizes ``block`` ladder epochs, the windows that
    do not are skipped, and reading stops at the window that delivers the
    ``count``-th pair.  At most 8 * count + 32 windows are read, so window
    failure rates up to about 7/8 pass at any count; the 32 spare windows
    keep a small count from failing on noise.  A shortfall raises.  The
    third value, the resampled fraction, is the share of failed windows
    among those read (the induced conditioning).  This is the generic route
    for lattice laws without a closed ladder-time law; it is windowed, so the
    heavy right tail of the ladder time is truncated at window_mult in scaled
    units.
    """
    width = window_mult * n
    Ts: List[np.ndarray] = []
    Hs: List[np.ndarray] = []
    got = 0
    read = 0
    for S in iter_rows(law, width, seed, _WINDOWS_PER_PAIR * count + _SPARE_WINDOWS):
        cnt = local_time_curve_np(S, "strict")
        ok = np.flatnonzero(cnt[:, -1] >= block)[: count - got]
        idx = np.argmax(cnt[ok] >= block, axis=1)
        Ts.append(idx)
        Hs.append(S[ok, idx])
        got += ok.size
        if got == count:
            read += int(ok[-1]) + 1
            break
        read += len(S)
    if got < count:
        raise InsufficientLadderError(
            f"only {got}/{count} windows realized {block} ladder epochs "
            f"(window {window_mult}n, {read} windows read)")
    return np.concatenate(Ts), np.concatenate(Hs), (read - count) / read


def first_passage_heights(law: IncrementLaw, count: int, cap: int,
                          seed: int) -> tuple:
    """First strictly-positive values of fresh walks, capped at ``cap`` steps.

    Returns (heights array of length ``count``, censored fraction).  Censored
    runs (no ascent within the cap) are replaced by fresh runs; the recorded
    fraction quantifies the induced conditioning.
    """
    heights = np.empty(0)
    attempts = 0
    censored = 0
    stream = 0
    while heights.size < count:
        need = count - heights.size
        batch = int(need * 1.05) + 16
        got = np.full(batch, np.nan)
        S = np.zeros(batch)
        active = np.arange(batch)
        done = 0
        block = 16
        base = derive_seed(seed, stream)
        stream += 1
        sub = 0
        while active.size and done < cap:
            b = min(block, cap - done)
            Z = draw_steps(law, _rng(derive_seed(base, sub)), np.empty((active.size, b)))
            sub += 1
            C = S[active, None] + np.cumsum(Z, axis=1)
            pos = C > 0
            hit = pos.any(axis=1)
            first = np.argmax(pos, axis=1)
            got[active[hit]] = C[hit, first[hit]]
            S[active[~hit]] = C[~hit, -1]
            active = active[~hit]
            done += b
            block = min(block * 2, 1 << 16)
        censored += active.size
        attempts += batch
        ok = got[~np.isnan(got)]
        heights = np.concatenate([heights, ok])
    return heights[:count], censored / max(attempts, 1)


# ---------------------------------------------------------------------------
# run_theorem1: ladder pair scaling


def run_theorem1(config: ExperimentConfig) -> ExperimentReport:
    """Scaled ladder pair against its subordinator limit.

    Per n: sup-distance of the n^{-1} T_{[a_n]} sample against the
    1/2-stable marginal CDF, and mean/stddev of the scaled height H_{[a_n]}
    against the pure-drift target.  Criteria are evaluated at the largest n.

    ``height_sd`` is a one-sided bound on a quantity that is not zero at
    finite n.  On the diffuse route the scaled height sums [a_n] independent
    first ladder heights, so its standard deviation is about
    0.569 [a_n]^{1/2} / sqrt(n) ~ 0.569 n^{-1/4} whatever sigma is (0.569^2
    is the variance of the first ladder height of the standard Gaussian
    walk); on the simple symmetric walk it is exactly 0.  A threshold below
    that value at the largest n of the grid cannot pass.

    On the windowed route (laws without a :func:`first_ascent_tail`: the
    symmetric lattice laws other than the simple symmetric walk) windows are
    ``_WINDOW_MULT`` = 64 times n steps long, and the notes record
    ``resampled_fraction_n{n}``, the share of windows read in trial order
    without [a_n] ladder epochs (see :func:`windowed_ladder_pairs`).  The
    pairs come only from windows with T_{[a_n]} <= 64 n, so T / n is
    compared with the limit law conditioned on [0, 64]: the CDF divided by
    its value at 64 (P(tau > 64) = 0.0704).  On every route a_n comes from
    :func:`~fluctwalk.scaling.norming_constant`.
    """
    config.validate("theorem1")
    law = config.law
    if law.kind == "heavy_tail":
        raise ConfigError("ladder-pair scaling targets are calibrated for the "
                          "finite-variance families; use run_lemma1 for "
                          "heavy-tailed ratio checks")
    if not law.is_symmetric():
        raise ConfigError("asymmetric laws are out of calibrated scope")
    # three sampling routes: T by inverse CDF of the closed first-ascent law
    # with H = [a_n] units (simple symmetric walk) or from first passages
    # (symmetric diffuse laws); windowed simulation for other symmetric
    # lattices (failed windows skipped, truncation recorded)
    sigma = law.sigma()
    closed = first_ascent_tail(law)
    cap = int(config.params["height_cap"])

    notes: Dict[str, object] = {}
    a_ns = norming_constant(law, config.n_grid)
    blocks = [int(a) for a in a_ns]
    if closed is None:
        kept = levy_half_cdf(_WINDOW_MULT)
        target = lambda t: levy_half_cdf(t) / kept
    else:
        target = levy_half_cdf

    if closed is not None and law.is_diffuse():
        pool, cens = first_passage_heights(law, config.trials * max(blocks), cap,
                                           derive_seed(config.seed, 1))
        notes["height_cap"] = cap
        notes["height_censored_fraction"] = cens

    rows = [["n", "a_n", "ks_ladder_time", "height_mean", "height_sd"]]
    for i, n in enumerate(config.n_grid):
        blk = blocks[i]
        c_n = 1.0 / (sigma * math.sqrt(n))  # variance-1 spatial rescale
        if closed is None:
            T_raw, H_raw, resampled = windowed_ladder_pairs(
                law, n, blk, config.trials, derive_seed(config.seed, 100 + i), _WINDOW_MULT)
            T = T_raw / n
            H = H_raw * c_n
            h_mean = float(H.mean())
            h_sd = float(H.std(ddof=1))
            notes[f"resampled_fraction_n{n}"] = resampled
        else:
            rng = _rng(derive_seed(config.seed, 100 + i))
            T = sample_ladder_times(rng, (config.trials, blk), *closed).sum(axis=1) / n
            if law.kind == "lattice":
                h_mean = blk * float(law.lattice_integer_form()[0]) * c_n
                h_sd = 0.0
            else:
                H = pool[: config.trials * blk].reshape(
                    config.trials, blk).sum(axis=1) * c_n
                h_mean = float(H.mean())
                h_sd = float(H.std(ddof=1))
        rows.append([n, a_ns[i], ks_statistic(Sample(T), target), h_mean, h_sd])

    tol = config.tolerances
    criteria = [
        Criterion("ladder_time_ks", rows[-1][2], tol["ks"]),
        Criterion("height_mean_error", abs(rows[-1][3] - BROWNIAN_DRIFT), tol["height_mean"]),
        Criterion("height_sd", rows[-1][4], tol["height_sd"]),
    ]
    return ExperimentReport(config=config.echo(), criteria=criteria,
                            tables={"theorem1": rows}, notes=notes)


# ---------------------------------------------------------------------------
# run_localtime: the local time at the supremum against its exact law and
# against sqrt(2) M


# the bound on every sampled-vs-exact distance over its 0.99 DKW band
_BAND_RATIO = 1.0
# standard errors allowed between the mean end gap and its exact value
_GAP_Z = 4.0
# the median of the limit law of n^{1/4} max_{k<=n} |gap_k|,
# sqrt(v) (sqrt(2) |N|)^{1/2} K: v = 2 Var H_1 = 2 sqrt(2) rho - 1 with
# rho = -zeta(1/2) / sqrt(2 pi), N standard normal, K = sup_{t<=1} |B_t|
# independent of N.  The finite-n median approaches it from below.
_SUP_GAP_MEDIAN = 0.8638926


def record_count_law(n: int) -> np.ndarray:
    """P(R_n = r), r = 0..n, for the strict record count R_n of a symmetric
    walk without ties: C(2n - r, n) 2^{r - 2n}, universal by Sparre
    Andersen's theorem (Majumdar and Ziff, PRL 101, 050601, 2008).

    P_0 = C(2n, n) 4^{-n}, then P_{r+1} = P_r 2 (n - r) / (2n - r), each step
    a product taken in that order; atoms past the float range read 0.
    """
    r = np.arange(n, dtype=np.float64)
    steps = 2.0 * (n - r) / (2 * n - r)
    return np.multiply.accumulate(np.concatenate([[math.comb(2 * n, n) / 4 ** n], steps]))


def run_localtime(config: ExperimentConfig) -> ExperimentReport:
    """The local time at the supremum R_k / a_n against its Brownian limit
    sqrt(2) M, on a centred Gaussian walk.

    One pass of trials to the largest n: each trial's strict record counts
    R_k and running maximum M_k (S_0 = 0 included), read on the prefix
    0..n at every n of the grid, with gap_k = R_k / a_n - sqrt(2) M_k /
    (sigma sqrt(n)).  Each criterion is its largest value over the grid.

    * ``record_exact_ks_over_band``: the KS distance of the sampled R_n from
      :func:`record_count_law`, passed as a weighted sample of its atoms,
      over the 0.99 DKW half-width of the trials; at most 1.
    * ``endpoint_gap_z``: |mean(gap_n) - E gap_n| in standard errors of the
      mean, at most 4.  E gap_n is exact at every n: E R_n = sum_{k<=n}
      C(2k, k) 4^{-k} = (2n + 1) C(2n, n) 4^{-n} - 1 (time reversal and
      Sparre Andersen), and E M_n = sigma sum_{k<=n} (2 pi k)^{-1/2}
      (Spitzer), so sigma cancels.
    * ``sup_gap_excess_over_band``: the share of trials with n^{1/4}
      max_{k<=n} |gap_k| above ``_SUP_GAP_MEDIAN``, less 1/2, over the DKW
      half-width; at most 1.  M_k is the sum of the first R_k ladder
      heights, so the sup gap is a walk of about sqrt(n) centred steps
      (1 - sqrt(2) h_j / sigma) / a_n, whose n^{1/4}-scaled sup tends to
      sqrt(v) (sqrt(2) |N|)^{1/2} K.  The check is one-sided.
    """
    config.validate("localtime")
    law = config.law
    if law.kind != "gaussian" or law.mean != 0.0:
        raise ConfigError("the local time at the supremum is checked on a centred "
                          "Gaussian walk")
    grid, trials = config.n_grid, config.trials
    a_ns = norming_constant(law, grid)
    sigma = law.sigma()
    records, end_gap, sup_gap = (np.empty((len(grid), trials)) for _ in range(3))
    lo = 0
    for S in iter_rows(law, grid[-1], config.seed, trials):
        R = local_time_curve_np(S, "strict")
        M = np.maximum.accumulate(S, axis=1)
        hi = lo + len(S)
        for i, n in enumerate(grid):
            gap = (R[:, :n + 1] / a_ns[i]
                   - math.sqrt(2.0) * M[:, :n + 1] / (sigma * math.sqrt(n)))
            records[i, lo:hi] = R[:, n]
            end_gap[i, lo:hi] = gap[:, n]
            sup_gap[i, lo:hi] = np.abs(gap).max(axis=1)
        lo = hi

    band = dkw_epsilon(trials)
    rows = [["n", "a_n", "record_exact_ks", "dkw_band", "end_gap_mean", "end_gap_exact",
             "end_gap_z", "sup_gap_share_above_median"]]
    for i, (n, a_n) in enumerate(zip(grid, a_ns)):
        p = record_count_law(n)
        atoms = np.flatnonzero(p)
        ks = ks_statistic(Sample(records[i]), Sample(atoms, weights=p[atoms]))
        k = np.arange(1, n + 1, dtype=np.float64)
        exact = (((2 * n + 1) * float(p[0]) - 1.0) / a_n
                 - float(np.sum(k ** -0.5)) / math.sqrt(math.pi * n))
        mean = float(end_gap[i].mean())
        z = abs(mean - exact) / (float(end_gap[i].std(ddof=1)) / math.sqrt(trials))
        share = float(np.mean(n ** 0.25 * sup_gap[i] > _SUP_GAP_MEDIAN))
        rows.append([n, a_n, ks, band, mean, exact, z, share])

    criteria = [
        Criterion("record_exact_ks_over_band", max(r[2] / r[3] for r in rows[1:]),
                  _BAND_RATIO),
        Criterion("endpoint_gap_z", max(r[6] for r in rows[1:]), _GAP_Z),
        Criterion("sup_gap_excess_over_band", max((r[7] - 0.5) / r[3] for r in rows[1:]),
                  _BAND_RATIO),
    ]
    return ExperimentReport(config=config.echo(), criteria=criteria,
                            tables={"localtime": rows})


# ---------------------------------------------------------------------------
# run_lemma1: ladder-height and ladder-time asymptotics


# run_lemma1's fixed windows, in scaled units
_HEIGHT_INTERVAL = (0.5, 1.0)
_RATIO_INTERVALS = ((0.5, 1.0), (1.0, 2.0))
_TIME_TAIL_CUTOFF = 1.0


def run_lemma1(config: ExperimentConfig) -> ExperimentReport:
    """Tail index 1: the ratio of the scaled ladder-height masses on the
    ``_RATIO_INTERVALS``.  Finite variance: the drift constant, the a_n-scaled
    height mass on ``_HEIGHT_INTERVAL`` and, in the notes, a_n P(T_1 > n)
    against the ladder-time tail beyond ``_TIME_TAIL_CUTOFF`` = 1."""
    config.validate("lemma1")
    law = config.law
    notes: Dict[str, object] = {}
    cap = int(config.params["height_cap"])
    count = int(config.params["height_samples"])

    if law.kind == "heavy_tail":
        # normalization-free interval ratios of the ladder-height tail
        (a, b), (a2, b2) = _RATIO_INTERVALS
        n = config.n_grid[-1]
        if law.alpha != 1.0:
            raise ConfigError("ratio targets are calibrated for tail index 1")
        H, cens = first_passage_heights(law, count, cap, derive_seed(config.seed, 3))
        c_n = 1.0 / n
        Hs = H * c_n
        p1 = float(np.mean((Hs > a) & (Hs <= b)))
        p2 = float(np.mean((Hs > a2) & (Hs <= b2)))
        if p2 == 0:
            raise ConfigError("no samples in the comparison interval; raise the budget")
        ratio = p1 / p2
        target = (a ** -0.5 - b ** -0.5) / (a2 ** -0.5 - b2 ** -0.5)
        rows = [["n", "interval1_mass", "interval2_mass", "ratio", "target"],
                [n, p1, p2, ratio, target]]
        criteria = [Criterion("height_tail_ratio_error", abs(ratio / target - 1.0),
                              config.tolerances["ratio_rel"])]
        notes["height_censored_fraction"] = cens
        return ExperimentReport(config=config.echo(), criteria=criteria,
                                tables={"lemma1_ratios": rows}, notes=notes)

    # finite-variance families: drift constant, vanishing height tail, time tail
    closed = first_ascent_tail(law)
    if closed is None:
        raise ConfigError("lemma1 is implemented for the simple symmetric walk "
                          "and symmetric diffuse laws")
    tail, c = closed
    sigma = law.sigma()
    a_ns = norming_constant(law, config.n_grid)

    rows = [["n", "a_n", "an_mean_height", "an_interval_mass", "an_time_tail",
             "time_tail_target"]]
    for i, (n, a_n) in enumerate(zip(config.n_grid, a_ns)):
        c_n = 1.0 / (sigma * math.sqrt(n))
        if law.kind == "lattice":
            mh = a_n * float(law.lattice_integer_form()[0]) * c_n
            mass = 0.0
            notes.setdefault("height_model", "deterministic unit ladder heights")
        else:
            H, cens = first_passage_heights(law, count, cap,
                                            derive_seed(config.seed, 10 + i))
            mh = a_n * float(H.mean()) * c_n
            lo, hi = _HEIGHT_INTERVAL
            mass = a_n * float(np.mean((H * c_n > lo) & (H * c_n <= hi)))
            notes["height_censored_fraction"] = cens
        kc = int(math.ceil(_TIME_TAIL_CUTOFF * n))
        q = float(tail[kc - 1]) if kc <= tail.size else math.sqrt(c / (math.pi * kc))
        nu = a_n * q
        rows.append([n, a_n, mh, mass, nu, half_stable_tau_tail(_TIME_TAIL_CUTOFF)])

    last = rows[-1]
    criteria = [
        Criterion("drift_rel_error", abs(last[2] / BROWNIAN_DRIFT - 1.0),
                  config.tolerances["drift_rel"]),
        Criterion("height_interval_mass", last[3], config.tolerances["interval_mass"]),
    ]
    notes["time_tail_rel_error"] = abs(last[4] / last[5] - 1.0)
    return ExperimentReport(config=config.echo(), criteria=criteria,
                            tables={"lemma1": rows}, notes=notes)


# ---------------------------------------------------------------------------
# run_meander: the chains against the exact law, the exact law against Rayleigh


# the bound on sqrt(n) KS of the exact meander law from Rayleigh: the lattice
# step 2 / sqrt(n) times the largest Rayleigh density e^{-1/2}, approached
# from below (1.2087 at n = 4096); the chains take _BAND_RATIO
_LATTICE_KS_BOUND = 2.0 * math.exp(-0.5)


def run_meander(config: ExperimentConfig) -> ExperimentReport:
    """One weighted chain sample per n, checked against the exact meander
    endpoint law at that n, and that law checked against its Rayleigh limit.

    The chains are weighted by 1 / (P(C_n) V(endpoint)).  The exact law and
    P(C_n) are read in float off one sweep for the grid
    (:func:`~fluctwalk.conditioning.meander_endpoint_floats`; within
    relative 3.2e-12 at n = 4096).  The law enters as a sample of its atoms
    weighted by their probabilities, so both are steps on one lattice and
    take the two-sample KS.
    ``chain_exact_ks_over_band`` divides that KS by the 0.99 DKW half-width
    of the chains' Kish effective size; ``exact_rayleigh_ks_sqrt_n`` is
    sqrt(n) KS(exact law, Rayleigh), seed-free and one-sided: a target
    scaled by 1.05 fails from n = 64 on, one scaled by 0.95 only from
    n = 1024 on.  Each criterion is the largest value over the grid.
    """
    config.validate("meander")
    law = config.law
    if not law.is_simple_symmetric():
        raise ConfigError("the meander experiment is implemented for the simple "
                          "symmetric walk")

    floats = meander_endpoint_floats(law, config.n_grid)
    rows = [["n", "P_Cn", "chain_exact_ks", "dkw_band", "exact_rayleigh_ks_sqrt_n"]]
    for i, n in enumerate(config.n_grid):
        for x in conditioned_states(law, n, config.trials,
                                    derive_seed(config.seed, 200 + i)):
            pass
        p_survival, ys, ps = floats[n]
        chains = Sample(x / math.sqrt(n),
                        weights=meander_weights(law, n, x, p_survival=p_survival))
        exact = Sample(ys / math.sqrt(n), weights=ps)
        rows.append([n, p_survival, ks_statistic(chains, exact),
                     dkw_epsilon(chains.effective_size()),
                     math.sqrt(n) * ks_statistic(exact, rayleigh_cdf)])

    criteria = [
        Criterion("chain_exact_ks_over_band", max(r[2] / r[3] for r in rows[1:]),
                  _BAND_RATIO),
        Criterion("exact_rayleigh_ks_sqrt_n", max(r[4] for r in rows[1:]),
                  _LATTICE_KS_BOUND),
    ]
    return ExperimentReport(config=config.echo(), criteria=criteria,
                            tables={"meander": rows})


# ---------------------------------------------------------------------------
# run_harmonic: survival-renewal products


def run_harmonic(config: ExperimentConfig) -> ExperimentReport:
    """Exact harmonic products a_hat_n P(C_n) (:func:`harmonic_limits`) at
    the largest n against the 1/2-stable tail P(tau > 1), and their change
    over the last doubling of n.  No trials are drawn."""
    config.validate("harmonic")
    rep = harmonic_limits(config.law, config.params["x_grid"], config.n_grid)
    criteria = [
        Criterion("harmonic_product_rel_error",
                  abs(rep.product[-1] / half_stable_tau_tail(1.0) - 1.0),
                  config.tolerances["product_rel"]),
        Criterion("harmonic_last_doubling_change", rep.relative_changes[-1],
                  config.tolerances["doubling_rel"]),
    ]
    return ExperimentReport(config=config.echo(), criteria=criteria,
                            tables={"harmonic": rep.to_csv_rows()})


# `fluctwalk converge <name>` runs RUNS[name], which validates against DECLARED[name]
RUNS = {"theorem1": run_theorem1, "localtime": run_localtime,
        "lemma1": run_lemma1, "meander": run_meander, "harmonic": run_harmonic}
