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

from .conditioning import (conditioned_states, harmonic_limits, meander_weights,
                           survival_sequence)
from .errors import BudgetError, ConfigError, InsufficientLadderError
from .increments import IncrementLaw, derive_seed, draw_steps, iter_rows, _rng
from .limit_laws import (BROWNIAN_DRIFT, half_stable_tau_tail, levy_half_cdf,
                         rayleigh_cdf)
from .fluctuation import local_time_curve_np
from .scaling import check_bilateral, norming_constant, positivity_rule
from .stats import Sample, ks_statistic, trend_test

__all__ = [
    "DECLARED",
    "ExperimentConfig",
    "Criterion",
    "ExperimentReport",
    "gaussian_norming",
    "run_theorem1",
    "run_localtime_stability",
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
                     {"height_cap": 20_000, "window_mult": 64}),
    ExperimentConfig("localtime", IncrementLaw.gaussian(), [2 ** q for q in range(6, 11)],
                     None, None, {"violations": 1, "ratio": 0.6},
                     {"base_resolution": 2 ** 13, "paths": 100, "variant": "verbatim"}),
    ExperimentConfig("lemma1", IncrementLaw.gaussian(), [512, 2048], None, None,
                     {"drift_rel": 0.05, "interval_mass": 0.03, "ratio_rel": 0.15},
                     {"height_samples": 50_000, "height_cap": 20_000,
                      "interval": (0.5, 1.0), "interval1": (0.5, 1.0),
                      "interval2": (1.0, 2.0), "time_tail_cutoff": 1.0}),
    ExperimentConfig("meander", IncrementLaw.fair_pm1(), [256, 1024], 4000, None,
                     {"endpoint_ks": 0.04, "cross_method_ks": 0.02},
                     {"cross_check_n": 32, "cross_check_trials": 20_000}),
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


def gaussian_norming(n: int) -> float:
    """a_n for any symmetric diffuse law: (1 - e^{-1/n})^{-1/2}."""
    return (1.0 - math.exp(-1.0 / n)) ** -0.5


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
# up to about 7/8 pass
_WINDOWS_PER_PAIR = 8
_SPARE_WINDOWS = 32


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
    against the pure-drift target.  Criteria are evaluated at the largest n;
    a trend row tracks the sup-distances across the grid.

    ``height_sd`` is a one-sided bound on a quantity that is not zero at
    finite n.  On the diffuse route the scaled height sums [a_n] independent
    first ladder heights, so its standard deviation is about
    0.569 [a_n]^{1/2} / sqrt(n) ~ 0.569 n^{-1/4} whatever sigma is (0.569^2
    is the variance of the first ladder height of the standard Gaussian
    walk); on the simple symmetric walk it is exactly 0.  A threshold below
    that value at the largest n of the grid cannot pass.

    On the windowed route (laws without a :func:`first_ascent_tail`: the
    symmetric lattice laws other than the simple symmetric walk) the notes
    record ``resampled_fraction_n{n}``: the share of windows without [a_n]
    ladder epochs among those read, in trial order, up to the window that
    delivered the last pair (see :func:`windowed_ladder_pairs`).  On every
    route a_n comes from :func:`~fluctwalk.scaling.positivity_rule`.
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
    window_mult = int(config.params["window_mult"])

    notes: Dict[str, object] = {}
    rule = positivity_rule(law)
    a_ns = [norming_constant(rule, n, 1e-9) for n in config.n_grid]
    blocks = [int(a) for a in a_ns]

    if closed is not None and law.is_diffuse():
        pool, cens = first_passage_heights(law, config.trials * max(blocks), cap,
                                           derive_seed(config.seed, 1))
        notes["height_cap"] = cap
        notes["height_censored_fraction"] = cens

    rows = [["n", "a_n", "ks_ladder_time", "height_mean", "height_sd"]]
    ks_series = []
    for i, n in enumerate(config.n_grid):
        blk = blocks[i]
        c_n = 1.0 / (sigma * math.sqrt(n))  # variance-1 spatial rescale
        if closed is None:
            T_raw, H_raw, resampled = windowed_ladder_pairs(
                law, n, blk, config.trials, derive_seed(config.seed, 100 + i),
                window_mult=window_mult)
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
        ks = ks_statistic(Sample(T), levy_half_cdf).statistic
        rows.append([n, a_ns[i], ks, h_mean, h_sd])
        ks_series.append((n, ks))

    tol = config.tolerances
    criteria = [
        Criterion("ladder_time_ks", rows[-1][2], tol["ks"]),
        Criterion("height_mean_error", abs(rows[-1][3] - BROWNIAN_DRIFT), tol["height_mean"]),
        Criterion("height_sd", rows[-1][4], tol["height_sd"]),
    ]
    if len(ks_series) >= 3:
        tr = trend_test(ks_series)
        notes["ks_trend"] = tr.to_json()
    return ExperimentReport(config=config.echo(), criteria=criteria,
                            tables={"theorem1": rows}, notes=notes)


# ---------------------------------------------------------------------------
# run_localtime_stability: nested skeletons


def run_localtime_stability(config: ExperimentConfig) -> ExperimentReport:
    """Cauchy-style stability of normalized local times on nested skeletons.

    A fine base walk is subsampled at every n of a dyadic grid; successive
    normalized local-time curves are compared in sup norm on the shared
    window.  The median discrepancy per comparison must trend down.
    """
    config.validate("localtime")
    law = config.law
    if law.kind != "gaussian" or law.mean != 0.0:
        raise ConfigError("skeleton stability uses a centred Gaussian base walk")
    N = int(config.params["base_resolution"])
    paths = int(config.params["paths"])
    variant = config.params["variant"]
    if N & (N - 1):
        raise ConfigError("base resolution must be a power of two")
    for n in config.n_grid:
        if n & (n - 1) or N % n:
            raise ConfigError("n grid must be dyadic and divide the base resolution")
    if config.n_grid[-1] > N:
        raise ConfigError("n grid exceeds the base resolution")

    discrepancies = {n: [] for n in config.n_grid[:-1]}
    base_law = IncrementLaw.gaussian(0.0, 1.0 / math.sqrt(N))
    for S in iter_rows(base_law, N, config.seed, paths):
        lam = {n: local_time_curve_np(S[:, :: N // n], variant) for n in config.n_grid}
        for n in config.n_grid[:-1]:
            if 2 * n not in lam:
                continue
            j = np.arange(2 * n + 1)
            c1 = lam[n][:, j // 2] / gaussian_norming(n)
            c2 = lam[2 * n] / gaussian_norming(2 * n)
            discrepancies[n].extend(np.max(np.abs(c1 - c2), axis=1).tolist())

    rows = [["n", "n_next", "median_sup_discrepancy"]]
    series = []
    for n in config.n_grid[:-1]:
        if discrepancies[n]:
            med = float(np.median(discrepancies[n]))
            rows.append([n, 2 * n, med])
            series.append((n, med))
    if len(series) < 3:
        raise ConfigError("need at least three dyadic comparisons for the trend")
    tr = trend_test(series)
    criteria = [
        Criterion("median_trend_violations", tr.violations,
                  config.tolerances["violations"]),
        Criterion("median_final_over_initial", tr.ratio, config.tolerances["ratio"]),
    ]
    return ExperimentReport(config=config.echo(), criteria=criteria,
                            tables={"localtime_stability": rows},
                            notes={"trend": tr.to_json()})


# ---------------------------------------------------------------------------
# run_lemma1: ladder-height and ladder-time asymptotics


def run_lemma1(config: ExperimentConfig) -> ExperimentReport:
    config.validate("lemma1")
    law = config.law
    notes: Dict[str, object] = {}
    cap = int(config.params["height_cap"])
    count = int(config.params["height_samples"])

    if law.kind == "heavy_tail":
        # normalization-free interval ratios of the ladder-height tail
        a, b = config.params["interval1"]
        a2, b2 = config.params["interval2"]
        n = config.n_grid[-1]
        H, cens = first_passage_heights(law, count, cap, derive_seed(config.seed, 3))
        if law.alpha != 1.0:
            raise ConfigError("ratio targets are calibrated for tail index 1")
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
    rule = positivity_rule(law)
    c_tail = float(config.params["time_tail_cutoff"])

    rows = [["n", "a_n", "an_mean_height", "an_interval_mass", "an_time_tail",
             "time_tail_target"]]
    for i, n in enumerate(config.n_grid):
        a_n = norming_constant(rule, n, 1e-9)
        c_n = 1.0 / (sigma * math.sqrt(n))
        if law.kind == "lattice":
            mh = a_n * float(law.lattice_integer_form()[0]) * c_n
            mass = 0.0
            notes.setdefault("height_model", "deterministic unit ladder heights")
        else:
            H, cens = first_passage_heights(law, count, cap,
                                            derive_seed(config.seed, 10 + i))
            mh = a_n * float(H.mean()) * c_n
            lo, hi = config.params["interval"]
            mass = a_n * float(np.mean((H * c_n > lo) & (H * c_n <= hi)))
            notes["height_censored_fraction"] = cens
        kc = int(math.ceil(c_tail * n))
        q = float(tail[kc - 1]) if kc <= tail.size else math.sqrt(c / (math.pi * kc))
        nu = a_n * q
        rows.append([n, a_n, mh, mass, nu, half_stable_tau_tail(c_tail)])

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
# run_meander: endpoint law and cross-method agreement


def pm1_meander_endpoints_rejection(n: int, count: int, seed: int,
                                    budget_factor: int = 64) -> np.ndarray:
    """Endpoints of exact-law meanders by vectorized rejection."""
    out = []
    got = 0
    drawn = 0
    stream = 0
    while got < count and stream < budget_factor:
        rng = _rng(derive_seed(seed, stream))
        stream += 1
        batch = max(1024, int((count - got) * 8))
        steps = np.where(rng.random((batch, n)) < 0.5, 1, -1)
        S = np.cumsum(steps, axis=1)
        ok = S.min(axis=1) >= 0
        out.append(S[ok, -1])
        got += int(ok.sum())
        drawn += batch
    if got < count:
        raise BudgetError("rejection budget exhausted",
                          acceptance_rate=got / max(1, drawn))
    return np.concatenate(out)[:count]


def run_meander(config: ExperimentConfig) -> ExperimentReport:
    """Meander endpoint against its limit law, plus cross-method agreement.

    The reweighted conditioned walk supplies endpoint samples at every n of
    the grid (weights 1 / (P(C_n) V(endpoint)), exact survival recursion);
    rejection sampling is the ground truth at the small cross-check horizon.
    """
    config.validate("meander")
    law = config.law
    if not law.is_simple_symmetric():
        raise ConfigError("the meander experiment is implemented for the simple "
                          "symmetric walk")

    n_small = int(config.params["cross_check_n"])
    small_trials = int(config.params["cross_check_trials"])

    surv = survival_sequence(law, list(config.n_grid) + [n_small])

    rows = [["n", "P_Cn", "weighted_endpoint_ks"]]
    prev_sample = None
    stability = [["n_prev", "n", "two_sample_ks"]]
    ks_final = None
    for i, n in enumerate(config.n_grid):
        for x in conditioned_states(law, n, config.trials,
                                    derive_seed(config.seed, 200 + i)):
            pass
        w = meander_weights(law, n, x, p_survival=surv[n])
        s = Sample(x / math.sqrt(n), weights=w)
        ks = ks_statistic(s, rayleigh_cdf).statistic
        rows.append([n, float(surv[n]), ks])
        if prev_sample is not None:
            stability.append([config.n_grid[i - 1], n,
                              ks_statistic(prev_sample, s).statistic])
        prev_sample = s
        ks_final = ks

    # cross-method check at the small horizon
    xr = pm1_meander_endpoints_rejection(n_small, small_trials,
                                         derive_seed(config.seed, 300))
    for xc in conditioned_states(law, n_small, small_trials,
                                 derive_seed(config.seed, 301)):
        pass
    wc = meander_weights(law, n_small, xc, p_survival=surv[n_small])
    cross = ks_statistic(Sample(xr.astype(np.float64)),
                         Sample(xc.astype(np.float64), weights=wc)).statistic

    criteria = [
        Criterion("weighted_endpoint_ks", ks_final, config.tolerances["endpoint_ks"]),
        Criterion("cross_method_ks", cross, config.tolerances["cross_method_ks"]),
    ]
    return ExperimentReport(
        config=config.echo(), criteria=criteria,
        tables={"meander": rows, "meander_stability": stability},
        notes={"cross_check_n": n_small, "cross_check_trials": small_trials})


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
RUNS = {"theorem1": run_theorem1, "localtime": run_localtime_stability,
        "lemma1": run_lemma1, "meander": run_meander, "harmonic": run_harmonic}
