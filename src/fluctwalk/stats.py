"""Empirical-distribution statistics for the convergence experiments.

Kolmogorov-Smirnov sup-distances (one- and two-sample, with optional
importance weights), distribution-free confidence envelopes, and a
monotone-trend summary.  No p-value machinery: acceptance thresholds
are explicit sup-distances plus the assumption-free envelope

    epsilon(N, delta) = sqrt(ln(2/delta) / (2 N)),

with the effective N of a weighted sample taken as (sum w)^2 / sum w^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import InputError, ParameterError

__all__ = [
    "Sample",
    "KSReport",
    "ks_statistic",
    "TrendReport",
    "trend_test",
    "dkw_epsilon",
    "ecdf_points",
]


@dataclass
class Sample:
    """Real-valued observations, optionally importance-weighted."""

    values: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.shape != self.values.shape:
                raise ParameterError("weights must match values in shape")
            if not (w > 0).all() or w.sum() <= 0:
                raise ParameterError("weights must be positive with positive sum")
            object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return int(self.values.size)

    def effective_size(self) -> float:
        if self.weights is None:
            return float(self.size)
        s = self.weights.sum()
        return float(s * s / np.square(self.weights).sum())


def dkw_epsilon(n_effective: float, confidence: float = 0.99) -> float:
    """Distribution-free ECDF envelope half-width at the given confidence."""
    if not (0 < confidence < 1):
        raise ParameterError("confidence must lie in (0, 1)")
    delta = 1 - confidence
    return math.sqrt(math.log(2 / delta) / (2 * n_effective))


def ecdf_points(sample: Sample) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted breakpoints and right-continuous ECDF values (weight-aware)."""
    if sample.size == 0:
        raise InputError("empty sample")
    order = np.argsort(sample.values, kind="mergesort")
    xs = sample.values[order]
    w = np.ones_like(xs) if sample.weights is None else sample.weights[order]
    cum = np.cumsum(w) / w.sum()
    # collapse ties to the last cumulative value at each distinct point
    keep = np.append(xs[1:] != xs[:-1], True)
    return xs[keep], cum[keep]


@dataclass(frozen=True)
class KSReport:
    statistic: float
    n1: float
    n2: Optional[float]
    dkw_epsilon: float


# the confidence of every KS envelope
_CONFIDENCE = 0.99


def ks_statistic(sample: Sample, reference: Union[Sample, Callable]) -> KSReport:
    """Sup-distance between ECDFs, or between an ECDF and a reference CDF.

    Against a CDF callable the sup is evaluated at sample breakpoints from
    both sides of each jump, which is exact for step functions.  The
    envelope half-width uses the effective sample size, so weighted samples
    are handled uniformly.  The envelope is at confidence 0.99.
    """
    if sample.size == 0:
        raise InputError("empty sample")
    xs, F1 = ecdf_points(sample)
    n1 = sample.effective_size()
    if callable(reference):
        ref = np.asarray(reference(xs), dtype=np.float64)
        lo = np.concatenate([[0.0], F1[:-1]])
        d = float(np.max(np.maximum(np.abs(ref - F1), np.abs(ref - lo))))
        return KSReport(d, n1, None, dkw_epsilon(n1, _CONFIDENCE))
    if reference.size == 0:
        raise InputError("empty reference sample")
    ys, F2 = ecdf_points(reference)
    n2 = reference.effective_size()
    grid = np.union1d(xs, ys)
    e1 = np.concatenate([[0.0], F1])[np.searchsorted(xs, grid, side="right")]
    e2 = np.concatenate([[0.0], F2])[np.searchsorted(ys, grid, side="right")]
    d = float(np.max(np.abs(e1 - e2)))
    n_eff = n1 * n2 / (n1 + n2)
    return KSReport(d, n1, n2, dkw_epsilon(n_eff, _CONFIDENCE))


@dataclass(frozen=True)
class TrendReport:
    violations: int
    ratio: float
    values: tuple

    def to_json(self) -> dict:
        return {"violations": self.violations, "ratio": self.ratio,
                "values": list(self.values)}


def trend_test(series) -> TrendReport:
    """Count strict-decrease violations and report last/first shrinkage.

    ``series`` is a sequence of (n, value) pairs, at least three of them,
    with n increasing.
    """
    pts = list(series)
    if len(pts) < 3:
        raise InputError("trend test needs at least 3 points")
    ns = [p[0] for p in pts]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ParameterError("trend-test indices must be strictly increasing")
    vals = [float(p[1]) for p in pts]
    violations = sum(1 for a, b in zip(vals, vals[1:]) if not (b < a))
    if vals[0] == 0:
        ratio = 0.0 if vals[-1] == 0 else math.inf
    else:
        ratio = vals[-1] / vals[0]
    return TrendReport(violations=violations, ratio=ratio, values=tuple(vals))
