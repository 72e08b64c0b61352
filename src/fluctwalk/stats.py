"""Empirical-distribution statistics for the convergence experiments.

Kolmogorov-Smirnov sup-distances (one- and two-sample, with optional
importance weights) and the distribution-free confidence envelope.  No
p-value machinery: acceptance thresholds are explicit sup-distances or
ratios to the assumption-free envelope at confidence 0.99,

    epsilon(N) = sqrt(ln(2/delta) / (2 N)),  delta = 1 - 0.99,

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
    "ks_statistic",
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


# the confidence level of every envelope
_LEVEL = 0.99


def dkw_epsilon(n_effective: float) -> float:
    """Distribution-free ECDF envelope half-width at confidence 0.99."""
    return math.sqrt(math.log(2 / (1 - _LEVEL)) / (2 * n_effective))


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


def ks_statistic(sample: Sample, reference: Union[Sample, Callable]) -> float:
    """Sup-distance between ECDFs, or between an ECDF and a reference CDF.

    Against a CDF callable the sup is evaluated at sample breakpoints from
    both sides of each jump, which is exact for a continuous reference CDF
    against the step ECDF.  Two step laws on one lattice take the
    two-sample form, the reference passed as a weighted Sample (an exact
    law as its atoms weighted by their probabilities).  Callers compare the
    distance with :func:`dkw_epsilon` of the sample they drew.
    """
    if sample.size == 0:
        raise InputError("empty sample")
    xs, F1 = ecdf_points(sample)
    if callable(reference):
        ref = np.asarray(reference(xs), dtype=np.float64)
        lo = np.concatenate([[0.0], F1[:-1]])
        return float(np.max(np.maximum(np.abs(ref - F1), np.abs(ref - lo))))
    if reference.size == 0:
        raise InputError("empty reference sample")
    ys, F2 = ecdf_points(reference)
    grid = np.union1d(xs, ys)
    e1 = np.concatenate([[0.0], F1])[np.searchsorted(xs, grid, side="right")]
    e2 = np.concatenate([[0.0], F2])[np.searchsorted(ys, grid, side="right")]
    return float(np.max(np.abs(e1 - e2)))
