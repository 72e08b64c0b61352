"""Local times at the running maximum, ladder epochs and the last maximum.

Two counting conventions for the local time at the running maximum are
first-class citizens:

* the *verbatim* count: steps j with S_{j-1} < S_j and S_j = max_{i<=j} S_i
  (weak records reached by an up-step);
* the *strict* count: steps j with S_j > max_{i<j} S_i.

On diffuse laws the two agree almost surely.  On lattice laws they differ on
paths that revisit the running maximum from below, and only the strict count
inverts the ladder-time sequence exactly (strict count at the k-th ladder
epoch equals k on every path).  Exact certification work therefore uses the
strict variant on lattice laws; convergence experiments on diffuse laws may
use either.

The scalar counts are the references that the batched
:func:`local_time_curve_np` is tested against; the reversal certificate reads
:func:`ladder_epochs`, :func:`local_time_strict` and :func:`last_max_index`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .increments import path_values

__all__ = [
    "LocalTimeCurve",
    "local_time_verbatim",
    "local_time_strict",
    "local_time_curve_np",
    "ladder_epochs",
    "last_max_index",
]


@dataclass(frozen=True)
class LocalTimeCurve:
    """Nondecreasing integer counts Lambda_0..Lambda_m with Lambda_0 = 0."""

    counts: tuple
    variant: str  # "verbatim" | "strict"

    def __getitem__(self, k):
        return self.counts[k]

    def __len__(self):
        return len(self.counts)

    @property
    def final(self) -> int:
        return self.counts[-1]


def local_time_verbatim(path) -> LocalTimeCurve:
    """Count up-steps landing on the running maximum (weak records)."""
    vals = path_values(path)
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
    return LocalTimeCurve(counts=tuple(counts), variant="verbatim")


def local_time_strict(path) -> LocalTimeCurve:
    """Count strict running-max records; inverse of the ladder epochs."""
    vals = path_values(path)
    counts = [0]
    mx = vals[0]
    c = 0
    for v in vals[1:]:
        if v > mx:
            c += 1
            mx = v
        counts.append(c)
    return LocalTimeCurve(counts=tuple(counts), variant="strict")


def local_time_curve_np(values: np.ndarray, variant: str = "verbatim") -> np.ndarray:
    """Vectorized local-time counts along the last axis (one path per row).

    Equivalent row by row to the scalar functions above; cross-checked in
    tests.
    """
    v = np.asarray(values)
    m = np.maximum.accumulate(v, axis=-1)
    if variant == "verbatim":
        rec = np.diff(v, axis=-1) > 0
        rec &= v[..., 1:] == m[..., 1:]
    elif variant == "strict":
        rec = v[..., 1:] > m[..., :-1]
    else:
        raise ParameterError(f"unknown local time variant {variant!r}")
    del m
    out = np.empty(v.shape, dtype=np.int64)
    out[..., 0] = 0
    np.cumsum(rec, axis=-1, out=out[..., 1:])
    return out


def ladder_epochs(vals) -> list:
    """Strict ascending ladder epochs [0, T_1, ..., T_K] within the window."""
    epochs = [0]
    mx = vals[0]
    for j in range(1, len(vals)):
        if vals[j] > mx:
            epochs.append(j)
            mx = vals[j]
    return epochs


def last_max_index(path, k: int) -> int:
    """Largest j <= k at which the path touches its running maximum."""
    vals = path_values(path)
    if not (0 <= k <= len(vals) - 1):
        raise ParameterError("index outside the window")
    mx = vals[0]
    last = 0
    for j in range(1, k + 1):
        if vals[j] > mx:
            mx = vals[j]
        if vals[j] == mx:
            last = j
    return last
