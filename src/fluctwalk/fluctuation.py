"""Local times at the maximum and ladder structure of walk paths.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError
from .increments import path_values

__all__ = [
    "LocalTimeCurve",
    "LadderSequence",
    "RecordsRatio",
    "running_max",
    "local_time_verbatim",
    "local_time_strict",
    "local_time_curve_np",
    "ladder_sequence",
    "ladder_epochs",
    "last_max_index",
    "last_min_index",
    "records_ratio",
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

    def to_csv_rows(self):
        return [(i, c) for i, c in enumerate(self.counts)]


@dataclass(frozen=True)
class LadderSequence:
    """Ladder epochs T_0 = 0 < T_1 < ... and heights H_0 = 0 < H_1 < ...

    ``killed`` is True when the next epoch was not observed within the
    window; whether it is finite beyond the window is undecidable from a
    finite path, so the flag means "not observed in window", never "infinite".
    """

    epochs: tuple
    heights: tuple
    killed: bool
    direction: str  # "ascending" | "descending"

    @property
    def count(self) -> int:
        """Number of realized ladder steps (excluding the trivial zeroth)."""
        return len(self.epochs) - 1

    def to_json(self) -> dict:
        return {
            "epochs": list(self.epochs),
            "heights": [float(h) for h in self.heights],
            "killed": self.killed,
            "direction": self.direction,
        }

    def to_csv_rows(self):
        return list(zip(self.epochs, self.heights))


@dataclass(frozen=True)
class RecordsRatio:
    """Counts of up records of S and of -S over a window, and their ratio."""

    upward: int
    downward: int
    ratio: Optional[float]
    flag: str  # "finite" | "infinite" | "undefined"


def running_max(path):
    """Running maximum M_k = max(S_0..S_k), same length as the path."""
    vals = path_values(path)
    out = []
    m = vals[0]
    for v in vals:
        if v > m:
            m = v
        out.append(m)
    return out


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


def ladder_sequence(path, direction: str = "ascending") -> LadderSequence:
    """All ladder pairs realized within the window.

    T_{k+1} is the first j > T_k with S_j > S_{T_k}; heights are the values
    there.  The descending sequence applies the same recursion to -S (heights
    are then heights of -S, i.e. depths below the origin, reported positive).
    """
    vals = list(path_values(path))
    if direction == "descending":
        vals = [-v for v in vals]
    elif direction != "ascending":
        raise ParameterError(f"unknown direction {direction!r}")
    epochs = ladder_epochs(vals)
    heights = tuple(vals[t] for t in epochs)
    m = len(vals) - 1
    killed = epochs[-1] < m
    return LadderSequence(epochs=tuple(epochs), heights=heights, killed=killed,
                          direction=direction)


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


def last_min_index(path, k: int) -> int:
    """Largest j <= k at which the path touches its running minimum."""
    vals = path_values(path)
    if not (0 <= k <= len(vals) - 1):
        raise ParameterError("index outside the window")
    mn = vals[0]
    last = 0
    for j in range(1, k + 1):
        if vals[j] < mn:
            mn = vals[j]
        if vals[j] == mn:
            last = j
    return last


def records_ratio(path) -> RecordsRatio:
    """Verbatim record counts at the maximum of S and of -S, with ratio."""
    vals = path_values(path)
    up = local_time_verbatim(vals).final
    down = local_time_verbatim([-v for v in vals]).final
    if down > 0:
        return RecordsRatio(up, down, up / down, "finite")
    if up > 0:
        return RecordsRatio(up, down, None, "infinite")
    return RecordsRatio(up, down, None, "undefined")
