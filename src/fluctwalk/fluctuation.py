"""Local times at the running maximum.

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

:func:`local_time_curve_np` is the one form of both counts: it maps rows of
path values S_0..S_m (a 1-D array is one path) to their counts
Lambda_0..Lambda_m, Lambda_0 = 0.  The strict ladder epochs are the indices
where the strict count rises.  The tests hold the single-path references,
ladder epochs included.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

__all__ = [
    "local_time_curve_np",
]


def local_time_curve_np(values: np.ndarray, variant: str = "verbatim") -> np.ndarray:
    """Vectorized local-time counts along the last axis (one path per row).

    Equivalent row by row to the single-path counts of the tests.
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
