"""Path transformation: the reflected-excursion rebuild and its local time.

The central object is the pathwise transform that rebuilds a walk from the
time-reversed excursions of its reflected process M - S, stacked above the
ladder heights:

    out_i = H_k + (H_{k+1} - S(T_{k+1} - (i - T_k)))   for T_k <= i <= T_{k+1}.

On each complete ladder interval this reverses the excursion about its
endpoint.  The trailing incomplete excursion, which the interval formula
does not define, is emitted as H_last + (M - S)_i: the reflected gap riding
on the last observed ladder height.  Consequences of that window rule, all
exercised by tests:

* the output endpoint always equals 2 * max - last value of the input;
* law-level statements hold on complete ladder intervals, while the trailing
  segment is a window construction whose boundary effect is quantified
  rather than hidden.

The local time at the future minimum of the rebuilt path is the other side
of the local-time identity that ``verify idloc`` certifies; the last column
of the rebuild is the endpoint whose law ``verify h-kernel`` certifies.
Both functions work along the last axis (one path per row) and are tested
row by row against the single-path references in the tests.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

__all__ = [
    "tanaka_transform_np",
    "future_min_local_time_np",
]


def tanaka_transform_np(values: np.ndarray) -> np.ndarray:
    """Rebuild each path from reversed reflected excursions above the ladder.

    Along the last axis (one path per row), same shape as the input.  Index
    i reads a, the last strict ladder epoch at or before i, and b, the first
    one after i, and gets S_a + (S_b - S_{a+b-i}); past the last epoch it
    gets S_a + (S_a - S_i), that is H_last + (M - S).  Output values are
    >= 0 everywhere and strictly positive at indices 1..T_last.  That is the
    association of the single-path loop the tests hold, so rows equal its
    output exactly.
    """
    v = np.asarray(values)
    n = v.shape[-1]
    # int32 indices halve the index memory; rows are far shorter than 2^30
    idx = np.arange(n, dtype=np.int32)
    rec = np.empty(v.shape, dtype=bool)
    rec[..., 0] = True
    np.greater(v[..., 1:], np.maximum.accumulate(v, axis=-1)[..., :-1], out=rec[..., 1:])
    a = np.where(rec, idx, 0)
    np.maximum.accumulate(a, axis=-1, out=a)
    b = np.where(rec, idx, n)
    del rec
    np.minimum.accumulate(b[..., ::-1], axis=-1, out=b[..., ::-1])
    b[..., :-1] = b[..., 1:]  # first epoch at or after i + 1
    b[..., -1] = n
    tail = b == n
    np.copyto(b, a, where=tail)
    j = a + b
    j -= idx
    np.copyto(j, idx, where=tail)
    del tail
    out = np.take_along_axis(v, j, axis=-1)
    del j
    np.subtract(np.take_along_axis(v, b, axis=-1), out, out=out)
    out += np.take_along_axis(v, a, axis=-1)
    return out


def future_min_local_time_np(values: np.ndarray, variant: str = "verbatim") -> np.ndarray:
    """Local time at the future minimum along the last axis (one path per row).

    Counts up-steps from the window's future minimum (one reversed
    ``minimum.accumulate``); the last index is never counted.  The verbatim
    variant takes S_j = min_{i >= j} S_i, the strict one S_j below every
    later value; they differ only on lattice ties.
    """
    v = np.asarray(values)
    suf = np.minimum.accumulate(v[..., ::-1], axis=-1)[..., ::-1]
    cur = v[..., 1:-1]
    if variant == "verbatim":
        rec = cur == suf[..., 1:-1]
    elif variant == "strict":
        rec = cur < suf[..., 2:]
    else:
        raise ParameterError(f"unknown local time variant {variant!r}")
    del suf
    rec &= cur < v[..., 2:]
    out = np.zeros(v.shape, dtype=np.int64)
    np.cumsum(rec, axis=-1, out=out[..., 1:-1])
    if v.shape[-1] > 1:
        out[..., -1] = out[..., -2]
    return out
