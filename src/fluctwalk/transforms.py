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
of the local-time identity that ``verify idloc`` certifies.  The scalar
:func:`tanaka_transform` and :func:`future_min_local_time` take a sequence
of path values and return a tuple; the batched ``_np`` forms, which the
certificate runs, are tested against them row by row.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError
from .fluctuation import ladder_epochs

__all__ = [
    "tanaka_transform",
    "tanaka_transform_np",
    "future_min_local_time",
    "future_min_local_time_np",
]


def tanaka_transform(vals) -> tuple:
    """Rebuild the path from reversed reflected excursions above the ladder.

    Same length as the input.  On complete ladder intervals the interval
    formula holds exactly; past the last observed ladder epoch the output is
    H_last + (M - S).  Output values are >= 0 everywhere and strictly
    positive at indices 1..T_last.
    """
    m = len(vals) - 1
    T = ladder_epochs(vals)
    out = [vals[0]] * (m + 1)
    for k in range(len(T) - 1):
        a, b = T[k], T[k + 1]
        ha = vals[a]
        hb = vals[b]
        for i in range(a, b + 1):
            out[i] = ha + (hb - vals[b - (i - a)])
    a = T[-1]
    h_last = vals[a]
    for i in range(a, m + 1):
        # running max past the last epoch stays at h_last
        out[i] = h_last + (h_last - vals[i])
    return tuple(out)


def tanaka_transform_np(values: np.ndarray) -> np.ndarray:
    """:func:`tanaka_transform` along the last axis (one path per row).

    Index i reads a, the last strict ladder epoch at or before i, and b, the
    first one after i, and gets S_a + (S_b - S_{a+b-i}); past the last epoch
    it gets S_a + (S_a - S_i).  That is the scalar loop's association, so
    rows equal the scalar output exactly.
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


def future_min_local_time(vals, variant: str = "verbatim") -> tuple:
    """Count times the path sits at its future minimum and then steps up.

    Future minima are taken over the finite window; the final index has no
    successor and is never counted.  The verbatim variant uses the weak
    condition S_j = min_{i >= j} S_i; the strict variant requires S_j to be
    strictly below everything after it.  As with the local time at the
    maximum, the two agree on diffuse paths and differ on lattice ties, and
    only the strict count matches the strict ladder structure exactly.
    """
    m = len(vals) - 1
    counts = [0]
    c = 0
    # suffix minima over the window
    suf = list(vals)
    for i in range(m - 1, -1, -1):
        if suf[i + 1] < suf[i]:
            suf[i] = suf[i + 1]
    for j in range(1, m + 1):
        if j < m and vals[j] < vals[j + 1]:
            if variant == "verbatim":
                ok = vals[j] == suf[j]
            elif variant == "strict":
                ok = vals[j] < suf[j + 1]
            else:
                raise ParameterError(f"unknown local time variant {variant!r}")
            if ok:
                c += 1
        counts.append(c)
    return tuple(counts)


def future_min_local_time_np(values: np.ndarray, variant: str = "verbatim") -> np.ndarray:
    """:func:`future_min_local_time` counts along the last axis (one path per row).

    The future minima come from one reversed ``minimum.accumulate``.
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
