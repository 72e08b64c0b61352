"""Increment laws and walk-path generation.

A walk is S_0 = 0, S_k = Y_1 + ... + Y_k with i.i.d. steps Y drawn from an
:class:`IncrementLaw`.  Three law families are supported:

* finite-support lattice laws (rational support points and probabilities),
  the substrate for all exact enumeration work;
* Gaussian steps, the diffuse calibration family whose scaling limit is
  Brownian motion;
* symmetric heavy-tailed steps with a prescribed tail index, used for
  stable-limit ratio checks.

Sampling is a pure function of (law, length, seed): identical inputs give
bit-identical paths.  Per-trial streams derive from a master seed via
:func:`derive_seed`, so embarrassingly parallel Monte Carlo stays
reproducible regardless of scheduling.

Monte Carlo loops draw their trials with :func:`iter_rows`, as batches of
walks of at most ``_BATCH_STEPS`` steps made by :func:`sample_rows`: the
per-trial seeds and PCG64 states of a batch come from one vectorized pass of
numpy's ``SeedSequence`` hash, and row i of a batch, S_0 = 0, ..., S_m, is
bit-identical to ``sample_walk(law, m, derive_seed(master, first + i)).values``,
so no result depends on the batch size.  :func:`sample_rows` is the one map
from a batch of trials to walks, and :func:`draw_steps` the one map from a
law and a generator to steps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .errors import ParameterError

__all__ = [
    "IncrementLaw",
    "WalkPath",
    "derive_seed",
    "draw_steps",
    "iter_rows",
    "sample_rows",
    "sample_steps",
    "sample_walk",
]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    raise ParameterError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class IncrementLaw:
    """Step distribution of a random walk.

    ``kind`` is one of ``"lattice"``, ``"gaussian"``, ``"heavy_tail"``.
    Lattice laws carry exact rational support points and probabilities;
    Gaussian laws carry (mean, stddev); heavy-tailed laws carry the tail
    index alpha in (0, 2] and are sampled by inverse CDF of a fixed
    symmetric stable-like parametrization (see :meth:`describe`).
    """

    kind: str
    support: tuple = ()
    probs: tuple = ()
    mean: float = 0.0
    stddev: float = 1.0
    alpha: float = 1.0
    description: str = ""

    # -- constructors -------------------------------------------------

    @classmethod
    def lattice(cls, support, probs, description="") -> "IncrementLaw":
        sup = tuple(_as_fraction(s) for s in support)
        pr = tuple(_as_fraction(p) for p in probs)
        if len(sup) != len(pr) or not sup:
            raise ParameterError("support and probabilities must be nonempty and equal length")
        if any(p < 0 for p in pr):
            raise ParameterError("lattice probabilities must be nonnegative")
        if sum(pr) != 1:
            raise ParameterError(f"lattice probabilities sum to {sum(pr)}, expected exactly 1")
        if len(set(sup)) != len(sup):
            raise ParameterError("support points must be distinct")
        # zero-mass atoms carry no path: they are dropped, so they cannot
        # set the lattice unit or count as steps
        order = sorted((i for i in range(len(sup)) if pr[i] > 0), key=lambda i: sup[i])
        sup = tuple(sup[i] for i in order)
        pr = tuple(pr[i] for i in order)
        return cls(kind="lattice", support=sup, probs=pr, description=description)

    @classmethod
    def gaussian(cls, mean=0.0, stddev=1.0, description="") -> "IncrementLaw":
        if not (stddev > 0):
            raise ParameterError("gaussian stddev must be positive")
        return cls(kind="gaussian", mean=float(mean), stddev=float(stddev),
                   description=description)

    @classmethod
    def heavy_tail(cls, alpha, description="") -> "IncrementLaw":
        if not (0 < alpha <= 2):
            raise ParameterError("tail index must lie in (0, 2]")
        return cls(kind="heavy_tail", alpha=float(alpha), description=description)

    @classmethod
    def fair_pm1(cls) -> "IncrementLaw":
        return cls.lattice((-1, 1), (Fraction(1, 2), Fraction(1, 2)), "fair +-1")

    @classmethod
    def biased_pm1(cls, p_up) -> "IncrementLaw":
        p = _as_fraction(p_up)
        return cls.lattice((-1, 1), (1 - p, p), f"biased +-1, p_up={p}")

    @classmethod
    def uniform3(cls) -> "IncrementLaw":
        t = Fraction(1, 3)
        return cls.lattice((-1, 0, 1), (t, t, t), "uniform {-1,0,+1}")

    # -- structure queries ---------------------------------------------

    def is_symmetric(self) -> bool:
        if self.kind == "gaussian":
            return self.mean == 0.0
        if self.kind == "heavy_tail":
            return True
        table = dict(zip(self.support, self.probs))
        return all(table.get(-s, Fraction(0)) == p for s, p in table.items())

    def is_simple_symmetric(self) -> bool:
        """Whether this is the fair two-point walk +-unit: a symmetric lattice
        law whose integer steps are exactly {-1, +1}."""
        if self.kind != "lattice" or not self.is_symmetric():
            return False
        return set(self.lattice_integer_form()[1]) == {-1, 1}

    def is_diffuse(self) -> bool:
        return self.kind in ("gaussian", "heavy_tail")

    def has_positive_steps(self) -> bool:
        if self.kind != "lattice":
            return True
        return any(s > 0 for s in self.support)

    def has_negative_steps(self) -> bool:
        if self.kind != "lattice":
            return True
        return any(s < 0 for s in self.support)

    def mean_step(self):
        if self.kind == "lattice":
            return sum(s * p for s, p in zip(self.support, self.probs))
        if self.kind == "gaussian":
            return self.mean
        raise ParameterError("heavy-tailed laws have no finite mean in general")

    def sigma(self) -> float:
        """Standard deviation of one step; a lattice law's from its exact variance."""
        if self.kind == "lattice":
            var = sum(p * s * s for s, p in zip(self.support, self.probs))
            return math.sqrt(float(var - self.mean_step() ** 2))
        if self.kind == "gaussian":
            return self.stddev
        raise ParameterError("heavy-tailed laws have no finite variance in general")

    def lattice_integer_form(self):
        """Return (unit, steps, probs) with integer steps of gcd 1.

        Every support point equals ``step * unit``; walks on this law live on
        the integer lattice scaled by ``unit``, which is what the exact
        enumeration and dynamic-programming code operates on.
        """
        if self.kind != "lattice":
            raise ParameterError("integer form only defined for lattice laws")
        denom = math.lcm(*(s.denominator for s in self.support))
        ints = [int(s * denom) for s in self.support]
        g = math.gcd(*(abs(i) for i in ints if i != 0)) if any(ints) else 1
        g = g or 1
        unit = Fraction(g, denom)
        steps = tuple(i // g for i in ints)
        return unit, steps, self.probs

    # -- serialization ---------------------------------------------------

    def describe(self) -> dict:
        """Manifest entry: full parametrization, exact where applicable."""
        if self.kind == "lattice":
            return {
                "kind": "lattice",
                "support": [str(s) for s in self.support],
                "probs": [str(p) for p in self.probs],
                "description": self.description,
            }
        if self.kind == "gaussian":
            return {"kind": "gaussian", "mean": self.mean, "stddev": self.stddev,
                    "description": self.description}
        return {
            "kind": "heavy_tail",
            "alpha": self.alpha,
            "parametrization": ("exact standard Cauchy, x = tan(pi (u - 1/2))"
                                if self.alpha == 1.0 else
                                "symmetric Pareto, P(|X| > x) = x^-alpha for x >= 1"),
            "description": self.description,
        }

    @classmethod
    def from_json(cls, text: str) -> "IncrementLaw":
        obj = json.loads(text) if isinstance(text, str) else text
        kind = obj.get("kind")
        if kind == "lattice":
            return cls.lattice(obj["support"], obj["probs"], obj.get("description", ""))
        if kind == "gaussian":
            return cls.gaussian(obj["mean"], obj["stddev"], obj.get("description", ""))
        if kind == "heavy_tail":
            return cls.heavy_tail(obj["alpha"], obj.get("description", ""))
        raise ParameterError(f"unknown law kind {kind!r}")


@dataclass(frozen=True)
class WalkPath:
    """A finite walk S_0 = 0, ..., S_m."""

    values: tuple

    def __post_init__(self):
        if len(self.values) == 0 or self.values[0] != 0:
            raise ParameterError("a walk path must start at 0")


# numpy's SeedSequence (O'Neill's seed_seq hash for PCG) on uint32 words
_M32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715
_POOL_SIZE = 4
# PCG64: 128-bit LCG multiplier (pcg64_set_seed steps the state twice)
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_M128 = (1 << 128) - 1


def _words(n: int) -> list:
    """Little-endian uint32 words of ``n`` as SeedSequence reads an int (0 is [0])."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's word hash; each call advances the hash constant."""
    def hash_word(v):
        nonlocal const
        v = v ^ const
        const = const * mult & _M32
        v = v * const & _M32
        return v ^ v >> 16
    return hash_word


def _seed_seq(entropy: list, n_words: int) -> list:
    """``SeedSequence(entropy).generate_state(n_words, np.uint32)``, word by word.

    Each entropy word is a Python int or a uint32 array holding that word for
    a batch of sequences; every operation wraps mod 2**32 either way, so one
    call hashes a whole batch and a Python-int call hashes one sequence.
    """
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        r = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    out_hash = _hasher(_INIT_B, _MULT_B)
    return [out_hash(pool[i % _POOL_SIZE]) for i in range(n_words)]


def _join64(lo, hi):
    if isinstance(lo, int):
        return lo | hi << 32
    return lo.astype(np.uint64) | hi.astype(np.uint64) << 32


def _split_words(values: np.ndarray):
    """Group uint64 values by their SeedSequence word count: (mask, words) pairs."""
    lo = (values & _M32).astype(np.uint32)
    hi = (values >> 32).astype(np.uint32)
    one = hi == 0
    return [(m, w) for m, w in ((one, [lo[one]]), (~one, [lo[~one], hi[~one]]))
            if m.any()]


def _derived_seeds(master_seed: int, first: int, count: int) -> np.ndarray:
    """``derive_seed(master_seed, first + i)`` for i < count, as uint64."""
    if first < 0 or first + count > 1 << 64:
        raise ParameterError("trial indices must lie in [0, 2**64)")
    master = _words(master_seed)
    seeds = np.empty(count, dtype=np.uint64)
    for mask, trial in _split_words(np.arange(first, first + count, dtype=np.uint64)):
        seeds[mask] = _join64(*_seed_seq(master + trial, 2))
    return seeds


def _pcg64_states(seeds: np.ndarray) -> list:
    """``(state, inc)`` of ``PCG64(SeedSequence(seed))`` for every uint64 seed."""
    words = [np.empty(len(seeds), dtype=np.uint32) for _ in range(8)]
    for mask, entropy in _split_words(seeds):
        for dst, w in zip(words, _seed_seq(entropy, 8)):
            dst[mask] = w
    s_hi, s_lo, i_hi, i_lo = (_join64(words[j], words[j + 1]).tolist()
                              for j in range(0, 8, 2))
    states = []
    for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
        inc = ((c << 64 | d) << 1 | 1) & _M128
        states.append((((inc + (a << 64 | b)) * _PCG_MULT + inc) & _M128, inc))
    return states


def derive_seed(master_seed: int, trial_index: int) -> int:
    """Stable per-trial seed derived from (master seed, trial index).

    Equals ``SeedSequence(entropy=(master_seed, trial_index))
    .generate_state(1, np.uint64)[0]``; :func:`sample_rows` derives whole
    batches of these seeds through the same hash.
    """
    return _join64(*_seed_seq(_words(master_seed) + _words(trial_index), 2))


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


# uniforms mapped to lattice steps per piece: bounds the index array
_MAP_PIECE = 1 << 15


def _lattice_steps(law: IncrementLaw, u: np.ndarray) -> np.ndarray:
    """Map uniforms in ``u`` to steps of a lattice law in place.

    The atom index is sum_j (u >= cum_j), which equals
    ``np.searchsorted(cum, u, side="right")`` element for element.
    """
    cum = np.cumsum([float(p) for p in law.probs])
    cum[-1] = 1.0
    sup = np.array([float(s) for s in law.support])
    flat = u.reshape(-1)
    for lo in range(0, flat.size, _MAP_PIECE):
        piece = flat[lo:lo + _MAP_PIECE]
        idx = np.zeros(piece.size, dtype=np.intp)
        for c in cum[:-1]:
            idx += piece >= c
        # indices lie in range; "clip" only skips the buffered copy of "raise"
        np.take(sup, idx, out=piece, mode="clip")
    return u


def _signed(law: IncrementLaw) -> bool:
    """Whether a step of ``law`` takes a second uniform for its sign."""
    return law.kind == "heavy_tail" and law.alpha != 1.0


def _draw_raw(law: IncrementLaw, rng: np.random.Generator, raw: np.ndarray,
              negative: Optional[np.ndarray] = None) -> None:
    """Draw the variates that :func:`_to_steps` maps to steps, in C order.

    Normals for a Gaussian law, uniforms otherwise; a signed heavy-tailed law
    then draws one more uniform per step into the sign array ``negative``.
    """
    if law.kind == "gaussian":
        rng.standard_normal(out=raw)
    else:
        rng.random(out=raw)
    if negative is not None:
        np.less(rng.random(raw.shape), 0.5, out=negative)


def _to_steps(law: IncrementLaw, raw: np.ndarray,
              negative: Optional[np.ndarray] = None) -> np.ndarray:
    """Map the variates of :func:`_draw_raw` to steps of ``law`` in place."""
    if law.kind == "gaussian":
        raw *= law.stddev
        raw += law.mean
        return raw
    if law.kind == "lattice":
        return _lattice_steps(law, raw)
    if law.alpha == 1.0:
        raw -= 0.5
        raw *= np.pi
        return np.tan(raw, out=raw)
    np.subtract(1.0, raw, out=raw)
    raw **= -1.0 / law.alpha
    return np.negative(raw, out=raw, where=negative)


def draw_steps(law: IncrementLaw, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the float64 array ``out`` with i.i.d. steps of ``law`` from ``rng``.

    The one law -> steps map.  Draws run in C order over ``out``; a
    heavy-tailed law with alpha != 1 draws all magnitudes, then all signs.
    """
    negative = np.empty(out.shape, dtype=bool) if _signed(law) else None
    _draw_raw(law, rng, out, negative)
    return _to_steps(law, out, negative)


def sample_steps(law: IncrementLaw, length: int, seed: int) -> np.ndarray:
    """Raw i.i.d. steps as a float array; deterministic in (law, length, seed)."""
    if length < 1:
        raise ParameterError("length must be >= 1")
    return draw_steps(law, _rng(seed), np.empty(length))


def sample_rows(law: IncrementLaw, length: int, master_seed: int, first: int,
                count: int) -> np.ndarray:
    """Walks of trials first .. first + count - 1 of ``master_seed``, one row each.

    Row i holds S_0 = 0, ..., S_length and equals
    ``sample_walk(law, length, derive_seed(master_seed, first + i)).values``
    bit for bit.  The seeds and PCG64 states of the whole batch are derived
    at once; one generator is re-seeded per row through its state and draws
    the row's steps into columns 1.., the whole batch is mapped to steps in
    one pass and summed along each row in place.
    """
    if length < 1 or count < 0:
        raise ParameterError("length must be >= 1 and count >= 0")
    S = np.zeros((count, length + 1))
    negative = np.empty(S.shape, dtype=bool) if _signed(law) else None
    bit_gen = np.random.PCG64(0)
    rng = np.random.Generator(bit_gen)
    states = _pcg64_states(_derived_seeds(master_seed, first, count))
    for i, (state, inc) in enumerate(states):
        bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                         "has_uint32": 0, "uinteger": 0}
        _draw_raw(law, rng, S[i, 1:], None if negative is None else negative[i, 1:])
    # the step map reshapes a flat array, which on the view S[:, 1:] would be
    # a copy, so it runs on the whole contiguous batch
    _to_steps(law, S, negative)
    S[:, 0] = 0.0
    np.cumsum(S[:, 1:], axis=1, out=S[:, 1:])
    return S


# most steps one batch of rows holds (a batch has at least one row)
_BATCH_STEPS = 1 << 20


def iter_rows(law: IncrementLaw, length: int, master_seed: int,
              count: int) -> Iterator[np.ndarray]:
    """Walks of trials 0 .. count - 1 of ``master_seed`` as consecutive batches.

    Each batch is a :func:`sample_rows` array of shape (rows, length + 1).
    Batches are drawn only when asked for and grow from 16 rows by doubling
    up to ``_BATCH_STEPS`` steps (at least one row), so a loop that stops
    early draws few spare trials and a long one makes few calls.
    """
    cap = max(1, _BATCH_STEPS // max(length, 1))
    lo, rows = 0, 16
    while lo < count:
        step = min(rows, cap, count - lo)
        yield sample_rows(law, length, master_seed, lo, step)
        lo += step
        rows *= 2


def sample_walk(law: IncrementLaw, length: int, seed: int) -> WalkPath:
    """Sample a walk of the given length; pure in (law, length, seed)."""
    steps = sample_steps(law, length, seed)
    vals = np.zeros(length + 1)
    np.cumsum(steps, out=vals[1:])
    return WalkPath(values=tuple(vals.tolist()))
