"""Increment laws and walk-path generation.

A walk is S_0 = 0, S_k = Y_1 + ... + Y_k with i.i.d. steps Y drawn from an
:class:`IncrementLaw`.  Three law families are supported:

* finite-support lattice laws (rational support points and probabilities),
  the substrate for all exact enumeration work;
* Gaussian steps, the diffuse calibration family whose scaling limit is
  Brownian motion;
* symmetric heavy-tailed steps with a prescribed tail index, used for
  stable-limit ratio checks.

Sampling is a pure function of (law, length, master seed, trial):
identical inputs give bit-identical paths.  Every draw comes from a named
stream, :func:`stream` (master, tag, index): numpy's ``SeedSequence`` keys
the master and the purpose tag of :data:`STREAMS`, and ``PCG64DXSM.jumped``
the trial or grid point, so embarrassingly parallel Monte Carlo stays
reproducible regardless of scheduling.

Monte Carlo loops draw their trials with :func:`iter_rows`, as batches of
walks of at most ``_BATCH_STEPS`` = 2^16 steps (about 512 KiB of float64,
so a batch stays in cache) made by :func:`sample_rows`: row i of a batch,
S_0 = 0, ..., S_m, is bit-identical to the cumulative sum of m steps drawn
from ``stream(master, "rows", first + i)``, so no result depends on the
batch size.  :func:`sample_rows` is the one map from a batch of trials to
walks, and :func:`draw_steps` the one map from a law and a generator to
steps.
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
    "STREAMS",
    "draw_steps",
    "iter_rows",
    "sample_rows",
    "stream",
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
        """The law of a JSON law object; any other text is a ParameterError."""
        try:
            obj = json.loads(text)
            if not isinstance(obj, dict):
                raise ParameterError(f"not a law: {text!r} (not a JSON object)")
            kind = obj.get("kind")
            if kind == "lattice":
                return cls.lattice(obj["support"], obj["probs"], obj.get("description", ""))
            if kind == "gaussian":
                return cls.gaussian(obj["mean"], obj["stddev"], obj.get("description", ""))
            if kind == "heavy_tail":
                return cls.heavy_tail(obj["alpha"], obj.get("description", ""))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParameterError(f"not a law: {text!r} ({exc!r})") from None
        raise ParameterError(f"unknown law kind {kind!r}")


# the purposes a master seed draws for; a tag's index is its position
STREAMS = ("rows", "ladder_times", "heights", "chains")
# the advance PCG64DXSM.jumped takes per jump
_JUMP = 0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835
_MOD = 1 << 128


def stream(master: int, tag: str, index: int = 0) -> np.random.Generator:
    """Generator of stream ``index`` of purpose ``tag`` under ``master``.

    It is ``PCG64DXSM(SeedSequence((master, STREAMS.index(tag)))).jumped(index)``:
    numpy's own seeding keys the purpose, and the jump count the trial or
    grid point within it.  An unknown tag is a ParameterError.
    """
    if tag not in STREAMS:
        raise ParameterError(f"unknown stream tag {tag!r}; expected one of {STREAMS}")
    bit_gen = np.random.PCG64DXSM(np.random.SeedSequence((master, STREAMS.index(tag))))
    return np.random.Generator(bit_gen.jumped(index))


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


def _variates(law: IncrementLaw, rng: np.random.Generator):
    """The method of ``rng`` that draws the variates :func:`_to_steps` maps to
    steps of ``law``: normals for a Gaussian law, uniforms otherwise.

    A signed heavy-tailed law then draws one more uniform per step, in C
    order, into its sign array ``negative`` (true below 1/2).
    """
    return rng.standard_normal if law.kind == "gaussian" else rng.random


def _to_steps(law: IncrementLaw, raw: np.ndarray,
              negative: Optional[np.ndarray] = None) -> np.ndarray:
    """Map the variates of :func:`_variates` to steps of ``law`` in place."""
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
    _variates(law, rng)(out=out)
    if negative is not None:
        np.less(rng.random(out.shape), 0.5, out=negative)
    return _to_steps(law, out, negative)


def _advanced(bit_gen, state: dict, s: int, delta: int) -> int:
    """The LCG state that numpy's ``advance(delta)`` reaches from state ``s``
    with the increment of ``state``, a ``bit_gen.state`` dict."""
    state["state"]["state"] = s
    bit_gen.state = state
    bit_gen.advance(delta)
    return bit_gen.state["state"]["state"]


def sample_rows(law: IncrementLaw, length: int, master_seed: int, first: int,
                count: int) -> np.ndarray:
    """Walks of trials first .. first + count - 1 of ``master_seed``, one row each.

    Row i holds S_0 = 0, ..., S_length and equals, bit for bit, the walk of
    the steps that ``stream(master_seed, "rows", first + i)`` draws for
    ``law``.  One bit generator serves the batch: its LCG state is set to
    that of trial first + i, which one multiply-add mod 2^128 takes from
    the state of trial first + i - 1 (the jump, read off numpy's own
    ``advance``), and it draws the row's steps into columns 1..; the whole
    batch is mapped to steps in one pass and summed along each row in place.
    """
    if length < 1 or count < 0 or first < 0:
        raise ParameterError("length must be >= 1, count >= 0 and first >= 0")
    S = np.zeros((count, length + 1))
    negative = np.empty(S.shape, dtype=bool) if _signed(law) else None
    rng = stream(master_seed, "rows")
    bit_gen = rng.bit_generator
    state = bit_gen.state
    seeded = state["state"]["state"]
    # the jump is affine on the LCG state, s -> A s + C mod 2^128: numpy's own
    # advance maps the states 0 and 1 to C and A + C
    C = _advanced(bit_gen, state, 0, _JUMP)
    A = (_advanced(bit_gen, state, 1, _JUMP) - C) % _MOD
    s = _advanced(bit_gen, state, seeded, _JUMP * first % _MOD)
    lcg = state["state"]
    draw = _variates(law, rng)
    for i in range(count):
        lcg["state"] = s
        bit_gen.state = state
        draw(out=S[i, 1:])
        if negative is not None:
            np.less(rng.random(length), 0.5, out=negative[i, 1:])
        s = (A * s + C) % _MOD
    # the step map reshapes a flat array, which on the view S[:, 1:] would be
    # a copy, so it runs on the whole contiguous batch
    _to_steps(law, S, negative)
    S[:, 0] = 0.0
    np.cumsum(S[:, 1:], axis=1, out=S[:, 1:])
    return S


# most steps one batch of rows holds (a batch has at least one row);
# scripts/bench_rows.py times and traces the caps 2^14 .. 2^20
_BATCH_STEPS = 1 << 16


def iter_rows(law: IncrementLaw, length: int, master_seed: int,
              count: int) -> Iterator[np.ndarray]:
    """Walks of trials 0 .. count - 1 of ``master_seed`` as consecutive batches.

    Each batch is a :func:`sample_rows` array of shape (rows, length + 1).
    Batches are drawn only when asked for and grow from 16 rows by doubling
    up to ``_BATCH_STEPS`` = 2^16 steps (at least one row), so a loop that
    stops early draws few spare trials, and a batch of rows shorter than
    2^16 steps is about a 512 KiB float64 array, which stays in cache with
    the temporaries a path functional makes of it.
    """
    cap = max(1, _BATCH_STEPS // max(length, 1))
    lo, rows = 0, 16
    while lo < count:
        step = min(rows, cap, count - lo)
        yield sample_rows(law, length, master_seed, lo, step)
        lo += step
        rows *= 2
