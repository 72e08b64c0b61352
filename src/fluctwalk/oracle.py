"""Exact enumeration oracle for finite-support lattice walks.

Enumerates all increment sequences of a lattice walk with exact
probabilities, and pushes any path functional forward to its exact
distribution.  Floating point never enters: outcome keys are increment index
sequences (not real values), path values are integers on the lattice spanned
by the support, and every returned mass is a :class:`fractions.Fraction`.

Internally a lattice law's exact mass is an integer numerator over D**k
(:func:`integer_law`); the path DFS (:func:`iter_paths`) and the level sweep
(:func:`lattice_sweep`) behind every exact lattice recursion in the package
yield those integers, and Fractions are built only in returned values.

This module is the certification substrate for the package's identity
checks: a total-variation distance of exactly zero between two enumerated
distributions is a proof over the enumerated window, not a numerical
coincidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, Iterator, Tuple

import numpy as np

from .errors import BudgetError, ParameterError
from .increments import IncrementLaw

__all__ = [
    "ExactDistribution",
    "integer_law",
    "lattice_sweep",
    "iter_paths",
    "exact_functional_distribution",
    "distribution_equality",
]

DEFAULT_BUDGET = 2**24


@dataclass
class ExactDistribution:
    """Finite map from outcome to exact rational probability."""

    atoms: Dict[Hashable, Fraction]

    def total(self) -> Fraction:
        return sum(self.atoms.values(), Fraction(0))

    def validate(self) -> None:
        if any(p <= 0 for p in self.atoms.values()):
            raise ParameterError("all atom probabilities must be positive")
        if self.total() != 1:
            raise ParameterError(f"atom probabilities sum to {self.total()}, expected 1")


def integer_law(law: IncrementLaw):
    """Integer form of a lattice law's exact mass: (unit, live, D).

    ``live`` lists (support index, integer step, numerator) for every atom,
    with P(step) = numerator / D and D the least common denominator; k steps
    then carry integer weights over D**k.
    """
    if law.kind != "lattice":
        raise ParameterError("exact enumeration requires a finite-support lattice law")
    unit, steps, probs = law.lattice_integer_form()
    D = math.lcm(*(p.denominator for p in probs))
    live = [(i, s, int(p * D)) for i, (s, p) in enumerate(zip(steps, probs))]
    return unit, live, D


def lattice_sweep(law: IncrementLaw, kmax: int, keep: int = 0, exact: bool = True):
    """Push the law's integer weights forward one step at a time, k = 1..kmax.

    Level lo + j carries weight ``weights[j]`` (a numpy object array of
    Python ints) over D**k.  Yields (k, lo, weights, D) after each step and
    *before* the kill, so an absorbing caller reads the mass that leaves;
    then ``keep`` = +1 drops levels below 0 and -1 drops levels above 0
    (0 keeps every level).  The arrays are fresh each step.

    ``exact=False`` runs the same loop in float64: each atom weighs its
    probability numerator / D, the weights are probabilities and the
    yielded D is 1, so ``weights.sum() / D**k`` reads the same in both
    forms.  Every term is nonnegative, so nothing cancels: with r atoms,
    each float weight after k steps is within relative (r + 1) k u of the
    exact one (u = 2**-53; the rounded probabilities, one product and r - 1
    sums per step), and a sum of L of them adds (L - 1) u.  Weights that
    underflow to subnormals or 0 add at most L 2**-1074 absolutely.
    """
    _, live, D = integer_law(law)
    if not exact:
        live = [(i, s, a / D) for i, s, a in live]
        D = 1
    smin = min(s for _, s, _ in live)
    span = max(s for _, s, _ in live) - smin
    w = np.ones(1, dtype=object if exact else np.float64)
    lo = 0
    for k in range(1, kmax + 1):
        n = len(w)
        nw = np.zeros(n + span, dtype=w.dtype)
        for _, s, a in live:
            nw[s - smin: s - smin + n] += w if a == 1 else w * a
        w, lo = nw, lo + smin
        yield k, lo, w, D
        if keep > 0 and lo < 0:
            w, lo = w[-lo:], 0
        elif keep < 0 and lo + len(w) > 1:
            w = w[:max(0, 1 - lo)]


def iter_paths(law: IncrementLaw, length: int) -> Iterator[Tuple[tuple, tuple, int]]:
    """Yield (increment index key, integer path values, integer weight).

    A path has probability weight / D**length, with D from
    :func:`integer_law` (the D that :func:`lattice_sweep` yields).
    Depth-first over increment choices in lexicographic order, so functionals
    can stream without all paths being materialized.  Prefixes are shared:
    a choice change at depth j recomputes the values and weights from depth j
    on only.  Path values are on the integer lattice of the law's support;
    multiply by the unit from ``lattice_integer_form`` to recover rational
    values.  More than ``DEFAULT_BUDGET`` paths raise a BudgetError.
    """
    if length < 0:
        raise ParameterError("length must be >= 0")
    _, live, _ = integer_law(law)
    r = len(live)
    n_paths = r ** length
    if n_paths > DEFAULT_BUDGET:
        raise BudgetError(f"{n_paths} paths exceed the enumeration budget {DEFAULT_BUDGET}")
    choice = [0] * length
    keys = [0] * length
    vals = [0] * (length + 1)
    nums = [1] * (length + 1)
    j = 0
    while True:
        for d in range(j, length):
            keys[d], s, a = live[choice[d]]
            vals[d + 1] = vals[d] + s
            nums[d + 1] = nums[d] * a
        yield tuple(keys), tuple(vals), nums[length]
        j = length - 1
        while j >= 0 and choice[j] == r - 1:
            choice[j] = 0
            j -= 1
        if j < 0:
            return
        choice[j] += 1


def exact_functional_distribution(law: IncrementLaw, length: int,
                                  functional) -> ExactDistribution:
    """Exact pushforward of the law of the length-step path under ``functional``.

    The functional receives the integer path values of each enumerated path
    and must return a hashable result.  Paths stream without being stored;
    their integer weights are summed per result and divided once by
    D**length.
    """
    out: Dict[Hashable, int] = {}
    for _, vals, c in iter_paths(law, length):
        y = functional(vals)
        out[y] = out.get(y, 0) + c
    Dm = integer_law(law)[2] ** length
    result = ExactDistribution({y: Fraction(c, Dm) for y, c in out.items()})
    result.validate()
    return result


def distribution_equality(d1: ExactDistribution, d2: ExactDistribution) -> Fraction:
    """Exact total-variation distance (1/2) sum |d1 - d2| over all outcomes."""
    keys = set(d1.atoms) | set(d2.atoms)
    z = Fraction(0)
    diff = sum((abs(d1.atoms.get(k, z) - d2.atoms.get(k, z)) for k in keys), z)
    return diff / 2
