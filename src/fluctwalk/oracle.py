"""Exact enumeration oracle for finite-support lattice walks.

Enumerates all increment sequences of a lattice walk with exact
probabilities.  Floating point never enters: path values are integers on the
lattice spanned by the support, and every returned mass is a
:class:`fractions.Fraction`.

Internally a lattice law's exact mass is an integer numerator over D**k
(:func:`integer_law`); the path matrix (:func:`path_matrix`, every path one
int64 row) and the level sweep (:func:`lattice_sweep`) behind every exact
lattice recursion in the package hold those integers, and Fractions are
built only in returned values.  A certificate turns the path matrix into a
law by computing its functional on whole columns and summing the int64
weights per value.

This module is the certification substrate for the package's identity
checks: a total-variation distance of exactly zero between two enumerated
distributions is a proof over the enumerated window, not a numerical
coincidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Hashable, Tuple

import numpy as np

from .errors import BudgetError, ParameterError
from .increments import IncrementLaw

__all__ = [
    "ExactDistribution",
    "integer_law",
    "lattice_sweep",
    "check_path_matrix",
    "path_matrix",
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

    ``live`` lists (integer step, numerator) for every atom, with
    P(step) = numerator / D and D the least common denominator; k steps then
    carry integer weights over D**k.
    """
    if law.kind != "lattice":
        raise ParameterError("exact enumeration requires a finite-support lattice law")
    unit, steps, probs = law.lattice_integer_form()
    D = math.lcm(*(p.denominator for p in probs))
    live = [(s, int(p * D)) for s, p in zip(steps, probs)]
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
        live = [(s, a / D) for s, a in live]
        D = 1
    smin = min(s for s, _ in live)
    span = max(s for s, _ in live) - smin
    w = np.ones(1, dtype=object if exact else np.float64)
    lo = 0
    for k in range(1, kmax + 1):
        n = len(w)
        nw = np.zeros(n + span, dtype=w.dtype)
        for s, a in live:
            nw[s - smin: s - smin + n] += w if a == 1 else w * a
        w, lo = nw, lo + smin
        yield k, lo, w, D
        if keep > 0 and lo < 0:
            w, lo = w[-lo:], 0
        elif keep < 0 and lo + len(w) > 1:
            w = w[:max(0, 1 - lo)]


def check_path_matrix(law: IncrementLaw, length: int) -> list:
    """Refuse a :func:`path_matrix` call before it builds anything.

    A negative length or a D**length that does not fit in int64 raises a
    ParameterError, and more than ``DEFAULT_BUDGET`` cells, rows * (length +
    1), a BudgetError.  Both grow with length, so a length that passes
    passes at every smaller length too.  Returns ``live`` of :func:`integer_law`.
    """
    if length < 0:
        raise ParameterError("length must be >= 0")
    _, live, D = integer_law(law)
    if D ** length >= 2 ** 63:
        raise ParameterError(f"weights over {D}**{length} overflow int64")
    cells = len(live) ** length * (length + 1)
    if cells > DEFAULT_BUDGET:
        raise BudgetError(f"{cells} path cells at length {length} exceed the enumeration "
                          f"budget {DEFAULT_BUDGET}")
    return live


def path_matrix(law: IncrementLaw, length: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every length-step path as one int64 matrix: (P, c).

    Row i of ``P`` is a path S_0..S_length and ``c[i]`` its int64 weight over
    D**length, with D from :func:`integer_law` (the D that
    :func:`lattice_sweep` yields).  Rows come in lexicographic order of the
    increment choices, the first step most significant.  Path values are on
    the integer lattice of the law's support; multiply by the unit from
    ``lattice_integer_form`` to recover rational values.

    Inputs that :func:`check_path_matrix` refuses raise its errors.  At the
    budget ``P`` takes 128 MiB and ``c`` at most 64 MiB, and the peak memory
    of a call is those two arrays (columns are filled in place).
    """
    live = check_path_matrix(law, length)
    r = len(live)
    rows = r ** length
    steps, nums = np.array(live, dtype=np.int64).T
    P = np.zeros((rows, length + 1), dtype=np.int64)
    c = np.ones(rows, dtype=np.int64)
    # one axis per step in C order, so the first choice varies slowest
    grid, weights = P.reshape((r,) * length + (-1,)), c.reshape((r,) * length)
    for j in range(length):
        axis = (r,) + (1,) * (length - j - 1)
        np.add(grid[..., j], steps.reshape(axis), out=grid[..., j + 1])
        weights *= nums.reshape(axis)
    return P, c


def distribution_equality(d1: ExactDistribution, d2: ExactDistribution) -> Fraction:
    """Exact total-variation distance (1/2) sum |d1 - d2| over all outcomes."""
    keys = set(d1.atoms) | set(d2.atoms)
    z = Fraction(0)
    diff = sum((abs(d1.atoms.get(k, z) - d2.atoms.get(k, z)) for k in keys), z)
    return diff / 2
