"""Color energies of an edge coloring and the counting bounds they imply.

The r-th color energy is E_r = sum over colors of m_c^r, where m_c is
the number of ordered vertex pairs carrying color c (each edge counts
twice, so sum m_c = n(n-1)).  Equivalently E_r counts ordered 2r-tuples
(a_1, ..., a_2r) with a_{2i-1} != a_{2i} in which all r pairs carry the
same color.  A power-mean inequality on the m_c turns any upper bound on
E_r into a lower bound on the number of colors.  All arithmetic here is
exact; no floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import BRUTE_FORCE_TUPLE_BUDGET, check_budget
from .coloring import EdgeColoring
from .errors import LocalLabError


def energy(g: EdgeColoring, r: int) -> int:
    """E_r = sum of m_c^r, exactly: m_c is twice the number of color-c
    edges, and the powers are taken in Python ints."""
    if r < 2:
        raise LocalLabError(f"energy order r={r} must be >= 2")
    return sum((2 * m)**r for m in np.bincount(g.colors).tolist())


def energy_bruteforce(g: EdgeColoring, r: int) -> int:
    """E_r by enumerating ordered 2r-tuples with all pair colors equal.

    Deliberately independent of energy(): it never computes m_c.  The
    tuple space is n^(2r); instances past the budget are refused, which
    signals that the closed form should be used instead.
    """
    if r < 2:
        raise LocalLabError(f"energy order r={r} must be >= 2")
    check_budget(BRUTE_FORCE_TUPLE_BUDGET, g.n ** (2 * r), "ordered tuples")
    mat = g.color_matrix().tolist()
    n = g.n

    def extend(depth: int, color: int) -> int:
        # depth counts completed pairs; the first pair fixes the color
        if depth == r:
            return 1
        acc = 0
        for a in range(n):
            row = mat[a]
            for b in range(n):
                if a == b:
                    continue
                c = row[b]
                if color != -1 and c != color:
                    continue
                acc += extend(depth + 1, c)
        return acc

    return extend(0, -1)


def energy_lower_bound(n: int, num_colors: int, r: int) -> Fraction:
    """Least possible E_r over colorings of K_n with num_colors colors:
    (n(n-1))^r / |C|^(r-1), attained exactly when all m_c are equal."""
    if num_colors < 1:
        raise LocalLabError("num_colors must be >= 1")
    if n < 2 or r < 2:
        raise LocalLabError("need n >= 2 and r >= 2")
    return Fraction((n * (n - 1)) ** r, num_colors ** (r - 1))


@dataclass(frozen=True)
class ColorCountBound:
    """Lower bound on the palette size implied by an energy value.

    The bound is base**exponent with base an exact rational and
    exponent = 1/(r-1); minimum_colors is the least integer whose
    (r-1)-th power reaches base, computed with integer arithmetic.
    """

    base: Fraction
    exponent: Fraction
    minimum_colors: int


def _ceil_root(num: int, den: int, r: int) -> int:
    """Least integer k with k^r >= num/den, by doubling plus bisection."""
    if num <= 0:
        return 0
    lo, hi = 0, 1
    while hi**r * den < num:
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**r * den >= num:
            hi = mid
        else:
            lo = mid
    return hi


def implied_color_lower_bound(n: int, r: int, e: int) -> ColorCountBound:
    """Rearrange the energy bound: |C|^(r-1) >= (n(n-1))^r / E_r, for
    the integer E_r = e.  Exact throughout.
    """
    if e <= 0:
        raise LocalLabError("energy must be positive")
    if r < 2:
        raise LocalLabError("the palette bound needs r >= 2")
    base = Fraction((n * (n - 1)) ** r, e)
    k = _ceil_root(base.numerator, base.denominator, r - 1)
    return ColorCountBound(base, Fraction(1, r - 1), k)


def ln_ceiling(n: int) -> int:
    """ceil(ln n): the rare-color threshold used by the order-3 pipeline.

    ln n is irrational for integer n >= 2, so the float ceiling is safe.
    """
    if n < 2:
        raise LocalLabError("need n >= 2")
    return math.ceil(math.log(n))
