"""Difference sets, arithmetic colorings, and progression-free sets.

Everything here is exact: elements are integers or fractions, never
floats, so difference counts and 3-term progression checks carry no
rounding ambiguity.  The sphere construction produces large sets whose
difference sets are provably progression-free and measurably smaller
than random baselines.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coloring import EdgeColoring, PropertyVerdict, _numbered, check_local_property
from .config import (EXACT_PAIR_BUDGET, PRESENCE_PAIR_BUDGET, PRESENCE_SPAN_BUDGET, budget,
                     check_budget)
from .errors import LocalLabError
from .jsonio import exact, exact_to_json, fields, read_json, write_json

# Enumerating digit vectors stays cheap as long as d**m is capped.
_VECTOR_CAP = 4 * 10**6
# Largest digit range d that _best_d probes.  Together with _VECTOR_CAP it
# decides which (m, d) behrend_set picks, so changing it changes the sets.
_DIGIT_CAP = 200


@dataclass(frozen=True)
class RealSet:
    """Strictly increasing tuple of exact numbers (ints or Fractions)."""

    elements: tuple

    def __post_init__(self):
        for a, b in zip(self.elements, self.elements[1:]):
            if not a < b:
                raise LocalLabError("elements must be strictly increasing")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, index):
        return self.elements[index]


def real_set(values) -> RealSet:
    """Normalize arbitrary exact inputs into a sorted, distinct RealSet."""
    elements = sorted(exact(x) for x in values)
    if not elements:
        raise LocalLabError("a real set needs at least one element")
    for a, b in zip(elements, elements[1:]):
        if a == b:
            raise LocalLabError(f"duplicate element {a}")
    return RealSet(tuple(elements))


def _offsets(xs):
    """Sorted int `xs` minus xs[0] in int64, to index a presence array, if
    their span fits; else None, for the exact loop.  Either path's C(n, 2)
    pairs must first fit that path's own ceiling."""
    presence = all(type(x) is int for x in xs) and xs[-1] - xs[0] <= budget(PRESENCE_SPAN_BUDGET)
    kind, default = ("presence", PRESENCE_PAIR_BUDGET) if presence else ("exact", EXACT_PAIR_BUDGET)
    check_budget(default, math.comb(len(xs), 2), f"{kind} pairs")
    return np.fromiter((x - xs[0] for x in xs), np.int64, len(xs)) if presence else None


def difference_set(A: RealSet) -> np.ndarray:
    """Sorted distinct positive differences a_j - a_i: int64, from a presence
    array marked one row at a time, else an object array of exact values."""
    if len(A.elements) < 2:
        raise LocalLabError("need at least two elements")
    w = _offsets(A.elements)
    if w is None:
        return np.array(sorted({b - a for a, b in itertools.combinations(A, 2)}), dtype=object)
    present = np.zeros(w[-1] + 1, dtype=bool)
    for i in range(len(w) - 1):
        present[w[i + 1:] - w[i]] = True
    return np.flatnonzero(present)


def coloring_from_set(A: RealSet) -> EdgeColoring:
    """K_n on the sorted elements, edge {i, j} colored by |a_i - a_j|,
    the difference kept as its label; built on the first call and kept."""
    g = A.__dict__.get("_coloring")
    if g is None:
        if len(A.elements) < 2:
            raise LocalLabError("need at least two elements")
        pairs = itertools.combinations(A.elements, 2)
        g = _numbered(len(A.elements), [b - a for a, b in pairs])
        object.__setattr__(A, "_coloring", g)
    return g


def check_g_property(A: RealSet, k: int, l: int) -> PropertyVerdict:
    """Does every k-subset of A span at least l distinct differences?

    Runs the local-property check on the difference coloring; the two
    questions coincide because distinct differences are distinct colors.
    """
    return check_local_property(coloring_from_set(A), k, l)


def is_3ap_free(A) -> bool:
    """True iff no distinct x, y, z in A satisfy x + z = 2y; exact."""
    elems = sorted(A)
    if len(elems) < 3:
        return True
    w = _offsets(elems)
    if w is None:
        doubled = {2 * x for x in elems}
        return not any(x + z in doubled for x, z in itertools.combinations(elems, 2))
    doubled = np.zeros(2 * w[-1] + 1, dtype=bool)
    doubled[2 * w] = True  # a row's sums x + z skip the z next to x: no y lies between
    return not any(doubled[w[i] + w[i + 2:]].any() for i in range(len(w) - 2))


def _shell_tables(m: int, d: int) -> list:
    """tables[j-1][k] = number of vectors in {0..d-1}^j of squared norm k, j = 1..m;
    each pass adds the last table at the d offsets x**2, scattering its support
    alone while that is under a sixteenth of its length L, else as d slices."""
    squares = np.arange(d, dtype=np.int64) ** 2
    tables = [np.bincount(squares).astype(np.int64)]
    for _ in range(m - 1):
        prev = tables[-1]
        nxt = np.zeros(len(prev) + (d - 1) ** 2, dtype=np.int64)
        support = np.flatnonzero(prev)
        if 16 * len(support) < len(prev):
            np.add.at(nxt, (squares[:, None] + support).ravel(), np.tile(prev[support], d))
        else:
            for x in squares.tolist():
                nxt[x:x + len(prev)] += prev
        tables.append(nxt)
    return tables


def _best_d(n: int, m: int):
    """(d, _shell_tables(m, d)) for the smallest d whose richest shell holds
    >= n vectors, or None.  Shell maxima are monotone in d, so an exponential
    probe and a bisection build O(log d) tables, one per d probed."""
    built = {}

    def shell_max(d):
        built[d] = _shell_tables(m, d)
        return int(built[d][-1].max())

    def cap(d):
        return d**m <= _VECTOR_CAP and d <= _DIGIT_CAP

    d = 1
    while cap(d) and shell_max(d) < n:
        d *= 2
    if not cap(d):
        d = next((x for x in range(d, d // 2, -1) if cap(x)), None)
        if d is None or shell_max(d) < n:
            return None
    lo, hi = d // 2 + 1, d
    while lo < hi:
        mid = (lo + hi) // 2
        if shell_max(mid) >= n:
            hi = mid
        else:
            lo = mid + 1
    return lo, built[lo]


def _shell_vectors(tables, d: int, radius: int):
    """All digit vectors in {0..d-1}^m with squared norm `radius`, by DFS
    pruned through the suffix shell tables of _shell_tables(m, d)."""
    m = len(tables)
    tables = [np.ones(1, dtype=np.int64), *tables]  # zero digits make norm 0 only
    vectors, digits = [], [0] * m

    def descend(pos, remaining):
        if pos == m:
            vectors.append(tuple(digits))
            return
        suffix = tables[m - pos - 1]
        for x in range(d):
            rest = remaining - x * x
            if rest < 0:
                break
            if rest < len(suffix) and suffix[rest]:
                digits[pos] = x
                descend(pos + 1, rest)

    descend(0, radius)
    return vectors


def behrend_set(n: int) -> RealSet:
    """n positive integers with no 3-term arithmetic progression.

    Digit vectors of a fixed Euclidean norm, written in a base wide
    enough that vector addition never carries: a progression would force
    a digitwise midpoint, putting three distinct points of a sphere on a
    line.  Dimension and digit range are searched deterministically for
    the smallest instance whose richest shell reaches n; the base-3
    digits {0,1} set is the fallback when every shell is too thin.
    """
    if n < 1:
        raise LocalLabError(f"need n >= 1, got {n}")
    top = 2 if n == 1 else math.ceil(math.sqrt(math.log2(n))) + 2
    for m in range(2, top + 1):
        found = _best_d(n, m)
        if found is None:
            continue
        d, tables = found
        radius = int(np.argmax(tables[-1]))
        base = 2 * d - 1
        values = sorted(
            sum(x * base**i for i, x in enumerate(vec)) + 1
            for vec in _shell_vectors(tables, d, radius)
        )
        return RealSet(tuple(values[:n]))
    # the k-th integer whose base-3 digits are all 0 or 1 is k's binary
    # digits read in base 3
    return RealSet(tuple(int(format(k, "b"), 3) + 1 for k in range(n)))


def real_set_to_dict(A: RealSet) -> dict:
    return {"elements": [exact_to_json(x) for x in A.elements]}


def real_set_from_dict(payload: dict) -> RealSet:
    (elements,) = fields(payload, elements=list)
    return real_set(elements)


def save_real_set(A: RealSet, path) -> None:
    write_json(real_set_to_dict(A), path)


def load_real_set(path) -> RealSet:
    return real_set_from_dict(read_json(path))
