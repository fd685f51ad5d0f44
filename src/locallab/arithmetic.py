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


@dataclass(frozen=True)
class DifferenceSet:
    """Sorted distinct positive differences a - a' over a RealSet."""

    values: tuple

    def __len__(self):
        return len(self.values)


def difference_set(A: RealSet) -> DifferenceSet:
    if len(A.elements) < 2:
        raise LocalLabError("need at least two elements")
    diffs = {b - a for a, b in itertools.combinations(A.elements, 2)}
    return DifferenceSet(tuple(sorted(diffs)))


def coloring_from_set(A: RealSet) -> EdgeColoring:
    """K_n on the sorted elements, edge {i, j} colored by |a_i - a_j|,
    the difference kept as its label."""
    if len(A.elements) < 2:
        raise LocalLabError("need at least two elements")
    pairs = itertools.combinations(A.elements, 2)
    return _numbered(len(A.elements), [b - a for a, b in pairs])


def check_g_property(A: RealSet, k: int, l: int, mode: str = "exhaustive",
                     trials: int | None = None, seed: int | None = None) -> PropertyVerdict:
    """Does every k-subset of A span at least l distinct differences?

    Runs the local-property check on the difference coloring; the two
    questions coincide because distinct differences are distinct colors.
    """
    return check_local_property(coloring_from_set(A), k, l, mode=mode,
                                trials=trials, seed=seed)


def is_3ap_free(A) -> bool:
    """True iff no distinct x, y, z in A satisfy x + z = 2y; exact."""
    elems = tuple(A)
    n = len(elems)
    if n < 3:
        return True
    if all(isinstance(x, int) for x in elems) and max(map(abs, elems)) < 2**62:
        values = np.array(sorted(elems), dtype=np.int64)
        doubled = values * 2
        for i in range(n - 1):
            sums = values[i] + values[i + 1:]
            pos = np.searchsorted(doubled, sums)
            pos = np.minimum(pos, n - 1)
            if np.any(doubled[pos] == sums):
                return False
        return True
    doubled = {2 * x for x in elems}
    for x, z in itertools.combinations(sorted(elems), 2):
        if x + z in doubled:
            return False
    return True


def _shell_tables(m: int, d: int) -> list:
    """tables[j-1][k] = number of vectors in {0..d-1}^j of squared norm k, j = 1..m;
    each pass adds the last table at the d offsets x**2: O(m * L * d) for length L."""
    tables = [np.ones(1, dtype=np.int64)]
    for _ in range(m):
        prev = tables[-1]
        nxt = np.zeros(len(prev) + (d - 1) ** 2, dtype=np.int64)
        for x in range(d):
            nxt[x * x:x * x + len(prev)] += prev
        tables.append(nxt)
    return tables[1:]


def _best_d(n: int, m: int):
    """Smallest d whose richest shell holds >= n vectors, or None.

    Shell maxima are monotone in d, so an exponential probe followed by
    bisection needs only O(log d) shell tables.
    """

    def shell_max(d):
        return int(_shell_tables(m, d)[-1].max())

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
    return lo


def _shell_vectors(tables, d: int, radius: int):
    """All digit vectors in {0..d-1}^m with squared norm `radius`, by DFS
    pruned through the suffix shell tables of _shell_tables(m, d)."""
    m = len(tables)
    vectors = []
    digits = [0] * m

    def descend(pos, remaining):
        if pos == m:
            if remaining == 0:
                vectors.append(tuple(digits))
            return
        suffix = m - pos - 1
        for x in range(d):
            rest = remaining - x * x
            if rest < 0:
                break
            if suffix == 0:
                if rest != 0:
                    continue
            elif rest >= len(tables[suffix - 1]) or tables[suffix - 1][rest] == 0:
                continue
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
        d = _best_d(n, m)
        if d is None:
            continue
        tables = _shell_tables(m, d)
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
