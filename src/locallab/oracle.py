"""Exact brute-force optima for tiny instances.

These searches are the ground truth the rest of the package is tested
against.  Colorings are enumerated as set partitions of the edge list
(colors are interchangeable, so only the partition matters), sets as
sorted integer tuples anchored at 0; both searches are exhaustive
within an explicit node budget and return canonically least witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import config
from .arithmetic import RealSet, check_g_property
from .coloring import check_local_property, new_coloring
from .errors import BudgetExceededError, LocalLabError


@dataclass(frozen=True)
class OracleResult:
    """Certified optimum with the search statistics that certify it.

    status is "optimal" or "infeasible"; exhausted means the entire
    canonical space was covered, which is what makes the value exact.
    """

    value: int | None
    witness: object
    nodes_explored: int
    canonical_classes: int
    exhausted: bool
    status: str


_EXACT_F_MAX_N = 6


def exact_f(n: int, k: int, l: int) -> OracleResult:
    """Minimum palette size over colorings of K_n in which every
    k-subset spans at least l colors.

    Enumerates colorings modulo color renaming: edge i may only reuse
    an earlier color or open color max+1, which is exactly one coloring
    per edge-partition.  A k-subset is checked the moment its last edge
    (in the (max, min) edge order) is colored, and branches that cannot
    beat the incumbent are cut.
    """
    if not 2 <= k <= n:
        raise LocalLabError(f"need 2 <= k <= n, got k={k}, n={n}")
    if n > _EXACT_F_MAX_N:
        raise LocalLabError(
            f"n={n} has too many edge partitions; the search is guarded at n <= {_EXACT_F_MAX_N}"
        )
    if l < 1:
        raise LocalLabError(f"need l >= 1, got {l}")
    pair_count = k * (k - 1) // 2
    if l > pair_count:
        return OracleResult(None, None, 0, 0, True, "infeasible")

    edges = [(u, v) for v in range(n) for u in range(v)]
    pair_of = {e: i for i, e in enumerate(edges)}
    # each k-subset as the tuple of its edge slots, filed under the slot
    # of its last edge
    finished_at = {}
    for subset in itertools.combinations(range(n), k):
        slots = tuple(pair_of[e] for e in itertools.combinations(subset, 2))
        finished_at.setdefault(pair_of[subset[-2:]], []).append(slots)

    node_budget = config.budget(config.ORACLE_NODE_BUDGET)
    assignment = [0] * len(edges)
    best = {"value": len(edges) + 1, "witness": None}
    stats = {"nodes": 0, "classes": 0}

    def place(i, used):
        stats["nodes"] += 1
        if stats["nodes"] > node_budget:
            raise BudgetExceededError(
                f"exact_f({n},{k},{l}) exceeded the {node_budget} node budget"
            )
        if used >= best["value"]:
            return
        if i == len(edges):
            stats["classes"] += 1
            best["value"] = used
            best["witness"] = list(assignment)
            return
        for color in range(used + 1):
            if color == used and used + 1 >= best["value"]:
                break
            assignment[i] = color
            for slots in finished_at.get(i, ()):
                if len({assignment[s] for s in slots}) < l:
                    break
            else:
                place(i + 1, used + (1 if color == used else 0))

    place(0, 0)
    if best["witness"] is None:
        raise LocalLabError(f"no coloring of K_{n} satisfies ({k},{l})")
    witness = new_coloring(n, [(u, v, best["witness"][i])
                               for i, (u, v) in enumerate(edges)])
    verdict = check_local_property(witness, k, l)
    if not verdict.holds or witness.num_colors != best["value"]:
        raise LocalLabError("oracle witness failed re-validation")
    return OracleResult(best["value"], witness, stats["nodes"], stats["classes"],
                        True, "optimal")


def exact_g_integers(n: int, k: int, l: int, max_value: int) -> OracleResult:
    """Minimum difference-set size over n-subsets A of {0..max_value}
    with 0 in A whose every k-subset spans at least l differences.

    Translation invariance lets the search anchor min(A) = 0; the
    answer is exact for that range and an upper bound for the
    unrestricted integer problem.
    """
    if not 2 <= k <= n:
        raise LocalLabError(f"need 2 <= k <= n, got k={k}, n={n}")
    if l < 1:
        raise LocalLabError(f"need l >= 1, got {l}")
    if max_value < n - 1:
        return OracleResult(None, None, 0, 0, True, "infeasible")
    if l > k * (k - 1) // 2:
        return OracleResult(None, None, 0, 0, True, "infeasible")

    node_budget = config.budget(config.ORACLE_NODE_BUDGET)
    best = {"value": max_value * (max_value + 1), "witness": None}
    stats = {"nodes": 0, "classes": 0}
    chosen = [0]
    # each k-subset of positions as the tuple of its pair slots; at a leaf,
    # differences[pair_of[(i, j)]] == chosen[j] - chosen[i]
    pair_of = {e: i for i, e in enumerate(itertools.combinations(range(n), 2))}
    subsets = [tuple(pair_of[e] for e in itertools.combinations(subset, 2))
               for subset in itertools.combinations(range(n), k)]

    def extend():
        stats["nodes"] += 1
        if stats["nodes"] > node_budget:
            raise BudgetExceededError(
                f"exact_g_integers({n},{k},{l},{max_value}) exceeded the {node_budget} node budget"
            )
        differences = [b - a for a, b in itertools.combinations(chosen, 2)]
        size = len(set(differences))
        if size >= best["value"]:
            return
        if len(chosen) == n:
            stats["classes"] += 1
            for slots in subsets:
                if len({differences[s] for s in slots}) < l:
                    break
            else:
                best["value"] = size
                best["witness"] = tuple(chosen)
            return
        for x in range(chosen[-1] + 1, max_value + 1):
            if max_value - x < n - 1 - len(chosen):
                break
            chosen.append(x)
            extend()
            chosen.pop()

    extend()
    if best["witness"] is None:
        return OracleResult(None, None, stats["nodes"], stats["classes"], True,
                            "infeasible")
    witness = RealSet(best["witness"])
    if not check_g_property(witness, k, l).holds:
        raise LocalLabError("oracle witness failed re-validation")
    return OracleResult(best["value"], witness, stats["nodes"], stats["classes"],
                        True, "optimal")


@dataclass(frozen=True)
class BoundReference:
    """Growth-rate reference n**((k-2)/(C(k,2)-l+1)); the constant is
    unknown, so the value diagnoses scaling, it certifies nothing."""

    n: int
    k: int
    l: int
    exponent: Fraction
    reference: float
    certified: bool = False


def upper_bound_exponent(n: int, k: int, l: int) -> BoundReference:
    if k < 2:
        raise LocalLabError(f"need k >= 2, got {k}")
    pair_count = k * (k - 1) // 2
    if not 1 <= l <= pair_count:
        raise LocalLabError(f"need 1 <= l <= C(k,2) = {pair_count}, got {l}")
    exponent = Fraction(k - 2, pair_count - l + 1)
    return BoundReference(n, k, l, exponent, float(n) ** float(exponent))
