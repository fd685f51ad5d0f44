"""Exact brute-force optima for tiny instances.

These searches are the ground truth the rest of the package is tested
against.  Colorings are enumerated as set partitions of the edge list
(colors are interchangeable, so only the partition matters), sets as
sorted integer tuples anchored at 0 with bitmask difference sets.  Both
searches walk an explicit path, so a node budget is their only ceiling;
they are exhaustive within it and return canonically least witnesses.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import config
from .arithmetic import RealSet, coloring_from_set
from .coloring import EdgeColoring, check_local_property, new_coloring
from .errors import BudgetExceededError, LocalLabError


@dataclass(frozen=True)
class OracleResult:
    """Optimum of an exhaustive search of the canonical space, with the
    search statistics behind it; status is "optimal" or "infeasible"."""

    value: int | None
    witness: object
    nodes_explored: int
    canonical_classes: int
    status: str


def _check_args(n: int, k: int, l: int) -> None:
    if not 2 <= k <= n:
        raise LocalLabError(f"need 2 <= k <= n, got k={k}, n={n}")
    if l < 1:
        raise LocalLabError(f"need l >= 1, got {l}")


def _getter_table(n: int, k: int, l: int, rows: int, where) -> tuple:
    """(node budget, table): `where(subset, slots)` says at which row of the table a
    k-subset of range(n) files its itemgetter and which of its slots it reads, pair (i, j),
    i < j, at slot j(j-1)/2 + i.  The C(n, k) getters count against the node budget."""
    node_budget = config.check_budget(config.ORACLE_NODE_BUDGET,
                                      math.comb(n, k) if l > 1 else 0, f"{k}-subset getters")
    table = [[] for _ in range(rows)]
    for subset in itertools.combinations(range(n), k) if l > 1 else ():
        pairs = itertools.combinations(subset, 2)
        row, read = where(subset, [j * (j - 1) // 2 + i for i, j in pairs])
        table[row].append(operator.itemgetter(*read))
    return node_budget, table


def witness_failures(g: EdgeColoring, n: int, k: int, l: int, value: int) -> list:
    """What witness g fails of its claim: n vertices, `value` colors, the (k, l) property."""
    if g.n != n:
        return [f"witness is on {g.n} vertices, not {n}"]
    failures = [f"witness has {g.num_colors} colors, not {value}"] if g.num_colors != value else []
    if not check_local_property(g, k, l).holds:
        failures.append(f"witness violates the ({k},{l}) property")
    return failures


def exact_f(n: int, k: int, l: int) -> OracleResult:
    """Minimum palette size over colorings of K_n in which every
    k-subset spans at least l colors.

    Enumerates colorings modulo color renaming: edge i may only reuse
    an earlier color or open color max+1, which is exactly one coloring
    per edge-partition.  A k-subset is checked when its last edge (in
    the (max, min) edge order) is colored: its other edges either ban
    the colors they hold (when they span exactly l-1), ban nothing, or
    leave no color for the last edge.  The node coloring the edge before
    runs those checks for all its colors at once: a child left with no
    color is counted there, never walked, and a live child takes its ban
    set from that rule.  Branches that cannot beat the incumbent are cut.
    """
    _check_args(n, k, l)
    if l > k * (k - 1) // 2:
        return OracleResult(None, None, 0, 0, "infeasible")

    edges = [(u, v) for v in range(n) for u in range(v)]
    # finished_at[i]: per k-subset whose last edge is slot i, a getter of its other slots
    node_budget, finished_at = _getter_table(n, k, l, len(edges) + 1,
                                             lambda _, slots: (slots[-1], slots[:-1]))

    assignment = [0] * len(edges)
    best = len(edges) + 1
    best_assignment = None
    nodes = classes = 0
    exceeded = f"exact_f({n},{k},{l}) exceeded the {node_budget} node budget"
    # path[i]: edge i of the current branch, as [next color to try, colors in use, banned colors,
    # rule]; rule (ban, dead, keyed) bans edge i + 1 the colors `ban`, edge i's color too if
    # `dead`, and each set in `keyed` that holds edge i's color
    path = []
    used, banned = 0, set()
    while True:
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(exceeded)
        i = len(path)
        if used < best and i == len(edges):
            classes += 1
            best = used
            best_assignment = list(assignment)
        elif used < best:
            if i:  # `frame` and `color`: the parent's frame and edge i - 1's color, set below
                ban, dead, keyed = frame[3]
                banned = {color, *ban} if dead else ban
                for colors in keyed:
                    if color in colors:
                        banned = banned | colors
            # edge i + 1's rule from the subsets it finishes, edge i read as -1: beside it, l - 2
            # colors are dead for edge i, else banned with its color; l - 1, banned if it takes one
            assignment[i] = -1
            ban, dead, keyed = set(), set(), []
            for others in finished_at[i + 1]:
                seen = set(others(assignment))
                size = len(seen)
                if size < l - 1:
                    # no color of edge i leaves one for edge i + 1: count every child
                    nodes += used - len(banned) + (used + 1 < best)
                    break
                if -1 not in seen:
                    if size == l - 1:
                        ban |= seen
                elif size == l - 1:
                    dead |= seen
                elif size == l:
                    seen.discard(-1)
                    keyed.append(seen)
            else:
                if dead:
                    dead.discard(-1)
                    ban |= dead
                    dead |= banned
                    nodes += len(dead) - len(banned)
                    banned = dead
                path.append([0, used, banned, (ban, dead, keyed)])
            if nodes > node_budget:
                raise BudgetExceededError(exceeded)
        # the deepest edge's next color: an earlier one not banned, or a new one that can beat best
        while path:
            frame = path[-1]
            color, used, banned, _ = frame
            while color in banned:
                color += 1
            if color < used or color == used and used + 1 < best:
                break
            path.pop()
        else:
            break
        frame[0] = color + 1
        assignment[len(path) - 1] = color
        if color == used:
            used += 1
    witness = new_coloring(n, [(u, v, c) for (u, v), c in zip(edges, best_assignment)])
    if witness_failures(witness, n, k, l, best):
        raise LocalLabError("oracle witness failed re-validation")
    return OracleResult(best, witness, nodes, classes, "optimal")


@functools.lru_cache(maxsize=4096)
def _subtree(n: int, m: int, f: int) -> tuple:
    """(nodes, leaves) strictly below an exact_g_integers node holding
    m < n values, with f >= n - m free values above its last: a node
    holding d values picks its d - m new ones from the f - (n - d) that
    leave room for the n - d values after it."""
    return (sum(math.comb(f - n + d, d - m) for d in range(m + 1, n + 1)),
            math.comb(f, n - m))


def exact_g_integers(n: int, k: int, l: int, max_value: int) -> OracleResult:
    """Minimum difference-set size over n-subsets A of {0..max_value}
    with 0 in A whose every k-subset spans at least l differences.

    Translation invariance lets the search anchor min(A) = 0; the
    answer is exact for that range and an upper bound for the
    unrestricted integer problem.  Two bitmasks carry the prefix: `seen`
    has bit d per difference d, `mirror` bit chosen[-1] - a per chosen a,
    so child x adds `mirror << (x - chosen[-1])`; anchored at chosen[-1],
    neither outgrows the values visited.  Each k-subset of positions is
    checked once, at the node that chooses its largest position.  A node
    that fails a check before any set passes has a subtree that can change
    nothing but the counts, so `_subtree` counts it without walking it:
    nodes_explored and canonical_classes still count every node and leaf
    of the same tree.
    """
    _check_args(n, k, l)
    if max_value < n - 1 or l > k * (k - 1) // 2:
        return OracleResult(None, None, 0, 0, "infeasible")

    # ending_at[j]: per k-subset of positions ending at j, a getter of its `differences` slots
    node_budget, ending_at = _getter_table(n, k, l, n, lambda subset, slots: (subset[-1], slots))
    best = max_value * (max_value + 1)
    best_set = None
    nodes = classes = 0
    chosen = [0]
    exceeded = f"exact_g_integers({n},{k},{l},{max_value}) exceeded the {node_budget} node budget"
    # path[d]: chosen[:d + 1]'s node, as [next value, last value, seen, mirror, passed, differences]
    path = []
    room = max_value - n + 1  # a node holding m values tries up to room + m: n - 1 - m stay above
    seen, mirror, passed, differences = 0, 1, True, []
    while True:
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(exceeded)
        size = seen.bit_count()
        m = len(chosen)
        if size < best:
            if passed and l > 1:
                # the parent's differences, then the m - 1 new ones
                differences = differences + [chosen[-1] - a for a in chosen[:-1]]
                for slots in ending_at[m - 1]:
                    if len(set(slots(differences))) < l:
                        passed = False
                        break
            if m == n:
                classes += 1
                if passed:
                    best = size
                    best_set = tuple(chosen)
            elif not passed and best_set is None:
                # nothing below can pass, and until a set passes no size is cut,
                # so the walk would only count the subtree
                subtree, leaves = _subtree(n, m, max_value - chosen[-1])
                nodes += subtree
                classes += leaves
                if nodes > node_budget:
                    raise BudgetExceededError(exceeded)
            else:
                path.append([chosen[-1] + 1, room + m, seen, mirror, passed, differences])
        while path:
            frame = path[-1]
            x, last, seen, mirror, passed, differences = frame
            if x <= last:
                break
            path.pop()
        else:
            break
        frame[0] = x + 1
        reach = mirror << (x - chosen[len(path) - 1])
        chosen[len(path):] = [x]
        seen, mirror = seen | reach, reach | 1
    if best_set is None:
        return OracleResult(None, None, nodes, classes, "infeasible")
    witness = RealSet(best_set)
    if witness_failures(coloring_from_set(witness), n, k, l, best):
        raise LocalLabError("oracle witness failed re-validation")
    return OracleResult(best, witness, nodes, classes, "optimal")


@dataclass(frozen=True)
class BoundReference:
    """Growth-rate reference n**((k-2)/(C(k,2)-l+1)); the constant is
    unknown, so the value diagnoses scaling, it certifies nothing."""

    n: int
    k: int
    l: int
    exponent: Fraction
    reference: float


def upper_bound_exponent(n: int, k: int, l: int) -> BoundReference:
    if k < 2:
        raise LocalLabError(f"need k >= 2, got {k}")
    pair_count = k * (k - 1) // 2
    if not 1 <= l <= pair_count:
        raise LocalLabError(f"need 1 <= l <= C(k,2) = {pair_count}, got {l}")
    exponent = Fraction(k - 2, pair_count - l + 1)
    return BoundReference(n, k, l, exponent, float(n) ** float(exponent))
