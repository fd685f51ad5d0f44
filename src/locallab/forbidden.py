"""Forbidden configurations and the witness sets they certify.

Detectors find even cycles, monochromatic complete bipartite graphs,
and monochromatic subdivisions by canonical exhaustive search, so a
rerun always returns the same object.  The witness constructors convert
a cycle in an energy graph into a k-set of base vertices with an
explicit, independently re-checkable tally of color repetitions:
equalities are counted through one union-find over (color, base pair)
nodes, so repeated or interlocking equalities are never double counted,
and any shortfall is padded with unused edges of the first step's color.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import config
from .coloring import EdgeColoring, _lex_chunks
from .energy import ln_ceiling
from .energy_graph import (
    EnergyGraph,
    check_same_n,
    check_same_size,
    colors_at_least,
    coordinate_neighbor_violations,
    edge_colors,
    edge_sign_vector,
)
from .errors import (
    BudgetExceededError,
    LocalLabError,
    PaddingError,
    SignConsistencyError,
    WitnessError,
)


@dataclass(frozen=True)
class CyclePath:
    """A simple cycle as an ordered vertex tuple; consecutive vertices
    (cyclically) are adjacent in the graph the cycle was found in."""

    vertices: tuple

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise LocalLabError("cycle vertices must be distinct")

    @property
    def length(self) -> int:
        return len(self.vertices)


def _search_cycle(adj, length: int):
    """Positions in the codes of CSR adjacency `adj` of the first simple
    cycle of exactly `length`, or None.  The search is canonical: start
    vertices ascending, each cycle explored only from its smallest vertex,
    neighbors in sorted order.  It keeps its own stack, one iterator over
    the unexplored neighbors of each path vertex, so a long cycle needs no
    deep recursion.  A row of neighbors becomes a list only when the
    search first visits it.  Each vertex it steps to charges its neighbor
    count, which it may scan, against the oracle node budget."""
    if length < 3:
        raise LocalLabError(f"cycle length {length} must be at least 3")
    if length > np.count_nonzero(np.diff(adj[1]) >= 2):  # every cycle vertex has two neighbors
        return None
    ptr, rows, deep = adj[1].tolist(), {}, length - 2
    steps = cap = config.budget(config.ORACLE_NODE_BUDGET)

    def row(v):
        if v not in rows:
            rows[v] = adj[2][ptr[v]:ptr[v + 1]].tolist()
        return rows[v]

    for s in range(len(ptr) - 1):
        if ptr[s + 1] - ptr[s] < 2:
            continue
        # the adjacency is symmetric, so a path closes at a neighbor of its start;
        # `todo` holds an iterator over the unexplored neighbors of each path
        # vertex but the last, whose iterator is `ahead`
        first = row(s)
        closers, path, on_path, todo, ahead = set(first), [s], {s}, [], iter(first)
        while True:
            for w in ahead:
                if w > s and w not in on_path:
                    break
            else:  # every neighbor of the path's end is explored
                if not todo:
                    break
                ahead = todo.pop()
                on_path.remove(path.pop())
                continue
            w_row = rows.get(w) or row(w)  # no call once w's row is a list
            steps -= len(w_row)
            if steps < 0:
                raise BudgetExceededError(f"the cycle search exceeded the {cap} step budget")
            if len(path) < deep:
                todo.append(ahead)
                path.append(w)
                on_path.add(w)
                ahead = iter(w_row)
                continue
            # w is the last vertex but one: its first neighbor that closes the cycle
            for x in w_row:
                if x > s and x in closers and x not in on_path:
                    return path + [w, x]
    return None


def _check_steps(adj, cycle_codes, names) -> None:
    """Raise unless every step cycle_codes[i] -> cycle_codes[i + 1]
    (cyclically) is an edge of CSR adjacency `adj`; names label the steps."""
    codes, ptr, nbrs = adj
    rows = [i if i < len(codes) and codes[i] == c else -1
            for i, c in zip(np.searchsorted(codes, cycle_codes).tolist(), cycle_codes)]
    for i, (v, w) in enumerate(zip(rows, rows[1:] + rows[:1])):
        if v < 0 or w < 0 or w not in nbrs[ptr[v]:ptr[v + 1]]:
            raise WitnessError(f"cycle step {names[i]} -> {names[(i + 1) % len(names)]} "
                               "is not an edge")


def find_cycle(eg: EnergyGraph, length: int):
    """First simple cycle of exactly `length` in the canonical search
    order (vertices compared as tuples), or None."""
    found = _search_cycle(eg.adjacency(), length)
    return None if found is None else CyclePath(tuple(eg.vertices(eg.adjacency()[0][found])))


def validate_cycle(eg: EnergyGraph, cycle: CyclePath) -> None:
    """Re-check all cyclic adjacencies; raises on failure."""
    _check_steps(eg.adjacency(), [eg.code(v) for v in cycle.vertices], cycle.vertices)


def find_complete_bipartite(g: EdgeColoring, color: int, s: int, t: int):
    """Vertex sides (size s, size t) with all s*t cross pairs in `color`,
    or None; exhaustive over s-subsets in lexicographic order."""
    if not 1 <= s <= t:
        raise LocalLabError(f"need 1 <= s <= t, got s={s}, t={t}")
    if color not in g.palette:
        raise LocalLabError(f"color id {color} not in the palette")
    config.check_budget(config.SUBSET_SCAN_BUDGET, math.comb(g.n, s), f"{s}-subsets")
    # the diagonal holds -1, so no vertex is common to a side holding it
    mask = g.color_matrix() == color
    for rows in _lex_chunks(g.n, s, np.min_scalar_type(g.n - 1)):
        common = np.logical_and.reduce(mask[rows], axis=1)
        hits = np.flatnonzero(np.count_nonzero(common, axis=1) >= t)
        if len(hits):
            i = hits[0]
            return tuple(rows[i].tolist()), tuple(np.flatnonzero(common[i])[:t].tolist())
    return None


@dataclass(frozen=True)
class SubdivisionEmbedding:
    """t branch vertices plus one distinct midpoint per branch pair; every
    branch-midpoint edge carries the searched color."""

    branch_vertices: tuple
    midpoints: dict


def find_subdivision(g: EdgeColoring, color: int, t: int):
    """Embedding of the subdivision of K_t inside one color class, or None.

    Branch t-sets are scanned lexicographically in numpy blocks; a branch
    set with fewer than C(t, 2) outside vertices joined to two of its
    vertices is skipped, and midpoints for the rest are assigned by a
    lexicographic-first matching over the scarcest pair first.
    """
    if t < 3:
        raise LocalLabError(f"need t >= 3, got {t}")
    if color not in g.palette:
        raise LocalLabError(f"color id {color} not in the palette")
    config.check_budget(config.SUBSET_SCAN_BUDGET, math.comb(g.n, t), f"{t}-subsets")
    mask = g.color_matrix() == color
    if np.count_nonzero(mask) // 2 < t * (t - 1):
        return None
    neighbors = [set(np.flatnonzero(row).tolist()) for row in mask]
    pair_count = t * (t - 1) // 2
    for rows in _lex_chunks(g.n, t, np.min_scalar_type(g.n - 1)):
        # each branch pair needs its own midpoint outside the branch, joined
        # to both ends: drop the rows with fewer than pair_count candidates
        joined = mask[rows].sum(axis=1)
        joined[np.arange(len(rows))[:, None], rows] = 0
        keep = np.count_nonzero(joined >= 2, axis=1) >= pair_count
        for branch in rows[keep].tolist():
            midpoints = _assign_midpoints(tuple(branch), neighbors)
            if midpoints is not None:
                return SubdivisionEmbedding(tuple(branch), midpoints)
    return None


def _assign_midpoints(branch, neighbors):
    """Distinct midpoints outside `branch`, one per branch pair and joined
    to both its ends, as a sorted pair -> midpoint dict; or None.  Scarcest
    pair first, each takes its least candidate that leaves the later pairs a
    complete matching (Kuhn's augmenting paths): backtracking's first answer."""
    banned = set(branch)
    candidates = {pair: sorted((neighbors[pair[0]] & neighbors[pair[1]]) - banned)
                  for pair in itertools.combinations(branch, 2)}
    order = sorted(candidates, key=lambda p: (len(candidates[p]), p))

    def matchable(pairs, taken):
        owner = {}  # midpoint -> pair; each augmenting path visits a midpoint once

        def augment(pair, seen):
            for m in candidates[pair]:
                if m not in seen:
                    seen.add(m)
                    if m not in owner or augment(owner[m], seen):
                        owner[m] = pair
                        return True
            return False

        return all(augment(pair, set(taken)) for pair in pairs)

    if not matchable(order, ()):
        return None
    assignment = {}
    for i, pair in enumerate(order):
        assignment[pair] = next(m for m in candidates[pair] if m not in assignment.values()
                                and matchable(order[i + 1:], {*assignment.values(), m}))
    return dict(sorted(assignment.items()))


# ---------------------------------------------------------------------------
# Witness sets from energy-graph cycles


@dataclass(frozen=True)
class ColorRepetition:
    """One counted repetition: two distinct base edges sharing a color.
    kind records whether it came from a cycle step or from padding."""

    edge1: tuple
    edge2: tuple
    color: object
    kind: str


@dataclass(frozen=True)
class WitnessSet:
    """A target_k-set of base vertices spanning at most
    C(target_k, 2) - claimed_repetitions colors; the equalities listed
    are independent per color by construction, so the bound re-verifies."""

    vertices: tuple
    claimed_repetitions: int
    target_k: int
    colors_spanned: int
    equalities: tuple


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        if x not in parent:
            parent[x] = x
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True

    def __contains__(self, x):
        return x in self.parent


def _base_pair(x, y) -> tuple:
    return (x, y) if x < y else (y, x)


def witness_from_cycle(g: EdgeColoring, eg: EnergyGraph, cycle: CyclePath, kind: str,
                       k: int | None = None) -> WitnessSet:
    """Turn a cycle of eg into the `kind` witness that witness_request
    states: a target_k-set of base vertices certified by at least
    target_reps independent color repetitions.

    Each step equates the r coordinate base pairs of consecutive cycle
    vertices; chaining them through a union-find over (color, pair) nodes
    counts every equality at most once, even when steps repeat base edges.
    A shortfall is padded with unused edges of the first step's color,
    each adding as few new vertices as possible (ties broken
    lexicographically), and the set is then filled with the smallest
    unused base vertices.
    """
    length, target_k, target_reps = witness_request(g, eg, kind, k)
    if cycle.length != length:
        raise WitnessError(f"cycle length {cycle.length} must be {length}")
    validate_cycle(eg, cycle)
    forest = _UnionFind()
    vertices = set()
    equalities = []
    for i, x in enumerate(cycle.vertices):
        y = cycle.vertices[(i + 1) % length]
        pairs = []
        color = None
        for t in range(eg.r):
            if x[t] == y[t]:
                raise WitnessError(f"cycle edge {x}-{y} repeats coordinate {t}")
            c = g.color_of(x[t], y[t])
            if color is None:
                color = c
            elif c != color:
                raise WitnessError(f"cycle edge {x}-{y} mixes colors")
            pairs.append(_base_pair(x[t], y[t]))
        vertices.update(x)
        for t in range(1, eg.r):
            if forest.union((color, pairs[t - 1]), (color, pairs[t])):
                equalities.append(
                    ColorRepetition(pairs[t - 1], pairs[t], g.label_of(color), f"cycle-step-{i + 1}")
                )
    anchor_pair = _base_pair(cycle.vertices[0][0], cycle.vertices[1][0])
    anchor_color = g.color_of(*anchor_pair)
    anchor_edges = np.argwhere(np.triu(g.color_matrix() == anchor_color)).tolist()
    anchor_edges = [tuple(e) for e in anchor_edges]
    while len(equalities) < target_reps:
        unused = [e for e in anchor_edges if (anchor_color, e) not in forest]
        if not unused:
            raise PaddingError(target_reps - len(equalities), g.label_of(anchor_color))
        pad = min(unused, key=lambda e: (sum(1 for v in e if v not in vertices), e))
        forest.union((anchor_color, anchor_pair), (anchor_color, pad))
        vertices.update(pad)
        equalities.append(ColorRepetition(anchor_pair, pad, g.label_of(anchor_color), "padding"))
    if len(vertices) > target_k:
        raise WitnessError(
            f"cycle is too degenerate: {len(vertices)} vertices exceed the target {target_k}"
        )
    for v in range(g.n):  # witness_request checked that target_k <= g.n
        if len(vertices) == target_k:
            break
        vertices.add(v)
    claimed = len(equalities)
    spanned = g.colors_within(vertices)
    budget = target_k * (target_k - 1) // 2 - claimed
    if spanned > budget:
        raise WitnessError(f"witness spans {spanned} colors, more than the promised {budget}")
    return WitnessSet(tuple(sorted(vertices)), claimed, target_k, spanned, tuple(equalities))


def witness_request(g: EdgeColoring, eg: EnergyGraph, kind: str, k: int | None = None) -> tuple:
    """(cycle length, target_k, target_reps) of a `kind` witness from eg:
    "pair", a k-set from a k/2-cycle, or "triple", a 24-set from an
    8-cycle.  Raises unless the order and size rules hold and eg and g
    have the same n, and for "triple" unless its audits pass: the graph
    was halved and pruned of coordinate neighbors, and each of its edge
    colors has ceil(ln n) or more base edges in g.  Needs no cycle, so a
    caller can check before searching."""
    if kind == "pair":
        if eg.r != 2:
            raise WitnessError("needs a second energy graph")
        if k % 4 != 0 or k < 8:
            raise WitnessError(f"k={k} must be a multiple of four and at least 8")
        if k > g.n:
            raise WitnessError(f"k={k} exceeds the {g.n} base vertices")
        check_same_n(eg, g)
        return k // 2, k, k // 2
    if kind != "triple":
        raise WitnessError(f"unknown witness kind {kind!r}")
    if eg.r != 3:
        raise WitnessError("needs a third energy graph")
    if g.n < 24:
        raise WitnessError(f"needs at least 24 base vertices, have {g.n}")
    if not any(stage.startswith("halve_parts(") for stage in eg.provenance):
        raise WitnessError("energy graph was never halved")
    if coordinate_neighbor_violations(eg):
        raise WitnessError("two neighbors share a coordinate value")
    floor = ln_ceiling(g.n)
    rare = ~colors_at_least(eg, g, floor)
    if rare.any():
        raise WitnessError(f"color id {int(edge_colors(eg, g)[np.argmax(rare)])} has fewer "
                           f"than {floor} base edges; prune rare colors first")
    return 8, 24, 16


# ---------------------------------------------------------------------------
# Cliques from sign-homogeneous arithmetic cycles


@dataclass(frozen=True)
class DifferenceEquality:
    """One repetition over a real set: two base pairs with the same
    absolute difference.  rows are 0-based cycle positions and
    coordinates are 0-based tuple positions; direct equalities compare
    coordinate 0 against a later coordinate across two rows, regrouped
    ones pair the remaining four elements of the same quadruple."""

    edge1: tuple
    edge2: tuple
    difference: object
    kind: str
    rows: tuple
    coordinates: tuple


@dataclass(frozen=True)
class CliqueWitness:
    """A 2k-clique of tuple vertices over 2kr distinct base elements.

    repetitions counts the listed equalities, those clique_equality_edges
    yields, each an exact difference identity.  They need not all be
    independent: all-plus sign classes collapse some regrouped
    equalities, so independent_repetitions carries the union-find count.
    """

    clique: tuple
    base_vertices: tuple
    repetitions: int
    equalities: tuple
    independent_repetitions: int


def clique_equality_edges(rows, signs):
    """Yield (p, q, kind, coordinates, edge1, edge2) for every difference
    repetition asserted by clique rows whose edges have sign pattern
    `signs`: per row pair p < q, the r-1 direct pairs (0, l) and the
    C(r,2) regrouped pairs (l, m), in the order certificates list them."""
    sgn = [1] + [1 if s == "+" else -1 for s in signs]
    for p, q in itertools.combinations(range(len(rows)), 2):
        a, b = rows[p], rows[q]
        for l in range(1, len(sgn)):
            yield p, q, "direct", (0, l), _base_pair(a[0], b[0]), _base_pair(a[l], b[l])
        for l, m in itertools.combinations(range(len(sgn)), 2):
            if sgn[l] * sgn[m] == 1:
                e1, e2 = _base_pair(a[l], a[m]), _base_pair(b[l], b[m])
            else:
                e1, e2 = _base_pair(a[l], b[m]), _base_pair(b[l], a[m])
            yield p, q, "regrouped", (l, m), e1, e2


def clique_request(sub: EnergyGraph, k: int, values) -> int:
    """The cycle length 2k of a clique witness from the sign class `sub`;
    raises unless k >= 2 and values holds exactly sub.n elements, the set
    sub was built from.  Needs no cycle, like witness_request."""
    if k < 2:
        raise WitnessError(f"k={k} must be at least 2")
    check_same_size(sub, values)
    return 2 * k


def clique_from_cycle_arith(sub: EnergyGraph, cycle: CyclePath, k: int,
                            values) -> CliqueWitness:
    """Expand a 2k-cycle in one sign class into a full clique witness.

    The cycle's base elements must be distinct and each of its edges in
    the sign class of its first.  Telescoping the per-edge sign identities
    then shows every pair of cycle vertices satisfies them too, so each
    difference equality clique_equality_edges lists holds exactly.
    """
    length = clique_request(sub, k, values)
    if cycle.length != length:
        raise WitnessError(f"cycle length {cycle.length} must be {length}")
    validate_cycle(sub, cycle)
    rows = cycle.vertices
    base_ids = [v for row in rows for v in row]
    if len(set(base_ids)) != len(base_ids):
        raise WitnessError("cycle repeats a base element; not a simple witness")
    signs = edge_sign_vector(rows[0], rows[1], values)
    for x, y in zip(rows[1:], rows[2:] + rows[:1]):
        if edge_sign_vector(x, y, values) != signs:
            raise SignConsistencyError(f"edge {x}-{y} is not in the {signs} class")
    equalities = tuple(
        DifferenceEquality(e1, e2, abs(values[e1[0]] - values[e1[1]]), kind, (p, q), coords)
        for p, q, kind, coords, e1, e2 in clique_equality_edges(rows, signs)
    )
    forest = _UnionFind()
    independent = sum(forest.union((eq.difference, eq.edge1), (eq.difference, eq.edge2))
                      for eq in equalities)
    return CliqueWitness(tuple(rows), tuple(sorted(base_ids)), len(equalities), equalities,
                         independent)
