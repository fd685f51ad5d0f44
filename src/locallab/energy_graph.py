"""Energy graphs: tuple graphs whose edges encode simultaneous color equalities.

The second energy graph has vertex set V x V (diagonal pairs included)
and an edge {(x1,x2),(y1,y2)} whenever x1 != y1, x2 != y2, and
chi(x1,y1) = chi(x2,y2); twice its edge count equals E_2.  The r-th
energy graph is built in partitioned form over V_1 x ... x V_r with the
same coordinate-wise rule, so each coordinate's base pair lies inside
its own part.  Pruning stages only remove edges and are recorded in the
provenance, in order:

- prune_diagonal drops the edges joining two diagonal vertices, which
  encode the degenerate repetitions chi(u,v) = chi(u,v); exactly
  n(n-1)/2 such edges exist in a freshly built second energy graph.
- prune_rare_colors drops edges whose color has few base edges.
- halve_parts_prune splits every part in two and keeps only edges whose
  every coordinate pair crosses its split.
- prune_coordinate_neighbors greedily enforces that no vertex has two
  neighbors agreeing in any coordinate.
- sign_decompose splits an arithmetic energy graph into 2^(r-1) classes
  by the sign pattern resolving |v_1-v'_1| = ... = |v_r-v'_r|.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field

from .config import ENERGY_GRAPH_EDGE_BUDGET, budget
from .coloring import EdgeColoring
from .errors import (
    BudgetExceededError,
    EnergyGraphError,
    PartitionError,
    SignConsistencyError,
)
from .jsonio import fields
from .partition import RPartition


@dataclass(frozen=True, eq=False)
class EnergyGraph:
    """Immutable energy graph of order r over base vertices 0..n-1.

    parts is None for the full V x V form (r = 2 only) and a tuple of r
    disjoint vertex tuples for the partitioned form; the vertex set is
    implicit (the full product).  edges holds (X, Y, color_id) triples
    with X < Y lexicographically, sorted.  color_base_edges maps each
    color id seen on an edge to its base edge count in the source
    coloring (unordered count, so m_c / 2).
    """

    r: int
    n: int
    parts: tuple | None
    edges: tuple
    color_base_edges: dict
    provenance: tuple = field(default_factory=tuple)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_vertices(self) -> int:
        if self.parts is None:
            return self.n**self.r
        total = 1
        for part in self.parts:
            total *= len(part)
        return total

    def adjacency(self) -> dict:
        """Vertex -> sorted tuple of its neighbors; only vertices touching
        an edge appear as keys.  Built on the first call and kept, so the
        cycle search and its audits share one map: do not mutate it."""
        adj = self.__dict__.get("_adjacency")
        if adj is None:
            lists = {}
            for x, y, _ in self.edges:
                lists.setdefault(x, []).append(y)
                lists.setdefault(y, []).append(x)
            adj = {v: tuple(sorted(ws)) for v, ws in lists.items()}
            object.__setattr__(self, "_adjacency", adj)
        return adj

    def _replaced(self, edges, stage: str) -> "EnergyGraph":
        """Same graph with a subsequence of its (sorted) edges kept."""
        return EnergyGraph(
            self.r,
            self.n,
            self.parts,
            tuple(edges),
            dict(self.color_base_edges),
            self.provenance + (stage,),
        )


def _product_graph(g: EdgeColoring, r: int, parts, pools, stage: str) -> EnergyGraph:
    """Energy graph whose color-c edges join X = (u_1[0], ..., u_r[0]) and
    Y = (u_1[1], ..., u_r[1]) for each choice of ordered base pairs u_j
    from pools[c][j], with X < Y.

    Each unordered edge {X, Y} arises from exactly two ordered choices,
    so keeping X < Y emits it once and the edge count is exactly half
    the sum over colors of the product of pool sizes.
    """
    cap = budget(ENERGY_GRAPH_EDGE_BUDGET)
    predicted = sum(math.prod(map(len, pool)) for pool in pools) // 2
    if predicted > cap:
        raise BudgetExceededError(f"{predicted} energy edges exceed the budget {cap}")
    edges = []
    for c, pool in enumerate(pools):
        xs = itertools.product(*[[u[0] for u in pairs] for pairs in pool])
        ys = itertools.product(*[[u[1] for u in pairs] for pairs in pool])
        edges.extend((x, y, c) for x, y in zip(xs, ys) if x < y)
    counts = {c: len(pairs) for c, pairs in enumerate(g.color_classes())}
    return EnergyGraph(r, g.n, parts, tuple(sorted(edges)), counts, (stage,))


def build_second_energy_graph(g: EdgeColoring) -> EnergyGraph:
    """Full-form energy graph on V x V; 2 * |edges| = E_2 exactly."""
    cap = budget(ENERGY_GRAPH_EDGE_BUDGET)
    if g.n**2 > cap:
        raise BudgetExceededError(f"energy graph needs {g.n ** 2} vertices, budget {cap}")
    pools = []
    for pairs in g.color_classes():
        ordered = pairs + [(v, u) for u, v in pairs]
        pools.append([ordered, ordered])
    return _product_graph(g, 2, None, pools, "build_second")


def build_rth_energy_graph(g: EdgeColoring, r: int, parts) -> EnergyGraph:
    """Partitioned r-th energy graph; coordinate j draws its base pairs
    from inside part j only, so 2 * |edges| counts the ordered 2r-tuples
    whose j-th pair lies inside V_j."""
    if r < 2:
        raise EnergyGraphError(f"order r={r} must be >= 2")
    part_tuples = parts.parts if isinstance(parts, RPartition) else tuple(
        tuple(sorted(p)) for p in parts
    )
    if len(part_tuples) != r:
        raise EnergyGraphError(f"expected {r} parts, got {len(part_tuples)}")
    seen = set()
    for part in part_tuples:
        for v in part:
            if not 0 <= v < g.n or v in seen:
                raise EnergyGraphError(f"parts must be disjoint subsets of 0..{g.n - 1}")
            seen.add(v)
    if len(seen) != g.n:
        raise EnergyGraphError("parts must cover every base vertex")

    membership = {}
    for j, part in enumerate(part_tuples):
        for v in part:
            membership[v] = j
    # ordered within-part pairs per color and coordinate
    within = [[[] for _ in range(r)] for _ in range(g.num_colors)]
    for u, v, c in g.edge_items():
        j = membership[u]
        if membership[v] == j:
            within[c][j].append((u, v))
            within[c][j].append((v, u))
    return _product_graph(g, r, part_tuples, within, "build_partitioned")


def prune_diagonal(eg: EnergyGraph) -> EnergyGraph:
    """Drop edges between two diagonal vertices (a,a)-(b,b); on a fresh
    second energy graph these are exactly the n(n-1)/2 degenerate
    repetitions chi(a,b) = chi(a,b).  Idempotent."""
    if eg.r != 2 or eg.parts is not None:
        raise EnergyGraphError("diagonal pruning applies to the full second energy graph")
    kept = [
        (x, y, c)
        for x, y, c in eg.edges
        if not (x[0] == x[1] and y[0] == y[1])
    ]
    return eg._replaced(kept, "prune_diagonal")


def prune_rare_colors(eg: EnergyGraph, threshold: int) -> EnergyGraph:
    """Drop every edge whose color has fewer than `threshold` base edges
    in the source coloring (strict comparison)."""
    if threshold < 0:
        raise EnergyGraphError("threshold must be non-negative")
    kept = [
        (x, y, c) for x, y, c in eg.edges if eg.color_base_edges.get(c, 0) >= threshold
    ]
    return eg._replaced(kept, f"prune_rare_colors({threshold})")


def halve_parts_prune(eg: EnergyGraph, seed: int, max_trials: int = 1000) -> EnergyGraph:
    """Split every part in two balanced halves and keep only edges whose
    coordinate pairs all cross their split.

    The first split keeping at least a 3^(-r) fraction of the edges is
    accepted; otherwise the best of max_trials is kept and the
    provenance notes the miss.
    """
    if eg.parts is None:
        raise EnergyGraphError("halving needs the partitioned form")
    for part in eg.parts:
        if len(part) < 2:
            raise PartitionError(f"part {part!r} is too small to split")
    rng = random.Random(seed)
    total = len(eg.edges)
    scale = 3**eg.r
    best_kept = None
    best_count = -1
    trials = 0
    for trial in range(1, max_trials + 1):
        trials = trial
        side = {}
        for part in eg.parts:
            order = list(part)
            rng.shuffle(order)
            half = (len(order) + 1) // 2
            for i, v in enumerate(order):
                side[v] = i < half
        kept = [
            (x, y, c)
            for x, y, c in eg.edges
            if all(side[x[j]] != side[y[j]] for j in range(eg.r))
        ]
        if len(kept) > best_count:
            best_count = len(kept)
            best_kept = kept
        if len(kept) * scale >= total:
            stage = f"halve_parts(seed={seed},trials={trial},kept={len(kept)}/{total},met=True)"
            return eg._replaced(kept, stage)
    stage = f"halve_parts(seed={seed},trials={trials},kept={best_count}/{total},met=False)"
    return eg._replaced(best_kept, stage)


def prune_coordinate_neighbors(eg: EnergyGraph) -> EnergyGraph:
    """Greedy edge retention in lexicographic order so that no vertex
    ends up with two neighbors sharing a value in any coordinate."""
    used = {}

    def slots(v):
        if v not in used:
            used[v] = [set() for _ in range(eg.r)]
        return used[v]

    kept = []
    for x, y, c in eg.edges:
        sx = slots(x)
        sy = slots(y)
        if any(y[j] in sx[j] or x[j] in sy[j] for j in range(eg.r)):
            continue
        for j in range(eg.r):
            sx[j].add(y[j])
            sy[j].add(x[j])
        kept.append((x, y, c))
    return eg._replaced(kept, "prune_coordinate_neighbors")


def coordinate_neighbor_violations(eg: EnergyGraph):
    """All (vertex, coordinate, value) triples where two neighbors of the
    vertex agree; empty after prune_coordinate_neighbors."""
    violations = []
    for v, nbrs in sorted(eg.adjacency().items()):
        for j in range(eg.r):
            seen = {}
            for w in nbrs:
                if w[j] in seen and seen[w[j]] != w:
                    violations.append((v, j, w[j]))
                seen.setdefault(w[j], w)
    return violations


def all_sign_sequences(r: int):
    return list(itertools.product("+-", repeat=r - 1))


def edge_sign_vector(x, y, values) -> tuple:
    """Sign pattern of an arithmetic energy edge: entry j-1 is '+' when
    value(x1) - value(y1) = value(xj) - value(yj) and '-' when it equals
    the negation.  Raises when neither holds."""
    values = getattr(values, "elements", values)
    d1 = values[x[0]] - values[y[0]]
    if d1 == 0:
        raise SignConsistencyError(f"edge {x}-{y} has a zero first difference")
    signs = []
    for j in range(1, len(x)):
        dj = values[x[j]] - values[y[j]]
        if dj == d1:
            signs.append("+")
        elif dj == -d1:
            signs.append("-")
        else:
            raise SignConsistencyError(
                f"edge {x}-{y} has no consistent sign in coordinate {j + 1}"
            )
    return tuple(signs)


def sign_decompose(eg: EnergyGraph, values) -> dict:
    """Partition an arithmetic energy graph into its 2^(r-1) sign classes.

    values maps base vertex i to its exact number (a RealSet or any
    indexable of exact values).  Every class is present in the result,
    possibly with no edges; the classes are edge-disjoint and exhaustive.
    """
    if eg.parts is None:
        raise EnergyGraphError("sign classes need the partitioned form")
    vals = getattr(values, "elements", values)
    if len(vals) < eg.n:
        raise SignConsistencyError(f"need a value for each of {eg.n} base vertices")
    buckets = {s: [] for s in all_sign_sequences(eg.r)}
    for x, y, c in eg.edges:
        buckets[edge_sign_vector(x, y, vals)].append((x, y, c))
    return {
        s: eg._replaced(edges, f"sign_class({''.join(s)})")
        for s, edges in buckets.items()
    }


def energy_graph_to_dict(eg: EnergyGraph) -> dict:
    """JSON shape with the vertex set left implicit; colors are the
    dense ids of the source coloring."""
    return {
        "r": eg.r,
        "n": eg.n,
        "parts": None if eg.parts is None else [list(p) for p in eg.parts],
        "edges": [[list(x), list(y), c] for x, y, c in eg.edges],
        "color_base_edges": {str(c): m for c, m in sorted(eg.color_base_edges.items())},
        "provenance": list(eg.provenance),
    }


def energy_graph_from_dict(data: dict) -> EnergyGraph:
    r, n, parts, edges, counts, provenance = fields(
        data, r=int, n=int, parts=([list], None), edges=list, color_base_edges=dict,
        provenance=[str],
    )
    try:
        eg = EnergyGraph(
            r,
            n,
            None if parts is None else tuple(tuple(p) for p in parts),
            tuple(sorted((tuple(x), tuple(y), c) for x, y, c in edges)),
            {int(c): m for c, m in counts.items()},
            tuple(provenance),
        )
        _check_vertices_and_colors(eg)
    except EnergyGraphError:
        raise
    except (TypeError, ValueError):
        raise EnergyGraphError("energy graph JSON has a malformed part, edge or count") from None
    return eg


def _check_vertices_and_colors(eg: EnergyGraph) -> None:
    """Each distinct edge vertex is r non-bool ints in 0..n-1, coordinate j
    inside part j when parts are set; each edge color has a base edge
    count, and every count is a non-negative int."""
    if any(type(m) is not int or m < 0 for m in eg.color_base_edges.values()):
        raise EnergyGraphError("color base edge counts must be non-negative ints")
    allowed = [range(eg.n)] * eg.r if eg.parts is None else [set(p) for p in eg.parts]
    if len(allowed) != eg.r:
        raise EnergyGraphError(f"{len(allowed)} parts for an order-{eg.r} graph")
    for v in {e[0] for e in eg.edges} | {e[1] for e in eg.edges}:
        if len(v) != eg.r or not all(
            type(x) is int and 0 <= x < eg.n and x in part for x, part in zip(v, allowed)
        ):
            raise EnergyGraphError(
                f"vertex {list(v)} is not {eg.r} ints in 0..{eg.n - 1}, each in its part"
            )
    for c in {e[2] for e in eg.edges}:
        if type(c) is not int or c not in eg.color_base_edges:
            raise EnergyGraphError(f"edge color {c!r} has no base edge count")
