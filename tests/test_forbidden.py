import itertools
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locallab import (
    BudgetExceededError,
    CliqueWitness,
    CyclePath,
    DifferenceEquality,
    EnergyGraph,
    LocalLabError,
    PaddingError,
    SignConsistencyError,
    WitnessError,
    build_rth_energy_graph,
    build_second_energy_graph,
    check_local_property,
    clique_certificate,
    clique_from_cycle_arith,
    coloring_from_set,
    edge_sign_vector,
    energy_graph_from_dict,
    energy_graph_to_dict,
    find_complete_bipartite,
    find_cycle,
    find_subdivision,
    halve_parts_prune,
    ln_ceiling,
    new_coloring,
    partition_for_rth_energy,
    prune_coordinate_neighbors,
    prune_diagonal,
    prune_rare_colors,
    random_coloring,
    real_set,
    sign_decompose,
    validate_cycle,
    verify_certificate,
    witness_from_cycle,
)
from locallab.forbidden import (
    ColorRepetition,
    WitnessSet,
    _assign_midpoints,
    _base_pair,
    _check_steps,
    _search_cycle,
    _UnionFind,
    clique_equality_edges,
    witness_request,
)


def mono(n, label=0):
    return new_coloring(n, [(u, v, label) for u in range(n) for v in range(u + 1, n)])


def check_cycle(graph, cycle, length):
    assert cycle.length == length == len(cycle.vertices)
    assert len(set(cycle.vertices)) == length
    validate_cycle(graph, cycle)


def dict_adjacency(graph):
    """EnergyGraph.adjacency of a dict graph on int vertices, read as the
    codes of an order-2 graph with more base vertices than any of them."""
    pairs = sorted({(min(v, w), max(v, w)) for v, ws in graph.items() for w in ws})
    return EnergyGraph(2, 1 + max((y for _, y in pairs), default=0), None,
                       np.array([p[0] for p in pairs], dtype=np.int64),
                       np.array([p[1] for p in pairs], dtype=np.int64)).adjacency()


def find_dict_cycle(graph, length):
    """find_cycle's search kernel on a dict graph."""
    adj = dict_adjacency(graph)
    found = _search_cycle(adj, length)
    return None if found is None else CyclePath(tuple(adj[0][found].tolist()))


def validate_dict_cycle(graph, cycle):
    """validate_cycle's step check on a dict graph."""
    _check_steps(dict_adjacency(graph), list(cycle.vertices), cycle.vertices)


def graph_with_edges(eg, edges):
    """`eg` with its edges replaced by the sorted (X, Y) pairs `edges`,
    read back through the graph file record."""
    xs, ys = (np.array([eg.code(v[end]) for v in edges]) for end in (0, 1))
    return energy_graph_from_dict(energy_graph_to_dict(
        EnergyGraph(eg.r, eg.n, eg.parts, xs, ys, eg.provenance)))


# -- plain cycle search ------------------------------------------------------


def test_find_cycle_on_dict_graphs():
    square = {0: [1, 3], 1: [2], 2: [3], 3: []}
    c = find_dict_cycle(square, 4)
    validate_dict_cycle(square, c)
    assert c.vertices == (0, 1, 2, 3)
    assert find_dict_cycle(square, 3) is None

    tree = {0: [1, 2], 1: [3, 4], 2: [5]}
    assert find_dict_cycle(tree, 3) is None
    assert find_dict_cycle(tree, 4) is None

    k4 = {i: [j for j in range(4) if j > i] for i in range(4)}
    assert find_dict_cycle(k4, 3).vertices == (0, 1, 2)
    assert find_dict_cycle(k4, 4).vertices == (0, 1, 2, 3)
    with pytest.raises(LocalLabError):
        find_dict_cycle(k4, 2)


def test_find_cycle_returns_lex_least_start():
    # two squares sharing nothing; the 4-cycle through 0 wins
    g = {4: [5, 7], 5: [6], 6: [7], 0: [1, 3], 1: [2], 2: [3]}
    assert find_dict_cycle(g, 4).vertices == (0, 1, 2, 3)


def test_validate_cycle_rejects_non_cycles():
    square = {0: [1, 3], 1: [2], 2: [3], 3: []}
    with pytest.raises(LocalLabError):
        validate_dict_cycle(square, CyclePath((0, 1, 3, 2)))
    with pytest.raises(LocalLabError):
        CyclePath((0, 1, 1, 2))
    eg = prune_diagonal(build_second_energy_graph(mono(4)))
    with pytest.raises(WitnessError, match=r"\(1, 2\) -> \(0, 4\) is not an edge"):
        validate_cycle(eg, CyclePath(((0, 0), (1, 2), (0, 4), (1, 3))))  # (0, 4) has no code


def test_find_cycle_in_energy_graphs():
    g = mono(4)
    eg = prune_diagonal(build_second_energy_graph(g))
    c = find_cycle(eg, 4)
    check_cycle(eg, c, 4)
    assert c.vertices == ((0, 0), (1, 2), (0, 1), (1, 3))
    assert {type(x) for v in c.vertices for x in v} == {int}
    assert find_cycle(eg, 3).vertices == ((0, 0), (1, 2), (2, 1))
    # rare pruning with an impossible threshold leaves nothing to find
    empty = prune_rare_colors(eg, g, 10**6)
    assert find_cycle(empty, 4) is None


def small_energy_graphs():
    for seed in range(5):
        g = random_coloring(5, 3, seed=seed)
        yield build_second_energy_graph(g)
        yield prune_diagonal(build_second_energy_graph(g))
        h = random_coloring(8, 2, seed=seed)
        for r in (2, 3):
            eg = build_rth_energy_graph(h, r, partition_for_rth_energy(h, r, seed=seed).parts)
            yield eg
            yield halve_parts_prune(eg, seed=seed)


def test_find_cycle_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    found = []
    for eg in small_energy_graphs():
        G = nx.Graph(eg.edges)
        for length in (3, 4, 5):
            cycle = find_cycle(eg, length)
            exists = any(len(c) == length for c in nx.simple_cycles(G, length_bound=length))
            assert (cycle is None) == (not exists), (eg.provenance, length)
            if cycle is not None:
                check_cycle(eg, cycle, length)
                steps = zip(cycle.vertices, cycle.vertices[1:] + cycle.vertices[:1])
                assert all(G.has_edge(v, w) for v, w in steps)
            found.append(cycle is not None)
    assert len(found) == 90 and 0 < sum(found) < 90


def reference_search_cycle(adj, length):
    """_search_cycle as it was first written: every row turned into a
    list before the search starts."""
    ptr, nbrs = adj[1].tolist(), adj[2].tolist()

    def extend(start, closers, path, on_path):
        v = path[-1]
        if len(path) == length:
            return list(path) if v in closers else None
        for w in nbrs[ptr[v]:ptr[v + 1]]:
            if w <= start or w in on_path:
                continue
            path.append(w)
            on_path.add(w)
            found = extend(start, closers, path, on_path)
            if found:
                return found
            path.pop()
            on_path.remove(w)
        return None

    for s in range(len(ptr) - 1):
        if ptr[s + 1] - ptr[s] < 2:
            continue
        found = extend(s, set(nbrs[ptr[s]:ptr[s + 1]]), [s], {s})
        if found:
            return found
    return None


def random_dict_graphs(count):
    # dense and sparse graphs, forests and bipartite graphs, so that some
    # lengths have no cycle and the search visits every row
    rng = random.Random(7)
    for _ in range(count):
        n, p, kind = rng.randint(2, 13), rng.random(), rng.choice(["any", "forest", "bipartite"])
        if kind == "forest":
            yield {v: [rng.randrange(v)] for v in range(1, n) if rng.random() < 0.8}
        else:
            yield {v: [w for w in range(v + 1, n) if rng.random() < p
                       and (kind == "any" or (v - w) % 2)] for v in range(n)}


def test_search_cycle_matches_the_eager_reference():
    adjacencies = [dict_adjacency(graph) for graph in random_dict_graphs(300)]
    adjacencies += [eg.adjacency() for eg in small_energy_graphs()]
    found = []
    for adj in adjacencies:
        for length in range(3, 9):
            cycle = _search_cycle(adj, length)
            assert cycle == reference_search_cycle(adj, length)
            found.append(cycle is not None)
    assert 0.2 < sum(found) / len(found) < 0.8


def cycle_adjacency(size):
    """CSR adjacency of the cycle 0 - 1 - ... - (size - 1) - 0."""
    return dict_adjacency({v: [(v + 1) % size] for v in range(size)})


@st.composite
def small_graphs(draw):
    # up to 10 vertices joined at random, and a length past the vertex count too
    n = draw(st.integers(2, 10))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=30))
    graph = {v: [w for u, w in pairs if u == v and w != v] for v in range(n)}
    return graph, draw(st.integers(3, n + 2))


@settings(max_examples=300, deadline=None, database=None)
@given(case=small_graphs())
# a cycle deeper than the recursion limit, even as hypothesis raises it by 2000
@example(case=({v: [(v + 1) % 2500] for v in range(2500)}, 2500))
def test_search_cycle_matches_the_recursive_reference(case):
    graph, length = case
    adj = dict_adjacency(graph)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 2 * length + 100))
    try:
        want = reference_search_cycle(adj, length)
    finally:
        sys.setrecursionlimit(limit)
    assert _search_cycle(adj, length) == want


def test_search_cycle_finds_a_cycle_deeper_than_the_recursion_limit():
    adj = cycle_adjacency(1500)
    assert _search_cycle(adj, 1500) == list(range(1500))
    # each of 1500 vertices has two neighbors, so no longer cycle exists
    assert _search_cycle(adj, 1501) is None
    assert _search_cycle(cycle_adjacency(4), 10**30) is None


def test_cycle_search_charges_each_step_its_neighbor_count(monkeypatch):
    # from its start 0 the 1500-cycle's search steps to 1 .. 1498, each of two
    # neighbors, and closes at 1499 from 1498's row
    adj = cycle_adjacency(1500)
    monkeypatch.setenv("LOCALLAB_BUDGET", str(2 * 1498))
    assert _search_cycle(adj, 1500) == list(range(1500))
    monkeypatch.setenv("LOCALLAB_BUDGET", str(2 * 1498 - 1))
    with pytest.raises(BudgetExceededError, match="the cycle search exceeded the 2995 step"):
        _search_cycle(adj, 1500)


# -- complete bipartite pairs ------------------------------------------------


def brute_bipartite(g, color, s, t):
    mat = g.color_matrix()
    for left in itertools.combinations(range(g.n), s):
        for right in itertools.combinations(range(g.n), t):
            if set(left) & set(right):
                continue
            if all(mat[u][v] == color for u in left for v in right):
                return True
    return False


def reference_bipartite(g, color, s, t):
    # the per-subset search the mask kernel replaced
    mat = g.color_matrix()
    for side_s in itertools.combinations(range(g.n), s):
        members = set(side_s)
        common = [
            v
            for v in range(g.n)
            if v not in members and all(mat[v][u] == color for u in side_s)
        ]
        if len(common) >= t:
            return side_s, tuple(common[:t])
    return None


def test_find_complete_bipartite_frozen():
    g = mono(5)
    found = find_complete_bipartite(g, 0, 2, 3)
    assert found == ((0, 1), (2, 3, 4))
    rainbow = new_coloring(5, [(u, v, f"{u}{v}") for u in range(5) for v in range(u + 1, 5)])
    assert find_complete_bipartite(rainbow, 0, 1, 2) is None


def test_find_complete_bipartite_matches_bruteforce():
    rng = random.Random(45)
    for _ in range(20):
        n = rng.randrange(4, 10)
        g = random_coloring(n, rng.randrange(1, 4), seed=rng.randrange(10**6))
        s = rng.randrange(1, 4)
        t = rng.randrange(s, 5)
        for color in range(g.num_colors):
            found = find_complete_bipartite(g, color, s, t)
            assert (found is not None) == brute_bipartite(g, color, s, t)
            assert found == reference_bipartite(g, color, s, t)
            if found is not None:
                left, right = found
                assert len(left) == s and len(right) == t
                assert not set(left) & set(right)
                for u in left:
                    for v in right:
                        assert g.color_of(u, v) == color


def test_find_complete_bipartite_answer_past_the_first_chunk():
    # the only 3 x 4 block in color 0 starts at subset row 4950 of C(32, 3) = 4960
    block = {(u, v) for u in range(4) for v in (27, 28, 29)}
    g = new_coloring(32, [(u, v, 0 if (u, v) in block else 1)
                          for u, v in itertools.combinations(range(32), 2)])
    color = g.color_id(0)  # label 1 is seen first, so label 0 has id 1
    found = find_complete_bipartite(g, color, 3, 4)
    assert found == ((27, 28, 29), (0, 1, 2, 3)) == reference_bipartite(g, color, 3, 4)
    assert all(type(v) is int for side in found for v in side)


def test_find_complete_bipartite_rejects_bad_parameters():
    g = mono(5)
    with pytest.raises(LocalLabError):
        find_complete_bipartite(g, 0, 0, 2)
    with pytest.raises(LocalLabError):
        find_complete_bipartite(g, 0, 3, 2)
    with pytest.raises(LocalLabError):
        find_complete_bipartite(g, 5, 1, 1)


# -- subdivisions ------------------------------------------------------------


def check_subdivision(g, color, emb, t):
    assert len(emb.branch_vertices) == t
    mids = list(emb.midpoints.values())
    assert len(set(mids)) == len(mids)
    assert not set(mids) & set(emb.branch_vertices)
    assert len(mids) == t * (t - 1) // 2
    for (u, v), m in emb.midpoints.items():
        assert g.color_of(u, m) == g.color_of(v, m) == color


def test_find_subdivision_in_mono_k6():
    g = mono(6)
    emb = find_subdivision(g, 0, 3)
    check_subdivision(g, 0, emb, 3)
    assert emb.branch_vertices == (0, 1, 2)
    # K_5 has too few vertices for 3 branches plus 3 distinct midpoints
    assert find_subdivision(mono(5), 0, 3) is None
    # 9 vertices fit t=3 with room to spare
    emb = find_subdivision(mono(9), 0, 3)
    check_subdivision(mono(9), 0, emb, 3)


def test_find_subdivision_t4_needs_more_edges():
    assert find_subdivision(mono(9), 0, 4) is None  # 4 + C(4,2) = 10 > 9
    emb = find_subdivision(mono(10), 0, 4)
    check_subdivision(mono(10), 0, emb, 4)


def test_find_subdivision_skips_small_classes():
    # the color class must have at least t(t-1) edges to host the paths
    g = random_coloring(8, 20, seed=1)
    for color in range(g.num_colors):
        emb = find_subdivision(g, color, 3)
        if emb is not None:
            check_subdivision(g, color, emb, 3)
    with pytest.raises(LocalLabError):
        find_subdivision(g, 0, 2)


def reference_midpoints(branch, neighbors):
    # the backtracking over the scarcest pair first that the matching replaced
    banned = set(branch)
    candidates = {}
    for u, v in itertools.combinations(branch, 2):
        cands = sorted((neighbors[u] & neighbors[v]) - banned)
        if not cands:
            return None
        candidates[(u, v)] = cands
    order = sorted(candidates, key=lambda p: (len(candidates[p]), p))
    assignment = {}
    used = set()

    def assign(i):
        if i == len(order):
            return True
        pair = order[i]
        for m in candidates[pair]:
            if m in used:
                continue
            assignment[pair] = m
            used.add(m)
            if assign(i + 1):
                return True
            del assignment[pair]
            used.remove(m)
        return False

    return dict(sorted(assignment.items())) if assign(0) else None


def reference_subdivision(g, color, t):
    # the per-branch-set search the block filter replaced
    mask = g.color_matrix() == color
    if np.count_nonzero(mask) // 2 < t * (t - 1):
        return None
    neighbors = [set(np.flatnonzero(row).tolist()) for row in mask]
    for branch in itertools.combinations(range(g.n), t):
        midpoints = reference_midpoints(branch, neighbors)
        if midpoints is not None:
            return branch, midpoints
    return None


def as_pair(emb):
    return None if emb is None else (emb.branch_vertices, emb.midpoints)


def test_find_subdivision_matches_the_reference_search():
    rng = random.Random(46)
    found = 0
    for _ in range(40):
        n = rng.randrange(6, 13)
        g = random_coloring(n, rng.randrange(1, 4), seed=rng.randrange(10**6))
        t = rng.randrange(3, 5)
        for color in range(g.num_colors):
            emb = find_subdivision(g, color, t)
            assert as_pair(emb) == reference_subdivision(g, color, t), (n, t, color)
            if emb is not None:
                check_subdivision(g, color, emb, t)
                found += 1
    assert found  # both outcomes occur


def test_find_subdivision_rejects_a_star_by_blocks():
    # every pair of leaves shares only the center, so no branch set has room
    # for C(4, 2) midpoints; all C(40, 4) = 91,390 branch sets are rejected
    g = new_coloring(40, [(u, v, 0 if u == 0 else 1)
                          for u, v in itertools.combinations(range(40), 2)])
    assert find_subdivision(g, g.color_id(0), 4) is None


def test_find_subdivision_answer_past_the_first_block():
    # color 0 is a star from 0 to 1..13 plus a K_10 on 14..23; the first
    # branch set that fits is (14, 15, 16, 17), row 10,416 of C(24, 4) = 10,626
    clique = set(range(14, 24))
    g = new_coloring(24, [(u, v, 0 if (u == 0 and v < 14) or {u, v} <= clique else 1)
                          for u, v in itertools.combinations(range(24), 2)])
    color = g.color_id(0)
    emb = find_subdivision(g, color, 4)
    assert as_pair(emb) == reference_subdivision(g, color, 4)
    assert emb.branch_vertices == (14, 15, 16, 17)
    check_subdivision(g, color, emb, 4)


@st.composite
def midpoint_systems(draw):
    # a graph on 6-16 vertices whose density, from sparse to complete, puts
    # branch sets on both sides of Hall's condition, and a sorted branch set
    n = draw(st.integers(6, 16))
    density = draw(st.integers(0, 256))
    draws = draw(st.binary(min_size=math.comb(n, 2), max_size=math.comb(n, 2)))
    neighbors = [set() for _ in range(n)]
    for (u, v), byte in zip(itertools.combinations(range(n), 2), draws):
        if byte < density:
            neighbors[u].add(v)
            neighbors[v].add(u)
    t = draw(st.integers(3, 5))
    branch = draw(st.lists(st.integers(0, n - 1), min_size=t, max_size=t, unique=True))
    return tuple(sorted(branch)), neighbors


@settings(max_examples=300, deadline=None, database=None)
@given(case=midpoint_systems())
def test_assign_midpoints_matches_the_backtracking_reference(case):
    branch, neighbors = case
    assert _assign_midpoints(branch, neighbors) == reference_midpoints(branch, neighbors)


def hall_failure(t):
    # core vertices 0..t-2 share C(t-1, 2) - 1 midpoints, one too few for
    # their pairs, while private midpoints through hub t-1 and one vertex
    # joined to the hub and 0 let branch set 0..t-1 pass the block filter
    shared = range(t, t + math.comb(t - 1, 2) - 1)
    private = t + len(shared)  # core vertex c's private midpoint is private + c
    n = private + t
    red = {(c, m) for c in range(t - 1) for m in shared}
    red |= {(c, private + c) for c in range(t - 1)} | {(t - 1, private + c) for c in range(t - 1)}
    red |= {(t - 1, n - 1), (0, n - 1)}
    return new_coloring(n, [(u, v, "r" if (u, v) in red else "b")
                            for u, v in itertools.combinations(range(n), 2)])


def test_find_subdivision_hall_failure_ends():
    # a backtracking midpoint search tries every injective partial
    # assignment of branch set 0..6 before it fails
    g = hall_failure(7)
    assert find_subdivision(g, g.color_id("r"), 7) is None
    g = hall_failure(5)
    emb = find_subdivision(g, g.color_id("r"), 5)
    assert as_pair(emb) == reference_subdivision(g, g.color_id("r"), 5)


# -- witness sets from second-order cycles -----------------------------------


def test_witness_from_clean_cycle_needs_no_padding():
    g = mono(12)
    eg = prune_diagonal(build_second_energy_graph(g))
    cycle = find_cycle(eg, 4)
    ws = witness_from_cycle(g, eg, cycle, "pair", 8)
    assert ws.vertices == (0, 1, 2, 3, 4, 5, 6, 7)
    assert ws.target_k == 8
    assert ws.claimed_repetitions == 4
    assert [e.kind for e in ws.equalities] == [f"cycle-step-{i}" for i in range(1, 5)]
    assert ws.colors_spanned == 1
    assert ws.colors_spanned <= 8 * 7 // 2 - ws.claimed_repetitions
    # the spanned count is the real one
    assert check_local_property(g, 8, math.comb(8, 2)).min_colors_seen == 1


MIRRORED = CyclePath(((0, 1), (1, 0), (0, 2), (2, 0)))


def test_witness_padding_fills_shortfalls():
    # a mirrored cycle reuses base pairs, so only one step yields a fresh
    # repetition and three padding edges of the anchor color are needed
    g = mono(12)
    eg = prune_diagonal(build_second_energy_graph(g))
    cycle = MIRRORED
    validate_cycle(eg, cycle)
    ws = witness_from_cycle(g, eg, cycle, "pair", 8)
    assert ws.claimed_repetitions == 4
    kinds = [e.kind for e in ws.equalities]
    assert kinds.count("padding") == 3 and kinds.count("cycle-step-2") == 1
    assert ws.vertices == (0, 1, 2, 3, 4, 5, 6, 7)
    for e in ws.equalities:
        assert e.edge1 != e.edge2
        assert g.color_of(*e.edge1) == g.color_of(*e.edge2) == g.color_id(e.color)


def two_edge_anchor():
    """K_12 whose color "A" has only the two base edges MIRRORED reuses."""
    return new_coloring(12, [(u, v, "A" if (u, v) in ((0, 1), (0, 2)) else "B")
                             for u, v in itertools.combinations(range(12), 2)])


def test_witness_padding_runs_out():
    g = two_edge_anchor()
    eg = prune_diagonal(build_second_energy_graph(g))
    cycle = MIRRORED
    validate_cycle(eg, cycle)
    with pytest.raises(PaddingError) as err:
        witness_from_cycle(g, eg, cycle, "pair", 8)
    assert "3 more unused edge(s)" in str(err.value)
    assert "'A'" in str(err.value)


def test_witness_2nd_rejects_bad_inputs():
    g = mono(12)
    eg = prune_diagonal(build_second_energy_graph(g))
    cycle = find_cycle(eg, 4)
    with pytest.raises(WitnessError):
        witness_from_cycle(g, eg, cycle, "pair", 6)  # not a multiple of four
    with pytest.raises(WitnessError):
        witness_from_cycle(g, eg, cycle, "pair", 4)  # too small
    with pytest.raises(WitnessError):
        witness_from_cycle(g, eg, cycle, "pair", 16)  # exceeds n
    with pytest.raises(WitnessError, match="cycle length 3 must be 4"):
        witness_from_cycle(g, eg, find_cycle(eg, 3), "pair", 8)
    part = partition_for_rth_energy(g, 3, seed=0)
    eg3 = build_rth_energy_graph(g, 3, part.parts)
    c3 = find_cycle(eg3, 4)
    with pytest.raises(WitnessError):
        witness_from_cycle(g, eg3, c3, "pair", 8)  # wrong order


def third_order_pipeline(n, seed):
    g = mono(n)
    part = partition_for_rth_energy(g, 3, seed=seed)
    eg = build_rth_energy_graph(g, 3, part.parts)
    eg = prune_rare_colors(eg, g, ln_ceiling(n))
    eg = halve_parts_prune(eg, seed=seed)
    eg = prune_coordinate_neighbors(eg)
    return g, eg


def test_an_unknown_witness_kind_is_refused():
    # the triple audits all pass on this graph, so only the kind can refuse it
    g, eg = third_order_pipeline(30, 0)
    cycle = find_cycle(eg, 8)
    assert witness_request(g, eg, "triple") == (8, 24, 16)
    for kind in ("tuple", "Triple", ""):
        with pytest.raises(WitnessError, match=f"^unknown witness kind {kind!r}$"):
            witness_request(g, eg, kind)
        with pytest.raises(WitnessError, match=f"^unknown witness kind {kind!r}$"):
            witness_from_cycle(g, eg, cycle, kind)


def test_witness_from_third_order_cycle():
    g, eg = third_order_pipeline(30, 0)
    cycle = find_cycle(eg, 8)
    check_cycle(eg, cycle, 8)
    ws = witness_from_cycle(g, eg, cycle, "triple")
    assert len(ws.vertices) == 24
    assert ws.target_k == 24
    assert ws.claimed_repetitions == 16
    assert ws.colors_spanned <= 24 * 23 // 2 - 16
    # the first four steps of a pruned cycle touch 12 distinct vertices
    # and 12 distinct base pairs
    coords = [v for t in cycle.vertices[:4] for v in t]
    assert len(set(coords)) == 12
    pairs = set()
    for i in range(4):
        x, y = cycle.vertices[i], cycle.vertices[i + 1 if i < 7 else 0]
        for j in range(3):
            pairs.add(tuple(sorted((x[j], y[j]))))
    assert len(pairs) == 12


def test_witness_3rd_rejects_missing_pruning():
    g = mono(30)
    part = partition_for_rth_energy(g, 3, seed=0)
    eg = build_rth_energy_graph(g, 3, part.parts)
    raw = prune_rare_colors(eg, g, ln_ceiling(30))
    cycle = find_cycle(raw, 8)
    with pytest.raises(WitnessError):
        witness_from_cycle(g, raw, cycle, "triple")  # never halved
    halved = halve_parts_prune(raw, seed=0)
    cycle = find_cycle(halved, 8)
    if cycle is not None:
        with pytest.raises(WitnessError):
            witness_from_cycle(g, halved, cycle, "triple")  # neighbors share coordinates


def test_witness_3rd_rejects_small_base():
    g, eg = third_order_pipeline(24, 2)
    small = mono(12)
    cycle = find_cycle(eg, 8)
    if cycle is not None:
        with pytest.raises(WitnessError):
            witness_from_cycle(small, eg, cycle, "triple")


def reference_walk_cycle(g, eg, cycle):
    """The cycle walk that witness_from_cycle replaced, kept as a reference."""
    validate_cycle(eg, cycle)
    forest = _UnionFind()
    vertices = set()
    equalities = []
    length = cycle.length
    for i in range(length):
        x = cycle.vertices[i]
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
    anchor_color = g.color_of(cycle.vertices[0][0], cycle.vertices[1][0])
    anchor_pair = _base_pair(cycle.vertices[0][0], cycle.vertices[1][0])
    return forest, vertices, equalities, anchor_color, anchor_pair


def reference_pad_witness(g, forest, vertices, equalities, anchor_color, anchor_pair,
                          target_reps, target_k):
    """The padding that witness_from_cycle replaced, kept as a reference."""
    anchor_edges = [(u, v) for u, v in itertools.combinations(range(g.n), 2)
                    if g.color_of(u, v) == anchor_color]
    while len(equalities) < target_reps:
        unused = [e for e in anchor_edges if (anchor_color, e) not in forest]
        if not unused:
            raise PaddingError(target_reps - len(equalities),
                               g.label_of(anchor_color))
        pad = min(unused, key=lambda e: (sum(1 for v in e if v not in vertices), e))
        forest.union((anchor_color, anchor_pair), (anchor_color, pad))
        vertices.update(pad)
        equalities.append(
            ColorRepetition(anchor_pair, pad, g.label_of(anchor_color), "padding")
        )
    if len(vertices) > target_k:
        raise WitnessError(
            f"cycle is too degenerate: {len(vertices)} vertices exceed the target {target_k}"
        )
    for v in range(g.n):
        if len(vertices) == target_k:
            break
        vertices.add(v)
    if len(vertices) < target_k:
        raise WitnessError(f"only {g.n} base vertices, cannot reach size {target_k}")
    claimed = len(equalities)
    spanned = g.colors_within(vertices)
    budget = target_k * (target_k - 1) // 2 - claimed
    if spanned > budget:
        raise WitnessError(
            f"witness spans {spanned} colors, more than the promised {budget}"
        )
    return WitnessSet(tuple(sorted(vertices)), claimed, target_k, spanned,
                      tuple(equalities))


def outcome(make):
    """What make() returns, or the type and message of what it raises."""
    try:
        return make()
    except LocalLabError as exc:
        return type(exc), str(exc)


def witness_corpus():
    """(g, eg, cycle, kind, k) cases: clean and mirrored cycles, padding
    that runs out, random colorings, and pruned third energy graphs."""
    g = mono(12)
    eg = prune_diagonal(build_second_energy_graph(g))
    for k in (8, 12):
        yield g, eg, find_cycle(eg, k // 2), "pair", k
    yield g, eg, MIRRORED, "pair", 8
    h = two_edge_anchor()
    yield h, prune_diagonal(build_second_energy_graph(h)), MIRRORED, "pair", 8
    rng = random.Random(47)
    for n in range(12, 17):
        for colors in range(2, 5):
            g = random_coloring(n, colors, seed=rng.randrange(10**6))
            eg = prune_diagonal(build_second_energy_graph(g))
            for k in range(8, n + 1, 4):
                yield g, eg, find_cycle(eg, k // 2), "pair", k
    for n in (24, 30):
        for seed in range(4):
            g, eg = third_order_pipeline(n, seed)
            cycle = find_cycle(eg, 8)
            if cycle is not None:
                yield g, eg, cycle, "triple", None


def test_cycle_witness_matches_the_two_step_reference():
    kinds = set()
    for g, eg, cycle, kind, k in witness_corpus():
        target_k, target_reps = (k, k // 2) if kind == "pair" else (24, 16)
        new = outcome(lambda: witness_from_cycle(g, eg, cycle, kind, k))
        old = outcome(lambda: reference_pad_witness(g, *reference_walk_cycle(g, eg, cycle),
                                                    target_reps, target_k))
        assert new == old, (g.n, eg.r, cycle, target_k)
        kinds.add((eg.r, type(new).__name__))
    # both orders give witnesses, and padding that runs out raises
    assert {(2, "WitnessSet"), (3, "WitnessSet"), (2, "tuple")} <= kinds


# -- arithmetic clique witnesses ---------------------------------------------


def synthetic_classes():
    A = real_set([0, 1, 2, 3, 10, 11, 12, 13])
    g = coloring_from_set(A)
    eg = build_rth_energy_graph(g, 2, ((0, 1, 2, 3), (4, 5, 6, 7)))
    return A, sign_decompose(eg, A)


def test_clique_from_plus_class_cycle():
    A, classes = synthetic_classes()
    plus = classes[("+",)]
    cycle = find_cycle(plus, 4)
    assert cycle.vertices == ((0, 4), (1, 5), (2, 6), (3, 7))
    cw = clique_from_cycle_arith(plus, cycle, 2, A)
    assert isinstance(cw, CliqueWitness)
    assert cw.base_vertices == (0, 1, 2, 3, 4, 5, 6, 7)
    assert cw.repetitions == 12 == len(cw.equalities)
    # equal leading and trailing differences collapse some regrouped
    # equalities: 12 listed, 9 independent
    assert cw.independent_repetitions == 9
    check_equalities(cw, A)


def test_clique_from_minus_class_cycle():
    A, classes = synthetic_classes()
    minus = classes[("-",)]
    cycle = find_cycle(minus, 4)
    assert cycle.vertices == ((0, 7), (1, 6), (2, 5), (3, 4))
    cw = clique_from_cycle_arith(minus, cycle, 2, A)
    assert cw.repetitions == 12
    assert cw.independent_repetitions == 12
    check_equalities(cw, A)


def check_equalities(cw, values):
    vals = values.elements
    direct = [e for e in cw.equalities if e.kind == "direct"]
    regrouped = [e for e in cw.equalities if e.kind == "regrouped"]
    pair_count = len(cw.clique) * (len(cw.clique) - 1) // 2
    r = len(cw.clique[0])
    assert len(direct) == pair_count * (r - 1)
    assert len(regrouped) == pair_count * (r * (r - 1) // 2)
    for e in cw.equalities:
        a1, b1 = e.edge1
        a2, b2 = e.edge2
        assert abs(vals[a1] - vals[b1]) == abs(vals[a2] - vals[b2]) == e.difference
        assert len({a1, b1, a2, b2}) == 4


def test_clique_rejects_inconsistent_cycles():
    A, classes = synthetic_classes()
    plus = classes[("+",)]
    cycle = find_cycle(plus, 4)
    with pytest.raises(WitnessError):
        clique_from_cycle_arith(plus, cycle, 3, A)  # wrong length for k=3
    # a cycle straddling sign classes is caught by the exact checks even
    # when all eight base elements are distinct
    B = real_set([0, 1, 3, 4, 10, 11, 13, 14])
    h = coloring_from_set(B)
    egb = build_rth_energy_graph(h, 2, ((0, 1, 2, 3), (4, 5, 6, 7)))
    cb = sign_decompose(egb, B)
    union = sorted(set(cb[("+",)].edges) | set(cb[("-",)].edges))
    mixed = graph_with_edges(cb[("+",)], union)
    mix_cycle = CyclePath(((0, 5), (1, 4), (3, 6), (2, 7)))
    validate_cycle(mixed, mix_cycle)
    with pytest.raises(SignConsistencyError):
        clique_from_cycle_arith(mixed, mix_cycle, 2, B)


def test_clique_rejects_repeated_base_elements():
    # No sign class holds a cycle that reuses a base element: along a
    # sign-homogeneous cycle any two vertices satisfy v_j - u_j =
    # s_j (v_0 - u_0), so the square is hand-built.  Its cycle
    # (0,5)-(1,6)-(0,7)-(1,8) reuses the base elements 0 and 1.
    A = real_set([0, 1, 2, 3, 4, 10, 11, 12, 13, 14])
    g = coloring_from_set(A)
    template = build_rth_energy_graph(g, 2, ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)))
    square = [((0, 5), (1, 6)), ((0, 5), (1, 8)), ((0, 7), (1, 6)), ((0, 7), (1, 8))]
    eg = graph_with_edges(template, square)
    cycle = find_cycle(eg, 4)
    assert cycle.vertices == ((0, 5), (1, 6), (0, 7), (1, 8))
    with pytest.raises(WitnessError, match="repeats a base element"):
        clique_from_cycle_arith(eg, cycle, 2, A)


def reference_clique_from_cycle_arith(sub, cycle, k, values):
    """The clique construction that checked every listed equality and its
    count again, kept as a reference."""
    vals = getattr(values, "elements", values)
    if cycle.length != 2 * k or k < 2:
        raise WitnessError(f"need a cycle of length 2k with k >= 2, got {cycle.length}")
    validate_cycle(sub, cycle)
    r = sub.r
    rows = cycle.vertices
    base_ids = [v for row in rows for v in row]
    if len(set(base_ids)) != 2 * k * r:
        raise WitnessError("cycle repeats a base element; not a simple witness")

    signs = edge_sign_vector(rows[0], rows[1], vals)
    sgn = [1] + [1 if s == "+" else -1 for s in signs]
    for i in range(1, cycle.length):
        x, y = rows[i], rows[(i + 1) % cycle.length]
        if edge_sign_vector(x, y, vals) != signs:
            raise SignConsistencyError(f"edge {x}-{y} is not in the {signs} class")

    equalities = []
    for p, q, kind, coords, e1, e2 in clique_equality_edges(rows, signs):
        d1 = abs(vals[e1[0]] - vals[e1[1]])
        l, m = coords
        if kind == "direct":
            a, b = rows[p], rows[q]
            if vals[a[m]] - vals[b[m]] != sgn[m] * (vals[a[0]] - vals[b[0]]):
                raise SignConsistencyError(
                    f"rows {p} and {q} break the sign identity in coordinate {m}"
                )
        elif d1 != abs(vals[e2[0]] - vals[e2[1]]):
            raise SignConsistencyError(
                f"regrouped repetition fails for rows {p},{q} coordinates {l},{m}"
            )
        equalities.append(DifferenceEquality(e1, e2, d1, kind, (p, q), coords))

    expected = (k * (2 * k - 1)) * (r - 1 + r * (r - 1) // 2)
    if len(equalities) != expected:
        raise WitnessError(f"listed {len(equalities)} repetitions, expected {expected}")
    forest = _UnionFind()
    independent = sum(forest.union((eq.difference, eq.edge1), (eq.difference, eq.edge2))
                      for eq in equalities)
    return CliqueWitness(
        tuple(rows),
        tuple(sorted(base_ids)),
        len(equalities),
        tuple(equalities),
        independent,
    )


def clique_corpus():
    """(graph, cycle, k, values) cases: the first 2k-cycle, k = 2 and 3, in
    every sign class and in the unsplit graph of seeded arithmetic
    colorings at r = 2, 3 and 4.  Part j is 100j + s_j P for one random
    6-set P and random signs s_j, so every class holds cycles."""
    rng = random.Random(67)
    for r in (2, 3, 4):
        for _ in range(3):
            P = rng.sample(range(12), 6)
            signs = [rng.choice((1, -1)) for _ in range(r)]
            blocks = [[100 * j + s * p for p in P] for j, s in enumerate(signs)]
            values = real_set(sorted(v for block in blocks for v in block))
            index = {v: i for i, v in enumerate(values.elements)}
            g = coloring_from_set(values)
            eg = build_rth_energy_graph(g, r, [sorted(index[v] for v in b) for b in blocks])
            for graph in [eg, *sign_decompose(eg, values).values()]:
                for k in (2, 3):
                    cycle = find_cycle(graph, 2 * k)
                    if cycle is not None:
                        yield graph, cycle, k, values
    # the cycle of test_clique_rejects_inconsistent_cycles, straddling two classes
    B = real_set([0, 1, 3, 4, 10, 11, 13, 14])
    eg = build_rth_energy_graph(coloring_from_set(B), 2, ((0, 1, 2, 3), (4, 5, 6, 7)))
    yield eg, CyclePath(((0, 5), (1, 4), (3, 6), (2, 7))), 2, B


def test_clique_matches_the_checking_reference():
    kinds = set()
    for graph, cycle, k, values in clique_corpus():
        new = outcome(lambda: clique_from_cycle_arith(graph, cycle, k, values))
        assert new == outcome(lambda: reference_clique_from_cycle_arith(graph, cycle, k, values))
        if isinstance(new, CliqueWitness):
            ok, messages = verify_certificate(clique_certificate(new), elements=values)
            assert ok, messages
            kinds.add((graph.r, graph.provenance[-1]))
        else:
            kinds.add((graph.r, new[0].__name__))
    # a clique from every sign class, and cycles that mix classes or repeat
    # a base element
    assert {(r, f"sign_class({''.join(s)})") for r in (2, 3, 4)
            for s in itertools.product("+-", repeat=r - 1)} <= kinds
    assert {(2, "SignConsistencyError"), (2, "WitnessError")} <= kinds
