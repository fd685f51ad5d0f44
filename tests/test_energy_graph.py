import base64
import collections
import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locallab import (
    BudgetExceededError,
    EnergyGraph,
    EnergyGraphError,
    SignConsistencyError,
    build_rth_energy_graph,
    build_second_energy_graph,
    coloring_from_set,
    coordinate_neighbor_violations,
    edge_sign_vector,
    energy,
    energy_graph_from_dict,
    energy_graph_to_dict,
    halve_parts_prune,
    new_coloring,
    partition_for_rth_energy,
    prune_coordinate_neighbors,
    prune_diagonal,
    prune_rare_colors,
    random_coloring,
    real_set,
    sign_decompose,
)
from locallab.coloring import pair_cells
from locallab.energy_graph import _digits, _part_index, colors_at_least, edge_colors
from locallab.jsonio import code_width, read_json, write_json


def mono(n):
    return new_coloring(n, [(u, v, 0) for u in range(n) for v in range(u + 1, n)])


def brute_full_edges(g):
    # every unordered pair of distinct tuples whose coordinate pairs are
    # distinct vertices sharing one color
    mat = g.color_matrix()
    n = g.n
    edges = set()
    for x in itertools.product(range(n), repeat=2):
        for y in itertools.product(range(n), repeat=2):
            if x >= y or x[0] == y[0] or x[1] == y[1]:
                continue
            if mat[x[0]][y[0]] == mat[x[1]][y[1]]:
                edges.add((x, y, mat[x[0]][y[0]]))
    return edges


def colored(eg, g):
    """The edges of eg as (X, Y, color id in g) triples."""
    return {(x, y, c) for (x, y), c in zip(eg.edges, edge_colors(eg, g).tolist())}


def brute_part_edges(g, r, parts):
    mat = g.color_matrix()
    edges = set()
    for x in itertools.product(*parts):
        for y in itertools.product(*parts):
            if x >= y or any(x[j] == y[j] for j in range(r)):
                continue
            cs = {mat[x[j]][y[j]] for j in range(r)}
            if len(cs) == 1:
                edges.add((x, y, cs.pop()))
    return edges


def test_second_graph_on_tiny_colorings():
    g2 = mono(2)
    eg = build_second_energy_graph(g2)
    assert colored(eg, g2) == {(((0, 0), (1, 1), 0)), ((0, 1), (1, 0), 0)}
    assert eg.num_vertices == 4 and eg.r == 2 and eg.parts is None

    rainbow3 = new_coloring(3, [(0, 1, "a"), (0, 2, "b"), (1, 2, "c")])
    eg = build_second_energy_graph(rainbow3)
    assert eg.num_vertices == 9
    assert eg.num_edges == 6
    assert 2 * eg.num_edges == energy(rainbow3, 2)


def test_second_graph_edge_count_is_half_the_energy():
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randrange(3, 9)
        c = rng.randrange(1, 7)
        g = random_coloring(n, c, seed=rng.randrange(10**6))
        eg = build_second_energy_graph(g)
        assert 2 * eg.num_edges == energy(g, 2)
        assert colored(eg, g) == brute_full_edges(g)


def test_diagonal_pruning_removes_exactly_one_per_base_pair():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randrange(3, 9)
        g = random_coloring(n, rng.randrange(1, 5), seed=rng.randrange(10**6))
        eg = build_second_energy_graph(g)
        pruned = prune_diagonal(eg)
        assert eg.num_edges - pruned.num_edges == n * (n - 1) // 2
        assert all(x[0] != x[1] or y[0] != y[1] for x, y in pruned.edges)
        assert pruned.provenance[-1] == "prune_diagonal"
        # the same edges as the rule on decoded coordinates
        (x0, x1), (y0, y1) = eg.digits(eg.xs), eg.digits(eg.ys)
        keep = (x0 != x1) | (y0 != y1)
        assert np.array_equal(pruned.xs, eg.xs[keep]) and np.array_equal(pruned.ys, eg.ys[keep])


def test_diagonal_pruning_needs_full_second_graph():
    g = mono(6)
    part = partition_for_rth_energy(g, 3, seed=0)
    eg = build_rth_energy_graph(g, 3, part.parts)
    with pytest.raises(EnergyGraphError):
        prune_diagonal(eg)


def test_rare_color_pruning_uses_strict_threshold():
    g = random_coloring(6, 3, seed=2)
    eg = build_second_energy_graph(g)
    counts = collections.Counter(g.colors)
    cut = sorted(counts.values())[1]
    pruned = prune_rare_colors(eg, g, cut)
    kept = set(edge_colors(pruned, g).tolist())
    assert kept == {c for c, m in counts.items() if m >= cut}
    assert prune_rare_colors(eg, g, 0).num_edges == eg.num_edges
    big = prune_rare_colors(eg, g, 10**6)
    assert big.num_edges == 0
    with pytest.raises(EnergyGraphError):
        prune_rare_colors(eg, g, -1)


def test_colors_at_least_reads_the_class_sizes_of_the_coloring():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randrange(3, 12)
        g = random_coloring(n, rng.randrange(1, 8), seed=rng.randrange(10**6))
        sizes = [g.colors.count(c) for c in range(g.num_colors)]
        eg = build_second_energy_graph(g)
        mat = g.color_matrix()
        for threshold in {0, 1, *sizes, max(sizes) + 1}:
            expected = [sizes[mat[x[0], y[0]]] >= threshold for x, y in eg.edges]
            assert colors_at_least(eg, g, threshold).tolist() == expected


def reference_within(g, part_of, r):
    """within[c][j]: the color-c pairs (u, v), u < v, inside part j, listed
    by itertools in lexicographic order."""
    within = [[[] for _ in range(r)] for _ in range(g.num_colors)]
    for u, v in itertools.combinations(range(g.n), 2):
        if part_of[u] == part_of[v]:
            within[g.color_of(u, v)][part_of[u]].append((u, v))
    return within


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_pairs_within_matches_the_itertools_reference(r):
    rng = random.Random(r)
    empty = 0
    for _ in range(25):
        n = rng.randrange(2, 13)
        g = random_coloring(n, rng.randrange(1, 12), seed=rng.randrange(10**6))
        part_of = [rng.randrange(r) for _ in range(n)]
        us, vs, counts = pair_cells(g, part_of, r)
        assert counts.shape == (g.num_colors, r)
        # cell c * r + j holds the color-c pairs inside part j
        ends = np.cumsum(counts).tolist()
        cells = [list(zip(us[a:b].tolist(), vs[a:b].tolist())) for a, b in zip([0, *ends], ends)]
        assert [cells[c * r:(c + 1) * r] for c in range(g.num_colors)] == reference_within(
            g, part_of, r)
        empty += int((counts == 0).sum())
    # a palette color has a pair in the one part r = 1 has, and with more
    # parts some color has no pair inside some part
    assert (empty == 0) == (r == 1)


def test_build_past_int32_codes_sums_them_in_int64():
    # 220^4 codes need int64; color "x" has one pair inside each part
    n, r = 220, 4
    parts = [tuple(range(j, n, r)) for j in range(r)]
    firsts = {p[:2] for p in parts}
    g = new_coloring(n, [(u, v, "x" if (u, v) in firsts else f"{u}-{v}")
                         for u, v in itertools.combinations(range(n), 2)])
    eg = build_rth_energy_graph(g, r, parts)
    assert eg.xs.dtype == np.int64
    want = {((parts[0][0], *(p[s] for p, s in zip(parts[1:], flips))),
             (parts[0][1], *(p[1 - s] for p, s in zip(parts[1:], flips))))
            for flips in itertools.product((0, 1), repeat=r - 1)}
    assert set(eg.edges) == want


def reference_build(g, r, parts):
    """Edge codes and colors as the build made them while a graph stored a
    color per edge: each color's edges filled in with np.full, then all
    three arrays gathered by the lexsort of (xs, ys)."""
    if parts is None:
        pair_lists = [cells * 2 for cells in reference_within(g, [0] * g.n, 1)]
    else:
        part_of = {v: j for j, part in enumerate(parts) for v in part}
        pair_lists = reference_within(g, part_of, r)
    xs, ys, cs = [], [], []
    for c, lists in enumerate(pair_lists):
        x = y = np.zeros(1, np.int64)
        for j, pairs in enumerate(lists):
            a, b = np.array(pairs, np.int64).reshape(-1, 2).T
            if j:
                a, b = np.concatenate((a, b)), np.concatenate((b, a))
            x = (x[:, None] + a * g.n ** (r - 1 - j)).ravel()
            y = (y[:, None] + b * g.n ** (r - 1 - j)).ravel()
        xs.append(x)
        ys.append(y)
        cs.append(np.full(len(x), c))
    xs, ys, cs = (np.concatenate(a) for a in (xs, ys, cs))
    order = np.lexsort((ys, xs))
    return xs[order], ys[order], cs[order]


def staged_graphs(form, g, seed, values):
    """The graph of `form` built from g, its parts, and the graph after each
    pruning stage that applies to that form; the sign forms also split the
    build into its sign classes over `values`.  Rare pruning keeps only the
    largest color classes."""
    largest = int(np.bincount(g.colors).max())
    if form == "full-2":
        eg = build_second_energy_graph(g)
        diagonal = prune_diagonal(eg)
        return eg, None, [diagonal, prune_rare_colors(eg, g, largest),
                          prune_rare_colors(diagonal, g, largest)]
    r = int(form[-1])
    parts = partition_for_rth_energy(g, r, seed=seed).parts
    eg = build_rth_energy_graph(g, r, parts)
    halved = halve_parts_prune(eg, seed=seed)
    stages = [prune_rare_colors(eg, g, largest), halved, prune_coordinate_neighbors(halved),
              prune_coordinate_neighbors(eg)]
    if form.startswith("sign"):
        stages += sign_decompose(eg, values).values()
    return eg, parts, stages


@pytest.mark.parametrize("form", ["full-2", "partitioned-2", "partitioned-3",
                                  "partitioned-4", "sign-2", "sign-3"])
def test_edge_colors_match_the_stored_color_reference(form):
    # the colors the build used to store per edge, against those read from g
    rng = random.Random(form)
    edges = 0
    for seed in range(6):
        n = rng.randrange(8, 17)
        values = real_set(sorted(rng.sample(range(1, 4 * n), n)))
        if form.startswith("sign"):
            g = coloring_from_set(values)
        else:
            g = random_coloring(n, rng.randrange(1, 9), seed=rng.randrange(10**6))
        eg, parts, stages = staged_graphs(form, g, seed, values)
        xs, ys, cs = reference_build(g, eg.r, parts)
        assert np.array_equal(eg.xs, xs) and np.array_equal(eg.ys, ys)
        reference = dict(zip(zip(xs.tolist(), ys.tolist()), cs.tolist()))
        mat = g.color_matrix()
        for stage in [eg, *stages]:
            colors = edge_colors(stage, g)
            want = [reference[e] for e in zip(stage.xs.tolist(), stage.ys.tolist())]
            assert colors.tolist() == want
            for a, b in zip(stage.digits(stage.xs), stage.digits(stage.ys)):
                assert np.array_equal(mat[a, b], colors)
            edges += stage.num_edges
    assert edges


@pytest.mark.parametrize("r", [2, 3, 4])
def test_build_matches_the_reference_with_many_colors_and_empty_cells(r):
    # arith-chain's shape: 120 elements of 1..240, over 200 differences;
    # and few colors over r parts, so some color has pairs inside some
    # parts but none inside another, and adds no edge
    rng = random.Random(r)
    many = coloring_from_set(real_set(rng.sample(range(1, 241), 120)))
    assert many.num_colors > 200
    empty = 0
    for g in [many] + [random_coloring(rng.randrange(3 * r, 21), rng.randrange(2, 7),
                                       seed=rng.randrange(10**6)) for _ in range(6)]:
        parts = partition_for_rth_energy(g, r, seed=rng.randrange(100)).parts
        counts = pair_cells(g, _part_index(parts, r, g.n), r)[2]
        empty += int(((counts == 0).any(axis=1) & (counts > 0).any(axis=1)).sum())
        eg = build_rth_energy_graph(g, r, parts)
        xs, ys, _ = reference_build(g, r, parts)
        assert np.array_equal(eg.xs, xs) and np.array_equal(eg.ys, ys)
    assert empty


def past_int64_keys_graph(n=240):
    """A partitioned build at r = 4 whose codes pass 3.04e9, where code *
    n^4 leaves int64 for n >= 240: color "x" joins the first two and the
    last two vertices of each part."""
    r = 4
    parts = [tuple(range(j, n, r)) for j in range(r)]
    x = {p[:2] for p in parts} | {p[-2:] for p in parts}
    g = new_coloring(n, [(u, v, "x" if (u, v) in x else f"{u}-{v}")
                         for u, v in itertools.combinations(range(n), 2)])
    return g, parts, build_rth_energy_graph(g, r, parts)


def test_build_past_int64_keys_ranks_the_codes_first():
    g, parts, eg = past_int64_keys_graph()
    xs, ys, _ = reference_build(g, eg.r, parts)
    assert np.array_equal(eg.xs, xs) and np.array_equal(eg.ys, ys)
    assert eg.num_edges == 2 * 4**3 and ys.max() > 3.04e9
    assert (eg.n**eg.r) ** 2 > np.iinfo(np.int64).max


def wide(*values):
    """`values` as a blob of 8-byte little-endian unsigned ints."""
    return base64.b64encode(np.array(values, dtype="<u8")).decode()


def test_graph_file_order_is_checked_past_int64_keys():
    _, _, eg = past_int64_keys_graph(260)  # 260^4 > 2^32: a code gap needs eight bytes
    data = energy_graph_to_dict(eg)
    assert data["widths"] == [8, 1, 1]
    back = energy_graph_from_dict(data)
    assert np.array_equal(back.xs, eg.xs) and np.array_equal(back.ys, eg.ys)
    assert back.edges == eg.edges
    # the writer refuses edges out of order: the last two swapped, the last repeated
    every = np.arange(eg.num_edges)
    for order in (np.concatenate((every[:-2], every[:-3:-1])), np.append(every, every[-1])):
        bad = EnergyGraph(eg.r, eg.n, eg.parts, eg.xs[order], eg.ys[order])
        assert bad.xs[-1] > 3.04e9
        with pytest.raises(EnergyGraphError, match="strictly increasing"):
            energy_graph_to_dict(bad)
    # and the reader rows of 8-byte gaps: the last edge's smaller end X
    # joined to its larger end Y and to Y moved down by 4 in the last
    # coordinate, which keeps it in its part; a gap that would wrap the
    # row back from Y to Y - 4, or from Y - 4 to itself, is refused
    x, y = int(eg.xs[-1]), int(eg.ys[-1])
    assert x > 3.04e9 and y % eg.n >= 4 and (y - 4) % eg.n != x % eg.n
    rows = dict(data, codes=wide(x, y - 4 - x - 1, 3), counts=wide(2, 0, 0), widths=[8, 8, 8])
    sorted_rows = energy_graph_from_dict(dict(rows, neighbors=wide(0, 0)))
    assert sorted_rows.xs.tolist() == [x, x] and sorted_rows.ys.tolist() == [y - 4, y]
    for gaps in ([1, 2**64 - 2], [0, 2**64 - 1]):  # positions 2, 1 and 1, 1
        with pytest.raises(EnergyGraphError, match="every neighbor must lie past its row"):
            energy_graph_from_dict(dict(rows, neighbors=wide(*gaps)))


@pytest.mark.parametrize("other", [24, 36])
def test_graph_and_coloring_on_different_n_are_rejected(other):
    g = random_coloring(30, 3, seed=0)
    eg = build_rth_energy_graph(g, 3, partition_for_rth_energy(g, 3, seed=0).parts)
    h = random_coloring(other, 3, seed=0)
    message = f"the energy graph has n=30 but the coloring n={other}"
    for call in (lambda: prune_rare_colors(eg, h, 1), lambda: edge_colors(eg, h)):
        with pytest.raises(EnergyGraphError, match=message):
            call()


def test_partitioned_build_matches_brute_force():
    rng = random.Random(31)
    for _ in range(8):
        n = rng.randrange(4, 9)
        r = rng.choice((2, 3))
        if n < r:
            continue
        g = random_coloring(n, rng.randrange(1, 4), seed=rng.randrange(10**6))
        part = partition_for_rth_energy(g, r, seed=rng.randrange(100))
        eg = build_rth_energy_graph(g, r, part.parts)
        assert colored(eg, g) == brute_part_edges(g, r, part.parts)
        # survivor tuples counted by the partition equal twice the edges
        assert part.within_tuple_count == 2 * eg.num_edges


def test_partitioned_build_frozen_example():
    g = mono(4)
    eg = build_rth_energy_graph(g, 2, ((0, 1), (2, 3)))
    assert set(eg.edges) == {(((0, 2), (1, 3))), ((0, 3), (1, 2))}
    assert eg.num_vertices == 4


def test_build_rejects_bad_parts():
    g = mono(4)
    with pytest.raises(EnergyGraphError):
        build_rth_energy_graph(g, 2, ((0, 1),))
    with pytest.raises(EnergyGraphError):
        build_rth_energy_graph(g, 2, ((0, 1), (1, 2)))
    with pytest.raises(EnergyGraphError):
        build_rth_energy_graph(g, 2, ((0, 1), (2, 5)))
    with pytest.raises(EnergyGraphError):
        build_rth_energy_graph(g, 1, ((0, 1),))


def test_halving_keeps_cross_half_edges_only():
    g = mono(12)
    part = partition_for_rth_energy(g, 2, seed=0)
    eg = build_rth_energy_graph(g, 2, part.parts)
    halved = halve_parts_prune(eg, seed=3)
    assert halved.num_edges > 0
    assert any(s.startswith("halve_parts(") for s in halved.provenance)
    again = halve_parts_prune(eg, seed=3)
    assert again.edges == halved.edges
    # reconstruct the halves from the stage record: every surviving edge
    # must split each coordinate across the two halves
    assert halved.edges
    for x, y in halved.edges:
        assert all(x[j] != y[j] for j in range(2))


def test_halving_needs_partitioned_graph():
    g = mono(6)
    eg = build_second_energy_graph(g)
    with pytest.raises(EnergyGraphError):
        halve_parts_prune(eg, seed=0)


def test_coordinate_neighbor_pruning():
    g = mono(9)
    part = partition_for_rth_energy(g, 3, seed=1)
    eg = build_rth_energy_graph(g, 3, part.parts)
    assert coordinate_neighbor_violations(eg)
    pruned = prune_coordinate_neighbors(eg)
    assert coordinate_neighbor_violations(pruned) == []
    assert pruned.provenance[-1] == "prune_coordinate_neighbors"
    # idempotent once clean
    assert prune_coordinate_neighbors(pruned).edges == pruned.edges


def reference_prune_coordinate_neighbors(eg):
    """The tuple-decoding greedy pass that the integer marks replaced, kept
    as a reference: the indices of the edges it keeps."""
    used = set()  # (vertex, coordinate, value of a kept neighbor there)
    kept = []
    for i, (x, y) in enumerate(zip(eg.vertices(eg.xs), eg.vertices(eg.ys))):
        marks = [(x, j, y[j]) for j in range(eg.r)] + [(y, j, x[j]) for j in range(eg.r)]
        if used.isdisjoint(marks):
            used.update(marks)
            kept.append(i)
    return kept


def reference_coordinate_neighbor_violations(eg):
    """The tuple-decoding audit that the integer marks replaced, kept as a
    reference."""
    codes, ptr, nbrs = eg.adjacency()
    vertices = eg.vertices(codes)
    violations = []
    for i, v in enumerate(vertices):
        row = [vertices[w] for w in nbrs[ptr[i]:ptr[i + 1]].tolist()]
        for j in range(eg.r):
            seen = set()
            for w in row:
                if w[j] in seen:
                    violations.append((v, j, w[j]))
                seen.add(w[j])
    return violations


def coordinate_corpus():
    """Seeded graphs for the coordinate rule: partitioned graphs at r = 2,
    3 and 4, each raw and halved, and every sign class of arithmetic
    colorings at r = 2 and 3."""
    rng = random.Random(61)
    for r in (2, 3, 4):
        for seed in range(4):
            n = rng.randrange(12, {2: 25, 3: 20, 4: 18}[r])
            g = random_coloring(n, rng.randrange(1, 4), seed=rng.randrange(10**6))
            eg = build_rth_energy_graph(g, r, partition_for_rth_energy(g, r, seed=seed).parts)
            yield eg
            yield halve_parts_prune(eg, seed=seed)
    for r in (2, 3):
        for seed in range(3):
            values = real_set(sorted(rng.sample(range(1, 41), 24)))
            g = coloring_from_set(values)
            eg = build_rth_energy_graph(g, r, partition_for_rth_energy(g, r, seed=seed).parts)
            yield from sign_decompose(eg, values).values()


def test_coordinate_rule_matches_the_tuple_reference():
    repeats = []
    for eg in coordinate_corpus():
        pruned = prune_coordinate_neighbors(eg)
        kept = reference_prune_coordinate_neighbors(eg)
        assert np.array_equal(pruned.xs, eg.xs[kept]) and np.array_equal(pruned.ys, eg.ys[kept])
        violations = coordinate_neighbor_violations(eg)
        assert violations == sorted(reference_coordinate_neighbor_violations(eg))
        assert coordinate_neighbor_violations(pruned) == []
        repeats.append(max(collections.Counter(violations).values(), default=0))
    # some graphs are clean, and some have three or more neighbors agreeing
    assert min(repeats) == 0 and max(repeats) >= 2


def test_coordinate_marks_stay_in_int64_when_n_to_the_r_is_near_it():
    # (0, 0) has two neighbors with n - 1 in coordinate 1; the vertex code
    # times r * n would pass 2^63 here
    n = 3_000_000_000
    eg = EnergyGraph(2, n, None, np.array([0, 0], dtype=np.int64),
                     np.array([2 * n - 1, 3 * n - 1], dtype=np.int64))
    assert coordinate_neighbor_violations(eg) == [((0, 0), 1, n - 1)]
    assert coordinate_neighbor_violations(eg) == reference_coordinate_neighbor_violations(eg)
    assert prune_coordinate_neighbors(eg).edges == (((0, 0), (1, n - 1)),)
    assert reference_prune_coordinate_neighbors(eg) == [0]


def test_sign_vectors_on_a_frozen_set():
    A = real_set([0, 1, 10, 11])
    assert edge_sign_vector((0, 2), (1, 3), A) == ("+",)
    assert edge_sign_vector((0, 3), (1, 2), A) == ("-",)
    with pytest.raises(SignConsistencyError):
        edge_sign_vector((0, 2), (0, 3), A)  # leading difference is zero
    B = real_set([0, 1, 10, 12])
    with pytest.raises(SignConsistencyError):
        edge_sign_vector((0, 2), (1, 3), B)  # |10-12| != |0-1|


def test_sign_decomposition_partitions_the_graph():
    rng = random.Random(17)
    for seed in range(6):
        values = real_set(sorted(rng.sample(range(1, 40), 10)))
        g = coloring_from_set(values)
        part = partition_for_rth_energy(g, 2, seed=seed)
        eg = build_rth_energy_graph(g, 2, part.parts)
        classes = sign_decompose(eg, values)
        assert set(classes) == {("+",), ("-",)}
        together = []
        for key, sub in classes.items():
            together.extend(sub.edges)
            assert all(edge_sign_vector(x, y, values) == key for x, y in sub.edges)
        assert sorted(together) == list(eg.edges)
    # '-' is the high bit of a class's index, coordinate 2 the top one
    A = real_set([0, 1, 2, 3, 10, 11, 12, 13, 20])
    eg = build_rth_energy_graph(coloring_from_set(A), 3, ((0, 3, 6), (1, 4, 7), (2, 5, 8)))
    classes = sign_decompose(eg, A)
    assert ["".join(key) for key in classes] == ["++", "+-", "-+", "--"]
    for key, sub in classes.items():
        assert all(edge_sign_vector(x, y, A) == key for x, y in sub.edges)
    assert sum(sub.num_edges for sub in classes.values()) == eg.num_edges > 0


def test_sign_decomposition_needs_partitioned_graph():
    A = real_set([0, 1, 10, 11])
    eg = build_second_energy_graph(coloring_from_set(A))
    with pytest.raises(EnergyGraphError):
        sign_decompose(eg, A)


def test_sign_decomposition_needs_one_value_per_base_vertex():
    A = real_set([0, 1, 2, 3, 10, 11, 12, 13])
    eg = build_rth_energy_graph(coloring_from_set(A), 2, ((0, 2, 4, 6), (1, 3, 5, 7)))
    for other in ([0, 1, 2, 3, 10, 11, 12], [0, 1, 2, 3, 10, 11, 12, 13, 50, 77, 90]):
        with pytest.raises(EnergyGraphError,
                           match=f"n=8 but the element set {len(other)} values"):
            sign_decompose(eg, real_set(other))
    assert sum(c.num_edges for c in sign_decompose(eg, A).values()) == eg.num_edges
    with pytest.raises(EnergyGraphError, match="need a RealSet"):
        sign_decompose(eg, list(A))


def reference_sign_index(eg, values):
    """sign_decompose as first written: exact differences over an object
    array, '-' as bit 1 with coordinate 2 the top bit, and the first edge
    that fails its sign equations raised through edge_sign_vector."""
    table = np.array(values[:], dtype=object)
    d1, *rest = (table[a] - table[b] for a, b in zip(eg.digits(eg.xs), eg.digits(eg.ys)))
    bad = d1 == 0
    index = np.zeros(eg.num_edges, dtype=np.int64)
    for d in rest:
        bad |= (d != d1) & (d != -d1)
        index = 2 * index + (d == -d1)
    if bad.any():
        i = int(np.argmax(bad))
        edge_sign_vector(eg.vertices(eg.xs[i:i + 1])[0], eg.vertices(eg.ys[i:i + 1])[0], values)
    return index


def sign_outcome(kernel, eg, values):
    try:
        return kernel(eg, values)
    except SignConsistencyError as exc:
        return str(exc)


# one pair 1/2 apart in each part: one edge in each of the four classes
HALVES = real_set([0, Fraction(1, 2), 5, Fraction(11, 2), 10, Fraction(21, 2)])


@st.composite
def arithmetic_graphs(draw):
    """(graph, set): a partitioned graph of order 2 or 3 built from the
    coloring of an int, negative or Fraction set, or from that of another
    set of the same size or a random coloring, whose edges may then fail
    the sign equations of the first set."""
    r = draw(st.sampled_from([2, 3]))
    # a narrow range, so that differences repeat across the parts
    number = st.integers(-12, 12)
    if draw(st.booleans()):
        number |= st.builds(Fraction, st.integers(-12, 12), st.just(2))
    elements = st.lists(number, min_size=3 * r, max_size=12, unique=True)
    A = real_set(draw(elements))
    order = draw(st.permutations(range(len(A))))
    parts = [order[j::r] for j in range(r)]
    source = draw(st.sampled_from(["own", "other set", "random"]))
    if source == "own":
        g = coloring_from_set(A)
    elif source == "other set":
        other = st.lists(number, min_size=len(A), max_size=len(A), unique=True)
        g = coloring_from_set(real_set(draw(other)))
    else:
        g = random_coloring(len(A), draw(st.integers(1, 3)), draw(st.integers(0, 99)))
    return build_rth_energy_graph(g, r, parts), A


@settings(max_examples=200, deadline=None, database=None)
@given(case=arithmetic_graphs())
@example(case=(build_rth_energy_graph(coloring_from_set(real_set([0, 1, 10, 11])), 2,
                                      ((0, 2), (1, 3))), real_set([0, 1, 10, 12])))
@example(case=(build_rth_energy_graph(coloring_from_set(HALVES), 3, ((0, 1), (2, 3), (4, 5))),
               HALVES))
# a hand-made loop at (0, 2): no coordinate differs, so every color read is the diagonal's
@example(case=(EnergyGraph(2, 4, ((0, 1), (2, 3)), np.array([2]), np.array([2])),
               real_set([0, 1, 2, 3])))
def test_sign_classes_match_the_object_array_reference(case):
    eg, A = case
    got, want = sign_outcome(sign_decompose, eg, A), sign_outcome(reference_sign_index, eg, A)
    if isinstance(want, str):  # the same first bad edge, with the same message
        assert got == want
        return
    assert list(got) == list(itertools.product("+-", repeat=eg.r - 1))
    for k, (key, sub) in enumerate(got.items()):
        kept = want == k
        assert np.array_equal(sub.xs, eg.xs[kept]) and np.array_equal(sub.ys, eg.ys[kept])
        assert all(edge_sign_vector(x, y, A) == key for x, y in sub.edges)


def test_json_round_trip():
    g = random_coloring(6, 3, seed=8)
    eg = prune_diagonal(build_second_energy_graph(g))
    data = energy_graph_to_dict(eg)
    back = energy_graph_from_dict(data)
    assert back.edges == eg.edges
    assert back.r == eg.r and back.n == eg.n and back.parts == eg.parts
    assert back.provenance == eg.provenance
    assert data["format"] == 7
    assert list(data) == ["format", "r", "n", "parts", "codes", "counts", "neighbors",
                          "widths", "provenance"]

    part = partition_for_rth_energy(g, 2, seed=0)
    eg2 = build_rth_energy_graph(g, 2, part.parts)
    back2 = energy_graph_from_dict(energy_graph_to_dict(eg2))
    assert back2.parts == eg2.parts and back2.edges == eg2.edges


def every_stage(form):
    """The graphs of three seeded colorings (or element sets) in `form`,
    each built and then put through every stage that applies to it."""
    rng = random.Random(form)
    graphs = []
    for seed in range(3):
        n = rng.randrange(8, 15)
        values = real_set(sorted(rng.sample(range(1, 4 * n), n)))
        if form == "empty":
            g = random_coloring(n, 2, seed=seed)
            graphs += [prune_rare_colors(build_second_energy_graph(g), g, n * n),
                       prune_rare_colors(build_form("partitioned-3", g), g, n * n)]
            continue
        g = coloring_from_set(values) if form.startswith("sign") else \
            random_coloring(n, rng.randrange(1, 6), seed=rng.randrange(10**6))
        eg, _, stages = staged_graphs(form, g, seed, values)
        graphs += [eg, *stages]
    assert any(eg.num_edges for eg in graphs) != (form == "empty")
    return graphs


EVERY_FORM = ["full-2", "partitioned-2", "partitioned-3", "partitioned-4", "sign-2", "sign-3",
              "empty"]


@pytest.mark.parametrize("form", EVERY_FORM)
def test_every_stage_survives_the_graph_file(form):
    # every builder and stage, through the record and back: the same
    # edges, and the adjacency the reader built from the rows is the one
    # EnergyGraph.adjacency and its sorting reference build from the edges
    for eg in every_stage(form):
        back = energy_graph_from_dict(energy_graph_to_dict(eg))
        for name in ("xs", "ys"):
            before, after = getattr(eg, name), getattr(back, name)
            assert after.dtype == before.dtype and np.array_equal(after, before)
        assert (back.r, back.n, back.parts, back.provenance) == (eg.r, eg.n, eg.parts,
                                                                  eg.provenance)
        assert "_adjacency" in back.__dict__  # built by the reader, not on first use
        assert "_ranks" not in back.__dict__  # the reader keeps no per-edge ranks
        reference = reference_csr_adjacency(eg.xs, eg.ys)
        for got, built, want, dtype in zip(back.adjacency(), eg.adjacency(), reference,
                                           csr_dtypes(reference)):
            assert got.dtype == built.dtype == dtype
            np.testing.assert_array_equal(got, built)
            np.testing.assert_array_equal(got, want)
            assert not got.flags.writeable


@pytest.mark.parametrize("form", EVERY_FORM)
def test_ranks_match_the_unique_reference(form):
    # one ranking feeds the adjacency, the graph file and the coordinate
    # audit: the sorted distinct codes and every end's position among them
    for eg in every_stage(form):
        codes = np.unique(np.concatenate((eg.xs, eg.ys)))
        want = codes, np.searchsorted(codes, eg.xs), np.searchsorted(codes, eg.ys)
        got = eg.ranks()
        assert got is eg.ranks() and got[0] is eg.adjacency()[0]
        assert got[0].dtype == eg.xs.dtype
        for array, reference in zip(got, want):
            np.testing.assert_array_equal(array, reference)
            assert not array.flags.writeable


def test_coordinate_audits_build_no_adjacency():
    # the audits read the ranks alone, so no CSR is built that nothing searches
    g = random_coloring(12, 2, seed=3)
    for audit in (prune_coordinate_neighbors, coordinate_neighbor_violations):
        eg = build_form("partitioned-3", g)
        assert "_adjacency" not in eg.__dict__
        audit(eg)
        assert "_adjacency" not in eg.__dict__ and "_ranks" in eg.__dict__


def build_form(form, g):
    """The full second energy graph, or the partitioned one of order 2
    or 3 over the parts {v : v = j mod r}."""
    if form == "full-2":
        return build_second_energy_graph(g)
    r = int(form[-1])
    return build_rth_energy_graph(g, r, [range(j, g.n, r) for j in range(r)])


def random_graph(form, n, spread, seed, threshold):
    """The graph of `form` over a seeded coloring whose palette holds between
    an eighth of the base pairs and all of them, its rare colors pruned."""
    g = random_coloring(n, max(1, n * (n - 1) // 2 * spread // 8), seed=seed)
    return prune_rare_colors(build_form(form, g), g, threshold)


def star(n, count, low):
    """The order-2 graph on n whose `count` edges join one vertex to the
    first `count` codes that differ from it in both coordinates.  When its
    code is 0 (low), its row holds all `count`; when it is n^2 - 1, the
    row of the smallest code holds it as a neighbor gap of count - 1."""
    hub, others = (0, range(1, n)) if low else (n * n - 1, range(n - 1))
    spokes = np.array([a * n + b for a in others for b in others][:count], dtype=np.int32)
    hubs = np.full(count, hub, dtype=np.int32)
    return EnergyGraph(2, n, None, *((hubs, spokes) if low else (spokes, hubs)))


def one_edge(n, gap):
    """The order-2 graph on n of the one edge from code 0 to code gap + 1."""
    return EnergyGraph(2, n, None, np.array([0], np.int32), np.array([gap + 1], np.int32))


def reference_gaps(eg):
    """The entries of the code, count and neighbor blobs of eg's graph file,
    by Python loops over its edges."""
    codes = sorted(set(eg.xs.tolist()) | set(eg.ys.tolist()))
    position = {code: i for i, code in enumerate(codes)}
    rows = [[] for _ in codes]
    for x, y in zip(eg.xs.tolist(), eg.ys.tolist()):
        rows[position[x]].append(position[y])
    return ([b - a - 1 for a, b in zip([-1] + codes, codes)], [len(row) for row in rows],
            [b - a - 1 for i, row in enumerate(rows) for a, b in zip([i] + row, row)])


@settings(max_examples=60, deadline=None)
@given(eg=st.builds(random_graph, st.sampled_from(["full-2", "partitioned-2", "partitioned-3"]),
                    st.sampled_from([4, 7, 17, 41]), st.integers(1, 8), st.integers(0, 2**16),
                    st.integers(0, 12)))
# a full and a partitioned graph, an empty graph, and codes past 2^8 and 2^16
@example(eg=random_graph("full-2", 7, 3, 0, 0))
@example(eg=random_graph("partitioned-2", 7, 3, 0, 10**6))
@example(eg=random_graph("partitioned-3", 17, 1, 1, 0))
@example(eg=random_graph("partitioned-3", 41, 1, 2, 0))
# the largest count, neighbor gap and code gap on each side of the 1- and 2-byte widths
@example(eg=star(18, 255, low=True))
@example(eg=star(18, 256, low=True))
@example(eg=star(257, 65_535, low=True))
@example(eg=star(257, 65_536, low=True))
@example(eg=star(18, 256, low=False))
@example(eg=star(18, 257, low=False))
@example(eg=star(258, 65_536, low=False))
@example(eg=star(258, 65_537, low=False))
@example(eg=one_edge(18, 255))
@example(eg=one_edge(18, 256))
@example(eg=one_edge(300, 65_535))
@example(eg=one_edge(300, 65_536))
def test_graph_file_round_trip(tmp_path_factory, eg):
    path = tmp_path_factory.mktemp("graph") / "g.json"
    write_json(energy_graph_to_dict(eg), path)
    record = read_json(path)
    back = energy_graph_from_dict(record)
    # each blob holds the reference's entries, as wide as the largest of them
    for name, width, entries in zip(("codes", "counts", "neighbors"), record["widths"],
                                    reference_gaps(eg)):
        assert width == code_width(max(entries, default=0))
        assert np.frombuffer(base64.b64decode(record[name]), f"<u{width}").tolist() == entries
    for name in ("xs", "ys"):
        before, after = getattr(eg, name), getattr(back, name)
        assert after.dtype == before.dtype and np.array_equal(after, before)
    assert (back.r, back.n, back.parts) == (eg.r, eg.n, eg.parts)
    assert back.provenance == eg.provenance
    write_json(energy_graph_to_dict(back), path.with_name("again.json"))
    assert path.with_name("again.json").read_bytes() == path.read_bytes()


def traced_peak(call, *args):
    """call(*args) and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_file_peaks_per_edge(tmp_path):
    # 405,120 edges of 1,600 codes, int32 codes and keys: the writer holds
    # its int32 neighbor gaps, then the blobs; the reader keeps 16 bytes per
    # edge (both ends' codes and the keys of both directions, sorted into
    # the CSR indices) and peaks about 1 above it: its int32 positions are
    # freed as the last end codes are written, and its checks run in blocks
    eg = prune_diagonal(build_second_energy_graph(random_coloring(40, 3, 1)))
    eg.ranks()  # cached by the graph, so the writer's peak is its own
    data, written = traced_peak(energy_graph_to_dict, eg)
    back, read = traced_peak(energy_graph_from_dict, data)
    assert back.num_edges == eg.num_edges == 405_120
    assert written < 10 * eg.num_edges and read < 21 * eg.num_edges
    # each row's gaps fit one byte where the positions among 1,600 codes need two
    assert data["widths"][2] == 1 and len(base64.b64decode(data["neighbors"])) == eg.num_edges
    write_json(data, tmp_path / "g.json")
    assert (tmp_path / "g.json").stat().st_size < 600_000


def built_pruned_written(g):
    eg = prune_rare_colors(prune_diagonal(build_second_energy_graph(g)), g, 5)
    return energy_graph_to_dict(eg)


def test_build_prune_and_write_peak_per_edge():
    # each stage frees the graph before it, so the peak is the writer's on
    # top of the pruned graph it writes, 23.83 bytes per built edge; the
    # build and the prunes peak 6 or more below it, over the graph they read
    g = random_coloring(40, 3, 1)
    built = build_second_energy_graph(g).num_edges
    _, peak = traced_peak(built_pruned_written, g)
    assert built == 405_900 and peak <= 23.84 * built


@settings(max_examples=100, deadline=None, database=None)
@given(n=st.integers(2, 50), r=st.integers(1, 5), data=st.data())
def test_digits_match_the_quotients_reduced_by_n(n, r, data):
    dtype = np.int32 if n**r <= np.iinfo(np.int32).max else np.int64
    codes = np.array(data.draw(st.lists(st.integers(0, n**r - 1), max_size=30)), dtype=dtype)
    digits = _digits(codes, n, r)
    assert len(digits) == r
    for j, d in enumerate(digits):
        assert d.dtype == codes.dtype
        assert np.array_equal(d, codes // n ** (r - 1 - j) % n)


@pytest.mark.parametrize("n, r, width", [(16, 2, 1), (17, 2, 2), (6, 3, 1), (7, 3, 2),
                                         (40, 3, 2), (41, 3, 4), (10, 19, 8)])
def test_code_width_is_the_smallest_that_holds_n_to_the_r(n, r, width):
    assert code_width(n**r - 1) == width


def strictly_increasing(edges):
    return all(a < b for a, b in zip(edges, edges[1:]))


def test_every_stage_keeps_edges_strictly_increasing():
    # stages keep a subsequence of sorted edges and do not sort again
    for seed in range(4):
        g = random_coloring(10, 3, seed=seed)
        full = build_second_energy_graph(g)
        stages = [full, prune_diagonal(full), prune_rare_colors(full, g, 12)]
        for r in (2, 3):
            part = partition_for_rth_energy(g, r, seed=seed)
            eg = build_rth_energy_graph(g, r, part.parts)
            halved = halve_parts_prune(eg, seed=seed)
            stages += [eg, prune_rare_colors(eg, g, 12), halved,
                       prune_coordinate_neighbors(halved)]
        values = real_set(sorted(random.Random(seed).sample(range(1, 60), 12)))
        h = coloring_from_set(values)
        for r in (2, 3):
            eg = build_rth_energy_graph(h, r, partition_for_rth_energy(h, r, seed=seed).parts)
            stages += list(sign_decompose(eg, values).values())
        assert all(strictly_increasing(s.edges) for s in stages)
        assert any(s.num_edges for s in stages)


def test_adjacency_is_built_once_symmetric_and_sorted():
    g = random_coloring(8, 3, seed=4)
    part = partition_for_rth_energy(g, 3, seed=4)
    for eg in (prune_diagonal(build_second_energy_graph(g)),
               build_rth_energy_graph(g, 3, part.parts)):
        assert eg.adjacency() is eg.adjacency()
        codes, indptr, indices = eg.adjacency()
        assert len(indices) == indptr[-1] == 2 * eg.num_edges
        codes = codes.tolist()
        assert strictly_increasing(codes)
        rows = [indices[indptr[i]:indptr[i + 1]].tolist() for i in range(len(codes))]
        for v, nbrs in enumerate(rows):
            assert nbrs and strictly_increasing(nbrs)
            assert all(v in rows[w] for w in nbrs)
        assert set(zip(eg.xs.tolist(), eg.ys.tolist())) == {
            (codes[v], codes[w]) for v, nbrs in enumerate(rows) for w in nbrs if v < w
        }


def test_cached_adjacency_is_read_only():
    eg = prune_diagonal(build_second_energy_graph(random_coloring(6, 2, seed=0)))
    for array in eg.adjacency():
        with pytest.raises(ValueError):
            array[0] = array[-1]
    assert eg.adjacency() is eg.adjacency()


def reference_csr_adjacency(xs, ys):
    """EnergyGraph.adjacency as it was first written: one lexsort of both
    directions of every edge."""
    codes = np.unique(np.concatenate((xs, ys)))
    xi, yi = np.searchsorted(codes, xs), np.searchsorted(codes, ys)
    src, dst = np.concatenate((xi, yi)), np.concatenate((yi, xi))
    indptr = np.zeros(len(codes) + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=len(codes)), out=indptr[1:])
    return codes, indptr, dst[np.lexsort((dst, src))]


def csr_dtypes(reference):
    """The dtypes EnergyGraph.adjacency keeps: the sorting reference's for
    codes and indptr, and for indices that of the keys i * c + j of its c
    codes, which are int32 while c^2 fits it."""
    codes, indptr, _ = reference
    return codes.dtype, indptr.dtype, np.dtype(np.int32 if len(codes) ** 2 < 2**31 else np.int64)


def sorted_edges(pairs, dtype):
    """Edge arrays xs < ys, strictly sorted by (xs, ys), of the pairs."""
    edges = sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]})
    return (np.array([x for x, _ in edges], dtype=dtype),
            np.array([y for _, y in edges], dtype=dtype))


@st.composite
def edge_sets(draw):
    # a few codes drawn up to `top`, so they leave gaps, joined at random:
    # codes under 8 |E| take the presence-array path, the rest np.unique
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    tops = [1, 30, 10**4, 2**31 - 1] + ([10**15] if dtype is np.int64 else [])
    pool = draw(st.lists(st.integers(0, draw(st.sampled_from(tops))),
                         min_size=2, max_size=12, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(pool), st.sampled_from(pool)),
                          max_size=50))
    return sorted_edges(pairs, dtype)


@settings(max_examples=300, deadline=None, database=None)
@given(case=edge_sets())
@example(case=sorted_edges([], np.int32))
@example(case=sorted_edges([], np.int64))
@example(case=sorted_edges([(2, 5)], np.int64))
@example(case=sorted_edges([(3, 9)], np.int32))
@example(case=sorted_edges([(0, 10**15)], np.int64))
@example(case=sorted_edges([(0, 2), (2, 5), (0, 7), (5, 7), (1, 7)], np.int32))
@example(case=sorted_edges([(0, 2), (2, 5), (0, 7), (5, 7), (1, 7)], np.int64))
@example(case=sorted_edges([(5, 10**15), (7, 10**15 - 1), (5, 7), (10**15 - 1, 10**15)],
                           np.int64))
def test_csr_adjacency_matches_the_sorting_reference(case):
    xs, ys = case
    # codes up to 10^15 lie below n^2 for this n; adjacency reads no other field
    eg = EnergyGraph(2, 10**8, None, xs, ys)
    reference = reference_csr_adjacency(xs, ys)
    for got, want, dtype in zip(eg.adjacency(), reference, csr_dtypes(reference)):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)


def test_more_codes_than_int32_keys_hold():
    # 158,802 codes (a, b) -> (a + 1, b + 1), a even: c^2 passes int32, so the
    # writer's, the reader's and the CSR's keys i * c + j are int64
    n = 400
    a, b = np.meshgrid(np.arange(0, n - 2, 2), np.arange(n - 1), indexing="ij")
    xs = (a * n + b).ravel().astype(np.int32)
    eg = EnergyGraph(2, n, None, xs, xs + n + 1)
    back = energy_graph_from_dict(energy_graph_to_dict(eg))
    assert np.array_equal(back.xs, eg.xs) and np.array_equal(back.ys, eg.ys)
    reference = reference_csr_adjacency(eg.xs, eg.ys)
    assert len(reference[0]) == 158_802 and csr_dtypes(reference)[2] == np.int64
    for got, built, want, dtype in zip(back.adjacency(), eg.adjacency(), reference,
                                       csr_dtypes(reference)):
        assert got.dtype == built.dtype == dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(built, want)


def test_codes_wider_than_64_bits_exceed_the_budget():
    # 40^12 > 2^63: refused before any edge is built
    parts = [tuple(range(j, 40, 12)) for j in range(12)]
    with pytest.raises(BudgetExceededError, match=r"40\^12 vertices need codes wider"):
        build_rth_energy_graph(mono(40), 12, parts)
