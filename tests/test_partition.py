import itertools
import random

import pytest

from locallab import (
    PartitionError,
    balanced_bipartition,
    energy,
    new_coloring,
    partition_for_rth_energy,
    random_coloring,
)


def random_edges(n, m, seed):
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return sorted(rng.sample(pairs, m))


def check_bipartition(bp, edges, n):
    assert len(bp.part1) == (n + 1) // 2
    assert len(bp.part2) == n // 2
    assert sorted(bp.part1 + bp.part2) == list(range(n))
    in1 = set(bp.part1)
    cross = sum(1 for u, v in edges if (u in in1) != (v in in1))
    assert cross == bp.cross_count


def test_bipartition_meets_cross_threshold():
    for i in range(10):
        n = 60 + 10 * i
        edges = random_edges(n, 3 * n, seed=i)
        bp = balanced_bipartition(edges, n, seed=i)
        check_bipartition(bp, edges, n)
        assert bp.met_threshold
        assert 3 * bp.cross_count >= len(edges)


def test_bipartition_is_deterministic():
    edges = random_edges(50, 120, seed=4)
    a = balanced_bipartition(edges, 50, seed=9)
    b = balanced_bipartition(edges, 50, seed=9)
    assert a == b


def test_bipartition_handles_odd_and_tiny_inputs():
    bp = balanced_bipartition([(0, 1)], 3, seed=0)
    check_bipartition(bp, [(0, 1)], 3)
    bp = balanced_bipartition([], 2, seed=0)
    assert bp.cross_count == 0 and bp.met_threshold
    with pytest.raises(PartitionError):
        balanced_bipartition([(0, 1)], 1, seed=0)
    with pytest.raises(PartitionError):
        balanced_bipartition([(0, 5)], 4, seed=0)


def test_partition_for_rth_energy_rejects_bad_parameters():
    g = random_coloring(8, 2, seed=0)
    with pytest.raises(PartitionError):
        partition_for_rth_energy(g, 1, seed=0)
    with pytest.raises(PartitionError):
        partition_for_rth_energy(random_coloring(2, 2, seed=0), 3, seed=0)


def test_partition_for_rth_energy_acceptance():
    for n, r, seed in ((12, 2, 0), (12, 3, 1), (30, 3, 0), (9, 2, 5)):
        g = new_coloring(n, [(u, v, 0) for u in range(n) for v in range(u + 1, n)])
        rp = partition_for_rth_energy(g, r, seed=seed)
        sizes = sorted(len(p) for p in rp.parts)
        assert sizes == sorted([n // r + (1 if j < n % r else 0) for j in range(r)])
        assert rp.met_threshold
        assert rp.within_tuple_count * (4 * r) ** (2 * r) >= energy(g, r)
        again = partition_for_rth_energy(g, r, seed=seed)
        assert again == rp


def test_partition_for_rth_energy_count_matches_direct_product():
    for n, r in ((8, 2), (8, 3), (12, 3)):
        g = random_coloring(n, 2, seed=3)
        rp = partition_for_rth_energy(g, r, seed=7)
        # count ordered 2r-tuples whose j-th pair (a, b), a != b, lies in
        # part j, all r pairs of one color, directly
        mat = g.color_matrix()
        ordered = [[(a, b) for a in part for b in part if a != b] for part in rp.parts]
        count = sum(len({mat[a][b] for a, b in pairs}) == 1
                    for pairs in itertools.product(*ordered))
        assert count == rp.within_tuple_count > 0
