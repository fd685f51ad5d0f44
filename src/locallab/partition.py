"""Seeded realizations of the probabilistic partition arguments.

Both procedures draw balanced random partitions until a certified
counting threshold is met: a balanced bipartition keeps at least a third
of the edges crossing, and an r-partition keeps at least a (4r)^(-2r)
fraction of the 2r-tuples behind the r-th energy within its indexed
parts.  The thresholds are
existence guarantees, so rejection sampling terminates; results carry
the trial count and an explicit flag instead of a silent failure when a
small instance runs out of trials.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .coloring import pair_cells
from .energy import energy
from .errors import PartitionError

# random splits tried before the best one seen is kept
MAX_TRIALS = 1000


@dataclass(frozen=True)
class Bipartition:
    """part1 holds ceil(n/2) vertices, part2 the rest; cross_count is
    the number of given edges with endpoints in different parts.
    met_threshold records whether 3 * cross_count >= |E| was achieved."""

    part1: tuple
    part2: tuple
    cross_count: int
    trials_used: int
    met_threshold: bool


@dataclass(frozen=True)
class RPartition:
    """parts are r disjoint vertex groups of size ceil(n/r) or floor(n/r)
    covering 0..n-1; within_tuple_count counts the ordered 2r-tuples
    behind E_r whose j-th pair lies inside part j; met_threshold records
    the (4r)^(-2r) acceptance."""

    parts: tuple
    within_tuple_count: int
    trials_used: int
    met_threshold: bool


def _balanced_parts(n: int, r: int, rng: random.Random):
    """Random partition of 0..n-1 into r parts, sizes differing by <= 1.
    The first n mod r parts take the extra element."""
    order = list(range(n))
    rng.shuffle(order)
    q, s = divmod(n, r)
    parts = []
    at = 0
    for j in range(r):
        size = q + 1 if j < s else q
        parts.append(tuple(sorted(order[at:at + size])))
        at += size
    return parts


def balanced_bipartition(edges, n: int, seed: int) -> Bipartition:
    """Balanced vertex split with at least a third of `edges` crossing.

    For n >= 100 the threshold is guaranteed reachable, so trials repeat
    until one succeeds.  For smaller n the first success within
    MAX_TRIALS is returned, else the best split seen, flagged.
    """
    if n < 2:
        raise PartitionError(f"need n >= 2, got {n}")
    edges = [tuple(e) for e in edges]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise PartitionError(f"edge ({u}, {v}) is not a pair of distinct vertices in 0..{n - 1}")
    rng = random.Random(seed)
    best = None
    trial = 0
    while True:
        trial += 1
        part1, part2 = _balanced_parts(n, 2, rng)
        side = [0] * n
        for v in part2:
            side[v] = 1
        cross = sum(1 for u, v in edges if side[u] != side[v])
        if best is None or cross > best.cross_count:
            best = Bipartition(part1, part2, cross, trial, 3 * cross >= len(edges))
        if 3 * cross >= len(edges):
            return Bipartition(part1, part2, cross, trial, True)
        if n < 100 and trial >= MAX_TRIALS:
            return best


def partition_for_rth_energy(g, r: int, seed: int) -> RPartition:
    """Balanced r-partition tuned for building an r-th energy graph.

    Survivors here are the ordered 2r-tuples behind E_r whose j-th pair
    falls inside part j.  Their count is computed per color as a product
    of within-part ordered pair counts, never by materializing tuples.
    Accepted once survivors * (4r)^(2r) >= E_r.
    """
    if r < 2:
        raise PartitionError(f"need r >= 2, got {r}")
    if g.n < r:
        raise PartitionError(f"need n >= r, got n={g.n}, r={r}")
    total = energy(g, r)
    rng = random.Random(seed)
    scale = (4 * r) ** (2 * r)
    best = None
    for trial in range(1, MAX_TRIALS + 1):
        parts = _balanced_parts(g.n, r, rng)
        part_of = [0] * g.n
        for j, part in enumerate(parts):
            for v in part:
                part_of[v] = j
        count = sum(map(math.prod, (2 * pair_cells(g, part_of, r)[2]).tolist()))
        met = count * scale >= total
        if best is None or count > best.within_tuple_count:
            best = RPartition(tuple(parts), count, trial, met)
        if met:
            return RPartition(tuple(parts), count, trial, True)
    return best
