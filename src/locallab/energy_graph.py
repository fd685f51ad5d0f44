"""Energy graphs: tuple graphs whose edges encode simultaneous color equalities.

The second energy graph has vertex set V x V (diagonal pairs included)
and an edge {(x1,x2),(y1,y2)} whenever x1 != y1, x2 != y2, and
chi(x1,y1) = chi(x2,y2); twice its edge count equals E_2.  The r-th
energy graph is built in partitioned form over V_1 x ... x V_r with the
same coordinate-wise rule, so each coordinate's base pair lies inside
its own part.  A vertex (x_1, ..., x_r) is stored as the integer code
sum x_j n^(r-j), which orders codes as the tuples.  Pruning stages only
remove edges and are recorded in the provenance, in order:

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

import numpy as np

from .arithmetic import RealSet, coloring_from_set
from .config import ENERGY_GRAPH_EDGE_BUDGET, check_budget
from .coloring import BLOCK, EdgeColoring, divmod_into, gather, mark, pair_cells
from .errors import (
    BudgetExceededError,
    EnergyGraphError,
    PartitionError,
    SignConsistencyError,
)
from .jsonio import fields, pack_codes, unpack_codes
from .partition import MAX_TRIALS


def _index_dtype(top: int):
    """int32 when every int up to top fits it, else int64."""
    return np.int32 if top <= np.iinfo(np.int32).max else np.int64


def _pair_keys(xs, ys, top: int, both: bool = False) -> np.ndarray:
    """x * top + y for each pair (x, y) of xs and ys in 0..top-1, so the keys
    order as the pairs, followed when `both` by the keys y * top + x; int32
    when top^2 fits it, else int64, which it must.  Each half is written
    in place, so no wider copy of either is made."""
    dtype = _index_dtype(top * top)
    keys = np.empty((1 + both) * len(xs), dtype)
    for half, (a, b) in zip(np.split(keys, 1 + both), ((xs, ys), (ys, xs))):
        np.multiply(a, top, out=half, dtype=dtype)
        half += b
    return keys


def _rank(xs, ys) -> tuple:
    """(codes, xi, yi): the sorted distinct codes of the edges xs < ys, and
    the position in codes of every entry of xs and ys; by a presence
    array when the codes are dense, and by np.unique otherwise."""
    m = len(xs)
    if m and ys.max() < 8 * m:  # codes are dense enough to mark them
        seen = np.zeros(ys.max() + 1, dtype=bool)
        mark(seen, xs)
        mark(seen, ys)
        rank = np.cumsum(seen, dtype=xs.dtype) - 1
        return np.flatnonzero(seen).astype(xs.dtype), gather(rank, xs), gather(rank, ys)
    codes = np.unique(np.concatenate((xs, ys)))
    return codes, np.searchsorted(codes, xs), np.searchsorted(codes, ys)


def _csr_rows(codes, keys) -> tuple:
    """CSR (codes, indptr, indices) of the edges whose keys i * c + j,
    c = len(codes), `keys` holds in both directions and in any order:
    indices[indptr[i]:indptr[i + 1]] are the positions of codes[i]'s
    neighbors, ascending.  keys becomes indices in place: one sort lays
    out every row, row i starting where the keys reach i * c, and the
    remainder by c takes that offset off each key."""
    c = len(codes)
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(c + 1, dtype=keys.dtype) * c)
    divmod_into(keys, c, None, keys)
    return codes, indptr, keys


@dataclass(frozen=True, eq=False)
class EnergyGraph:
    """Immutable energy graph of order r over base vertices 0..n-1.

    parts is None for the full V x V form (r = 2 only) and a tuple of r
    disjoint vertex tuples for the partitioned form; the vertex set is
    implicit (the full product).  Edge i joins the vertex codes
    xs[i] < ys[i], sorted by (xs, ys); its color is the source coloring's,
    read by edge_colors.
    """

    r: int
    n: int
    parts: tuple | None
    xs: np.ndarray
    ys: np.ndarray
    provenance: tuple = field(default_factory=tuple)

    @property
    def num_edges(self) -> int:
        return len(self.xs)

    @property
    def num_vertices(self) -> int:
        return self.n**self.r if self.parts is None else math.prod(map(len, self.parts))

    @property
    def edges(self) -> tuple:
        """The edges as sorted (X, Y) pairs of tuples of Python ints."""
        return tuple(zip(self.vertices(self.xs), self.vertices(self.ys)))

    def digits(self, codes) -> list:
        """Coordinate j of every code in `codes`, one array per j."""
        return _digits(codes, self.n, self.r)

    def vertices(self, codes) -> list:
        """The codes decoded to tuples of Python ints."""
        return list(zip(*(d.tolist() for d in self.digits(codes))))

    def code(self, vertex) -> int:
        """Code of an r-tuple of ints in 0..n-1, else -1 (no vertex's code)."""
        if not (isinstance(vertex, tuple) and len(vertex) == self.r
                and all(type(x) is int and 0 <= x < self.n for x in vertex)):
            return -1
        return sum(x * self.n ** (self.r - 1 - j) for j, x in enumerate(vertex))

    def ranks(self) -> tuple:
        """_rank of the edges, (codes, xi, yi), built on the first call and
        kept read-only, so the CSR, the graph file and the coordinate audit
        share one ranking."""
        ranks = self.__dict__.get("_ranks")
        return self._keep("_ranks", _rank(self.xs, self.ys)) if ranks is None else ranks

    def adjacency(self) -> tuple:
        """_csr_rows of the keys of ranks(), built on the first call (or by
        the graph file reader) and kept read-only, so the cycle search and
        its audits share it."""
        adj = self.__dict__.get("_adjacency")
        if adj is None:
            codes, xi, yi = self.ranks()
            keys = _pair_keys(xi, yi, len(codes), both=True)
            adj = self._keep("_adjacency", _csr_rows(codes, keys))
        return adj

    def _keep(self, name: str, arrays) -> tuple:
        for a in arrays:
            a.flags.writeable = False
        object.__setattr__(self, name, arrays)
        return arrays

    def _replaced(self, keep, stage: str) -> "EnergyGraph":
        """Same graph keeping the edges a mask or ascending indices select."""
        return EnergyGraph(self.r, self.n, self.parts, self.xs[keep], self.ys[keep],
                           self.provenance + (stage,))


def _digits(codes, n: int, r: int) -> list:
    """Coordinate j of every code in `codes` below n^r, one array per j:
    the remainders of r floor divisions by n, the last coordinate's first,
    each quotient written over the one before."""
    rest, digits = np.array(codes), []
    for _ in range(r - 1):
        digits.append(np.empty_like(rest))
        divmod_into(rest, n, rest, digits[-1])
    divmod_into(rest, n, None, rest)
    return [rest, *digits[::-1]]


def _code_dtype(n: int, r: int):
    """int32 when every code below n^r fits in it, else int64; raises
    when not even int64 does."""
    if r >= 64 or n**r > np.iinfo(np.int64).max:
        raise BudgetExceededError(f"{n}^{r} vertices need codes wider than 64 bits")
    return _index_dtype(n**r)


def _part_index(parts, r: int, n: int) -> np.ndarray:
    """Part of each base vertex; raises unless `parts` are r disjoint
    collections of ints that cover 0..n-1."""
    message = f"parts must be {r} disjoint sets covering 0..{n - 1}"
    if len(parts) != r or sum(map(len, parts)) != n:
        raise EnergyGraphError(message)
    index = np.full(n, -1)
    for j, part in enumerate(parts):
        for v in part:
            if type(v) is not int or not 0 <= v < n or index[v] >= 0:
                raise EnergyGraphError(message)
            index[v] = j
    return index


def _ranges(starts, lengths) -> np.ndarray:
    """The ranges starts[i] + range(lengths[i]), one after another; int32
    when their count and every entry fit it."""
    ends, total = np.cumsum(lengths), np.sum(lengths)
    offsets = np.arange(total, dtype=_index_dtype(max(total, np.max(starts + lengths, initial=0))))
    offsets += np.repeat((starts + lengths - ends).astype(offsets.dtype), lengths)
    return offsets


def _product_graph(g: EdgeColoring, parts, cells, columns, stage: str) -> EnergyGraph:
    """Energy graph whose color-c edges join X = (a_1, ..., a_r) and
    Y = (b_1, ..., b_r) for each choice of base pairs (a_j, b_j) from the
    pair_cells cell (c, columns[j]) of cells, as listed (a_1 < b_1) in
    the first coordinate and in both orders in the others.  As X < Y
    exactly when a_1 < b_1, each edge arises once, and the budget checks
    the exact edge count.

    Every color expands at once: coordinate by coordinate, each partial
    tuple is repeated once per pair its color has there, by np.repeat
    offsets.  One sort of the keys X * n^r + Y then orders the edges.
    """
    us, vs, counts = cells
    r = len(columns)
    dtype = _code_dtype(g.n, r)
    starts = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)[:, columns]
    listed = counts[:, columns]
    sizes = listed * np.where(np.arange(r), 2, 1)  # pairs per color and coordinate
    check_budget(ENERGY_GRAPH_EDGE_BUDGET, sum(map(math.prod, sizes.tolist())), "energy edges")
    a, b = np.concatenate((us, vs)), np.concatenate((vs, us))  # each pair in both orders
    color = np.arange(len(sizes))
    xs = ys = np.zeros(len(sizes), dtype)
    for j in range(r):
        # color c's pairs at j: its cell, then the cell reversed past j = 0
        size, m = sizes[:, j], listed[:, j]
        pool = _ranges(np.stack((starts[:, j], starts[:, j] + len(us)), 1).ravel(),
                       np.stack((m, size - m), 1).ravel())
        reps = gather(size, color)
        at = _ranges((np.cumsum(size) - size)[color], reps)
        weight = g.n ** (r - 1 - j)
        xs, ys = np.repeat(xs, reps), np.repeat(ys, reps)
        xs += gather((gather(a, pool) * weight).astype(dtype), at)
        ys += gather((gather(b, pool) * weight).astype(dtype), at)
        if j < r - 1:
            color = np.repeat(color, reps)
    top, codes = g.n**r, None
    if top * top > np.iinfo(np.int64).max:  # code keys would pass int64: key their ranks
        codes, xs, ys = _rank(xs, ys)
        top = len(codes)
    keys = _pair_keys(xs, ys, top)
    del xs, ys  # freed before the sorted ends are written
    keys.sort()
    xs, ys = np.empty(len(keys), dtype), np.empty(len(keys), dtype)
    divmod_into(keys, top, xs, ys)
    if codes is not None:
        xs, ys = gather(codes, xs), gather(codes, ys)
    return EnergyGraph(r, g.n, parts, xs, ys, (stage,))


def build_second_energy_graph(g: EdgeColoring) -> EnergyGraph:
    """Full-form energy graph on V x V; 2 * |edges| = E_2 exactly."""
    cells = pair_cells(g, np.zeros(g.n, int), 1)
    return _product_graph(g, None, cells, [0, 0], "build_second")


def build_rth_energy_graph(g: EdgeColoring, r: int, parts) -> EnergyGraph:
    """Partitioned r-th energy graph over r disjoint `parts` covering
    0..n-1; coordinate j draws its base pairs from inside part j only, so
    2 * |edges| counts the ordered 2r-tuples whose j-th pair lies inside
    V_j."""
    if r < 2:
        raise EnergyGraphError(f"order r={r} must be >= 2")
    parts = tuple(tuple(sorted(p)) for p in parts)
    cells = pair_cells(g, _part_index(parts, r, g.n), r)
    return _product_graph(g, parts, cells, list(range(r)), "build_partitioned")


def prune_diagonal(eg: EnergyGraph) -> EnergyGraph:
    """Drop edges between two diagonal vertices (a,a)-(b,b); on a fresh
    second energy graph these are exactly the n(n-1)/2 degenerate
    repetitions chi(a,b) = chi(a,b).  Idempotent."""
    if eg.r != 2 or eg.parts is not None:
        raise EnergyGraphError("diagonal pruning applies to the full second energy graph")
    # (a, a) has the code a * (n + 1), and no other code below n^2 is a multiple of it
    rest = np.empty_like(eg.xs)
    divmod_into(eg.xs, eg.n + 1, None, rest)
    keep = rest != 0
    divmod_into(eg.ys, eg.n + 1, None, rest)
    keep |= rest != 0
    del rest  # freed before the kept edges are copied
    return eg._replaced(keep, "prune_diagonal")


def check_same_n(eg: EnergyGraph, g: EdgeColoring) -> None:
    """Raise unless eg and g have the same n, as a graph built from g has."""
    if eg.n != g.n:
        raise EnergyGraphError(f"the energy graph has n={eg.n} but the coloring n={g.n}")


def check_same_size(eg: EnergyGraph, values) -> None:
    """Raise unless the element set values has eg.n elements, as the set
    an arithmetic graph eg was built from has."""
    size = len(values)
    if size != eg.n:
        raise EnergyGraphError(f"the energy graph has n={eg.n} but the element set {size} values")


def edge_colors(eg: EnergyGraph, g: EdgeColoring) -> np.ndarray:
    """Color id in g of every edge of eg, read at its first coordinate
    pair; raises unless eg and g have the same n."""
    check_same_n(eg, g)
    first = eg.n ** (eg.r - 1)
    cell = eg.xs // first  # the color matrix's flat cell x_1 * n + y_1, built in place
    cell *= eg.n
    cell += eg.ys // first
    return gather(g.color_matrix(), cell)


def colors_at_least(eg: EnergyGraph, g: EdgeColoring, threshold: int) -> np.ndarray:
    """Mask of the edges of eg whose color has `threshold` or more base edges in g."""
    return gather(np.bincount(g.colors) >= threshold, edge_colors(eg, g))


def prune_rare_colors(eg: EnergyGraph, g: EdgeColoring, threshold: int) -> EnergyGraph:
    """Drop every edge whose color has fewer than `threshold` base edges
    in g, the coloring eg was built from (strict comparison)."""
    if threshold < 0:
        raise EnergyGraphError("threshold must be non-negative")
    return eg._replaced(colors_at_least(eg, g, threshold), f"prune_rare_colors({threshold})")


def halve_parts_prune(eg: EnergyGraph, seed: int) -> EnergyGraph:
    """Split every part in two balanced halves and keep only edges whose
    coordinate pairs all cross their split.

    The first split keeping at least a 3^(-r) fraction of the edges is
    accepted; otherwise the best of MAX_TRIALS is kept and the
    provenance notes the miss.
    """
    if eg.parts is None:
        raise EnergyGraphError("halving needs the partitioned form")
    for part in eg.parts:
        if len(part) < 2:
            raise PartitionError(f"part {part!r} is too small to split")
    rng = random.Random(seed)
    total = eg.num_edges
    coordinates = list(zip(eg.digits(eg.xs), eg.digits(eg.ys)))
    side = np.zeros(eg.n, dtype=bool)
    best_count, best_keep = -1, None
    for trial in range(1, MAX_TRIALS + 1):
        for part in eg.parts:
            order = list(part)
            rng.shuffle(order)
            side[order] = np.arange(len(order)) < (len(order) + 1) // 2
        keep = np.ones(total, dtype=bool)
        for a, b in coordinates:
            keep &= gather(side, a) != gather(side, b)
        count = int(np.count_nonzero(keep))
        if count > best_count:
            best_count, best_keep = count, keep
        if count * 3**eg.r >= total:
            stage = f"halve_parts(seed={seed},trials={trial},kept={count}/{total},met=True)"
            return eg._replaced(keep, stage)
    stage = f"halve_parts(seed={seed},trials={MAX_TRIALS},kept={best_count}/{total},met=False)"
    return eg._replaced(best_keep, stage)


def _coordinate_marks(eg: EnergyGraph) -> np.ndarray:
    """One int64 row of 2r marks per edge, (p * r + j) * n + w_j for each
    end at position p in eg.ranks()'s codes, coordinate j and other end w:
    equal marks are two neighbors of one vertex agreeing at j.  Positions,
    not codes, keep the marks in int64 when n^r is near it; they are cast
    first, as ranks of int32 codes are int32."""
    (_, xi, yi), r, n = eg.ranks(), eg.r, eg.n
    return np.stack([(p.astype(np.int64) * r + j) * n + w_j
                     for p, b in ((xi, eg.ys), (yi, eg.xs))
                     for j, w_j in enumerate(eg.digits(b))], axis=1)


def prune_coordinate_neighbors(eg: EnergyGraph) -> EnergyGraph:
    """Greedy edge retention in lexicographic order so that no vertex
    ends up with two neighbors sharing a value in any coordinate."""
    used, kept = set(), []
    for i, marks in enumerate(_coordinate_marks(eg).tolist()):
        if used.isdisjoint(marks):
            used.update(marks)
            kept.append(i)
    return eg._replaced(np.array(kept, dtype=np.int64), "prune_coordinate_neighbors")


def coordinate_neighbor_violations(eg: EnergyGraph):
    """All (vertex, coordinate, value) triples where two neighbors of the
    vertex agree, once per neighbor past the first, sorted; empty after
    prune_coordinate_neighbors."""
    marks = np.sort(_coordinate_marks(eg), axis=None)
    position = marks[1:][marks[1:] == marks[:-1]]
    j, value = np.empty_like(position), np.empty_like(position)
    divmod_into(position, eg.r * eg.n, position, value)
    divmod_into(value, eg.n, j, value)
    return list(zip(eg.vertices(eg.ranks()[0][position]), j.tolist(), value.tolist()))


def edge_sign_vector(x, y, values) -> tuple:
    """Sign pattern of an arithmetic energy edge: entry j-1 is '+' when
    value(x1) - value(y1) = value(xj) - value(yj) and '-' when it equals
    the negation.  Raises when neither holds."""
    d1 = values[x[0]] - values[y[0]]
    if d1 == 0:
        raise SignConsistencyError(f"edge {x}-{y} has a zero first difference")
    signs = []
    for j in range(1, len(x)):
        dj = values[x[j]] - values[y[j]]
        if dj != d1 and dj != -d1:
            raise SignConsistencyError(f"edge {x}-{y} has no consistent sign in coordinate {j + 1}")
        signs.append("+" if dj == d1 else "-")
    return tuple(signs)


def sign_decompose(eg: EnergyGraph, values: RealSet) -> dict:
    """Partition an arithmetic energy graph into its 2^(r-1) sign classes.

    values is the RealSet whose element i is base vertex i's exact
    number; a set of other than eg.n elements is not the graph's and
    raises.  Every class is present in the result, possibly with no
    edges; the classes are edge-disjoint and exhaustive.  |d_1| = |d_j|
    exactly when the pairs share a color of coloring_from_set(values), and
    then d_1 = d_j when a_1 > b_1 and a_j > b_j agree: a RealSet increases.
    """
    if eg.parts is None:
        raise EnergyGraphError("sign classes need the partitioned form")
    if not isinstance(values, RealSet):
        raise EnergyGraphError("sign classes need a RealSet, whose order is its values' order")
    check_same_size(eg, values)
    color, n = coloring_from_set(values).color_matrix(), eg.n
    (a1, *a), (b1, *b) = eg.digits(eg.xs), eg.digits(eg.ys)
    down, bad = a1 > b1, a1 == b1  # bad: a zero first difference
    cell = a1  # from here the color matrix's flat cell a_j * n + b_j, built in place
    cell *= n
    cell += b1
    c1 = gather(color, cell)
    index = np.zeros(eg.num_edges, dtype=np.int64)  # '-' is bit 1, coordinate 2 the top bit
    for aj, bj in zip(a, b):
        np.multiply(aj, n, out=cell)
        cell += bj
        bad |= gather(color, cell) != c1
        index *= 2
        index += (aj > bj) != down
    if bad.any():  # edge_sign_vector raises the error of the first bad edge
        i = int(np.argmax(bad))
        edge_sign_vector(eg.vertices(eg.xs[i:i + 1])[0], eg.vertices(eg.ys[i:i + 1])[0], values)
    return {s: eg._replaced(index == k, f"sign_class({''.join(s)})")
            for k, s in enumerate(itertools.product("+-", repeat=eg.r - 1))}


def energy_graph_to_dict(eg: EnergyGraph) -> dict:
    """Format-7 JSON shape: the graph alone, as the upper rows of its CSR
    adjacency, each edge once.  `codes` are the sorted distinct codes on an
    edge, `counts[i]` the number of edges whose smaller end is codes[i],
    and `neighbors` each larger end's position in codes, row by row and
    ascending.  Codes and neighbors are gaps: each entry less the one before
    it (first in a row, the row itself) less 1.  Each blob is as wide as its
    largest entry, as `widths` says.  The file holds no edge colors: they
    belong to the coloring.  Raises unless xs < ys, strictly increasing."""
    codes, _, yi = eg.ranks()
    # xs is sorted and holds only codes, so codes[i]'s row starts where xs reaches it
    starts = np.searchsorted(eg.xs, codes)
    counts = np.diff(starts, append=len(yi))
    filled = np.flatnonzero(counts)
    gaps = np.empty_like(yi)
    np.subtract(yi[1:], yi[:-1], out=gaps[1:])
    gaps[starts[filled]] = yi[starts[filled]] - filled
    gaps -= 1
    if not ((eg.xs[1:] >= eg.xs[:-1]).all() and (gaps >= 0).all()):
        raise EnergyGraphError("edges must be strictly increasing in (xs, ys)")
    (codes, counts, neighbors), widths = zip(*map(pack_codes, (
        np.diff(codes, prepend=-1) - 1, counts, gaps)))
    return {
        "format": 7, "r": eg.r, "n": eg.n,
        "parts": None if eg.parts is None else [list(p) for p in eg.parts],
        "codes": codes, "counts": counts, "neighbors": neighbors, "widths": list(widths),
        "provenance": list(eg.provenance),
    }


def energy_graph_from_dict(data: dict) -> EnergyGraph:
    """Read a format-7 record, checking what the writer and the builders
    guarantee and its gaps do not, each gap and count bounded before it is
    summed, and keep the CSR adjacency built from its rows.  Besides xs
    and ys it keeps one per-edge array, the keys of both directions of
    every edge, which the CSR sorts in place."""
    if not (isinstance(data, dict) and type(data.get("format")) is int and data["format"] == 7):
        raise EnergyGraphError("not a format-7 energy graph; rebuild it with `energy-graph`")
    r, n, parts, _, _, _, widths, provenance = fields(
        data, r=int, n=int, parts=([list], None), codes=str, counts=str, neighbors=str,
        widths=[int], provenance=[str],
    )
    if r < 2 or n < 2:
        raise EnergyGraphError(f"r={r} and n={n} must both be at least 2")
    dtype = _code_dtype(n, r)  # first: it raises when n^r needs more than 64 bits
    if not (len(widths) == 3 and all(w in (1, 2, 4, 8) for w in widths)):
        raise EnergyGraphError("widths must give codes, counts and neighbors 1, 2, 4 or 8 bytes")
    codes, counts, neighbors = (unpack_codes(data[name], w, name)
                                for name, w in zip(("codes", "counts", "neighbors"), widths))
    # gaps below n^r < 2^63 keep the uint64 sums from wrapping before they pass n^r
    ends = np.cumsum(codes.astype(np.uint64) + 1)
    if (codes >= n**r).any() or (ends > n**r).any():
        raise EnergyGraphError(f"codes must be strictly increasing and below {n}^{r}")
    c, codes = len(codes), (ends - 1).astype(dtype)
    past = "every neighbor must lie past its row and below len(codes)"
    if (counts >= c).any() or (neighbors >= c).any():  # so no row's sum reaches c^2
        raise EnergyGraphError(past)
    counts = counts.astype(np.int64)
    if len(counts) != c or counts.sum() != len(neighbors):
        raise EnergyGraphError("counts must hold one entry per code and sum to len(neighbors)")
    # positions as wide as the keys: gaps plus 1, summed, where each row's
    # first term swaps the last neighbor of the row before for the row; a
    # row sums at most (c - 1) * c, which the keys' dtype holds
    filled = np.flatnonzero(counts)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    firsts = indptr[filled]
    neighbors = neighbors.astype(_index_dtype(c * c))
    neighbors += 1
    ends = filled + np.add.reduceat(neighbors, firsts)  # each row's last neighbor
    if (ends >= c).any():
        raise EnergyGraphError(past)
    neighbors[firsts] += filled - np.append(0, ends[:-1])
    np.cumsum(neighbors, dtype=neighbors.dtype, out=neighbors)
    rows = np.repeat(np.arange(c, dtype=neighbors.dtype), counts)
    keys = _pair_keys(rows, neighbors, c, both=True)
    del rows, filled, firsts, ends  # freed before the per-edge arrays below
    on_edge = counts > 0
    mark(on_edge, neighbors)
    if not on_edge.all():
        raise EnergyGraphError("every code must lie on an edge")
    parts = None if parts is None else tuple(tuple(p) for p in parts)
    part_of = None if parts is None else _part_index(parts, r, n)
    # rows in blocks of about BLOCK edges; coordinates outside, so the first
    # fault reported is that of the lowest coordinate
    cuts = [0, *np.searchsorted(indptr, range(BLOCK, len(neighbors), BLOCK)).tolist(), c]
    for j, d in enumerate(_digits(codes, n, r)):  # per code, then compared per edge
        for lo, hi in zip(cuts, cuts[1:]):
            if (np.repeat(d[lo:hi], counts[lo:hi])
                    == gather(d, neighbors[indptr[lo]:indptr[hi]])).any():
                raise EnergyGraphError(f"an edge repeats its base vertex in coordinate {j + 1}")
        if part_of is not None and (part_of[d] != j).any():
            raise EnergyGraphError(f"an edge leaves part {j + 1} in coordinate {j + 1}")
    ys = gather(codes, neighbors)
    del neighbors
    eg = EnergyGraph(r, n, parts, np.repeat(codes, counts), ys, tuple(provenance))
    eg._keep("_adjacency", _csr_rows(codes, keys))
    return eg
