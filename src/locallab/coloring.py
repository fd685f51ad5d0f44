"""Edge colorings of complete graphs and the (k, l) local property.

A coloring assigns one color to each of the C(n, 2) edges of K_n.  The
(k, l) local property holds when every k-vertex subset spans at least l
distinct edge colors.  Color labels are opaque (ints, strings, or exact
rationals); on construction they are normalized to dense integer ids
numbered by first appearance in pair order, whatever order the edges
were given in, and the original labels are kept for I/O.

Everything here is immutable and every operation is pure, so values can
be shared freely between threads.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import config
from .errors import (
    ColoringError,
    DuplicatePairError,
    MissingPairError,
    SelfLoopError,
    VertexRangeError,
)
from .jsonio import exact_to_json, fields, label_from_json, read_json, write_json


@functools.lru_cache(maxsize=4)
def _upper_pairs(n):
    """np.triu_indices(n, 1) as read-only arrays, kept for the next call."""
    pairs = np.triu_indices(n, 1)
    for side in pairs:
        side.flags.writeable = False
    return pairs


def pair_index(n: int, u: int, v: int) -> int:
    """Index of the unordered pair {u, v} in lexicographic order."""
    if u > v:
        u, v = v, u
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


# Per-edge kernels run in blocks of this many entries.  numpy gathers and
# scatters fast only through an intp index, which a block gets as a copy
# that stays in cache where a whole index would double its memory; and it
# divides by a scalar fast (libdivide) where its remainder is slow.
BLOCK = 1 << 15


def gather(table, index) -> np.ndarray:
    """table.ravel()[index], shaped as index, block by block through an
    intp copy of each block of the index; raises IndexError as that does.
    A non-contiguous table or index is copied whole first."""
    flat, where = table.ravel(), index.ravel()
    out = np.empty(where.shape, flat.dtype)
    for start in range(0, len(where), BLOCK):
        out[start:start + BLOCK] = flat[where[start:start + BLOCK].astype(np.intp, copy=False)]
    return out.reshape(index.shape)


def mark(mask, index) -> None:
    """mask[index] = True for a 1-D index, block by block as gather reads."""
    for start in range(0, len(index), BLOCK):
        mask[index[start:start + BLOCK].astype(np.intp, copy=False)] = True


def divmod_into(keys, divisor: int, quotient, remainder) -> None:
    """np.divmod(keys, divisor, out=(quotient, remainder)) for 1-D keys and
    a positive int divisor, block by block: a floor division and a
    subtraction.  Either output may be None, and then is not written, or
    keys itself."""
    for start in range(0, len(keys), BLOCK):
        block = slice(start, start + BLOCK)
        q = keys[block] // divisor
        if remainder is not None:
            np.subtract(keys[block], q * divisor, out=remainder[block])
        if quotient is not None:
            quotient[block] = q


@dataclass(frozen=True)
class EdgeColoring:
    """An edge-colored K_n.

    `colors[pair_index(n, u, v)]` holds the dense color id of {u, v};
    `color_names[c]` holds the label the id was normalized from.  The
    palette is exactly the image of `color_of`, so every declared color
    appears on at least one edge.
    """

    n: int
    colors: tuple
    color_names: tuple

    @property
    def num_colors(self) -> int:
        return len(self.color_names)

    @property
    def palette(self) -> frozenset:
        return frozenset(range(len(self.color_names)))

    def _check_vertex(self, v):
        if not isinstance(v, int) or not 0 <= v < self.n:
            raise VertexRangeError(f"vertex {v!r} outside 0..{self.n - 1}")

    def color_of(self, u: int, v: int) -> int:
        """Dense color id of the edge {u, v}."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise SelfLoopError(f"no color for the loop ({u}, {v})")
        return self.colors[pair_index(self.n, u, v)]

    def label_of(self, c: int):
        return self.color_names[c]

    def color_id(self, label) -> int:
        """Dense id of an original label (for CLI lookups)."""
        try:
            return self.color_names.index(label)
        except ValueError:
            raise ColoringError(f"unknown color label {label!r}") from None

    def color_matrix(self) -> np.ndarray:
        """Read-only n x n matrix of color ids, -1 on the diagonal, in the
        smallest signed dtype; built on the first call and kept."""
        mat = self.__dict__.get("_color_matrix")
        if mat is None:
            mat = np.full((self.n, self.n), -1, dtype=np.min_scalar_type(-self.num_colors))
            upper = _upper_pairs(self.n)
            mat[upper] = mat.T[upper] = self.colors
            mat.flags.writeable = False
            object.__setattr__(self, "_color_matrix", mat)
        return mat

    def colors_within(self, vertices) -> int:
        """Number of distinct colors on the pairs of distinct `vertices`."""
        index = list(vertices)
        for v in index:
            self._check_vertex(v)
        spans = self.color_matrix()[np.ix_(index, index)]
        return len(np.unique(spans[spans >= 0]))


@dataclass(frozen=True)
class PropertyVerdict:
    """Outcome of a local-property check.

    In sampled mode `holds=True` only means "not refuted by the sampled
    subsets", never a proof.  `min_colors_seen` is the smallest per-subset
    color count observed with counting capped at l, so for a passing
    verdict it equals l.  `witness` attains `min_colors_seen`: in
    exhaustive mode it is the lexicographically least such k-subset (for
    a passing verdict, (0, ..., k-1)), in sampled mode the first sampled
    one.
    """

    holds: bool
    witness: tuple | None
    min_colors_seen: int
    k: int
    l: int
    mode: str
    trials: int | None = None
    seed: int | None = None


def _check_vertex_count(n):
    if not isinstance(n, int) or n < 2:
        raise ColoringError(f"need at least 2 vertices, got n={n!r}")


def _numbered(n, labels) -> EdgeColoring:
    """The EdgeColoring of K_n whose i-th pair in pair_index order has the
    i-th of `labels`, each label numbered by its first appearance in that
    order; of labels that compare equal, the first is kept."""
    ids = {}  # label -> dense id, in order of first appearance
    colors = tuple([ids.setdefault(label, len(ids)) for label in labels])
    return EdgeColoring(n, colors, tuple(ids))


def new_coloring(n: int, assignments) -> EdgeColoring:
    """Build a validated EdgeColoring from (u, v, label) triples.

    Raises a distinct error for self-loops, out-of-range vertices,
    duplicated pairs, and missing pairs, at the first entry that has
    one.  Labels are numbered by `_numbered`, so the same coloring gets
    the same ids whatever the order of its assignments.  Memory follows
    the assignments given, not the declared n, so a huge n fails on its
    first missing pair.
    """
    _check_vertex_count(n)
    total = n * (n - 1) // 2
    labels = {}  # pair index -> label
    for u, v, label in assignments:
        for w in (u, v):
            if type(w) is not int or not 0 <= w < n:
                raise VertexRangeError(f"vertex {w!r} outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"assignment colors the loop ({u}, {v})")
        idx = pair_index(n, u, v)
        if idx in labels:
            raise DuplicatePairError(f"pair ({min(u, v)}, {max(u, v)}) assigned twice")
        labels[idx] = label
    if len(labels) < total:
        # a generator: combinations() would first build tuple(range(n))
        pairs = ((u, v) for u in range(n) for v in range(u + 1, n))
        for idx, (u, v) in enumerate(pairs):
            if idx not in labels:
                raise MissingPairError(f"pair ({u}, {v}) received no color")
    return _numbered(n, map(labels.__getitem__, range(total)))


def random_coloring(n: int, c: int, seed: int) -> EdgeColoring:
    """Color each edge i.i.d. uniformly from c labels, deterministically.

    Unused labels are dropped by normalization, so the palette may be
    smaller than c.  Each label is drawn as random.Random(seed).randrange(c)
    draws it: c.bit_length() random bits, drawn again while they reach c.
    """
    if c < 1:
        raise ColoringError("palette size must be at least 1")
    _check_vertex_count(n)
    draw, bits = random.Random(seed).getrandbits, c.bit_length()
    labels = []
    for _ in range(n * (n - 1) // 2):
        label = draw(bits)
        while label >= c:
            label = draw(bits)
        labels.append(label)
    return _numbered(n, labels)


def pair_cells(g: EdgeColoring, part_of, r: int) -> tuple:
    """The base pairs with both ends in one part, where part_of[v] in
    0..r-1 is v's part, as (us, vs, counts): two int arrays with us < vs,
    grouped by cell c * r + j for color c and part j and in lexicographic
    order inside a cell, and the cell sizes as a num_colors x r array."""
    part_of = np.asarray(part_of)
    us, vs = _upper_pairs(g.n)
    same = part_of[us] == part_of[vs]
    us, vs = us[same], vs[same]
    cells = g.color_matrix()[us, vs].astype(np.intp) * r + part_of[us]
    order = np.argsort(cells, kind="stable")
    counts = np.bincount(cells, minlength=g.num_colors * r).reshape(g.num_colors, r)
    return us[order], vs[order], counts


# Subsets are scanned in blocks of at most this many rows.
_CHUNK_ROWS = 4096
# Largest lexicographic subset table materialized for the exhaustive scan.
_TABLE_ROWS = 1 << 18


@functools.lru_cache(maxsize=2)
def _lex_table(n, width, dtype):
    """Every `width`-subset of range(n), one per row, in lexicographic order,
    as a read-only array kept for the next call with the same arguments.

    The C(n - a - 1, w) rows whose first entry exceeds a form the tail of
    the width-w table, so each width is the previous table's tails,
    stacked in order of a and headed by a.  Width 0 is one empty row.
    """
    table = np.empty((1, 0), dtype=dtype)
    for w in range(1, width + 1):
        wider = np.empty((math.comb(n, w), w), dtype=dtype)
        row = 0
        for a in range(n - w + 1):
            tail = table[len(table) - math.comb(n - a - 1, w - 1):]
            wider[row:row + len(tail), 0] = a
            wider[row:row + len(tail), 1:] = tail
            row += len(tail)
        table = wider
    table.flags.writeable = False
    return table


def _lex_chunks(n, k, dtype):
    """Yield every k-subset of range(n) in lexicographic order, as row blocks.

    Each subset is a prefix (from itertools) joined to the tail of a
    subset table whose first entry exceeds the prefix's last vertex; the
    suffix is as wide as the _TABLE_ROWS cap allows, so for most inputs
    the prefix is a single vertex or empty.
    """
    width = k
    while width > 1 and math.comb(n, width) > _TABLE_ROWS:
        width -= 1
    table = _lex_table(n, width, dtype)
    for prefix in itertools.combinations(range(n - width), k - width):
        last = prefix[-1] if prefix else -1
        tail = table[len(table) - math.comb(n - last - 1, width):]
        for start in range(0, len(tail), _CHUNK_ROWS):
            block = tail[start:start + _CHUNK_ROWS]
            rows = np.empty((len(block), k), dtype=dtype)
            rows[:, :k - width] = prefix
            rows[:, k - width:] = block
            yield rows


def _later_equal(keys):
    """Stable sort order of `keys`, and for each sorted position the number
    of later positions holding the same key."""
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    later = np.searchsorted(ranked, ranked, side="right") - np.arange(len(keys)) - 1
    return order, later


def _equal_pairs(later):
    """Sorted positions (i, j), i < j, of every two equal keys, given
    `_later_equal`'s counts."""
    first = np.repeat(np.arange(len(later)), later)
    starts = np.repeat(np.cumsum(later) - later, later)
    return first, first + 1 + np.arange(len(first)) - starts


def _containing(sets, n, k, dtype):
    """Every k-subset of range(n) holding a row of `sets` (sorted, distinct
    vertices), one per set and completion, each sorted."""
    m, s = sets.shape
    table = _lex_table(n - s, k - s, dtype)
    # the t-th vertex outside U is t plus the number of i with U[i] - i <= t
    tails = np.repeat(table[None], m, axis=0)
    for i in range(s):
        tails += table >= (sets[:, i] - i)[:, None, None]
    rows = np.empty((m, len(table), k), dtype=dtype)
    rows[:, :, :s] = sets[:, None]
    rows[:, :, s:] = tails
    rows = rows.reshape(-1, k)
    rows.sort(axis=1)
    return rows


def _repeat_rows(g, k, dtype):
    """Every k-subset (k >= 3) holding two same-colored pairs, once each,
    in lexicographic order; None when listing them, repeats included,
    would take more than min(C(n, k), _TABLE_ROWS) rows.

    Two same-colored pairs have 3 endpoints when they meet and 4 when
    they do not; a k-subset holding them is those endpoints joined to a
    subset of the other vertices, so each gives C(n - 3, k - 3) or
    C(n - 4, k - 4) rows.
    """
    n = g.n
    limit = min(math.comb(n, k), _TABLE_ROWS)
    if k == 3:
        # only pairs that meet fit: sort the pairs at each vertex v by
        # color, the pair {v, v} a key of its own
        order, later = _later_equal(
            (np.arange(n)[:, None] * (g.num_colors + 1) + g.color_matrix() + 1).ravel())
        if int(later.sum()) > limit:
            return None
        first, second = _equal_pairs(later)
        ends = [np.sort(np.stack([order[first] // n, order[first] % n, order[second] % n],
                                 1).astype(dtype), 1)]
    else:
        colors = np.asarray(g.colors)
        sizes = np.bincount(colors)
        # C(n - 3, k - 3) >= C(n - 4, k - 4) rows for each same-colored pair
        if int((sizes * (sizes - 1) // 2).sum()) * math.comb(n - 4, k - 4) > limit:
            return None
        order, later = _later_equal(colors)
        first, second = _equal_pairs(later)
        us, vs = _upper_pairs(n)
        ends = np.stack([us[order[first]], vs[order[first]],
                         us[order[second]], vs[order[second]]], 1).astype(dtype)
        ends.sort(axis=1)
        # two pairs that meet repeat one endpoint, next to itself once sorted
        fresh = np.ones(ends.shape, dtype=bool)
        fresh[:, 1:] = ends[:, 1:] != ends[:, :-1]
        meeting = ~fresh.all(axis=1)
        ends = [ends[meeting][fresh[meeting]].reshape(-1, 3), ends[~meeting]]
        if sum(len(e) * math.comb(n - e.shape[1], k - e.shape[1]) for e in ends) > limit:
            return None
    rows = np.concatenate([_containing(e, n, k, dtype) for e in ends])
    rows = rows[np.lexsort(rows.T[::-1])]
    fresh = np.ones(len(rows), dtype=bool)
    fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[fresh]


def _sampled_chunks(n, k, trials, seed, dtype):
    """Yield `trials` sorted uniform k-subsets drawn from random.Random(seed)."""
    rng = random.Random(seed)
    for start in range(0, trials, _CHUNK_ROWS):
        rows = min(_CHUNK_ROWS, trials - start)
        yield np.array([sorted(rng.sample(range(n), k)) for _ in range(rows)], dtype=dtype)


def _scan(g, k, cap, trials=None, seed=None):
    """Return (fewest colors, first subset spanning that many).

    Exhaustive (`trials` None): a k-subset spans fewer than C(k, 2)
    colors only when two of its pairs share a color, so the scan counts
    `_repeat_rows` and starts from C(k, 2) colors at (0, ..., k-1), the
    first subset in lexicographic order, and a coloring with every pair
    its own color has none to count; when those rows are too many, or all
    k-subsets fit one block, it counts every k-subset in lexicographic
    order instead.  Either way the subset returned is the
    lexicographically least minimizer.  Sampled: counts `trials` sampled
    subsets and returns the first minimizer.  Counts are capped at `cap`,
    which never changes whether the minimum reaches `cap`.  The scan is
    checked against SUBSET_SCAN_BUDGET, which counts all C(n, k) subsets
    or the `trials`, before it starts.
    """
    config.check_budget(config.SUBSET_SCAN_BUDGET,
                        math.comb(g.n, k) if trials is None else trials, f"{k}-subsets")
    vertex = np.min_scalar_type(g.n - 1)
    if trials is None:
        best, best_subset = min(k * (k - 1) // 2, cap), tuple(range(k))
        if best == 1 or g.num_colors == len(g.colors):
            return best, best_subset
        # one block of every subset costs less than listing the repeat rows
        rows = _repeat_rows(g, k, vertex) if math.comb(g.n, k) > _CHUNK_ROWS else None
        if rows is None:
            chunks = _lex_chunks(g.n, k, vertex)
        else:
            chunks = [rows[start:start + _CHUNK_ROWS] for start in range(0, len(rows), _CHUNK_ROWS)]
    else:
        best = best_subset = None
        chunks = _sampled_chunks(g.n, k, trials, seed, vertex)
    # color of {u, v} at u * n + v
    matrix = g.color_matrix().ravel()
    first, second = _upper_pairs(k)
    slot = np.min_scalar_type(g.n * g.n - 1)
    for rows in chunks:
        # pair-major: spans[j, s] is the color of the j-th pair of subset s
        wide = rows.T.astype(slot)
        slots = wide[first]
        slots *= g.n
        slots += wide[second]
        spans = gather(matrix, slots)
        # a pair adds a color when it differs from every earlier pair
        counts = np.ones(len(rows), dtype=np.intp)
        for j in range(1, len(spans)):
            counts += (spans[:j] != spans[j]).all(axis=0)
        np.minimum(counts, cap, out=counts)
        i = int(np.argmin(counts))
        if best is None or counts[i] < best:
            best = int(counts[i])
            best_subset = tuple(rows[i].tolist())
            if best == 1:  # no subset spans fewer colors
                break
    return best, best_subset


def _validate_k_l(g, k, l):
    if not 2 <= k <= g.n:
        raise ColoringError(f"k={k} must satisfy 2 <= k <= n={g.n}")
    top = k * (k - 1) // 2
    if not 1 <= l <= top:
        raise ColoringError(f"l={l} must satisfy 1 <= l <= C(k,2)={top}")


def check_local_property(
    g: EdgeColoring,
    k: int,
    l: int,
    mode: str = "exhaustive",
    trials: int | None = None,
    seed: int | None = None,
) -> PropertyVerdict:
    """Decide (exhaustively) or probe (sampled) the (k, l) local property.

    Exhaustive mode decides over all C(n, k) subsets: it counts only
    those holding two same-colored pairs, since every other subset spans
    C(k, 2) colors, unless they are too many, and then all of them.
    Sampled mode draws `trials` uniform k-subsets from random.Random(seed)
    and can only refute, never prove; it needs an int seed, so that the
    same call always draws the same subsets.
    """
    _validate_k_l(g, k, l)
    if mode == "exhaustive":
        best, subset = _scan(g, k, l)
        return PropertyVerdict(best >= l, subset, best, k, l, "exhaustive")
    if mode == "sampled":
        if trials is None or trials < 1:
            raise ColoringError("sampled mode needs trials >= 1")
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ColoringError(f"sampled mode needs an int seed, got {seed!r}")
        best, subset = _scan(g, k, l, trials, seed)
        return PropertyVerdict(best >= l, subset, best, k, l, "sampled", trials, seed)
    raise ColoringError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# JSON interchange: {"n": int, "edges": [[u, v, color], ...]}

def coloring_to_dict(g: EdgeColoring) -> dict:
    names = [exact_to_json(label) for label in g.color_names]
    pairs = itertools.combinations(range(g.n), 2)
    return {"n": g.n, "edges": [[u, v, names[c]] for (u, v), c in zip(pairs, g.colors)]}


def coloring_from_dict(data: dict) -> EdgeColoring:
    """Parse the JSON shape.  Strings of the form p/q decode to exact
    rationals (the inverse of serialization); other strings are kept
    verbatim."""
    n, edges = fields(data, n=int, edges=list)
    triples = []
    for entry in edges:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise ColoringError(f"bad edge entry {entry!r}")
        u, v, label = entry
        # bool is an int subclass, and True == 1 would merge two colors
        if isinstance(label, bool) or not isinstance(label, (int, str)):
            raise ColoringError(f"color label {label!r} must be int or string")
        triples.append((u, v, label_from_json(label)))
    return new_coloring(n, triples)


def save_coloring(g: EdgeColoring, path) -> None:
    write_json(coloring_to_dict(g), path)


def load_coloring(path) -> EdgeColoring:
    return coloring_from_dict(read_json(path))
