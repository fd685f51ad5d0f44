"""The chunked k-subset scan against a brute-force reference.

The reference walks the same subsets with itertools and counts colors
with a set, so any difference in the count, the cap or the witness
(the first subset in scan order attaining the minimum) shows up.  The
exhaustive scan counts only the subsets `_repeat_rows` lists, or every
subset when those are too many or all fit one block; both row sources
are checked here.
"""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import locallab.coloring as coloring_module
from locallab import (
    BudgetExceededError,
    check_local_property,
    new_coloring,
    random_coloring,
)

LABELS = {
    "int": lambda i: 10 * i - 7,
    "str": lambda i: f"c{i}",
    "fraction": lambda i: Fraction(i + 1, 3),
}


def reference_scan(g, k, cap, subsets):
    best = best_subset = None
    for subset in subsets:
        count = len({g.color_of(u, v) for u, v in itertools.combinations(subset, 2)})
        if cap is not None:
            count = min(count, cap)
        if best is None or count < best:
            best, best_subset = count, tuple(subset)
    return best, best_subset


def reference_samples(n, k, trials, seed):
    rng = random.Random(seed)
    return [tuple(sorted(rng.sample(range(n), k))) for _ in range(trials)]


@st.composite
def scans(draw):
    """A coloring with int, string or Fraction labels, then k, l, trials
    and seed for one scan; k is drawn as 2, as n, or in between.  The
    palette reaches C(n, 2), so every pair can get its own color."""
    n = draw(st.integers(2, 9))
    label = LABELS[draw(st.sampled_from(sorted(LABELS)))]
    pairs = list(itertools.combinations(range(n), 2))
    palette = draw(st.integers(1, len(pairs)))
    ids = draw(st.lists(st.integers(0, palette - 1), min_size=len(pairs), max_size=len(pairs)))
    g = new_coloring(n, [(u, v, label(c)) for (u, v), c in zip(pairs, ids)])
    k = draw(st.sampled_from([2, n, draw(st.integers(2, n))]))
    l = draw(st.integers(1, k * (k - 1) // 2))
    return g, k, l, draw(st.integers(1, 40)), draw(st.integers(0, 1000))


def coloring_by_pair(n, ids):
    """K_n whose i-th pair, in lexicographic order, gets color ids[i]."""
    return new_coloring(n, [(u, v, c) for (u, v), c in
                            zip(itertools.combinations(range(n), 2), ids)])


# chunk and table sizes small enough that even tiny inputs cross chunk
# boundaries and need a multi-vertex prefix.  At the default sizes every
# input here fits one block and takes the lexicographic scan; (3, 1 << 18)
# takes the repeat rows in blocks of 3, and the smaller tables force the
# lexicographic scan for nearly every coloring
SIZES = [(4096, 1 << 18), (3, 1 << 18), (3, 4), (1, 1)]


@pytest.mark.parametrize("chunk_rows,table_rows", SIZES)
@settings(max_examples=60, deadline=None, database=None)
@given(case=scans())
@example(case=(random_coloring(7, 3, seed=1), 2, 1, 25, 3))
@example(case=(random_coloring(7, 3, seed=1), 7, 21, 25, 3))
@example(case=(new_coloring(5, [(u, v, "m") for u, v in itertools.combinations(range(5), 2)]),
               3, 2, 5, 0))
# k = n = 9: all 36 pairs distinct, then the last pair repeating the first
@example(case=(coloring_by_pair(9, range(36)), 9, 36, 3, 0))
@example(case=(coloring_by_pair(9, [*range(35), 0]), 9, 36, 3, 0))
# one repeated color on the disjoint pairs {0, 1} and {7, 8}: 10 repeat rows
@example(case=(coloring_by_pair(9, [*range(35), 0]), 6, 15, 3, 0))
def test_scan_matches_reference(chunk_rows, table_rows, case):
    g, k, l, trials, seed = case
    everything = list(itertools.combinations(range(g.n), k))
    samples = reference_samples(g.n, k, trials, seed)
    with mock.patch.object(coloring_module, "_CHUNK_ROWS", chunk_rows), \
            mock.patch.object(coloring_module, "_TABLE_ROWS", table_rows):
        v = check_local_property(g, k, math.comb(k, 2))
        assert (v.min_colors_seen, v.witness) == reference_scan(g, k, None, everything)
        v = check_local_property(g, k, l)
        best, subset = reference_scan(g, k, l, everything)
        assert (v.min_colors_seen, v.witness, v.holds) == (best, subset, best >= l)
        v = check_local_property(g, k, l, mode="sampled", trials=trials, seed=seed)
        best, subset = reference_scan(g, k, l, samples)
        assert (v.min_colors_seen, v.witness, v.holds) == (best, subset, best >= l)


def test_lex_table_lists_every_subset_in_order():
    for n in range(1, 9):
        for width in range(1, n + 1):
            table = coloring_module._lex_table(n, width, coloring_module.np.uint8)
            assert [tuple(row) for row in table.tolist()] == list(
                itertools.combinations(range(n), width))


def test_lex_table_is_built_once_and_read_only():
    table = coloring_module._lex_table(14, 4, coloring_module.np.uint8)
    assert coloring_module._lex_table(14, 4, coloring_module.np.uint8) is table
    with pytest.raises(ValueError):
        table[0, 0] = 1


def test_scan_respects_subset_budget(monkeypatch):
    g = random_coloring(10, 3, seed=0)  # C(10, 4) = 210 subsets
    monkeypatch.setenv("LOCALLAB_BUDGET", "209")
    with pytest.raises(BudgetExceededError):
        check_local_property(g, 4, 2)
    with pytest.raises(BudgetExceededError):
        check_local_property(g, 4, math.comb(4, 2))
    with pytest.raises(BudgetExceededError):
        check_local_property(g, 4, 2, mode="sampled", trials=210, seed=0)
    assert check_local_property(g, 4, 2, mode="sampled", trials=209, seed=0).trials == 209
    monkeypatch.setenv("LOCALLAB_BUDGET", "210")
    assert check_local_property(g, 4, 2).mode == "exhaustive"


def repeated_subsets(g, k):
    """The k-subsets, in lexicographic order, spanning fewer than C(k, 2) colors."""
    return [s for s in itertools.combinations(range(g.n), k)
            if len({g.color_of(u, v) for u, v in itertools.combinations(s, 2)}) < k * (k - 1) // 2]


def repeat_row_count(g, k):
    """Rows the repeat source would list, repeats included: each two
    same-colored pairs with endpoint set U give C(n - |U|, k - |U|)."""
    pairs = itertools.combinations(itertools.combinations(range(g.n), 2), 2)
    return sum(math.comb(g.n - len({*e, *f}), k - len({*e, *f}))
               for e, f in pairs if g.color_of(*e) == g.color_of(*f) and len({*e, *f}) <= k)


@settings(max_examples=150, deadline=None, database=None)
@given(case=scans(), table_rows=st.sampled_from([0, 1, 5, 40, 1 << 18]))
@example(case=(coloring_by_pair(9, [*range(35), 0]), 6, 15, 3, 0), table_rows=1 << 18)
@example(case=(coloring_by_pair(9, range(36)), 4, 6, 3, 0), table_rows=0)
# {0, 1}, {2, 3} and {4, 5} share a color: three ways to list {0, ..., 5}
@example(case=(coloring_by_pair(9, [0 if i in (15, 26) else i for i in range(36)]), 6, 15, 3, 0),
         table_rows=1 << 18)
def test_repeat_rows_list_the_subsets_that_repeat_a_color(case, table_rows):
    g, k = case[:2]
    assume(k >= 3)  # the scan needs no rows for k = 2
    limit = min(math.comb(g.n, k), table_rows)
    with mock.patch.object(coloring_module, "_TABLE_ROWS", table_rows):
        rows = coloring_module._repeat_rows(g, k, np.uint8)
    assert (rows is None) == (repeat_row_count(g, k) > limit)
    if rows is not None:
        assert [tuple(row) for row in rows.tolist()] == repeated_subsets(g, k)


def test_sparse_coloring_past_the_table_cap_falls_back_to_the_lexicographic_scan():
    # all colors distinct but {0, 1} and {7, 8}: C(5, 2) = 10 rows at k = 6
    g = coloring_by_pair(9, [*range(35), 0])
    everything = list(itertools.combinations(range(9), 6))
    with mock.patch.object(coloring_module, "_CHUNK_ROWS", 3), \
            mock.patch.object(coloring_module, "_TABLE_ROWS", 9), \
            mock.patch.object(coloring_module, "_lex_chunks",
                              wraps=coloring_module._lex_chunks) as lex:
        assert coloring_module._repeat_rows(g, 6, np.uint8) is None
        v = check_local_property(g, 6, 15)
    assert lex.call_count == 1
    best, subset = reference_scan(g, 6, 15, everything)
    assert (v.min_colors_seen, v.witness, v.holds) == (best, subset, False)
    assert subset == (0, 1, 2, 3, 7, 8)



def lex_count(g, k, cap):
    """(fewest colors, capped at `cap`, and the first subset spanning that
    many) over every row `_lex_chunks` lists."""
    rows = np.concatenate(list(coloring_module._lex_chunks(g.n, k, np.uint8)))
    counts = [min(g.colors_within(row.tolist()), cap) for row in rows]
    best = min(counts)
    return best, tuple(rows[counts.index(best)].tolist())


@pytest.mark.parametrize("ids", [range(91), [*range(90), 0]])
@pytest.mark.parametrize("k", [3, 4, 5, 14])
def test_repeat_free_scan_matches_a_full_count(ids, k):
    # every pair of K_14 its own color, then the last pair {12, 13}
    # repeating the first, {0, 1}; only the repeat-free one skips the count
    g = coloring_by_pair(14, ids)
    top = math.comb(k, 2)
    with mock.patch.object(coloring_module, "_lex_chunks",
                           wraps=coloring_module._lex_chunks) as lex:
        got = [coloring_module._scan(g, k, cap) for cap in (top, top - 1)]
    assert lex.called == (g.num_colors < 91)
    assert got == [lex_count(g, k, cap) for cap in (top, top - 1)]
    repeats = g.num_colors < 91 and k >= 4  # a subset holding {0, 1, 12, 13}
    assert got[0] == ((top - 1, (0, 1, *range(2, k - 2), 12, 13)) if repeats
                      else (top, tuple(range(k))))
