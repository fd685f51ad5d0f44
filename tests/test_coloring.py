import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locallab import (
    ColoringError,
    DuplicatePairError,
    LocalLabError,
    MissingPairError,
    SelfLoopError,
    VertexRangeError,
    check_local_property,
    coloring_from_dict,
    coloring_to_dict,
    energy,
    load_coloring,
    new_coloring,
    pair_index,
    random_coloring,
    save_coloring,
)
from locallab.coloring import BLOCK, _upper_pairs, divmod_into, gather, mark, pair_cells


def complete_assignments(n, label=0):
    return [(u, v, label) for u in range(n) for v in range(u + 1, n)]


def test_pair_index_is_a_bijection():
    for n in (2, 3, 5, 8):
        seen = set()
        for u in range(n):
            for v in range(u + 1, n):
                idx = pair_index(n, u, v)
                assert idx == pair_index(n, v, u)
                seen.add(idx)
        assert seen == set(range(n * (n - 1) // 2))


def test_construction_rejects_bad_edges():
    with pytest.raises(SelfLoopError):
        new_coloring(3, [(0, 0, "a"), (0, 1, "a"), (0, 2, "a"), (1, 2, "a")])
    with pytest.raises(VertexRangeError):
        new_coloring(3, [(0, 3, "a"), (0, 1, "a"), (0, 2, "a"), (1, 2, "a")])
    with pytest.raises(VertexRangeError):
        new_coloring(3, [(True, 2, "a"), (0, 1, "a"), (0, 2, "a")])
    with pytest.raises(DuplicatePairError):
        new_coloring(3, [(0, 1, "a"), (1, 0, "b"), (0, 2, "a"), (1, 2, "a")])
    with pytest.raises(MissingPairError):
        new_coloring(3, [(0, 1, "a"), (0, 2, "a")])


def test_labels_normalize_in_first_seen_order():
    g = new_coloring(3, [(0, 1, "x"), (0, 2, "y"), (1, 2, "x")])
    assert g.color_names == ("x", "y")
    assert g.color_of(0, 1) == 0 == g.color_of(1, 2)
    assert g.color_of(0, 2) == 1
    assert g.color_of(2, 0) == 1
    assert g.label_of(1) == "y"
    assert g.color_id("y") == 1
    with pytest.raises(ColoringError):
        g.color_id("z")


def test_fraction_labels_survive():
    g = new_coloring(3, [(0, 1, Fraction(1, 2)), (0, 2, Fraction(1, 2)), (1, 2, 3)])
    assert g.num_colors == 2
    assert g.label_of(g.color_of(0, 1)) == Fraction(1, 2)


def test_color_matrix_is_built_once_read_only_and_symmetric():
    g = random_coloring(9, 4, seed=3)
    mat = g.color_matrix()
    assert g.color_matrix() is mat
    with pytest.raises(ValueError):
        mat[0, 1] = 0
    assert (mat == mat.T).all() and (mat.diagonal() == -1).all()
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                assert mat[u, v] == g.color_of(u, v)
    # the cache is no field: equality and hash ignore it
    fresh = random_coloring(9, 4, seed=3)
    assert fresh == g and hash(fresh) == hash(g)
    assert [f.name for f in dataclasses.fields(g)] == ["n", "colors", "color_names"]


def test_upper_pairs_are_read_only_triu_indices():
    for n in range(7):
        us, vs = _upper_pairs(n)
        want_us, want_vs = np.triu_indices(n, 1)
        assert np.array_equal(us, want_us) and np.array_equal(vs, want_vs)
        for side in (us, vs):
            with pytest.raises(ValueError):
                side[:] = 0


def test_color_matrix_dtype_widens_past_int8():
    for palette, dtype in ((128, np.int8), (129, np.int16)):
        g = new_coloring(17, [(u, v, i % palette) for i, (u, v) in
                              enumerate(itertools.combinations(range(17), 2))])
        assert g.num_colors == palette and g.color_matrix().dtype == dtype
        assert g.color_matrix().max() == palette - 1


def test_colors_within_counts_distinct_pair_colors():
    g = random_coloring(10, 5, seed=8)
    rng = random.Random(8)
    for size in range(0, 11):
        vertices = rng.sample(range(10), size)
        expected = {g.color_of(u, v) for u, v in itertools.combinations(vertices, 2)}
        assert g.colors_within(vertices) == len(expected)
        assert g.colors_within(set(vertices)) == len(expected)
    with pytest.raises(VertexRangeError):
        g.colors_within([0, -1])


def test_multiplicities_sum_to_ordered_pair_count():
    for n, c, seed in ((4, 2, 0), (7, 3, 1), (9, 11, 2)):
        g = random_coloring(n, c, seed=seed)
        sizes = pair_cells(g, [0] * n, 1)[2][:, 0].tolist()
        assert 2 * sum(sizes) == n * (n - 1)
        # every declared color really appears
        assert len(sizes) == g.num_colors and min(sizes) >= 1


def test_perfect_matching_coloring_of_k4():
    g = new_coloring(4, [(0, 1, 0), (2, 3, 0), (0, 2, 1), (1, 3, 1), (0, 3, 2), (1, 2, 2)])
    assert pair_cells(g, [0] * 4, 1)[2][:, 0].tolist() == [2, 2, 2]
    assert energy(g, 2) == 3 * 4**2 == 48
    assert energy(g, 3) == 3 * 4**3 == 192


def test_check_local_property_exhaustive():
    # arithmetic-progression coloring of K_4 by differences: {0,1,2} on a
    # triangle but subsets such as (0,1,2) only span two colors
    g = new_coloring(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 2, 1), (1, 3, 2), (2, 3, 1)])
    v = check_local_property(g, 3, 3)
    assert not v.holds
    assert v.witness == (0, 1, 2)
    assert v.min_colors_seen == 2
    assert v.mode == "exhaustive"

    rainbow = new_coloring(4, [(u, v_, f"{u}{v_}") for u in range(4) for v_ in range(u + 1, 4)])
    v = check_local_property(rainbow, 3, 3)
    assert v.holds and v.min_colors_seen == 3


def fewest_colors(g, k):
    """(fewest colors, least subset spanning them) over all k-subsets: an
    l of C(k, 2) caps no count, since no k-subset spans more colors."""
    v = check_local_property(g, k, math.comb(k, 2))
    return v.min_colors_seen, v.witness


def test_min_colors_over_k_subsets():
    g = new_coloring(4, [(0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 2, 1), (1, 3, 2), (2, 3, 1)])
    assert fewest_colors(g, 3) == (2, (0, 1, 2))
    mono = new_coloring(5, complete_assignments(5))
    assert fewest_colors(mono, 4) == (1, (0, 1, 2, 3))


def test_sampled_mode_is_seeded_and_refutes():
    mono = new_coloring(8, complete_assignments(8))
    v1 = check_local_property(mono, 4, 2, mode="sampled", trials=5, seed=9)
    v2 = check_local_property(mono, 4, 2, mode="sampled", trials=5, seed=9)
    assert v1 == v2
    assert not v1.holds and v1.min_colors_seen == 1
    with pytest.raises(ColoringError):
        check_local_property(mono, 4, 2, mode="sampled")
    # without an int seed each call would draw other subsets
    for seed in (None, True, 9.0):
        with pytest.raises(ColoringError, match="int seed"):
            check_local_property(mono, 4, 2, mode="sampled", trials=5, seed=seed)
    with pytest.raises(ColoringError):
        check_local_property(mono, 4, 2, mode="guess")


def test_parameter_validation():
    mono = new_coloring(4, complete_assignments(4))
    with pytest.raises(ColoringError):
        check_local_property(mono, 1, 1)
    with pytest.raises(ColoringError):
        check_local_property(mono, 5, 1)
    with pytest.raises(ColoringError):
        check_local_property(mono, 3, 0)
    with pytest.raises(ColoringError):
        check_local_property(mono, 3, 4)  # l > C(3,2)


def test_random_coloring_determinism_and_coverage():
    a = random_coloring(8, 3, seed=11)
    b = random_coloring(8, 3, seed=11)
    assert a == b
    assert a.num_colors == 3
    c = random_coloring(8, 3, seed=12)
    assert a != c
    # unused labels are normalized away, so the palette never exceeds C(n,2)
    assert random_coloring(4, 50, seed=0).num_colors <= 6
    with pytest.raises(ColoringError):
        random_coloring(4, 0, seed=0)


def test_random_coloring_equals_the_validated_construction():
    rng = random.Random(2)
    for _ in range(300):
        n, c, seed = rng.randrange(2, 13), rng.randrange(1, 90), rng.randrange(10**6)
        draws = random.Random(seed)
        expected = new_coloring(n, [(u, v, draws.randrange(c))
                                    for u, v in itertools.combinations(range(n), 2)])
        assert random_coloring(n, c, seed) == expected
    # powers of two reject half their draws, c = 1 draws a bit it rejects
    # half the time, and past 32 bits each draw takes several words
    for c in [1, 2, 3, 4, 7, 8, 9, 255, 256, 257, *range(5000, 5020), 2**61 - 1, 2**64 + 1]:
        for seed in range(5):
            draws = random.Random(seed)
            expected = new_coloring(14, [(u, v, draws.randrange(c))
                                         for u, v in itertools.combinations(range(14), 2)])
            assert random_coloring(14, c, seed) == expected, (c, seed)
    # the palette is checked before the vertex count, each with its message
    with pytest.raises(ColoringError, match="^palette size must be at least 1$"):
        random_coloring(1, 0, seed=0)
    for n in (1, 0, -3, 2.0):
        with pytest.raises(ColoringError, match=rf"^need at least 2 vertices, got n={n!r}$"):
            random_coloring(n, 3, seed=0)


def test_json_round_trip_and_stable_bytes(tmp_path):
    g = new_coloring(5, [(u, v, Fraction(u + 1, v + 2)) for u in range(5) for v in range(u + 1, 5)])
    path = tmp_path / "c.json"
    save_coloring(g, path)
    assert load_coloring(path) == g
    first = path.read_bytes()
    save_coloring(g, path)
    assert path.read_bytes() == first
    assert first.endswith(b"\n")
    payload = json.loads(first)
    assert coloring_from_dict(payload) == g
    assert coloring_to_dict(g) == payload


LABELS = {
    "int": lambda i: 10 * i - 7,
    "str": lambda i: f"c{i}",
    "fraction": lambda i: Fraction(i + 1, 3),
}


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_ids_do_not_depend_on_the_assignment_order(data):
    n = data.draw(st.integers(2, 8))
    label = LABELS[data.draw(st.sampled_from(sorted(LABELS)))]
    pairs = list(itertools.combinations(range(n), 2))
    ids = data.draw(st.lists(st.integers(0, len(pairs) - 1),
                             min_size=len(pairs), max_size=len(pairs)))
    in_order = [(u, v, label(c)) for (u, v), c in zip(pairs, ids)]
    flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    shuffled = data.draw(st.permutations([(v, u, c) if flip else (u, v, c)
                                          for (u, v, c), flip in zip(in_order, flips)]))
    g = new_coloring(n, shuffled)
    assert g == new_coloring(n, in_order)
    assert coloring_from_dict(coloring_to_dict(g)) == g


def test_bool_labels_are_rejected():
    # True == 1, so a file with both would load them as one color
    for label in (True, False):
        with pytest.raises(ColoringError, match=rf"^color label {label} must be int or string$"):
            coloring_from_dict({"n": 3, "edges": [[0, 1, label], [0, 2, 1], [1, 2, 1]]})
    assert coloring_from_dict({"n": 2, "edges": [[0, 1, 1]]}).color_names == (1,)
    # nor is a bool label written, so every saved file loads again
    with pytest.raises(LocalLabError, match="^label True has no JSON form$"):
        coloring_to_dict(new_coloring(2, [(0, 1, True)]))


def test_random_corpus_round_trips():
    rng = random.Random(0)
    for _ in range(25):
        n = rng.randrange(3, 9)
        c = rng.randrange(1, n * (n - 1) // 2 + 1)
        g = random_coloring(n, c, seed=rng.randrange(10**6))
        assert coloring_from_dict(coloring_to_dict(g)) == g


INDEX_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
# empty, short, and on both sides of one and two blocks
LENGTHS = st.sampled_from([0, 1, 5, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]) | st.integers(0, 40)


@settings(max_examples=120, deadline=None, database=None)
@given(dtype=st.sampled_from(INDEX_DTYPES), length=LENGTHS, rows=st.sampled_from([None, 1, 2]),
       table_size=st.integers(1, 300), layout=st.sampled_from(["flat", "rows", "columns"]),
       seed=st.integers(0, 2**32 - 1), fault=st.booleans())
def test_gather_and_mark_match_fancy_indexing(dtype, length, rows, table_size, layout, seed,
                                              fault):
    rng = np.random.default_rng(seed)
    top = min(table_size, np.iinfo(dtype).max + 1)
    bottom = -top if np.iinfo(dtype).min < 0 else 0  # negative entries count from the end
    index = rng.integers(bottom, top, length).astype(dtype)
    if fault and length and top <= np.iinfo(dtype).max:
        index[rng.integers(length)] = top  # one past the table
    if rows:
        index = index[:length - length % rows].reshape(rows, -1)
    table = rng.integers(-99, 99, top).astype(np.int16)
    if top % 3 == 0 and layout != "flat":  # a matrix, or a transposed view of one
        table = table.reshape(-1, 3) if layout == "rows" else table.reshape(3, -1).T
    try:
        expected = table.ravel()[index]
    except IndexError:
        with pytest.raises(IndexError):
            gather(table, index)
        if index.ndim == 1:
            with pytest.raises(IndexError):
                mark(np.zeros(top, dtype=bool), index)
        return
    got = gather(table, index)
    assert got.dtype == table.dtype and got.shape == index.shape
    assert np.array_equal(got, expected)
    if index.ndim == 1:
        mask, expected_mask = np.zeros(top, dtype=bool), np.zeros(top, dtype=bool)
        mark(mask, index)
        expected_mask[index] = True
        assert np.array_equal(mask, expected_mask)


@settings(max_examples=120, deadline=None, database=None)
@given(dtype=st.sampled_from([np.int32, np.int64]), length=LENGTHS,
       divisor=st.integers(1, 10**5) | st.sampled_from([1, 2, 7, 31, 901]),
       seed=st.integers(0, 2**32 - 1), outputs=st.sampled_from(["new", "quotient-in-keys",
                                                                   "remainder-in-keys", "quotient",
                                                                   "remainder"]))
def test_divmod_into_matches_np_divmod(dtype, length, divisor, seed, outputs):
    keys = np.random.default_rng(seed).integers(0, np.iinfo(dtype).max, length, endpoint=True)
    keys = keys.astype(dtype)
    expected_q, expected_r = np.divmod(keys, divisor)
    q, r = np.full_like(keys, -1), np.full_like(keys, -1)
    if outputs == "quotient-in-keys":
        q = keys
    elif outputs == "remainder-in-keys":
        r = keys
    divmod_into(keys, divisor, None if outputs == "remainder" else q,
                None if outputs == "quotient" else r)
    assert np.array_equal(q, np.full_like(keys, -1) if outputs == "remainder" else expected_q)
    assert np.array_equal(r, np.full_like(keys, -1) if outputs == "quotient" else expected_r)
