import hashlib
import itertools
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locallab import (
    BudgetExceededError,
    LocalLabError,
    behrend_set,
    check_g_property,
    coloring_from_set,
    difference_set,
    is_3ap_free,
    load_real_set,
    new_coloring,
    real_set,
    real_set_from_dict,
    real_set_to_dict,
    save_real_set,
)
from locallab import arithmetic
from locallab.arithmetic import _DIGIT_CAP, _VECTOR_CAP, _shell_tables


def brute_3ap_free(values):
    vals = list(values)
    n = len(vals)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if vals[i] + vals[k] == 2 * vals[j]:
                    return False
    return True


def test_real_set_normalizes_and_validates():
    A = real_set([3, 1, 2])
    assert A.elements == (1, 2, 3)
    B = real_set(["1/2", 2, Fraction(1, 3)])
    assert B.elements == (Fraction(1, 3), Fraction(1, 2), 2)
    with pytest.raises(LocalLabError):
        real_set([1, 1, 2])
    with pytest.raises(LocalLabError):
        real_set([0.5, 1])
    with pytest.raises(LocalLabError):
        real_set([])


def test_difference_set_examples():
    assert difference_set(real_set([0, 1, 3])).tolist() == [1, 2, 3]
    # arithmetic progressions collapse differences
    assert difference_set(real_set([0, 1, 2, 3])).tolist() == [1, 2, 3]
    assert difference_set(real_set([0, "1/2", 2])).tolist() == [
        Fraction(1, 2),
        Fraction(3, 2),
        2,
    ]


def test_difference_set_bounds():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randrange(2, 12)
        A = real_set(sorted(rng.sample(range(1000), n)))
        d = difference_set(A).tolist()
        assert len(d) <= n * (n - 1) // 2
        assert len(d) >= n - 1
        assert all(x > 0 for x in d)
        assert list(d) == sorted(set(d))


def test_coloring_from_set_uses_differences_as_labels():
    A = real_set([0, 1, 3])
    g = coloring_from_set(A)
    assert g.n == 3
    assert g.num_colors == 3
    assert g.label_of(g.color_of(0, 1)) == 1
    assert g.label_of(g.color_of(1, 2)) == 2
    assert g.label_of(g.color_of(0, 2)) == 3
    # a 3-term progression forces a repeated difference
    g = coloring_from_set(real_set([0, 1, 2]))
    assert g.num_colors == 2
    assert g.color_of(0, 1) == g.color_of(1, 2)
    rng = random.Random(2)
    for _ in range(10):
        A = real_set(sorted(rng.sample(range(500), rng.randrange(2, 15))))
        g = coloring_from_set(A)
        assert g.num_colors == len(difference_set(A))


def reference_coloring_from_set(A):
    """coloring_from_set as it was first written: the difference of every
    pair i < j handed to new_coloring as its label."""
    elems = A.elements
    return new_coloring(len(elems), [(i, j, elems[j] - elems[i])
                                     for i, j in itertools.combinations(range(len(elems)), 2)])


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(-12, 12) | st.fractions(-6, 6, max_denominator=3),
                       min_size=2, max_size=14, unique=True))
# a progression repeats a difference; 3/2 - 1/2 is the Fraction 1 and
# 3 - 2 the int 1 later, so the label kept is the first one seen
@example(values=[0, 1, 2])
@example(values=[Fraction(1, 2), Fraction(3, 2), 2, 3])
def test_coloring_from_set_matches_the_new_coloring_build(values):
    A = real_set(values)
    got, want = coloring_from_set(A), reference_coloring_from_set(A)
    assert got == want
    assert list(map(type, got.color_names)) == list(map(type, want.color_names))


def test_coloring_from_set_is_built_once_per_set():
    A = real_set([0, 1, 3, 7])
    assert coloring_from_set(A) is coloring_from_set(A)


def test_coloring_from_set_needs_two_elements():
    with pytest.raises(LocalLabError, match="need at least two elements"):
        coloring_from_set(real_set([Fraction(1, 3)]))


def test_check_g_property():
    assert not check_g_property(real_set([0, 1, 2]), 3, 3).holds
    assert check_g_property(real_set([0, 1, 3]), 3, 3).holds
    assert check_g_property(real_set([0, 1, 2]), 3, 2).holds
    v = check_g_property(real_set([0, 1, 2, 3]), 3, 3)
    assert not v.holds and v.witness == (0, 1, 2)


def test_is_3ap_free():
    assert not is_3ap_free(real_set([1, 2, 3]))
    assert is_3ap_free(real_set([1, 2, 4, 8]))
    assert is_3ap_free(real_set([1]))
    # rational progressions count too
    assert not is_3ap_free(real_set([0, "1/2", 1]))
    assert is_3ap_free(real_set([0, "1/2", "7/4"]))


def test_is_3ap_free_matches_bruteforce():
    rng = random.Random(10)
    for _ in range(30):
        n = rng.randrange(1, 12)
        vals = sorted(rng.sample(range(200), n))
        assert is_3ap_free(real_set(vals)) == brute_3ap_free(vals)
    # huge integers leave the vectorized path without overflow
    big = [10**19, 10**19 + 1, 2 * 10**19]
    assert is_3ap_free(real_set(big)) == brute_3ap_free(big)


def test_3ap_freeness_is_affine_invariant():
    rng = random.Random(11)
    for _ in range(10):
        vals = sorted(rng.sample(range(1000), 8))
        A = real_set(vals)
        s, t = rng.randrange(1, 9), rng.randrange(-50, 50)
        B = real_set([s * x + t for x in vals])
        assert is_3ap_free(A) == is_3ap_free(B)
        assert len(difference_set(A)) == len(difference_set(B))
        for k, l in ((3, 2), (4, 3)):
            assert check_g_property(A, k, l).holds == check_g_property(B, k, l).holds


def test_behrend_sets_are_3ap_free_and_sized():
    for n in (1, 2, 3, 10, 50, 200):
        A = behrend_set(n)
        assert len(A.elements) == n
        assert all(isinstance(x, int) and x >= 1 for x in A.elements)
        assert is_3ap_free(A)
    assert behrend_set(1).elements == (1,)


def test_behrend_is_deterministic():
    assert behrend_set(120) == behrend_set(120)


def test_behrend_small_values_match_bruteforce():
    for n in (2, 3, 4, 6):
        assert brute_3ap_free(behrend_set(n).elements)
    with pytest.raises(LocalLabError):
        behrend_set(0)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_shell_tables_match_bruteforce_counts(m):
    for d in range(1, 13):
        tables = _shell_tables(m, d)
        assert len(tables) == m
        for j, table in enumerate(tables, start=1):
            norms = [sum(x * x for x in v) for v in itertools.product(range(d), repeat=j)]
            expected = np.bincount(norms, minlength=j * (d - 1) ** 2 + 1)
            assert table.tolist() == expected.tolist(), (j, d)


def reference_shell_tables(m, d):
    """_shell_tables as the slice-add kernel first wrote it: every pass
    adds the last table at each of the d offsets x**2."""
    tables = [np.ones(1, dtype=np.int64)]
    for _ in range(m):
        prev = tables[-1]
        nxt = np.zeros(len(prev) + (d - 1) ** 2, dtype=np.int64)
        for x in range(d):
            nxt[x * x:x * x + len(prev)] += prev
        tables.append(nxt)
    return tables[1:]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_shell_tables_match_the_slice_add_reference(m):
    # every table _best_d can probe at m: the sparse scatter passes and the
    # dense slice passes both run, at every d under the two caps
    for d in range(1, _DIGIT_CAP + 1):
        if d**m > _VECTOR_CAP:
            break
        got, want = _shell_tables(m, d), reference_shell_tables(m, d)
        assert [t.tolist() for t in got] == [t.tolist() for t in want], (m, d)


def reference_difference_set(elements):
    return sorted({b - a for a, b in itertools.combinations(elements, 2)})


def reference_3ap_free(elements):
    return not any(x + z == 2 * y for x, y, z in itertools.combinations(elements, 3))


@settings(max_examples=200, deadline=None, database=None)
@given(values=st.lists(st.integers(-60, 60) | st.fractions(-20, 20, max_denominator=4),
                       min_size=2, max_size=16, unique=True),
       span_cap=st.sampled_from([10**8, 40, 0]))
@example(values=[-3, -1, 1, 3], span_cap=10**8)
@example(values=[Fraction(1, 2), 1, Fraction(3, 2), 5], span_cap=10**8)
def test_difference_kernels_match_the_itertools_reference(values, span_cap):
    # a span cap below the set's span sends an int set down the exact path,
    # which returns its exact values in an object array; the presence path
    # returns an integer array
    A = real_set(values)
    with mock.patch.object(arithmetic, "PRESENCE_SPAN_BUDGET", span_cap):
        got = difference_set(A)
        free = is_3ap_free(A)
    if all(type(x) is int for x in A) and A[-1] - A[0] <= span_cap:
        assert np.issubdtype(got.dtype, np.integer)
    else:
        assert got.dtype == object
    want = reference_difference_set(A.elements)
    assert got.tolist() == want and list(map(type, got.tolist())) == list(map(type, want))
    assert free == reference_3ap_free(A.elements)


def test_difference_kernels_past_the_span_ceiling():
    # spans of 2 * 10^9 and 10^20 take the exact path under the default ceilings
    for values in ([0, 1, 3, 10**9, 2 * 10**9], [-(10**20), 0, 10**20, 10**20 + 7]):
        A = real_set(values)
        assert difference_set(A).tolist() == reference_difference_set(A.elements)
        assert is_3ap_free(A) == reference_3ap_free(A.elements)
    assert not is_3ap_free(real_set([-(10**20), 0, 10**20]))


def test_difference_kernels_stop_at_the_exact_pair_ceiling(monkeypatch):
    # spans past the lowered span ceiling: C(6, 2) = 15 pairs are past the
    # lowered pair ceiling, C(5, 2) = 10 fit it
    monkeypatch.setenv("LOCALLAB_BUDGET", "10")
    for A in (real_set([0, 1, 3, 7, 15, 31]), real_set([Fraction(k, 3) for k in range(6)])):
        for kernel in (difference_set, is_3ap_free):
            with pytest.raises(BudgetExceededError, match="^15 exact pairs exceed the budget 10$"):
                kernel(A)
    assert difference_set(real_set([0, 1, 3, 7, 90])).tolist() == [1, 2, 3, 4, 6, 7, 83, 87, 89, 90]
    assert is_3ap_free(real_set([0, 1, 3, 7, 90]))
    # span 98 fits the presence array at 98, but C(15, 2) = 105 pairs only at 105
    A = real_set(range(0, 100, 7))
    monkeypatch.setenv("LOCALLAB_BUDGET", "98")
    for kernel in (difference_set, is_3ap_free):
        with pytest.raises(BudgetExceededError, match="^105 presence pairs exceed the budget 98$"):
            kernel(A)
    monkeypatch.setenv("LOCALLAB_BUDGET", "105")
    assert len(difference_set(A)) == 14


# first 16 hex digits of the sha256 of the comma-joined elements, as
# produced by the dense-convolution shell counts this kernel replaced
BEHREND_DIGESTS = {
    30: "b824dedc0bfe340f",
    100: "20912570aa895aa9",
    200: "ccab93ab6e9a2756",
    1000: "520d88675406c208",
    5000: "38b04ed34825adeb",
}


@pytest.mark.parametrize("n", sorted(BEHREND_DIGESTS))
def test_behrend_sets_are_pinned(n):
    joined = ",".join(map(str, behrend_set(n).elements))
    assert hashlib.sha256(joined.encode()).hexdigest()[:16] == BEHREND_DIGESTS[n]


def fallback_reference(n):
    """The base-3 fallback as it was first written: test every integer."""
    values, x = [], 0
    while len(values) < n:
        y = x
        while y and y % 3 < 2:
            y //= 3
        if y == 0:
            values.append(x + 1)
        x += 1
    return tuple(values)


def test_behrend_fallback_matches_the_enumeration(monkeypatch):
    monkeypatch.setattr(arithmetic, "_best_d", lambda n, m: None)
    for n in [*range(1, 301), 2000]:
        assert behrend_set(n).elements == fallback_reference(n), n


def test_behrend_fallback_size_is_built_directly():
    # from n = 16381 every capped shell is too thin
    elements = behrend_set(30000).elements
    assert len(elements) == 30000
    assert all(a < b for a, b in zip(elements, elements[1:]))
    assert all(set(np.base_repr(x - 1, 3)) <= {"0", "1"} for x in elements)


def test_json_round_trip(tmp_path):
    A = real_set([1, Fraction(5, 2), 7])
    payload = real_set_to_dict(A)
    assert payload == {"elements": [1, "5/2", 7]}
    assert real_set_from_dict(payload) == A
    path = tmp_path / "set.json"
    save_real_set(A, path)
    assert load_real_set(path) == A
    first = path.read_bytes()
    save_real_set(A, path)
    assert path.read_bytes() == first
