import itertools
from fractions import Fraction

import pytest

from locallab import (
    BudgetExceededError,
    LocalLabError,
    check_g_property,
    check_local_property,
    exact_f,
    exact_g_integers,
    upper_bound_exponent,
)

# values confirmed against the full enumeration; f(6,3,2)=3 reflects the
# two-coloring of K_5 avoiding monochromatic triangles having no analogue
# on six vertices
FROZEN_F = {
    (3, 3, 2): 2,
    (3, 3, 3): 3,
    (4, 3, 1): 1,
    (4, 3, 2): 2,
    (4, 3, 3): 3,
    (4, 4, 2): 2,
    (5, 3, 2): 2,
    (5, 3, 3): 5,
    (5, 4, 2): 2,
    (6, 3, 2): 3,
    (6, 4, 3): 3,
}

FROZEN_G = {
    (3, 3, 2, 4): 2,
    (3, 3, 3, 10): 3,
    (4, 3, 2, 4): 3,
    (4, 4, 3, 6): 3,
    (2, 2, 1, 1): 1,
    (5, 4, 3, 10): 4,
}


def test_exact_f_frozen_values():
    for (n, k, l), value in FROZEN_F.items():
        res = exact_f(n, k, l)
        assert res.value == value, (n, k, l)
        assert res.status == "optimal" and res.exhausted
        assert res.nodes_explored > 0
        assert res.canonical_classes >= 1


def test_exact_f_witnesses_achieve_the_property():
    for (n, k, l), value in FROZEN_F.items():
        res = exact_f(n, k, l)
        g = res.witness
        assert g.n == n and g.num_colors == value
        assert check_local_property(g, k, l).holds


def test_exact_f_is_monotone():
    # more colors are never needed for a weaker demand
    for n in (4, 5, 6):
        values = [exact_f(n, 3, l).value for l in (1, 2, 3)]
        assert values == sorted(values)
    # and never fewer on more vertices
    values = [exact_f(n, 3, 2).value for n in (3, 4, 5, 6)]
    assert values == sorted(values)


def test_exact_f_proper_coloring_regime():
    # l = C(k,2) forces all edges within any k vertices distinct; for
    # k = 3 that is a proper edge coloring, so at least n-1 colors
    for n in (3, 4, 5):
        assert exact_f(n, 3, 3).value >= n - 1


def test_exact_f_infeasible_and_guards():
    res = exact_f(4, 3, 4)
    assert res.status == "infeasible" and res.value is None
    with pytest.raises(LocalLabError):
        exact_f(7, 3, 2)  # beyond the guarded range
    with pytest.raises(LocalLabError):
        exact_f(4, 1, 1)
    with pytest.raises(LocalLabError):
        exact_f(4, 5, 1)
    with pytest.raises(LocalLabError):
        exact_f(4, 3, 0)


def test_exact_f_respects_budget(monkeypatch):
    monkeypatch.setenv("LOCALLAB_BUDGET", "50")
    with pytest.raises(BudgetExceededError):
        exact_f(6, 3, 2)


def test_exact_g_frozen_values():
    for (n, k, l, m), value in FROZEN_G.items():
        res = exact_g_integers(n, k, l, m)
        assert res.value == value, (n, k, l, m)
        assert res.status == "optimal"
        A = res.witness
        assert len(A.elements) == n
        assert A.elements[0] == 0 and max(A.elements) <= m
        assert check_g_property(A, k, l).holds
        # optimality: no n-subset of 0..m achieves fewer differences
        diffs = len({b - a for a, b in itertools.combinations(A.elements, 2)})
        assert diffs == value


def test_exact_g_optimality_by_enumeration():
    n, k, l, m = 4, 3, 2, 6
    res = exact_g_integers(n, k, l, m)
    best = None
    for rest in itertools.combinations(range(1, m + 1), n - 1):
        A = (0,) + rest
        diffs = {b - a for a, b in itertools.combinations(A, 2)}
        if check_g_property(type(res.witness)(A), k, l).holds:
            if best is None or len(diffs) < best:
                best = len(diffs)
    assert res.value == best


def test_exact_g_infeasible():
    assert exact_g_integers(5, 3, 2, 3).status == "infeasible"  # range too short
    assert exact_g_integers(3, 3, 4, 10).status == "infeasible"  # l > C(3,2)
    with pytest.raises(LocalLabError):
        exact_g_integers(1, 2, 1, 5)


def test_upper_bound_exponent():
    assert upper_bound_exponent(100, 8, 25).exponent == Fraction(3, 2)
    assert upper_bound_exponent(100, 3, 3).exponent == Fraction(1)
    assert upper_bound_exponent(300, 24, 261).exponent == Fraction(11, 8)
    b = upper_bound_exponent(100, 8, 25)
    assert abs(b.reference - 1000.0) < 1e-9
    assert not b.certified
    with pytest.raises(LocalLabError):
        upper_bound_exponent(100, 8, 0)
    with pytest.raises(LocalLabError):
        upper_bound_exponent(100, 8, 29)  # l > C(8,2)
    # k = 2 degenerates to a constant reference
    assert upper_bound_exponent(100, 2, 1).exponent == 0
    with pytest.raises(LocalLabError):
        upper_bound_exponent(100, 1, 1)


def test_search_accounting_is_pinned():
    # the leaf checks may get faster, but the search trees stay node for node
    res = exact_f(6, 5, 7)
    assert (res.value, res.nodes_explored, res.canonical_classes) == (7, 29878, 3)
    res = exact_g_integers(7, 4, 5, 18)
    assert res.status == "infeasible"
    assert (res.nodes_explored, res.canonical_classes) == (27132, 18564)
