import itertools
import math
import sys
from fractions import Fraction
from unittest import mock

import pytest

import locallab.oracle as oracle_module
from locallab import (
    BudgetExceededError,
    LocalLabError,
    OracleResult,
    RealSet,
    check_g_property,
    check_local_property,
    coloring_from_set,
    exact_f,
    exact_g_integers,
    new_coloring,
    upper_bound_exponent,
)
from locallab import config
from locallab.oracle import witness_failures

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
    (7, 3, 2): 3,
    (7, 3, 3): 7,
    (7, 4, 4): 4,
    (7, 4, 5): 7,
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
        assert res.status == "optimal"
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
        exact_f(4, 1, 1)
    with pytest.raises(LocalLabError):
        exact_f(4, 5, 1)
    with pytest.raises(LocalLabError):
        exact_f(4, 3, 0)


def test_exact_f_respects_budget(monkeypatch):
    monkeypatch.setenv("LOCALLAB_BUDGET", "50")
    with pytest.raises(BudgetExceededError):
        exact_f(6, 3, 2)


@pytest.mark.parametrize("make_witness, n, k, l, value", [
    # f(5,3,3) = 5: a proper coloring of K_5 in five colors spans at most 5 of a
    # 4-set's 6 pairs
    (lambda: exact_f(5, 3, 3).witness, 5, 4, 6, 5),
    # g(4,4,3) over 0..6 = 3: three differences cannot make four
    (lambda: coloring_from_set(exact_g_integers(4, 4, 3, 6).witness), 4, 4, 4, 3),
], ids=["coloring", "set"])
def test_witness_rule_lists_each_failure(make_witness, n, k, l, value):
    witness = make_witness()
    assert witness_failures(witness, n, k, l - 1, value) == []
    assert witness_failures(witness, n + 1, k, l - 1, value) == [
        f"witness is on {n} vertices, not {n + 1}"]
    assert witness_failures(witness, n, k, l - 1, value + 1) == [
        f"witness has {value} colors, not {value + 1}"]
    assert witness_failures(witness, n, k, l, value) == [
        f"witness violates the ({k},{l}) property"]
    assert witness_failures(witness, n, k, l, value - 1) == [
        f"witness has {value} colors, not {value - 1}",
        f"witness violates the ({k},{l}) property"]


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
    # and on seven vertices, each tree pinned node for node
    for args, value, nodes in [((7, 3, 2), 3, 284), ((7, 4, 4), 4, 263),
                               ((7, 4, 5), 7, 39064), ((7, 3, 3), 7, 48058)]:
        res = exact_f(*args)
        assert (res.value, res.nodes_explored) == (value, nodes), args


# -- values that theorems fix, whatever the search does ----------------------

R33, R333, R44 = 6, 17, 18  # Ramsey numbers (Greenwood-Gleason 1955)
GOLOMB = {4: 6, 5: 11, 6: 17, 7: 25}  # the shortest Golomb ruler with n marks
# r_3(N), the largest 3-AP-free subset of N consecutive integers (OEIS A003002)
R_3 = dict(enumerate([1, 2, 2, 3, 4, 4, 4, 4, 5, 5, 6, 6, 7, 8], start=1))

THEOREM_F = (
    # (3,3): every triangle rainbow, so a proper edge coloring; the chromatic index
    # of K_n is n for odd n and n - 1 for even n
    [(f"chromatic-index-{n}", (n, 3, 3), n if n % 2 else n - 1) for n in range(3, 8)]
    # (3,2): no monochromatic triangle, in two colors exactly when n < R(3,3) and in
    # three when n < R(3,3,3)
    + [(f"ramsey-3-3-{n}", (n, 3, 2), 2 if n < R33 else 3) for n in range(3, 8) if n < R333]
    # (4,2): no monochromatic K_4, in two colors when n < R(4,4)
    + [(f"ramsey-4-4-{n}", (n, 4, 2), 2) for n in range(4, 8) if n < R44]
    # (4,6): every two edges lie in a common 4-set, so all edges differ
    + [(f"all-distinct-{n}", (n, 4, 6), math.comb(n, 2)) for n in range(4, 8)]
    # (k,1): one color serves
    + [(f"one-color-{n}-{k}", (n, k, 1), 1) for n, k in [(3, 2), (5, 3), (7, 4), (8, 5), (12, 6)]]
)


@pytest.mark.parametrize("args, value", [case[1:] for case in THEOREM_F],
                         ids=[case[0] for case in THEOREM_F])
def test_exact_f_meets_its_theorem(args, value):
    res = exact_f(*args)
    assert (res.value, res.status) == (value, "optimal")
    assert witness_failures(res.witness, *args, value) == []


def golomb_cases():
    # (4,6): two pairs with one difference span at most four elements, so the sets
    # are exactly the Sidon sets, each with C(n, 2) differences
    for n, length in GOLOMB.items():
        yield f"golomb-{n}", (n, 4, 6, length), math.comb(n, 2)
        yield f"golomb-{n}-short", (n, 4, 6, length - 1), None


def ap_free_cases():
    # (3,3): a 3-subset spans three differences unless it is a 3-AP, so a set
    # fits in 0..m exactly when r_3(m + 1) >= n
    for n in range(4, 9):
        m = min(size for size, r in R_3.items() if r >= n) - 1
        yield f"ap-free-{n}", (n, 3, 3, m), "optimal"
        yield f"ap-free-{n}-short", (n, 3, 3, m - 1), "infeasible"


@pytest.mark.parametrize("args, value", [case[1:] for case in golomb_cases()],
                         ids=[case[0] for case in golomb_cases()])
def test_exact_g_sidon_sets_meet_the_golomb_lengths(args, value):
    res = exact_g_integers(*args)
    assert res.value == value
    assert res.status == ("infeasible" if value is None else "optimal")


@pytest.mark.parametrize("args, status", [case[1:] for case in ap_free_cases()],
                         ids=[case[0] for case in ap_free_cases()])
def test_exact_g_ap_free_sets_meet_r3(args, status):
    res = exact_g_integers(*args)
    assert res.status == status
    if status == "optimal":
        assert check_g_property(res.witness, 3, 3).holds


def test_searches_deeper_than_the_recursion_limit():
    # a level per chosen value or colored edge; hypothesis raises the limit, so read it here
    limit = sys.getrecursionlimit()
    res = exact_g_integers(limit + 1, 2, 1, limit)
    assert (res.value, res.nodes_explored) == (limit, limit + 1)
    n = next(n for n in itertools.count(2) if math.comb(n, 2) > limit)
    res = exact_f(n, 3, 1)
    assert (res.value, res.nodes_explored) == (1, math.comb(n, 2) + 1)


# -- the searches before their incremental checks ----------------------------
# Each node rebuilt everything it tests: exact_f one color set per (color,
# finished k-subset), exact_g_integers every difference and, at each leaf,
# every k-subset.  The incremental searches must match them node for node.


def reference_exact_f(n, k, l):
    pair_count = k * (k - 1) // 2
    if l > pair_count:
        return OracleResult(None, None, 0, 0, "infeasible")

    edges = [(u, v) for v in range(n) for u in range(v)]
    pair_of = {e: i for i, e in enumerate(edges)}
    finished_at = {}
    for subset in itertools.combinations(range(n), k):
        slots = tuple(pair_of[e] for e in itertools.combinations(subset, 2))
        finished_at.setdefault(pair_of[subset[-2:]], []).append(slots)

    node_budget = config.budget(config.ORACLE_NODE_BUDGET)
    assignment = [0] * len(edges)
    best = {"value": len(edges) + 1, "witness": None}
    stats = {"nodes": 0, "classes": 0}

    def place(i, used):
        stats["nodes"] += 1
        if stats["nodes"] > node_budget:
            raise BudgetExceededError(
                f"exact_f({n},{k},{l}) exceeded the {node_budget} node budget"
            )
        if used >= best["value"]:
            return
        if i == len(edges):
            stats["classes"] += 1
            best["value"] = used
            best["witness"] = list(assignment)
            return
        for color in range(used + 1):
            if color == used and used + 1 >= best["value"]:
                break
            assignment[i] = color
            for slots in finished_at.get(i, ()):
                if len({assignment[s] for s in slots}) < l:
                    break
            else:
                place(i + 1, used + (1 if color == used else 0))

    place(0, 0)
    witness = new_coloring(n, [(u, v, best["witness"][i])
                               for i, (u, v) in enumerate(edges)])
    return OracleResult(best["value"], witness, stats["nodes"], stats["classes"], "optimal")


def reference_exact_g_integers(n, k, l, max_value):
    if max_value < n - 1:
        return OracleResult(None, None, 0, 0, "infeasible")
    if l > k * (k - 1) // 2:
        return OracleResult(None, None, 0, 0, "infeasible")

    node_budget = config.budget(config.ORACLE_NODE_BUDGET)
    best = {"value": max_value * (max_value + 1), "witness": None}
    stats = {"nodes": 0, "classes": 0}
    chosen = [0]
    pair_of = {e: i for i, e in enumerate(itertools.combinations(range(n), 2))}
    subsets = [tuple(pair_of[e] for e in itertools.combinations(subset, 2))
               for subset in itertools.combinations(range(n), k)]

    def extend():
        stats["nodes"] += 1
        if stats["nodes"] > node_budget:
            raise BudgetExceededError(
                f"exact_g_integers({n},{k},{l},{max_value}) exceeded the {node_budget} node budget"
            )
        differences = [b - a for a, b in itertools.combinations(chosen, 2)]
        size = len(set(differences))
        if size >= best["value"]:
            return
        if len(chosen) == n:
            stats["classes"] += 1
            for slots in subsets:
                if len({differences[s] for s in slots}) < l:
                    break
            else:
                best["value"] = size
                best["witness"] = tuple(chosen)
            return
        for x in range(chosen[-1] + 1, max_value + 1):
            if max_value - x < n - 1 - len(chosen):
                break
            chosen.append(x)
            extend()
            chosen.pop()

    extend()
    if best["witness"] is None:
        return OracleResult(None, None, stats["nodes"], stats["classes"], "infeasible")
    return OracleResult(best["value"], RealSet(best["witness"]), stats["nodes"],
                        stats["classes"], "optimal")


def outcome(search, *args):
    """Everything a search certifies, or the text of its budget error."""
    try:
        res = search(*args)
    except BudgetExceededError as exc:
        return "budget", str(exc)
    witness = res.witness
    if witness is not None:
        witness = (witness.elements if isinstance(witness, RealSet)
                   else list(zip(itertools.combinations(range(witness.n), 2), witness.colors)))
    return res.value, res.nodes_explored, res.canonical_classes, res.status, witness


def test_exact_f_matches_the_reference_search(monkeypatch):
    monkeypatch.setenv("LOCALLAB_BUDGET", "20000")
    trips = 0
    for n in range(2, 7):
        for k in range(2, n + 1):
            for l in range(1, k * (k - 1) // 2 + 2):
                got = outcome(exact_f, n, k, l)
                assert got == outcome(reference_exact_f, n, k, l), (n, k, l)
                trips += got[0] == "budget"
    assert trips  # the grid reaches the budget at least once
    # the pinned trees, whole, at the default budget
    monkeypatch.delenv("LOCALLAB_BUDGET")
    for case in [(6, 5, 7), (7, 3, 2), (7, 3, 3), (7, 4, 4), (7, 4, 5)]:
        assert outcome(exact_f, *case) == outcome(reference_exact_f, *case), case


def test_exact_g_matches_the_reference_search(monkeypatch):
    monkeypatch.setenv("LOCALLAB_BUDGET", "20000")
    cases = [(n, k, l, m) for n in range(2, 7) for k in range(2, n + 1)
             for l in range(1, k * (k - 1) // 2 + 2) for m in (n - 1, n + 3, 2 * n + 4)]
    # ranges past one machine word, so the difference bitmasks outgrow it
    cases += [(n, k, l, m) for n in range(2, 5) for k in range(2, n + 1)
              for l in range(1, k * (k - 1) // 2 + 2) for m in (63, 64, 65, 130)]
    for case in cases:
        got = outcome(exact_g_integers, *case)
        assert got == outcome(reference_exact_g_integers, *case), case
    # a feasible search whose incumbent cuts interior nodes
    monkeypatch.setenv("LOCALLAB_BUDGET", "50000")
    got = outcome(exact_g_integers, 6, 5, 7, 30)
    assert got[:4] == (8, 42348, 383, "optimal")
    assert got == outcome(reference_exact_g_integers, 6, 5, 7, 30)
    # feasible searches whose failing nodes before the first set root
    # subtrees counted in closed form: for (6, 4, 5, 14), 6 of its 34
    # failing nodes, the rest leaves
    for case, counted, found in [((6, 4, 5, 14), 6, (11, 3003, 1691, "optimal")),
                                 ((6, 3, 3, 12), 5, (9, 1222, 269, "optimal"))]:
        with mock.patch.object(oracle_module, "_subtree", wraps=oracle_module._subtree) as subtree:
            got = outcome(exact_g_integers, *case)
        assert (subtree.call_count, got[:4]) == (counted, found)
        assert got == outcome(reference_exact_g_integers, *case)


def test_subtree_counts_the_room_respecting_extensions():
    # a node holding m values, f free above its last: its descendants add
    # increasing offsets 1..f, and the node holding d values leaves n - d free
    for n in range(2, 8):
        for m in range(1, n):
            for f in range(n - m, 21):
                nodes = leaves = 0
                for d in range(m + 1, n + 1):
                    fits = sum(1 for new in itertools.combinations(range(1, f + 1), d - m)
                               if f - new[-1] >= n - d)
                    nodes += fits
                    leaves += fits if d == n else 0
                assert oracle_module._subtree(n, m, f) == (nodes, leaves), (n, m, f)


def test_exact_g_budget_caps_a_huge_range(monkeypatch):
    # the search state grows with the largest value visited, which the node
    # budget caps, never with max_value
    monkeypatch.setenv("LOCALLAB_BUDGET", "1000")
    with pytest.raises(BudgetExceededError, match="exceeded the 1000 node budget"):
        exact_g_integers(3, 2, 1, 10**15)


def test_exact_g_setup_counts_against_the_node_budget(monkeypatch):
    # C(7, 4) = 35 subset getters
    monkeypatch.setenv("LOCALLAB_BUDGET", "34")
    with pytest.raises(BudgetExceededError,
                       match="^35 4-subset getters exceed the budget 34$"):
        exact_g_integers(7, 4, 5, 18)
    # with l = 1 no getter is built, so a budget below C(4, 2) runs all 4 nodes
    monkeypatch.setenv("LOCALLAB_BUDGET", "5")
    assert exact_g_integers(4, 3, 1, 3).nodes_explored == 4
    monkeypatch.delenv("LOCALLAB_BUDGET")
    with pytest.raises(BudgetExceededError,
                       match="^137846528820 20-subset getters exceed the budget 100000000$"):
        exact_g_integers(40, 20, 2, 100)


def test_exact_f_setup_counts_against_the_node_budget(monkeypatch):
    # C(5, 3) = 10 subset getters, charged before the first node
    monkeypatch.setenv("LOCALLAB_BUDGET", "9")
    with pytest.raises(BudgetExceededError, match="^10 3-subset getters exceed the budget 9$"):
        exact_f(5, 3, 2)
    # with l = 1 no getter is built, so the same budget trips on a node instead
    with pytest.raises(BudgetExceededError, match="^exact_f\\(5,3,1\\) exceeded the 9 node budget$"):
        exact_f(5, 3, 1)


@pytest.mark.parametrize("search, args, nodes", [
    (exact_f, (6, 5, 7), 29878),
    (exact_g_integers, (7, 4, 5, 18), 27132),
    # the last node of these two is cut by the incumbent, so they fail if
    # the budget is checked after the cut instead of before it
    (exact_f, (5, 3, 2), 40),
    (exact_g_integers, (5, 4, 3, 10), 132),
    # feasible, with subtrees counted in closed form before the first set
    (exact_g_integers, (6, 4, 5, 14), 3003),
    # the last node of these two is a child with no color left, counted at its
    # parent; f(6,3,3) = 5 is the chromatic index of K_6
    (exact_f, (6, 3, 3), 360),
    (exact_f, (7, 3, 3), 48058),
])
def test_node_budget_is_checked_at_every_node(monkeypatch, search, args, nodes):
    # a budget one short of the tree trips on its last node; the exact size passes
    monkeypatch.setenv("LOCALLAB_BUDGET", str(nodes - 1))
    with pytest.raises(BudgetExceededError, match=f"the {nodes - 1} node budget"):
        search(*args)
    monkeypatch.setenv("LOCALLAB_BUDGET", str(nodes))
    assert search(*args).nodes_explored == nodes
