import copy
import itertools
import json
from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locallab import (
    BudgetExceededError,
    CliqueWitness,
    DifferenceEquality,
    LocalLabError,
    WitnessSet,
    build_rth_energy_graph,
    build_second_energy_graph,
    check_local_property,
    clique_certificate,
    clique_from_cycle_arith,
    coloring_from_set,
    exact_f,
    exact_g_integers,
    find_cycle,
    load_certificate,
    new_coloring,
    oracle_f_certificate,
    oracle_g_certificate,
    prune_diagonal,
    random_coloring,
    real_set,
    save_certificate,
    sign_decompose,
    verdict_certificate,
    verify_certificate,
    witness_from_cycle,
    witness_set_certificate,
)
from locallab.forbidden import ColorRepetition
from locallab.jsonio import exact_to_json


def mono(n):
    return new_coloring(n, [(u, v, "m") for u in range(n) for v in range(u + 1, n)])


def witness_pair():
    g = mono(12)
    eg = prune_diagonal(build_second_energy_graph(g))
    cycle = find_cycle(eg, 4)
    ws = witness_from_cycle(g, eg, cycle, "pair", 8)
    return g, witness_set_certificate(ws)


def clique_pair():
    A = real_set([0, 1, 2, 3, 10, 11, 12, 13])
    g = coloring_from_set(A)
    eg = build_rth_energy_graph(g, 2, ((0, 1, 2, 3), (4, 5, 6, 7)))
    plus = sign_decompose(eg, A)[("+",)]
    cw = clique_from_cycle_arith(plus, find_cycle(plus, 4), 2, A)
    return A, clique_certificate(cw)


def test_witness_set_certificate_round_trip(tmp_path):
    g, cert = witness_pair()
    assert cert["type"] == "witness-set"
    ok, messages = verify_certificate(cert, coloring=g)
    assert ok, messages
    path = tmp_path / "w.json"
    save_certificate(cert, path)
    assert load_certificate(path) == cert
    first = path.read_bytes()
    save_certificate(cert, path)
    assert path.read_bytes() == first
    ok, _ = verify_certificate(load_certificate(path), coloring=g)
    assert ok


def test_witness_set_certificate_detects_tampering():
    g, cert = witness_pair()
    bad = copy.deepcopy(cert)
    bad["claimed_repetitions"] += 1
    ok, messages = verify_certificate(bad, coloring=g)
    assert not ok and messages
    bad = copy.deepcopy(cert)
    bad["vertices"][0] = 11
    ok, _ = verify_certificate(bad, coloring=g)
    assert not ok
    bad = copy.deepcopy(cert)
    bad["equalities"][0]["edge1"] = [0, 9]
    ok, _ = verify_certificate(bad, coloring=g)
    assert not ok
    with pytest.raises(LocalLabError, match="needs the coloring"):
        verify_certificate(cert)


def test_clique_certificate_round_trip(tmp_path):
    A, cert = clique_pair()
    assert cert["type"] == "arith-clique"
    ok, messages = verify_certificate(cert, elements=A)
    assert ok, messages
    path = tmp_path / "c.json"
    save_certificate(cert, path)
    ok, _ = verify_certificate(load_certificate(path), elements=A)
    assert ok


def test_clique_certificate_detects_tampering():
    A, cert = clique_pair()
    bad = copy.deepcopy(cert)
    bad["equalities"][0]["difference"] = 99
    ok, _ = verify_certificate(bad, elements=A)
    assert not ok
    bad = copy.deepcopy(cert)
    bad["independent_repetitions"] += 1
    ok, _ = verify_certificate(bad, elements=A)
    assert not ok
    bad = copy.deepcopy(cert)
    bad["base_vertices"] = bad["base_vertices"][:-1] + [0]
    ok, _ = verify_certificate(bad, elements=A)
    assert not ok
    with pytest.raises(LocalLabError, match="needs the element set"):
        verify_certificate(cert)


def test_clique_equalities_outside_the_element_set_fail():
    A, cert = clique_pair()
    for eq in cert["equalities"]:
        eq["edge1"] = eq["edge2"] = [-1, -2]
    ok, messages = verify_certificate(cert, elements=A)
    assert not ok and any("pair (-1,-2) is not an edge" in m for m in messages)


def test_clique_equalities_must_come_from_the_clique_rows():
    A, cert = clique_pair()
    vals = A.elements
    listed = {(tuple(eq["edge1"]), tuple(eq["edge2"])) for eq in cert["equalities"]}
    pairs = list(itertools.combinations(range(len(vals)), 2))
    swaps = [
        (e1, e2) for e1, e2 in itertools.combinations(pairs, 2)
        if vals[e1[1]] - vals[e1[0]] == vals[e2[1]] - vals[e2[0]] and (e1, e2) not in listed
    ]
    assert swaps
    for e1, e2 in swaps:
        bad = copy.deepcopy(cert)
        bad["equalities"][0].update(
            edge1=list(e1), edge2=list(e2), difference=vals[e1[1]] - vals[e1[0]]
        )
        ok, messages = verify_certificate(bad, elements=A)
        assert not ok, (e1, e2)
        assert "listed equalities are not the pairs the clique rows imply" in messages


def test_verdict_certificate_round_trip():
    g = random_coloring(9, 4, seed=2)
    v = check_local_property(g, 4, 3)
    cert = verdict_certificate(v)
    assert cert["type"] == "property-verdict"
    ok, messages = verify_certificate(cert, coloring=g)
    assert ok, messages
    bad = copy.deepcopy(cert)
    bad["holds"] = not bad["holds"]
    ok, _ = verify_certificate(bad, coloring=g)
    assert not ok

    sampled = check_local_property(g, 4, 3, mode="sampled", trials=20, seed=5)
    cert = verdict_certificate(sampled)
    ok, messages = verify_certificate(cert, coloring=g)
    assert ok, messages


def test_oracle_f_certificate_round_trip():
    res = exact_f(5, 3, 3)
    cert = oracle_f_certificate(res, 5, 3, 3)
    assert cert["type"] == "oracle-f"
    ok, messages = verify_certificate(cert)
    assert ok, messages
    bad = copy.deepcopy(cert)
    bad["value"] -= 1
    ok, _ = verify_certificate(bad)
    assert not ok
    bad = copy.deepcopy(cert)
    bad["witness"]["edges"][0][2] = "zzz"
    ok, _ = verify_certificate(bad)
    assert not ok


def test_oracle_g_certificate_round_trip():
    res = exact_g_integers(4, 4, 3, 6)
    cert = oracle_g_certificate(res, 4, 4, 3, 6)
    assert cert["type"] == "oracle-g"
    ok, messages = verify_certificate(cert)
    assert ok, messages
    bad = copy.deepcopy(cert)
    bad["witness"]["elements"][1] = 5
    ok, _ = verify_certificate(bad)
    assert not ok
    bad = copy.deepcopy(cert)
    bad["value"] -= 1
    ok, _ = verify_certificate(bad)
    assert not ok


def test_certificates_are_json_serializable():
    g, cert = witness_pair()
    json.dumps(cert)
    A, cert = clique_pair()
    json.dumps(cert)


def test_unknown_certificate_type():
    ok, messages = verify_certificate({"type": "mystery"})
    assert not ok and any("mystery" in m for m in messages)
    ok, messages = verify_certificate({})
    assert not ok and messages
    # a type that is not a string, even an unhashable one, is unknown too
    for ctype in (3, ["x"]):
        assert verify_certificate({"type": ctype}) == (
            False, [f"unknown certificate type {ctype!r}"])


def label_witnesses(label):
    """A witness set and a clique witness whose one equality carries `label`."""
    ws = WitnessSet((0, 1, 2), 1, 3, 1, (ColorRepetition((0, 1), (0, 2), label, "padding"),))
    cw = CliqueWitness(((0, 1), (2, 3), (4, 5), (6, 7)), tuple(range(8)), 1,
                       (DifferenceEquality((0, 2), (1, 3), label, "direct", (0, 1), (0, 1)),), 1)
    return ws, cw


@pytest.mark.parametrize("label", [1.5, ("a", 1)])
def test_label_without_json_form_cannot_be_certified(label):
    ws, cw = label_witnesses(label)
    with pytest.raises(LocalLabError, match="no JSON form"):
        witness_set_certificate(ws)
    with pytest.raises(LocalLabError, match="no JSON form"):
        clique_certificate(cw)


def test_certificate_records_hold_lists_and_exact_labels():
    ws, cw = label_witnesses(Fraction(1, 3))
    assert witness_set_certificate(ws) == {
        "type": "witness-set", "vertices": [0, 1, 2], "claimed_repetitions": 1,
        "target_k": 3, "colors_spanned": 1,
        "equalities": [{"edge1": [0, 1], "edge2": [0, 2], "color": "1/3", "kind": "padding"}],
    }
    cert = clique_certificate(cw)
    assert (cert["k"], cert["r"]) == (2, 2)
    assert cert["clique"] == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert cert["equalities"] == [{"edge1": [0, 2], "edge2": [1, 3], "difference": "1/3",
                                   "kind": "direct", "rows": [0, 1], "coordinates": [0, 1]}]


# every top-level field each verifier reads
READ_FIELDS = {
    "witness-set": ["target_k", "vertices", "claimed_repetitions", "colors_spanned",
                    "equalities"],
    "arith-clique": ["k", "r", "clique", "base_vertices", "repetitions",
                     "independent_repetitions", "equalities"],
    "property-verdict": ["k", "l", "mode", "trials", "seed", "holds", "witness",
                         "min_colors_seen"],
    "oracle-f": ["n", "k", "l", "status", "value", "witness"],
    "oracle-g": ["n", "k", "l", "max_value", "status", "value", "witness"],
}
FIELD_CASES = [(ctype, key) for ctype, keys in READ_FIELDS.items() for key in keys]


def issued(ctype):
    """A valid certificate of `ctype` and the keyword arguments verifying it."""
    if ctype == "witness-set":
        g, cert = witness_pair()
        return cert, {"coloring": g}
    if ctype == "arith-clique":
        A, cert = clique_pair()
        return cert, {"elements": A}
    if ctype == "property-verdict":
        g = random_coloring(9, 4, seed=2)
        return verdict_certificate(check_local_property(g, 4, 3)), {"coloring": g}
    if ctype == "oracle-f":
        return oracle_f_certificate(exact_f(5, 3, 3), 5, 3, 3), {}
    return oracle_g_certificate(exact_g_integers(4, 4, 3, 6), 4, 4, 3, 6), {}


@pytest.mark.parametrize("ctype,key", FIELD_CASES)
def test_missing_field_is_an_input_error(ctype, key):
    cert, context = issued(ctype)
    assert verify_certificate(cert, **context)[0]
    del cert[key]
    with pytest.raises(LocalLabError, match=f"'{key}'"):
        verify_certificate(cert, **context)


@pytest.mark.parametrize("ctype,key", FIELD_CASES)
def test_mistyped_field_is_an_input_error(ctype, key):
    cert, context = issued(ctype)
    cert[key] = 7 if isinstance(cert[key], str) else "7"
    with pytest.raises(LocalLabError, match=f"'{key}'"):
        verify_certificate(cert, **context)


# int fields get 1 added and bool fields are flipped; every such claim is false
TAMPER_CASES = [
    ("witness-set", "target_k"), ("witness-set", "claimed_repetitions"),
    ("witness-set", "colors_spanned"),
    ("arith-clique", "k"), ("arith-clique", "r"), ("arith-clique", "repetitions"),
    ("arith-clique", "independent_repetitions"),
    ("property-verdict", "holds"), ("property-verdict", "min_colors_seen"),
    ("oracle-f", "n"), ("oracle-f", "value"),
    ("oracle-g", "n"), ("oracle-g", "value"),
]


@pytest.mark.parametrize("ctype,key", TAMPER_CASES)
def test_tampered_field_fails_verification(ctype, key):
    cert, context = issued(ctype)
    assert cert.get("status", "optimal") == "optimal"
    value = cert[key]
    cert[key] = not value if isinstance(value, bool) else value + 1
    ok, messages = verify_certificate(cert, **context)
    assert not ok and messages


@pytest.mark.parametrize("ctype,key,value", [
    ("witness-set", "edge1", [0]),
    ("arith-clique", "difference", "abc"),
])
def test_malformed_equality_record_is_an_input_error(ctype, key, value):
    cert, context = issued(ctype)
    cert["equalities"][0][key] = value
    with pytest.raises(LocalLabError):
        verify_certificate(cert, **context)


def test_bool_is_not_an_integer_field():
    cert, context = issued("property-verdict")
    cert["k"] = True
    with pytest.raises(LocalLabError, match="'k'"):
        verify_certificate(cert, **context)


# (certificate type, {field path: new value}, the one failure message it
# must give), one case per verifier failure branch the tests above leave
# unreached; issued() gives the certificate the paths point into
VERIFIER_FAILURES = {
    "witness-pair-not-an-edge": ("witness-set", {("equalities", 0, "edge1"): [2, 2]},
                                 "equality 0: pair (2,2) is not an edge"),
    "witness-edges-coincide": ("witness-set", {("equalities", 0, "edge2"): [0, 1]},
                               "equality 0: the two edges coincide"),
    "witness-color-claim": ("witness-set", {("equalities", 0, "color"): "x"},
                            "equality 0: colors 'm' and 'm' do not match the claim 'x'"),
    "witness-vertex-out-of-range": ("witness-set", {("vertices", 7): 12},
                                    "witness vertex out of range"),
    "witness-above-the-bound": ("witness-set", {("claimed_repetitions",): 28},
                                "set spans 1 colors, more than the implied bound 0"),
    "clique-base-out-of-range": ("arith-clique", {("clique", 0): [0, 8],
                                                  ("base_vertices",): [0, 1, 2, 3, 5, 6, 7, 8]},
                                 "base vertex out of range of the element set"),
    "clique-rows-not-an-edge": ("arith-clique", {("clique", 1): [1, 6], ("clique", 2): [2, 5]},
                                "clique rows 0 and 1 are not an energy edge: edge (0, 4)-(1, 6) "
                                "has no consistent sign in coordinate 2"),
    "verdict-witness-differs": ("property-verdict", {("witness",): [0, 1, 2, 4]},
                                "re-check witness (0, 1, 2, 3) differs from (0, 1, 2, 4)"),
    "oracle-f-infeasible-below-the-pairs": ("oracle-f", {("status",): "infeasible"},
                                            "infeasible status but l <= C(k,2)"),
    "oracle-f-witness-violates": ("oracle-f", {("witness", "edges", 4): [1, 2, 0]},
                                  "witness violates the (3,3) property"),
    "oracle-g-witness-out-of-range": ("oracle-g", {("witness", "elements", 3): 7},
                                      "witness leaves the normalized range 0..6"),
    "oracle-g-witness-violates": ("oracle-g", {("l",): 4},
                                  "witness violates the (4,4) property"),
}


@pytest.mark.parametrize("case", sorted(VERIFIER_FAILURES))
def test_each_verifier_failure_gives_its_own_message(case):
    ctype, changes, message = VERIFIER_FAILURES[case]
    cert, context = issued(ctype)
    for (*path, last), value in changes.items():
        record = cert
        for key in path:
            record = record[key]
        record[last] = value
    ok, messages = verify_certificate(cert, **context)
    assert not ok and message in messages, messages


def test_oversized_oracle_g_witness_builds_no_coloring():
    cert, _ = issued("oracle-g")
    # a witness of the wrong size is invalid at once, however long it is
    cert["witness"]["elements"] = list(range(50_000))
    assert verify_certificate(cert) == (False, ["witness has 50000 elements, not 4"])
    # 4473 fraction elements make C(4473, 2) = 10,001,628 exact pairs, past the 10^7 ceiling
    n = 4473
    cert.update(n=n, max_value=n)
    cert["witness"]["elements"] = [exact_to_json(Fraction(i, 2)) for i in range(n)]
    with pytest.raises(BudgetExceededError, match="10001628 witness pairs exceed"):
        verify_certificate(cert)


def equalities_hold(cert, n, vertices, value_of, claim_of):
    """None if an equality of `cert` fails on its own (a pair that is not an
    edge of K_n inside `vertices`, two equal edges, a value off its claim);
    else the number of independent ones, recounted apart from the verifier
    as the rank of the graph whose links are the equalities: nodes less
    connected components."""
    links = nx.Graph()
    for eq in cert["equalities"]:
        e1, e2 = tuple(eq["edge1"]), tuple(eq["edge2"])
        if e1 == e2 or not all(0 <= u < v < n and {u, v} <= vertices for u, v in (e1, e2)):
            return None
        value = value_of(e1)
        if not value == value_of(e2) == claim_of(eq):
            return None
        links.add_edge((value, e1), (value, e2))
    return links.number_of_nodes() - nx.number_connected_components(links)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_tampered_equality_fails_unless_still_true(data):
    ctype = data.draw(st.sampled_from(["witness-set", "arith-clique"]))
    cert, context = issued(ctype)
    if ctype == "witness-set":
        g, claim_key, vertices = context["coloring"], "color", set(cert["vertices"])
        n = g.n
        claims = st.integers(-1, 1) | st.sampled_from(["m", "x"])
    else:
        A, claim_key, vertices = context["elements"], "difference", set(cert["base_vertices"])
        n = len(A)
        claims = st.integers(0, 14) | st.fractions(0, 14, max_denominator=3).map(str)
    def listed():
        return sorted((tuple(eq["edge1"]), tuple(eq["edge2"])) for eq in cert["equalities"])

    issued_pairs = listed()
    eq = cert["equalities"][data.draw(st.integers(0, len(issued_pairs) - 1))]
    if ctype == "arith-clique":  # the true claim, spelled as a fraction
        claims |= st.just(f"{2 * eq['difference']}/2")
    key = data.draw(st.sampled_from(["edge1", "edge2", claim_key]))
    eq[key] = data.draw(claims if key == claim_key
                        else st.lists(st.sampled_from(sorted(vertices)) | st.integers(-1, n),
                                      min_size=2, max_size=2))
    if ctype == "witness-set":
        independent = equalities_hold(
            cert, n, vertices, lambda e: exact_to_json(g.label_of(g.color_of(*e))),
            lambda eq: eq["color"])
        still_true = independent is not None and independent >= cert["claimed_repetitions"]
    else:
        independent = equalities_hold(cert, n, vertices, lambda e: A[e[1]] - A[e[0]],
                                      lambda eq: Fraction(eq["difference"]))
        # the listed pairs must stay the ones the clique rows imply
        still_true = (independent == cert["independent_repetitions"]
                      and listed() == issued_pairs)
    ok, messages = verify_certificate(cert, **context)
    assert ok == still_true, (key, eq, messages)
