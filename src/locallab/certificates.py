"""JSON certificates and the verifier that re-checks them from scratch.

A certificate carries everything a skeptical reader needs: the claimed
object plus the raw equalities behind it.  verify_certificate never
trusts a stored tally; it recounts colors, re-evaluates differences,
and re-runs the union-find independence argument against the coloring
or element set supplied by the caller.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

from . import config
from .coloring import (
    EdgeColoring,
    PropertyVerdict,
    check_local_property,
    coloring_from_dict,
    coloring_to_dict,
)
from .arithmetic import coloring_from_set, real_set_from_dict, real_set_to_dict
from .energy_graph import edge_sign_vector
from .errors import LocalLabError, SignConsistencyError
from .forbidden import CliqueWitness, WitnessSet, _UnionFind, clique_equality_edges
from .jsonio import exact, exact_to_json, fields, read_json, write_json
from .oracle import OracleResult, exact_g_integers, witness_failures


def _record(result) -> dict:
    """The fields of a result dataclass as certificate keys: nested records
    become dicts, tuples become lists, and every color or difference takes
    its exact_to_json form, so a label with no JSON form raises."""
    def plain(key, value):
        if key in ("color", "difference"):
            return exact_to_json(value)
        if dataclasses.is_dataclass(value):
            return {f.name: plain(f.name, getattr(value, f.name)) for f in dataclasses.fields(value)}
        if isinstance(value, tuple):
            return [plain(None, v) for v in value]
        return value
    return plain(None, result)


def witness_set_certificate(ws: WitnessSet) -> dict:
    return {"type": "witness-set", **_record(ws)}


def clique_certificate(cw: CliqueWitness) -> dict:
    return {"type": "arith-clique", "k": len(cw.clique) // 2, "r": len(cw.clique[0]),
            **_record(cw)}


def verdict_certificate(v: PropertyVerdict) -> dict:
    return {"type": "property-verdict", **_record(v)}


def _oracle_certificate(ctype, res: OracleResult, witness_to_dict, **params) -> dict:
    return {
        "type": ctype,
        **params,
        "value": res.value,
        "status": res.status,
        "nodes_explored": res.nodes_explored,
        "canonical_classes": res.canonical_classes,
        "witness": None if res.witness is None else witness_to_dict(res.witness),
    }


def oracle_f_certificate(res: OracleResult, n: int, k: int, l: int) -> dict:
    return _oracle_certificate("oracle-f", res, coloring_to_dict, n=n, k=k, l=l)


def oracle_g_certificate(res: OracleResult, n: int, k: int, l: int,
                         max_value: int) -> dict:
    return _oracle_certificate("oracle-g", res, real_set_to_dict, n=n, k=k, l=l,
                               max_value=max_value)


def save_certificate(cert: dict, path) -> None:
    write_json(cert, path)


def load_certificate(path) -> dict:
    cert = read_json(path)
    ctype, = fields(cert, type=str)
    if ctype not in _VERIFIERS:
        raise LocalLabError(f"unknown certificate type {ctype!r}")
    return cert


def _equality(eq, **claim):
    """(edge1, edge2, claimed value) of one equality record."""
    e1, e2, value = fields(eq, edge1=[int], edge2=[int], **claim)
    if len(e1) != 2 or len(e2) != 2:
        raise LocalLabError(f"equality edges {e1} and {e2} are not vertex pairs")
    return tuple(e1), tuple(e2), value


def _check_repetition_edges(equalities, vertices, n, noun, value_of, messages):
    """Re-check parsed (edge1, edge2, claim) equalities against the JSON form
    `value_of(u, v)` of each pair's `noun`; the union-find count of the
    independent ones, or None once a pair is not an edge of K_n."""
    vertex_set = set(vertices)
    forest = _UnionFind()
    independent = 0
    for idx, (e1, e2, claim) in enumerate(equalities):
        for u, v in (e1, e2):
            if not (0 <= u < v < n):
                messages.append(f"equality {idx}: pair ({u},{v}) is not an edge")
                return None
            if u not in vertex_set or v not in vertex_set:
                messages.append(f"equality {idx}: pair ({u},{v}) leaves the witness set")
        if e1 == e2:
            messages.append(f"equality {idx}: the two edges coincide")
            continue
        c1, c2 = value_of(*e1), value_of(*e2)
        if not c1 == c2 == claim:
            messages.append(f"equality {idx}: {noun} {c1!r} and {c2!r} do not match "
                            f"the claim {claim!r}")
            continue
        if forest.union((c1, e1), (c1, e2)):
            independent += 1
    return independent


def _verify_witness_set(cert, g: EdgeColoring, messages):
    k, vertices, claimed, spanned_claim, equalities = fields(
        cert, target_k=int, vertices=[int], claimed_repetitions=int,
        colors_spanned=int, equalities=[dict],
    )
    if len(vertices) != k or len(set(vertices)) != len(vertices):
        messages.append(f"vertex list is not a {k}-set")
        return
    if any(not 0 <= v < g.n for v in vertices):
        messages.append("witness vertex out of range")
        return
    parsed = [_equality(eq, color=(int, str)) for eq in equalities]
    independent = _check_repetition_edges(
        parsed, vertices, g.n, "colors",
        lambda u, v: exact_to_json(g.label_of(g.color_of(u, v))), messages)
    if independent is not None and independent < claimed:
        messages.append(f"only {independent} independent repetitions re-verify, {claimed} claimed")
    spanned = g.colors_within(vertices)
    if spanned != spanned_claim:
        messages.append(f"set spans {spanned} colors, certificate says {spanned_claim}")
    budget = k * (k - 1) // 2 - claimed
    if spanned > budget:
        messages.append(f"set spans {spanned} colors, more than the implied bound {budget}")


def _verify_clique(cert, elements, messages):
    k, r, clique, base, repetitions, independent_claim, equalities = fields(
        cert, k=int, r=int, clique=[[int]], base_vertices=[int], repetitions=int,
        independent_repetitions=int, equalities=[dict],
    )
    rows = [tuple(row) for row in clique]
    if k < 2 or r < 1 or len(rows) != 2 * k or any(len(row) != r for row in rows):
        messages.append(f"clique shape is not {2 * k} rows of width {r}, k >= 2, r >= 1")
        return
    flat = [v for row in rows for v in row]
    if sorted(flat) != sorted(base) or len(set(flat)) != len(flat):
        messages.append("base vertices do not match the clique rows or repeat")
        return
    if any(not 0 <= v < len(elements) for v in flat):
        messages.append("base vertex out of range of the element set")
        return
    try:
        signs = edge_sign_vector(rows[0], rows[1], elements)
    except SignConsistencyError as exc:
        messages.append(f"clique rows 0 and 1 are not an energy edge: {exc}")
        return
    implied = Counter((e1, e2) for *_, e1, e2 in clique_equality_edges(rows, signs))
    expected = sum(implied.values())
    if repetitions != expected or len(equalities) != expected:
        messages.append(
            f"expected {expected} listed repetitions, certificate has {repetitions}"
        )
    # exact() rejects a claim such as "abc" and reads "10/2" as 5
    parsed = [(e1, e2, exact_to_json(exact(claim))) for e1, e2, claim in
              (_equality(eq, difference=(int, str)) for eq in equalities)]
    listed = Counter((e1, e2) for e1, e2, _ in parsed)
    values = tuple(elements)
    independent = _check_repetition_edges(
        parsed, base, len(values), "differences",
        lambda u, v: exact_to_json(abs(values[u] - values[v])), messages)
    if listed != implied:
        messages.append("listed equalities are not the pairs the clique rows imply")
    if independent is not None and independent != independent_claim:
        messages.append(
            f"{independent} independent repetitions re-verify, certificate says {independent_claim}"
        )


def _verify_verdict(cert, g: EdgeColoring, messages):
    k, l, mode, trials, seed, holds, witness, min_colors = fields(
        cert, k=int, l=int, mode=str, trials=(int, None), seed=(int, None),
        holds=bool, witness=([int], None), min_colors_seen=int,
    )
    fresh = check_local_property(g, k, l, mode=mode, trials=trials, seed=seed)
    if fresh.holds != holds:
        messages.append(f"re-check says holds={fresh.holds}, certificate says {holds}")
    stored = None if witness is None else tuple(witness)
    if fresh.witness != stored:
        messages.append(f"re-check witness {fresh.witness} differs from {stored}")
    if fresh.min_colors_seen != min_colors:
        messages.append(f"re-check min colors {fresh.min_colors_seen} differs from {min_colors}")


def _verify_oracle_f(cert, _, messages):
    n, k, l, status = fields(cert, n=int, k=int, l=int, status=str)
    if status == "infeasible":
        if l <= k * (k - 1) // 2:
            messages.append("infeasible status but l <= C(k,2)")
        return
    value, witness = fields(cert, value=int, witness=dict)
    messages.extend(witness_failures(coloring_from_dict(witness), n, k, l, value))


def _verify_oracle_g(cert, _, messages):
    n, k, l, max_value, status = fields(cert, n=int, k=int, l=int, max_value=int,
                                        status=str)
    if status == "infeasible":
        # the search returns at once when the range or l rules every set out
        if exact_g_integers(n, k, l, max_value).status != "infeasible":
            messages.append(f"infeasible status but the search finds a ({k},{l}) set "
                            f"in 0..{max_value}")
        return
    value, witness = fields(cert, value=int, witness=dict)
    A = real_set_from_dict(witness)
    if len(A) != n:
        messages.append(f"witness has {len(A)} elements, not {n}")
        return
    if min(A.elements) != 0 or max(A.elements) > max_value:
        messages.append(f"witness leaves the normalized range 0..{max_value}")
    config.check_budget(config.EXACT_PAIR_BUDGET, n * (n - 1) // 2, "witness pairs")
    messages.extend(witness_failures(coloring_from_set(A), n, k, l, value))


# type -> (verifier, the input it needs, if any)
_VERIFIERS = {
    "witness-set": (_verify_witness_set, "coloring"),
    "arith-clique": (_verify_clique, "element set"),
    "property-verdict": (_verify_verdict, "coloring"),
    "oracle-f": (_verify_oracle_f, None),
    "oracle-g": (_verify_oracle_g, None),
}


def verify_certificate(cert: dict, coloring: EdgeColoring | None = None,
                       elements=None) -> tuple[bool, list]:
    """Re-check a certificate; returns (ok, failure messages).

    witness-set and property-verdict certificates need the coloring they
    were issued for; arith-clique needs the element set; oracle
    certificates embed their witness and need nothing, though an
    infeasible oracle-g record re-runs its search under the oracle node
    budget.  A certificate with a missing or mistyped field, or without
    the input it needs, raises LocalLabError.
    """
    ctype = cert.get("type")
    if not isinstance(ctype, str) or ctype not in _VERIFIERS:
        return False, [f"unknown certificate type {ctype!r}"]
    verifier, needs = _VERIFIERS[ctype]
    given = {"coloring": coloring, "element set": elements}.get(needs)
    if needs and given is None:
        raise LocalLabError(f"{ctype} verification needs the {needs}")
    messages = []
    verifier(cert, given, messages)
    return not messages, messages
