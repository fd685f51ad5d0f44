"""Command line front end: seeded experiments, witness extraction, and
certificate verification.

Every run is reproducible: randomness is seeded explicitly, output files
carry no timestamps, and repeating a command yields byte-identical
artifacts.  Exit codes separate outcomes from failures: 0 for a clean
negative answer, 1 when the queried violation or refutation was found,
2 for usage errors, 3 for exhausted enumeration budgets.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .arithmetic import (
    behrend_set,
    coloring_from_set,
    difference_set,
    is_3ap_free,
    load_real_set,
    save_real_set,
)
from .certificates import (
    clique_certificate,
    load_certificate,
    oracle_f_certificate,
    oracle_g_certificate,
    save_certificate,
    verdict_certificate,
    verify_certificate,
    witness_set_certificate,
)
from .coloring import check_local_property, load_coloring, random_coloring
from .config import digit_limit
from .energy import energy, energy_bruteforce, implied_color_lower_bound, ln_ceiling
from .energy_graph import (
    build_rth_energy_graph,
    build_second_energy_graph,
    energy_graph_from_dict,
    energy_graph_to_dict,
    halve_parts_prune,
    prune_coordinate_neighbors,
    prune_diagonal,
    prune_rare_colors,
    sign_decompose,
)
from .errors import BudgetExceededError, LocalLabError
from .forbidden import (
    clique_from_cycle_arith,
    clique_request,
    find_complete_bipartite,
    find_cycle,
    find_subdivision,
    witness_from_cycle,
    witness_request,
)
from .jsonio import exact_to_json, label_from_json, read_json, write_json
from .oracle import exact_f, exact_g_integers, upper_bound_exponent
from .partition import partition_for_rth_energy


def _parse_label(text: str):
    try:
        return int(text)
    except ValueError:
        return label_from_json(text)


def _save_graph(eg, path: str) -> None:
    write_json(energy_graph_to_dict(eg), path)
    print(f"wrote {path}")


def _load_graph(path: str):
    return energy_graph_from_dict(read_json(path))


def _cmd_check(args) -> int:
    g = load_coloring(args.input)
    verdict = check_local_property(g, args.k, args.l, mode=args.mode,
                                   trials=args.trials, seed=args.seed)
    if args.cert:
        save_certificate(verdict_certificate(verdict), args.cert)
    scope = "all" if args.mode == "exhaustive" else f"{args.trials} sampled"
    print(f"coloring: {g.n} vertices, {g.num_colors} colors")
    print(f"checked {scope} {args.k}-subsets for at least {args.l} colors")
    if verdict.holds:
        found = ("HOLDS" if args.mode == "exhaustive"
                 else f"no violation found among {scope} {args.k}-subsets")
        print(f"{found} (minimum colors seen: {verdict.min_colors_seen})")
        return 0
    print(f"REFUTED by subset {verdict.witness} spanning {verdict.min_colors_seen} colors")
    return 1


def _cmd_energy(args) -> int:
    g = load_coloring(args.input)
    limit = digit_limit()
    # E_r >= (2 max m_c)^r, so most orders too large to print are refused unpowered
    settled = limit and args.r > (limit + 1) / math.log10(2 * np.bincount(g.colors).max())
    value = None if settled else energy(g, args.r)
    if limit and (settled or value >= 10**limit):
        raise LocalLabError(f"E_{args.r} has more digits than the {limit} this interpreter prints")
    print(f"E_{args.r} = {value} (n={g.n}, {g.num_colors} colors)")
    if args.bruteforce:
        brute = energy_bruteforce(g, args.r)
        agree = "agreement" if brute == value else "MISMATCH"
        print(f"brute force: {brute} ({agree})")
        if brute != value:
            return 1
    if args.bound:
        bound = implied_color_lower_bound(g.n, args.r, value)
        print(f"energy this high needs at least {bound.minimum_colors} colors")
    return 0


def _stage_tokens(args) -> tuple:
    """(order r, stage tokens) of an energy-graph run: a preset's, else --r
    (2 when absent) and the --stages list; a preset that fixes r refuses another."""
    fixed = {"pair-cycle": 2, "triple-cycle": 3}.get(args.preset)
    if fixed and args.r not in (None, fixed):
        raise LocalLabError(f"the {args.preset} preset builds r={fixed}, not --r {args.r}")
    r = 2 if args.r is None else args.r
    if args.preset == "pair-cycle":
        if args.k is None:
            raise LocalLabError("the pair-cycle preset needs --k for its threshold")
        return 2, ["diagonal", f"rare:{100 * args.k * args.k}"]
    if args.preset == "triple-cycle":
        return 3, ["rare", "halve", "coordinate"]
    stages = "rare,sign" if args.preset == "sign-split" else args.stages or ""
    tokens = [t for t in stages.split(",") if t]
    if "sign" in tokens[:-1]:
        raise LocalLabError("the sign stage must be the last stage")
    return r, tokens


def _cmd_energy_graph(args) -> int:
    r, tokens = _stage_tokens(args)
    values = load_real_set(args.values) if args.values else None
    if "sign" in tokens and values is None:
        raise LocalLabError("the sign stage needs --values")
    if args.input:
        g = load_coloring(args.input)
    elif values is not None:
        g = coloring_from_set(values)
    else:
        raise LocalLabError("need --input or --values")

    if r == 2 and "sign" not in tokens and not args.partitioned:
        eg = build_second_energy_graph(g)
    else:
        partition = partition_for_rth_energy(g, r, seed=args.seed)
        eg = build_rth_energy_graph(g, r, partition.parts)
    print(f"built: {eg.num_vertices} vertices, {eg.num_edges} edges (r={r})")

    for token in tokens:
        if token == "sign":
            classes = sign_decompose(eg, values)
            out = Path(args.out)
            for signs, class_eg in classes.items():
                tag = "".join(signs).replace("+", "p").replace("-", "m")
                print(f"sign class {''.join(signs)}: {class_eg.num_edges} edges")
                _save_graph(class_eg, str(out.with_name(f"{out.stem}.{tag}{out.suffix}")))
            return 0
        if token == "diagonal":
            eg = prune_diagonal(eg)
        elif token == "rare":
            eg = prune_rare_colors(eg, g, ln_ceiling(g.n))
        elif token.startswith("rare:"):
            try:
                threshold = int(token[len("rare:"):])
            except ValueError:
                raise LocalLabError(f"stage {token!r} needs an integer threshold") from None
            eg = prune_rare_colors(eg, g, threshold)
        elif token == "halve":
            eg = halve_parts_prune(eg, seed=args.seed)
        elif token == "coordinate":
            eg = prune_coordinate_neighbors(eg)
        else:
            raise LocalLabError(f"unknown stage {token!r}")
        print(f"{token}: {eg.num_edges} edges remain")
    _save_graph(eg, args.out)
    return 0


def _cmd_find(args) -> int:
    if args.length is not None:
        if not args.graph:
            raise LocalLabError("--length needs --graph")
        eg = _load_graph(args.graph)
        cycle = find_cycle(eg, args.length)
        if cycle is None:
            print(f"no cycle of length {args.length}")
            return 0
        print(f"cycle of length {args.length}: {list(cycle.vertices)}")
        return 1
    if args.bipartite is None and args.subdivision is None:
        raise LocalLabError("need one of --length, --bipartite, --subdivision")
    if not args.input or not args.color:
        raise LocalLabError("pattern search needs --input and --color")
    g = load_coloring(args.input)
    color = g.color_id(_parse_label(args.color))
    if args.bipartite:
        s, t = args.bipartite
        found = find_complete_bipartite(g, color, s, t)
        if found is None:
            print(f"no complete bipartite {s}x{t} in color {args.color}")
            return 0
        print(f"sides {list(found[0])} and {list(found[1])} in color {args.color}")
        return 1
    t = args.subdivision
    found = find_subdivision(g, color, t)
    if found is None:
        print(f"no subdivision of K_{t} in color {args.color}")
        return 0
    print(f"branch vertices {list(found.branch_vertices)}")
    for (u, v), m in sorted(found.midpoints.items()):
        print(f"  pair ({u},{v}) through midpoint {m}")
    return 1


def _cmd_witness(args) -> int:
    eg = _load_graph(args.graph)
    if args.kind == "arith":
        if not args.values or args.k is None:
            raise LocalLabError("--kind arith needs --values and --k")
        values = load_real_set(args.values)
        length = clique_request(eg, args.k, values)
        cycle = find_cycle(eg, length)
        if cycle is None:
            print(f"no cycle of length {length} in the sign class")
            return 0
        witness = clique_from_cycle_arith(eg, cycle, args.k, values)
        print(f"clique on {len(witness.clique)} tuple vertices")
        print(f"base elements: {list(witness.base_vertices)}")
        print(f"listed repetitions: {witness.repetitions} "
              f"({witness.independent_repetitions} independent)")
        if args.cert:
            save_certificate(clique_certificate(witness), args.cert)
        return 1

    if not args.input:
        raise LocalLabError(f"--kind {args.kind} needs --input")
    if args.kind == "pair" and args.k is None:
        raise LocalLabError("--kind pair needs --k")
    g = load_coloring(args.input)
    length = witness_request(g, eg, args.kind, args.k)[0]
    cycle = find_cycle(eg, length)
    if cycle is None:
        print(f"no cycle of length {length}")
        return 0
    witness = witness_from_cycle(g, eg, cycle, args.kind, args.k)
    cap = witness.target_k * (witness.target_k - 1) // 2 - witness.claimed_repetitions
    print(f"witness set: {list(witness.vertices)}")
    print(f"repetitions: {witness.claimed_repetitions}, "
          f"colors spanned: {witness.colors_spanned} (bound {cap})")
    if args.cert:
        save_certificate(witness_set_certificate(witness), args.cert)
    return 1


def _cmd_oracle_f(args) -> int:
    result = exact_f(args.n, args.k, args.l)
    if args.cert:
        save_certificate(oracle_f_certificate(result, args.n, args.k, args.l),
                         args.cert)
    if result.status == "infeasible":
        print(f"f({args.n},{args.k},{args.l}): infeasible, l exceeds C(k,2)")
        return 0
    print(f"f({args.n},{args.k},{args.l}) = {result.value}")
    print(f"search: {result.nodes_explored} nodes, "
          f"{result.canonical_classes} canonical colorings, exhausted")
    bound = upper_bound_exponent(args.n, args.k, args.l)
    print(f"growth reference: n^({bound.exponent}) = {bound.reference:.6f} (not certified)")
    return 0


def _cmd_oracle_g(args) -> int:
    result = exact_g_integers(args.n, args.k, args.l, args.max_value)
    if args.cert:
        save_certificate(
            oracle_g_certificate(result, args.n, args.k, args.l, args.max_value),
            args.cert)
    if result.status == "infeasible":
        print(f"g({args.n},{args.k},{args.l}) over 0..{args.max_value}: infeasible")
        return 0
    print(f"g({args.n},{args.k},{args.l}) = {result.value} over 0..{args.max_value} "
          f"(range-relative)")
    print(f"witness: {list(result.witness.elements)}")
    print(f"search: {result.nodes_explored} nodes, "
          f"{result.canonical_classes} complete sets, exhausted")
    return 0


def _cmd_behrend(args) -> int:
    A = behrend_set(args.n)
    diffs = difference_set(A) if len(A.elements) >= 2 else None
    print(f"built {len(A.elements)} elements, largest {A.elements[-1]}")
    if diffs is not None:
        print(f"difference set size: {len(diffs)}")
    print(f"3-AP free: {is_3ap_free(A)}")
    if args.out:
        save_real_set(A, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_diffset(args) -> int:
    A = load_real_set(args.input)
    diffs = difference_set(A)
    limit = digit_limit()
    # an int64 difference always prints; an exact one, or a fraction's terms, may not
    if limit and diffs.dtype.hasobject and max(max(d.as_integer_ratio()) for d in diffs) >= 10**limit:
        raise LocalLabError(f"a difference has more digits than the {limit} this interpreter prints")
    print(f"|A| = {len(A.elements)}, |A-A| = {len(diffs)}")
    suffix = " ..." if len(diffs) > 20 else ""
    print("differences: " + ", ".join(str(d) for d in diffs[:20]) + suffix)
    if args.out:
        write_json({"differences": [exact_to_json(d) for d in diffs.tolist()]}, args.out)
        print(f"wrote {args.out}")
    return 0


def _parse_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(int(lo), int(hi) + 1)
    value = int(text)
    return range(value, value + 1)


def _cmd_sweep(args) -> int:
    palette_sizes = _parse_range(args.c)
    if len(palette_sizes) == 0:
        raise LocalLabError(f"empty palette range {args.c!r}")
    if args.seeds < 1:
        raise LocalLabError(f"--seeds must be at least 1, got {args.seeds}")
    rows = []
    for c in palette_sizes:
        violations = 0
        for i in range(args.seeds):
            seed = args.seed + i
            g = random_coloring(args.n, c, seed=seed)
            verdict = check_local_property(g, args.k, args.l, mode=args.mode,
                                           trials=args.trials, seed=seed)
            if not verdict.holds:
                violations += 1
        rate = violations / args.seeds
        rows.append({
            "family": "random",
            "n": args.n,
            "k": args.k,
            "l": args.l,
            "c": c,
            "seeds": args.seeds,
            "trials": args.trials if args.mode == "sampled" else 0,
            "violations": violations,
            "rate": f"{rate:.6f}",
        })
        print(f"c={c}: {violations}/{args.seeds} violated (rate {rate:.6f})")
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    cert = load_certificate(args.cert)
    coloring = load_coloring(args.input) if args.input else None
    values = load_real_set(args.values) if args.values else None
    ok, messages = verify_certificate(cert, coloring=coloring, elements=values)
    if ok:
        sampled = cert.get("mode") == "sampled" and cert["holds"]
        note = " (re-drew the same samples; not a proof)" if sampled else ""
        print(f"certificate {cert['type']}: OK{note}")
        return 0
    print(f"certificate {cert['type']}: INVALID")
    for message in messages:
        print(f"  {message}")
    return 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing keeps no
    state on it, so every `run` shares it."""
    parser = argparse.ArgumentParser(
        prog="locallab",
        description="experiments on edge colorings with local color constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test the (k,l) local property of a coloring")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cert")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("energy", help="color energy, optionally with brute force")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--bruteforce", action="store_true")
    p.add_argument("--bound", action="store_true",
                   help="print the implied lower bound on the palette size")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("energy-graph", help="build, prune, and export energy graphs")
    p.add_argument("--input")
    p.add_argument("--values", help="element-set file for arithmetic colorings")
    p.add_argument("--r", type=int, help="energy order, 2 when absent; a preset fixes its own")
    chain = p.add_mutually_exclusive_group()
    chain.add_argument("--preset", choices=["pair-cycle", "triple-cycle", "sign-split"])
    chain.add_argument("--stages",
                       help="comma list: diagonal,rare,rare:N,halve,coordinate,sign (sign last)")
    p.add_argument("--partitioned", action="store_true",
                   help="use a vertex partition even for r=2")
    p.add_argument("--k", type=int, help="pair-cycle threshold parameter")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_energy_graph)

    p = sub.add_parser("find", help="search for cycles and monochromatic patterns")
    p.add_argument("--graph", help="energy-graph file for cycle search")
    p.add_argument("--length", type=int, help="cycle length")
    p.add_argument("--input", help="coloring file for pattern search")
    p.add_argument("--color", help="color label to search inside")
    p.add_argument("--bipartite", type=int, nargs=2, metavar=("S", "T"))
    p.add_argument("--subdivision", type=int, metavar="T")
    p.set_defaults(func=_cmd_find)

    p = sub.add_parser("witness", help="extract a violation witness from a cycle")
    p.add_argument("--kind", choices=["pair", "triple", "arith"], required=True)
    p.add_argument("--input", help="coloring file (pair and triple kinds)")
    p.add_argument("--graph", required=True, help="energy-graph file")
    p.add_argument("--values", help="element-set file (arith kind)")
    p.add_argument("--k", type=int)
    p.add_argument("--cert")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("oracle-f", help="exact minimum palette by brute force")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--cert")
    p.set_defaults(func=_cmd_oracle_f)

    p = sub.add_parser("oracle-g", help="exact minimum difference-set size by brute force")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--max-value", type=int, required=True)
    p.add_argument("--cert")
    p.set_defaults(func=_cmd_oracle_g)

    p = sub.add_parser("behrend", help="progression-free integer set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_behrend)

    p = sub.add_parser("diffset", help="difference set of an element-set file")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_diffset)

    p = sub.add_parser("sweep", help="violation frequency across palette sizes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", required=True, help="palette size or range A..B")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--seeds", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="sampled")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify", help="re-check an exported certificate")
    p.add_argument("--cert", required=True)
    p.add_argument("--input", help="coloring file, for witness and verdict certificates")
    p.add_argument("--values", help="element-set file, for clique certificates")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LocalLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(run())
