"""Acceptance suite: nine criteria, one printed pass/fail line each.

Every criterion exercises a proof mechanism at desk scale: oracle
equivalence, exact accounting identities, finite instantiations of the
cycle/witness pipelines, and byte-level determinism of the CLI.
"""

import math
import random
import statistics
import subprocess
import sys
import time

from locallab import (
    balanced_bipartition,
    behrend_set,
    build_rth_energy_graph,
    build_second_energy_graph,
    check_local_property,
    clique_from_cycle_arith,
    coloring_from_set,
    difference_set,
    energy,
    energy_bruteforce,
    energy_lower_bound,
    exact_f,
    exact_g_integers,
    find_cycle,
    is_3ap_free,
    ln_ceiling,
    new_coloring,
    partition_for_rth_energy,
    prune_diagonal,
    prune_rare_colors,
    random_coloring,
    real_set,
    save_coloring,
    sign_decompose,
    witness_from_cycle,
)
from locallab.cli import run


def corpus():
    for i in range(50):
        n = 4 + i % 5
        c = 1 + i % 6
        yield random_coloring(n, c, seed=1000 + i)


def _report(num, ok, detail):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def mono(n):
    return new_coloring(n, [(u, v, 0) for u in range(n) for v in range(u + 1, n)])


def test_criterion_1_energy_oracle_equivalence():
    t0 = time.time()
    checked = 0
    ok = True
    for g in corpus():
        for r in (2, 3):
            if energy(g, r) != energy_bruteforce(g, r):
                ok = False
            checked += 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    _report(1, ok, f"energy == brute force on {checked} instances in {elapsed:.1f}s")


def test_criterion_2_energy_lower_bound_with_equality_cases():
    t0 = time.time()
    ok = True
    for g in corpus():
        for r in (2, 3):
            if energy(g, r) < energy_lower_bound(g.n, g.num_colors, r):
                ok = False
    rainbow3 = new_coloring(3, [(0, 1, "a"), (0, 2, "b"), (1, 2, "c")])
    ok = ok and energy(rainbow3, 2) == energy_lower_bound(3, 3, 2) == 12
    proper4 = new_coloring(4, [(0, 1, 0), (2, 3, 0), (0, 2, 1), (1, 3, 1), (0, 3, 2), (1, 2, 2)])
    ok = ok and energy(proper4, 3) == energy_lower_bound(4, 3, 3) == 192
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    _report(2, ok, f"bound holds on corpus, equality on the two tight colorings, {elapsed:.1f}s")


def test_criterion_3_energy_graph_accounting():
    t0 = time.time()
    ok = True
    for g in corpus():
        eg = build_second_energy_graph(g)
        if 2 * eg.num_edges != energy(g, 2):
            ok = False
        pruned = prune_diagonal(eg)
        if eg.num_edges - pruned.num_edges != g.n * (g.n - 1) // 2:
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 30
    _report(3, ok, f"2|E'| = E_2 and diagonal pruning drops n(n-1)/2, {elapsed:.1f}s")


def test_criterion_4_oracle_values():
    t0 = time.time()
    ok = True
    for (n, k, l), want in (((3, 3, 3), 3), ((4, 3, 2), 2), ((5, 3, 2), 2), ((6, 3, 2), 3)):
        res = exact_f(n, k, l)
        if res.value != want or res.status != "optimal":
            ok = False
    for n in (3, 4, 5):
        if exact_f(n, 3, 3).value < n - 1:
            ok = False
    for (n, k, l, m), want in (((3, 3, 2, 4), 2), ((4, 4, 3, 6), 3)):
        res = exact_g_integers(n, k, l, m)
        if res.value != want or res.status != "optimal":
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 600
    _report(4, ok, f"six exact values plus the proper-coloring floor, {elapsed:.1f}s")


def test_criterion_5_pair_cycle_mechanism():
    t0 = time.time()
    g = mono(12)
    eg = prune_diagonal(build_second_energy_graph(g))
    cycle = find_cycle(eg, 4)
    ok = cycle is not None
    if ok:
        ws = witness_from_cycle(g, eg, cycle, "pair", 8)
        mat = g.color_matrix()
        spanned = len({mat[u][v] for i, u in enumerate(ws.vertices)
                       for v in ws.vertices[i + 1:]})
        ok = (len(ws.vertices) == 8
              and spanned == ws.colors_spanned
              and spanned <= 8 * 7 // 2 - 4
              and check_local_property(g, 8, math.comb(8, 2)).min_colors_seen == spanned)
    # converse: colorings that pass (8, 25) leave no 4-cycle after the
    # full pruning pipeline (diagonal, then colors under 100 k^2 edges)
    survivors = 0
    seed = 5000
    while survivors < 20:
        h = random_coloring(12, 3000, seed=seed)
        seed += 1
        if not check_local_property(h, 8, 25).holds:
            continue
        survivors += 1
        pruned = prune_rare_colors(prune_diagonal(build_second_energy_graph(h)), h, 100 * 8 * 8)
        if find_cycle(pruned, 4) is not None:
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    _report(5, ok, f"monochromatic cycle witnessed, {survivors} passing colorings cycle-free, {elapsed:.1f}s")


def test_criterion_6_sign_class_mechanism():
    t0 = time.time()
    ok = True
    cycles_found = 0
    for seed in range(40):
        rng = random.Random(seed)
        A = real_set(sorted(rng.sample(range(1, 26), 12)))
        g = coloring_from_set(A)
        part = partition_for_rth_energy(g, 2, seed=seed)
        eg = build_rth_energy_graph(g, 2, part.parts)
        eg = prune_rare_colors(eg, g, ln_ceiling(12))
        classes = sign_decompose(eg, A)
        merged = []
        for key in classes:
            merged.extend(classes[key].edges)
        if sorted(merged) != list(eg.edges):
            ok = False  # classes must partition the edge set exactly
        for key, sub in sorted(classes.items()):
            cycle = find_cycle(sub, 4)
            if cycle is None:
                continue
            cycles_found += 1
            cw = clique_from_cycle_arith(sub, cycle, 2, A)
            vals = A.elements
            if len(set(cw.base_vertices)) != 8 or cw.repetitions != 12:
                ok = False
            if len(cw.equalities) != 12:
                ok = False
            for e in cw.equalities:
                d1 = abs(vals[e.edge1[0]] - vals[e.edge1[1]])
                d2 = abs(vals[e.edge2[0]] - vals[e.edge2[1]])
                if not d1 == d2 == e.difference:
                    ok = False
    ok = ok and cycles_found > 0
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    _report(6, ok, f"sign classes exact, {cycles_found} cycles expanded to cliques, {elapsed:.1f}s")


def test_criterion_7_progression_free_sets():
    t0 = time.time()
    ok = True
    for n in (1, 10, 100, 1000, 5000):
        if not is_3ap_free(behrend_set(n)):
            ok = False
    A = behrend_set(1000)
    ours = len(difference_set(A))
    top = max(A.elements)
    sizes = []
    for seed in range(20):
        rng = random.Random(seed)
        sample = sorted(rng.sample(range(1, top + 1), 1000))
        diffs = set()
        for i, a in enumerate(sample):
            for b in sample[i + 1:]:
                diffs.add(b - a)
        sizes.append(len(diffs))
    median = statistics.median(sizes)
    ok = ok and ours < median
    elapsed = time.time() - t0
    ok = ok and elapsed < 120
    _report(7, ok, f"3-AP-free up to n=5000; |A-A| = {ours} vs median {median:.0f}, {elapsed:.1f}s")


def test_criterion_8_balanced_bipartition():
    t0 = time.time()
    ok = True
    for i in range(20):
        n = 100 if i % 2 == 0 else 200
        rng = random.Random(300 + i)
        m = rng.randrange(n, 3 * n)
        edges = set()
        while len(edges) < m:
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        bp = balanced_bipartition(sorted(edges), n, seed=i)
        if not bp.met_threshold or 3 * bp.cross_count < len(edges):
            ok = False
        if len(bp.part1) != n // 2 or len(bp.part2) != n // 2:
            ok = False
        if sorted(bp.part1 + bp.part2) != list(range(n)):
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    _report(8, ok, f"20 bipartitions meet the cross-count threshold, {elapsed:.1f}s")


def test_criterion_9_byte_determinism(tmp_path):
    t0 = time.time()
    ok = True
    save_coloring(mono(12), tmp_path / "mono.json")

    def rerun(args, out_name):
        a = tmp_path / f"a_{out_name}"
        b = tmp_path / f"b_{out_name}"
        for out in (a, b):
            code = run([arg.replace("OUT", str(out)) for arg in args])
            assert code in (0, 1)
        return a.read_bytes() == b.read_bytes()

    mono_path = str(tmp_path / "mono.json")
    ok &= rerun(["energy-graph", "--input", mono_path, "--stages", "diagonal",
                 "--out", "OUT"], "graph.json")
    ok &= rerun(["witness", "--kind", "pair", "--input", mono_path,
                 "--graph", str(tmp_path / "a_graph.json"), "--k", "8",
                 "--cert", "OUT"], "wit.json")
    ok &= rerun(["sweep", "--n", "8", "--c", "1..4", "--k", "4", "--l", "3",
                 "--seeds", "5", "--mode", "exhaustive", "--out", "OUT"], "sweep.csv")
    ok &= rerun(["behrend", "--n", "200", "--out", "OUT"], "behrend.json")
    ok &= rerun(["oracle-f", "--n", "5", "--k", "3", "--l", "3",
                 "--cert", "OUT"], "oracle.json")

    # a fresh process must reproduce the same bytes too
    fresh = tmp_path / "fresh.json"
    proc = subprocess.run(
        [sys.executable, "-m", "locallab", "behrend", "--n", "200",
         "--out", str(fresh)],
        capture_output=True, text=True,
    )
    ok &= proc.returncode == 0
    ok &= fresh.read_bytes() == (tmp_path / "a_behrend.json").read_bytes()
    elapsed = time.time() - t0
    _report(9, ok, f"five command families byte-identical across reruns, {elapsed:.1f}s")
