import base64
import itertools
import json
import os
import random
import subprocess
import sys

from unittest import mock

import pytest

import locallab.arithmetic as arithmetic_module
import locallab.coloring as coloring_module
from locallab import (
    cli,
    coloring_from_set,
    new_coloring,
    random_coloring,
    real_set,
    save_coloring,
    save_real_set,
)
from locallab.cli import run
from locallab.jsonio import pack_codes


def mono_file(tmp_path, n, name="mono.json"):
    g = new_coloring(n, [(u, v, "m") for u in range(n) for v in range(u + 1, n)])
    path = tmp_path / name
    save_coloring(g, path)
    return path


def test_check_exit_codes(tmp_path):
    mono = mono_file(tmp_path, 6)
    assert run(["check", "--input", str(mono), "--k", "3", "--l", "1"]) == 0
    assert run(["check", "--input", str(mono), "--k", "3", "--l", "2"]) == 1
    rainbow = tmp_path / "rainbow.json"
    save_coloring(random_coloring(5, 10, seed=1), rainbow)
    assert run(["check", "--input", str(rainbow), "--k", "3", "--l", "2",
                "--mode", "sampled", "--trials", "50", "--seed", "3"]) in (0, 1)


def test_check_missing_file_is_usage_error(tmp_path):
    assert run(["check", "--input", str(tmp_path / "nope.json"), "--k", "3", "--l", "1"]) == 2


def test_check_emits_verifiable_certificate(tmp_path, capsys):
    mono = mono_file(tmp_path, 6)
    cert = tmp_path / "verdict.json"
    assert run(["check", "--input", str(mono), "--k", "3", "--l", "2",
                "--cert", str(cert)]) == 1
    out = capsys.readouterr().out
    assert "REFUTED" in out
    assert run(["verify", "--cert", str(cert), "--input", str(mono)]) == 0
    payload = json.loads(cert.read_text())
    payload["holds"] = True
    cert.write_text(json.dumps(payload))
    assert run(["verify", "--cert", str(cert), "--input", str(mono)]) == 1


def test_energy_with_bound_and_bruteforce(tmp_path, capsys):
    mono = mono_file(tmp_path, 5)
    assert run(["energy", "--input", str(mono), "--r", "2",
                "--bruteforce", "--bound"]) == 0
    out = capsys.readouterr().out
    assert "400" in out  # (5*4)^2
    assert "agree" in out


def test_energy_graph_pipeline_and_witness(tmp_path, capsys):
    mono = mono_file(tmp_path, 12)
    graph = tmp_path / "eg.json"
    assert run(["energy-graph", "--input", str(mono), "--stages", "diagonal",
                "--out", str(graph)]) == 0
    assert run(["find", "--graph", str(graph), "--length", "4"]) == 1
    assert "cycle of length 4: [(0, 0), (1, 2), (0, 1), (1, 3)]" in capsys.readouterr().out
    cert = tmp_path / "wit.json"
    assert run(["witness", "--kind", "pair", "--input", str(mono),
                "--graph", str(graph), "--k", "8", "--cert", str(cert)]) == 1
    out = capsys.readouterr().out
    assert "witness" in out.lower()
    assert run(["verify", "--cert", str(cert), "--input", str(mono)]) == 0


# colors spanned by the pair witness (k = 8) of random_coloring(30, c, seed), seeds 0..7,
# against its bound C(8, 2) - 4 = 24; None: the witness cannot be completed
TIGHT_PALETTE_SPANS = {60: [19, 18, 20, 19, 20, 18, 19, 18],
                       100: [21, 24, 20, 22, None, 22, 22, 22]}


def test_pair_witnesses_at_tight_palettes(tmp_path, capsys):
    coloring, graph, cert = (str(tmp_path / name) for name in ("c.json", "g.json", "w.json"))
    for c, spans in TIGHT_PALETTE_SPANS.items():
        for seed, span in enumerate(spans):
            save_coloring(random_coloring(30, c, seed), coloring)
            assert run(["energy-graph", "--input", coloring, "--stages", "diagonal",
                        "--out", graph]) == 0
            got = run(["witness", "--kind", "pair", "--input", coloring, "--graph", graph,
                       "--k", "8", "--cert", cert])
            out, err = capsys.readouterr()
            if span is None:
                assert got == 2, (c, seed)
                assert "padding needs 1 more unused edge(s) of color 30" in err
                continue
            assert got == 1, (c, seed)
            assert f"repetitions: 4, colors spanned: {span} (bound 24)" in out.splitlines()
            assert run(["verify", "--cert", cert, "--input", coloring]) == 0, (c, seed)
            if span == 24:
                # no slack: one more claimed repetition puts the span over the bound
                with open(cert) as f:
                    record = json.load(f)
                record["claimed_repetitions"] += 1
                with open(cert, "w") as f:
                    json.dump(record, f)
                assert run(["verify", "--cert", cert, "--input", coloring]) == 1
                lines = capsys.readouterr().out.splitlines()
                assert "certificate witness-set: INVALID" in lines
                assert "  set spans 24 colors, more than the implied bound 23" in lines


def test_energy_graph_preset_empties_small_instances(tmp_path, capsys):
    mono = mono_file(tmp_path, 12)
    graph = tmp_path / "preset.json"
    assert run(["energy-graph", "--input", str(mono), "--preset", "pair-cycle",
                "--k", "8", "--out", str(graph)]) == 0
    assert run(["find", "--graph", str(graph), "--length", "4"]) == 0


def test_find_patterns_in_colorings(tmp_path):
    mono = mono_file(tmp_path, 6)
    assert run(["find", "--input", str(mono), "--color", "m",
                "--bipartite", "2", "3"]) == 1
    assert run(["find", "--input", str(mono), "--color", "m",
                "--subdivision", "3"]) == 1
    assert run(["find", "--input", str(mono), "--color", "nope",
                "--subdivision", "3"]) == 2
    # missing required combination
    assert run(["find", "--input", str(mono)]) == 2


def test_oracle_commands(tmp_path, capsys):
    cert = tmp_path / "f.json"
    assert run(["oracle-f", "--n", "6", "--k", "3", "--l", "2",
                "--cert", str(cert)]) == 0
    out = capsys.readouterr().out
    assert "3" in out
    assert run(["verify", "--cert", str(cert)]) == 0

    cert = tmp_path / "g.json"
    assert run(["oracle-g", "--n", "4", "--k", "4", "--l", "3",
                "--max-value", "6", "--cert", str(cert)]) == 0
    assert run(["verify", "--cert", str(cert)]) == 0


def test_oracle_budget_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("LOCALLAB_BUDGET", "10")
    assert run(["oracle-f", "--n", "6", "--k", "3", "--l", "2"]) == 3


def test_oracle_g_budget_caps_a_huge_range(monkeypatch, capsys):
    monkeypatch.setenv("LOCALLAB_BUDGET", "1000")
    assert run(["oracle-g", "--n", "3", "--k", "2", "--l", "1",
                "--max-value", str(10**12)]) == 3
    assert "exceeded the 1000 node budget" in capsys.readouterr().err


def test_oracle_g_deeper_than_the_recursion_limit_exits_3_at_the_budget(monkeypatch, capsys):
    # 1200 levels pass the default recursion limit of 1000; the search runs on to its budget
    monkeypatch.setenv("LOCALLAB_BUDGET", "100000")
    assert run(["oracle-g", "--n", "1200", "--k", "2", "--l", "1", "--max-value", "1300"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: exact_g_integers(1200,2,1,1300) exceeded the 100000 "
                            "node budget\n")


def test_forged_infeasible_oracle_g_record_is_invalid(tmp_path, capsys):
    # oracle-g --n 4 --k 3 --l 2 --max-value 100 finds g = 3 with [0, 1, 2, 3]
    cert = tmp_path / "forged.json"
    cert.write_text(json.dumps({
        "type": "oracle-g", "n": 4, "k": 3, "l": 2, "max_value": 100,
        "status": "infeasible", "value": None, "witness": None,
        "nodes_explored": 0, "canonical_classes": 0,
    }))
    assert run(["verify", "--cert", str(cert)]) == 1
    assert "certificate oracle-g: INVALID" in capsys.readouterr().out


def test_infeasible_oracle_g_records_are_rechecked(tmp_path, monkeypatch, capsys):
    searched = tmp_path / "searched.json"
    assert run(["oracle-g", "--n", "7", "--k", "4", "--l", "5", "--max-value", "18",
                "--cert", str(searched)]) == 0
    record = json.loads(searched.read_text())
    assert (record["status"], record["nodes_explored"]) == ("infeasible", 27132)
    assert run(["verify", "--cert", str(searched)]) == 0

    # max_value < n - 1 leaves no room for n elements: no search needed
    short = tmp_path / "short.json"
    assert run(["oracle-g", "--n", "5", "--k", "3", "--l", "2", "--max-value", "3",
                "--cert", str(short)]) == 0
    assert json.loads(short.read_text())["status"] == "infeasible"
    # C(40, 20) subset getters would exhaust memory before the first node
    crafted = tmp_path / "crafted.json"
    crafted.write_text(json.dumps({**json.loads(short.read_text()),
                                   "n": 40, "k": 20, "max_value": 100}))
    assert run(["verify", "--cert", str(crafted)]) == 3

    monkeypatch.setenv("LOCALLAB_BUDGET", "10")
    assert run(["verify", "--cert", str(short)]) == 0
    assert capsys.readouterr().out.endswith("certificate oracle-g: OK\n")
    assert run(["verify", "--cert", str(searched)]) == 3


def test_behrend_and_diffset(tmp_path, capsys):
    out_file = tmp_path / "b.json"
    assert run(["behrend", "--n", "30", "--out", str(out_file)]) == 0
    payload = json.loads(out_file.read_text())
    assert len(payload["elements"]) == 30

    diff = tmp_path / "d.json"
    capsys.readouterr()
    assert run(["diffset", "--input", str(out_file), "--out", str(diff)]) == 0
    size = int(capsys.readouterr().out.split("|A-A| = ")[1].split()[0])
    written = json.loads(diff.read_text())["differences"]
    assert len(written) == size and all(type(d) is int for d in written)


def test_diffset_over_the_presence_pair_budget_exits_3(tmp_path, monkeypatch, capsys):
    # range(0, 100, 7) spans 98 with C(15, 2) = 105 pairs
    path = tmp_path / "v.json"
    save_real_set(real_set(range(0, 100, 7)), path)
    for budget, code in (("98", 3), ("104", 3), ("105", 0)):
        monkeypatch.setenv("LOCALLAB_BUDGET", budget)
        assert run(["diffset", "--input", str(path)]) == code
    assert "105 presence pairs exceed the budget 104" in capsys.readouterr().err


def test_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--n", "8", "--c", "2..4", "--k", "4", "--l", "3",
                "--seeds", "3", "--mode", "exhaustive", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "family,n,k,l,c,seeds,trials,violations,rate"
    assert len(lines) == 4
    first = out.read_bytes()
    assert run(["sweep", "--n", "8", "--c", "2..4", "--k", "4", "--l", "3",
                "--seeds", "3", "--mode", "exhaustive", "--out", str(out)]) == 0
    assert out.read_bytes() == first


def test_sweep_rejects_fewer_than_one_seed(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    for seeds in ("0", "-1"):
        assert run(["sweep", "--n", "8", "--c", "2..4", "--k", "4", "--l", "3",
                    "--seeds", seeds, "--out", str(out)]) == 2
        assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


def test_check_over_subset_budget_exits_3(tmp_path, monkeypatch):
    mono = mono_file(tmp_path, 10)  # C(10, 4) = 210 subsets
    monkeypatch.setenv("LOCALLAB_BUDGET", "209")
    assert run(["check", "--input", str(mono), "--k", "4", "--l", "2"]) == 3
    assert run(["check", "--input", str(mono), "--k", "4", "--l", "2",
                "--mode", "sampled", "--trials", "210"]) == 3
    for pattern in (["--bipartite", "4", "4"], ["--subdivision", "4"]):
        find = ["find", "--input", str(mono), "--color", "m"] + pattern
        monkeypatch.setenv("LOCALLAB_BUDGET", "209")
        assert run(find) == 3
        monkeypatch.setenv("LOCALLAB_BUDGET", "210")
        assert run(find) == 1
    # no two pairs share a color, so the scan counts none of the
    # C(20, 4) = 4845 subsets; the budget still counts them all
    rainbow = rainbow_file(tmp_path, 20)
    for budget, code in (("4844", 3), ("4845", 0)):
        monkeypatch.setenv("LOCALLAB_BUDGET", budget)
        assert run(["check", "--input", str(rainbow), "--k", "4", "--l", "6"]) == code


def test_verify_malformed_verdict_is_usage_error(tmp_path):
    mono = mono_file(tmp_path, 6)
    cert = tmp_path / "verdict.json"
    assert run(["check", "--input", str(mono), "--k", "3", "--l", "2",
                "--cert", str(cert)]) == 1
    payload = json.loads(cert.read_text())
    del payload["min_colors_seen"]
    cert.write_text(json.dumps(payload))
    assert run(["verify", "--cert", str(cert), "--input", str(mono)]) == 2


def test_verify_sampled_verdict_without_seed_exits_2(tmp_path, capsys):
    coloring = tmp_path / "c.json"
    save_coloring(random_coloring(12, 4, seed=1), coloring)
    cert = tmp_path / "verdict.json"
    assert run(["check", "--input", str(coloring), "--k", "4", "--l", "3", "--mode",
                "sampled", "--trials", "30", "--seed", "3", "--cert", str(cert)]) in (0, 1)
    capsys.readouterr()
    payload = json.loads(cert.read_text())
    payload["seed"] = None
    cert.write_text(json.dumps(payload))
    assert run(["verify", "--cert", str(cert), "--input", str(coloring)]) == 2
    captured = capsys.readouterr()
    assert "error: sampled mode needs an int seed, got None" in captured.err
    assert captured.out == ""


def test_sampled_check_without_violation_is_no_proof(tmp_path, capsys):
    # five samples miss every violation; the exhaustive scan finds one
    coloring = tmp_path / "c.json"
    save_coloring(random_coloring(30, 40, 3), coloring)
    check = ["check", "--input", str(coloring), "--k", "4", "--l", "5"]
    cert = tmp_path / "v.json"
    sampled = ["--mode", "sampled", "--trials", "5", "--seed", "1", "--cert", str(cert)]
    assert run(check + sampled) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "no violation found among 5 sampled 4-subsets (minimum colors seen: 5)")
    assert run(["verify", "--cert", str(cert), "--input", str(coloring)]) == 0
    assert capsys.readouterr().out == (
        "certificate property-verdict: OK (re-drew the same samples; not a proof)\n")
    assert run(check) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "REFUTED by subset (0, 2, 3, 10) spanning 3 colors")


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    mono = mono_file(tmp_path, 6)
    commands = [
        ["check", "--input", str(mono), "--k", "3", "--l", "2"],  # exit 1
        ["check", "--input", str(mono), "--k", "9", "--l", "2"],  # LocalLabError
        ["check", "--input", str(mono), "--k", "x", "--l", "2"],  # argparse error
        ["check", "--help"],
    ]

    def outcome(argv):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    passes = [[outcome(argv) for argv in commands] for _ in range(2)]
    assert passes[0] == passes[1]
    assert [code for code, _, _ in passes[0]] == [1, 2, ("exit", 2), ("exit", 0)]
    assert cli.build_parser() is cli.build_parser()
    fresh = cli.build_parser.__wrapped__()
    with pytest.raises(SystemExit):
        fresh.parse_args(["check", "--help"])
    assert capsys.readouterr().out == passes[0][3][1]


def test_repeated_runs_are_byte_identical(tmp_path):
    mono = mono_file(tmp_path, 12)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run(["energy-graph", "--input", str(mono), "--stages",
                    "diagonal,rare:3", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_console_entry_point_in_fresh_process(tmp_path):
    mono = mono_file(tmp_path, 6)
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "locallab", "check", "--input", str(mono),
         "--k", "3", "--l", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert "REFUTED" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "locallab", "no-such-command"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2


def test_arith_witness_pipeline(tmp_path, capsys):
    values = tmp_path / "vals.json"
    save_real_set(real_set([0, 1, 2, 3, 10, 11, 12, 13]), values)
    graph = tmp_path / "arith.json"
    # seed 6 splits the two blocks across the parts, so the plus class
    # carries a 4-cycle
    assert run(["energy-graph", "--values", str(values), "--r", "2",
                "--preset", "sign-split", "--seed", "6", "--out", str(graph)]) == 0
    plus = tmp_path / "arith.p.json"
    minus = tmp_path / "arith.m.json"
    assert plus.exists() and minus.exists()
    assert run(["find", "--graph", str(plus), "--length", "4"]) == 1
    cert = tmp_path / "clique.json"
    assert run(["witness", "--kind", "arith", "--graph", str(plus),
                "--values", str(values), "--k", "2", "--cert", str(cert)]) == 1
    assert run(["verify", "--cert", str(cert), "--values", str(values)]) == 0
    out = capsys.readouterr().out
    assert "12" in out  # repetition count


def test_verify_without_the_input_its_certificate_needs_exits_2(tmp_path, capsys):
    mono = str(mono_file(tmp_path, 12))
    values = str(tmp_path / "vals.json")
    save_real_set(real_set([0, 1, 2, 3, 10, 11, 12, 13]), values)
    graph, pair, sign, clique = (str(tmp_path / name) for name in
                                 ("g.json", "w.json", "s.json", "a.json"))
    assert run(["energy-graph", "--input", mono, "--stages", "diagonal", "--out", graph]) == 0
    assert run(["witness", "--kind", "pair", "--k", "8", "--input", mono, "--graph", graph,
                "--cert", pair]) == 1
    assert run(["energy-graph", "--values", values, "--preset", "sign-split", "--seed", "6",
                "--out", sign]) == 0
    assert run(["witness", "--kind", "arith", "--k", "2", "--values", values,
                "--graph", str(tmp_path / "s.p.json"), "--cert", clique]) == 1
    capsys.readouterr()
    for argv, message in ((["--cert", pair], "witness-set verification needs the coloring"),
                          (["--cert", clique, "--input", mono],
                           "arith-clique verification needs the element set")):
        assert run(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


# every subcommand slot that reads a file; BAD is replaced by the bad file
READERS = {
    "check-input": ["check", "--input", "BAD", "--k", "3", "--l", "2"],
    "energy-input": ["energy", "--input", "BAD"],
    "energy-graph-input": ["energy-graph", "--input", "BAD", "--out", "OUT"],
    "energy-graph-values": ["energy-graph", "--values", "BAD", "--out", "OUT"],
    "find-graph": ["find", "--graph", "BAD", "--length", "4"],
    "witness-graph": ["witness", "--kind", "pair", "--graph", "BAD", "--input", "GOOD",
                      "--k", "8"],
    "witness-input": ["witness", "--kind", "pair", "--input", "BAD", "--graph", "GRAPH",
                      "--k", "8"],
    "witness-values": ["witness", "--kind", "arith", "--values", "BAD", "--graph", "GRAPH",
                       "--k", "2"],
    "diffset-input": ["diffset", "--input", "BAD"],
    "verify-cert": ["verify", "--cert", "BAD"],
    "verify-input": ["verify", "--cert", "CERT", "--input", "BAD"],
    "verify-values": ["verify", "--cert", "CERT", "--values", "BAD"],
}
BAD_FILES = {
    "not-json": "{'n': 3,",
    "directory": None,
    "json-list": "[1, 2]",
    "too-deep": "[" * 100_000 + "]" * 100_000,
    "edges-not-a-list": '{"n": 3, "edges": 5}',
    "zero-denominator": '{"n": 2, "edges": [[0, 1, "1/0"]]}',
}


@pytest.mark.parametrize("kind", sorted(BAD_FILES))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_malformed_input_files_exit_2(tmp_path, capsys, reader, kind):
    bad = tmp_path / "bad"
    if BAD_FILES[kind] is None:
        bad.mkdir()
    else:
        bad.write_text(BAD_FILES[kind])
    cert = tmp_path / "cert.json"
    assert run(["oracle-f", "--n", "4", "--k", "3", "--l", "2", "--cert", str(cert)]) == 0
    paths = {"BAD": bad, "GOOD": mono_file(tmp_path, 6), "CERT": cert,
             "OUT": tmp_path / "out.json", "GRAPH": tmp_path / "graph.json"}
    assert run(["energy-graph", "--input", str(paths["GOOD"]), "--stages", "diagonal",
                "--out", str(paths["GRAPH"])]) == 0
    assert run([str(paths.get(a, a)) for a in READERS[reader]]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("n", [10**8, 10**20])
def test_coloring_declaring_more_vertices_than_its_edges_exits_2(tmp_path, capsys, n):
    # memory must follow the edges given: C(n, 2) slots would not fit
    coloring = {"n": n, "edges": []}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(coloring))
    assert run(["energy", "--input", str(path)]) == 2
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"type": "oracle-f", "n": n, "k": 3, "l": 2,
                                "status": "optimal", "value": 1, "witness": coloring}))
    assert run(["verify", "--cert", str(cert)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: pair (0, 1) received no color") == 2


def test_bool_color_label_exits_2(tmp_path, capsys):
    # JSON true equals 1, so this file would load its three edges as one color
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1, True], [0, 2, 1], [1, 2, 1]]}))
    assert run(["check", "--input", str(path), "--k", "3", "--l", "2"]) == 2
    assert "error: color label True must be int or string" in capsys.readouterr().err


def test_non_integer_rare_threshold_exits_2(tmp_path, capsys):
    mono = mono_file(tmp_path, 6)
    assert run(["energy-graph", "--input", str(mono), "--stages", "rare:x",
                "--out", str(tmp_path / "g.json")]) == 2
    assert "rare:x" in capsys.readouterr().err


def test_non_integer_budget_exits_2(tmp_path, monkeypatch, capsys):
    mono = mono_file(tmp_path, 6)
    monkeypatch.setenv("LOCALLAB_BUDGET", "lots")
    assert run(["check", "--input", str(mono), "--k", "3", "--l", "2"]) == 2
    assert "LOCALLAB_BUDGET" in capsys.readouterr().err


def test_bool_vertex_in_coloring_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text('{"n": 3, "edges": [[true, 2, 0], [0, 1, 0], [0, 2, 0]]}')
    assert run(["check", "--input", str(path), "--k", "3", "--l", "1"]) == 2
    assert "vertex True" in capsys.readouterr().err


@pytest.fixture
def int_digits_4300():
    """The interpreter's default limit on the digits of an int it converts."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter converts ints of any length")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_ints_longer_than_the_interpreter_converts_exit_2(tmp_path, capsys, int_digits_4300):
    big = "1" + "0" * 5000
    elements, coloring = tmp_path / "big.json", tmp_path / "c.json"
    elements.write_text(f'{{"elements": [0, {big}]}}')
    coloring.write_text(f'{{"n": 2, "edges": [[0, 1, {big}]]}}')
    assert run(["diffset", "--input", str(elements)]) == 2
    assert run(["check", "--input", str(coloring), "--k", "2", "--l", "1"]) == 2
    assert capsys.readouterr().err.count("is not a JSON file") == 2


def test_energy_past_the_printable_digits_exits_2(tmp_path, capsys, int_digits_4300):
    path = tmp_path / "c30.json"
    save_coloring(random_coloring(30, 4, seed=5), path)
    assert run(["energy", "--input", str(path), "--r", "1793"]) == 0
    assert len(capsys.readouterr().out.split()[2]) == 4300
    assert run(["energy", "--input", str(path), "--r", "1794"]) == 2
    assert capsys.readouterr().err == ("error: E_1794 has more digits than the 4300 "
                                       "this interpreter prints\n")
    # (2 max m_c)^r bounds E_r from below, so no power of 10^9 is taken
    with mock.patch.object(cli, "energy", side_effect=AssertionError("computed")):
        assert run(["energy", "--input", str(path), "--r", str(10**9)]) == 2
    assert "E_1000000000 has more digits" in capsys.readouterr().err
    # without a limit every energy prints
    sys.set_int_max_str_digits(0)
    assert run(["energy", "--input", str(path), "--r", "1794"]) == 0
    assert len(capsys.readouterr().out.split()[2]) == 4302


def test_budget_counts_past_the_printable_digits_exit_3(tmp_path, capsys, int_digits_4300):
    # 30^2912 ordered tuples and C(20000, 10000) getters have 4302 and 6019 digits
    mono = mono_file(tmp_path, 30)
    assert run(["energy", "--input", str(mono), "--r", "1456", "--bruteforce"]) == 3
    assert capsys.readouterr().err == ("error: at least 10^4300 ordered tuples exceed "
                                       "the budget 1000000000\n")
    assert run(["oracle-g", "--n", "20000", "--k", "10000", "--l", "2",
                "--max-value", "30000"]) == 3
    assert capsys.readouterr().err == ("error: at least 10^4300 10000-subset getters exceed "
                                       "the budget 100000000\n")
    # 30^2910 has 4299 digits and is given in full
    assert run(["energy", "--input", str(mono), "--r", "1455", "--bruteforce"]) == 3
    assert capsys.readouterr().err == f"error: {30**2910} ordered tuples exceed the budget 1000000000\n"


WIDE = 5 * 10**4299  # 4300 digits, so it reads; the difference 10^4300 of -WIDE and WIDE does not
# 2201-digit terms whose difference, about 2, has a 4401-digit numerator and denominator
NARROW = [f"-{10**2200}/{10**2200 + 1}", f"{10**2200 + 2}/{10**2200 + 3}"]


@pytest.mark.parametrize("elements", [
    lambda: [-WIDE, WIDE],
    # 21 smaller differences come first, so the wide one is only in --out
    lambda: [-WIDE, 0, 1, 3, 7, 12, 20, 30, WIDE],
    lambda: NARROW,
], ids=["printed", "past-the-printed", "fractions"])
@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
def test_diffset_past_the_printable_digits_exits_2(tmp_path, capsys, int_digits_4300,
                                                   elements, out):
    path, written = tmp_path / "v.json", tmp_path / "d.json"
    path.write_text(json.dumps({"elements": elements()}))
    argv = ["diffset", "--input", str(path)] + (["--out", str(written)] if out else [])
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: a difference has more digits than the 4300 this interpreter prints\n")
    assert not written.exists()


@pytest.mark.parametrize("preset, fixed, extra", [
    ("pair-cycle", 2, ["--k", "2"]),
    ("triple-cycle", 3, []),
])
def test_a_preset_refuses_another_order(tmp_path, capsys, preset, fixed, extra):
    coloring, graph = tmp_path / "c.json", tmp_path / "g.json"
    save_coloring(random_coloring(30, 4, seed=5), coloring)
    base = ["energy-graph", "--input", str(coloring), "--preset", preset, *extra,
            "--out", str(graph)]
    for r in (fixed - 1, fixed + 1, 5):
        assert run(base + ["--r", str(r)]) == 2
        assert capsys.readouterr() == (
            "", f"error: the {preset} preset builds r={fixed}, not --r {r}\n")
        assert not graph.exists()
    for argv in (base, base + ["--r", str(fixed)]):
        assert run(argv) == 0
        assert f"(r={fixed})" in capsys.readouterr().out


def test_verify_of_an_unknown_certificate_type_exits_2(tmp_path, capsys):
    cert = tmp_path / "x.json"
    cert.write_text('{"type": "mystery"}')
    assert run(["verify", "--cert", str(cert)]) == 2
    assert capsys.readouterr().err == "error: unknown certificate type 'mystery'\n"


def blob(*values, width=1):
    """`values` as a blob of little-endian unsigned ints `width` bytes wide."""
    return base64.b64encode(b"".join(v.to_bytes(width, "little") for v in values)).decode()


def codes(*values):
    """The one-byte code blob of the ascending codes `values`: each less the
    previous one less 1, the first as it is."""
    return blob(*(b - a - 1 for a, b in zip((-1,) + values, values)))


def graph_file(tmp_path, drop=(), **fields):
    """A well-formed format-7 order-2 graph file on n=4, with `fields`
    replaced and the keys in `drop` removed.  Its one edge joins the
    vertices (0, 2) and (1, 3), whose codes are 0*4+2 and 1*4+3: the row
    of code 2 holds position 1 (code 7) as the gap 0 past the row itself,
    and the row of code 7 is empty.  Every blob is one byte an entry."""
    record = {"format": 7, "r": 2, "n": 4, "parts": None, "codes": codes(2, 7),
              "counts": blob(1, 0), "neighbors": blob(0), "widths": [1, 1, 1],
              "provenance": ["build_partitioned"]}
    record.update(fields)
    for key in drop:
        del record[key]
    path = tmp_path / "g.json"
    path.write_text(json.dumps(record))
    return path


def test_well_formed_graph_file_loads(tmp_path):
    path = graph_file(tmp_path, parts=[[0, 1], [2, 3]])
    assert run(["find", "--graph", str(path), "--length", "4"]) == 0


PARTS = [[0, 1], [2, 3]]
REBUILD = "rebuild it with `energy-graph`"
RANGE = "codes must be strictly increasing and below 4^2"
PARTS_ERROR = "parts must be 2 disjoint sets covering 0..3"
COUNTS = "counts must hold one entry per code and sum to len(neighbors)"
NEIGHBOR = "every neighbor must lie past its row and below len(codes)"
WIDTHS = "widths must give codes, counts and neighbors 1, 2, 4 or 8 bytes"
# the largest 8-byte entry: 1 more wraps to 0
WRAP = 2**64 - 1
# three codes, 2, 7 and 11, that is (0, 2), (1, 3) and (2, 3)
THREE = {"codes": codes(2, 7, 11), "counts": blob(2, 0, 0)}
# each bad record and the fragment its error message must hold
BAD_GRAPHS = {
    # the code of the three-entry vertex [1, 2, 5]
    "wide-vertex": ({"codes": codes(2, 1 * 16 + 2 * 4 + 5)}, RANGE),
    # codes cannot decrease in gaps: the 8-byte gap that would wrap 7 back to 2
    "codes-not-increasing": ({"codes": blob(7, WRAP - 5, width=8), "widths": [8, 1, 1]}, RANGE),
    # a gap past n^r, whose code 2 + 2^63 + 1 an int64 sum would wrap
    "code-gap-past-n-to-the-r": ({"codes": blob(2, 2**63, width=8), "widths": [8, 1, 1]},
                                 RANGE),
    # the one-entry vertex [1], read as the code of (0, 1), lands outside part 2
    "narrow-vertex": ({"codes": codes(1, 7), "parts": PARTS},
                      "an edge leaves part 2 in coordinate 2"),
    # the code of [1, 4] is that of (2, 0), outside part 1
    "entry-at-least-n": ({"codes": codes(2, 1 * 4 + 4), "parts": PARTS},
                         "an edge leaves part 1 in coordinate 1"),
    # (1, 0) has its second coordinate outside part 2
    "entry-outside-part": ({"codes": codes(2, 4), "parts": PARTS},
                           "an edge leaves part 2 in coordinate 2"),
    "fewer-parts-than-r": ({"parts": [[0, 1, 2, 3]]}, PARTS_ERROR),
    "int-provenance": ({"provenance": [5]}, "field 'provenance' has the wrong type"),
    "overlapping-parts": ({"parts": [[0, 1, 2], [2, 3]]}, PARTS_ERROR),
    "part-entry-at-least-n": ({"parts": [[0, 1], [2, 7]]}, PARTS_ERROR),
    # (0, 2) and (1, 2) agree in the second coordinate
    "equal-coordinate": ({"codes": codes(2, 6)},
                         "an edge repeats its base vertex in coordinate 2"),
    "format-1": ({"format": 1}, REBUILD),
    "format-2": ({"format": 2, "xs": [2], "ys": [7], "cs": [0]}, REBUILD),
    # an older record, with its base edge tally
    "format-3": ({"format": 3, "color_base_edges": {"0": 1}}, REBUILD),
    # an older record, with its edge color blob
    "format-4": ({"format": 4, "cs": codes(0)}, REBUILD),
    # an older record: each edge's two codes
    "format-5": ({"format": 5, "xs": codes(2), "ys": codes(7)}, REBUILD),
    # the record the previous version wrote: codes and positions, not gaps
    "format-6": ({"format": 6, "codes": blob(2, 7), "counts": blob(1, 0),
                  "neighbors": blob(1)}, REBUILD),
    "string-format": ({"format": "7"}, REBUILD),
    # rows cannot decrease in gaps: the 8-byte gaps that would wrap the row of
    # code 2 from 11 back to 7, or from 7 to 7 again, or put code 2 in the row of 7
    "unsorted-edges": ({**THREE, "neighbors": blob(1, WRAP - 1, width=8), "widths": [1, 1, 8]},
                       NEIGHBOR),
    "duplicate-edges": ({"counts": blob(2, 0), "neighbors": blob(0, WRAP, width=8),
                         "widths": [1, 1, 8]}, NEIGHBOR),
    "xs-not-below-ys": ({"counts": blob(0, 1), "neighbors": blob(WRAP - 1, width=8),
                         "widths": [1, 1, 8]}, NEIGHBOR),
    "neighbor-past-codes": ({"neighbors": blob(1)}, NEIGHBOR),
    # a count that wraps to -1 as an int64, so that the counts sum to the one neighbor
    "count-wraps": ({**THREE, "counts": blob(2, WRAP, 0, width=8), "neighbors": blob(0),
                     "widths": [1, 8, 1]}, NEIGHBOR),
    "length-mismatch": ({"counts": blob(1)}, COUNTS),
    "count-sum-mismatch": ({"counts": blob(1, 1)}, COUNTS),
    # code 11 lies on no edge
    "isolated-code": ({**THREE, "counts": blob(1, 0, 0), "neighbors": blob(0)},
                      "every code must lie on an edge"),
    "width-3": ({"widths": [1, 3, 1]}, WIDTHS),
    "two-widths": ({"widths": [1, 1]}, WIDTHS),
    "bool-width": ({"widths": [1, True, 1]}, "field 'widths' has the wrong type"),
    # blob errors
    "list-blob": ({"codes": [2, 7]}, "field 'codes' has the wrong type"),
    "list-rank-blob": ({"neighbors": [1]}, "field 'neighbors' has the wrong type"),
    # "Ag==" is the blob of [2]; a lenient decoder would drop the "*"
    "not-base64": ({"codes": "A*g=="}, "codes is not a base64 string"),
    "rank-blob-not-base64": ({"counts": "A*Q=="}, "counts is not a base64 string"),
    # codes declared two bytes an entry, and one byte
    "short-blob": ({"codes": blob(2), "widths": [2, 1, 1]},
                   "codes decodes to a length of 1, not a whole number of 2-byte entries"),
    "short-8-byte-blob": ({"neighbors": blob(0, width=4), "widths": [1, 1, 8]},
                          "neighbors decodes to a length of 4, not a whole number of 8-byte "
                          "entries"),
    # the decimal int lists of format 2 under the current format number
    "format-2-body-as-3": ({"codes": [2, 7], "counts": [1, 0], "neighbors": [1]},
                           "field 'codes' has the wrong type"),
}


@pytest.mark.parametrize("kind", sorted(BAD_GRAPHS) + ["missing-format", "format-1-file"])
def test_malformed_graph_file_exits_2(tmp_path, capsys, kind):
    if kind == "missing-format":
        path, fragment = graph_file(tmp_path, drop=["format"]), REBUILD
    elif kind == "format-1-file":
        # the record older versions wrote, with tuple vertices and no format key
        path = graph_file(tmp_path, drop=["format", "codes", "counts", "neighbors"],
                          edges=[[[0, 2], [1, 3], 0]])
        fragment = REBUILD
    else:
        record, fragment = BAD_GRAPHS[kind]
        path = graph_file(tmp_path, **record)
    assert run(["find", "--graph", str(path), "--length", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err


def test_graph_codes_wider_than_64_bits_exit_3(tmp_path, capsys):
    path = graph_file(tmp_path, n=10, r=20, codes="", counts="", neighbors="")
    assert run(["find", "--graph", str(path), "--length", "4"]) == 3
    assert "10^20 vertices need codes wider than 64 bits" in capsys.readouterr().err


def test_long_cycle_lengths_exit_without_a_traceback(tmp_path, capsys):
    # 1,600 vertices: a 1,200-cycle is found by a path deeper than the
    # recursion limit, and no 1,700-cycle fits
    coloring, graph = tmp_path / "c.json", tmp_path / "g.json"
    save_coloring(random_coloring(40, 3, 1), coloring)
    assert run(["energy-graph", "--input", str(coloring), "--stages", "diagonal",
                "--out", str(graph)]) == 0
    capsys.readouterr()
    assert run(["find", "--graph", str(graph), "--length", "1200"]) == 1
    printed = capsys.readouterr().out
    assert printed.startswith("cycle of length 1200: ") and printed.count("), (") == 1199
    assert run(["find", "--graph", str(graph), "--length", "1700"]) == 0
    assert capsys.readouterr().out == "no cycle of length 1700\n"


def test_sign_stage_must_be_last(tmp_path, capsys):
    values = tmp_path / "vals.json"
    save_real_set(real_set([0, 1, 2, 3, 10, 11, 12, 13]), values)
    out = tmp_path / "g.json"
    assert run(["energy-graph", "--values", str(values), "--partitioned",
                "--stages", "rare,sign,halve,coordinate", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "last" in captured.err
    assert "built" not in captured.out  # rejected before building anything
    assert list(tmp_path.iterdir()) == [values]
    assert run(["energy-graph", "--values", str(values), "--partitioned",
                "--stages", "rare,sign", "--out", str(out)]) == 0
    assert (tmp_path / "g.p.json").exists() and (tmp_path / "g.m.json").exists()


@pytest.mark.parametrize("chain", [["--preset", "sign-split"], ["--stages", "rare,sign"]])
def test_sign_stage_without_values_exits_2_before_the_build(tmp_path, capsys, chain):
    mono = mono_file(tmp_path, 12)
    assert run(["energy-graph", "--input", str(mono), *chain,
                "--out", str(tmp_path / "g.json")]) == 2
    captured = capsys.readouterr()
    assert "the sign stage needs --values" in captured.err
    assert "built:" not in captured.out
    assert list(tmp_path.iterdir()) == [mono]


def test_sign_stage_builds_the_partitioned_form(tmp_path):
    values = tmp_path / "v.json"
    save_real_set(real_set([0, 1, 2, 3, 10, 11, 12, 13]), values)
    assert run(["energy-graph", "--values", str(values), "--stages", "rare,sign",
                "--out", str(tmp_path / "y.json")]) == 0
    assert run(["energy-graph", "--values", str(values), "--preset", "sign-split",
                "--out", str(tmp_path / "s.json")]) == 0
    for tag in ("p", "m"):
        assert (tmp_path / f"y.{tag}.json").read_bytes() == (tmp_path / f"s.{tag}.json").read_bytes()


def test_sign_split_numbers_the_element_set_coloring_once(tmp_path):
    values = tmp_path / "v.json"
    save_real_set(real_set([0, 1, 2, 3, 10, 11, 12, 13]), values)
    numbered = mock.Mock(wraps=coloring_module._numbered)
    with mock.patch.object(coloring_module, "_numbered", numbered), \
            mock.patch.object(arithmetic_module, "_numbered", numbered):
        assert run(["energy-graph", "--values", str(values), "--preset", "sign-split",
                    "--seed", "6", "--out", str(tmp_path / "s.json")]) == 0
    assert numbered.call_count == 1


def test_sign_classes_come_from_the_values_not_the_input_coloring(tmp_path, capsys):
    elements = real_set([0, 1, 2, 3, 10, 11, 12, 13])
    values, same, mono = tmp_path / "v.json", tmp_path / "same.json", mono_file(tmp_path, 8)
    save_real_set(elements, values)
    save_coloring(coloring_from_set(elements), same)
    split = ["--values", str(values), "--preset", "sign-split", "--seed", "6", "--out"]
    assert run(["energy-graph", *split, str(tmp_path / "v.graph.json")]) == 0
    assert run(["energy-graph", "--input", str(same), *split, str(tmp_path / "c.graph.json")]) == 0
    for tag in ("p", "m"):
        assert (tmp_path / f"v.graph.{tag}.json").read_bytes() == \
            (tmp_path / f"c.graph.{tag}.json").read_bytes()
    capsys.readouterr()
    # every pair of the one-color input shares its color, but not its
    # difference: the values give this edge no sign
    assert run(["energy-graph", "--input", str(mono), *split, str(tmp_path / "m.graph.json")]) == 2
    assert "edge (4, 0)-(5, 2) has no consistent sign in coordinate 2" in capsys.readouterr().err
    assert not (tmp_path / "m.graph.p.json").exists()


def test_sign_stage_on_an_element_set_of_another_size_exits_2(tmp_path, capsys):
    elements = [0, 1, 2, 3, 10, 11, 12, 13]
    coloring, values = tmp_path / "c8.json", tmp_path / "v11.json"
    save_coloring(coloring_from_set(real_set(elements)), coloring)
    save_real_set(real_set(elements + [50, 77, 90]), values)
    assert run(["energy-graph", "--input", str(coloring), "--values", str(values),
                "--preset", "sign-split", "--out", str(tmp_path / "s.json")]) == 2
    assert "the energy graph has n=8 but the element set 11 values" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [coloring, values]  # no class file


def test_preset_and_stages_exclude_each_other(tmp_path, capsys):
    mono = mono_file(tmp_path, 9)
    with pytest.raises(SystemExit) as exc:
        run(["energy-graph", "--input", str(mono), "--preset", "triple-cycle",
             "--stages", "diagonal", "--out", str(tmp_path / "g.json")])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("form", [[], ["--partitioned"]])
def test_energy_graph_budget_boundary(tmp_path, monkeypatch, capsys, form):
    save_coloring(random_coloring(9, 3, seed=5), tmp_path / "c.json")
    argv = ["energy-graph", "--input", str(tmp_path / "c.json"), *form,
            "--out", str(tmp_path / "g.json")]
    assert run(argv) == 0
    built = capsys.readouterr().out.splitlines()[0]  # "built: V vertices, E edges (r=2)"
    edges = int(built.split()[3])
    assert form or edges >= 9 * 8  # the full form has at least n(n - 1) edges
    monkeypatch.setenv("LOCALLAB_BUDGET", str(edges))
    assert run(argv) == 0
    monkeypatch.setenv("LOCALLAB_BUDGET", str(edges - 1))
    assert run(argv) == 3
    assert f"{edges} energy edges exceed the budget {edges - 1}" in capsys.readouterr().err


def test_the_full_form_has_no_vertex_ceiling(tmp_path, monkeypatch, capsys):
    # with every color distinct the full form has n(n - 1) = 72 edges and
    # n^2 = 81 vertices: a budget between them builds it, as the edge count
    # is the only ceiling
    labels = iter(range(36))
    save_coloring(new_coloring(9, [(u, v, next(labels)) for u in range(9)
                                   for v in range(u + 1, 9)]), tmp_path / "c.json")
    argv = ["energy-graph", "--input", str(tmp_path / "c.json"), "--out", str(tmp_path / "g.json")]
    monkeypatch.setenv("LOCALLAB_BUDGET", "72")
    assert run(argv) == 0
    assert "81 vertices, 72 edges" in capsys.readouterr().out
    monkeypatch.setenv("LOCALLAB_BUDGET", "71")
    assert run(argv) == 3


def test_a_cycle_search_past_its_step_budget_exits_3(tmp_path, monkeypatch, capsys):
    # the diagonal-pruned graph of random_coloring(40, 3, 1) has a 1200-cycle,
    # and its 1600 vertices of two or more neighbors let a 1600-cycle search
    # run on; the graph is built first, as the budget also caps its edges
    save_coloring(random_coloring(40, 3, 1), tmp_path / "c.json")
    graph = str(tmp_path / "g.json")
    assert run(["energy-graph", "--input", str(tmp_path / "c.json"), "--stages", "diagonal",
                "--out", graph]) == 0
    assert "diagonal: 405120 edges remain" in capsys.readouterr().out
    assert run(["find", "--graph", graph, "--length", "1200"]) == 1
    monkeypatch.setenv("LOCALLAB_BUDGET", "1000000")
    assert run(["find", "--graph", graph, "--length", "1600"]) == 3
    assert "the cycle search exceeded the 1000000 step budget" in capsys.readouterr().err


WITNESS_REQUESTS = {
    "pair-on-triple-graph": (["--kind", "pair", "--graph", "TRIPLE", "--k", "8"],
                             "needs a second energy graph"),
    "triple-on-pair-graph": (["--kind", "triple", "--graph", "PAIR"],
                             "needs a third energy graph"),
    "k-not-a-multiple-of-4": (["--kind", "pair", "--graph", "PAIR", "--k", "6"],
                              "k=6 must be a multiple of four and at least 8"),
    "k-above-n": (["--kind", "pair", "--graph", "PAIR", "--k", "16"],
                  "k=16 exceeds the 12 base vertices"),
    "triple-below-24-vertices": (["--kind", "triple", "--graph", "TRIPLE"],
                                 "needs at least 24 base vertices, have 12"),
}


@pytest.mark.parametrize("case", sorted(WITNESS_REQUESTS))
def test_witness_checks_its_request_before_the_search(tmp_path, capsys, case):
    coloring = tmp_path / "c.json"
    save_coloring(random_coloring(12, 2, seed=0), coloring)
    graphs = {"TRIPLE": tmp_path / "triple.json", "PAIR": tmp_path / "pair.json"}
    assert run(["energy-graph", "--input", str(coloring), "--preset", "triple-cycle",
                "--out", str(graphs["TRIPLE"])]) == 0
    assert run(["energy-graph", "--input", str(coloring), "--preset", "pair-cycle",
                "--k", "8", "--out", str(graphs["PAIR"])]) == 0
    # neither graph has a cycle of any length searched here, so a request
    # checked only after the search would print "no cycle" and exit 0
    for name, length in (("TRIPLE", 4), ("TRIPLE", 8), ("PAIR", 3), ("PAIR", 8)):
        assert run(["find", "--graph", str(graphs[name]), "--length", str(length)]) == 0
    capsys.readouterr()
    argv, message = WITNESS_REQUESTS[case]
    argv = [str(graphs.get(a, a)) for a in argv]
    assert run(["witness", "--input", str(coloring), *argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "no cycle" not in captured.out


# color B on one base pair inside each part, crossing its halves, so that
# 4 of the edges left after halving and coordinate pruning are B edges;
# B has 3 base edges, fewer than ceil(ln 30) = 4.  The first B edge is edge
# 0 of the first graph and edge 721 of the second.
@pytest.mark.parametrize("b, edges", [({(0, 3), (2, 4), (1, 8)}, 1892),
                                      ({(2, 20), (5, 14), (13, 28)}, 1850)])
def test_triple_witness_reads_edge_colors_from_the_coloring(tmp_path, capsys, b, edges):
    g = new_coloring(30, [(u, v, "B" if (u, v) in b else "A")
                          for u in range(30) for v in range(u + 1, 30)])
    coloring, graph = tmp_path / "c.json", tmp_path / "g.json"
    save_coloring(g, coloring)
    assert run(["energy-graph", "--input", str(coloring), "--r", "3", "--partitioned",
                "--stages", "halve,coordinate", "--seed", "0", "--out", str(graph)]) == 0
    assert f"coordinate: {edges} edges remain" in capsys.readouterr().out
    witness = ["witness", "--kind", "triple", "--input", str(coloring), "--graph", str(graph)]
    assert run(witness) == 2
    assert "color id 1 has fewer than 4 base edges" in capsys.readouterr().err
    # a graph file of format 4, whose edge colors say all A
    record = json.loads(graph.read_text())
    record["format"] = 4
    record["cs"], _ = pack_codes([0] * edges)
    graph.write_text(json.dumps(record))
    assert run(witness) == 2
    captured = capsys.readouterr()
    assert "rebuild it with `energy-graph`" in captured.err and "witness" not in captured.out


@pytest.mark.parametrize("other", [24, 36])
def test_triple_witness_on_a_coloring_of_another_n_exits_2(tmp_path, capsys, other):
    graph = tmp_path / "g.json"
    assert run(["energy-graph", "--input", str(mono_file(tmp_path, 30)),
                "--preset", "triple-cycle", "--out", str(graph)]) == 0
    assert run(["find", "--graph", str(graph), "--length", "8"]) == 1
    capsys.readouterr()
    coloring = mono_file(tmp_path, other, name="other.json")
    assert run(["witness", "--kind", "triple", "--input", str(coloring),
                "--graph", str(graph)]) == 2
    captured = capsys.readouterr()
    assert f"the energy graph has n=30 but the coloring n={other}" in captured.err
    assert "witness" not in captured.out


def rainbow_file(tmp_path, n, name="rainbow.json"):
    """K_n with one color per pair, so rare-color pruning empties any
    energy graph built from it."""
    pairs = itertools.combinations(range(n), 2)
    path = tmp_path / name
    save_coloring(new_coloring(n, [(u, v, i) for i, (u, v) in enumerate(pairs)]), path)
    return path


# each case returns witness arguments the request check must reject, and
# the message it gives; checked only after the search, the graphs with no
# cycle would print "no cycle" and exit 0


def triple_of_another_n(tmp_path):
    graph = tmp_path / "g.json"
    assert run(["energy-graph", "--input", str(rainbow_file(tmp_path, 24)),
                "--preset", "triple-cycle", "--out", str(graph)]) == 0
    assert run(["find", "--graph", str(graph), "--length", "8"]) == 0
    coloring = rainbow_file(tmp_path, 30, name="other.json")
    return (["--kind", "triple", "--input", str(coloring), "--graph", str(graph)],
            "the energy graph has n=24 but the coloring n=30")


def pair_of_another_n(tmp_path):
    # the graph has cycles whose steps all pass the color checks in a
    # one-color coloring, so only comparing n stops a witness for a
    # coloring the graph was not built from
    graph = tmp_path / "g.json"
    assert run(["energy-graph", "--input", str(mono_file(tmp_path, 12)),
                "--stages", "diagonal", "--out", str(graph)]) == 0
    coloring = mono_file(tmp_path, 16, name="other.json")
    return (["--kind", "pair", "--k", "8", "--input", str(coloring), "--graph", str(graph)],
            "the energy graph has n=12 but the coloring n=16")


def arith_of_another_set(tmp_path):
    values, seven = tmp_path / "values.json", tmp_path / "seven.json"
    elements = real_set(random.Random(5).sample(range(1, 241), 120)).elements
    save_real_set(real_set(elements), values)
    save_real_set(real_set(elements[:7]), seven)
    assert run(["energy-graph", "--values", str(values), "--preset", "sign-split",
                "--out", str(tmp_path / "sign.json")]) == 0
    graph = tmp_path / "sign.p.json"
    # the 6-cycle's base elements reach past the first seven
    assert run(["find", "--graph", str(graph), "--length", "6"]) == 1
    return (["--kind", "arith", "--k", "3", "--values", str(seven), "--graph", str(graph)],
            "the energy graph has n=120 but the element set 7 values")


def arith_k_below_2(tmp_path):
    values = tmp_path / "values.json"
    save_real_set(real_set([0, 1, 2, 3, 10, 11, 12, 13]), values)
    assert run(["energy-graph", "--values", str(values), "--preset", "sign-split", "--seed", "6",
                "--out", str(tmp_path / "sign.json")]) == 0
    # k = 1 asks for a 2-cycle, which the cycle search would refuse in other words
    return (["--kind", "arith", "--k", "1", "--values", str(values),
             "--graph", str(tmp_path / "sign.p.json")], "k=1 must be at least 2")


def triple_never_halved(tmp_path):
    coloring, graph = rainbow_file(tmp_path, 24), tmp_path / "g.json"
    assert run(["energy-graph", "--input", str(coloring), "--r", "3", "--partitioned",
                "--stages", "rare", "--out", str(graph)]) == 0
    assert run(["find", "--graph", str(graph), "--length", "8"]) == 0
    return (["--kind", "triple", "--input", str(coloring), "--graph", str(graph)],
            "energy graph was never halved")


@pytest.mark.parametrize("case", [triple_of_another_n, pair_of_another_n,
                                  arith_of_another_set, arith_k_below_2, triple_never_halved])
def test_witness_rejects_inputs_that_do_not_match_before_the_search(tmp_path, capsys, case):
    argv, message = case(tmp_path)
    capsys.readouterr()
    assert run(["witness", *argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "no cycle" not in captured.out and "witness" not in captured.out
    assert "clique" not in captured.out


def test_witness_on_a_graph_of_another_coloring_exits_2(tmp_path, capsys):
    # both colorings have n = 12, so only the cycle's own color check
    # tells that the graph was built from the one-color coloring
    graph, cert = tmp_path / "g.json", tmp_path / "w.json"
    assert run(["energy-graph", "--input", str(mono_file(tmp_path, 12)), "--stages", "diagonal",
                "--out", str(graph)]) == 0
    capsys.readouterr()
    assert run(["witness", "--kind", "pair", "--k", "8", "--graph", str(graph),
                "--input", str(rainbow_file(tmp_path, 12)), "--cert", str(cert)]) == 2
    captured = capsys.readouterr()
    assert "mixes colors" in captured.err
    assert captured.out == "" and not cert.exists()


def pinned_files(tmp_path):
    """The input files of PINNED_OUTCOMES, by the name its argv uses."""
    rainbow6 = tmp_path / "rainbow6.json"
    save_coloring(new_coloring(6, [(u, v, f"{u}-{v}")
                                   for u, v in itertools.combinations(range(6), 2)]), rainbow6)
    rainbow12, pair = rainbow_file(tmp_path, 12), tmp_path / "pair.json"
    assert run(["energy-graph", "--input", str(rainbow12), "--stages", "diagonal",
                "--out", str(pair)]) == 0
    values, sign = tmp_path / "values.json", tmp_path / "s.json"
    save_real_set(real_set([0, 1, 2, 3, 10, 11, 12, 13]), values)
    assert run(["energy-graph", "--values", str(values), "--r", "2", "--preset", "sign-split",
                "--seed", "6", "--out", str(sign)]) == 0
    return {"RAINBOW6": rainbow6, "RAINBOW12": rainbow12, "PAIR": pair, "VALUES": values,
            "SIGN": tmp_path / "s.p.json", "CSV": tmp_path / "sweep.csv"}


SWEEP = ["sweep", "--n", "6", "--k", "3", "--l", "2", "--seeds", "2", "--out", "CSV", "--c"]
# argv, exit code and exact stdout of outcomes no other test runs
PINNED_OUTCOMES = {
    "bipartite-absent": (["find", "--input", "RAINBOW6", "--color", "0-1", "--bipartite", "1", "2"],
                         0, "no complete bipartite 1x2 in color 0-1\n"),
    "subdivision-absent": (["find", "--input", "RAINBOW6", "--color", "0-1", "--subdivision", "3"],
                           0, "no subdivision of K_3 in color 0-1\n"),
    "pair-without-a-cycle": (["witness", "--kind", "pair", "--k", "8", "--input", "RAINBOW12",
                              "--graph", "PAIR"], 0, "no cycle of length 4\n"),
    "arith-without-a-cycle": (["witness", "--kind", "arith", "--k", "3", "--values", "VALUES",
                               "--graph", "SIGN"], 0, "no cycle of length 6 in the sign class\n"),
    "oracle-f-infeasible": (["oracle-f", "--n", "4", "--k", "3", "--l", "4"],
                            0, "f(4,3,4): infeasible, l exceeds C(k,2)\n"),
    "sweep-one-palette": (SWEEP + ["7"], 0, "c=7: 1/2 violated (rate 0.500000)\nwrote CSV\n"),
    "sweep-empty-range": (SWEEP + ["5..2"], 2, ""),
    "sweep-one-vertex": (["sweep", "--n", "1", "--k", "2", "--l", "1", "--seeds", "1",
                          "--out", "CSV", "--c", "2"], 2, ""),
}
# stderr of the outcomes above that exit 2 before writing the CSV
PINNED_ERRORS = {
    "sweep-empty-range": "empty palette range '5..2'",
    "sweep-one-vertex": "need at least 2 vertices, got n=1",
}


@pytest.mark.parametrize("case", sorted(PINNED_OUTCOMES))
def test_pinned_outcomes(tmp_path, capsys, case):
    files = pinned_files(tmp_path)
    capsys.readouterr()
    argv, code, stdout = PINNED_OUTCOMES[case]
    assert run([str(files.get(a, a)) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == stdout.replace("CSV", str(files["CSV"]))
    if case == "sweep-one-palette":
        assert files["CSV"].read_text().splitlines()[1:] == ["random,6,3,2,7,2,200,1,0.500000"]
    if case in PINNED_ERRORS:
        assert PINNED_ERRORS[case] in captured.err and not files["CSV"].exists()
