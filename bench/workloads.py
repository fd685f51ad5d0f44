"""The three benchmark workloads: seeded inputs and fixed command chains.

Each workload writes its inputs from a seed, then runs one fixed chain
of `locallab` commands through `cli.run`, in process, the way a user
would type them.  The program sees only the input files; the seed never
reaches its arguments.  Later steps may depend on the exit code of an
earlier one (a certificate is verified only when it was written).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from locallab.arithmetic import real_set, save_real_set
from locallab.coloring import random_coloring, save_coloring


@dataclass(frozen=True)
class Workload:
    """Name, input generator and command chain of one workload.

    `generate(seed, directory)` writes the inputs and returns their file
    names; `chain(cmd)` runs the commands, where `cmd(*argv)` runs one
    command and returns its exit code (None when it raised).
    """

    name: str
    generate: Callable
    chain: Callable


# ---------------------------------------------------------------------------
# graph-chain: about 95k energy edges; graph build, pruning, graph JSON and
# cycle search do nearly all the work.

def _graph_inputs(seed, directory):
    save_coloring(random_coloring(30, 4, seed), directory / "coloring.json")
    return ["coloring.json"]


def _graph_chain(cmd):
    cmd("energy", "--input", "coloring.json", "--r", "3", "--bound")
    cmd("energy-graph", "--input", "coloring.json", "--stages", "diagonal,rare:50",
        "--out", "pair.graph.json")
    cmd("find", "--graph", "pair.graph.json", "--length", "4")
    if cmd("witness", "--kind", "pair", "--input", "coloring.json",
           "--graph", "pair.graph.json", "--k", "8", "--cert", "pair.cert.json") == 1:
        cmd("verify", "--cert", "pair.cert.json", "--input", "coloring.json")
    cmd("energy-graph", "--input", "coloring.json", "--preset", "triple-cycle",
        "--out", "triple.graph.json")
    cmd("find", "--graph", "triple.graph.json", "--length", "8")
    if cmd("witness", "--kind", "triple", "--input", "coloring.json",
           "--graph", "triple.graph.json", "--cert", "triple.cert.json") == 1:
        cmd("verify", "--cert", "triple.cert.json", "--input", "coloring.json")
    cmd("find", "--input", "coloring.json", "--color", "0", "--bipartite", "3", "4")


# ---------------------------------------------------------------------------
# subset-search: k-subset counting as one flat scan (twice), as 200 tiny
# scans, and inside two backtracking oracles; no energy graph.

def _subset_inputs(seed, directory):
    save_coloring(random_coloring(40, 3000, seed), directory / "coloring.json")
    return ["coloring.json"]


def _subset_chain(cmd):
    cmd("check", "--input", "coloring.json", "--k", "5", "--l", "9",
        "--cert", "verdict.cert.json")
    cmd("verify", "--cert", "verdict.cert.json", "--input", "coloring.json")
    cmd("sweep", "--n", "14", "--c", "5000..5019", "--k", "4", "--l", "6",
        "--seeds", "10", "--mode", "exhaustive", "--out", "sweep.csv")
    cmd("oracle-f", "--n", "6", "--k", "5", "--l", "7", "--cert", "oracle-f.cert.json")
    cmd("oracle-g", "--n", "7", "--k", "4", "--l", "5", "--max-value", "18")
    cmd("verify", "--cert", "oracle-f.cert.json")


# ---------------------------------------------------------------------------
# arith-chain: Behrend shell counting, then the partitioned energy graph of
# an arithmetic coloring split into its two sign classes.

def _arith_inputs(seed, directory):
    values = random.Random(seed).sample(range(1, 241), 120)
    save_real_set(real_set(values), directory / "values.json")
    return ["values.json"]


def _arith_chain(cmd):
    cmd("behrend", "--n", "100", "--out", "behrend.json")
    cmd("diffset", "--input", "behrend.json")
    cmd("energy-graph", "--values", "values.json", "--preset", "sign-split",
        "--out", "sign.graph.json")
    for tag in ("p", "m"):
        if cmd("witness", "--kind", "arith", "--values", "values.json",
               "--graph", f"sign.graph.{tag}.json", "--k", "3",
               "--cert", f"clique.{tag}.cert.json") == 1:
            cmd("verify", "--cert", f"clique.{tag}.cert.json", "--values", "values.json")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("graph-chain", _graph_inputs, _graph_chain),
        Workload("subset-search", _subset_inputs, _subset_chain),
        Workload("arith-chain", _arith_inputs, _arith_chain),
    )
}
