"""Tests of the benchmark itself (not collected by the package's suite).

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

Run from the root of a source checkout.  Takes under a minute: the
count-determinism test runs each traced chain twice.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import (  # noqa: E402
    BENCH, ROOT, Ledger, command_seconds, declared_units, load_program, tail, workspace)

if not load_program():
    raise SystemExit("no locallab sources to test against")

from checks import judge  # noqa: E402
from runner import run_chain  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def _negative_chain(cmd):
    cmd("energy", "--input", "coloring.json", "--r", "3", "--bound")
    # _parse_range raises ValueError on this range: an escaping exception
    cmd("sweep", "--n", "6", "--c", "100..400:50", "--k", "3", "--l", "2",
        "--seeds", "2", "--out", "sweep.csv")


class NegativeControl(unittest.TestCase):
    def test_tampered_output_and_escaping_exception_both_fail(self):
        with workspace("negative") as workdir:
            inputs = WORKLOADS["graph-chain"].generate(1, workdir)
            it = run_chain(Workload("negative", None, _negative_chain), workdir, inputs)
            self.assertEqual(it.records[0].code, 0)
            self.assertIsNone(it.records[1].code, "an exception must not read as an exit code")
            self.assertIn("ValueError", it.records[1].stderr)

            honest, problems, _ = judge("graph-chain", it.records, workdir, None)
            self.assertEqual([bool(p) for p in problems], [False, True])
            tampered = [list(d) for d in honest]
            tampered[0][2] = "0" * 16
            ledger = Ledger("graph-chain", workdir)
            ledger.add(it, tampered)
            self.assertEqual((ledger.attempted, ledger.failed), (2, 2))

            ledger = Ledger("graph-chain", workdir)
            ledger.add(it, honest + [["verify --cert missing.json", 0, "0" * 16]])
            self.assertEqual((ledger.attempted, ledger.failed), (3, 2),
                             "a recorded command that never ran counts as failed")


class CountsRepeat(unittest.TestCase):
    def test_two_runs_of_one_seed_give_identical_counts(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name), workspace(name) as workdir:
                inputs = workload.generate(3, workdir)
                units = declared_units("per_layer")
                runs = []
                for _ in range(2):
                    tracer = Tracer()
                    tracer.install()
                    try:
                        it = run_chain(workload, workdir, inputs, span=tracer.command_span)
                    finally:
                        tracer.uninstall()
                    digests, problems, _ = judge(name, it.records, workdir, None)
                    self.assertEqual([p for p in problems if p], [])
                    counts = {k: v for k, v in tracer.metrics(command_seconds(it)).items()
                              if units[k] in ("count", "bytes", "ratio")}
                    runs.append((counts, it.artifact_bytes, digests))
                self.assertEqual(runs[0], runs[1])
                self.assertGreater(runs[0][1], 0)


class Reporting(unittest.TestCase):
    def test_tail_has_ten_samples_beyond_it(self):
        self.assertEqual(tail(list(range(20))), (9, 50.0))
        self.assertEqual(tail(list(range(100, 0, -1))), (90, 90.0))
        self.assertEqual(tail([3.0, 1.0, 2.0]), (1.0, 100 / 3))

    def test_refuses_to_run_without_the_program(self):
        with workspace("bare") as bare:
            shutil.copytree(BENCH, bare / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "graph-chain",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
