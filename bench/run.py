"""Seeded benchmark of the locallab command chains.

    python3 bench/run.py --workload graph-chain --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the root of a source checkout; the program is imported from
`src/`.  One process runs one workload as a closed loop with a single
client: each iteration runs the workload's whole command chain through
`locallab.cli.run`, and the next starts only when the last has ended.
An untimed first iteration fills caches and pins the outputs that later
iterations must reproduce when the seed has no recorded outputs in
`expected.json`.  Iterations start until the next one would end past
`--seconds`.

Chain and set-up times are reported at a reference host speed.  A fixed
pure-Python loop is timed before every command, after every chain and
around every set-up sample; on a shared host its time swings by half
within minutes, and chain times swing with it.  Each chain or set-up time
is multiplied by CALIB_REF_S over the mean loop time around it.  The loop
does not touch the program, so a change to the program moves the scaled
time as it moves wall time.  The unscaled median and the mean loop time
are printed on the summary line.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates
untraced and traced iterations and reports the per-layer metrics from
the traced ones, plus their overhead.  `--workload all` runs every
workload in its own process and prints each one's metrics.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` (commands) and `metrics`.  Exit code 2 means the
program could not be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("graph-chain", "subset-search", "arith-chain")
SETUP_REPEATS = 7
TAIL_BEYOND = 10
CALIB_LOOPS = 100_000
# Calibration time that defines the reference host speed: a chain or set-up
# time is scaled by CALIB_REF_S over the mean calibration time around it.
CALIB_REF_S = 0.010

# One fresh interpreter per set-up sample: imports plus input generation.
_SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from pathlib import Path
import locallab.cli
from workloads import WORKLOADS
WORKLOADS[sys.argv[3]].generate(int(sys.argv[4]), Path(sys.argv[5]))
print(time.perf_counter() - start)
"""


@contextlib.contextmanager
def workspace(name):
    """A fresh directory under `.bench_work/` in this checkout, made the
    current directory and removed afterwards."""
    path = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield path
    finally:
        os.chdir(cwd)
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()


def calibrate() -> float:
    """Time a fixed pure-Python loop: drift here is the host, not the code."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIB_LOOPS):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - start


def tail(samples) -> tuple:
    """(value, percentile) of the highest nearest-rank percentile with at
    least ten samples above it; the minimum when there are too few."""
    ordered = sorted(samples)
    rank = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[rank], 100 * (rank + 1) / len(ordered)


def declared_units(section) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def load_program() -> bool:
    """Put this checkout's `src/` first on the path and import locallab."""
    if not (SRC / "locallab" / "cli.py").is_file():
        print(f"error: no locallab sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import locallab.cli

    if Path(locallab.cli.__file__).resolve().parent != SRC / "locallab":
        print(f"error: imported locallab from {locallab.cli.__file__}", file=sys.stderr)
        return False
    return True


def measure_setup(name, seed, workroot: Path) -> list:
    """Set-up times, each scaled by the calibration loop timed around it."""
    samples = []
    before = calibrate()
    for i in range(SETUP_REPEATS):
        target = workroot / f"setup-{i}"
        target.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_PROBE, str(SRC), str(BENCH), name, str(seed), str(target)],
            capture_output=True, text=True, timeout=120, check=True)
        shutil.rmtree(target)
        after = calibrate()
        samples.append(float(proc.stdout.split()[-1]) * 2 * CALIB_REF_S / (before + after))
        before = after
    return samples


class Ledger:
    """Commands attempted and failed, with the problems behind failures."""

    def __init__(self, name, workdir):
        self.name = name
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, iteration, expected):
        from checks import judge

        digests, problems, missing = judge(self.name, iteration.records, self.workdir, expected)
        self.attempted += len(iteration.records) + missing
        self.failed += sum(1 for p in problems if p) + missing
        for record, found in zip(iteration.records, problems):
            if found:
                self.problems.append(f"{' '.join(record.argv)}: {'; '.join(found)}")
        if missing:
            self.problems.append(f"{missing} recorded command(s) never ran")
        return digests


def command_seconds(iteration) -> dict:
    seconds = {}
    for record in iteration.records:
        seconds[record.argv[0]] = seconds.get(record.argv[0], 0.0) + record.seconds
    return seconds


def run_workload(name, seed, seconds, trace) -> dict:
    # these modules import locallab, so they load after load_program()
    from runner import run_chain
    from tracing import Tracer
    from workloads import WORKLOADS as CHAINS

    workload = CHAINS[name]
    with workspace(name) as workdir:
        setup = measure_setup(name, seed, workdir)
        inputs = workload.generate(seed, workdir)
        recorded = BENCH / "expected.json"
        expected = None
        if recorded.is_file():
            expected = json.loads(recorded.read_text()).get(name, {}).get(str(seed))
        ledger = Ledger(name, workdir)
        tracer = Tracer() if trace else None

        # Untimed first iteration: lazy set-up, the memory probe, and the
        # reference outputs when the seed was not recorded.
        if tracer:
            tracer.probe_memory = True
            tracer.install()
        try:
            first = run_chain(workload, workdir, inputs,
                              span=tracer.command_span if tracer else None)
        finally:
            if tracer:
                tracer.uninstall()
                tracer.probe_memory = False
        digests = ledger.add(first, expected)
        reference = expected if expected is not None else digests

        times = {False: [], True: []}  # scaled chain times, by traced or not
        unscaled, calib, artifacts, layers = [], [], [], []
        start = time.perf_counter()
        while True:
            traced = bool(trace) and len(times[False]) > len(times[True])
            gc.collect()
            mark = len(calib)
            if traced:
                tracer.reset()
                tracer.install()
            try:
                it = run_chain(workload, workdir, inputs,
                               span=tracer.command_span if traced else None,
                               between=lambda: calib.append(calibrate()))
            finally:
                if traced:
                    tracer.uninstall()
            calib.append(calibrate())
            if traced:
                layers.append(tracer.metrics(command_seconds(it)))
            else:
                unscaled.append(it.chain_s)
            times[traced].append(it.chain_s * CALIB_REF_S / statistics.fmean(calib[mark:]))
            artifacts.append(it.artifact_bytes)
            ledger.add(it, reference)
            done = times[False] and (times[True] or not trace)
            if done and time.perf_counter() - start + it.chain_s > seconds:
                break

    for problem in ledger.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    untraced = times[False]
    calib_s = statistics.fmean(calib)
    if trace:
        metrics = {k: statistics.median(row[k] for row in layers) for k in layers[0]}
        metrics["trace.overhead_ratio"] = statistics.median(times[True]) / statistics.median(untraced)
        metrics["host.calib_s"] = calib_s
        print(f"{name} seed={seed} traced: {len(times[True])} traced and {len(untraced)} "
              f"untraced iterations, overhead {metrics['trace.overhead_ratio']:.3f}x, "
              f"host.calib_s={calib_s:.4f}")
    else:
        tail_s, percentile = tail(untraced)
        metrics = {
            "chain_s_p50": statistics.median(untraced),
            "chain_s_tail": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setup),
            "artifact_bytes": statistics.median(artifacts),
        }
        units = declared_units("end_to_end")
        print(f"{name} seed={seed}: " + ", ".join(
            f"{k}={v:.6g} {units[k]}" for k, v in metrics.items())
            + f", failed_ratio={ledger.failed}/{ledger.attempted}"
            f" (chain_s_tail is p{percentile:.0f} of {len(untraced)} iterations)"
            f"; host.calib_s={calib_s:.5f} s over {len(calib)} samples,"
            f" unscaled chain_s_p50={statistics.median(unscaled):.6g} s")
    units = declared_units("per_layer" if trace else "end_to_end")
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process; one summary and one JSON line."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
        total["metrics"][f"{name}.failed_ratio"] = {
            "value": result["failed"] / result["attempted"], "unit": "ratio"}
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not load_program():
        return 2
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
