"""Record the expected outputs of each workload chain for a range of seeds.

    python3 bench/record.py --seeds 0..31

Runs every chain once per seed from the root of a source checkout and
stores, per command, the command line, exit code and digest of the
semantic output in `bench/expected.json`.  A chain whose outputs fail
the independent re-checks is not recorded.  Re-record only when the
program's output is meant to change.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import BENCH, WORKLOADS, load_program, workspace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="range A..B, inclusive")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)
    if not load_program():
        return 2
    from checks import judge
    from runner import run_chain
    from workloads import WORKLOADS as CHAINS

    lo, hi = (int(x) for x in args.seeds.split(".."))
    path = BENCH / "expected.json"
    expected = json.loads(path.read_text()) if path.is_file() else {}
    status = 0
    for name in args.workload or WORKLOADS:
        for seed in range(lo, hi + 1):
            with workspace("record") as workdir:
                inputs = CHAINS[name].generate(seed, workdir)
                it = run_chain(CHAINS[name], workdir, inputs)
                digests, problems, _ = judge(name, it.records, workdir, None)
            found = [p for ps in problems for p in ps]
            if found:
                print(f"{name} seed {seed}: not recorded: {found}", file=sys.stderr)
                status = 1
                continue
            expected.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} commands, exit codes "
                  f"{[d[1] for d in digests]}")
    path.write_text(_dump(expected))
    return status


def _dump(expected) -> str:
    """JSON with one recorded command per line."""
    blocks = []
    for name in sorted(expected):
        seeds = sorted(expected[name], key=int)
        body = ",\n".join(
            f'    "{seed}": [\n' + ",\n".join(f"      {json.dumps(d)}" for d in expected[name][seed])
            + "\n    ]" for seed in seeds)
        blocks.append(f'  "{name}": {{\n{body}\n  }}')
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
