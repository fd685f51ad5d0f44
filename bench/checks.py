"""Correctness gate for the benchmark chains.

Two kinds of check, both outside the timed region:

- Recorded outputs.  For each command the semantic output (exit code,
  stdout lines, certificate files, sweep CSV, element-set files) is
  reduced to a digest and compared with `expected.json` for the seed, or
  with the untimed first iteration when the seed was not recorded.
  Energy-graph files are left out: their format is expected to change.
- Independent re-checks from the inputs, in this file's own code, never
  through locallab: every certificate written verifies with exit code 0,
  every printed cycle steps between coordinate pairs of one color (or of
  one signed difference), witness sets span the colors they claim, and
  the Behrend set passes a brute-force 3-AP check.

`judge` returns one problem list per command; a command with any problem
counts as failed.
"""

from __future__ import annotations

import ast
import csv
import hashlib
import itertools
import json
import re
from pathlib import Path

_OUTPUT_FLAGS = ("--out", "--cert")
_WROTE = re.compile(r"^wrote (\S+)$", re.M)


def output_files(record, workdir: Path) -> list:
    """Files a command wrote: named by --out/--cert (which verify reads
    instead) or by a 'wrote' line."""
    names = _WROTE.findall(record.stdout)
    if record.argv[0] != "verify":
        names += [record.argv[i + 1] for i, a in enumerate(record.argv[:-1])
                  if a in _OUTPUT_FLAGS]
    return sorted({n for n in names if (workdir / n).is_file()})


def semantic(record, workdir: Path) -> dict:
    """What a command produced, minus the energy-graph files."""
    files = {}
    if record.argv[0] != "energy-graph":
        for name in output_files(record, workdir):
            text = (workdir / name).read_text()
            try:
                files[name] = json.loads(text) if name.endswith(".json") else text
            except ValueError:  # malformed JSON still has to match the record
                files[name] = text
    return {"argv": list(record.argv), "exit": record.code,
            "stdout": record.stdout.splitlines(), "files": files}


def digest(record, workdir: Path) -> list:
    """[command line, exit code, digest of the semantic output]."""
    blob = json.dumps(semantic(record, workdir), sort_keys=True).encode()
    return [" ".join(record.argv), record.code, hashlib.sha256(blob).hexdigest()[:16]]


def compare(digests, expected) -> tuple:
    """Per-command problems against a recorded list, and the number of
    recorded commands that never ran."""
    problems = [[] for _ in digests]
    for i, got in enumerate(digests):
        if i >= len(expected):
            problems[i].append("command not in the recorded chain")
        elif got[0] != expected[i][0]:
            problems[i].append(f"ran {got[0]!r}, recorded {expected[i][0]!r}")
        elif got[1] != expected[i][1]:
            problems[i].append(f"exit code {got[1]}, recorded {expected[i][1]}")
        elif got[2] != expected[i][2]:
            problems[i].append("output differs from the recorded output")
    return problems, max(0, len(expected) - len(digests))


# ---------------------------------------------------------------------------
# Independent re-checks


def _coloring(workdir: Path) -> dict:
    data = json.loads((workdir / "coloring.json").read_text())
    color = {}
    for u, v, label in data["edges"]:
        color[(u, v)] = color[(v, u)] = label
    return color


def _elements(path: Path) -> list:
    return [int(x) for x in json.loads(path.read_text())["elements"]]


def _line(pattern, text):
    m = re.search(pattern, text, re.M)
    return m.groups() if m else None


def _check_cycle(cycle, length, color) -> str | None:
    """Each step joins, coordinate by coordinate, distinct base vertices
    whose pairs all carry one color."""
    if len(cycle) != length or len(set(cycle)) != length:
        return f"cycle {cycle} is not a simple {length}-cycle"
    for i, x in enumerate(cycle):
        y = cycle[(i + 1) % length]
        if any(a == b for a, b in zip(x, y)):
            return f"step {x}-{y} repeats a coordinate"
        if len({color[(a, b)] for a, b in zip(x, y)}) != 1:
            return f"step {x}-{y} joins pairs of different colors"
    return None


def _check_witness_lines(record, color) -> str | None:
    found = _line(r"^witness set: (\[.*\])$", record.stdout)
    tally = _line(r"^repetitions: (\d+), colors spanned: (\d+) \(bound (\d+)\)$", record.stdout)
    if not found or not tally:
        return "witness output missing"
    vertices = ast.literal_eval(found[0])
    reps, spanned, bound = map(int, tally)
    k = 8 if "pair" in record.argv else 24
    if len(set(vertices)) != k:
        return f"witness set has {len(set(vertices))} vertices, not {k}"
    seen = {color[p] for p in itertools.combinations(vertices, 2)}
    if len(seen) != spanned or spanned > bound or bound != k * (k - 1) // 2 - reps:
        return f"witness spans {len(seen)} colors; printed {spanned} (bound {bound})"
    return None


def _check_graph_chain(records, workdir, color):
    for i, rec in enumerate(records):
        if rec.code != 1:
            continue
        if rec.argv[0] == "find" and "--length" in rec.argv:
            length = int(rec.argv[rec.argv.index("--length") + 1])
            m = _line(r"^cycle of length \d+: (\[.*\])$", rec.stdout)
            cycle = [tuple(v) for v in ast.literal_eval(m[0])] if m else []
            yield i, _check_cycle(cycle, length, color)
        elif rec.argv[0] == "find":
            m = _line(r"^sides (\[.*\]) and (\[.*\]) in color (\S+)$", rec.stdout)
            if not m:
                yield i, "bipartite output missing"
                continue
            s, t = ast.literal_eval(m[0]), ast.literal_eval(m[1])
            label = int(rec.argv[rec.argv.index("--color") + 1])
            if (len(s), len(t)) != (3, 4) or set(s) & set(t) or any(
                    color[(u, v)] != label for u in s for v in t):
                yield i, f"sides {s} and {t} are not complete in color {label}"
        elif rec.argv[0] == "witness":
            yield i, _check_witness_lines(rec, color)


def _check_subset_search(records, workdir, color):
    for i, rec in enumerate(records):
        if rec.argv[0] == "check":
            l = int(rec.argv[rec.argv.index("--l") + 1])
            m = _line(r"^REFUTED by subset (\(.*\)) spanning (\d+) colors$", rec.stdout)
            if rec.code == 1 and m:
                subset, claimed = ast.literal_eval(m[0]), int(m[1])
                seen = {color[p] for p in itertools.combinations(subset, 2)}
                if len(seen) != claimed or claimed >= l:
                    yield i, f"subset {subset} spans {len(seen)} colors, printed {claimed}"
            elif rec.code != 0:
                yield i, "no verdict line"
        elif rec.code != 0:
            continue
        elif rec.argv[0] == "sweep":
            with open(workdir / "sweep.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            ok = [int(r["c"]) for r in rows] == list(range(5000, 5020)) and all(
                0 <= int(r["violations"]) <= 10
                and r["rate"] == f"{int(r['violations']) / 10:.6f}" for r in rows)
            if not ok:
                yield i, "sweep.csv rows are inconsistent"
        elif rec.argv[0] == "oracle-f":
            cert = json.loads((workdir / "oracle-f.cert.json").read_text())
            k, l = cert["k"], cert["l"]
            labels = {(u, v): c for u, v, c in cert["witness"]["edges"]}
            labels.update({(v, u): c for (u, v), c in list(labels.items())})
            weak = [s for s in itertools.combinations(range(cert["n"]), k)
                    if len({labels[p] for p in itertools.combinations(s, 2)}) < l]
            if weak or len(set(labels.values())) != cert["value"]:
                yield i, "oracle-f witness does not meet its claim"


def _check_arith_chain(records, workdir, color):
    values = _elements(workdir / "values.json")
    for i, rec in enumerate(records):
        if rec.code not in (0, 1):
            continue
        if rec.argv[0] == "behrend":
            A = _elements(workdir / "behrend.json")
            members = set(A)
            ap = any(2 * y - x in members for x, y in itertools.combinations(A, 2))
            diffs = len({b - a for a, b in itertools.combinations(A, 2)})
            if (ap or len(A) != 100 or A != sorted(members) or min(A) < 1
                    or f"difference set size: {diffs}" not in rec.stdout.splitlines()):
                yield i, "Behrend set fails the brute-force check"
        elif rec.argv[0] == "diffset":
            A = _elements(workdir / "behrend.json")
            diffs = len({b - a for a, b in itertools.combinations(A, 2)})
            if f"|A| = {len(A)}, |A-A| = {diffs}" not in rec.stdout.splitlines():
                yield i, "difference set size disagrees with brute force"
        elif rec.argv[0] == "witness" and rec.code == 1:
            cert_name = rec.argv[rec.argv.index("--cert") + 1]
            rows = [tuple(r) for r in json.loads((workdir / cert_name).read_text())["clique"]]
            sign = 1 if ".p." in cert_name else -1
            flat = [v for row in rows for v in row]
            printed = _line(r"^base elements: (\[.*\])$", rec.stdout)
            if len(set(flat)) != len(flat) or not printed or ast.literal_eval(printed[0]) != sorted(flat):
                yield i, "clique rows repeat or disagree with the printed elements"
                continue
            for j, x in enumerate(rows):
                y = rows[(j + 1) % len(rows)]
                d = values[x[0]] - values[y[0]]
                if d == 0 or any(values[a] - values[b] != sign * d for a, b in zip(x[1:], y[1:])):
                    yield i, f"step {x}-{y} is not a signed difference repetition"
                    break


_INDEPENDENT = {
    "graph-chain": _check_graph_chain,
    "subset-search": _check_subset_search,
    "arith-chain": _check_arith_chain,
}


def independent(workload_name, records, workdir: Path) -> list:
    """Problems found by re-checking the outputs from the inputs."""
    problems = [[] for _ in records]
    for i, rec in enumerate(records):
        if rec.code not in (0, 1):
            problems[i].append(f"exit code {rec.code}: {rec.stderr.strip()[:200]}")
        if rec.argv[0] == "verify" and rec.code != 0:
            problems[i].append("certificate does not verify")
    for i, rec in enumerate(records):
        for name in output_files(rec, workdir):
            if name.endswith(".cert.json") and not any(
                    r.argv[:3] == ("verify", "--cert", name) and r.code == 0
                    for r in records[i + 1:]):
                problems[i].append(f"{name} was written but never verified")
    color = _coloring(workdir) if (workdir / "coloring.json").is_file() else None
    try:
        for i, problem in _INDEPENDENT[workload_name](records, workdir, color):
            if problem:
                problems[i].append(problem)
    except (OSError, ValueError, KeyError, IndexError, SyntaxError, TypeError) as exc:
        problems[-1].append(f"re-check could not read an output: {type(exc).__name__}: {exc}")
    return problems


def judge(workload_name, records, workdir: Path, expected) -> tuple:
    """(digests, problems per command, recorded commands that never ran).

    `expected` is a list of digests to match, or None to skip that part.
    """
    digests = [digest(r, workdir) for r in records]
    problems = independent(workload_name, records, workdir)
    if expected is None:
        return digests, problems, 0
    recorded, missing = compare(digests, expected)
    for mine, theirs in zip(problems, recorded):
        mine.extend(theirs)
    return digests, problems, missing
