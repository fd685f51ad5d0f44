"""Run one workload chain in process and account for every command.

`cli.run` is called exactly as the console entry point calls it.  Its
stdout and stderr are captured per command.  An exception that escapes
`cli.run` is recorded with exit code None, so it can never pass for
exit code 1 ("found"); argparse usage errors arrive as SystemExit and
keep their exit code.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass
from pathlib import Path

from locallab import cli


@dataclass
class Record:
    """One command as run: argv, exit code (None if it raised), output."""

    argv: tuple
    code: int | None
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Iteration:
    """One pass over a workload chain."""

    records: list
    chain_s: float
    artifact_bytes: int


class Session:
    """Callable that runs one CLI command and records it.

    `span(name)` returns a context manager opened around each command; the
    traced run passes the tracer's, the untimed and untraced runs none.
    `between()` runs before each command, outside the command's time; its
    total time is kept in `between_s`.
    """

    def __init__(self, span=None, between=None):
        self.records = []
        self.between_s = 0.0
        self._span = span
        self._between = between

    def __call__(self, *argv) -> int | None:
        if self._between:
            start = time.perf_counter()
            self._between()
            self.between_s += time.perf_counter() - start
        out, err = io.StringIO(), io.StringIO()
        span = self._span(argv[0]) if self._span else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # counted as a failed command, never as "found"
            code = None
            err.write(f"{type(exc).__name__}: {exc}\n")
        seconds = time.perf_counter() - start
        self.records.append(Record(tuple(argv), code, out.getvalue(), err.getvalue(), seconds))
        return code


def clear_outputs(workdir: Path, inputs) -> None:
    """Delete every file an earlier iteration left, keeping the inputs."""
    keep = set(inputs)
    for path in workdir.iterdir():
        if path.name not in keep:
            path.unlink()


def run_chain(workload, workdir: Path, inputs, span=None, between=None) -> Iteration:
    """Run the chain once in `workdir` (the current directory) and time it,
    leaving out the time spent in `between`."""
    clear_outputs(workdir, inputs)
    session = Session(span, between)
    start = time.perf_counter()
    workload.chain(session)
    chain_s = time.perf_counter() - start - session.between_s
    keep = set(inputs)
    written = sum(p.stat().st_size for p in workdir.iterdir() if p.name not in keep)
    return Iteration(session.records, chain_s, written)
