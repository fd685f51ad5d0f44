"""Per-layer tracing from outside the program.

`Tracer.install()` replaces each traced public function of locallab, in
every locallab module that holds a reference to it, with a wrapper that
opens a span; `uninstall()` puts the originals back.  The program's
source is never modified.  Spans nest through a stack, so a function's
self time is its span's duration minus the time of the traced spans it
caused.  Work counts come from return values and provenance only.

Layers are the locallab modules.  The benchmark opens one `cli` span per
command, named after the subcommand; `_save_graph` and `_load_graph` are
traced as part of the `cli` layer because the graph JSON encoding and
decoding happen inside them.
"""

from __future__ import annotations

import importlib
import math
import re
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

TRACED = {
    "coloring": ["load_coloring", "new_coloring", "random_coloring", "check_local_property"],
    "energy": ["energy"],
    "energy_graph": [
        "build_second_energy_graph", "build_rth_energy_graph", "prune_diagonal",
        "prune_rare_colors", "prune_coordinate_neighbors", "halve_parts_prune",
        "sign_decompose", "EnergyGraph.adjacency", "energy_graph_to_dict",
        "energy_graph_from_dict",
    ],
    "partition": ["partition_for_rth_energy"],
    "forbidden": [
        "find_cycle", "validate_cycle", "witness_from_cycle_2nd", "witness_from_cycle_3rd",
        "clique_from_cycle_arith", "find_complete_bipartite",
    ],
    "certificates": ["verify_certificate", "save_certificate", "load_certificate"],
    "oracle": ["exact_f", "exact_g_integers"],
    "arithmetic": ["behrend_set", "difference_set", "is_3ap_free", "coloring_from_set"],
    "cli": ["_save_graph", "_load_graph"],
}

COMMANDS = ["energy", "energy-graph", "find", "witness", "verify", "check", "sweep",
            "oracle-f", "oracle-g", "behrend", "diffset"]

_BUILDS = ("build_second_energy_graph", "build_rth_energy_graph")
_EDGE_STAGES = _BUILDS + ("prune_diagonal", "prune_rare_colors",
                          "prune_coordinate_neighbors", "halve_parts_prune")
_TRIALS = re.compile(r"trials=(\d+)")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Spans and counters for the traced functions of one iteration.

    `reset()` starts a new iteration; `metrics()` reads it out.  With
    `probe_memory` set, each energy-graph build runs under tracemalloc to
    measure its peak allocation (slow, so only in an untimed iteration).
    """

    def __init__(self):
        self._stack = []
        self._patched = []
        self.probe_memory = False
        self.bytes_per_edge = 0.0
        self.uncounted = set()
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    # -- spans ---------------------------------------------------------------

    def _close(self, key, frame, start):
        elapsed = time.perf_counter() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        self.calls[key] += 1
        self.total_s[key] += elapsed
        self.self_s[key] += elapsed - frame[0]

    @contextmanager
    def command_span(self, command):
        frame = [0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(f"cli.{command}", frame, start)

    def _wrap(self, key, fn):
        name = key.rsplit(".", 1)[-1]
        build = name in _BUILDS
        stack = self._stack

        def traced(*args, **kwargs):
            probe = build and self.probe_memory
            if probe:
                tracemalloc.start()
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(key, frame, start)
                if probe:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            try:
                if probe and result.num_edges:
                    self._probe(peak, result.num_edges)
                self._count(name, args, kwargs, result)
            except (AttributeError, TypeError, KeyError, IndexError) as exc:
                # a changed return value must not fail the traced command
                if key not in self.uncounted:
                    self.uncounted.add(key)
                    print(f"trace: cannot count {key}: {exc!r}", file=sys.stderr)
            return result

        traced.__wrapped__ = fn
        return traced

    def _probe(self, peak, edges):
        # the largest graph built in the probed iteration sets the figure
        if edges >= self.counts["probe.edges"]:
            self.counts["probe.edges"] = edges
            self.bytes_per_edge = peak / edges

    def _count(self, name, args, kwargs, result):
        c = self.counts
        if name in _EDGE_STAGES:
            c[f"{name}.edges"] += result.num_edges
        if name == "halve_parts_prune":
            c[f"{name}.trials"] += int(_TRIALS.search(str(result.provenance[-1])).group(1))
        elif name == "sign_decompose":
            c[f"{name}.edges"] += sum(eg.num_edges for eg in result.values())
        elif name == "partition_for_rth_energy":
            c[f"{name}.trials"] += result.trials_used
            c[f"{name}.met"] += int(result.met_threshold)
        elif name == "check_local_property":
            n = _arg(args, kwargs, 0, "g").n
            c["subsets"] += math.comb(n, result.k) if result.mode == "exhaustive" else result.trials
        elif name == "find_cycle":
            c[f"{name}.found"] += int(result is not None)
        elif name == "verify_certificate":
            c[f"{name}.ok"] += int(result[0])
        elif name in ("exact_f", "exact_g_integers"):
            c[f"{name}.nodes"] += result.nodes_explored
            c[f"{name}.classes"] += result.canonical_classes
        elif name == "_save_graph":
            c["graph_json.bytes"] += Path(_arg(args, kwargs, 1, "path")).stat().st_size

    # -- install -------------------------------------------------------------

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "locallab"]
        for layer, names in TRACED.items():
            module = importlib.import_module(f"locallab.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                if "." in name:
                    owner_name, attr = name.split(".")
                    owner = getattr(module, owner_name)
                    self._patch(owner, attr, self._wrap(key, getattr(owner, attr)))
                    continue
                original = getattr(module, name, None)
                if original is None:
                    print(f"trace: {key} not found, reported as 0", file=sys.stderr)
                    continue
                wrapper = self._wrap(key, original)
                for m in modules:
                    if getattr(m, name, None) is original:
                        self._patch(m, name, wrapper)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- read out ------------------------------------------------------------

    def metrics(self, command_seconds) -> dict:
        """Per-layer figures of the iteration since the last reset.

        `command_seconds` maps each subcommand to its wall time in the
        iteration, as measured around `cli.run`.
        """
        out = {}
        for layer, names in TRACED.items():
            if layer != "cli":
                for name in names:
                    out[f"{layer}.{name}.self_s"] = self.self_s[f"{layer}.{name}"]
        for command in COMMANDS:
            out[f"cli.{command}.s"] = command_seconds.get(command, 0.0)
        c = self.counts
        cli_self = sum(v for k, v in self.self_s.items() if k.startswith("cli."))
        out.update({
            "cli.self_s": cli_self,
            "cli.graph_json.save_s": self.total_s["cli._save_graph"],
            "cli.graph_json.load_s": self.total_s["cli._load_graph"],
            "cli.graph_json.bytes": c["graph_json.bytes"],
            "coloring.subsets": c["subsets"],
            "coloring.subsets_per_s": _rate(c["subsets"],
                                            self.self_s["coloring.check_local_property"]),
            "energy_graph.EnergyGraph.adjacency.calls": self.calls["energy_graph.EnergyGraph.adjacency"],
            "energy_graph.bytes_per_edge": self.bytes_per_edge,
            "partition.partition_for_rth_energy.trials": c["partition_for_rth_energy.trials"],
            "partition.partition_for_rth_energy.met_ratio": _rate(
                c["partition_for_rth_energy.met"], self.calls["partition.partition_for_rth_energy"]),
            "forbidden.find_cycle.found_ratio": _rate(
                c["find_cycle.found"], self.calls["forbidden.find_cycle"]),
            "certificates.verify_certificate.ok_ratio": _rate(
                c["verify_certificate.ok"], self.calls["certificates.verify_certificate"]),
            "energy_graph.halve_parts_prune.trials": c["halve_parts_prune.trials"],
        })
        for name in ("load_coloring", "new_coloring", "random_coloring", "check_local_property"):
            out[f"coloring.{name}.calls"] = self.calls[f"coloring.{name}"]
        out["energy.energy.calls"] = self.calls["energy.energy"]
        for name in _EDGE_STAGES + ("sign_decompose",):
            out[f"energy_graph.{name}.edges"] = c[f"{name}.edges"]
        for name in ("exact_f", "exact_g_integers"):
            key = f"oracle.{name}"
            out[f"{key}.nodes"] = c[f"{name}.nodes"]
            out[f"{key}.classes"] = c[f"{name}.classes"]
            out[f"{key}.nodes_per_s"] = _rate(c[f"{name}.nodes"], self.self_s[key])
        return out


def _rate(count, base):
    return count / base if base else 0.0
