"""Span recorder for the traced run.

Wrappers replace fourcolor's public functions at the module attribute their
caller looks up (coloring.py imports certify_class by name, so the wrapper
goes on fourcolor.coloring.certify_class). Each call becomes a span with its
parent; spans stay in memory and are written out once the run ends. A layer's
self time is its spans' durations minus the time of their child spans.
"""

from __future__ import annotations

import functools
import json
import os
from array import array
from collections import Counter
from time import perf_counter

# span name -> every (module, attribute) a caller on the measured path looks up
WRAPPED = {
    "graph.parse": [("graph", "parse_graph6")],
    "graph.complement": [("approx", "complement")],
    "graph.induced_subgraph": [("coloring", "induced_subgraph"), ("approx", "induced_subgraph"),
                               ("reduction", "induced_subgraph")],
    "graph.components": [("coloring", "connected_components")],
    "patterns.certify": [("coloring", "certify_class"), ("approx", "certify_class")],
    "patterns.find_induced": [("coloring", "find_induced"), ("structure", "find_induced")],
    "reduction.reduce": [("coloring", "reduce_to_core")],
    "reduction.reinsert": [("coloring", "reinsert_colors")],
    "structure.select_h1": [("coloring", "select_best_h1")],
    "structure.select_h2": [("coloring", "select_best_h2")],
    "structure.partition": [("coloring", "c5_partition"), ("coloring", "h1_partition"),
                            ("structure", "c5_partition"), ("structure", "h1_partition")],
    "coloring.case": [("coloring", "color_h1_case"), ("coloring", "color_h2_case"),
                      ("coloring", "color_w5_case"), ("coloring", "color_c5_case")],
    "coloring.fallback": [("coloring", "color_fallback")],
    "coloring.verify": [("coloring", "verify_coloring"), ("approx", "verify_coloring")],
    "coloring.four_color": [("approx", "four_color")],
    "approx.is_chordal": [("approx", "is_chordal")],
    "approx.chordal_color": [("approx", "chordal_color")],
}

# per-layer metric -> (kind, span or counter name); "_s" metrics are self time
PER_CALL = {
    "patterns.certify_s": ("self", "patterns.certify"),
    "patterns.certify_calls": ("calls", "patterns.certify"),
    "patterns.find_induced_s": ("self", "patterns.find_induced"),
    "patterns.find_induced_calls": ("calls", "patterns.find_induced"),
    "reduction.reduce_s": ("self", "reduction.reduce"),
    "reduction.steps": ("count", "reduction.steps"),
    "reduction.core_vertices": ("count", "reduction.core_vertices"),
    "reduction.reinsert_s": ("self", "reduction.reinsert"),
    "structure.select_h1_s": ("self", "structure.select_h1"),
    "structure.select_h2_s": ("self", "structure.select_h2"),
    "structure.h1_witnesses": ("count", "structure.h1_witnesses"),
    "structure.h2_witnesses": ("count", "structure.h2_witnesses"),
    "structure.partition_s": ("self", "structure.partition"),
    "coloring.case_s": ("self", "coloring.case"),
    "coloring.fallback_s": ("self", "coloring.fallback"),
    "coloring.verify_s": ("self", "coloring.verify"),
    "coloring.hits.h1": ("count", "coloring.hits.h1"),
    "coloring.hits.h2": ("count", "coloring.hits.h2"),
    "coloring.hits.w5": ("count", "coloring.hits.w5"),
    "coloring.hits.c5": ("count", "coloring.hits.c5"),
    "coloring.hits.fallback": ("count", "coloring.hits.fallback"),
    "approx.is_chordal_s": ("self", "approx.is_chordal"),
    "approx.is_chordal_calls": ("calls", "approx.is_chordal"),
    "approx.chordal_color_s": ("self", "approx.chordal_color"),
    "graph.complement_s": ("self", "graph.complement"),
    "graph.induced_subgraph_s": ("self", "graph.induced_subgraph"),
    "graph.induced_subgraph_calls": ("calls", "graph.induced_subgraph"),
}
SETUP = {"graph.parse_s": "graph.parse", "lab.enumerate_s": "lab.enumerate"}


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open = [-1]
        self.counts: Counter[str] = Counter()

    def begin(self, name: str) -> int:
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        i = len(self.start)
        self.kind.append(nid)
        self.parent.append(self.open[-1])
        self.end.append(0.0)
        self.open.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.open.pop()

    def traced(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if after is not None:
                after(out)
            return out
        return wrapper

    def count_hits(self, out) -> None:
        self.counts.update(f"coloring.hits.{r.lemma}" for r in out[1].records)

    def count_reduction(self, out) -> None:
        self.counts["reduction.steps"] += len(out[1].steps)
        self.counts["reduction.core_vertices"] += len(out[1].core_vertices)

    def install(self, fourcolor) -> None:
        """Wrap every function in WRAPPED, plus the generators and the
        counters read from return values."""
        import importlib

        mod = {m: importlib.import_module(f"fourcolor.{m}") for m in
               ("graph", "approx", "coloring", "reduction", "structure", "lab")}
        after = {"coloring.four_color": self.count_hits, "reduction.reduce": self.count_reduction}
        for name, sites in WRAPPED.items():
            for m, attr in sites:
                setattr(mod[m], attr, self.traced(name, getattr(mod[m], attr), after.get(name)))
        fourcolor.four_color = self.traced("coloring.four_color", fourcolor.four_color, self.count_hits)
        fourcolor.approx_color = self.traced("approx.approx_color", fourcolor.approx_color)

        enumerate_members = mod["lab"].enumerate_class_members
        mod["lab"].enumerate_class_members = self.traced(
            "lab.enumerate", lambda *a, **k: list(enumerate_members(*a, **k)))

        enumerate_induced = mod["structure"].enumerate_induced

        def counted(g, pattern, containing=None):
            key = f"structure.{str(pattern).lower()}_witnesses"
            for w in enumerate_induced(g, pattern, containing):
                self.counts[key] += 1
                yield w
        mod["structure"].enumerate_induced = counted

    def self_times(self, first: int = 0) -> tuple[Counter, Counter]:
        """(self seconds, span count) per span name over spans first..end."""
        child = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        own, calls = Counter(), Counter()
        for i in range(first, len(self.start)):
            name = self.names[self.kind[i]]
            own[name] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
        return own, calls

    def metrics(self, loop_start: int, loop_calls: int) -> dict[str, float]:
        """Per-layer metrics: loop values per timed call, set-up values as totals."""
        own, calls = self.self_times(loop_start)
        setup_own, _ = self.self_times()
        out = {}
        for metric, (kind, key) in PER_CALL.items():
            total = {"self": own, "calls": calls, "count": self.counts}[kind][key]
            out[metric] = total / loop_calls
        for metric, key in SETUP.items():
            out[metric] = float(setup_own[key] - own[key])
        return out

    def write(self, stem: str, header: dict) -> None:
        """Span table: `<stem>.json` holds the header and the span names;
        `<stem>.bin` holds, one array after another in native byte order,
        each span's name index and parent index (int32, -1 for none) and its
        start and end (float64 seconds), in recording order."""
        os.makedirs(os.path.dirname(stem), exist_ok=True)
        with open(f"{stem}.json", "w") as f:
            json.dump({**header, "names": self.names, "spans": len(self.start)}, f)
        with open(f"{stem}.bin", "wb") as f:
            for arr in (self.kind, self.parent, self.start, self.end):
                arr.tofile(f)
