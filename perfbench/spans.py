"""Spans recorded around the benchmark's calls into bclayout, and the
per-layer metrics derived from them.

A span has a name ``<module>.<function>``, a start and end (seconds since
the tracer was made), the span it is nested in (``parent``), and the item
it belongs to. Where a public call contains work of another layer, the
benchmark calls that inner layer again, separately, on the same input; the
inner span then names the outer one in ``within``, and the outer span's
self time is its duration minus the durations of the spans ``within`` it.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from contextlib import contextmanager

MODULES = ("rng", "families", "core", "layout", "isoperimetric", "formats", "cli")


class Tracer:
    """Keeps spans in memory; nothing is written until the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, item: int, *, within: dict | None = None):
        rec = {
            "id": len(self.spans),
            "name": name,
            "item": item,
            "parent": self._stack[-1] if self._stack else None,
            "within": None if within is None else within["id"],
            "start": 0.0,
            "end": 0.0,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter() - self._t0
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    @staticmethod
    def peak(span: dict, call) -> None:
        """Repeat a span's call under tracemalloc, outside the span so that
        tracing allocations does not slow the timed call, and store the
        peak of Python and numpy allocations during it."""
        tracemalloc.start()
        try:
            call()
            span["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


def _sum(names):
    def f(t):
        return sum(t["dur"].get(n, 0.0) for n in names)
    return f


def _count(key):
    def f(t):
        return t["counts"].get(key, 0)
    return f


def _peak(name):
    def f(t):
        return t["peak"].get(name, 0.0)
    return f


def _self(module):
    def f(t):
        return t["self"].get(module, 0.0)
    return f


def _rate(count_key, names):
    def f(t):
        busy = _sum(names)(t)
        return t["counts"].get(count_key, 0) / busy if busy > 0 else 0.0
    return f


# metric name -> (unit, value for one item from that item's span totals)
PER_LAYER = {
    "rng.draw_s": ("s", _sum(["rng.permutation"])),
    "rng.perm_elements": ("count", _count("perm_elements")),
    "families.build_s": ("s", _sum(["families.random_bc", "families.build"])),
    "families.tree_self_s": ("s", _self("families")),
    "families.tree_nodes": ("count", _count("tree_nodes")),
    "core.materialize_s": ("s", _sum(["core.materialize"])),
    "core.materialize_peak_mb": ("MB", _peak("core.materialize")),
    "core.edges": ("count", _count("edges")),
    "core.canonicalize_s": ("s", _sum(["core.Graph"])),
    "core.validate_s": ("s", _sum(["core.validate"])),
    "core.validate_peak_mb": ("MB", _peak("core.validate")),
    "core.self_s": ("s", _self("core")),
    "layout.arrange_s": ("s", _sum(["layout.bc_arrangement"])),
    "layout.cost_s": ("s", _sum(["layout.arrangement_cost"])),
    "layout.cut_profile_s": ("s", _sum(["layout.cut_profile"])),
    "layout.certify_s": ("s", _sum(["layout.certify"])),
    "layout.bnb_s": ("s", _sum(["layout.minla_exact"])),
    "layout.bnb_nodes": ("count", _count("bnb_nodes")),
    "layout.bnb_nodes_per_s": ("1/s", _rate("bnb_nodes", ["layout.minla_exact"])),
    "layout.self_s": ("s", _self("layout")),
    "isoperimetric.bound_s": ("s", _sum(["isoperimetric.sum_edge_boundary"])),
    "isoperimetric.bound_peak_mb": ("MB", _peak("isoperimetric.sum_edge_boundary")),
    "isoperimetric.subset_tables_s": ("s", _sum(["isoperimetric.brute_force_tables"])),
    "isoperimetric.subsets_per_s": (
        "1/s", _rate("subsets", ["isoperimetric.brute_force_tables"])),
    "isoperimetric.subset_tables_peak_mb": (
        "MB", _peak("isoperimetric.brute_force_tables")),
    "isoperimetric.self_s": ("s", _self("isoperimetric")),
    "formats.dump_graph_s": ("s", _sum(["formats.dump_graph_json"])),
    "formats.load_graph_s": ("s", _sum(["formats.load_graph_json", "formats.load_graph_any"])),
    "formats.dump_arrangement_s": ("s", _sum(["formats.dump_arrangement"])),
    "formats.load_arrangement_s": ("s", _sum(["formats.load_arrangement"])),
    "formats.load_edge_list_s": ("s", _sum(["formats.load_edge_list"])),
    "formats.bytes_written": ("count", _count("bytes_written")),
    "formats.bytes_read": ("count", _count("bytes_read")),
    "formats.self_s": ("s", _self("formats")),
    "cli.self_s": ("s", _self("cli")),
}


def item_totals(spans: list[dict]) -> dict[int, dict]:
    """Per item: summed duration and summed counts by span name, the largest
    tracemalloc peak by span name, and the self time of each module."""
    inner: dict[int, float] = {}
    for s in spans:
        if s["within"] is not None:
            inner[s["within"]] = inner.get(s["within"], 0.0) + s["end"] - s["start"]
    totals: dict[int, dict] = {}
    for s in spans:
        t = totals.setdefault(
            s["item"], {"dur": {}, "counts": {}, "peak": {}, "self": {}}
        )
        dur = s["end"] - s["start"]
        t["dur"][s["name"]] = t["dur"].get(s["name"], 0.0) + dur
        for key, value in s["counts"].items():
            t["counts"][key] = t["counts"].get(key, 0) + value
        if "peak_mb" in s:
            t["peak"][s["name"]] = max(t["peak"].get(s["name"], 0.0), s["peak_mb"])
        module = s["name"].split(".", 1)[0]
        if module in MODULES:
            t["self"][module] = t["self"].get(module, 0.0) + dur - inner.get(s["id"], 0.0)
    return totals


def per_layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Median over items of every per-layer metric. A layer that the
    workload never calls reads 0."""
    totals = list(item_totals(spans).values())
    return {
        name: statistics.median(fn(t) for t in totals) if totals else 0.0
        for name, (unit, fn) in PER_LAYER.items()
    }


def check_spans(spans: list[dict]) -> list[str]:
    """Problems with the shape of a span list; empty when well formed."""
    problems = []
    by_id = {}
    for pos, s in enumerate(spans):
        if s.get("id") != pos:
            problems.append(f"span at {pos} has id {s.get('id')}")
            continue
        by_id[pos] = s
        if not isinstance(s.get("name"), str) or not s["name"]:
            problems.append(f"span {pos} has no name")
        if not s["start"] <= s["end"]:
            problems.append(f"span {pos} ends before it starts")
        for key in ("parent", "within"):
            ref = s.get(key)
            if ref is None:
                continue
            other = by_id.get(ref)
            if other is None:
                problems.append(f"span {pos} names unknown {key} {ref}")
            elif other["item"] != s["item"]:
                problems.append(f"span {pos} and its {key} belong to different items")
            elif key == "parent" and not (
                other["start"] <= s["start"] and s["end"] <= other["end"]
            ):
                problems.append(f"span {pos} is not inside its parent {ref}")
    return problems
