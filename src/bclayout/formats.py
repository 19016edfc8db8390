"""File formats: graph JSON, plain edge lists, arrangement files, reports.

Graph JSON schema: an object with `dimension` (integer), `edges` (array of
[u, v] pairs with u < v, sorted lexicographically), and an optional `tree`
(nested objects, `{"leaf": true}` or `{"left": ..., "right": ..., "phi":
[...]}`). The plain edge-list text format is `N M` on the first line, then
M lines `u v`; arrangement files hold one `vertex_id position` line per
vertex. All integers are written in exact decimal, never scientific
notation, so values survive round trips at any magnitude.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable

import numpy as np

from .core import BcGraph, ConstructionTree, Graph
from .isoperimetric import edge_boundary, max_induced_edges
from .layout import LayoutReport, LinearArrangement


def tree_to_json_obj(tree: ConstructionTree) -> dict:
    """The nested JSON object of a tree, built bottom-up a level at a time."""
    objs = [{"leaf": True}] * (1 << (tree.dimension - 1))
    for phis, which in tree.levels:
        rows, kids = phis.tolist(), iter(objs)
        objs = [{"left": a, "right": b, "phi": rows[k]} for a, b, k in zip(kids, kids, which)]
    return objs[0]


def tree_from_json_obj(obj) -> ConstructionTree:
    """Parse a nested JSON tree a level at a time from the top; each level's
    phi lists become one row array, checked when the tree is made."""
    level, rows = [obj], []
    while True:
        leaves = [isinstance(o, dict) and o.get("leaf") is True for o in level]
        if all(leaves):
            return ConstructionTree(len(rows) + 1, tuple((p, np.arange(len(p))) for p in rows))
        if any(leaves):
            raise ValueError("left and right subtrees must have equal dimension")
        try:
            rows.insert(0, [o["phi"] for o in level])
            level = [o[side] for o in level for side in ("left", "right")]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"a tree node needs 'left', 'right' and 'phi': {exc!r}") from exc


@dataclass(frozen=True)
class GraphDocument:
    """A graph as read from or written to disk, with optional BC metadata."""

    graph: Graph
    dimension: int | None = None
    tree: ConstructionTree | None = None

    @classmethod
    def from_bc(cls, bc: BcGraph, *, include_tree: bool = True) -> "GraphDocument":
        return cls(bc.graph, bc.dimension, bc.tree if include_tree else None)

    def to_bc(self) -> BcGraph:
        if self.dimension is None or self.tree is None:
            raise ValueError("document carries no construction tree")
        return BcGraph(self.dimension, self.graph, self.tree)


# The edge array as `build` writes it: compact pairs of canonical decimal
# integers (at most 18 digits, so every value fits int64). The repeat is
# possessive: a greedy one keeps a backtracking entry per pair.
_INT = r"(?:0|[1-9][0-9]{0,17})"
_EDGES = re.compile(rf'"edges":(\[(?:\[{_INT},{_INT}\](?:,\[{_INT},{_INT}\])*+)?\])')
_NO_BRACKETS = str.maketrans("", "", "[]")
_BLOCK = 1 << 12  # edge rows or cut counts encoded per write


def dump_graph_json(doc: GraphDocument, fp: IO[str]) -> None:
    if doc.dimension is None:
        raise ValueError("graph JSON requires a dimension")
    fp.write(f'{{"dimension":{json.dumps(doc.dimension)},"edges":[')
    # a block of rows at a time, from two int columns: no list per row and
    # no string of the whole document
    edges, sep = doc.graph.edge_array, "["
    for lo in range(0, len(edges), _BLOCK):
        u, v = edges[lo : lo + _BLOCK].T.tolist()
        fp.write(sep + "],[".join([f"{a},{b}" for a, b in zip(u, v)]) + "]")
        sep = ",["
    fp.write("]")
    if doc.tree is not None:
        # json.dumps encodes in C; json.dump would format every element in Python
        fp.write(',"tree":' + json.dumps(tree_to_json_obj(doc.tree), separators=(",", ":")))
    fp.write("}\n")


def load_graph_json(fp: IO[str]) -> GraphDocument:
    return _parse_graph_json(fp.read())


def _parse_graph_json(text: str) -> GraphDocument:
    bulk = _bulk_graph_json(text)
    if bulk is not None:
        return _graph_document(*bulk)
    # JSON nested beyond the interpreter's recursion limit is malformed input.
    try:
        return _graph_document(json.loads(text))
    except RecursionError as exc:
        raise ValueError("graph JSON nests too deeply") from exc


def _bulk_graph_json(text: str):
    """(members, edge array) of a document whose edges are laid out as
    `dump_graph_json` writes them, or None for any other text.

    The edge span is checked by one pattern and parsed by numpy; the rest is
    parsed by json with `[]` in its place. The rest must parse and its
    top-level `edges` must be that `[]`; with no escapes and one `"edges"`
    in the text, the span is then exactly the value json.loads would read.
    """
    if "\\" in text or text.count('"edges"') != 1:
        return None
    match = _EDGES.match(text, text.index('"edges"'))
    if match is None:
        return None
    lo, hi = match.span(1)
    # the numbers first, so their text is freed before the rest is parsed
    nums = np.fromstring(text[lo:hi].translate(_NO_BRACKETS), dtype=np.int64, sep=",")
    try:
        data = json.loads(text[:lo] + "[]" + text[hi:])
    except (ValueError, RecursionError):
        return None
    if not isinstance(data, dict) or data.get("edges") != []:
        return None
    nums.setflags(write=False)  # so Graph adopts it without a copy
    return data, nums.reshape(-1, 2)


def _graph_document(data, edge_array=None) -> GraphDocument:
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object")
    dimension = data.get("dimension")
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        raise ValueError("'dimension' must be a positive integer")
    edges = data.get("edges")
    if not isinstance(edges, list):
        raise ValueError("'edges' must be an array of pairs")
    if edge_array is None:
        try:  # an entry that is not a pair stops the scan; Graph names that error
            if bool in map(type, chain.from_iterable(edges)):
                raise ValueError("edge endpoints must be integers, not bool")
        except TypeError:
            pass
        edge_array = edges
    graph = Graph(1 << dimension, edge_array)
    tree = None
    if data.get("tree") is not None:
        tree = tree_from_json_obj(data["tree"])
        if tree.dimension != dimension:
            raise ValueError(
                f"tree dimension {tree.dimension} disagrees with "
                f"declared dimension {dimension}"
            )
    return GraphDocument(graph, dimension, tree)


def dump_edge_list(graph: Graph, fp: IO[str]) -> None:
    fp.write(f"{graph.vertex_count} {graph.edge_count}\n")
    for u, v in graph.iter_edges():
        fp.write(f"{u} {v}\n")


def load_edge_list(fp: Iterable[str]) -> Graph:
    """Read the edge-list format from an open text file or a list of lines."""
    lines = [line for line in map(str.strip, fp) if line]
    if not lines:
        raise ValueError("empty edge-list file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError("edge-list header must be 'N M'")
    n, m = (int(tok) for tok in header)
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, edges)


def dump_arrangement(arrangement: LinearArrangement, fp: IO[str]) -> None:
    for v, p in enumerate(arrangement.to_list()):
        fp.write(f"{v} {p}\n")


def load_arrangement(fp: IO[str]) -> LinearArrangement:
    pairs: dict[int, int] = {}
    for line in fp:
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed arrangement line: {line!r}")
        v, p = int(parts[0]), int(parts[1])
        if v in pairs:
            raise ValueError(f"vertex {v} listed twice")
        pairs[v] = p
    n = len(pairs)
    if n == 0:
        raise ValueError("empty arrangement file")
    if sorted(pairs) != list(range(n)):
        raise ValueError("arrangement must cover vertex ids 0..N-1 exactly")
    return LinearArrangement([pairs[v] for v in range(n)])


def load_graph_any(fp: IO[str]) -> GraphDocument:
    """Read either format; JSON when the first non-blank byte is '{'."""
    text = fp.read()
    if text.lstrip().startswith("{"):
        return _parse_graph_json(text)
    return GraphDocument(load_edge_list(text.splitlines()))


def dump_report_json(report: LayoutReport, fp: IO[str]) -> None:
    """The report as one JSON line, `cuts` last. The cuts are encoded a block
    at a time, straight from the profile's tuple: no list copy of the 2^n
    counts and no string of the whole report."""
    fp.write(json.dumps({
        "cost": report.cost,
        "lower_bound": report.lower_bound,
        "closed_form": report.closed_form,
        "optimal": report.optimal,
    })[:-1] + ', "cuts": [')
    cuts = report.cut_profile.counts
    for lo in range(0, len(cuts), _BLOCK):
        fp.write((", " if lo else "") + json.dumps(cuts[lo : lo + _BLOCK])[1:-1])
    fp.write("]}\n")


def format_report_lines(report: LayoutReport, *, max_cuts: int = 32) -> list[str]:
    """Human-readable rendering of a layout report."""
    lines = [
        f"cost         {report.cost}",
        f"lower_bound  {report.lower_bound}",
        f"closed_form  {report.closed_form if report.closed_form is not None else '-'}",
        f"optimal      {'yes' if report.optimal else 'no'}",
    ]
    cuts = report.cut_profile.counts
    if len(cuts) <= max_cuts:
        shown = " ".join(str(c) for c in cuts)
    else:
        head = " ".join(str(c) for c in cuts[: max_cuts // 2])
        tail = " ".join(str(c) for c in cuts[-max_cuts // 2 :])
        shown = f"{head} ... {tail}"
    lines.append(f"cuts         {shown}")
    return lines


def write_isoperimetric_table(fp: IO[str], n: int, ms: Iterable[int]) -> None:
    """CSV with header m,I,theta: the closed-form profile at the given sizes."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["m", "I", "theta"])
    for m in ms:
        writer.writerow([m, max_induced_edges(m), edge_boundary(n, m)])
