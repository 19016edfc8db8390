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
from dataclasses import dataclass
from typing import IO, Iterable

from .core import BcGraph, ConstructionTree, Graph, Leaf, Node
from .isoperimetric import edge_boundary, max_induced_edges
from .layout import CutProfile, LayoutReport, LinearArrangement


def tree_to_json_obj(tree: ConstructionTree) -> dict:
    if isinstance(tree, Leaf):
        return {"leaf": True}
    return {
        "left": tree_to_json_obj(tree.left),
        "right": tree_to_json_obj(tree.right),
        "phi": list(tree.phi),
    }


def tree_from_json_obj(obj) -> ConstructionTree:
    if not isinstance(obj, dict):
        raise ValueError("tree must be a JSON object")
    if obj.get("leaf") is True:
        return Leaf()
    try:
        left = obj["left"]
        right = obj["right"]
        phi = obj["phi"]
    except KeyError as exc:
        raise ValueError(f"tree node is missing key {exc}") from exc
    if not isinstance(phi, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in phi
    ):
        raise ValueError("phi must be a list of integers")
    return Node(tree_from_json_obj(left), tree_from_json_obj(right), tuple(phi))


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


def dump_graph_json(doc: GraphDocument, fp: IO[str]) -> None:
    if doc.dimension is None:
        raise ValueError("graph JSON requires a dimension")
    data: dict = {
        "dimension": doc.dimension,
        "edges": doc.graph.edge_array.tolist(),
    }
    if doc.tree is not None:
        data["tree"] = tree_to_json_obj(doc.tree)
    json.dump(data, fp, separators=(",", ":"))
    fp.write("\n")


def load_graph_json(fp: IO[str]) -> GraphDocument:
    return _parse_graph_json(fp.read())


def _parse_graph_json(text: str) -> GraphDocument:
    # Nesting beyond the interpreter's recursion limit, in the JSON parser or
    # in tree_from_json_obj, is malformed input.
    try:
        return _graph_document(json.loads(text))
    except RecursionError as exc:
        raise ValueError("graph JSON nests too deeply") from exc


def _graph_document(data) -> GraphDocument:
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object")
    dimension = data.get("dimension")
    if not isinstance(dimension, int) or isinstance(dimension, bool) or dimension < 1:
        raise ValueError("'dimension' must be a positive integer")
    edges = data.get("edges")
    if not isinstance(edges, list):
        raise ValueError("'edges' must be an array of pairs")
    graph = Graph(1 << dimension, edges)
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
    lines = [line.strip() for line in fp]
    lines = [line for line in lines if line]
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


def report_to_json_dict(report: LayoutReport) -> dict:
    return {
        "cost": report.cost,
        "lower_bound": report.lower_bound,
        "closed_form": report.closed_form,
        "optimal": report.optimal,
        "cuts": list(report.cut_profile.counts),
    }


def report_from_json_dict(obj: dict) -> LayoutReport:
    return LayoutReport(
        obj["cost"],
        obj["lower_bound"],
        obj.get("closed_form"),
        CutProfile(tuple(obj["cuts"])),
        obj["optimal"],
    )


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
