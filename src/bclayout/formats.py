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
from itertools import chain, repeat
from typing import IO, Iterable

import numpy as np

from .core import BcGraph, ConstructionTree, Graph
from .isoperimetric import edge_boundary, max_induced_edges
from .layout import LayoutReport, LinearArrangement


def tree_from_json_obj(obj) -> ConstructionTree:
    """Parse a nested JSON tree a level at a time from the top; each level's
    phi lists become one row array, checked when the tree is made."""
    level, rows = [obj], []
    while True:
        leaves = [isinstance(o, dict) and o.get("leaf") is True for o in level]
        if all(leaves):
            return _tree_from_rows(rows)
        if any(leaves):
            raise ValueError("left and right subtrees must have equal dimension")
        try:
            rows.insert(0, [o["phi"] for o in level])
            level = [o[side] for o in level for side in ("left", "right")]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"a tree node needs 'left', 'right' and 'phi': {exc!r}") from exc


def _tree_from_rows(rows) -> ConstructionTree:
    """The tree of each level's phi rows, level 2 first, blocks in order."""
    return ConstructionTree(len(rows) + 1, tuple((p, np.arange(len(p))) for p in rows))


_LEAVES = '{"leaf":true},"right":{"leaf":true},'


def _tree_layout(k: int) -> tuple[list[str], np.ndarray]:
    """A dimension-k tree as `dump_graph_json` writes it, split around its
    2**(k-1) - 1 phi arrays (`"phi":[...]`, each closing its node after both
    subtrees): the 2**(k-1) pieces of text between them, and the index in
    text order of each array, level 2 first, blocks in order."""
    if k == 1:
        return ['{"leaf":true}'], np.zeros(0, dtype=np.intp)
    inner, levels = [], np.array([2])
    for d in range(3, k + 1):
        # the text after each phi array below a level-d root: the left
        # child's, then `}` closing the left child and the right child's
        # opening, the right child's, then `}` before the root's phi array
        inner = inner + ['},"right":' + '{"left":' * (d - 2) + _LEAVES] + inner + ["},"]
        levels = np.concatenate([levels, levels, [d]])
    return ['{"left":' * (k - 1) + _LEAVES, *inner, "}"], np.argsort(levels, kind="stable")


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
_PHI = re.compile(rf'"phi":\[({_INT}(?:,{_INT})*+)\]')
_NO_BRACKETS = str.maketrans("", "", "[]")
_BLOCK = 1 << 12  # edge rows, arrangement lines, tree leaves or cut counts per write
_REPORT_CUTS = 32  # cut counts a human-readable report shows


def dump_graph_json(doc: GraphDocument, fp: IO[str]) -> None:
    if doc.dimension is None:
        raise ValueError("graph JSON requires a dimension")
    fp.write(f'{{"dimension":{json.dumps(doc.dimension)},"edges":[')
    _write_rows(fp, doc.graph.edge_array, "[%d,%d]", ",")
    fp.write("]")
    if doc.tree is not None:
        fp.write(',"tree":')
        _dump_tree(doc.tree.levels, doc.tree.dimension, 0, fp)
    fp.write("}\n")


def _write_rows(fp: IO[str], rows: np.ndarray, fmt: str, sep: str) -> None:
    """Write each row of an int array by `fmt`, joined by `sep`, a block of
    rows at a time by one format: no list per row and no string of it all."""
    for lo in range(0, len(rows), _BLOCK):
        block = rows[lo : lo + _BLOCK]
        fp.write((sep if lo else "") + sep.join([fmt] * len(block)) % tuple(block.ravel().tolist()))


def _dump_tree(levels, d: int, b: int, fp: IO[str]) -> None:
    """Write the subtree of block b at level d, the nested text `json.dumps`
    gives with compact separators: one string per subtree of at most
    _BLOCK leaves, and the nodes above them one at a time."""
    if 1 << (d - 1) > _BLOCK:
        phis, which = levels[d - 2]
        fp.write('{"left":')
        _dump_tree(levels, d - 1, 2 * b, fp)
        fp.write(',"right":')
        _dump_tree(levels, d - 1, 2 * b + 1, fp)
        fp.write(',"phi":[%s]}' % ",".join(map(str, phis[which[b]].tolist())))
        return
    pieces, order = _tree_layout(d)
    rows = np.empty(len(order), dtype=object)
    at = 0
    for e in range(2, d + 1):  # the block's rows at level e, one format for all
        phis, which = levels[e - 2]
        count = 1 << (d - e)
        block = phis[which[b * count : (b + 1) * count]]
        fmt = '"phi":[' + ",".join(["%d"] * block.shape[1]) + "]"
        text = "\n".join([fmt] * count) % tuple(block.ravel().tolist())
        rows[order[at : at + count]] = text.split("\n")
        at += count
    parts = [""] * (2 * len(pieces) - 1)
    parts[::2], parts[1::2] = pieces, rows.tolist()
    fp.write("".join(parts))


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
    """(members, edge array, tree rows or None) of a document whose edges
    are laid out as `dump_graph_json` writes them, or None for any other
    text.

    The edge span is checked by one pattern and parsed by numpy, and so is
    a tree laid out as written right after it (`_bulk_tree`); the rest is
    parsed by json with `[]` in their place. The rest must parse and its
    top-level `edges` (and `tree`) must be that `[]`; with no escapes and
    one `"edges"` in the text, each span is then exactly the value
    json.loads would read.
    """
    if "\\" in text or text.count('"edges"') != 1:
        return None
    match = _EDGES.match(text, text.index('"edges"'))
    if match is None:
        return None
    lo, hi = match.span(1)
    # the numbers first, so their text is freed before the rest is parsed
    nums = np.fromstring(text[lo:hi].translate(_NO_BRACKETS), dtype=np.int64, sep=",")
    # the tree, when it is the last member: up to the document's closing brace
    start, end, rows = hi + len(',"tree":'), text.rfind("}"), None
    if text.startswith(',"tree":', hi):
        rows = _bulk_tree(text[start:end])
    if rows is None:
        rest = text[:lo] + "[]" + text[hi:]
    else:
        rest = text[:lo] + "[]" + text[hi:start] + "[]" + text[end:]
    try:
        data = json.loads(rest)
    except (ValueError, RecursionError):
        return None
    if not isinstance(data, dict) or data.get("edges") != []:
        return None
    if rows is not None and data.get("tree") != []:
        return None
    nums.setflags(write=False)  # so Graph adopts it without a copy
    return data, nums.reshape(-1, 2), rows


def _bulk_tree(text: str):
    """Each level's phi rows, level 2 first, of a tree laid out exactly as
    `dump_graph_json` writes it, or None for any other text. The dimension
    comes from the number of phi arrays, so the work is bounded by the
    text; every array must hold the entry count of its level."""
    parts = _PHI.split(text)
    found = parts[1::2]  # digits of each phi array, in text order
    k = len(found).bit_length() + 1
    if len(found) != (1 << (k - 1)) - 1:
        return None
    pieces, order = _tree_layout(k)
    if parts[::2] != pieces:
        return None
    if k == 1:
        return []
    found = [found[i] for i in order.tolist()]
    commas = np.fromiter(map(str.count, found, repeat(",")), np.int64, len(found))
    widths = np.repeat(1 << np.arange(1, k), 1 << np.arange(k - 2, -1, -1))
    if not np.array_equal(commas + 1, widths):  # array by array: no entry may move
        return None
    nums = np.fromstring(",".join(found), dtype=np.int64, sep=",")
    # each level holds 2**(k-1) entries: 2**(k-d) rows of 2**(d-1)
    return [row.reshape(-1, 1 << d) for d, row in enumerate(nums.reshape(k - 1, -1), 1)]


def _graph_document(data, edge_array=None, tree_rows=None) -> GraphDocument:
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
    if tree_rows is not None:
        tree = _tree_from_rows(tree_rows)
    elif data.get("tree") is not None:
        tree = tree_from_json_obj(data["tree"])
    if tree is not None and tree.dimension != dimension:
        raise ValueError(
            f"tree dimension {tree.dimension} disagrees with "
            f"declared dimension {dimension}"
        )
    return GraphDocument(graph, dimension, tree)


def dump_edge_list(graph: Graph, fp: IO[str]) -> None:
    fp.write(f"{graph.vertex_count} {graph.edge_count}\n")
    _write_rows(fp, graph.edge_array, "%d %d\n", "")


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
    positions = arrangement.positions
    for lo in range(0, len(positions), _BLOCK):
        block = positions[lo : lo + _BLOCK].tolist()
        lines = chain.from_iterable(zip(range(lo, lo + len(block)), block))
        fp.write("".join(["%d %d\n"] * len(block)) % tuple(lines))


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


def format_report_lines(report: LayoutReport) -> list[str]:
    """Human-readable rendering of a layout report."""
    lines = [
        f"cost         {report.cost}",
        f"lower_bound  {report.lower_bound}",
        f"closed_form  {report.closed_form if report.closed_form is not None else '-'}",
        f"optimal      {'yes' if report.optimal else 'no'}",
    ]
    cuts = report.cut_profile.counts
    if len(cuts) <= _REPORT_CUTS:
        shown = " ".join(str(c) for c in cuts)
    else:
        head = " ".join(str(c) for c in cuts[: _REPORT_CUTS // 2])
        tail = " ".join(str(c) for c in cuts[-_REPORT_CUTS // 2 :])
        shown = f"{head} ... {tail}"
    lines.append(f"cuts         {shown}")
    return lines


def write_isoperimetric_table(fp: IO[str], n: int, ms: Iterable[int]) -> None:
    """CSV with header m,I,theta: the closed-form profile at the given sizes."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["m", "I", "theta"])
    for m in ms:
        writer.writerow([m, max_induced_edges(m), edge_boundary(n, m)])
