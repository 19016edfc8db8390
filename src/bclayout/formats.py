"""File formats: graph JSON, plain edge lists, arrangement files, reports.

Graph JSON schema: an object with `dimension` (integer), `edges` (array of
[u, v] pairs with u < v, sorted lexicographically), and an optional `tree`
(nested objects, `{"leaf": true}` or `{"left": ..., "right": ..., "phi":
[...]}`). The plain edge-list text format is `N M` on the first line, then
M lines `u v`; arrangement files hold one `vertex_id position` line per
vertex. All integers are written in exact decimal, never scientific
notation, so values survive round trips at any magnitude.

Every block of integers (edge rows, arrangement lines, phi rows, cut counts)
is written by one numpy writer, `_format_rows`, a block of `_BLOCK` values
at a time. The block becomes a grid of little-endian uint32 words, one row of
the grid per row of text. A value takes one word per group of four digits
(plus one for a minus sign when the block holds a negative value), looked
up in a table of 2 * 10**4 + 1 words: the groups 0000..9999 zero-padded for
inner groups, then 0..9999 NUL-padded for a value's leading group, then an
empty word for the groups above it. The literals around the values
(`[`, `,`, `],`, `"phi":[`, a newline) are NUL-padded words in the same
grid. `bytes.translate` deletes the NULs and the rest is the ASCII text.
The `m,I,theta` rows of `write_isoperimetric_table` are the one text output
not written by `_format_rows`: their integers can exceed 64 bits.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from itertools import repeat
from typing import IO, Iterable, Iterator

import numpy as np

from .core import BcGraph, ConstructionTree, Graph, _canonical_edges
from .isoperimetric import edge_boundary
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
# An integer of the edge-list and arrangement texts and of `table --m`: at
# most 640 digits, the least limit int() can be set to, so every match converts.
_TOKEN = re.compile(r"-?[0-9]{1,640}")
_PAIR = re.compile(rf"({_TOKEN.pattern})\s+({_TOKEN.pattern})")  # a line of those texts
# integers per write: cut counts, or the values of edge rows, arrangement
# lines or a level of a subtree's phi rows (at most this many leaves); at up
# to 8 digits a value, a block's word grid stays below 64 KB, well under
# glibc's 128 KB mmap threshold
_BLOCK = 1 << 12
_GROUP = 10_000  # the writer writes a value four digits to a word
_REPORT_CUTS = 32  # cut counts a human-readable report shows


def dump_graph_json(doc: GraphDocument, fp: IO[str]) -> None:
    if doc.dimension is None:
        raise ValueError("graph JSON requires a dimension")
    fp.write(f'{{"dimension":{json.dumps(doc.dimension)},"edges":[')
    _write_rows(fp, doc.graph.edge_array, "[", ",", "],", "]")
    fp.write("]")
    if doc.tree is not None:
        fp.write(',"tree":')
        _dump_tree(doc.tree.levels, doc.tree.dimension, 0, fp)
    fp.write("}\n")


def _write_rows(fp: IO[str], rows: np.ndarray, head: str, sep: str, end: str, last: str) -> None:
    """Write an int array a block of _BLOCK values at a time (a 1-d array as
    one value per row): each row is `head`, its values joined by `sep`, then
    `end`, except the final row, which ends with `last`. No string of it all."""
    if rows.ndim == 1:
        rows = rows[:, None]
    step = max(1, _BLOCK // rows.shape[1])
    for lo in range(0, len(rows), step):
        final = lo + step >= len(rows)
        fp.write(_format_rows(rows[lo : lo + step], head, sep, end, last if final else end))


@functools.cache
def _digit_words() -> np.ndarray:
    """The writer's table, built on its first use (no temporary reaches
    128 KB): the words of 0000..9999 zero-padded, of 0..9999 with no leading
    zeros and NUL-padded, and an empty word. A word holds its text's first
    byte in its low byte."""
    d = np.arange(_GROUP, dtype=np.uint16)
    chars = np.empty((_GROUP, 4), dtype=np.uint8)
    for i, unit in enumerate((1000, 100, 10, 1)):
        chars[:, i] = d // unit % 10 + ord("0")
    padded = chars.view("<u4").ravel()
    width = 1 + (d >= 10) + (d >= 100) + (d >= 1000)  # "0" is one digit
    table = np.zeros(2 * _GROUP + 1, dtype="<u4")
    table[:_GROUP] = padded
    table[_GROUP : 2 * _GROUP] = padded >> (8 * (4 - width))  # drop the leading zeros
    return table


def _words(text: str, size: int) -> np.ndarray:
    """An ASCII literal as `size` NUL-padded words."""
    return np.frombuffer(text.encode("ascii").ljust(4 * size, b"\0"), dtype="<u4")


def _format_rows(block: np.ndarray, head: str, sep: str, end: str, last: str) -> str:
    """The text of a 2-d int array, each row `head`, its values in decimal
    joined by `sep`, then `end`; the block's last row ends with `last`.

    A value of g groups fills g words of its cell, lowest group last: group
    r with the groups above it summing to q reads word r of the zero-padded
    half, or of the NUL-padded half when q == 0, and the empty word when the
    value is below this group (q == r == 0, not the lowest group)."""
    rows, k = block.shape
    if block.size == 0:
        return ""
    low, high = int(block.min()), int(block.max())
    top, signed = max(high, -low), low < 0
    values = block.astype(np.uint32 if top >> 32 == 0 else np.uint64)
    if signed:  # magnitudes; uint64 negation is exact down to -2**63
        negative = block < 0
        np.negative(values, out=values, where=negative)
    groups = signed + (len(str(top)) + 3) // 4
    lit = (max(len(sep), len(end), len(last)) + 3) // 4  # words after each value
    head_w = _words(head, (len(head) + 3) // 4)
    grid = np.zeros((rows, len(head_w) + k * (groups + lit)), dtype="<u4")
    grid[:, : len(head_w)] = head_w
    cells = grid[:, len(head_w) :].reshape(rows, k, groups + lit)
    cells[:, :-1, groups:] = _words(sep, lit)
    cells[:, -1, groups:] = _words(end, lit)
    cells[-1, -1, groups:] = _words(last, lit)
    table, scale = _digit_words(), values.dtype.type(_GROUP)
    above = None  # where the groups above the previous one sum to 0
    for g in range(groups - 1, signed - 1, -1):
        values, index = np.divmod(values, scale)
        leading = values == 0
        index += leading * scale
        if above is not None:
            index += above * scale
        cells[..., g] = table[index]
        above = leading
    if signed:
        cells[..., 0] = np.where(negative, ord("-"), 0)
    return grid.tobytes().translate(None, b"\0").decode("ascii")


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
        fp.write(',"phi":[')
        _write_rows(fp, phis[which[b]], "", "", ",", "")
        fp.write("]}")
        return
    pieces, order = _tree_layout(d)
    rows = np.empty(len(order), dtype=object)
    at = 0
    for e in range(2, d + 1):  # the block's rows at level e, one format for all
        phis, which = levels[e - 2]
        count = 1 << (d - e)
        block = phis[which[b * count : (b + 1) * count]]
        rows[order[at : at + count]] = _format_rows(block, '"phi":[', ",", "]\n", "]").split("\n")
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
    if dimension > 63:  # before 1 << dimension: vertex ids must fit the int64 edges
        raise ValueError("'dimension' must be at most 63")
    edges = data.get("edges")
    if not isinstance(edges, list):
        raise ValueError("'edges' must be an array of pairs")
    if edge_array is not None:  # the bulk path's own int64 rows: checked, held uncopied
        graph = Graph._adopt(1 << dimension, _canonical_edges(1 << dimension, edge_array))
    else:
        graph = Graph(1 << dimension, edges)
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
    _write_rows(fp, graph.edge_array, "", " ", "\n", "\n")


def load_edge_list(fp: Iterable[str]) -> Graph:
    """Read the edge-list format from an open text file or a list of lines."""
    lines = [line for line in map(str.strip, fp) if line]
    if not lines:
        raise ValueError("empty edge-list file")
    n, m = next(_int_pairs(lines[:1], "edge-list header must be 'N M'"))
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    return Graph(n, list(_int_pairs(lines[1:], "malformed edge line: {!r}")))


def _int_pairs(lines: Iterable[str], message: str) -> Iterator[tuple[int, int]]:
    """The two `_PAIR` integers of each stripped line, or
    ValueError(message.format(_shown(line))): `int` alone reads `+2`,
    `1_0`, non-ASCII digits."""
    for line in lines:
        match = _PAIR.fullmatch(line)
        if match is None:
            raise ValueError(message.format(_shown(line)))
        u, v = match.groups()
        yield int(u), int(v)


def _shown(text: str) -> str:
    """A malformed line or token as its error message shows it: 60 characters at most."""
    return text if len(text) <= 60 else text[:57] + "..."


def dump_arrangement(arrangement: LinearArrangement, fp: IO[str]) -> None:
    positions = arrangement.positions
    step = _BLOCK // 2  # two values a line
    for lo in range(0, len(positions), step):
        block = positions[lo : lo + step]
        lines = np.column_stack((np.arange(lo, lo + len(block)), block))
        fp.write(_format_rows(lines, "", " ", "\n", "\n"))


def load_arrangement(fp: IO[str]) -> LinearArrangement:
    pairs: dict[int, int] = {}
    for v, p in _int_pairs(filter(None, map(str.strip, fp)), "malformed arrangement line: {!r}"):
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
    """The report as one JSON line, `cuts` last. The cuts are written a
    block at a time from the profile array: no list of the 2^n counts and no
    string of the whole report."""
    fp.write(json.dumps({
        "cost": report.cost,
        "lower_bound": report.lower_bound,
        "closed_form": report.closed_form,
        "optimal": report.optimal,
    })[:-1] + ', "cuts": [')
    _write_rows(fp, report.cut_profile, "", "", ", ", "")
    fp.write("]}\n")


def format_report_lines(report: LayoutReport) -> list[str]:
    """Human-readable rendering of a layout report."""
    cuts, half = report.cut_profile, _REPORT_CUTS // 2
    if len(cuts) <= _REPORT_CUTS:
        shown = " ".join(map(str, cuts.tolist()))
    else:
        head = " ".join(map(str, cuts[:half].tolist()))
        shown = f"{head} ... " + " ".join(map(str, cuts[-half:].tolist()))
    return [
        f"cost         {report.cost}",
        f"lower_bound  {report.lower_bound}",
        f"closed_form  {report.closed_form if report.closed_form is not None else '-'}",
        f"optimal      {'yes' if report.optimal else 'no'}",
        f"cuts         {shown}",
    ]


def write_isoperimetric_table(fp: IO[str], n: int, ms: Iterable[int]) -> None:
    """CSV with header m,I,theta: the closed-form profile at the given sizes."""
    fp.write("m,I,theta\n")
    for m in ms:
        theta = edge_boundary(n, m)
        fp.write(f"{m},{(n * m - theta) // 2},{theta}\n")
