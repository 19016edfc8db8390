"""File formats: graph JSON, plain edge lists, arrangement files, reports.

Graph JSON schema: an object with `dimension` (integer), `edges` (array of
[u, v] pairs with u < v, sorted lexicographically), and an optional `tree`
(nested objects, `{"leaf": true}` or `{"left": ..., "right": ..., "phi":
[...]}`). The plain edge-list text format is `N M` on the first line, then
M lines `u v`; arrangement files hold one `vertex_id position` line per
vertex. All integers are written in exact decimal, never scientific
notation, so values survive round trips at any magnitude. The texts split
into lines at line feeds only; their blanks are JSON's four, `_BLANKS`.

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
not written by `_format_rows`, as their integers can exceed 64 bits;
`table`'s full table (n <= 20) is, from the proven cut profile.

Graph JSON and arrangements are read in bulk when the text is exactly what
their writer writes: numpy reads the integers, the writer writes them
again, and the text is taken when every byte matches. Any other text is
read by the general reader, `json.loads` for graph JSON and line by line
for arrangements. Edge lists are always read line by line.
"""

from __future__ import annotations

import functools
import json
import re
import sys
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np

from .core import BcGraph, ConstructionTree, Graph, _canonical_edges
from .isoperimetric import edge_boundary
from .layout import LayoutReport, LinearArrangement, certify_dimension


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
    subtrees): the 2**(k-1) pieces of text between them, and the level of
    each array in text order."""
    if k == 1:
        return ['{"leaf":true}'], np.zeros(0, dtype=np.intp)
    inner, levels = [], np.array([2])
    for d in range(3, k + 1):
        # the text after each phi array below a level-d root: the left
        # child's, then `}` closing the left child and the right child's
        # opening, the right child's, then `}` before the root's phi array
        inner = inner + ['},"right":' + '{"left":' * (d - 2) + _LEAVES] + inner + ["},"]
        levels = np.concatenate([levels, levels, [d]])
    return ['{"left":' * (k - 1) + _LEAVES, *inner, "}"], levels


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


# An integer of the edge-list and arrangement texts and of `table --m`: at
# most 640 digits, the least limit int() can be set to, so every match converts.
_TOKEN = re.compile(r"-?[0-9]{1,640}")
_BLANKS = " \t\n\r"  # JSON's whitespace, the one blank set of the text formats
_PAIR = re.compile(rf"({_TOKEN.pattern})[{_BLANKS}]+({_TOKEN.pattern})")  # a trimmed line
_NOT_DIGITS = str.maketrans({chr(c): " " for c in range(128) if not "0" <= chr(c) <= "9"})
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
    levels = None if doc.tree is None else doc.tree.levels
    _write_graph_json(doc.dimension, doc.graph.edge_array, levels, fp)


def _write_graph_json(dimension: int, edges: np.ndarray, levels, fp: IO[str]) -> None:
    """`dump_graph_json`'s text from its numbers (levels None: no tree), which
    the bulk reader writes again to check a text."""
    fp.write(f'{{"dimension":{json.dumps(dimension)},"edges":[')
    _write_rows(fp, edges, "[", ",", "],", "]")
    fp.write("]")
    if levels is not None:
        fp.write(',"tree":')
        _dump_tree(levels, len(levels) + 1, 0, fp)
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


@functools.cache
def _words(text: str, size: int) -> np.ndarray:
    """An ASCII literal as `size` NUL-padded words, read-only and kept per (literal, size)."""
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
    grid = np.empty((rows, len(head_w) + k * (groups + lit)), dtype="<u4")  # every word set below
    grid[:, : len(head_w)] = head_w
    cells = grid[:, len(head_w) :].reshape(rows, k, groups + lit)
    cells[:, :-1, groups:] = _words(sep, lit)
    cells[:, -1, groups:] = _words(end, lit)
    cells[-1, -1, groups:] = _words(last, lit)
    table, scale = _digit_words(), values.dtype.type(_GROUP)
    above = None  # where the groups above the previous one sum to 0
    for g in range(groups - 1, signed - 1, -1):
        quotient = values // scale  # one division: np.divmod costs three times as much
        index = values - quotient * scale
        values, leading = quotient, quotient == 0
        index += leading * scale
        if above is not None:
            index += above * scale
        cells[..., g] = np.take(table, index)
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
    pieces, in_text = _tree_layout(d)
    order = np.argsort(in_text, kind="stable")
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
    # JSON nested beyond the interpreter's recursion limit is malformed input,
    # and so is an integer literal with more digits than int() may convert
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise ValueError("graph JSON nests too deeply") from exc
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"graph JSON holds an integer of more than {limit} digits") from exc
    return _graph_document(data)


def _bulk_graph_json(text: str):
    """(members, edge array, tree rows or None) of a text that is exactly
    what `dump_graph_json` writes, or None for any other text. numpy reads
    the integers of the dimension, the edges and the tree, the writer writes
    the document again from them, and every byte must match: no other layout
    or spelling passes, nor a value beyond int64, which numpy reads as 2**63 - 1."""
    if not text.isascii() or not text.startswith('{"dimension":'):
        return None
    # searched from the end, past the edges: the rewrite checks any split
    tree_at, end = text.rfind(',"tree":'), len(text) - len("}\n")
    head = _digits(text, 0, end if tree_at < 0 else tree_at)  # the dimension, then the edges
    if len(head) % 2 == 0:
        return None
    k, edges, rows, levels = int(head[0]), head[1:].reshape(-1, 2), None, None
    if tree_at >= 0:
        flat = _digits(text, tree_at, end)
        if not 0 < k < 64 or len(flat) != (k - 1) << (k - 1):  # 2**(k-1) entries a level
            return None
        in_text = _tree_layout(k)[1]
        widths = 1 << (in_text - 1)
        starts = np.cumsum(widths) - widths  # of each phi array in `flat`
        rows = [flat[starts[in_text == d, None] + np.arange(1 << (d - 1))] for d in range(2, k + 1)]
        levels = [(row, np.arange(len(row))) for row in rows]
    if not _writes_again(text, _write_graph_json, k, edges, levels):
        return None
    return {"dimension": k, "edges": []}, edges, rows


def _digits(text: str, lo: int, hi: int) -> np.ndarray:
    """The integers of ASCII text[lo:hi] as int64, any non-digit a separator."""
    spaced = text[lo:hi].translate(_NOT_DIGITS)  # the slice is freed before numpy runs
    if spaced.isspace():  # numpy reads blank text as [0]
        return np.zeros(0, dtype=np.int64)
    return np.fromstring(spaced, dtype=np.int64, sep=" ")


class _Replay:
    """A write target that checks each piece against `text` where the last ended."""

    def __init__(self, text: str):
        self.text, self.at, self.same = text, 0, True

    def write(self, piece: str) -> None:
        self.same = self.same and self.text.startswith(piece, self.at)
        self.at += len(piece)


def _writes_again(text: str, dump, *args) -> bool:
    """Whether `dump(*args, fp)` writes exactly `text`, the check of every bulk reader."""
    replay = _Replay(text)
    dump(*args, replay)
    return replay.same and replay.at == len(text)


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
    lines = list(filter(None, (line.strip(_BLANKS) for line in fp)))
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
    """Read the arrangement format: in bulk when the text is exactly what
    `dump_arrangement` writes, else line by line."""
    text = fp.read()
    bulk = _bulk_arrangement(text)
    return bulk if bulk is not None else _arrangement_lines(text.split("\n"))


def _bulk_arrangement(text: str) -> LinearArrangement | None:
    """The arrangement of a text that is exactly what `dump_arrangement`
    writes, or None: numpy reads the lines, the positions make the
    arrangement and the writer writes it again."""
    values = _digits(text, 0, len(text)) if text.isascii() else None
    if values is None or len(values) % 2:
        return None
    try:
        arrangement = LinearArrangement(values[1::2])
    except ValueError:
        return None
    return arrangement if _writes_again(text, dump_arrangement, arrangement) else None


def _arrangement_lines(lines: Iterable[str]) -> LinearArrangement:
    """The line reader of the arrangement format."""
    pairs: dict[int, int] = {}
    lines = filter(None, (line.strip(_BLANKS) for line in lines))
    for v, p in _int_pairs(lines, "malformed arrangement line: {!r}"):
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
    if text.lstrip(_BLANKS).startswith("{"):
        return _parse_graph_json(text)
    return GraphDocument(load_edge_list(text.split("\n")))  # the lines a text file yields


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


def _write_full_table(fp: IO[str], n: int) -> None:
    """`write_isoperimetric_table(fp, n, range(1, 2**n))` from the proven
    cut profile, θ(n, m) at m = 1..2**n - 1, a block of rows at a time."""
    fp.write("m,I,theta\n")
    profile, step = certify_dimension(n).cut_profile, _BLOCK // 3  # three values a row
    for lo in range(0, len(profile), step):
        theta = profile[lo : lo + step]
        m = np.arange(lo + 1, lo + 1 + len(theta))
        fp.write(_format_rows(np.column_stack((m, (n * m - theta) // 2, theta)), "", ",", "\n", "\n"))
