"""Serialization round trips for every declared file format."""

import functools
import io
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bclayout import (
    KINDS,
    ConstructionTree,
    FamilySpec,
    Graph,
    LinearArrangement,
    Node,
    build_family,
    build_tree,
    edge_boundary,
    hypercube,
    locally_twisted,
    max_induced_edges,
    mobius,
    random_bc,
    validate,
)
from bclayout.formats import (
    GraphDocument,
    _arrangement_lines,
    _bulk_arrangement,
    _bulk_graph_json,
    _graph_document,
    dump_arrangement,
    dump_edge_list,
    dump_graph_json,
    dump_report_json,
    format_report_lines,
    load_arrangement,
    load_edge_list,
    load_graph_any,
    load_graph_json,
    tree_from_json_obj,
    write_isoperimetric_table,
)
from bclayout import cli, formats
from bclayout.layout import LayoutReport, certify

from mutations import LINE_BREAKS, NON_JSON_BLANKS, examples, mutated


def round_trip_json(doc):
    buf = io.StringIO()
    dump_graph_json(doc, buf)
    return load_graph_json(io.StringIO(buf.getvalue()))


@pytest.mark.parametrize(
    "bc",
    [hypercube(3), locally_twisted(4), mobius(3, 1), random_bc(4, 77)],
    ids=["hypercube", "lt4", "mobius31", "random4"],
)
def test_graph_json_round_trip(bc):
    doc = GraphDocument.from_bc(bc)
    back = round_trip_json(doc)
    assert back.graph == bc.graph
    assert back.tree == bc.tree
    assert back.dimension == bc.dimension
    assert validate(back.to_bc()).ok


def test_graph_json_without_tree():
    doc = GraphDocument.from_bc(hypercube(3), include_tree=False)
    back = round_trip_json(doc)
    assert back.tree is None
    assert back.graph == hypercube(3).graph
    with pytest.raises(ValueError):
        back.to_bc()


def test_graph_json_edges_are_sorted_pairs():
    buf = io.StringIO()
    dump_graph_json(GraphDocument.from_bc(hypercube(2)), buf)
    data = json.loads(buf.getvalue())
    assert data["edges"] == sorted(data["edges"])
    assert all(u < v for u, v in data["edges"])
    assert data["tree"]["phi"] == [0, 1]


def test_graph_json_rejects_malformed():
    with pytest.raises(ValueError):
        load_graph_json(io.StringIO('{"edges": []}'))  # missing dimension
    with pytest.raises(ValueError):
        load_graph_json(io.StringIO('{"dimension": 0, "edges": []}'))
    for dimension in (64, 10**20):  # refused before 2**dimension is built
        with pytest.raises(ValueError, match="'dimension' must be at most 63"):
            load_graph_json(io.StringIO(f'{{"dimension":{dimension},"edges":[]}}'))
    assert load_graph_json(io.StringIO('{"dimension":63,"edges":[]}')).graph.vertex_count == 1 << 63
    with pytest.raises(ValueError):
        load_graph_json(io.StringIO('{"dimension": 2, "edges": 7}'))
    with pytest.raises(ValueError):
        load_graph_json(io.StringIO("[1, 2]"))
    # tree disagreeing with the declared dimension
    buf = io.StringIO()
    dump_graph_json(GraphDocument(hypercube(2).graph, 2, hypercube(3).tree), buf)
    with pytest.raises(ValueError, match="disagrees"):
        load_graph_json(io.StringIO(buf.getvalue()))


def tree_json_obj(tree):
    """The tree member `dump_graph_json` writes, read back by json.loads."""
    buf = io.StringIO()
    dump_graph_json(GraphDocument(Graph(1 << tree.dimension), tree.dimension, tree), buf)
    return json.loads(buf.getvalue())["tree"]


def test_tree_json_objects():
    assert tree_json_obj(ConstructionTree(1)) == {"leaf": True}
    node = Node(ConstructionTree(1), ConstructionTree(1), (1, 0))
    obj = tree_json_obj(node)
    assert obj == {"left": {"leaf": True}, "right": {"leaf": True}, "phi": [1, 0]}
    assert tree_from_json_obj(obj) == node
    with pytest.raises(ValueError, match="equal dimension"):  # a leaf beside a node
        tree_from_json_obj({"left": {"leaf": True}, "right": obj, "phi": [0, 1, 2, 3]})
    with pytest.raises(ValueError):
        tree_from_json_obj({"left": {"leaf": True}})
    with pytest.raises(ValueError):
        tree_from_json_obj({"left": {"leaf": True}, "right": {"leaf": True}, "phi": "x"})
    with pytest.raises(ValueError):
        tree_from_json_obj(42)


def test_edge_list_round_trip():
    g = Graph(6, [(0, 1), (1, 2), (4, 5)])  # vertex 3 isolated
    buf = io.StringIO()
    dump_edge_list(g, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "6 3"
    assert load_edge_list(io.StringIO(text)) == g


@pytest.mark.parametrize("m", [0, 1, 4096, 4097])
def test_edge_rows_are_written_as_one_line_each_would_be(m):
    # a block of rows per write: the same text as one f-string per edge
    pairs = itertools.islice(itertools.combinations(range(100), 2), m)
    g = Graph(100, list(pairs))
    buf = io.StringIO()
    dump_edge_list(g, buf)
    rows = g.edge_array.tolist()
    assert buf.getvalue() == f"100 {m}\n" + "".join(f"{u} {v}\n" for u, v in rows)
    buf = io.StringIO()
    dump_graph_json(GraphDocument(g, 7), buf)
    edges = ",".join(f"[{u},{v}]" for u, v in rows)
    assert buf.getvalue() == f'{{"dimension":7,"edges":[{edges}]}}\n'


def test_edge_list_rejects_malformed():
    with pytest.raises(ValueError):
        load_edge_list(io.StringIO(""))
    with pytest.raises(ValueError):
        load_edge_list(io.StringIO("3\n0 1\n"))
    with pytest.raises(ValueError):
        load_edge_list(io.StringIO("3 2\n0 1\n"))  # header promises two edges


# the last six stand beside a blank JSON does not have: around the line or
# between its tokens
@pytest.mark.parametrize("token", ["+1", "0_1", "\u0661", "1.0", "0x1", "1e0", "--1", "-", "True",
                                   *(f"{b}1" for b in NON_JSON_BLANKS),
                                   *(f"1{b}" for b in NON_JSON_BLANKS)])
def test_text_integers_are_ascii_decimal(token):
    with pytest.raises(ValueError, match="^malformed edge line: "):
        load_edge_list(io.StringIO(f"2 1\n0 {token}\n"))
    with pytest.raises(ValueError, match="^edge-list header must be 'N M'$"):
        load_edge_list(io.StringIO(f"{token} 0\n"))
    with pytest.raises(ValueError, match="^malformed arrangement line: "):
        load_arrangement(io.StringIO(f"0 {token}\n"))


@pytest.mark.parametrize("digits", [641, 5000])
def test_an_over_long_token_is_a_malformed_line(digits):
    # more digits than int() may be set to convert: the loader's own message
    # names the line, cut to 60 characters, not int()'s digit-limit advice
    line = "0 " + "1" * digits
    shown = re.escape(repr(line[:57] + "..."))
    with pytest.raises(ValueError, match=f"^malformed edge line: {shown}$"):
        load_edge_list(io.StringIO(f"2 1\n{line}\n"))
    with pytest.raises(ValueError, match=f"^malformed arrangement line: {shown}$"):
        load_arrangement(io.StringIO(f"{line}\n1 1\n"))
    with pytest.raises(ValueError, match="^edge-list header must be 'N M'$"):
        load_edge_list(io.StringIO(f"{'1' * digits} 0\n"))
    # 640 digits still convert and reach the range checks
    with pytest.raises(ValueError, match=r"^positions must be integers$"):
        load_arrangement(io.StringIO(f"0 {'1' * 640}\n"))


def test_text_integers_keep_their_range_messages():
    # negative tokens parse, so the range checks name them
    with pytest.raises(ValueError, match="^vertex_count must be positive$"):
        load_edge_list(io.StringIO("-2 0\n"))
    with pytest.raises(ValueError, match="^edge endpoint out of range$"):
        load_edge_list(io.StringIO("2 1\n-1 1\n"))
    with pytest.raises(ValueError, match=r"^positions must lie in 1\.\.2$"):
        load_arrangement(io.StringIO("0 -1\n1 1\n"))
    # leading zeros, a negative zero and any of JSON's blanks between the tokens read
    assert load_edge_list(io.StringIO("02 1\n-0\t\r 001\n")) == Graph(2, [(0, 1)])
    assert load_arrangement(io.StringIO("00  02\n1\t1\n")) == LinearArrangement([2, 1])


@pytest.mark.parametrize("sep", LINE_BREAKS, ids=[f"U+{ord(c):04X}" for c in LINE_BREAKS])
def test_a_line_ends_at_a_line_feed_only(sep):
    text = f"4 2\n0 1{sep}2 3\n"
    for load in (load_edge_list, load_graph_any):
        with pytest.raises(ValueError, match="^expected 2 edge lines, found 1$"):
            load(io.StringIO(text))
    with pytest.raises(ValueError, match="^malformed arrangement line: "):
        load_arrangement(io.StringIO(f"0 1{sep}1 2\n"))


@pytest.mark.parametrize("newline, blank", [("\r\n", " "), ("\n", "\t"), ("\r\n", " \r\t")])
def test_json_blanks_and_crlf_lines_read(newline, blank):
    def text(lines):
        return lines.replace(" ", blank).replace("\n", newline)

    graph = Graph(4, [(0, 1), (2, 3)])
    assert load_edge_list(io.StringIO(text("4 2\n0 1\n2 3\n"))) == graph
    assert load_graph_any(io.StringIO(text("4 2\n0 1\n2 3\n"))) == GraphDocument(graph)
    assert load_arrangement(io.StringIO(text("0 2\n1 1\n"))) == LinearArrangement([2, 1])


def test_load_graph_any_sniffs_format():
    buf = io.StringIO()
    dump_graph_json(GraphDocument.from_bc(hypercube(2)), buf)
    doc = load_graph_any(io.StringIO(buf.getvalue()))
    assert doc.dimension == 2
    doc2 = load_graph_any(io.StringIO("2 1\n0 1\n"))
    assert doc2.dimension is None
    assert doc2.graph == Graph(2, [(0, 1)])
    # JSON after JSON's blanks; after any other blank, a malformed edge list
    assert load_graph_any(io.StringIO(" \t\r\n" + buf.getvalue())) == doc
    with pytest.raises(ValueError, match="^edge-list header must be 'N M'$"):
        load_graph_any(io.StringIO("\xa0" + buf.getvalue()))


def test_arrangement_round_trip():
    f = LinearArrangement([3, 1, 4, 2])
    buf = io.StringIO()
    dump_arrangement(f, buf)
    assert buf.getvalue() == "0 3\n1 1\n2 4\n3 2\n"
    assert load_arrangement(io.StringIO(buf.getvalue())) == f


def test_arrangement_rejects_malformed():
    with pytest.raises(ValueError):
        load_arrangement(io.StringIO(""))
    with pytest.raises(ValueError):
        load_arrangement(io.StringIO("0 1\n0 2\n"))  # vertex listed twice
    with pytest.raises(ValueError):
        load_arrangement(io.StringIO("0 1\n2 2\n"))  # gap in vertex ids
    with pytest.raises(ValueError):
        load_arrangement(io.StringIO("0 1\n1 1\n"))  # position collision


def test_report_serialization():
    report = certify(hypercube(3))
    buf = io.StringIO()
    dump_report_json(report, buf)
    text = buf.getvalue()
    assert text == (
        '{"cost": 28, "lower_bound": 28, "closed_form": 28, "optimal": true, '
        '"cuts": [3, 4, 5, 4, 5, 4, 3]}\n'
    )
    out = io.StringIO()
    assert cli.run(["certify", "--family", "hypercube", "-n", "3"], out, io.StringIO()) == 0
    assert out.getvalue() == text
    lines = format_report_lines(report)
    assert any("optimal      yes" in line for line in lines)


@pytest.mark.parametrize("size", [0, 1, 4095, 4096, 4097, 3 * 4096 + 5])
def test_report_json_equals_one_json_dumps(size):
    """Cut counts written a block at a time give the text one json.dumps of
    the whole report gives, on each side of the block size."""
    counts = [(i * 7919) % 10007 for i in range(size)]
    report = LayoutReport(5, 3, None, np.array(counts, dtype=np.int64), False)
    buf = io.StringIO()
    dump_report_json(report, buf)
    data = {"cost": 5, "lower_bound": 3, "closed_form": None, "optimal": False}
    assert buf.getvalue() == json.dumps({**data, "cuts": counts}) + "\n"


# --- the decimal writer against %d ---------------------------------------

INT64 = np.iinfo(np.int64)
# each side of a 4-digit group, of a word and of exact float64 integers
BOUNDARIES = [0, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, 2**53]
VALUES = [*BOUNDARIES, *(-v for v in BOUNDARIES[1:]), INT64.min, INT64.max]
B = formats._BLOCK  # values a block: half as many rows of two
SIZES = [0, 1, B // 2 - 1, B // 2, B // 2 + 1, B - 1, B, B + 1, 2 * B + 3]


def cycled(values, size):
    return list(itertools.islice(itertools.cycle(values), size))


def rows_text(rows, head, sep, end, last):
    """The text `_write_rows` gives, row by row by %d."""
    lines = [head + sep.join("%d" % v for v in row) for row in rows]
    return "".join(line + end for line in lines[:-1]) + "".join(line + last for line in lines[-1:])


def written(rows, *literals):
    buf = io.StringIO()
    formats._write_rows(buf, rows, *literals)
    return buf.getvalue()


@pytest.mark.parametrize("value", VALUES)
def test_writer_writes_a_value_as_percent_d(value):
    for dtype in (np.int64, np.int32):
        if np.iinfo(dtype).min <= value <= np.iinfo(dtype).max:
            assert written(np.array([value, 7], dtype=dtype), "", "", ", ", "") == "%d, 7" % value


@pytest.mark.parametrize("size", SIZES)
def test_writer_streams_blocks_of_rows(size):
    flat = np.array(cycled(VALUES, size), dtype=np.int64)
    assert written(flat, "", "", ",", "") == ",".join("%d" % v for v in flat.tolist())
    rows = np.array(cycled(VALUES, 2 * size), dtype=np.int64).reshape(size, 2)
    literals = ('"phi":[', ",", "]\n", "]")
    assert written(rows, *literals) == rows_text(rows.tolist(), *literals)


LITERALS = st.sampled_from(["", " ", ",", ", ", "[", "]", "],", "]\n", "\n", '"phi":[', '{"x":[['])
INTEGERS = st.one_of(st.sampled_from(VALUES), st.integers(-(10**9), 10**9), st.integers(INT64.min, INT64.max))


@settings(max_examples=examples(200))
@given(
    st.integers(1, 5).flatmap(
        lambda k: st.tuples(st.just(k), st.lists(st.lists(INTEGERS, min_size=k, max_size=k), max_size=12))
    ),
    st.tuples(LITERALS, LITERALS, LITERALS, LITERALS),
    st.booleans(),
)
def test_writer_equals_percent_d(shape, literals, narrow):
    """Any block of int64 (or int32) rows with any literals, the text %d
    gives, one block or many."""
    k, rows = shape
    block = np.array(rows, dtype=np.int64).reshape(len(rows), k)
    if narrow:
        block = block.astype(np.int32)  # wraps, as a tree's phi entries never do
    text = rows_text(block.tolist(), *literals)
    assert formats._format_rows(block, *literals) == text
    assert written(block, *literals) == text


@settings(max_examples=examples(100))
@given(st.lists(INTEGERS, max_size=40))
def test_report_json_of_any_counts_equals_json_dumps(counts):
    """A user-built report may hold any int64 counts, negative ones too."""
    report = LayoutReport(-1, 2**70, 0, np.array(counts, dtype=np.int64), True)
    buf = io.StringIO()
    dump_report_json(report, buf)
    data = {"cost": -1, "lower_bound": 2**70, "closed_form": 0, "optimal": True}
    assert buf.getvalue() == json.dumps({**data, "cuts": counts}) + "\n"


@pytest.mark.parametrize("size", SIZES)
def test_report_json_of_large_counts_equals_json_dumps(size):
    counts = cycled(VALUES, size)
    report = LayoutReport(5, 3, None, np.array(counts, dtype=np.int64), False)
    buf = io.StringIO()
    dump_report_json(report, buf)
    data = {"cost": 5, "lower_bound": 3, "closed_form": None, "optimal": False}
    assert buf.getvalue() == json.dumps({**data, "cuts": counts}) + "\n"


# distinct endpoints at every boundary and up to the largest vertex id
ENDPOINTS = sorted({*range(120), *(v for v in BOUNDARIES), *(10**k + 1 for k in range(18)), INT64.max - 1})


@pytest.mark.parametrize("m", SIZES)
def test_edges_of_large_ids_are_written_as_json_and_percent_d(m):
    g = Graph(INT64.max, list(itertools.islice(itertools.combinations(ENDPOINTS, 2), m)))
    rows = g.edge_array.tolist()
    buf = io.StringIO()
    dump_graph_json(GraphDocument(g, 3), buf)
    assert buf.getvalue() == json.dumps({"dimension": 3, "edges": rows}, separators=(",", ":")) + "\n"
    buf = io.StringIO()
    dump_edge_list(g, buf)
    assert buf.getvalue() == f"{INT64.max} {m}\n" + "".join("%d %d\n" % (u, v) for u, v in rows)


@pytest.mark.parametrize("size", [1, 4096, 4097, 10**4 + 1])
def test_arrangement_lines_are_percent_d(size):
    positions = (np.random.default_rng(size).permutation(size) + 1).tolist()
    buf = io.StringIO()
    dump_arrangement(LinearArrangement(positions), buf)
    assert buf.getvalue() == "".join("%d %d\n" % line for line in enumerate(positions))


def nested_tree(tree, d, b=0):
    """Block b of level d as the nested objects json.dumps writes."""
    if d == 1:
        return {"leaf": True}
    phis, which = tree.levels[d - 2]
    left, right = nested_tree(tree, d - 1, 2 * b), nested_tree(tree, d - 1, 2 * b + 1)
    return {"left": left, "right": right, "phi": phis[which[b]].tolist()}


@pytest.mark.parametrize("n", [1, 2, 13, 14, 15])
def test_tree_phi_rows_are_written_as_json_dumps(n):
    """Below 2**12 leaves a subtree is one string, above it each node's phi
    row streams on its own; at n = 15 the entries pass 10**4."""
    tree = build_tree(FamilySpec("random", n, 3))
    buf = io.StringIO()
    dump_graph_json(GraphDocument(Graph(1 << n), n, tree), buf)
    nested = json.dumps(nested_tree(tree, n), separators=(",", ":"))
    assert buf.getvalue() == f'{{"dimension":{n},"edges":[],"tree":{nested}}}\n'


@pytest.mark.parametrize("size", [0, 1, 32, 33, 1 << 20])
def test_human_report_shows_the_first_and_last_sixteen_cuts(size):
    counts = list(range(0, 3 * size, 3))  # distinct, so a window that moves shows
    report = LayoutReport(5, 3, None, np.array(counts, dtype=np.int64), False)
    shown = counts if size <= 32 else [*counts[:16], "...", *counts[-16:]]
    assert format_report_lines(report) == [
        "cost         5",
        "lower_bound  3",
        "closed_form  -",
        "optimal      no",
        "cuts         " + " ".join(map(str, shown)),
    ]


def test_isoperimetric_table_output():
    buf = io.StringIO()
    write_isoperimetric_table(buf, 3, range(1, 8))
    rows = buf.getvalue().splitlines()
    assert rows[0] == "m,I,theta"
    assert len(rows) == 8
    assert rows[-1] == "7,9,3"


def table_stdout(*argv):
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(["table", *argv], stdout=out, stderr=err) == 0, err.getvalue()
    return out.getvalue()


def closed_form_table(n, ms):
    buf = io.StringIO()
    write_isoperimetric_table(buf, n, ms)
    return buf.getvalue()


@pytest.mark.parametrize("n", [1, 2, 5, 12, 20])
def test_table_rows_are_the_closed_form_at_every_top(n):
    """`table -n N --max-m TOP`, written from the proven cut profile, is the
    rows `write_isoperimetric_table` evaluates one closed form at a time:
    TOP of 1, 2**k - 1 and 2**k about the writer's block of 1365 rows,
    2**n - 1 and above 2**n, where the rows stop at 2**n - 1. At n = 20 the
    full table is checked at its last rows and by `test_golden`, which pins
    it to the digest of `write_isoperimetric_table(fp, 20, range(1, 2**20))`
    (4 s at one closed form a row)."""
    full = (1 << n) - 1
    for top in sorted({1, 7, 8, 2047, 2048, full, full + 2}):
        got = table_stdout("-n", str(n), "--max-m", str(top))
        if min(top, full) < 1 << 12:
            assert got == closed_form_table(n, range(1, min(top, full) + 1)), top
        else:
            assert got == table_stdout("-n", str(n)), top
    if n == 20:
        tail = closed_form_table(n, range(full - 2047, full + 1)).split("\n", 1)[1]
        assert table_stdout("-n", "20").endswith(tail)


def test_isoperimetric_table_huge_dimension():
    m = (1 << 63) - 1
    buf = io.StringIO()
    write_isoperimetric_table(buf, 63, [m])
    row = buf.getvalue().splitlines()[1].split(",")
    assert int(row[0]) == m
    assert int(row[1]) == max_induced_edges(m)
    assert int(row[2]) == edge_boundary(63, m)
    # decimal text, no scientific notation, survives a parse round trip
    assert "e" not in row[1].lower()
    assert str(int(row[1])) == row[1]


# --- the bulk edge path of load_graph_json against json.loads -------------


@functools.cache
def graph_json(kind, n, seed, with_tree):
    buf = io.StringIO()
    bc = build_family(FamilySpec(kind, n, seed))
    dump_graph_json(GraphDocument.from_bc(bc, include_tree=with_tree), buf)
    return buf.getvalue()


@st.composite
def graph_json_texts(draw):
    """`build` output of a structured or random graph at n = 1..8, with or
    without its tree, after a few random one-character edits."""
    kind = draw(st.sampled_from(KINDS))
    seed = draw(st.integers(0, 3)) if kind == "random" else None
    text = graph_json(kind, draw(st.integers(1, 8)), seed, draw(st.booleans()))
    return draw(mutated(text))


def general_load(text):
    """The reader without the bulk path: json.loads, then _graph_document."""
    try:
        data = json.loads(text)
    except RecursionError as exc:
        raise ValueError("graph JSON nests too deeply") from exc
    return _graph_document(data)


def outcome(load, text):
    try:
        return load(text)
    except Exception as exc:  # the kind and text of any failure must agree
        return type(exc), str(exc)


def assert_reads_like_json_loads(text):
    got = outcome(lambda t: load_graph_json(io.StringIO(t)), text)
    assert got == outcome(general_load, text)
    return got


@settings(max_examples=examples(250))
@given(graph_json_texts())
def test_graph_json_reads_like_json_loads(text):
    assert_reads_like_json_loads(text)


@functools.cache
def edge_list(kind, n, seed):
    buf = io.StringIO()
    dump_edge_list(build_family(FamilySpec(kind, n, seed)).graph, buf)
    return buf.getvalue()


@st.composite
def edge_list_texts(draw):
    """The edge list of a structured or random graph at n = 1..5, after a
    few random one-character edits, that does not read as JSON."""
    kind = draw(st.sampled_from(KINDS))
    seed = draw(st.integers(0, 3)) if kind == "random" else None
    text = draw(mutated(edge_list(kind, draw(st.integers(1, 5)), seed)))
    assume(not text.lstrip(" \t\n\r").startswith("{"))
    return text


@settings(max_examples=examples(250))
@given(edge_list_texts())
@example("4 2\n0 1\f2 3\n")  # a line of two edges, or two lines
@example("2 1\n0\f1\n")  # one edge, or two lines of one integer
def test_load_graph_any_reads_an_edge_list_as_load_edge_list(text):
    expected = outcome(lambda t: GraphDocument(load_edge_list(io.StringIO(t))), text)
    assert outcome(lambda t: load_graph_any(io.StringIO(t)), text) == expected


# integers of the arrangement format at the edges of its checks and of int64
TEXT_INTEGERS = st.one_of(st.integers(-2, 9), st.sampled_from([2**63 - 1, 2**63, 2**64 + 1]))


@st.composite
def arrangement_texts(draw):
    """`dump_arrangement` output of a permutation of 1..30 after a few
    random one-character edits, or lines of any two text integers."""
    if draw(st.booleans()):
        rows = draw(st.lists(st.tuples(TEXT_INTEGERS, TEXT_INTEGERS), max_size=8))
        return "".join(f"{v} {p}\n" for v, p in rows)
    positions = draw(st.permutations(range(1, draw(st.integers(1, 30)) + 1)))
    buf = io.StringIO()
    dump_arrangement(LinearArrangement(positions), buf)
    return draw(mutated(buf.getvalue()))


@settings(max_examples=examples(250))
@given(arrangement_texts())
@example("")
@example("0 1\n1 2")  # no final newline
@example("0 1\r\n1 2\r\n")
@example("0 1\n\n1 2\n")
@example("0 01\n1 2\n")
@example("1 2\n0 1\n")  # lines out of order
@example("0 1\n0 1\n")  # a vertex listed twice
@example(f"0 {2**63}\n")
def test_load_arrangement_reads_as_the_line_reader(text):
    """The bulk path of `load_arrangement` reads any text as the line reader
    does, to the same arrangement or the same error."""
    expected = outcome(lambda t: _arrangement_lines(t.split("\n")), text)
    assert outcome(lambda t: load_arrangement(io.StringIO(t)), text) == expected


def test_written_arrangements_take_the_bulk_path(monkeypatch):
    """What `dump_arrangement` writes never reaches the line reader; the same
    text with CRLF line ends does."""

    def line_reader(lines):
        raise AssertionError("read line by line")

    monkeypatch.setattr(formats, "_arrangement_lines", line_reader)
    for size in (1, 2, B // 2, B // 2 + 1, 10**4 + 1):
        f = LinearArrangement(np.random.default_rng(size).permutation(size) + 1)
        buf = io.StringIO()
        dump_arrangement(f, buf)
        assert load_arrangement(io.StringIO(buf.getvalue())) == f
        assert _bulk_arrangement(buf.getvalue()) == f
        with pytest.raises(AssertionError, match="line by line"):
            load_arrangement(io.StringIO(buf.getvalue().replace("\n", "\r\n")))


EDGES = "[[0,1],[0,2],[1,3],[2,3]]"
TREE = '{"left":{"leaf":true},"right":{"leaf":true},"phi":[0,1]}'
DOC = f'{{"dimension":2,"edges":{EDGES},"tree":{TREE}}}\n'
EDGES3 = json.dumps(hypercube(3).graph.edge_array.tolist(), separators=(",", ":"))
TREE3 = f'{{"left":{TREE},"right":{TREE},"phi":[0,1,2,3]}}'
DOC3 = f'{{"dimension":3,"edges":{EDGES3},"tree":{TREE3}}}\n'


@pytest.mark.parametrize(
    "text",
    [
        DOC,
        DOC.replace('"edges":', '"edges": '),
        DOC.replace("[0,1],", "[0, 1],"),
        f'{{"edges":{EDGES},"tree":{TREE},"dimension":2}}',
        f'{{"dimension":2,"edges":[[0,1]],"edges":{EDGES}}}',
        f'{{"dimension":2,"edges":{EDGES},"edges":[[0,1]]}}',
        f'{{"dimension":2,"edges":{EDGES},"edges":[]}}',
        f'{{"dimension":2,"edges":{EDGES},"\\u0065dges":[]}}',
        f'{{"dimension":2,"\\u0065dges":{EDGES}}}',
        f'{{"dimension":2,"edges":{EDGES},"x":"\\u0041"}}',
        DOC.replace("[0,1],", "[-0,1],"),
        DOC.replace("[0,1],", "[0,01],"),
        DOC.replace("[0,1],", "[0,1e0],"),
        DOC.replace("[0,1],", "[0,1.0],"),
        DOC.replace("[0,1],", f"[0,{2**70}],"),
        DOC.replace("[0,1],", f"[0,{10**18 - 1}],"),
        DOC.replace("[0,1],", f"[0,{10**18}],"),
        DOC.replace("[0,1],", f"[0,{2**64 - 1}],"),
        DOC.replace("[0,1],", "[0,true],"),
        DOC.replace("[0,1],", "[0,1,2],"),
        DOC.replace("[0,1],", "[1,0],"),
        DOC.replace("[0,1],", "[1,1],"),
        DOC.replace("[0,1],", "[0,4],"),
        DOC.replace("[0,2],", "[0,1],"),
        DOC.replace("[0,1],[0,2]", "[0,2],[0,1]"),
        DOC.replace(EDGES, "[]"),
        DOC.replace(EDGES, EDGES + "]"),
        DOC.replace(EDGES, EDGES + ",[0,3]]"),
        DOC.replace(EDGES, EDGES[:-1]),
        DOC.replace(EDGES, EDGES + " "),
        DOC.rstrip()[:-1],
        DOC + "x",
        DOC.replace('"dimension":2', '"dimension":1,"dimension":2'),
        DOC.replace('"dimension":2', '"dimension":3'),
        DOC.replace('"dimension":2,', ""),
        DOC.replace('"dimension":2', '"dimension":100000000000000000000'),
        '{"dimension":1,"tree":{"edges":[[0,1]]}}',
        '{"dimension":1,"x":{"edges":[[0,1]]}}',
        '{"dimension":1,"edges":[[0,1]],"x":"edges"}',
        '[{"dimension":1,"edges":[[0,1]]}]',
        '{"dimension":1,"edges":[[0,1]],"tree":' + "[" * 5000 + "]" * 5000 + "}",
        # the tree
        DOC3,
        '{"dimension":1,"edges":[[0,1]],"tree":{"leaf":true}}',
        DOC.replace(TREE, '{"right":{"leaf":true},"left":{"leaf":true},"phi":[0,1]}'),
        DOC.replace(TREE, '{"phi":[0,1],"left":{"leaf":true},"right":{"leaf":true}}'),
        DOC.replace('"phi":[0,1]', '"phi": [0,1]'),
        DOC.replace('"phi":[0,1]', '"phi":[0, 1]'),
        DOC.replace('{"leaf":true}', '{ "leaf":true}', 1),
        DOC.replace(TREE, " " + TREE),
        DOC.replace(TREE, TREE + " "),
        DOC.rstrip() + " \t\r\n",
        DOC.replace('{"leaf":true}', '{"leaf":false}', 1),
        DOC.replace('{"leaf":true}', '{"leaf":1}', 1),
        DOC.replace(TREE, "null"),
        DOC.replace(TREE, "[]"),
        DOC.replace(TREE, '{"leaf":true}'),
        DOC.replace(TREE, TREE + ',"x":1'),
        DOC.replace(TREE, TREE + ',"tree":null'),
        DOC.replace('"dimension":2', '"dimension":2,"tree":null'),
        DOC.replace('"dimension":2', '"dimension":2,"tree":7'),
        DOC.replace('"tree"', '"\\u0074ree"'),
        DOC.replace(TREE, TREE + ',"\\u0074ree":null'),
        f'{{"dimension":2,"edges":{EDGES},"x":{{"tree":{TREE}}}}}',
        f'{{"dimension":2,"edges":{EDGES},"tree":{{"tree":{TREE}}}}}',
        DOC.replace('"phi":[0,1]', '"phi":[0,01]'),
        DOC.replace('"phi":[0,1]', '"phi":[-0,1]'),
        DOC.replace('"phi":[0,1]', '"phi":[0,1e0]'),
        DOC.replace('"phi":[0,1]', '"phi":[0,1.0]'),
        DOC.replace('"phi":[0,1]', f'"phi":[0,{2**40}]'),
        DOC.replace('"phi":[0,1]', f'"phi":[0,{10**18 - 1}]'),
        DOC.replace('"phi":[0,1]', f'"phi":[0,{10**18}]'),
        DOC.replace('"phi":[0,1]', f'"phi":[0,{2**70}]'),
        DOC.replace('"phi":[0,1]', '"phi":[0,true]'),
        DOC.replace('"phi":[0,1]', '"phi":[1,1]'),
        DOC.replace('"phi":[0,1]', '"phi":[0,2]'),
        DOC.replace('"phi":[0,1]', '"phi":[0]'),
        DOC.replace('"phi":[0,1]', '"phi":[0,1,2]'),
        DOC.replace('"phi":[0,1]', '"phi":[]'),
        DOC3.replace('[0,1]},"right"', '[0]},"right"').replace("[0,1,2,3]", "[0,1,2,3,1]"),
        DOC3.replace('[0,1]},"right"', '[0]},"right"').replace('[0,1]},"phi"', '[0,1,1]},"phi"'),
        DOC3.replace('"right":' + TREE, '"right":{"leaf":true}'),
        DOC.replace(TREE, TREE3),
        DOC3.replace(TREE3, TREE),
        DOC3.replace('"dimension":3', '"dimension":4'),
        # int64's largest value, and one beyond it, which numpy saturates
        DOC.replace("[0,1],", f"[0,{2**63 - 1}],"),
        DOC.replace("[0,1],", f"[0,{2**63}],"),
        DOC.replace('"phi":[0,1]', f'"phi":[0,{2**63 - 1}]'),
        DOC.replace('"phi":[0,1]', f'"phi":[0,{2**63}]'),
        DOC.rstrip(),
        f'{{"dimension":3,"edges":{EDGES3}}}\n',
        DOC.replace('"dimension":2,', '"dimension":2,"\u00e9":1,'),
        # a tree's entry count in another layout
        DOC.replace('"phi":[0,1]', '"phi":[0],"p1":[]'),
        DOC3.replace(TREE3, f'{{"right":{TREE},"left":{TREE},"phi":[0,1,2,3]}}'),
    ],
)
def test_graph_json_edge_cases_read_like_json_loads(text):
    assert_reads_like_json_loads(text)


def test_build_layout_takes_the_bulk_path(monkeypatch):
    """`build` output is read on the bulk path into its document, and its
    edges arrive as one int64 block that the graph checks and adopts,
    read-only, without a copy: `Graph`'s constructor, which copies, never runs."""
    flat = [graph_json("hypercube", 5, None, False), graph_json("random", 5, 1, False)]
    parsed, read = [], formats._digits

    def digits(*args):
        parsed.append(read(*args))
        return parsed[-1]

    def copied(*args):
        raise AssertionError("edges passed to Graph's constructor")

    monkeypatch.setattr(formats, "_digits", digits)
    monkeypatch.setattr(Graph, "__init__", copied)
    for text in (DOC, DOC.replace(EDGES, "[]"), f'{{"dimension":2,"edges":{EDGES}}}\n', *flat):
        parsed.clear()
        doc, data = _bulk_graph_json(text), json.loads(text)
        edges = doc.graph.edge_array
        assert edges.tolist() == data["edges"] and edges.dtype == np.int64
        assert edges.base is parsed[0] and not edges.flags.writeable  # a view of the parse
        assert doc.dimension == data["dimension"] and (doc.tree is None) == ("tree" not in data)
    monkeypatch.undo()
    # only `build`'s bytes: not reordered members; and only dimensions 1..63
    for text in (DOC.replace("[0,1],", "[0, 1],"), DOC.replace("[0,1],", "[-0,1],"),
                 f'{{"edges":{EDGES},"dimension":2}}', '{"dimension":0,"edges":[]}\n',
                 '{"dimension":64,"edges":[]}\n'):
        assert _bulk_graph_json(text) is None


def test_build_trees_take_the_bulk_path(monkeypatch):
    """The tree of every family as `build` writes it is read on the bulk
    path, never through nested objects; a tree in any other layout is."""

    def nested(obj):
        raise AssertionError("tree read from nested objects")

    assert graph_json("hypercube", 3, None, True) == DOC3
    monkeypatch.setattr(formats, "tree_from_json_obj", nested)
    specs = [FamilySpec(kind, 8) for kind in KINDS if kind != "random"]
    specs += [FamilySpec("random", 8, seed) for seed in (0, 1, 2**64 - 1)]
    specs += [FamilySpec("hypercube", 1), FamilySpec("random", 2, 5)]
    for spec in specs:
        bc = build_family(spec)
        back = round_trip_json(GraphDocument.from_bc(bc))
        assert back.tree == bc.tree and back.graph == bc.graph
    with pytest.raises(AssertionError, match="nested objects"):
        load_graph_json(io.StringIO(DOC.replace('"phi":[0,1]', '"phi":[0, 1]')))


def test_graph_json_reads_and_writes_in_a_few_times_its_size():
    """tracemalloc peaks of reading and of writing a dimension-14 graph JSON,
    in multiples of the text's length; the write's peak is counted above
    the document the read left behind. A Python list per edge costs about
    15 times on the read and 12 times on the write, a greedy repeat in the
    edge pattern about 20 times on the read (its backtracking stack), and a
    nested dict per tree node 3.6 times on the write."""
    bc = random_bc(14, 3)
    doc = GraphDocument.from_bc(bc)
    buf = io.StringIO()
    dump_graph_json(doc, buf)
    text = buf.getvalue()
    source = io.StringIO(text)

    class Discard:
        def write(self, s):
            pass

    tracemalloc.start()
    try:
        back = load_graph_json(source)
        held, read_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        dump_graph_json(doc, Discard())
        write_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert back.graph == bc.graph and back.tree == bc.tree
    assert read_peak < 8 * len(text)
    assert write_peak < 1.5 * len(text)
