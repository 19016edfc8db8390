"""Serialization round trips for every declared file format."""

import functools
import io
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bclayout import (
    KINDS,
    ConstructionTree,
    FamilySpec,
    Graph,
    LinearArrangement,
    Node,
    build_family,
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
from bclayout.layout import CutProfile, LayoutReport, certify

from mutations import mutated


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


def test_load_graph_any_sniffs_format():
    buf = io.StringIO()
    dump_graph_json(GraphDocument.from_bc(hypercube(2)), buf)
    doc = load_graph_any(io.StringIO(buf.getvalue()))
    assert doc.dimension == 2
    doc2 = load_graph_any(io.StringIO("2 1\n0 1\n"))
    assert doc2.dimension is None
    assert doc2.graph == Graph(2, [(0, 1)])


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
    counts = tuple((i * 7919) % 10007 for i in range(size))
    report = LayoutReport(5, 3, None, CutProfile(counts), False)
    buf = io.StringIO()
    dump_report_json(report, buf)
    data = {"cost": 5, "lower_bound": 3, "closed_form": None, "optimal": False}
    assert buf.getvalue() == json.dumps({**data, "cuts": list(counts)}) + "\n"


def test_isoperimetric_table_output():
    buf = io.StringIO()
    write_isoperimetric_table(buf, 3, range(1, 8))
    rows = buf.getvalue().splitlines()
    assert rows[0] == "m,I,theta"
    assert len(rows) == 8
    assert rows[-1] == "7,9,3"


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


@settings(max_examples=250)
@given(graph_json_texts())
def test_graph_json_reads_like_json_loads(text):
    assert_reads_like_json_loads(text)


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
    ],
)
def test_graph_json_edge_cases_read_like_json_loads(text):
    assert_reads_like_json_loads(text)


def test_build_layout_takes_the_bulk_path():
    """`build` output is read on the bulk path, and its edges arrive as one
    read-only int64 block that the graph adopts without a copy."""
    for text in (DOC, DOC.replace(EDGES, "[]"), f'{{"edges":{EDGES},"dimension":2}}'):
        data, edges, rows = _bulk_graph_json(text)
        assert data["edges"] == [] and not edges.flags.writeable
        assert edges.tolist() == json.loads(text)["edges"] and edges.dtype == np.int64
        adopted = _graph_document(data, edges, rows).graph.edge_array
        assert adopted is edges or not len(edges)  # an empty graph makes its own
    for text in (DOC.replace("[0,1],", "[0, 1],"), DOC.replace("[0,1],", "[-0,1],")):
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
