"""Serialization round trips for every declared file format."""

import io
import json

import pytest

from bclayout import (
    ConstructionTree,
    Graph,
    LinearArrangement,
    Node,
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
    dump_arrangement,
    dump_edge_list,
    dump_graph_json,
    format_report_lines,
    load_arrangement,
    load_edge_list,
    load_graph_any,
    load_graph_json,
    report_to_json_dict,
    tree_from_json_obj,
    tree_to_json_obj,
    write_isoperimetric_table,
)
from bclayout import cli
from bclayout.layout import certify


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


def test_tree_json_objects():
    assert tree_to_json_obj(ConstructionTree(1)) == {"leaf": True}
    node = Node(ConstructionTree(1), ConstructionTree(1), (1, 0))
    obj = tree_to_json_obj(node)
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
    data = report_to_json_dict(report)
    assert set(data) == {"cost", "lower_bound", "closed_form", "optimal", "cuts"}
    assert data["cost"] == 28
    assert data["cuts"] == [3, 4, 5, 4, 5, 4, 3]
    out = io.StringIO()
    assert cli.run(["certify", "--family", "hypercube", "-n", "3"], out, io.StringIO()) == 0
    assert json.loads(out.getvalue()) == data
    lines = format_report_lines(report)
    assert any("optimal      yes" in line for line in lines)


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
