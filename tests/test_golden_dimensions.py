"""Golden edges and trees for every family at n = 1..14.

`golden_dimensions.json` holds, per family and dimension, the sha256 of
the little-endian int64 bytes of `graph.edge_array` and of the `tree`
member that `dump_graph_json` writes (beside no edges), re-encoded by
`json.dumps` with its default separators. The digests were taken from the
recursive edge builder, so any builder must reproduce its seeded graphs
and trees bit for bit.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from bclayout import FamilySpec, Graph, build_family
from bclayout.formats import GraphDocument, dump_graph_json

PINS = json.loads((Path(__file__).parent / "golden_dimensions.json").read_text())
FAMILIES = {
    "hypercube": ("hypercube", None),
    "locally-twisted": ("locally-twisted", None),
    "mobius-0": ("mobius-0", None),
    "mobius-1": ("mobius-1", None),
    "random-42": ("random", 42),
    f"random-{2**64 - 1}": ("random", 2**64 - 1),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_family_and_dimension_is_pinned():
    assert sorted(PINS) == sorted(FAMILIES)
    for rows in PINS.values():
        assert [row["n"] for row in rows] == list(range(1, 15))


@pytest.mark.parametrize("family", list(FAMILIES))
def test_edges_and_tree_are_pinned(family):
    kind, seed = FAMILIES[family]
    for row in PINS[family]:
        bc = build_family(FamilySpec(kind, row["n"], seed))
        edges = bc.graph.edge_array.astype("<i8").tobytes()
        assert sha256(edges) == row["edges"], f"edges of {family} at n = {row['n']}"
        buf = io.StringIO()
        dump_graph_json(GraphDocument(Graph(1 << bc.dimension), bc.dimension, bc.tree), buf)
        tree = json.dumps(json.loads(buf.getvalue())["tree"]).encode()
        assert sha256(tree) == row["tree"], f"tree of {family} at n = {row['n']}"
