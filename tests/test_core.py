"""Graph values, construction trees, composition, and validation."""

import numpy as np
import pytest

from bclayout import (
    BcGraph,
    DimensionCapError,
    Graph,
    Leaf,
    Node,
    compose,
    hypercube,
    materialize,
    validate,
)
from bclayout.core import check_permutation


def bitflip_edges(n):
    """Independent hypercube oracle: vertices adjacent iff ids differ in one bit."""
    edges = set()
    for v in range(1 << n):
        for b in range(n):
            u = v ^ (1 << b)
            if v < u:
                edges.add((v, u))
    return edges


# ---------------------------------------------------------------- Graph


def test_graph_canonicalizes_edges():
    g = Graph(4, [(3, 2), (1, 0), (2, 0)])
    assert g.edge_array.tolist() == [[0, 1], [0, 2], [2, 3]]
    assert g.edge_count == 3


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])  # self-loop
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])  # duplicate after normalization
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])  # endpoint out of range
    with pytest.raises(ValueError):
        Graph(3, [(0.5, 1)])  # non-integer
    with pytest.raises(ValueError):
        Graph(0)


def test_graph_adjacency_is_symmetric():
    g = Graph(4, [(0, 1), (1, 2), (0, 3)])
    adj = g.adjacency()
    for u in range(4):
        for v in adj[u]:
            assert u in adj[v]
    assert g.degrees().tolist() == [2, 2, 1, 1]


def test_graph_equality_and_edge_set():
    a = Graph(4, [(0, 1), (2, 3)])
    b = Graph(4, [(3, 2), (1, 0)])
    assert a == b
    assert a.edge_set() == {(0, 1), (2, 3)}
    assert a != Graph(4, [(0, 1)])
    assert a != Graph(5, [(0, 1), (2, 3)])


def test_edge_array_is_read_only():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        g.edge_array[0, 0] = 2


# ------------------------------------------------------------- trees


def test_leaf_and_node_dimensions():
    assert Leaf().dimension == 1
    n2 = Node(Leaf(), Leaf(), (0, 1))
    assert n2.dimension == 2
    assert Node(n2, n2, (0, 1, 2, 3)).dimension == 3


def test_node_rejects_bad_bijections():
    with pytest.raises(ValueError):
        Node(Leaf(), Leaf(), (0, 0))  # repeated value
    with pytest.raises(ValueError):
        Node(Leaf(), Leaf(), (0, 2))  # out of range
    with pytest.raises(ValueError):
        Node(Leaf(), Leaf(), (0, 1, 2))  # wrong length


def test_check_permutation_normalizes_and_rejects():
    phi = check_permutation(np.array([1, 0, 2], dtype=np.uint8), 3)
    assert phi == (1, 0, 2)
    assert all(type(x) is int for x in phi)
    assert Node(Leaf(), Leaf(), np.array([1, 0])).phi == (1, 0)
    for bad in (
        (0, 1, 2),  # wrong length
        (0, 3),  # out of range
        (-1, 0),  # out of range
        (1, 1),  # repeated value
        (0.0, 1.0),  # float dtype
        (False, True),  # bool dtype
        np.array([False, True]),  # bool dtype
        (0, 2**70),  # object dtype
        ("0", "1"),  # string dtype
    ):
        with pytest.raises(ValueError):
            check_permutation(bad, 2)


def test_node_rejects_dimension_mismatch():
    n2 = Node(Leaf(), Leaf(), (0, 1))
    with pytest.raises(ValueError):
        Node(n2, Leaf(), (0, 1))


# --------------------------------------------------------- materialize


def test_materialize_leaf_is_single_edge():
    g = materialize(Leaf())
    assert g.vertex_count == 2
    assert g.edge_set() == {(0, 1)}


def test_materialize_identity_dim2_is_four_cycle():
    g = materialize(Node(Leaf(), Leaf(), (0, 1)))
    assert g.edge_set() == {(0, 1), (2, 3), (0, 2), (1, 3)}


@pytest.mark.parametrize("n", range(1, 13))
def test_materialize_counts(n):
    g = hypercube(n).graph
    assert g.vertex_count == 1 << n
    assert g.edge_count == n * (1 << (n - 1))
    assert (g.degrees() == n).all()


@pytest.mark.parametrize("n", range(1, 13))
def test_identity_tree_is_bitflip_hypercube(n):
    assert hypercube(n).graph.edge_set() == bitflip_edges(n)


def test_materialize_respects_cap():
    tree = hypercube(4).tree
    with pytest.raises(DimensionCapError):
        materialize(tree, cap=3)
    materialize(tree, cap=4)
    with pytest.raises(ValueError):
        materialize(tree, cap=99)  # above the hard ceiling


# ------------------------------------------------------------- compose


def test_compose_identity_gives_four_cycle():
    k2 = hypercube(1)
    c4 = compose(k2, k2, (0, 1))
    assert c4.graph.edge_set() == {(0, 1), (2, 3), (0, 2), (1, 3)}
    assert validate(c4).ok


def test_compose_swap_gives_four_cycle():
    k2 = hypercube(1)
    c4 = compose(k2, k2, (1, 0))
    assert c4.graph.edge_set() == {(0, 1), (2, 3), (0, 3), (1, 2)}
    assert validate(c4).ok


def test_compose_identity_squares_to_hypercube():
    q2 = hypercube(2)
    q3 = compose(q2, q2, range(4))
    assert q3.graph == hypercube(3).graph
    assert sorted(q3.graph.adjacency()[0]) == [1, 2, 4]


def test_compose_errors():
    k2 = hypercube(1)
    q2 = hypercube(2)
    with pytest.raises(ValueError):
        compose(k2, q2, (0, 1))
    with pytest.raises(ValueError):
        compose(k2, k2, (0, 0))


def test_compose_cross_edges_form_perfect_matching():
    q2 = hypercube(2)
    bc = compose(q2, q2, (2, 0, 3, 1))
    half = 4
    cross = [(u, v) for u, v in bc.graph.iter_edges() if u < half <= v]
    assert len(cross) == half
    assert sorted(u for u, _ in cross) == list(range(half))
    assert sorted(v for _, v in cross) == list(range(half, 2 * half))


# ------------------------------------------------------------ validate


def test_validate_accepts_construction():
    assert validate(hypercube(3)).ok
    assert validate(hypercube(3)).violations == ()


def test_validate_reports_missing_edge():
    bc = hypercube(3)
    edges = [e for e in bc.graph.iter_edges() if e != (0, 1)]
    broken = BcGraph(3, Graph(8, edges), bc.tree)
    report = validate(broken)
    assert not report.ok
    joined = " ".join(report.violations)
    assert "degree 2" in joined  # the two endpoints dropped to degree 2
    assert any("11 edges" in v for v in report.violations)


def test_validate_reports_witness_mismatch():
    # right size and regularity, but not the tree's graph: relabel two vertices
    bc = hypercube(3)
    swapped = {0: 1, 1: 0}
    edges = [
        (swapped.get(u, u), swapped.get(v, v)) for u, v in bc.graph.iter_edges()
    ]
    report = validate(BcGraph(3, Graph(8, edges), bc.tree))
    assert not report.ok
    assert any("construction tree" in v for v in report.violations)


def test_validate_reports_dimension_mismatch():
    bc = hypercube(3)
    report = validate(BcGraph(4, bc.graph, bc.tree))
    assert not report.ok
    assert len(report.violations) >= 3  # tree dim, vertex count, edge count


def test_bitflip_oracle_midsize():
    # spot-check the oracle itself on a value small enough to recount by hand
    assert bitflip_edges(2) == {(0, 1), (2, 3), (0, 2), (1, 3)}
    assert len(bitflip_edges(4)) == 32


def test_graph_isomorphic_up_to_array_equality():
    g1 = materialize(hypercube(5).tree)
    g2 = hypercube(5).graph
    assert g1 == g2
    assert np.array_equal(g1.edge_array, g2.edge_array)
