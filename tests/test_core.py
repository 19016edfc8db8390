"""Graph values, construction trees, composition, and validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bclayout import (
    BcGraph,
    ConstructionTree,
    DimensionCapError,
    Graph,
    MAX_DIMENSION_CAP,
    Node,
    bc_arrangement,
    certify,
    certify_tree,
    evaluate_arrangement,
    hypercube,
    materialize,
    random_bc,
    validate,
)
from bclayout import core
from bclayout.core import check_permutation
from reference import LEAF, build, recursive_edges


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
    masks = g.adjacency_masks()
    assert masks == [0b1010, 0b0101, 0b0010, 0b0001]
    for u in range(4):
        for v in range(4):
            assert masks[u] >> v & 1 == masks[v] >> u & 1
    assert g.degrees().tolist() == [2, 2, 1, 1]


def test_graph_equality_and_edge_set():
    a = Graph(4, [(0, 1), (2, 3)])
    b = Graph(4, [(3, 2), (1, 0)])
    assert a == b
    assert a.edge_array.tolist() == [[0, 1], [2, 3]]
    assert a != Graph(4, [(0, 1)])
    assert a != Graph(5, [(0, 1), (2, 3)])


def reference_graph(vertex_count, pairs):
    """Graph's contract in plain Python: the sorted (min, max) rows, or the
    message of the first check that fails."""
    if any(not 0 <= x < vertex_count for pair in pairs for x in pair):
        return "edge endpoint out of range"
    if any(u == v for u, v in pairs):
        return "self-loops are not allowed"
    rows = sorted((min(u, v), max(u, v)) for u, v in pairs)
    if len(set(rows)) < len(rows):
        return "duplicate edges are not allowed"
    return [list(row) for row in rows]


@st.composite
def edge_inputs(draw):
    vertex_count = draw(st.integers(1, 16) | st.integers(1, 2**62))
    ids = st.integers(0, vertex_count - 1)
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=20))
    order = draw(st.sampled_from(["canonical", "reversed", "shuffled"]))
    if order == "canonical":
        pairs = sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]})
    elif order == "reversed":
        pairs = [(v, u) for u, v in reversed(pairs)]
    else:
        pairs = draw(st.permutations(pairs))
    if pairs and draw(st.booleans()):
        pairs.append(draw(st.sampled_from(pairs))[::-1])  # a duplicate
    if draw(st.booleans()):
        bad = draw(st.sampled_from([-1, vertex_count, vertex_count + 1]))
        at = draw(st.integers(0, len(pairs)))
        pairs.insert(at, (bad, 0) if draw(st.booleans()) else (0, bad))
    as_array = draw(st.booleans())
    return vertex_count, np.array(pairs, dtype=np.int64) if as_array else pairs


@given(edge_inputs())
@settings(max_examples=300)
def test_graph_matches_reference(case):
    vertex_count, edges = case
    expected = reference_graph(vertex_count, [tuple(p) for p in edges])
    try:
        got = Graph(vertex_count, edges).edge_array.tolist()
    except ValueError as exc:
        got = str(exc)
    assert got == expected


def test_edge_array_is_read_only():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        g.edge_array[0, 0] = 2


def test_graph_adopts_only_frozen_arrays():
    frozen = np.array([[0, 1], [0, 2], [1, 3]], dtype=np.int64)
    frozen.setflags(write=False)
    assert np.shares_memory(Graph(4, frozen).edge_array, frozen)
    writable = frozen.copy()
    g = Graph(4, writable)
    assert not np.shares_memory(g.edge_array, writable)
    writable[0] = (2, 3)
    assert g.edge_array.tolist() == [[0, 1], [0, 2], [1, 3]]


# ------------------------------------------------------------- trees


def test_leaf_and_node_dimensions():
    assert LEAF.dimension == 1
    n2 = Node(LEAF, LEAF, (0, 1))
    assert n2.dimension == 2
    assert Node(n2, n2, (0, 1, 2, 3)).dimension == 3


def test_node_rejects_bad_bijections():
    with pytest.raises(ValueError):
        Node(LEAF, LEAF, (0, 0))  # repeated value
    with pytest.raises(ValueError):
        Node(LEAF, LEAF, (0, 2))  # out of range
    with pytest.raises(ValueError):
        Node(LEAF, LEAF, (0, 1, 2))  # wrong length


def test_check_permutation_normalizes_and_rejects():
    phis = check_permutation(np.array([[1, 0, 2], [2, 1, 0]], dtype=np.uint8), 3)
    assert phis.tolist() == [[1, 0, 2], [2, 1, 0]]
    assert phis.dtype == np.int32 and not phis.flags.writeable
    assert Node(LEAF, LEAF, np.array([1, 0])).phi == (1, 0)
    assert all(type(x) is int for x in Node(LEAF, LEAF, [1, 0]).phi)
    for bad in (
        (0, 1, 2),  # wrong length
        (0, 3),  # out of range
        (-1, 0),  # out of range
        (1, 1),  # repeated value
        (0.0, 1.0),  # float dtype
        (False, True),  # bool dtype
        (0, True),  # a bool among ints
        np.array([False, True]),  # bool dtype
        (0, 2**70),  # object dtype
        ("0", "1"),  # string dtype
    ):
        with pytest.raises(ValueError):
            check_permutation([bad], 2)
    # one call checks a whole level: a bad row anywhere is named
    with pytest.raises(ValueError, match="row 2 repeats"):
        check_permutation([(0, 1), (1, 0), (1, 1)], 2)
    with pytest.raises(ValueError):
        check_permutation([(0, 1), (1, 0, 2)], 2)  # ragged rows
    with pytest.raises(ValueError):
        check_permutation((0, 1), 2)  # one permutation, not a level of them


def test_construction_tree_checks_its_levels():
    rows = np.array([[1, 0]])
    assert ConstructionTree(2, ((rows, [0]),)).phi == (1, 0)
    with pytest.raises(ValueError, match="levels"):
        ConstructionTree(3, ((rows, [0]),))
    for which in ([1], [0, 0], [0.0], [-1]):  # out of range, two blocks, float
        with pytest.raises(ValueError, match="row index"):
            ConstructionTree(2, ((rows, which),))
    with pytest.raises(ValueError, match="tree level 2"):
        ConstructionTree(2, (([[1, 1]], [0]),))
    with pytest.raises(AttributeError):
        LEAF.phi
    # equal trees compare equal however their rows are shared
    q3 = Node(Node(LEAF, LEAF, (0, 1)), Node(LEAF, LEAF, (0, 1)), range(4))
    assert [len(phis) for phis, _ in q3.levels] == [2, 1]
    assert q3 == hypercube(3).tree
    assert [len(phis) for phis, _ in hypercube(3).tree.levels] == [1, 1]
    assert q3 != Node(Node(LEAF, LEAF, (0, 1)), Node(LEAF, LEAF, (1, 0)), range(4))
    assert q3 != LEAF


def test_node_rejects_dimension_mismatch():
    n2 = Node(LEAF, LEAF, (0, 1))
    with pytest.raises(ValueError):
        Node(n2, LEAF, (0, 1))


# --------------------------------------------------------- materialize


def test_materialize_leaf_is_single_edge():
    g = materialize(LEAF)
    assert g.vertex_count == 2
    assert g.edge_array.tolist() == [[0, 1]]


def test_materialize_identity_dim2_is_four_cycle():
    g = materialize(Node(LEAF, LEAF, (0, 1)))
    assert g.edge_array.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]


@pytest.mark.parametrize("n", range(1, 13))
def test_materialize_counts(n):
    g = hypercube(n).graph
    assert g.vertex_count == 1 << n
    assert g.edge_count == n * (1 << (n - 1))
    assert (g.degrees() == n).all()


@pytest.mark.parametrize("n", range(1, 13))
def test_identity_tree_is_bitflip_hypercube(n):
    assert hypercube(n).graph.edge_array.tolist() == sorted(map(list, bitflip_edges(n)))


@st.composite
def nested_trees(draw):
    """Trees of dimension 1..6 that mix shared and distinct subtrees, as
    nested (left, right, phi) tuples with None for a leaf."""
    pool = [None]
    for d in range(2, draw(st.integers(1, 6)) + 1):
        pool = [
            (
                draw(st.sampled_from(pool)),
                draw(st.sampled_from(pool)),
                tuple(draw(st.permutations(range(1 << (d - 1))))),
            )
            for _ in range(draw(st.integers(1, 3)))
        ]
    return draw(st.sampled_from(pool))


@st.composite
def trees(draw):
    """Library trees built from `nested_trees`."""
    return build(draw(nested_trees()))


@given(nested_trees(), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_materialize_emits_canonical_rows(nested, rnd):
    tree = build(nested)
    edges = recursive_edges(nested)
    g = materialize(tree)
    assert g.edge_array.tolist() == sorted(map(list, edges))
    rnd.shuffle(edges)
    flipped = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in edges]
    assert g == Graph(1 << tree.dimension, flipped)


@given(trees())
@settings(max_examples=100)
def test_certify_tree_matches_the_materialized_graph(tree):
    # the proven profile, the edge array as one block, and the evaluation by
    # positions give one report
    bc = BcGraph(tree.dimension, materialize(tree), tree)
    report = certify_tree(tree)
    assert report == certify(bc)
    assert report == evaluate_arrangement(bc.graph, bc_arrangement(tree), witness=bc)


def test_materialize_rejects_dimensions_above_the_ceiling(monkeypatch):
    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} used before the ceiling check")

    class StubTree:
        dimension = MAX_DIMENSION_CAP + 1

    monkeypatch.setattr(core, "np", NoNumpy())
    with pytest.raises(DimensionCapError, match="ceiling"):
        materialize(StubTree())
    with pytest.raises(DimensionCapError):
        certify_tree(StubTree())


# ------------------------------------------------------------- compose


def compose(g1, g2, phi):
    """Join two BC graphs with the matching v -> phi[v] through `Node`."""
    tree = Node(g1.tree, g2.tree, tuple(phi))
    return BcGraph(tree.dimension, materialize(tree), tree)


def test_compose_identity_gives_four_cycle():
    k2 = hypercube(1)
    c4 = compose(k2, k2, (0, 1))
    assert c4.graph.edge_array.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]
    assert validate(c4).ok


def test_compose_swap_gives_four_cycle():
    k2 = hypercube(1)
    c4 = compose(k2, k2, (1, 0))
    assert c4.graph.edge_array.tolist() == [[0, 1], [0, 3], [1, 2], [2, 3]]
    assert validate(c4).ok


def test_compose_identity_squares_to_hypercube():
    q2 = hypercube(2)
    q3 = compose(q2, q2, range(4))
    assert q3.graph == hypercube(3).graph
    assert q3.graph.adjacency_masks()[0] == 0b10110  # neighbours 1, 2, 4


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


def _swap_matching(bc, d, block):
    """bc's edges with the level-d matching edges at x = 0 and x = 1 of the
    given block exchanging their right ends: same degrees, same edge count,
    no duplicate, since both new ends stay in the block's right half."""
    half = 1 << (d - 1)
    base = block << d
    phi = dict((u - base, v - base - half) for u, v in bc.graph.iter_edges()
               if base <= u < base + half <= v < base + 2 * half)
    edges = set(bc.graph.iter_edges())
    edges -= {(base, base + half + phi[0]), (base + 1, base + half + phi[1])}
    edges |= {(base, base + half + phi[1]), (base + 1, base + half + phi[0])}
    return edges


@pytest.mark.parametrize("d", range(2, 7))
def test_validate_names_the_level_and_block_that_differ(d):
    bc = random_bc(6, 11)
    block = (1 << (6 - d)) - 1  # the last block of the level
    graph = Graph(64, _swap_matching(bc, d, block))
    report = validate(BcGraph(6, graph, bc.tree))
    base = block << d
    assert report.violations == (
        "graph edges differ from those generated by the construction tree: "
        f"level {d}, block {block} (vertices {base}..{base + (1 << d) - 1})",
    )


def test_validate_names_the_highest_level_that_differs(monkeypatch):
    bc = random_bc(6, 11)
    edges = _swap_matching(bc, 3, 2)
    edges = _swap_matching(BcGraph(6, Graph(64, edges), bc.tree), 5, 1)
    monkeypatch.setattr(core, "materialize", None)  # validate builds no graph
    (violation,) = validate(BcGraph(6, Graph(64, edges), bc.tree)).violations
    assert violation.endswith("level 5, block 1 (vertices 32..63)")
    assert validate(bc).ok


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
