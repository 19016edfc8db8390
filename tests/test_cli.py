"""Command-line surface: formats, exit codes, round trips."""

import functools
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bclayout import KINDS, FamilySpec, bc_arrangement, build_family, edge_boundary, hypercube
from bclayout import cli, core, families, formats, layout
from bclayout.cli import run
from bclayout.formats import load_graph_json

from mutations import mutated


def invoke(*argv):
    out = io.StringIO()
    err = io.StringIO()
    status = run(list(argv), stdout=out, stderr=err)
    return status, out.getvalue(), err.getvalue()


def test_build_hypercube_json():
    status, out, _ = invoke("build", "--family", "hypercube", "-n", "3")
    assert status == 0
    data = json.loads(out)
    assert data["dimension"] == 3
    assert len(data["edges"]) == 12
    assert data["tree"]["phi"] == [0, 1, 2, 3]
    assert data["tree"]["left"]["phi"] == [0, 1]


def test_build_to_file_and_reload(tmp_path):
    path = tmp_path / "g.json"
    status, _, _ = invoke(
        "build", "--family", "random", "-n", "4", "--seed", "7", "-o", str(path)
    )
    assert status == 0
    with open(path) as fp:
        doc = load_graph_json(fp)
    assert doc.graph.edge_count == 32
    assert doc.tree is not None


def test_build_no_tree_flag():
    status, out, _ = invoke("build", "--family", "hypercube", "-n", "2", "--no-tree")
    assert status == 0
    assert "tree" not in json.loads(out)


def test_build_above_cap_is_resource_error():
    status, _, err = invoke("build", "--family", "hypercube", "-n", "26")
    assert status == 3
    assert "cap" in err


def test_certify_input_above_cap_is_resource_error(tmp_path, monkeypatch):
    gpath = tmp_path / "g.json"
    assert invoke("build", "--family", "hypercube", "-n", "5", "-o", str(gpath))[0] == 0

    def no_validate(bc):
        raise AssertionError("the witness was validated")

    monkeypatch.setattr(cli, "validate", no_validate)
    status, _, err = invoke("certify", "-i", str(gpath), "--cap", "3")
    assert status == 3
    assert "cap" in err


def test_build_random_requires_seed():
    status, _, err = invoke("build", "--family", "random", "-n", "3")
    assert status == 2


def test_table_default_rows():
    status, out, _ = invoke("table", "-n", "3")
    assert status == 0
    rows = out.splitlines()
    assert rows[0] == "m,I,theta"
    assert len(rows) == 8
    assert rows[-1] == "7,9,3"


def test_table_dimension_63_single_row():
    m = (1 << 63) - 1
    status, out, _ = invoke("table", "-n", "63", "--m", str(m))
    assert status == 0
    row = out.splitlines()[1].split(",")
    assert int(row[0]) == m
    assert int(row[2]) == edge_boundary(63, m)


def test_table_large_dimension_needs_row_selection():
    status, _, err = invoke("table", "-n", "40")
    assert status == 2
    assert "--max-m" in err
    status, out, _ = invoke("table", "-n", "40", "--max-m", "4")
    assert status == 0
    assert len(out.splitlines()) == 5


def test_arrange_and_eval_round_trip(tmp_path):
    gpath = tmp_path / "g.json"
    apath = tmp_path / "f.txt"
    assert invoke(
        "build", "--family", "random", "-n", "4", "--seed", "11", "-o", str(gpath)
    )[0] == 0
    assert invoke("arrange", "-i", str(gpath), "-o", str(apath))[0] == 0
    status, out, _ = invoke("eval", "-g", str(gpath), "-a", str(apath))
    assert status == 0
    report = json.loads(out)
    assert report["cost"] == 120
    assert report["lower_bound"] == 120
    assert report["optimal"] is True


def test_eval_generic_graph_without_tree(tmp_path):
    gpath = tmp_path / "g.edges"
    apath = tmp_path / "f.txt"
    gpath.write_text("4 4\n0 1\n2 3\n0 2\n1 3\n")
    apath.write_text("0 1\n1 3\n2 4\n3 2\n")
    status, out, _ = invoke("eval", "-g", str(gpath), "-a", str(apath))
    assert status == 0
    report = json.loads(out)
    assert report["cost"] == 8
    assert report["lower_bound"] == 6
    assert report["closed_form"] is None
    assert report["optimal"] is False


def test_eval_rejects_inconsistent_witness(tmp_path):
    gpath = tmp_path / "g.json"
    assert invoke("build", "--family", "hypercube", "-n", "2", "-o", str(gpath))[0] == 0
    data = json.loads(gpath.read_text())
    data["edges"] = [[0, 1], [0, 2], [1, 3], [2, 3]][:3]  # drop an edge
    gpath.write_text(json.dumps(data))
    apath = tmp_path / "f.txt"
    apath.write_text("0 1\n1 2\n2 3\n3 4\n")
    status, _, err = invoke("eval", "-g", str(gpath), "-a", str(apath))
    assert status == 2
    assert "invalid witness" in err


def test_certify_family():
    status, out, _ = invoke("certify", "--family", "random", "-n", "5", "--seed", "42")
    assert status == 0
    report = json.loads(out)
    assert report["cost"] == 496
    assert report["optimal"] is True


def test_certify_human_output():
    status, out, _ = invoke("certify", "--family", "hypercube", "-n", "3", "--human")
    assert status == 0
    assert "cost         28" in out
    assert "optimal      yes" in out


@pytest.mark.parametrize("kind", KINDS)
def test_family_commands_build_no_edges(kind, monkeypatch):
    # certify reads the construction tree alone, and arrange not even that
    def no_materialize(tree):
        raise AssertionError("the graph was materialized")

    def no_tree(spec, cap):
        raise AssertionError("the tree was built")

    monkeypatch.setattr(core, "materialize", no_materialize)
    monkeypatch.setattr(families, "materialize", no_materialize)
    flags = ["--family", kind, "-n", "6"] + (["--seed", "7"] if kind == "random" else [])
    status, out, _ = invoke("certify", *flags)
    assert status == 0
    report = json.loads(out)
    assert report["cost"] == report["lower_bound"] == 32 * 63
    assert report["cuts"] == [edge_boundary(6, m) for m in range(1, 64)]
    monkeypatch.setattr(families, "build_tree", no_tree)
    status, out, _ = invoke("arrange", *flags)
    assert status == 0
    assert out.splitlines() == [f"{v} {v + 1}" for v in range(64)]


def test_arrange_family_checks_the_cap_and_the_seed():
    status, _, err = invoke("arrange", "--family", "hypercube", "-n", "5", "--cap", "3")
    assert status == 3
    assert "cap" in err
    assert_input_error("arrange", "--family", "hypercube", "-n", "3", "--cap", "27")
    assert_input_error("arrange", "--family", "random", "-n", "3", "--seed", "-1")
    assert_input_error("arrange", "--family", "random", "-n", "3")


def test_out_of_memory_is_resource_error(monkeypatch):
    for error, line in (
        (MemoryError("Unable to allocate 8.00 GiB"), "out of memory: Unable to allocate 8.00 GiB"),
        (MemoryError(), "out of memory"),
    ):

        def exhausted(tree):
            raise error

        monkeypatch.setattr(cli, "certify_tree", exhausted)
        status, out, err = invoke("certify", "--family", "hypercube", "-n", "4")
        assert (status, out, err) == (3, "", f"error: {line}\n")


def test_certify_corrupted_file_fails(tmp_path):
    gpath = tmp_path / "g.json"
    assert invoke("build", "--family", "hypercube", "-n", "3", "-o", str(gpath))[0] == 0
    data = json.loads(gpath.read_text())
    data["edges"] = data["edges"][:-1]
    gpath.write_text(json.dumps(data))
    status, _, err = invoke("certify", "-i", str(gpath))
    assert status == 1
    assert "invalid witness" in err


def family_flags(n):
    """certify/build flags for every kind at dimension n, random at two seeds."""
    for kind in KINDS:
        seeds = [7, (1 << 64) - 1] if kind == "random" else [None]
        for seed in seeds:
            yield ["--family", kind, "-n", str(n)] + ([] if seed is None else ["--seed", str(seed)])


@pytest.mark.parametrize("n", range(1, 11))
def test_certify_input_equals_certify_family(tmp_path, n):
    gpath = tmp_path / "g.json"
    for flags in family_flags(n):
        assert invoke("build", *flags, "-o", str(gpath))[0] == 0
        for human in ([], ["--human"]):
            family = invoke("certify", *flags, *human)
            assert family[0] == 0
            assert invoke("certify", "-i", str(gpath), *human) == family


def test_certify_swapped_matching_edges_fail_with_the_witness_lines(tmp_path):
    gpath = tmp_path / "g.json"
    assert invoke("build", "--family", "hypercube", "-n", "3", "-o", str(gpath))[0] == 0
    data = json.loads(gpath.read_text())
    edges = data["edges"]  # the top matching 0-4, 1-5 becomes 0-5, 1-4: still 3-regular
    edges[edges.index([0, 4])], edges[edges.index([1, 5])] = [0, 5], [1, 4]
    gpath.write_text(json.dumps(data))
    assert invoke("certify", "-i", str(gpath)) == (
        1,
        "",
        "invalid witness: graph edges differ from those generated by the "
        "construction tree: level 3, block 0 (vertices 0..7)\n",
    )


def test_certify_input_never_measures_the_edges(tmp_path, monkeypatch):
    def no_measure(*args):
        raise AssertionError("the edge array was measured")

    monkeypatch.setattr(layout, "certify", no_measure)
    monkeypatch.setattr(layout, "_accumulate", no_measure)
    gpath = tmp_path / "g.json"
    for flags in family_flags(6):
        assert invoke("build", *flags, "-o", str(gpath))[0] == 0
        status, out, _ = invoke("certify", "-i", str(gpath))
        assert status == 0
        assert json.loads(out)["cuts"] == [edge_boundary(6, m) for m in range(1, 64)]


def test_certify_requires_exactly_one_source(tmp_path):
    status, _, err = invoke("certify")
    assert status == 2
    gpath = tmp_path / "g.json"
    assert invoke("build", "--family", "hypercube", "-n", "2", "-o", str(gpath))[0] == 0
    status, _, _ = invoke(
        "certify", "--family", "hypercube", "-n", "2", "-i", str(gpath)
    )
    assert status == 2


def test_solve_family_modes():
    status, out, _ = invoke("solve", "--family", "hypercube", "-n", "2")
    assert status == 0
    report = json.loads(out)
    assert report["cost"] == 6
    assert report["proven"] is True
    assert report["mode"] == "exhaustive"
    status, out, _ = invoke(
        "solve", "--family", "hypercube", "-n", "3", "--mode", "exhaustive"
    )
    assert json.loads(out)["cost"] == 28
    status, out, _ = invoke("solve", "--family", "mobius-1", "-n", "4")
    report = json.loads(out)
    assert report["cost"] == 120
    assert report["mode"] == "branch-and-bound"


def test_solve_edge_list_input(tmp_path):
    gpath = tmp_path / "p.edges"
    gpath.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
    status, out, _ = invoke("solve", "-i", str(gpath))
    assert status == 0
    assert json.loads(out)["cost"] == 4


def test_solve_too_large_is_resource_error():
    status, _, err = invoke("solve", "--family", "hypercube", "-n", "5")
    assert status == 3
    assert "16" in err


def test_solve_family_checks_the_limit_before_building(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the graph was built above the solver's limit")

    monkeypatch.setattr(families, "build", unreachable)
    message = "error: branch-and-bound mode supports at most 16 vertices, got 2097152\n"
    assert invoke("solve", "--family", "hypercube", "-n", "21") == (3, "", message)
    message = "error: exhaustive mode supports at most 8 vertices, got 16\n"
    argv = ("solve", "--family", "mobius-1", "-n", "4", "--mode", "exhaustive")
    assert invoke(*argv) == (3, "", message)
    # the spec is checked first: its cap and its seed
    status, _, err = invoke("solve", "--family", "hypercube", "-n", "27")
    assert (status, err) == (3, "error: dimension 27 exceeds the materialization cap 25\n")
    assert_input_error("solve", "--family", "random", "-n", "21")


def test_solve_budget_exhaustion(tmp_path):
    gpath = tmp_path / "g.edges"
    edges = [(u, v) for u in range(12) for v in range(u + 1, 12) if (u + v) % 3]
    gpath.write_text(
        f"12 {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    )
    status, out, err = invoke("solve", "-i", str(gpath), "--budget", "0")
    assert status == 3
    assert json.loads(out)["proven"] is False
    assert "budget" in err


def test_arrange_requires_a_tree(tmp_path):
    gpath = tmp_path / "g.json"
    assert invoke(
        "build", "--family", "hypercube", "-n", "3", "--no-tree", "-o", str(gpath)
    )[0] == 0
    status, _, err = invoke("arrange", "-i", str(gpath))
    assert status == 2
    assert "tree" in err


def test_eval_large_graph_without_tree_is_resource_limited(tmp_path):
    gpath = tmp_path / "g.json"
    apath = tmp_path / "f.txt"
    assert invoke(
        "build", "--family", "hypercube", "-n", "5", "--no-tree", "-o", str(gpath)
    )[0] == 0
    assert invoke("arrange", "--family", "hypercube", "-n", "5", "-o", str(apath))[0] == 0
    # 32 vertices exceed the generic-bound enumeration limit
    status, _, err = invoke("eval", "-g", str(gpath), "-a", str(apath))
    assert status == 3
    assert "enumeration" in err


def test_verify_single_suite():
    status, out, _ = invoke("verify", "--suite", "cross-matching-constant")
    assert status == 0
    assert out.startswith("PASS cross-matching-constant:")


def test_verify_is_deterministic():
    a = invoke("verify", "--suite", "file-round-trips")
    b = invoke("verify", "--suite", "file-round-trips")
    assert a[0] == b[0] == 0
    assert a[1] == b[1]


def test_usage_errors():
    assert invoke()[0] == 2
    assert invoke("frobnicate")[0] == 2
    assert invoke("build", "--family", "klein-bottle", "-n", "3")[0] == 2
    assert invoke("build", "--family", "hypercube")[0] == 2  # missing -n
    assert invoke("eval", "-g", "/nonexistent", "-a", "/nonexistent")[0] == 2


def test_usage_goes_to_the_given_streams(capsys):
    status, out, err = invoke("table", "-n", "x", "--max-m", "3")
    assert (status, out) == (2, "")
    assert err.startswith("usage: bclayout table ")
    assert err.endswith(
        "bclayout table: error: argument -n/--dimension: invalid int value: 'x'\n"
    )
    status, out, err = invoke("frobnicate")
    assert (status, out) == (2, "")
    assert "bclayout: error: argument command: invalid choice: 'frobnicate'" in err
    status, out, err = invoke("certify", "--help")
    assert (status, err) == (0, "")
    assert out.startswith("usage: bclayout certify ")
    assert capsys.readouterr() == ("", "")


# ------------------------------------------------- malformed input


def assert_input_error(*argv):
    status, _, err = invoke(*argv)
    assert status == 2
    assert "Traceback" not in err
    assert err.startswith("error: ")


def test_cap_above_ceiling_is_input_error():
    assert_input_error("build", "--family", "hypercube", "-n", "3", "--cap", "27")


def test_deeply_nested_tree_is_input_error(tmp_path):
    depth = 3000
    tree = '{"left":' * depth + '{"leaf":true}' + ',"right":{"leaf":true},"phi":[0,1]}' * depth
    gpath = tmp_path / "deep.json"
    gpath.write_text('{"dimension":1,"edges":[[0,1]],"tree":' + tree + "}")
    assert_input_error("certify", "-i", str(gpath))


def test_boolean_dimension_is_input_error(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text('{"dimension":true,"edges":[[0,1]],"tree":{"leaf":true}}')
    assert_input_error("certify", "-i", str(gpath))


def test_boolean_phi_entries_are_input_error(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(
        '{"dimension":2,"edges":[[0,1],[0,2],[1,3],[2,3]],"tree":'
        '{"left":{"leaf":true},"right":{"leaf":true},"phi":[false,true]}}'
    )
    assert_input_error("certify", "-i", str(gpath))
    gpath.write_text(gpath.read_text().replace("[false,true]", "[0,1.5]"))
    assert_input_error("certify", "-i", str(gpath))


def test_oversized_arrangement_position_is_input_error(tmp_path):
    gpath = tmp_path / "g.json"
    assert invoke("build", "--family", "hypercube", "-n", "1", "-o", str(gpath))[0] == 0
    apath = tmp_path / "f.txt"
    apath.write_text(f"0 1\n1 {2**70}\n")
    assert_input_error("eval", "-g", str(gpath), "-a", str(apath))


def test_boolean_edge_endpoint_is_input_error(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text('{"dimension":1,"edges":[[0,true]],"tree":{"leaf":true}}')
    assert_input_error("certify", "-i", str(gpath))


def _leaf_beside_a_node(tree):
    tree["right"]["left"] = {"leaf": True}  # its sibling is a dimension-2 node


def _short_deep_phi(tree):
    tree["right"]["right"]["phi"] = [0]  # a level-2 row of one element


def _repeated_deep_phi(tree):
    tree["left"]["right"]["phi"] = [1, 1]


@pytest.mark.parametrize(
    "corrupt", [_leaf_beside_a_node, _short_deep_phi, _repeated_deep_phi]
)
@pytest.mark.parametrize("command", ["certify", "eval"])
def test_malformed_tree_levels_are_input_errors(tmp_path, corrupt, command):
    gpath = tmp_path / "g.json"
    argv = ["build", "--family", "random", "-n", "4", "--seed", "3", "-o", str(gpath)]
    assert invoke(*argv)[0] == 0
    data = json.loads(gpath.read_text())
    corrupt(data["tree"])
    gpath.write_text(json.dumps(data))
    if command == "certify":
        assert_input_error("certify", "-i", str(gpath))
    else:
        apath = tmp_path / "f.txt"
        apath.write_text("".join(f"{v} {v + 1}\n" for v in range(16)))
        assert_input_error("eval", "-g", str(gpath), "-a", str(apath))


@functools.cache
def valid_files(kind, n, seed):
    """Graph JSON, edge list and arrangement text of one BC graph."""
    bc = build_family(FamilySpec(kind, n, seed))
    texts = []
    for dump, obj in (
        (formats.dump_graph_json, formats.GraphDocument.from_bc(bc)),
        (formats.dump_edge_list, bc.graph),
        (formats.dump_arrangement, bc_arrangement(bc.tree)),
    ):
        buf = io.StringIO()
        dump(obj, buf)
        texts.append(buf.getvalue())
    return texts


@st.composite
def mutated_files(draw):
    kind = draw(st.sampled_from(KINDS))
    seed = draw(st.integers(0, 3)) if kind == "random" else None
    texts = valid_files(kind, draw(st.integers(1, 4)), seed)
    return [draw(mutated(text)) for text in texts]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100)
@given(files=mutated_files())
def test_mutated_files_exit_with_a_documented_code(fuzz_dir, files):
    """arrange, eval and certify -i on mutated graph JSON, edge-list and
    arrangement files end with exit code 0..3 and no traceback."""
    g, e, a = (fuzz_dir / name for name in ("g.json", "g.txt", "a.txt"))
    for path, text in zip((g, e, a), files):
        path.write_text(text, encoding="utf-8")
    for argv in (
        ["arrange", "-i", g],
        ["eval", "-g", g, "-a", a],
        ["eval", "-g", e, "-a", a],
        ["certify", "-i", g],
    ):
        status, _, err = invoke(*map(str, argv))
        assert status in (0, 1, 2, 3)
        assert "Traceback" not in err


@st.composite
def mutated_edge_lists(draw):
    kind = draw(st.sampled_from(KINDS))
    seed = draw(st.integers(0, 3)) if kind == "random" else None
    return draw(mutated(valid_files(kind, draw(st.integers(1, 3)), seed)[1]))


@settings(max_examples=60)
@given(text=mutated_edge_lists())
def test_solve_on_mutated_edge_lists_exits_with_a_documented_code(fuzz_dir, text):
    """solve -i on a mutated edge list of at most 8 vertices (a mutated
    header may ask for up to 16, which the budget stops) ends with exit
    code 0..3 and no traceback."""
    path = fuzz_dir / "solve.txt"
    path.write_text(text, encoding="utf-8")
    status, _, err = invoke("solve", "-i", str(path), "--budget", "0.5")
    assert status in (0, 1, 2, 3)
    assert "Traceback" not in err


@st.composite
def mutated_table_argvs(draw):
    """table with mutated -n and --m or --max-m values; two edits keep
    --max-m below 10 000 rows."""
    n = str(draw(st.integers(1, 6)))
    if draw(st.booleans()):
        option, ms = "--m", draw(st.lists(st.integers(1, 63), min_size=1, max_size=4))
        value = ",".join(map(str, ms))
    else:
        option, value = "--max-m", str(draw(st.integers(1, 63)))
    return ["table", "-n", draw(mutated(n, 2)), option, draw(mutated(value, 2))]


@settings(max_examples=100)
@given(argv=mutated_table_argvs())
def test_table_on_mutated_values_exits_with_a_documented_code(argv):
    status, _, err = invoke(*argv)
    assert status in (0, 1, 2, 3)
    assert "Traceback" not in err
