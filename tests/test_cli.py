"""Command-line surface: formats, exit codes, round trips."""

import functools
import io
import json
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bclayout import (
    KINDS, FamilySpec, bc_arrangement, build_family, edge_boundary, hypercube, max_induced_edges,
)
import bclayout
from bclayout import cli, core, families, formats, layout
from bclayout.cli import run
from bclayout.formats import load_graph_json

from mutations import LINE_BREAKS, NON_JSON_BLANKS, examples, mutated


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


@pytest.mark.parametrize("n, row", [
    ("63", "9223372036854775807,290536219160925437889,63"),
    ("100000000000000000000", "3,2,299999999999999999996"),  # no 2**n is built
])
def test_table_single_row_beyond_int64(n, row):
    m = row.split(",")[0]
    assert invoke("table", "-n", n, "--m", m) == (0, f"m,I,theta\n{row}\n", "")


@pytest.mark.parametrize("n, max_m", [("40", 4), ("100000000000000000000", 2)])
def test_table_large_dimension_needs_row_selection(n, max_m):
    status, _, err = invoke("table", "-n", n)
    assert status == 2
    assert "--max-m" in err
    status, out, _ = invoke("table", "-n", n, "--max-m", str(max_m))
    rows = [f"{m},{max_induced_edges(m)},{edge_boundary(int(n), m)}" for m in range(1, max_m + 1)]
    assert (status, out.splitlines()) == (0, ["m,I,theta", *rows])


def test_table_m_items_are_trimmed_of_json_blanks():
    rows = invoke("table", "-n", "5", "--m", "7,3,31")
    assert rows[0] == 0
    assert invoke("table", "-n", "5", "--m", " 7,\t3 ,\r31\n,") == rows


def test_table_max_m_below_1_fails_at_dimension_1():
    for max_m in ("0", "-1", "-2"):  # -2 has more bits than n
        assert invoke("table", "-n", "1", "--max-m", max_m) == (
            2, "", f"error: m must be in 1..2**1, got {max_m}\n")


BAD_MS = [("--m", m) for m in ("1,9", "9", "1,0", "0", "2,-1", "8,7,6,5,4,3,2,1,9")]
BAD_MS += [("--max-m", "0"), ("--max-m", "-2"), ("--m", ","), ("--m", "")]
BAD_MS += [("--m", "\u0663,+2"), ("--m", "3,1_0")]  # `int` reads both: not ASCII decimal
# a blank JSON does not have around an item
BAD_MS += [("--m", f"3{b},1") for b in NON_JSON_BLANKS] + [("--m", "3,\xa01")]
# longer than a token: `int` reads 641 digits and refuses 5000 with its advice
BAD_MS += [("--m", "1" * 641), ("--m", "1" * 5000)]
# -n and --max-m take the same tokens, refused by the parser; a dimension of
# 4300 nines is one `int` reads, and its rows one `str` refuses
BAD_MS += [(o, t) for o in ("-n", "--max-m") for t in ("\u0663", "1_0", "+3", "1" * 641)]
BAD_MS += [("-n", "9" * 4300)]


@pytest.mark.parametrize(
    "option, ms", BAD_MS,
    ids=[f"{'' if o == '--m' else o + '='}{m if len(m) < 20 else f'{len(m)}-digits'}"
         for o, m in BAD_MS],
)
def test_table_rejects_a_bad_m_before_writing(tmp_path, option, ms):
    path = tmp_path / "t.csv"
    rows = ["--max-m", "20"] if option == "-n" else []  # -n 3 -n MS --max-m 20
    for output in ([], ["-o", str(path)]):
        status, out, err = invoke("table", "-n", "3", option, ms, *rows, *output)
        assert (status, out) == (2, "")
        if option == "--m" or formats._TOKEN.fullmatch(ms):
            assert err.startswith("error: m must be in 1..2**3, got ")
            assert len(err) < 100  # a long token is cut as a malformed line is
        else:  # the parser refuses the token
            flag = "-n/--dimension" if option == "-n" else option
            assert err.startswith("usage: bclayout table ")
            assert err.endswith(
                f"error: argument {flag}: invalid int value: {formats._shown(ms)!r}\n")
    assert not path.exists()


# integers a text file must not hold, each written for the digit 1 or 4;
# `int` reads the first three as that digit, and refuses the sixth for its
# 5000 digits, more than its default limit; the rest stand beside a blank
# JSON does not have, around the line or between its tokens
NON_DECIMAL = [lambda d: f"+{d}", lambda d: f"0_{d}", lambda d: chr(0x660 + d),
               lambda d: f"{d}.0", lambda d: f"0x{d}", lambda d: str(d) * 5000]
NON_DECIMAL += [lambda d, b=b: f"{b}{d}" for b in NON_JSON_BLANKS]
NON_DECIMAL += [lambda d, b=b: f"{d}{b}" for b in NON_JSON_BLANKS]
EDGE_LIST, IDENTITY = "4 4\n0 1\n0 2\n1 3\n2 3\n", "0 1\n1 2\n2 3\n3 4\n"


@pytest.mark.parametrize("token", NON_DECIMAL, ids=[t(1)[:8] for t in NON_DECIMAL])
@pytest.mark.parametrize("place", ["header", "edge", "arrangement"])
def test_a_non_decimal_integer_exits_2_before_writing(tmp_path, place, token):
    graph, arrangement, path = tmp_path / "g.edges", tmp_path / "f.txt", tmp_path / "out"
    graph.write_text(EDGE_LIST.replace("4 4", f"{token(4)} 4") if place == "header" else
                     EDGE_LIST.replace("0 1", f"0 {token(1)}") if place == "edge" else EDGE_LIST)
    arrangement.write_text(IDENTITY.replace("0 1", f"0 {token(1)}")
                           if place == "arrangement" else IDENTITY)
    error = {"header": "edge-list header must be 'N M'", "edge": "malformed edge line: ",
             "arrangement": "malformed arrangement line: "}[place]
    commands = [["eval", "-g", str(graph), "-a", str(arrangement)]]
    commands += [["solve", "-i", str(graph)]] if place != "arrangement" else []
    for argv in commands:
        for output in ([], ["-o", str(path)]):
            status, out, err = invoke(*argv, *output)
            assert (status, out) == (2, "")
            assert err.startswith(f"error: {error}")
    assert not path.exists()


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


@pytest.mark.parametrize("newline, blank", [("\n", " "), ("\r\n", "\t"), ("\n", " \t ")])
def test_eval_generic_graph_without_tree(tmp_path, newline, blank):
    gpath = tmp_path / "g.edges"
    apath = tmp_path / "f.txt"
    for path, text in ((gpath, "4 4\n0 1\n2 3\n0 2\n1 3\n"), (apath, "0 1\n1 3\n2 4\n3 2\n")):
        path.write_bytes(text.replace(" ", blank).replace("\n", newline).encode())
    status, out, _ = invoke("eval", "-g", str(gpath), "-a", str(apath))
    assert status == 0
    report = json.loads(out)
    assert report["cost"] == 8
    assert report["lower_bound"] == 6
    assert report["closed_form"] is None
    assert report["optimal"] is False


@pytest.mark.parametrize("sep", LINE_BREAKS, ids=[f"U+{ord(c):04X}" for c in LINE_BREAKS])
def test_an_edge_list_line_ends_at_a_line_feed_only(tmp_path, sep):
    graph, arrangement = tmp_path / "g.edges", tmp_path / "f.txt"
    graph.write_text(f"4 2\n0 1{sep}2 3\n", encoding="utf-8")
    arrangement.write_text(IDENTITY)
    for argv in (["solve", "-i", graph], ["eval", "-g", graph, "-a", arrangement]):
        assert invoke(*map(str, argv)) == (2, "", "error: expected 2 edge lines, found 1\n")


@pytest.mark.parametrize("command", ["arrange", "certify"])
def test_tree_commands_refuse_an_edge_list(tmp_path, command):
    gpath, out = tmp_path / "g.edges", tmp_path / "out"
    gpath.write_text(EDGE_LIST)
    message = f"error: {gpath} carries no construction tree\n"
    for output in ([], ["-o", str(out)]):
        assert invoke(command, "-i", str(gpath), *output) == (2, "", message)
    assert not out.exists()


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
    # certify and arrange need the dimension alone: no tree, no graph
    def no_materialize(tree):
        raise AssertionError("the graph was materialized")

    def no_tree(spec, cap):
        raise AssertionError("the tree was built")

    monkeypatch.setattr(core, "materialize", no_materialize)
    monkeypatch.setattr(families, "materialize", no_materialize)
    monkeypatch.setattr(families, "build_tree", no_tree)
    flags = ["--family", kind, "-n", "6"] + (["--seed", "7"] if kind == "random" else [])
    status, out, _ = invoke("certify", *flags)
    assert status == 0
    report = json.loads(out)
    assert report["cost"] == report["lower_bound"] == 32 * 63
    assert report["cuts"] == [edge_boundary(6, m) for m in range(1, 64)]
    status, out, _ = invoke("arrange", *flags)
    assert status == 0
    assert out.splitlines() == [f"{v} {v + 1}" for v in range(64)]


@pytest.mark.parametrize("command", ["arrange", "certify"])
def test_family_commands_check_the_cap_and_the_seed(command, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work began before the checks")

    monkeypatch.setattr(families, "build_tree", no_work)
    monkeypatch.setattr(cli, "certify_dimension", no_work)
    status, _, err = invoke(command, "--family", "hypercube", "-n", "5", "--cap", "3")
    assert status == 3
    assert "cap" in err
    assert_input_error(command, "--family", "hypercube", "-n", "3", "--cap", "27")
    assert_input_error(command, "--family", "hypercube", "-n", "3", "--cap", "0")
    assert_input_error(command, "--family", "random", "-n", "3", "--seed", "-1")
    assert_input_error(command, "--family", "random", "-n", "3")


def test_out_of_memory_is_resource_error(monkeypatch):
    for error, line in (
        (MemoryError("Unable to allocate 8.00 GiB"), "out of memory: Unable to allocate 8.00 GiB"),
        (MemoryError(), "out of memory"),
    ):

        def exhausted(n):
            raise error

        monkeypatch.setattr(cli, "certify_dimension", exhausted)
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


def test_solve_exhaustive_budget_exhaustion():
    status, out, err = invoke("solve", "--family", "hypercube", "-n", "3", "--budget", "0")
    assert status == 3
    assert (json.loads(out)["mode"], json.loads(out)["proven"]) == ("exhaustive", False)
    assert "budget" in err


# a budget is ASCII digits with an optional `.digits` fraction; `float`
# reads all of these but the last four
BAD_BUDGETS = ["nan", "inf", "-1", "-0.5", "+2", "1e0", "1e400", " 2", "\u0661", "1_0",
               "x", "5.", ".5", "1" * 641]


@pytest.mark.parametrize("budget", BAD_BUDGETS, ids=[b[:8] for b in BAD_BUDGETS])
def test_solve_rejects_a_malformed_budget_before_any_search(budget, monkeypatch):
    def no_search(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(layout, "_solve_exhaustive", no_search)
    monkeypatch.setattr(layout, "_solve_branch_and_bound", no_search)
    for mode in ("exhaustive", "branch-and-bound"):
        status, out, err = invoke(
            "solve", "--family", "hypercube", "-n", "2", "--mode", mode, "--budget", budget
        )
        assert (status, out) == (2, "")
        assert err.startswith("usage: bclayout solve ")
        assert err.endswith(
            f"error: argument --budget: invalid float value: {formats._shown(budget)!r}\n")


@pytest.mark.parametrize("budget, status", [("0", 3), ("0.5", 0), ("30", 0), ("007.250", 0)])
def test_solve_takes_a_decimal_budget(budget, status):
    argv = ("solve", "--family", "hypercube", "-n", "3", "--mode", "exhaustive")
    got, out, _ = invoke(*argv, "--budget", budget)
    assert (got, json.loads(out)["proven"]) == (status, status == 0)


def test_solve_infinite_budget_sets_no_limit():
    # 400 digits: the largest float is below 10**309, so this reads as inf
    status, out, _ = invoke(
        "solve", "--family", "hypercube", "-n", "3", "--mode", "branch-and-bound",
        "--budget", "9" * 400,
    )
    assert status == 0
    assert json.loads(out)["cost"] == 28 and json.loads(out)["proven"] is True


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


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_verify_rejects_a_seed_out_of_range_before_any_suite(seed):
    assert invoke("verify", "--seed", seed) == (
        2, "", "error: seed must be an unsigned 64-bit integer\n")


@pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
def test_verify_takes_a_seed_at_either_bound(seed):
    status, out, _ = invoke("verify", "--suite", "induced-edge-oracle", "--seed", seed)
    assert (status, out.split(":")[0]) == (0, "PASS induced-edge-oracle")


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


def test_concurrent_runs_keep_their_own_streams():
    # one parser serves every call: each thread's usage errors reach only
    # the streams that thread passed in
    argvs = [["table", "-n", "x"], ["frobnicate"]]
    expected = [invoke(*argv) for argv in argvs]
    got = [[], []]
    barrier = threading.Barrier(2, timeout=60)

    def work(k):
        barrier.wait()
        for _ in range(200):
            got[k].append(invoke(*argvs[k]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [set(g) for g in got] == [{expected[0]}, {expected[1]}]
    assert [len(g) for g in got] == [200, 200]


def test_help_leaves_the_parser_as_it_was():
    argv = ["certify", "--family", "hypercube", "-n", "3"]
    before = invoke(*argv)
    status, out, err = invoke("certify", "--help")
    assert (status, err) == (0, "") and out.startswith("usage: bclayout certify ")
    assert invoke(*argv) == before
    assert invoke("certify", "--help") == (status, out, err)


def test_importing_the_package_builds_no_parser():
    done = subprocess.run(
        [sys.executable, "-c", "import bclayout; from bclayout import cli; "
         "print(cli._build_parser.cache_info().currsize)"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bclayout.__file__))},
    )
    assert (done.returncode, done.stdout) == (0, "0\n"), done.stderr


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


# json.dumps refuses such an integer too, so these are written as text
LONG_INTEGER_GRAPHS = [
    '{"dimension":' + "9" * 5000 + ',"edges":[]}',
    '{"dimension":2,"edges":[[0,' + "1" * 4301 + "]]}\n",
    '{"dimension":2,"edges":[],"tree":{"left":{"leaf":true},"right":{"leaf":true},'
    '"phi":[0,' + "1" * 4301 + "]}}\n",
]


@pytest.mark.parametrize("text", LONG_INTEGER_GRAPHS, ids=["dimension", "edge", "phi"])
@pytest.mark.parametrize("command", ["certify", "eval"])
def test_a_graph_json_integer_beyond_int_digit_limit_is_input_error(tmp_path, text, command):
    gpath, apath = tmp_path / "g.json", tmp_path / "f.txt"
    gpath.write_text(text)
    apath.write_text("0 1\n")
    argv = ["certify", "-i", gpath] if command == "certify" else ["eval", "-g", gpath, "-a", apath]
    limit = sys.get_int_max_str_digits()
    assert invoke(*map(str, argv)) == (
        2, "", f"error: graph JSON holds an integer of more than {limit} digits\n")


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


@settings(max_examples=examples(100))
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


@settings(max_examples=examples(60))
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


@settings(max_examples=examples(100))
@given(argv=mutated_table_argvs())
def test_table_on_mutated_values_exits_with_a_documented_code(argv):
    status, _, err = invoke(*argv)
    assert status in (0, 1, 2, 3)
    assert "Traceback" not in err


def run_module(*argv):
    """`python -m ARGV` in a child process that imports this bclayout."""
    src = os.path.dirname(os.path.dirname(bclayout.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", *argv], capture_output=True, text=True, env=env, timeout=120
    )


def test_package_runs_as_a_module():
    done = run_module("bclayout", "verify", "--suite", "cross-matching-constant")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("PASS cross-matching-constant: ")


def test_cli_module_runs_as_a_script():
    done = run_module("bclayout.cli", "table", "-n", "2")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "m,I,theta\n1,0,2\n2,1,2\n3,2,2\n"
