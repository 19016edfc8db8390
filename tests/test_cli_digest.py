"""tools/cli_digest.py on the matrix's first two dimensions, its
near-canonical files, its rejection matrix and its extras."""

import hashlib
import importlib.util
import io
import json
import os
import re
import tempfile

from bclayout import cli

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "cli_digest.py")
_spec = importlib.util.spec_from_file_location("cli_digest", _PATH)
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    return cli.run(argv, stdout=out, stderr=err), out.getvalue(), err.getvalue()


def test_lines_are_deterministic_and_digest_the_output():
    lines = list(cli_digest.lines(range(1, 3)))
    assert lines == list(cli_digest.lines(range(1, 3)))  # a new temporary directory
    # per member: five commands, six on files and solve; six members and
    # one table a dimension
    tail = lines[2 * 6 * 12 + 2 :]
    # row selections, near-canonical files, rejections, extras
    assert tail == list(cli_digest.lines(range(0)))
    # two commands a near-canonical file; each rejection to standard output
    # and with -o: four commands a bad
    # graph, two a bad edge list or arrangement, the edge list through the
    # two tree commands, one a bad table or budget; then help, usage, eval
    d = cli_digest
    rejected = (4 * len(d.BAD_GRAPHS) + 2 * len(d.BAD_EDGES) + 2 * len(d.BAD_ARRANGEMENTS) + 2
                + len(d.BAD_TABLES) + len(d.BAD_BUDGETS))
    extras = 1 + len(d.COMMANDS) + len(d.USAGE_ERRORS) + 1
    assert len(tail) == len(d.TABLES) + near_count() + 2 * rejected + extras
    assert all(re.fullmatch(r"[0-9a-f]{64} [0-3] \S.*", line) for line in lines)
    assert all("$TMP/" in line for line in lines if " -o " in line or " -i " in line)
    out = io.StringIO()
    assert cli.run(["build", "--family", "hypercube", "-n", "2"], stdout=out) == 0
    sha = hashlib.sha256(out.getvalue().encode() + b"\0").hexdigest()
    assert f"{sha} 0 build --family hypercube -n 2" in lines
    solved = [line for line in lines[: 2 * 6 * 12] if " solve " in line]
    assert len(solved) == 12 and all(line.split()[1] == "0" for line in solved)
    out = io.StringIO()
    assert cli.run(["table", "-n", "2"], stdout=out) == 0
    sha = hashlib.sha256(out.getvalue().encode() + b"\0").hexdigest()
    assert lines[2 * 6 * 12 + 1] == f"{sha} 0 table -n 2"
    assert all(line.split()[1] == "0" for line in tail[: len(cli_digest.TABLES)])
    assert " table -n 3 --m 1111111111111111...(5000 chars)" in "".join(tail)


def test_an_uncaught_exception_is_digested_as_exit_1(monkeypatch):
    def run(argv, stdout, stderr):
        raise OverflowError("int too large")

    monkeypatch.setattr(cli_digest.cli, "run", run)
    expected = hashlib.sha256(b"OverflowError: int too large").hexdigest(), 1
    assert cli_digest.digest(["table", "-n", "9"], True, "tmp") == expected


def test_solve_is_digested_without_its_timing_line():
    argv = ["solve", "--family", "hypercube", "-n", "3"]
    assert (argv, False) in list(cli_digest.commands("tmp", range(3, 4)))
    out = io.StringIO()
    cli.run(argv, stdout=out, stderr=io.StringIO())
    assert cli_digest.digest(argv, False, "tmp") == (
        hashlib.sha256(out.getvalue().encode()).hexdigest(),
        0,
    )


def near_count():
    return 2 * len(cli_digest.NEAR_EDGES) + 2 * len(cli_digest.NEAR_ARRANGEMENTS)


def test_near_canonical_files_read_as_the_written_ones():
    """Each valid file spelled otherwise than the writers spell it gives
    the output of the writers' bytes; every spelling differs from them."""
    d = cli_digest
    assert all(text not in (d.EDGES, d.ARRANGEMENT) for _, text in d.NEAR_EDGES + d.NEAR_ARRANGEMENTS)
    with tempfile.TemporaryDirectory() as tmp:
        near = list(d.near_canonical(tmp))
        for argv, with_stderr in near:
            # the same command on the good file of the same format
            good = [os.path.join(tmp, "good" + os.path.splitext(a)[1]) if "/near-" in a else a
                    for a in argv]
            status, out, _ = invoke(argv)
            assert (status, out) == invoke(good)[:2] and status == 0 and with_stderr, argv
    assert len(near) == near_count()


def test_every_rejection_exits_2_and_writes_nothing():
    with tempfile.TemporaryDirectory() as tmp:
        for argv, with_stderr in cli_digest.rejections(tmp):
            out, err = io.StringIO(), io.StringIO()
            assert (cli.run(argv, stdout=out, stderr=err), out.getvalue()) == (2, ""), argv
            text = err.getvalue()  # the command's error, or the parser's for a token
            parser = re.search(": invalid (int|float) value: ", text)
            assert text.startswith("error: ") or parser, argv
            assert with_stderr
            assert "-o" not in argv or not os.path.exists(argv[-1])
        extras = len(cli_digest.extras(tmp))
    # a command and its `-o` twin digest alike: the same error, no file
    lines = list(cli_digest.lines(range(0)))[len(cli_digest.TABLES) + near_count() : -extras]
    assert all(line.split()[1] == "2" for line in lines)
    assert [line.split()[0] for line in lines[::2]] == [line.split()[0] for line in lines[1::2]]
    assert all(" -o $TMP/rejected-" in line for line in lines[1::2])


def test_solve_rejections_digest_standard_error_without_the_search_time(monkeypatch):
    def run(argv, stdout, stderr):
        stderr.write("search took 0.123s\nerror: x\n")
        return 2

    monkeypatch.setattr(cli_digest.cli, "run", run)
    expected = hashlib.sha256(b"\0error: x\n").hexdigest(), 2
    assert cli_digest.digest(["solve", "-i", "g"], True, "tmp") == expected


def test_extras_digest_help_usage_errors_and_a_24_vertex_eval():
    with tempfile.TemporaryDirectory() as tmp:
        extras = cli_digest.extras(tmp)
        runs = [(argv, *invoke(argv)) for argv, _ in extras]
    helps = [(argv, status, out, err) for argv, status, out, err in runs if "--help" in argv]
    assert len(helps) == 1 + len(cli_digest.COMMANDS)
    for argv, status, out, err in helps:
        assert (status, err) == (0, "") and out.startswith("usage: bclayout ")
    for argv, status, out, err in runs[len(helps):-1]:
        assert (status, out) == (2, "") and err.startswith("usage: bclayout"), argv
    argv, status, out, err = runs[-1]
    report = json.loads(out)
    assert (status, err, len(report["cuts"])) == (0, "", 23)  # a cut between each two positions
    assert report["lower_bound"] <= report["cost"]

