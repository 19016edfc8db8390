"""tools/cli_digest.py on the matrix's first two dimensions."""

import hashlib
import importlib.util
import io
import os
import re

from bclayout import cli

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "cli_digest.py")
_spec = importlib.util.spec_from_file_location("cli_digest", _PATH)
cli_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_digest)


def test_lines_are_deterministic_and_digest_the_output():
    lines = list(cli_digest.lines(range(1, 3)))
    assert lines == list(cli_digest.lines(range(1, 3)))  # a new temporary directory
    # per member: five commands, six on files and solve; six members a dimension
    assert len(lines) == 2 * 6 * 12
    assert all(re.fullmatch(r"[0-9a-f]{64} [0-3] \S.*", line) for line in lines)
    assert all("$TMP/" in line for line in lines if " -o " in line or " -i " in line)
    out = io.StringIO()
    assert cli.run(["build", "--family", "hypercube", "-n", "2"], stdout=out) == 0
    sha = hashlib.sha256(out.getvalue().encode() + b"\0").hexdigest()
    assert f"{sha} 0 build --family hypercube -n 2" in lines
    solved = [line for line in lines if " solve " in line]
    assert len(solved) == 12 and all(line.split()[1] == "0" for line in solved)


def test_solve_is_digested_without_its_timing_line():
    argv = ["solve", "--family", "hypercube", "-n", "3"]
    assert (argv, False) in list(cli_digest.commands("tmp", range(3, 4)))
    out = io.StringIO()
    cli.run(argv, stdout=out, stderr=io.StringIO())
    assert cli_digest.digest(argv, False, "tmp") == (
        hashlib.sha256(out.getvalue().encode()).hexdigest(),
        0,
    )
