"""Print one `sha256 exit argv` line per bclayout command over a fixed
matrix, so that the CLI of two source trees can be compared byte for byte:

    PYTHONPATH=src python3 tools/cli_digest.py > after.txt
    PYTHONPATH=/path/to/other/src python3 tools/cli_digest.py > before.txt
    diff before.txt after.txt

For every family kind at n = 1..12, the random family with seeds 1 and 2:

- `build`, `build --no-tree`, `arrange`, `certify` and `certify --human`;
- `build -o` with and without the tree and `arrange -o` into a temporary
  directory, then `eval` of both graph files with that arrangement and
  `certify -i` of the graph with its tree;
- at n <= 4, `solve --family`, digesting standard output only, as standard
  error carries the search time.

The commands run in this process through `bclayout.cli.run`. A digest
covers standard output, standard error and the file an `-o` command wrote,
with the temporary directory's path replaced by `$TMP`, as it is in the
printed argv. Exit status: 0.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import tempfile
from typing import Iterator

from bclayout import cli
from bclayout.families import KINDS

DIMENSIONS = range(1, 13)
RANDOM_SEEDS = (1, 2)
SOLVE_DIMENSIONS = range(1, 5)


def members(dimensions=DIMENSIONS) -> Iterator[list[str]]:
    """The --family options of every member of the matrix."""
    for n in dimensions:
        for kind in KINDS:
            for seed in RANDOM_SEEDS if kind == "random" else (None,):
                seeded = [] if seed is None else ["--seed", str(seed)]
                yield ["--family", kind, "-n", str(n), *seeded]


def commands(tmp: str, dimensions=DIMENSIONS) -> Iterator[tuple[list[str], bool]]:
    """(argv, whether standard error is digested) of every command."""
    for family in members(dimensions):
        for argv in (
            ["build", *family],
            ["build", *family, "--no-tree"],
            ["arrange", *family],
            ["certify", *family],
            ["certify", *family, "--human"],
        ):
            yield argv, True
        name = os.path.join(tmp, "-".join(family[1::2]))
        graph, flat, arrangement = f"{name}.json", f"{name}-no-tree.json", f"{name}.arr"
        yield ["build", *family, "-o", graph], True
        yield ["build", *family, "--no-tree", "-o", flat], True
        yield ["arrange", "-i", graph, "-o", arrangement], True
        yield ["eval", "-g", graph, "-a", arrangement], True
        yield ["eval", "-g", flat, "-a", arrangement], True
        yield ["certify", "-i", graph], True
        if int(family[3]) in SOLVE_DIMENSIONS:
            yield ["solve", *family], False


def digest(argv: list[str], with_stderr: bool, tmp: str) -> tuple[str, int]:
    """The sha256 of what `argv` wrote, and its exit status."""
    out, err = io.StringIO(), io.StringIO()
    status = cli.run(argv, stdout=out, stderr=err)
    h = hashlib.sha256(out.getvalue().replace(tmp, "$TMP").encode())
    if with_stderr:
        h.update(b"\0" + err.getvalue().replace(tmp, "$TMP").encode())
    if "-o" in argv:
        with open(argv[argv.index("-o") + 1], "rb") as fp:
            h.update(b"\0" + fp.read())
    return h.hexdigest(), status


def lines(dimensions=DIMENSIONS) -> Iterator[str]:
    """One `sha256 exit argv` line per command of the matrix."""
    with tempfile.TemporaryDirectory() as tmp:
        for argv, with_stderr in commands(tmp, dimensions):
            sha, status = digest(argv, with_stderr, tmp)
            yield f"{sha} {status} {' '.join(argv).replace(tmp, '$TMP')}"


def main() -> int:
    for line in lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
