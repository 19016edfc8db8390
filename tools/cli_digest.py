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
  error carries the search time;
- `table -n N` at each dimension.

Then `table` with selected rows (`--max-m`, `--m`, dimensions up to
10**20, where the rows exceed 64 bits), and valid edge lists and
arrangements spelled otherwise than the writers spell them (no final
newline, CRLF line ends, a blank line, a leading zero, lines out of
order), through `solve -i` and `eval`: the arrangement's bulk reader
refuses them, and the line readers read them, except CRLF, which a text
file opened by the commands reads as line feeds.

Then the rejection matrix, each command once to standard output and once
with `-o`: malformed graph JSON (a bool, float, oversized or string edge
endpoint or phi entry, or a dimension of 10**20 or of 5000 digits)
through `certify -i`, `arrange -i`, `solve -i` and `eval -g`; edge lists
and arrangements whose integers are not ASCII decimal, not integers, of
5000 digits or 2**63, whose lines hold a form feed or a blank JSON does
not have, or that list an edge or a vertex twice, through `solve -i` and
`eval`; a valid edge list, which carries no
tree, through `certify -i` and `arrange -i`; `table` with an empty,
out-of-range, non-decimal, 641- or 5000-digit `--m` or `--max-m`, a
non-decimal or 641-digit `-n`, a dimension of 4300 digits with
`--max-m 20`, or a dimension of 10**20 and no row selection; and `solve`
with a `--budget` that is not ASCII digits with an optional fraction.
Every one should exit 2.

Last, the parser and the largest enumeration: `--help` of the program and
of every command, two usage errors, and `eval` of a 24-vertex edge list,
whose lower bound enumerates all 2**24 subsets. Help text wraps at the
terminal's width (or `COLUMNS`), so compare runs made at the same width.

The commands run in this process through `bclayout.cli.run`. A digest
covers standard output, standard error (with any search time removed) and
the file an `-o` command wrote, if any, with the temporary directory's path
replaced by `$TMP`, as it is in the printed argv; an argument of more
than 64 characters is printed as its first 16 and its length. A command
that raises instead of returning an exit status (an uncaught exception,
a traceback from the console script) gets the digest of the exception's
type and message and exit status 1, as the interpreter would give it.
Exit status: 0.
"""

from __future__ import annotations

import hashlib
import io
import os
import re
import sys
import tempfile
from itertools import chain
from typing import Iterator

from bclayout import cli
from bclayout.families import KINDS

DIMENSIONS = range(1, 13)
RANDOM_SEEDS = (1, 2)
SOLVE_DIMENSIONS = range(1, 5)

# the dimension-2 hypercube, with its tree, as an edge list and as the identity
GRAPH = (
    '{"dimension":2,"edges":[[0,1],[0,2],[1,3],[2,3]],'
    '"tree":{"left":{"leaf":true},"right":{"leaf":true},"phi":[0,1]}}'
)
EDGES = "4 4\n0 1\n0 2\n1 3\n2 3\n"
ARRANGEMENT = "0 1\n1 2\n2 3\n3 4\n"
# (name, text): each replaces one integer of a valid file
BIG = str(2**64 + 1)
BAD_GRAPHS = [(f"edge-{name}", GRAPH.replace("[0,1],", f"[0,{bad}],")) for name, bad in (
    ("bool", "true"), ("float", "1.0"), ("big", BIG), ("str", '"1"'))]
BAD_GRAPHS += [(f"phi-{name}", GRAPH.replace('"phi":[0,1]', f'"phi":[{bad},1]')) for name, bad in (
    ("bool", "false"), ("float", "0.0"), ("big", BIG), ("str", '"0"'))]
BAD_GRAPHS += [("dimension-huge", '{"dimension":100000000000000000000,"edges":[]}'),
               ("dimension-long", '{"dimension":' + "9" * 5000 + ',"edges":[]}')]
TOKENS = (("plus", "+1"), ("underscore", "0_1"), ("arabic", "\u0661"), ("float", "1.0"),
          ("bool", "True"), ("big", BIG), ("long", "1" * 5000))
BAD_EDGES = [(f"row-{name}", EDGES.replace("0 1\n", f"0 {bad}\n")) for name, bad in TOKENS]
BAD_EDGES += [("header-plus", EDGES.replace("4 4", "+4 4")),
              ("header-arabic", EDGES.replace("4 4", "\u0664 4")),
              ("form-feed", EDGES.replace("0 1\n", "0 1\f")),  # one line of two edges
              ("row-nbsp", EDGES.replace("0 1\n", "0\xa01\n")),
              ("row-int64-bound", EDGES.replace("0 1\n", f"0 {2**63}\n")),
              ("row-twice", EDGES.replace("0 2\n", "0 1\n"))]
BAD_ARRANGEMENTS = [(f"position-{name}", ARRANGEMENT.replace("0 1\n", f"0 {bad}\n"))
                    for name, bad in TOKENS]
BAD_ARRANGEMENTS += [("position-huge", ARRANGEMENT.replace("0 1\n", f"0 {2**70}\n")),
                     ("line-ideographic", ARRANGEMENT.replace("0 1\n", "0\u30001\n")),
                     ("position-int64-bound", ARRANGEMENT.replace("0 1\n", f"0 {2**63}\n")),
                     ("vertex-twice", ARRANGEMENT.replace("1 2\n", "0 2\n"))]
# (name, text): valid files that are not the writers' bytes
SPELLINGS = (("no-final-newline", lambda t: t[:-1]), ("crlf", lambda t: t.replace("\n", "\r\n")),
             ("blank-line", lambda t: t.replace("\n", "\n\n", 1)),
             ("leading-zero", lambda t: t.replace("0 1\n", "0 01\n")))
NEAR_EDGES = [(name, spell(EDGES)) for name, spell in SPELLINGS]
NEAR_EDGES += [("rows-out-of-order", EDGES.replace("0 1\n0 2\n", "0 2\n0 1\n"))]
NEAR_ARRANGEMENTS = [(name, spell(ARRANGEMENT)) for name, spell in SPELLINGS]
NEAR_ARRANGEMENTS += [("lines-out-of-order", ARRANGEMENT.replace("0 1\n1 2\n", "1 2\n0 1\n"))]
HUGE = str(10**20)  # a dimension whose rows exceed 64 bits
BAD_TABLES = [["-n", "3", *option] for option in (
    ["--m", ","], ["--m="], ["--m", "0"], ["--max-m", "0"], ["--m", "\u0663,+2"],
    ["--m", "1" * 641], ["--m", "1" * 5000], ["--m", "1,\u30002"])]
BAD_TABLES += [["-n", HUGE]]
BAD_TABLES += [option for token in ("\u0663", "1_0", "+3", "1" * 641)
               for option in (["-n", token, "--max-m", "3"], ["-n", "3", "--max-m", token])]
BAD_TABLES += [["-n", "9" * 4300, "--max-m", "20"]]
# row selections, the README's among them
TABLES = [["-n", "40", "--max-m", "4"], ["-n", "3", "--max-m", "100"],
          ["-n", "5", "--m", "7,3,31"], ["-n", "63", "--m", str(2**63 - 1)],
          ["-n", "100", "--m", "3"], ["-n", HUGE, "--m", "3"], ["-n", HUGE, "--max-m", "2"]]
# `--budget` values that are not ASCII digits with an optional fraction
BAD_BUDGETS = ("x", "\u0661", "1_0", " 2", "+2", "-1", "1e400", "1e0", "inf", "nan")
COMMANDS = ("build", "table", "arrange", "eval", "certify", "solve", "verify")
USAGE_ERRORS = [["frobnicate"], ["table", "-n", "x"]]
# a 24-vertex circulant, each vertex joined to the next and the fifth after it
WIDE = 24
WIDE_EDGES = f"{WIDE} {2 * WIDE}\n" + "".join(
    f"{v} {(v + step) % WIDE}\n" for v in range(WIDE) for step in (1, 5))


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
    for n in dimensions:
        yield ["table", "-n", str(n)], True


def write(tmp: str, name: str, text: str) -> str:
    """The path of file `name` in `tmp`, after writing `text` to it as is."""
    with open(os.path.join(tmp, name), "w", encoding="utf-8") as fp:
        fp.write(text)
    return os.path.join(tmp, name)


def good_files(tmp: str) -> tuple[str, str, str]:
    """The paths of the valid graph JSON, edge list and arrangement, written."""
    return (write(tmp, "good.json", GRAPH), write(tmp, "good.edges", EDGES),
            write(tmp, "good.arr", ARRANGEMENT))


def near_canonical(tmp: str) -> Iterator[tuple[list[str], bool]]:
    """(argv, True) of `solve -i` and `eval` of each valid file that is not
    the writers' bytes, after writing it and the files it is read beside."""
    graph, edges, arrangement = good_files(tmp)
    for name, text in NEAR_EDGES:
        path = write(tmp, f"near-{name}.edges", text)
        yield ["solve", "-i", path], True
        yield ["eval", "-g", path, "-a", arrangement], True
    for name, text in NEAR_ARRANGEMENTS:
        path = write(tmp, f"near-{name}.arr", text)
        yield ["eval", "-g", graph, "-a", path], True
        yield ["eval", "-g", edges, "-a", path], True


def rejections(tmp: str) -> Iterator[tuple[list[str], bool]]:
    """(argv, True) of every command of the rejection matrix, after writing
    its malformed files and the valid ones they are read beside."""
    graph, edges, arrangement = good_files(tmp)
    argvs = []
    for name, text in BAD_GRAPHS:
        path = write(tmp, f"{name}.json", text)
        argvs += [["certify", "-i", path], ["arrange", "-i", path], ["solve", "-i", path],
                  ["eval", "-g", path, "-a", arrangement]]
    for name, text in BAD_EDGES:
        path = write(tmp, f"{name}.edges", text)
        argvs += [["solve", "-i", path], ["eval", "-g", path, "-a", arrangement]]
    for name, text in BAD_ARRANGEMENTS:
        path = write(tmp, f"{name}.arr", text)
        argvs += [["eval", "-g", graph, "-a", path], ["eval", "-g", edges, "-a", path]]
    argvs += [[command, "-i", edges] for command in ("certify", "arrange")]  # no tree
    argvs += [["table", *option] for option in BAD_TABLES]
    argvs += [["solve", "--family", "hypercube", "-n", "2", "--budget", budget]
              for budget in BAD_BUDGETS]
    for i, argv in enumerate(argvs):
        yield argv, True
        yield [*argv, "-o", os.path.join(tmp, f"rejected-{i}.out")], True


def extras(tmp: str) -> list[tuple[list[str], bool]]:
    """(argv, True) of the help texts, the usage errors and the 24-vertex
    `eval`, after writing its edge list and identity arrangement."""
    graph, arrangement = os.path.join(tmp, "wide.edges"), os.path.join(tmp, "wide.arr")
    with open(graph, "w") as fp:
        fp.write(WIDE_EDGES)
    with open(arrangement, "w") as fp:
        fp.writelines(f"{v} {v + 1}\n" for v in range(WIDE))
    argvs = [["--help"], *([command, "--help"] for command in COMMANDS), *USAGE_ERRORS]
    argvs.append(["eval", "-g", graph, "-a", arrangement])
    return [(argv, True) for argv in argvs]


def digest(argv: list[str], with_stderr: bool, tmp: str) -> tuple[str, int]:
    """The sha256 of what `argv` wrote, and its exit status."""
    out, err = io.StringIO(), io.StringIO()
    try:
        status = cli.run(argv, stdout=out, stderr=err)
    except Exception as exc:  # what the console script would end with a traceback
        return hashlib.sha256(f"{type(exc).__name__}: {exc}".encode()).hexdigest(), 1
    h = hashlib.sha256(out.getvalue().replace(tmp, "$TMP").encode())
    if with_stderr:
        text = re.sub(r"search took \S+\n", "", err.getvalue())
        h.update(b"\0" + text.replace(tmp, "$TMP").encode())
    path = argv[argv.index("-o") + 1] if "-o" in argv else None
    if path is not None and os.path.exists(path):
        with open(path, "rb") as fp:
            h.update(b"\0" + fp.read())
    return h.hexdigest(), status


def lines(dimensions=DIMENSIONS) -> Iterator[str]:
    """One `sha256 exit argv` line per command of the matrix, then of the
    row selections, the near-canonical files, the rejection matrix and the
    extras."""
    tables = [(["table", *argv], True) for argv in TABLES]
    with tempfile.TemporaryDirectory() as tmp:
        for argv, with_stderr in chain(commands(tmp, dimensions), tables, near_canonical(tmp),
                                       rejections(tmp), extras(tmp)):
            sha, status = digest(argv, with_stderr, tmp)
            shown = (a.replace(tmp, "$TMP") for a in argv)
            shown = (a if len(a) <= 64 else f"{a[:16]}...({len(a)} chars)" for a in shown)
            yield f"{sha} {status} {' '.join(shown)}"


def main() -> int:
    for line in lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
