"""Command-line interface.

Commands: build, table, arrange, eval, certify, solve, verify. Reports go
to standard output, diagnostics to standard error. Exit status: 0 success,
1 verification failure, 2 usage or input error, 3 resource limit or memory.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import json
import re
import sys
from contextlib import contextmanager

from . import families, formats, verify
from .core import DEFAULT_DIMENSION_CAP, DimensionCapError, _check_cap, validate
from .isoperimetric import EnumerationLimitError, _check_boundary_args
from .layout import (
    EXHAUSTIVE_VERTEX_LIMIT,
    LinearArrangement,
    SolverLimitError,
    _check_solver_limit,
    certify_dimension,
    evaluate_arrangement,
    minla_exact,
)

# The full table, 2**n - 1 rows, is written up to this dimension: 22.9 MB of
# text at n = 20, doubling with each dimension; larger ones need --m or --max-m.
FULL_TABLE_DIMENSION_LIMIT = 20

# (stdout, stderr) of the `run` call in progress in this context; one
# parser serves every call, so it reads its streams from here
_STREAMS: contextvars.ContextVar = contextvars.ContextVar("bclayout_cli_streams")


class _Parser(argparse.ArgumentParser):  # subparsers take the same class
    """Help goes to the `run` call's stdout and usage errors to its stderr,
    not to sys.stdout/stderr."""

    def print_help(self, file=None):
        super().print_help(file or _STREAMS.get((sys.stdout, sys.stderr))[0])

    def error(self, message):
        err = _STREAMS.get((sys.stdout, sys.stderr))[1]
        self.print_usage(err)
        err.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(2)


def _integer(text: str) -> int:
    """An integer option's value: one token of the text formats, ASCII
    decimal of at most 640 digits (`formats._TOKEN`)."""
    if formats._TOKEN.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {formats._shown(text)!r}")
    return int(text)


def _seconds(text: str) -> float:
    """`--budget`'s value: ASCII digits and an optional `.digits` fraction, 640 at most each."""
    if re.fullmatch(r"[0-9]{1,640}(\.[0-9]{1,640})?", text) is None:
        raise argparse.ArgumentTypeError(f"invalid float value: {formats._shown(text)!r}")
    return float(text)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first `run` and kept for the process."""
    parser = _Parser(
        prog="bclayout",
        description=(
            "Construct bijective-connection graphs, compute their "
            "edge-isoperimetric profile, and certify minimum linear "
            "arrangements."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_options(p, required):
        p.add_argument("--family", choices=families.KINDS, required=required)
        p.add_argument("-n", "--dimension", type=_integer)
        p.add_argument("--seed", type=_integer, help="seed for the random family")
        p.add_argument(
            "--cap",
            type=_integer,
            default=DEFAULT_DIMENSION_CAP,
            help="materialization cap on the dimension",
        )

    p = sub.add_parser("build", help="construct a graph and write it as JSON")
    add_family_options(p, required=True)
    p.add_argument("-o", "--output", help="output path (default stdout)")
    p.add_argument(
        "--no-tree",
        action="store_true",
        help="omit the construction tree from the JSON",
    )
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("table", help="emit the m,I,theta CSV for a dimension")
    p.add_argument("-n", "--dimension", type=_integer, required=True)
    p.add_argument("--max-m", type=_integer, help="emit rows for m = 1..MAX_M")
    p.add_argument("--m", help="comma-separated list of m values")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser(
        "arrange", help="write the construction-tree arrangement for a graph"
    )
    add_family_options(p, required=False)
    p.add_argument("-i", "--input", help="graph JSON file carrying a tree")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_arrange)

    p = sub.add_parser("eval", help="evaluate an arrangement file on a graph")
    p.add_argument("-g", "--graph", required=True, help="graph file (JSON or edge list)")
    p.add_argument("-a", "--arrangement", required=True)
    p.add_argument("--human", action="store_true", help="table output instead of JSON")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser(
        "certify", help="match the tree arrangement against the lower bound"
    )
    add_family_options(p, required=False)
    p.add_argument("-i", "--input", help="graph JSON file carrying a tree")
    p.add_argument("--human", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("solve", help="exact minimum-arrangement search")
    add_family_options(p, required=False)
    p.add_argument("-i", "--input", help="graph file (JSON or edge list)")
    p.add_argument(
        "--mode",
        choices=("auto", "exhaustive", "branch-and-bound"),
        default="auto",
    )
    p.add_argument("--budget", type=_seconds, help="time budget in seconds")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("verify", help="run the bundled verification suites")
    p.add_argument("--seed", type=_integer, default=verify.DEFAULT_SEED)
    p.add_argument(
        "--suite",
        action="append",
        choices=verify.SUITE_NAMES,
        help="run only the named suite (repeatable)",
    )
    p.set_defaults(handler=_cmd_verify)

    return parser


@contextmanager
def _open_out(path, default):
    if path is None:
        yield default
    else:
        with open(path, "w") as fp:
            yield fp


def _family_spec_from_args(args) -> families.FamilySpec:
    if args.dimension is None:
        raise ValueError("a dimension is required (-n)")
    return families.FamilySpec(args.family, args.dimension, args.seed)


def _source(args):
    """The FamilySpec from --family flags (trusted), its cap and seed
    checked and nothing built, or the GraphDocument that
    `formats.load_graph_any` reads from --input (untrusted); the other one is None."""
    if (args.family is None) == (args.input is None):
        raise ValueError("provide exactly one of --family or --input")
    if args.family is None:
        with open(args.input) as fp:
            return None, formats.load_graph_any(fp)
    spec = _family_spec_from_args(args)
    families.check_spec(spec, cap=args.cap)
    return spec, None


def _tree_source(args):
    """The dimension and, for --input, the graph document, which must carry
    a construction tree; for --family the document is None."""
    spec, doc = _source(args)
    if spec is not None:
        return spec.dimension, None
    if doc.tree is None:
        raise ValueError(f"{args.input} carries no construction tree")
    return doc.tree.dimension, doc


def _witness_is_valid(bc, err) -> bool:
    check = validate(bc)
    for line in check.violations:
        print(f"invalid witness: {line}", file=err)
    return check.ok


def _cmd_build(args, out, err) -> int:
    bc = families.build(_family_spec_from_args(args), cap=args.cap)
    doc = formats.GraphDocument.from_bc(bc, include_tree=not args.no_tree)
    with _open_out(args.output, out) as fp:
        formats.dump_graph_json(doc, fp)
    return 0


def _cmd_table(args, out, err) -> int:
    n = args.dimension
    _check_boundary_args(n, 1)  # the dimension, before any m
    if args.m is not None:
        tokens = list(filter(None, (tok.strip(formats._BLANKS) for tok in args.m.split(","))))
        if not tokens:
            raise ValueError(f"m must be in 1..2**{n}, got no value")
        for tok in tokens:
            if not formats._TOKEN.fullmatch(tok):  # as in the text formats
                raise ValueError(f"m must be in 1..2**{n}, got {formats._shown(tok)!r}")
        ms = [int(tok) for tok in tokens]
        for m in ms:  # every m before any row is written
            _check_boundary_args(n, m)
    elif args.max_m is not None:
        top = min(args.max_m, (1 << min(n, args.max_m.bit_length())) - 1)  # <= 2**n - 1
        _check_boundary_args(n, top)  # a MAX_M below 1 fails like --m
        ms = range(1, top + 1)
    elif n <= FULL_TABLE_DIMENSION_LIMIT:
        ms = None  # every m, from the proven cut profile
    else:
        raise ValueError(
            f"a full table for n={n} is too large; pass --max-m or --m"
        )
    with _open_out(args.output, out) as fp:
        if ms is None:
            formats._write_full_table(fp, n)
        else:
            formats.write_isoperimetric_table(fp, n, ms)
    return 0


def _cmd_arrange(args, out, err) -> int:
    n, _ = _tree_source(args)  # the arrangement is the identity on 2**n vertices
    with _open_out(args.output, out) as fp:
        formats.dump_arrangement(LinearArrangement.identity(1 << n), fp)
    return 0


def _cmd_eval(args, out, err) -> int:
    with open(args.graph) as fp:
        doc = formats.load_graph_any(fp)
    with open(args.arrangement) as fp:
        arrangement = formats.load_arrangement(fp)
    witness = None if doc.tree is None else doc.to_bc()
    if witness is not None and not _witness_is_valid(witness, err):
        return 2
    report = evaluate_arrangement(doc.graph, arrangement, witness=witness)
    _emit_report(report, args, out)
    return 0


def _cmd_certify(args, out, err) -> int:
    n, doc = _tree_source(args)
    if doc is not None:
        bc = doc.to_bc()
        _check_cap(bc.dimension, args.cap)  # before any work on the witness
        if not _witness_is_valid(bc, err):
            return 1
    report = certify_dimension(n)  # a valid witness is a dimension-n BC graph
    _emit_report(report, args, out)
    return 0 if report.optimal else 1


def _emit_report(report, args, out) -> None:
    with _open_out(args.output, out) as fp:
        if args.human:
            for line in formats.format_report_lines(report):
                fp.write(line + "\n")
        else:
            formats.dump_report_json(report, fp)


def _cmd_solve(args, out, err) -> int:
    spec, doc = _source(args)
    size = doc.graph.vertex_count if spec is None else 1 << spec.dimension
    mode = args.mode
    if mode == "auto":
        mode = "exhaustive" if size <= EXHAUSTIVE_VERTEX_LIMIT else "branch-and-bound"
    _check_solver_limit(mode, size)
    graph = doc.graph if spec is None else families.build(spec, cap=args.cap).graph
    result = minla_exact(graph, mode, budget_seconds=args.budget)
    payload = {
        "cost": result.cost,
        "proven": result.proven,
        "mode": result.mode,
        "nodes_explored": result.nodes_explored,
        "positions": result.arrangement.to_list(),
    }
    with _open_out(args.output, out) as fp:
        fp.write(json.dumps(payload) + "\n")
    print(f"search took {result.elapsed_seconds:.3f}s", file=err)
    if not result.proven:
        print("budget exhausted: result not proven optimal", file=err)
        return 3
    return 0


def _cmd_verify(args, out, err) -> int:
    names = args.suite if args.suite else list(verify.SUITE_NAMES)
    all_passed = True
    for name in names:
        result = verify.run_suite(name, seed=args.seed)
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}", file=out)
        print(f"[{result.elapsed:.2f}s] {result.name}", file=err)
        all_passed = all_passed and result.passed
    return 0 if all_passed else 1


def run(argv, stdout=None, stderr=None) -> int:
    """Parse and execute one command; returns the exit status."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    token = _STREAMS.set((out, err))
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    finally:
        _STREAMS.reset(token)
    try:
        return args.handler(args, out, err)
    except (DimensionCapError, EnumerationLimitError, SolverLimitError) as exc:
        print(f"error: {exc}", file=err)
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=err)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
