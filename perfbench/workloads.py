"""The four benchmark workloads: seeded inputs, the timed program calls,
the checks on their outputs, and the traced variant of each item.

The random inputs come from pools that are generated from fixed pool seeds
and whose outputs are pinned in ``golden.json``. The workload seed picks the
order in which a run draws from each pool, so every run, whatever its seed,
checks every output it produces against a value pinned when the pools were
made.
Each workload writes its input files before the first timed item; the
program receives only those inputs.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import bclayout as bl
from bclayout import cli, formats

_MASK64 = (1 << 64) - 1
POOL_SEED = 0x62636C61796F7574
KINDS = ("hypercube", "locally-twisted", "mobius-0", "mobius-1")


class Stream:
    """SplitMix64 with rejection-sampled bounded draws and a descending
    Fisher-Yates shuffle. The benchmark keeps its own copy so that its
    inputs stay the same when the program's generator changes."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        limit = ((_MASK64 + 1) // bound) * bound
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def permutation(self, size: int) -> list[int]:
        items = list(range(size))
        for i in range(size - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


@dataclass(frozen=True)
class Sizes:
    random_n: int = 18
    random_pool: int = 24
    structured_n: int = 20
    file_n: int = 15
    bnb_vertices: int = 12
    bnb_edges: int = 24
    bnb_per_item: int = 20
    bnb_pool: int = 256
    eval_vertices: int = 24
    eval_edges: int = 48
    eval_pool: int = 16


FULL = Sizes()
SMOKE = Sizes(
    random_n=7, random_pool=3, structured_n=7, file_n=6,
    bnb_vertices=7, bnb_edges=10, bnb_per_item=3, bnb_pool=8,
    eval_vertices=10, eval_edges=16, eval_pool=2,
)


class PinError(ValueError):
    """The pinned values do not describe this benchmark's inputs."""


def pool_seeds(tag: int, count: int) -> list[int]:
    stream = Stream(POOL_SEED ^ tag)
    return [stream.next_u64() for _ in range(count)]


def random_graph_edges(vertices: int, edges: int, seed: int) -> list[tuple[int, int]]:
    pairs = [(u, v) for u in range(vertices) for v in range(u + 1, vertices)]
    return sorted(pairs[i] for i in Stream(seed).permutation(len(pairs))[:edges])


def edges_digest(graph: bl.Graph) -> str:
    return hashlib.sha256(np.ascontiguousarray(graph.edge_array).data).hexdigest()


def closed_form(n: int) -> int:
    return (1 << (n - 1)) * ((1 << n) - 1)


def boundary_table(n: int) -> list[int]:
    """edge_boundary(n, m) for m = 1 .. 2**n - 1, from the recurrence
    I(2**l + s) = l * 2**(l-1) + s + I(s) for the most induced edges."""
    induced = np.zeros(1 << n, dtype=np.int64)
    for l in range(n):
        block = 1 << l
        induced[block:2 * block] = induced[:block] + np.arange(block) + ((l << l) >> 1)
    m = np.arange(1 << n, dtype=np.int64)
    return (n * m - 2 * induced)[1:].tolist()


def tree_nodes(tree) -> int:
    """Distinct Node objects in a construction tree."""
    seen = set()
    stack = [tree]
    while stack:
        t = stack.pop()
        if isinstance(t, bl.Node) and id(t) not in seen:
            seen.add(id(t))
            stack.append(t.left)
            stack.append(t.right)
    return len(seen)


def draw_sizes(n: int) -> list[int]:
    """Permutation sizes in the order random_bc draws them: left subtree,
    right subtree, then the node itself."""
    out: list[int] = []

    def walk(d):
        if d > 1:
            walk(d - 1)
            walk(d - 1)
            out.append(1 << (d - 1))

    walk(n)
    return out


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    rc = cli.run(argv, out, io.StringIO())
    return rc, out.getvalue()


def _report_problems(report: dict, bound: int | None, cost: int | None) -> list[str]:
    """Problems with a certify or eval report expected to be optimal at
    `bound` (when given) with cost `cost` (when given)."""
    problems = []
    if cost is not None and report["cost"] != cost:
        problems.append(f"cost {report['cost']} != {cost}")
    if bound is not None:
        if report["lower_bound"] != bound or report["closed_form"] != bound:
            problems.append(f"bound {report['lower_bound']} != {bound}")
        if report["optimal"] is not True:
            problems.append("not reported optimal")
    return problems


def _traced_materialize(tree, tr, i, within):
    with tr.span("core.materialize", i, within=within) as s:
        graph = bl.materialize(tree)
    s["counts"]["edges"] = graph.edge_count
    tr.peak(s, lambda: bl.materialize(tree))
    with tr.span("core.Graph", i, within=s):
        bl.Graph(graph.vertex_count, graph.edge_array)
    return graph


def _traced_validate(bc, tr, i, within=None):
    with tr.span("core.validate", i, within=within) as s:
        report = bl.validate(bc)
    tr.peak(s, lambda: bl.validate(bc))
    return report


def _traced_certify(bc, tr, i, within=None):
    with tr.span("layout.certify", i, within=within) as s:
        report = bl.certify(bc)
    with tr.span("layout.bc_arrangement", i, within=s):
        f = bl.bc_arrangement(bc.tree)
    with tr.span("layout.arrangement_cost", i, within=s):
        bl.arrangement_cost(bc.graph, f)
    with tr.span("layout.cut_profile", i, within=s):
        bl.cut_profile(bc.graph, f)
    with tr.span("isoperimetric.sum_edge_boundary", i, within=s) as b:
        bl.sum_edge_boundary(bc.dimension)
    tr.peak(b, lambda: bl.sum_edge_boundary(bc.dimension))
    return report


def _traced_build(spec, tr, i, within=None):
    with tr.span("families.build", i, within=within) as s:
        bc = bl.build_family(spec)
    s["counts"]["tree_nodes"] = tree_nodes(bc.tree)
    _traced_materialize(bc.tree, tr, i, s)
    return bc


def _file_size(path: str, span: dict, key: str) -> None:
    span["counts"][key] = span["counts"].get(key, 0) + os.path.getsize(path)


def _traced_read(load, path, tr, i, within):
    """One `formats` loader on a file, in a span that counts the bytes read."""
    with tr.span(f"formats.{load.__name__}", i, within=within) as s:
        with open(path) as fp:
            value = load(fp)
    _file_size(path, s, "bytes_read")
    return value


class Workload:
    """One workload: `run(i)` makes item i's program calls and is the only
    timed part; `check(i, out)` lists what is wrong with its outputs (the
    caller adds `setup_problems`); `traced(i, tr)` makes the same calls
    inside spans, plus separate calls into the inner layers."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, golden: dict | None, workdir: str):
        self.sizes = sizes
        self.pins = None if golden is None else golden[self.name]
        self.workdir = workdir
        self.stream = Stream(seed)
        # problems found while setting up, reported against every item
        self.setup_problems: list[str] = []

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> list[str]:
        raise NotImplementedError

    def traced(self, i: int, tr):
        raise NotImplementedError


class RandomCertify(Workload):
    """random_bc -> validate -> certify through the library."""

    name = "random-certify"

    def __init__(self, seed, sizes, golden, workdir):
        super().__init__(seed, sizes, golden, workdir)
        self.pool = pool_seeds(1, sizes.random_pool)
        if self.pins is not None and [p["seed"] for p in self.pins] != self.pool:
            raise PinError("random-certify pins were made for other seeds")
        self.order = self.stream.permutation(len(self.pool))

    def _entry(self, i):
        k = self.order[i % len(self.order)]
        return k, self.pool[k]

    @staticmethod
    def make_pins(sizes):
        return [
            {"seed": s, "edges_sha256": edges_digest(bl.random_bc(sizes.random_n, s).graph)}
            for s in pool_seeds(1, sizes.random_pool)
        ]

    def run(self, i):
        bc = bl.random_bc(self.sizes.random_n, self._entry(i)[1])
        return bc, bl.validate(bc), bl.certify(bc)

    def check(self, i, out):
        bc, valid, report = out
        bound = closed_form(self.sizes.random_n)
        problems = [] if valid.ok else list(valid.violations)
        if not (report.cost == report.lower_bound == bound and report.optimal):
            problems.append(f"certify gave cost {report.cost}, bound {report.lower_bound}")
        if self.pins is not None:
            k, _ = self._entry(i)
            if edges_digest(bc.graph) != self.pins[k]["edges_sha256"]:
                problems.append(f"edges of pool entry {k} differ from the pin")
        return problems

    def traced(self, i, tr):
        n, seed = self.sizes.random_n, self._entry(i)[1]
        with tr.span("families.random_bc", i) as build:
            bc = bl.random_bc(n, seed)
        build["counts"]["tree_nodes"] = tree_nodes(bc.tree)
        sizes = draw_sizes(n)
        with tr.span("rng.permutation", i, within=build) as s:
            rng = bl.SplitMix64(seed)
            last = None
            for size in sizes:
                last = rng.permutation(size)
        s["counts"]["perm_elements"] = sum(sizes)
        if sizes and last != bc.tree.phi:
            raise ValueError("replayed draws do not give the tree's top permutation")
        _traced_materialize(bc.tree, tr, i, build)
        valid = _traced_validate(bc, tr, i)
        report = _traced_certify(bc, tr, i)
        return bc, valid, report


class StructuredCertify(Workload):
    """`bclayout certify --family K -n 20` in-process, K cycling over the
    four structured families in a fixed order. The workload has no random
    inputs, and a fixed order gives every run the same mix of families; the
    seed only picks which family's edges the set-up checks against its pin."""

    name = "structured-certify"

    def __init__(self, seed, sizes, golden, workdir):
        super().__init__(seed, sizes, golden, workdir)
        n = sizes.structured_n
        self.cuts = boundary_table(n)
        for m in [1, (1 << n) - 1] + [1 + self.stream.below((1 << n) - 1) for _ in range(64)]:
            if self.cuts[m - 1] != bl.edge_boundary(n, m):
                self.setup_problems.append(f"edge_boundary({n}, {m}) differs from the table")
        # Building a graph costs most of an item, so each run checks the
        # edges of one family, picked by the seed, here.
        if self.pins is not None:
            kind = KINDS[self.stream.below(len(KINDS))]
            if edges_digest(bl.build_family(bl.FamilySpec(kind, n)).graph) != self.pins[kind]:
                self.setup_problems.append(f"{kind} edges differ from the pin")

    @staticmethod
    def make_pins(sizes):
        return {
            k: edges_digest(bl.build_family(bl.FamilySpec(k, sizes.structured_n)).graph)
            for k in KINDS
        }

    def _argv(self, i):
        kind = KINDS[i % len(KINDS)]
        return kind, ["certify", "--family", kind, "-n", str(self.sizes.structured_n)]

    def run(self, i):
        return _cli(self._argv(i)[1])

    def check(self, i, out):
        rc, text = out
        kind = self._argv(i)[0]
        if rc != 0:
            return [f"exit code {rc}"]
        report = json.loads(text)
        problems = _report_problems(report, closed_form(self.sizes.structured_n), None)
        if report["cuts"] != self.cuts:
            problems.append(f"{kind} cuts differ from the edge_boundary table")
        return problems

    def traced(self, i, tr):
        kind, argv = self._argv(i)
        with tr.span("cli.run", i) as s:
            out = _cli(argv)
        bc = _traced_build(bl.FamilySpec(kind, self.sizes.structured_n), tr, i, s)
        _traced_certify(bc, tr, i, s)
        return out


class FileCycle(Workload):
    """build -o g.json -> arrange -> eval -> certify -i g.json through the
    CLI, for each structured family in turn, in a fixed order. The workload
    has no random inputs, so the seed plays no part."""

    name = "file-cycle"

    def __init__(self, seed, sizes, golden, workdir):
        super().__init__(seed, sizes, golden, workdir)
        self.graphs = {}
        for kind in KINDS:
            self.graphs[kind] = bl.build_family(bl.FamilySpec(kind, sizes.file_n)).graph
            if self.pins is not None and edges_digest(self.graphs[kind]) != self.pins[kind]:
                self.setup_problems.append(f"{kind} edges differ from the pin")
        self.g = os.path.join(workdir, "g.json")
        self.a = os.path.join(workdir, "a.arr")

    @staticmethod
    def make_pins(sizes):
        return {
            k: edges_digest(bl.build_family(bl.FamilySpec(k, sizes.file_n)).graph)
            for k in KINDS
        }

    def _commands(self, i):
        kind = KINDS[i % len(KINDS)]
        g, a, n = self.g, self.a, str(self.sizes.file_n)
        return kind, [
            ["build", "--family", kind, "-n", n, "-o", g],
            ["arrange", "-i", g, "-o", a],
            ["eval", "-g", g, "-a", a],
            ["certify", "-i", g],
        ]

    def run(self, i):
        return [_cli(argv) for argv in self._commands(i)[1]]

    def check(self, i, out):
        kind = self._commands(i)[0]
        codes = [rc for rc, _ in out]
        if codes != [0, 0, 0, 0]:
            return [f"exit codes {codes}"]
        bound = closed_form(self.sizes.file_n)
        problems = _report_problems(json.loads(out[2][1]), bound, bound)
        problems += _report_problems(json.loads(out[3][1]), bound, bound)
        with open(self.g) as fp:
            written = json.load(fp)
        if (written["dimension"] != self.sizes.file_n
                or written["edges"] != self.graphs[kind].edge_array.tolist()):
            problems.append(f"written {kind} graph differs from the family graph")
        return problems

    def traced(self, i, tr):
        kind, commands = self._commands(i)
        spec = bl.FamilySpec(kind, self.sizes.file_n)
        g, a = self.g, self.a
        copy = os.path.join(self.workdir, "copy")
        out = []
        # build
        with tr.span("cli.run", i) as c:
            out.append(_cli(commands[0]))
        bc = _traced_build(spec, tr, i, c)
        with tr.span("formats.dump_graph_json", i, within=c) as s:
            with open(copy, "w") as fp:
                formats.dump_graph_json(formats.GraphDocument.from_bc(bc), fp)
        _file_size(copy, s, "bytes_written")
        # arrange
        with tr.span("cli.run", i) as c:
            out.append(_cli(commands[1]))
        doc = _traced_read(formats.load_graph_json, g, tr, i, c)
        with tr.span("layout.bc_arrangement", i, within=c):
            f = bl.bc_arrangement(doc.tree)
        with tr.span("formats.dump_arrangement", i, within=c) as s:
            with open(copy, "w") as fp:
                formats.dump_arrangement(f, fp)
        _file_size(copy, s, "bytes_written")
        # eval
        with tr.span("cli.run", i) as c:
            out.append(_cli(commands[2]))
        doc = _traced_read(formats.load_graph_any, g, tr, i, c)
        f = _traced_read(formats.load_arrangement, a, tr, i, c)
        _traced_validate(doc.to_bc(), tr, i, c)
        with tr.span("layout.evaluate_arrangement", i, within=c) as s:
            bl.evaluate_arrangement(doc.graph, f, witness=doc.to_bc())
        with tr.span("layout.arrangement_cost", i, within=s):
            bl.arrangement_cost(doc.graph, f)
        with tr.span("layout.cut_profile", i, within=s):
            bl.cut_profile(doc.graph, f)
        with tr.span("isoperimetric.sum_edge_boundary", i, within=s) as b:
            bl.sum_edge_boundary(doc.dimension)
        tr.peak(b, lambda: bl.sum_edge_boundary(doc.dimension))
        # certify
        with tr.span("cli.run", i) as c:
            out.append(_cli(commands[3]))
        doc = _traced_read(formats.load_graph_json, g, tr, i, c)
        _traced_validate(doc.to_bc(), tr, i, c)
        _traced_certify(doc.to_bc(), tr, i, c)
        return out



class GenericExact(Workload):
    """`solve --mode branch-and-bound` on seeded random graphs, then `eval`
    with the enumeration bound on a seeded random graph and arrangement,
    all through the CLI on edge-list files."""

    name = "generic-exact"

    def __init__(self, seed, sizes, golden, workdir):
        super().__init__(seed, sizes, golden, workdir)
        self.bnb_pool = pool_seeds(2, sizes.bnb_pool)
        self.eval_pool = pool_seeds(3, sizes.eval_pool)
        if self.pins is not None and (
            [p["seed"] for p in self.pins["bnb"]] != self.bnb_pool
            or [p["seed"] for p in self.pins["eval"]] != self.eval_pool
        ):
            raise PinError("generic-exact pins were made for other seeds")
        self.bnb_order = self.stream.permutation(len(self.bnb_pool))
        self.eval_order = self.stream.permutation(len(self.eval_pool))
        self.eval_cost = []
        for k, s in enumerate(self.bnb_pool):
            edges = random_graph_edges(sizes.bnb_vertices, sizes.bnb_edges, s)
            self._write_edges(f"bnb-{k}.edges", sizes.bnb_vertices, edges)
        for k, s in enumerate(self.eval_pool):
            edges = random_graph_edges(sizes.eval_vertices, sizes.eval_edges, s)
            self._write_edges(f"eval-{k}.edges", sizes.eval_vertices, edges)
            pos = [p + 1 for p in Stream(s ^ 1).permutation(sizes.eval_vertices)]
            with open(os.path.join(workdir, f"eval-{k}.arr"), "w") as fp:
                fp.writelines(f"{v} {p}\n" for v, p in enumerate(pos))
            self.eval_cost.append(sum(abs(pos[u] - pos[v]) for u, v in edges))

    def _write_edges(self, name, vertices, edges):
        with open(os.path.join(self.workdir, name), "w") as fp:
            fp.write(f"{vertices} {len(edges)}\n")
            fp.writelines(f"{u} {v}\n" for u, v in edges)

    @staticmethod
    def make_pins(sizes):
        bnb = []
        for s in pool_seeds(2, sizes.bnb_pool):
            edges = random_graph_edges(sizes.bnb_vertices, sizes.bnb_edges, s)
            r = bl.minla_exact(bl.Graph(sizes.bnb_vertices, edges), "branch-and-bound")
            bnb.append({"seed": s, "cost": r.cost, "nodes_explored": r.nodes_explored})
        evals = []
        for s in pool_seeds(3, sizes.eval_pool):
            edges = random_graph_edges(sizes.eval_vertices, sizes.eval_edges, s)
            bound = bl.lower_bound_generic(bl.Graph(sizes.eval_vertices, edges))
            evals.append({"seed": s, "lower_bound": bound})
        return {"bnb": bnb, "eval": evals}

    def _inputs(self, i):
        per = self.sizes.bnb_per_item
        bnb = [self.bnb_order[(i * per + j) % len(self.bnb_order)] for j in range(per)]
        return bnb, self.eval_order[i % len(self.eval_order)]

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def run(self, i):
        bnb, k = self._inputs(i)
        solved = [
            _cli(["solve", "-i", self._path(f"bnb-{j}.edges"), "--mode", "branch-and-bound"])
            for j in bnb
        ]
        return solved, _cli(["eval", "-g", self._path(f"eval-{k}.edges"),
                             "-a", self._path(f"eval-{k}.arr")])

    def check(self, i, out):
        solved, (rc, text) = out
        bnb, k = self._inputs(i)
        problems = []
        for j, (code, result) in zip(bnb, solved):
            if code != 0:
                problems.append(f"solve on graph {j} exited {code}")
                continue
            got = json.loads(result)
            if not got["proven"]:
                problems.append(f"solve on graph {j} is not proven")
            if self.pins is not None:
                pin = self.pins["bnb"][j]
                if (got["cost"], got["nodes_explored"]) != (pin["cost"], pin["nodes_explored"]):
                    problems.append(f"solve on graph {j} differs from the pin")
        if rc != 0:
            return problems + [f"eval exited {rc}"]
        report = json.loads(text)
        problems += _report_problems(report, None, self.eval_cost[k])
        if sum(report["cuts"]) != report["cost"]:
            problems.append("eval cuts do not sum to the cost")
        if report["optimal"] != (report["cost"] == report["lower_bound"]):
            problems.append("eval optimal flag disagrees with cost and bound")
        if self.pins is not None and report["lower_bound"] != self.pins["eval"][k]["lower_bound"]:
            problems.append(f"eval bound on graph {k} differs from the pin")
        return problems

    def traced(self, i, tr):
        bnb, k = self._inputs(i)
        solved = []
        for j in bnb:
            path = self._path(f"bnb-{j}.edges")
            with tr.span("cli.run", i) as c:
                solved.append(_cli(["solve", "-i", path, "--mode", "branch-and-bound"]))
            graph = _traced_read(formats.load_edge_list, path, tr, i, c)
            with tr.span("layout.minla_exact", i, within=c) as s:
                r = bl.minla_exact(graph, "branch-and-bound")
            s["counts"]["bnb_nodes"] = r.nodes_explored
        g, a = self._path(f"eval-{k}.edges"), self._path(f"eval-{k}.arr")
        with tr.span("cli.run", i) as c:
            evaluated = _cli(["eval", "-g", g, "-a", a])
        graph = _traced_read(formats.load_edge_list, g, tr, i, c)
        f = _traced_read(formats.load_arrangement, a, tr, i, c)
        with tr.span("layout.evaluate_arrangement", i, within=c) as s:
            bl.evaluate_arrangement(graph, f)
        with tr.span("layout.arrangement_cost", i, within=s):
            bl.arrangement_cost(graph, f)
        with tr.span("layout.cut_profile", i, within=s):
            bl.cut_profile(graph, f)
        with tr.span("isoperimetric.brute_force_tables", i, within=s) as t:
            bl.brute_force_tables(graph)
        t["counts"]["subsets"] = 1 << graph.vertex_count
        tr.peak(t, lambda: bl.brute_force_tables(graph))
        return solved, evaluated



WORKLOADS = {w.name: w for w in (RandomCertify, StructuredCertify, FileCycle, GenericExact)}
