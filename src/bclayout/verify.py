"""Bundled verification suites.

Each suite checks one contract of the library end to end, at a fixed scale,
with all randomness drawn deterministically from one base seed. The CLI
`verify` command runs them and reports one pass/fail line per suite; the
acceptance tests run the same functions.

A suite is a function of `(seed, check)`. It calls `check(ok, message)`
once for each comparison it counts, with the message to report if `ok` is
false; `check` returns `ok`, so a suite may stop a loop at a failure. It
returns its PASS text as a format string, `{}` where the count goes.
`run_suite` counts the checks and reports FAIL with the first four
messages joined by "; ", or `error: ...` for an exception. The verdict and
the detail depend on the seed alone, never on the clock:
`SuiteResult.elapsed` is only reported (the CLI writes it to stderr), and
the time budgets are asserted by the acceptance tests.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Iterator

from . import families, formats
from .core import BcGraph, check_permutation, validate
from .isoperimetric import (
    brute_force_max_induced,
    brute_force_min_boundary,
    brute_force_tables,
    edge_boundary,
    edge_boundary_expanded,
    max_induced_edges,
    sum_edge_boundary,
)
from .layout import (
    arrangement_cost,
    bc_arrangement,
    certify,
    certify_dimension,
    cut_profile,
    lower_bound_closed,
    lower_bound_generic,
    minla_exact,
    random_arrangement,
)
from .rng import SplitMix64, check_seed

DEFAULT_SEED = 42
RANDOM_GRAPHS_PER_DIMENSION = 5


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _seeds(base_seed: int, count: int) -> list[int]:
    rng = SplitMix64(base_seed)
    return [rng.next_u64() for _ in range(count)]


def _family_members(
    n: int, seeds: list[int], random_count: int
) -> Iterator[tuple[str, BcGraph]]:
    for kind in families.KINDS:
        if kind != "random":  # the seeded members follow, one per seed
            yield kind, families.build(families.FamilySpec(kind, n))
    for i in range(random_count):
        yield f"random[{i}]", families.random_bc(n, seeds[i])


Check = Callable[[bool, str], bool]


def _minla_exhaustive_small(seed: int, check: Check) -> str:
    seeds = _seeds(seed, RANDOM_GRAPHS_PER_DIMENSION)
    for n, want in {1: 1, 2: 6, 3: 28}.items():
        for name, bc in _family_members(n, seeds, RANDOM_GRAPHS_PER_DIMENSION):
            result = minla_exact(bc.graph, "exhaustive")
            ok = result.cost == want and result.proven
            check(ok, f"{name} n={n}: got {result.cost}, want {want}")
    return "{} exhaustive searches matched {{1: 1, 2: 6, 3: 28}}"


def _arrangement_certificates(seed: int, check: Check) -> str:
    seeds = _seeds(seed, 2)
    spot = {10: 523776, 20: 549755289600}
    for n in range(1, 21):
        random_count = 2 if n <= 12 else 0
        want = (1 << (n - 1)) * ((1 << n) - 1)
        closed = certify_dimension(n)  # the proven profile, one per dimension
        for name, bc in _family_members(n, seeds, random_count):
            report = certify(bc)
            met = report.cost == report.lower_bound == want and report.optimal
            met = met and (n not in spot or report.cost == spot[n])
            check(met and closed == report, (
                f"{name} n={n}: cost {report.cost}, bound {report.lower_bound}" if not met
                else f"{name} n={n}: closed-form report differs"
            ))
    return (
        "{} certificates met 2**(n-1)*(2**n-1) for n=1..20 "
        "(n=10: 523776, n=20: 549755289600) and equalled the closed-form route"
    )


def _induced_edge_oracle(seed: int, check: Check) -> str:
    seeds = _seeds(seed, RANDOM_GRAPHS_PER_DIMENSION)
    for n in range(1, 5):
        size = 1 << n
        for name, bc in _family_members(n, seeds, RANDOM_GRAPHS_PER_DIMENSION):
            induced_tab, boundary_tab = brute_force_tables(bc.graph)
            for m in range(1, size + 1):
                at = f"{name} n={n} m={m}"
                check(induced_tab[m] == max_induced_edges(m), f"{at}: induced mismatch")
                check(boundary_tab[m] == edge_boundary(n, m), f"{at}: boundary mismatch")
            # exercise the single-witness entry points as well
            for m in (1, size // 2, size - 1) if size > 2 else (1,):
                at = f"{name} n={n} m={m}"
                induced = brute_force_max_induced(bc.graph, m).induced_edge_count
                boundary = brute_force_min_boundary(bc.graph, m).boundary_edge_count
                check(induced == induced_tab[m], f"{at}: witness induced mismatch")
                check(boundary == boundary_tab[m], f"{at}: witness boundary mismatch")
    return "{} oracle comparisons agreed for n<=4"


def _cut_profile_boundary_match(seed: int, check: Check) -> str:
    seeds = _seeds(seed, 2)
    for n in range(1, 15):
        random_count = 2 if n <= 12 else 0
        for name, bc in _family_members(n, seeds, random_count):
            profile = cut_profile(bc.graph, bc_arrangement(bc.tree)).tolist()
            for m in range(1, 1 << n):
                if not check(profile[m - 1] == edge_boundary(n, m), f"{name} n={n} m={m}"):
                    break
    return "{} cuts matched the boundary table for n<=14"


def _arrangement_cost_lower_bound(seed: int, check: Check) -> str:
    seeds = _seeds(seed, RANDOM_GRAPHS_PER_DIMENSION)
    rng = SplitMix64(SplitMix64(seed).next_u64())
    for n, floor in ((3, 28), (4, 120)):
        per_graph = 200 // RANDOM_GRAPHS_PER_DIMENSION
        for i in range(RANDOM_GRAPHS_PER_DIMENSION):
            bc = families.random_bc(n, seeds[i])
            generic = lower_bound_generic(bc.graph)
            for _ in range(per_graph):
                f = random_arrangement(bc.graph.vertex_count, rng)
                cost = arrangement_cost(bc.graph, f)
                check(cost >= max(floor, generic), f"n={n} seed[{i}]: cost {cost} below bound")
    return "{} random arrangements stayed at or above the lower bounds"


def cross_matching_cost(n: int, phi) -> int:
    """Span contributed by the matching edges (v, phi[v] + half) when both
    halves keep their recursive arrangements. Every term is positive, so the
    sum collapses to 4**(n-1) regardless of the permutation."""
    half = 1 << (n - 1)
    (phi,) = check_permutation([phi], half).tolist()
    return sum(abs((phi[v] + half + 1) - (v + 1)) for v in range(half))


def _cross_matching_constant(seed: int, check: Check) -> str:
    rng = SplitMix64(seed)
    for n in range(2, 11):
        want = 1 << (2 * n - 2)
        for _ in range(20):
            phi = rng.permutation(1 << (n - 1))
            check(cross_matching_cost(n, phi) == want, f"n={n}: cost differs from {want}")
    return "{} sampled matchings all cost 4**(n-1)"


def _arithmetic_identities(seed: int, check: Check) -> str:
    for n in range(1, 17):
        size = 1 << n
        total = 0
        for m in range(1, size):
            theta, at = edge_boundary(n, m), f"n={n} m={m}"
            if not (
                check(theta == edge_boundary(n, size - m), f"complement symmetry fails at {at}")
                and check(theta == edge_boundary_expanded(n, m), f"term expansion differs at {at}")
            ):
                break
            total += theta
        if total != sum_edge_boundary(n):  # reported, not counted: the count is per m
            check(False, f"boundary sum differs from the closed form at n={n}")
    rng = SplitMix64(seed)
    seeds = _seeds(rng.next_u64(), 3)
    for n in (2, 3, 4, 5):
        for name, bc in _family_members(n, seeds, 3 if n <= 4 else 0):
            graph, at = bc.graph, f"{name} n={n}"
            arrangements = [bc_arrangement(bc.tree)]
            arrangements += [random_arrangement(graph.vertex_count, rng) for _ in range(10)]
            for f in arrangements:
                cost = arrangement_cost(graph, f)
                check(cut_profile(graph, f).sum() == cost, f"{at}: cut totals differ from cost")
                reversed_cost = arrangement_cost(graph, f.reverse())
                check(reversed_cost == cost, f"{at}: reversal changed the cost")
    return "{} identity checks passed for n<=16"


def _file_round_trips(seed: int, check: Check) -> str:
    from . import cli  # at call time: cli imports this module

    seeds = _seeds(seed, 2)
    with tempfile.TemporaryDirectory() as tmp:
        # full command cycle: build writes a graph, arrange writes its
        # arrangement, eval reads both back and must reproduce the certificate
        gpath = os.path.join(tmp, "cycle.json")
        apath = os.path.join(tmp, "cycle.arr")
        sink, evaluated, status = io.StringIO(), io.StringIO(), 0
        for argv, out in (
            (["build", "--family", "mobius-1", "-n", "4", "-o", gpath], sink),
            (["arrange", "-i", gpath, "-o", apath], sink),
            (["eval", "-g", gpath, "-a", apath], evaluated),
        ):
            status |= cli.run(argv, stdout=out, stderr=sink)
        report = json.loads(evaluated.getvalue()) if status == 0 else {}
        ok = status == 0 and report.get("cost") == 120 and report.get("optimal")
        check(ok, "build/arrange/eval command cycle did not certify")
        with open(gpath) as fp:
            doc = formats.load_graph_json(fp)
        with open(apath) as fp:
            back = formats.load_arrangement(fp)
        check(doc.graph == families.mobius(4, 1).graph, "command cycle altered the edge set")
        check(back == bc_arrangement(doc.tree), "command cycle altered the positions")
        for name, bc in _family_members(3, seeds, 2):
            path = os.path.join(tmp, "graph.json")
            with open(path, "w") as fp:
                formats.dump_graph_json(formats.GraphDocument.from_bc(bc), fp)
            with open(path) as fp:
                doc = formats.load_graph_json(fp)
            same = doc.graph == bc.graph and doc.tree == bc.tree and doc.dimension == 3
            valid = validate(doc.to_bc()).ok
            check(same and valid, (
                f"graph JSON round trip changed {name}" if not same
                else f"reloaded witness for {name} fails validation"
            ))
        bc = families.hypercube(4)
        apath = os.path.join(tmp, "arrangement.txt")
        epath = os.path.join(tmp, "graph.edges")
        f = bc_arrangement(bc.tree)
        # the writers' bytes (an arrangement read in bulk), then CRLF line ends
        for newline in ("\n", "\r\n"):
            with open(apath, "w", newline=newline) as fp:
                formats.dump_arrangement(f, fp)
            with open(apath, newline="") as fp:
                back = formats.load_arrangement(fp)
            check(back == f, f"arrangement round trip with {newline!r} changed positions")
            with open(epath, "w", newline=newline) as fp:
                formats.dump_edge_list(bc.graph, fp)
            with open(epath, newline="") as fp:
                gback = formats.load_graph_any(fp).graph
            check(gback == bc.graph, f"edge-list round trip with {newline!r} changed the graph")
    # closed-form-only table row at dimension 63: no graph is materialized,
    # and the exact integers must survive text form
    buf = io.StringIO()
    big_m = (1 << 63) - 1
    formats.write_isoperimetric_table(buf, 63, [big_m])
    row = buf.getvalue().splitlines()[1].split(",")
    ok = list(map(int, row)) == [big_m, max_induced_edges(big_m), edge_boundary(63, big_m)]
    check(ok, "dimension-63 table row did not round-trip exactly")
    ok = lower_bound_closed(63) == (1 << 62) * ((1 << 63) - 1)
    check(ok, "dimension-63 closed-form bound is wrong")
    return "{} file and big-integer round trips were exact"


SUITES: dict[str, Callable[[int, Check], str]] = {
    "minla-exhaustive-small": _minla_exhaustive_small,
    "arrangement-certificates": _arrangement_certificates,
    "induced-edge-oracle": _induced_edge_oracle,
    "cut-profile-boundary-match": _cut_profile_boundary_match,
    "arrangement-cost-lower-bound": _arrangement_cost_lower_bound,
    "cross-matching-constant": _cross_matching_constant,
    "arithmetic-identities": _arithmetic_identities,
    "file-round-trips": _file_round_trips,
}

SUITE_NAMES = tuple(SUITES)


def run_suite(name: str, seed: int = DEFAULT_SEED) -> SuiteResult:
    check_seed(seed)  # a bad seed is an input error (ValueError), not a failed suite
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    failures, count = [], 0

    def check(ok: bool, message: str) -> bool:
        nonlocal count
        count += 1
        if not ok:
            failures.append(message)
        return ok

    start = time.perf_counter()
    try:
        text = SUITES[name](seed, check)
        passed = not failures
        detail = text.format(count) if passed else "; ".join(failures[:4])
    except Exception as exc:  # a crash is a failure, not an abort
        passed, detail = False, f"error: {exc}"
    return SuiteResult(name, passed, detail, time.perf_counter() - start)
