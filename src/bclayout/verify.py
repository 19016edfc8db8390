"""Bundled verification suites.

Each suite checks one contract of the library end to end, at a fixed scale,
with all randomness drawn deterministically from one base seed. The CLI
`verify` command runs them and reports one pass/fail line per suite; the
acceptance tests run the same functions. Detail strings are deterministic
for a given seed so repeated runs produce identical reports.
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


def _suite(name, fn, seed, limit=None):
    start = time.perf_counter()
    try:
        passed, detail = fn(seed)
    except Exception as exc:  # a crash is a failure, not an abort
        passed, detail = False, f"error: {exc}"
    elapsed = time.perf_counter() - start
    if passed and limit is not None and elapsed > limit:
        passed = False
        detail += f"; exceeded the {limit}s time limit"
    return SuiteResult(name, passed, detail, elapsed)


def _minla_exhaustive_small(seed: int) -> tuple[bool, str]:
    expected = {1: 1, 2: 6, 3: 28}
    seeds = _seeds(seed, RANDOM_GRAPHS_PER_DIMENSION)
    failures = []
    searches = 0
    for n, want in expected.items():
        for name, bc in _family_members(n, seeds, RANDOM_GRAPHS_PER_DIMENSION):
            result = minla_exact(bc.graph, "exhaustive")
            searches += 1
            if result.cost != want or not result.proven:
                failures.append(f"{name} n={n}: got {result.cost}, want {want}")
    if failures:
        return False, "; ".join(failures)
    return True, f"{searches} exhaustive searches matched {{1: 1, 2: 6, 3: 28}}"


def _arrangement_certificates(seed: int) -> tuple[bool, str]:
    seeds = _seeds(seed, 2)
    spot = {10: 523776, 20: 549755289600}
    failures = []
    checked = 0
    for n in range(1, 21):
        random_count = 2 if n <= 12 else 0
        want = (1 << (n - 1)) * ((1 << n) - 1)
        closed = certify_dimension(n)  # the proven profile, one per dimension
        for name, bc in _family_members(n, seeds, random_count):
            report = certify(bc)
            ok = (
                report.cost == want
                and report.lower_bound == want
                and report.optimal
                and (n not in spot or report.cost == spot[n])
            )
            checked += 1
            if not ok:
                failures.append(
                    f"{name} n={n}: cost {report.cost}, bound {report.lower_bound}"
                )
            if closed != report:
                failures.append(f"{name} n={n}: closed-form report differs")
    if failures:
        return False, "; ".join(failures[:4])
    return True, (
        f"{checked} certificates met 2**(n-1)*(2**n-1) for n=1..20 "
        f"(n=10: 523776, n=20: 549755289600) and equalled the closed-form route"
    )


def _induced_edge_oracle(seed: int) -> tuple[bool, str]:
    seeds = _seeds(seed, RANDOM_GRAPHS_PER_DIMENSION)
    failures = []
    comparisons = 0
    for n in range(1, 5):
        size = 1 << n
        for name, bc in _family_members(n, seeds, RANDOM_GRAPHS_PER_DIMENSION):
            induced_tab, boundary_tab = brute_force_tables(bc.graph)
            for m in range(1, size + 1):
                comparisons += 2
                if induced_tab[m] != max_induced_edges(m):
                    failures.append(f"{name} n={n} m={m}: induced mismatch")
                if boundary_tab[m] != edge_boundary(n, m):
                    failures.append(f"{name} n={n} m={m}: boundary mismatch")
            # exercise the single-witness entry points as well
            for m in (1, size // 2, size - 1) if size > 2 else (1,):
                wmax = brute_force_max_induced(bc.graph, m)
                wmin = brute_force_min_boundary(bc.graph, m)
                comparisons += 2
                if wmax.induced_edge_count != induced_tab[m]:
                    failures.append(f"{name} n={n} m={m}: witness induced mismatch")
                if wmin.boundary_edge_count != boundary_tab[m]:
                    failures.append(f"{name} n={n} m={m}: witness boundary mismatch")
    if failures:
        return False, "; ".join(failures[:4])
    return True, f"{comparisons} oracle comparisons agreed for n<=4"


def _cut_profile_boundary_match(seed: int) -> tuple[bool, str]:
    seeds = _seeds(seed, 2)
    failures = []
    checked = 0
    for n in range(1, 15):
        random_count = 2 if n <= 12 else 0
        for name, bc in _family_members(n, seeds, random_count):
            profile = cut_profile(bc.graph, bc_arrangement(bc.tree)).tolist()
            for m in range(1, 1 << n):
                checked += 1
                if profile[m - 1] != edge_boundary(n, m):
                    failures.append(f"{name} n={n} m={m}")
                    break
    if failures:
        return False, "cut profile differs from boundary table: " + "; ".join(failures[:4])
    return True, f"{checked} cuts matched the boundary table for n<=14"


def _arrangement_cost_lower_bound(seed: int) -> tuple[bool, str]:
    seeds = _seeds(seed, RANDOM_GRAPHS_PER_DIMENSION)
    rng = SplitMix64(SplitMix64(seed).next_u64())
    failures = []
    samples = 0
    for n, floor in ((3, 28), (4, 120)):
        per_graph = 200 // RANDOM_GRAPHS_PER_DIMENSION
        for i in range(RANDOM_GRAPHS_PER_DIMENSION):
            bc = families.random_bc(n, seeds[i])
            generic = lower_bound_generic(bc.graph)
            for _ in range(per_graph):
                f = random_arrangement(bc.graph.vertex_count, rng)
                cost = arrangement_cost(bc.graph, f)
                samples += 1
                if cost < floor or cost < generic:
                    failures.append(f"n={n} seed[{i}]: cost {cost} below bound")
    if failures:
        return False, "; ".join(failures[:4])
    return True, f"{samples} random arrangements stayed at or above the lower bounds"


def cross_matching_cost(n: int, phi) -> int:
    """Span contributed by the matching edges (v, phi[v] + half) when both
    halves keep their recursive arrangements. Every term is positive, so the
    sum collapses to 4**(n-1) regardless of the permutation."""
    half = 1 << (n - 1)
    (phi,) = check_permutation([phi], half).tolist()
    return sum(abs((phi[v] + half + 1) - (v + 1)) for v in range(half))


def _cross_matching_constant(seed: int) -> tuple[bool, str]:
    rng = SplitMix64(seed)
    failures = []
    checked = 0
    for n in range(2, 11):
        want = 1 << (2 * n - 2)
        for _ in range(20):
            phi = rng.permutation(1 << (n - 1))
            checked += 1
            if cross_matching_cost(n, phi) != want:
                failures.append(f"n={n}: cost differs from {want}")
    if failures:
        return False, "; ".join(failures[:4])
    return True, f"{checked} sampled matchings all cost 4**(n-1)"


def _arithmetic_identities(seed: int) -> tuple[bool, str]:
    failures = []
    checked = 0
    for n in range(1, 17):
        size = 1 << n
        total = 0
        for m in range(1, size):
            checked += 2
            theta = edge_boundary(n, m)
            if theta != edge_boundary(n, size - m):
                failures.append(f"complement symmetry fails at n={n} m={m}")
                break
            if theta != edge_boundary_expanded(n, m):
                failures.append(f"term expansion differs at n={n} m={m}")
                break
            total += theta
        if total != sum_edge_boundary(n):
            failures.append(f"boundary sum differs from the closed form at n={n}")
    rng = SplitMix64(seed)
    seeds = _seeds(rng.next_u64(), 3)
    for n in (2, 3, 4, 5):
        members = list(_family_members(n, seeds, 3 if n <= 4 else 0))
        for name, bc in members:
            arrangements = [bc_arrangement(bc.tree)]
            arrangements += [
                random_arrangement(bc.graph.vertex_count, rng) for _ in range(10)
            ]
            for f in arrangements:
                checked += 2
                cost = arrangement_cost(bc.graph, f)
                if int(cut_profile(bc.graph, f).sum()) != cost:
                    failures.append(f"{name} n={n}: cut totals differ from cost")
                if arrangement_cost(bc.graph, f.reverse()) != cost:
                    failures.append(f"{name} n={n}: reversal changed the cost")
    if failures:
        return False, "; ".join(failures[:4])
    return True, f"{checked} identity checks passed for n<=16"


def _file_round_trips(seed: int) -> tuple[bool, str]:
    from . import cli  # at call time: cli imports this module

    failures = []
    checked = 0
    seeds = _seeds(seed, 2)
    with tempfile.TemporaryDirectory() as tmp:
        # full command cycle: build writes a graph, arrange writes its
        # arrangement, eval reads both back and must reproduce the certificate
        gpath = os.path.join(tmp, "cycle.json")
        apath = os.path.join(tmp, "cycle.arr")
        sink = io.StringIO()
        evaluated = io.StringIO()
        status = cli.run(
            ["build", "--family", "mobius-1", "-n", "4", "-o", gpath],
            stdout=sink, stderr=sink,
        )
        status |= cli.run(
            ["arrange", "-i", gpath, "-o", apath], stdout=sink, stderr=sink
        )
        status |= cli.run(
            ["eval", "-g", gpath, "-a", apath], stdout=evaluated, stderr=sink
        )
        checked += 1
        report = json.loads(evaluated.getvalue()) if status == 0 else {}
        if status != 0 or report.get("cost") != 120 or not report.get("optimal"):
            failures.append("build/arrange/eval command cycle did not certify")
        with open(gpath) as fp:
            doc = formats.load_graph_json(fp)
        with open(apath) as fp:
            back = formats.load_arrangement(fp)
        checked += 2
        if doc.graph != families.mobius(4, 1).graph:
            failures.append("command cycle altered the edge set")
        if back != bc_arrangement(doc.tree):
            failures.append("command cycle altered the positions")
        for name, bc in _family_members(3, seeds, 2):
            path = os.path.join(tmp, "graph.json")
            with open(path, "w") as fp:
                formats.dump_graph_json(formats.GraphDocument.from_bc(bc), fp)
            with open(path) as fp:
                doc = formats.load_graph_json(fp)
            checked += 1
            if doc.graph != bc.graph or doc.tree != bc.tree or doc.dimension != 3:
                failures.append(f"graph JSON round trip changed {name}")
            if not validate(doc.to_bc()).ok:
                failures.append(f"reloaded witness for {name} fails validation")
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
            checked += 1
            if back != f:
                failures.append(f"arrangement round trip with {newline!r} changed positions")
            with open(epath, "w", newline=newline) as fp:
                formats.dump_edge_list(bc.graph, fp)
            with open(epath, newline="") as fp:
                gback = formats.load_graph_any(fp).graph
            checked += 1
            if gback != bc.graph:
                failures.append(f"edge-list round trip with {newline!r} changed the graph")
    # closed-form-only table row at dimension 63: no graph is materialized,
    # and the exact integers must survive text form
    buf = io.StringIO()
    big_m = (1 << 63) - 1
    formats.write_isoperimetric_table(buf, 63, [big_m])
    row = buf.getvalue().splitlines()[1].split(",")
    checked += 1
    if (
        int(row[0]) != big_m
        or int(row[1]) != max_induced_edges(big_m)
        or int(row[2]) != edge_boundary(63, big_m)
    ):
        failures.append("dimension-63 table row did not round-trip exactly")
    checked += 1
    if lower_bound_closed(63) != (1 << 62) * ((1 << 63) - 1):
        failures.append("dimension-63 closed-form bound is wrong")
    if failures:
        return False, "; ".join(failures[:4])
    return True, f"{checked} file and big-integer round trips were exact"


SUITES: tuple[tuple[str, Callable, float | None], ...] = (
    ("minla-exhaustive-small", _minla_exhaustive_small, 60.0),
    ("arrangement-certificates", _arrangement_certificates, 120.0),
    ("induced-edge-oracle", _induced_edge_oracle, 60.0),
    ("cut-profile-boundary-match", _cut_profile_boundary_match, None),
    ("arrangement-cost-lower-bound", _arrangement_cost_lower_bound, None),
    ("cross-matching-constant", _cross_matching_constant, None),
    ("arithmetic-identities", _arithmetic_identities, None),
    ("file-round-trips", _file_round_trips, None),
)

SUITE_NAMES = tuple(name for name, _, _ in SUITES)


def run_suite(name: str, seed: int = DEFAULT_SEED) -> SuiteResult:
    check_seed(seed)  # a bad seed is an input error (ValueError), not a failed suite
    for suite_name, fn, limit in SUITES:
        if suite_name == name:
            return _suite(suite_name, fn, seed, limit)
    raise ValueError(f"unknown suite {name!r}")
