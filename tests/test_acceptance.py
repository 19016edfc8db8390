"""Acceptance suite: every bundled verification criterion at full scale.

Each test runs one suite from bclayout.verify (the same code the CLI
`verify` command runs), prints a pass/fail line, and asserts the outcome.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import io
import time
from types import SimpleNamespace

import pytest

from bclayout import (
    certify,
    cli,
    hypercube,
    lower_bound_closed,
    minla_exact,
    mobius,
    random_bc,
)
from bclayout import verify

# each suite's PASS detail at the default seed
DETAILS = {
    "minla-exhaustive-small": "27 exhaustive searches matched {1: 1, 2: 6, 3: 28}",
    "arrangement-certificates": "104 certificates met 2**(n-1)*(2**n-1) for n=1..20 "
    "(n=10: 523776, n=20: 549755289600) and equalled the closed-form route",
    "induced-edge-oracle": "720 oracle comparisons agreed for n<=4",
    "cut-profile-boundary-match": "147364 cuts matched the boundary table for n<=14",
    "arrangement-cost-lower-bound": "400 random arrangements stayed at or above the lower bounds",
    "cross-matching-constant": "180 sampled matchings all cost 4**(n-1)",
    "arithmetic-identities": "262658 identity checks passed for n<=16",
    "file-round-trips": "15 file and big-integer round trips were exact",
}

# Time budgets, in seconds, of the suites that have one. They are asserted
# here, not by `verify`, whose verdict depends on the seed alone.
TIME_LIMITS = {
    "minla-exhaustive-small": 60.0,
    "arrangement-certificates": 120.0,
    "induced-edge-oracle": 60.0,
}


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_criterion(name):
    result = verify.run_suite(name)
    status = "PASS" if result.passed else "FAIL"
    print(f"\nACCEPTANCE {status} {result.name} [{result.elapsed:.1f}s]: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    assert result.detail == DETAILS[name]
    assert result.elapsed <= TIME_LIMITS.get(name, float("inf"))


def test_failed_checks_report_the_first_four(monkeypatch):
    """A check that fails makes its suite FAIL with the first four failure
    messages joined by "; ", and `verify` exit 1."""
    monkeypatch.setattr(verify, "edge_boundary", lambda n, m: -1)
    monkeypatch.setattr(verify, "minla_exact", lambda graph, mode: SimpleNamespace(
        cost=0, proven=True))
    names = ["minla-exhaustive-small", "induced-edge-oracle", "cut-profile-boundary-match"]
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify"] + [arg for name in names for arg in ("--suite", name)]
    assert cli.run(argv, stdout=out, stderr=err) == 1
    assert out.getvalue().splitlines() == [
        "FAIL minla-exhaustive-small: hypercube n=1: got 0, want 1; "
        "locally-twisted n=1: got 0, want 1; mobius-0 n=1: got 0, want 1; "
        "mobius-1 n=1: got 0, want 1",
        "FAIL induced-edge-oracle: hypercube n=1 m=1: boundary mismatch; "
        "hypercube n=1 m=2: boundary mismatch; locally-twisted n=1 m=1: boundary mismatch; "
        "locally-twisted n=1 m=2: boundary mismatch",
        "FAIL cut-profile-boundary-match: hypercube n=1 m=1; locally-twisted n=1 m=1; "
        "mobius-0 n=1 m=1; mobius-1 n=1 m=1",
    ]


def test_a_suite_that_raises_reports_an_error(monkeypatch):
    def broken(n, phi):
        raise RuntimeError("no matching today")

    monkeypatch.setattr(verify, "cross_matching_cost", broken)
    result = verify.run_suite("cross-matching-constant")
    assert (result.passed, result.detail) == (False, "error: no matching today")


def test_the_verdict_does_not_depend_on_the_clock(monkeypatch):
    """A suite passes however long it takes: each reading of the clock
    here is 1000 s after the last."""
    ticks = iter(range(0, 10**9, 1000))
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
    result = verify.run_suite("induced-edge-oracle")
    assert result.passed and result.detail == DETAILS["induced-edge-oracle"]
    assert result.elapsed >= 1000


# Spot checks of the pinned values the suites rely on, asserted directly so a
# failure localizes without rerunning a whole suite.


def test_pinned_exhaustive_optima():
    assert minla_exact(hypercube(1).graph, "exhaustive").cost == 1
    assert minla_exact(hypercube(2).graph, "exhaustive").cost == 6
    assert minla_exact(hypercube(3).graph, "exhaustive").cost == 28


def test_pinned_certified_costs():
    assert certify(hypercube(10)).cost == 523776
    assert certify(mobius(20, 1)).cost == 549755289600
    assert certify(random_bc(5, 42)).cost == 496


def test_pinned_lower_bounds():
    assert lower_bound_closed(10) == 523776
    assert lower_bound_closed(20) == 549755289600
    # lower_bound_closed evaluates the closed form; the summation route is
    # checked by the arithmetic-identities suite and test_isoperimetric.
    # Re-state the formula here so the literal stays visible.
    assert lower_bound_closed(20) == (1 << 19) * ((1 << 20) - 1)
