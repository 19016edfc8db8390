"""Acceptance suite: every bundled verification criterion at full scale.

Each test runs one suite from bclayout.verify (the same code the CLI
`verify` command runs), prints a pass/fail line, and asserts the outcome.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import pytest

from bclayout import (
    certify,
    hypercube,
    lower_bound_closed,
    minla_exact,
    mobius,
    random_bc,
)
from bclayout import verify


@pytest.mark.parametrize("name", verify.SUITE_NAMES)
def test_criterion(name):
    result = verify.run_suite(name)
    status = "PASS" if result.passed else "FAIL"
    print(f"\nACCEPTANCE {status} {result.name} [{result.elapsed:.1f}s]: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


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
