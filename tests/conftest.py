"""Hypothesis settings for the test suite: no example database, no
per-example deadline (graph-building properties run on shared, loaded
machines), and a fixed seed, so every failure reproduces.

The `long` profile keeps those settings and runs twenty times the examples:
`--hypothesis-profile=long` (see `mutations.examples` for the fuzz tests
that set their own count).

Hypothesis also caches the constants it collects from the source files in
its home directory; that directory lives in a temporary location for one
session, so a test run leaves no `.hypothesis/` behind.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("suite", database=None, deadline=None, derandomize=True)
settings.register_profile("long", settings.get_profile("suite"), max_examples=2000)

_HOME = tempfile.mkdtemp(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME)


def pytest_configure(config):
    # before collection, and after Hypothesis's plugin loads a named profile
    settings.load_profile(config.getoption("hypothesis_profile", None) or "suite")


def pytest_unconfigure(config):
    shutil.rmtree(_HOME, ignore_errors=True)
