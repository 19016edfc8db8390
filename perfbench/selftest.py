"""Tests of the benchmark itself, at small sizes.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's own test run (the name does not match
test_*.py) so that the benchmark never adds to its time.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import make_golden  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

GOLDEN = make_golden.make_golden(wl.SMOKE)


def _run(name, trace, golden, tmp_path):
    workdir = tmp_path / f"{name}-{int(trace)}"
    workdir.mkdir()
    return run.run_workload(name, 7, 0.3, trace, wl.SMOKE, golden, str(workdir))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_smoke_run_reports_every_metric(name, trace, tmp_path):
    rec = _run(name, trace, GOLDEN, tmp_path)
    assert rec["attempted"] >= 1
    assert rec["failed"] == 0, [i["problems"] for i in rec["items"]]
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(rec["metrics"]) == set(expected)
    assert all(math.isfinite(v) for v in rec["metrics"].values())
    if not trace:
        assert all(v > 0 for v in rec["metrics"].values())


def _corrupt(name, golden):
    pins = golden[name]
    if name == "random-certify":
        for p in pins:
            p["edges_sha256"] = "0" * 64
    elif name == "generic-exact":
        for p in pins["bnb"]:
            p["nodes_explored"] += 1
    else:
        for kind in pins:
            pins[kind] = "0" * 64


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_wrong_pin_fails_items(name, tmp_path):
    golden = copy.deepcopy(GOLDEN)
    _corrupt(name, golden)
    rec = _run(name, False, golden, tmp_path)
    assert rec["failed"] > 0
    assert rec["metrics"]["items_per_s"] < rec["attempted"] / sum(
        i["item_s"] for i in rec["items"]
    )


def test_eval_pin_mismatch_fails_items(tmp_path):
    golden = copy.deepcopy(GOLDEN)
    for p in golden["generic-exact"]["eval"]:
        p["lower_bound"] += 1
    assert _run("generic-exact", False, golden, tmp_path)["failed"] > 0


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_trace_is_well_formed(name, tmp_path):
    rec = _run(name, True, GOLDEN, tmp_path)
    trace = json.loads(json.dumps(rec["spans"]))  # as written to the record
    assert spans.check_spans(trace) == []
    roots = [s for s in trace if s["parent"] is None]
    assert [s["name"] for s in roots] == ["item"] * rec["attempted"]
    assert sorted(s["item"] for s in roots) == list(range(rec["attempted"]))
    assert all(s["name"].split(".")[0] in spans.MODULES for s in trace if s["parent"] is not None)


def test_check_spans_finds_bad_nesting():
    tr = spans.Tracer()
    with tr.span("item", 0):
        with tr.span("core.validate", 0):
            pass
    assert spans.check_spans(tr.spans) == []
    bad = copy.deepcopy(tr.spans)
    bad[1]["end"] = bad[0]["end"] + 1.0
    assert spans.check_spans(bad) == ["span 1 is not inside its parent 0"]
    bad = copy.deepcopy(tr.spans)
    bad[1]["within"] = 7
    assert spans.check_spans(bad) == ["span 1 names unknown within 7"]


def test_self_time_subtracts_inner_calls():
    trace = [
        {"id": 0, "name": "families.build", "item": 0, "parent": None, "within": None,
         "start": 0.0, "end": 5.0, "counts": {}},
        {"id": 1, "name": "core.materialize", "item": 0, "parent": None, "within": 0,
         "start": 5.0, "end": 7.0, "counts": {"edges": 4}},
    ]
    metrics = spans.per_layer_metrics(trace)
    assert metrics["families.build_s"] == 5.0
    assert metrics["families.tree_self_s"] == 3.0
    assert metrics["core.materialize_s"] == 2.0
    assert metrics["core.edges"] == 4


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        bench = json.load(fp)
    assert {w["name"] for w in bench["workloads"]} == set(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random-certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
