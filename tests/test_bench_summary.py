"""tools/bench_summary.py on synthetic perfbench records."""

import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_summary.py")
_spec = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_summary)

MACHINE = {"cores": 2, "ram_gb": 7.84, "python": "3.11.7", "numpy": "2.4.6", "host": "x"}


def write_record(directory, workload, seed, item_s, rss=100.0, failed=0):
    rec = {
        "workload": workload,
        "seed": seed,
        "seconds": 20.0,
        "attempted": 5,
        "failed": failed,
        "metrics": {
            "setup_s": 0.2,
            "items_per_s": 1.0 / item_s,
            "item_s_p50": item_s,
            "peak_rss_mb": rss,
        },
        "machine": MACHINE,
    }
    directory.mkdir(exist_ok=True)
    path = directory / f"{workload}-seed{seed}-trace0.json"
    path.write_text(json.dumps(rec))


def summarize(tmp_path):
    out = tmp_path / "out.json"
    code = bench_summary.main([str(tmp_path / "p"), str(tmp_path / "c"), str(out)])
    return code, json.loads(out.read_text()) if code == 0 else None


def test_pairs_by_workload_and_seed(tmp_path):
    parent, change = tmp_path / "p", tmp_path / "c"
    for seed, (before, after) in enumerate([(2.0, 1.0), (3.0, 1.5), (4.0, 5.0), (5.0, 2.5)]):
        write_record(parent, "w", seed, before, failed=int(seed == 0))
        write_record(change, "w", seed, after)
    write_record(parent, "w", 9, 1.0)  # no partner: left out
    write_record(change, "other", 0, 1.0)  # workload only on one side
    code, out = summarize(tmp_path)
    assert code == 0
    assert list(out["workloads"]) == ["w"]
    w = out["workloads"]["w"]
    assert (w["pairs"], w["seeds"], w["seconds"]) == (4, [0, 1, 2, 3], [20.0])
    assert w["parent"]["attempted"] == 20 and w["parent"]["failed"] == 1
    assert w["change"]["failed"] == 0
    # lower is better for item_s_p50, higher for items_per_s; seed 2 is the parent's
    assert w["pairs_won"]["item_s_p50"] == {"change": 3, "parent": 1}
    assert w["pairs_won"]["items_per_s"] == {"change": 3, "parent": 1}
    assert w["pairs_won"]["peak_rss_mb"] == {"change": 0, "parent": 0}
    # inclusive quartiles of 2, 3, 4, 5
    assert w["parent"]["metrics"]["item_s_p50"] == {
        "median": 3.5, "q1": 2.75, "q3": 4.25, "unit": "s"}
    assert out["machine"] == {k: MACHINE[k] for k in ("cores", "ram_gb", "python", "numpy")}


def test_single_pair_is_an_input_error(tmp_path, capsys):
    for side in ("p", "c"):
        write_record(tmp_path / side, "w", 1, 2.0)
        write_record(tmp_path / side, "lonely", 7, 2.0)
        write_record(tmp_path / side, "w", 2, 2.0)
    code, _ = summarize(tmp_path)
    assert code == 2
    assert "lonely" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_wrong_argument_count_is_a_usage_error(capsys):
    assert bench_summary.main([]) == 2
    assert "bench_summary.py" in capsys.readouterr().err
