"""Summarize paired perfbench runs of a parent and a changed commit.

    python3 tools/bench_summary.py PARENT_DIR CHANGE_DIR OUT.json

Each directory holds the JSON records `perfbench/run.py --trace 0` writes
to `perfbench/out/` (one per workload and seed). A record is paired with the
other side's record of the same workload and seed. For every workload and
side the output gives, per end-to-end metric of BENCHMARK.json, the median
and the quartiles over the paired runs, with the items attempted and failed;
per metric it counts the pairs each side won. It also gives the pair count,
the seeds and the machine the records were made on. A workload with a
single pair is an error (exit 2): its quartiles are undefined.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    records = {}
    for path in glob.glob(os.path.join(directory, "*-trace0.json")):
        with open(path) as fp:
            rec = json.load(fp)
        records[rec["workload"], rec["seed"]] = rec
    return records


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def side(recs: list[dict], metrics: dict) -> dict:
    return {
        "attempted": sum(r["attempted"] for r in recs),
        "failed": sum(r["failed"] for r in recs),
        "metrics": {
            name: dict(summary([r["metrics"][name] for r in recs]), unit=spec["unit"])
            for name, spec in metrics.items()
        },
    }


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        metrics = {m["name"]: m for m in json.load(fp)["end_to_end"]}
    machines, workloads = [], {}
    for name in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == name and (w, s) in change)
        if not seeds:
            continue
        if len(seeds) < 2:
            print(f"workload {name}: {len(seeds)} paired run; quartiles need at least two",
                  file=sys.stderr)
            return 2
        pairs = [(parent[name, s], change[name, s]) for s in seeds]
        wins = {}
        for metric, spec in metrics.items():
            sign = 1 if spec["better"] == "higher" else -1
            diffs = [sign * (c["metrics"][metric] - p["metrics"][metric]) for p, c in pairs]
            wins[metric] = {"change": sum(d > 0 for d in diffs), "parent": sum(d < 0 for d in diffs)}
        workloads[name] = {
            "pairs": len(pairs),
            "seeds": seeds,
            "seconds": sorted({r["seconds"] for pair in pairs for r in pair}),
            "parent": side([p for p, _ in pairs], metrics),
            "change": side([c for _, c in pairs], metrics),
            "pairs_won": wins,
        }
        for rec in (r for pair in pairs for r in pair):
            facts = {k: rec["machine"][k] for k in ("cores", "ram_gb", "python", "numpy")}
            if facts not in machines:
                machines.append(facts)
    out = {
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "machine": machines[0] if len(machines) == 1 else machines,
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the paired runs",
        "workloads": workloads,
    }
    with open(argv[2], "w") as fp:
        json.dump(out, fp, indent=2)
        fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
