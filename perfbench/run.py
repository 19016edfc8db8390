"""bclayout benchmark: one process, one thread, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without --workload it runs all four workloads in turn. Each run generates
its inputs from the seed, warms up on small inputs, then repeats the
workload's item until S seconds have passed, checking every output. It
prints every metric by name and unit, the machine it ran on, and as its
last line a JSON object with `correct`, `attempted`, `failed` and
`metrics`. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 each item runs once plainly and once with spans around the calls
into each module, and the metrics are the per-layer ones. A JSON record of
the run, with the spans of a traced run, is written to perfbench/out/.
"""

from __future__ import annotations

import os

# One thread: set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import dataclasses
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from spans import PER_LAYER, Tracer, per_layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")
SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_s_p50": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}
PER_LAYER_UNITS["trace.overhead_s"] = "s"


def setup_seconds() -> float:
    """Median wall time of `import bclayout` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [sys.executable, "-c", "import bclayout"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # fills bytecode caches
    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


def machine_facts() -> dict:
    import numpy

    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cores": os.cpu_count(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def _attempt(fn, w, i):
    """Run fn(), time it, check its output; returns (seconds, problems)."""
    gc.collect()
    start = time.perf_counter()
    try:
        out = fn()
    except Exception:
        return time.perf_counter() - start, ["raised:\n" + traceback.format_exc()]
    seconds = time.perf_counter() - start
    try:
        problems = w.check(i, out) + w.setup_problems
    except Exception:
        problems = ["check raised:\n" + traceback.format_exc()]
    return seconds, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes, golden: dict | None, workdir: str) -> dict:
    """Warm up, set up, and measure one workload; returns the run record."""
    import workloads as wl

    cls = wl.WORKLOADS[name]
    warm_dir = os.path.join(workdir, "warm-up")
    os.makedirs(warm_dir)
    warm = cls(seed, wl.SMOKE, None, warm_dir)
    warm.run(0)
    if trace:
        warm.traced(0, Tracer())
    setup = None if trace else setup_seconds()
    w = cls(seed, sizes, golden, workdir)

    tracer = Tracer()
    items = []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        item_s, problems = _attempt(lambda: w.run(i), w, i)
        rec = {"item": i, "item_s": item_s}
        if trace:
            def traced():
                with tracer.span("item", i):
                    return w.traced(i, tracer)
            rec["traced_s"], more = _attempt(traced, w, i)
            problems += more
        rec["problems"] = problems
        for p in problems:
            print(f"item {i} failed: {p}", file=sys.stderr)
        items.append(rec)
        i += 1

    failed = sum(1 for rec in items if rec["problems"])
    times = [rec["item_s"] for rec in items]
    if trace:
        metrics = per_layer_metrics(tracer.spans)
        metrics["trace.overhead_s"] = statistics.median(
            rec["traced_s"] for rec in items) - statistics.median(times)
    else:
        metrics = {
            "setup_s": setup,
            "items_per_s": (len(items) - failed) / sum(times),
            "item_s_p50": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "sizes": dataclasses.asdict(sizes), "attempted": len(items), "failed": failed,
        "metrics": metrics, "items": items, "spans": tracer.spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bclayout", "__init__.py")):
        print(f"error: no bclayout sources under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(GOLDEN):
        print(f"error: missing {GOLDEN}", file=sys.stderr)
        return 2
    import workloads as wl

    if args.workload is not None and args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(GOLDEN) as fp:
        golden = json.load(fp)
    if golden["sizes"] != dataclasses.asdict(wl.FULL):
        print("error: golden.json was pinned at other sizes", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(wl.WORKLOADS)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS

    machine = machine_facts()
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    results = []
    try:
        for name in names:
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               wl.FULL, golden, workdir)
            rec["machine"] = machine
            results.append(rec)
            path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w") as fp:
                json.dump(rec, fp)
            print(f"workload {name} seed {args.seed} items {rec['attempted']} "
                  f"failed {rec['failed']} fail_ratio {rec['failed'] / rec['attempted']:.4f}")
            for key, value in rec["metrics"].items():
                print(f"  {key} {value:.6g} {units[key]}")
            print(f"  record {os.path.relpath(path, ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(results) == 1:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in results[0]["metrics"].items()}
    else:
        metrics = {f"{r['workload']}/{k}": {"value": v, "unit": units[k]}
                   for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
