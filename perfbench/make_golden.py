"""Write golden.json: the pinned outputs of every benchmark input pool.

    python3 perfbench/make_golden.py

The pins record what the program produced when they were made; the
benchmark fails an item whose output differs. Rerun this only when a change
to the program's outputs is intended, and say so in that change.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads as wl  # noqa: E402


def make_golden(sizes: wl.Sizes) -> dict:
    golden = {"sizes": dataclasses.asdict(sizes)}
    for name, cls in wl.WORKLOADS.items():
        golden[name] = cls.make_pins(sizes)
    return golden


if __name__ == "__main__":
    golden = make_golden(wl.FULL)
    with open(os.path.join(HERE, "golden.json"), "w") as fp:
        json.dump(golden, fp, indent=1)
        fp.write("\n")
