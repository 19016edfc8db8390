"""Run one command in a child process under a 7 GB address-space limit and
report its exit code, wall time and peak resident memory.

    python3 tools/peak_rss.py CMD [ARG ...]

The limit (RLIMIT_AS) is set in the child alone, between fork and exec, so
neither this process nor the machine is changed. The child's standard
output is discarded, as a large report would otherwise dominate the
measurement's terminal; its standard error is passed through. One JSON line
goes to standard output:

    {"exit": 0, "wall_s": 0.61, "maxrss_mb": 177.2}

`exit` is the child's exit status, or minus the signal that ended it.
`maxrss_mb` is the child's `ru_maxrss` (KiB on Linux) in MiB. Exit status:
0 when the child ran, whatever its own status; 2 for a usage error.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

LIMIT_BYTES = 7 << 30


def _set_limit():
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))


def measure(cmd: list[str]) -> dict:
    """Run `cmd` under the limit and return the line's fields."""
    start = time.perf_counter()
    child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, preexec_fn=_set_limit)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return {
        "exit": child.returncode,
        "wall_s": round(wall, 3),
        "maxrss_mb": round(usage.ru_maxrss / 1024, 1),
    }


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    try:
        result = measure(argv)
    except OSError as exc:  # the command could not be started
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
