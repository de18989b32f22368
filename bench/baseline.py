"""One-off report of the reference figures quoted in ROADMAP.md; not gated.

    python3 bench/baseline.py > bench/baseline.json

Single runs, each cold measurement in a fresh interpreter:

* ``_node_table(5, 2k+15, k)`` at k = 10, 20, 30, 40;
* ``secantinv degree --genus 2 --degree 9 --order 1``: one-shot wall time
  of a fresh process, and warm in-process ``cli.run`` time (median of 50);
* ``sweep --genus-range 0:6 --degree-range 1:60 --order-range 0:8
  --invariant generators``: cold (first call in a process) and warm (the
  same call again).

These points are kept out of the gated workloads because k = 40 alone takes
about 9 s.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

NODE_TABLE = """
import time
from secantinv.secant_core import _node_table
t = time.perf_counter(); _node_table(5, 2 * {k} + 15, {k}); print(time.perf_counter() - t)
"""
WARM_DEGREE = """
import io, statistics, time
from secantinv import cli
argv = ["degree", "--genus", "2", "--degree", "9", "--order", "1"]
cli.run(argv, io.StringIO(), io.StringIO())
times = []
for _ in range(50):
    t = time.perf_counter(); cli.run(argv, io.StringIO(), io.StringIO())
    times.append(time.perf_counter() - t)
print(statistics.median(times))
"""
SWEEP = """
import io, time
from secantinv import cli
argv = ["sweep", "--genus-range", "0:6", "--degree-range", "1:60", "--order-range", "0:8",
        "--invariant", "generators"]
for _ in range(2):
    t = time.perf_counter(); cli.run(argv, io.StringIO(), io.StringIO())
    print(time.perf_counter() - t)
"""


def child(code: str) -> list[float]:
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, check=True, timeout=300)
    return [float(line) for line in proc.stdout.split()]


def main() -> None:
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "node_table_s": {f"k{k}": child(NODE_TABLE.format(k=k))[0] for k in (10, 20, 30, 40)},
    }
    started = time.perf_counter()
    subprocess.run([sys.executable, "-m", "secantinv.cli", "degree", "--genus", "2",
                    "--degree", "9", "--order", "1"], cwd=ROOT, env=ENV, check=True,
                   capture_output=True, timeout=60)
    report["degree_oneshot_s"] = time.perf_counter() - started
    report["degree_warm_in_process_s"] = child(WARM_DEGREE)[0]
    cold, warm = child(SWEEP)
    report["sweep_generators_0-6x1-60x0-8_s"] = {"cold": cold, "warm": warm}
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
