"""The four benchmark workloads: deterministic inputs from a seed, and how
one op runs.

Every workload is a closed loop with one client: the next op starts only
when the previous one has returned.  The program receives only the argv
lists or instances generated here.

* ``cli_oneshot``: one fresh ``python -m secantinv.cli`` process per op.
  This is what a user waits for, and it is dominated by interpreter start
  and package import, so engine changes should not move it.
* ``deep_order``: in-process engine calls at orders 12..24, each op on a
  ``(g, d)`` pair the process has not seen, with the engine's caches
  cleared before it, so no cache entry is shared between ops.  The
  negative-twist node recursion dominates.
* ``grid_sweep``: in-process ``sweep`` requests over the ROADMAP genera
  0..6, with the engine's caches cleared before each, so there are many
  small chi builds with cache hits only inside a request.
* ``warm_queries``: in-process requests for the cohomology and tangent
  layers over a fixed pool whose caches are filled during set-up, so the
  engine's cache-hit path and the CLI's per-call overhead dominate.

A run cycles through a fixed, seeded list of ops (``LIST``), so that each op
is timed several times, and reports each op's best time: the machine the
benchmark runs on slows a whole core down for seconds at a time.  An op
that never had a clean run, on a core that was quick just before and just
after it, is run again at the end (see ``quiet.py``).

``validate`` is not a workload: it takes seconds and the test suite covers
it.  Orders from 100 to 190 and ``coh-line --points 10**9`` are left out
because they run unbounded at this commit.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import cycle
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

FORMATS = ("text", "json", "csv", "latex")
CLI_COMMANDS = (
    "hilbert", "series", "degree", "generators", "coh-sym", "coh-wedge",
    "coh-canonical", "coh-line", "tangent-cone", "cone", "sweep",
)
WARM_COMMANDS = (
    "coh-sym", "coh-canonical", "coh-wedge", "coh-line",
    "tangent-cone", "cone", "hilbert", "series",
)
# Two requests that break the exit-code contract at this commit: a
# RecursionError traceback, and a FileNotFoundError traceback for an --out
# path whose directory is missing (kept inside the checkout on purpose).
# They are not in the timed mix, whose ops must all succeed; the traced run
# probes them once each (``cli.known_defects``).
MISSING_OUT = ".bench_missing/out.txt"
DEFECT_RECURSION = ("degree", "--genus", "0", "--degree", "1000", "--order", "200")
DEFECT_OUT = ("degree", "--genus", "2", "--degree", "9", "--order", "1", "--out", MISSING_OUT)
# deep_order order cycle, one op per order, so that a pass is short (about
# 2 s on a quick core) and each op's best time rests on many passes.  A run
# stops only between whole cycles, so every run has the same mix.
DEEP_ORDERS = (12, 16, 20, 24)
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Request:
    """One CLI request and the outcome its documentation promises:
    ``ok``, ``error:<code>`` (exit 2 with one error line), or ``defect``."""

    argv: tuple[str, ...]
    expect: str = "ok"


@dataclass(frozen=True)
class Outcome:
    """What a CLI request produced; ``rc`` is None when it raised."""

    rc: int | None
    stdout: str
    stderr: str


def _instance(rng: random.Random, max_genus: int, max_order: int) -> tuple[int, int, int]:
    g = rng.randint(0, max_genus)
    k = rng.randint(0, max_order)
    return g, 2 * g + 2 * k + 2 + rng.randint(0, 4), k


def _inst_args(g: int, d: int, k: int) -> tuple[str, ...]:
    return ("--genus", str(g), "--degree", str(d), "--order", str(k))


def _nonspecial_or_negative(rng: random.Random, g: int) -> int:
    """A line-bundle degree whose cohomology the degree alone determines."""
    return rng.choice([rng.randint(2 * g - 1, 2 * g + 5), rng.randint(-3, -1)])


def _wedge_args(rng: random.Random, g: int) -> tuple[str, ...]:
    points = rng.randint(1, 4)
    deg_l = rng.randint(2 * g - 1, 2 * g + 5)
    deg_m = rng.randint(0, 3)  # deg_l + deg_m > 2g-2, so the product is forced
    args = ("--genus", str(g), "--points", str(points),
            "--twist", str(rng.randint(1, points)),
            "--degree-of-L", str(deg_l), "--degree-of-M", str(deg_m))
    if deg_m <= 2 * g - 2:  # special range: supply the smallest valid h1
        args += ("--h1-of-M", str(max(0, deg_m - g + 1) - (deg_m - g + 1)))
    return args


def _line_args(rng: random.Random, g: int, degree: int) -> tuple[str, ...]:
    return ("--family", rng.choice("NT"), "--points", str(rng.randint(1, 4)),
            "--genus", str(g), "--degree", str(degree))


def request_argv(rng: random.Random, command: str, inst: tuple[int, int, int]) -> tuple[str, ...]:
    """Valid argv (without --format) for ``command`` on instance ``inst``."""
    g, d, k = inst
    if command in ("hilbert", "series", "degree", "generators"):
        return (command,) + _inst_args(g, d, k)
    if command == "coh-sym":
        return (command,) + _inst_args(g, d, k) + ("--twist", str(rng.randint(0, 3)))
    if command == "coh-canonical":
        return (command,) + _inst_args(g, d, k) + ("--twist", str(rng.randint(1, 3)))
    if command == "coh-wedge":
        return (command,) + _wedge_args(rng, g)
    if command == "coh-line":
        return (command,) + _line_args(rng, g, _nonspecial_or_negative(rng, g))
    if command == "tangent-cone":
        return (command,) + _inst_args(g, d, k) + ("--stratum", str(rng.randint(0, k)))
    if command == "cone":
        return (command,) + _inst_args(g, d, k) + ("--vertex-count", str(rng.randint(0, 3)))
    if command == "sweep":
        g0 = rng.randint(0, 3)
        a = 2 * g0 + rng.randint(1, 6)
        invariant = rng.choice(("degree", "generators", "canonical-h0", "hilbert"))
        argv = ("sweep", "--genus-range", f"{g0}:{g0 + 1}", "--degree-range", f"{a}:{a + 5}",
                "--order-range", "0:2", "--invariant", invariant)
        if invariant == "hilbert":
            argv += ("--twist", str(rng.randint(1, 3)))
        return argv
    raise ValueError(f"no generator for command {command!r}")


def _error_request(rng: random.Random, kind: str) -> Request:
    """A request the CLI must refuse with exit 2 and one error line."""
    g = rng.randint(0, 4)
    k = rng.randint(1, 6)
    if kind == "domain":
        command = rng.choice(("hilbert", "series", "degree"))
        argv = (command,) + _inst_args(g, 2 * g + 2 * k - rng.randint(0, 2), k)
    elif kind == "generator-degree-unknown":
        argv = ("generators",) + _inst_args(g, 2 * g + 2 * k + 1, k)
    elif kind == "stratum":
        argv = ("tangent-cone",) + _inst_args(g, 2 * g + 2 * k + 2, k) + (
            "--stratum", str(k + 1 + rng.randint(0, 2)))
    else:
        g = rng.randint(1, 4)
        argv = ("coh-line",) + _line_args(rng, g, rng.randint(0, 2 * g - 2))
    return Request(argv + ("--format", rng.choice(FORMATS)), f"error:{kind}")


ERROR_KINDS = ("domain", "generator-degree-unknown", "stratum", "ambiguous-bundle")


def cli_oneshot_ops(seed: int) -> Iterator[Request]:
    """Blocks of 20: 18 valid requests walking every (command, format) pair
    and two of the four documented error kinds, taking turns, so that every
    pair of blocks holds each error kind once."""
    rng = random.Random(f"cli_oneshot:{seed}")
    pairs = [(c, f) for c in CLI_COMMANDS for f in FORMATS]
    rng.shuffle(pairs)
    walk = cycle(pairs)
    for turn in cycle((0, 1)):
        block = []
        for _ in range(18):
            command, fmt = next(walk)
            argv = request_argv(rng, command, _instance(rng, 4, 6))
            block.append(Request(argv + ("--format", fmt)))
        block += [_error_request(rng, kind) for kind in ERROR_KINDS[2 * turn:2 * turn + 2]]
        rng.shuffle(block)
        yield from block


def deep_order_ops(seed: int) -> Iterator[tuple[int, int, int]]:
    """Instances (g, d, k) with k cycling through DEEP_ORDERS, g in 0..8, and
    a (g, d) pair never used before; d >= 2g+2k+2 so generators exist."""
    rng = random.Random(f"deep_order:{seed}")
    seen: set[tuple[int, int]] = set()
    for k in cycle(DEEP_ORDERS):
        g = rng.randint(0, 8)
        d = 2 * g + 2 * k + 2 + rng.randint(0, 3)
        while (g, d) in seen:
            d += 1
        seen.add((g, d))
        yield g, d, k


GRID_GENERA = 7  # genus 0..6, as in the ROADMAP grid
GRID_KINDS = tuple((invariant, fmt) for invariant in ("degree", "generators", "hilbert")
                   for fmt in FORMATS)


def grid_sweep_ops(seed: int) -> Iterator[Request]:
    """Sweeps of one genus g in 0..6 over degrees 2g+10..2g+17, which start
    below 2g+17, so cells of order 8 are skipped, and orders 0:8.  Each run
    of 12 ops covers every (invariant, format) pair once and each run of 7
    ops every genus once, in seeded order.  The list a run cycles through is
    the first 12: every pair once, every genus at least once, and short
    enough for about 14 passes in 25 s."""
    rng = random.Random(f"grid_sweep:{seed}")
    kinds = list(GRID_KINDS)
    genera: list[int] = []
    while True:
        rng.shuffle(kinds)
        for invariant, fmt in kinds:
            if not genera:
                genera = rng.sample(range(GRID_GENERA), GRID_GENERA)
            g = genera.pop()
            yield Request((
                "sweep", "--genus-range", str(g), "--degree-range", f"{2 * g + 10}:{2 * g + 17}",
                "--order-range", "0:8", "--invariant", invariant, "--format", fmt,
            ))


WARM_POOL = tuple((g, 2 * g + 2 * k + 3, k) for g in range(4) for k in range(2, 9))
WARM_REQUESTS = 256


def warm_queries_ops(seed: int) -> Iterator[Request]:
    """A seeded list of 256 requests over the fixed 28-instance pool,
    repeated forever; set-up runs the list once to fill the caches.  Every
    command walks the whole pool, so each seed has the same mix of costs."""
    rng = random.Random(f"warm_queries:{seed}")
    pool = list(WARM_POOL)
    rng.shuffle(pool)
    width = len(WARM_COMMANDS)
    requests = [
        Request(request_argv(rng, WARM_COMMANDS[i % width], pool[i // width % len(pool)])
                + ("--format", rng.choice(FORMATS)))
        for i in range(WARM_REQUESTS)
    ]
    yield from cycle(requests)


GENERATORS = {
    "cli_oneshot": cli_oneshot_ops,
    "deep_order": deep_order_ops,
    "grid_sweep": grid_sweep_ops,
    "warm_queries": warm_queries_ops,
}
WORKLOADS = tuple(GENERATORS)
# Length of the seeded op list that a run cycles through.  Every op is run
# once per pass; a time-bounded run ends after a whole pass, and each op's
# figure is its best time over the passes.
LIST = {"cli_oneshot": 40, "deep_order": len(DEEP_ORDERS), "grid_sweep": len(GRID_KINDS),
        "warm_queries": WARM_REQUESTS}
# Ops timed between two readings of the core's speed (see quiet.py).
GROUP = {"cli_oneshot": 1, "deep_order": 1, "grid_sweep": 1, "warm_queries": 16}
# Workloads whose ops each start from empty engine caches.
COLD = frozenset({"deep_order", "grid_sweep"})


def monotonic() -> float:
    """Seconds on CLOCK_MONOTONIC, which all processes of the machine share."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: tuple[str, ...], script: list[str], env: dict[str, str]) -> Outcome:
    """One CLI request in a fresh interpreter, from the checkout root."""
    try:
        proc = subprocess.run(
            [sys.executable, *script, *argv], cwd=ROOT, env=env,
            capture_output=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Outcome(None, "", f"timeout after {CHILD_TIMEOUT_S} s")
    return Outcome(proc.returncode, proc.stdout.decode("utf-8", "replace"),
                   proc.stderr.decode("utf-8", "replace"))


def clear_engine_caches() -> None:
    """Empty the engine's chi and node-table caches."""
    from secantinv import secant_core

    secant_core._chi.cache_clear()
    secant_core._node_table.cache_clear()


def run_in_process(argv: tuple[str, ...]) -> Outcome:
    """One CLI request through ``secantinv.cli.run`` into string buffers.

    The module attribute is looked up on every call so that a traced run
    sees the wrapped entry point."""
    from secantinv import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        rc = cli.run(list(argv), out, err)
    except Exception as exc:  # a crash is an op outcome, verified later
        return Outcome(None, out.getvalue(), f"{type(exc).__name__}: {exc}")
    return Outcome(rc, out.getvalue(), err.getvalue())


def run_deep(op: tuple[int, int, int]):
    """The four engine entry points for one instance, via the package; an
    exception is returned as the op's result and verified later."""
    import secantinv

    try:
        inst = secantinv.SecantInstance(*op)
        return (
            secantinv.hilbert_polynomial(inst),
            secantinv.hilbert_series(inst),
            secantinv.variety_degree(inst),
            secantinv.generator_count(inst),
        )
    except Exception as exc:  # a crash is an op outcome, verified later
        return exc
