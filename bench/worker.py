"""One workload process: set up, run the timed closed loop, verify outputs.

``run.py`` starts this script and reads the single JSON line it prints:

    python3 bench/worker.py --workload NAME --seed N --setup-only
    python3 bench/worker.py --workload NAME --seed N --seconds S
    python3 bench/worker.py --workload NAME --seed N --ops N [--trace]

Set-up is everything before the first timed op: interpreter start, the
package import (in-process workloads), input generation, and for
``warm_queries`` one pass over its request list to fill the caches.  Its end
is reported on ``CLOCK_MONOTONIC``, which the parent shares, so the parent
measures set-up from the moment it spawned this process.

A timed run (``--seconds``) runs the workload's op list in whole passes
for most of the time, then, in what is left, runs again any op that never
had a clean run (see ``quiet.py``), and reports every run of every op with
its time and whether it was clean; ``run.py`` takes each op's best time.
``--ops N`` runs the first N ops of the list once.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from itertools import islice
from pathlib import Path

import verify
import workloads as wl
from quiet import Quiet
from tracer import COUNTER_KEYS, Tracer, cache_counters, summarize

BENCH = Path(__file__).resolve().parent
TRACE_DIR = wl.ROOT / ".bench_trace"
SPANS_ENV = "SECANTINV_BENCH_SPANS"
REPLAY_SETTLE_S = 20.0  # all waits of an --ops run together
RETIME_SHARE = 0.15  # share of --seconds kept back to retime ops never run clean


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--ops", type=int)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    name = args.workload
    in_process = name != "cli_oneshot"

    # -- set-up ---------------------------------------------------------------
    sys.path.insert(0, str(wl.SRC))
    if in_process:
        import secantinv.cli  # noqa: F401  (the package import is set-up work)
    ops = list(islice(wl.GENERATORS[name](args.seed), wl.LIST[name]))
    if name == "warm_queries":
        for request in ops:
            wl.run_in_process(request.argv)
    setup_end = wl.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return

    # -- timed closed loop ------------------------------------------------------
    tracer = Tracer() if args.trace else None
    counters = dict.fromkeys(COUNTER_KEYS, 0)
    counters["entries"] = 0
    env = wl.child_env()
    if name == "cli_oneshot":
        script = ["-m", "secantinv.cli"]
        if tracer is not None:
            TRACE_DIR.mkdir(exist_ok=True)
            spans_path = TRACE_DIR / "child.json"
            script = [str(BENCH / "traced_cli.py")]
            env[SPANS_ENV] = str(spans_path)

        def execute(op):
            return wl.run_child(op.argv, script, env)
    elif name == "deep_order":
        execute = wl.run_deep
    else:
        def execute(op):
            return wl.run_in_process(op.argv)

    def add_counters(before, after):
        for key in COUNTER_KEYS:
            counters[key] += after[key] - before[key]
        counters["entries"] = max(counters["entries"], after["chi_size"] + after["node_size"])

    cold = name in wl.COLD
    results, runs, repeats, rss_kb = [], [], [], None
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    clock = time.perf_counter

    def run_group(group):
        for i in group:
            if cold:
                wl.clear_engine_caches()
            if tracer is not None:
                tracer.current_op = i
                if in_process:
                    before = cache_counters()
            t0 = clock()
            result = execute(ops[i])
            runs.append([i, clock() - t0, False])
            if tracer is not None and in_process:
                add_counters(before, cache_counters())
            elif tracer is not None and spans_path.exists():
                child = json.loads(spans_path.read_text(encoding="utf-8"))
                spans_path.unlink()
                tracer.extend(child["spans"], i)
                add_counters(dict.fromkeys(COUNTER_KEYS, 0), child["counters"])
            if i == len(results):
                results.append((ops[i], result))
            else:
                repeats.append((i, result))

    count = len(ops) if args.ops is None else min(args.ops, len(ops))
    size = wl.GROUP[name]
    groups = [range(start, min(start + size, count)) for start in range(0, count, size)]
    quiet = Quiet()
    if tracer is not None and in_process:
        tracer.install()
    began = clock()
    if args.ops is None:
        quiet.deadline = began + (1 - RETIME_SHARE) * args.seconds
    else:
        quiet.deadline = began + REPLAY_SETTLE_S

    def timed(group) -> None:
        first = len(runs)
        clean = quiet.run(lambda: run_group(group))
        for run in runs[first:]:
            run[2] = clean

    passes = 0
    while True:
        for group in groups:
            timed(group)
        passes += 1
        if passes == 1:
            # after a fixed amount of work, not growing with the passes a
            # fast machine fits in
            rss_kb = resource.getrusage(who).ru_maxrss
        if args.ops is not None or clock() >= quiet.deadline:
            break
    if args.ops is None:
        # A long op may have met a slow spell on every pass; retime it in
        # what is left of --seconds.
        quiet.deadline = began + args.seconds
        clean = {i for i, _, ok in runs if ok}
        for group in groups:
            while clock() < quiet.deadline and not clean.issuperset(group):
                timed(group)
                clean.update(i for i, _, ok in runs[-len(group):] if ok)
    if tracer is not None and in_process:
        tracer.restore()

    # -- verification, outside the timed loop -----------------------------------
    out = {"setup_end": setup_end, "ops": len(results), "passes": passes, "runs": runs,
           "rss_kb": rss_kb, "slow_readings": quiet.slow_readings,
           "reference_ms": quiet.best * 1000}
    out.update(verify.verify_results(name, args.seed, results))
    statuses = out.pop("statuses")
    for i, result in repeats:
        if statuses[i] == "ok" and not verify.same_output(results[i][1], result):
            statuses[i] = "wrong"
            out["problems"].append(f"op {i}: a repeat gave another output")
    # Every run of an op counts, with the status of the op.
    out["attempted"] = len(runs)
    out["failed"] = sum(statuses[i] == "failed" for i, _, _ in runs)
    out["wrong"] = sum(statuses[i] == "wrong" for i, _, _ in runs)
    out["ok"] = out["attempted"] - out["failed"] - out["wrong"]
    out["units"] = [unit if statuses[i] == "ok" else 0 for i, unit in enumerate(out["units"])]
    if name == "deep_order":
        out["op_k"] = [op[2] for op, _ in results]
    if tracer is not None:
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write_jsonl(TRACE_DIR / f"{name}.jsonl")
        out["layers"] = summarize(tracer)
        out["counters"] = counters
    print(json.dumps(out))


if __name__ == "__main__":
    main()
