"""The secantinv benchmark.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --record-golden

Workloads: cli_oneshot, deep_order, grid_sweep, warm_queries (see
``workloads.py`` for what each stresses and why).  Run from anywhere; paths
are taken relative to the checkout that holds this file.

``--trace 0`` measures the end-to-end metrics with tracing off.  The
workload's seeded op list is run in whole passes for ``--seconds``, and
latency and throughput use each op's best time over its runs; an op with no
clean run, on a core that was quick just before and just after
(``quiet.py``), is run again at the end.  The metrics are set-up time (the
median over several spawns of the workload process; for cli_oneshot, of a
process that imports ``secantinv.cli``), per-op latency median and 90th
percentile, throughput in work units per second, and peak RSS after the
first pass.  ``--trace 1`` runs the op list once with every public package
function wrapped, and reports the per-layer metrics, import times from
``python -X importtime``, and the tracing overhead against a shorter
untraced run.  Both check every output and print human-readable lines
followed by one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``, where ``attempted`` counts every run of every op.  Every op of
the mix should succeed: ``failed`` counts the runs of ops that broke the
exit-code contract or gave a wrong output, and ``correct`` is false if any
output is wrong.  The two requests that break the contract at this commit
are kept out of the timed mix; the traced run runs each once and reports
how many still do (``cli.known_defects``).

``--record-golden`` rewrites ``golden.json`` from the current program for the
default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from quiet import Quiet
from verify import defect_status
from workloads import (DEEP_ORDERS, DEFECT_OUT, DEFECT_RECURSION, LIST, WORKLOADS, Request,
                       child_env, monotonic, run_child)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Set-up samples per run; cli_oneshot's are short, so it takes more.
SETUP_SPAWNS = {"cli_oneshot": 9, "deep_order": 5, "grid_sweep": 5, "warm_queries": 5}
SETUP_SETTLE_S = 10.0  # all waits for a quick core while sampling set-up
WORKER_TIMEOUT_S = 170
IMPORT_MODULES = ("secantinv", "secantinv.exactmath", "secantinv.secant_core",
                  "secantinv.cohomology", "secantinv.tangent_geometry", "secantinv.cli")
SPAN_METRICS = {
    "cli.build_parser": ("busy_s", "calls"),
    "cli.run": ("self_s",),
    "cli.render": ("busy_s",),
    "exactmath.horner": ("busy_s", "calls"),
    "secant_core.hilbert_polynomial": ("busy_s", "self_s", "calls"),
    "exactmath.lagrange_interpolate": ("busy_s", "calls"),
    "exactmath.binomial_poly": ("busy_s", "calls"),
    "exactmath.divide_by_linear": ("busy_s", "calls"),
    "exactmath.finite_difference_numerator": ("busy_s", "calls"),
    "secant_core.hilbert_series": ("busy_s", "calls"),
    "secant_core.variety_degree": ("busy_s", "calls"),
    "secant_core.generator_count": ("busy_s", "calls"),
    "cohomology.sym_secant_table": ("busy_s", "calls"),
    "cohomology.canonical_twist_table": ("busy_s", "calls"),
    "cohomology.wedge_secant_table": ("busy_s", "calls"),
    "cohomology.line_bundle_table": ("busy_s", "calls"),
    "tangent_geometry.tangent_cone_at": ("busy_s", "calls"),
    "tangent_geometry.cone_over_secant": ("busy_s", "calls"),
}
# Workloads whose ops build chi; each build runs both routes, so there the
# interpolation count must equal the number of chi builds and be positive.
BUILDS_CHI = frozenset({"cli_oneshot", "deep_order", "grid_sweep"})


class BenchError(Exception):
    """The benchmark cannot run or a workload process misbehaved."""


def spawn_worker(workload: str, seed: int, *mode: str) -> tuple[dict, float]:
    """Run worker.py to completion; returns its JSON line and spawn time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), *mode]
    spawned = monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(mode)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def median_setup(workload: str, seed: int) -> tuple[float, list[float]]:
    """Median set-up time over SETUP_SPAWNS spawns, each started on a quick
    core (see ``quiet.py``).  For cli_oneshot every op is a fresh process,
    so its set-up is the program's own start: spawn to exit of a process
    that imports ``secantinv.cli``.  Elsewhere it is spawn to first timed
    op of the workload process."""
    samples: list[float] = []

    def sample() -> None:
        if workload != "cli_oneshot":
            result, spawned = spawn_worker(workload, seed, "--setup-only")
            samples.append(result["setup_end"] - spawned)
            return
        spawned = monotonic()
        proc = subprocess.run([sys.executable, "-c", "import secantinv.cli"], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True, timeout=60)
        samples.append(monotonic() - spawned)
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")

    quiet = Quiet()
    quiet.deadline = time.perf_counter() + SETUP_SETTLE_S
    try:
        for _ in range(SETUP_SPAWNS[workload]):
            quiet.run(sample)
    finally:
        quiet.release()
    return statistics.median(samples), samples


def import_times_ms() -> dict[str, float]:
    """Median over three ``python -X importtime`` runs: cumulative import time
    of each package module, and of everything the interpreter imports at
    start-up outside the package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = []
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import secantinv.cli"],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import failed:\n{proc.stderr[-2000:]}")
        times = {"interpreter": 0.0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, module = line.split("|")
            if not cumulative.strip().isdigit():
                continue  # the header line
            name = module.strip()
            ms = int(cumulative) / 1000
            if name in IMPORT_MODULES:
                times[name.rsplit(".", 1)[-1]] = ms
            elif not module[1:].startswith(" ") and not name.startswith("secantinv"):
                times["interpreter"] += ms
        runs.append(times)
    return {key: statistics.median(r.get(key, 0.0) for r in runs) for key in runs[0]}


def known_defects() -> tuple[int, list[str]]:
    """Run each known-defect request once in a fresh process: how many still
    break the exit-code contract, and problems for any that now give a
    wrong value."""
    broken, problems = 0, []
    for argv in (DEFECT_RECURSION, DEFECT_OUT):
        status, problem = defect_status(Request(argv, "defect"),
                                        run_child(argv, ["-m", "secantinv.cli"], child_env()))
        broken += status == "failed"
        if status == "wrong":
            problems.append(f"known-defect request {' '.join(argv)}: {problem}")
    return broken, problems


def source_commit() -> str:
    """The git commit of the checkout when there is one, else ``unknown``."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest() -> str:
    """Digest of the package sources, which identifies the program measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile by nearest rank: a measured value, never one
    extrapolated past the largest, which short op lists would give."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def best_times(run: dict) -> list[float]:
    """Each op's best time over its runs.  A slowed core only adds time, so
    the best run is the one least disturbed."""
    best: dict[int, float] = {}
    for i, seconds, _ in run["runs"]:
        best[i] = min(best.get(i, seconds), seconds)
    return [best[i] for i in range(run["ops"])]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    run, _ = spawn_worker(workload, seed, "--seconds", str(seconds))
    setup_s, samples = median_setup(workload, seed)
    op_s = best_times(run)
    op_ms = [s * 1000 for s in op_s]
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_ms_p50": (statistics.median(op_ms), "ms"),
        "latency_ms_p90": (percentile(op_ms, 90), "ms"),
        "throughput_per_s": (sum(run["units"]) / sum(op_s), "1/s"),
        "peak_rss_mb": (run["rss_kb"] / 1024, "MB"),
    }
    notes = {"setup_samples_s": [round(s, 4) for s in samples], "passes": run["passes"],
             "reference_ms": round(run["reference_ms"], 4),
             "slow_core_readings": run["slow_readings"],
             "ops_never_run_clean": run["ops"] - len({i for i, _, ok in run["runs"] if ok})}
    return run, metrics, notes


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    plain, _ = spawn_worker(workload, seed, "--seconds", str(max(1.0, seconds / 2)))
    traced, _ = spawn_worker(workload, seed, "--ops", str(plain["ops"]), "--trace")
    layers, counters = traced["layers"], traced["counters"]
    metrics = {}
    for name, ms in import_times_ms().items():
        metrics[f"import.{name}_ms"] = (ms, "ms")
    for span, fields in SPAN_METRICS.items():
        entry = layers.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for field in fields:
            metrics[f"{span}.{field}"] = (entry[field], "count" if field == "calls" else "s")
    codes = traced["exit_codes"]
    metrics["cli.usage_errors"] = (codes.get("2", 0), "count")
    metrics["cli.internal_errors"] = (codes.get("3", 0), "count")
    broken, defect_problems = known_defects()
    metrics["cli.known_defects"] = (broken, "count")

    def ratio(hits: int, misses: int) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    metrics["secant_core.chi_builds"] = (counters["chi_size"], "count")
    metrics["secant_core.chi_hit_ratio"] = (ratio(counters["chi_hits"], counters["chi_misses"]), "ratio")
    metrics["secant_core.node_hit_ratio"] = (ratio(counters["node_hits"], counters["node_misses"]), "ratio")
    metrics["secant_core.cache_entries"] = (counters["entries"], "count")
    by_k = {k: [] for k in sorted(set(DEEP_ORDERS))}
    for k, s in zip(plain.get("op_k", []), best_times(plain)):
        by_k[k].append(s)
    for k, values in by_k.items():
        metrics[f"secant_core.op_s.k{k}"] = (statistics.median(values) if values else 0.0, "s")
    first_pass = sum(seconds for _, seconds, _ in plain["runs"][:plain["ops"]])
    traced_pass = sum(seconds for _, seconds, _ in traced["runs"])
    metrics["trace.overhead_ratio"] = (traced_pass / first_pass, "ratio")

    run = dict(traced)
    run["problems"] = list(run["problems"]) + defect_problems
    run["wrong"] += len(defect_problems)
    identical = traced["digests"] == plain["digests"]
    if not identical:
        run["wrong"] += 1
        run["problems"].append("output digests differ with tracing on and off")
    guard = guard_problem(workload, metrics["exactmath.lagrange_interpolate.calls"][0],
                          counters["chi_size"])
    if guard:
        run["wrong"] += 1
        run["problems"].append(guard)
    notes = {
        "untraced_ops": plain["ops"],
        "digests_identical_traced_untraced": identical,
        "spans_file": f".bench_trace/{workload}.jsonl",
    }
    return run, metrics, notes


def guard_problem(workload: str, interpolations: int, chi_builds: int) -> str | None:
    """Why the trace shows the dual-route guard of ``_chi`` not running, or
    None.  Every chi build interpolates the node values and compares the
    result with the closed form, so the counts must match, and a workload
    that builds chi must show builds."""
    if interpolations != chi_builds:
        return (f"{interpolations} interpolations for {chi_builds} chi builds: "
                "the dual-route guard did not run")
    if workload in BUILDS_CHI and chi_builds == 0:
        return "no chi builds traced"
    return None


def record_golden() -> None:
    (BENCH / "golden.json").unlink(missing_ok=True)  # record without the old digests
    golden = {"seed": 0}
    for workload in WORKLOADS:
        result, _ = spawn_worker(workload, 0, "--ops", str(LIST[workload]))
        if result["wrong"]:
            raise BenchError(f"{workload}: refusing to record wrong outputs: {result['problems']}")
        golden[workload] = result["digests"]
        print(f"{workload}: {len(result['digests'])} digests", file=sys.stderr)
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description="secantinv benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    for required in ("src/secantinv/__init__.py", "src/secantinv/cli.py", "tests/oracles.py"):
        if not (ROOT / required).is_file():
            print(f"benchmark: {required} is missing; run from a full checkout", file=sys.stderr)
            return 2
    try:
        if args.record_golden:
            record_golden()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        measure = per_layer if args.trace else end_to_end
        run, metrics, notes = measure(args.workload, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": source_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": run["ops"],
        "golden": run["golden"],
    }
    print("env: " + json.dumps(env, sort_keys=True))
    for key, value in notes.items():
        print(f"note: {key} = {json.dumps(value)}")
    attempted = run["attempted"]  # every run of every op
    failed = run["failed"] + run["wrong"]
    print(f"ops: attempted {attempted}, ok {run['ok']}, failed {run['failed']}, "
          f"wrong {run['wrong']}; failed_ops_ratio = {failed / attempted:.4f}")
    for problem in run["problems"]:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"metric: {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": run["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
