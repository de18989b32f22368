"""Self-tests for the benchmark harness (standard library only).

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import inspect
import json
import subprocess
import sys
import unittest
from dataclasses import replace
from itertools import islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import verify  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

sys.path.insert(0, str(wl.SRC))


class GeneratorTests(unittest.TestCase):
    def test_same_seed_gives_identical_ops(self):
        for name, generate in wl.GENERATORS.items():
            with self.subTest(workload=name):
                first = list(islice(generate(7), 120))
                self.assertEqual(first, list(islice(generate(7), 120)))
                self.assertNotEqual(first, list(islice(generate(8), 120)))

    def test_deep_order_never_reuses_a_genus_degree_pair(self):
        ops = list(islice(wl.deep_order_ops(3), 500))
        self.assertEqual(len({(g, d) for g, d, _ in ops}), len(ops))

    def test_grid_sweep_covers_the_roadmap_genera_with_a_fixed_mix(self):
        ops = list(islice(wl.grid_sweep_ops(3), 120))
        for op in ops:
            g = int(op.argv[2])
            self.assertIn(g, range(7))
            self.assertEqual(op.argv[4], f"{2 * g + 10}:{2 * g + 17}")
        for start in range(0, len(ops), len(wl.GRID_KINDS)):
            kinds = {(op.argv[-3], op.argv[-1]) for op in ops[start:start + len(wl.GRID_KINDS)]}
            self.assertEqual(kinds, set(wl.GRID_KINDS))

    def test_cli_oneshot_mix(self):
        ops = list(islice(wl.cli_oneshot_ops(5), 80))
        for start in (0, 40):
            expects = [r.expect for r in ops[start:start + 40]]
            self.assertNotIn("defect", expects)  # the timed mix holds no failing op
            self.assertEqual(sorted(e for e in expects if e.startswith("error:")),
                             sorted(f"error:{kind}" for kind in wl.ERROR_KINDS))
        walked = {(r.argv[0], r.argv[-1]) for r in ops if r.expect == "ok"}
        self.assertEqual(len(walked), len(wl.CLI_COMMANDS) * len(wl.FORMATS))


class ClassificationTests(unittest.TestCase):
    def test_expected_errors_are_classified(self):
        requests = [r for r in islice(wl.cli_oneshot_ops(11), 200) if r.expect.startswith("error:")]
        self.assertTrue(requests)
        for request in requests:
            outcome = wl.run_in_process(request.argv)
            self.assertIsNone(verify.error_problem(outcome, request.expect[len("error:"):]),
                              request.argv)
            self.assertIsNotNone(verify.error_problem(outcome, "some-other-code"))

    def test_malformed_errors_are_refused(self):
        bad = [
            wl.Outcome(1, "", "error: domain: x\n"),
            wl.Outcome(2, "out", "error: domain: x\n"),
            wl.Outcome(2, "", "error: domain: x\nerror: domain: y\n"),
            wl.Outcome(2, "", "Traceback (most recent call last):\n"),
            wl.Outcome(2, "", "error: domain: x"),
        ]
        for outcome in bad:
            self.assertIsNotNone(verify.error_problem(outcome, "domain"), outcome)

    def test_known_defects_count_as_failed_until_fixed(self):
        request = wl.Request(wl.DEFECT_RECURSION, "defect")
        traceback = wl.Outcome(1, "", "Traceback ...\nRecursionError: maximum recursion depth\n")
        self.assertEqual(verify.defect_status(request, traceback)[0], "failed")
        refused = wl.Outcome(2, "", "error: domain: order 200 exceeds the limit\n")
        self.assertEqual(verify.defect_status(request, refused)[0], "ok")
        out_request = wl.Request(wl.DEFECT_OUT, "defect")
        self.assertEqual(verify.defect_status(out_request, wl.run_in_process(wl.DEFECT_OUT))[0],
                         "failed")


class CorruptionTests(unittest.TestCase):
    def test_corrupted_cli_output_is_counted(self):
        requests = [r for r in islice(wl.warm_queries_ops(2), 16)]
        results = [(r, wl.run_in_process(r.argv)) for r in requests]
        clean = verify.verify_results("warm_queries", 2, results)
        self.assertEqual((clean["ok"], clean["failed"], clean["wrong"]), (16, 0, 0))
        for i, (request, outcome) in enumerate(results):
            digits = [j for j, ch in enumerate(outcome.stdout) if ch in "123456789"]
            if digits:
                j = digits[-1]
                bumped = str(int(outcome.stdout[j]) % 9 + 1)
                corrupted = replace(outcome, stdout=outcome.stdout[:j] + bumped
                                    + outcome.stdout[j + 1:])
                results[i] = (request, corrupted)
                break
        dirty = verify.verify_results("warm_queries", 2, results)
        self.assertEqual((dirty["ok"], dirty["wrong"]), (15, 1))

    def test_corrupted_engine_result_is_counted(self):
        op = (2, 31, 12)
        import secantinv

        result = wl.run_deep(op)
        self.assertEqual(verify.verify_results("deep_order", 2, [(op, result)])["wrong"], 0)
        poly, series, degree, generators = result
        for bad in [(poly, series, degree + 1, generators), (poly, series, degree, generators - 1),
                    (poly + secantinv.QPolynomial.constant(1), series, degree, generators)]:
            self.assertEqual(verify.verify_results("deep_order", 2, [(op, bad)])["wrong"], 1)

    def test_a_repeat_with_another_output_is_refused(self):
        request = next(wl.warm_queries_ops(2))
        outcome = wl.run_in_process(request.argv)
        self.assertTrue(verify.same_output(outcome, wl.run_in_process(request.argv)))
        self.assertFalse(verify.same_output(outcome, replace(outcome, stdout=outcome.stdout + " ")))
        op = (1, 20, 6)
        poly, series, degree, generators = wl.run_deep(op)
        self.assertTrue(verify.same_output(wl.run_deep(op), (poly, series, degree, generators)))
        self.assertFalse(verify.same_output(wl.run_deep(op),
                                            (poly, series, degree + 1, generators)))

    def test_dual_route_guard_counts_are_checked(self):
        import run

        self.assertIsNone(run.guard_problem("grid_sweep", 40, 40))
        self.assertIsNone(run.guard_problem("warm_queries", 0, 0))
        self.assertIsNotNone(run.guard_problem("grid_sweep", 39, 40))
        self.assertIsNotNone(run.guard_problem("deep_order", 0, 0))

    def test_best_time_is_taken_over_every_run_of_an_op(self):
        import run

        runs = [[0, 0.5, False], [1, 0.2, True], [0, 0.4, True], [1, 0.3, False]]
        self.assertEqual(run.best_times({"ops": 2, "runs": runs}), [0.4, 0.2])

    def test_corrupted_sweep_skip_lines_are_counted(self):
        request = next(wl.grid_sweep_ops(4))
        outcome = wl.run_in_process(request.argv)
        self.assertEqual(verify.verify_results("grid_sweep", 4, [(request, outcome)])["wrong"], 0)
        dropped = replace(outcome, stderr=outcome.stderr.split("\n", 1)[1])
        self.assertEqual(verify.verify_results("grid_sweep", 4, [(request, dropped)])["wrong"], 1)


class TracerTests(unittest.TestCase):
    def _sites(self):
        import importlib

        from tracer import IMPORT_SITES

        out = {}
        for module_name in IMPORT_SITES:
            module = importlib.import_module(module_name)
            for attr in dir(module):
                out[(module_name, attr)] = inspect.getattr_static(module, attr)
        from secantinv import cli, exactmath

        for owner, attr in ((exactmath.QPolynomial, "__call__"),
                            (exactmath.QPolynomial, "divide_by_linear"), (cli.Document, "render")):
            out[(owner.__name__, attr)] = inspect.getattr_static(owner, attr)
        return out

    def test_wrappers_restore_the_original_functions(self):
        before = self._sites()
        tracer = Tracer()
        tracer.install()
        try:
            during = self._sites()
            changed = {key for key in before if before[key] is not during[key]}
            self.assertIn(("secantinv.secant_core", "lagrange_interpolate"), changed)
            self.assertIn(("secantinv", "hilbert_polynomial"), changed)
            self.assertIn(("QPolynomial", "__call__"), changed)
            self.assertNotIn(("secantinv.exactmath", "binomial"), changed)
            with self.assertRaises(RuntimeError):
                tracer.install()
        finally:
            tracer.restore()
        after = self._sites()
        self.assertTrue(all(before[key] is after[key] for key in before))

    def test_spans_nest_and_self_time_excludes_children(self):
        tracer = Tracer()
        tracer.install()
        try:
            import secantinv

            tracer.current_op = 5
            secantinv.hilbert_polynomial(secantinv.SecantInstance(1, 40, 6))
        finally:
            tracer.restore()
        summary = summarize(tracer)
        top = summary["secant_core.hilbert_polynomial"]
        self.assertEqual(top["calls"], 1)
        self.assertLess(top["self_s"], top["busy_s"])
        self.assertEqual(summary["exactmath.lagrange_interpolate"]["calls"], 7)
        self.assertEqual(set(tracer.op), {5})
        self.assertEqual(sum(1 for p in tracer.parent if p < 0), 1)


class ContractTests(unittest.TestCase):
    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(wl.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", "warm_queries",
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=170)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            declared = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(printed, declared)


if __name__ == "__main__":
    unittest.main()
