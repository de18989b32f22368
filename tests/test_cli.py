import errno
import hashlib
import io
import json
import os
import subprocess
import sys
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secantinv import (DomainError, QPolynomial, SecantInstance, UsageError, hilbert_polynomial,
                       hilbert_series)
from secantinv.cli import (_COMMANDS, FORMATS, Document, _HelpRequested, _parse, _read,
                           build_parser, run)
from secantinv.validation import CheckResult


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestScalarCommands:
    def test_generators_bare_text(self):
        code, out, _ = invoke(["generators", "--genus", "0", "--degree", "4", "--order", "1"])
        assert code == 0
        assert out == "1\n"

    def test_degree_json(self):
        code, out, _ = invoke(
            ["degree", "--genus", "0", "--degree", "4", "--order", "1", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out) == {"value": "3"}

    def test_generator_boundary_exit_2(self):
        code, _, err = invoke(["generators", "--genus", "0", "--degree", "3", "--order", "1"])
        assert code == 2
        assert err.startswith("error: generator-degree-unknown:")


class TestHilbertCommand:
    def test_json_golden(self):
        code, out, _ = invoke(
            ["hilbert", "--genus", "0", "--degree", "4", "--order", "1", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out) == {"coefficients": ["1", "2", "3/2", "1/2"]}

    def test_boundary_degree_succeeds(self):
        code, _, _ = invoke(["hilbert", "--genus", "0", "--degree", "3", "--order", "1"])
        assert code == 0

    def test_domain_error_message(self):
        code, out, err = invoke(["hilbert", "--genus", "0", "--degree", "2", "--order", "1"])
        assert code == 2
        assert out == ""
        assert err == "error: domain: degree 2 violates d >= 2g+2k+1 = 3\n"

    def test_latex_format(self):
        code, out, _ = invoke(
            ["hilbert", "--genus", "0", "--degree", "4", "--order", "1", "--format", "latex"]
        )
        assert code == 0
        assert out == "\\frac{1}{2} t^{3} + \\frac{3}{2} t^{2} + 2 t + 1\n"

    def test_csv_format(self):
        code, out, _ = invoke(
            ["hilbert", "--genus", "2", "--degree", "9", "--order", "1", "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "power,coefficient"
        assert lines[1:] == ["0,-2", "1,29/3", "2,-4", "3,13/3"]


class TestSeriesCommand:
    def test_json_round_trip(self):
        code, out, _ = invoke(
            ["series", "--genus", "2", "--degree", "9", "--order", "1", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        series = hilbert_series(SecantInstance(2, 9, 1))
        assert QPolynomial.from_strings(payload["numerator"]) == series.numerator
        assert payload["krull_dim"] == series.krull_dim

    def test_text_format(self):
        code, out, _ = invoke(["series", "--genus", "0", "--degree", "4", "--order", "1"])
        assert code == 0
        assert out == "numerator = t^2 + t + 1\nkrull_dim = 4\n"


class TestCohomologyCommands:
    def test_sym_table_json(self):
        code, out, _ = invoke(
            ["coh-sym", "--genus", "2", "--degree", "9", "--order", "1",
             "--twist", "1", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == "SymE"
        assert [e["dim"] for e in payload["entries"]] == ["8", "16", "0"]

    def test_sym_table_twist_zero(self):
        # structure-sheaf cohomology of the symmetric product
        code, out, _ = invoke(
            ["coh-sym", "--genus", "2", "--degree", "9", "--order", "1",
             "--twist", "0", "--format", "text"]
        )
        assert code == 0
        rows = [line.split() for line in out.splitlines()[-3:]]
        assert rows == [["0", "0", "1"], ["1", "0", "2"], ["2", "0", "1"]]

    def test_canonical_table(self):
        code, out, _ = invoke(
            ["coh-canonical", "--genus", "2", "--degree", "9", "--order", "1",
             "--twist", "1", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines() == ["i,l,dim", "0,1,20", "1,1,10", "2,1,0"]

    def test_wedge_requires_product_class_in_special_range(self):
        code, _, err = invoke(
            ["coh-wedge", "--genus", "2", "--points", "2", "--twist", "1",
             "--degree-of-L", "1", "--h1-of-L", "1",
             "--degree-of-M", "0", "--h1-of-M", "2"]
        )
        assert code == 2
        assert err.startswith("error: ambiguous-bundle:")

    def test_wedge_with_supplied_product_class(self):
        code, out, _ = invoke(
            ["coh-wedge", "--genus", "2", "--points", "2", "--twist", "1",
             "--degree-of-L", "1", "--h1-of-L", "1",
             "--degree-of-M", "0", "--h1-of-M", "2",
             "--h1-of-LM", "1", "--format", "csv"]
        )
        assert code == 0

    def test_line_bundle_special_needs_h1(self):
        code, _, err = invoke(
            ["coh-line", "--family", "N", "--points", "2", "--genus", "2", "--degree", "2"]
        )
        assert code == 2
        assert err.startswith("error: ambiguous-bundle:")

    def test_line_bundle_table(self):
        code, out, _ = invoke(
            ["coh-line", "--family", "T", "--points", "2", "--genus", "3",
             "--degree", "4", "--h1-of-L", "1", "--format", "csv"]
        )
        assert code == 0
        # h0 = 4-3+1+1 = 3: sym^2 = 6, then 3*wedge^1(1) = 3, wedge^2(1) = 0
        assert out.splitlines() == ["i,l,dim", "0,,6", "1,,3", "2,,0"]

    # a supplied h1 that contradicts the one the degree forces is refused
    @pytest.mark.parametrize("degree, h1, message", [
        ("7", "3", "degree 7 > 2g-2 forces h1 = 0, got 3"),
        ("-1", "0", "degree -1 < 0 forces h1 = 2, got 0"),
    ], ids=["above-2g-2", "negative"])
    def test_line_bundle_forced_h1_contradicted(self, degree, h1, message):
        argv = ["coh-line", "--family", "N", "--points", "2", "--genus", "2",
                "--degree", degree, "--h1-of-L", h1]
        assert invoke(argv) == (2, "", f"error: domain: {message}\n")


class TestTangentCommands:
    def test_tangent_cone_json(self):
        code, out, _ = invoke(
            ["tangent-cone", "--genus", "0", "--degree", "4", "--order", "1",
             "--stratum", "0", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["base"] == {"genus": 0, "degree": 2, "order": 0}
        assert payload["multiplicity"] == "2"

    def test_smooth_point_base_is_null(self):
        code, out, _ = invoke(
            ["tangent-cone", "--genus", "2", "--degree", "9", "--order", "1",
             "--stratum", "1", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["base"] is None
        assert payload["multiplicity"] == "1"

    def test_stratum_out_of_range(self):
        code, _, err = invoke(
            ["tangent-cone", "--genus", "2", "--degree", "9", "--order", "1", "--stratum", "5"]
        )
        assert code == 2
        assert err.startswith("error: stratum:")

    def test_cone_negative_vertex_count(self):
        code, _, err = invoke(
            ["cone", "--genus", "0", "--degree", "4", "--order", "1", "--vertex-count", "-1"]
        )
        assert code == 2
        assert err.startswith("error: domain:")


class TestSweep:
    def test_cells_sorted_and_skips_logged(self):
        code, out, err = invoke(
            ["sweep", "--genus-range", "0:1", "--degree-range", "3:5",
             "--order-range", "0:1", "--invariant", "degree", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        keys = [(c["genus"], c["degree"], c["order"]) for c in payload["cells"]]
        assert keys == sorted(keys)
        assert (1, 3, 1) not in keys
        assert "skip: genus 1 degree 3 order 1" in err

    def test_generator_sweep_skips_boundary(self):
        code, out, err = invoke(
            ["sweep", "--genus-range", "0:0", "--degree-range", "3:4",
             "--order-range", "1:1", "--invariant", "generators", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines() == ["genus,degree,order,value", "0,4,1,1"]
        assert "skip: genus 0 degree 3 order 1" in err

    def test_empty_grid_is_an_error(self):
        code, _, err = invoke(
            ["sweep", "--genus-range", "3:3", "--degree-range", "3:4",
             "--order-range", "2:2", "--invariant", "degree"]
        )
        assert code == 2
        assert "error: domain:" in err

    def test_hilbert_sweep_uses_twist(self):
        code, out, _ = invoke(
            ["sweep", "--genus-range", "0:0", "--degree-range", "4:4",
             "--order-range", "1:1", "--invariant", "hilbert", "--twist", "3",
             "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines()[1] == "0,4,1,34"

    def test_hilbert_sweep_refuses_negative_twist(self):
        # refused once for the twist, not cell by cell as an empty grid
        argv = ["sweep", "--genus-range", "0", "--degree-range", "5",
                "--order-range", "0:1", "--invariant", "hilbert", "--twist", "-1"]
        assert invoke(argv) == (
            2, "", "error: domain: twist -1 must be nonnegative for --invariant hilbert\n"
        )

    def test_bad_range_syntax_exit_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "secantinv.cli", "sweep",
             "--genus-range", "2:1", "--degree-range", "3:4",
             "--order-range", "0:0", "--invariant", "degree"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2

    def test_single_value_ranges(self):
        code, out, _ = invoke(
            ["sweep", "--genus-range", "2", "--degree-range", "9",
             "--order-range", "1", "--invariant", "degree", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines() == ["genus,degree,order,value", "2,9,1,26"]


# the longest int argparse accepts, past which str() refuses to print
NINES = "9" * 4300
HALF_NINES = str((int(NINES) - 1) // 2)


class TestAdmissionLimits:
    @pytest.mark.parametrize("argv, message", [
        (["degree", "--genus", "0", "--degree", "1000", "--order", "201"],
         "order 201 exceeds the maximum order 200"),
        (["coh-line", "--family", "N", "--points", "1000000000", "--genus", "2", "--degree", "7"],
         "points 1000000000 exceeds the maximum 1000"),
        (["coh-wedge", "--genus", "2", "--points", "1001", "--twist", "1",
          "--degree-of-L", "7", "--degree-of-M", "0", "--h1-of-M", "2"],
         "points 1001 exceeds the maximum 1000"),
        (["sweep", "--genus-range", "0:100", "--degree-range", "1:100", "--order-range", "0",
          "--invariant", "degree"],
         "sweep grid has 10100 cells, more than the maximum 10000"),
        (["sweep", "--genus-range", "0:10000000000000000000", "--degree-range", "1:2",
          "--order-range", "0", "--invariant", "degree"],
         "sweep grid has 20000000000000000002 cells, more than the maximum 10000"),
        (["sweep", "--genus-range", "0", "--degree-range", "1:10", "--order-range", "0:201",
          "--invariant", "degree"],
         "order 201 exceeds the maximum order 200"),
        # a larger twist overflowed Python's int-to-str digit limit while
        # rendering, and printed a traceback
        (["coh-sym", "--genus", "0", "--degree", "20", "--order", "8", "--twist", str(10**300)],
         f"twist {10**300} exceeds the maximum 1000000"),
        (["coh-canonical", "--genus", "1", "--degree", "22", "--order", "8",
          "--twist", str(10**300)],
         f"twist {10**300} exceeds the maximum 1000000"),
        (["sweep", "--genus-range", "0", "--degree-range", "20", "--order-range", "8",
          "--invariant", "hilbert", "--twist", str(10**300)],
         f"twist {10**300} exceeds the maximum 1000000"),
        # a bundle with more sections overflowed the same limit while
        # rendering, and printed a traceback
        (["coh-line", "--family", "N", "--points", "1000", "--genus", "2", "--degree", "1000000000"],
         "h0 of L exceeds the maximum 1000000"),
        (["coh-wedge", "--genus", "2", "--points", "3", "--twist", "3",
          "--degree-of-L", str(10**1500), "--degree-of-M", "3"],
         "h0 of L exceeds the maximum 1000000"),
        (["coh-line", "--family", "T", "--points", "3", "--genus", "2", "--degree", "-1000000"],
         "h1 of L exceeds the maximum 1000000"),
        (["coh-wedge", "--genus", "2", "--points", "3", "--twist", "1",
          "--degree-of-L", "7", "--degree-of-M", "-1000000"],
         "h1 of M exceeds the maximum 1000000"),
        (["coh-wedge", "--genus", "2", "--points", "3", "--twist", "1",
          "--degree-of-L", "600000", "--degree-of-M", "600000"],
         "h0 of LM exceeds the maximum 1000000"),
        (["cone", "--genus", "0", "--degree", "4", "--order", "1", "--vertex-count", "1000001"],
         "vertex_count 1000001 exceeds the maximum 1000000"),
        # each of these printed a traceback: an output, or an integer that a
        # message derived, had more than 4,300 digits
        pytest.param(["degree", "--genus", NINES, "--degree", "1", "--order", "0"],
                     f"genus {NINES} exceeds the maximum 1000000", id="degree-huge-genus"),
        pytest.param(["generators", "--genus", HALF_NINES, "--degree", NINES, "--order", "0"],
                     f"genus {HALF_NINES} exceeds the maximum 1000000",
                     id="generators-huge-genus-and-degree"),
        pytest.param(["degree", "--genus", "0", "--degree", str(10**30), "--order", "200"],
                     f"degree {10**30} exceeds the maximum 1000000000", id="degree-10**30"),
        pytest.param(["degree", "--genus", str(10**25), "--degree", str(2 * 10**25 + 401),
                      "--order", "200"],
                     f"genus {10**25} exceeds the maximum 1000000", id="degree-genus-10**25"),
        pytest.param(["coh-line", "--family", "N", "--points", "1", "--genus", NINES,
                      "--degree", f"-{NINES}", "--h1-of-L", "0"],
                     f"genus {NINES} exceeds the maximum 1000000", id="coh-line-forced-h1"),
        pytest.param(["coh-line", "--family", "N", "--points", "1", "--genus", NINES,
                      "--degree", "5", "--h1-of-L", f"-{NINES}"],
                     f"genus {NINES} exceeds the maximum 1000000", id="coh-line-h0-sign"),
        pytest.param(["coh-line", "--family", "N", "--points", "1", "--genus", "2",
                      "--degree", f"-{NINES}", "--h1-of-L", "0"],
                     "degree has more than 4000 digits", id="coh-line-huge-degree"),
        pytest.param(["coh-line", "--family", "N", "--points", "1", "--genus", "4",
                      "--degree", "0", "--h1-of-L", f"-{NINES}"],
                     "h1 has more than 4000 digits", id="coh-line-huge-h1"),
        pytest.param(["coh-line", "--family", "N", "--points", "1", "--genus", NINES,
                      "--degree", "5"],
                     f"genus {NINES} exceeds the maximum 1000000", id="coh-line-special-range"),
        pytest.param(["coh-wedge", "--genus", "2", "--points", "2", "--twist", "1",
                      "--degree-of-L", NINES, "--degree-of-M", NINES, "--h1-of-LM", "1"],
                     "degree has more than 4000 digits", id="coh-wedge-product-degree"),
        # the largest bundle degree the class admits; its h0 is then refused
        pytest.param(["coh-line", "--family", "N", "--points", "1", "--genus", "2",
                      "--degree", str(10**4000 - 1)],
                     "h0 of L exceeds the maximum 1000000", id="coh-line-largest-bundle-degree"),
        pytest.param(["sweep", "--genus-range", "0", "--degree-range", "20", "--order-range",
                      NINES, "--invariant", "degree"],
                     f"order {NINES} exceeds the maximum order 200", id="sweep-longest-order"),
        pytest.param(["sweep", "--genus-range", "0", "--degree-range", "20", "--order-range", "8",
                      "--invariant", "hilbert", "--twist", f"-{NINES}"],
                     f"twist -{NINES} must be nonnegative for --invariant hilbert",
                     id="sweep-longest-negative-twist"),
        pytest.param(["sweep", "--genus-range", f"0:{NINES[1:]}", "--degree-range", "20",
                      "--order-range", "0", "--invariant", "degree"],
                     f"sweep grid has {10**4299} cells, more than the maximum 10000",
                     id="sweep-longest-cell-count"),
        # a traceback: the count of a grid this wide has more than 4,300 digits
        pytest.param(["sweep", f"--genus-range=-{NINES}:{NINES}", "--degree-range", "20",
                      "--order-range", "0", "--invariant", "degree"],
                     "sweep grid cell count has more than 4000 digits",
                     id="sweep-unprintable-cell-count"),
    ])
    def test_rejected_before_any_work(self, argv, message):
        assert invoke(argv) == (2, "", f"error: domain: {message}\n")

    def test_vertex_count_past_the_int_to_str_limit(self):
        # the longest int argparse accepts; the cone's Krull dimension 2k+2+m
        # then had 4,301 digits, and rendering it printed a traceback
        nines = "9" * 4300
        code, out, err = invoke(["cone", "--genus", "0", "--degree", "4", "--order", "1",
                                 "--vertex-count", nines])
        assert (code, out) == (2, "")
        assert err == f"error: domain: vertex_count {nines} exceeds the maximum 1000000\n"

    def test_sweep_twist_past_the_int_to_str_limit(self):
        # argparse refuses such an int, so the handler gets it directly
        args = build_parser().parse_args(["sweep", "--genus-range", "0", "--degree-range", "20",
                                          "--order-range", "8", "--invariant", "hilbert"])
        for twist in (10**4300, -10**4300):
            args.twist = twist
            with pytest.raises(DomainError, match="^twist has more than 4000 digits$"):
                _COMMANDS["sweep"][2](args)

    def test_largest_admitted_vertex_count(self):
        code, out, err = invoke(["cone", "--genus", "0", "--degree", "4", "--order", "1",
                                 "--vertex-count", "1000000", "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["series"]["krull_dim"] == 1000004

    def test_largest_admitted_genus_and_degree(self):
        argv = ["degree", "--genus", "1000000", "--degree", "1000000000", "--order", "0"]
        assert invoke(argv) == (0, "1000000000\n", "")

    def test_largest_admitted_order(self):
        code, out, err = invoke(["degree", "--genus", "0", "--degree", "1000", "--order", "200"])
        assert (code, out, err) == (0, f"{comb(800, 201)}\n", "")

    # admitted requests near a limit, each in one fresh process as a user
    # runs it.  The sparse wedge table is one convolution of its two factor
    # lists, and its whole process takes about 0.15 s; filled entry by entry
    # with coh_wedge_secant_sheaf, the table alone took 1.3 s (2-core x86-64).
    # The documents at order 200 are pinned in _PINNED_JSON below.
    @pytest.mark.parametrize("argv, lines, seconds", [
        pytest.param("coh-wedge --genus 2 --points 1000 --twist 500 --degree-of-L 999998"
                     " --degree-of-M 3 --format csv", 1002, 1, id="sparse-wedge"),
        pytest.param("series --genus 5 --degree 1000 --order 200 --format json", 408, 10,
                     id="series-top-order"),
        pytest.param("tangent-cone --genus 5 --degree 1000 --order 200 --stratum 0"
                     " --format json", 423, 10, id="tangent-cone-top-order"),
    ])
    def test_admitted_corner_in_a_fresh_process(self, argv, lines, seconds):
        result = subprocess.run([sys.executable, "-m", "secantinv.cli", *argv.split()],
                                capture_output=True, text=True, timeout=seconds)
        assert (result.returncode, result.stderr) == (0, "")
        assert len(result.stdout.splitlines()) == lines

    @pytest.mark.parametrize("argv", [
        ["coh-sym", "--genus", "0", "--degree", "20", "--order", "8"],
        ["coh-canonical", "--genus", "1", "--degree", "22", "--order", "8"],
        ["sweep", "--genus-range", "0", "--degree-range", "20", "--order-range", "8",
         "--invariant", "hilbert"],
    ], ids=lambda argv: argv[0])
    def test_largest_admitted_twist(self, argv):
        code, out, err = invoke([*argv, "--twist", "1000000"])
        assert (code, err) == (0, "")
        assert out

    # h0 or h1 at the maximum, away from and inside the special range 0..2g-2
    @pytest.mark.parametrize("argv", [
        ["coh-line", "--family", "N", "--points", "1000", "--genus", "2", "--degree", "1000001"],
        ["coh-line", "--family", "T", "--points", "1000", "--genus", "1000000",
         "--degree", "999999", "--h1-of-L", "1000000"],
        ["coh-wedge", "--genus", "2", "--points", "3", "--twist", "2",
         "--degree-of-L", "999998", "--degree-of-M", "3"],
    ], ids=["coh-line-N", "coh-line-T-special", "coh-wedge"])
    def test_largest_admitted_sections(self, argv):
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert out


class TestOutputPlumbing:
    def test_determinism_byte_identical(self):
        argv = ["coh-sym", "--genus", "1", "--degree", "7", "--order", "2",
                "--twist", "2", "--format", "json"]
        assert invoke(argv) == invoke(argv)

    def test_out_file_matches_stdout(self, tmp_path):
        argv = ["hilbert", "--genus", "2", "--degree", "9", "--order", "1",
                "--format", "json"]
        _, stdout_text, _ = invoke(argv)
        path = tmp_path / "chi.json"
        code, out, _ = invoke(argv + ["--out", str(path)])
        assert code == 0
        assert out == ""
        assert path.read_text(encoding="utf-8") == stdout_text

    def test_format_equivalence_table(self):
        base = ["coh-sym", "--genus", "2", "--degree", "9", "--order", "1", "--twist", "2"]
        _, json_out, _ = invoke(base + ["--format", "json"])
        _, csv_out, _ = invoke(base + ["--format", "csv"])
        payload = json.loads(json_out)
        json_cells = {
            (str(e["i"]), str(e["l"]), e["dim"]) for e in payload["entries"]
        }
        lines = csv_out.strip().splitlines()
        assert lines[0] == "i,l,dim"
        csv_cells = {tuple(line.split(",")) for line in lines[1:]}
        assert json_cells == csv_cells

    def test_unknown_flag_rejected_exit_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "secantinv.cli", "hilbert", "--genus", "0",
             "--degree", "4", "--order", "1", "--frobnicate"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2

    def test_unknown_command_rejected_exit_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "secantinv.cli", "frobnicate"],
            capture_output=True, text=True,
        )
        assert result.returncode == 2

    def test_json_reparses_to_same_polynomial(self):
        for g, d, k in [(0, 4, 1), (2, 9, 1), (1, 9, 2)]:
            code, out, _ = invoke(
                ["hilbert", "--genus", str(g), "--degree", str(d), "--order", str(k),
                 "--format", "json"]
            )
            assert code == 0
            payload = json.loads(out)
            assert QPolynomial.from_strings(payload["coefficients"]) == hilbert_polynomial(
                SecantInstance(g, d, k)
            )


class TestSharedParser:
    @pytest.mark.parametrize("argv", [["--help"], ["hilbert", "--help"], ["degree", "--help"]])
    def test_help_goes_to_run_stdout(self, capsys, argv):
        code, out, err = invoke(argv)
        assert code == 0
        assert out.startswith(" ".join(["usage: secantinv", *argv[:-1]]))
        assert err == ""
        assert capsys.readouterr() == ("", "")

    def test_no_state_carries_between_runs(self):
        import secantinv.cli as cli

        wedge = ["coh-wedge", "--genus", "2", "--points", "2", "--twist", "1",
                 "--degree-of-L", "1", "--degree-of-M", "0", "--h1-of-M", "2",
                 "--h1-of-LM", "1"]
        assert invoke(wedge + ["--h1-of-L", "1"])[0] == 0
        reused = invoke(wedge)
        cli._build_parser.cache_clear()
        assert reused == invoke(wedge)
        assert reused[0] == 2 and reused[2].startswith("error: ambiguous-bundle:")

    # sha256 of ``--help`` and then every ``<command> --help``, in the order
    # the commands are listed, laid out for 80 columns at any terminal width;
    # argparse words help differently from 3.13 on, and that digest is pinned
    # by its first eight hex digits
    HELP_DIGEST = ("c5c755dc286b0a0a043bf549966012b7c89da096b02b409dcf8d87031167a1d5"
                   if sys.version_info < (3, 13) else "2e5a0aeb")

    @pytest.mark.parametrize("columns", ["40", "80", "200"])
    def test_help_text_is_pinned(self, monkeypatch, columns):
        monkeypatch.setenv("COLUMNS", columns)
        texts = []
        for argv in [["--help"], *([name, "--help"] for name in _COMMANDS)]:
            code, out, err = invoke(argv)
            assert (code, err) == (0, ""), argv
            texts.append(out)
        assert hashlib.sha256("".join(texts).encode()).hexdigest().startswith(self.HELP_DIGEST)


# one valid command line per command, as (option, value) pairs
_DISPATCH_BASES = {
    "hilbert": "--genus 2 --degree 9 --order 1",
    "series": "--genus 2 --degree 9 --order 1",
    "degree": "--genus 2 --degree 9 --order 1",
    "generators": "--genus 2 --degree 9 --order 1",
    "coh-sym": "--genus 2 --degree 9 --order 1 --twist 2",
    "coh-wedge": "--genus 1 --points 2 --twist 1 --degree-of-L 5 --degree-of-M 4 --h1-of-LM 0",
    "coh-canonical": "--genus 2 --degree 9 --order 1 --twist 2",
    "coh-line": "--family N --points 3 --genus 2 --degree 5 --h1-of-L 0",
    "tangent-cone": "--genus 0 --degree 6 --order 2 --stratum 0",
    "cone": "--genus 0 --degree 4 --order 1 --vertex-count 2",
    "sweep": "--genus-range 0:1 --degree-range 4:5 --order-range 0:1 --invariant hilbert --twist 2",
    "validate": "--format csv",
}


def _edge_lines(command):
    """Edge command lines for ``command``: help, abbreviations, ``--``, extra
    words, a bad or missing value, and each option dropped, left without its
    value, given a bad value, joined to its value by ``=``, or abbreviated."""
    words = _DISPATCH_BASES[command].split()
    lines = [
        [], words, ["-h"], words + ["--help"], ["--he"], words + ["--he"], ["--gen", "2"] + words,
        ["--"], words + ["--"], ["--"] + words, words + ["--", "extra"], words + ["extra"],
        words + ["--format", "xml"], words + ["--format"], words + ["--format=json"],
        words + ["--form", "latex"], words + ["--format", "--out"], words + ["--frobnicate"],
    ]
    for i in range(0, len(words), 2):
        option, value, rest = words[i], words[i + 1], words[:i] + words[i + 2:]
        lines += [rest, rest + [option], rest + [option, "x"], rest + [option, "-1"],
                  rest + [f"{option}={value}"], rest + [f"{option}="], rest + [option[:5], value]]
    return [[command, *line] for line in lines]


def _parse_outcome(parse, argv):
    """What a parse function gives for ``argv``: its namespace, usage
    message or help text."""
    try:
        return "namespace", vars(parse(list(argv)))
    except UsageError as exc:
        return "usage", str(exc)
    except _HelpRequested as request:
        return "help", request.args[0]


# values a drawn line gives an option: a sign, a space, an underscore, a
# non-ASCII digit, nothing, a dash word, the longest int and one past it, a
# bad range, a choice of another option and a choice of none
_VALUE_POOL = ("-1", "+3", " 3", "3_000", "\u0663", "", "-x", "--", "9" * 4300, "9" * 4301,
               "-" + "9" * 4300, "2:1", "N", "xml")


@st.composite
def _drawn_lines(draw, command):
    """A line for ``command``: the options of its base line and up to two
    of the command's other options but help, permuted, each dropped, kept
    or given twice, with the base's value or, for one in six and for every
    option the base lacks, a value from the pool."""
    words = _DISPATCH_BASES[command].split()
    own = dict(zip(words[::2], words[1::2]))
    others = sorted(flag for flag in _COMMANDS[command][1] if flag not in own)
    line = [command]
    for flag in draw(st.permutations([*own, *draw(st.lists(st.sampled_from(others), max_size=2))])):
        for _ in range(draw(st.sampled_from((1, 1, 1, 1, 1, 1, 0, 2)))):
            pooled = flag not in own or not draw(st.integers(0, 5))
            line += [flag, draw(st.sampled_from(_VALUE_POOL)) if pooled else own[flag]]
    return line


class TestDirectDispatch:
    """A command line that starts with a command name is read from the
    command table, or parsed by argparse; either way it must give what the
    top-level parser gives."""

    def test_every_command_has_a_base(self):
        assert set(_DISPATCH_BASES) == set(_COMMANDS)

    @pytest.mark.parametrize("command", sorted(_DISPATCH_BASES))
    def test_same_outcome_as_the_top_level_parser(self, command):
        kinds = set()
        for argv in _edge_lines(command):
            outcome = _parse_outcome(_parse, argv)
            assert outcome == _parse_outcome(build_parser().parse_args, argv), argv
            kinds.add(outcome[0])
        assert kinds == {"namespace", "usage", "help"}

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["--help"], ["--he"], ["frobnicate"], ["degre"], ["Degree"], ["--"],
        ["--", "degree", "--genus", "2", "--degree", "9", "--order", "1"],
        ["--format", "json", "degree"], ["-h", "degree"], ["--genus", "2", "degree"],
    ])
    def test_lines_naming_no_command_go_to_the_top_level_parser(self, argv):
        outcome = _parse_outcome(_parse, argv)
        assert outcome == _parse_outcome(build_parser().parse_args, argv)
        assert outcome[0] in ("usage", "help")

    def test_a_leading_double_dash_is_refused_on_every_interpreter(self):
        # as argparse words it up to 3.13.0, the commands in the table's order
        code, out, err = invoke(["--", "degree", "--genus", "2", "--degree", "9", "--order", "1"])
        assert (code, out) == (2, "")
        assert err == ("error: usage: argument command: invalid choice: '--' (choose from "
                       "'hilbert', 'series', 'degree', 'generators', 'coh-sym', 'coh-wedge', "
                       "'coh-canonical', 'coh-line', 'tangent-cone', 'cone', 'sweep', 'validate')\n")

    @pytest.mark.parametrize("command", sorted(_DISPATCH_BASES))
    def test_drawn_lines_agree_with_the_top_level_parser(self, command):
        direct = []

        @settings(derandomize=True, database=None, max_examples=150, deadline=None)
        @given(_drawn_lines(command))
        def agree(argv):
            outcome = _parse_outcome(_parse, argv)
            assert outcome == _parse_outcome(build_parser().parse_args, argv), argv
            direct.append(_read(argv) is not None)

        agree()
        assert any(direct) and not all(direct)  # the draws reach both paths


class TestErrorTaxonomy:
    def test_internal_consistency_failures_exit_3(self, monkeypatch):
        import secantinv.cli as cli_mod
        from secantinv import InternalMismatch

        def broken(args):
            raise InternalMismatch("forced disagreement")

        help_text, options, _ = cli_mod._COMMANDS["degree"]
        monkeypatch.setitem(cli_mod._COMMANDS, "degree", (help_text, options, broken))
        code, out, err = invoke(["degree", "--genus", "0", "--degree", "4", "--order", "1"])
        assert code == 3
        assert out == ""
        assert err == "error: internal-mismatch: forced disagreement\n"


class TestGuardCount:
    """What the benchmark's traced check reads of the engine: every chi build
    runs the dual-route guard, one interpolation, and the two cache clears
    empty every engine cache."""

    REQUESTS = [
        ["series", "--genus", "3", "--degree", "40", "--order", "4"],
        ["degree", "--genus", "2", "--degree", "9", "--order", "1"],
        ["generators", "--genus", "5", "--degree", "35", "--order", "3", "--format", "json"],
        ["coh-sym", "--genus", "3", "--degree", "40", "--order", "5", "--twist", "7"],
        ["tangent-cone", "--genus", "2", "--degree", "30", "--order", "4", "--stratum", "1"],
        ["series", "--genus", "3", "--degree", "40", "--order", "4", "--format", "csv"],
    ]

    def test_interpolations_equal_chi_builds(self, monkeypatch):
        import secantinv.secant_core as core

        core._chi.cache_clear()
        core._node_table.cache_clear()
        interpolations = 0
        real = core.lagrange_interpolate

        def counting(nodes):
            nonlocal interpolations
            interpolations += 1
            return real(nodes)

        monkeypatch.setattr(core, "lagrange_interpolate", counting)
        for argv in self.REQUESTS:
            assert invoke(argv)[0] == 0, argv
        builds = core._chi.cache_info().currsize
        # coh-sym builds chi at orders 5, 3 and 2, as the first request built
        # order 4; tangent-cone builds that of its base; the repeat builds none
        assert builds == 7
        assert interpolations == builds

        inst = SecantInstance(3, 40, 4)
        kept = hilbert_series(inst)
        core._chi.cache_clear()
        core._node_table.cache_clear()
        assert core._chi.cache_info().currsize == core._node_table.cache_info().currsize == 0
        rebuilt = hilbert_series(inst)
        assert rebuilt is not kept and rebuilt == kept
        assert interpolations == builds + 1 == builds + core._chi.cache_info().currsize


class TestValidateCommand:
    def test_validate_passes(self):
        code, out, _ = invoke(["validate"])
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert "0 failed" in lines[-1]

    def test_validate_json(self):
        code, out, _ = invoke(["validate", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["failed"] == 0
        assert all(check["status"] == "PASS" for check in payload["checks"])

    def test_validate_out_file(self, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = invoke(["validate", "--format", "json", "--out", str(path)])
        assert code == 0
        assert out == ""
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["failed"] == 0

    def test_run_catalogue_reports_a_failed_check(self, monkeypatch):
        from secantinv import validation

        def failing():
            raise AssertionError("expected 1, got 2")

        monkeypatch.setattr(validation, "CATALOGUE", [("x/passes", lambda: "note"),
                                                      ("x/fails", failing)])
        results = validation.run_catalogue()
        assert [(r.name, r.passed, r.detail) for r in results] == [
            ("x/passes", True, "note"), ("x/fails", False, "expected 1, got 2")]

    def test_help_exits_zero(self):
        result = subprocess.run(
            [sys.executable, "-m", "secantinv.cli", "--help"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "hilbert" in result.stdout


# Two fixed catalogue results stand in for ``run_catalogue`` below, so that
# the validate report's bytes are reproducible; the second fails and carries
# LaTeX specials in its detail.
_STUB_CHECKS = [
    CheckResult("exactmath/pascal-grid", True, 0.0123, ""),
    CheckResult("cli/determinism", False, 1.5, "x_1 & {y}"),
]

_PINNED = [
    pytest.param(
        "coh-sym --genus 1 --degree 7 --order 1 --twist 2 --format text", 0,
        "family SymE\ngenus = 1\ndegree = 7\norder = 1\ntwist = 2\n"
        "i  l  dim\n0  2  28\n1  2  14\n2  2  0\n", "",
        id="coh-sym-text"),
    pytest.param(
        "coh-sym --genus 1 --degree 7 --order 1 --twist 2 --format latex", 0,
        "\\begin{tabular}{rrr}\ni & \\ell & h^i \\\\\n0 & 2 & 28 \\\\\n"
        "1 & 2 & 14 \\\\\n2 & 2 & 0 \\\\\n\\end{tabular}\n", "",
        id="coh-sym-latex"),
    pytest.param(
        "tangent-cone --genus 0 --degree 6 --order 2 --stratum 0 --format text", 0,
        "ambient.degree = 6\nambient.genus = 0\nambient.order = 2\n"
        "base.degree = 4\nbase.genus = 0\nbase.order = 1\nbase_is_fano = true\n"
        "cone_proj_dim = 4\nmultiplicity = 3\nseries.krull_dim = 5\n"
        "series.numerator[0] = 1\nseries.numerator[1] = 1\nseries.numerator[2] = 1\n"
        "stratum = 0\nvertex_proj_dim = 0\n", "",
        id="tangent-cone-text"),
    pytest.param(
        "tangent-cone --genus 0 --degree 6 --order 2 --stratum 0 --format latex", 0,
        "\\begin{tabular}{ll}\nambient.degree & 6 \\\\\nambient.genus & 0 \\\\\n"
        "ambient.order & 2 \\\\\nbase.degree & 4 \\\\\nbase.genus & 0 \\\\\n"
        "base.order & 1 \\\\\nbase\\_is\\_fano & true \\\\\ncone\\_proj\\_dim & 4 \\\\\n"
        "multiplicity & 3 \\\\\nseries.krull\\_dim & 5 \\\\\n"
        "series.numerator[0] & 1 \\\\\nseries.numerator[1] & 1 \\\\\n"
        "series.numerator[2] & 1 \\\\\nstratum & 0 \\\\\nvertex\\_proj\\_dim & 0 \\\\\n"
        "\\end{tabular}\n", "",
        id="tangent-cone-latex"),
    pytest.param(
        "tangent-cone --genus 2 --degree 9 --order 1 --stratum 1 --format text", 0,
        "ambient.degree = 9\nambient.genus = 2\nambient.order = 1\nbase = null\n"
        "base_is_fano = null\ncone_proj_dim = 2\nmultiplicity = 1\n"
        "series.krull_dim = 3\nseries.numerator[0] = 1\nstratum = 1\n"
        "vertex_proj_dim = 2\n", "",
        id="tangent-cone-smooth-text"),
    pytest.param(
        "cone --genus 0 --degree 4 --order 1 --vertex-count 2 --format text", 0,
        "instance.degree = 4\ninstance.genus = 0\ninstance.order = 1\n"
        "series.krull_dim = 6\nseries.numerator[0] = 1\nseries.numerator[1] = 1\n"
        "series.numerator[2] = 1\nvertex_count = 2\n", "",
        id="cone-text"),
    pytest.param(
        "cone --genus 0 --degree 4 --order 1 --vertex-count 2 --format latex", 0,
        "\\begin{tabular}{ll}\ninstance.degree & 4 \\\\\ninstance.genus & 0 \\\\\n"
        "instance.order & 1 \\\\\nseries.krull\\_dim & 6 \\\\\n"
        "series.numerator[0] & 1 \\\\\nseries.numerator[1] & 1 \\\\\n"
        "series.numerator[2] & 1 \\\\\nvertex\\_count & 2 \\\\\n\\end{tabular}\n", "",
        id="cone-latex"),
    pytest.param(
        "sweep --genus-range 0:1 --degree-range 4:5 --order-range 0:1"
        " --invariant degree --format text", 0,
        "  g    d   k  degree\n  0    4   0  4\n  0    4   1  3\n  0    5   0  5\n"
        "  0    5   1  6\n  1    4   0  4\n  1    5   0  5\n  1    5   1  5\n",
        "skip: genus 1 degree 4 order 1: degree 4 violates d >= 2g+2k+1 = 5\n",
        id="sweep-text"),
    pytest.param(
        "sweep --genus-range 0:1 --degree-range 4:5 --order-range 0:1"
        " --invariant degree --format latex", 0,
        "\\begin{tabular}{rrrr}\ng & d & k & value \\\\\n0 & 4 & 0 & 4 \\\\\n"
        "0 & 4 & 1 & 3 \\\\\n0 & 5 & 0 & 5 \\\\\n0 & 5 & 1 & 6 \\\\\n"
        "1 & 4 & 0 & 4 \\\\\n1 & 5 & 0 & 5 \\\\\n1 & 5 & 1 & 5 \\\\\n\\end{tabular}\n",
        "skip: genus 1 degree 4 order 1: degree 4 violates d >= 2g+2k+1 = 5\n",
        id="sweep-latex"),
    pytest.param(
        "sweep --genus-range 3:3 --degree-range 3:4 --order-range 2:2 --invariant degree", 2,
        "", "error: domain: sweep grid contains no valid instances\n",
        id="sweep-empty-grid"),
    pytest.param(
        "degree --genus 2 --degree 9 --order 1 --format csv", 0,
        "key,value\nvalue,26\n", "",
        id="degree-csv"),
    pytest.param(
        "degree --genus 2 --degree 9 --order 1 --format latex", 0, "26\n", "",
        id="degree-latex"),
    pytest.param(
        "series --genus 2 --degree 9 --order 1 --format csv", 0,
        "key,value\nnumerator[0],1\nnumerator[1],4\nnumerator[2],10\n"
        "numerator[3],8\nnumerator[4],3\nkrull_dim,4\n", "",
        id="series-csv"),
    pytest.param(
        "series --genus 2 --degree 9 --order 1 --format latex", 0,
        "\\frac{3 t^{4} + 8 t^{3} + 10 t^{2} + 4 t + 1}{(1 - t)^{4}}\n", "",
        id="series-latex"),
    pytest.param(
        "validate --format text", 1,
        "PASS  exactmath/pascal-grid                            0.012s\n"
        "FAIL  cli/determinism                                  1.500s  [x_1 & {y}]\n"
        "1 passed, 1 failed in 1.512s\n", "",
        id="validate-text"),
    pytest.param(
        "validate --format csv", 1,
        "name,status,seconds,detail\nexactmath/pascal-grid,PASS,0.012,\n"
        "cli/determinism,FAIL,1.500,x_1 & {y}\n", "",
        id="validate-csv"),
    pytest.param(
        "validate --format latex", 1,
        "\\begin{tabular}{llrl}\nname & status & seconds & detail \\\\\n"
        "exactmath/pascal-grid & PASS & 0.012 &  \\\\\n"
        "cli/determinism & FAIL & 1.500 & x\\_1 \\& \\{y\\} \\\\\n\\end{tabular}\n", "",
        id="validate-latex"),
    pytest.param(
        "hilbert --genus 2 --degree 9 --order 1 --format text", 0,
        "13/3*t^3 - 4*t^2 + 29/3*t - 2\n", "",
        id="hilbert-text"),
    pytest.param(
        "hilbert --genus 2 --degree 9 --order 1 --format csv", 0,
        "power,coefficient\n0,-2\n1,29/3\n2,-4\n3,13/3\n", "",
        id="hilbert-csv"),
    pytest.param(
        "hilbert --genus 2 --degree 9 --order 1 --format latex", 0,
        "\\frac{13}{3} t^{3} - 4 t^{2} + \\frac{29}{3} t - 2\n", "",
        id="hilbert-latex"),
    pytest.param(
        "series --genus 2 --degree 9 --order 1 --format text", 0,
        "numerator = 3*t^4 + 8*t^3 + 10*t^2 + 4*t + 1\nkrull_dim = 4\n", "",
        id="series-text"),
    pytest.param(
        "degree --genus 2 --degree 9 --order 1 --format text", 0,
        "26\n", "",
        id="degree-text"),
    pytest.param(
        "generators --genus 0 --degree 6 --order 1 --format text", 0,
        "10\n", "",
        id="generators-text"),
    pytest.param(
        "generators --genus 0 --degree 6 --order 1 --format csv", 0,
        "key,value\nvalue,10\n", "",
        id="generators-csv"),
    pytest.param(
        "generators --genus 0 --degree 6 --order 1 --format latex", 0,
        "10\n", "",
        id="generators-latex"),
    pytest.param(
        "coh-sym --genus 1 --degree 7 --order 1 --twist 0 --format csv", 0,
        "i,l,dim\n0,0,1\n1,0,1\n2,0,0\n", "",
        id="coh-sym-csv"),
    pytest.param(
        "coh-wedge --genus 1 --points 2 --twist 1 --degree-of-L 5 --degree-of-M 4"
        " --format text", 0,
        "family WedgeE\npoints = 2\ntwist = 1\ngenus = 1\nbundle_degree = 5\n"
        "bundle_h1 = 0\ntwisting_degree = 4\ntwisting_h1 = 0\ni  l  dim\n0  1  36\n"
        "1  1  0\n2  1  0\n", "",
        id="coh-wedge-text"),
    pytest.param(
        "coh-wedge --genus 1 --points 2 --twist 1 --degree-of-L 5 --degree-of-M 4"
        " --format csv", 0,
        "i,l,dim\n0,1,36\n1,1,0\n2,1,0\n", "",
        id="coh-wedge-csv"),
    pytest.param(
        "coh-wedge --genus 1 --points 2 --twist 1 --degree-of-L 5 --degree-of-M 4"
        " --format latex", 0,
        "\\begin{tabular}{rrr}\ni & \\ell & h^i \\\\\n0 & 1 & 36 \\\\\n1 & 1 & 0 \\\\\n"
        "2 & 1 & 0 \\\\\n\\end{tabular}\n", "",
        id="coh-wedge-latex"),
    pytest.param(
        "coh-canonical --genus 2 --degree 9 --order 1 --twist 1 --format text", 0,
        "family CanonicalSymE\ngenus = 2\ndegree = 9\norder = 1\ntwist = 1\ni  l  dim\n"
        "0  1  20\n1  1  10\n2  1  0\n", "",
        id="coh-canonical-text"),
    pytest.param(
        "coh-canonical --genus 2 --degree 9 --order 1 --twist 1 --format csv", 0,
        "i,l,dim\n0,1,20\n1,1,10\n2,1,0\n", "",
        id="coh-canonical-csv"),
    pytest.param(
        "coh-canonical --genus 2 --degree 9 --order 1 --twist 1 --format latex", 0,
        "\\begin{tabular}{rrr}\ni & \\ell & h^i \\\\\n0 & 1 & 20 \\\\\n1 & 1 & 10 \\\\\n"
        "2 & 1 & 0 \\\\\n\\end{tabular}\n", "",
        id="coh-canonical-latex"),
    pytest.param(
        "coh-line --family N --points 3 --genus 2 --degree 5 --format text", 0,
        "family N\npoints = 3\ngenus = 2\nbundle_degree = 5\nh0 = 4\nh1 = 0\ni  l  dim\n"
        "0  -  4\n1  -  0\n2  -  0\n3  -  0\n", "",
        id="coh-line-text"),
    pytest.param(
        "coh-line --family N --points 3 --genus 2 --degree 5 --format csv", 0,
        "i,l,dim\n0,,4\n1,,0\n2,,0\n3,,0\n", "",
        id="coh-line-csv"),
    pytest.param(
        "coh-line --family N --points 3 --genus 2 --degree 5 --format latex", 0,
        "\\begin{tabular}{rrr}\ni & \\ell & h^i \\\\\n0 & - & 4 \\\\\n1 & - & 0 \\\\\n"
        "2 & - & 0 \\\\\n3 & - & 0 \\\\\n\\end{tabular}\n", "",
        id="coh-line-latex"),
    pytest.param(
        "tangent-cone --genus 0 --degree 6 --order 2 --stratum 0 --format csv", 0,
        "key,value\nambient.degree,6\nambient.genus,0\nambient.order,2\nbase.degree,4\n"
        "base.genus,0\nbase.order,1\nbase_is_fano,true\ncone_proj_dim,4\nmultiplicity,3\n"
        "series.krull_dim,5\nseries.numerator[0],1\nseries.numerator[1],1\n"
        "series.numerator[2],1\nstratum,0\nvertex_proj_dim,0\n", "",
        id="tangent-cone-csv"),
    pytest.param(
        "cone --genus 0 --degree 4 --order 1 --vertex-count 2 --format csv", 0,
        "key,value\ninstance.degree,4\ninstance.genus,0\ninstance.order,1\n"
        "series.krull_dim,6\nseries.numerator[0],1\nseries.numerator[1],1\n"
        "series.numerator[2],1\nvertex_count,2\n", "",
        id="cone-csv"),
    pytest.param(
        "sweep --genus-range 0:1 --degree-range 4:5 --order-range 0:1"
        " --invariant degree --format csv", 0,
        "genus,degree,order,value\n0,4,0,4\n0,4,1,3\n0,5,0,5\n0,5,1,6\n1,4,0,4\n1,5,0,5\n"
        "1,5,1,5\n", "skip: genus 1 degree 4 order 1: degree 4 violates d >= 2g+2k+1 = 5\n",
        id="sweep-csv"),
    pytest.param(
        "degree --genus 2 --degree 9 --order 1 extra", 2,
        "", "error: usage: unrecognized arguments: extra\n",
        id="trailing-word"),
]


@pytest.mark.parametrize("argv, code, stdout, stderr", _PINNED)
def test_pinned_bytes(monkeypatch, argv, code, stdout, stderr):
    monkeypatch.setattr("secantinv.validation.run_catalogue", lambda: list(_STUB_CHECKS))
    assert invoke(argv.split()) == (code, stdout, stderr)


# One JSON document per layout, pinned by the sha256 of its bytes.
_PINNED_JSON = [
    pytest.param("degree --genus 2 --degree 9 --order 1 --format json", 0,
                 "5f1033ad1fc5cf2e69696fa8ecf9bd3c3e573ea1f02a6bf2dd9789994f52e96f",
                 id="degree-json"),
    pytest.param("hilbert --genus 2 --degree 9 --order 1 --format json", 0,
                 "01b57e5c65734c00a754455f0f9516726adecb83f67886f74971a912c7690852",
                 id="hilbert-json"),
    pytest.param("series --genus 2 --degree 9 --order 1 --format json", 0,
                 "51a154ad6600a05ed1a495ab8a0926e5452a81edf2d2b1c676f87cab0707d3e7",
                 id="series-json"),
    pytest.param("coh-line --family N --points 3 --genus 2 --degree 5 --format json", 0,
                 "7337f1c189fc0feb513ce0fffb661547059ea7fd5fb91c4ed0a7a9e74992817e",
                 id="coh-line-json"),
    pytest.param("tangent-cone --genus 2 --degree 9 --order 1 --stratum 1 --format json", 0,
                 "37f4e11cab3897c00d47fb7611715edc069778e12df51cdcf777f2d8e8eadac9",
                 id="tangent-cone-smooth-json"),
    # the tangent cone at strata 0, k/2, k-1 and k, and a cone with a plane vertex
    pytest.param("tangent-cone --genus 5 --degree 95 --order 40 --stratum 0 --format json", 0,
                 "086afe12bd481358c4ad6fd10b634072cbdfc1410bdb6e099675435aeece8262",
                 id="tangent-cone-s0-json"),
    pytest.param("tangent-cone --genus 5 --degree 95 --order 40 --stratum 20 --format json", 0,
                 "2404d2cf44d32f09f599e0f55a3688110f1bb563237606ce0e56e1ff8af8e322",
                 id="tangent-cone-s20-json"),
    pytest.param("tangent-cone --genus 5 --degree 95 --order 40 --stratum 39 --format json", 0,
                 "dbb1cc150c4857f904c4bbd8098350f47f6641f1584fdae5aacf1dffb825c82e",
                 id="tangent-cone-s39-json"),
    pytest.param("tangent-cone --genus 5 --degree 95 --order 40 --stratum 40 --format json", 0,
                 "ed8621bb41e385c6d8b97a57aad5840e2b60f671f9e2c88f0defa563399a960a",
                 id="tangent-cone-s40-json"),
    pytest.param("cone --genus 5 --degree 95 --order 40 --vertex-count 3 --format json", 0,
                 "e3b809ad7325c7f956c130ab41f11961405cbe8a20383c634d94011b5380390e",
                 id="cone-m3-json"),
    pytest.param("sweep --genus-range 0:0 --degree-range 4:4 --order-range 0:1"
                 " --invariant hilbert --twist 2 --format json", 0,
                 "5ab699156fd7fa5a4fd0fb13cd48eba3f7ef277e829189ef8ddcd21872b5f434",
                 id="sweep-hilbert-json"),
    # each (g, d) node table is read at every order 0..8, so its rows are shared and grown
    pytest.param("sweep --genus-range 3:4 --degree-range 25:30 --order-range 0:8"
                 " --invariant hilbert --twist 3 --format json", 0,
                 "3f3f2abe368856778331e874ff59e3b46397a321b61d78dfd61d07d27b8ed553",
                 id="sweep-shared-rows-json"),
    pytest.param("validate --format json", 1,
                 "8ad9cc1baaa797f419e5fe37d19de8e1021bbd387de48c258162db3458b14b29",
                 id="validate-json"),
    # the series at the top admitted order, and the tangent cone at its
    # stratum 0, whose base has order 199
    pytest.param("series --genus 5 --degree 1000 --order 200 --format json", 0,
                 "4eb918b342ddae5eaef48cb35f78f1ee124d1cb27152d3d49c8eea14b1ba6cdd",
                 id="series-top-order-json"),
    pytest.param("tangent-cone --genus 5 --degree 1000 --order 200 --stratum 0 --format json", 0,
                 "f03a62835b7ced9c0f1e9aa86a80f696be94ae5b28cf72702c02d8badd0be3a3",
                 id="tangent-cone-top-order-s0-json"),
]


@pytest.mark.parametrize("argv, code, digest", _PINNED_JSON)
def test_pinned_json_digests(monkeypatch, argv, code, digest):
    monkeypatch.setattr("secantinv.validation.run_catalogue", lambda: list(_STUB_CHECKS))
    rc, out, err = invoke(argv.split())
    assert (rc, hashlib.sha256(out.encode()).hexdigest(), err) == (code, digest, "")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", [
    "degree --genus 2 --degree 9 --order 1",
    "hilbert --genus 2 --degree 9 --order 1",
    "series --genus 2 --degree 9 --order 1",
    "coh-wedge --genus 1 --points 2 --twist 1 --degree-of-L 5 --degree-of-M 4",
    "coh-line --family N --points 3 --genus 2 --degree 5",
    "tangent-cone --genus 0 --degree 6 --order 2 --stratum 0",
    "sweep --genus-range 0:1 --degree-range 4:5 --order-range 0:1 --invariant hilbert",
    "validate",
], ids=["scalar", "polynomial", "series", "table", "table-no-twist", "record", "sweep",
        "validate"])
def test_every_format_is_a_view_of_the_json(monkeypatch, argv, fmt):
    """A document rebuilt from its own JSON output renders the same bytes in
    every format, so the layouts read nothing but JSON data."""
    monkeypatch.setattr("secantinv.validation.run_catalogue", lambda: list(_STUB_CHECKS))
    args = build_parser().parse_args(argv.split())
    document = _COMMANDS[args.command][2](args)
    rebuilt = Document(json.loads(document.render("json")), document.layout)
    assert rebuilt.render(fmt) == document.render(fmt)


_DEGREE_ARGV = ["degree", "--genus", "2", "--degree", "9", "--order", "1"]


class TestOneErrorLine:
    @pytest.mark.parametrize("argv", [
        ["hilbert", "--genus", "0", "--degree", "4", "--order", "1", "--frobnicate"],
        ["hilbert", "--genus", "x", "--degree", "4", "--order", "1"],
        ["sweep", "--genus-range", "2:1", "--degree-range", "3:4",
         "--order-range", "0:0", "--invariant", "degree"],
        ["frobnicate"],
    ], ids=["unknown-flag", "bad-int", "bad-range", "unknown-command"])
    def test_bad_command_line(self, capsys, argv):
        code, out, err = invoke(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: usage: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert capsys.readouterr() == ("", "")

    def test_out_into_missing_directory(self, tmp_path):
        path = tmp_path / "missing" / "x"
        code, out, err = invoke(
            ["degree", "--genus", "2", "--degree", "9", "--order", "1", "--out", str(path)]
        )
        assert code == 2
        assert out == ""
        assert err == f"error: usage: cannot write {path}: No such file or directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_out_onto_an_existing_directory(self, tmp_path):
        path = tmp_path / "taken"
        path.mkdir()
        code, out, err = invoke([*_DEGREE_ARGV, "--out", str(path)])
        assert (code, out) == (2, "")
        assert err == f"error: usage: cannot write {path}: Is a directory\n"
        assert list(tmp_path.iterdir()) == [path]
        assert list(path.iterdir()) == []

    def test_out_replaces_existing_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "degree.txt"
        path.write_text("stale and longer than the new document\n", encoding="utf-8")
        code, _, _ = invoke(
            ["degree", "--genus", "2", "--degree", "9", "--order", "1", "--out", str(path)]
        )
        assert code == 0
        assert path.read_text(encoding="utf-8") == "26\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_stdout_write_in_process(self):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        err = io.StringIO()
        code = run(["degree", "--genus", "2", "--degree", "9", "--order", "1"],
                   stdout=ClosedPipe(), stderr=err)
        assert (code, err.getvalue()) == (2, "error: usage: cannot write stdout: Broken pipe\n")

    @pytest.mark.parametrize("argv, unbuffered", [
        pytest.param(_DEGREE_ARGV, True, id="unbuffered"),
        pytest.param(_DEGREE_ARGV, False, id="buffered"),
        pytest.param(["--help"], True, id="help-unbuffered"),
        pytest.param(["--help"], False, id="help-buffered"),
        pytest.param(["hilbert", "--help"], True, id="hilbert-help-unbuffered"),
        pytest.param(["hilbert", "--help"], False, id="hilbert-help-buffered"),
    ])
    def test_stdout_pipe_with_no_reader(self, argv, unbuffered):
        """Buffered, the failure shows only when stdout is flushed; unbuffered,
        at the write.  Either way: one error line, exit 2, and nothing more at
        interpreter exit.  The help text takes the same path as a document."""
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the child starts, so its write fails every time
        try:
            result = subprocess.run(
                [sys.executable, "-m", "secantinv.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 2
        assert result.stderr == "error: usage: cannot write stdout: Broken pipe\n"
