import io
import json
import subprocess
import sys

import pytest

from secantinv import QPolynomial, SecantInstance, hilbert_polynomial, hilbert_series
from secantinv.cli import run
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
    @pytest.mark.parametrize("argv", [["--help"], ["hilbert", "--help"]])
    def test_help_goes_to_run_stdout(self, capsys, argv):
        code, out, err = invoke(argv)
        assert code == 0
        assert out.startswith("usage: secantinv")
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


class TestErrorTaxonomy:
    def test_internal_consistency_failures_exit_3(self, monkeypatch):
        import secantinv.cli as cli_mod
        from secantinv import InternalMismatch

        def broken(args):
            raise InternalMismatch("forced disagreement")

        monkeypatch.setitem(cli_mod._HANDLERS, "degree", broken)
        code, out, err = invoke(["degree", "--genus", "0", "--degree", "4", "--order", "1"])
        assert code == 3
        assert out == ""
        assert err == "error: internal-mismatch: forced disagreement\n"


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
]


@pytest.mark.parametrize("argv, code, stdout, stderr", _PINNED)
def test_pinned_bytes(monkeypatch, argv, code, stdout, stderr):
    monkeypatch.setattr("secantinv.validation.run_catalogue", lambda: list(_STUB_CHECKS))
    assert invoke(argv.split()) == (code, stdout, stderr)


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

    def test_out_replaces_existing_file_and_leaves_no_temporary(self, tmp_path):
        path = tmp_path / "degree.txt"
        path.write_text("stale and longer than the new document\n", encoding="utf-8")
        code, _, _ = invoke(
            ["degree", "--genus", "2", "--degree", "9", "--order", "1", "--out", str(path)]
        )
        assert code == 0
        assert path.read_text(encoding="utf-8") == "26\n"
        assert list(tmp_path.iterdir()) == [path]
