"""Self-validation catalogue: every module's invariants and golden values.

Each check is a named callable that raises AssertionError on failure and may
return a short observation string.  :func:`run_catalogue` times each check
and collects results; the CLI ``validate`` command renders them and turns
the outcome into an exit code.  Everything here is exact arithmetic on
fixed, deterministic sample grids.
"""

from __future__ import annotations

import io
import json
import math
import time
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, Optional

from .cohomology import (
    LineBundleClass,
    canonical_twist_table,
    coh_determinant_line,
    coh_descent_line,
    coh_sym_secant_sheaf,
    coh_wedge_secant_sheaf,
    sym_secant_table,
)
from .exactmath import (
    QPolynomial,
    _Frozen,
    binomial,
    binomial_poly,
    finite_difference_numerator,
    lagrange_interpolate,
)
from .secant_core import (
    SecantInstance,
    canonical_h0,
    generator_count,
    hilbert_function,
    hilbert_polynomial,
    hilbert_series,
    node_values,
    variety_degree,
)
from .tangent_geometry import cone_over_secant, multiplicity_along_stratum, tangent_cone_at

__all__ = ["CheckResult", "run_catalogue", "CATALOGUE"]


class CheckResult(_Frozen):
    name: str
    passed: bool
    seconds: float
    detail: str

    def __init__(self, name: str, passed: bool, seconds: float, detail: str = "") -> None:
        self.__dict__.update(name=name, passed=passed, seconds=seconds, detail=detail)


def _grid(max_genus: int, max_order: int, span: int) -> Iterator[SecantInstance]:
    for g in range(max_genus + 1):
        for k in range(max_order + 1):
            lo = 2 * g + 2 * k + 1
            for d in range(lo, lo + span):
                yield SecantInstance(g, d, k)


# --- exact arithmetic -------------------------------------------------------

def check_pascal_grid() -> Optional[str]:
    for n in range(-50, 51):
        for j in range(1, 51):
            assert binomial(n, j) == binomial(n - 1, j - 1) + binomial(n - 1, j), (n, j)
    return None


def check_binomial_poly_agreement() -> Optional[str]:
    for shift in range(-5, 6):
        for lower in range(0, 8):
            poly = binomial_poly(shift, lower)
            for t0 in range(-8, 9):
                assert poly(t0) == binomial(t0 + shift, lower), (shift, lower, t0)
    return None


def check_rational_normalization() -> Optional[str]:
    samples = [
        Fraction(3, 4) + Fraction(1, 4),
        Fraction(10, 4) * Fraction(2, 5),
        Fraction(-6, 8) - Fraction(1, 8),
        Fraction(7, -3) / Fraction(14, 9),
    ]
    for q in samples:
        assert q.denominator > 0
        assert math.gcd(abs(q.numerator), q.denominator) == 1
    return None


def check_lagrange_exactness() -> Optional[str]:
    node_sets = [
        [(0, 1)],
        [(0, 1), (1, 5)],
        [(-1, 0), (0, 1), (1, 5), (2, 15)],
        [(Fraction(-3, 2), Fraction(7, 5)), (0, -2), (Fraction(1, 3), 11), (4, 0)],
        [(i, Fraction((-1) ** i, i + 1)) for i in range(7)],
    ]
    for nodes in node_sets:
        poly = lagrange_interpolate(nodes)
        assert poly.degree <= len(nodes) - 1
        for x, y in nodes:
            assert poly(x) == Fraction(y), (nodes, x)
    return None


def check_series_inverse_expansion() -> Optional[str]:
    for inst in _grid(2, 2, 3):
        series = hilbert_series(inst)
        cutoff = inst.krull_dim + 2
        expanded = series.expand(cutoff + 1)
        for twist in range(cutoff + 1):
            assert expanded[twist] == hilbert_function(inst, twist), (inst, twist)
    return None


# --- Hilbert engine ---------------------------------------------------------

def check_riemann_roch_curve_case() -> Optional[str]:
    for g in range(11):
        for d in range(2 * g + 1, 2 * g + 21):
            chi = hilbert_polynomial(SecantInstance(g, d, 0))
            assert chi == QPolynomial([1 - g, d]), (g, d)
    return None


def order1_reference_polynomial(g: int, d: int) -> QPolynomial:
    """Independent four-term closed form for order 1 (the classical one,
    with the first term's sign fixed so that chi(-1) <= 0; verified against
    hypersurface and Riemann-Roch oracles in the test suite)."""
    t = QPolynomial.variable()
    one = QPolynomial.constant(1)
    term1 = Fraction(g * d + g * g - g, 6) * (t * (t - one) * (t - 2 * one))
    term2 = Fraction(-(g * g + g - 2), 4) * ((t + one) * (t - one) * (t - 2 * one))
    term3 = Fraction(-(d - g + 1), 2) * ((t + one) * t * (t - 2 * one))
    term4 = Fraction((d - g + 2) * (d - g + 1), 12) * ((t + one) * t * (t - one))
    return term1 + term2 + term3 + term4


def check_order1_reference_formula() -> Optional[str]:
    for g in range(7):
        for d in range(2 * g + 3, 2 * g + 21):
            computed = hilbert_polynomial(SecantInstance(g, d, 1))
            assert computed == order1_reference_polynomial(g, d), (g, d)
    return None


def check_projective_space_collapse() -> Optional[str]:
    for k in range(9):
        chi = hilbert_polynomial(SecantInstance(0, 2 * k + 1, k))
        assert chi == binomial_poly(2 * k + 1, 2 * k + 1), k
    return None


def check_closed_form_vs_interpolation() -> Optional[str]:
    count = 0
    for inst in _grid(5, 6, 15):
        # hilbert_polynomial computes both routes and compares internally;
        # re-derive the interpolant here so the agreement is checked in the
        # catalogue even if that internal guard changes
        chi = hilbert_polynomial(inst)
        interpolated = lagrange_interpolate(list(node_values(inst).items()))
        assert chi == interpolated, inst
        count += 1
    return f"{count} instances"


def check_negative_twist_alternating_sum() -> Optional[str]:
    for inst in _grid(5, 6, 15):
        g, d, k = inst.genus, inst.degree, inst.order
        for twist in range(-k, 0):
            total = Fraction(0)
            for i in range(k + 1):
                total += (
                    (-1) ** i
                    * binomial(g, i)
                    * hilbert_polynomial(SecantInstance(g, d, k - i))(twist)
                )
            assert total == 0, (inst, twist)
    return None


def check_node_consistency() -> Optional[str]:
    for inst in _grid(4, 4, 5):
        chi = hilbert_polynomial(inst)
        for twist, value in node_values(inst).items():
            assert chi(twist) == value, (inst, twist)
    return None


def check_degree_and_positivity() -> Optional[str]:
    for inst in _grid(4, 4, 5):
        chi = hilbert_polynomial(inst)
        assert chi.degree == 2 * inst.order + 1, inst
        assert chi.leading_coefficient > 0, inst
        assert variety_degree(inst) >= 1, inst
    return None


def check_dual_values_nonnegative() -> Optional[str]:
    for inst in _grid(4, 4, 5):
        chi = hilbert_polynomial(inst)
        assert -chi(0) == canonical_h0(inst) - 1, inst
        if inst.genus >= 1:
            assert -chi(0) >= 0, inst
        for twist in range(1, 2 * inst.order + 6):
            value = -chi(-twist)
            assert value.denominator == 1 and value >= 0, (inst, twist)
    return None


def check_catalecticant_battery() -> Optional[str]:
    inst = SecantInstance(0, 4, 1)
    assert variety_degree(inst) == 3
    assert generator_count(inst) == 1
    assert hilbert_series(inst).numerator == QPolynomial([1, 1, 1])
    assert multiplicity_along_stratum(inst, 0) == 2
    assert [hilbert_function(inst, n) for n in range(5)] == [1, 5, 15, 34, 65]
    return None


def check_twisted_cubic_generators() -> Optional[str]:
    assert generator_count(SecantInstance(0, 3, 0)) == 3
    return None


def check_series_sanity() -> Optional[str]:
    for inst in _grid(3, 3, 4):
        series = hilbert_series(inst)
        assert series.numerator.coefficient(0) == 1, inst
        assert series.degree() == variety_degree(inst), inst
        for c in series.numerator.coefficients:
            assert c.denominator == 1 and c >= 0, inst
        window = 2 * inst.order + 7
        assert series.expand(window) == [
            hilbert_function(inst, n) for n in range(window)
        ], inst
    return None


def check_series_tail_vanishes() -> Optional[str]:
    # recompute numerators from chi with a deeper cutoff: the Hilbert function
    # must agree with a degree-(2k+1) polynomial from twist 1 on, and give
    # the numerator that hilbert_series reads from the node values
    for inst in _grid(3, 3, 3):
        reference = finite_difference_numerator(partial(hilbert_function, inst),
                                                inst.krull_dim, inst.krull_dim + 5)
        assert reference == hilbert_series(inst).numerator, inst
    return None


# --- cohomology -------------------------------------------------------------

def check_wedge_collapse() -> Optional[str]:
    count = 0
    for g in range(5):
        for deg_l in range(2 * g + 1, 21, 4):
            for deg_m in range(2 * g + 1, 21, 4):
                bundle = LineBundleClass.nonspecial(g, deg_l)
                twisting = LineBundleClass.nonspecial(g, deg_m)
                product = LineBundleClass.nonspecial(g, deg_l + deg_m)
                for points in range(1, 6):
                    for i in range(points + 2):
                        left = coh_wedge_secant_sheaf(
                            points, points, bundle, twisting, min(i, points)
                        )
                        right = coh_determinant_line(points, product, min(i, points))
                        assert left == right, (g, deg_l, deg_m, points, i)
                        count += 1
    return f"{count} comparisons"


def check_kunneth_rank2() -> Optional[str]:
    for g in range(6):
        for d in range(2 * g + 3, 2 * g + 13):
            inst = SecantInstance(g, d, 1)
            structure = LineBundleClass.trivial(g)
            bundle = LineBundleClass.nonspecial(g, d)
            for i in range(3):
                direct = sum(
                    (structure.h0 if p == 0 else structure.h1 if p == 1 else 0)
                    * (bundle.h0 if q == 0 else bundle.h1 if q == 1 else 0)
                    for p in (0, 1)
                    for q in (0, 1)
                    if p + q == i
                )
                assert coh_sym_secant_sheaf(inst, 1, i) == direct, (g, d, i)
    return None


def check_coh_vanishing_ranges() -> Optional[str]:
    lb = LineBundleClass.nonspecial(3, 9)
    for m in (1, 2, 4):
        for i in (-2, -1, m + 1, m + 3):
            assert coh_determinant_line(m, lb, i) == 0
            assert coh_descent_line(m, lb, i) == 0
    for inst in _grid(3, 3, 2):
        for twist in (1, 2):
            assert coh_sym_secant_sheaf(inst, twist, inst.order + 1) == 0, inst
    return None


def check_coh_hilbert_consistency() -> Optional[str]:
    for inst in _grid(3, 3, 2):
        for twist in range(1, inst.order + 4):
            assert coh_sym_secant_sheaf(inst, twist, 0) == hilbert_function(
                inst, twist
            ), (inst, twist)
    return None


def check_sym_euler_difference() -> Optional[str]:
    for inst in _grid(3, 2, 2):
        k = inst.order
        euler = [
            sum(
                (-1) ** i * coh_sym_secant_sheaf(inst, twist, i)
                for i in range(k + 2)
            )
            for twist in range(1, 2 * k + 8)
        ]
        order = 2 * k + 2
        for n in range(order, len(euler)):
            diff = sum(
                (-1) ** j * binomial(order, j) * euler[n - j] for j in range(order + 1)
            )
            assert diff == 0, (inst, n)
    return None


def check_tables_deterministic_nonnegative() -> Optional[str]:
    for inst in [SecantInstance(2, 9, 1), SecantInstance(1, 9, 2)]:
        for twist in (1, 3):
            first = sym_secant_table(inst, twist)
            second = sym_secant_table(inst, twist)
            assert first == second
            assert all(e.dim >= 0 for e in first.entries)
            canonical = canonical_twist_table(inst, twist)
            assert all(e.dim >= 0 for e in canonical.entries)
            assert canonical == canonical_twist_table(inst, twist)
    return None


# --- tangent geometry -------------------------------------------------------

def check_tangent_dimension_bookkeeping() -> Optional[str]:
    for inst in _grid(3, 4, 3):
        for s in range(inst.order):
            desc = tangent_cone_at(inst, s)
            assert desc.base.variety_dim + desc.vertex_proj_dim + 1 == 2 * inst.order
    return None


def check_tangent_degree_compatibility() -> Optional[str]:
    # At genus 0 the base at stratum s is the order-(k-s-1) secant variety of
    # a rational normal curve of degree e = d-2s-2, of degree C(e-j, j+1) at
    # order j, so the multiplicity is C(d-s-k-1, k-s), which is 1 at s = k.
    for inst in _grid(0, 6, 8):
        d, k = inst.degree, inst.order
        for s in range(k + 1):
            closed_form = math.comb(d - s - k - 1, k - s)
            assert tangent_cone_at(inst, s).multiplicity == closed_form, (inst, s)
    return None


def check_smoothness_boundary() -> Optional[str]:
    for inst in _grid(4, 5, 3):
        for s in range(inst.order + 1):
            mult = multiplicity_along_stratum(inst, s)
            expect_one = s == inst.order or (
                inst.genus == 0 and inst.degree == 2 * inst.order + 1
            )
            assert (mult == 1) == expect_one, (inst, s)
    return None


def check_multiplicity_monotonicity_probe() -> Optional[str]:
    # observation, not an asserted theorem: report violations without failing
    violations = []
    for inst in _grid(4, 5, 3):
        mults = [multiplicity_along_stratum(inst, s) for s in range(inst.order + 1)]
        if mults != sorted(mults, reverse=True):
            violations.append((inst, mults))
    if violations:
        return f"observation: {len(violations)} non-monotone instances, e.g. {violations[0]}"
    return "observation: multiplicity non-increasing in the stratum on the whole grid"


def check_vertex_adjunction() -> Optional[str]:
    for inst in [SecantInstance(0, 4, 1), SecantInstance(2, 9, 1), SecantInstance(1, 7, 2)]:
        base = hilbert_series(inst)
        for m in range(4):
            cone = cone_over_secant(inst, m)
            assert cone.series.numerator == base.numerator, (inst, m)
            assert cone.series.krull_dim == base.krull_dim + m, (inst, m)
    return None


# --- CLI contract -----------------------------------------------------------

def _cli_capture(argv: list[str]) -> tuple[int, str]:
    from . import cli

    out = io.StringIO()
    code = cli.run(argv, stdout=out, stderr=io.StringIO())
    return code, out.getvalue()


def check_cli_determinism() -> Optional[str]:
    commands = [
        ["hilbert", "--genus", "2", "--degree", "9", "--order", "1", "--format", "json"],
        ["series", "--genus", "0", "--degree", "4", "--order", "1", "--format", "csv"],
        ["coh-sym", "--genus", "1", "--degree", "7", "--order", "2", "--twist", "2", "--format", "json"],
        ["tangent-cone", "--genus", "2", "--degree", "9", "--order", "1", "--stratum", "0", "--format", "json"],
        ["sweep", "--genus-range", "0:1", "--degree-range", "3:8", "--order-range", "0:1", "--invariant", "degree", "--format", "csv"],
    ]
    for argv in commands:
        code_a, out_a = _cli_capture(argv)
        code_b, out_b = _cli_capture(argv)
        assert code_a == code_b == 0, argv
        assert out_a == out_b, argv
    return None


def check_cli_json_round_trip() -> Optional[str]:
    code, out = _cli_capture(
        ["hilbert", "--genus", "2", "--degree", "9", "--order", "1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    poly = QPolynomial.from_strings(payload["coefficients"])
    assert poly == hilbert_polynomial(SecantInstance(2, 9, 1))

    code, out = _cli_capture(
        ["series", "--genus", "2", "--degree", "9", "--order", "1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    series = hilbert_series(SecantInstance(2, 9, 1))
    assert QPolynomial.from_strings(payload["numerator"]) == series.numerator
    assert payload["krull_dim"] == series.krull_dim

    code, out = _cli_capture(
        ["coh-canonical", "--genus", "2", "--degree", "9", "--order", "1", "--twist", "1", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert [int(e["dim"]) for e in payload["entries"]] == [20, 10, 0]
    return None


def check_cli_format_equivalence() -> Optional[str]:
    argv = ["coh-sym", "--genus", "2", "--degree", "9", "--order", "1", "--twist", "1"]
    code, json_out = _cli_capture(argv + ["--format", "json"])
    assert code == 0
    code, csv_out = _cli_capture(argv + ["--format", "csv"])
    assert code == 0
    payload = json.loads(json_out)
    json_cells = {
        (str(e["i"]), "" if e["l"] is None else str(e["l"]), e["dim"])
        for e in payload["entries"]
    }
    lines = csv_out.strip().split("\n")
    assert lines[0] == "i,l,dim"
    csv_cells = {tuple(line.split(",")) for line in lines[1:]}
    assert json_cells == csv_cells
    return None


CATALOGUE: list[tuple[str, Callable[[], Optional[str]]]] = [
    ("exactmath/pascal-grid", check_pascal_grid),
    ("exactmath/binomial-poly-agreement", check_binomial_poly_agreement),
    ("exactmath/rational-normalization", check_rational_normalization),
    ("exactmath/lagrange-exactness", check_lagrange_exactness),
    ("exactmath/series-inverse-expansion", check_series_inverse_expansion),
    ("secant_core/riemann-roch-curve-case", check_riemann_roch_curve_case),
    ("secant_core/order1-reference-formula", check_order1_reference_formula),
    ("secant_core/projective-space-collapse", check_projective_space_collapse),
    ("secant_core/closed-form-vs-interpolation", check_closed_form_vs_interpolation),
    ("secant_core/negative-twist-alternating-sum", check_negative_twist_alternating_sum),
    ("secant_core/node-consistency", check_node_consistency),
    ("secant_core/degree-and-positivity", check_degree_and_positivity),
    ("secant_core/dual-values-nonnegative", check_dual_values_nonnegative),
    ("secant_core/catalecticant-battery", check_catalecticant_battery),
    ("secant_core/twisted-cubic-generators", check_twisted_cubic_generators),
    ("secant_core/series-sanity", check_series_sanity),
    ("secant_core/series-tail-vanishes", check_series_tail_vanishes),
    ("cohomology/wedge-collapse", check_wedge_collapse),
    ("cohomology/kunneth-rank2", check_kunneth_rank2),
    ("cohomology/vanishing-ranges", check_coh_vanishing_ranges),
    ("cohomology/hilbert-consistency", check_coh_hilbert_consistency),
    ("cohomology/sym-euler-difference", check_sym_euler_difference),
    ("cohomology/tables-deterministic", check_tables_deterministic_nonnegative),
    ("tangent/dimension-bookkeeping", check_tangent_dimension_bookkeeping),
    ("tangent/degree-compatibility", check_tangent_degree_compatibility),
    ("tangent/smoothness-boundary", check_smoothness_boundary),
    ("tangent/multiplicity-monotonicity", check_multiplicity_monotonicity_probe),
    ("tangent/vertex-adjunction", check_vertex_adjunction),
    ("cli/determinism", check_cli_determinism),
    ("cli/json-round-trip", check_cli_json_round_trip),
    ("cli/format-equivalence", check_cli_format_equivalence),
]


def run_catalogue() -> list[CheckResult]:
    results = []
    for name, check in CATALOGUE:
        start = time.perf_counter()
        try:
            detail = check() or ""
            passed = True
        except AssertionError as exc:
            detail = str(exc)
            passed = False
        results.append(CheckResult(name, passed, time.perf_counter() - start, detail))
    return results
