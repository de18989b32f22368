"""Acceptance suite: every criterion at its stated tolerance (exact equality
throughout, zero tolerance), one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the report lines, or
use the CLI command `secantinv validate` for the full catalogue.
"""

import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from secantinv import (
    LineBundleClass,
    QPolynomial,
    SecantInstance,
    binomial,
    binomial_poly,
    coh_determinant_line,
    coh_sym_secant_sheaf,
    coh_wedge_secant_sheaf,
    generator_count,
    hilbert_function,
    hilbert_polynomial,
    hilbert_series,
    lagrange_interpolate,
    multiplicity_along_stratum,
    node_values,
    variety_degree,
)
from secantinv.secant_core import _closed_form

from oracles import genus0_hilbert_function


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {name}")
        raise
    print(f"criterion {number:2d}: PASS  {name}")


def test_criterion_01_riemann_roch_curve_case():
    with criterion(1, "order-0 polynomials are d*t + 1 - g"):
        start = time.perf_counter()
        for g in range(11):
            for d in range(2 * g + 1, 2 * g + 21):
                chi = hilbert_polynomial(SecantInstance(g, d, 0))
                assert chi == QPolynomial([1 - g, d]), (g, d)
        assert time.perf_counter() - start < 1.0


def order1_reference(g: int, d: int) -> QPolynomial:
    """The classical four-term order-1 closed form, built independently of
    the engine.  The sign of the first term makes chi(-1) <= 0; it is pinned
    by the hypersurface and symmetric-square oracles in the unit tests."""
    t = QPolynomial.variable()
    one = QPolynomial.constant(1)
    return (
        Fraction(g * d + g * g - g, 6) * (t * (t - one) * (t - 2 * one))
        + Fraction(-(g * g + g - 2), 4) * ((t + one) * (t - one) * (t - 2 * one))
        + Fraction(-(d - g + 1), 2) * ((t + one) * t * (t - 2 * one))
        + Fraction((d - g + 2) * (d - g + 1), 12) * ((t + one) * t * (t - one))
    )


def test_criterion_02_order1_closed_form():
    with criterion(2, "order-1 polynomials match the four-term closed form"):
        start = time.perf_counter()
        for g in range(7):
            for d in range(2 * g + 3, 2 * g + 21):
                assert hilbert_polynomial(SecantInstance(g, d, 1)) == order1_reference(g, d)
        assert time.perf_counter() - start < 1.0


def test_criterion_03_projective_space_collapse():
    with criterion(3, "(0, 2k+1, k) collapses to the polynomial of P^{2k+1}"):
        for k in range(9):
            chi = hilbert_polynomial(SecantInstance(0, 2 * k + 1, k))
            assert chi == binomial_poly(2 * k + 1, 2 * k + 1), k


def test_criterion_04_closed_form_equals_interpolation():
    with criterion(4, "closed form == Lagrange interpolation on the grid"):
        start = time.perf_counter()
        for g in range(6):
            for k in range(7):
                lo = 2 * g + 2 * k + 1
                for d in range(lo, 2 * g + 2 * k + 16):
                    inst = SecantInstance(g, d, k)
                    # hilbert_polynomial computes both routes and raises on any
                    # disagreement; re-derive both explicitly as well
                    nodes = node_values(inst)
                    closed = QPolynomial._forward(-k, _closed_form(k, nodes.entries))
                    interpolated = lagrange_interpolate(list(nodes.items()))
                    assert hilbert_polynomial(inst) == closed == interpolated
        assert time.perf_counter() - start < 10.0


def test_criterion_05_alternating_sum_identity():
    with criterion(5, "alternating binomial sum of chi vanishes at negative twists"):
        for g in range(6):
            for k in range(7):
                lo = 2 * g + 2 * k + 1
                for d in range(lo, 2 * g + 2 * k + 16):
                    for twist in range(-k, 0):
                        total = Fraction(0)
                        for i in range(k + 1):
                            total += (
                                (-1) ** i
                                * binomial(g, i)
                                * hilbert_polynomial(SecantInstance(g, d, k - i))(twist)
                            )
                        assert total == 0, (g, d, k, twist)


def test_criterion_06_catalecticant_battery():
    with criterion(6, "catalecticant battery for (0, 4, 1)"):
        inst = SecantInstance(0, 4, 1)
        # recompute the goldens with the independent determinantal oracle
        oracle_values = [genus0_hilbert_function(4, 1, n) for n in range(5)]
        assert oracle_values == [1, 5, 15, 34, 65]
        assert variety_degree(inst) == 3
        assert generator_count(inst) == 1
        assert hilbert_series(inst).numerator == QPolynomial([1, 1, 1])
        assert multiplicity_along_stratum(inst, 0) == 2
        assert [hilbert_function(inst, n) for n in range(5)] == oracle_values


def test_criterion_07_twisted_cubic():
    with criterion(7, "twisted cubic has three quadric generators"):
        assert generator_count(SecantInstance(0, 3, 0)) == 3


def test_criterion_08_wedge_collapse():
    with criterion(8, "top exterior power collapses to the determinant line"):
        for g in range(5):
            for deg_l in range(2 * g + 1, 21, 3):
                for deg_m in range(2 * g + 1, 21, 3):
                    bundle = LineBundleClass.nonspecial(g, deg_l)
                    twisting = LineBundleClass.nonspecial(g, deg_m)
                    product = LineBundleClass.nonspecial(g, deg_l + deg_m)
                    for points in range(1, 6):
                        for i in range(points + 1):
                            assert coh_wedge_secant_sheaf(
                                points, points, bundle, twisting, i
                            ) == coh_determinant_line(points, product, i), (
                                g, deg_l, deg_m, points, i,
                            )


def test_criterion_09_kunneth_oracle():
    with criterion(9, "rank-2 symmetric-power cohomology matches Kunneth"):
        for g in range(6):
            for d in range(2 * g + 3, 2 * g + 13):
                inst = SecantInstance(g, d, 1)
                h_structure = (1, g)          # H^*(C, O)
                h_bundle = (d - g + 1, 0)     # H^*(C, L), nonspecial
                for i in range(3):
                    direct = sum(
                        h_structure[p] * h_bundle[q]
                        for p in (0, 1)
                        for q in (0, 1)
                        if p + q == i
                    )
                    assert coh_sym_secant_sheaf(inst, 1, i) == direct, (g, d, i)


def test_criterion_10_series_sanity():
    with criterion(10, "series numerators: Q(0)=1, Q(1)=degree, nonnegative, expansion"):
        for g in range(4):
            for k in range(4):
                lo = 2 * g + 2 * k + 1
                for d in range(lo, lo + 4):
                    inst = SecantInstance(g, d, k)
                    series = hilbert_series(inst)
                    assert series.numerator.coefficient(0) == 1
                    assert series.degree() == variety_degree(inst)
                    assert all(
                        c.denominator == 1 and c >= 0
                        for c in series.numerator.coefficients
                    )
                    window = 2 * k + 7
                    assert series.expand(window) == [
                        hilbert_function(inst, n) for n in range(window)
                    ]


def test_criterion_11_validate_command():
    with criterion(11, "validate command exits 0 in under 60 seconds"):
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "secantinv.cli", "validate"],
            capture_output=True,
            text=True,
        )
        elapsed = time.perf_counter() - start
        assert result.returncode == 0, result.stdout + result.stderr
        assert elapsed < 60.0
        assert "0 failed" in result.stdout
