from fractions import Fraction
from math import comb

import pytest

from secantinv import (
    DomainError,
    GeneratorDegreeUnknown,
    QPolynomial,
    SecantInstance,
    binomial,
    binomial_poly,
    canonical_h0,
    generator_count,
    hilbert_function,
    hilbert_polynomial,
    hilbert_series,
    node_values,
    variety_degree,
)

from oracles import (
    genus0_generators,
    genus0_hilbert_function,
    hypersurface_chi,
    order1_chi,
    order1_degree,
)


def valid_grid(max_genus, max_order, degree_span):
    for g in range(max_genus + 1):
        for k in range(max_order + 1):
            lo = 2 * g + 2 * k + 1
            for d in range(lo, lo + degree_span):
                yield SecantInstance(g, d, k)


class TestSecantInstance:
    def test_derived_quantities(self):
        inst = SecantInstance(2, 9, 1)
        assert inst.ambient_dim == 7
        assert inst.variety_dim == 3
        assert inst.krull_dim == 4

    def test_domain_gate_message(self):
        with pytest.raises(DomainError, match=r"degree 2 violates d >= 2g\+2k\+1 = 3"):
            SecantInstance(0, 2, 1)

    def test_boundary_is_allowed(self):
        SecantInstance(0, 3, 1)
        SecantInstance(3, 11, 2)

    def test_negative_parameters_rejected(self):
        with pytest.raises(DomainError):
            SecantInstance(-1, 5, 0)
        with pytest.raises(DomainError):
            SecantInstance(0, 5, -1)

    def test_json_round_trip(self):
        inst = SecantInstance(1, 7, 2)
        assert SecantInstance.from_json_dict(inst.to_json_dict()) == inst


class TestNodeValues:
    def test_order1_closed_values(self):
        # a_0, a_1, a_2 as displayed for order 1; the negative node carries
        # the sign that makes chi(-1) <= 0 (see the oracle tests below)
        for g, d in [(0, 4), (1, 5), (2, 9), (3, 12)]:
            nodes = node_values(SecantInstance(g, d, 1))
            assert nodes[-1] == -Fraction(g * d + g * g - g)
            assert nodes[0] == -Fraction(g * g + g - 2, 2)
            assert nodes[1] == d - g + 1
            assert nodes[2] == Fraction((d - g + 2) * (d - g + 1), 2)

    def test_genus0_negative_nodes_vanish(self):
        for k in (1, 2, 3):
            nodes = node_values(SecantInstance(0, 2 * k + 4, k))
            for twist in range(-k, 0):
                assert nodes[twist] == 0

    def test_g2_d9_k1_values(self):
        nodes = node_values(SecantInstance(2, 9, 1))
        assert list(nodes.items()) == [(-1, -20), (0, -2), (1, 8), (2, 36)]

    def test_all_keys_present_and_integral(self):
        for inst in valid_grid(3, 3, 4):
            nodes = node_values(inst)
            assert list(nodes.twists) == list(range(-inst.order, inst.order + 2))
            for twist, value in nodes.items():
                assert value.denominator == 1
                if twist >= 1:
                    assert value > 0

    def test_node_table_builds_no_chi(self):
        # the lower orders are rows of one integer table, not chi builds
        import secantinv.secant_core as core

        core._chi.cache_clear()
        core._node_table.cache_clear()
        node_values(SecantInstance(3, 40, 12))
        assert core._chi.cache_info().currsize == 0

    def test_entries_are_ints(self):
        for inst in [*valid_grid(3, 3, 2), SecantInstance(3, 40, 12)]:
            assert all(type(v) is int for v in node_values(inst).entries)

    def test_node_consistency_with_polynomial(self):
        for inst in valid_grid(3, 3, 4):
            chi = hilbert_polynomial(inst)
            for twist, value in node_values(inst).items():
                assert chi(twist) == value


class TestHilbertPolynomial:
    def test_riemann_roch_curve_case(self):
        for g in range(6):
            for d in range(2 * g + 1, 2 * g + 8):
                chi = hilbert_polynomial(SecantInstance(g, d, 0))
                assert chi == QPolynomial([1 - g, d])

    def test_projective_space_collapse(self):
        for k in range(6):
            chi = hilbert_polynomial(SecantInstance(0, 2 * k + 1, k))
            assert chi == binomial_poly(2 * k + 1, 2 * k + 1)

    def test_degree_and_leading_sign(self):
        for inst in valid_grid(3, 4, 3):
            chi = hilbert_polynomial(inst)
            assert chi.degree == 2 * inst.order + 1
            assert chi.leading_coefficient > 0

    def test_g2_d9_k1_at_3(self):
        assert hilbert_polynomial(SecantInstance(2, 9, 1))(3) == 108

    def test_negative_twist_alternating_sum_vanishes(self):
        for inst in valid_grid(4, 4, 4):
            g, d, k = inst.genus, inst.degree, inst.order
            for twist in range(-k, 0):
                total = Fraction(0)
                for i in range(k + 1):
                    total += (
                        (-1) ** i
                        * binomial(g, i)
                        * hilbert_polynomial(SecantInstance(g, d, k - i))(twist)
                    )
                assert total == 0

    # --- independent oracles ---

    def test_against_genus0_determinantal_oracle(self):
        for k in range(4):
            for d in range(2 * k + 1, 2 * k + 9):
                inst = SecantInstance(0, d, k)
                chi = hilbert_polynomial(inst)
                for n in range(1, 2 * k + 9):
                    assert chi(n) == genus0_hilbert_function(d, k, n)

    def test_against_symmetric_square_oracle(self):
        for g in range(6):
            for d in range(2 * g + 3, 2 * g + 12):
                chi = hilbert_polynomial(SecantInstance(g, d, 1))
                for m in range(0, 9):
                    assert chi(m) == order1_chi(g, d, m)

    def test_against_hypersurface_oracles(self):
        # elliptic normal quintic: quintic threefold in P^4
        chi = hilbert_polynomial(SecantInstance(1, 5, 1))
        for m in range(-3, 9):
            assert chi(m) == hypersurface_chi(m, 4, 5)
        # elliptic septic, order 2: degree-7 hypersurface in P^6
        chi = hilbert_polynomial(SecantInstance(1, 7, 2))
        for m in range(-3, 9):
            assert chi(m) == hypersurface_chi(m, 6, 7)
        # rational normal curve of even degree: determinantal hypersurface
        for k in range(4):
            chi = hilbert_polynomial(SecantInstance(0, 2 * k + 2, k))
            for m in range(-3, 9):
                assert chi(m) == hypersurface_chi(m, 2 * k + 2, k + 2)


class TestHilbertFunction:
    def test_twist_zero_is_one(self):
        for inst in [SecantInstance(0, 4, 1), SecantInstance(3, 15, 2)]:
            assert hilbert_function(inst, 0) == 1

    def test_catalecticant_values(self):
        inst = SecantInstance(0, 4, 1)
        assert [hilbert_function(inst, n) for n in range(5)] == [1, 5, 15, 34, 65]

    def test_g2_d9_k1_twist3(self):
        assert hilbert_function(SecantInstance(2, 9, 1), 3) == 108

    def test_low_twist_binomial_values(self):
        for inst in valid_grid(3, 3, 3):
            g, d, k = inst.genus, inst.degree, inst.order
            for twist in range(1, k + 2):
                assert hilbert_function(inst, twist) == binomial(d - g + twist, twist)

    def test_negative_twist_rejected(self):
        with pytest.raises(DomainError):
            hilbert_function(SecantInstance(0, 4, 1), -1)


class TestVarietyDegree:
    def test_curve_case(self):
        for g, d in [(0, 5), (2, 9), (4, 13)]:
            assert variety_degree(SecantInstance(g, d, 0)) == d

    def test_projective_space(self):
        for k in range(5):
            assert variety_degree(SecantInstance(0, 2 * k + 1, k)) == 1

    def test_catalecticant_cubic(self):
        assert variety_degree(SecantInstance(0, 4, 1)) == 3

    @pytest.mark.parametrize("k", [30, 40])
    def test_genus0_high_order_is_eagon_northcott(self, k):
        # degree C(d-k, k+1) of the Hankel determinantal variety
        assert variety_degree(SecantInstance(0, 2 * k + 10, k)) == comb(k + 10, k + 1)

    def test_chordal_formula(self):
        for g in range(5):
            for d in range(2 * g + 3, 2 * g + 10):
                assert variety_degree(SecantInstance(g, d, 1)) == order1_degree(g, d)


class TestHilbertSeries:
    def test_polynomial_ring(self):
        for k in range(4):
            series = hilbert_series(SecantInstance(0, 2 * k + 1, k))
            assert series.numerator == QPolynomial([1])
            assert series.krull_dim == 2 * k + 2

    def test_catalecticant(self):
        series = hilbert_series(SecantInstance(0, 4, 1))
        assert series.numerator == QPolynomial([1, 1, 1])
        assert series.degree() == variety_degree(SecantInstance(0, 4, 1))

    def test_curve_numerator(self):
        for g, d in [(0, 3), (2, 9), (3, 8)]:
            series = hilbert_series(SecantInstance(g, d, 0))
            assert series.numerator == QPolynomial([1, d - g - 1, g])
            assert series.degree() == d

    def test_elliptic_hypersurfaces_have_all_ones_numerator(self):
        for d, k in [(5, 1), (7, 2), (9, 3)]:
            series = hilbert_series(SecantInstance(1, d, k))
            assert series.numerator == QPolynomial([1] * d)

    def test_invariants_and_expansion_on_grid(self):
        for inst in valid_grid(3, 3, 3):
            series = hilbert_series(inst)
            assert series.numerator.coefficient(0) == 1
            assert series.degree() == variety_degree(inst)
            for c in series.numerator.coefficients:
                assert c.denominator == 1 and c >= 0
            expanded = series.expand(2 * inst.order + 7)
            expected = [
                hilbert_function(inst, n) for n in range(2 * inst.order + 7)
            ]
            assert expanded == expected


class TestGeneratorCount:
    def test_twisted_cubic(self):
        assert generator_count(SecantInstance(0, 3, 0)) == 3

    def test_catalecticant_single_cubic(self):
        assert generator_count(SecantInstance(0, 4, 1)) == 1

    def test_conic(self):
        assert generator_count(SecantInstance(0, 2, 0)) == 1

    def test_boundary_raises(self):
        with pytest.raises(GeneratorDegreeUnknown):
            generator_count(SecantInstance(0, 3, 1))
        with pytest.raises(GeneratorDegreeUnknown):
            generator_count(SecantInstance(2, 7, 1))

    def test_genus0_matches_minor_count(self):
        for k in range(4):
            for d in range(2 * k + 2, 2 * k + 10):
                assert generator_count(SecantInstance(0, d, k)) == genus0_generators(d, k)

    def test_nonnegative_on_grid(self):
        for inst in valid_grid(3, 3, 4):
            if inst.degree >= 2 * inst.genus + 2 * inst.order + 2:
                assert generator_count(inst) >= 0


class TestCanonicalH0:
    def test_genus_zero(self):
        assert canonical_h0(SecantInstance(0, 9, 2)) == 0

    def test_curve_gives_genus(self):
        for g in range(5):
            assert canonical_h0(SecantInstance(g, 2 * g + 1, 0)) == g

    def test_g2_k1(self):
        assert canonical_h0(SecantInstance(2, 9, 1)) == 3

    def test_equals_one_minus_chi_at_zero(self):
        for inst in valid_grid(4, 3, 3):
            assert canonical_h0(inst) == 1 - hilbert_polynomial(inst)(0)


class TestDualRouteGuard:
    def test_corrupted_interpolation_route_is_detected(self, monkeypatch):
        import secantinv.secant_core as core
        from secantinv import InternalMismatch, lagrange_interpolate as real_interp

        def skewed(nodes):
            return real_interp(nodes) + QPolynomial([1])

        monkeypatch.setattr(core, "lagrange_interpolate", skewed)
        core._chi.cache_clear()
        core._node_table.cache_clear()
        try:
            with pytest.raises(InternalMismatch):
                core.hilbert_polynomial(SecantInstance(2, 9, 1))
        finally:
            monkeypatch.undo()
            core._chi.cache_clear()
            core._node_table.cache_clear()


class TestDualValues:
    def test_negated_chi_nonnegative_at_negative_twists(self):
        # at twist 0 the value is canonical_h0 - 1, which is -1 when g = 0,
        # so nonnegativity at 0 only applies to positive genus
        for inst in valid_grid(4, 3, 3):
            chi = hilbert_polynomial(inst)
            assert -chi(0) == canonical_h0(inst) - 1
            for twist in range(1, 2 * inst.order + 6):
                value = -chi(-twist)
                assert value.denominator == 1
                assert value >= 0
            if inst.genus >= 1:
                assert -chi(0) >= 0
