from math import comb

import pytest

from secantinv import (
    DomainError,
    QPolynomial,
    SMOOTH_POINT,
    SecantInstance,
    StratumOutOfRange,
    cone_over_secant,
    hilbert_series,
    multiplicity_along_stratum,
    tangent_cone_at,
    variety_degree,
)

from test_secant_core import horner_route_numerator


def strata_grid(max_genus, max_order, degree_span):
    for g in range(max_genus + 1):
        for k in range(max_order + 1):
            lo = 2 * g + 2 * k + 1
            for d in range(lo, lo + degree_span):
                yield SecantInstance(g, d, k)


class TestTangentConeAt:
    def test_catalecticant_along_curve(self):
        desc = tangent_cone_at(SecantInstance(0, 4, 1), 0)
        assert desc.base == SecantInstance(0, 2, 0)
        assert desc.vertex_proj_dim == 0
        assert desc.multiplicity == 2

    def test_projective_space_is_smooth_everywhere(self):
        for k in (1, 2, 3):
            inst = SecantInstance(0, 2 * k + 1, k)
            for s in range(k):
                assert tangent_cone_at(inst, s).multiplicity == 1

    def test_deepest_singular_stratum_gives_curve(self):
        for g, d, k in [(0, 8, 2), (1, 9, 2), (2, 13, 3)]:
            desc = tangent_cone_at(SecantInstance(g, d, k), k - 1)
            assert desc.base == SecantInstance(g, d - 2 * k, 0)
            assert desc.multiplicity == d - 2 * k

    def test_smooth_point_marker(self):
        desc = tangent_cone_at(SecantInstance(2, 9, 1), 1)
        assert desc.base is SMOOTH_POINT
        assert desc.is_smooth_point
        assert desc.multiplicity == 1
        assert desc.base_is_fano is None
        assert desc.series.numerator == QPolynomial([1])
        doc = desc.to_json_dict()
        assert doc["base"] is None and doc["multiplicity"] == "1"

    def test_stratum_out_of_range(self):
        with pytest.raises(StratumOutOfRange):
            tangent_cone_at(SecantInstance(2, 9, 1), 2)
        with pytest.raises(StratumOutOfRange):
            tangent_cone_at(SecantInstance(2, 9, 1), -1)

    def test_base_domain_bound_is_automatic(self):
        # d - 2s - 2 >= 2g + 2(k-s-1) + 1 holds whenever d >= 2g+2k+1
        for inst in strata_grid(3, 4, 3):
            for s in range(inst.order):
                tangent_cone_at(inst, s)  # must not raise

    def test_dimension_bookkeeping(self):
        for inst in strata_grid(3, 4, 2):
            for s in range(inst.order):
                desc = tangent_cone_at(inst, s)
                base_dim = desc.base.variety_dim
                assert base_dim + desc.vertex_proj_dim + 1 == desc.cone_proj_dim
                assert desc.cone_proj_dim == 2 * inst.order

    def test_series_degree_equals_multiplicity(self):
        for inst in strata_grid(2, 3, 2):
            for s in range(inst.order + 1):
                desc = tangent_cone_at(inst, s)
                assert desc.series.numerator(1) == desc.multiplicity
                assert desc.series.krull_dim == 2 * inst.order + 1

    def test_fano_flag_tracks_genus(self):
        assert tangent_cone_at(SecantInstance(0, 6, 1), 0).base_is_fano is True
        assert tangent_cone_at(SecantInstance(2, 9, 1), 0).base_is_fano is False


class TestTangentConeIsACone:
    """Off the smooth locus the tangent cone at stratum s is the cone with a
    2s-plane vertex (2s+1 extra coordinates) over the base secant variety."""

    def test_series_is_the_cone_over_the_base(self):
        for inst in strata_grid(3, 4, 3):
            g, d, k = inst.genus, inst.degree, inst.order
            for s in range(k):
                base = SecantInstance(g, d - 2 * s - 2, k - s - 1)
                cone = cone_over_secant(base, 2 * s + 1)
                assert tangent_cone_at(inst, s).series == cone.series, (inst, s)
            smooth = tangent_cone_at(inst, k).series
            assert smooth.numerator == QPolynomial([1]), inst
            assert smooth.krull_dim == 2 * k + 1, inst


class TestConeOverSecant:
    def test_vertex_adjunction_preserves_numerator(self):
        inst = SecantInstance(0, 4, 1)
        for m in range(4):
            cone = cone_over_secant(inst, m)
            assert cone.series.numerator == QPolynomial([1, 1, 1])
            assert cone.series.krull_dim == inst.krull_dim + m

    def test_zero_vertices_is_the_variety(self):
        inst = SecantInstance(2, 9, 1)
        assert cone_over_secant(inst, 0).series == hilbert_series(inst)

    def test_degree_invariant_under_coning(self):
        for g, d in [(0, 3), (2, 9)]:
            inst = SecantInstance(g, d, 0)
            cone = cone_over_secant(inst, 2)
            assert cone.series.numerator(1) == d
            assert cone.series.krull_dim == 4

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(DomainError):
            cone_over_secant(SecantInstance(0, 4, 1), -1)


class TestOrderZeroBases:
    """At k = 1 the singular stratum's base is an order-0 instance, where the
    numerator reads no negative-twist node."""

    def test_numerators_match_horner_route(self):
        for g in range(5):
            for d in range(2 * g + 3, 2 * g + 8):
                inst = SecantInstance(g, d, 1)
                desc = tangent_cone_at(inst, 0)
                assert desc.base.order == 0
                assert desc.series.numerator == horner_route_numerator(desc.base), inst
                for m in range(4):
                    for variety in (desc.base, inst):
                        cone = cone_over_secant(variety, m).series
                        assert cone.numerator == horner_route_numerator(variety), (variety, m)


class TestMultiplicity:
    def test_smooth_stratum_is_one(self):
        for inst in [SecantInstance(0, 4, 1), SecantInstance(3, 13, 2)]:
            assert multiplicity_along_stratum(inst, inst.order) == 1

    def test_catalecticant_double_curve(self):
        assert multiplicity_along_stratum(SecantInstance(0, 4, 1), 0) == 2

    def test_matches_base_degree(self):
        assert multiplicity_along_stratum(
            SecantInstance(1, 9, 2), 0
        ) == variety_degree(SecantInstance(1, 7, 1))

    def test_series_multiplicity_is_base_degree_on_grid(self):
        # the multiplicity is read from the cone's series; the leading
        # coefficient of the base's chi is a second route to it
        for inst in strata_grid(3, 4, 3):
            for s in range(inst.order):
                desc = tangent_cone_at(inst, s)
                assert desc.multiplicity == variety_degree(desc.base)

    def test_rational_normal_closed_form(self):
        # at genus 0 the base is the order-(k-s-1) secant variety of a
        # rational normal curve of degree e = d-2s-2, whose degree at order j
        # is C(e-j, j+1)
        for inst in strata_grid(0, 8, 15):
            d, k = inst.degree, inst.order
            for s in range(k + 1):
                assert multiplicity_along_stratum(inst, s) == comb(d - s - k - 1, k - s), (inst, s)

    def test_smoothness_boundary(self):
        # multiplicity 1 exactly at smooth points or on rational normal
        # secants that fill projective space
        for inst in strata_grid(3, 4, 3):
            for s in range(inst.order + 1):
                mult = multiplicity_along_stratum(inst, s)
                expect_one = s == inst.order or (
                    inst.genus == 0 and inst.degree == 2 * inst.order + 1
                )
                assert (mult == 1) == expect_one

    def test_monotone_in_stratum_on_grid(self):
        # deeper singular strata are at least as multiple; observed on this
        # grid, not asserted in general
        for inst in strata_grid(3, 4, 3):
            mults = [
                multiplicity_along_stratum(inst, s) for s in range(inst.order + 1)
            ]
            assert mults == sorted(mults, reverse=True)
