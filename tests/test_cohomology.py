import re
import time

import pytest

from secantinv import (
    AmbiguousBundle,
    DomainError,
    LineBundleClass,
    SecantInstance,
    binomial,
    canonical_twist_table,
    coh_canonical_twist,
    coh_descent_line,
    coh_determinant_line,
    coh_sym_secant_sheaf,
    coh_wedge_secant_sheaf,
    higher_direct_image_ranks,
    hilbert_function,
    hilbert_polynomial,
    line_bundle_table,
    sym_dim,
    sym_secant_table,
    wedge_dim,
    wedge_secant_table,
)


class TestLineBundleClass:
    def test_nonspecial(self):
        lb = LineBundleClass.nonspecial(2, 7)
        assert (lb.h0, lb.h1) == (6, 0)

    def test_canonical(self):
        for g in range(5):
            lb = LineBundleClass.canonical(g)
            assert (lb.degree, lb.h0, lb.h1) == (2 * g - 2, g, 1)

    def test_trivial(self):
        lb = LineBundleClass.trivial(3)
        assert (lb.degree, lb.h0, lb.h1) == (0, 1, 3)

    def test_riemann_roch_enforced(self):
        with pytest.raises(DomainError):
            LineBundleClass(2, 7, 5, 0)

    def test_negative_degree_forces_h0_zero(self):
        lb = LineBundleClass.from_degree(2, -3)
        assert (lb.h0, lb.h1) == (0, 4)
        with pytest.raises(DomainError):
            LineBundleClass(2, -3, 1, 5)

    def test_special_range_needs_h1(self):
        with pytest.raises(AmbiguousBundle):
            LineBundleClass.from_degree(2, 1)
        lb = LineBundleClass.from_degree(2, 1, h1=1)
        assert (lb.h0, lb.h1) == (1, 1)

    def test_large_degree_forces_h1_zero(self):
        assert LineBundleClass.from_degree(2, 9).h1 == 0
        with pytest.raises(DomainError):
            LineBundleClass(2, 9, 9, 1)

    # the genus bound and the sizes of degree, h1 and h0 are checked first, then
    # the forced h1, the genus sign, the signs and Riemann-Roch
    @pytest.mark.parametrize("fields, message", [
        ((2, -3, 1, 5), "degree -3 < 0 forces h1 = 4, got 5"),
        ((2, 9, 9, 1), "degree 9 > 2g-2 forces h1 = 0, got 1"),
        ((2, 7, 5, 1), "degree 7 > 2g-2 forces h1 = 0, got 1"),
        ((-1, 5, 9, 2), "degree 5 > 2g-2 forces h1 = 0, got 2"),
        ((-1, -3, -1, 0), "genus -1 must be nonnegative"),
        ((3, 1, -1, 0), "h0 = -1, h1 = 0 must be nonnegative"),
        ((3, 4, 1, -1), "h0 = 1, h1 = -1 must be nonnegative"),
        ((3, 4, 1, 1), "h0 - h1 = 0 violates Riemann-Roch value 2"),
        ((10**6 + 1, -3, 1, 5), "genus 1000001 exceeds the maximum 1000000"),
        ((2, 10**4000, 0, 0), "degree has more than 4000 digits"),
        ((2, -10**4000, 0, 0), "degree has more than 4000 digits"),
        ((2, -3, 0, -10**4000), "h1 has more than 4000 digits"),
        ((0, 5, 10**5000, 0), "h0 has more than 4000 digits"),
    ])
    def test_invalid_class_refused(self, fields, message):
        with pytest.raises(DomainError) as caught:
            LineBundleClass(*fields)
        assert str(caught.value) == message

    def test_from_degree_fills_in_the_forced_h1(self):
        assert LineBundleClass.from_degree(2, -3, h1=4) == LineBundleClass(2, -3, 0, 4)
        assert LineBundleClass.from_degree(2, 7, h1=0) == LineBundleClass(2, 7, 6, 0)
        # below genus 0 a filled-in h1 reaches the genus check, and a
        # contradicting one is refused before it
        with pytest.raises(DomainError, match="^genus -1 must be nonnegative$"):
            LineBundleClass.from_degree(-1, -3)
        with pytest.raises(DomainError, match="^degree -5 < 0 forces h1 = 3, got 0$"):
            LineBundleClass.from_degree(-1, -5, h1=0)

    def test_nonspecial_refuses_the_special_range(self):
        with pytest.raises(DomainError, match="^degree 2 is not forced nonspecial for genus 2$"):
            LineBundleClass.nonspecial(2, 2)


class TestPowerDims:
    def test_sym_small(self):
        assert sym_dim(3, 2) == 6

    def test_wedge_overflow(self):
        assert wedge_dim(3, 5) == 0

    def test_zero_space(self):
        assert sym_dim(0, 0) == 1
        assert sym_dim(0, 1) == 0
        assert wedge_dim(0, 0) == 1

    def test_negative_power(self):
        assert sym_dim(4, -1) == 0
        assert wedge_dim(4, -2) == 0

    @pytest.mark.parametrize("dim", [sym_dim, wedge_dim])
    def test_negative_space_rejected(self, dim):
        with pytest.raises(ValueError, match="space dimension must be nonnegative"):
            dim(-1, 2)

    def test_agree_with_binomial_at_every_power(self):
        for n in range(30):
            for j in range(-30, 40):
                assert sym_dim(n, j) == (binomial(n + j - 1, j) if j >= 0 else 0)
                assert wedge_dim(n, j) == (binomial(n, j) if j >= 0 else 0)


class TestLineBundleCohomology:
    def test_nonspecial_determinant_vanishes_above_zero(self):
        lb = LineBundleClass.nonspecial(2, 7)
        for i in range(1, 5):
            assert coh_determinant_line(3, lb, i) == 0

    def test_determinant_top_of_canonical(self):
        # the canonical class of the symmetric product: h^i = C(g, m-i)
        for g in (0, 2, 4):
            lb = LineBundleClass.canonical(g)
            for m in (1, 2, 3):
                for i in range(0, m + 1):
                    assert coh_determinant_line(m, lb, i) == binomial(g, m - i)

    def test_determinant_h0(self):
        lb = LineBundleClass(2, 7, 6, 0)
        assert coh_determinant_line(3, lb, 0) == binomial(6, 3)

    def test_descent_of_trivial_class(self):
        for g in (0, 1, 3):
            lb = LineBundleClass.trivial(g)
            for m in (1, 2, 4):
                for i in range(0, m + 1):
                    assert coh_descent_line(m, lb, i) == binomial(g, i)

    def test_descent_of_canonical(self):
        g, m = 3, 2
        assert coh_descent_line(m, LineBundleClass.canonical(g), 0) == sym_dim(g, m)

    def test_descent_nonspecial_vanishes(self):
        lb = LineBundleClass.nonspecial(1, 4)
        for i in (1, 2, 3):
            assert coh_descent_line(2, lb, i) == 0

    def test_vanishing_outside_range(self):
        lb = LineBundleClass.nonspecial(2, 8)
        for m in (1, 2, 3):
            assert coh_determinant_line(m, lb, -1) == 0
            assert coh_determinant_line(m, lb, m + 1) == 0
            assert coh_descent_line(m, lb, -1) == 0
            assert coh_descent_line(m, lb, m + 1) == 0

    def test_zero_h1_factor_skips_the_h0_factor(self):
        # h1 = 0 zeroes every entry above i = 0; computing each entry's h0
        # binomial anyway, with a top near 10**6, took 0.18 to 0.5 s on a
        # 2-core x86-64 machine
        bundle = LineBundleClass.from_degree(2, 999998)
        twisting = LineBundleClass.from_degree(2, 3)
        start = time.perf_counter()
        tables = [line_bundle_table(family, 1000, bundle) for family in "NT"]
        wedge = wedge_secant_table(1000, 500, bundle, twisting)
        assert time.perf_counter() - start < 0.04
        for table in (*tables, wedge):
            assert [e.dim for e in table.entries][1:] == [0] * 1000


class TestSymSecantSheaf:
    def test_i0_is_hilbert_function(self):
        for g, d, k in [(0, 4, 1), (2, 9, 1), (1, 9, 2)]:
            inst = SecantInstance(g, d, k)
            for twist in range(1, k + 3):
                assert coh_sym_secant_sheaf(inst, twist, 0) == hilbert_function(inst, twist)

    def test_low_twist_binomial_values_via_i0(self):
        for g, d, k in [(1, 5, 1), (2, 11, 2)]:
            inst = SecantInstance(g, d, k)
            for twist in range(1, k + 2):
                assert coh_sym_secant_sheaf(inst, twist, 0) == binomial(d - g + twist, twist)

    def test_kunneth_rank2_case(self):
        # for two points, H^i of the sheaf itself is the Kunneth sum of
        # H^p(O) x H^q(L)
        inst = SecantInstance(1, 5, 1)
        assert coh_sym_secant_sheaf(inst, 1, 1) == 1 * 5

    def test_genus0_higher_vanishing(self):
        inst = SecantInstance(0, 9, 3)
        for i in range(1, 5):
            assert coh_sym_secant_sheaf(inst, 2, i) == 0

    def test_top_index_vanishes_for_positive_twist(self):
        for g, d, k in [(2, 9, 1), (3, 13, 2)]:
            inst = SecantInstance(g, d, k)
            for twist in (1, 2, 5):
                assert coh_sym_secant_sheaf(inst, twist, k + 1) == 0

    def test_twist_zero_is_structure_sheaf(self):
        inst = SecantInstance(3, 13, 2)
        dims = [coh_sym_secant_sheaf(inst, 0, i) for i in range(5)]
        assert dims == [binomial(3, i) for i in range(4)] + [0]
        assert coh_sym_secant_sheaf(inst, 0, 3) == 1  # wedge^3 of a 3-space

    def test_outside_range_zero(self):
        inst = SecantInstance(2, 9, 1)
        assert coh_sym_secant_sheaf(inst, 1, -1) == 0
        assert coh_sym_secant_sheaf(inst, 1, 5) == 0

    def test_negative_twist_rejected(self):
        with pytest.raises(DomainError):
            coh_sym_secant_sheaf(SecantInstance(2, 9, 1), -1, 0)


class TestHigherDirectImages:
    def test_normality_entry(self):
        ranks = higher_direct_image_ranks(SecantInstance(2, 9, 1))
        assert ranks[0] == (0, 1, 1)

    def test_genus0_only_structure_sheaf(self):
        assert higher_direct_image_ranks(SecantInstance(0, 9, 3)) == [(0, 1, 3)]

    def test_g3_k2(self):
        ranks = higher_direct_image_ranks(SecantInstance(3, 11, 2))
        assert (2, 3, 0) in ranks
        assert ranks == [(0, 1, 2), (1, 3, 1), (2, 3, 0)]

    def test_support_never_negative(self):
        for ranks in map(
            higher_direct_image_ranks,
            [SecantInstance(4, 17, 3), SecantInstance(1, 7, 2)],
        ):
            for i, mult, support in ranks:
                assert mult > 0 and support >= 0


def four_factor_wedge(points, twist, twisting, product, i):
    """Reference for the wedge family: the Kunneth sum over p + q = i written
    out factor by factor, sym^{points-twist-p} h0(M) * sym^q h1(LM) *
    wedge^p h1(M) * wedge^{twist-q} h0(LM)."""
    return sum(
        sym_dim(twisting.h0, points - twist - p)
        * sym_dim(product.h1, i - p)
        * wedge_dim(twisting.h1, p)
        * wedge_dim(product.h0, twist - i + p)
        for p in range(i + 1)
    )


def bundle_classes(g, degree):
    """The class of a degree forced by it, or two valid classes (the smallest
    h1 and one more) in the special range 0..2g-2."""
    if 0 <= degree <= 2 * g - 2:
        lowest = max(0, g - 1 - degree)
        return [LineBundleClass.from_degree(g, degree, h1) for h1 in (lowest, lowest + 1)]
    return [LineBundleClass.from_degree(g, degree)]


def wedge_grid(max_genus):
    """(bundle, twisting, product, supplied) over g <= max_genus with both
    degrees in -3..2g+5.  A product in the special range is supplied in each
    class of bundle_classes; a forced one is left to be derived (None)."""
    for g in range(max_genus + 1):
        classes = [c for degree in range(-3, 2 * g + 6) for c in bundle_classes(g, degree)]
        for bundle in classes:
            for twisting in classes:
                products = bundle_classes(g, bundle.degree + twisting.degree)
                for product in products:
                    yield bundle, twisting, product, product if len(products) == 2 else None


class TestWedgeSecantSheaf:
    def test_collapse_to_determinant_line(self):
        # at twist = points only the p = 0 term survives and the dimension
        # is that of the determinant line bundle of the product class
        for g in range(0, 4):
            bundle = LineBundleClass.nonspecial(g, 2 * g + 5)
            twisting = LineBundleClass.nonspecial(g, 2 * g + 3)
            product = LineBundleClass.nonspecial(g, bundle.degree + twisting.degree)
            for points in (1, 2, 3, 4):
                for i in range(points + 1):
                    assert coh_wedge_secant_sheaf(
                        points, points, bundle, twisting, i
                    ) == coh_determinant_line(points, product, i)

    def test_trivial_twisting_kunneth(self):
        bundle = LineBundleClass.nonspecial(2, 7)
        twisting = LineBundleClass.trivial(2)
        assert coh_wedge_secant_sheaf(2, 1, bundle, twisting, 1) == 12

    def test_genus0_diagonal(self):
        bundle = LineBundleClass.nonspecial(0, 6)
        twisting = LineBundleClass.trivial(0)
        # only the q = i term can survive since h1 vanishes everywhere
        for i in (0, 1, 2):
            value = coh_wedge_secant_sheaf(3, 2, bundle, twisting, i)
            expected = (
                sym_dim(1, 3 - 2) * sym_dim(0, i) * wedge_dim(0, 0) * wedge_dim(7, 2 - i)
                if i == 0
                else 0
            )
            assert value == expected

    def test_ambiguous_product_raises(self):
        g = 2
        bundle = LineBundleClass.from_degree(g, 1, h1=1)
        twisting = LineBundleClass.from_degree(g, 0, h1=2)
        with pytest.raises(AmbiguousBundle):
            coh_wedge_secant_sheaf(2, 1, bundle, twisting, 0)

    def test_supplied_product_class_used(self):
        g = 2
        bundle = LineBundleClass.from_degree(g, 1, h1=1)
        twisting = LineBundleClass.from_degree(g, 0, h1=2)
        product = LineBundleClass.from_degree(g, 1, h1=1)
        value = coh_wedge_secant_sheaf(2, 1, bundle, twisting, 0, product=product)
        assert value == sym_dim(1, 1) * wedge_dim(1, 1)  # p=q=0 term

    def test_no_positivity_needed(self):
        # negative-degree inputs are fine; classes are forced there
        bundle = LineBundleClass.from_degree(2, -1)
        twisting = LineBundleClass.from_degree(2, -2)
        assert coh_wedge_secant_sheaf(2, 1, bundle, twisting, 0) == 0

    def test_mismatched_genus_rejected(self):
        with pytest.raises(DomainError):
            coh_wedge_secant_sheaf(
                2, 1, LineBundleClass.nonspecial(1, 5), LineBundleClass.trivial(2), 0
            )

    def test_twist_range_checked(self):
        bundle = LineBundleClass.nonspecial(0, 5)
        with pytest.raises(DomainError):
            coh_wedge_secant_sheaf(2, 0, bundle, bundle, 0)
        with pytest.raises(DomainError):
            coh_wedge_secant_sheaf(2, 3, bundle, bundle, 0)

    @pytest.mark.parametrize("i", [-1, 3])
    def test_index_range_checked(self, i):
        bundle = LineBundleClass.nonspecial(0, 5)
        with pytest.raises(DomainError, match=f"^cohomological index {i} must lie in 0..2$"):
            coh_wedge_secant_sheaf(2, 1, bundle, bundle, i)

    @pytest.mark.parametrize("product, expected", [
        (LineBundleClass.nonspecial(2, 9), "(2, 9), expected (2, 8)"),
        (LineBundleClass.nonspecial(3, 8), "(3, 8), expected (2, 8)"),
    ], ids=["degree", "genus"])
    def test_supplied_product_class_must_match(self, product, expected):
        bundle = LineBundleClass.nonspecial(2, 5)
        twisting = LineBundleClass.nonspecial(2, 3)
        message = f"supplied product class has (genus, degree) = {expected}"
        with pytest.raises(DomainError, match=re.escape(message)):
            coh_wedge_secant_sheaf(2, 1, bundle, twisting, 0, product)

    def test_table_and_entries_match_four_factor_sum(self):
        # special-range classes and zero supports (h1(M) = 0, h0(LM) = 0)
        # are all on the grid
        supports = set()
        for bundle, twisting, product, supplied in wedge_grid(4):
            supports.add((twisting.h1 == 0, product.h0 == 0))
            for points in range(1, 6):
                for twist in range(1, points + 1):
                    expected = [four_factor_wedge(points, twist, twisting, product, i)
                                for i in range(points + 1)]
                    table = wedge_secant_table(points, twist, bundle, twisting, supplied)
                    assert [e.dim for e in table.entries] == expected
                    assert [coh_wedge_secant_sheaf(points, twist, bundle, twisting, i, supplied)
                            for i in range(points + 1)] == expected
        assert supports == {(True, True), (True, False), (False, True), (False, False)}

    def test_table_twist_range_checked(self):
        bundle = LineBundleClass.nonspecial(0, 5)
        for twist in (0, 4):
            with pytest.raises(DomainError, match=f"twist {twist} must lie in 1..3"):
                wedge_secant_table(3, twist, bundle, bundle)

    def test_sparse_table_at_the_admission_limit_is_fast(self):
        # only one product of the two factor lists is nonzero here; summing
        # each entry's diagonal afresh took about 12 s
        bundle = LineBundleClass.from_degree(2, 999998)
        twisting = LineBundleClass.from_degree(2, 3)
        start = time.perf_counter()
        table = wedge_secant_table(1000, 500, bundle, twisting)
        assert time.perf_counter() - start < 1.0
        assert [e.dim for e in table.entries][1:] == [0] * 1000


class TestCanonicalTwist:
    def test_g2_d9_k1(self):
        inst = SecantInstance(2, 9, 1)
        assert coh_canonical_twist(inst, 1, 0) == 20
        assert coh_canonical_twist(inst, 1, 1) == 10
        assert coh_canonical_twist(inst, 5, 2) == 0

    def test_projective_space_small_twists_vanish(self):
        for k in (1, 2, 3):
            inst = SecantInstance(0, 2 * k + 1, k)
            for twist in range(1, 2 * k + 2):
                assert coh_canonical_twist(inst, twist, 0) == 0
            # the first nonvanishing twist is 2k+2, with h^0 = 1
            assert coh_canonical_twist(inst, 2 * k + 2, 0) == 1

    def test_matches_negated_chi(self):
        for g, d, k in [(1, 5, 1), (2, 11, 2), (3, 12, 1)]:
            inst = SecantInstance(g, d, k)
            chi = hilbert_polynomial(inst)
            for twist in (1, 2, 3):
                assert coh_canonical_twist(inst, twist, 0) == -chi(-twist)

    def test_order_zero_has_no_i1(self):
        assert coh_canonical_twist(SecantInstance(2, 9, 0), 3, 1) == 0

    def test_indices_around_the_support(self):
        # -chi of order k at i = 0, of order k-1 at i = 1 when k >= 1, else 0
        for g, d, k in [(0, 3, 0), (2, 9, 0), (1, 5, 1), (2, 11, 2), (0, 12, 3)]:
            inst = SecantInstance(g, d, k)
            for twist in (1, 2, 4):
                def minus_chi(order):
                    return -hilbert_polynomial(SecantInstance(g, d, order))(-twist)
                expected = {0: minus_chi(k), 1: minus_chi(k - 1) if k else 0}
                for i in (-1, 0, 1, 2, k + 1):
                    assert coh_canonical_twist(inst, twist, i) == expected.get(i, 0)

    def test_nonpositive_twist_rejected(self):
        with pytest.raises(DomainError):
            coh_canonical_twist(SecantInstance(2, 9, 1), 0, 0)


class TestTables:
    def test_sym_table_shape_and_values(self):
        inst = SecantInstance(2, 9, 1)
        table = sym_secant_table(inst, 1)
        assert table.family == "SymE"
        assert [e.i for e in table.entries] == [0, 1, 2]
        assert [e.dim for e in table.entries] == [8, 16, 0]

    def test_json_dims_are_strings(self):
        table = sym_secant_table(SecantInstance(0, 4, 1), 2)
        doc = table.to_json_dict()
        assert all(isinstance(entry["dim"], str) for entry in doc["entries"])

    def test_line_table_families(self):
        lb = LineBundleClass.nonspecial(2, 7)
        for family in ("N", "T"):
            table = line_bundle_table(family, 3, lb)
            assert table.family == family
            assert len(table.entries) == 4
        with pytest.raises(DomainError):
            line_bundle_table("X", 3, lb)

    def test_points_admission_limit(self):
        lb = LineBundleClass.nonspecial(2, 7)
        assert len(line_bundle_table("T", 1000, lb).entries) == 1001
        for points, message in [(1001, "points 1001 exceeds the maximum 1000"),
                                (-1, "points -1 must be positive")]:
            with pytest.raises(DomainError, match=message):
                line_bundle_table("N", points, lb)
            with pytest.raises(DomainError, match=message):
                wedge_secant_table(points, 1, lb, LineBundleClass.trivial(2))
            with pytest.raises(DomainError, match=message):
                coh_determinant_line(points, lb, 0)

    def test_wedge_table(self):
        bundle = LineBundleClass.nonspecial(2, 7)
        table = wedge_secant_table(2, 1, bundle, LineBundleClass.trivial(2))
        assert [e.dim for e in table.entries][1] == 12

    def test_canonical_table_full_range(self):
        table = canonical_twist_table(SecantInstance(2, 9, 1), 1)
        assert [e.dim for e in table.entries] == [20, 10, 0]

    def test_determinism(self):
        a = sym_secant_table(SecantInstance(1, 7, 2), 3)
        b = sym_secant_table(SecantInstance(1, 7, 2), 3)
        assert a == b and a.to_json_dict() == b.to_json_dict()

    def test_entries_nonnegative(self):
        for table in [
            sym_secant_table(SecantInstance(3, 13, 2), 2),
            canonical_twist_table(SecantInstance(3, 13, 2), 4),
            line_bundle_table("T", 2, LineBundleClass.canonical(3)),
        ]:
            assert all(e.dim >= 0 for e in table.entries)


def refusal(call) -> str:
    with pytest.raises(DomainError) as refused:
        call()
    return str(refused.value)


TWIST_PAST_LIMIT = 10**6 + 1
# (bundle, twisting): the first bundle of L, M and LM past the sections limit
WEDGE_PAST_LIMIT = {
    "h0 of L": (LineBundleClass.nonspecial(2, 10**9), LineBundleClass.nonspecial(2, 3)),
    "h1 of L": (LineBundleClass.from_degree(2, -10**7), LineBundleClass.nonspecial(2, 3)),
    "h0 of M": (LineBundleClass.nonspecial(2, 3), LineBundleClass.nonspecial(2, 10**9)),
    "h1 of M": (LineBundleClass.nonspecial(2, 7), LineBundleClass.from_degree(2, -10**7)),
    "h0 of LM": (LineBundleClass.nonspecial(2, 600000), LineBundleClass.nonspecial(2, 600000)),
    "h1 of LM": (LineBundleClass.from_degree(2, -600000), LineBundleClass.from_degree(2, -600000)),
}


class TestAdmissionParity:
    """A table admits its arguments once, in the order its per-entry function
    checks them, so a table and its entries refuse the same inputs with the
    same message."""

    @pytest.mark.parametrize("table, entry", [
        (sym_secant_table, coh_sym_secant_sheaf),
        (canonical_twist_table, coh_canonical_twist),
    ], ids=["SymE", "CanonicalSymE"])
    def test_twist(self, table, entry):
        inst = SecantInstance(2, 9, 1)
        message = "twist 1000001 exceeds the maximum 1000000"
        assert refusal(lambda: table(inst, TWIST_PAST_LIMIT)) == message
        for i in (0, 1):
            assert refusal(lambda: entry(inst, TWIST_PAST_LIMIT, i)) == message

    @pytest.mark.parametrize("family, entry", [
        ("N", coh_determinant_line), ("T", coh_descent_line),
    ])
    @pytest.mark.parametrize("bundle, message", [
        (LineBundleClass.nonspecial(2, 10**9), "h0 of L exceeds the maximum 1000000"),
        (LineBundleClass.from_degree(2, -10**7), "h1 of L exceeds the maximum 1000000"),
    ], ids=["h0", "h1"])
    def test_line_bundle_sections(self, family, entry, bundle, message):
        assert refusal(lambda: line_bundle_table(family, 3, bundle)) == message
        for i in range(4):
            assert refusal(lambda: entry(3, bundle, i)) == message

    @pytest.mark.parametrize("label", WEDGE_PAST_LIMIT)
    def test_wedge_sections(self, label):
        bundle, twisting = WEDGE_PAST_LIMIT[label]
        message = f"{label} exceeds the maximum 1000000"
        assert refusal(lambda: wedge_secant_table(3, 1, bundle, twisting)) == message
        for i in range(4):
            assert refusal(lambda: coh_wedge_secant_sheaf(3, 1, bundle, twisting, i)) == message

    @pytest.mark.parametrize("points, twist, bundle, twisting, product", [
        (1001, 1, LineBundleClass.nonspecial(2, 5), LineBundleClass.nonspecial(2, 3),
         LineBundleClass.nonspecial(2, 9)),
        (3, 0, LineBundleClass.nonspecial(2, 5), LineBundleClass.nonspecial(2, 3),
         LineBundleClass.nonspecial(2, 9)),
        (3, 4, LineBundleClass.nonspecial(2, 10**9), LineBundleClass.nonspecial(2, 3), None),
        (3, 1, LineBundleClass.nonspecial(2, 10**9), LineBundleClass.nonspecial(2, 3),
         LineBundleClass.nonspecial(2, 9)),
        (3, 0, LineBundleClass.nonspecial(1, 5), LineBundleClass.nonspecial(2, 3), None),
    ], ids=["points-and-product", "twist-and-product", "twist-and-sections",
            "sections-and-product", "twist-and-genera"])
    def test_wedge_precedence(self, points, twist, bundle, twisting, product):
        expected = refusal(lambda: wedge_secant_table(points, twist, bundle, twisting, product))
        # the index range is checked after the checks the table shares
        for i in (0, points + 1):
            assert refusal(lambda: coh_wedge_secant_sheaf(
                points, twist, bundle, twisting, i, product)) == expected


class TestEulerCharacteristicProfile:
    def test_alternating_sum_is_polynomial_of_variety_degree(self):
        # the alternating sum over i of the symmetric-power dimensions, as a
        # function of the twist, agrees with a polynomial of degree <= 2k+1
        # (each summand is chi of a lower-order secant variety), so its
        # (2k+2)-nd finite difference vanishes
        for g, d, k in [(0, 4, 1), (2, 9, 1), (1, 9, 2), (3, 11, 1)]:
            inst = SecantInstance(g, d, k)
            euler = []
            for twist in range(1, 2 * k + 8):
                euler.append(
                    sum(
                        (-1) ** i * coh_sym_secant_sheaf(inst, twist, i)
                        for i in range(k + 2)
                    )
                )
            order = 2 * k + 2
            diff = [
                sum((-1) ** j * binomial(order, j) * euler[n - j] for j in range(order + 1))
                for n in range(order, len(euler))
            ]
            assert diff and all(value == 0 for value in diff)
