import sys
import threading
from fractions import Fraction

import pytest

from secantinv import (
    DuplicateNode,
    NonvanishingTail,
    QPolynomial,
    binomial,
    binomial_poly,
    finite_difference_numerator,
    format_rational,
    lagrange_interpolate,
    parse_rational,
)


class TestBinomial:
    def test_small_case(self):
        assert binomial(5, 2) == 10

    def test_upper_smaller_than_lower(self):
        # realizes C(g, i) = 0 for i > g in the node recursion
        assert binomial(2, 5) == 0

    def test_negative_upper(self):
        assert binomial(-1, 2) == 1  # (-1)(-2)/2!

    def test_negative_lower_is_zero(self):
        assert binomial(7, -1) == 0
        assert binomial(-3, -2) == 0

    def test_pascal_identity_on_grid(self):
        for n in range(-50, 51):
            for j in range(1, 51):
                assert binomial(n, j) == binomial(n - 1, j - 1) + binomial(n - 1, j)


class TestBinomialPoly:
    def test_degree_one(self):
        assert binomial_poly(0, 1) == QPolynomial([0, 1])

    def test_degree_two(self):
        # (t+1)t/2
        assert binomial_poly(1, 2) == QPolynomial([0, Fraction(1, 2), Fraction(1, 2)])

    def test_k1_factor(self):
        # (t+1)t(t-1)(t-2)/24, the degree-4 node factor for order 1
        poly = binomial_poly(1, 4)
        assert poly.degree == 4
        for root in (-1, 0, 1, 2):
            assert poly(root) == 0
        assert poly(3) == 1

    def test_agrees_with_binomial_at_integers(self):
        for shift in range(-6, 7):
            for lower in range(0, 7):
                poly = binomial_poly(shift, lower)
                for t0 in range(-10, 11):
                    assert poly(t0) == binomial(t0 + shift, lower)

    def test_negative_lower_rejected(self):
        with pytest.raises(ValueError):
            binomial_poly(0, -1)

    # 401 = 2*200+1, the highest degree chi has; the product takes time
    # quadratic in lower, so a larger one is refused before any of it
    @pytest.mark.parametrize("lower", [402, 10**6, 10**4300], ids=["402", "10**6", "10**4300"])
    def test_lower_above_the_top_chi_degree_rejected(self, lower):
        with pytest.raises(ValueError, match="^lower index of binomial_poly must be at most 401$"):
            binomial_poly(0, lower)


class TestQPolynomial:
    def test_zero_normalization(self):
        assert QPolynomial([0, 0]).is_zero
        assert QPolynomial([1, 2, 0, 0]).degree == 1

    def test_zero_degree_is_minus_one(self):
        assert QPolynomial.zero().degree == -1

    def test_arithmetic(self):
        p = QPolynomial([1, 1])  # 1 + t
        q = QPolynomial([-1, 1])  # -1 + t
        assert p * q == QPolynomial([-1, 0, 1])
        assert p + q == QPolynomial([0, 2])
        assert p - p == QPolynomial.zero()
        assert 3 * p == QPolynomial([3, 3])

    def test_evaluation_horner(self):
        p = QPolynomial([1, 2, Fraction(3, 2), Fraction(1, 2)])
        assert p(2) == 1 + 4 + 6 + 4

    def test_evaluation_leaves_equality_hash_and_repr(self):
        p = QPolynomial([Fraction(1, 2), Fraction(-3, 4), Fraction(5, 6)])
        q = QPolynomial.from_strings(p.to_strings())
        assert p(Fraction(7, 3)) == Fraction(1, 2) - Fraction(7, 4) + Fraction(245, 54)
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
        assert p(-2) == q(-2)  # q scaled on its first call, p reuses its scaling
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)

    def test_divide_by_linear(self):
        p = QPolynomial([-6, 11, -6, 1])  # (t-1)(t-2)(t-3)
        quotient, remainder = p.divide_by_linear(3)
        assert remainder == 0
        assert quotient == QPolynomial([2, -3, 1])
        _, remainder = p.divide_by_linear(4)
        assert remainder == p(4) != 0

    def test_int_fraction_and_string_coefficients_agree(self):
        polys = [
            QPolynomial([1, 0, -2, 0, 0]),
            QPolynomial([Fraction(1), Fraction(0), Fraction(-4, 2), Fraction(0)]),
            QPolynomial(["1", "0", "-2", "0/3"]),
        ]
        for p in polys:
            assert p == polys[0] and hash(p) == hash(polys[0]) and repr(p) == repr(polys[0])
            assert p.coefficients == (Fraction(1), Fraction(0), Fraction(-2))
            assert all(type(c) is Fraction for c in p.coefficients)

    def test_fraction_subclass_is_stored_as_fraction(self):
        class Tagged(Fraction):
            pass

        p = QPolynomial([Tagged(1, 2), Tagged(0)])
        assert p.coefficients == (Fraction(1, 2),)
        assert type(p.coefficients[0]) is Fraction

    def test_string_round_trip(self):
        p = QPolynomial([1, Fraction(-3, 7), 0, 5])
        assert QPolynomial.from_strings(p.to_strings()) == p
        assert p.to_strings() == ["1", "-3/7", "0", "5"]

    def test_str_rendering(self):
        assert str(QPolynomial([1, 2, Fraction(3, 2)])) == "3/2*t^2 + 2*t + 1"
        assert str(QPolynomial.zero()) == "0"

    def test_str_skips_zero_coefficients(self):
        assert str(QPolynomial([1, 0, 1])) == "t^2 + 1"

    def test_zero_has_no_leading_coefficient(self):
        with pytest.raises(ValueError, match="the zero polynomial has no leading coefficient"):
            QPolynomial.zero().leading_coefficient

    @pytest.mark.parametrize("left, right", [
        (QPolynomial.zero(), QPolynomial([1, 2, 3])),
        (QPolynomial([1, 2, 3]), QPolynomial.zero()),
        (QPolynomial.zero(), QPolynomial.zero()),
    ], ids=["zero-left", "zero-right", "both-zero"])
    def test_zero_products(self, left, right):
        product = left * right
        assert product == QPolynomial.zero()
        assert product.coefficients == () and product.degree == -1

    def test_divide_zero_by_linear(self):
        assert QPolynomial.zero().divide_by_linear(3) == (QPolynomial.zero(), 0)

    @pytest.mark.parametrize("name", ["coefficients", "numerators", "denominator", "other"])
    def test_assigning_an_attribute_raises(self, name):
        p = QPolynomial([1, Fraction(-3, 4)])
        with pytest.raises(AttributeError):
            setattr(p, name, ())
        with pytest.raises(AttributeError):
            delattr(p, name)
        assert p == QPolynomial(["1", "-3/4"]) and p.coefficients == (1, Fraction(-3, 4))

    def test_threads_reading_one_fresh_polynomial_get_equal_coefficients(self):
        expected = tuple(Fraction(7 * j - 100, 2 * 3 * 5 * 7) for j in range(60))
        p = QPolynomial(expected)
        start = threading.Barrier(8)
        seen = []

        def read():
            start.wait(timeout=10)
            seen.append(p.coefficients)

        threads = [threading.Thread(target=read) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 and all(coefficients == expected for coefficients in seen)

    def test_threads_expanding_one_newton_form_get_one_integer_form(self):
        # a polynomial held in Newton form builds its integer form on the
        # first read; eight threads read it at once
        nodes = [(x, 3 * x**5 - 7 * x + 11) for x in range(-20, 21)]
        expected = QPolynomial([11, -7, 0, 0, 0, 3])
        p = lagrange_interpolate(nodes)
        assert "numerators" not in vars(p)
        start = threading.Barrier(8)
        seen = []

        def read():
            start.wait(timeout=10)
            seen.append((p.denominator, p.numerators))

        threads = [threading.Thread(target=read) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [(1, (11, -7, 0, 0, 0, 3))] * 8 and p == expected


class TestRationalFormat:
    def test_integer_renders_bare(self):
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(-7) == "-7"

    def test_fraction_renders_lowest_terms(self):
        assert format_rational(Fraction(6, -4)) == "-3/2"

    def test_parse_round_trip(self):
        for text in ["0", "-3/2", "22/7", "5"]:
            assert format_rational(parse_rational(text)) == text

    def test_matches_the_fraction_spelling(self):
        def reference(value):  # the definition that built a Fraction for every value
            q = Fraction(value)
            if q.denominator == 1:
                return str(q.numerator)
            return f"{q.numerator}/{q.denominator}"

        long = 10**3999 + 7  # 4,000 digits
        values = [0, 1, -1, 26, -7, True, False, long, -long,
                  Fraction(0), Fraction(4, 2), Fraction(-3, 2), Fraction(6, -4),
                  Fraction(long, 3), Fraction(-1, long), Fraction(long, long - 1)]
        for value in values:
            assert format_rational(value) == reference(value), value
        assert (format_rational(True), format_rational(False)) == ("1", "0")

    def test_lowest_terms_after_arithmetic(self):
        import math

        q = Fraction(3, 4) + Fraction(1, 4)
        assert (q.denominator, q.numerator) == (1, 1)
        r = Fraction(10, 4) * Fraction(2, 5)
        assert math.gcd(abs(r.numerator), r.denominator) == 1
        assert r.denominator > 0


class TestLagrange:
    def test_single_node(self):
        assert lagrange_interpolate([(0, 1)]) == QPolynomial([1])

    def test_line_through_two_points(self):
        assert lagrange_interpolate([(0, 1), (1, 5)]) == QPolynomial([1, 4])

    def test_cubic_from_finite_difference_table(self):
        # the genus-0, degree-4, order-1 Hilbert data; next value is 34
        poly = lagrange_interpolate([(-1, 0), (0, 1), (1, 5), (2, 15)])
        assert poly.degree == 3
        assert poly(3) == 34

    def test_reproduces_every_node_exactly(self):
        nodes = [
            (Fraction(-3, 2), Fraction(7, 5)),
            (0, -2),
            (Fraction(1, 3), Fraction(11, 9)),
            (4, 0),
            (7, Fraction(-1, 2)),
        ]
        poly = lagrange_interpolate(nodes)
        for x, y in nodes:
            assert poly(x) == Fraction(y)

    def test_duplicate_abscissa_rejected(self):
        with pytest.raises(DuplicateNode):
            lagrange_interpolate([(1, 2), (1, 3)])

    @pytest.mark.parametrize("a, b", [
        (1, Fraction(2, 2)),
        (Fraction(1, 2), Fraction(2, 4)),
        ("1/2", Fraction(1, 2)),
    ])
    def test_equal_abscissae_of_mixed_types_rejected(self, a, b):
        with pytest.raises(DuplicateNode):
            lagrange_interpolate([(a, 2), (0, 1), (b, 3)])

    def test_string_nodes_are_parsed(self):
        poly = lagrange_interpolate([("1/2", 1), (1, "3"), (Fraction(5, 3), 0)])
        assert poly.to_strings() == ["-65/14", "209/14", "-51/7"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lagrange_interpolate([])


class TestFiniteDifferenceNumerator:
    @staticmethod
    def _projective_line(n: int) -> int:
        return n + 1 if n >= 0 else 0

    def test_polynomial_ring(self):
        q = finite_difference_numerator(self._projective_line, 2, 4)
        assert q == QPolynomial([1])

    def test_catalecticant_numerator(self):
        values = {0: 1, 1: 5, 2: 15, 3: 34, 4: 65, 5: 111, 6: 175, 7: 260, 8: 369}
        q = finite_difference_numerator(
            lambda n: values.get(n, 0) if n >= 0 else 0, 4, 6
        )
        assert q == QPolynomial([1, 1, 1])
        assert q(1) == 3  # degree of the catalecticant cubic

    def test_perturbed_value_raises(self):
        values = {0: 1, 1: 5 + 1, 2: 15, 3: 34, 4: 65, 5: 111, 6: 175}
        with pytest.raises(NonvanishingTail):
            finite_difference_numerator(
                lambda n: values.get(n, 0) if n >= 0 else 0, 4, 6
            )

    def test_values_read_at_nonnegative_twists_only(self):
        values = [1, 5, 15, 34, 65, 111, 175]

        def strict(n: int) -> int:
            if n < 0:
                raise AssertionError(f"read at twist {n}")
            return values[n]

        q = finite_difference_numerator(strict, 4, 6)
        assert q == finite_difference_numerator(
            lambda n: values[n] if n >= 0 else 0, 4, 6
        )
        assert q == QPolynomial([1, 1, 1])

    def test_inverse_expansion_round_trip(self):
        from secantinv import binomial as binom

        for krull in (2, 3, 4):
            cutoff = krull + 3

            def values(n: int, krull=krull) -> int:
                # Hilbert function of P^{krull-1}
                return binom(n + krull - 1, krull - 1) if n >= 0 else 0

            q = finite_difference_numerator(values, krull, cutoff)
            for twist in range(cutoff + 1):
                expanded = sum(
                    int(q.coefficient(n)) * binom(twist - n + krull - 1, krull - 1)
                    for n in range(q.degree + 1)
                )
                assert expanded == values(twist)

    def test_bad_cutoff_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_numerator(self._projective_line, 2, 2)

    def test_krull_dim_zero_rejected(self):
        with pytest.raises(ValueError, match="krull_dim must be positive"):
            finite_difference_numerator(self._projective_line, 0, 4)
