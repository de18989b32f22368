"""Randomised checks of the engine against the independent oracles, plus
metamorphic relations between its outputs.  Draws are derandomized, so every
run checks the same instances; the fixed grids in the other test files stay
the primary coverage.  Four tests near the end compare the integer form,
evaluation and interpolation of :mod:`secantinv.exactmath`, on any and on
evenly spaced abscissae, with naive ``Fraction`` versions written here; the
next reads chi's forward differences against its certified monomial form,
and the last two check both of chi's differencing kernels against the
binomial sum for forward differences."""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from secantinv import (
    HilbertSeries,
    QPolynomial,
    SecantInstance,
    binomial,
    canonical_h0,
    cone_over_secant,
    finite_difference_numerator,
    generator_count,
    hilbert_function,
    hilbert_polynomial,
    hilbert_series,
    lagrange_interpolate,
    node_values,
    tangent_cone_at,
    variety_degree,
)

from oracles import (
    genus0_generators,
    genus0_hilbert_function,
    hypersurface_chi,
    order1_chi,
    order1_degree,
)
from test_secant_core import full_depth_node_table, horner_route_numerator

checked = settings(derandomize=True, database=None, max_examples=40, deadline=None)


@st.composite
def instances(draw, genus=st.integers(0, 6), order=st.integers(0, 5)):
    """(g, d, k) with g <= 6 and k <= 5 unless given, and d in [2g+2k+1, 2g+2k+20]."""
    g, k = draw(genus), draw(order)
    lo = 2 * g + 2 * k + 1
    return SecantInstance(g, draw(st.integers(lo, lo + 19)), k)


@checked
@given(instances(genus=st.just(0)))
def test_genus0_matches_eagon_northcott(inst):
    d, k = inst.degree, inst.order
    chi = hilbert_polynomial(inst)
    for n in range(1, 2 * k + 9):
        assert chi(n) == genus0_hilbert_function(d, k, n)
    if d >= 2 * k + 2:
        assert generator_count(inst) == genus0_generators(d, k)


@checked
@given(instances(order=st.just(1)))
def test_order1_matches_symmetric_square(inst):
    chi = hilbert_polynomial(inst)
    for m in range(9):
        assert chi(m) == order1_chi(inst.genus, inst.degree, m)


@checked
@given(st.integers(0, 1), st.integers(0, 5))
def test_hypersurface_cases(g, k):
    # d = g+2k+2 puts the secant variety in codimension one; the bound
    # d >= 2g+2k+1 leaves g = 0 (degree k+2) and g = 1 (degree d)
    d = g + 2 * k + 2
    chi = hilbert_polynomial(SecantInstance(g, d, k))
    hyp_degree = k + 2 if g == 0 else d
    for m in range(-3, 9):
        assert chi(m) == hypersurface_chi(m, 2 * k + 2, hyp_degree)


@checked
@given(instances(genus=st.integers(0, 12), order=st.integers(0, 12)))
def test_truncated_node_rows_match_full_depth_table(inst):
    assert node_values(inst).entries == full_depth_node_table(inst.genus, inst.degree, inst.order)


@checked
@given(instances(), st.integers(0, 4))
def test_coning_keeps_the_numerator(inst, vertex_count):
    cone = cone_over_secant(inst, vertex_count).series
    base = hilbert_series(inst)
    assert cone.numerator == base.numerator
    assert cone.krull_dim == base.krull_dim + vertex_count
    # the cone's ring is the base ring with vertex_count free variables
    expected = [
        sum(binomial(j + vertex_count - 1, j) * hilbert_function(inst, n - j) for j in range(n + 1))
        for n in range(2 * inst.order + 6)
    ]
    assert cone.expand(2 * inst.order + 6) == expected


@checked
@given(instances(), st.data())
def test_tangent_cone_numerator_at_one_is_the_multiplicity(inst, data):
    stratum = data.draw(st.integers(0, inst.order))
    desc = tangent_cone_at(inst, stratum)
    assert desc.series.numerator(1) == desc.multiplicity


@checked
@given(instances())
def test_series_numerator_is_nonnegative(inst):
    numerator = hilbert_series(inst).numerator
    assert numerator.coefficient(0) == 1
    assert all(c.denominator == 1 and c >= 0 for c in numerator.coefficients)
    assert numerator(1) == variety_degree(inst)


@checked
@given(instances())
def test_series_numerator_matches_horner_route(inst):
    assert hilbert_series(inst).numerator == horner_route_numerator(inst)


@st.composite
def admitted_instances(draw, genus, order):
    """(g, d, k) with g and k from ``genus`` and ``order``, and d anywhere in
    [2g+2k+1, 10**9], the admitted range."""
    g, k = draw(genus), draw(order)
    return SecantInstance(g, draw(st.integers(2 * g + 2 * k + 1, 10**9)), k)


@settings(checked, max_examples=10)
@given(admitted_instances(st.just(0), st.integers(0, 200)), st.integers(1, 403))
@example(SecantInstance(0, 10**9, 200), 403)
def test_genus0_at_any_admitted_order_and_degree(inst, twist):
    d, k = inst.degree, inst.order
    for n in (1, k + 2, 2 * k + 2, min(twist, 2 * k + 3)):
        assert hilbert_function(inst, n) == genus0_hilbert_function(d, k, n)
    if d >= 2 * k + 2:
        assert generator_count(inst) == genus0_generators(d, k)


@settings(checked, max_examples=20)
@given(admitted_instances(st.integers(0, 10**6), st.just(1)))
@example(SecantInstance(10**6, 10**9, 1))
def test_order1_at_any_admitted_genus_and_degree(inst):
    g, d = inst.genus, inst.degree
    chi = hilbert_polynomial(inst)
    for m in range(-2, 5):
        assert chi(m) == order1_chi(g, d, m)
    assert variety_degree(inst) == order1_degree(g, d)


@settings(checked, max_examples=5)
@given(admitted_instances(st.integers(31, 60), st.integers(31, 60)))
@example(SecantInstance(60, 10**9, 60))
def test_structure_above_genus_and_order_30(inst):
    # the series build checks Q(0) = 1, Q >= 0, Q(1) and the expansion at k+2
    series = hilbert_series(inst)
    assert series.numerator(1) == variety_degree(inst)
    assert canonical_h0(inst) == 1 - hilbert_polynomial(inst)(0)
    assert node_values(inst).entries == full_depth_node_table(inst.genus, inst.degree, inst.order)


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@st.composite
def nodes(draw):
    """Up to 8 nodes with distinct rational abscissae; the ordinates are
    sometimes all zero, so the zero polynomial is drawn too."""
    xs = draw(st.lists(rationals, min_size=1, max_size=8, unique=True))
    zeros = st.just([Fraction(0)] * len(xs))
    ys = draw(st.one_of(zeros, st.lists(rationals, min_size=len(xs), max_size=len(xs))))
    return list(zip(xs, ys))


def naive_horner(coefficients, x):
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


@st.composite
def series_numerators(draw):
    """(Q, K) with K in 1..12 and Q an integer polynomial of degree <= K with
    Q(0) = 1 and nonnegative coefficients."""
    krull_dim = draw(st.integers(1, 12))
    tail = draw(st.lists(st.integers(0, 10**6), max_size=krull_dim))
    return QPolynomial([1, *tail]), krull_dim


@checked
@given(series_numerators())
def test_series_expansion_and_numerator_are_inverse(case):
    numerator, krull_dim = case
    values = HilbertSeries(numerator, krull_dim).expand(krull_dim + 3)
    for n, value in enumerate(values):
        assert value == sum(
            int(numerator.coefficient(j)) * binomial(n - j + krull_dim - 1, krull_dim - 1)
            for j in range(n + 1)
        )
    assert finite_difference_numerator(values.__getitem__, krull_dim, krull_dim + 2) == numerator


def naive_lagrange(points):
    """Ascending monomial coefficients of sum_j y_j prod_{m != j} (t - x_m)/(x_j - x_m)."""
    total = [Fraction(0)] * len(points)
    for j, (xj, yj) in enumerate(points):
        basis = [Fraction(1)]
        for m, (xm, _) in enumerate(points):
            if m != j:
                basis = [a - xm * b for a, b in zip([Fraction(0), *basis], [*basis, Fraction(0)])]
                basis = [c / (xj - xm) for c in basis]
        total = [a + yj * b for a, b in zip(total, basis)]
    return total


@checked
@given(nodes(), st.lists(rationals, max_size=6))
def test_evaluation_matches_naive_fraction_horner(points, extra):
    coefficients = naive_lagrange(points)
    poly = QPolynomial(coefficients)
    for x in [x for x, _ in points] + extra:
        assert poly(x) == naive_horner(coefficients, x)
        assert QPolynomial.zero()(x) == 0
    for x, y in points:
        assert poly(x) == y


@checked
@given(nodes())
def test_interpolation_matches_naive_fraction_lagrange(points):
    poly = lagrange_interpolate(points)
    assert poly == QPolynomial(naive_lagrange(points))
    for x, y in points:
        assert naive_horner(poly.coefficients, x) == y


@st.composite
def evenly_spaced_nodes(draw):
    """Up to 8 nodes at offset + j*step, with a rational offset and a
    nonzero rational step of either sign; the ordinates are sometimes all
    zero."""
    offset = draw(rationals)
    step = draw(st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool))
    count = draw(st.integers(1, 8))
    zeros = st.just([Fraction(0)] * count)
    ys = draw(st.one_of(zeros, st.lists(rationals, min_size=count, max_size=count)))
    return [(offset + j * step, y) for j, y in enumerate(ys)]


@checked
@given(evenly_spaced_nodes())
def test_evenly_spaced_interpolation_matches_naive_fraction_lagrange(points):
    """On evenly spaced rational abscissae, off the unit-step int front,
    the divided-difference table runs over ``Fraction``s and the result is
    the certified monomial form over a positive denominator: its degree,
    leading coefficient and integer values are the twin's, and it equals,
    and hashes as, its monomial twin."""
    poly = lagrange_interpolate(points)
    naive = naive_lagrange(points)
    twin = QPolynomial(naive)
    assert poly.degree == twin.degree
    if twin.degree >= 0:
        assert poly.leading_coefficient == twin.leading_coefficient
    for t in range(-3, 4):
        assert poly(t) == naive_horner(naive, t)
    assert poly == lagrange_interpolate(points)
    assert hash(poly) == hash(twin) and poly == twin
    assert poly.denominator > 0 and poly.coefficients == twin.coefficients


@st.composite
def integer_forms(draw):
    """(numerators, D) with D > 0: the numerators are sometimes all zero, so
    the zero polynomial is drawn too, may be negative, end in 0 to 3 zeros,
    and share a factor drawn with D."""
    values = st.integers(-10**6, 10**6)
    numerators = draw(st.one_of(st.lists(st.just(0), max_size=3), st.lists(values, max_size=8)))
    shared = draw(st.sampled_from([1, 2, 6, 35, 10**20]))
    numerators = [n * shared for n in numerators] + [0] * draw(st.integers(0, 3))
    return numerators, draw(st.integers(1, 10**4)) * shared


@checked
@given(integer_forms(), st.lists(rationals, max_size=4))
def test_integer_form_matches_the_fraction_constructor(form, points):
    numerators, denominator = form
    fractions = [Fraction(n, denominator) for n in numerators]
    built, given = QPolynomial._over(numerators, denominator), QPolynomial(fractions)
    assert built == given and hash(built) == hash(given)
    assert built.denominator > 0 and math.gcd(built.denominator, *built.numerators) == 1
    top = max((j for j, n in enumerate(numerators) if n), default=-1)
    assert built.degree == given.degree == top
    if top < 0:
        with pytest.raises(ValueError):
            built.leading_coefficient
    else:
        assert built.leading_coefficient == given.leading_coefficient == fractions[top]
    for x in points:
        assert built(x) == given(x) == naive_horner(fractions, x)
    assert built.coefficients == given.coefficients == tuple(fractions[:top + 1])
    assert all(type(c) is Fraction for c in built.coefficients)
    assert repr(built) == repr(given)


@checked
@given(st.integers(0, 60), st.integers(0, 60), st.data())
def test_difference_form_reads_like_its_certified_monomial_form(g, k, data):
    """chi is held as its forward differences D_0..D_{2k+1} on -k..k+1 and
    read from them as integers; its monomial form, certified when built,
    must give the same values, degree and equality."""
    import secantinv.secant_core as core

    lo = 2 * g + 2 * k + 1
    d = data.draw(st.one_of(st.integers(lo, lo + 20), st.integers(lo, 10**9)), label="d")
    far = data.draw(st.integers(1, 10**6), label="far twist")
    inst = SecantInstance(g, d, k)
    chi = core._chi(g, d, k)
    twin = QPolynomial._over(chi.numerators, chi.denominator)
    assert "_differences" not in vars(twin) and chi._differences[0] == -k
    assert chi == twin and twin == chi and hash(chi) == hash(twin)
    assert chi.degree == twin.degree == 2 * k + 1
    assert chi.leading_coefficient == twin.leading_coefficient
    assert variety_degree(inst) == twin.leading_coefficient * math.factorial(2 * k + 1)
    for t in [*range(-k - 3, k + 4), far]:
        value = twin(t)
        read = chi(t)
        assert read == value and type(read) is Fraction
        if t > 0:
            assert hilbert_function(inst, t) == value


def forward_differences(ys):
    """D_0..D_{n-1} of ``ys`` by the binomial sum D_m = sum_i (-1)^(m-i)
    C(m, i) y_i, with the top zeros dropped: an oracle that shares no
    differencing loop with the two kernels it checks."""
    differences = [sum((-1) ** (m - i) * math.comb(m, i) * ys[i] for i in range(m + 1))
                   for m in range(len(ys))]
    while differences and not differences[-1]:
        differences.pop()
    return tuple(differences)


@st.composite
def int_rows(draw):
    """Int rows of 1 to 60 values up to 10**80 in size, sometimes all zero
    or all equal, so that the top differences vanish."""
    n = draw(st.integers(1, 60))
    big = st.integers(-10**80, 10**80)
    return draw(st.one_of(
        st.lists(st.one_of(st.integers(-9, 9), big), min_size=n, max_size=n),
        st.just([0] * n),
        big.map(lambda y: [y] * n),
    ))


@checked
@given(int_rows(), st.integers(-10**30, 10**30))
@example([(-1) ** i * 10**80 for i in range(60)], -10**30)
def test_int_front_differences_match_the_binomial_sum(ys, a):
    """On int ordinates at a, a+1, ..., the in-place subtraction table holds
    the forward differences the binomial sum gives."""
    poly = lagrange_interpolate(list(zip(range(a, a + len(ys)), ys)))
    assert poly._differences == (a, forward_differences(ys))


@checked
@given(st.one_of(st.integers(0, 8), st.integers(0, 10**6)), st.integers(0, 40), st.data())
def test_closed_form_differences_match_the_binomial_sum(g, k, data):
    """The closed form's in-place differencing of the node row gives the
    forward differences the binomial sum gives, on admitted (g, d, k)."""
    import secantinv.secant_core as core

    lo = 2 * g + 2 * k + 1
    d = data.draw(st.one_of(st.integers(lo, lo + 20), st.integers(lo, 10**9)), label="d")
    nodes = core._node_values(g, d, k)
    assert core._closed_form(g, d, k)._differences[1] == forward_differences(nodes)
