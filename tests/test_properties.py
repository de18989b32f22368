"""Randomised checks of the engine against the independent oracles, plus
metamorphic relations between its outputs.  Draws are derandomized, so every
run checks the same instances; the fixed grids in the other test files stay
the primary coverage."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from secantinv import (
    SecantInstance,
    binomial,
    cone_over_secant,
    generator_count,
    hilbert_function,
    hilbert_polynomial,
    hilbert_series,
    tangent_cone_at,
    variety_degree,
)

from oracles import (
    genus0_generators,
    genus0_hilbert_function,
    hypersurface_chi,
    order1_chi,
)

checked = settings(derandomize=True, database=None, max_examples=40, deadline=None)


@st.composite
def instances(draw, genus=st.integers(0, 6), order=st.integers(0, 5)):
    """(g, d, k) with g <= 6, k <= 5 and d in [2g+2k+1, 2g+2k+20]."""
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
