"""Each cohomology table against its public per-entry function.

A table admits its arguments once and computes every entry by the kernel
its per-entry function shares.  These derandomized draws read each table,
entry by entry, against the per-entry function at every index, and check
that a bad twist, points, sections or bundle argument makes the table raise
the same exception, with the same message, as the per-entry route: the
per-entry function at index 0, then at every other index, after the checks
the table made before its first entry."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from secantinv import (
    DomainError,
    LineBundleClass,
    SecantInstance,
    canonical_twist_table,
    coh_canonical_twist,
    coh_descent_line,
    coh_determinant_line,
    coh_sym_secant_sheaf,
    coh_wedge_secant_sheaf,
    line_bundle_table,
    sym_secant_table,
    wedge_secant_table,
)
from secantinv.secant_core import _admit

checked = settings(derandomize=True, database=None, max_examples=25, deadline=None)


def per_entry(entry, count) -> list[int]:
    """entry(0), then entry(i) for i = 1..count()-1: ``count`` is read only
    after index 0 has admitted the arguments it depends on."""
    first = entry(0)
    return [first, *(entry(i) for i in range(1, count()))]


def outcome(call):
    """The value of ``call()``, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # every refusal is compared, whatever its type
        return type(exc), str(exc)


def dims(table) -> list[int]:
    assert [entry.i for entry in table.entries] == list(range(len(table.entries)))
    return [entry.dim for entry in table.entries]


@st.composite
def instances(draw):
    """(g, d, k) with g <= 8, k <= 6 and d in [2g+2k+1, 2g+2k+12]: g = 0,
    g > k and g < k are all drawn."""
    g, k = draw(st.integers(0, 8)), draw(st.integers(0, 6))
    lo = 2 * g + 2 * k + 1
    return SecantInstance(g, draw(st.integers(lo, lo + 11)), k)


# Twists no table admits, and some it does, of every type the integer checks
# see: ints beyond each limit, ints too long to print, and non-integers.
bad_twists = st.one_of(
    st.integers(-10**7, 2), st.integers(10**6 - 1, 10**30),
    st.sampled_from([10**4300, -10**4300, 10**4300 - 1, -(10**4300 - 1), 10**4000]),
    st.fractions(-10**7, 10**7 + 1).filter(lambda f: f.denominator != 1),
    st.sampled_from([1.5, 2.0, -0.5, 0.0, 10**7 + 0.5, 1e7]),
)


@checked
@given(instances(), st.sampled_from([0, 1, 2, 10**6]))
@example(SecantInstance(0, 7, 3), 1)
@example(SecantInstance(6, 19, 2), 10**6)
@example(SecantInstance(2, 15, 5), 0)
def test_sym_table_matches_its_entries(inst, twist):
    table = sym_secant_table(inst, twist)
    assert {entry.twist for entry in table.entries} == {twist}
    assert dims(table) == [coh_sym_secant_sheaf(inst, twist, i) for i in range(inst.order + 2)]


@checked
@given(instances(), st.sampled_from([1, 2, 10**6]))
@example(SecantInstance(0, 7, 3), 10**6)
@example(SecantInstance(6, 19, 2), 1)
@example(SecantInstance(2, 15, 5), 2)
def test_canonical_table_matches_its_entries(inst, twist):
    table = canonical_twist_table(inst, twist)
    assert {entry.twist for entry in table.entries} == {twist}
    assert dims(table) == [coh_canonical_twist(inst, twist, i) for i in range(inst.order + 2)]


@checked
@given(instances(), bad_twists)
@example(SecantInstance(0, 7, 3), 10**6 + 1)
@example(SecantInstance(0, 7, 3), 10**4300)
@example(SecantInstance(2, 9, 1), Fraction(3, 2))
def test_secant_tables_refuse_as_their_entries(inst, twist):
    for table, entry in ((sym_secant_table, coh_sym_secant_sheaf),
                         (canonical_twist_table, coh_canonical_twist)):
        expected = outcome(lambda: per_entry(lambda i: entry(inst, twist, i),
                                             lambda: inst.order + 2))
        got = outcome(lambda: dims(table(inst, twist)))
        assert got == expected


@st.composite
def bundles(draw, genus, degrees=st.integers(-3, 12)):
    """A class of ``genus`` with a degree from ``degrees``: in the special
    range 0..2g-2 with h1 the smallest possible or one more."""
    degree = draw(degrees)
    if 0 <= degree <= 2 * genus - 2:
        return LineBundleClass.from_degree(genus, degree, max(0, genus - 1 - degree)
                                           + draw(st.integers(0, 1)))
    return LineBundleClass.from_degree(genus, degree)


ENTRY = {"N": coh_determinant_line, "T": coh_descent_line}


def line_route(family, points, bundle) -> list[int]:
    """The per-entry route of the line table: points admitted as an integer
    >= 1, then the family, then each entry."""
    _admit("points", points, 1)
    if family not in ENTRY:
        raise DomainError(f"unknown line-bundle family {family!r}, expected N or T")
    return per_entry(lambda i: ENTRY[family](points, bundle, i), lambda: points + 1)


@settings(checked, max_examples=30)
@given(st.sampled_from("NT"), st.integers(1, 1000), st.integers(0, 4).flatmap(bundles))
@example("N", 1000, LineBundleClass.canonical(2))
@example("T", 1000, LineBundleClass.trivial(3))
def test_line_table_matches_its_entries(family, points, bundle):
    table = line_bundle_table(family, points, bundle)
    assert {entry.twist for entry in table.entries} == {None}
    assert dims(table) == [ENTRY[family](points, bundle, i) for i in range(points + 1)]


# Degrees whose h0 or h1 is near the sections limit 10**6, or small.
wide_degrees = st.one_of(st.integers(-3, 8), st.integers(-2 * 10**6, 2 * 10**6))


@settings(checked, max_examples=60)
@given(st.sampled_from(["N", "T", "T", "N", "X"]),
       st.one_of(st.integers(1, 4), st.integers(-3, 4), st.integers(999, 1002),
                 st.sampled_from([10**4300, -10**4300, 1.5, 1001.5, Fraction(5, 2)])),
       st.integers(0, 3).flatmap(lambda g: bundles(g, wide_degrees)))
@example("X", 0, LineBundleClass.trivial(2))
@example("X", 1001, LineBundleClass.trivial(2))
@example("N", 1001.5, LineBundleClass.trivial(2))
@example("T", 3, LineBundleClass.nonspecial(2, 10**7))
def test_line_table_refuses_as_its_entries(family, points, bundle):
    expected = outcome(lambda: line_route(family, points, bundle))
    assert outcome(lambda: dims(line_bundle_table(family, points, bundle))) == expected


@st.composite
def wedge_arguments(draw, points=st.integers(1, 12), degrees=st.integers(-3, 12),
                    genera=st.integers(0, 3), twists=None, ambiguous=False):
    """(points, twist, L, M, product): the product class supplied or derived,
    and always supplied when its degree is in the special range unless
    ``ambiguous``."""
    g = draw(genera)
    m = draw(points)
    twist = draw(twists if twists is not None else st.integers(1, m))
    bundle = draw(bundles(g, degrees))
    twisting = draw(bundles(draw(st.sampled_from([g, g, g, g + 1])), degrees))
    total = bundle.degree + twisting.degree
    product = None
    if (0 <= total <= 2 * g - 2 and not ambiguous) or draw(st.booleans()):
        product = draw(bundles(g, st.just(total)))
    return m, twist, bundle, twisting, product


def wedge_route(points, twist, bundle, twisting, product) -> list[int]:
    return per_entry(lambda i: coh_wedge_secant_sheaf(points, twist, bundle, twisting, i, product),
                     lambda: points + 1)


@settings(checked, max_examples=40)
@given(wedge_arguments().filter(lambda a: a[2].genus == a[3].genus))
@example((4, 2, LineBundleClass.nonspecial(2, 9), LineBundleClass.nonspecial(2, 7), None))
@example((4, 2, LineBundleClass.nonspecial(2, 9), LineBundleClass.nonspecial(2, 7),
          LineBundleClass.nonspecial(2, 16)))
@example((3, 1, LineBundleClass.canonical(2), LineBundleClass.trivial(2),
          LineBundleClass.canonical(2)))
def test_wedge_table_matches_its_entries(arguments):
    points, twist, bundle, twisting, product = arguments
    table = wedge_secant_table(points, twist, bundle, twisting, product)
    assert {entry.twist for entry in table.entries} == {twist}
    assert dims(table) == wedge_route(points, twist, bundle, twisting, product)


@settings(checked, max_examples=60)
@given(wedge_arguments(points=st.one_of(st.integers(1, 4), st.integers(1, 4), st.integers(-1, 0),
                                        st.sampled_from([1001, 1.5])),
                       degrees=wide_degrees, ambiguous=True,
                       twists=st.one_of(st.integers(1, 4), st.integers(1, 4), st.integers(-1, 6),
                                        st.sampled_from([1.5, 10**4300]))))
@example((3, 1, LineBundleClass.canonical(2), LineBundleClass.trivial(3), None))
@example((3, 1, LineBundleClass.canonical(2), LineBundleClass.trivial(2),
          LineBundleClass.nonspecial(2, 9)))
@example((3, 0, LineBundleClass.nonspecial(2, 10**7), LineBundleClass.trivial(2), None))
@example((3, 1, LineBundleClass.nonspecial(2, 600000), LineBundleClass.nonspecial(2, 600000), None))
def test_wedge_table_refuses_as_its_entries(arguments):
    expected = outcome(lambda: wedge_route(*arguments))
    assert outcome(lambda: dims(wedge_secant_table(*arguments))) == expected
