"""The render layer reads only a payload's wire strings.

The speller of :mod:`secantinv.exactmath` is checked against the
``Fraction``-based spelling it replaced, in text and LaTeX, and the JSON
writer of :mod:`secantinv.cli` against ``json.dumps(value, indent=2,
sort_keys=True)``.  Draws are derandomized, so every run checks the same
values."""

import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from secantinv import QPolynomial, format_rational
from secantinv.cli import FORMATS, _json, latex_polynomial, run

checked = settings(derandomize=True, database=None, deadline=None)


# --- the speller -------------------------------------------------------------

def fraction_spell(poly, coefficient, monomial, times):
    """``QPolynomial.spell`` as it was, reading the ``Fraction`` coefficients:
    the reference for the speller over wire strings."""
    parts = []
    for power in range(poly.degree, -1, -1):
        c = poly.coefficients[power]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if power == 0:
            body = coefficient(mag)
        elif mag == 1:
            body = monomial(power)
        else:
            body = f"{coefficient(mag)}{times}{monomial(power)}"
        parts.append(f"{sign} {body}" if parts else (f"-{body}" if c < 0 else body))
    return " ".join(parts) or "0"


def fraction_latex_rational(value):
    if value.denominator == 1:
        return str(value.numerator)
    return f"\\frac{{{value.numerator}}}{{{value.denominator}}}"


def reference_text(poly):
    return fraction_spell(poly, format_rational, lambda n: "t" if n == 1 else f"t^{n}", "*")


def reference_latex(poly):
    return fraction_spell(poly, fraction_latex_rational,
                          lambda n: "t" if n == 1 else f"t^{{{n}}}", " ")


coefficients = st.lists(
    st.one_of(st.just(0), st.sampled_from([1, -1]), st.integers(-10**30, 10**30),
              st.fractions(max_denominator=10**6)),
    max_size=9,
)


@settings(checked, max_examples=40)
@given(coefficients)
@example([])
@example([0, 0, 0])
@example([Fraction(1, 2), 0, 0, 1])
@example([0, 0, -1])
@example([-7, 0, Fraction(-3, 2), 0, 0, Fraction(-1, 1)])
@example([1, -1, 1, -1])
@example([Fraction(10**40, 3), 0, Fraction(-5, 7)])
def test_the_speller_matches_the_fraction_spelling(values):
    poly = QPolynomial(values)
    assert poly.to_strings() == [format_rational(c) for c in poly.coefficients]
    assert str(poly) == reference_text(poly)
    assert latex_polynomial(poly.to_strings()) == reference_latex(poly)


def test_the_speller_spells_signs_units_and_gaps():
    spelled = [str(QPolynomial(values)) for values in
               ([], [0, 0, -1], [Fraction(1, 2), 0, 0, 1], [3, -1], [Fraction(-3, 2)])]
    assert spelled == ["0", "-t^2", "t^3 + 1/2", "-t + 3", "-3/2"]
    poly = QPolynomial([Fraction(-1, 2), 0, Fraction(7, 3), -1])
    assert latex_polynomial(poly.to_strings()) == "-t^{3} + \\frac{7}{3} t^{2} - \\frac{1}{2}"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("command", ["hilbert", "series"])
def test_polynomial_documents_read_only_the_wire_strings(monkeypatch, command, fmt):
    argv = [command, "--genus", "2", "--degree", "9", "--order", "1", "--format", fmt]
    before = io.StringIO()
    assert run(argv, before, io.StringIO()) == 0

    def refuse(cls, items):
        raise AssertionError("a layout parsed its wire strings back into a polynomial")

    monkeypatch.setattr(QPolynomial, "from_strings", classmethod(refuse))
    after = io.StringIO()
    assert run(argv, after, io.StringIO()) == 0
    assert after.getvalue() == before.getvalue()


# --- the JSON writer -----------------------------------------------------------

def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


tricky_text = st.sampled_from(['', '"', '\\', '\\"', "\x00\x1f\x7f", "\n\t\r\b\f", "é€",
                               "\U0001f600", "\ud800", "a/b", "-0"])
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**60, 10**60),
    st.floats(), st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324]),
    st.text(max_size=8), tricky_text,
)
keys = st.one_of(st.text(max_size=6), tricky_text)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=12,
)


@settings(checked, max_examples=80)
@given(values)
@example({})
@example([])
@example({"a": {}, "b": [], "c": [[], {}], "": [{}]})
@example([10**100, -10**100, -0.0, math.nan, math.inf, -math.inf])
@example({"é": "€", '"q"': "\\", "\x01": "\x1f\n"})
@example({"cells": [{"value": "12", "genus": 0}], "passed": True, "failed": None})
def test_the_json_writer_gives_the_stdlib_bytes(value):
    assert _json(value) == dumps(value)
