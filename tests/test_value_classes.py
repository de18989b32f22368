"""The package's value classes and what a one-shot request imports.

The value classes were frozen dataclasses; they are plain immutable classes
now, so these tests pin what callers could see of the dataclasses: the
``repr`` spelling, equality and hashing by class and fields, refusal to
assign or delete a field, and the constructor signature.  The expected
strings were recorded from the dataclasses.  The last test runs in a fresh
interpreter and pins which standard-library modules a request loads."""

import inspect
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Optional

import pytest

from secantinv import (
    ConeOverSecant,
    HilbertSeries,
    LineBundleClass,
    NodeValues,
    QPolynomial,
    SecantInstance,
    TangentConeDescriptor,
    cone_over_secant,
    hilbert_series,
    node_values,
    sym_secant_table,
    tangent_cone_at,
)
from secantinv.cli import Document
from secantinv.cohomology import CohomologyTable, TableEntry
from secantinv.validation import CheckResult

SRC = Path(__file__).resolve().parent.parent / "src"
EMPTY = inspect.Parameter.empty

# (build, repr recorded from the dataclass); build makes a new instance per call
SAMPLES = {
    "SecantInstance": (
        lambda: SecantInstance(1, 5, 1),
        "SecantInstance(genus=1, degree=5, order=1)"),
    "NodeValues": (
        lambda: node_values(SecantInstance(1, 5, 1)),
        "NodeValues(order=1, entries=(-5, 0, 5, 15))"),
    "HilbertSeries": (
        lambda: HilbertSeries(QPolynomial._over([1, 1, 1, 1, 1], 1), 4),
        "HilbertSeries(numerator=QPolynomial(coefficients=(Fraction(1, 1), Fraction(1, 1), "
        "Fraction(1, 1), Fraction(1, 1), Fraction(1, 1))), krull_dim=4)"),
    "LineBundleClass": (
        lambda: LineBundleClass.from_degree(2, 9),
        "LineBundleClass(genus=2, degree=9, h0=8, h1=0)"),
    "TableEntry": (
        lambda: TableEntry(0, None, 7),
        "TableEntry(i=0, twist=None, dim=7)"),
    "CohomologyTable": (
        lambda: sym_secant_table(SecantInstance(0, 4, 1), 1),
        "CohomologyTable(family='SymE', params=(('genus', '0'), ('degree', '4'), "
        "('order', '1'), ('twist', '1')), entries=(TableEntry(i=0, twist=1, dim=5), "
        "TableEntry(i=1, twist=1, dim=0), TableEntry(i=2, twist=1, dim=0)))"),
    "TangentConeDescriptor": (
        lambda: tangent_cone_at(SecantInstance(0, 6, 1), 0),
        "TangentConeDescriptor(ambient=SecantInstance(genus=0, degree=6, order=1), stratum=0, "
        "base=SecantInstance(genus=0, degree=4, order=0), vertex_proj_dim=0, cone_proj_dim=2, "
        "multiplicity=4, base_is_fano=True, series=HilbertSeries(numerator=QPolynomial("
        "coefficients=(Fraction(1, 1), Fraction(3, 1))), krull_dim=3))"),
    "TangentConeDescriptor at a smooth point": (
        lambda: tangent_cone_at(SecantInstance(0, 6, 1), 1),
        "TangentConeDescriptor(ambient=SecantInstance(genus=0, degree=6, order=1), stratum=1, "
        "base=None, vertex_proj_dim=2, cone_proj_dim=2, multiplicity=1, base_is_fano=None, "
        "series=HilbertSeries(numerator=QPolynomial(coefficients=(Fraction(1, 1),)), "
        "krull_dim=3))"),
    "ConeOverSecant": (
        lambda: cone_over_secant(SecantInstance(0, 4, 1), 2),
        "ConeOverSecant(inst=SecantInstance(genus=0, degree=4, order=1), vertex_count=2, "
        "series=HilbertSeries(numerator=QPolynomial(coefficients=(Fraction(1, 1), "
        "Fraction(1, 1), Fraction(1, 1))), krull_dim=6))"),
    "Document": (
        lambda: Document({"value": "26"}, max),
        "Document(payload={'value': '26'}, layout=<built-in function max>, notes=(), "
        "exit_code=0)"),
    "CheckResult": (
        lambda: CheckResult("x", True, 0.5),
        "CheckResult(name='x', passed=True, seconds=0.5, detail='')"),
}

# Each class's constructor parameters as (name, default, annotation), in order.
SIGNATURES = {
    SecantInstance: [("genus", EMPTY, int), ("degree", EMPTY, int), ("order", EMPTY, int)],
    NodeValues: [("order", EMPTY, int), ("entries", EMPTY, tuple[int, ...])],
    HilbertSeries: [("numerator", EMPTY, QPolynomial), ("krull_dim", EMPTY, int)],
    LineBundleClass: [("genus", EMPTY, int), ("degree", EMPTY, int), ("h0", EMPTY, int),
                      ("h1", EMPTY, int)],
    TableEntry: [("i", EMPTY, int), ("twist", EMPTY, Optional[int]), ("dim", EMPTY, int)],
    CohomologyTable: [("family", EMPTY, str), ("params", EMPTY, tuple[tuple[str, str], ...]),
                      ("entries", EMPTY, tuple[TableEntry, ...])],
    TangentConeDescriptor: [
        ("ambient", EMPTY, SecantInstance), ("stratum", EMPTY, int),
        ("base", EMPTY, Optional[SecantInstance]), ("vertex_proj_dim", EMPTY, int),
        ("cone_proj_dim", EMPTY, int), ("multiplicity", EMPTY, int),
        ("base_is_fano", EMPTY, Optional[bool]), ("series", EMPTY, HilbertSeries)],
    ConeOverSecant: [("inst", EMPTY, SecantInstance), ("vertex_count", EMPTY, int),
                     ("series", EMPTY, HilbertSeries)],
    Document: [("payload", EMPTY, dict), ("layout", EMPTY, Callable[[dict, str], str]),
               ("notes", (), tuple[str, ...]), ("exit_code", 0, int)],
    CheckResult: [("name", EMPTY, str), ("passed", EMPTY, bool), ("seconds", EMPTY, float),
                  ("detail", "", str)],
}


def test_every_value_class_has_a_sample_and_a_signature():
    assert {type(build()) for build, _ in SAMPLES.values()} == set(SIGNATURES)


@pytest.mark.parametrize("name", SAMPLES)
def test_repr_keeps_the_dataclass_spelling(name):
    build, expected = SAMPLES[name]
    assert repr(build()) == expected


@pytest.mark.parametrize("name", SAMPLES)
def test_equal_fields_are_equal_and_hash_equally(name):
    build, _ = SAMPLES[name]
    first, second = build(), build()
    if name != "Document":  # Document's payload is a dict, which has no hash
        assert hash(first) == hash(second)
    assert first == second and not first != second


def test_instances_of_different_classes_are_unequal():
    samples = [build() for build, _ in SAMPLES.values()]
    for a in samples:
        assert [a == b for b in samples] == [a is b for b in samples]
        assert a != tuple(vars(a).values())
    # the same field values in two classes whose constructors check nothing
    fields = (SecantInstance(0, 4, 1), 2, hilbert_series(SecantInstance(0, 4, 1)))
    assert TableEntry(*fields) != ConeOverSecant(*fields)
    assert CheckResult({}, max, (), 0) != Document({}, max, (), 0)


def test_unequal_fields_are_unequal():
    assert SecantInstance(1, 5, 1) != SecantInstance(1, 6, 1)
    assert TableEntry(0, None, 7) != TableEntry(0, 0, 7)
    assert CheckResult("x", True, 0.5) != CheckResult("x", True, 0.5, "detail")


@pytest.mark.parametrize("name", SAMPLES)
def test_fields_cannot_be_assigned_or_deleted(name):
    build, _ = SAMPLES[name]
    value = build()
    field = next(iter(inspect.signature(type(value)).parameters))
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown_field = 0
    assert repr(value) == before


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_constructor_signature_is_unchanged(cls):
    parameters = inspect.signature(cls, eval_str=True).parameters.values()
    assert [(p.name, p.default, p.annotation) for p in parameters] == SIGNATURES[cls]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters)


# A fresh interpreter with no site packages, so that nothing but the package
# and the request loads a module.  It prints the modules of WATCHED loaded after
# the import and a text request, after a json request, and after a csv request.
WATCHED = ("dataclasses", "inspect", "json", "csv", "argparse")
IMPORT_PROBE = f"""
import io, sys
import secantinv.cli as cli
watched = {WATCHED!r}
argv = ["degree", "--genus", "2", "--degree", "9", "--order", "1", "--format"]
for fmt in ("text", "json", "csv"):
    out = io.StringIO()
    assert cli.run(argv + [fmt], out, io.StringIO()) == 0, fmt
    print(fmt, *(name for name in watched if name in sys.modules))
"""


def test_a_request_loads_only_the_modules_its_format_needs():
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), path]))}
    result = subprocess.run([sys.executable, "-S", "-c", IMPORT_PROBE], capture_output=True,
                            text=True, env=env, check=True)
    assert result.stdout.splitlines() == ["text", "json json", "csv json csv"]
