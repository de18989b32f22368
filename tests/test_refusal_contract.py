"""The refusal contract, walked over the public API.

Every public callable that takes an integer, and every public alternate
constructor, either returns a value or raises a :class:`SecantInvError`
subclass when one integer argument of a valid call is pushed to +-10**4300,
-1, 0 or one past its admission limit: never ``ValueError`` (a value too
long to print), ``TypeError`` or ``RecursionError``, and never slowly.  A
public callable with an integer parameter that is neither walked nor named
in ``EXEMPT`` fails the walk, so a new one cannot skip the contract.
"""

import inspect
import time
import typing
from fractions import Fraction

import pytest

import secantinv
from secantinv import (
    HilbertSeries,
    LineBundleClass,
    QPolynomial,
    SecantInstance,
    DomainError,
    SecantInvError,
    canonical_twist_table,
    coh_canonical_twist,
    coh_descent_line,
    coh_determinant_line,
    coh_sym_secant_sheaf,
    coh_wedge_secant_sheaf,
    cone_over_secant,
    hilbert_function,
    line_bundle_table,
    multiplicity_along_stratum,
    node_values,
    sym_secant_table,
    tangent_cone_at,
    wedge_secant_table,
)

# Exact arithmetic on any integer, which raises ValueError by design (sym_dim
# of a negative dimension, say), and records whose constructors store what the
# engine built and check nothing.
EXEMPT = {
    "binomial", "binomial_poly", "sym_dim", "wedge_dim", "lagrange_interpolate",
    "finite_difference_numerator", "format_rational", "QPolynomial.constant",
    "ConeOverSecant", "NodeValues", "TableEntry", "TangentConeDescriptor",
}

INST = SecantInstance(2, 9, 1)
BUNDLE = LineBundleClass.nonspecial(2, 9)

# (public name, integer argument, a valid call with that argument varied, its
# admission limit or None); node_values is walked through the twist its result
# is indexed by, which refuses a printable twist outside the nodes as KeyError.
CALLS = [
    ("SecantInstance", "genus", lambda v: SecantInstance(v, 9, 1), 10**6),
    ("SecantInstance", "degree", lambda v: SecantInstance(2, v, 1), 10**9),
    ("SecantInstance", "order", lambda v: SecantInstance(0, 1000, v), 200),
    ("node_values", "twist", lambda v: node_values(INST)[v], 2),
    ("HilbertSeries", "krull_dim", lambda v: HilbertSeries(QPolynomial.constant(1), v), None),
    ("hilbert_function", "twist", lambda v: hilbert_function(INST, v), 10**6),
    ("LineBundleClass", "genus", lambda v: LineBundleClass(v, 9, 8, 0), 10**6),
    ("LineBundleClass", "degree", lambda v: LineBundleClass(2, v, 8, 0), 10**4000 - 1),
    ("LineBundleClass", "h0", lambda v: LineBundleClass(2, 9, v, 0), 10**4000 - 1),
    ("LineBundleClass", "h1", lambda v: LineBundleClass(2, 9, 8, v), 10**4000 - 1),
    ("LineBundleClass.nonspecial", "genus", lambda v: LineBundleClass.nonspecial(v, 9), 10**6),
    ("LineBundleClass.nonspecial", "degree", lambda v: LineBundleClass.nonspecial(2, v), None),
    ("LineBundleClass.trivial", "genus", LineBundleClass.trivial, 10**6),
    ("LineBundleClass.canonical", "genus", LineBundleClass.canonical, 10**6),
    ("LineBundleClass.from_degree", "genus", lambda v: LineBundleClass.from_degree(v, 9), 10**6),
    ("LineBundleClass.from_degree", "degree", lambda v: LineBundleClass.from_degree(2, v), None),
    ("LineBundleClass.from_degree", "h1", lambda v: LineBundleClass.from_degree(2, 1, v), None),
    ("coh_determinant_line", "points", lambda v: coh_determinant_line(v, BUNDLE, 0), 1000),
    ("coh_determinant_line", "i", lambda v: coh_determinant_line(2, BUNDLE, v), None),
    ("coh_descent_line", "points", lambda v: coh_descent_line(v, BUNDLE, 0), 1000),
    ("coh_descent_line", "i", lambda v: coh_descent_line(2, BUNDLE, v), None),
    ("coh_sym_secant_sheaf", "twist", lambda v: coh_sym_secant_sheaf(INST, v, 0), 10**6),
    ("coh_sym_secant_sheaf", "i", lambda v: coh_sym_secant_sheaf(INST, 1, v), None),
    ("coh_wedge_secant_sheaf", "points",
     lambda v: coh_wedge_secant_sheaf(v, 1, BUNDLE, BUNDLE, 0), 1000),
    ("coh_wedge_secant_sheaf", "twist",
     lambda v: coh_wedge_secant_sheaf(3, v, BUNDLE, BUNDLE, 0), 3),
    ("coh_wedge_secant_sheaf", "i", lambda v: coh_wedge_secant_sheaf(3, 1, BUNDLE, BUNDLE, v), 3),
    ("coh_canonical_twist", "twist", lambda v: coh_canonical_twist(INST, v, 0), 10**6),
    ("coh_canonical_twist", "i", lambda v: coh_canonical_twist(INST, 1, v), None),
    ("line_bundle_table", "points", lambda v: line_bundle_table("N", v, BUNDLE), 1000),
    ("sym_secant_table", "twist", lambda v: sym_secant_table(INST, v), 10**6),
    ("wedge_secant_table", "points", lambda v: wedge_secant_table(v, 1, BUNDLE, BUNDLE), 1000),
    ("wedge_secant_table", "twist", lambda v: wedge_secant_table(3, v, BUNDLE, BUNDLE), 3),
    ("canonical_twist_table", "twist", lambda v: canonical_twist_table(INST, v), 10**6),
    ("tangent_cone_at", "stratum", lambda v: tangent_cone_at(INST, v), 1),
    ("multiplicity_along_stratum", "stratum", lambda v: multiplicity_along_stratum(INST, v), 1),
    ("cone_over_secant", "vertex_count", lambda v: cone_over_secant(INST, v), 10**6),
]

# Each call refuses or returns well inside this many seconds.
TIME_BOUND = 1.0


def public_callables():
    """(name, callable) for each callable in ``secantinv.__all__`` except the
    error classes, and for each public class or static method of a class there."""
    for name in secantinv.__all__:
        obj = getattr(secantinv, name)
        if not callable(obj) or inspect.isclass(obj) and issubclass(obj, BaseException):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)) and not attr.startswith("_"):
                    yield f"{name}.{attr}", getattr(obj, attr)


def mentions_int(annotation) -> bool:
    return annotation is int or any(map(mentions_int, typing.get_args(annotation)))


def integer_parameters(function) -> set:
    parameters = inspect.signature(function, eval_str=True).parameters.values()
    return {p.name for p in parameters if mentions_int(p.annotation)}


def test_every_integer_parameter_is_walked_or_exempt():
    required = {name: integer_parameters(function) for name, function in public_callables()}
    walked = {(name, argument) for name, argument, *_ in CALLS}
    assert {name for name, _ in walked} <= set(required) - EXEMPT
    assert all(required[name] for name in EXEMPT)
    missing = {(name, p) for name in set(required) - EXEMPT for p in required[name]} - walked
    assert not missing


@pytest.mark.parametrize("name, argument, call, limit", CALLS,
                         ids=[f"{name}-{argument}" for name, argument, *_ in CALLS])
def test_value_or_refusal(name, argument, call, limit):
    values = {"10**4300": 10**4300, "-10**4300": -10**4300, "-1": -1, "0": 0}
    if limit is not None:
        values["limit+1"] = limit + 1
    refusals = (SecantInvError, KeyError) if name == "node_values" else SecantInvError
    for shown, value in values.items():
        start = time.perf_counter()
        try:
            call(value)
        except refusals:
            pass
        except Exception as exc:
            pytest.fail(f"{name}({argument}={shown}) raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        assert seconds < TIME_BOUND, f"{name}({argument}={shown}) took {seconds:.2f} s"


# Each call that takes a twist and evaluates chi at it, with the twist varied.
TWIST_CALLS = {
    "hilbert_function": lambda v: hilbert_function(INST, v),
    "coh_sym_secant_sheaf": lambda v: coh_sym_secant_sheaf(INST, v, 0),
    "coh_canonical_twist": lambda v: coh_canonical_twist(INST, v, 0),
    "sym_secant_table": lambda v: sym_secant_table(INST, v),
    "canonical_twist_table": lambda v: canonical_twist_table(INST, v),
}


@pytest.mark.parametrize("twist", [Fraction(3, 2), 1.5], ids=["Fraction(3, 2)", "1.5"])
@pytest.mark.parametrize("name", TWIST_CALLS)
def test_non_integer_twist_is_a_domain_error(name, twist):
    """A twist that is not an integer is the caller's error, refused before
    chi is built or evaluated, not an internal fault of the engine."""
    import secantinv.secant_core as core

    core._chi.cache_clear()
    with pytest.raises(DomainError) as refused:
        TWIST_CALLS[name](twist)
    assert str(refused.value) == f"twist {twist} must be an integer"
    assert core._chi.cache_info().misses == 0
