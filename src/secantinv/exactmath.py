"""Exact scalar, polynomial, and series arithmetic.

Everything here is integer or rational arithmetic with no rounding of any
kind: integers are Python ints, rationals are ``fractions.Fraction`` (always
stored in lowest terms with positive denominator), and a polynomial in the
twist variable t is stored in its canonical integer form: one positive
denominator D and the integer numerators of its coefficients over D, in
ascending degree, with no factor common to D and every numerator.  Its
coefficients as ``Fraction`` objects are built only when read.

A polynomial has one other form, a lazy one: its forward differences on
the unit-spaced integers a, a+1, ..., integers D_0..D_n with value
sum_m D_m C(t - a, m) and D_n nonzero.  Both routes of a chi build end in
it, on the twists -k..k+1.  Two polynomials held as differences on the same
first point compare as those integers; the degree, the leading coefficient
and the value at an integer read the differences, a value as one integer
sum.  The monomial form is built once, on the first read of ``numerators``
or ``denominator``.

Every monomial form that comes from Newton coefficients is built by one
routine, :func:`_expanded`: it expands the Newton form into monomials and
certifies the expansion by its inverse, synthetic division back to the
Newton coefficients.

Integers are kept on chi's route, since chi is integer-valued and built
from integer node values: interpolation on ``int`` nodes at unit steps, one
of chi's two routes, only subtracts and returns the forward differences,
and their monomial form expands the integer Newton coefficients D_m n!/m!
and divides by n! once.  Off that route, which no chi build takes, the code
is the textbook one over ``Fraction``: interpolation on any other nodes
runs Newton's divided-difference table, and a value anywhere but at an
integer of a difference form is Horner's rule on the coefficients.
:func:`finite_difference_numerator` derives a series numerator from values;
the engine reads its numerator from the node values instead, and ``validate``
and the tests compare the two.

:class:`_Frozen` is the base of every value class in the package: its
subclasses set their fields once, in ``__init__``, and get equality and
hashing by class and fields, a ``Name(field=value, ...)`` repr, and
``AttributeError`` on any assignment or deletion, with no ``dataclasses``
import at start-up.

Serialization contract used across the package: a rational renders as the
string ``"p/q"`` with q > 0 and gcd(|p|, q) = 1, or plain ``"p"`` when q = 1;
a polynomial renders as the list of such strings in ascending degree.
:func:`_spell` writes such a list out as terms, in text by default and in
LaTeX for the command line, reading only the strings.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import DuplicateNode, InternalMismatch, NonvanishingTail

# The only numeric carriers in the package.
Rational = Fraction
RationalLike = Fraction | int

__all__ = [
    "Rational",
    "QPolynomial",
    "binomial",
    "binomial_poly",
    "lagrange_interpolate",
    "finite_difference_numerator",
    "format_rational",
    "parse_rational",
]


def binomial(n: int, j: int) -> int:
    """Generalized binomial coefficient C(n, j) for any integer n.

    For j < 0 the value is 0; otherwise it is the falling-factorial product
    n(n-1)...(n-j+1)/j!, which is an integer for every integer n.  In
    particular C(n, j) = 0 for 0 <= n < j, and C(-1, 2) = 1.
    """
    if j < 0:
        return 0
    if n >= 0:
        return math.comb(n, j)
    # C(n, j) = (-1)^j C(j - n - 1, j) for n < 0
    return (-1) ** j * math.comb(j - n - 1, j)


def format_rational(value: RationalLike) -> str:
    """Render a rational as "p/q" (q > 0, lowest terms) or "p" when q = 1,
    which is what ``str`` gives for an int and for a ``Fraction``."""
    if isinstance(value, int):
        return str(int(value))  # a bool prints as 1 or 0
    return str(value if isinstance(value, Fraction) else Fraction(value))


def parse_rational(text: str) -> Fraction:
    """Inverse of :func:`format_rational` (also accepts any Fraction spelling)."""
    return Fraction(text)


def _t_power(n: int) -> str:
    return "t" if n == 1 else f"t^{n}"


def _spell(coefficients: Sequence[str], magnitude: Callable[[str], str] = str,
           monomial: Callable[[int], str] = _t_power, times: str = "*") -> str:
    """The polynomial whose wire strings are ``coefficients``, ascending,
    spelled from the highest degree down, as in "2*t^2 - t + 1/2": a "0" is
    skipped, a leading "-" gives the sign, ``magnitude`` spells each
    unsigned string, ``monomial`` each t^n with n >= 1, and ``times`` joins
    a magnitude other than "1" to its monomial."""
    parts: list[str] = []
    for power in range(len(coefficients) - 1, -1, -1):
        c = coefficients[power]
        if c == "0":
            continue
        sign = "-" if c[0] == "-" else "+"
        mag = c[1:] if sign == "-" else c
        if power == 0:
            body = magnitude(mag)
        elif mag == "1":
            body = monomial(power)
        else:
            body = f"{magnitude(mag)}{times}{monomial(power)}"
        parts.append(f"{sign} {body}" if parts else (f"-{body}" if sign == "-" else body))
    return " ".join(parts) or "0"


def _trimmed(values: Sequence[int]) -> tuple[int, ...]:
    """``values`` with the top zeros dropped."""
    top = len(values)
    while top and not values[top - 1]:
        top -= 1
    return tuple(values[:top])


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass declares its fields as class annotations, in constructor
    order, and sets them in ``__init__`` through ``self.__dict__``.
    Instances compare equal and hash alike when their classes and fields
    are equal, print as ``Name(field=value, ...)``, and refuse to assign or
    delete any attribute."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)  # the class's own, in order, on 3.10+

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((self.__class__, *self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class QPolynomial(_Frozen):
    """Univariate polynomial in the twist variable t with exact rational
    coefficients, stored in its canonical integer form.

    The form is a denominator D > 0 and the integer numerators n_0..n_m in
    ascending degree, with coefficient j equal to n_j / D, n_m nonzero and
    gcd(D, n_0, ..., n_m) = 1, so that equal polynomials have equal forms.
    The zero polynomial has no numerators, D = 1 and degree -1.  The
    coefficients as ``Fraction`` objects and the wire strings are built on
    first read.  A polynomial built by :meth:`_forward` holds its forward
    differences instead, and builds the integer form on the first read of
    either field.
    Instances are immutable and safe to share between threads.
    """

    denominator: int
    numerators: tuple[int, ...]
    # (a, (D_0, ..., D_n)) of a polynomial held as its forward differences
    _differences: tuple[int, tuple[int, ...]] | None = None

    def __init__(self, coefficients: Iterable[Fraction] = ()) -> None:
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coefficients]
        common = math.lcm(*(c.denominator for c in coeffs))
        self._reduce([c.numerator * (common // c.denominator) for c in coeffs], common)

    @classmethod
    def _over(cls, numerators: Sequence[int], denominator: int) -> "QPolynomial":
        """The polynomial sum_j numerators[j] t^j / denominator, for a
        positive ``denominator``: reduced by one gcd, with no ``Fraction``."""
        poly = cls.__new__(cls)
        poly._reduce(numerators, denominator)
        return poly

    @classmethod
    def _forward(cls, first: int, differences: Sequence[int]) -> "QPolynomial":
        """The polynomial sum_m differences[m] C(t - first, m), held as those
        integers with the top zeros dropped, with no scale and no gcd."""
        poly = cls.__new__(cls)
        poly.__dict__["_differences"] = (first, _trimmed(differences))
        return poly

    def __getattr__(self, name: str) -> object:
        """Reached only for an attribute the instance lacks: a polynomial held
        as its forward differences D_0..D_n on a, a+1, ... builds its integer
        form on the first read of either field.  D_m is scaled to the integer
        Newton coefficient D_m n!/m! on those abscissae, the one certified
        expansion, :func:`_expanded`, gives n! times the monomial
        coefficients, and they are reduced over n!."""
        if name not in ("numerators", "denominator") or not self._differences:
            raise AttributeError(f"{type(self).__qualname__!r} object has no attribute {name!r}")
        first, coefficients = self._differences
        coefficients = list(coefficients)
        denominator = 1  # n!/m!, from m = n down; it ends as n!
        for m in range(len(coefficients) - 1, 0, -1):
            coefficients[m] *= denominator
            denominator *= m
        if coefficients:
            coefficients[0] *= denominator
        self._reduce(_expanded(coefficients, range(first, first + len(coefficients))), denominator)
        return self.__dict__[name]

    def _reduce(self, numerators: Sequence[int], denominator: int) -> None:
        """Set the integer form ``numerators`` over the positive
        ``denominator``, with the top zeros dropped and one gcd divided out."""
        numerators = _trimmed(numerators)
        common = math.gcd(denominator, *numerators)
        if common != 1:  # most forms are reduced already; skip the pass that divides by 1
            numerators = tuple(c // common for c in numerators)
        self.__dict__.update(denominator=denominator // common, numerators=numerators)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self._differences, other._differences
        if mine and theirs and mine[0] == theirs[0]:  # the same first twist
            return mine[1] == theirs[1]
        return self.denominator == other.denominator and self.numerators == other.numerators

    def __hash__(self) -> int:
        return hash((self.denominator, self.numerators))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(coefficients={self.coefficients!r})"

    @cached_property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The coefficients in ascending degree, each a ``Fraction``."""
        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls(())

    @classmethod
    def constant(cls, value: RationalLike) -> "QPolynomial":
        return cls((Fraction(value),))

    @classmethod
    def variable(cls) -> "QPolynomial":
        """The polynomial t."""
        return cls((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        if self._differences:
            return len(self._differences[1]) - 1
        return len(self.numerators) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree < 0

    @property
    def leading_coefficient(self) -> Fraction:
        if self.degree < 0:
            raise ValueError("the zero polynomial has no leading coefficient")
        if self._differences:  # C(t - a, n) leads with 1/n!
            return Fraction(self._differences[1][-1], math.factorial(self.degree))
        return Fraction(self.numerators[-1], self.denominator)

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.numerators):
            return Fraction(self.numerators[power], self.denominator)
        return Fraction(0)

    def _at(self, point: int) -> int:
        """Value at the integer ``point`` of a polynomial held as its forward
        differences: sum_m D_m C(x, m) with x = point - a, each binomial
        from the one before by C(x, m+1) = C(x, m) (x - m) / (m+1), a
        division that is exact for every integer x, negative ones too."""
        first, differences = self._differences
        x = point - first
        value, binomial_m = 0, 1
        for m, difference in enumerate(differences):
            value += difference * binomial_m
            binomial_m = binomial_m * (x - m) // (m + 1)
        return value

    def __call__(self, point: RationalLike) -> Fraction:
        """Value at ``point``: at an integer, a polynomial held as its forward
        differences is evaluated in integers by :meth:`_at`; anywhere else,
        Horner's rule on the coefficients."""
        if type(point) is int and self._differences:
            return Fraction(self._at(point))
        x = point if isinstance(point, (int, Fraction)) else Fraction(point)
        value = Fraction(0)
        for c in reversed(self.coefficients):
            value = value * x + c
        return value

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        common = math.lcm(self.denominator, other.denominator)
        a = [c * (common // self.denominator) for c in self.numerators]
        b = [c * (common // other.denominator) for c in other.numerators]
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return QPolynomial._over(a, common)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial._over([-c for c in self.numerators], self.denominator)

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def __mul__(self, other: "QPolynomial | RationalLike") -> "QPolynomial":
        if isinstance(other, QPolynomial):
            out = [0] * (len(self.numerators) + len(other.numerators) - 1)
            for i, a in enumerate(self.numerators):
                if a == 0:
                    continue
                for j, b in enumerate(other.numerators):
                    out[i + j] += a * b
            return QPolynomial._over(out, self.denominator * other.denominator)
        scale = Fraction(other)
        return QPolynomial._over([c * scale.numerator for c in self.numerators],
                                 self.denominator * scale.denominator)

    def __rmul__(self, other: RationalLike) -> "QPolynomial":
        return self * other

    def divide_by_linear(self, root: RationalLike) -> tuple["QPolynomial", Fraction]:
        """Synthetic division by (t - root); returns (quotient, remainder)."""
        r = Fraction(root)
        quotient: list[Fraction] = []
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * r + c
            quotient.append(acc)
        if not quotient:
            return QPolynomial.zero(), Fraction(0)
        remainder = quotient.pop()
        quotient.reverse()
        return QPolynomial(quotient), remainder

    @cached_property
    def _wire(self) -> tuple[str, ...]:
        """The wire strings, spelled on first read and kept."""
        if self.denominator == 1:
            return tuple(map(str, self.numerators))
        return tuple(map(format_rational, self.coefficients))

    def to_strings(self) -> list[str]:
        """Ascending-degree list of "p/q" strings (the wire format), a fresh
        list on every call."""
        return list(self._wire)

    @classmethod
    def from_strings(cls, items: Iterable[str]) -> "QPolynomial":
        return cls(tuple(parse_rational(s) for s in items))

    def __str__(self) -> str:
        return _spell(self.to_strings())


def binomial_poly(shift: int, lower: int) -> QPolynomial:
    """The degree-``lower`` polynomial C(t + shift, lower), i.e. the product
    (t+shift)(t+shift-1)...(t+shift-lower+1) divided by lower!.

    Evaluating it at any integer t0 agrees with ``binomial(t0 + shift, lower)``.
    ``lower`` is at most 401, the highest degree chi has (2k+1 at order 200).
    Held as its forward differences on -shift, -shift+1, ...: all zero but
    D_lower = 1.
    """
    if lower < 0:
        raise ValueError("lower index of binomial_poly must be nonnegative")
    if lower > 401:
        raise ValueError("lower index of binomial_poly must be at most 401")
    return QPolynomial._forward(-shift, [0] * lower + [1])


def lagrange_interpolate(
    nodes: Sequence[tuple[RationalLike, RationalLike]],
) -> QPolynomial:
    """Unique polynomial of degree <= len(nodes)-1 through the given nodes.

    Computed by Newton divided differences.  On ``int`` nodes whose
    abscissae increase by 1, the nodes of every chi build, the table is one
    list of the ordinates, and each column only subtracts, in place and in
    integers, carrying the entry it overwrites: column r ends as the r-th
    forward difference D_r of the ordinates, and the result is held as
    D_0..D_{n-1} on the first abscissa.  From the first node off that front,
    the table is instead the textbook one over ``Fraction``, built from
    every node, each column dividing its differences by their gaps,
    and :func:`_expanded` turns its Newton coefficients into the certified
    monomial form.  Either way the result reproduces every node ordinate
    with zero error.  An abscissa or ordinate that ``Fraction`` cannot read
    raises its ``ValueError`` or ``TypeError``; then :class:`DuplicateNode`
    is raised if two abscissae coincide, and :class:`InternalMismatch` if
    the expansion fails its certificate.
    """
    if not nodes:
        raise ValueError("lagrange_interpolate requires at least one node")
    first = nodes[0][0]
    differences = []
    for j, (x, y) in enumerate(nodes):
        if not (type(x) is int and type(y) is int and x == first + j):
            break
        differences.append(y)
    else:
        for order in range(1, len(differences)):
            previous = differences[order - 1]
            for i in range(order, len(differences)):
                current = differences[i]
                differences[i] = current - previous
                previous = current
        return QPolynomial._forward(first, differences)
    xs = [Fraction(x) for x, _ in nodes]  # a string such as "1/2" is parsed
    coef = [Fraction(y) for _, y in nodes]  # in place: coef[i] ends as y[x_0, ..., x_i]
    n = len(nodes)
    if len(set(xs)) != n:
        raise DuplicateNode("interpolation abscissae must be pairwise distinct")
    for order in range(1, n):
        for i in range(n - 1, order - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - order])
    return QPolynomial(_expanded(coef, xs))


def _expanded(coefficients: Sequence[RationalLike],
              abscissae: Sequence[RationalLike]) -> list[RationalLike]:
    """Ascending monomial coefficients of the Newton form sum_r c_r prod_{i<r}
    (t - a_i), for at least as many abscissae as coefficients: the one
    expansion into monomials, certified by its inverse.  They are integers
    on chi's route, where the c_r and a_i are, and ``Fraction`` objects on
    interpolation's general route.  Raises :class:`InternalMismatch` if the
    certificate fails."""
    monomial = _newton_to_monomial(coefficients, abscissae)
    if not _monomial_to_newton_matches(monomial, coefficients, abscissae):
        raise InternalMismatch("the monomial and Newton forms of a polynomial differ")
    return monomial


def _newton_to_monomial(coefficients: Sequence[RationalLike],
                        abscissae: Sequence[RationalLike]) -> list[RationalLike]:
    """Ascending monomial coefficients of sum_r c_r prod_{i<r} (u - a_i), by
    the nest P_r = c_r + (u - a_r) P_{r+1} from the top coefficient down:
    the one expansion of a Newton form into monomials.  Each step rewrites
    one list in place, coefficient j of P_r being that of P_{r+1} at j - 1
    (c_r at j = 0) minus a_r times that at j."""
    if not coefficients:
        return []
    poly = [coefficients[-1]]
    for r in range(len(coefficients) - 2, -1, -1):
        a = abscissae[r]
        carry = coefficients[r]
        for j, c in enumerate(poly):
            poly[j] = carry - a * c
            carry = c
        poly.append(carry)
    return poly


def _monomial_to_newton_matches(monomial: Sequence[RationalLike],
                                coefficients: Sequence[RationalLike],
                                abscissae: Sequence[RationalLike]) -> bool:
    """Whether ``monomial``, ascending, is the expansion of the Newton form
    sum_r c_r prod_{i<r} (u - a_i): synthetic division by u - a_0, u - a_1,
    ... must leave c_0, c_1, ... as its remainders, and nothing after the
    last.  The Newton basis is triangular over the monomials, so a
    polynomial has one set of Newton coefficients, and this certifies an
    expansion at about the cost of one."""
    if len(monomial) != len(coefficients):
        return False
    quotient = monomial[::-1]
    for c, a in zip(coefficients, abscissae):
        remainder, divided = 0, []
        for b in quotient:
            remainder = remainder * a + b
            divided.append(remainder)
        if divided.pop() != c:
            return False
        quotient = divided
    return True


def finite_difference_numerator(
    values: Callable[[int], int],
    krull_dim: int,
    cutoff: int,
) -> QPolynomial:
    """Numerator Q of a Hilbert series H(t) = Q(t)/(1-t)^krull_dim.

    ``values`` is read at 0..cutoff only, and must agree with a polynomial
    of degree < krull_dim for all arguments >= 1.  Q is that list times
    (1-t)^krull_dim: krull_dim backward differences q[n] - q[n-1], with
    q[-1] = 0.  Every entry with krull_dim < n <= cutoff must then vanish,
    and :class:`NonvanishingTail` is raised at the first that does not (a
    violated precondition).  The returned coefficients are integers.
    """
    if krull_dim < 1:
        raise ValueError("krull_dim must be positive")
    if cutoff < krull_dim + 1:
        raise ValueError("cutoff must be at least krull_dim + 1")
    q = [values(n) for n in range(cutoff + 1)]
    for _ in range(krull_dim):
        q = list(map(operator.sub, q, [0, *q]))
    for n in range(krull_dim + 1, cutoff + 1):
        if q[n] != 0:
            raise NonvanishingTail(
                f"difference of order {krull_dim} is {q[n]} != 0 at twist {n}"
            )
    return QPolynomial._over(q[:krull_dim + 1], 1)
