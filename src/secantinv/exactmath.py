"""Exact scalar, polynomial, and series arithmetic.

Everything here is integer or rational arithmetic with no rounding of any
kind: integers are Python ints, rationals are ``fractions.Fraction`` (always
stored in lowest terms with positive denominator), and a polynomial in the
twist variable t is stored in its canonical integer form: one positive
denominator D and the integer numerators of its coefficients over D, in
ascending degree, with no factor common to D and every numerator.  Its
coefficients as ``Fraction`` objects are built only when read.

A polynomial may also be held in Newton form on integer abscissae
a_0, a_1, ...: integer coefficients c_r and one positive denominator D, with
value sum_r c_r prod_{i<r} (s*t - a_i) / D for a positive integer s, reduced
so that no factor is common to D and every c_r.  The two routes of
a chi build both end in that form on the twists -k..k+1, and two
polynomials on the same abscissae compare as their reduced Newton forms.
The degree, the leading coefficient and the value at an integer read the
Newton form; the monomial form is built once, by one expansion routine, on
the first read of ``numerators`` or ``denominator``, and is certified by
its inverse, synthetic division back to the Newton coefficients.

Equality, sums and products, evaluation (:meth:`QPolynomial.__call__`) and
:func:`lagrange_interpolate` run on Python ints: evaluation is Horner's rule
on the integer form and builds one ``Fraction``, and interpolation, one of
the two routes of every chi build, runs a divided-difference table that
divides nothing, each column scaled by the lcm of its gaps, or by r times
the step when the abscissae increase evenly, and returns its Newton form.
:func:`finite_difference_numerator` derives a series numerator from values;
the engine reads its numerator from the node values instead, and ``validate``
and the tests compare the two.

Serialization contract used across the package: a rational renders as the
string ``"p/q"`` with q > 0 and gcd(|p|, q) = 1, or plain ``"p"`` when q = 1;
a polynomial renders as the list of such strings in ascending degree.
"""

from __future__ import annotations

import math
import operator
from dataclasses import FrozenInstanceError
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
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


def _lowest_terms(values: Sequence[int], denominator: int) -> tuple[tuple[int, ...], int]:
    """``values`` over the positive ``denominator`` with the top zeros
    dropped and one gcd divided out."""
    top = len(values)
    while top and not values[top - 1]:
        top -= 1
    kept = values[:top]
    common = math.gcd(denominator, *kept)
    if common != 1:
        kept = [c // common for c in kept]
    return tuple(kept), denominator // common


class QPolynomial:
    """Univariate polynomial in the twist variable t with exact rational
    coefficients, stored in its canonical integer form.

    The form is a denominator D > 0 and the integer numerators n_0..n_m in
    ascending degree, with coefficient j equal to n_j / D, n_m nonzero and
    gcd(D, n_0, ..., n_m) = 1, so that equal polynomials have equal forms.
    The zero polynomial has no numerators, D = 1 and degree -1.  The
    coefficients as ``Fraction`` objects are built on first read.  A
    polynomial built by :meth:`_newton` holds its Newton form and builds the
    integer form on first read.  Instances are immutable and safe to share
    between threads.
    """

    denominator: int
    numerators: tuple[int, ...]
    # (s, abscissae, coefficients, D) of a polynomial held in Newton form
    _newton_form: tuple[int, tuple[int, ...], tuple[int, ...], int] | None = None

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
    def _newton(cls, coefficients: Sequence[int], abscissae: Sequence[int], denominator: int,
                scale: int = 1) -> "QPolynomial":
        """The polynomial sum_r coefficients[r] prod_{i<r} (scale*t -
        abscissae[i]) / denominator, for a positive ``denominator``, a positive
        ``scale`` and at least as many abscissae as coefficients, held in
        that Newton form: reduced by one gcd, with no monomial expansion."""
        poly = cls.__new__(cls)
        poly.__dict__["_newton_form"] = (scale, tuple(abscissae),
                                         *_lowest_terms(coefficients, denominator))
        return poly

    def __getattr__(self, name: str) -> object:
        """Reached only for an attribute the instance lacks: a polynomial held
        in Newton form builds its integer form on the first read of either
        field: the one expansion, in u = s*t, certified by its inverse, and
        then coefficient j times s^j."""
        if name not in ("numerators", "denominator") or self._newton_form is None:
            raise AttributeError(f"{type(self).__qualname__!r} object has no attribute {name!r}")
        scale, abscissae, coefficients, denominator = self._newton_form
        numerators = _newton_to_monomial(coefficients, abscissae)
        if not _monomial_to_newton_matches(numerators, coefficients, abscissae):
            raise InternalMismatch("the monomial and Newton forms of a polynomial differ")
        power = 1
        for j in range(1, len(numerators)):
            power *= scale
            numerators[j] *= power
        monomial = QPolynomial._over(numerators, denominator)
        self.__dict__.update(denominator=monomial.denominator, numerators=monomial.numerators)
        return self.__dict__[name]

    def _reduce(self, numerators: Sequence[int], denominator: int) -> None:
        numerators, denominator = _lowest_terms(numerators, denominator)
        self.__dict__.update(denominator=denominator, numerators=numerators)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self._newton_form, other._newton_form
        if mine and theirs and mine[:2] == theirs[:2]:  # the same Newton basis
            return mine[2:] == theirs[2:]
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
        newton = self._newton_form
        return len(newton[2] if newton else self.numerators) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree < 0

    @property
    def leading_coefficient(self) -> Fraction:
        if self.degree < 0:
            raise ValueError("the zero polynomial has no leading coefficient")
        newton = self._newton_form
        if newton:  # prod_{i<r} (s*t - a_i) leads with s^r
            scale, _, coefficients, denominator = newton
            return Fraction(coefficients[-1] * scale ** self.degree, denominator)
        return Fraction(self.numerators[-1], self.denominator)

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.numerators):
            return Fraction(self.numerators[power], self.denominator)
        return Fraction(0)

    def __call__(self, point: RationalLike) -> Fraction:
        """Value at ``point``: Horner's rule on the integer numerators, with
        the point p/q homogenized, so that acc = D * q^n * value after the
        last step; at an integer, a polynomial held in Newton form is
        evaluated in that form."""
        if self._newton_form and type(point) is int:
            scale, abscissae, coefficients, denominator = self._newton_form
            acc = 0
            for r in range(len(coefficients) - 1, -1, -1):
                acc = acc * (scale * point - abscissae[r]) + coefficients[r]
            return Fraction(acc, denominator)
        if not self.numerators:
            return Fraction(0)
        x = point if isinstance(point, (int, Fraction)) else Fraction(point)
        p, q = x.numerator, x.denominator
        acc = 0
        q_power = 1  # q^j at the coefficient j places below the top
        for c in reversed(self.numerators):
            acc = acc * p + c * q_power
            q_power *= q
        return Fraction(acc, self.denominator * (q_power // q))

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

    def to_strings(self) -> list[str]:
        """Ascending-degree list of "p/q" strings (the wire format)."""
        return [format_rational(c) for c in self.coefficients]

    @classmethod
    def from_strings(cls, items: Iterable[str]) -> "QPolynomial":
        return cls(tuple(parse_rational(s) for s in items))

    def spell(
        self,
        coefficient: Callable[[Fraction], str],
        monomial: Callable[[int], str],
        times: str,
    ) -> str:
        """The terms from the highest degree down, as in "2*t^2 - t + 1/2":
        ``coefficient`` spells each magnitude, ``monomial`` each t^n with
        n >= 1, and ``times`` joins a magnitude other than 1 to its monomial."""
        parts: list[str] = []
        for power in range(self.degree, -1, -1):
            c = self.coefficients[power]
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

    def __str__(self) -> str:
        return self.spell(format_rational, lambda n: "t" if n == 1 else f"t^{n}", "*")


def binomial_poly(shift: int, lower: int) -> QPolynomial:
    """The degree-``lower`` polynomial C(t + shift, lower), i.e. the product
    (t+shift)(t+shift-1)...(t+shift-lower+1) divided by lower!.

    Evaluating it at any integer t0 agrees with ``binomial(t0 + shift, lower)``.
    ``lower`` is at most 401, the highest degree chi has (2k+1 at order 200).
    """
    if lower < 0:
        raise ValueError("lower index of binomial_poly must be nonnegative")
    if lower > 401:
        raise ValueError("lower index of binomial_poly must be at most 401")
    poly = QPolynomial.constant(1)
    for i in range(lower):
        poly = poly * QPolynomial((Fraction(shift - i), Fraction(1)))
    return poly * Fraction(1, math.factorial(lower))


def lagrange_interpolate(
    nodes: Sequence[tuple[RationalLike, RationalLike]],
) -> QPolynomial:
    """Unique polynomial of degree <= len(nodes)-1 through the given nodes.

    Computed by Newton divided differences, division-free: the abscissae and
    ordinates are scaled to integers u_j and v_j, and column r of the table
    multiplies each difference by lcm_r / (u_i - u_{i-r}), where lcm_r is the
    lcm of that column's gaps; on abscissae that increase by a step h, every
    gap of the column is r*h, so lcm_r = r*h, every multiplier is 1, and the
    column only subtracts.  Column r then holds M_r times the divided
    differences of order r, with the running scale M_r = M_{r-1} * lcm_r and
    M_0 = 1, and every entry is an integer.  The result is held in Newton
    form on the u_j, coefficient r scaled by M / M_r over M, M the last M_r,
    so it reproduces every node ordinate with zero error.  Raises
    :class:`DuplicateNode` if two abscissae coincide.
    """
    if not nodes:
        raise ValueError("lagrange_interpolate requires at least one node")
    # ints and Fractions are read as they are; anything else ("1/2", say) is parsed
    xs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x, _ in nodes]
    ys = [y if isinstance(y, (int, Fraction)) else Fraction(y) for _, y in nodes]

    # With u_j = x_scale * x_j and v_j = y_scale * y_j, the result is
    # p(x_scale * t) / y_scale for the integer-node interpolant p.
    x_scale = math.lcm(*(x.denominator for x in xs))
    y_scale = math.lcm(*(y.denominator for y in ys))
    us = [x.numerator * (x_scale // x.denominator) for x in xs]
    n = len(nodes)
    if len(set(us)) != n:  # u_j = u_m exactly when x_j = x_m
        raise DuplicateNode("interpolation abscissae must be pairwise distinct")
    step = us[1] - us[0] if n > 1 else 0
    if step < 0 or any(b - a != step for a, b in zip(us, us[1:])):
        step = 0  # not increasing evenly: column r takes the lcm of its gaps

    # Divided-difference table, in place: coef[i] ends as M_i * v[u_0, ..., u_i].
    coef = [y.numerator * (y_scale // y.denominator) for y in ys]
    lcms = []  # lcm_1..lcm_{n-1}, each positive
    for order in range(1, n):
        if step:
            lcms.append(order * step)
            coef[order:] = map(operator.sub, coef[order:], coef[order - 1:-1])
            continue
        gaps = [us[i] - us[i - order] for i in range(order, n)]
        lcm = math.lcm(*gaps)
        lcms.append(lcm)
        for i in range(n - 1, order - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * (lcm // gaps[i - order])

    scale = 1  # M / M_r, from r = n-1 down; it ends as M
    for r in range(n - 1, -1, -1):
        coef[r] *= scale
        if r:
            scale *= lcms[r - 1]
    return QPolynomial._newton(coef, us, scale * y_scale, x_scale)


def _newton_to_monomial(coefficients: Sequence[int], abscissae: Sequence[int]) -> list[int]:
    """Ascending monomial coefficients of sum_r c_r prod_{i<r} (u - a_i), by
    the nest P_r = c_r + (u - a_r) P_{r+1} from the top coefficient down:
    the one expansion of a Newton form into monomials."""
    if not coefficients:
        return []
    poly = [coefficients[-1]]
    for r in range(len(coefficients) - 2, -1, -1):
        a = abscissae[r]
        poly = [b - a * c for b, c in zip([0, *poly], [*poly, 0])]
        poly[0] += coefficients[r]
    return poly


def _monomial_to_newton_matches(monomial: Sequence[int], coefficients: Sequence[int],
                                abscissae: Sequence[int]) -> bool:
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
        quotient = list(accumulate(quotient, lambda acc, b: acc * a + b))
        if quotient.pop() != c:
            return False
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
