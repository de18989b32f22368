"""Exact scalar, polynomial, and series arithmetic.

Everything here is integer or rational arithmetic with no rounding of any
kind: integers are Python ints, rationals are ``fractions.Fraction`` (always
stored in lowest terms with positive denominator), and polynomials carry a
dense ascending list of rational coefficients in the twist variable t.

Evaluation (:meth:`QPolynomial.__call__`) and :func:`lagrange_interpolate`
run on Python ints and build one ``Fraction`` per result: evaluation is
Horner's rule over the common denominator of the coefficients, scaled once
per polynomial, and interpolation, one of the two routes of every chi build,
runs a fraction-free divided-difference table and expands it in integers.
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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class QPolynomial:
    """Univariate polynomial in the twist variable t with exact rational
    coefficients, stored densely in ascending degree.

    The highest-index coefficient is nonzero unless the polynomial is zero,
    which is represented by an empty coefficient tuple (degree -1).
    Instances are immutable and safe to share between threads.
    """

    coefficients: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in self.coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

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
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coefficients:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coefficients[-1]

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self.coefficients):
            return self.coefficients[power]
        return Fraction(0)

    @cached_property
    def _integer_form(self) -> tuple[int, tuple[int, ...]]:
        """The common denominator D of the coefficients, and D times each
        coefficient, highest degree first; built once per polynomial."""
        common = math.lcm(*(c.denominator for c in self.coefficients))
        return common, tuple(c.numerator * (common // c.denominator)
                             for c in reversed(self.coefficients))

    def __call__(self, point: RationalLike) -> Fraction:
        """Value at ``point``: Horner's rule on integers, over the common
        denominator D of the coefficients and with the point p/q
        homogenized, so that acc = D * q^n * value after the last step."""
        if not self.coefficients:
            return Fraction(0)
        x = Fraction(point)
        p, q = x.numerator, x.denominator
        common, scaled = self._integer_form
        acc = 0
        q_power = 1  # q^j at the coefficient j places below the top
        for c in scaled:
            acc = acc * p + c * q_power
            q_power *= q
        return Fraction(acc, common * (q_power // q))

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + (-other)

    def __mul__(self, other: "QPolynomial | RationalLike") -> "QPolynomial":
        if isinstance(other, QPolynomial):
            out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
            for i, a in enumerate(self.coefficients):
                if a == 0:
                    continue
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
            return QPolynomial(out)
        scale = Fraction(other)
        return QPolynomial(tuple(c * scale for c in self.coefficients))

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

    Computed by Newton divided differences, fraction-free: the abscissae
    and ordinates are scaled to integers u_j and v_j, and with
    M = prod_{r=1..n-1} lcm_i (u_i - u_{i-r}) every divided difference of the
    v_j times M is an integer (by induction over the columns, as the column
    of order r divides only by the spacings u_i - u_{i-r}), so the table
    needs only exact integer division (a nonzero remainder raises
    :class:`InternalMismatch`).  The Newton form is expanded in integers,
    and one ``Fraction`` is built per coefficient, so the result reproduces
    every node ordinate with zero error.  Raises :class:`DuplicateNode` if
    two abscissae coincide.
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
    scale = math.prod(math.lcm(*(us[i] - us[i - r] for i in range(r, n))) for r in range(1, n))

    # Divided-difference table, in place: coef[i] ends as scale * v[u_0, ..., u_i].
    coef = [y.numerator * (y_scale // y.denominator) * scale for y in ys]
    for order in range(1, n):
        for i in range(n - 1, order - 1, -1):
            coef[i], remainder = divmod(coef[i] - coef[i - 1], us[i] - us[i - order])
            if remainder:
                raise InternalMismatch(
                    f"divided difference of order {order} at node {i} is not a multiple of 1/{scale}"
                )

    # Expand the Newton form coef[0] + coef[1](u-u_0) + ... into monomials.
    poly = [coef[n - 1]]
    for i in range(n - 2, -1, -1):
        shifted = [0, *poly]
        for power, c in enumerate(poly):
            shifted[power] -= us[i] * c
        shifted[0] += coef[i]
        poly = shifted

    coefficients = []
    x_power = 1
    for c in poly:
        coefficients.append(Fraction(c * x_power, scale * y_scale))
        x_power *= x_scale
    return QPolynomial(tuple(coefficients))


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
    return QPolynomial(q[:krull_dim + 1])
