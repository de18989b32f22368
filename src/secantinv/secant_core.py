"""The Hilbert engine for secant varieties of curves.

A :class:`SecantInstance` is the triple (genus g, embedding degree d, secant
order k) with d >= 2g+2k+1, describing the k-th secant variety of a smooth
genus-g curve embedded in P^{d-g} by a nonspecial line bundle of degree d.
The variety has dimension 2k+1, its homogeneous coordinate ring has Krull
dimension 2k+2, and its Euler characteristic chi(t) of twists is a
polynomial of degree 2k+1.

chi is pinned down by its values at the 2k+2 twists -k..k+1 (the node
values): 1 - C(g+k, k+1) at twist 0, C(d-g+l, l) at twists 1..k+1, and at
negative twists the value forced by the vanishing of the alternating sum
sum_{i=0..k} (-1)^i C(g,i) chi_{k-i}(l) over lower secant orders of the same
(g, d).  The node values are integers, built bottom-up in one table per
(g, d), shared by every order and grown on demand.  The polynomial is then
computed twice, by Gregory-Newton forward differences over (2k+1)! and by
Newton divided differences over the interpolation table's running scale,
both in integer arithmetic and both ending in chi's Newton form on the node
twists; the table's abscissae increase by 1, so it skips the lcm of each
column's gaps.  The two routes are compared as reduced Newton coefficients
and must agree exactly.  The degree, the generator count, the Hilbert
function, the cohomology tables and the series checks read that form; the
monomial form is built once, by :func:`hilbert_polynomial` or a first read of
``numerators``, and is certified by synthetic division back to the Newton
coefficients.  No coefficient of chi or of the series numerator becomes a
``Fraction`` unless a caller reads ``coefficients``.  The Hilbert series
numerator is read from the node values too, by differences and Stanley's
reciprocity; its integer coefficients must sum to the degree, and one sum
over them, the expansion at twist k+2, to chi(k+2).  A series that passes
both checks is kept beside the rows of its (g, d) node table and returned to
every later request of its order, so emptying the node-table cache
(``_node_table.cache_clear()``) empties it too; a build that fails a check
keeps nothing.  Orders above 200, genera
above 10**6, degrees above 10**9 and twists above 10**6 are refused, and so
is any integer argument that is not a whole number.  Every integer argument
of the engine, the cohomology tables, the tangent cones and ``sweep`` is
admitted by ``_admit``, which checks its limit, its integrality and its
lower bound in that order.  Every refusal that prints an integer it was
passed formats it through ``_refuse``, which refuses an integer with more
than 4,300 digits, the most Python prints, by name instead.

The twist variable is written t throughout; s is reserved for stratum
indices (see :mod:`secantinv.tangent_geometry`).
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, NamedTuple, NoReturn

from .errors import DomainError, GeneratorDegreeUnknown, InternalMismatch
from .exactmath import QPolynomial, binomial, lagrange_interpolate

__all__ = [
    "SecantInstance",
    "NodeValues",
    "HilbertSeries",
    "node_values",
    "hilbert_polynomial",
    "hilbert_function",
    "variety_degree",
    "hilbert_series",
    "generator_count",
    "canonical_h0",
]


# Admission limit: the largest secant order accepted.  The time and memory
# of a chi build grow with the order without bound.
_MAX_ORDER = 200

# Admission limits: the largest genus, also of a line bundle, degree and twist.
# At (10**6, 10**9, 200) and twist 10**6 a value has under 3,000 digits.
_MAX_GENUS = 10**6
_MAX_DEGREE = 10**9
_MAX_TWIST = 10**6

# Admission limits of HilbertSeries.expand: the most values, and the most
# running-sum steps, max(count, 1) * krull_dim, it takes.
_MAX_EXPAND = 10**4
_MAX_EXPAND_WORK = 2 * 10**5


# The smallest absolute value with more than 4,300 digits, the most that
# Python converts to a string by default.  Such a value is refused unprinted.
_MAX_PRINTED = 10**4300


def _refuse(template: str, *values: tuple[str, int], error: type[Exception] = DomainError,
            **fixed: object) -> NoReturn:
    """Raise ``error`` with ``template`` filled in: each ``{}`` by the value of
    one (label, value) pair, in order, and each named field by ``fixed``.  A
    value too long to print, or a fraction whose numerator or denominator
    is, is refused first, by its label, as a :class:`DomainError`.  ``fixed``
    holds only values the caller derived or read from an admitted instance or
    bundle."""
    for label, value in values:
        terms = (value.numerator, value.denominator) if hasattr(value, "denominator") else (value,)
        if any(abs(term) >= _MAX_PRINTED for term in terms):
            raise DomainError(f"{label} has more than 4000 digits")
    raise error(template.format(*(value for _, value in values), **fixed))


# The message of a value below ``low`` when the caller gives no template.
_SIGN = {0: "must be nonnegative", 1: "must be positive"}


def _admit(label: str, value: int, low: int | None = None, limit: int | None = None,
           below: str = "", limit_name: str = "maximum", **fixed: object) -> None:
    """Admit the integer argument ``value``, or refuse it, in this order: above
    ``limit``, which the message calls ``limit_name``, or too long to print
    whatever its sign, where there is a limit; not a whole number, such as 3/2
    or 1.5; below ``low``, by ``below`` if given (its ``{}`` is the value, and
    its named fields are ``low`` and ``fixed``).  A caller runs it before any
    other check of ``value``."""
    if limit is not None and (value > limit or abs(value) >= _MAX_PRINTED):
        _refuse(f"{label} {{}} exceeds the {limit_name} {limit}", (label, value))
    if value % 1:
        _refuse(f"{label} {{}} must be an integer", (label, value))
    if low is not None and value < low:
        _refuse(below or f"{label} {{}} {_SIGN[low]}", (label, value), low=low, **fixed)


@dataclass(frozen=True)
class SecantInstance:
    """(genus, degree, order) = (g, d, k), d >= 2g+2k+1, g <= 10**6, d <= 10**9, k <= 200."""

    genus: int
    degree: int
    order: int

    def __post_init__(self) -> None:
        _admit("genus", self.genus, 0, _MAX_GENUS)
        _admit("order", self.order, 0, _MAX_ORDER, limit_name="maximum order")
        _admit("degree", self.degree, 2 * self.genus + 2 * self.order + 1, _MAX_DEGREE,
               "degree {} violates d >= 2g+2k+1 = {low}")

    @property
    def ambient_dim(self) -> int:
        """Dimension r = d - g of the ambient projective space."""
        return self.degree - self.genus

    @property
    def variety_dim(self) -> int:
        return 2 * self.order + 1

    @property
    def krull_dim(self) -> int:
        """Krull dimension of the homogeneous coordinate ring."""
        return 2 * self.order + 2

    def to_json_dict(self) -> dict:
        return {"genus": self.genus, "degree": self.degree, "order": self.order}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SecantInstance":
        return cls(int(data["genus"]), int(data["degree"]), int(data["order"]))


@dataclass(frozen=True)
class NodeValues:
    """chi values at the 2k+2 interpolation twists -k..k+1.

    ``entries[i]`` holds the value at twist i - order.  Every entry is an
    integer, positive at twists 1..k+1, and equals the Hilbert polynomial of
    the instance evaluated at its twist.
    """

    order: int
    entries: tuple[int, ...]

    @property
    def twists(self) -> range:
        return range(-self.order, self.order + 2)

    def __getitem__(self, twist: int) -> int:
        if twist not in self.twists:
            _refuse("twist {} outside node range {nodes}", ("twist", twist), error=KeyError,
                    nodes=self.twists)
        return self.entries[twist + self.order]

    def items(self) -> Iterator[tuple[int, int]]:
        for twist in self.twists:
            yield twist, self[twist]


@dataclass(frozen=True)
class HilbertSeries:
    """Hilbert series numerator Q with H(t) = Q(t)/(1-t)^krull_dim.

    Q has nonnegative integer coefficients (Cohen-Macaulayness of the
    coordinate ring), Q(0) = 1, and Q(1) is the degree of the variety.
    """

    numerator: QPolynomial
    krull_dim: int

    def __post_init__(self) -> None:
        _admit("krull_dim", self.krull_dim, 1)
        # integer coefficients are read as the ints they are, with no Fraction
        poly = self.numerator
        coefficients = poly.numerators if poly.denominator == 1 else poly.coefficients
        # a coefficient too long to print is refused before a check prints it
        for c in coefficients:
            if abs(c.numerator) >= _MAX_PRINTED or c.denominator >= _MAX_PRINTED:
                raise DomainError("series numerator coefficient has more than 4000 digits")
        constant = coefficients[0] if coefficients else 0
        if constant != 1:
            raise InternalMismatch(f"series numerator has constant term {constant}, expected 1")
        for power, c in enumerate(coefficients):
            if c.denominator != 1 or c < 0:
                raise InternalMismatch(
                    f"series numerator coefficient {c} at power {power} is not a nonnegative integer"
                )

    def degree(self) -> int:
        """Degree of the variety, namely Q(1)."""
        return sum(self.numerator.numerators)

    def expand(self, count: int) -> list[int]:
        """First ``count`` Hilbert-function values H(0), ..., H(count-1):
        krull_dim running sums of the numerator's coefficients, each a
        division by (1-t).  A count above 10**4, or work max(count, 1) *
        krull_dim above 2 * 10**5, is refused."""
        _admit("count", count, 0, _MAX_EXPAND)
        _admit("expansion work", max(count, 1) * self.krull_dim, limit=_MAX_EXPAND_WORK)
        q = self.numerator.numerators  # integers, over denominator 1
        values = [*q[:count], *[0] * (count - len(q))]
        for _ in range(self.krull_dim):
            values = list(accumulate(values))
        return values

    def to_json_dict(self) -> dict:
        return {"numerator": self.numerator.to_strings(), "krull_dim": self.krull_dim}


class _NodeTable(NamedTuple):
    """The node table of (g, d), shared by every order: row j of ``rows``
    holds chi_j from twist j+1 downward, so it is grown by appending rows and
    by appending lower twists to a row.  ``series`` holds the Hilbert series
    built so far from those rows, by order."""

    rows: list[list[int]]
    series: dict[int, HilbertSeries]


@lru_cache(maxsize=None)
def _node_table(genus: int, degree: int) -> _NodeTable:
    """The (g, d) node table.  It starts empty; :func:`_node_values` grows
    its rows and :func:`hilbert_series` fills its series."""
    return _NodeTable([], {})


# Growth of a node table is check-then-append on a list every thread of the
# process shares, so it runs under one lock; reading a built row needs none.
# The table is looked up under the same lock, because lru_cache calls
# _node_table once per thread that misses, and keeps only one of the tables.
_GROWTH = threading.Lock()


def _node_values(genus: int, degree: int, order: int) -> tuple[int, ...]:
    """Node values of order k at twists -k..k+1, as a tuple indexed by
    twist + k, read from the (g, d) node table after growing it to order k.

    The twists -1..-j of row j come from the rows below it, and the
    vanishing (2j+2)-th forward difference of chi_j extends it further.  Row
    j is read only by rows j+1..j+min(g, k-j), at twists no lower than
    -(j + min(g, k-j)), so it keeps 2j+2+min(g, K-j) entries for the highest
    order K asked for so far (at g = 0 no row is extended).  Growth to a
    higher order is one bottom-up pass that builds each missing row and
    deepens each row to that length, so every row a new row reads is already
    at its final depth; a lower order reads its row.  A row joins the table
    only once its 2j+2 node values are complete, and a row is deepened only
    by appending exact values, so an interrupted growth leaves a table that
    is still consistent."""
    g, d, k = genus, degree, order
    with _GROWTH:
        rows = _node_table(g, d).rows
        if k >= len(rows):
            weights = [(-1) ** i * binomial(g, i) for i in range(1, min(g, k) + 1)]
            for j in range(k + 1):
                if j == len(rows):
                    # The positive values C(d-g+t, t) at twists j..1 are the
                    # first j entries of row j-1, shared rather than rebuilt.
                    row = [binomial(d - g + j + 1, j + 1), *(rows[j - 1][:j] if j else ()),
                           1 - binomial(g + j, j + 1)]
                    # The alternating sum over i = 0..j of (-1)^i C(g,i)
                    # chi_{j-i} vanishes at twists -1..-j, so the i = 0 term
                    # is minus the rest; chi_{j-i} at those twists is entries
                    # j-i+2..2j-i+1 of row j-i.
                    negative = [0] * j
                    for i, w in enumerate(weights[:j], 1):
                        lower = rows[j - i][j - i + 2:2 * j - i + 2]
                        negative = [v - w * u for v, u in zip(negative, lower)]
                    rows.append(row + negative)
                _deepen(rows[j], j, 2 * j + 2 + min(g, k - j))
    return tuple(rows[k][2 * k + 1::-1])


def _deepen(row: list[int], j: int, length: int) -> None:
    """Append lower twists to row j until it has ``length`` entries: chi_j
    has degree 2j+1, so its (2j+2)-th forward difference vanishes and each
    value is fixed by the 2j+2 above it."""
    if len(row) >= length:
        return
    steps = [(-1) ** m * math.comb(2 * j + 2, m) for m in range(2 * j + 2, 0, -1)]
    while len(row) < length:
        row.append(-sum(map(operator.mul, steps, row[-len(steps):])))


def _closed_form(genus: int, degree: int, order: int) -> QPolynomial:
    """chi by the Gregory-Newton forward-difference formula, in integers.

    On the unit-spaced node twists -k..k+1, chi(t) = sum_{m=0..n} D_m C(t+k, m)
    with n = 2k+1 and D_m the m-th forward difference of the node values at
    twist -k.  C(t+k, m) is prod_{i<m} (t - (i-k)) / m!, so chi is held in
    Newton form on those twists, coefficient m being D_m n!/m! over n!.
    """
    k = order
    n = 2 * k + 1
    row = _node_values(genus, degree, order)
    differences = []  # D_0..D_n
    for _ in range(n + 1):
        differences.append(row[0])
        row = list(map(operator.sub, row[1:], row[:-1]))
    scale = 1  # n!/m!, from m = n down
    for m in range(n, 0, -1):
        differences[m] *= scale
        scale *= m
    differences[0] *= scale
    return QPolynomial._newton(differences, range(-k, k + 2), scale)


@lru_cache(maxsize=None)
def _chi(genus: int, degree: int, order: int) -> QPolynomial:
    """Memoized Hilbert polynomial, computed by both routes and compared in
    their Newton forms on the node twists.  It is returned in that form:
    its degree, leading coefficient and values at integers read it, and its
    monomial form is built on first read."""
    closed = _closed_form(genus, degree, order)
    nodes = _node_values(genus, degree, order)
    interpolated = lagrange_interpolate(
        [(index - order, value) for index, value in enumerate(nodes)]
    )
    if closed != interpolated:  # named, not printed: chi at order 200 prints in about 470 kB
        raise InternalMismatch(
            f"closed form and interpolant disagree for (g, d, k) = ({genus}, {degree}, {order})"
        )
    if closed.degree != 2 * order + 1 or closed.leading_coefficient <= 0:
        raise InternalMismatch(
            f"chi for ({genus}, {degree}, {order}) has degree {closed.degree} "
            f"and leading coefficient {closed.leading_coefficient}"
        )
    return closed


def node_values(inst: SecantInstance) -> NodeValues:
    """The 2k+2 chi values that determine the Hilbert polynomial."""
    return NodeValues(inst.order, _node_values(inst.genus, inst.degree, inst.order))


def hilbert_polynomial(inst: SecantInstance) -> QPolynomial:
    """chi(t), the Euler characteristic of the twist-t line bundle, as a
    degree-(2k+1) polynomial with positive leading coefficient."""
    chi = _chi(inst.genus, inst.degree, inst.order)
    chi.numerators  # its monomial form, built and checked here, not at a caller's first read
    return chi


def hilbert_function(inst: SecantInstance, twist: int) -> int:
    """Dimension of the degree-``twist`` graded piece of the coordinate ring.

    Equals 1 at twist 0 (projective normality) and chi(twist) for twist > 0,
    where all higher cohomology of the twist vanishes; a twist above 10**6,
    or not an integer, is refused.
    """
    _admit("twist", twist, 0, _MAX_TWIST, "hilbert_function needs twist >= 0, got {}")
    if twist == 0:
        return 1
    value = _chi(inst.genus, inst.degree, inst.order)(twist)
    if value.denominator != 1 or value <= 0:
        raise InternalMismatch(f"chi({twist}) = {value} is not a positive integer")
    return int(value)


def variety_degree(inst: SecantInstance) -> int:
    """(2k+1)! times the leading coefficient of chi."""
    lead = _chi(inst.genus, inst.degree, inst.order).leading_coefficient
    scaled = lead.numerator * math.factorial(inst.variety_dim)
    value, remainder = divmod(scaled, lead.denominator)
    if remainder or value < 1:
        value = Fraction(scaled, lead.denominator)
        raise InternalMismatch(f"degree {value} is not a positive integer")
    return value


def _series_numerator(genus: int, degree: int, order: int) -> list[int]:
    """Coefficients Q_0..Q_K of the series numerator, K = 2k+2, read from the
    node values with no evaluation of chi.

    Q is the Hilbert function times (1-t)^K, so Q_0..Q_{k+1} are the first
    k+2 entries of K backward differences of 1, chi(1), ..., chi(k+1).  By
    Stanley's reciprocity, sum_{n>=1} chi(-n) t^n = -sum_{n>=0} chi(n) t^-n as
    rational functions, so for even K the same passes over 1 - chi(0),
    -chi(-1), ..., -chi(-k) give Q_K down to Q_{k+2}."""
    k = order
    nodes = _node_values(genus, degree, order)
    # reversed(nodes[:k]), not nodes[k-1::-1], which is every node at k = 0
    head = [1, *nodes[k + 1:]]
    tail = [1 - nodes[k], *(-v for v in reversed(nodes[:k]))]
    for _ in range(2 * k + 2):
        head = list(map(operator.sub, head, [0, *head]))
        tail = list(map(operator.sub, tail, [0, *tail]))
    return head + tail[::-1]


def hilbert_series(inst: SecantInstance) -> HilbertSeries:
    """Hilbert series numerator over (1-t)^{2k+2}, read from the node values.

    On the integer coefficients Q_0..Q_K, K = 2k+2: Q(1) must be the degree,
    and sum_{j=0..k+2} Q_j C(k+1-j+K, K-1), the expansion at twist k+2, must
    be chi(k+2); otherwise :class:`InternalMismatch` is raised.  A series that
    passes is kept in the (g, d) node table, and every later call returns it."""
    k = inst.order
    with _GROWTH:
        built = _node_table(inst.genus, inst.degree).series
    if k in built:
        return built[k]
    q = _series_numerator(inst.genus, inst.degree, k)
    series = HilbertSeries(QPolynomial._over(q, 1), inst.krull_dim)
    if sum(q) != variety_degree(inst):
        raise InternalMismatch(
            f"series numerator at 1 gives {sum(q)}, "
            f"variety degree is {variety_degree(inst)}"
        )
    expanded = sum(c * math.comb(3 * k + 3 - j, 2 * k + 1) for j, c in enumerate(q[:k + 3]))
    value = hilbert_function(inst, k + 2)
    if expanded != value:
        raise InternalMismatch(
            f"series expansion at twist {k + 2} gives {expanded}, chi gives {value}"
        )
    return built.setdefault(k, series)


def generator_count(inst: SecantInstance) -> int:
    """Number of minimal generators of the defining ideal, all in degree k+2.

    Defined only for d >= 2g+2k+2; at the boundary d = 2g+2k+1 generation in
    degree k+2 is not guaranteed and :class:`GeneratorDegreeUnknown` is raised.
    """
    g, d, k = inst.genus, inst.degree, inst.order
    if d < 2 * g + 2 * k + 2:
        raise GeneratorDegreeUnknown(
            f"degree {d} = 2g+2k+1: generators of degree k+2 not guaranteed, "
            f"need d >= {2 * g + 2 * k + 2}"
        )
    count = binomial(d - g + k + 2, k + 2) - hilbert_function(inst, k + 2)
    if count < 0:
        raise InternalMismatch(f"negative generator count {count}")
    return count


def canonical_h0(inst: SecantInstance) -> int:
    """Number of independent sections of the dualizing sheaf:
    C(g+k, k+1), which equals 1 - chi(0)."""
    return binomial(inst.genus + inst.order, inst.order + 1)
