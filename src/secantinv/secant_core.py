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
(g, d).  The node values are integers, built bottom-up in one table: row j
holds chi_j at twists -k..j+1, its negative twists come from the rows below
it, and the vanishing (2j+2)-th forward difference of chi_j extends it below
twist -j.  The polynomial is then computed twice, by a closed form and by
Lagrange interpolation, and the two must agree exactly.

The twist variable is written t throughout; s is reserved for stratum
indices (see :mod:`secantinv.tangent_geometry`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import DomainError, GeneratorDegreeUnknown, InternalMismatch
from .exactmath import QPolynomial, binomial, binomial_poly, lagrange_interpolate, finite_difference_numerator

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


@dataclass(frozen=True)
class SecantInstance:
    """(genus, degree, order) = (g, d, k) with d >= 2g+2k+1."""

    genus: int
    degree: int
    order: int

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise DomainError(f"genus {self.genus} must be nonnegative")
        if self.order < 0:
            raise DomainError(f"order {self.order} must be nonnegative")
        bound = 2 * self.genus + 2 * self.order + 1
        if self.degree < bound:
            raise DomainError(
                f"degree {self.degree} violates d >= 2g+2k+1 = {bound}"
            )

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
            raise KeyError(f"twist {twist} outside node range {self.twists}")
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
        if self.krull_dim < 1:
            raise DomainError(f"krull_dim {self.krull_dim} must be positive")
        if self.numerator.coefficient(0) != 1:
            raise InternalMismatch(
                f"series numerator has constant term {self.numerator.coefficient(0)}, expected 1"
            )
        for power, c in enumerate(self.numerator.coefficients):
            if c.denominator != 1 or c < 0:
                raise InternalMismatch(
                    f"series numerator coefficient {c} at power {power} is not a nonnegative integer"
                )

    def degree(self) -> int:
        """Degree of the variety, namely Q(1)."""
        return int(self.numerator(1))

    def expand(self, count: int) -> list[int]:
        """First ``count`` Hilbert-function values H(0), ..., H(count-1)."""
        out = []
        for twist in range(count):
            acc = 0
            for power, c in enumerate(self.numerator.coefficients):
                if power > twist:
                    break  # t^power contributes nothing below degree power
                acc += int(c) * binomial(twist - power + self.krull_dim - 1, self.krull_dim - 1)
            out.append(acc)
        return out

    def to_json_dict(self) -> dict:
        return {"numerator": self.numerator.to_strings(), "krull_dim": self.krull_dim}


@lru_cache(maxsize=None)
def _node_table(genus: int, degree: int, order: int) -> tuple[int, ...]:
    """Node values at twists -k..k+1, as a tuple indexed by twist + k: the
    last row of a table whose row j holds chi_j at twists -k..j+1."""
    g, d, k = genus, degree, order
    rows: list[list[int]] = []
    for j in range(k + 1):
        row = [0] * (k + j + 2)
        row[k] = 1 - binomial(g + j, j + 1)
        for twist in range(1, j + 2):
            row[twist + k] = binomial(d - g + twist, twist)
        for twist in range(-j, 0):
            # The alternating sum over i = 0..j of (-1)^i C(g,i) chi_{j-i}(twist)
            # vanishes at these twists, so the i = 0 term is minus the rest.
            row[twist + k] = -sum((-1) ** i * binomial(g, i) * rows[j - i][twist + k]
                                  for i in range(1, min(g, j) + 1))
        # chi_j has degree 2j+1, so its (2j+2)-th forward difference vanishes;
        # that extends the row from twist -j down to -k.
        steps = [(-1) ** m * binomial(2 * j + 2, m) for m in range(1, 2 * j + 3)]
        for index in range(k - j - 1, -1, -1):
            row[index] = -sum(w * row[index + m] for m, w in enumerate(steps, 1))
        rows.append(row)
    return tuple(rows[k])


def _closed_form(genus: int, degree: int, order: int) -> QPolynomial:
    """chi as the explicit node-weighted sum.

    Each node twist l contributes (-1)^{k+1-l} a_l C(2k+2, k+l) (k+2-l)
    times the exact quotient of C(t+k, 2k+2) by its linear factor (t - l);
    the quotient is exact because every node twist is a root of C(t+k, 2k+2).
    """
    k = order
    nodes = _node_table(genus, degree, order)
    base = binomial_poly(k, 2 * k + 2)
    total = QPolynomial.zero()
    for index, a in enumerate(nodes):
        twist = index - k
        quotient, remainder = base.divide_by_linear(twist)
        if remainder != 0:
            raise InternalMismatch(
                f"C(t+{k}, {2 * k + 2}) is not divisible by (t - {twist})"
            )
        weight = (-1) ** (k + 1 - twist) * a * binomial(2 * k + 2, k + twist) * (k + 2 - twist)
        total = total + quotient * weight
    return total


@lru_cache(maxsize=None)
def _chi(genus: int, degree: int, order: int) -> QPolynomial:
    """Memoized Hilbert polynomial, computed by both routes and compared."""
    closed = _closed_form(genus, degree, order)
    nodes = _node_table(genus, degree, order)
    interpolated = lagrange_interpolate(
        [(index - order, value) for index, value in enumerate(nodes)]
    )
    if closed != interpolated:
        raise InternalMismatch(
            f"closed form {closed} and interpolant {interpolated} disagree "
            f"for (g, d, k) = ({genus}, {degree}, {order})"
        )
    if closed.degree != 2 * order + 1 or closed.leading_coefficient <= 0:
        raise InternalMismatch(
            f"chi for ({genus}, {degree}, {order}) has degree {closed.degree} "
            f"and leading coefficient {closed.leading_coefficient}"
        )
    return closed


def node_values(inst: SecantInstance) -> NodeValues:
    """The 2k+2 chi values that determine the Hilbert polynomial."""
    return NodeValues(inst.order, _node_table(inst.genus, inst.degree, inst.order))


def hilbert_polynomial(inst: SecantInstance) -> QPolynomial:
    """chi(t), the Euler characteristic of the twist-t line bundle, as a
    degree-(2k+1) polynomial with positive leading coefficient."""
    return _chi(inst.genus, inst.degree, inst.order)


def hilbert_function(inst: SecantInstance, twist: int) -> int:
    """Dimension of the degree-``twist`` graded piece of the coordinate ring.

    Equals 1 at twist 0 (projective normality) and chi(twist) for twist > 0,
    where all higher cohomology of the twist vanishes.
    """
    if twist < 0:
        raise DomainError(f"hilbert_function needs twist >= 0, got {twist}")
    if twist == 0:
        return 1
    value = hilbert_polynomial(inst)(twist)
    if value.denominator != 1 or value <= 0:
        raise InternalMismatch(f"chi({twist}) = {value} is not a positive integer")
    return int(value)


def variety_degree(inst: SecantInstance) -> int:
    """(2k+1)! times the leading coefficient of chi."""
    lead = hilbert_polynomial(inst).leading_coefficient
    value = lead * math.factorial(inst.variety_dim)
    if value.denominator != 1 or value < 1:
        raise InternalMismatch(f"degree {value} is not a positive integer")
    return int(value)


def hilbert_series(inst: SecantInstance) -> HilbertSeries:
    """Hilbert series numerator over (1-t)^{2k+2} via finite differences."""
    def values(n: int) -> int:
        return hilbert_function(inst, n) if n >= 0 else 0

    numerator = finite_difference_numerator(values, inst.krull_dim, inst.krull_dim + 2)
    series = HilbertSeries(numerator, inst.krull_dim)
    if series.degree() != variety_degree(inst):
        raise InternalMismatch(
            f"series numerator at 1 gives {series.degree()}, "
            f"variety degree is {variety_degree(inst)}"
        )
    return series


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
