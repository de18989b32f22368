"""Cohomology dimension calculus on symmetric products of curves.

Line bundles enter only through their cohomological data (genus, degree,
h0, h1), captured by :class:`LineBundleClass`.  The operations compute
dimensions of cohomology groups of:

* the determinant line bundle of the rank-m tautological (secant) sheaf on
  the m-th symmetric product ("N" family) and the invariant descent of the
  m-fold box power ("T" family), both given by exterior/symmetric powers of
  h0 and h1 of the input bundle;
* symmetric powers of the secant sheaf, whose positive-twist cohomology is
  C(g,i) copies of the Hilbert function of a lower-order secant variety;
* exterior powers of the secant sheaf twisted by a second bundle, the Kunneth
  convolution of the "T" family of that bundle and the "N" family of the product;
* the canonical-twisted family, whose dimensions are -chi at negative twists.

All dimensions are exact nonnegative integers.
"""

from __future__ import annotations

from typing import Optional

from .errors import AmbiguousBundle, DomainError, InternalMismatch
from .exactmath import _Frozen, binomial
from .secant_core import (_MAX_GENUS, _MAX_TWIST, SecantInstance, _admit, _chi_value,
                          _hilbert_value, _refuse)

__all__ = [
    "LineBundleClass",
    "CohomologyTable",
    "TableEntry",
    "sym_dim",
    "wedge_dim",
    "coh_determinant_line",
    "coh_descent_line",
    "coh_sym_secant_sheaf",
    "higher_direct_image_ranks",
    "coh_wedge_secant_sheaf",
    "coh_canonical_twist",
    "line_bundle_table",
    "sym_secant_table",
    "wedge_secant_table",
    "canonical_twist_table",
]


# Admission limit: a line bundle's degree, h1 and h0 are below this in
# absolute value, checked first with the genus, so that every sum a later
# message prints stays inside Python's 4,300-digit int-to-str limit.
_MAX_BUNDLE_SIZE = 10**4000


class LineBundleClass(_Frozen):
    """Cohomological class (genus, degree, h0, h1) of a line bundle on a curve.

    Riemann-Roch ties the fields together: h0 - h1 = degree - genus + 1.
    Degree > 2g-2 forces h1 = 0, and negative degree forces h1 = g-1-degree
    (so h0 = 0).  In the special range 0 <= degree <= 2g-2 the degree does
    not determine h0/h1, so they must be supplied.  The genus is at most
    10**6, and the degree, h0 and h1 have at most 4,000 digits.
    """

    genus: int
    degree: int
    h0: int
    h1: int

    def __init__(self, genus: int, degree: int, h0: int, h1: int) -> None:
        g, d = genus, degree
        _admit("genus", g, limit=_MAX_GENUS)
        for label, value in (("degree", d), ("h1", h1), ("h0", h0)):
            if abs(value) >= _MAX_BUNDLE_SIZE:
                raise DomainError(f"{label} has more than 4000 digits")
            _admit(label, value)
        if d > 2 * g - 2:
            if h1 != 0:
                _refuse("degree {} > 2g-2 forces h1 = 0, got {}", ("degree", d), ("h1", h1))
        elif d < 0 and h1 != g - 1 - d:
            _refuse("degree {} < 0 forces h1 = {forced}, got {}", ("degree", d), ("h1", h1),
                    forced=g - 1 - d)
        # the signs only after the forcing checks, which name a bad input first
        if g < 0:
            _refuse("genus {} must be nonnegative", ("genus", g))
        if h0 < 0:
            _refuse("h0 = {}, h1 = {h1} must be nonnegative", ("h0", h0), h1=h1)
        if h1 < 0:
            _refuse("h0 = {h0}, h1 = {} must be nonnegative", ("h1", h1), h0=h0)
        if h0 - h1 != d - g + 1:
            raise DomainError(f"h0 - h1 = {h0 - h1} violates Riemann-Roch value {d - g + 1}")
        self.__dict__.update(genus=genus, degree=degree, h0=h0, h1=h1)

    @classmethod
    def nonspecial(cls, genus: int, degree: int) -> "LineBundleClass":
        """The class of any bundle with degree > 2g-2 (h1 = 0 is forced)."""
        _admit("degree", degree)
        _admit("genus", genus)
        if degree <= 2 * genus - 2:
            _refuse("degree {} is not forced nonspecial for genus {}", ("degree", degree),
                    ("genus", genus))
        return cls(genus, degree, degree - genus + 1, 0)

    @classmethod
    def trivial(cls, genus: int) -> "LineBundleClass":
        return cls(genus, 0, 1, genus)

    @classmethod
    def canonical(cls, genus: int) -> "LineBundleClass":
        return cls(genus, 2 * genus - 2, genus, 1)

    @classmethod
    def from_degree(
        cls, genus: int, degree: int, h1: Optional[int] = None
    ) -> "LineBundleClass":
        """Build a class from its degree, requiring h1 only when the degree
        does not force it (the special range 0 <= degree <= 2g-2)."""
        _admit("genus", genus, limit=_MAX_GENUS)
        _admit("degree", degree)
        if h1 is None:
            if 0 <= degree <= 2 * genus - 2:
                _refuse("degree {} lies in the special range 0..{top} for genus {}; "
                        "supply h1 explicitly", ("degree", degree), ("genus", genus),
                        error=AmbiguousBundle, top=2 * genus - 2)
            h1 = 0 if degree > 2 * genus - 2 else genus - 1 - degree
        return cls(genus, degree, degree - genus + 1 + h1, h1)


def sym_dim(n: int, j: int) -> int:
    """Dimension C(n+j-1, j) of the j-th symmetric power of an n-space
    (0 for j < 0, and 1 for j = 0 even when n = 0)."""
    if n < 0:
        raise ValueError("space dimension must be nonnegative")
    return binomial(n + j - 1, j)


def wedge_dim(n: int, j: int) -> int:
    """Dimension C(n, j) of the j-th exterior power of an n-space."""
    if n < 0:
        raise ValueError("space dimension must be nonnegative")
    return binomial(n, j)


# Admission limit: the largest symmetric product accepted.  A table has
# points + 1 entries, and a wedge table forms at most (points/2 + 1)**2 products.
_MAX_POINTS = 1000


# Admission limit: the largest h0 or h1 of a bundle given to the line-bundle
# and wedge families.  With the largest admitted points a value then has at
# most about 3,700 digits (line bundle) or 4,030 (wedge, all four factors at
# the limit), inside Python's 4,300-digit int-to-str limit.
_MAX_SECTIONS = 10**6


def _check_sections(**bundles: LineBundleClass) -> None:
    for name, bundle in bundles.items():
        for label, value in (("h0", bundle.h0), ("h1", bundle.h1)):
            if value > _MAX_SECTIONS:
                raise DomainError(f"{label} of {name} exceeds the maximum {_MAX_SECTIONS}")


# Each family's entry formula is one kernel, h^i of admitted arguments at any
# integer i.  A table admits its arguments once and calls its kernel at every
# index; a per-entry function admits its own and calls the same kernel.
def _admit_line(points: int, bundle: LineBundleClass) -> None:
    _admit("points", points, 1, _MAX_POINTS)
    _check_sections(L=bundle)


def _determinant_line(points: int, bundle: LineBundleClass, i: int) -> int:
    factor = sym_dim(bundle.h1, i)  # often 0, and then the h0 factor is skipped
    return factor and wedge_dim(bundle.h0, points - i) * factor


def _descent_line(points: int, bundle: LineBundleClass, i: int) -> int:
    factor = wedge_dim(bundle.h1, i)  # often 0, and then the h0 factor is skipped
    return factor and sym_dim(bundle.h0, points - i) * factor


def coh_determinant_line(points: int, bundle: LineBundleClass, i: int) -> int:
    """h^i on the ``points``-th symmetric product of the determinant of the
    tautological sheaf of ``bundle``: wedge^{m-i} h0 times sym^i h1."""
    _admit_line(points, bundle)
    _admit("cohomological index", i)
    return _determinant_line(points, bundle, i)


def coh_descent_line(points: int, bundle: LineBundleClass, i: int) -> int:
    """h^i on the ``points``-th symmetric product of the invariant descent of
    the box power of ``bundle``: sym^{m-i} h0 times wedge^i h1."""
    _admit_line(points, bundle)
    _admit("cohomological index", i)
    return _descent_line(points, bundle, i)


def _admit_sym_twist(twist: int) -> None:
    _admit("twist", twist, 0, below="coh_sym_secant_sheaf needs twist >= 0, got {}")


def _sym_secant(genus: int, degree: int, order: int, twist: int, i: int) -> int:
    """The kernel of :func:`coh_sym_secant_sheaf`; a positive twist must
    also be admitted as :func:`hilbert_function` admits it wherever chi is
    read.  Every lower order of an admitted (g, d, k) is admitted too."""
    if twist == 0:
        return binomial(genus, i) if 0 <= i <= order + 1 else 0
    factor = binomial(genus, i) if 0 <= i <= order else 0
    return factor and factor * _hilbert_value(genus, degree, order - i, twist)


def coh_sym_secant_sheaf(inst: SecantInstance, twist: int, i: int) -> int:
    """h^i of the twist-th symmetric power of the secant sheaf on C_{k+1}.

    For twist > 0 this is C(g, i) copies of the Hilbert function of the
    order-(k-i) secant variety for 0 <= i <= k, and 0 for i = k+1; at
    twist 0 it is C(g, i) for 0 <= i <= k+1 (cohomology of the structure
    sheaf of the symmetric product).  A twist that is not an integer is
    refused, and so is one above 10**6 where an entry reads chi.
    """
    _admit_sym_twist(twist)
    _admit("cohomological index", i)
    g, k = inst.genus, inst.order
    if twist and 0 <= i <= k and binomial(g, i):  # the entries that read chi
        _admit("twist", twist, limit=_MAX_TWIST)
    return _sym_secant(g, inst.degree, k, twist, i)


def higher_direct_image_ranks(inst: SecantInstance) -> list[tuple[int, int, int]]:
    """Nonzero higher direct images of the structure sheaf under the secant
    bundle's resolution map, as (i, multiplicity, support_order) triples:
    multiplicity C(g, i) copies supported on the order-(k-i) secant variety.
    Entries with multiplicity 0 are omitted; everything vanishes for i > k.
    """
    g, k = inst.genus, inst.order
    out = []
    for i in range(k + 1):
        mult = binomial(g, i)
        if mult > 0:
            out.append((i, mult, k - i))
    return out


def _product_class(
    left: LineBundleClass,
    right: LineBundleClass,
    supplied: Optional[LineBundleClass],
) -> LineBundleClass:
    """Class of the tensor product, derived when the degree forces it."""
    if left.genus != right.genus:
        raise DomainError(
            f"bundles have different genera {left.genus} and {right.genus}"
        )
    g = left.genus
    total = left.degree + right.degree
    if supplied is not None:
        if supplied.genus != g or supplied.degree != total:
            raise DomainError(
                f"supplied product class has (genus, degree) = "
                f"({supplied.genus}, {supplied.degree}), expected ({g}, {total})"
            )
        return supplied
    if total > 2 * g - 2 or total < 0:
        return LineBundleClass.from_degree(g, total)
    raise AmbiguousBundle(
        f"tensor-product degree {total} lies in the special range "
        f"0..{2 * g - 2}; supply its class explicitly"
    )


def _wedge_product(points: int, twist: int, bundle: LineBundleClass, twisting: LineBundleClass,
                   product: Optional[LineBundleClass]) -> LineBundleClass:
    """The product class of the wedge family, after its checks in this order:
    points, the product class, the sections of L, M and LM, the twist range."""
    _admit("points", points, 1, _MAX_POINTS)
    product = _product_class(bundle, twisting, product)
    _check_sections(L=bundle, M=twisting, LM=product)
    _admit("twist", twist)
    if not 1 <= twist <= points:
        _refuse("twist {} must lie in 1..{points}", ("twist", twist), points=points)
    return product


def _wedge_factors(points: int, twist: int, twisting: LineBundleClass,
                   product: LineBundleClass, top: int) -> tuple[list[int], list[int]]:
    """The two Kunneth factors of the wedge family up to index ``top``: h^p of
    the descent line of ``twisting`` on C_{points-twist} (a point when
    twist = points) and h^q of the determinant line of ``product`` on C_twist."""
    rest = points - twist
    left = [_descent_line(rest, twisting, p) for p in range(min(top, rest) + 1)] if rest else [1]
    return left, [_determinant_line(twist, product, q) for q in range(min(top, twist) + 1)]


def coh_wedge_secant_sheaf(
    points: int,
    twist: int,
    bundle: LineBundleClass,
    twisting: LineBundleClass,
    i: int,
    product: Optional[LineBundleClass] = None,
) -> int:
    """h^i on C_points of the twist-th exterior power of the secant sheaf of
    ``bundle``, tensored with the descent line bundle of ``twisting``.

    The dimension is the Kunneth convolution over p + q = i of h^p of the
    "T" (descent) family of ``twisting`` on C_{points-twist} and h^q of the
    "N" (determinant) family of ``product`` on C_twist, where ``product`` is
    the class of the tensor product of the two bundles.  That class is
    derived when its degree forces it and must be supplied otherwise.
    No positivity is required of either input bundle.
    """
    prod = _wedge_product(points, twist, bundle, twisting, product)
    _admit("cohomological index", i)
    if not 0 <= i <= points:
        _refuse("cohomological index {} must lie in 0..{points}", ("cohomological index", i),
                points=points)
    left, right = _wedge_factors(points, twist, twisting, prod, i)
    return sum(a * right[i - p] for p, a in enumerate(left) if i - p < len(right))


def _admit_canonical_twist(twist: int) -> None:
    _admit("twist", twist, 1, _MAX_TWIST, "coh_canonical_twist needs twist > 0, got {}")


def _canonical_twist(genus: int, degree: int, order: int, twist: int, i: int) -> int:
    if not 0 <= i <= min(1, order):
        return 0
    value = -_chi_value(genus, degree, order - i, -twist)
    if value < 0:
        raise InternalMismatch(
            f"-chi(-{twist}) = {value} is not a nonnegative integer "
            f"for (g, d, k) = ({genus}, {degree}, {order})"
        )
    return value


def coh_canonical_twist(inst: SecantInstance, twist: int, i: int) -> int:
    """h^i of the canonical-twisted symmetric powers for twist > 0: -chi at
    twist -twist of the order-(k-i) secant variety for i in {0, 1} with
    i <= k, and 0 otherwise.  A twist above 10**6, or not an integer, is
    refused."""
    _admit_canonical_twist(twist)
    _admit("cohomological index", i)
    return _canonical_twist(inst.genus, inst.degree, inst.order, twist, i)


class TableEntry(_Frozen):
    """One table cell: cohomological index i, twist (None when the family
    has no twist parameter), and the dimension."""

    i: int
    twist: Optional[int]
    dim: int

    def __init__(self, i: int, twist: Optional[int], dim: int) -> None:
        self.__dict__.update(i=i, twist=twist, dim=dim)


class CohomologyTable(_Frozen):
    """A family tag, the parameters as supplied, and the dimension entries.

    Entries cover the full cohomological range of the family with explicit
    zeros, so consumers never guess the support.
    """

    family: str
    params: tuple[tuple[str, str], ...]
    entries: tuple[TableEntry, ...]

    def __init__(self, family: str, params: tuple[tuple[str, str], ...],
                 entries: tuple[TableEntry, ...]) -> None:
        self.__dict__.update(family=family, params=params, entries=entries)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "params": {key: value for key, value in self.params},
            "entries": [
                {"i": e.i, "l": e.twist, "dim": str(e.dim)} for e in self.entries
            ],
        }


# The parameter names of each table family, in the order its tables list them.
_SECANT_PARAMS = ("genus", "degree", "order", "twist")
_LINE_PARAMS = ("points", "genus", "bundle_degree", "h0", "h1")
TABLE_PARAMS = {
    "N": _LINE_PARAMS,
    "T": _LINE_PARAMS,
    "SymE": _SECANT_PARAMS,
    "WedgeE": ("points", "twist", "genus", "bundle_degree", "bundle_h1",
               "twisting_degree", "twisting_h1"),
    "CanonicalSymE": _SECANT_PARAMS,
}


def _table(family: str, values: tuple, twist: Optional[int], dims: list[int]) -> CohomologyTable:
    """The ``family`` table with parameter ``values`` in the order of
    ``TABLE_PARAMS[family]`` and entries h^i = dims[i], i = 0, 1, ...; its
    builder has admitted every value, so none is too long to print."""
    entries = tuple(TableEntry(i, twist, dim) for i, dim in enumerate(dims))
    return CohomologyTable(family, tuple(zip(TABLE_PARAMS[family], map(str, values))), entries)


def line_bundle_table(
    family: str, points: int, bundle: LineBundleClass
) -> CohomologyTable:
    """Table of h^i, i = 0..points, for the "N" (determinant) or "T"
    (descent) line-bundle family on the points-th symmetric product."""
    _admit("points", points, 1)  # a bad points value is refused before a bad family
    kernel = {"N": _determinant_line, "T": _descent_line}.get(family)
    if kernel is None:
        raise DomainError(f"unknown line-bundle family {family!r}, expected N or T")
    _admit_line(points, bundle)
    dims = [kernel(points, bundle, i) for i in range(points + 1)]
    return _table(family, (points, bundle.genus, bundle.degree, bundle.h0, bundle.h1),
                  None, dims)


def sym_secant_table(inst: SecantInstance, twist: int) -> CohomologyTable:
    _admit_sym_twist(twist)
    if twist:  # entry 0, one copy of chi_k(twist), reads chi
        _admit("twist", twist, limit=_MAX_TWIST)
    g, d, k = inst.genus, inst.degree, inst.order
    dims = [_sym_secant(g, d, k, twist, i) for i in range(k + 2)]
    return _table("SymE", (g, d, k, twist), twist, dims)


def wedge_secant_table(
    points: int,
    twist: int,
    bundle: LineBundleClass,
    twisting: LineBundleClass,
    product: Optional[LineBundleClass] = None,
) -> CohomologyTable:
    product = _wedge_product(points, twist, bundle, twisting, product)
    left, right = _wedge_factors(points, twist, twisting, product, points)
    nonzero = [(q, b) for q, b in enumerate(right) if b]
    dims = [0] * (points + 1)
    for p, a in enumerate(left):
        if a:
            for q, b in nonzero:
                dims[p + q] += a * b
    values = (points, twist, bundle.genus, bundle.degree, bundle.h1,
              twisting.degree, twisting.h1)
    return _table("WedgeE", values, twist, dims)


def canonical_twist_table(inst: SecantInstance, twist: int) -> CohomologyTable:
    _admit_canonical_twist(twist)
    g, d, k = inst.genus, inst.degree, inst.order
    dims = [_canonical_twist(g, d, k, twist, i) for i in range(k + 2)]
    return _table("CanonicalSymE", (g, d, k, twist), twist, dims)
