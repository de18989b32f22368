"""Tangent cones, multiplicities, and cones over secant varieties.

A point of the k-th secant variety lying on the stratum of order s (on the
order-s secant variety but no lower one) has a projectivized tangent cone
that is itself a cone: the vertex is a linear space of projective dimension
2s and the base is the order-(k-s-1) secant variety of the same curve
re-embedded with degree d - 2s - 2; the cone's series is that of
``cone_over_secant(base, 2s + 1)``.  Every numerical invariant depends on the
point only through s, so descriptors are keyed by the stratum index alone.

The multiplicity of the local ring equals the degree of the projectivized
tangent cone, and adjoining a disjoint linear vertex leaves both the series
numerator and hence the degree unchanged, so the multiplicity is the degree
of the base secant variety, read from the cone's series numerator at 1.
"""

from __future__ import annotations

from typing import Optional

from .errors import StratumOutOfRange
from .exactmath import QPolynomial, _Frozen
from .secant_core import HilbertSeries, SecantInstance, _admit, _refuse, hilbert_series

__all__ = [
    "SMOOTH_POINT",
    "TangentConeDescriptor",
    "ConeOverSecant",
    "tangent_cone_at",
    "cone_over_secant",
    "multiplicity_along_stratum",
]


SMOOTH_POINT = None  # the base of a descriptor at a smooth point (stratum s = k)

# The series 1/(1-t) of a point: P^{2k} is the cone over it with 2k more coordinates.
_POINT_SERIES = HilbertSeries(QPolynomial.constant(1), 1)


class TangentConeDescriptor(_Frozen):
    """Numerical description of the projectivized tangent cone at a point of
    the ``ambient`` secant variety on stratum ``stratum``.

    ``base`` is the re-embedded lower secant variety, or ``None``
    (:data:`SMOOTH_POINT`) when the stratum is the smooth locus.  The vertex
    has projective dimension 2s, the whole cone 2k, and the multiplicity is
    1 exactly at smooth points.
    """

    ambient: SecantInstance
    stratum: int
    base: Optional[SecantInstance]
    vertex_proj_dim: int
    cone_proj_dim: int
    multiplicity: int
    base_is_fano: Optional[bool]
    series: HilbertSeries

    def __init__(self, ambient: SecantInstance, stratum: int, base: Optional[SecantInstance],
                 vertex_proj_dim: int, cone_proj_dim: int, multiplicity: int,
                 base_is_fano: Optional[bool], series: HilbertSeries) -> None:
        self.__dict__.update(ambient=ambient, stratum=stratum, base=base,
                             vertex_proj_dim=vertex_proj_dim, cone_proj_dim=cone_proj_dim,
                             multiplicity=multiplicity, base_is_fano=base_is_fano, series=series)

    @property
    def is_smooth_point(self) -> bool:
        return self.base is None

    def to_json_dict(self) -> dict:
        return {
            "ambient": self.ambient.to_json_dict(),
            "stratum": self.stratum,
            "base": None if self.is_smooth_point else self.base.to_json_dict(),
            "vertex_proj_dim": self.vertex_proj_dim,
            "cone_proj_dim": self.cone_proj_dim,
            "multiplicity": str(self.multiplicity),
            "base_is_fano": self.base_is_fano,
            "series": self.series.to_json_dict(),
        }


class ConeOverSecant(_Frozen):
    """A cone over a secant variety with a disjoint linear vertex spanned by
    ``vertex_count`` extra coordinates; the series numerator is that of the
    base, with the Krull dimension raised by ``vertex_count``."""

    inst: SecantInstance
    vertex_count: int
    series: HilbertSeries

    def __init__(self, inst: SecantInstance, vertex_count: int, series: HilbertSeries) -> None:
        self.__dict__.update(inst=inst, vertex_count=vertex_count, series=series)

    def to_json_dict(self) -> dict:
        return {
            "instance": self.inst.to_json_dict(),
            "vertex_count": self.vertex_count,
            "series": self.series.to_json_dict(),
        }


def tangent_cone_at(inst: SecantInstance, stratum: int) -> TangentConeDescriptor:
    """Descriptor of the projectivized tangent cone at any point of the given
    stratum; raises :class:`StratumOutOfRange` unless 0 <= stratum <= k."""
    k = inst.order
    _admit("stratum", stratum)
    if stratum < 0 or stratum > k:
        _refuse("stratum {} outside 0..{k}", ("stratum", stratum), error=StratumOutOfRange, k=k)
    if stratum == k:
        # Smooth point: the tangent cone is the full projectivized tangent space.
        base, series = SMOOTH_POINT, _POINT_SERIES._coned(2 * k)
    else:
        base = SecantInstance(inst.genus, inst.degree - 2 * stratum - 2, k - stratum - 1)
        series = hilbert_series(base)._coned(2 * stratum + 1)
    return TangentConeDescriptor(
        ambient=inst,
        stratum=stratum,
        base=base,
        vertex_proj_dim=2 * stratum,
        cone_proj_dim=2 * k,
        multiplicity=series.degree(),
        base_is_fano=None if base is SMOOTH_POINT else inst.genus == 0,
        series=series,
    )


# Admission limit: the largest vertex count accepted.  The cone's Krull
# dimension 2k+2+m is rendered, and must stay inside Python's 4,300-digit
# int-to-str limit.
_MAX_VERTEX_COUNT = 10**6


def cone_over_secant(inst: SecantInstance, vertex_count: int) -> ConeOverSecant:
    """Cone over the secant variety with an (m-1)-plane vertex, m >= 0; the
    case m = 0 is the variety itself."""
    _admit("vertex_count", vertex_count, 0, _MAX_VERTEX_COUNT)
    return ConeOverSecant(inst, vertex_count, hilbert_series(inst)._coned(vertex_count))


def multiplicity_along_stratum(inst: SecantInstance, stratum: int) -> int:
    """Multiplicity of the secant variety at any point of the stratum; it is
    constant along the stratum and equals 1 exactly on the smooth locus."""
    return tangent_cone_at(inst, stratum).multiplicity
