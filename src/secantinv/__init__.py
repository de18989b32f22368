"""Exact invariants of secant varieties of smooth projective curves.

For a genus-g curve embedded by a line bundle of degree d >= 2g+2k+1, the
package computes, in exact rational/integer arithmetic: Hilbert polynomials,
functions, and series of the k-th secant variety; its degree and minimal
generator count; cohomology dimension tables for symmetric and exterior
powers of secant sheaves on symmetric products; and tangent-cone data
(vertex, base, multiplicity, series) at every singular stratum.

Each layer's ``__all__`` is the one list of its public names; the package
re-exports them all.
"""

from . import errors, exactmath, secant_core, cohomology, tangent_geometry
from .errors import *
from .exactmath import *
from .secant_core import *
from .cohomology import *
from .tangent_geometry import *

__version__ = "0.1.0"

__all__ = sorted(
    errors.__all__ + exactmath.__all__ + secant_core.__all__
    + cohomology.__all__ + tangent_geometry.__all__
)
