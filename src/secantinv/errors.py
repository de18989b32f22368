"""Exception taxonomy shared by all modules.

Two families matter to callers (and fix the CLI exit codes): ``UsageError``
covers bad inputs or requests outside a theorem's hypotheses, while
``InternalCheckError`` signals that a built-in cross-check failed, which is
never a valid state and always an implementation bug.

Every class carries its wire ``code``, the ``<code>`` of the CLI's
``error: <code>: <message>`` line, and the ``exit_code`` of its family.
"""

from __future__ import annotations

__all__ = [
    "SecantInvError",
    "UsageError",
    "InternalCheckError",
    "DomainError",
    "StratumOutOfRange",
    "AmbiguousBundle",
    "GeneratorDegreeUnknown",
    "DuplicateNode",
    "NonvanishingTail",
    "InternalMismatch",
]


class SecantInvError(Exception):
    """Base class for every error raised by this package."""
    code = "internal"
    exit_code = 3


class UsageError(SecantInvError):
    """Invalid input or a request outside the supported hypotheses."""
    code = "usage"
    exit_code = 2


class InternalCheckError(SecantInvError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class DomainError(UsageError):
    """Parameters violate a domain bound such as d >= 2g+2k+1."""
    code = "domain"


class StratumOutOfRange(UsageError):
    """Stratum index outside 0..k for the given secant order."""
    code = "stratum"


class AmbiguousBundle(UsageError):
    """Cohomology of a line bundle in the special degree range 0..2g-2 is
    not determined by its degree; the caller must supply h1 explicitly."""
    code = "ambiguous-bundle"


class GeneratorDegreeUnknown(UsageError):
    """Generation in degree k+2 is only guaranteed for d >= 2g+2k+2; at the
    boundary d = 2g+2k+1 the generator-count formula is not asserted."""
    code = "generator-degree-unknown"


class DuplicateNode(UsageError):
    """Two interpolation nodes share an abscissa."""
    code = "duplicate-node"


class NonvanishingTail(InternalCheckError):
    """A finite-difference numerator failed to terminate where the input was
    promised to agree with a polynomial."""
    code = "nonvanishing-tail"


class InternalMismatch(InternalCheckError):
    """Two independent computations of the same quantity disagree."""
    code = "internal-mismatch"
