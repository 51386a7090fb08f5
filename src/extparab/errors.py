"""Exception taxonomy shared by all extparab modules.

Every failure mode gets its own class so callers can match precisely; all
inherit from ExtparabError so the CLI can map library failures to exit codes
without enumerating them.
"""

from __future__ import annotations


class ExtparabError(Exception):
    """Base class for all extparab errors."""


class DimensionMismatch(ExtparabError):
    """Operands have incompatible dimensions."""


class ZeroVector(ExtparabError):
    """A nonzero vector was required."""


class ZeroDirection(ExtparabError):
    """A nonzero direction was required."""


class NotFeasible(ExtparabError):
    """Point lies outside the polytope."""


class DegenerateVertex(ExtparabError):
    """Vertex is not simple (tight rows != dimension or rank-deficient)."""


class NotAVertex(ExtparabError):
    """Feasible point is not a vertex of the polytope."""


class BadParameters(ExtparabError):
    """Construction parameters violate a stated precondition."""


class NotSorted(ExtparabError):
    """Vertex parameters are not strictly increasing."""


class SizeMismatch(ExtparabError):
    """Two aligned collections differ in length."""


class OutOfRange(ExtparabError):
    """An integer index falls outside its admissible range."""


class NotImproving(ExtparabError):
    """Line search requires a strictly improving direction."""


class UnboundedImprovement(ExtparabError):
    """Objective increases without bound along the given ray."""


class UnknownRule(ExtparabError):
    """No pivot rule registered under the requested name."""


class CertificateFailure(ExtparabError):
    """A construction- or path-certificate check failed."""


class InternalMismatch(ExtparabError):
    """Two independent computations of the same quantity disagree."""


class ScanCapExceeded(ExtparabError):
    """Requested scan size exceeds the configured cap."""


class FormatError(ExtparabError):
    """A polyhedra text file does not parse."""
