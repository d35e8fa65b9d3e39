"""Exception types shared across the package.

Every domain error derives from KdlError so the CLI can map any of them to
exit code 2 with a structured message.
"""


class KdlError(Exception):
    """Base class for all errors raised by this package."""


class NotAUnit(KdlError):
    """Requested a modular inverse of a non-unit residue."""


class RankMismatch(KdlError):
    """Vectors of inconsistent rank, or more vectors than the ambient rank."""


class ArityMismatch(KdlError):
    """Fan index tuple does not match the arity of the fan kind."""


class DimMismatch(KdlError):
    """Matrix dimension incompatible with the ambient lattice."""


class NotSL2(KdlError):
    """Gluing matrix is not an element of SL2(Z)."""


class NotDivisible(KdlError):
    """A warp that is not a positive divisor of the degree (``kdl.classify.quotient_degree``)."""


class MalformedMorphism(KdlError):
    """Graph morphism data that does not preserve incidence."""


class MalformedInput(KdlError):
    """CLI input that fails strict schema validation."""
