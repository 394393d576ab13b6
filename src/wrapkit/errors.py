"""Typed exceptions shared across the library.

Every failure mode callers are expected to branch on gets its own class;
anything else surfaces as a plain ValueError/TypeError from the stdlib.
"""


class CatalogError(ValueError):
    """Unknown group name or malformed catalog request."""


class DomainError(ValueError):
    """Arguments outside an operation's documented domain (t <= 0, bad shapes...)."""


class SingularityError(ValueError):
    """Evaluation requested at or too close to a singular locus."""


class ContractError(ValueError):
    """A mixture-only operation (``convolve``, ``laplacian``) was asked of the
    flat Laplacian of a Gaussian mixture, which is not itself a mixture."""


class ResolutionError(ValueError):
    """A grid or bin layout is too coarse for the requested accuracy."""


class ResourceLimitError(RuntimeError):
    """A truncation or enumeration cap was exceeded; the message states the cap
    and, where one exists, the cheaper alternative route."""


class InstabilityError(RuntimeError):
    """A numerical guard tripped (constraint drift, failed internal assertion)."""
