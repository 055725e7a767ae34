"""Exception types shared across the package.

Every error raised on a contract violation derives from PLValError so
callers (and the CLI) can distinguish usage problems from genuine bugs.
"""


class PLValError(Exception):
    """Base class for all package-specific errors."""


class Degenerate(PLValError):
    """Input points do not span the ambient dimension."""


class OriginNotInterior(PLValError):
    """The origin is outside, or within tolerance of, the boundary."""


class Singular(PLValError):
    """A linear map required to be invertible is singular."""


class OverlayFailure(PLValError):
    """Lattice overlay could not produce a valid simplex partition of max/min."""


class NotNonnegative(PLValError):
    """An operation requiring f >= 0 received a sign-changing function."""


class NegativeValues(PLValError):
    """Power integration requires nonnegative vertex values."""


class KernelNonzeroAtZero(PLValError):
    """Valuation kernels must satisfy h(0) = 0."""


class GridTooCoarse(PLValError):
    """Profile grid has too few points for the derivative stencils."""


class InsufficientDecades(PLValError):
    """Growth fit needs at least two decades of sample data."""


class PackingFailure(PLValError):
    """Translated copies meant to be disjoint overlap."""


class NonFinite(PLValError):
    """A number read from JSON input is NaN or infinite."""


class InvalidComplex(PLValError):
    """A simplicial complex violates its structural invariants."""


class ConstructionFailure(PLValError):
    """A bounded construction gave up: polytope sampling ran out of draws,
    a random fan lost vertices to its hull, or tent fitting did not
    converge."""
