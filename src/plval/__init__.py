"""Exact computation and verification of valuations on piecewise-affine
functions: polytopes, cone functions, Sobolev-type norms, lattice
join/meet by triangulation overlay, kernel valuations z(f), cone
profiles, and kernel recovery."""

from . import (  # noqa: F401
    convex,
    errors,
    integration,
    overlay,
    plfunction,
    polytope,
    serialize,
    stats,
    valuation,
    verify,
)

__all__ = [
    "convex",
    "errors",
    "integration",
    "overlay",
    "plfunction",
    "polytope",
    "serialize",
    "stats",
    "valuation",
    "verify",
]

__version__ = "0.1.0"
