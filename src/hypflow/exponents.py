"""Exponent triples (p, q, z) and the Hausdorff-Young conjugate exponent.

Every flow, the two-point search and the Hausdorff-Young pipeline take their
exponents from here, so a flow command does not load the search for them.

Construction accepts any finite p, q >= 1: the ordering p <= q is required
only by the operations whose derivations need it (the mixed norms and
flows), and those enforce it themselves.  Margin and ratio evaluations are
well defined either way.
"""
from __future__ import annotations

import math

_Z_RADIUS_SLACK = 1e-12


class ExponentTriple:
    """Exponents p, q and damping parameter z with |z| <= 1."""

    __slots__ = ("p", "q", "z")

    def __init__(self, p: float, q: float, z: complex):
        # written so that NaN fails both checks
        if not (1.0 <= p < math.inf and 1.0 <= q < math.inf):
            raise ValueError(f"exponents must be finite and >= 1, got p = {p}, q = {q}")
        if not abs(z) <= 1.0 + _Z_RADIUS_SLACK:
            raise ValueError(f"|z| must be <= 1, got {abs(z)}")
        self.p = p
        self.q = q
        self.z = complex(z)

    def require_ordered(self) -> None:
        """Raise unless p <= q (needed by the Minkowski step of the flows)."""
        if self.p > self.q:
            raise ValueError(f"operation requires p <= q, got p = {self.p} > q = {self.q}")


def conjugate_exponent(p: float) -> float:
    """The Hausdorff-Young dual p/(p - 1) of p in (1, 2]."""
    if not 1.0 < p <= 2.0:
        raise ValueError(f"p must lie in (1, 2], got {p}")
    return p / (p - 1.0)
