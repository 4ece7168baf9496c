"""Exact invariants of one-dimensional local rings: Groebner bases over Q
and F_p, Hilbert functions, tangent cones, delta tests and the index,
Newton polygons, and kernels of curve parametrizations.
"""

__version__ = "0.1.0"

from .arith import QQ, PrimeField, Rational
from .ideal import Ideal, max_ideal, max_ideal_power
from .localring import LocalRing
from .monomial import MonomialIdeal
from .poly import BlockOrder, DegRevLex, Polynomial, PolyRing

__all__ = [
    "QQ", "PrimeField", "Rational",
    "Ideal", "max_ideal", "max_ideal_power",
    "LocalRing", "MonomialIdeal",
    "BlockOrder", "DegRevLex", "Polynomial", "PolyRing",
    "__version__",
]
