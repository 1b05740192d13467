"""Poset level weight enumerators over finite commutative Frobenius rings.

Exact-arithmetic computation of byte, complete, plain, and spotty level
weight enumerators of linear codes, their MacWilliams-type transforms, and
a verification harness comparing each transform against brute-force dual
enumeration.
"""

from .codes import span
from .errors import CapExceededError, IntegrityError
from .macwilliams import render, verify_identity
from .posets import LevelStructure
from .rings import make_ring

__all__ = [
    "CapExceededError",
    "IntegrityError",
    "LevelStructure",
    "make_ring",
    "render",
    "span",
    "verify_identity",
]
