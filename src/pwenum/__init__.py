"""Poset level weight enumerators over finite commutative Frobenius rings.

Exact-arithmetic computation of byte, complete, plain, and spotty level
weight enumerators of linear codes, their MacWilliams-type transforms, and
a verification harness comparing each transform against brute-force dual
enumeration.
"""

from .codes import LinearCode, dual_code, inner_product, level_split, span
from .cyclotomic import CycInt, cyclotomic_poly, root_power
from .enumerators import (
    byte_enumerator,
    complete_level_enumerator,
    level_enumerator,
    mspotty_distance,
    mspotty_enumerator,
    mspotty_weight,
    poset_weight_enumerator,
    weight_spectrum,
)
from .errors import CapExceededError, IntegrityError
from .macwilliams import (
    KINDS,
    IdentityReport,
    byte_transform,
    complete_transform,
    krawtchouk_level,
    level_transform,
    mspotty_transform,
    render,
    verify_identity,
)
from .posets import (
    LevelStructure,
    Poset,
    antichain,
    chain,
    from_covers,
    level_partition,
    leveled,
)
from .rings import (
    Character,
    RingSpec,
    default_character,
    make_ring,
    verify_generating_character,
)

__all__ = [
    "CapExceededError",
    "Character",
    "CycInt",
    "IdentityReport",
    "IntegrityError",
    "KINDS",
    "LevelStructure",
    "LinearCode",
    "Poset",
    "RingSpec",
    "antichain",
    "byte_enumerator",
    "byte_transform",
    "chain",
    "complete_level_enumerator",
    "complete_transform",
    "cyclotomic_poly",
    "default_character",
    "dual_code",
    "from_covers",
    "inner_product",
    "krawtchouk_level",
    "level_enumerator",
    "level_partition",
    "level_split",
    "level_transform",
    "leveled",
    "make_ring",
    "mspotty_distance",
    "mspotty_enumerator",
    "mspotty_transform",
    "mspotty_weight",
    "poset_weight_enumerator",
    "render",
    "root_power",
    "span",
    "verify_generating_character",
    "verify_identity",
    "weight_spectrum",
]
