"""Poset level weight enumerators over finite commutative Frobenius rings.

Exact-arithmetic computation of byte, complete, plain, and spotty level
weight enumerators of linear codes, their MacWilliams-type transforms, and
a verification harness comparing each transform against brute-force dual
enumeration.
"""

from .codes import LinearCode, dual_code, inner_product, level_split, span
from .cyclotomic import CycInt, cyclotomic_poly, root_power
from .enumerators import (
    EnumeratorPoly,
    VarKey,
    byte_enumerator,
    collapse_to_x,
    complete_level_enumerator,
    eta,
    level_enumerator,
    mspotty_distance,
    mspotty_enumerator,
    mspotty_weight,
    mu,
    poset_weight_enumerator,
    weight_spectrum,
)
from .errors import CapExceededError, IntegrityError
from .macwilliams import (
    IdentityReport,
    byte_transform,
    complete_transform,
    hadamard_check,
    krawtchouk_level,
    level_transform,
    mspotty_transform,
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
    character_ideal_sum,
    default_character,
    enumerate_ideals,
    make_ring,
    verify_generating_character,
)

__all__ = [
    "CapExceededError",
    "Character",
    "CycInt",
    "EnumeratorPoly",
    "IdentityReport",
    "IntegrityError",
    "LevelStructure",
    "LinearCode",
    "Poset",
    "RingSpec",
    "VarKey",
    "antichain",
    "byte_enumerator",
    "byte_transform",
    "chain",
    "character_ideal_sum",
    "collapse_to_x",
    "complete_level_enumerator",
    "complete_transform",
    "cyclotomic_poly",
    "default_character",
    "dual_code",
    "enumerate_ideals",
    "eta",
    "from_covers",
    "hadamard_check",
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
    "mu",
    "poset_weight_enumerator",
    "root_power",
    "span",
    "verify_generating_character",
    "verify_identity",
    "weight_spectrum",
]
