"""Weight enumerators of linear codes split into coordinate levels.

Each codeword contributes one monomial to each enumerator, fixed by one
statistic of the word, so an enumerator is held as a dict of counts keyed
by that statistic:

    byte      the word's lexicographic index     z_{S:pattern} for each level S
    complete  the tuple of per-level weights     z_{S:w} for each level S
    level     the tuple of per-level weights     z_S^w, weights in the exponents
    mspotty   that tuple folded to ceil(w / t_S) z_S^(folded weight)
    poset     the poset weight                   x^w

The counts sum to the code size.  The *_terms functions list a dict's
terms in print order, each variable spelled as a (text, JSON) pair; see
macwilliams.render.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, partial
from itertools import count, starmap
from math import ceil

from .codes import LinearCode, level_split, word_indices
from .posets import LevelStructure, Poset


def _weight(word) -> int:
    return sum(1 for x in word if x)


def poset_weight_enumerator(code: LinearCode, poset: Poset) -> dict[int, int]:
    """Count codewords by their poset weight: sum over codewords of x^(poset weight)."""
    if poset.n != code.n:
        raise ValueError(f"poset size {poset.n} does not match code length {code.n}")
    return Counter(map(poset.weight, code.words))


def byte_enumerator(code: LinearCode, levels: LevelStructure) -> dict[int, int]:
    """sum over codewords of prod_S z_{S:(level-S block of the codeword)}, by word index."""
    _check_levels(code, levels)
    return dict.fromkeys(word_indices(code), 1)


def byte_terms(counts: dict, q: int, levels: LevelStructure) -> list:
    """The terms z_{1:beta_1}...z_{s:beta_s} of these {pattern index: count}, by index.

    Pattern b has index sum of b_i q^(n-1-i); its level-S block, with `after`
    coordinates past level S, has index (index // q^after) % q^n_S.  A block's
    variable is built when the block first occurs, so the cost follows the counts.
    """
    blocks, after = [], levels.n
    for level, n_s in enumerate(levels.sizes, start=1):
        after -= n_s
        places = [q**j for j in reversed(range(n_s))]
        blocks.append((cache(partial(_block_var, level, q, places)), q**after, q**n_s))
    return [
        (counts[i], tuple(var(i // div % mod) for var, div, mod in blocks)) for i in sorted(counts)
    ]


def _block_var(level: int, q: int, places: list, block: int) -> tuple:
    """z_{level:beta} for the level block beta = (block // p % q for p in places)."""
    pattern = [block // p % q for p in places]
    joined = ("" if all(i < 10 for i in pattern) else ",").join(map(str, pattern))
    return f"z_{{{level}:{joined}}}", {"level": level, "kind": "byte", "pattern": pattern}


def weight_spectrum(code: LinearCode, levels: LevelStructure) -> dict[tuple, int]:
    """Count codewords by their tuple of per-level Hamming weights."""
    _check_levels(code, levels)
    return Counter(tuple(_weight(part) for part in level_split(u, levels)) for u in code.words)


def complete_terms(spectrum: dict, q=None, levels=None) -> list:
    """The terms z_{1:w_1}...z_{s:w_s} of this spectrum, by weight tuple."""
    var = cache(lambda s, w: (f"z_{{{s}:{w}}}", {"level": s, "kind": "weight", "w": w}))
    return [(spectrum[l], tuple(map(var, count(1), l))) for l in sorted(spectrum)]


def plain_terms(spectrum: dict, q=None, levels=None) -> list:
    """The terms z_1^(l_1)...z_s^(l_s) of this spectrum, zero exponents left out.

    Terms sort by their (level, exponent) pairs: 1 + z_1 + z_1z_2 + z_1^2 + z_2^2.
    """
    var = cache(lambda s, e: (f"z_{s}^{e}" if e > 1 else f"z_{s}", {"level": s, "kind": "plain", "exp": e}))
    keyed = sorted((tuple((s, e) for s, e in enumerate(l, 1) if e), c) for l, c in spectrum.items())
    return [(c, tuple(starmap(var, pairs))) for pairs, c in keyed]


def poset_terms(counts: dict, q=None, levels=None) -> list:
    """The terms x^w of these {poset weight: count}, by weight."""
    return [
        (counts[w], ((f"x^{w}" if w > 1 else "x", {"level": 0, "kind": "x", "exp": w}),) if w else ())
        for w in sorted(counts)
    ]


def spotty_spectrum(spectrum: dict, t) -> dict[tuple, int]:
    """Per-level weights w_i folded to ceil(w_i / t_i), counts of equal keys summed."""
    out: Counter = Counter()
    for l, n in spectrum.items():
        out[tuple(-(-w // ti) for w, ti in zip(l, t))] += n
    return out


def complete_level_enumerator(code: LinearCode, levels: LevelStructure) -> dict[tuple, int]:
    """sum over codewords of prod_i z_{i:w(level-i block)}: the weight spectrum."""
    return weight_spectrum(code, levels)


def level_enumerator(code: LinearCode, levels: LevelStructure) -> dict[tuple, int]:
    """sum over codewords of prod_i z_i^(w(level-i block)): the weight spectrum."""
    return weight_spectrum(code, levels)


def _check_levels(code, levels):
    if levels.n != code.n:
        raise ValueError(
            f"level structure size {levels.n} does not match code length {code.n}"
        )


def _check_t(levels: LevelStructure, t) -> tuple[int, ...]:
    t = tuple(int(x) for x in t)
    if len(t) != levels.count:
        raise ValueError(f"t has {len(t)} entries for {levels.count} levels")
    for ti, ni in zip(t, levels.sizes):
        if not 1 <= ti <= ni:
            raise ValueError(f"t entry {ti} outside 1..{ni}")
    return t


def mspotty_weight(v, levels: LevelStructure, t) -> int:
    """Sum over levels of ceil(level Hamming weight / t_i)."""
    t = _check_t(levels, t)
    parts = level_split(v, levels)
    return sum(ceil(_weight(part) / ti) for part, ti in zip(parts, t))


def mspotty_distance(u, v, levels: LevelStructure, t) -> int:
    """Sum over levels of ceil(level Hamming distance / t_i); a metric."""
    if not len(u) == len(v) == levels.n:
        raise ValueError(
            f"word lengths {len(u)} and {len(v)} do not match level structure size {levels.n}"
        )
    t = _check_t(levels, t)
    dist = 0
    for (lo, hi), ti in zip(levels.bounds(), t):
        d = sum(1 for a, b in zip(u[lo - 1 : hi], v[lo - 1 : hi]) if a != b)
        dist += ceil(d / ti)
    return dist


def mspotty_enumerator(code: LinearCode, levels: LevelStructure, t) -> dict[tuple, int]:
    """sum over codewords of prod_i z_i^(ceil(w(level-i block)/t_i)): the folded spectrum."""
    return spotty_spectrum(weight_spectrum(code, levels), _check_t(levels, t))
