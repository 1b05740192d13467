"""Weight enumerators of linear codes split into coordinate levels.

Each codeword contributes one monomial to each enumerator, fixed by one
statistic of the word, so an enumerator is held as a dict of counts keyed
by that statistic:

    byte      the word's lexicographic index     z_{S:pattern} for each level S
    complete  the tuple of per-level weights     z_{S:w} for each level S
    level     the tuple of per-level weights     z_S^w, weights in the exponents
    mspotty   that tuple folded to ceil(w / t_S) z_S^(folded weight)
    poset     the poset weight                   x^w; on a hierarchical poset,
              folded from the per-level weights

The counts sum to the code size.  The *_terms functions list a dict's
terms in print order, each variable spelled as a (text, JSON) pair; see
macwilliams.render.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, reduce
from itertools import accumulate, compress, count, starmap
from operator import or_

from .codes import LinearCode, check_levels, index_digits
from .posets import LevelStructure, Poset


def poset_weight_enumerator(code: LinearCode, poset: Poset) -> dict[int, int]:
    """Count codewords by their poset weight, the size of the ideal their support generates.

    Each distinct half of a word index (_per_block) has its support closed
    once, by OR-ing the down-set masks of its positions; a word's weight is
    the bit count of its two halves' masks OR-ed together.
    """
    n = len(poset.down)
    if code.n != n:
        raise ValueError(f"poset size {n} does not match code length {code.n}")
    cut = n // 2  # a Poset has n >= 2: every order on fewer positions is a LevelStructure
    halves = (poset.down[:cut], poset.down[cut:])
    closure = lambda level, block: reduce(or_, compress(halves[level - 1], block), 0)
    closed = _per_block(code.ring.q, LevelStructure((cut, n - cut)), code.indices, closure)
    return Counter((a | b).bit_count() for a, b in closed)


def byte_enumerator(code: LinearCode, levels: LevelStructure) -> dict[int, int]:
    """sum over codewords of prod_S z_{S:(level-S block of the codeword)}, by word index."""
    check_levels(code, levels)
    return dict.fromkeys(code.indices, 1)


def byte_terms(counts: dict, q: int, levels: LevelStructure) -> list:
    """The terms z_{1:beta_1}...z_{s:beta_s} of these {pattern index: count}, by index."""
    order = sorted(counts)
    return list(zip(map(counts.__getitem__, order), _per_block(q, levels, order, _block_var)))


def _block_var(level: int, pattern: tuple) -> tuple:
    """z_{level:beta} for the level block beta."""
    joined = ("" if all(i < 10 for i in pattern) else ",").join(map(str, pattern))
    return f"z_{{{level}:{joined}}}", {"level": level, "kind": "byte", "pattern": list(pattern)}


def _per_block(q: int, levels: LevelStructure, indices, value) -> zip:
    """For each index, the tuple of value(S, beta_S) over the levels S.

    The word of index i = sum of u_j q^(n-1-j) has the level-S block beta_S of
    index i // q^after % q^n_S, with `after` coordinates past level S.  Each
    distinct block is decoded to its digits and valued once, so the cost
    follows the indices given.
    """
    columns, after = [], levels.n
    for level, n_s in enumerate(levels.sizes, start=1):
        after -= n_s
        div, mod = q**after, q**n_s
        blocks = [i // div % mod for i in indices]
        distinct = dict.fromkeys(blocks)
        values = dict(zip(distinct, (value(level, b) for b in index_digits(q, n_s, distinct))))
        columns.append(map(values.__getitem__, blocks))
    return zip(*columns)


def weight_spectrum(code: LinearCode, levels: LevelStructure) -> dict[tuple, int]:
    """Count codewords by their tuple of per-level Hamming weights, read from the indices."""
    check_levels(code, levels)
    return Counter(_per_block(code.ring.q, levels, code.indices, lambda _, b: len(b) - b.count(0)))


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


def poset_spectrum(spectrum: dict, levels: LevelStructure) -> dict[int, int]:
    """Per-level weights folded to the weight of the hierarchical poset on these levels.

    The ideal a support generates holds every level below its top nonzero
    level j and the support in level j (Brualdi, Graves & Lawrence 1995):
    n_1 + ... + n_(j-1) + w_j, larger than that sum for any lower level.
    """
    below = (0, *accumulate(levels.sizes))
    out: Counter = Counter()
    for l, n in spectrum.items():
        out[max((b + w for b, w in zip(below, l) if w), default=0)] += n
    return out


def complete_level_enumerator(code: LinearCode, levels: LevelStructure) -> dict[tuple, int]:
    """sum over codewords of prod_i z_{i:w(level-i block)}: the weight spectrum."""
    return weight_spectrum(code, levels)


def level_enumerator(code: LinearCode, levels: LevelStructure) -> dict[tuple, int]:
    """sum over codewords of prod_i z_i^(w(level-i block)): the weight spectrum."""
    return weight_spectrum(code, levels)


def _check_t(levels: LevelStructure, t) -> tuple[int, ...]:
    if t is None:
        raise ValueError("the mspotty kind needs t, one threshold per level")
    t = tuple(int(x) for x in t)
    if len(t) != levels.count:
        raise ValueError(f"t has {len(t)} entries for {levels.count} levels")
    for ti, ni in zip(t, levels.sizes):
        if not 1 <= ti <= ni:
            raise ValueError(f"t entry {ti} outside 1..{ni}")
    return t


def mspotty_enumerator(code: LinearCode, levels: LevelStructure, t) -> dict[tuple, int]:
    """sum over codewords of prod_i z_i^(ceil(w(level-i block)/t_i)): the folded spectrum."""
    return spotty_spectrum(weight_spectrum(code, levels), _check_t(levels, t))
