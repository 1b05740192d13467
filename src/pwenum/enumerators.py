"""Weight enumerators of linear codes split into coordinate levels.

Each codeword contributes one monomial to each enumerator, fixed by one
statistic of the word, so an enumerator is held as a dict of counts keyed
by that statistic (the byte kind's counts are 1: it is a set of words,
in lexicographic order or a q^n-byte indicator); a weight key sums w_S R_S
over the level weights w_S (LevelStructure.places), split into digits only
to print:

    byte      the word itself                    z_{S:pattern} for each level S
    complete  the word's weight key              z_{S:w} for each level S
    level     the word's weight key              z_S^w, weights in the exponents
    mspotty   that key, digits w to ceil(w/t_S)  z_S^(folded weight)
    poset     the poset weight                   x^w; on a hierarchical poset,
              folded from the weight key

The counts sum to the code size.  The *_terms functions list an enumerator's
terms in print order, each variable spelled as a (text, JSON) pair; see
macwilliams.render.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import cache, lru_cache, reduce
from itertools import accumulate, compress, count, repeat, starmap
from operator import or_

from .codes import LinearCode, check_levels, indicator_words
from .errors import IntegrityError
from .posets import LevelStructure, Poset


def poset_weight_enumerator(words, poset: Poset) -> dict[int, int]:
    """Count words by their poset weight, the size of the ideal their support generates.

    A word is cut after floor(n/2) coordinates, and each distinct half has
    its support closed once, by OR-ing the down-set masks of its positions;
    a word's weight is the bit count of its two halves' masks OR-ed
    together.  The words are read once, so they may come as an iterator.
    """
    cut = len(poset.down) // 2  # a Poset has n >= 2: every order on fewer positions is a LevelStructure
    halves = (poset.down[:cut], poset.down[cut:])
    left, right = (cache(lambda half, down=down: reduce(or_, compress(down, half), 0)) for down in halves)
    return Counter((left(word[:cut]) | right(word[cut:])).bit_count() for word in words)


def byte_enumerator(code: LinearCode, levels: LevelStructure) -> tuple:
    """sum over codewords of prod_S z_{S:(level-S block of the codeword)}: C's words in order, not held to q^n."""
    check_levels(code, levels)
    return code.words


def byte_terms(patterns, q: int, levels: LevelStructure):
    """The terms z_{1:beta_1}...z_{s:beta_s} of words in lexicographic order, or of an indicator's members
    (indicator_words), built as they are read: each word cut into its level blocks, the variables of the
    4096 blocks read last kept, so that one level, every word its own block, holds no variable a word."""
    if isinstance(patterns, bytes):
        patterns = indicator_words(q, levels.n, patterns)
    blocks = [slice(end - size, end) for end, size in zip(accumulate(levels.sizes), levels.sizes)]
    var = lru_cache(maxsize=4096)(_block_var)
    return ((1, tuple(var(level, word[block]) for level, block in enumerate(blocks, 1))) for word in patterns)


def _block_var(level: int, pattern: tuple) -> tuple:
    """z_{level:beta} for the level block beta."""
    joined = ("" if all(i < 10 for i in pattern) else ",").join(map(str, pattern))
    return f"z_{{{level}:{joined}}}", {"level": level, "kind": "byte", "pattern": list(pattern)}


def weight_spectrum(code: LinearCode, levels: LevelStructure) -> dict[int, int]:
    """Count codewords by weight key, the sum of R_j over a word's nonzero entries, off LinearCode.span_columns.

    The columns, translated to 0/1 bytes, are summed as ints, at most 255 to a sum of 1-byte lanes, widened to
    lanes of 1, 2, 4, 8 or more bytes, the fewest that hold prod(n_j + 1) - 1, the top key (and so n_j), and
    times R_j added up: a key a lane (Lamport 1975), which a Counter reads.  Each word fills z = q^k/|C| lanes,
    so every count is divided by z exactly; a remainder, or z other than key 0's count, is an IntegrityError."""
    check_levels(code, levels)
    columns, z = code.span_columns()
    places, lanes, total = levels.places, len(columns[0]), 0
    width = 1 << ((places[0] * (levels.sizes[0] + 1) - 1).bit_length() - 1 >> 3).bit_length()  # bytes a lane
    ones = list(map(int.from_bytes, map(bytes.translate, columns, repeat(b"\0" + b"\1" * 255)), repeat("little")))
    for r, size, end in zip(places, levels.sizes, accumulate(levels.sizes)):
        for chunk in range(end - size, end, 255):
            wide = bytearray(width * lanes)
            wide[::width] = sum(ones[chunk : min(chunk + 255, end)]).to_bytes(lanes, "little")
            total += r * int.from_bytes(wide, "little")
    data = total.to_bytes(width * lanes, sys.byteorder)  # each lane in native order, as a cast reads it
    counts = Counter(memoryview(data).cast("BHIQ"[width.bit_length() - 1]) if width <= 8 else
                     (int.from_bytes(data[i : i + width], sys.byteorder) for i in range(0, len(data), width)))
    if counts[0] != z or any(c % z for c in counts.values()):
        raise IntegrityError(f"weight key 0 is counted {counts[0]} times, z = q^k/|C| = {z}: each count must be"
                             " z times a word count, 1 at key 0")
    return counts if z == 1 else {key: c // z for key, c in counts.items()}


def _weights(levels: LevelStructure, keys) -> list:
    """Each weight key with its weight tuple (w_1, ..., w_s)."""
    digits = tuple(zip(levels.places, levels.sizes))
    return [(key, tuple(key // r % (n + 1) for r, n in digits)) for key in keys]


def complete_terms(spectrum: dict, q, levels: LevelStructure) -> list:
    """The terms z_{1:w_1}...z_{s:w_s} of this spectrum, by weight key: by weight tuple."""
    var = cache(lambda s, w: (f"z_{{{s}:{w}}}", {"level": s, "kind": "weight", "w": w}))
    return [(spectrum[k], tuple(map(var, count(1), l))) for k, l in _weights(levels, sorted(spectrum))]


def plain_terms(spectrum: dict, q, levels: LevelStructure) -> list:
    """The terms z_1^(l_1)...z_s^(l_s) of this spectrum, zero exponents left out.

    Terms sort by their (level, exponent) pairs: 1 + z_1 + z_1z_2 + z_1^2 + z_2^2.
    """
    var = cache(lambda s, e: (f"z_{s}^{e}" if e > 1 else f"z_{s}", {"level": s, "kind": "plain", "exp": e}))
    keyed = sorted((tuple((s, e) for s, e in enumerate(l, 1) if e), k) for k, l in _weights(levels, spectrum))
    return [(spectrum[k], tuple(starmap(var, pairs))) for pairs, k in keyed]


def poset_terms(counts: dict, q=None, levels=None) -> list:
    """The terms x^w of these {poset weight: count}, by weight."""
    return [
        (counts[w], ((f"x^{w}" if w > 1 else "x", {"level": 0, "kind": "x", "exp": w}),) if w else ())
        for w in sorted(counts)
    ]


def spotty_spectrum(spectrum: dict, levels: LevelStructure, t) -> dict[int, int]:
    """Each digit w_j of the weight keys folded to ceil(w_j / t_j) <= n_j, in place; equal keys summed."""
    keys = list(spectrum)
    for r, n, ti in zip(levels.places, levels.sizes, t):
        if ti > 1:
            drop = [(w + -w // ti) * r for w in range(n + 1)]  # -w // t is -ceil(w / t)
            keys = [key - drop[key // r % (n + 1)] for key in keys]
    out: dict[int, int] = {}
    for key, c in zip(keys, spectrum.values()):
        out[key] = out.get(key, 0) + c
    return out


def poset_spectrum(spectrum: dict, levels: LevelStructure) -> dict[int, int]:
    """Weight keys folded to the weight of the hierarchical poset on these levels.

    The ideal a support generates holds every level below its top nonzero
    level j and the support in level j (Brualdi, Graves & Lawrence 1995):
    n_1 + ... + n_(j-1) + w_j, larger than that sum for any lower level: w_j
    is the key's least significant nonzero digit.
    """
    below = list(zip(accumulate(levels.sizes[:-1], initial=0), levels.sizes))[::-1]
    out: Counter = Counter()
    for key, c in spectrum.items():
        for b, n in below:  # a key of no nonzero digit ends at level 1, b = w = 0
            key, w = divmod(key, n + 1)
            if w:
                break
        out[b + w] += c
    return out


# The complete level enumerator, sum over codewords of prod_i z_{i:w(level-i block)}, and the
# plain one, of prod_i z_i^(w(level-i block)), are both the weight spectrum; the names remain
# because the benchmark's tracer (perfbench/spans.py) times each layer under them.
complete_level_enumerator = level_enumerator = weight_spectrum


def check_t(levels: LevelStructure, t) -> tuple[int, ...]:
    if t is None:
        raise ValueError("the mspotty kind needs t, one threshold per level")
    t = tuple(t)
    if len(t) != levels.count:
        raise ValueError(f"t has {len(t)} entries for {levels.count} levels")
    for ti, ni in zip(t, levels.sizes):
        if isinstance(ti, bool) or not isinstance(ti, int):
            raise ValueError(f"t entry {ti!r} is not an integer")
        if not 1 <= ti <= ni:
            raise ValueError(f"t entry {ti} outside 1..{ni}")
    return t


def mspotty_enumerator(code: LinearCode, levels: LevelStructure, t) -> dict[int, int]:
    """sum over codewords of prod_i z_i^(ceil(w(level-i block)/t_i)): the folded spectrum."""
    return spotty_spectrum(weight_spectrum(code, levels), levels, check_t(levels, t))
