"""Weight enumerators of linear codes split into coordinate levels.

Each codeword contributes one monomial to each enumerator, fixed by one
statistic of the word, so an enumerator is held as a dict of counts keyed
by that statistic (the byte kind's counts are 1: it is a set of indices,
increasing or a q^n-byte indicator); a weight key sums w_S R_S over the
level weights w_S (LevelStructure.places), split into digits only to print:

    byte      the word's lexicographic index     z_{S:pattern} for each level S
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

from collections import Counter
from functools import cache, reduce
from itertools import accumulate, compress, count, repeat, starmap
from operator import or_

from .codes import LinearCode, check_levels, index_digits
from .errors import IntegrityError
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
    return Counter(map(int.bit_count, map(or_, *closed)))


def byte_enumerator(code: LinearCode, levels: LevelStructure) -> tuple:
    """sum over codewords of prod_S z_{S:(level-S block of the codeword)}: C's sorted indices, not held to q^n."""
    check_levels(code, levels)
    return code.indices


def byte_terms(patterns, q: int, levels: LevelStructure) -> list:
    """The terms z_{1:beta_1}...z_{s:beta_s} of a set of patterns by index: increasing indices, or an indicator."""
    if isinstance(patterns, bytes):
        patterns = list(compress(count(), patterns))
    return [(1, variables) for variables in zip(*_per_block(q, levels, patterns, _block_var))]


def _block_var(level: int, pattern: tuple) -> tuple:
    """z_{level:beta} for the level block beta."""
    joined = ("" if all(i < 10 for i in pattern) else ",").join(map(str, pattern))
    return f"z_{{{level}:{joined}}}", {"level": level, "kind": "byte", "pattern": list(pattern)}


def _per_block(q: int, levels: LevelStructure, indices, value) -> list:
    """For each level S, the column of value(S, beta_S) over the indices, as an iterator.

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
    return columns


def weight_spectrum(code: LinearCode, levels: LevelStructure) -> dict[int, int]:
    """Count codewords by weight key, the sum of R_j over a word's nonzero entries: no index listed.

    Only the zero word has key 0, so a count there other than 1 raises IntegrityError."""
    check_levels(code, levels)
    places = [r for r, size in zip(levels.places, levels.sizes) for _ in range(size)]
    spectrum = Counter(map(sum, map(compress, repeat(places), code.span_words())))
    if spectrum[0] != 1:
        raise IntegrityError(f"{spectrum[0]} words have weight key 0; only the zero word has it")
    return spectrum


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
