"""Linear codes over a RingSpec, held as generators and the sorted indices of their words.

Word u of R^n has the lexicographic index sum of u_i q^(n-1-i), so the
indices sort as the words do.  Codes are built by spanning generators or,
for the dual, by a split-syndrome search over the ambient space, which
lists the dual's indices and also counts its weight spectrum without
listing it; all are exact and capped so a typo cannot demand 4^30
codewords.  A span's words are listed, and any words decoded, only when read;
a weight spectrum always counts the generators' closure.
"""

from __future__ import annotations

import os
from itertools import repeat
from operator import add, getitem, mul

from .errors import CapExceededError
from .posets import LevelStructure
from .rings import RingSpec

DEFAULT_CAP = 2**24


def enumeration_cap() -> int:
    """Default cap, overridable through the PWE_CAP environment variable."""
    raw = os.environ.get("PWE_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"PWE_CAP must be a positive integer, got {raw!r}")
    return cap


class LinearCode:
    """A submodule of R^n: its generator list and the sorted indices of its words.

    Either is computed from the other on first read and kept: span gives the
    generators, and _closure lists their words; dual_code gives the indices,
    of which a small generating subset is picked greedily.  span_words closes
    the generators on every read, listed or not, and keeps no word: a span's
    spectrum reads no index (a dual's reads them once, to pick generators).
    """

    __slots__ = ("ring", "n", "_generators", "_indices")

    def __init__(self, ring: RingSpec, n: int, generators, indices=None):
        self.ring = ring
        self.n = n
        self._generators = None if generators is None else tuple(tuple(g) for g in generators)
        self._indices = None if indices is None else tuple(indices)

    def span_words(self):
        """The words as tuples, unordered and not kept: the generators' closure, listed or not."""
        words = {(0,) * self.n}
        for g in self.generators:
            words = _closure(self.ring, words, g)
        return words

    @property
    def indices(self) -> tuple:
        if self._indices is None:
            words = self.span_words()
            indices = [0] * len(words)
            for column in zip(*words):  # Horner's rule on every word at once
                indices = list(map(add, map(mul, indices, repeat(self.ring.q)), column))
            self._indices = tuple(sorted(indices))
        return self._indices

    @property
    def words(self) -> tuple:
        """The words as tuples of element indices, decoded from the indices on every read."""
        return index_digits(self.ring.q, self.n, self.indices)

    @property
    def generators(self) -> tuple:
        if self._generators is None:
            self._generators = tuple(_greedy_generators(self.ring, self.words))
        return self._generators

    @property
    def size(self) -> int:
        return len(self.indices)

    def __eq__(self, other):
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.ring == other.ring and self.n == other.n and self.indices == other.indices

    def __repr__(self):  # the size only once listed: a repr must not list 2^20 words
        size = "" if self._indices is None else f", size={len(self._indices)}"
        return f"LinearCode(n={self.n}{size}, over {self.ring!r})"


def index_digits(q: int, n: int, indices) -> tuple:
    """The n base-q digits of each index, most significant first.

    An index splits into its halves by // and % of q^(n - floor(n/2)), and
    each distinct half is decoded once, so the cost follows the distinct
    indices, not q^(n/2).
    """
    if n < 2:
        return tuple((i,) * n for i in indices)
    cut = q ** (n - n // 2)
    lefts = dict.fromkeys(i // cut for i in indices)
    rights = dict.fromkeys(i % cut for i in indices)
    lefts = dict(zip(lefts, index_digits(q, n // 2, lefts)))
    rights = dict(zip(rights, index_digits(q, n - n // 2, rights)))
    return tuple(lefts[i // cut] + rights[i % cut] for i in indices)


def _check_word(ring, n, w):
    if not isinstance(w, (list, tuple)):
        raise ValueError(f"word {w!r} is not a list of element indices")
    w = tuple(w)
    if len(w) != n:
        raise ValueError(f"word length {len(w)} does not match code length {n}")
    for x in w:
        if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < ring.q:
            raise ValueError(f"entry {x!r} is not an element index of {ring!r}")
    return w


def span(ring: RingSpec, n: int, generators, cap: int | None = None) -> LinearCode:
    """The code of the generators' R-linear combinations, checked but not listed.

    Its size, at most min(q^k, q^n) for k generators, is held against the
    cap, and so is the length n, the entries of one word.
    """
    if cap is None:
        cap = enumeration_cap()
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError(f"code length must be a non-negative integer, got {n!r}")
    if n > cap:
        raise CapExceededError(f"code length {n} exceeds cap {cap}")
    gens = [_check_word(ring, n, g) for g in generators]
    if ring.q ** min(len(gens), n) > cap:
        raise CapExceededError(
            f"spanning {len(gens)} generators of length {n} over q={ring.q} exceeds cap {cap}"
        )
    return LinearCode(ring, n, gens)


def _closure(ring, words, g) -> set:
    """Every word w + r g, for w in words and r in R; w + r g maps w through r g's rows of the addition table."""
    add, mul = ring.add_table, ring.mul_table
    steps = [list(map(add.__getitem__, rg)) for rg in {tuple(mul[r][x] for x in g) for r in range(ring.q)}]
    return {tuple(map(getitem, rows, w)) for w in words for rows in steps}


def _greedy_generators(ring, words):
    """A small generating subset of an already-linear codeword set."""
    n = len(words[0]) if words else 0
    spanned = {(0,) * n}
    gens = []
    for w in words:
        if w not in spanned:
            gens.append(w)
            spanned = _closure(ring, spanned, w)
    return gens


def check_ambient_cap(ring: RingSpec, n: int, cap: int | None = None) -> None:
    """Refuse work on R^n when q^n exceeds the enumeration cap."""
    if cap is None:
        cap = enumeration_cap()
    if ring.q**n > cap:
        raise CapExceededError(f"q^n = {ring.q}^{n} exceeds cap {cap}")


def _half_syndromes(ring, columns, k) -> list[tuple]:
    """The syndrome against k generators of every word over the given coordinates.

    columns[i] holds the k generator entries at the i-th coordinate.  A
    word's syndrome sits at the word's lexicographic index; no word is built.
    """
    add, mul = ring.add_table, ring.mul_table
    out = [(0,) * k]
    for col in columns:
        # one step per symbol x; its rows[i] maps s_i to s_i + g_i x
        steps = [[add[mul[g][x]] for g in col] for x in range(ring.q)]
        out = [tuple(map(getitem, rows, s)) for s in out for rows in steps]
    return out


def dual_indices(code: LinearCode, cap: int | None = None) -> list[int]:
    """The lexicographic indices of the dual's words, in increasing order.

    Checking the generators suffices: orthogonality to them is linear in
    the codeword.  A word v = (a, b), cut after floor(n/2) coordinates, is
    in the dual iff the syndrome of b against the generators is minus that
    of a.  The right halves are bucketed by syndrome and each left half is
    joined with its bucket, left half outermost.  A half is held as its
    index, so a joined word is the int a * q^(n - floor(n/2)) + b.
    """
    check_ambient_cap(code.ring, code.n, cap)
    ring, n = code.ring, code.n
    k = len(code.generators)
    columns = [tuple(g[i] for g in code.generators) for i in range(n)]
    half = n // 2
    buckets: dict[tuple, list] = {}
    for b, s in enumerate(_half_syndromes(ring, columns[half:], k)):
        buckets.setdefault(s, []).append(b)
    shift, neg = ring.q ** (n - half), ring.neg_table
    out: list[int] = []
    for a, s in enumerate(_half_syndromes(ring, columns[:half], k)):
        out += map((a * shift).__add__, buckets.get(tuple(map(neg.__getitem__, s)), ()))
    return out


def dual_code(code: LinearCode, cap: int | None = None) -> LinearCode:
    """The code on dual_indices; its generators are picked when first read."""
    return LinearCode(code.ring, code.n, None, dual_indices(code, cap))


def _half_weight_counts(ring, columns, places, k) -> dict[tuple, dict[int, int]]:
    """Words over the given coordinates counted by syndrome, then by weight key.

    A word's weight key is the sum of places[i] over its nonzero coordinates
    i.  The words are never listed: the count is stepped one coordinate at a
    time, each syndrome once per symbol.  Symbol 0 keeps the syndrome and
    the key, so its count is moved, not copied.
    """
    add, mul = ring.add_table, ring.mul_table
    states = {(0,) * k: {0: 1}}
    for col, place in zip(columns, places):
        # one step per nonzero symbol x; its rows[i] maps s_i to s_i + g_i x
        steps = [[add[mul[g][x]] for g in col] for x in range(1, ring.q)]
        nxt: dict[tuple, dict[int, int]] = {}
        for s, counts in states.items():
            shifted = {w + place: c for w, c in counts.items()}
            moves = [(s, counts)] + [(tuple(map(getitem, rows, s)), shifted) for rows in steps]
            for t, source in moves:
                target = nxt.get(t)
                if target is None:
                    nxt[t] = source if source is counts else dict(source)
                else:
                    for w, c in source.items():
                        target[w] = target.get(w, 0) + c
        states = nxt
    return states


def dual_weight_spectrum(
    code: LinearCode, levels: LevelStructure, cap: int | None = None
) -> dict[int, int]:
    """Count the dual's words by their per-level Hamming weights, listing none.

    The cut of dual_indices: a word (a, b), cut after floor(n/2) coordinates,
    is in the dual iff the syndrome of b is minus that of a.  Each half is
    counted by syndrome and by partial level weights (Wolf's syndrome
    trellis, cut once), and each left syndrome s is joined with the right
    count of -s.  That is the right count of s itself, since b -> -b maps
    the halves of syndrome s onto those of -s and keeps every weight, so no
    syndrome is negated.  Counts are keyed by weight key (weight_spectrum),
    so joining two counts adds their keys, and the joined keys are the
    result.  The cost is about 2 q^(ceil(n/2) + 1) syndrome steps plus one
    multiply-add per joined pair of weight keys.
    """
    check_ambient_cap(code.ring, code.n, cap)
    check_levels(code, levels)
    ring, n, half = code.ring, code.n, code.n // 2
    places = [r for r, size in zip(levels.places, levels.sizes) for _ in range(size)]
    k = len(code.generators)
    columns = [tuple(g[i] for g in code.generators) for i in range(n)]
    right = _half_weight_counts(ring, columns[half:], places[half:], k)
    joined: dict[int, int] = {}
    for s, left in _half_weight_counts(ring, columns[:half], places[:half], k).items():
        counts = right.get(s)
        if counts:
            for a, ca in left.items():
                for b, cb in counts.items():
                    joined[a + b] = joined.get(a + b, 0) + ca * cb
    return joined


def check_levels(code: LinearCode, levels: LevelStructure) -> None:
    """Refuse a level structure whose size is not the code length, and anything else, a Poset by its reason."""
    if not isinstance(levels, LevelStructure):
        raise ValueError(getattr(levels, "reason", f"levels must be a LevelStructure, got {levels!r}"))
    if levels.n != code.n:
        raise ValueError(
            f"level structure size {levels.n} does not match code length {code.n}"
        )


def level_split(v, levels: LevelStructure):
    """Cut a word into its per-level blocks."""
    v = tuple(v)
    if len(v) != levels.n:
        raise ValueError(
            f"word length {len(v)} does not match level structure size {levels.n}"
        )
    out, start = [], 0
    for s in levels.sizes:
        out.append(v[start : start + s])
        start += s
    return tuple(out)
