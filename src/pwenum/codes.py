"""Linear codes over a RingSpec, each held as its generators alone.

Codes are built by spanning generators or, for the dual, by a split-syndrome
search over the ambient space, which joins the dual's q^n-byte indicator
from byte columns of syndromes (byte u_1 q^(n-1) + ... + u_n for word u: only
R^n, held to the cap, indexes words), reads its words off that indicator in
lexicographic order, of which a generating subset is picked, and also counts
its weight spectrum without listing it: a half's words off the same columns
where they number at most a syndrome trellis's step bound, else by that
trellis; all are exact and capped so a typo cannot demand 4^30 codewords.
A code's words and size are read off byte columns built by the same kernel
(LinearCode.span_columns) each time they are asked for.
"""

from __future__ import annotations

import os
from collections import Counter
from functools import reduce
from itertools import compress, product, repeat
from math import prod
from operator import getitem, or_

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
    """A submodule of R^n held as its generators; every derived value is read off span_columns when asked.

    Its words, index tuples in lexicographic order, are the sorted distinct
    rows of the columns, and |C| is their lanes over z; neither is kept, so
    no field is set after construction.
    """

    __slots__ = ("ring", "n", "generators")

    def __init__(self, ring: RingSpec, n: int, generators):
        self.ring = ring
        self.n = n
        self.generators = tuple(tuple(g) for g in generators)

    def span_columns(self) -> tuple[list[bytes], int]:
        """The words aG of the q^k coefficient vectors a as n byte columns, byte a of column i coordinate i
        of aG (_half_syndromes on the transposed G), and z = q^k/|C|, the lanes zero in every column.  Past
        n generators, each steps the distinct rows so far: at most q^(n+1) lanes, and z = lanes/|C|."""
        columns = _half_syndromes(self.ring, self.generators[: self.n], self.n)
        for g in self.generators[self.n :]:
            rows = b"".join(_rows(columns))
            columns = _half_syndromes(self.ring, [g], self.n, [rows[i :: self.n] for i in range(self.n)])
        ored = reduce(or_, map(int.from_bytes, columns, repeat("little")), 0)
        return columns, ored.to_bytes(len(columns[0]) if columns else 1, "little").count(0)

    @property
    def words(self) -> tuple:
        """The words as index tuples in lexicographic order: the distinct rows of span_columns, sorted."""
        return tuple(map(tuple, sorted(_rows(self.span_columns()[0]))))

    @property
    def size(self) -> int:
        """|C|, the lanes of span_columns over z: no word is listed or sorted (length 0: the empty word)."""
        columns, z = self.span_columns()
        return len(columns[0]) // z if columns else 1

    def __eq__(self, other):
        if not isinstance(other, LinearCode):
            return NotImplemented
        return self.ring == other.ring and self.n == other.n and self.words == other.words

    def __repr__(self):  # no size: a repr must not span 2^20 words
        return f"LinearCode(n={self.n}, over {self.ring!r})"


def indicator_words(q: int, n: int, indicator: bytes):
    """The words of an indicator's members, in lexicographic order, each built as it is read.

    Byte i of a q^n-byte indicator stands for the i-th word of R^n in
    lexicographic order, the i-th of product(range(q), repeat=n), so its
    members are that product filtered by it: q^n steps at C speed, and no
    index is decoded.
    """
    return compress(product(range(q), repeat=n), indicator)


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


def _rows(columns: list) -> set:
    """The distinct rows of byte columns of q^k bytes: row a, b"".join(columns)[a::q^k], is the word aG."""
    joined, lanes = b"".join(columns), len(columns[0]) if columns else 1
    return {joined[a::lanes] for a in range(lanes)}


def _greedy_generators(ring, n, words) -> list[tuple]:
    """A small generating subset of a linear code's words of length n, read once in order: each word not
    spanned by those picked before it, whose span is then stepped anew as the rows of its byte columns."""
    gens, spanned = [], {bytes(n)}
    for w in words:
        if bytes(w) not in spanned:
            gens.append(w)
            spanned = _rows(_half_syndromes(ring, gens, n))
    return gens


def check_ambient_cap(ring: RingSpec, n: int, cap: int | None = None) -> None:
    """Refuse work on R^n when q^n exceeds the enumeration cap."""
    if cap is None:
        cap = enumeration_cap()
    if ring.q**n > cap:
        raise CapExceededError(f"q^n = {ring.q}^{n} exceeds cap {cap}")


def _half_syndromes(ring, columns, k, out=None) -> list[bytes]:
    """The syndromes against k generators of every word over the given coordinates, one byte column a generator.

    columns[i] holds the k generator entries at the i-th coordinate.  Byte w of column j is entry j of the
    syndrome of the word of index w.  Taken last first, a coordinate's symbol x prefixes the column read through
    the addition row of g x, the column itself where g = 0; no word is built.  Given out, k columns of some
    lanes, those lanes are stepped in place of the zero word's one."""
    through = [row + bytes(256 - ring.q) for row in ring.add_table]  # translate tables
    out = out or [b"\0"] * k
    for col in reversed(columns):
        out = [b"".join([s.translate(through[gx]) for gx in ring.mul_table[g]]) if g else s * ring.q
               for g, s in zip(col, out)]
    return out


def _dual_cut(code: LinearCode, cap: int | None) -> tuple[int, int, list[tuple]]:
    """Both dual routes' preamble: the cap checked, the cut after floor(n/2) coordinates, k, and each
    coordinate's k generator entries; the zero code is spanned by the zero word, or zip lists no half-word."""
    check_ambient_cap(code.ring, code.n, cap)
    generators = code.generators or ((0,) * code.n,)
    return code.n // 2, len(generators), [tuple(g[i] for g in generators) for i in range(code.n)]


def dual_indicator(code: LinearCode, cap: int | None = None) -> bytes:
    """The indicator of the dual in R^n: byte i is 0x80 if the word of index i is in the dual, else 0.

    Checking the generators suffices: orthogonality to them is linear in
    the codeword.  A word v = (a, b), cut after floor(n/2) coordinates, is
    in the dual iff the syndrome of b against the generators is minus that
    of a (Wolf's syndrome trellis, cut once).  Each right half marks its
    byte in the row of q^ceil(n/2) bytes of its syndrome's bucket; the left
    halves' syndromes are negated, one translate a column, and the bucket
    row of each, or a zero row, is joined in left-half order: about
    q^ceil(n/2) Python steps, q^n bytes copied and no int per word.
    """
    half, k, columns = _dual_cut(code, cap)
    ring, width = code.ring, code.ring.q ** (code.n - half)
    buckets: dict[tuple, bytearray] = {}
    for b, s in enumerate(zip(*_half_syndromes(ring, columns[half:], k))):
        if s not in buckets:
            buckets[s] = bytearray(width)
        buckets[s][b] = 0x80
    neg = bytes(ring.neg_table) + bytes(256 - ring.q)
    lefts = [column.translate(neg) for column in _half_syndromes(ring, columns[:half], k)]
    empty = bytes(width)
    return b"".join([buckets.get(s, empty) for s in zip(*lefts)])


def dual_words(code: LinearCode, cap: int | None = None):
    """The dual's words in lexicographic order, each built as it is read: the members of dual_indicator."""
    return indicator_words(code.ring.q, code.n, dual_indicator(code, cap))


def dual_code(code: LinearCode, cap: int | None = None) -> LinearCode:
    """The dual as a code of its own generators, picked greedily off dual_words in lexicographic order."""
    return LinearCode(code.ring, code.n, _greedy_generators(code.ring, code.n, dual_words(code, cap)))


def _half_weight_counts(ring, columns, places, k) -> dict[tuple, dict[int, int]]:
    """Words over the given coordinates counted by syndrome, then by weight key: the trellis kernel.

    A word's weight key is the sum of places[i] over its nonzero coordinates i.  The words are never
    listed: the count is stepped one coordinate at a time, each syndrome once per symbol.  Symbol 0
    keeps the syndrome and the key, so its count is moved, not copied.  _half_counts takes this kernel
    only where q^h exceeds h q min(q^k, q^h) prod(m_j + 1) (_columns_pay), else the byte columns.
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


def _columns_pay(q: int, k: int, places) -> bool:
    """Whether a half's q^h words are at most the trellis's step bound h q min(q^k, q^h) prod(m_j + 1).

    With m_j of its h coordinates in level j, the trellis holds at most min(q^k, q^h) syndromes of
    prod(m_j + 1) keys each and steps each key once per symbol a coordinate, in the interpreter; byte
    columns read each word once, at C speed.  One op each, the columns are the cheaper kernel unless
    q^h is past that bound, as where RM(1,7) is cut at 64 coordinates: 2^64 words, about 2^21 steps."""
    h = len(places)
    return q**h <= h * q * min(q**k, q**h) * prod(m + 1 for m in Counter(places).values())


def _half_counts(ring, columns, places, k) -> dict[tuple, dict[int, int]]:
    """_half_weight_counts, or where _columns_pay, off the byte columns of _half_syndromes: a key column
    built in their order, last coordinate first, and Counter counting (syndrome, key) pairs at C speed."""
    if not _columns_pay(ring.q, k, places):
        return _half_weight_counts(ring, columns, places, k)
    keys = [0]
    for place in reversed(places):
        keys += [x + place for x in keys] * (ring.q - 1)
    counts: dict[tuple, dict[int, int]] = {}
    for (s, key), c in Counter(zip(zip(*_half_syndromes(ring, columns, k)), keys)).items():
        counts.setdefault(s, {})[key] = c
    return counts


def dual_weight_spectrum(code: LinearCode, levels: LevelStructure, cap: int | None = None) -> dict[int, int]:
    """Count the dual's words by their per-level Hamming weights, listing none.

    The cut of dual_indicator: a word (a, b), cut after floor(n/2) coordinates, is in the dual iff
    the syndrome of b is minus that of a.  Each half is counted by syndrome and by partial level
    weights (_half_counts: off byte syndrome columns where its q^h words are at most the step bound
    of Wolf's syndrome trellis, else by that trellis), and each left syndrome s is joined with the
    right count of -s: that of s itself, since b -> -b maps the halves of syndrome s onto those of
    -s and keeps every weight.  Counts are keyed by weight key (weight_spectrum), so joining two
    counts adds their keys, and the joined keys are the result.  The cost is each half's q^h words
    read at C speed, or at most the step bound (_columns_pay), plus one multiply-add a joined pair."""
    half, k, columns = _dual_cut(code, cap)
    check_levels(code, levels)
    places = [r for r, size in zip(levels.places, levels.sizes) for _ in range(size)]
    right = _half_counts(code.ring, columns[half:], places[half:], k)
    joined: dict[int, int] = {}
    for s, left in _half_counts(code.ring, columns[:half], places[:half], k).items():
        counts = right.get(s)
        if counts:
            for a, ca in left.items():
                for b, cb in counts.items():
                    joined[a + b] = joined.get(a + b, 0) + ca * cb
    return joined


def check_levels(code: LinearCode | None, levels: LevelStructure) -> None:
    """Refuse anything but a LevelStructure, a Poset by its reason, then a size other than a given code's length."""
    if not isinstance(levels, LevelStructure):
        raise ValueError(getattr(levels, "reason", f"levels must be a LevelStructure, got {levels!r}"))
    if code is not None and levels.n != code.n:
        raise ValueError(
            f"level structure size {levels.n} does not match code length {code.n}"
        )

