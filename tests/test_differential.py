"""Property-based differential tests: each fast kernel against its brute-force oracle.

Instances range over ten rings (the six catalog rings plus GF(8), GF(9), Z8
and Z9), level sizes, generators and spotty thresholds t, with q^n kept
small enough for the full-scan oracle.  The byte columns a span's words are
built as are checked on generators that are not free, on the zero code and
on levels past 255 coordinates.  Fixed cases over rings of 16-64
elements take the byte transform to character orders e = 16-64 and to
several packed rows; cases over Z6, Z10 and Z12 take it to orders with two
prime factors.  Its integer check of each tally is checked against the
reduction modulo the cyclotomic polynomial on random tallies, and its
whole-row read of the final rows against that check slot by slot.  The byte
transform's step through an additive subgroup is checked against the
dense q x q product on every ring of at most 64 elements.  Ring
construction is checked the same way: the generator-based axiom check,
on both its additive and its multiplicative route and past the first check
of each, and the additivity check against the exhaustive loops, the
recurrence-built GF tables against polynomial arithmetic, and the field
check of GF(p^k) against trial division of the modulus.
"""

import random
from collections import Counter
from functools import partial
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    cell_complete_totals,
    cell_complete_transform,
    convolution_gf_tables,
    cover_ideal,
    cover_level_sizes,
    cover_poset_enumerator,
    cyclotomic_coefficient,
    dense_line_step,
    enumerate_ideals,
    exhaustive_is_additive,
    exhaustive_ring_axioms,
    gf_is_irreducible,
    hierarchical_poset,
    indicator_of,
    keyed,
    level_bounds,
    member_words,
    members,
    pattern_byte_transform,
    pattern_of,
    reference_json,
    reference_poly,
    reference_text,
    scan_dual_words,
    span_words,
    substitute,
    tuple_weight_spectrum,
    unkeyed,
)
from pwenum import codes
from pwenum.codes import dual_code, dual_indicator, dual_weight_spectrum, span
from pwenum.enumerators import (
    byte_enumerator,
    mspotty_enumerator,
    poset_spectrum,
    spotty_spectrum,
    weight_spectrum,
)
from pwenum.errors import IntegrityError
from pwenum.macwilliams import (
    KINDS,
    _byte_coefficient,
    _coset_split,
    _read_tallies,
    _ring_step,
    _subgroup,
    _yates_tallies,
    byte_transform,
    complete_transform,
    count,
    krawtchouk_contraction,
    mspotty_transform,
    render,
    verify_identity,
)
from pwenum.posets import LevelStructure, Poset, poset_from_json_obj
from pwenum.rings import (
    RingSpec,
    check_additive,
    default_character,
    make_ring,
    verify_generating_character,
)

RINGS = {
    "F2": make_ring("Zm", m=2),
    "F3": make_ring("Zm", m=3),
    "F4": make_ring("GF", p=2, k=2, modulus=[1, 1, 1]),
    "Z4": make_ring("Zm", m=4),
    "F2u": make_ring("F2u"),
    "F2v": make_ring("F2v"),
    "GF8": make_ring("GF", p=2, k=3, modulus=[1, 1, 0, 1]),
    "GF9": make_ring("GF", p=3, k=2, modulus=[1, 0, 1]),
    "Z8": make_ring("Zm", m=8),
    "Z9": make_ring("Zm", m=9),
}
AMBIENT_LIMIT = 2**12
SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def instances(draw, names=tuple(sorted(RINGS))):
    """(ring, levels, code, t) with q^n <= AMBIENT_LIMIT and 1-3 levels of size 1-3."""
    ring = RINGS[draw(st.sampled_from(names))]
    budget = 1
    while ring.q ** (budget + 1) <= AMBIENT_LIMIT:
        budget += 1
    sizes = []
    for _ in range(draw(st.integers(1, 3))):
        if budget - sum(sizes) < 1:
            break
        sizes.append(draw(st.integers(1, min(3, budget - sum(sizes)))))
    levels = LevelStructure(sizes)
    n = levels.n
    word = st.tuples(*[st.integers(0, ring.q - 1)] * n)
    gens = draw(st.lists(word, max_size=4))
    t = tuple(draw(st.integers(1, s)) for s in sizes)
    return ring, levels, span(ring, n, gens), t


def _fixed(name, sizes, generators):
    ring = RINGS[name]
    levels = LevelStructure(sizes)
    return ring, levels, span(ring, levels.n, generators), tuple(sizes)


# The listing join pairs syndrome s with -s; over Z4, Z8, Z9, F3 and GF(9)
# some s have -s != s, so pairing s with s lists wrong words there.
@SETTINGS
@given(instances())
@example(_fixed("Z4", (3,), []))  # k = 0: the dual is all of R^n
@example(_fixed("Z9", (1,), [(3,)]))  # n = 1: an empty left half
@example(_fixed("Z4", (2, 3), [(1, 3, 2, 1, 0), (0, 2, 1, 3, 3)]))  # odd n
def test_dual_code_matches_scan_oracle(instance):
    ring, _, code, _ = instance
    words = scan_dual_words(code)
    places = [ring.q ** (code.n - 1 - i) for i in range(code.n)]
    assert members(dual_indicator(code)) == [sum(x * p for x, p in zip(w, places)) for w in words]
    dual = dual_code(code)
    assert list(dual.words) == words
    assert code.size * dual.size == ring.q**code.n
    assert dual_code(dual) == code


@SETTINGS
@given(instances())
@example(_fixed("Z9", (1,), [(3,)]))  # n = 1: an empty left half
@example(_fixed("GF9", (2, 1), [(1, 5, 7), (0, 3, 3)]))  # odd n
@example(_fixed("Z4", (1, 3, 1), [(1, 3, 2, 1, 0), (0, 2, 1, 3, 3)]))  # level 2 straddles the cut
# not free: a repeated generator, a zero one and 2 times the first, 4 generators spanning 4 words
@example(_fixed("Z4", (2, 2), [(1, 3, 2, 1), (2, 2, 0, 2), (1, 3, 2, 1), (0, 0, 0, 0)]))
@example(_fixed("F3", (1, 2), [(1, 2, 0), (2, 1, 0), (0, 0, 0)]))  # dependent over a field: 3 words
def test_word_storage_matches_span_and_spectrum_oracles(instance):
    ring, levels, code, _ = instance
    fresh = span(ring, code.n, code.generators)
    unlisted = weight_spectrum(fresh, levels)  # counted off the span's byte columns, nothing listed
    words = span_words(ring, code.n, code.generators)
    assert code.words == tuple(words)  # the listing: every word once, in lexicographic order
    assert code.size == len(words)
    assert unlisted == keyed(levels.sizes, tuple_weight_spectrum(fresh, levels))
    for held in (code, dual_code(code)):  # the listed code and the dual: its words decoded
        assert weight_spectrum(held, levels) == keyed(levels.sizes, tuple_weight_spectrum(held, levels))


def _level_weights(words, levels) -> dict[tuple, int]:
    """Words counted by their per-level numbers of nonzero entries."""
    out: dict[tuple, int] = {}
    for word in words:
        key, start = [], 0
        for size in levels.sizes:
            key.append(sum(1 for x in word[start : start + size] if x))
            start += size
        out[tuple(key)] = out.get(tuple(key), 0) + 1
    return out


# Z4, Z8, Z9, F3 and GF(9) have syndromes s with -s != s; F2u, like every
# ring of characteristic 2, has none.
@SETTINGS
@given(instances())
@example(_fixed("Z4", (3,), []))  # k = 0: the dual is all of R^n
@example(_fixed("Z9", (1,), [(3,)]))  # n = 1: an empty left half
@example(_fixed("Z4", (2, 3), [(1, 3, 2, 1, 0), (0, 2, 1, 3, 3)]))  # odd n; level 2 straddles
@example(_fixed("Z9", (3,), [(1, 4, 7)]))  # one level across the cut
@example(_fixed("F2u", (1, 2), [(1, 2, 3)]))
@example(_fixed("GF9", (2, 1), [(1, 5, 7)]))
def test_dual_weight_spectrum_matches_listing_and_scan_oracles(instance):
    _, levels, code, _ = instance
    spectrum = dual_weight_spectrum(code, levels)
    assert spectrum == weight_spectrum(dual_code(code), levels)
    assert spectrum == keyed(levels.sizes, _level_weights(scan_dual_words(code), levels))


# Both half kernels of dual_weight_spectrum, on each half of the cut: the byte
# columns with their key column, and the trellis.  The choice between them
# (_columns_pay) only sets the speed, so the spectrum is checked with it
# forced each way.
@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
@example(data=_fixed("Z4", (3,), []))  # k = 0: the zero word keys both halves
@example(data=_fixed("Z9", (1,), [(3,)]))  # n = 1: h = 0 on the left
@example(data=_fixed("GF9", (2, 1), [(1, 5, 7), (0, 3, 3)]))  # odd n
@example(data=_fixed("Z4", (1, 3, 1), [(1, 3, 2, 1, 0), (0, 2, 1, 3, 3)]))  # level 2 straddles the cut
@example(data=_fixed("Z4", (2, 2), [(1, 3, 2, 1), (2, 2, 0, 2), (1, 3, 2, 1), (0, 0, 0, 0)]))  # not free
def test_byte_column_half_counts_match_the_trellis(name, data):
    ring, levels, code, _ = data if isinstance(data, tuple) else data.draw(instances((name,)))
    half, k, columns = codes._dual_cut(code, None)
    places = [r for r, size in zip(levels.places, levels.sizes) for _ in range(size)]
    scanned = keyed(levels.sizes, _level_weights(scan_dual_words(code), levels))
    for pays in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codes, "_columns_pay", lambda q, k, places: pays)
            for cut in (slice(None, half), slice(half, None)):
                counted = codes._half_counts(ring, columns[cut], places[cut], k)
                assert counted == codes._half_weight_counts(ring, columns[cut], places[cut], k)
            assert dual_weight_spectrum(code, levels) == scanned


@SETTINGS
@given(instances(), st.sampled_from(["leveled", "chain", "antichain"]))
@example(_fixed("Z4", (3,), []), "chain")  # k = 0: the dual is all of R^n
@example(_fixed("F2u", (1, 2), [(1, 2, 3)]), "leveled")
@example(_fixed("GF9", (2, 1), [(1, 5, 7)]), "antichain")
def test_the_poset_kind_folds_the_level_spectrum_on_a_hierarchical_poset(instance, shape):
    # given by covers, a hierarchy is read as its LevelStructure and folds the per-level weights
    _, levels, code, _ = instance
    sizes = {"leveled": levels.sizes, "chain": (1,) * levels.n, "antichain": (levels.n,)}[shape]
    covers = hierarchical_poset(sizes)
    assert _cover_poset(levels.n, covers) == LevelStructure(sizes)
    assert count("poset", "code", code, LevelStructure(sizes)) == cover_poset_enumerator(code.words, covers)
    dual = cover_poset_enumerator(dual_code(code).words, covers)
    assert count("poset", "dual", code, LevelStructure(sizes)) == dual


def _cover_poset(n, covers):
    return poset_from_json_obj({"kind": "cover", "n": n, "covers": [list(pair) for pair in covers]})


@st.composite
def cover_posets(draw, n):
    """Acyclic covers on 1..n: a hierarchy, the same on permuted positions, or that with pairs moved.

    The hierarchy's levels are cut from a permutation of the positions, so a
    permuted one mostly has its levels out of coordinate order.  A dropped
    pair breaks the hierarchy; an added pair, always up the permutation,
    keeps it when it skips a level and breaks it inside one.
    """
    mode = draw(st.sampled_from(["hierarchical", "permuted", "perturbed"]))
    order = list(range(1, n + 1))
    if mode != "hierarchical":
        order = draw(st.permutations(order))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    covers = {(order[a - 1], order[b - 1]) for a, b in hierarchical_poset(sizes)}
    if mode == "perturbed":
        covers -= draw(st.sets(st.sampled_from(sorted(covers)))) if covers else set()
        rank = st.integers(0, n - 1)
        for i, j in draw(st.lists(st.tuples(rank, rank).filter(lambda p: p[0] != p[1]), max_size=n)):
            covers.add((order[min(i, j)], order[max(i, j)]))
    return sorted(covers)


@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_the_poset_kind_matches_the_cover_oracle_on_random_cover_posets(name, data):
    # a LevelStructure exactly when the old reading of the hierarchy accepted the order
    _, _, code, _ = data.draw(instances((name,)))
    covers = data.draw(cover_posets(code.n))
    shape, sizes = _cover_poset(code.n, covers), cover_level_sizes(code.n, covers)
    if sizes is None:
        assert isinstance(shape, Poset)
    else:
        assert shape == LevelStructure(sizes)
    assert count("poset", "code", code, shape) == cover_poset_enumerator(code.words, covers)
    assert count("poset", "dual", code, shape) == cover_poset_enumerator(scan_dual_words(code), covers)


@SETTINGS
@given(instances())
def test_complete_transform_matches_cell_oracle(instance):
    ring, levels, code, t = instance
    dual = dual_code(code)
    for primal in (code, dual):
        spectrum = weight_spectrum(primal, levels)
        poly = complete_transform(spectrum, levels, ring.q, primal.size)
        expected = cell_complete_transform(unkeyed(levels.sizes, spectrum), levels.sizes, ring.q, primal.size)
        assert poly == keyed(levels.sizes, expected)
    # t reaches the transform only through the spotty substitution
    spectrum = weight_spectrum(code, levels)
    spotty = mspotty_transform(spectrum, levels, t, ring.q, code.size)
    assert spotty == mspotty_enumerator(dual, levels, t)


@st.composite
def arbitrary_spectra(draw):
    """(spectrum, levels, q): in-range weight tuples with counts up to 2^45, mostly no code's spectrum.

    The counts take the packed fields of the contraction across byte
    boundaries.  A lone key at weight 0 divides exactly and stays nonnegative;
    a lone key elsewhere divides exactly but turns negative.  The shapes are
    the contraction's as the benchmark runs them: 1 to 7 levels, with at
    most 3^7 cells.
    """
    q = draw(st.sampled_from([2, 3, 4, 9, 64]))
    count, room, sizes = draw(st.integers(1, 7)), 3**7, []
    for left in range(count - 1, -1, -1):  # room for at least 2 cells a level still to draw
        sizes.append(draw(st.integers(1, min(6, room // 2**left - 1))))
        room //= sizes[-1] + 1
    levels = LevelStructure(sizes)
    key = st.tuples(*(st.integers(0, size) for size in levels.sizes))
    spectrum = draw(st.dictionaries(key, st.integers(1, 2**45), min_size=1, max_size=6))
    return spectrum, levels, q


def _scaled_spectrum(name, sizes, generators, factor):
    """A real code's spectrum with every count times factor: it divides exactly."""
    ring, levels, code, _ = _fixed(name, sizes, generators)
    scaled = {key: c * factor for key, c in weight_spectrum(code, levels).items()}
    return unkeyed(levels.sizes, scaled), levels, ring.q


@SETTINGS
@given(arbitrary_spectra())
@example(({(0, 0): 2**45}, LevelStructure((6, 6)), 64))  # 2^45 * 64^12: 16-byte fields
@example(({(0,): 3}, LevelStructure((1,)), 64))  # 3 * 63 = 189 needs a byte past the sign
@example(({(0, 0): 9}, LevelStructure((1, 1)), 64))  # 9 * 63^2 = 35721 likewise
# 7 levels of 2: 27 slots over 81 rows, 4-byte fields, the strided signed transpose
@example(_scaled_spectrum(
    "F2", (2,) * 7, [tuple(map(int, w)) for w in ("10001101011001", "01000111100101", "00101010110110", "00011110001111")], 1
))
# 49 slots over 16 rows, 8-byte fields: the strided signed transpose with more columns than rows
@example(_scaled_spectrum("F3", (6, 6, 3, 3), [(1, 0) + (1, 2) * 8, (0, 1) + (2, 0, 1) * 5 + (1,)], 1))
@example(_scaled_spectrum("F3", (2, 1), [(1, 2, 0)], 2**40))
@example(_scaled_spectrum("F4", (1, 2, 1), [(1, 0, 2, 3), (0, 1, 1, 1)], 3**20))
def test_contraction_checks_match_the_raw_cell_totals(case):
    spectrum, levels, q = case
    size = sum(spectrum.values())
    totals = cell_complete_totals(spectrum, levels.sizes, q)
    spectrum = keyed(levels.sizes, spectrum)
    if any(total % size or total < 0 for total in totals.values()):
        with pytest.raises(IntegrityError):
            krawtchouk_contraction(spectrum, levels, q, size)
    else:
        expected = {p: total // size for p, total in totals.items() if total}
        assert krawtchouk_contraction(spectrum, levels, q, size) == keyed(levels.sizes, expected)


@st.composite
def fold_cases(draw):
    """(spectrum, levels, t): weight tuples, zero and full digits likely, often the first and last keys."""
    levels = LevelStructure(draw(st.lists(st.integers(1, 5), min_size=1, max_size=4)))
    digits = [st.one_of(st.just(0), st.just(n), st.integers(0, n)) for n in levels.sizes]
    spectrum = draw(st.dictionaries(st.tuples(*digits), st.integers(1, 10**6), max_size=8))
    for ends in draw(st.sets(st.sampled_from([(0,) * levels.count, levels.sizes]))):
        spectrum.setdefault(ends, 1)  # the weight keys 0 and prod(n_j + 1) - 1
    return spectrum, levels, tuple(draw(st.integers(1, n)) for n in levels.sizes)


@SETTINGS
@given(fold_cases())
@example(({(0, 0): 1, (2, 3): 2}, LevelStructure((2, 3)), (2, 3)))
@example(({(0, 0, 0): 1, (4, 0, 0): 2, (0, 0, 1): 3}, LevelStructure((4, 2, 1)), (3, 2, 1)))
@example(({(5,): 4}, LevelStructure((5,)), (2,)))
def test_the_folds_match_their_oracles_on_random_spectra(case):
    # the poset weight of a word with these level weights: its support's ideal under the covers
    spectrum, levels, t = case
    sizes = levels.sizes
    spotty = keyed(sizes, substitute(spectrum, "complete->mspotty", t))
    assert spotty_spectrum(keyed(sizes, spectrum), levels, t) == spotty
    covers, bounds, poset = hierarchical_poset(sizes), level_bounds(sizes), Counter()
    for l, c in spectrum.items():
        poset[len(cover_ideal(covers, [lo + i for (lo, _), w in zip(bounds, l) for i in range(w)]))] += c
    assert poset_spectrum(keyed(sizes, spectrum), levels) == poset


def _as_patterns(indicator, q, n) -> dict[tuple, int]:
    """{pattern: 1} of a byte indicator over R^n, q^n bytes each 0 or 0x80."""
    assert len(indicator) == q**n
    return {tuple(pattern_of(i, q, n)): 1 for i in members(indicator)}


@SETTINGS
@given(instances())
def test_byte_transform_matches_pattern_oracle(instance):
    ring, levels, code, _ = instance
    # the smaller of C and its dual keeps the oracle's |C| q^n pairs below q^(3n/2)
    primal = min(code, dual_code(code), key=lambda c: c.size)
    poly = byte_transform(primal, levels)
    assert _as_patterns(poly, ring.q, code.n) == pattern_byte_transform(primal, default_character(ring))


@st.composite
def dependent_codes(draw, ring):
    """(sizes, generators) whose rows are not free, in random order: one or two random rows and one to
    three of a repeat, a zero row and r g for a ring element r and a row g, with q^n <= 2^8; the zero
    code; or, in a level of 256-300 coordinates, a row of nonzero entries and one such dependent row."""
    shape = draw(st.sampled_from(["small", "zero", "long"]))
    if shape == "long":
        n = draw(st.integers(256, 300))
        sizes = draw(st.sampled_from([(n,), (n - 3, 3), (2, n - 2)]))
        base = [tuple(draw(st.lists(st.integers(1, ring.q - 1), min_size=n, max_size=n)))]
        picks = 1
    else:
        budget = max(m for m in range(1, 9) if ring.q**m <= 2**8)
        sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda s: sum(s) <= budget)))
        base = draw(st.lists(st.tuples(*[st.integers(0, ring.q - 1)] * sum(sizes)), min_size=1, max_size=2))
        picks = 0 if shape == "zero" else draw(st.integers(1, 3))
    rows = list(base) if picks else []
    for _ in range(picks):
        g = draw(st.sampled_from(base))
        r = draw(st.integers(0, ring.q - 1))
        rows.append(draw(st.sampled_from([g, (0,) * len(g), tuple(ring.mul_table[r][x] for x in g)])))
    return sizes, draw(st.permutations(rows))


# A span's words are built as byte columns of q^k lanes (LinearCode.span_columns), each word in
# z = q^k/|C| of them: dependent rows make z > 1, which weight_spectrum divides out and byte_transform
# marks once, and a level past 255 coordinates takes weight_spectrum's 1-byte column sums past a byte.
@pytest.mark.parametrize("name", sorted(RINGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
@example(data=("Z4", (2, 2), [(1, 3, 2, 1), (2, 2, 0, 2)]))  # g and 2g: z = 4
@example(data=("Z4", (300,), [(1, 3) * 150, (2, 2) * 150]))  # g and 2g on a level of 300: a weight of 300
@example(data=("F2", (300,), [(1,) * 300, (1,) * 300]))  # a repeated row: z = 2
@example(data=("F3", (1, 2), [(1, 0, 2), (0, 0, 0), (1, 0, 2)]))  # a zero row and a repeat
@example(data=("Z9", (2,), []))  # the zero code: one column lane, z = 1
@example(data=("F2", (1,) * 70, [(1, 0) * 35, (1, 1) * 35, (0, 1) * 35]))  # keys past 2^64: 16-byte lanes
def test_span_columns_match_the_oracles_on_dependent_generators(name, data):
    if isinstance(data, tuple):
        name, sizes, gens = data
    else:
        sizes, gens = data.draw(dependent_codes(RINGS[name]))
    ring, levels = RINGS[name], LevelStructure(sizes)
    code = span(ring, levels.n, gens)
    words = span_words(ring, levels.n, gens)
    assert weight_spectrum(code, levels) == keyed(sizes, _level_weights(words, levels))  # nothing listed yet
    assert code.words == tuple(words)
    if ring.q**levels.n <= 2**8:
        patterns = pattern_byte_transform(code, default_character(ring))
        assert _as_patterns(byte_transform(code, levels), ring.q, levels.n) == patterns


@st.composite
def count_dicts(draw):
    """(kind, counts, q, levels): positive counts on keys of one kind, q up to 64.

    A weight kind's keys are weight tuples here, for the reference renderer.
    The byte kind's counts are all 1: its enumerator is a set of patterns.
    """
    kind = draw(st.sampled_from(sorted(KINDS)))
    q = draw(st.sampled_from([2, 3, 4, 9, 10, 11, 16, 64]))
    levels = LevelStructure(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    if kind == "byte":
        key = st.integers(0, q**levels.n - 1)
    elif kind == "poset":
        key = st.integers(0, levels.n)
    else:
        key = st.tuples(*(st.integers(0, size) for size in levels.sizes))
    counts = draw(st.dictionaries(key, st.just(1) if kind == "byte" else st.integers(1, 10**6), max_size=12))
    return kind, counts, q, levels


@settings(max_examples=300, deadline=None)
@given(count_dicts())
@example(("byte", {1: 1, 11 * 64 + 3: 1, 64**2 - 1: 1}, 64, LevelStructure((1, 2))))  # 1,11 vs 03
@example(("level", {(0, 1): 1, (1, 0): 1, (0, 2): 3, (1, 1): 1, (0, 0): 1}, 2, LevelStructure((2, 2))))
@example(("complete", {}, 2, LevelStructure((1,))))
def test_render_matches_the_reference_renderer(case):
    # the polynomial type's order and spelling: (level, kind, data) variables, sorted monomials
    kind, counts, q, levels = case
    poly = reference_poly(kind, counts, q, levels)
    holders = [counts]
    if kind in ("complete", "level", "mspotty"):
        holders = [keyed(levels.sizes, counts)]
    elif kind == "byte":  # both holders of a set: increasing indices, and the indicator where it is small
        words = tuple(tuple(pattern_of(i, q, levels.n)) for i in sorted(counts))
        holders = [words] + ([indicator_of(counts, q**levels.n)] if q**levels.n <= 2**18 else [])
    for held in holders:
        assert render(kind, held, q, levels) == reference_text(poly)
        assert render(kind, held, q, levels, json=True) == reference_json(poly)


BIG_RINGS = {
    "Z16": make_ring("Zm", m=16),
    "Z27": make_ring("Zm", m=27),
    "Z32": make_ring("Zm", m=32),
    "Z64": make_ring("Zm", m=64),
    "GF49": make_ring("GF", p=7, k=2, modulus=[1, 0, 1]),
    "GF64": make_ring("GF", p=2, k=6, modulus=[1, 1, 0, 0, 0, 0, 1]),
}
# character orders e = 6, 10 and 12, each with two prime factors
COMPOSITE_RINGS = {f"Z{m}": make_ring("Zm", m=m) for m in (6, 10, 12)}


@pytest.mark.parametrize(
    "name, sizes, generators",
    [
        ("Z16", (2, 1), [(1, 3, 5)]),
        ("Z16", (1, 1, 1), [(1, 0, 7), (0, 2, 6)]),  # odd n
        ("Z27", (1, 1), [(3, 9)]),
        ("Z32", (1, 1), [(1, 5), (0, 8)]),
        ("Z64", (1, 1), [(1, 17)]),
        ("Z64", (1, 1), [(1, 0), (0, 16)]),  # |C| = 256: two-byte fields
        ("GF49", (1, 1), [(1, 10)]),
        ("GF64", (2,), [(1, 33)]),
        ("GF9", (2, 2), [(1, 2, 0, 4), (0, 3, 1, 1)]),
        ("Z8", (1, 1, 1, 1, 1), [(1, 2, 3, 4, 5), (0, 4, 0, 2, 6)]),  # odd n
        ("Z8", (1, 1, 1), [(1, 3, 6)]),
        ("Z4", (2, 2, 2), [(1, 0, 2, 3, 1, 1), (0, 1, 1, 0, 2, 3)]),
        ("Z64", (1,), [(2,)]),  # n = 1: one slot per row, copied whole
        (
            "F2",
            (4, 4, 4),
            [
                (1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1),
                (0, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0),
                (0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0),
                (0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0),
                (0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0),
                (0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1),
            ],
        ),
        ("F3", (4, 3), [(1, 2, 0, 1, 1, 0, 2), (0, 1, 1, 2, 0, 1, 1)]),
        ("F2", (3, 2, 2), [(1, 1, 0, 1, 0, 0, 1), (0, 1, 1, 0, 1, 0, 1)]),  # odd n
        ("F2", (1,), [(1,)]),  # n = 1: two rows of one 4-byte slot, copied slot by slot
        ("Z6", (1, 1), [(1, 3)]),
        ("Z6", (2, 1), [(1, 2, 3)]),
        ("Z10", (1, 1), [(2, 5)]),
        ("Z10", (2, 1), [(1, 4, 5), (0, 5, 0)]),  # odd n
        ("Z12", (1, 1), [(3, 4)]),
        ("Z12", (1, 1, 1), [(1, 6, 4), (0, 2, 3)]),  # odd n
    ],
)
def test_byte_transform_matches_pattern_oracle_on_big_rings(name, sizes, generators):
    ring = {**RINGS, **BIG_RINGS, **COMPOSITE_RINGS}[name]
    levels = LevelStructure(sizes)
    code = span(ring, levels.n, generators)
    poly = byte_transform(code, levels)
    assert _as_patterns(poly, ring.q, code.n) == pattern_byte_transform(code, default_character(ring))
    assert poly == dual_indicator(code)
    assert member_words(poly, ring.q, code.n) == list(byte_enumerator(dual_code(code), levels))


@pytest.mark.parametrize(
    "m, sizes, generators, size",
    [
        # |C| a power of two: the count |C| needs b = |C|.bit_length() bits, one more than |C| - 1;
        # a slot is 2e fields of b bits, padded to whole bytes where 8 does not divide 2e b
        (2, (2, 2), [], 1),  # b = 1: 4 bits in 1 byte
        (2, (2, 2), [(1, 1, 0, 1)], 2),  # b = 2: 8 bits
        (2, (2, 2), [(1, 1, 0, 1), (0, 1, 1, 1)], 4),  # b = 3: 12 bits in 2 bytes
        (2, (3, 3), [(1, 0, 0, 0, 1, 1), (0, 1, 0, 1, 0, 1), (0, 0, 1, 1, 1, 0), (0, 0, 0, 1, 1, 1)], 16),  # 20 in 3
        (4, (1, 2), [(2, 0, 2)], 2),
        (4, (1, 2), [(1, 2, 3)], 4),
        (4, (1, 2), [(1, 0, 3), (0, 1, 1)], 16),
        (8, (1, 1), [(4, 4)], 2),
        (8, (1, 2), [(1, 2, 3)], 8),
        (16, (1, 1), [(8, 8)], 2),
        (16, (1, 1), [(1, 3)], 16),
        (32, (1, 1), [(16, 16)], 2),
        (32, (1, 1), [(1, 3), (0, 2)], 512),  # b = 10
        (64, (1, 1), [], 1),
        (64, (1, 1), [(32, 32)], 2),
        (64, (1, 1), [(1, 17)], 64),
        (64, (1, 1), [(1, 0), (0, 16)], 256),  # b = 9
        (64, (1, 1), [(1, 0), (0, 1)], 4096),  # the whole space: b = 13
        # |C| no power of two, on e = 3, 9 and 27
        (3, (1, 2), [(1, 2, 1)], 3),  # b = 2: 12 bits in 2 bytes
        (3, (2, 2), [(1, 0, 1, 2), (0, 1, 2, 2)], 9),  # b = 4: 24 bits
        (3, (2, 2), [(1, 0, 0, 1), (0, 1, 0, 2), (0, 0, 1, 1)], 27),  # b = 5: 30 bits in 4 bytes
        (9, (1, 2), [(3, 3, 6)], 3),  # b = 2: 36 bits in 5 bytes
        (9, (1, 2), [(1, 3, 6)], 9),  # b = 4: 72 bits
        (9, (1, 2), [(1, 0, 3), (0, 3, 3)], 27),  # b = 5: 90 bits in 12 bytes
        (27, (1, 1), [], 1),
        (27, (1, 1), [(9, 9)], 3),  # b = 2: 108 bits in 14 bytes
        (27, (1, 1), [(1, 5)], 27),  # b = 5: 270 bits in 34 bytes
        (27, (1, 1), [(3, 0), (0, 9)], 27),
    ],
)
def test_byte_transform_at_the_field_width_boundaries(m, sizes, generators, size):
    levels = LevelStructure(sizes)
    ring = make_ring("Zm", m=m)
    code = span(ring, levels.n, generators)
    assert code.size == size
    dual = dual_indicator(code)
    assert byte_transform(code, levels) == dual
    assert member_words(dual, ring.q, code.n) == list(byte_enumerator(dual_code(code), levels))
    # each slot, field by field, is the true tally, its zero fields and padding 0: the whole-row read
    # compares a slot with its forms, and a count |C| one bit too wide for its field would carry into
    # field 1 alike in both
    field, rows, period, counted = _yates_tallies(code, default_character(ring))
    assert counted == size
    e, slot = ring.exponent, -(-2 * ring.exponent * field // 8)
    tallies = [row >> 8 * slot * k & ((1 << 8 * slot) - 1) for row in rows for k in range(period)]
    assert not any(tally >> e * field for tally in tallies)
    assert [_byte_coefficient(tally, e, field, size) for tally in tallies] == [b >> 7 for b in dual]


@pytest.mark.parametrize(
    "name, exponents, generators",
    [
        ("Z4", (0, 2, 0, 2), [(1, 2)]),
        ("Z16", tuple(2 * a % 16 for a in range(16)), [(1, 3)]),
        ("Z6", tuple(2 * a % 6 for a in range(6)), [(1, 3)]),  # e = 6 with two primes
        ("Z64", tuple(2 * a % 64 for a in range(64)), [(1, 3)]),  # stepped through H = {0, 8, ..., 56}
    ],
)
def test_non_generating_character_fails_as_the_oracle_does(name, exponents, generators, monkeypatch):
    ring = make_ring("Zm", m=int(name[1:]))
    assert not verify_generating_character(ring, exponents)
    monkeypatch.setattr("pwenum.macwilliams.default_character", lambda ring: bytes(exponents))
    code = span(ring, 2, generators)
    levels = LevelStructure((1, 1))
    # an additive character sums to |C| or 0 over C, so every division is exact
    # and the failure shows as extra patterns next to the dual's indicator
    poly = byte_transform(code, levels)
    assert _as_patterns(poly, ring.q, 2) == pattern_byte_transform(code, exponents)
    assert poly != dual_indicator(code)


INDICATOR_RINGS = {**RINGS, **BIG_RINGS, **COMPOSITE_RINGS}


@st.composite
def indicator_codes(draw, ring):
    """(levels, generators) with q^n <= AMBIENT_LIMIT: the zero code, the full space, or random
    generators, some of them repeated, multiplied by a ring element or summed."""
    n = draw(st.integers(1, max(m for m in range(1, 13) if ring.q**m <= AMBIENT_LIMIT)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    word = st.tuples(*[st.integers(0, ring.q - 1)] * n)
    shape = draw(st.sampled_from(("zero", "full", "random", "dependent")))
    if shape == "zero":  # no generator, or zero words: the dual is all of R^n
        gens = [(0,) * n] * draw(st.integers(0, 2))
    elif shape == "full":  # the unit words, then any others: the dual is the zero word alone
        gens = [tuple(int(i == j) for j in range(n)) for i in range(n)] + draw(st.lists(word, max_size=2))
    else:
        gens = draw(st.lists(word, min_size=1, max_size=3))
    if shape == "dependent":
        add, mul = ring.add_table, ring.mul_table
        g, h = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        r = draw(st.integers(0, ring.q - 1))
        gens += [g, tuple(mul[r][x] for x in g), tuple(add[x][y] for x, y in zip(g, h))]
        gens = draw(st.permutations(gens))
    return LevelStructure(sizes), gens


def _check_both_indicators(ring, levels, gens):
    """The dual indicator and the transform's against the indicator of the scanned dual."""
    code = span(ring, levels.n, gens)
    places = [ring.q ** (levels.n - 1 - i) for i in range(levels.n)]
    listed = indicator_of((sum(x * p for x, p in zip(w, places)) for w in scan_dual_words(code)), ring.q**levels.n)
    assert dual_indicator(code) == listed
    assert byte_transform(code, levels) == listed
    report = verify_identity("byte", code, levels)
    assert report.equal and report.lhs == report.rhs == listed


@pytest.mark.parametrize("name", sorted(INDICATOR_RINGS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_both_byte_indicators_match_the_scanned_dual(name, data):
    ring = INDICATOR_RINGS[name]
    _check_both_indicators(ring, *data.draw(indicator_codes(ring)))


@pytest.mark.parametrize(
    "name, sizes, gens",
    [
        # over Z4 and F3 a syndrome s has -s != s, so a left half must be joined with the bucket of -s
        ("Z4", (2, 2), [(1, 2, 3, 1)]),
        ("Z4", (1, 2), [(1, 3, 2), (0, 1, 1)]),
        ("F3", (2, 2), [(1, 2, 0, 1), (0, 1, 1, 2)]),
        ("F3", (1, 1, 1), [(1, 1, 2)]),
        ("Z4", (3,), []),  # k = 0: the dual is all of R^n
        ("F3", (2, 1), [(0, 0, 0)]),  # a zero generator: likewise
        ("Z4", (1, 1), [(1, 0), (0, 1)]),  # the full space: the dual is the zero word
        ("F3", (2, 2), [(1, 2, 0, 1), (1, 2, 0, 1), (2, 1, 0, 2)]),  # repeated, and 2 times the first
        ("Z9", (1,), [(3,)]),  # n = 1: an empty left half
    ],
)
def test_both_byte_indicators_match_the_scanned_dual_on_fixed_codes(name, sizes, gens):
    _check_both_indicators(INDICATOR_RINGS[name], LevelStructure(sizes), gens)


@SETTINGS
@given(st.data())
def test_byte_coefficient_agrees_with_the_cyclotomic_reduction(data):
    # a subgroup tally, |C|/|H| on each element of H, with up to three fields redrawn
    e = data.draw(st.sampled_from((2, 3, 4, 6, 8, 9, 12, 16, 64)))
    g = data.draw(st.sampled_from([d for d in range(1, e + 1) if e % d == 0]))
    c = data.draw(st.integers(1, 20))
    counts = ([c] + [0] * (g - 1)) * (e // g)
    for r in data.draw(st.lists(st.integers(0, e - 1), max_size=3)):
        counts[r] = data.draw(st.integers(0, 2 * c))
    size = data.draw(st.sampled_from((c * e // g, max(1, sum(counts)), c)))
    field = data.draw(st.integers((2 * c).bit_length(), 24))  # bits; every count fits
    tally = sum(x << r * field for r, x in enumerate(counts))
    try:
        coeff = _byte_coefficient(tally, e, field, size)
    except IntegrityError:
        return
    assert coeff == cyclotomic_coefficient(counts, size)


@st.composite
def final_rows(draw):
    """(rows, period, e, field, |C|): slots of valid tallies T_g, at most one of them corrupted.

    A slot is 2e fields of field bits, padded with zero bits to whole bytes:
    T_g has |C| g/e on the count fields of the multiples of g and 0 on the
    others, on the e zero fields and on the padding.  The corruption moves a
    count between count fields, changes one, sets a zero field or sets a
    padding bit; it may land on another valid tally.
    """
    e = draw(st.sampled_from((2, 3, 4, 8, 9, 16, 27, 64)))
    field = draw(st.integers(1, 24))
    top = 2**field - 1  # the largest count a field holds
    size = draw(st.integers(1, max(1, top // e))) * draw(st.sampled_from((1, e) if e <= top else (1,)))
    forms = [g for g in range(1, e + 1) if e % g == 0 and size * g % e == 0]
    period, nrows = draw(st.integers(1, 9)), draw(st.integers(1, 4))
    slots = []
    for _ in range(period * nrows):
        g = draw(st.sampled_from(forms))
        slots.append([size * g // e if r % g == 0 else 0 for r in range(e)] + [0] * e)
    at = draw(st.integers(0, len(slots) - 1))
    counts, slot = slots[at], -(-2 * e * field // 8)  # bytes
    padded = 8 * slot > 2 * e * field
    how = draw(st.sampled_from(("none", "move", "change", "zero") + ("pad",) * padded))
    if how == "move":
        src = draw(st.sampled_from([r for r in range(e) if counts[r]]))
        moved = draw(st.integers(1, counts[src]))
        counts[src] -= moved
        counts[draw(st.sampled_from([r for r in range(e) if r != src]))] += moved
    elif how == "change":  # to any value, or by one bit
        r = draw(st.integers(0, e - 1))
        flip = st.integers(0, field - 1).map(lambda b: counts[r] ^ 1 << b)
        counts[r] = draw(st.one_of(flip, st.integers(0, top).filter(lambda c: c != counts[r])))
    elif how == "zero":  # a zero field, to any value it holds
        counts[draw(st.integers(e, 2 * e - 1))] = draw(st.integers(1, top))
    packed = [sum(c << field * r for r, c in enumerate(counts)) for counts in slots]
    if how == "pad":  # one bit past the 2e fields
        packed[at] |= 1 << draw(st.integers(2 * e * field, 8 * slot - 1))
    chunks = (packed[i : i + period] for i in range(0, len(packed), period))
    rows = [sum(v << 8 * slot * k for k, v in enumerate(chunk)) for chunk in chunks]
    return rows, period, e, field, size


@settings(max_examples=300, deadline=None)
@given(final_rows())
@example(([4 | 0x80 << 8 * 31], 1, 2, 64, 4))  # T_2 in fields of 64 bits but for the top bit of the slot
@example(([int.from_bytes(bytes([4, 0, 0, 0x80]), "little")], 1, 2, 8, 4))  # likewise in fields of 8 bits
@example(([int.from_bytes(bytes([2, 2, 0, 0, 4, 0, 0, 0]), "little")], 2, 2, 8, 4))  # T_1 then T_2
@example(([5], 1, 2, 8, 4))  # T_2 but for the lowest bit of the slot
@example(([4 | 1 << 15], 1, 2, 3, 4))  # T_2 in fields of 3 bits, 12 of 16 bits, but for the top padding bit
@example(([4 | 1 << 12], 1, 2, 3, 4))  # likewise, but for the lowest padding bit
@example(([2 | 2 << 3 | 4 << 16], 2, 2, 3, 4))  # T_1 then T_2 in fields of 3 bits
def test_the_whole_row_read_agrees_with_the_check_of_each_slot(case):
    rows, period, e, field, size = case
    slot = -(-2 * e * field // 8)  # bytes
    expected, refusal = [], None
    for r, row in enumerate(rows):
        for k in range(period):
            tally = row >> 8 * slot * k & ((1 << 8 * slot) - 1)
            try:
                coeff = _byte_coefficient(tally, e, field, size)
            except IntegrityError as error:
                refusal = str(error)
                break
            if tally >> e * field:  # a zero field or a padding bit
                refusal = "zero fields"
                break
            if coeff:
                expected.append(r * period + k)
        if refusal:
            break
    if refusal:
        with pytest.raises(IntegrityError) as error:
            _read_tallies(field, rows, period, size, e)
        assert refusal in str(error.value)
    else:
        out = _read_tallies(field, rows, period, size, e)
        assert out == indicator_of(expected, period * len(rows))


def _gf(p, k):
    """GF(p^k) on the first monic modulus, low to high, that make_ring accepts."""
    for tail in product(range(p), repeat=k):
        try:
            return make_ring("GF", p=p, k=k, modulus=[*tail, 1])
        except ValueError:
            pass
    raise AssertionError(f"no irreducible modulus of degree {k} over GF({p})")


# every ring of the catalog kinds with at most 64 elements
SPLIT_RINGS = {
    **{f"Z{m}": make_ring("Zm", m=m) for m in range(2, 65)},
    **{
        f"GF{p}^{k}": _gf(p, k)
        for p in range(2, 65)
        if all(p % d for d in range(2, p))
        for k in range(1, 7)
        if p**k <= 64
    },
    "F2u": make_ring("F2u"),
    "F2v": make_ring("F2v"),
}


def _exponent_maps():
    """(ring name, exponent map): each ring's catalog character, then other additive maps.

    The maps d·a on Z16 and Z64 are not generating; the constant coefficient
    on GF(2^6) is, as is every nonzero additive map on a field.
    """
    for name, ring in SPLIT_RINGS.items():
        yield pytest.param(name, default_character(ring), id=name)
    for m, d in product((16, 64), (2, 8, 32)):
        yield pytest.param(f"Z{m}", tuple(d * a % m for a in range(m)), id=f"Z{m}-{d}a")
    # the constant coefficient: additive and generating, but not the catalog's top digit
    yield pytest.param("GF2^6", tuple(a & 1 for a in range(64)), id="GF2^6-constant-coefficient")


def _shifts(ring, exponents, field):  # field in bits
    return [[exponents[x] * field for x in row] for row in ring.mul_table]


@pytest.mark.parametrize("name", sorted(SPLIT_RINGS))
def test_the_subgroup_is_one_and_its_cosets_partition_the_ring(name):
    ring = SPLIT_RINGS[name]
    q, add = ring.q, ring.add_table
    group = _subgroup(add)
    assert group[0] == 0 and len(group) ** 2 <= q
    assert {add[a][b] for a in group for b in group} == set(group)
    split = _coset_split(add, _shifts(ring, default_character(ring), 8), group)
    if len(group) == 1:
        assert split.cosets is None and split.coset_of == tuple(range(q))
        return
    cosets = [coset(range(q)) for coset in split.cosets]
    assert sorted(a for coset in cosets for a in coset) == list(range(q))
    for i, coset in enumerate(cosets):
        assert set(coset) == {add[coset[0]][h] for h in group}
        assert all(split.coset_of[a] == i for a in coset)


def test_the_split_pays_on_the_big_rings_and_on_no_ring_of_at_most_9_elements():
    sizes = {}
    for name, ring in SPLIT_RINGS.items():
        group = _subgroup(ring.add_table)
        split = _coset_split(ring.add_table, _shifts(ring, default_character(ring), 8), group)
        if split.pays():  # on a full line
            sizes[name] = len(group)
    assert not [name for name in sizes if SPLIT_RINGS[name].q <= 9]
    big = ("Z16", "Z27", "Z32", "Z64", "GF7^2", "GF2^6")
    assert [sizes.get(name) for name in big] == [4, 3, 4, 8, 7, 8]


@pytest.mark.parametrize("name, exponents", list(_exponent_maps()))
def test_the_split_step_matches_the_dense_oracle(name, exponents):
    ring = SPLIT_RINGS[name]
    q, e, add = ring.q, ring.exponent, ring.add_table
    field, slots = 14, 3  # every count below 4: a field sums at most q e of them, under 2^14
    half, slot = field * e, -(-2 * field * e // 8)  # bits; bytes, as the kernel pads a slot
    low = int.from_bytes(((1 << half) - 1).to_bytes(slot, "little") * slots, "little")
    shifts = _shifts(ring, exponents, field)
    splits = [_coset_split(add, shifts, [0]), _coset_split(add, shifts, _subgroup(add))]
    oracle = partial(dense_line_step, shifts=shifts, low=low, half=half)
    rng = random.Random(name)

    def value():  # a packed value, zero one time in four
        if rng.randrange(4) == 0:
            return 0
        counts = [rng.randrange(4) for _ in range(e)]
        packed = sum(c << (field * r) for r, c in enumerate(counts))
        return sum(packed << (8 * slot * k) for k in range(slots))

    # nonzero columns: all, half, one, and none, when the whole pass is zero; of the q + 1
    # lines of the tallest columns three may be nonzero, as the oracle takes q^2 steps a line
    for height in (1, 2, q + 1):
        rows = rng.sample(range(height), min(height, 3))
        for live in (q, q // 2, 1, 0):
            columns = [[0] * height for _ in range(q)]
            for a in rng.sample(range(q), live):
                while not any(columns[a]):
                    for i in rows:
                        columns[a][i] = value()
            # row i of output column b is value b of line i, the rows i of every column
            lines = [oracle(list(line)) if any(line) else [0] * q for line in zip(*columns)]
            expected = [line[b] for b in range(q) for line in lines]
            fed = [column[0] for column in columns] if height == 1 else columns  # one row: the column is that row
            for split in splits:  # a split step empties the list it reads
                assert _ring_step(list(fed), height, low, half, split) == expected


ADDITIVITY_RINGS = {name: SPLIT_RINGS[name] for name in ("Z6", "Z16", "Z64", "GF2^3", "GF2^6")}


@st.composite
def additive_maps(draw, rings):
    """(ring, map): an additive map on one of the rings, the zero map among them."""
    ring = rings[draw(st.sampled_from(sorted(rings)))]
    q, e = ring.q, ring.exponent
    if ring.kind == "Zm":
        d = draw(st.integers(0, e - 1))
        return ring, tuple(d * a % e for a in range(q))
    # Z_p[x]/(f), e = p: a weighted sum of the base-p digits of the index, mod p
    p, k = e, next(k for k in range(1, 7) if e**k == q)
    weights = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
    return ring, tuple(sum(w * (a // p**j % p) for j, w in enumerate(weights)) % p for a in range(q))


@st.composite
def exponent_maps(draw):
    """(ring, map): a random map, or an additive one, perhaps off at one element; eps(0) = 0."""
    if draw(st.booleans()):
        ring = ADDITIVITY_RINGS[draw(st.sampled_from(sorted(ADDITIVITY_RINGS)))]
        q, e = ring.q, ring.exponent
        return ring, (0, *draw(st.lists(st.integers(0, e - 1), min_size=q - 1, max_size=q - 1)))
    ring, eps = draw(additive_maps(ADDITIVITY_RINGS))
    eps = list(eps)
    if draw(st.booleans()):
        eps[draw(st.integers(1, ring.q - 1))] = draw(st.integers(0, ring.exponent - 1))
    return ring, tuple(eps)


@settings(max_examples=300, deadline=None)
@given(exponent_maps())
def test_additivity_check_agrees_with_the_exhaustive_oracle(case):
    ring, eps = case
    if exhaustive_is_additive(ring, eps):
        check_additive(ring, eps)
    else:
        with pytest.raises(ValueError, match="exponent map violates additivity"):
            check_additive(ring, eps)


def test_additivity_check_keeps_its_shape_checks():
    z4 = make_ring("Zm", m=4)
    # a float or bool equal to the right exponent is refused too
    malformed = ((1, 1, 1, 1), (0, 1, 2), (0, 1, 2, 4), (0, -1, 2, 3))
    for eps in malformed + ((0, 1.0, 2, 3), (0, True, 2, 3), (0, 1, 2.0, 3)):
        with pytest.raises(ValueError, match="exponent map is malformed"):
            check_additive(z4, eps)
        with pytest.raises(ValueError, match="exponent map is malformed"):
            verify_generating_character(z4, eps)


AXIOM_RINGS = {
    name: {**RINGS, **BIG_RINGS}[name]
    for name in ("F2", "F4", "Z4", "F2u", "F2v", "GF8", "GF9")
    + ("Z16", "Z27", "GF49", "Z64", "GF64")
}


_IDEALS = {}


@settings(max_examples=300, deadline=None)
@given(additive_maps(AXIOM_RINGS))
def test_generating_test_agrees_with_the_ideal_oracle(case):
    ring, eps = case
    if ring not in _IDEALS:
        _IDEALS[ring] = [ideal for ideal in enumerate_ideals(ring) if len(ideal) > 1]
    kernel = {a for a in range(ring.q) if eps[a] == 0}
    generating = not any(ideal <= kernel for ideal in _IDEALS[ring])
    assert verify_generating_character(ring, eps) == generating


def _rebuild(ring, add, mul):
    """RingSpec over the given tables, or None where construction refuses them."""
    try:
        return RingSpec(ring.kind, ring.q, add, mul, ring.names, ring.params)
    except ValueError:
        return None


@st.composite
def corrupted_tables(draw):
    """(ring, add, mul): a ring's tables with 1-3 entries overwritten.

    Each edit picks a table, a cell (a, b) and a value; a symmetric edit
    also writes (b, a), so the table stays commutative and the fault has to
    be found by the associativity or distributivity checks.
    """
    ring = AXIOM_RINGS[draw(st.sampled_from(sorted(AXIOM_RINGS)))]
    tables = [[list(row) for row in ring.add_table], [list(row) for row in ring.mul_table]]
    element = st.integers(0, ring.q - 1)
    for _ in range(draw(st.integers(1, 3))):
        table = tables[draw(st.integers(0, 1))]
        a, b, value = draw(element), draw(element), draw(element)
        table[a][b] = value
        if draw(st.booleans()):
            table[b][a] = value
    return ring, *tables


@settings(max_examples=300, deadline=None)
@given(corrupted_tables())
def test_axiom_check_agrees_with_the_exhaustive_oracle(case):
    ring, add, mul = case
    assert (_rebuild(ring, add, mul) is not None) == exhaustive_ring_axioms(add, mul)


def _bilinear_mul(p, basis_product):
    """Multiplication on F_p^k (base-p digits of the index = coordinates) extended bilinearly."""
    k = len(basis_product)
    digits = [[a // p**i % p for i in range(k)] for a in range(p**k)]
    rows = []
    for x in digits:
        row = []
        for y in digits:
            coords = [0] * k
            for i, j in product(range(k), repeat=2):
                if x[i] and y[j]:
                    for t, z in enumerate(digits[basis_product[i][j]]):
                        coords[t] += x[i] * y[j] * z
            row.append(sum(c % p * p**t for t, c in enumerate(coords)))
        rows.append(row)
    return rows


def _edited(table, *edits):
    rows = [list(row) for row in table]
    for a, b, value in edits:
        rows[a][b] = value
    return rows


def _relabelled(mul, sigma):
    """The multiplication a·b = sigma(sigma^-1(a) sigma^-1(b)): the monoid carried over by sigma."""
    inverse = [0] * len(sigma)
    for a, s in enumerate(sigma):
        inverse[s] = a
    return [[sigma[mul[inverse[a]][inverse[b]]] for b in range(len(mul))] for a in range(len(mul))]


def _powers_of_x(mul):
    """1, x, x^2, ... up to the last power before 1, x being index 2 of a field of characteristic 2."""
    powers = [1]
    while mul[powers[-1]][2] != 1:
        powers.append(mul[powers[-1]][2])
    return powers


def _coset_swapped(ring, y, z):
    """The multiplication of a field relabelled by the involution that swaps y·x^i and z·x^i.

    x is index 2, and y and z lie in different cosets of the powers of x,
    neither of them the powers themselves.  The relabelling commutes with
    multiplication by x, so each power of x multiplies as before and
    distributes; the monoid stays associative, but y and z need not
    distribute.
    """
    mul = ring.mul_table
    sigma = list(range(ring.q))
    for power in _powers_of_x(mul):
        u, v = mul[y][power], mul[z][power]
        sigma[u], sigma[v] = v, u
    return _relabelled(mul, sigma)


Z4, GF8 = RINGS["Z4"], RINGS["GF8"]
Z16, GF64 = BIG_RINGS["Z16"], BIG_RINGS["GF64"]
# GF(16) over x^4 + x^3 + x^2 + x + 1, where x has order 5: its multiplicative
# generators (0, x, x + 1) are fewer than its additive ones (1, x, x^2, x^3),
# and x + 1 is not among the additive ones
GF16_X5 = make_ring("GF", p=2, k=4, modulus=[1, 1, 1, 1, 1])
XOR8 = [[a ^ b for b in range(8)] for a in range(8)]


@pytest.mark.parametrize(
    "ring, add, mul, message",
    [
        # identities broken only at elements other than 0 and 1
        (Z4, _edited(Z4.add_table, (0, 2, 3), (2, 0, 3)), Z4.mul_table, "index 0 is not"),
        (Z4, Z4.add_table, _edited(Z4.mul_table, (1, 2, 3), (2, 1, 3)), "index 1 is not"),
        (GF64, _edited(GF64.add_table, (37, 0, 5)), GF64.mul_table, "index 0 is not"),
        (GF64, GF64.add_table, _edited(GF64.mul_table, (1, 37, 5)), "index 1 is not"),
        # one asymmetric cell between elements other than 0 and 1
        (Z4, Z4.add_table, _edited(Z4.mul_table, (2, 3, 0)), "not commutative"),
        (Z16, _edited(Z16.add_table, (5, 9, 13)), Z16.mul_table, "not commutative"),
        # a commutative magma with identity and inverses: (1+1)+2 = 2, 1+(1+2) = 1
        (
            make_ring("Zm", m=3),
            [[0, 1, 2], [1, 0, 0], [2, 0, 0]],
            make_ring("Zm", m=3).mul_table,
            "addition is not associative",
        ),
        # F2^3 with basis 1, u, v, u^2 = v^2 = 0 and uv = 1: (uu)v = 0 but u(uv) = u;
        # bilinear, so it distributes
        (
            RINGS["GF8"],
            XOR8,
            _bilinear_mul(2, [[1, 2, 4], [2, 0, 1], [4, 1, 0]]),
            "multiplication is not associative",
        ),
        # the additive group of Z4 with the multiplicative monoid of GF(4):
        # with a = index 2, a(1+1) = a·a = index 3, but a·1 + a·1 = 2 + 2 = 0 in Z4
        (Z4, Z4.add_table, RINGS["F4"].mul_table, "multiplication does not distribute"),
        # the multiplicative route, fewer multiplicative generators than additive
        # ones: (x+1)^2 set to 0 in GF(8) and GF(64), whose multiplicative
        # generators stay 0 and x; associativity is checked before distributivity
        (GF8, GF8.add_table, _edited(GF8.mul_table, (3, 3, 0)), "multiplication is not associative"),
        (GF64, GF64.add_table, _edited(GF64.mul_table, (3, 3, 0)), "multiplication is not associative"),
        # an associative monoid on which the additive generators distribute
        # and the multiplicative generator x + 1 does not
        (GF16_X5, GF16_X5.add_table, _coset_swapped(GF16_X5, 3, 5), "multiplication does not distribute"),
    ],
)
def test_each_axiom_message_is_reached(ring, add, mul, message):
    assert not exhaustive_ring_axioms(add, mul)
    with pytest.raises(ValueError, match=message):
        RingSpec(ring.kind, len(add), add, mul, ring.names[: len(add)], ring.params)


# each catalog ring but F2, which has no cell away from indices 0 and 1,
# and rings of 8-16 elements on both routes of the check
SYMMETRIC_EDIT_RINGS = {
    **{name: RINGS[name] for name in ("F3", "F4", "Z4", "F2u", "F2v", "Z8", "Z9", "GF8", "GF9")},
    "Z16": Z16,
    "GF16": GF16_X5,
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC_EDIT_RINGS))
def test_a_symmetric_edit_away_from_0_and_1_is_refused_exactly_when_the_oracle_refuses_it(name):
    ring = SYMMETRIC_EDIT_RINGS[name]
    q = ring.q
    rng = random.Random(f"symmetric-edit/{name}")
    verdicts = set()
    for _ in range(40):
        tables = [ring.add_table, ring.mul_table]
        which, a, b, value = rng.randrange(2), rng.randrange(2, q), rng.randrange(2, q), rng.randrange(q)
        tables[which] = _edited(tables[which], (a, b, value), (b, a, value))
        expected = exhaustive_ring_axioms(*tables)
        assert (_rebuild(ring, *tables) is not None) == expected, (which, a, b, value)
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_axiom_check_on_every_commutative_unital_algebra_over_f2_cubed():
    # bilinear products distribute, so only associativity can fail: 512 tables,
    # among them F2[u,v]/(u^2, uv, v^2), GF(8) and non-associative ones
    verdicts = set()
    for uu, uv, vv in product(range(8), repeat=3):
        mul = _bilinear_mul(2, [[1, 2, 4], [2, uu, uv], [4, uv, vv]])
        expected = exhaustive_ring_axioms(XOR8, mul)
        assert (_rebuild(RINGS["GF8"], XOR8, mul) is not None) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


# x^3 + 2x + 1, whose + is that of F3^3; x^6 + x^3 + 1, where x has order 9
GF27 = make_ring("GF", p=3, k=3, modulus=[1, 2, 0, 1])
GF64_X9 = make_ring("GF", p=2, k=6, modulus=[1, 0, 0, 1, 0, 0, 1])


@st.composite
def unital_tables(draw):
    """(ring, add, mul): a ring's + with a commutative · that fixes 0 and has 1 as identity.

    Each family passes the first check on one route of the axiom check, and
    may fail the check after it:
    - a bilinear product on F3^3 distributes and need not associate: the
      additive route, where Light's test of · runs second;
    - a field's · relabelled by a permutation that fixes 0 and 1 associates
      and need not distribute: the multiplicative route;
    - a field's · relabelled by _coset_swapped associates, and the powers
      of x, which hold the additive generators, still distribute: only the
      multiplicative generators can find the fault.
    """
    family = draw(st.integers(0, 2))
    if family == 0:
        uu, uv, vv = draw(st.lists(st.integers(0, 26), min_size=3, max_size=3))
        return GF27, GF27.add_table, _bilinear_mul(3, [[1, 3, 9], [3, uu, uv], [9, uv, vv]])
    if family == 1:
        ring = draw(st.sampled_from([GF8, GF16_X5, GF64_X9]))
        sigma = [0, 1, *draw(st.permutations(range(2, ring.q)))]
        return ring, ring.add_table, _relabelled(ring.mul_table, sigma)
    ring = draw(st.sampled_from([GF16_X5, GF64_X9]))
    powers = _powers_of_x(ring.mul_table)
    y = draw(st.sampled_from([a for a in range(2, ring.q) if a not in powers]))
    coset = {ring.mul_table[y][power] for power in powers}
    z = draw(st.sampled_from([a for a in range(2, ring.q) if a not in powers and a not in coset]))
    return ring, ring.add_table, _coset_swapped(ring, y, z)


@settings(max_examples=200, deadline=None)
@given(unital_tables())
def test_axiom_check_past_the_first_check_of_each_route_agrees_with_the_oracle(case):
    ring, add, mul = case
    assert (_rebuild(ring, add, mul) is not None) == exhaustive_ring_axioms(add, mul)


@pytest.mark.parametrize(
    "p, k, modulus",
    [
        (2, 2, [1, 1, 1]),
        (2, 3, [1, 1, 0, 1]),
        (3, 2, [2, 0, 2]),  # 2x^2 + 2, scaled to x^2 + 1
        (2, 4, [1, 1, 0, 0, 1]),
        (5, 2, [1, 0, 3]),  # 3x^2 + 1, scaled to x^2 + 2
        (3, 3, [1, 2, 0, 1]),
        (2, 5, [1, 0, 1, 0, 0, 1]),
        (7, 2, [1, 0, 1]),
        (2, 6, [1, 1, 0, 0, 0, 0, 1]),
    ],
)
def test_gf_tables_match_polynomial_arithmetic(p, k, modulus):
    ring = make_ring("GF", p=p, k=k, modulus=modulus)
    assert (tuple(map(tuple, ring.add_table)), tuple(map(tuple, ring.mul_table))) == convolution_gf_tables(p, k, modulus)


def _gf_refusal(p, k, modulus):
    """The message make_ring("GF", ...) should refuse these parameters with, or None, by trial division."""
    if not all(p % d for d in range(2, p)):
        return f"{p} is not prime"
    lead = modulus[-1] % p
    if lead == 0:
        return "modulus leading coefficient vanishes mod p"
    monic = [c * pow(lead, -1, p) % p for c in modulus]
    return None if gf_is_irreducible(monic, p, k) else "modulus is reducible over GF(p)"


@pytest.mark.parametrize("p, k", [(p, k) for p in range(2, 9) for k in range(1, 7) if p**k <= 64])
def test_the_field_check_matches_trial_division_on_every_modulus(p, k):
    verdicts = set()
    for modulus in product(range(p), repeat=k + 1):
        expected = _gf_refusal(p, k, modulus)
        verdicts.add(expected)
        if expected is None:
            ring = make_ring("GF", p=p, k=k, modulus=list(modulus))
            assert ring.q == p**k and ring.params["modulus"][-1] == 1
        else:
            with pytest.raises(ValueError) as error:
                make_ring("GF", p=p, k=k, modulus=list(modulus))
            assert str(error.value) == expected, modulus
    if all(p % d for d in range(2, p)):  # a prime: both verdicts, and refusals of reducible moduli past degree 1
        assert None in verdicts and (k == 1) == ("modulus is reducible over GF(p)" not in verdicts)
