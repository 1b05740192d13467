"""Property-based differential tests: each fast kernel against its brute-force oracle.

Instances range over ten rings (the six catalog rings plus GF(8), GF(9), Z8
and Z9), level sizes, generators and spotty thresholds t, with q^n kept
small enough for the full-scan oracle.  Fixed cases over rings of 16-64
elements take the byte transform to character orders e = 16-64 and to
several packed rows; cases over Z6, Z10 and Z12 take it to orders with two
prime factors.  Its integer check of each tally is checked against the
reduction modulo the cyclotomic polynomial on random tallies.  The byte
transform's step through an additive subgroup is checked against the
dense q x q product on every ring of at most 64 elements.  Ring
construction is checked the same way: the generator-based axiom and
additivity checks against the exhaustive loops, and the
recurrence-built GF tables against polynomial arithmetic.
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
    exhaustive_is_additive,
    exhaustive_ring_axioms,
    hierarchical_poset,
    keyed,
    level_bounds,
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
from pwenum.codes import dual_code, dual_indices, dual_weight_spectrum, span
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
    _ring_step,
    _subgroup,
    byte_transform,
    complete_transform,
    krawtchouk_contraction,
    mspotty_transform,
    render,
    verify_identity,
)
from pwenum.posets import LevelStructure, Poset, poset_from_json_obj
from pwenum.rings import (
    Character,
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
    assert dual_indices(code) == [sum(x * p for x, p in zip(w, places)) for w in words]
    dual = dual_code(code)
    assert list(dual.words) == words
    assert code.size * dual.size == ring.q**code.n
    assert dual_code(dual) == code


@SETTINGS
@given(instances())
@example(_fixed("Z9", (1,), [(3,)]))  # n = 1: an empty left half
@example(_fixed("GF9", (2, 1), [(1, 5, 7), (0, 3, 3)]))  # odd n
@example(_fixed("Z4", (1, 3, 1), [(1, 3, 2, 1, 0), (0, 2, 1, 3, 3)]))  # level 2 straddles the cut
def test_index_storage_matches_span_and_spectrum_oracles(instance):
    ring, levels, code, _ = instance
    words = span_words(ring, code.n, code.generators)
    places = [ring.q ** (code.n - 1 - i) for i in range(code.n)]
    assert code.indices == tuple(sum(x * p for x, p in zip(w, places)) for w in words)
    assert code.words == tuple(words)
    for held in (code, dual_code(code)):
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


@SETTINGS
@given(instances(), st.sampled_from(["leveled", "chain", "antichain"]))
@example(_fixed("Z4", (3,), []), "chain")  # k = 0: the dual is all of R^n
@example(_fixed("F2u", (1, 2), [(1, 2, 3)]), "leveled")
@example(_fixed("GF9", (2, 1), [(1, 5, 7)]), "antichain")
def test_the_poset_kind_folds_the_level_spectrum_on_a_hierarchical_poset(instance, shape):
    # given by covers, a hierarchy is read as its LevelStructure and folds the per-level weights
    _, levels, code, _ = instance
    sizes = {"leveled": levels.sizes, "chain": (1,) * levels.n, "antichain": (levels.n,)}[shape]
    covers, entry = hierarchical_poset(sizes), KINDS["poset"]
    assert _cover_poset(levels.n, covers) == LevelStructure(sizes)
    assert entry.direct(code, LevelStructure(sizes)) == cover_poset_enumerator(code.words, covers)
    dual = cover_poset_enumerator(dual_code(code).words, covers)
    assert entry.dual(code, LevelStructure(sizes), None) == dual


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
    entry = KINDS["poset"]
    assert entry.direct(code, shape) == cover_poset_enumerator(code.words, covers)
    assert entry.dual(code, shape, None) == cover_poset_enumerator(scan_dual_words(code), covers)


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
    a lone key elsewhere divides exactly but turns negative.
    """
    q = draw(st.sampled_from([2, 3, 4, 9, 64]))
    levels = LevelStructure(draw(st.lists(st.integers(1, 6), min_size=1, max_size=4)))
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


def _as_patterns(counts, q, n) -> dict[tuple, int]:
    """{pattern: coefficient} of a byte enumerator's {pattern index: coefficient}."""
    return {tuple(pattern_of(i, q, n)): c for i, c in counts.items()}


@SETTINGS
@given(instances())
def test_byte_transform_matches_pattern_oracle(instance):
    ring, levels, code, _ = instance
    # the smaller of C and its dual keeps the oracle's |C| q^n pairs below q^(3n/2)
    primal = min(code, dual_code(code), key=lambda c: c.size)
    poly = byte_transform(primal, levels)
    assert _as_patterns(poly, ring.q, code.n) == pattern_byte_transform(primal, default_character(ring))


@st.composite
def count_dicts(draw):
    """(kind, counts, q, levels): positive counts on keys of one kind, q up to 64.

    A weight kind's keys are weight tuples here, for the reference renderer.
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
    counts = draw(st.dictionaries(key, st.integers(1, 10**6), max_size=12))
    return kind, counts, q, levels


@settings(max_examples=300, deadline=None)
@given(count_dicts())
@example(("byte", {1: 1, 11 * 64 + 3: 2, 64**2 - 1: 5}, 64, LevelStructure((1, 2))))  # 1,11 vs 03
@example(("level", {(0, 1): 1, (1, 0): 1, (0, 2): 3, (1, 1): 1, (0, 0): 1}, 2, LevelStructure((2, 2))))
@example(("complete", {}, 2, LevelStructure((1,))))
def test_render_matches_the_reference_renderer(case):
    # the polynomial type's order and spelling: (level, kind, data) variables, sorted monomials
    kind, counts, q, levels = case
    poly = reference_poly(kind, counts, q, levels)
    if kind in ("complete", "level", "mspotty"):
        counts = keyed(levels.sizes, counts)
    assert render(kind, counts, q, levels) == reference_text(poly)
    assert render(kind, counts, q, levels, json=True) == reference_json(poly)


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
    assert list(poly) == sorted(poly)  # keys strictly increasing: a dict's keys are distinct
    assert _as_patterns(poly, ring.q, code.n) == pattern_byte_transform(code, default_character(ring))
    assert poly == byte_enumerator(dual_code(code), levels)


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
    chi = Character(ring, exponents)
    assert not verify_generating_character(ring, chi)
    monkeypatch.setattr("pwenum.macwilliams.default_character", lambda ring: chi)
    code = span(ring, 2, generators)
    levels = LevelStructure((1, 1))
    # an additive character sums to |C| or 0 over C, so every division is exact
    # and the failure shows as extra patterns next to the dual's indicator
    poly = byte_transform(code, levels)
    assert _as_patterns(poly, ring.q, 2) == pattern_byte_transform(code, chi)
    assert poly != dict.fromkeys(dual_indices(code), 1)


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
    tally = b"".join(x.to_bytes(2, "little") for x in counts)
    try:
        coeff = _byte_coefficient(tally, e, 2, size)
    except IntegrityError:
        return
    assert coeff == cyclotomic_coefficient(counts, size)


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
    """(ring name, exponent map): each ring's catalog character, then non-generating maps."""
    for name, ring in SPLIT_RINGS.items():
        yield pytest.param(name, default_character(ring).exponents, id=name)
    for m, d in product((16, 64), (2, 8, 32)):
        yield pytest.param(f"Z{m}", tuple(d * a % m for a in range(m)), id=f"Z{m}-{d}a")
    # the constant coefficient: additive, but not the trace
    yield pytest.param("GF2^6", tuple(a & 1 for a in range(64)), id="GF2^6-constant-coefficient")


def _shifts(ring, exponents, field):
    return [[exponents[x] * 8 * field for x in row] for row in ring.mul_table]


@pytest.mark.parametrize("name", sorted(SPLIT_RINGS))
def test_the_subgroup_is_one_and_its_cosets_partition_the_ring(name):
    ring = SPLIT_RINGS[name]
    q, add = ring.q, ring.add_table
    group = _subgroup(add)
    assert group[0] == 0 and len(group) ** 2 <= q
    assert {add[a][b] for a in group for b in group} == set(group)
    split = _coset_split(add, _shifts(ring, default_character(ring).exponents, 1), group)
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
        split = _coset_split(ring.add_table, _shifts(ring, default_character(ring).exponents, 1), group)
        if split.pays(ring.q, ring.q // len(group)):  # on a full line
            sizes[name] = len(group)
    assert not [name for name in sizes if SPLIT_RINGS[name].q <= 9]
    big = ("Z16", "Z27", "Z32", "Z64", "GF7^2", "GF2^6")
    assert [sizes.get(name) for name in big] == [4, 3, 4, 8, 7, 8]


@pytest.mark.parametrize("name, exponents", list(_exponent_maps()))
def test_the_split_step_matches_the_dense_oracle(name, exponents):
    ring = SPLIT_RINGS[name]
    q, e, add = ring.q, ring.exponent, ring.add_table
    field, slots = 2, 3  # every count below 4: a field sums at most q e of them, under 2^16
    half = 8 * field * e
    low = int.from_bytes((b"\xff" * (half // 8) + bytes(half // 8)) * slots, "little")
    shifts = _shifts(ring, exponents, field)
    splits = [_coset_split(add, shifts, [0]), _coset_split(add, shifts, _subgroup(add))]
    oracle = partial(dense_line_step, shifts=shifts, low=low, half=half)
    rng = random.Random(name)

    def value():  # a packed value, zero one time in four
        if rng.randrange(4) == 0:
            return 0
        counts = [rng.randrange(4) for _ in range(e)]
        slot = sum(c << (8 * field * r) for r, c in enumerate(counts))
        return sum(slot << (2 * half * k) for k in range(slots))

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
def exponent_maps(draw):
    """(ring, map): a random map, or an additive one, perhaps off at one element; eps(0) = 0."""
    ring = ADDITIVITY_RINGS[draw(st.sampled_from(sorted(ADDITIVITY_RINGS)))]
    q, e = ring.q, ring.exponent
    if draw(st.booleans()):
        return ring, (0, *draw(st.lists(st.integers(0, e - 1), min_size=q - 1, max_size=q - 1)))
    if ring.kind == "Zm":
        d = draw(st.integers(0, e - 1))
        eps = [d * a % e for a in range(q)]
    else:  # a weighted sum of the base-p digits of the index, mod p
        p, k = ring.params["p"], ring.params["k"]
        weights = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
        eps = [sum(w * (a // p**j % p) for j, w in enumerate(weights)) % p for a in range(q)]
    if draw(st.booleans()):
        eps[draw(st.integers(1, q - 1))] = draw(st.integers(0, e - 1))
    return ring, tuple(eps)


@settings(max_examples=300, deadline=None)
@given(exponent_maps())
def test_additivity_check_agrees_with_the_exhaustive_oracle(case):
    ring, eps = case
    if exhaustive_is_additive(ring, eps):
        check_additive(ring, Character(ring, eps))
    else:
        with pytest.raises(ValueError, match="exponent map violates additivity"):
            check_additive(ring, Character(ring, eps))


def test_additivity_check_keeps_its_shape_checks():
    z4 = make_ring("Zm", m=4)
    for eps in ((1, 1, 1, 1), (0, 1, 2), (0, 1, 2, 4), (0, -1, 2, 3)):
        with pytest.raises(ValueError, match="exponent map is malformed"):
            check_additive(z4, Character(z4, eps))


AXIOM_RINGS = {
    name: {**RINGS, **BIG_RINGS}[name]
    for name in ("F2", "F4", "Z4", "F2u", "F2v", "GF8", "GF9")
    + ("Z16", "Z27", "GF49", "Z64", "GF64")
}


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


def _bilinear_mul(q, basis_product):
    """Multiplication on F2^k (index bits = coordinates) extended bilinearly."""
    bits = q.bit_length() - 1
    rows = []
    for a in range(q):
        row = []
        for b in range(q):
            acc = 0
            for i in range(bits):
                for j in range(bits):
                    if a >> i & 1 and b >> j & 1:
                        acc ^= basis_product[i][j]
            row.append(acc)
        rows.append(row)
    return rows


def _edited(table, *edits):
    rows = [list(row) for row in table]
    for a, b, value in edits:
        rows[a][b] = value
    return rows


Z4 = RINGS["Z4"]
Z16, GF64 = BIG_RINGS["Z16"], BIG_RINGS["GF64"]
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
            _bilinear_mul(8, [[1, 2, 4], [2, 0, 1], [4, 1, 0]]),
            "multiplication is not associative",
        ),
        # the additive group of Z4 with the multiplicative monoid of GF(4):
        # with a = index 2, a(1+1) = a·a = index 3, but a·1 + a·1 = 2 + 2 = 0 in Z4
        (Z4, Z4.add_table, RINGS["F4"].mul_table, "multiplication does not distribute"),
    ],
)
def test_each_axiom_message_is_reached(ring, add, mul, message):
    assert not exhaustive_ring_axioms(add, mul)
    with pytest.raises(ValueError, match=message):
        RingSpec(ring.kind, len(add), add, mul, ring.names[: len(add)], ring.params)


def test_axiom_check_on_every_commutative_unital_algebra_over_f2_cubed():
    # bilinear products distribute, so only associativity can fail: 512 tables,
    # among them F2[u,v]/(u^2, uv, v^2), GF(8) and non-associative ones
    verdicts = set()
    for uu, uv, vv in product(range(8), repeat=3):
        mul = _bilinear_mul(8, [[1, 2, 4], [2, uu, uv], [4, uv, vv]])
        expected = exhaustive_ring_axioms(XOR8, mul)
        assert (_rebuild(RINGS["GF8"], XOR8, mul) is not None) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


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
    assert (ring.add_table, ring.mul_table) == convolution_gf_tables(p, k, modulus)
