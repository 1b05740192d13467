"""Property-based differential tests: each fast kernel against its brute-force oracle.

Instances range over ten rings (the six catalog rings plus GF(8), GF(9), Z8
and Z9), level sizes, generators and spotty thresholds t, with q^n kept
small enough for the full-scan oracle.  Fixed cases over rings of 16-64
elements take the byte transform to character orders e = 16-64 and to
several packed rows.  Ring construction is checked the same way: the
generator-based axiom check against the triple loop on corrupted tables,
and the recurrence-built GF tables against polynomial arithmetic.
"""

from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    cell_complete_transform,
    convolution_gf_tables,
    exhaustive_ring_axioms,
    pattern_byte_transform,
    pattern_of,
    reference_json,
    reference_poly,
    reference_text,
    scan_dual_words,
)
from pwenum.codes import dual_code, dual_indices, dual_weight_spectrum, span
from pwenum.enumerators import byte_enumerator, mspotty_enumerator, weight_spectrum
from pwenum.macwilliams import (
    KINDS,
    _layout,
    byte_transform,
    complete_transform,
    mspotty_transform,
    render,
    verify_identity,
)
from pwenum.posets import LevelStructure
from pwenum.rings import (
    Character,
    RingSpec,
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
def instances(draw):
    """(ring, levels, code, t) with q^n <= AMBIENT_LIMIT and 1-3 levels of size 1-3."""
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
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
    assert spectrum == _level_weights(scan_dual_words(code), levels)


@SETTINGS
@given(instances())
def test_complete_transform_matches_cell_oracle(instance):
    ring, levels, code, t = instance
    dual = dual_code(code)
    for primal in (code, dual):
        spectrum = weight_spectrum(primal, levels)
        poly = complete_transform(spectrum, levels, ring.q, primal.size)
        expected = cell_complete_transform(spectrum, levels.sizes, ring.q, primal.size)
        assert poly == expected
    # t reaches the transform only through the spotty substitution
    spectrum = weight_spectrum(code, levels)
    spotty = mspotty_transform(spectrum, levels, t, ring.q, code.size)
    assert spotty == mspotty_enumerator(dual, levels, t)


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
    """(kind, counts, q, levels): positive counts on keys of one kind, q up to 64."""
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


@pytest.mark.parametrize(
    "name, sizes, generators, m, transposed",
    [
        ("Z16", (2, 1), [(1, 3, 5)], 2, True),
        ("Z16", (1, 1, 1), [(1, 0, 7), (0, 2, 6)], 2, True),  # odd n, m = floor(n/2) + 1
        ("Z27", (1, 1), [(3, 9)], 1, True),
        ("Z32", (1, 1), [(1, 5), (0, 8)], 1, True),
        ("Z64", (1, 1), [(1, 17)], 1, True),
        ("Z64", (1, 1), [(1, 0), (0, 16)], 0, True),  # |C| = 256: two-byte fields
        ("GF49", (1, 1), [(1, 10)], 1, True),
        ("GF64", (2,), [(1, 33)], 1, True),
        ("GF9", (2, 2), [(1, 2, 0, 4), (0, 3, 1, 1)], 3, True),  # m = floor(n/2) + 1
        ("Z8", (1, 1, 1, 1, 1), [(1, 2, 3, 4, 5), (0, 4, 0, 2, 6)], 3, True),  # odd n
        ("Z8", (1, 1, 1), [(1, 3, 6)], 3, False),  # m = floor(n/2) + 2, one row
        ("Z4", (2, 2, 2), [(1, 0, 2, 3, 1, 1), (0, 1, 1, 0, 2, 3)], 5, False),  # m = floor(n/2) + 2
        ("Z64", (1,), [(2,)], 1, False),  # n = 1
    ],
)
def test_byte_transform_matches_pattern_oracle_on_big_rings(
    name, sizes, generators, m, transposed
):
    ring = {**RINGS, **BIG_RINGS}[name]
    levels = LevelStructure(sizes)
    code = span(ring, levels.n, generators)
    assert _layout(ring.q, ring.exponent, code.size, code.n)[1:] == (m, transposed)
    poly = byte_transform(code, levels)
    assert _as_patterns(poly, ring.q, code.n) == pattern_byte_transform(code, default_character(ring))
    assert poly == byte_enumerator(dual_code(code), levels)


@pytest.mark.parametrize(
    "name, exponents, generators",
    [
        ("Z4", (0, 2, 0, 2), [(1, 2)]),
        ("Z16", tuple(2 * a % 16 for a in range(16)), [(1, 3)]),
    ],
)
def test_non_generating_character_fails_as_the_oracle_does(name, exponents, generators):
    ring = make_ring("Zm", m=int(name[1:]))
    chi = Character(ring, exponents)
    assert not verify_generating_character(ring, chi)
    code = span(ring, 2, generators)
    levels = LevelStructure((1, 1))
    # an additive character sums to |C| or 0 over C, so every division is exact
    # and the failure shows as extra patterns and a DIFFER report
    assert _as_patterns(byte_transform(code, levels, chi), ring.q, 2) == pattern_byte_transform(code, chi)
    assert not verify_identity("byte", code, levels, chi=chi).equal


def test_byte_transform_refuses_a_non_additive_exponent_map():
    z4 = make_ring("Zm", m=4)
    code = span(z4, 2, [(1, 2)])
    with pytest.raises(ValueError, match="additivity"):
        byte_transform(code, LevelStructure((1, 1)), Character(z4, (0, 1, 3, 2)))


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
