"""Property-based differential tests: each fast kernel against its brute-force oracle.

Instances range over ten rings (the six catalog rings plus GF(8), GF(9), Z8
and Z9), level sizes, generators and spotty thresholds t, with q^n kept
small enough for the full-scan oracle.  Fixed cases over rings of 16-64
elements take the byte transform to character orders e = 16-64 and to
several packed rows.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cell_complete_transform, pattern_byte_transform, scan_dual_words
from pwenum.codes import dual_code, span
from pwenum.enumerators import byte_enumerator, mspotty_enumerator, weight_spectrum
from pwenum.macwilliams import (
    _packing,
    byte_transform,
    complete_transform,
    mspotty_transform,
    verify_identity,
)
from pwenum.posets import LevelStructure
from pwenum.rings import Character, default_character, make_ring, verify_generating_character

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


def _as_cells(poly) -> dict[tuple, int]:
    return {tuple(var.data[0] for var, _ in mono): c for mono, c in poly.terms.items()}


@SETTINGS
@given(instances())
def test_dual_code_matches_scan_oracle(instance):
    ring, _, code, _ = instance
    dual = dual_code(code)
    assert list(dual.words) == scan_dual_words(code)
    assert code.size * dual.size == ring.q**code.n
    assert dual_code(dual) == code


@SETTINGS
@given(instances())
def test_complete_transform_matches_cell_oracle(instance):
    ring, levels, code, t = instance
    dual = dual_code(code)
    for primal in (code, dual):
        spectrum = weight_spectrum(primal, levels)
        poly = complete_transform(spectrum, levels, ring.q, primal.size)
        expected = cell_complete_transform(spectrum, levels.sizes, ring.q, primal.size)
        assert _as_cells(poly) == expected
    # t reaches the transform only through the spotty substitution
    spectrum = weight_spectrum(code, levels)
    spotty = mspotty_transform(spectrum, levels, t, ring.q, code.size)
    assert spotty == mspotty_enumerator(dual, levels, t)


def _as_patterns(poly) -> dict[tuple, int]:
    """{concatenated pattern: coefficient} of a byte enumerator."""
    return {sum((var.data for var, _ in mono), ()): c for mono, c in poly.terms.items()}


@SETTINGS
@given(instances())
def test_byte_transform_matches_pattern_oracle(instance):
    ring, levels, code, _ = instance
    # the smaller of C and its dual keeps the oracle's |C| q^n pairs below q^(3n/2)
    primal = min(code, dual_code(code), key=lambda c: c.size)
    poly = byte_transform(primal, levels)
    assert _as_patterns(poly) == pattern_byte_transform(primal, default_character(ring))


BIG_RINGS = {
    "Z16": make_ring("Zm", m=16),
    "Z27": make_ring("Zm", m=27),
    "Z32": make_ring("Zm", m=32),
    "Z64": make_ring("Zm", m=64),
    "GF49": make_ring("GF", p=7, k=2, modulus=[1, 0, 1]),
    "GF64": make_ring("GF", p=2, k=6, modulus=[1, 1, 0, 0, 0, 0, 1]),
}


@pytest.mark.parametrize(
    "name, sizes, generators",
    [
        ("Z16", (2, 1), [(1, 3, 5)]),
        ("Z16", (1, 1, 1), [(1, 0, 7), (0, 2, 6)]),
        ("Z27", (1, 1), [(3, 9)]),
        ("Z32", (1, 1), [(1, 5), (0, 8)]),
        ("Z64", (1, 1), [(1, 17)]),
        ("Z64", (1, 1), [(1, 0), (0, 16)]),  # |C| = 256: two-byte fields, one pattern per row
        ("GF49", (1, 1), [(1, 10)]),
        ("GF64", (2,), [(1, 33)]),
    ],
)
def test_byte_transform_matches_pattern_oracle_on_big_rings(name, sizes, generators):
    ring = BIG_RINGS[name]
    levels = LevelStructure(sizes)
    code = span(ring, levels.n, generators)
    _, m = _packing(ring.q, ring.exponent, code.size, code.n)
    assert m < code.n  # the patterns span several packed rows
    poly = byte_transform(code, levels)
    assert _as_patterns(poly) == pattern_byte_transform(code, default_character(ring))
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
    assert _as_patterns(byte_transform(code, levels, chi)) == pattern_byte_transform(code, chi)
    assert not verify_identity("byte", code, levels, chi=chi).equal


def test_byte_transform_refuses_a_non_additive_exponent_map():
    z4 = make_ring("Zm", m=4)
    code = span(z4, 2, [(1, 2)])
    with pytest.raises(ValueError, match="additivity"):
        byte_transform(code, LevelStructure((1, 1)), Character(z4, (0, 1, 3, 2)))
