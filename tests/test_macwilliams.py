import random
from itertools import product

import pytest

from oracles import hadamard_check, substitute
from pwenum.codes import dual_code, span
from pwenum.cyclotomic import CycInt
from pwenum.enumerators import (
    byte_enumerator,
    complete_level_enumerator,
    weight_spectrum,
)
from pwenum.errors import IntegrityError
from pwenum.macwilliams import (
    byte_transform,
    complete_transform,
    krawtchouk_level,
    level_transform,
    mspotty_transform,
    render,
    verify_identity,
)
from pwenum.posets import LevelStructure
from pwenum.rings import Character, default_character, make_ring

F2 = make_ring("Zm", m=2)
F3 = make_ring("Zm", m=3)
Z4 = make_ring("Zm", m=4)
F4 = make_ring("GF", p=2, k=2, modulus=[1, 1, 1])
CATALOG = (F2, F3, F4, Z4, make_ring("F2u"), make_ring("F2v"))

EX_CODE = span(F2, 4, [(1, 0, 1, 0), (0, 1, 1, 1)])
EX_LEVELS = LevelStructure((2, 1, 1))


def test_krawtchouk_values():
    assert krawtchouk_level(2, 0, 1, 2) == 2
    assert krawtchouk_level(2, 1, 1, 2) == 0
    for n in range(4):
        for l in range(n + 1):
            assert krawtchouk_level(n, l, 0, 5) == 1
    with pytest.raises(ValueError):
        krawtchouk_level(2, 3, 1, 2)
    with pytest.raises(ValueError):
        krawtchouk_level(2, 0, 1, 1)


def test_krawtchouk_matches_character_sum():
    # independent oracle: sum chi(<u, v>) over words v of fixed Hamming weight
    rng = random.Random(17)
    for ring in (F2, F3, F4, Z4):
        chi = default_character(ring)
        e = ring.exponent
        for n in (1, 2, 3):
            for _ in range(4):
                u = tuple(rng.randrange(ring.q) for _ in range(n))
                l = sum(1 for x in u if x)
                for p in range(n + 1):
                    total = CycInt(e)
                    for v in product(range(ring.q), repeat=n):
                        if sum(1 for x in v if x) != p:
                            continue
                        acc = 0
                        for a, b in zip(u, v):
                            acc = ring.add_table[acc][ring.mul_table[a][b]]
                        total = total + chi.value(acc)
                    assert total == krawtchouk_level(n, l, p, ring.q)


def test_byte_transform_reproduces_dual_enumerator():
    transformed = byte_transform(EX_CODE, EX_LEVELS)
    assert transformed == byte_enumerator(dual_code(EX_CODE), EX_LEVELS)
    assert render("byte", transformed, 2, EX_LEVELS) == (
        "z_{1:00}z_{2:0}z_{3:0} + z_{1:01}z_{2:0}z_{3:1} + "
        "z_{1:10}z_{2:1}z_{3:1} + z_{1:11}z_{2:1}z_{3:0}"
    )


def test_byte_transform_of_zero_code_is_full_space():
    zero = span(F2, 3, [])
    levels = LevelStructure((2, 1))
    poly = byte_transform(zero, levels)
    assert len(poly) == 8  # every pattern combination, coefficient one
    assert sum(poly.values()) == 8
    assert poly == byte_enumerator(dual_code(zero), levels)


def test_complete_transform_example():
    spectrum = weight_spectrum(EX_CODE, EX_LEVELS)
    poly = complete_transform(spectrum, EX_LEVELS, F2.q, EX_CODE.size)
    assert poly == complete_level_enumerator(dual_code(EX_CODE), EX_LEVELS)


def test_complete_transform_of_zero_code():
    levels = LevelStructure((2,))
    poly = complete_transform({(0,): 1}, levels, 3, 1)
    # dual of the zero code is the full space: binomial counts times (q-1)^p
    assert render("complete", poly) == "z_{1:0} + 4z_{1:1} + 4z_{1:2}"


def test_complete_transform_validates_spectrum():
    with pytest.raises(ValueError):
        complete_transform({(5, 0, 0): 1}, EX_LEVELS, 2, 1)
    with pytest.raises(ValueError):
        complete_transform({(0, 0, 0): 1}, EX_LEVELS, 2, 2)


def test_level_transform_examples():
    spectrum = weight_spectrum(EX_CODE, EX_LEVELS)
    poly = level_transform(spectrum, EX_LEVELS, F2.q, EX_CODE.size)
    assert render("level", poly) == "1 + z_1z_2z_3 + z_1z_3 + z_1^2z_2"
    singles = LevelStructure((1, 1, 1))
    c1 = span(F2, 3, [(0, 0, 1)])
    w = level_transform(weight_spectrum(c1, singles), singles, 2, c1.size)
    assert render("level", w) == "1 + z_1 + z_1z_2 + z_2"
    c2 = span(F2, 3, [(1, 1, 1)])
    w2 = level_transform(weight_spectrum(c2, singles), singles, 2, c2.size)
    assert render("level", w2) == "1 + z_1z_2 + z_1z_3 + z_2z_3"
    zero = span(F2, 1, [])
    assert render("level", level_transform({(0,): 1}, LevelStructure((1,)), 2, 1)) == "1 + z_1"


def test_mspotty_transform_example():
    spectrum = weight_spectrum(EX_CODE, EX_LEVELS)
    poly = mspotty_transform(spectrum, EX_LEVELS, (2, 1, 1), F2.q, EX_CODE.size)
    assert render("mspotty", poly) == "1 + z_1z_2 + z_1z_2z_3 + z_1z_3"
    unit = mspotty_transform(spectrum, EX_LEVELS, (1, 1, 1), F2.q, EX_CODE.size)
    assert unit == level_transform(spectrum, EX_LEVELS, F2.q, EX_CODE.size)
    with pytest.raises(ValueError):
        mspotty_transform(spectrum, EX_LEVELS, (3, 1, 1), F2.q, EX_CODE.size)


def test_transform_self_consistency():
    rng = random.Random(53)
    for ring in CATALOG:
        sizes = tuple(rng.randint(1, 2) for _ in range(2))
        levels = LevelStructure(sizes)
        gens = [tuple(rng.randrange(ring.q) for _ in range(levels.n)) for _ in range(2)]
        code = span(ring, levels.n, gens)
        via_byte = substitute(byte_transform(code, levels), "byte->complete", q=ring.q, levels=levels)
        direct = complete_transform(
            weight_spectrum(code, levels), levels, ring.q, code.size
        )
        assert via_byte == direct


def test_complete_transform_involution():
    rng = random.Random(54)
    for ring in CATALOG:
        levels = LevelStructure((2, 1))
        gens = [tuple(rng.randrange(ring.q) for _ in range(3)) for _ in range(2)]
        code = span(ring, 3, gens)
        dual = dual_code(code)
        forward = complete_transform(
            weight_spectrum(code, levels), levels, ring.q, code.size
        )
        assert forward == complete_level_enumerator(dual, levels)
        back = complete_transform(
            weight_spectrum(dual, levels), levels, ring.q, dual.size
        )
        assert back == complete_level_enumerator(code, levels)


def test_transforms_over_non_binary_rings():
    rng = random.Random(71)
    z4_code = span(Z4, 3, [tuple(rng.randrange(4) for _ in range(3)) for _ in range(2)])
    z4_levels = LevelStructure((2, 1))
    assert byte_transform(z4_code, z4_levels) == byte_enumerator(
        dual_code(z4_code), z4_levels
    )
    f4_code = span(F4, 4, [tuple(rng.randrange(4) for _ in range(4)) for _ in range(2)])
    f4_levels = LevelStructure((2, 2))
    assert complete_transform(
        weight_spectrum(f4_code, f4_levels), f4_levels, F4.q, f4_code.size
    ) == complete_level_enumerator(dual_code(f4_code), f4_levels)
    f3_code = span(F3, 3, [tuple(rng.randrange(3) for _ in range(3)) for _ in range(2)])
    f3_levels = LevelStructure((2, 1))
    from pwenum.enumerators import mspotty_enumerator

    assert mspotty_transform(
        weight_spectrum(f3_code, f3_levels), f3_levels, (2, 1), F3.q, f3_code.size
    ) == mspotty_enumerator(dual_code(f3_code), f3_levels, (2, 1))


def test_identities_beyond_the_fuzz_catalog():
    # exercises cyclotomic orders 6 and 8 and a trace character over GF(9)
    rng = random.Random(99)
    rings = (
        make_ring("Zm", m=6),
        make_ring("Zm", m=8),
        make_ring("GF", p=3, k=2, modulus=[1, 1, 2]),  # normalized monic
    )
    for ring in rings:
        levels = LevelStructure((1, 1))
        gens = [tuple(rng.randrange(ring.q) for _ in range(2))]
        code = span(ring, 2, gens)
        for kind in ("byte", "complete", "level", "mspotty"):
            t = (1, 1) if kind == "mspotty" else None
            assert verify_identity(kind, code, levels, t=t).equal


def test_verify_identity_reports():
    for kind in ("byte", "complete", "level"):
        report = verify_identity(kind, EX_CODE, EX_LEVELS)
        assert report.equal and report.kind == kind
        assert report.lhs == report.rhs
    report = verify_identity("mspotty", EX_CODE, EX_LEVELS, t=(2, 1, 1))
    assert report.equal
    assert report.equal is True
    assert report.instance["ring"] == {"kind": "Zm", "m": 2}
    assert report.instance["t"] == [2, 1, 1]
    with pytest.raises(ValueError):
        verify_identity("poset", EX_CODE, EX_LEVELS)


def test_wrong_character_breaks_the_identity():
    chi = Character(Z4, (0, 2, 0, 2))  # additive but not generating
    code = span(Z4, 2, [(1, 2)])
    levels = LevelStructure((1, 1))
    try:
        report = verify_identity("byte", code, levels, chi=chi)
        assert not report.equal
    except IntegrityError:
        pass  # equally acceptable: the division check caught it first


def test_hadamard_indicator_of_zero():
    code = span(F3, 2, [(1, 2)])
    chi = default_character(F3)
    f = {(0, 0): 1}
    report = hadamard_check(F3, chi, code, f)
    assert report.equal and report.lhs == 1 and report.rhs == 1


def test_hadamard_constant_function():
    code = span(F3, 2, [(1, 2)])
    chi = default_character(F3)
    f = {v: 1 for v in product(range(3), repeat=2)}
    report = hadamard_check(F3, chi, code, f)
    dual = dual_code(code)
    assert report.equal and report.lhs == dual.size
    assert report.rhs == 3**2 // code.size


def test_hadamard_random_functions():
    rng = random.Random(61)
    chi = default_character(F3)
    for _ in range(10):
        gens = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(rng.randint(1, 2))]
        code = span(F3, 3, gens)
        f = {
            tuple(rng.randrange(3) for _ in range(3)): rng.randint(-5, 5)
            for _ in range(rng.randint(1, 12))
        }
        report = hadamard_check(F3, chi, code, f)
        assert report.equal


def test_hadamard_accepts_cyclotomic_values():
    chi = default_character(F2)
    code = span(F2, 2, [(1, 1)])
    f = {(1, 0): CycInt(2, (0, 1)), (0, 1): 2}
    report = hadamard_check(F2, chi, code, f)
    assert report.equal
    with pytest.raises(ValueError):
        hadamard_check(F2, chi, code, {(1, 0): CycInt(4, (1,))})
