import random
import time

import pytest

from oracles import character_ideal_sum, enumerate_ideals
from pwenum.cyclotomic import CycInt
from pwenum.rings import (
    Character,
    RingSpec,
    default_character,
    make_ring,
    ring_from_json_obj,
    verify_generating_character,
)

Z4 = make_ring("Zm", m=4)
F2 = make_ring("Zm", m=2)
F4 = make_ring("GF", p=2, k=2, modulus=[1, 1, 1])
F2U = make_ring("F2u")
F2V = make_ring("F2v")
CATALOG = (F2, make_ring("Zm", m=3), F4, Z4, F2U, F2V)


def test_zm_tables():
    assert Z4.q == 4 and Z4.exponent == 4
    assert Z4.add(2, 2) == 0
    assert Z4.mul(3, 3) == 1
    assert Z4.neg(1) == 3
    assert Z4.names == ("0", "1", "2", "3")


def test_zm_tables_are_modular_arithmetic():
    for m in range(2, 65):
        ring = make_ring("Zm", m=m)
        assert ring.add_table == tuple(tuple((a + b) % m for b in range(m)) for a in range(m))
        assert ring.mul_table == tuple(tuple(a * b % m for b in range(m)) for a in range(m))


def test_f2v_construction():
    assert F2V.q == 4 and F2V.exponent == 2
    assert F2V.names == ("0", "1", "v", "1+v")
    v = 2
    assert F2V.mul(v, v) == v  # v^2 = v
    assert F2V.add(1, v) == 3


def test_f2u_nilpotent_generator():
    u = 2
    assert F2U.mul(u, u) == 0  # u^2 = 0
    assert F2U.exponent == 2
    assert F2U.names[3] == "1+u"


def test_gf4_field_structure():
    assert F4.q == 4 and F4.exponent == 2
    a = 2
    assert F4.mul(a, a) == 3  # a^2 = 1 + a under a^2 + a + 1 = 0
    # multiplicative group is cyclic of order 3
    powers = {1}
    x = a
    while x not in powers:
        powers.add(x)
        x = F4.mul(x, a)
    assert powers == {1, 2, 3}
    for x in range(1, 4):
        assert any(F4.mul(x, y) == 1 for y in range(1, 4))


def test_gf_names_are_polynomials():
    assert F4.names == ("0", "1", "a", "1+a")
    f8 = make_ring("GF", p=2, k=3, modulus=[1, 1, 0, 1])
    assert f8.names[4] == "a^2"
    assert f8.names[5] == "1+a^2"


def test_gf_degenerate_extension():
    f3 = make_ring("GF", p=3, k=1, modulus=[0, 1])
    assert f3.q == 3 and f3.exponent == 3
    assert default_character(f3).exponents == (0, 1, 2)  # trace is the identity


def test_construction_errors():
    with pytest.raises(ValueError):
        make_ring("Zm", m=1)
    with pytest.raises(ValueError):
        make_ring("GF", p=2, k=2, modulus=[1, 0, 1])  # x^2 + 1 = (x+1)^2
    with pytest.raises(ValueError):
        make_ring("GF", p=4, k=1, modulus=[0, 1])  # p not prime
    with pytest.raises(ValueError):
        make_ring("Zm", m=65)
    with pytest.raises(ValueError):
        make_ring("nope")


def test_construction_rejects_malformed_parameters():
    for obj in (
        {"kind": "Zm", "m": "4"},
        {"kind": "Zm", "m": True},
        {"kind": "Zm"},
        {"kind": "GF", "p": "2", "k": 2, "modulus": [1, 1, 1]},
        {"kind": "GF", "p": 2, "k": 2.0, "modulus": [1, 1, 1]},
        {"kind": "GF", "p": 2, "k": 2, "modulus": "111"},
        {"kind": "GF", "p": 2, "k": 2, "modulus": [1, "1", 1]},
    ):
        with pytest.raises(ValueError):
            ring_from_json_obj(obj)


def test_gf_size_cap_comes_before_primality():
    # trial division up to sqrt(p) would take about 0.1 s here
    for p, k in ((10**12 + 39, 1), (2, 10**9)):  # 10^12 + 39 is prime
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the cap"):
            make_ring("GF", p=p, k=k, modulus=[0, 1])
        assert time.perf_counter() - start < 0.05


def test_out_of_range_index_rejected():
    with pytest.raises(ValueError):
        Z4.add(4, 0)
    with pytest.raises(ValueError):
        Z4.mul(0, -1)


def test_exponent_divides_size_everywhere():
    for ring in CATALOG + (make_ring("Zm", m=6), make_ring("Zm", m=12)):
        assert ring.q % ring.exponent == 0
        # e * a = 0 for every a
        for a in range(ring.q):
            acc = 0
            for _ in range(ring.exponent):
                acc = ring.add_table[acc][a]
            assert acc == 0


@pytest.mark.parametrize(
    "m, e, message",
    [
        (4, 3, "additive exponent does not divide the ring size"),
        (4, 2, "additive exponent does not annihilate the ring"),
        (27, 9, "additive exponent does not annihilate the ring"),
        (64, 32, "additive exponent does not annihilate the ring"),
        (12, 6, "additive exponent does not annihilate the ring"),
    ],
)
def test_a_wrong_additive_exponent_is_refused(monkeypatch, m, e, message):
    # the ring axioms imply both checks, so only a wrong exponent can reach them
    monkeypatch.setattr(RingSpec, "_order_of_one", lambda self: e)
    with pytest.raises(ValueError, match=message):
        make_ring("Zm", m=m)


def test_large_ring_constructs_with_full_axiom_check():
    ring = make_ring("Zm", m=64)
    assert ring.exponent == 64
    chi = default_character(ring)
    assert verify_generating_character(ring, chi)


def test_ring_from_json_obj():
    ring = ring_from_json_obj({"kind": "GF", "p": 2, "k": 2, "modulus": [1, 1, 1]})
    assert ring == F4
    assert ring.to_json_obj() == {"kind": "GF", "p": 2, "k": 2, "modulus": [1, 1, 1]}
    with pytest.raises(ValueError):
        ring_from_json_obj({"m": 4})


def test_default_characters_are_generating():
    for ring in CATALOG + (
        make_ring("Zm", m=6),
        make_ring("Zm", m=8),
        make_ring("GF", p=3, k=2, modulus=[1, 0, 1]),
        make_ring("GF", p=2, k=3, modulus=[1, 1, 0, 1]),
    ):
        chi = default_character(ring)
        assert verify_generating_character(ring, chi)
        e = ring.exponent
        for a in range(ring.q):
            for b in range(ring.q):
                lhs = chi.exponents[ring.add_table[a][b]]
                assert lhs == (chi.exponents[a] + chi.exponents[b]) % e


def test_default_character_values():
    z2 = default_character(F2)
    assert z2.exponents == (0, 1)
    assert z2.value(1) == -1
    z4 = default_character(Z4)
    assert z4.exponents == (0, 1, 2, 3)
    f2v = default_character(F2V)
    assert f2v.value(2) == -1 and f2v.value(3) == -1 and f2v.value(1) == 1


def test_non_generating_character_detected():
    chi = Character(Z4, (0, 2, 0, 2))  # kernel contains the ideal {0, 2}
    assert verify_generating_character(Z4, chi) is False


def test_malformed_exponent_map_rejected():
    with pytest.raises(ValueError):
        verify_generating_character(Z4, Character(Z4, (0, 1, 1, 1)))
    with pytest.raises(ValueError):
        verify_generating_character(Z4, Character(Z4, (0, 1)))


def test_enumerate_ideals():
    assert enumerate_ideals(Z4) == [
        frozenset({0}),
        frozenset({0, 2}),
        frozenset({0, 1, 2, 3}),
    ]
    assert enumerate_ideals(F2U) == [
        frozenset({0}),
        frozenset({0, 2}),
        frozenset({0, 1, 2, 3}),
    ]
    assert enumerate_ideals(F4) == [frozenset({0}), frozenset({0, 1, 2, 3})]
    # F2[v]/(v^2-v) is a product of two fields, hence four ideals
    assert len(enumerate_ideals(F2V)) == 4


def test_character_sum_over_ideals():
    for ring in CATALOG:
        chi = default_character(ring)
        for ideal in enumerate_ideals(ring):
            total = character_ideal_sum(ring, chi, ideal)
            if ideal == frozenset({0}):
                assert total == 1
            else:
                assert total == 0
                # removing the zero element leaves -1
                assert total - 1 == -1


def test_character_sum_examples():
    chi = default_character(Z4)
    assert character_ideal_sum(Z4, chi, {0, 2}) == 0  # 1 + zeta^2 with zeta^2 = -1
    assert character_ideal_sum(Z4, chi, {0, 1, 2, 3}) == 0
    assert character_ideal_sum(Z4, chi, {0}) == 1


def test_character_sum_rejects_non_ideal():
    chi = default_character(Z4)
    with pytest.raises(ValueError):
        character_ideal_sum(Z4, chi, {0, 1})  # not closed under addition


def test_character_orthogonality():
    # sum over a of chi(r a) is q for r = 0 and 0 otherwise
    for ring in CATALOG:
        chi = default_character(ring)
        e = ring.exponent
        for r in range(ring.q):
            total = CycInt(e)
            for a in range(ring.q):
                total = total + chi.value(ring.mul_table[r][a])
            assert total == (ring.q if r == 0 else 0)


def test_commutativity_exhaustive():
    rng = random.Random(0)
    for ring in CATALOG:
        for _ in range(50):
            a, b = rng.randrange(ring.q), rng.randrange(ring.q)
            assert ring.add(a, b) == ring.add(b, a)
            assert ring.mul(a, b) == ring.mul(b, a)
