import random
import time
from itertools import product

import pytest

from cyclotomic import CycInt, character_value
from oracles import character_ideal_sum, enumerate_ideals, gf_is_irreducible
from pwenum.cli import CATALOG_RINGS, catalog_ring
from pwenum.rings import (
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
    assert Z4.add_table[2][2] == 0
    assert Z4.mul_table[3][3] == 1
    assert Z4.neg_table[1] == 3
    assert Z4.names == ("0", "1", "2", "3")


def test_zm_tables_are_modular_arithmetic():
    for m in range(2, 65):
        ring = make_ring("Zm", m=m)
        assert tuple(map(tuple, ring.add_table)) == tuple(tuple((a + b) % m for b in range(m)) for a in range(m))
        assert tuple(map(tuple, ring.mul_table)) == tuple(tuple(a * b % m for b in range(m)) for a in range(m))


def test_f2v_construction():
    assert F2V.q == 4 and F2V.exponent == 2
    assert F2V.names == ("0", "1", "v", "1+v")
    assert tuple(map(tuple, F2V.add_table)) == ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    assert tuple(map(tuple, F2V.mul_table)) == ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 2, 0), (0, 3, 0, 3))
    v = 2
    assert F2V.mul_table[v][v] == v  # v^2 = v
    assert F2V.add_table[1][v] == 3


def test_f2u_nilpotent_generator():
    u = 2
    assert F2U.mul_table[u][u] == 0  # u^2 = 0
    assert F2U.exponent == 2
    assert F2U.names == ("0", "1", "u", "1+u")
    assert tuple(map(tuple, F2U.add_table)) == ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    assert tuple(map(tuple, F2U.mul_table)) == ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 2), (0, 3, 2, 1))


def test_gf4_field_structure():
    assert F4.q == 4 and F4.exponent == 2
    a = 2
    assert F4.mul_table[a][a] == 3  # a^2 = 1 + a under a^2 + a + 1 = 0
    # multiplicative group is cyclic of order 3
    powers = {1}
    x = a
    while x not in powers:
        powers.add(x)
        x = F4.mul_table[x][a]
    assert powers == {1, 2, 3}
    for x in range(1, 4):
        assert any(F4.mul_table[x][y] == 1 for y in range(1, 4))


def test_gf_names_are_polynomials():
    assert F4.names == ("0", "1", "a", "1+a")
    f8 = make_ring("GF", p=2, k=3, modulus=[1, 1, 0, 1])
    assert f8.names[4] == "a^2"
    assert f8.names[5] == "1+a^2"


def test_gf_degenerate_extension():
    f3 = make_ring("GF", p=3, k=1, modulus=[0, 1])
    assert f3.q == 3 and f3.exponent == 3
    assert tuple(default_character(f3)) == (0, 1, 2)  # a one-digit index is its own top digit


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


@pytest.mark.parametrize("which", ["add", "mul"])
@pytest.mark.parametrize(
    "row",
    [
        [3, 0, 1],  # short
        [3, 0, 1, 4],  # an entry equal to q
        [3, 0, 1, -1],
        4,  # bytes(4) would be four zero bytes
        [3, False, 1, 2],  # bytes() would read False as 0
        b"\x03\x00\x01\x04",
        None,  # the row dropped: three rows
    ],
)
def test_a_malformed_table_is_refused_before_any_axiom_check(which, row):
    # row 3 of + is [3, 0, 1, 2] and of · [0, 3, 2, 1]; each replacement is refused by one message
    tables = {"add": [list(r) for r in Z4.add_table], "mul": [list(r) for r in Z4.mul_table]}
    tables[which][3:] = [] if row is None else [row]
    with pytest.raises(ValueError, match="operation table is not 4 rows of 4 indices in range"):
        RingSpec("Zm", 4, tables["add"], tables["mul"], Z4.names, Z4.params)


def test_tables_and_character_are_byte_rows():
    # the checked rows are the tables: a tuple of q bytes rows each, whatever rows the builder handed over
    listed = RingSpec("Zm", 4, [list(r) for r in Z4.add_table], [list(r) for r in Z4.mul_table], Z4.names, Z4.params)
    big = [make_ring("Zm", m=64), make_ring("GF", p=2, k=6, modulus=[1, 1, 0, 0, 0, 0, 1])]
    big.append(make_ring("GF", p=7, k=2, modulus=[1, 0, 1]))
    for ring in [*map(catalog_ring, CATALOG_RINGS), *big, listed]:
        q = ring.q
        for table in (ring.add_table, ring.mul_table):
            assert type(table) is tuple and len(table) == q
            assert all(type(row) is bytes and len(row) == q for row in table)
        eps = default_character(ring)
        assert type(eps) is bytes and len(eps) == q
    assert listed == Z4


def test_gf_size_cap_comes_before_primality():
    # trial division up to sqrt(p) would take about 0.1 s here
    for p, k in ((10**12 + 39, 1), (2, 10**9)):  # 10^12 + 39 is prime
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the cap"):
            make_ring("GF", p=p, k=k, modulus=[0, 1])
        assert time.perf_counter() - start < 0.05


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
    assert verify_generating_character(ring, default_character(ring))


def test_ring_from_json_obj():
    ring = ring_from_json_obj({"kind": "GF", "p": 2, "k": 2, "modulus": [1, 1, 1]})
    assert ring == F4
    assert ring.to_json_obj() == {"kind": "GF", "p": 2, "k": 2, "modulus": [1, 1, 1]}
    with pytest.raises(ValueError):
        ring_from_json_obj({"m": 4})


PRIMES = [p for p in range(2, 65) if all(p % d for d in range(2, p))]


def _every_field():
    """GF(p^k) under every monic irreducible modulus, by trial division, for every p^k <= 64."""
    for p, k in ((p, k) for p in PRIMES for k in range(1, 7) if p**k <= 64):
        for tail in product(range(p), repeat=k):
            if gf_is_irreducible([*tail, 1], p, k):
                yield make_ring("GF", p=p, k=k, modulus=[*tail, 1])


def test_default_characters_are_generating():
    fields = list(_every_field())
    # GF(p) under each modulus x + c, then 1 + 2 + 3 + 6 + 9 moduli of GF(2^k),
    # 3 + 8 of GF(3^k), 10 of GF(25) and 21 of GF(49)
    assert len(fields) == sum(PRIMES) + 63
    rings = [make_ring("Zm", m=m) for m in range(2, 65)] + [F2U, F2V, *fields]
    for ring in rings:
        eps, e = default_character(ring), ring.exponent
        assert verify_generating_character(ring, eps)
        for a, row in enumerate(ring.add_table):
            assert [eps[b] for b in row] == [(eps[a] + x) % e for x in eps]
    # the top base-p digit, not the trace: on GF(9) the trace of a constant c is 2c
    assert tuple(default_character(F4)) == (0, 0, 1, 1)
    gf9 = make_ring("GF", p=3, k=2, modulus=[1, 0, 1])
    assert tuple(default_character(gf9)) == (0, 0, 0, 1, 1, 1, 2, 2, 2)


def test_default_character_values():
    z2 = default_character(F2)
    assert tuple(z2) == (0, 1)
    assert character_value(F2, z2, 1) == -1
    assert tuple(default_character(Z4)) == (0, 1, 2, 3)
    f2v = default_character(F2V)
    assert [character_value(F2V, f2v, a) for a in range(4)] == [1, 1, -1, -1]


def test_non_generating_character_detected():
    assert verify_generating_character(Z4, (0, 2, 0, 2)) is False  # kernel contains the ideal {0, 2}


def test_malformed_exponent_map_rejected():
    with pytest.raises(ValueError):
        verify_generating_character(Z4, (0, 1, 1, 1))
    with pytest.raises(ValueError):
        verify_generating_character(Z4, (0, 1))


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
        eps = default_character(ring)
        for ideal in enumerate_ideals(ring):
            total = character_ideal_sum(ring, eps, ideal)
            if ideal == frozenset({0}):
                assert total == 1
            else:
                assert total == 0
                # removing the zero element leaves -1
                assert total - 1 == -1


def test_character_sum_examples():
    eps = default_character(Z4)
    assert character_ideal_sum(Z4, eps, {0, 2}) == 0  # 1 + zeta^2 with zeta^2 = -1
    assert character_ideal_sum(Z4, eps, {0, 1, 2, 3}) == 0
    assert character_ideal_sum(Z4, eps, {0}) == 1


def test_character_sum_rejects_non_ideal():
    eps = default_character(Z4)
    with pytest.raises(ValueError):
        character_ideal_sum(Z4, eps, {0, 1})  # not closed under addition


def test_character_orthogonality():
    # sum over a of chi(r a) is q for r = 0 and 0 otherwise
    for ring in CATALOG:
        eps = default_character(ring)
        e = ring.exponent
        for r in range(ring.q):
            total = CycInt(e)
            for a in range(ring.q):
                total = total + character_value(ring, eps, ring.mul_table[r][a])
            assert total == (ring.q if r == 0 else 0)


def test_commutativity_exhaustive():
    rng = random.Random(0)
    for ring in CATALOG:
        for _ in range(50):
            a, b = rng.randrange(ring.q), rng.randrange(ring.q)
            assert ring.add_table[a][b] == ring.add_table[b][a]
            assert ring.mul_table[a][b] == ring.mul_table[b][a]
