import random
import tracemalloc
from itertools import product

import pytest

from pwenum import codes
from oracles import inner_product
from pwenum.codes import dual_code, level_split, span
from pwenum.errors import CapExceededError
from pwenum.posets import LevelStructure
from pwenum.rings import make_ring

F2 = make_ring("Zm", m=2)
Z4 = make_ring("Zm", m=4)
CATALOG = (
    F2,
    make_ring("Zm", m=3),
    make_ring("GF", p=2, k=2, modulus=[1, 1, 1]),
    Z4,
    make_ring("F2u"),
    make_ring("F2v"),
)


def words(code):
    return {"".join(map(str, w)) for w in code.words}


def test_span_examples():
    code = span(F2, 4, [(1, 0, 1, 0), (0, 1, 1, 1)])
    assert words(code) == {"0000", "1010", "0111", "1101"}
    assert span(Z4, 1, [(2,)]).words == ((0,), (2,))
    assert span(F2, 3, []).words == ((0, 0, 0),)


def test_span_validation():
    with pytest.raises(ValueError):
        span(F2, 3, [(1, 0)])
    with pytest.raises(ValueError):
        span(F2, 2, [(2, 0)])
    with pytest.raises(CapExceededError):
        span(Z4, 20, [(1,) + (0,) * 19] * 20)
    with pytest.raises(CapExceededError):
        span(Z4, 2, [(1, 0)] * 20, cap=15)
    # q^k = 4^20 generators' worth, but a span of length 2 has at most 4^2 words
    assert span(Z4, 2, [(1, 0)] * 20, cap=16).size == 4
    # a word of length n holds n entries, so the length is held against the cap too
    with pytest.raises(CapExceededError, match="code length 1000000 exceeds cap 100000"):
        span(F2, 10**6, [], cap=10**5)
    assert span(F2, 4, [], cap=4).size == 1
    with pytest.raises(CapExceededError):
        span(F2, 5, [], cap=4)


def test_inner_product():
    assert inner_product(F2, (1, 0, 1, 0), (1, 0, 1, 1)) == 0
    assert inner_product(F2, (1, 0, 1, 0), (0, 1, 0, 1)) == 0
    assert inner_product(F2, (1, 1, 0), (1, 0, 0)) == 1
    assert inner_product(Z4, (1, 2), (2, 1)) == 0
    with pytest.raises(ValueError):
        inner_product(F2, (1, 0), (1,))


def test_inner_product_splits_across_levels():
    levels = LevelStructure((2, 1, 1))
    rng = random.Random(2)
    for ring in CATALOG:
        for _ in range(20):
            u = tuple(rng.randrange(ring.q) for _ in range(4))
            v = tuple(rng.randrange(ring.q) for _ in range(4))
            per_level = 0
            for us, vs in zip(level_split(u, levels), level_split(v, levels)):
                per_level = ring.add_table[per_level][inner_product(ring, us, vs)]
            assert per_level == inner_product(ring, u, v)


def test_dual_examples():
    c1 = span(F2, 3, [(0, 0, 1)])
    assert words(dual_code(c1)) == {"000", "100", "010", "110"}
    code = span(F2, 4, [(1, 0, 1, 0), (0, 1, 1, 1)])
    assert words(dual_code(code)) == {"0000", "1011", "0101", "1110"}
    zero = span(F2, 2, [])
    assert dual_code(zero).size == 4


def test_dual_generators_are_picked_when_first_read(monkeypatch):
    calls = []
    greedy = codes._greedy_generators

    def counted(ring, words):
        calls.append(len(words))
        return greedy(ring, words)

    monkeypatch.setattr(codes, "_greedy_generators", counted)
    code = span(F2, 4, [(1, 0, 1, 0), (0, 1, 1, 1)])
    dual = dual_code(code)
    assert dual.size == 4 and calls == []
    assert dual.generators == ((0, 1, 0, 1), (1, 0, 1, 1))
    assert dual.generators == ((0, 1, 0, 1), (1, 0, 1, 1))
    assert calls == [4]
    assert dual_code(dual) == code


def test_a_span_lists_its_words_when_first_read(monkeypatch):
    calls = []
    span_columns = codes.LinearCode.span_columns

    def counted(code):
        calls.append(code.n)
        return span_columns(code)

    monkeypatch.setattr(codes.LinearCode, "span_columns", counted)
    code = span(F2, 4, [(1, 0, 1, 0), (0, 1, 1, 1)])
    assert calls == [] and repr(code) == f"LinearCode(n=4, over {F2!r})"  # a repr lists nothing
    assert code.size == 4 and calls == [4]
    assert code.words == ((0, 0, 0, 0), (0, 1, 1, 1), (1, 0, 1, 0), (1, 1, 0, 1)) and calls == [4]
    assert repr(code) == f"LinearCode(n=4, size=4, over {F2!r})"


@pytest.mark.parametrize("ring", [F2, make_ring("Zm", m=3), Z4], ids=["F2", "F3", "Z4"])
def test_a_span_of_more_generators_than_coordinates_steps_its_distinct_rows(ring):
    # 40 generators of length 3 would take q^40 lanes; past n generators each one steps the distinct
    # rows so far, so the columns hold at most q^(n+1) lanes
    rng = random.Random(7)
    gens = [tuple(rng.randrange(ring.q) for _ in range(3)) for _ in range(40)]
    words = {(0, 0, 0)}
    for g in gens:  # the closure, one generator at a time
        steps = [[ring.mul_table[r][x] for x in g] for r in range(ring.q)]
        words |= {tuple(ring.add_table[w][x] for w, x in zip(word, rg)) for word in words for rg in steps}
    code = span(ring, 3, gens)
    columns, z = code.span_columns()
    assert len(columns[0]) // z == len(words) and len(columns[0]) <= ring.q**4
    assert code.words == tuple(sorted(words)) and code.generators == tuple(gens)


def test_span_rejects_malformed_lengths_and_entries():
    for n in ("3", 3.0, True, None, -1):
        with pytest.raises(ValueError, match="code length must be a non-negative integer"):
            span(F2, n, [])
    for entry in (True, False, 1.0, "1", None, -1, 2):
        with pytest.raises(ValueError, match="is not an element index"):
            span(F2, 3, [(1, entry, 0)])


def test_dual_cap():
    code = span(F2, 3, [(1, 1, 1)])
    with pytest.raises(CapExceededError):
        dual_code(code, cap=4)


def test_duality_invariants_random_codes():
    rng = random.Random(13)
    for ring in CATALOG:
        for _ in range(8):
            n = rng.randint(1, 6)
            if ring.q**n > 2**13:
                n = 4
            gens = [
                tuple(rng.randrange(ring.q) for _ in range(n))
                for _ in range(rng.randint(0, 3))
            ]
            code = span(ring, n, gens)
            dual = dual_code(code)
            assert code.size * dual.size == ring.q**n
            assert dual_code(dual) == code
            # full-space filter against every codeword, not just generators
            expected = [
                v
                for v in product(range(ring.q), repeat=n)
                if all(inner_product(ring, u, v) == 0 for u in code.words)
            ]
            assert list(dual.words) == expected
            # closure under addition and scalars
            for _ in range(10):
                a, b = rng.choice(dual.words), rng.choice(dual.words)
                r = rng.randrange(ring.q)
                s = tuple(ring.add_table[x][ring.mul_table[r][y]] for x, y in zip(a, b))
                assert s in dual.words


def test_level_split():
    levels = LevelStructure((2, 1, 3))
    parts = level_split((1, 0, 1, 1, 0, 0), levels)
    assert parts == ((1, 0), (1,), (1, 0, 0))
    assert level_split((1, 1, 0, 1), LevelStructure((2, 1, 1))) == ((1, 1), (0,), (1,))
    assert level_split((1, 0, 1), LevelStructure((3,))) == ((1, 0, 1),)
    with pytest.raises(ValueError):
        level_split((1, 0), levels)
    # concatenation reproduces the word
    rng = random.Random(4)
    for _ in range(20):
        v = tuple(rng.randint(0, 1) for _ in range(6))
        assert sum(level_split(v, levels), ()) == v


def test_a_held_code_costs_at_most_64_bytes_a_word():
    # a code used to hold every word as a tuple and again in a frozenset, about 209 bytes a word
    code = span(F2, 16, [])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dual = dual_code(code)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert dual.size == 2**16
    assert held <= 64 * dual.size
