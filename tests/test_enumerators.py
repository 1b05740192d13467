import random
from collections import Counter
from functools import partial

import pytest

from oracles import (
    collapse_to_x,
    cover_poset_enumerator,
    eta,
    hierarchical_poset,
    keyed,
    mspotty_distance,
    mspotty_weight,
    mu,
    reference_json,
    reference_text,
    substitute,
    unkeyed,
)
from pwenum.codes import dual_code, span
from pwenum.enumerators import (
    byte_enumerator,
    complete_level_enumerator,
    level_enumerator,
    mspotty_enumerator,
    poset_weight_enumerator,
    weight_spectrum,
)
from pwenum.macwilliams import count, render
from pwenum.posets import LevelStructure, Poset, poset_from_json_obj
from pwenum.rings import make_ring

F2 = make_ring("Zm", m=2)
CATALOG = (
    F2,
    make_ring("Zm", m=3),
    make_ring("GF", p=2, k=2, modulus=[1, 1, 1]),
    make_ring("Zm", m=4),
    make_ring("F2u"),
    make_ring("F2v"),
)

EX_CODE = span(F2, 4, [(1, 0, 1, 0), (0, 1, 1, 1)])
EX_LEVELS = LevelStructure((2, 1, 1))


def x_poly(pairs):
    return dict(pairs)


X = (0, "x", ())


def test_reference_text_rendering():
    poly = {
        (): 1,
        (((1, "byte", (1, 0)), 1), ((2, "weight", (1,)), 1)): 3,
        ((X, 2),): 2,
    }
    assert reference_text(poly) == "1 + 2x^2 + 3z_{1:10}z_{2:1}"


def test_reference_json_shape():
    poly = {(((1, "byte", (1, 0)), 1), ((2, "plain", ()), 2)): 1}
    assert reference_json(poly) == [
        {
            "coeff": 1,
            "vars": [
                {"level": 1, "kind": "byte", "pattern": [1, 0]},
                {"level": 2, "kind": "plain", "exp": 2},
            ],
        }
    ]


def test_chain_poset_enumerators():
    c1 = span(F2, 3, [(0, 0, 1)])
    c2 = span(F2, 3, [(1, 1, 1)])
    chain, covers = LevelStructure((1, 1, 1)), hierarchical_poset((1, 1, 1))  # 1 < 2 < 3
    enum = partial(count, "poset", "code")
    w1, w2 = enum(c1, chain), enum(c2, chain)
    assert w1 == x_poly([(0, 1), (3, 1)]) == cover_poset_enumerator(c1.words, covers)
    assert w1 == w2
    d1, d2 = enum(dual_code(c1), chain), enum(dual_code(c2), chain)
    assert d1 == x_poly([(0, 1), (1, 1), (2, 2)]) == cover_poset_enumerator(dual_code(c1).words, covers)
    assert d2 == x_poly([(0, 1), (2, 1), (3, 2)])
    assert d1 != d2  # no MacWilliams identity for the plain poset enumerator


def test_antichain_poset_enumerator_is_hamming():
    rng = random.Random(21)
    for ring in CATALOG:
        gens = [tuple(rng.randrange(ring.q) for _ in range(4)) for _ in range(2)]
        code = span(ring, 4, gens)
        poly = count("poset", "code", code, LevelStructure((4,)))
        counts = {}
        for w in code.words:
            counts[sum(1 for x in w if x)] = counts.get(sum(1 for x in w if x), 0) + 1
        assert poly == x_poly(counts.items())


def test_chain_poset_weight_is_last_nonzero_index():
    code = span(F2, 5, [(1, 0, 1, 0, 1), (0, 1, 1, 0, 0)])
    expected = Counter(max((i + 1 for i, x in enumerate(w) if x), default=0) for w in code.words)
    assert count("poset", "code", code, LevelStructure((1,) * 5)) == expected
    assert cover_poset_enumerator(code.words, hierarchical_poset((1,) * 5)) == expected
    # with position 5 taken off the chain, the masks weigh each word half by half
    off_chain = poset_from_json_obj({"kind": "cover", "n": 5, "covers": [[1, 2], [2, 3], [3, 4]]})
    assert isinstance(off_chain, Poset)
    expected = Counter(max((i + 1 for i, x in enumerate(w[:4]) if x), default=0) + w[4] for w in code.words)
    assert poset_weight_enumerator(code, off_chain) == expected


def test_eta():
    assert eta(1, (1, 0), 1, (1, 0)) == 1
    assert eta(1, (1, 0), 2, (1,)) == 0  # different levels never match
    assert eta(3, (1, 0, 0), 3, (1, 0, 1)) == 0
    with pytest.raises(ValueError):
        eta(1, (1, 0), 1, (1, 0, 0))


def test_mu():
    levels = LevelStructure((2, 1, 1))
    u = (1, 0, 1, 0)
    assert mu(1, (1, 0), u, levels) == 1
    assert mu(2, (1,), u, levels) == 1
    assert mu(3, (0,), u, levels) == 1
    assert mu(1, (0, 0), u, levels) == 0
    # exactly one pattern matches per level
    from itertools import product

    for s, size in enumerate(levels.sizes, start=1):
        total = sum(mu(s, pat, u, levels) for pat in product(range(2), repeat=size))
        assert total == 1


def test_byte_enumerator_examples():
    poly = byte_enumerator(EX_CODE, EX_LEVELS)
    assert render("byte", poly, 2, EX_LEVELS) == (
        "z_{1:00}z_{2:0}z_{3:0} + z_{1:01}z_{2:1}z_{3:1} + "
        "z_{1:10}z_{2:1}z_{3:0} + z_{1:11}z_{2:0}z_{3:1}"
    )
    dual = byte_enumerator(dual_code(EX_CODE), EX_LEVELS)
    assert render("byte", dual, 2, EX_LEVELS) == (
        "z_{1:00}z_{2:0}z_{3:0} + z_{1:01}z_{2:0}z_{3:1} + "
        "z_{1:10}z_{2:1}z_{3:1} + z_{1:11}z_{2:1}z_{3:0}"
    )
    zero = span(F2, 4, [])
    assert render("byte", byte_enumerator(zero, EX_LEVELS), 2, EX_LEVELS) == "z_{1:00}z_{2:0}z_{3:0}"


def test_weight_spectrum_example():
    # levels (2, 1, 1): the weight key of (w_1, w_2, w_3) is 4 w_1 + 2 w_2 + w_3
    assert weight_spectrum(EX_CODE, EX_LEVELS) == {
        0: 1,  # (0, 0, 0)
        6: 1,  # (1, 1, 0)
        7: 1,  # (1, 1, 1)
        9: 1,  # (2, 0, 1)
    }
    zero = span(F2, 4, [])
    assert weight_spectrum(zero, EX_LEVELS) == {0: 1}
    full = span(F2, 2, [(1, 0), (0, 1)])
    assert weight_spectrum(full, LevelStructure((2,))) == {0: 1, 1: 2, 2: 1}


def test_complete_level_enumerator_examples():
    poly = complete_level_enumerator(EX_CODE, EX_LEVELS)
    assert render("complete", poly, levels=EX_LEVELS) == (
        "z_{1:0}z_{2:0}z_{3:0} + z_{1:1}z_{2:1}z_{3:0} + "
        "z_{1:1}z_{2:1}z_{3:1} + z_{1:2}z_{2:0}z_{3:1}"
    )
    dual = complete_level_enumerator(dual_code(EX_CODE), EX_LEVELS)
    assert render("complete", dual, levels=EX_LEVELS) == (
        "z_{1:0}z_{2:0}z_{3:0} + z_{1:1}z_{2:0}z_{3:1} + "
        "z_{1:1}z_{2:1}z_{3:1} + z_{1:2}z_{2:1}z_{3:0}"
    )


def test_level_enumerator_examples():
    singles = LevelStructure((1, 1, 1))
    c1 = span(F2, 3, [(0, 0, 1)])
    assert render("level", level_enumerator(c1, singles), levels=singles) == "1 + z_3"
    dual = level_enumerator(dual_code(c1), singles)
    assert render("level", dual, levels=singles) == "1 + z_1 + z_1z_2 + z_2"
    c2 = span(F2, 3, [(1, 1, 1)])
    assert (
        render("level", level_enumerator(dual_code(c2), singles), levels=singles)
        == "1 + z_1z_2 + z_1z_3 + z_2z_3"
    )


def test_mspotty_weight_and_distance():
    levels = LevelStructure((2, 1, 1))
    t = (2, 1, 1)
    assert mspotty_weight((1, 1, 1, 0), levels, t) == 2
    assert mspotty_weight((0, 0, 0, 0), levels, t) == 0
    assert mspotty_distance((1, 1, 1, 0), (0, 0, 0, 0), levels, t) == 2
    assert mspotty_distance((1, 0, 1, 1), (1, 0, 1, 1), levels, t) == 0
    with pytest.raises(ValueError):
        mspotty_weight((1, 1, 1, 0), levels, (3, 1, 1))
    with pytest.raises(ValueError):
        mspotty_distance((1, 1), (1, 1, 0, 0), levels, t)
    with pytest.raises(ValueError):  # equal lengths, but not the level structure's
        mspotty_distance((1, 1), (0, 0), LevelStructure((2, 2)), (1, 1))


def test_mspotty_weight_with_unit_thresholds_is_hamming():
    rng = random.Random(31)
    levels = LevelStructure((2, 1, 3))
    for _ in range(30):
        v = tuple(rng.randint(0, 3) for _ in range(6))
        assert mspotty_weight(v, levels, (1, 1, 1)) == sum(1 for x in v if x)


def test_mspotty_distance_matches_weight_of_difference():
    rng = random.Random(32)
    levels = LevelStructure((2, 2))
    t = (2, 1)
    for ring in CATALOG:
        for _ in range(50):
            u = tuple(rng.randrange(ring.q) for _ in range(4))
            v = tuple(rng.randrange(ring.q) for _ in range(4))
            diff = tuple(ring.add_table[a][ring.neg_table[b]] for a, b in zip(u, v))
            assert mspotty_distance(u, v, levels, t) == mspotty_weight(diff, levels, t)


def test_mspotty_metric_axioms():
    rng = random.Random(33)
    levels = LevelStructure((2, 1, 3))
    t = (2, 1, 2)
    for ring in CATALOG:
        for _ in range(500):
            u, v, w = (
                tuple(rng.randrange(ring.q) for _ in range(6)) for _ in range(3)
            )
            duv = mspotty_distance(u, v, levels, t)
            assert duv >= 0
            assert (duv == 0) == (u == v)
            assert duv == mspotty_distance(v, u, levels, t)
            assert duv <= mspotty_distance(u, w, levels, t) + mspotty_distance(
                w, v, levels, t
            )


def test_mspotty_enumerator_example():
    poly = mspotty_enumerator(dual_code(EX_CODE), EX_LEVELS, (2, 1, 1))
    assert render("mspotty", poly, levels=EX_LEVELS) == "1 + z_1z_2 + z_1z_2z_3 + z_1z_3"
    zero = span(F2, 4, [])
    assert mspotty_enumerator(zero, EX_LEVELS, (2, 1, 1)) == {0: 1}


def test_mspotty_enumerator_unit_thresholds_equals_level_enumerator():
    t = (1, 1, 1)
    assert mspotty_enumerator(EX_CODE, EX_LEVELS, t) == level_enumerator(EX_CODE, EX_LEVELS)


def test_substitution_chains():
    rng = random.Random(41)
    for ring in CATALOG:
        for _ in range(5):
            sizes = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            levels = LevelStructure(sizes)
            n = levels.n
            if ring.q**n > 2**13:
                continue
            gens = [
                tuple(rng.randrange(ring.q) for _ in range(n))
                for _ in range(rng.randint(0, 2))
            ]
            code = span(ring, n, gens)
            t = tuple(rng.randint(1, s) for s in sizes)
            byte = dict.fromkeys(byte_enumerator(code, levels), 1)  # a set: every count 1
            complete = complete_level_enumerator(code, levels)
            tuples = unkeyed(sizes, complete)
            assert keyed(sizes, substitute(byte, "byte->complete", q=ring.q, levels=levels)) == complete
            assert keyed(sizes, substitute(tuples, "complete->level")) == level_enumerator(code, levels)
            assert keyed(sizes, substitute(tuples, "complete->mspotty", t)) == mspotty_enumerator(
                code, levels, t
            )
            assert sum(byte.values()) == code.size
            assert sum(complete.values()) == code.size


def test_substitute_kind_mismatch():
    complete = unkeyed(EX_LEVELS.sizes, complete_level_enumerator(EX_CODE, EX_LEVELS))
    with pytest.raises(ValueError):
        substitute(complete, "byte->complete")
    with pytest.raises(ValueError):
        substitute(complete, "complete->mspotty")  # t missing
    with pytest.raises(ValueError):
        substitute(complete, "weight->level")


def test_collapse_to_x_reduces_to_hamming():
    singles = LevelStructure((1,) * 4)
    poly = collapse_to_x(unkeyed(singles.sizes, level_enumerator(EX_CODE, singles)))
    assert poly == count("poset", "code", EX_CODE, LevelStructure((4,)))
    with pytest.raises(ValueError):
        collapse_to_x(dict.fromkeys(byte_enumerator(EX_CODE, EX_LEVELS), 1))


def test_enumerators_reject_mismatched_levels():
    with pytest.raises(ValueError):
        byte_enumerator(EX_CODE, LevelStructure((2, 1)))
    with pytest.raises(ValueError):
        count("poset", "code", EX_CODE, LevelStructure((1, 1, 1)))
    with pytest.raises(ValueError, match="poset size 3 does not match code length 4"):
        poset_weight_enumerator(EX_CODE, poset_from_json_obj({"kind": "cover", "n": 3, "covers": [[2, 1]]}))
