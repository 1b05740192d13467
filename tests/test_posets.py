import random
from functools import reduce
from operator import or_

import pytest

from oracles import cover_ideal, cover_level_sizes, hierarchical_poset, level_bounds
from pwenum.codes import span
from pwenum.errors import CapExceededError
from pwenum.macwilliams import count
from pwenum.posets import LevelStructure, Poset, poset_from_json_obj
from pwenum.rings import make_ring

F2 = make_ring("Zm", m=2)


def _cover(n, covers=()):
    return poset_from_json_obj({"kind": "cover", "n": n, "covers": [list(pair) for pair in covers]})


def _weight(shape, word) -> int:
    """The poset weight of one F2 word, read off the poset kind on the code it spans: {0: 1, w: 1}."""
    return max(count("poset", "code", span(F2, len(word), [word]), shape))


def _word(n, support) -> tuple:
    return tuple(int(i + 1 in support) for i in range(n))


def test_chain_closure_and_weight():
    p = _cover(3, [(1, 2), (2, 3)])
    assert p == LevelStructure((1, 1, 1))
    assert _weight(p, (0, 0, 1)) == 3
    assert _weight(p, (1, 1, 0)) == 2
    assert _weight(p, (0, 0, 0)) == 0
    # the same chain with a position beside it is no level structure: its masks close {3}
    q = _cover(4, [(1, 2), (2, 3)])
    assert isinstance(q, Poset)
    assert _weight(q, (0, 0, 1, 0)) == 3 and _weight(q, (1, 1, 0, 1)) == 3


def test_antichain_is_hamming():
    p = _cover(4)
    assert p == LevelStructure((4,))
    assert _weight(p, (0, 1, 0, 1)) == 2
    rng = random.Random(1)
    for _ in range(20):
        v = tuple(rng.randint(0, 1) for _ in range(4))
        assert _weight(p, v) == sum(v)


def test_leveled_poset_matches_picture():
    # three levels {1,2} < {3} < {4,5,6}
    p = _cover(6, hierarchical_poset((2, 1, 3)))
    assert p == LevelStructure((2, 1, 3))
    assert _weight(p, _word(6, {5})) == 4  # {1, 2, 3, 5}
    assert _weight(p, _word(6, {3})) == 3  # {1, 2, 3}
    assert _weight(p, _word(6, {2})) == 1  # 1 and 2 are incomparable
    assert _weight(p, _word(6, {6})) == 4  # 1 <= 6 and 3 <= 6, 4 is not


def test_cover_poset_and_cycle_rejection():
    p = _cover(4, [(1, 2), (2, 3)])
    assert _weight(p, _word(4, {3})) == 3  # 1 <= 3 by transitivity
    assert _weight(p, _word(4, {4})) == 1  # 1 and 4 are incomparable
    for n, covers in ((3, [(1, 2), (2, 3), (3, 1)]), (2, [(1, 2), (2, 1)])):
        with pytest.raises(ValueError, match="contains a cycle"):
            _cover(n, covers)
    with pytest.raises(ValueError, match="relates a position to itself"):
        _cover(2, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        _cover(2, [(1, 5)])
    with pytest.raises(ValueError, match="must be a positive integer"):
        _cover(0)


def test_weight_length_mismatch():
    p = _cover(3, [(1, 2)])
    assert isinstance(p, Poset)
    with pytest.raises(ValueError, match="poset size 3 does not match code length 2"):
        count("poset", "code", span(F2, 2, [(1, 0)]), p)


def _random_covers(rng, n):
    pairs = set()
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(range(1, n + 1), 2)
        pairs.add((min(a, b), max(a, b)))  # edges point up, so acyclic
    return sorted(pairs)


def test_closure_operator_laws_on_random_posets():
    # the closure of a support is the OR of its positions' masks; position p is in it iff its mask is
    rng = random.Random(7)
    posets = 0
    for _ in range(60):
        n = rng.randint(2, 10)
        covers = _random_covers(rng, n)
        p = _cover(n, covers)
        if isinstance(p, LevelStructure):
            assert p.sizes == cover_level_sizes(n, covers)
            continue
        posets += 1
        assert cover_level_sizes(n, covers) is None
        assert sum(mask.bit_length() for mask in p.down) == n * (n + 1) // 2

        def closed(positions):
            return reduce(or_, (p.down[q - 1] for q in positions), 0)

        def members(mask):
            return {q for q in range(1, n + 1) if p.down[q - 1] | mask == mask}

        subset = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
        mask = closed(subset)
        assert members(mask) == cover_ideal(covers, subset)
        assert subset <= members(mask)  # extensive
        assert closed(members(mask)) == mask  # idempotent
        bigger = closed(subset | {rng.randint(1, n)})
        assert bigger | mask == bigger  # monotone
        assert _weight(p, _word(n, subset)) == mask.bit_count() >= len(subset)  # dominates Hamming
    assert posets >= 20


def test_leveled_weight_formula():
    # weight = all lower levels plus the support met in the top occupied level
    rng = random.Random(9)
    sizes = (2, 1, 3)
    p = _cover(6, hierarchical_poset(sizes))
    level_of = (None, 1, 1, 2, 3, 3, 3)  # by 1-based position
    for _ in range(50):
        v = tuple(rng.randint(0, 1) for _ in range(6))
        expected = 0
        support = {i + 1 for i, x in enumerate(v) if x}
        if support:
            top = max(level_of[pos] for pos in support)
            expected = sum(sizes[: top - 1]) + sum(1 for pos in support if level_of[pos] == top)
        assert _weight(p, v) == expected


def test_level_structure_validation():
    with pytest.raises(ValueError):
        LevelStructure(())
    with pytest.raises(ValueError):
        LevelStructure((2, 0))
    # sizes used to pass through int(): (2.7, 1) and ("2", "1") read as (2, 1), (True, 2) as (1, 2)
    for sizes, entry in (((2.7, 1), "2.7"), (("2", "1"), "'2'"), ((True, 2), "True"), ((2, 1.0), "1.0")):
        with pytest.raises(ValueError, match=f"a level size must be an integer, got {entry}"):
            LevelStructure(sizes)
    lv = LevelStructure((2, 1, 3))
    assert lv.n == 6 and lv.count == 3
    assert level_bounds(lv.sizes) == [(1, 2), (3, 3), (4, 6)]
    assert lv == LevelStructure([2, 1, 3]) != LevelStructure((2, 1))
    assert hash(lv) == hash(LevelStructure([2, 1, 3]))
    with pytest.raises(AttributeError):
        lv.sizes = (6,)


def test_a_hierarchical_cover_poset_is_read_as_its_level_sizes():
    assert _cover(6, hierarchical_poset((2, 1, 3))) == LevelStructure((2, 1, 3))
    assert _cover(4, hierarchical_poset((2, 1, 1))) == LevelStructure((2, 1, 1))
    assert _cover(3, [(1, 2), (2, 3)]) == LevelStructure((1, 1, 1))
    assert _cover(4) == LevelStructure((4,))
    # a pair implied by others and a repeated pair change nothing
    assert _cover(3, [(1, 2), (2, 3), (1, 3), (1, 2)]) == LevelStructure((1, 1, 1))


def test_a_non_hierarchical_cover_poset_carries_its_reason():
    # a vee: 1 < 3, 2 < 3 but with an extra incomparable bottom element 4
    p = _cover(4, [(1, 3), (2, 3)])
    assert isinstance(p, Poset)
    assert p.reason == (
        "positions 4 and 3 sit in adjacent levels but are incomparable; the poset is not hierarchical"
    )


def test_a_cover_poset_with_levels_out_of_coordinate_order_carries_its_reason():
    # hierarchy {1,3} < {2} has scattered bottom positions
    p = _cover(3, [(1, 2), (3, 2)])
    assert isinstance(p, Poset)
    assert p.reason == (
        "level 1 holds positions [1, 3] but must be the contiguous coordinate block starting at position 1"
    )


def test_poset_from_json_obj():
    # the hierarchical kinds are read as their level sizes; so is a hierarchical cover poset
    assert poset_from_json_obj({"kind": "antichain", "n": 3}) == LevelStructure((3,))
    assert poset_from_json_obj({"kind": "chain", "n": 3}) == LevelStructure((1, 1, 1))
    assert poset_from_json_obj({"kind": "leveled", "levels": [2, 1, 1]}) == LevelStructure((2, 1, 1))
    cover = poset_from_json_obj(
        {"kind": "cover", "n": 6, "covers": [[1, 3], [2, 3], [3, 4], [3, 5], [3, 6]]}
    )
    assert cover == LevelStructure((2, 1, 3))
    with pytest.raises(ValueError):
        poset_from_json_obj({"kind": "spiral", "n": 3})


def test_poset_from_json_obj_checks_the_size_before_building():
    # built, a chain of 10^12 positions would never finish
    for obj in (
        {"kind": "chain", "n": 10**12},
        {"kind": "antichain", "n": 10**12},
        {"kind": "cover", "n": 10**12, "covers": []},
        {"kind": "leveled", "levels": [10**12, 1]},
    ):
        with pytest.raises(ValueError, match="poset size .* does not match code length 3"):
            poset_from_json_obj(obj, n=3)
    assert poset_from_json_obj({"kind": "chain", "n": 3}, n=3) == LevelStructure((1, 1, 1))


@pytest.mark.parametrize(
    "obj, held",
    [
        ({"kind": "antichain", "n": 4}, 4),
        ({"kind": "chain", "n": 4}, 10),
        ({"kind": "leveled", "levels": [2, 1, 3]}, 2 + 3 + 3 * 4),
        ({"kind": "cover", "n": 4, "covers": [[1, 2], [2, 3], [3, 4]]}, 10),
        ({"kind": "cover", "n": 4, "covers": [[1, 2]]}, 10),
        ({"kind": "cover", "n": 3, "covers": [[3, 1], [3, 2]]}, 6),
    ],
)
def test_poset_down_sets_are_held_against_the_cap(obj, held):
    # a level structure is held to the down-sets of its hierarchical poset, a Poset to its masks' bits
    shape = poset_from_json_obj(obj, cap=held)
    if isinstance(shape, Poset):
        unit = "bits"
        assert sum(mask.bit_length() for mask in shape.down) == held
    else:
        unit, covers = "entries", hierarchical_poset(shape.sizes)
        assert sum(len(cover_ideal(covers, [p])) for p in range(1, shape.n + 1)) == held
    with pytest.raises(CapExceededError, match=f"at least {held} {unit}, over the cap {held - 1}"):
        poset_from_json_obj(obj, cap=held - 1)


@pytest.mark.parametrize(
    "obj",
    [
        {"kind": "chain", "n": True},
        {"kind": "chain", "n": "3"},
        {"kind": "antichain", "n": 3.0},
        {"kind": "cover", "n": 0, "covers": []},
        {"kind": "leveled", "levels": [2, float("inf")]},
        {"kind": "leveled", "levels": [1.5, 1.5]},
        {"kind": "leveled", "levels": []},
        {"kind": "leveled"},
        {"kind": "cover", "n": 3, "covers": [[1, 2.0]]},
        {"kind": "cover", "n": 3, "covers": [[True, 2]]},
        {"kind": "cover", "n": 3, "covers": [[1, 2, 3]]},
        {"kind": "cover", "n": 3, "covers": {"1": 2}},
    ],
)
def test_poset_from_json_obj_names_malformed_fields(obj):
    names = "must be a positive integer|must be a list of|needs a non-empty list"
    with pytest.raises(ValueError, match=names):
        poset_from_json_obj(obj)
