import random

import pytest

from oracles import hierarchical_poset, level_bounds
from pwenum.errors import CapExceededError
from pwenum.posets import LevelStructure, Poset, level_partition, poset_from_json_obj


def test_chain_closure_and_weight():
    p = Poset(3, [(1, 2), (2, 3)])
    assert p.ideal_closure({3}) == {1, 2, 3}
    assert p.weight((0, 0, 1)) == 3
    assert p.weight((1, 1, 0)) == 2
    assert p.weight((0, 0, 0)) == 0


def test_antichain_is_hamming():
    p = Poset(4)
    assert p.ideal_closure({2, 4}) == {2, 4}
    rng = random.Random(1)
    for _ in range(20):
        v = tuple(rng.randint(0, 1) for _ in range(4))
        assert p.weight(v) == sum(v)


def test_leveled_poset_matches_picture():
    # three levels {1,2} < {3} < {4,5,6}
    p = hierarchical_poset((2, 1, 3))
    assert p.ideal_closure({5}) == {1, 2, 3, 5}
    assert p.ideal_closure({3}) == {1, 2, 3}
    assert not p.leq(1, 2)
    assert p.leq(1, 6) and p.leq(3, 4)


def test_cover_poset_and_cycle_rejection():
    p = Poset(4, [(1, 2), (2, 3)])
    assert p.leq(1, 3)  # transitive closure
    assert not p.leq(1, 4)
    with pytest.raises(ValueError):
        Poset(3, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(ValueError):
        Poset(2, [(1, 1)])
    with pytest.raises(ValueError):
        Poset(2, [(1, 5)])
    with pytest.raises(ValueError):
        Poset(0)


def test_weight_length_mismatch():
    with pytest.raises(ValueError):
        Poset(3, [(1, 2), (2, 3)]).weight((1, 0))


def test_closure_operator_laws_on_random_posets():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 10)
        pairs = set()
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.sample(range(1, n + 1), 2)
            pairs.add((min(a, b), max(a, b)))  # edges point up, so acyclic
        p = Poset(n, pairs)
        subset = frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
        closed = p.ideal_closure(subset)
        assert subset <= closed  # extensive
        assert p.ideal_closure(closed) == closed  # idempotent
        bigger = subset | {rng.randint(1, n)}
        assert p.ideal_closure(bigger) >= closed  # monotone
        v = tuple(1 if i + 1 in subset else 0 for i in range(n))
        assert p.weight(v) >= sum(v)  # poset weight dominates Hamming


def test_leveled_weight_formula():
    # weight = all lower levels plus the support met in the top occupied level
    rng = random.Random(9)
    sizes = (2, 1, 3)
    p = hierarchical_poset(sizes)
    level_of = (None, 1, 1, 2, 3, 3, 3)  # by 1-based position
    for _ in range(50):
        v = tuple(rng.randint(0, 1) for _ in range(6))
        expected = 0
        support = {i + 1 for i, x in enumerate(v) if x}
        if support:
            top = max(level_of[pos] for pos in support)
            expected = sum(sizes[: top - 1]) + sum(1 for pos in support if level_of[pos] == top)
        assert p.weight(v) == expected


def test_level_structure_validation():
    with pytest.raises(ValueError):
        LevelStructure(())
    with pytest.raises(ValueError):
        LevelStructure((2, 0))
    lv = LevelStructure((2, 1, 3))
    assert lv.n == 6 and lv.count == 3
    assert level_bounds(lv.sizes) == [(1, 2), (3, 3), (4, 6)]
    assert lv == LevelStructure([2, 1, 3]) != LevelStructure((2, 1))
    assert hash(lv) == hash(LevelStructure([2, 1, 3]))
    with pytest.raises(AttributeError):
        lv.sizes = (6,)


def test_level_partition():
    assert level_partition(hierarchical_poset((2, 1, 3))).sizes == (2, 1, 3)
    assert level_partition(hierarchical_poset((2, 1, 1))).sizes == (2, 1, 1)
    assert level_partition(Poset(3, [(1, 2), (2, 3)])).sizes == (1, 1, 1)
    assert level_partition(Poset(4)).sizes == (4,)
    passthrough = LevelStructure((3, 2))
    assert level_partition(passthrough) is passthrough


def test_level_partition_rejects_non_hierarchical():
    # a vee: 1 < 3, 2 < 3 but with an extra incomparable bottom element 4
    p = Poset(4, [(1, 3), (2, 3)])
    with pytest.raises(ValueError, match="not hierarchical"):
        level_partition(p)


def test_level_partition_rejects_non_contiguous_levels():
    # hierarchy {1,3} < {2} has scattered bottom positions
    p = Poset(3, [(1, 2), (3, 2)])
    with pytest.raises(ValueError, match="contiguous"):
        level_partition(p)


def test_poset_from_json_obj():
    # the hierarchical kinds are read as their level sizes; only covers build a Poset
    assert poset_from_json_obj({"kind": "antichain", "n": 3}) == LevelStructure((3,))
    assert poset_from_json_obj({"kind": "chain", "n": 3}) == LevelStructure((1, 1, 1))
    assert poset_from_json_obj({"kind": "leveled", "levels": [2, 1, 1]}) == LevelStructure((2, 1, 1))
    cover = poset_from_json_obj(
        {"kind": "cover", "n": 6, "covers": [[1, 3], [2, 3], [3, 4], [3, 5], [3, 6]]}
    )
    assert isinstance(cover, Poset) and cover.down == hierarchical_poset((2, 1, 3)).down
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
    "obj, entries",
    [
        ({"kind": "antichain", "n": 4}, 4),
        ({"kind": "chain", "n": 4}, 10),
        ({"kind": "leveled", "levels": [2, 1, 3]}, 2 + 3 + 3 * 4),
        ({"kind": "cover", "n": 4, "covers": [[1, 2], [2, 3], [3, 4]]}, 10),
    ],
)
def test_poset_down_sets_are_held_against_the_cap(obj, entries):
    # a hierarchical kind builds no down-set, but is held to those of its poset given by covers
    shape = poset_from_json_obj(obj, cap=entries)
    poset = shape if isinstance(shape, Poset) else hierarchical_poset(shape.sizes)
    assert sum(len(d) for d in poset.down.values()) == entries
    with pytest.raises(CapExceededError, match=f"over the cap {entries - 1}"):
        poset_from_json_obj(obj, cap=entries - 1)


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
