"""Partial orders on coordinate positions 1..n, read as level structures where they can be.

Positions are 1-based to match codeword coordinates.  A LevelStructure is
an ordered partition of the coordinates into contiguous blocks.  It stands
for the hierarchical poset on them, every position of a level below all of
the next (the antichain is one level, the chain n levels of 1), which is
never built.  A cover poset that is hierarchical with its levels in
coordinate order is read as its LevelStructure; any other is a Poset.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from typing import NamedTuple

from .errors import CapExceededError


def _hold(total: int, cap: int | None, unit: str = "entries") -> None:
    """Refuse a poset whose down-sets hold at least total > cap entries (or bits)."""
    if cap is not None and total > cap:
        raise CapExceededError(f"poset down-sets hold at least {total} {unit}, over the cap {cap}")


class Poset(NamedTuple):
    """An order on positions 1..n, given by cover pairs, that no LevelStructure stands for.

    down[p - 1] is the down-set of position p as a bitmask: the r-th position
    in a topological order owns bit r, so masks take n(n+1)/2 bits in all.
    """

    down: tuple
    reason: str  # why the order is no LevelStructure, as the level kinds report it


def _positive(value, what: str) -> int:
    """A positive int from decoded JSON; bools, floats and text are refused by name."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return value


def poset_from_json_obj(
    obj: dict, n: int | None = None, cap: int | None = None
) -> Poset | LevelStructure:
    """Read a JSON description such as {"kind": "chain", "n": 3}.

    The antichain, chain and leveled kinds, and a cover poset that is
    hierarchical with its levels in coordinate order, give a LevelStructure;
    any other cover poset a Poset.  The size is checked against n, when
    given, before anything is built; then the down-sets against cap, by
    their closed form, or by the n(n+1)/2 bits a Poset's masks take.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("poset description must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "leveled":
        sizes = obj.get("levels")
        if not isinstance(sizes, list) or not sizes:
            raise ValueError(f"leveled poset needs a non-empty list of level sizes, got {sizes!r}")
        sizes = [_positive(s, "a level size") for s in sizes]
        size = sum(sizes)
    elif kind in ("antichain", "chain", "cover"):
        size = _positive(obj.get("n"), f"the size n of {'an' if kind == 'antichain' else 'a'} {kind} poset")
    else:
        raise ValueError(f"unknown poset kind {kind!r}")
    if n is not None and size != n:
        raise ValueError(f"poset size {size} does not match code length {n}")
    if kind == "antichain":
        return _leveled((size,), cap)
    if kind == "chain":
        _hold(size * (size + 1) // 2, cap)
        return LevelStructure((1,) * size)
    if kind == "leveled":
        return _leveled(sizes, cap)
    covers = obj.get("covers")
    if not isinstance(covers, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in covers
    ):
        raise ValueError("poset covers must be a list of [lower, upper] pairs")
    return _read_covers(size, [[_positive(x, "a cover position") for x in pair] for pair in covers], cap)


def _leveled(sizes, cap: int | None) -> LevelStructure:
    """These level sizes, once the down-sets of their hierarchical poset are held against cap."""
    total = below = 0
    for s in sizes:  # a position's down-set: itself and every lower level
        total += s * (below + 1)
        below += s
    _hold(total, cap)
    return LevelStructure(sizes)


def _read_covers(n: int, covers, cap: int | None) -> Poset | LevelStructure:
    """The order on positions 1..n that these (lower, upper) pairs generate.

    One pass in topological order gives each position its height and finds
    any cycle.  Positions of adjacent heights are comparable only through a
    given pair (a position between them would have a height between
    theirs), so the pairs alone decide whether the height classes are
    levels in coordinate order.  Only if not are down-set masks built.
    """
    _hold(n, cap)  # each position's down-set holds at least itself
    above: dict[int, set] = {}
    for a, b in covers:
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"cover pair ({a}, {b}) out of range 1..{n}")
        if a == b:
            raise ValueError(f"cover pair ({a}, {a}) relates a position to itself")
        above.setdefault(a, set()).add(b)
    waiting = Counter(b for bs in above.values() for b in bs)  # pairs from below not yet passed
    order = [p for p in range(1, n + 1) if p not in waiting]
    height = [0] * (n + 1)
    for p in order:  # grows as positions become minimal among those left
        for b in above.get(p, ()):
            height[b] = max(height[b], height[p] + 1)
            waiting[b] -= 1
            if not waiting[b]:
                order.append(b)
    if len(order) < n:
        raise ValueError("cover relation contains a cycle")
    levels = [[] for _ in range(max(height) + 1)]
    for p in range(1, n + 1):
        levels[height[p]].append(p)
    reason = _not_leveled(levels, above)
    if not reason:
        return _leveled([len(level) for level in levels], cap)
    _hold(n * (n + 1) // 2, cap, "bits")
    down = [0] * (n + 1)
    for rank, p in enumerate(order):
        down[p] |= 1 << rank
        for b in above.get(p, ()):
            down[b] |= down[p]
    return Poset(tuple(down[1:]), reason)


def _not_leveled(levels: list, above: dict) -> str:
    """Why these height classes are no LevelStructure, or "" if they are; one look-up per given pair."""
    for lower, upper in zip(levels, levels[1:]):
        for a in lower:
            for b in upper:
                if b not in above.get(a, ()):
                    return (
                        f"positions {a} and {b} sit in adjacent levels but are "
                        "incomparable; the poset is not hierarchical"
                    )
    start = 1
    for level, block in enumerate(levels, start=1):
        if block != list(range(start, start + len(block))):
            return (
                f"level {level} holds positions {block} but must be the contiguous "
                f"coordinate block starting at position {start}"
            )
        start += len(block)
    return ""


class LevelStructure:
    """Ordered partition of coordinates 1..n into contiguous blocks; immutable."""

    __slots__ = ("sizes",)

    def __init__(self, sizes):
        sizes = tuple(sizes)
        for s in sizes:
            if isinstance(s, bool) or not isinstance(s, int):
                raise ValueError(f"a level size must be an integer, got {s!r}")
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError(f"level sizes must be positive, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of a LevelStructure")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of a LevelStructure")

    def __eq__(self, other):
        if not isinstance(other, LevelStructure):
            return NotImplemented
        return self.sizes == other.sizes

    def __hash__(self):
        return hash(self.sizes)

    def __repr__(self):
        return f"LevelStructure(sizes={self.sizes})"

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def count(self) -> int:
        return len(self.sizes)

    @property
    def places(self) -> tuple[int, ...]:
        """R_j = prod over i > j of (n_i + 1): a weight key sums w_j R_j, level 1 most significant."""
        return tuple(prod(n + 1 for n in self.sizes[j + 1 :]) for j in range(self.count))
