"""Partial orders on coordinate positions 1..n, and level structures.

Positions are 1-based to match codeword coordinates.  A Poset, given by
cover pairs, stores the full down-set of every position, so ideal closures
and position weights reduce to set unions and cardinalities.

A LevelStructure is an ordered partition of the coordinates into
contiguous blocks.  It stands for the hierarchical poset on them, every
position of a level below all of the next (the antichain is one level, the
chain n levels of 1), which is never built; level_partition() reads the
sizes off a hierarchical Poset given by covers.
"""

from __future__ import annotations

from .errors import CapExceededError


def _hold(total: int, cap: int | None) -> None:
    """Refuse a poset whose down-sets hold at least total > cap entries."""
    if cap is not None and total > cap:
        raise CapExceededError(f"poset down-sets hold at least {total} entries, over the cap {cap}")


class Poset:
    """Partial order over positions 1..n given by cover pairs (lower, upper).

    With a cap, construction stops with CapExceededError as soon as the
    down-sets built so far hold more than cap entries in total.
    """

    __slots__ = ("n", "down")

    def __init__(self, n: int, covers=(), cap: int | None = None):
        if n < 1:
            raise ValueError(f"poset size must be positive, got {n}")
        _hold(n, cap)  # each position's down-set holds at least itself
        below = {p: set() for p in range(1, n + 1)}
        for a, b in covers:
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"cover pair ({a}, {b}) out of range 1..{n}")
            if a == b:
                raise ValueError(f"cover pair ({a}, {a}) relates a position to itself")
            below[b].add(a)
        down: dict[int, frozenset[int]] = {}
        total = 0
        state = dict.fromkeys(range(1, n + 1), 0)  # 0 new, 1 active, 2 done
        for root in range(1, n + 1):
            if state[root]:
                continue
            stack = [(root, iter(below[root]))]
            state[root] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for child in it:
                    if state[child] == 1:
                        raise ValueError("cover relation contains a cycle")
                    if state[child] == 0:
                        state[child] = 1
                        stack.append((child, iter(below[child])))
                        advanced = True
                        break
                if not advanced:
                    acc = {node}
                    for child in below[node]:
                        acc |= down[child]
                    down[node] = frozenset(acc)
                    total += len(acc)
                    _hold(total, cap)
                    state[node] = 2
                    stack.pop()
        self.n = n
        self.down = down

    def ideal_closure(self, positions) -> frozenset[int]:
        """Smallest ideal containing the given positions (union of down-sets)."""
        out: set[int] = set()
        for p in positions:
            if not 1 <= p <= self.n:
                raise ValueError(f"position {p} out of range 1..{self.n}")
            out |= self.down[p]
        return frozenset(out)

    def weight(self, v) -> int:
        """Size of the smallest ideal containing the support of v."""
        if len(v) != self.n:
            raise ValueError(f"word length {len(v)} does not match poset size {self.n}")
        return len(self.ideal_closure(i + 1 for i, x in enumerate(v) if x))

    def leq(self, a: int, b: int) -> bool:
        return a in self.down[b]


def _positive(value, what: str) -> int:
    """A positive int from decoded JSON; bools, floats and text are refused by name."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")
    return value


def poset_from_json_obj(
    obj: dict, n: int | None = None, cap: int | None = None
) -> Poset | LevelStructure:
    """Read a JSON description such as {"kind": "chain", "n": 3}.

    The hierarchical kinds, antichain, chain and leveled, give their
    LevelStructure; only the cover kind builds a Poset.  The declared size
    is checked against n, when given, before anything is built, and the
    total size of the down-sets against cap: by its closed form for the
    hierarchical kinds, and as the down-sets are built for the cover kind.
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
        size = _positive(obj.get("n"), f"the size n of a {kind} poset")
    else:
        raise ValueError(f"unknown poset kind {kind!r}")
    if n is not None and size != n:
        raise ValueError(f"poset size {size} does not match code length {n}")
    if kind == "antichain":
        _hold(size, cap)
        return LevelStructure((size,))
    if kind == "chain":
        _hold(size * (size + 1) // 2, cap)
        return LevelStructure((1,) * size)
    if kind == "leveled":
        total = below = 0
        for s in sizes:  # a position's down-set: itself and every lower level
            total += s * (below + 1)
            below += s
        _hold(total, cap)
        return LevelStructure(sizes)
    covers = obj.get("covers")
    if not isinstance(covers, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in covers
    ):
        raise ValueError("poset covers must be a list of [lower, upper] pairs")
    return Poset(size, [[_positive(x, "a cover position") for x in pair] for pair in covers], cap)


class LevelStructure:
    """Ordered partition of coordinates 1..n into contiguous blocks; immutable."""

    __slots__ = ("sizes",)

    def __init__(self, sizes):
        sizes = tuple(int(s) for s in sizes)
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


def level_partition(obj) -> LevelStructure:
    """Level sizes of a hierarchical poset (or pass a LevelStructure through).

    The levels are the height classes; the poset must relate every position
    of one level to every position of the next, and each level must occupy
    the contiguous block of coordinates right after the level below it.
    """
    if isinstance(obj, LevelStructure):
        return obj
    poset: Poset = obj
    heights = {}
    for p in sorted(range(1, poset.n + 1), key=lambda x: len(poset.down[x])):
        strictly_below = poset.down[p] - {p}
        heights[p] = 1 + max((heights[x] for x in strictly_below), default=-1)
    top = max(heights.values())
    levels = [sorted(p for p, h in heights.items() if h == i) for i in range(top + 1)]
    for lower, upper in zip(levels, levels[1:]):
        for a in lower:
            for b in upper:
                if not poset.leq(a, b):
                    raise ValueError(
                        f"positions {a} and {b} sit in adjacent levels but are "
                        "incomparable; the poset is not hierarchical"
                    )
    start = 1
    for level, block in enumerate(levels, start=1):
        if block != list(range(start, start + len(block))):
            raise ValueError(
                f"level {level} holds positions {block} but must be the contiguous "
                f"coordinate block starting at position {start}"
            )
        start += len(block)
    return LevelStructure(len(block) for block in levels)
