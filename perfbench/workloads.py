"""Seeded workloads: each one is a stream of `pwenum` CLI invocations.

A workload is a fixed cycle of instance shapes (kind, ring, level sizes,
number of generators).  The seed draws everything inside a shape: the
generator entries, the column order and the spotty thresholds.  Fixing the
shapes keeps the cost of a run steady from seed to seed; varying their
contents keeps the inputs honest.  `fuzz-small` cycles through a fixed deck
of shapes drawn as `run_fuzz` draws them.

This module is stdlib only; it must not import `pwenum`, because the
benchmark generates its inputs without the program it measures.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from math import gcd

# ring alias -> (--ring argument, q, additive exponent e)
RINGS = {
    "F2": ("F2", 2, 2),
    "F3": ("F3", 3, 3),
    "F4": ("F4", 4, 2),
    "Z4": ("Z4", 4, 4),
    "F2u": ("F2u", 4, 2),
    "F2v": ("F2v", 4, 2),
    "GF8": ('{"kind":"GF","p":2,"k":3,"modulus":[1,1,0,1]}', 8, 2),
    "GF9": ('{"kind":"GF","p":3,"k":2,"modulus":[1,0,1]}', 9, 3),
    "Z8": ("Z8", 8, 8),
    "Z9": ("Z9", 9, 9),
    "Z16": ("Z16", 16, 16),
    "Z27": ("Z27", 27, 27),
    "Z32": ("Z32", 32, 32),
    "GF49": ('{"kind":"GF","p":7,"k":2,"modulus":[1,0,1]}', 49, 7),
    "Z64": ("Z64", 64, 64),
    "GF64": ('{"kind":"GF","p":2,"k":6,"modulus":[1,1,0,0,0,0,1]}', 64, 2),
}

CATALOG = ("F2", "F3", "F4", "Z4", "F2u", "F2v")
FUZZ_BOUND = 2**14
FUZZ_KINDS = ("byte", "complete", "level", "mspotty")


def phi(e: int) -> int:
    """Euler's totient: the degree of Z[zeta_e] over Z."""
    return sum(1 for k in range(1, e + 1) if gcd(k, e) == 1)


class Workload:
    """A named op stream plus the facts the benchmark needs to run it.

    `shapes` is the cycle of (kind, ring, level sizes, generators) tuples.
    A cycle of single-op shapes holds 15 of them: each shape is 1/15 of the
    ops, so p50 (7.5/15) and p90 (13.5/15) fall mid-way into one shape's
    latencies, not on the edge between two shapes, where they would jump.
    Kind "fuzz" is one instance verified as four ops, one per transform
    kind; every other kind is one op.  Generators are systematic, so |C| is
    fixed by the shape.  `trace_rate` is the op rate (ops/s) that
    sizes the fixed op count of a traced run, the same on every commit.
    """

    def __init__(self, name, shapes, trace_rate):
        self.name = name
        self.shapes = tuple(shapes)
        self.trace_rate = trace_rate

    @property
    def cycle(self) -> int:
        """Ops in one pass over the shapes; timed runs end on a whole cycle."""
        return sum(len(FUZZ_KINDS) if kind == "fuzz" else 1 for kind, *_ in self.shapes)

    @property
    def first_ring(self) -> str:
        """The ring of the first op, which set-up builds once."""
        return self.shapes[0][1]

    def ops(self, seed: int):
        """Endless, seed-determined stream of ops."""
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            for kind, ring, sizes, k in self.shapes:
                if kind == "fuzz":
                    yield from _fuzz_ops(rng, ring, sizes, k)
                else:
                    yield _systematic_op(rng, kind, ring, sizes, k)


def _op(kind, ring, sizes, generators, t=None):
    spec, q, e = RINGS[ring]
    n = sum(sizes)
    argv = [
        "verify",
        "--kind", kind,
        "--ring", spec,
        "--poset", "leveled:" + ",".join(map(str, sizes)),
        "--code", json.dumps({"length": n, "generators": generators}, separators=(",", ":")),
    ]
    if t is not None:
        argv += ["--t", ",".join(map(str, t))]
    return {
        "argv": argv,
        "kind": kind,
        "ring": ring,
        "levels": list(sizes),
        "q": q,
        "n": n,
        "gens": len(generators),
        "e": e,
        "phi": phi(e),
    }


def _systematic(rng, q, n, k):
    """k generators [I_k | random], columns shuffled, so that |C| = q^k exactly."""
    rows = [[int(i == j) for j in range(k)] + [rng.randrange(q) for _ in range(n - k)] for i in range(k)]
    order = list(range(n))
    rng.shuffle(order)
    return [[row[c] for c in order] for row in rows]


def _systematic_op(rng, kind, ring, sizes, k):
    generators = _systematic(rng, RINGS[ring][1], sum(sizes), k)
    t = [rng.randint(1, s) for s in sizes] if kind == "mspotty" else None
    return _op(kind, ring, sizes, generators, t)


def _fuzz_ops(rng, ring, sizes, k):
    """One fuzz instance, verified as four ops, one per transform kind."""
    n = sum(sizes)
    generators = _systematic(rng, RINGS[ring][1], n, min(k, n))
    t = [rng.randint(1, s) for s in sizes]
    for kind in FUZZ_KINDS:
        yield _op(kind, ring, sizes, generators, t if kind == "mspotty" else None)


def fuzz_deck(per_ring: int) -> list:
    """Instance shapes drawn as `run_fuzz` draws them, per_ring of each ring.

    The deck is fixed, not seeded: the costs of these instances span three
    orders of magnitude, so a fresh draw per seed would move ops_per_s by
    more than the bound.  The seed still draws every generator and t.
    Unlike `run_fuzz`, the generators are systematic: random generators
    can span a tiny code, whose dual enumerators then set the peak memory
    and the slowest ops of a run, differently for every seed.
    """
    rng = random.Random("fuzz-small/deck")
    deck = []
    for ring in CATALOG * per_ring:
        q = RINGS[ring][1]
        while True:
            sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
            if q ** sum(sizes) <= FUZZ_BOUND:
                break
        deck.append(("fuzz", ring, tuple(sizes), rng.randint(1, 3)))
    rng.shuffle(deck)
    return deck


def descriptors(ops) -> dict:
    """Static facts about the ops a run executed, for shares of a property."""
    ops = list(ops)
    if not ops:
        return {"op_count": 0}
    ambient = [op["q"] ** op["n"] for op in ops]
    return {
        "op_count": len(ops),
        "kind_mix": dict(Counter(op["kind"] for op in ops)),
        "ring_mix": dict(Counter(op["ring"] for op in ops)),
        "qn_range": [min(ambient), max(ambient)],
        "levels_range": [min(len(op["levels"]) for op in ops), max(len(op["levels"]) for op in ops)],
        "e_phi_mix": dict(Counter(f"{op['e']}/{op['phi']}" for op in ops)),
    }


WORKLOADS = {
    w.name: w
    for w in (
        # Thousands of tiny calls: fixed per-call costs show (argparse, ring
        # rebuild, polynomial canonicalisation, repeated weight_spectrum).
        Workload(
            "fuzz-small",
            fuzz_deck(per_ring=8),
            trace_rate=80,
        ),
        # byte_transform does most of the work, over e = 2, 3, 4, 8, 9; the
        # complete transform never runs and the dual scan is a small share.
        Workload(
            "byte-wide",
            (
                ("byte", "F2", (4, 4, 4), 6),
                ("byte", "F3", (4, 3), 4),
                ("byte", "F4", (3, 3), 3),
                ("byte", "Z4", (2, 2, 2), 3),
                ("byte", "F2", (6, 6), 7),
                ("byte", "F2u", (3, 3), 3),
                ("byte", "GF8", (2, 2), 2),
                ("byte", "F2v", (2, 2, 2), 3),
                ("byte", "Z8", (2, 2), 2),
                ("byte", "F3", (3, 2, 2), 4),
                ("byte", "GF9", (2, 2), 2),
                ("byte", "Z9", (2, 2), 2),
                ("byte", "F4", (2, 2, 2), 3),
                ("byte", "F2v", (3, 3), 3),
                ("byte", "F3", (2, 2, 2, 1), 4),
            ),
            trace_rate=13,
        ),
        # Long codes on many levels: complete_transform and dual_code lead;
        # byte_transform never runs, so a byte-kernel change leaves it flat.
        Workload(
            "spectrum-deep",
            (
                ("complete", "F2", (2, 2, 2, 2, 2, 2, 2), 4),
                ("level", "Z4", (2, 2, 1, 1), 3),
                ("level", "F2", (3, 3, 3, 3, 2), 4),
                ("complete", "F3", (2, 2, 2, 2), 3),
                ("mspotty", "F2", (4, 4, 4, 3), 5),
                ("mspotty", "F4", (2, 2, 2, 1), 4),
                ("complete", "F2u", (2, 2, 1, 1, 1), 3),
                ("mspotty", "F2", (2, 2, 2, 2, 2, 2), 5),
                ("level", "F3", (2, 2, 2, 1, 1), 4),
                ("complete", "F2", (3, 3, 3, 3), 4),
                ("complete", "Z4", (2, 2, 2, 1), 4),
                ("level", "F4", (2, 2, 1, 1, 1), 3),
                ("mspotty", "F3", (2, 2, 2, 2), 4),
                ("complete", "F2", (3, 3, 2, 2, 2), 5),
                ("complete", "F2", (2, 2, 2, 2, 2, 2), 4),
            ),
            trace_rate=11,
        ),
        # Rings of 16-64 elements: the only workload where make_ring's O(q^3)
        # table check matters and where the byte transform runs at e = 64.
        Workload(
            "big-ring",
            (
                ("complete", "Z64", (1, 1), 1),
                ("byte", "GF64", (1, 1), 1),
                ("complete", "GF49", (1, 1), 1),
                ("byte", "Z27", (1, 1), 1),
                ("complete", "Z32", (1, 1), 1),
                ("byte", "Z16", (1, 1, 1), 1),
                ("byte", "Z64", (1, 1), 1),
                ("complete", "Z16", (1, 1, 1), 2),
                ("complete", "Z27", (1, 1, 1), 1),
                ("byte", "Z32", (1, 1), 1),
                ("complete", "GF64", (1, 1), 1),
                ("byte", "GF49", (1, 1), 1),
                ("byte", "Z16", (2, 1), 1),
                ("complete", "Z32", (1, 1, 1), 1),
                ("byte", "Z32", (1, 1), 2),
            ),
            trace_rate=12,
        ),
    )
}
