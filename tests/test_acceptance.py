"""Acceptance suite: one test per criterion, one printed line per criterion.

The randomized-identity criteria (2, 6, 7) share a single 500-instance fuzz
run; everything else is exact and fast.
"""

import random

import pytest

from oracles import (
    character_ideal_sum,
    collapse_to_x,
    enumerate_ideals,
    hadamard_check,
    inner_product,
    mspotty_distance,
    unkeyed,
)
from pwenum.cli import parse_ring_spec, run_fuzz, run_paper_examples
from pwenum.codes import dual_code, span
from pwenum.enumerators import weight_spectrum
from pwenum.macwilliams import count, level_transform, render
from pwenum.posets import LevelStructure
from pwenum.rings import default_character, verify_generating_character

CATALOG_NAMES = ("F2", "F3", "F4", "Z4", "F2u", "F2v")
FUZZ_ITERS = 500
FUZZ_SEED = 2026


def report(number, description):
    print(f"PASS criterion {number}: {description}")


@pytest.fixture(scope="module")
def fuzz_results():
    return run_fuzz(FUZZ_ITERS, seed=FUZZ_SEED, bound=2**14)


def test_criterion_1_worked_example_corpus():
    ok, lines = run_paper_examples()
    assert ok, "\n".join(lines)
    assert len(lines) == 16
    report(1, "worked-example corpus matches all golden fixtures exactly")


def test_criterion_2_identity_fuzz(fuzz_results):
    assert fuzz_results["count"] == FUZZ_ITERS
    assert fuzz_results["failures"] == []
    seen = {record["ring"] for record in fuzz_results["instances"]}
    assert seen == set(CATALOG_NAMES)
    for record in fuzz_results["instances"]:
        for kind in ("byte", "complete", "level", "mspotty"):
            assert record[kind] is True
    report(2, f"{FUZZ_ITERS} random instances, all four transforms equal the dual, 0 failures")


def test_criterion_3_classical_hamming_reduction():
    f2 = parse_ring_spec("F2")
    code = span(
        f2,
        7,
        [
            (1, 0, 0, 0, 0, 1, 1),
            (0, 1, 0, 0, 1, 0, 1),
            (0, 0, 1, 0, 1, 1, 0),
            (0, 0, 0, 1, 1, 1, 1),
        ],
    )
    assert code.size == 16
    antichain = LevelStructure((7,))
    weights = count("poset", "code", code, antichain)
    assert render("poset", weights) == "1 + 7x^3 + 7x^4 + x^7"

    # independent oracle: brute-force dual enumeration over the 8-word dual
    dual = dual_code(code)
    assert dual.size == 8
    dual_weights = count("poset", "code", dual, antichain)
    assert render("poset", dual_weights) == "1 + 7x^4"

    singles = LevelStructure((1,) * 7)
    transformed = level_transform(weight_spectrum(code, singles), singles, f2.q)
    assert collapse_to_x(unkeyed(singles.sizes, transformed), singles.sizes) == dual_weights
    report(3, "antichain levels over F2 reproduce the classical identity on the [7,4] code")


def test_criterion_4_character_and_ideal_suite():
    rng = random.Random(404)
    for name in CATALOG_NAMES:
        ring = parse_ring_spec(name)
        eps = default_character(ring)
        assert verify_generating_character(ring, eps)
        for ideal in enumerate_ideals(ring):
            total = character_ideal_sum(ring, eps, ideal)
            if len(ideal) == 1:
                assert total == 1
            else:
                assert total == 0
                assert total - 1 == -1  # the sum without the zero element
        for _ in range(50):
            n = rng.randint(1, 3)
            gens = [
                tuple(rng.randrange(ring.q) for _ in range(n))
                for _ in range(rng.randint(0, 2))
            ]
            code = span(ring, n, gens)
            f = {
                tuple(rng.randrange(ring.q) for _ in range(n)): rng.randint(-4, 4)
                for _ in range(rng.randint(1, 10))
            }
            assert hadamard_check(ring, eps, code, f).equal
    report(4, "generating characters, ideal sums, and 50 transform checks per ring")


def test_criterion_5_metric_suite():
    rng = random.Random(505)
    configs = (
        (LevelStructure((2, 1, 3)), (2, 1, 2)),
        (LevelStructure((3, 3)), (1, 3)),
    )
    for name in CATALOG_NAMES:
        ring = parse_ring_spec(name)
        for levels, t in configs:
            n = levels.n
            for _ in range(10_000):
                u, v, w = (
                    tuple(rng.randrange(ring.q) for _ in range(n)) for _ in range(3)
                )
                duv = mspotty_distance(u, v, levels, t)
                assert duv >= 0
                assert (duv == 0) == (u == v)
                assert duv == mspotty_distance(v, u, levels, t)
                assert duv <= (
                    mspotty_distance(u, w, levels, t) + mspotty_distance(w, v, levels, t)
                )
    report(5, "spotty distance satisfies all metric axioms on 10^4 triples per configuration")


def test_criterion_6_duality_suite(fuzz_results):
    for record in fuzz_results["instances"]:
        assert record["duality"] is True
    report(6, "size product and double-dual identities hold on all fuzz instances")


def test_criterion_7_integrity_suite(fuzz_results):
    # any IntegrityError inside a transform would have been recorded as an error
    for record in fuzz_results["instances"]:
        assert "error" not in record, record
        assert record["byte"] is True
    report(7, "every byte tally passed the orthogonality check, every division was exact")


def test_catalog_duality_spot_check():
    # small deterministic complement to the fuzz: every ring, fixed code
    for name in CATALOG_NAMES:
        ring = parse_ring_spec(name)
        code = span(ring, 2, [(1, 1)])
        dual = dual_code(code)
        assert code.size * dual.size == ring.q**2
        assert all(
            inner_product(ring, u, v) == 0
            for u in code.words
            for v in dual.words
        )
