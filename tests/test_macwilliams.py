import random
from itertools import product

import pytest

from cyclotomic import CycInt, character_value
from oracles import _krawtchouk, hadamard_check, keyed, member_words, substitute
from pwenum import codes, enumerators, macwilliams
from pwenum.codes import LinearCode, dual_code, dual_indicator, span
from pwenum.enumerators import (
    byte_enumerator,
    complete_level_enumerator,
    weight_spectrum,
)
from pwenum.errors import CapExceededError, IntegrityError
from pwenum.macwilliams import (
    byte_transform,
    complete_transform,
    count,
    level_transform,
    mspotty_transform,
    render,
    verify_identity,
)
from pwenum.posets import LevelStructure, poset_from_json_obj
from pwenum.rings import default_character, make_ring

F2 = make_ring("Zm", m=2)
F3 = make_ring("Zm", m=3)
Z4 = make_ring("Zm", m=4)
F4 = make_ring("GF", p=2, k=2, modulus=[1, 1, 1])
CATALOG = (F2, F3, F4, Z4, make_ring("F2u"), make_ring("F2v"))

EX_CODE = span(F2, 4, [(1, 0, 1, 0), (0, 1, 1, 1)])
EX_LEVELS = LevelStructure((2, 1, 1))


def test_krawtchouk_values():
    assert _krawtchouk(2, 0, 1, 2) == 2
    assert _krawtchouk(2, 1, 1, 2) == 0
    for n in range(4):
        for l in range(n + 1):
            assert _krawtchouk(n, l, 0, 5) == 1


def test_krawtchouk_columns_by_the_recurrence_match_the_binomial_sums():
    # column p of the table holds K_p(l) for l = 0..n
    for n, q in ((0, 2), (1, 2), (5, 3), (12, 4), (30, 64), (128, 2)):
        expected = tuple(tuple(_krawtchouk(n, l, p, q) for l in range(n + 1)) for p in range(n + 1))
        assert macwilliams._krawtchouk_columns(n, q) == expected


def test_krawtchouk_matches_character_sum():
    # independent oracle: sum chi(<u, v>) over words v of fixed Hamming weight
    rng = random.Random(17)
    for ring in (F2, F3, F4, Z4):
        eps = default_character(ring)
        e = ring.exponent
        for n in (1, 2, 3):
            for _ in range(4):
                u = tuple(rng.randrange(ring.q) for _ in range(n))
                l = sum(1 for x in u if x)
                for p in range(n + 1):
                    total = CycInt(e)
                    for v in product(range(ring.q), repeat=n):
                        if sum(1 for x in v if x) != p:
                            continue
                        acc = 0
                        for a, b in zip(u, v):
                            acc = ring.add_table[acc][ring.mul_table[a][b]]
                        total = total + character_value(ring, eps, acc)
                    assert total == _krawtchouk(n, l, p, ring.q)


def test_byte_transform_reproduces_dual_enumerator():
    transformed = byte_transform(EX_CODE, EX_LEVELS)
    assert member_words(transformed, 2, 4) == list(byte_enumerator(dual_code(EX_CODE), EX_LEVELS))
    assert render("byte", transformed, 2, EX_LEVELS) == (
        "z_{1:00}z_{2:0}z_{3:0} + z_{1:01}z_{2:0}z_{3:1} + "
        "z_{1:10}z_{2:1}z_{3:1} + z_{1:11}z_{2:1}z_{3:0}"
    )


def test_byte_transform_of_zero_code_is_full_space():
    zero = span(F2, 3, [])
    levels = LevelStructure((2, 1))
    poly = byte_transform(zero, levels)
    assert poly == b"\x80" * 8  # every pattern combination, coefficient one
    assert member_words(poly, 2, 3) == list(byte_enumerator(dual_code(zero), levels))


def test_every_route_on_r_to_the_n_holds_its_cap_before_any_kernel_runs(monkeypatch):
    # the zero code of length 16: its dual is all of F2^16, 2^16 words against a cap of 100
    code, levels = span(F2, 16, []), LevelStructure((16,))

    def unreachable(code, eps):
        raise AssertionError("the byte kernel ran past the cap")

    monkeypatch.setattr(macwilliams, "_yates_tallies", unreachable)
    for kind, entry in macwilliams.KINDS.items():
        t = (1,) if kind == "mspotty" else None
        for route in entry.routes:
            if route == "dual" or (kind, route) == ("byte", "transform"):
                with pytest.raises(CapExceededError, match=r"q\^n = 2\^16 exceeds cap 100"):
                    macwilliams.count(kind, route, code, levels, t, cap=100)
            else:  # |C| = 1 word, or the 17 cells of the weight spectrum
                assert macwilliams.count(kind, route, code, levels, t, cap=100)


COVER_POSET = poset_from_json_obj({"kind": "cover", "n": 4, "covers": [[1, 3], [2, 3]]})
LEVEL_ROUTES = [
    (kind, route) for kind, entry in macwilliams.KINDS.items() if entry.levels for route in entry.routes
]


@pytest.mark.parametrize(
    "shape, message",
    [
        (LevelStructure((2, 1)), "level structure size 3 does not match code length 4"),
        (COVER_POSET, "incomparable; the poset is not hierarchical"),
    ],
    ids=("wrong-size", "cover-poset"),
)
@pytest.mark.parametrize(  # a (kind, route) pair is counted; a kind alone is verified
    "call", [*LEVEL_ROUTES, *macwilliams.TRANSFORM_KINDS], ids=lambda call: "/".join(call) if isinstance(call, tuple) else call
)
def test_level_routes_and_identities_refuse_a_wrong_shape_before_any_kernel(monkeypatch, call, shape, message):
    code = span(F2, 4, [(1, 0, 1, 0), (0, 1, 1, 1)])  # ex51, with no index listed yet

    def unreachable(*args):
        raise AssertionError("a kernel ran on a shape that is no level structure of the code")

    monkeypatch.setattr(macwilliams, "_yates_tallies", unreachable)
    monkeypatch.setattr(codes, "_half_syndromes", unreachable)
    monkeypatch.setattr(codes, "_half_weight_counts", unreachable)  # the weight dual route's trellis
    monkeypatch.setattr(LinearCode, "span_columns", unreachable)  # the code side's words
    t = (1, 1, 1)  # one threshold per level of ex51's levels (2, 1, 1)
    with pytest.raises(ValueError, match=message):
        if isinstance(call, tuple):
            count(*call, code, shape, t)
        else:
            verify_identity(call, code, shape, t)


@pytest.mark.parametrize("name", ["krawtchouk_contraction", "complete_transform", "level_transform", "mspotty_transform"])
def test_the_contraction_refuses_a_cover_poset_before_reading_the_spectrum(name):
    class Unread(dict):
        def items(self):
            raise AssertionError("a spectrum entry was read")

        keys = values = __iter__ = items

    t = ((1, 1),) if name == "mspotty_transform" else ()
    with pytest.raises(ValueError, match="incomparable; the poset is not hierarchical"):
        getattr(macwilliams, name)(Unread({0: 1, 5: 1}), COVER_POSET, *t, 2, 2)


def test_the_tracer_names_are_their_kernels():
    assert macwilliams.complete_transform is macwilliams.level_transform is macwilliams.krawtchouk_contraction
    assert enumerators.complete_level_enumerator is enumerators.level_enumerator is weight_spectrum


def _check_each_corrupted_pattern(monkeypatch, code, levels):
    """A count moved from field 0 to field 1 fails the integrity check wherever it sits.

    It moves at the last pattern, at the first slot of a final row equal to
    an earlier one, and at the first pattern: 1 - zeta_e is no integer.
    """
    ring = code.ring
    clean = byte_transform(code, levels)
    assert member_words(clean, ring.q, code.n) == list(byte_enumerator(dual_code(code), levels))
    tallies = macwilliams._yates_tallies
    field, rows, period, size = tallies(code, default_character(ring))
    assert size == code.size
    repeated = next(r for r in range(1, len(rows)) if rows[r] in rows[:r])
    slot_bits = 8 * -(-2 * ring.exponent * field // 8)  # 2e fields of field bits, padded to whole bytes
    for index in (ring.q**code.n - 1, repeated * period, 0):

        def corrupted(code, eps, index=index):
            field, rows, period, size = tallies(code, eps)
            row, k = divmod(index, period)
            at = k * slot_bits
            rows[row] += (1 << (at + field)) - (1 << at)
            return field, rows, period, size

        monkeypatch.setattr(macwilliams, "_yates_tallies", corrupted)
        with pytest.raises(IntegrityError, match="did not collapse to an integer"):
            byte_transform(code, levels)


def test_byte_transform_checks_every_pattern(monkeypatch):
    # the rows of <(1, 2, 0, 1)> repeat: a row's tallies depend on b1 + 2 b2 alone
    _check_each_corrupted_pattern(monkeypatch, span(F3, 4, [(1, 2, 0, 1)]), LevelStructure((2, 2)))


def test_byte_transform_checks_every_pattern_after_a_split_step(monkeypatch):
    # Z64 is stepped through H = {0, 8, ..., 56}; the final rows of <(2, 1)>
    # repeat, since a row's tallies depend on 2 b1 alone
    z64 = make_ring("Zm", m=64)
    _check_each_corrupted_pattern(monkeypatch, span(z64, 2, [(2, 1)]), LevelStructure((1, 1)))


def _tally(counts, field=9):  # fields of 9 bits: no field starts on a byte but the first
    return sum(c << field * r for r, c in enumerate(counts))


@pytest.mark.parametrize("e", (2, 3, 4, 6, 64))
def test_byte_coefficient_of_each_subgroup_tally(e):
    size = 3 * e
    assert macwilliams._byte_coefficient(_tally([size] + [0] * (e - 1)), e, 9, size) == 1
    for g in range(1, e):  # H = {0, g, 2g, ...}, |C|/|H| = size g / e on each element
        if e % g == 0:
            counts = ([size * g // e] + [0] * (g - 1)) * (e // g)
            assert macwilliams._byte_coefficient(_tally(counts), e, 9, size) == 0


@pytest.mark.parametrize(
    "counts, size",
    [
        ((0, 0, 0, 0), 6),  # reduces to 0, but the zero word alone puts a count at 0
        ((2, 1, 2, 1), 6),  # 2 + zeta - 2 - zeta = 0 in Z[zeta_4], but not constant on Z4
        ((3, 0, 3, 0), 4),  # constant on {0, 2}, but sums to 6
        ((1, 0, 0, 0, 1, 0), 2),  # {0, 4} is no subgroup of Z6
        ((0, 1, 1, 1), 3),
    ],
)
def test_byte_coefficient_refuses_a_tally_no_homomorphism_gives(counts, size):
    with pytest.raises(IntegrityError, match="did not collapse to an integer"):
        macwilliams._byte_coefficient(_tally(counts), len(counts), 9, size)


def test_complete_transform_example():
    spectrum = weight_spectrum(EX_CODE, EX_LEVELS)
    poly = complete_transform(spectrum, EX_LEVELS, F2.q, EX_CODE.size)
    assert poly == complete_level_enumerator(dual_code(EX_CODE), EX_LEVELS)


def test_complete_transform_of_zero_code():
    levels = LevelStructure((2,))
    poly = complete_transform({0: 1}, levels, 3, 1)
    # dual of the zero code is the full space: binomial counts times (q-1)^p
    assert render("complete", poly, levels=levels) == "z_{1:0} + 4z_{1:1} + 4z_{1:2}"


def test_complete_transform_validates_spectrum():
    # levels (2, 1, 1) have the weight keys 0..11; weights (5, 0, 0) would be key 20
    for key in (20, 12, -1, (0, 0, 0), True):
        with pytest.raises(ValueError, match="is no weight key"):
            complete_transform({key: 1}, EX_LEVELS, 2, 1)
    with pytest.raises(ValueError):
        complete_transform({0: 1}, EX_LEVELS, 2, 2)
    # no code has these spectra, though each sums to |C| = 1; the first used to
    # contract to {0: 1, 1: 4, 2: 3}
    for spectrum in ({0: 2, 1: -1}, {0: 1, 1: 0}, {0: True}, {0: 1.0}):
        with pytest.raises(ValueError, match="is not a positive integer"):
            complete_transform(spectrum, LevelStructure((2,)), 2, 1)


def test_level_transform_examples():
    spectrum = weight_spectrum(EX_CODE, EX_LEVELS)
    poly = level_transform(spectrum, EX_LEVELS, F2.q, EX_CODE.size)
    assert render("level", poly, levels=EX_LEVELS) == "1 + z_1z_2z_3 + z_1z_3 + z_1^2z_2"
    singles = LevelStructure((1, 1, 1))
    c1 = span(F2, 3, [(0, 0, 1)])
    w = level_transform(weight_spectrum(c1, singles), singles, 2, c1.size)
    assert render("level", w, levels=singles) == "1 + z_1 + z_1z_2 + z_2"
    c2 = span(F2, 3, [(1, 1, 1)])
    w2 = level_transform(weight_spectrum(c2, singles), singles, 2, c2.size)
    assert render("level", w2, levels=singles) == "1 + z_1z_2 + z_1z_3 + z_2z_3"
    zero = span(F2, 1, [])
    one = LevelStructure((1,))
    assert render("level", level_transform({0: 1}, one, 2, 1), levels=one) == "1 + z_1"


def test_mspotty_transform_example():
    spectrum = weight_spectrum(EX_CODE, EX_LEVELS)
    poly = mspotty_transform(spectrum, EX_LEVELS, (2, 1, 1), F2.q, EX_CODE.size)
    assert render("mspotty", poly, levels=EX_LEVELS) == "1 + z_1z_2 + z_1z_2z_3 + z_1z_3"
    unit = mspotty_transform(spectrum, EX_LEVELS, (1, 1, 1), F2.q, EX_CODE.size)
    assert unit == level_transform(spectrum, EX_LEVELS, F2.q, EX_CODE.size)
    with pytest.raises(ValueError):
        mspotty_transform(spectrum, EX_LEVELS, (3, 1, 1), F2.q, EX_CODE.size)


def test_transform_self_consistency():
    rng = random.Random(53)
    for ring in CATALOG:
        sizes = tuple(rng.randint(1, 2) for _ in range(2))
        levels = LevelStructure(sizes)
        gens = [tuple(rng.randrange(ring.q) for _ in range(levels.n)) for _ in range(2)]
        code = span(ring, levels.n, gens)
        via_byte = dict.fromkeys(member_words(byte_transform(code, levels), ring.q, levels.n), 1)  # a set of words
        via_byte = substitute(via_byte, "byte->complete", levels=levels)
        via_byte = keyed(sizes, via_byte)
        direct = complete_transform(
            weight_spectrum(code, levels), levels, ring.q, code.size
        )
        assert via_byte == direct


def test_complete_transform_involution():
    rng = random.Random(54)
    for ring in CATALOG:
        levels = LevelStructure((2, 1))
        gens = [tuple(rng.randrange(ring.q) for _ in range(3)) for _ in range(2)]
        code = span(ring, 3, gens)
        dual = dual_code(code)
        forward = complete_transform(
            weight_spectrum(code, levels), levels, ring.q, code.size
        )
        assert forward == complete_level_enumerator(dual, levels)
        back = complete_transform(
            weight_spectrum(dual, levels), levels, ring.q, dual.size
        )
        assert back == complete_level_enumerator(code, levels)


def test_transforms_over_non_binary_rings():
    rng = random.Random(71)
    z4_code = span(Z4, 3, [tuple(rng.randrange(4) for _ in range(3)) for _ in range(2)])
    z4_levels = LevelStructure((2, 1))
    assert member_words(byte_transform(z4_code, z4_levels), 4, 3) == list(byte_enumerator(
        dual_code(z4_code), z4_levels
    ))
    f4_code = span(F4, 4, [tuple(rng.randrange(4) for _ in range(4)) for _ in range(2)])
    f4_levels = LevelStructure((2, 2))
    assert complete_transform(
        weight_spectrum(f4_code, f4_levels), f4_levels, F4.q, f4_code.size
    ) == complete_level_enumerator(dual_code(f4_code), f4_levels)
    f3_code = span(F3, 3, [tuple(rng.randrange(3) for _ in range(3)) for _ in range(2)])
    f3_levels = LevelStructure((2, 1))
    from pwenum.enumerators import mspotty_enumerator

    assert mspotty_transform(
        weight_spectrum(f3_code, f3_levels), f3_levels, (2, 1), F3.q, f3_code.size
    ) == mspotty_enumerator(dual_code(f3_code), f3_levels, (2, 1))


def test_identities_beyond_the_fuzz_catalog():
    # exercises cyclotomic orders 6 and 8 and a trace character over GF(9)
    rng = random.Random(99)
    rings = (
        make_ring("Zm", m=6),
        make_ring("Zm", m=8),
        make_ring("GF", p=3, k=2, modulus=[1, 1, 2]),  # normalized monic
    )
    for ring in rings:
        levels = LevelStructure((1, 1))
        gens = [tuple(rng.randrange(ring.q) for _ in range(2))]
        code = span(ring, 2, gens)
        for kind in ("byte", "complete", "level", "mspotty"):
            t = (1, 1) if kind == "mspotty" else None
            assert verify_identity(kind, code, levels, t=t).equal


def test_verify_identity_reports():
    for kind in ("byte", "complete", "level"):
        report = verify_identity(kind, EX_CODE, EX_LEVELS)
        assert report.equal and report.kind == kind
        assert report.lhs == report.rhs
    report = verify_identity("mspotty", EX_CODE, EX_LEVELS, t=(2, 1, 1))
    assert report.equal
    assert report.equal is True
    assert report.instance["ring"] == {"kind": "Zm", "m": 2}
    assert report.instance["t"] == [2, 1, 1]
    with pytest.raises(ValueError):
        verify_identity("poset", EX_CODE, EX_LEVELS)
    # it used to raise TypeError: 'NoneType' object is not iterable
    with pytest.raises(ValueError, match="the mspotty kind needs t"):
        verify_identity("mspotty", EX_CODE, EX_LEVELS)


@pytest.mark.parametrize("t, entry", [((1.9, 1, 1.2), "1.9"), ((True, 1, 1), "True"), ((2, "1", 1), "'1'")])
def test_verify_identity_refuses_a_t_entry_that_is_no_int(t, entry):
    # such an entry used to pass through int(): (1.9, 1, 1.2) folded as (1, 1, 1), EQUAL, and the
    # report recorded the unchecked t
    with pytest.raises(ValueError, match=f"t entry {entry} is not an integer"):
        verify_identity("mspotty", EX_CODE, EX_LEVELS, t=t)
    assert verify_identity("mspotty", EX_CODE, EX_LEVELS, t=[2, 1, 1]).instance["t"] == [2, 1, 1]


def test_verify_identity_reads_a_one_shot_t_once():
    # the fold of the dual side used to use up the iterator, and the transform side's fold
    # then refused it: "t has 0 entries for 3 levels"
    report = verify_identity("mspotty", EX_CODE, EX_LEVELS, t=iter((2, 1, 1)))
    assert report.equal and report.instance["t"] == [2, 1, 1]
    assert report == verify_identity("mspotty", EX_CODE, EX_LEVELS, t=(2, 1, 1))


LISTED_SPANS = {
    "F2": (F2, (2, 1, 1), [(1, 0, 1, 0), (0, 1, 1, 1)]),
    "Z4": (Z4, (2, 2), [(1, 3, 2, 1), (2, 2, 0, 2), (1, 3, 2, 1)]),
    "F2u": (CATALOG[4], (1, 2), [(1, 2, 3), (2, 2, 0)]),
    "GF9": (make_ring("GF", p=3, k=2, modulus=[1, 0, 1]), (2, 1), [(1, 5, 7), (0, 3, 3)]),
}


@pytest.mark.parametrize("name", LISTED_SPANS)
def test_no_weight_route_reads_a_word_of_a_listed_span(name, monkeypatch):
    # a code that run_fuzz has listed (it reads code.size first) used to have its words decoded
    # whole for every spectrum; the spectrum now closes the generators, listed or not
    ring, sizes, gens = LISTED_SPANS[name]
    levels = LevelStructure(sizes)
    runs = [
        (kind, route)
        for kind in ("complete", "level", "mspotty", "poset")
        for route in ("code", "transform")
        if route in macwilliams.KINDS[kind].routes
    ]
    fresh = span(ring, levels.n, gens)
    expected = [count(kind, route, fresh, levels, sizes) for kind, route in runs]
    assert repr(fresh) == f"LinearCode(n={levels.n}, over {ring!r})"  # counting listed nothing
    listed = span(ring, levels.n, gens)
    assert listed.size == sum(expected[0].values())

    def refuse(code):
        raise AssertionError("a weight route read a listed word")

    monkeypatch.setattr(LinearCode, "words", property(refuse))
    assert [count(kind, route, listed, levels, sizes) for kind, route in runs] == expected


def test_wrong_character_breaks_the_identity(monkeypatch):
    eps = bytes((0, 2, 0, 2))  # additive but not generating
    monkeypatch.setattr(macwilliams, "default_character", lambda ring: eps)
    code = span(Z4, 2, [(1, 2)])
    levels = LevelStructure((1, 1))
    try:
        assert byte_transform(code, levels) != dual_indicator(code)
    except IntegrityError:
        pass  # equally acceptable: the division check caught it first


def test_hadamard_indicator_of_zero():
    code = span(F3, 2, [(1, 2)])
    eps = default_character(F3)
    f = {(0, 0): 1}
    report = hadamard_check(F3, eps, code, f)
    assert report.equal and report.lhs == 1 and report.rhs == 1


def test_hadamard_constant_function():
    code = span(F3, 2, [(1, 2)])
    eps = default_character(F3)
    f = {v: 1 for v in product(range(3), repeat=2)}
    report = hadamard_check(F3, eps, code, f)
    dual = dual_code(code)
    assert report.equal and report.lhs == dual.size
    assert report.rhs == 3**2 // code.size


def test_hadamard_random_functions():
    rng = random.Random(61)
    eps = default_character(F3)
    for _ in range(10):
        gens = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(rng.randint(1, 2))]
        code = span(F3, 3, gens)
        f = {
            tuple(rng.randrange(3) for _ in range(3)): rng.randint(-5, 5)
            for _ in range(rng.randint(1, 12))
        }
        report = hadamard_check(F3, eps, code, f)
        assert report.equal


def test_hadamard_accepts_cyclotomic_values():
    eps = default_character(F2)
    code = span(F2, 2, [(1, 1)])
    f = {(1, 0): CycInt(2, (0, 1)), (0, 1): 2}
    report = hadamard_check(F2, eps, code, f)
    assert report.equal
    with pytest.raises(ValueError):
        hadamard_check(F2, eps, code, {(1, 0): CycInt(4, (1,))})
