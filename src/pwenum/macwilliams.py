"""MacWilliams-type transforms and the identity-verification harness.

Each transform computes a dual-code enumerator from the primal code alone,
through exact character sums; verify_identity() then compares the result
against the same enumerator, or weight spectrum, computed on the dual.
Intermediate coefficients are cyclotomic integers that must collapse to
rational integers and divide exactly by the code size; any remainder is
raised as an IntegrityError, never rounded.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, compress, count
from math import comb
from operator import itemgetter, lshift
from struct import iter_unpack
from typing import Callable, NamedTuple

from .codes import LinearCode, dual_code, dual_indices, dual_weight_spectrum
from .cyclotomic import CycInt
from .enumerators import (
    _check_levels,
    _check_t,
    byte_enumerator,
    byte_terms,
    complete_terms,
    plain_terms,
    poset_terms,
    poset_weight_enumerator,
    spotty_spectrum,
    weight_spectrum,
)
from .errors import IntegrityError
from .posets import LevelStructure
from .rings import Character, check_additive, default_character


class IdentityReport(NamedTuple):
    """Outcome of one identity check: transform output (lhs) vs direct computation (rhs).

    The sides are the two compared count dicts; render spells them.
    """

    kind: str
    equal: bool
    lhs: dict
    rhs: dict
    instance: dict


# Bits in one packed row of the in-row layout; see _layout.
ROW_BITS = 2**16


def _layout(q: int, e: int, code_size: int, n: int) -> tuple[int, int, bool]:
    """Field width in bytes, in-row coordinates m, and whether to transpose.

    A field holds one count of the group-ring value, so it must hold |C|.
    A pattern takes 2e fields, and the in-row layout packs the last m
    coordinates into each row: the largest m <= n with
    q^m * 2e * field bits <= ROW_BITS.  A step inside a row costs about q
    times a step between rows.  The transposed layout has no in-row steps,
    but its narrowest rows are q^(m - floor(n/2)) times narrower, so it pays
    more interpreter overhead per pattern: it is taken when that factor is
    at most q.
    """
    field = -(-code_size.bit_length() // 8)
    slot_bits = 2 * e * 8 * field
    m = 0
    while m < n and q ** (m + 1) * slot_bits <= ROW_BITS:
        m += 1
    return field, m, n >= 2 and m <= n // 2 + 1


def _twisted_sums(values: list, shifts: list) -> list:
    """For each b, the sum over a of values[a] << shifts[b][a], skipping zero values."""
    live = [a for a, v in enumerate(values) if v]
    if len(live) < len(values):
        values = [values[a] for a in live]
        shifts = [[sh[a] for a in live] for sh in shifts]
    return [sum(map(lshift, values, sh)) for sh in shifts]


def _step_rows(rows: list, q: int, shifts: list, low: int, half: int) -> None:
    """Apply chi(ab) in place along each of the k coordinates indexing q^k rows.

    Each group of q rows one stride apart is combined whole; low masks the
    lower half of every pattern in a row, for the fold of x^(e+j) onto x^j.
    """
    stride = len(rows)
    while stride > 1:
        stride //= q
        for base in range(0, len(rows), q * stride):
            for first in range(base, base + stride):
                group = rows[first : first + q * stride : stride]
                rows[first : first + q * stride : stride] = [
                    (acc & low) + ((acc >> half) & low) for acc in _twisted_sums(group, shifts)
                ]


def _serialize(rows: list, row_bytes: int) -> bytearray:
    """The rows' bytes end to end; each row is zeroed once copied, so one copy is held."""
    data = bytearray()
    for i, row in enumerate(rows):
        data += row.to_bytes(row_bytes, "little")
        rows[i] = 0
    return data


def _transpose(rows: list, row_bytes: int, slot_bytes: int) -> list:
    """The slot matrix transposed, as new rows: slot c of row r becomes slot r of row c.

    Each new row is gathered by C-level strided copies: one per byte of a
    slot when a slot has no more bytes than there are rows, else one per slot.
    """
    nrows = len(rows)
    data = _serialize(rows, row_bytes)
    col = bytearray(nrows * slot_bytes)
    out = []
    for c in range(0, row_bytes, slot_bytes):
        if slot_bytes <= nrows:
            for k in range(slot_bytes):
                col[k::slot_bytes] = data[c + k :: row_bytes]
        else:
            for r in range(nrows):
                at = r * row_bytes + c
                col[r * slot_bytes : (r + 1) * slot_bytes] = data[at : at + slot_bytes]
        out.append(int.from_bytes(col, "little"))
    return out


def _yates_tallies(code: LinearCode, chi: Character) -> tuple[int, bytearray, int]:
    """Tally of the exponents of chi(<b, u>) over u in C, for every b in R^n.

    Returns the field width in bytes, the tallies and a period P.  Each
    tally is e count fields followed by e zero fields; the tally of the
    pattern with lexicographic index r * q^n / P + c sits at position
    c * P + r, so P = 1 is lexicographic order.

    The leading coordinates index a list of rows and the others the
    patterns inside each row int.  In the in-row layout (see _layout) rows
    pack the last m coordinates, and those are stepped inside each row by
    digit slabs, cut out by one mask.  In the transposed layout rows pack
    the last floor(n/2) coordinates: the first ceil(n/2) are stepped between
    rows, the slot matrix is transposed, and the rest are stepped between
    the new rows; P is then q^ceil(n/2).
    """
    ring = code.ring
    q, e, n = ring.q, ring.exponent, code.n
    field, m, transposed = _layout(q, e, code.size, n)
    lead = n - n // 2 if transposed else n - m  # coordinates indexing the first rows
    half = 8 * field * e
    slot = 2 * half
    width, nrows = q ** (n - lead), q**lead
    row_bytes = width * slot // 8
    mul = ring.mul_table
    shifts = [[chi.exponents[mul[b][a]] * 8 * field for a in range(q)] for b in range(q)]

    def low(slots):  # the lower half of each of that many slots
        return int.from_bytes((b"\xff" * (half // 8) + bytes(half // 8)) * slots, "little")

    marks: dict[int, bytearray] = {}  # the indicator of C, by row
    for u in code.words:
        index = 0
        for x in u:
            index = index * q + x
        r, k = divmod(index, width)
        if r not in marks:
            marks[r] = bytearray(row_bytes)
        marks[r][k * slot // 8] = 1
    rows = [int.from_bytes(marks.pop(r), "little") if r in marks else 0 for r in range(nrows)]
    mask = low(width)
    _step_rows(rows, q, shifts, mask, half)

    if transposed:
        rows = _transpose(rows, row_bytes, slot // 8)
        row_bytes = nrows * slot // 8
        _step_rows(rows, q, shifts, low(nrows), half)
        return field, _serialize(rows, row_bytes), nrows

    for j in range(m):  # coordinates inside a row
        step = q ** (m - 1 - j) * slot
        digit0 = int.from_bytes(
            (b"\xff" * (step // 8) + bytes((q - 1) * step // 8)) * q**j, "little"
        )
        for i, row in enumerate(rows):
            if row:
                slabs = [(row >> (a * step)) & digit0 for a in range(q)]
                acc = sum(
                    part << (b * step) for b, part in enumerate(_twisted_sums(slabs, shifts))
                )
                rows[i] = (acc & mask) + ((acc >> half) & mask)
    return field, _serialize(rows, row_bytes), 1


def byte_transform(
    code: LinearCode, levels: LevelStructure, chi: Character | None = None
) -> dict[int, int]:
    """Dual byte enumerator from the primal code, by Yates' algorithm.

    The coefficient of z_{1:b1}...z_{s:bs}, with b the concatenated pattern, is
        (1/|C|) sum over u in C of chi(<b, u>),
    the n-fold tensor power of the q x q matrix chi(ab) applied to the
    indicator of C.  Yates' algorithm applies that matrix one coordinate at a
    time in the group ring Z[Z_e], where zeta_e is x: n q^(n+1) products of a
    value by a power of x, and each value ends as the tally of the character
    exponents <b, u> over the code.  The result is the nonzero
    {lexicographic index of b: coefficient}.

    A value is packed into a Python int as 2e byte-aligned count fields, so
    multiplying by x^r is a left shift by r fields; after each coordinate
    one mask-and-add folds field e+j back onto field j.  Row ints pack the
    patterns of the trailing coordinates and a list of rows is indexed by
    the leading ones; a coordinate between rows combines whole rows.  Of the
    two layouts (see _layout and _yates_tallies), the in-row one steps the
    trailing coordinates inside each row; the transposed one steps half the
    coordinates, transposes the slot matrix once and steps the other half,
    all between rows, and its tallies are read back in transposed order.

    Each distinct tally is reduced modulo the e-th cyclotomic polynomial once;
    it must be a rational integer that divides exactly by |C| and is not
    negative, or IntegrityError is raised.
    """
    _check_levels(code, levels)
    ring = code.ring
    if chi is None:
        chi = default_character(ring)
    else:
        check_additive(ring, chi)  # Yates' factoring needs chi(a + b) = chi(a) chi(b)
    e = ring.exponent
    field, tallies, period = _yates_tallies(code, chi)

    def each_tally():
        return map(itemgetter(0), iter_unpack(f"{e * field}s{e * field}x", tallies))

    coeffs = dict.fromkeys(each_tally())  # the distinct tallies
    for tally in coeffs:
        coeffs[tally] = _byte_coefficient(tally, e, field, code.size)
    values = list(map(coeffs.__getitem__, each_tally()))
    values = list(chain.from_iterable(values[r::period] for r in range(period)))  # lexicographic
    return dict(zip(compress(count(), values), filter(None, values)))


def _byte_coefficient(tally: bytes, e: int, field: int, code_size: int) -> int:
    """(1/|C|) sum over r of tally[r] zeta_e^r, checked to be a nonnegative integer."""
    value = CycInt(
        e, [int.from_bytes(tally[r * field : (r + 1) * field], "little") for r in range(e)]
    )
    if not value.is_integer():
        raise IntegrityError(f"character sum {value!r} did not collapse to an integer")
    coeff, rem = divmod(value.coeffs[0], code_size)
    if rem:
        raise IntegrityError(f"coefficient {value.coeffs[0]} not divisible by |C| = {code_size}")
    if coeff < 0:
        raise IntegrityError(f"negative enumerator coefficient {coeff}")
    return coeff


def krawtchouk_level(n_j: int, l_j: int, p_j: int, q: int) -> int:
    """Alternating binomial sum weighting one level of the weight transform.

    sum over a of (-1)^a (q-1)^(p_j - a) C(l_j, a) C(n_j - l_j, p_j - a),
    with C(l, a) = 0 whenever a > l.
    """
    if q < 2:
        raise ValueError(f"ring size must be at least 2, got {q}")
    if not (0 <= l_j <= n_j and 0 <= p_j <= n_j):
        raise ValueError(f"weights l={l_j}, p={p_j} outside 0..{n_j}")
    total = 0
    for a in range(p_j + 1):
        total += (-1) ** a * (q - 1) ** (p_j - a) * comb(l_j, a) * comb(n_j - l_j, p_j - a)
    return total


@lru_cache(maxsize=256)
def _krawtchouk_matrix(n_j: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Row l holds krawtchouk_level(n_j, l, p, q) for p = 0..n_j."""
    return tuple(
        tuple(krawtchouk_level(n_j, l, p, q) for p in range(n_j + 1))
        for l in range(n_j + 1)
    )


def krawtchouk_contraction(
    spectrum: dict, levels: LevelStructure, q: int, code_size: int
) -> dict[tuple, int]:
    """Per-level weight spectrum of the dual, from the code's.

    The dual's count at weights p is (1/|C|) sum over spectrum entries A_l of
        A_l prod_j krawtchouk_level(n_j, l_j, p_j, q).
    The product factors by level, so the spectrum is contracted with one
    Krawtchouk matrix per level in turn.  Each step replaces the leading l_j
    of a key by p_j at its end: after step j the keys read
    (l_{j+1}, ..., l_s, p_1, ..., p_j).  Every count must divide exactly by
    |C| and be positive, or IntegrityError is raised; zero counts are left out.
    """
    sizes = levels.sizes
    if code_size < 1 or code_size != sum(spectrum.values()):
        raise ValueError(
            f"spectrum sums to {sum(spectrum.values())}, but |C| = {code_size}"
        )
    state: dict[tuple, int] = {}
    for l, count in spectrum.items():
        l = tuple(l)
        if len(l) != len(sizes) or any(not 0 <= w <= n for w, n in zip(l, sizes)):
            raise ValueError(f"spectrum key {l} inconsistent with levels {sizes}")
        state[l] = count

    for n_j in sizes:
        matrix = _krawtchouk_matrix(n_j, q)
        contracted: dict[tuple, int] = {}
        for key, count in state.items():
            rest = key[1:]
            for p_j, k in enumerate(matrix[key[0]]):
                if k:
                    cell = rest + (p_j,)
                    contracted[cell] = contracted.get(cell, 0) + k * count
        state = {key: total for key, total in contracted.items() if total}

    for p, total in state.items():
        coeff, rem = divmod(total, code_size)
        if rem:
            raise IntegrityError(f"coefficient {total} not divisible by |C| = {code_size}")
        if coeff < 0:
            raise IntegrityError(f"negative enumerator coefficient {coeff}")
        state[p] = coeff
    return state


def complete_transform(
    spectrum: dict, levels: LevelStructure, q: int, code_size: int
) -> dict[tuple, int]:
    """Dual complete enumerator from the per-level weight spectrum of the code."""
    return krawtchouk_contraction(spectrum, levels, q, code_size)


def level_transform(
    spectrum: dict, levels: LevelStructure, q: int, code_size: int
) -> dict[tuple, int]:
    """Dual plain-level enumerator: the dual spectrum, read as exponents z_j^p_j."""
    return krawtchouk_contraction(spectrum, levels, q, code_size)


def mspotty_transform(
    spectrum: dict, levels: LevelStructure, t, q: int, code_size: int
) -> dict[tuple, int]:
    """Dual spotty enumerator: the dual spectrum folded to z_j^ceil(p_j/t_j)."""
    dual_spectrum = krawtchouk_contraction(spectrum, levels, q, code_size)
    return spotty_spectrum(dual_spectrum, _check_t(levels, t))


class Kind(NamedTuple):
    """How one enumerator kind is computed and printed.

    Every route returns the kind's count dict.  shape is a LevelStructure,
    or for the poset kind (levels False) the poset itself.
    """

    direct: Callable  # (code, shape) -> counts of the code's words
    dual: Callable  # (code, shape, cap) -> counts of the dual's words, listed as indices or counted
    transform: Callable | None  # (code, levels, chi) -> counts of the dual's words, by the identity
    terms: Callable  # (counts, q, levels) -> the terms in print order; see render
    fold: Callable | None = None  # (counts, levels, t) -> counts under the thresholds t
    levels: bool = True


def _weight_transform(code, levels, chi):
    """The dual's per-level weight spectrum, contracted from the code's; chi plays no part."""
    return krawtchouk_contraction(weight_spectrum(code, levels), levels, code.ring.q, code.size)


# The routes call the kernels through their module globals, so that a tracer
# that rebinds those names (perfbench/spans.py) sees each call.
_WEIGHT_ROUTES = {
    "direct": lambda code, levels: weight_spectrum(code, levels),
    "dual": lambda code, levels, cap: dual_weight_spectrum(code, levels, cap),
    "transform": _weight_transform,
}
KINDS = {
    "byte": Kind(
        direct=lambda code, levels: byte_enumerator(code, levels),
        # each dual word is its own byte monomial
        dual=lambda code, levels, cap: dict.fromkeys(dual_indices(code, cap), 1),
        transform=lambda code, levels, chi: byte_transform(code, levels, chi),
        terms=byte_terms,
    ),
    "complete": Kind(**_WEIGHT_ROUTES, terms=complete_terms),
    "level": Kind(**_WEIGHT_ROUTES, terms=plain_terms),
    "mspotty": Kind(
        **_WEIGHT_ROUTES,
        terms=plain_terms,
        fold=lambda spectrum, levels, t: spotty_spectrum(spectrum, _check_t(levels, t)),
    ),
    "poset": Kind(
        direct=lambda code, poset: poset_weight_enumerator(code, poset),
        dual=lambda code, poset, cap: poset_weight_enumerator(dual_code(code, cap), poset),
        transform=None,
        terms=poset_terms,
        levels=False,
    ),
}
TRANSFORM_KINDS = tuple(kind for kind, entry in KINDS.items() if entry.transform)


def render(kind: str, counts: dict, q: int | None = None, levels=None, json: bool = False):
    """The enumerator of this kind with these counts, as text or as a list of JSON terms.

    Only the byte kind reads q and the levels.  A term prints as its
    coefficient, left out when it is 1 and the term has a variable, then its
    variables; the zero enumerator prints as 0.
    """
    terms = KINDS[kind].terms(counts, q, levels)
    if json:
        return [{"coeff": c, "vars": [var[1] for var in variables]} for c, variables in terms]
    texts = (("".join(var[0] for var in variables), c) for c, variables in terms)
    return " + ".join(f"{c}{body}" if c != 1 or not body else body for body, c in texts) or "0"


def verify_identity(
    kind: str,
    code: LinearCode,
    levels: LevelStructure,
    t=None,
    chi: Character | None = None,
    cap: int | None = None,
    dual: LinearCode | None = None,
) -> IdentityReport:
    """Check one transform against a direct computation on the dual.

    lhs is the transform computed from the primal code; rhs is the same
    enumerator computed on the dual: on the given dual code, or else from
    the code by the kind's dual route, which lists the dual's word indices
    (byte) or counts its per-level weight spectrum without listing it.  Both
    sides are count dicts, compared before anything is rendered.  t is read,
    checked and recorded only by the kinds that fold by it.
    """
    if kind not in TRANSFORM_KINDS:
        raise ValueError(f"unknown identity kind {kind!r}; expected {TRANSFORM_KINDS}")
    entry = KINDS[kind]
    rhs = entry.dual(code, levels, cap) if dual is None else entry.direct(dual, levels)
    lhs = entry.transform(code, levels, chi)
    instance = {
        "ring": code.ring.to_json_obj(),
        "levels": list(levels.sizes),
        "generators": [list(g) for g in code.generators],
    }
    if entry.fold:
        lhs, rhs = entry.fold(lhs, levels, t), entry.fold(rhs, levels, t)
        instance["t"] = list(t)
    return IdentityReport(kind, lhs == rhs, lhs, rhs, instance)
