"""MacWilliams-type transforms and the identity-verification harness.

Each transform computes a dual-code enumerator from the primal code alone,
through exact character sums; verify_identity() then compares the result
against the same enumerator, or weight spectrum, computed on the dual.
Every coefficient is checked in integers: a byte coefficient's tally of
character exponents must have the shape that the orthogonality of
characters forces, and a weight coefficient must divide exactly by the
code size; any failure is raised as an IntegrityError, never rounded.
"""

from __future__ import annotations

from functools import lru_cache, partial, reduce
from itertools import chain, compress, cycle, repeat
from math import prod
from operator import add, and_, itemgetter, lshift, mul, or_, rshift
from struct import Struct, unpack
from typing import Callable, NamedTuple

from .codes import LinearCode, check_ambient_cap, check_levels, dual_indicator, dual_weight_spectrum, dual_words
from .enumerators import (
    byte_enumerator,
    byte_terms,
    check_t,
    complete_terms,
    plain_terms,
    poset_spectrum,
    poset_terms,
    poset_weight_enumerator,
    spotty_spectrum,
    weight_spectrum,
)
from .errors import IntegrityError
from .posets import LevelStructure
from .rings import default_character


class IdentityReport(NamedTuple):
    """Outcome of one identity check: transform output (lhs) vs direct computation (rhs).

    The sides are the two compared counts, which render spells: for the byte
    kind q^n-byte indicators of the dual, 0x80 at each word's index and 0
    elsewhere; for the others count dicts by weight key.
    """

    kind: str
    equal: bool
    lhs: bytes | dict
    rhs: bytes | dict
    instance: dict


def _column_sums(columns: list, weights: list, height: int):
    """For each row w of weights in turn, the rows of the column sum over a of columns[a] * w[a].

    A column of height 1 is its one value, and such columns are summed as
    one line, the zero ones left out: a chain's two map objects a column
    would outweigh its one multiply-add.  Taller columns are lists of rows;
    all-zero ones are skipped, and each output column is one lazy chain of
    whole-column maps, a factor 1 adding its column as it is.  The result is
    one iterable over the rows of every output column in turn, to be read
    once.
    """
    if height == 1:
        if 0 in columns:
            live = [a for a, v in enumerate(columns) if v]
            columns = [columns[a] for a in live]
            weights = [[w[a] for a in live] for w in weights]
        return [sum(map(mul, columns, w)) for w in weights]
    if not all(map(any, columns)):
        live = list(compress(range(len(columns)), map(any, columns)))
        if not live:
            return repeat(0, height * len(weights))
        columns = list(map(columns.__getitem__, live))
        weights = [list(map(w.__getitem__, live)) for w in weights]
    sums = []
    for w in weights:
        acc = None
        for column, x in zip(columns, w):
            term = column if x == 1 else map(mul, column, repeat(x))
            acc = term if acc is None else map(add, acc, term)
        sums.append(acc)
    return chain.from_iterable(sums)


class _Split(NamedTuple):
    """One coordinate's chi(ab) product, factored through an additive subgroup H, as units of rotations and sums.

    As chi(b(t + h)) = chi(bt) chi(bh), value b of a step is the sum over the
    cosets t + H of x^eps(bt) times the coset's sum against x^eps(bh), h in
    H, and that inner sum depends only on the class of b: the restriction of
    chi(b.) to H.  Stage 1 sums each coset against each class, a unit a
    coset, into outputs i C + c (coset i, C classes); stage 2 sums, for each
    b, the stage 1 outputs of its class against eps(bt), t over the coset
    representatives, a unit a class, and order puts its outputs in the order
    of b.  The cosets share one unit, and so do the classes whose rows of
    eps(bt) agree once sorted, as on every field.  With H = {0} stage 2
    alone is the dense product by the q x q matrix.  Both are built from the
    exponents on H and on the representatives alone, q (|H| + q/|H|)
    entries.  Counted in whole-row ops, a rotation 5 and an add 1, a split
    line costs a few ops more than a dense one at most, and far fewer on the
    big rings, so every ring splits.
    """

    stages: tuple  # (units, order): stage 1 and stage 2, or stage 2 alone where H = {0}

    def bind(self, wraps: list, field: int) -> list:
        """The stages with each rotation's shifts and masks, on rows whose fields 0 to r-1 wraps[r] keeps, r < e.

        x^s takes v to ((v & keep_s) << s field) | ((v >> (e - s) field) &
        wrap_s): keep_s = wraps[e - s] keeps the fields that stay in their
        slot, and wrap_s = wraps[s] the fields that wrap to its bottom.
        """
        e = len(wraps)
        tables = [s * field for s in range(e)], [(e - s) * field for s in range(e)], wraps[:1] + wraps[:0:-1], wraps
        shared = {id(s): s for units, _ in self.stages for _, _, s, _ in units}  # a unit the cosets or classes share
        bound = {key: [list(map(t.__getitem__, s)) for t in tables] for key, s in shared.items()}
        return [([(take, at, *bound[id(s)], sums) for take, at, s, sums in units], o) for units, o in self.stages]


def _unit(exps, m: int, e: int) -> tuple:
    """The rotations and sums of a unit whose output o is the sum over j < m of input j times x^exps[o][j].

    exps is an iterable of each output's m exponents.  Returns the
    rotations, one for each distinct nonzero s an input is read at, as their
    input positions and their s; and one getter an output over the pool,
    the inputs then the rotations.
    """
    bases = range(0, m * e, e)
    keys = list(map(add, cycle(bases), chain.from_iterable(exps)))  # j e + s: input j times x^s
    spun = set(keys).difference(bases)
    pool = dict(zip(chain(bases, spun), range(m + len(spun))))
    sums = list(map(itemgetter, *[iter(itemgetter(*keys)(pool))] * m))  # each output's m keys in turn
    return [k // e for k in spun], [k % e for k in spun], sums


def _subgroup(add: tuple) -> list:
    """An additive subgroup H with |H|^2 <= q, grown greedily in index order.

    Each g in index order is added when the subgroup H + <g>, the union of
    the cosets kg + H, still has |H|^2 <= q; its cosets are taken one by
    one until kg falls in them, and a coset that would break the bound ends
    the try.
    """
    q, group = len(add), [0]
    for g in range(1, q):
        if (2 * len(group)) ** 2 > q:  # H + <g> would be at least twice H
            break
        grown, t = set(group), g
        while t not in grown and (len(grown) + len(group)) ** 2 <= q:
            grown.update(add[t][h] for h in group)
            t = add[t][g]
        if t in grown:
            group = sorted(grown)
    return group


def _coset_split(add: tuple, exps: list, group: list, e: int) -> _Split:
    """The step through the sorted subgroup group; exps[b][a] = eps(ab), the exponent of chi(ab) in Z_e.

    The cosets come in the order of their smallest elements, and the
    classes in the order of their smallest b.
    """
    q = len(add)
    if len(group) == 1:  # each element its own coset, one class: the dense product
        return _Split((([(tuple, *_unit(exps, q, e))], None),))
    on_group, cosets, seen = itemgetter(*group), [], set()
    for t in range(q):
        if t not in seen:
            cosets.append(on_group(add[t]))
            seen.update(cosets[-1])
    classes: dict[tuple, list] = {}  # the restriction of chi(b.) to H -> the b with it
    for b in range(q):
        classes.setdefault(on_group(exps[b]), []).append(b)
    count, at_reps, units, outer, members = len(classes), itemgetter(*next(zip(*cosets))), {}, [], []
    for c, bs in enumerate(classes.values()):  # classes whose rows of eps(bt) agree, sorted, share a unit
        rows = sorted(zip(map(at_reps, map(exps.__getitem__, bs)), bs))
        key = tuple(row for row, b in rows)
        unit = units[key] = units.get(key) or _unit(key, len(cosets), e)
        outer.append((itemgetter(*range(c, len(cosets) * count, count)), *unit))
        members += [b for row, b in rows]
    inner = _unit(map(on_group, map(exps.__getitem__, map(itemgetter(0), classes.values()))), len(group), e)
    order = None if members == sorted(members) else itemgetter(*sorted(range(q), key=members.__getitem__))
    return _Split((([(itemgetter(*coset), *inner) for coset in cosets], None), (outer, order)))


def _ring_step(columns: list, height: int, stages: list, fresh: bool = False) -> list:
    """One coordinate pass: the q columns times the matrix chi(ab), by the stages of a bound _Split.

    Column a holds the rows whose stepped digit is a, height rows each (a
    column of height 1 is its one row), and row i of output column b is the
    sum over a of row i of column a times chi(ab).  Returns the rows of the
    output columns b = 0, ..., q-1 in turn.  Each unit rotates its live
    inputs once for each distinct nonzero s its outputs read (see bind), at
    C speed where a column is one row, and sums each output from its pool;
    taller columns are lists of rows, all-zero ones None and skipped.  A
    fresh pass reads the indicator of C, field 0 alone, so its first stage
    shifts.  The list columns is emptied, and each stage lets its input go
    once read: a pass holds two sets of rows and one unit's rotations.
    """
    live = columns.copy() if height == 1 else [column if any(column) else None for column in columns]
    columns.clear()
    for units, order in stages:
        out = []
        for take, at, lo, hi, keep, wrap, sums in units:
            pool = take(live)
            if height == 1:
                if fresh:
                    pool += tuple(map(lshift, map(pool.__getitem__, at), lo))
                else:
                    low = map(lshift, map(and_, map(pool.__getitem__, at), keep), lo)
                    pool += tuple(map(or_, low, map(and_, map(rshift, map(pool.__getitem__, at), hi), wrap)))
                out += [reduce(add, g(pool)) for g in sums]
                continue
            for x, *rotation in zip(map(pool.__getitem__, at), lo, hi, keep, wrap):
                if x is not None:
                    left, right, k, w = map(repeat, rotation)
                    low = map(lshift, x if fresh else map(and_, x, k), left)
                    x = list(low if fresh else map(or_, low, map(and_, map(rshift, x, right), w)))
                pool += (x,)
            for g in sums:
                terms = [x for x in g(pool) if x is not None]
                out.append(list(reduce(partial(map, add), terms)) if len(terms) > 1 else terms[0] if terms else None)
        live, fresh = order(out) if order else out, False
    if height == 1:
        return list(live)
    return list(chain.from_iterable(repeat(0, height) if x is None else x for x in live))


def _step_rows(rows: list, steps: list) -> list:
    """Step the digits of the row index, the last first; steps holds one (radix, step) a digit.

    A pass on a digit of radix m reads the last digit of the row index:
    column a is rows[a::m], the rows whose last digit is a, in the order of
    the other digits (a column of one row is that row).  step(columns,
    height) returns the list of the rows of its output columns b = 0, ...,
    m-1 in turn, which moves the stepped digit to the front; after a pass a
    digit the rows are back in lexicographic order.  The list rows is
    emptied: each pass lets its input go once read, so that the old and the
    new rows are the most it holds.
    """
    for radix, step in steps:
        height = len(rows) // radix
        columns = rows.copy() if height == 1 else [rows[a::radix] for a in range(radix)]
        rows.clear()
        rows = step(columns, height)
    return rows


def _bias(slots: int, slot_bytes: int) -> int:
    """Half the range of each of that many slots, which makes a signed slot nonnegative."""
    return int.from_bytes((bytes(slot_bytes - 1) + b"\x80") * slots, "little")


def _serialize(rows: list, row_bytes: int, bias: int = 0) -> bytearray:
    """The rows' bytes end to end, bias added; each row is zeroed once copied, so one copy is held."""
    data = bytearray()
    for i, row in enumerate(rows):
        data += (row + bias if bias else row).to_bytes(row_bytes, "little")
        rows[i] = 0
    return data


def _transpose(rows: list, row_bytes: int, slot_bytes: int, signed: bool = False) -> list:
    """The slot matrix transposed: slot c of row r becomes slot r of new row c.

    The new rows are gathered either whole, the slots of one
    Struct.iter_unpack of all the rows joined once a new row, or by one
    strided copy per unit of a slot, the widest of 1, 2, 4 and 8 bytes that
    divides it.  A strided copy costs about as much as making 16 slot
    objects, so slots go whole where there are fewer than 16 rows per unit
    of a slot.  Signed slots cross as their value plus half their range, so
    that none borrows from the next.
    """
    nrows, ncols, s = len(rows), row_bytes // slot_bytes, slot_bytes
    data = _serialize(rows, row_bytes, _bias(ncols, s) if signed else 0)
    unit = min(s & -s, 8)
    if nrows < 16 * (s // unit):
        columns = zip(*Struct(f"{s}s" * ncols).iter_unpack(data))
        del data
        new = [int.from_bytes(b"".join(col), "little") for col in columns]
    else:
        code, col, new = {1: "B", 2: "H", 4: "I", 8: "Q"}[unit], bytearray(nrows * s), []
        src, dst = memoryview(data).cast(code), memoryview(col).cast(code)
        units, stride = s // unit, row_bytes // unit
        for c in range(0, stride, units):
            for k in range(units):
                dst[k::units] = src[c + k :: stride]
            new.append(int.from_bytes(col, "little"))
    if signed:
        bias = _bias(nrows, s)
        new = [row - bias for row in new]
    return new


def _yates_tallies(code: LinearCode, eps: bytes) -> tuple[int, list, int, int]:
    """Tally of the exponents eps(<b, u>) over u in C, for every b in R^n, eps the character's exponent row.

    Returns the field width in bits, b = |C|.bit_length(), the final rows,
    the period P = q^ceil(n/2) and |C|.  Each tally is e count fields, e b
    bits, padded with zero bits to a slot of ceil(e b / 8) bytes: no count
    exceeds |C| < 2^b, and a rotation keeps a value in its e fields.  Row r
    packs the tallies of the P patterns of lexicographic index r * P + k, at
    slot k, so the rows read in order are the patterns in that order.  The
    input, the indicator of C, is read off LinearCode.span_columns: Horner's
    rule on a lane's leading floor(n/2) columns gives its word's slot r, and
    on the others its row k; a word's z lanes mark one slot: |C| is lanes/z.

    The steps follow Bailey's four-step order.  The last ceil(n/2)
    coordinates index a list of rows, each packing the patterns of the first
    floor(n/2); those trailing coordinates are stepped between rows, one
    pass over all rows each (_step_rows), the slot matrix is transposed
    once, and the leading coordinates are stepped between the new rows.  A
    pass or the transpose holds two sets of rows of q^n ceil(e b / 8) bytes
    each, and a pass also one unit's rotations and e masks of a row.
    """
    ring = code.ring
    q, e, n, lead = ring.q, ring.exponent, code.n, code.n // 2
    columns, z = code.span_columns()
    size = len(columns[0]) // z
    field = size.bit_length()  # a count field holds up to |C|
    slot = -(-e * field // 8)  # bytes
    width, nrows = q**lead, q ** (n - lead)
    exps = list(map(bytes.translate, ring.mul_table, repeat(bytes(eps).ljust(256, b"\0"))))  # exps[b][a] = eps(ab)
    split, bound = _coset_split(ring.add_table, exps, _subgroup(ring.add_table), e), {}

    def steps(slots: int, digits: int, fresh: bool = False) -> list:  # passes on rows of that many slots
        if slots not in bound:  # the stages bound to these rows' masks, low[r] keeping fields 0 to r-1
            low = [int.from_bytes(((1 << r * field) - 1).to_bytes(slot, "little") * slots, "little") for r in range(e)]
            bound[slots] = split.bind(low, field)
        return [(q, partial(_ring_step, stages=bound[slots], fresh=fresh and d == 0)) for d in range(digits)]

    def horner(part: list) -> list:  # each lane's index on these coordinates
        return reduce(lambda index, col: list(map(add, map(mul, index, repeat(q)), col)), part, [0] * len(columns[0]))

    rows = [0] * nrows  # the indicator of C: row k, slot r holds the word of index r P + k
    for r, k in zip(horner(columns[:lead]), horner(columns[lead:])):
        rows[k] |= 1 << 8 * slot * r
    del columns  # read once: the passes hold rows alone
    rows = _step_rows(rows, steps(width, n - lead, fresh=True))
    rows = _transpose(rows, width * slot, slot)
    rows = _step_rows(rows, steps(nrows, lead))
    return field, rows, nrows, size


def byte_transform(code: LinearCode, levels: LevelStructure, cap: int | None = None) -> dict[int, int]:
    """Dual byte enumerator from the primal code, by Yates' algorithm, refused where q^n exceeds cap.

    The coefficient of z_{1:b1}...z_{s:bs}, with b the concatenated pattern, is
        (1/|C|) sum over u in C of chi(<b, u>),
    the n-fold tensor power of the q x q matrix chi(ab) applied to the
    indicator of C.  Yates' algorithm applies that matrix one coordinate at a
    time in the group ring Z[Z_e], where zeta_e is x, and each value ends as
    the tally of the character exponents <b, u> over the code.  Every
    coefficient is 0 or 1, so the result is the indicator of the patterns
    of coefficient 1: q^n bytes, byte i 0x80 if the pattern of lexicographic
    index i has coefficient 1, else 0.

    A value is packed into a Python int as e count fields of
    |C|.bit_length() bits, in a slot of whole bytes, so multiplying by x^s
    rotates each slot's fields by s, in five whole-row ops.  Row ints pack
    the patterns of some coordinates and a list of rows is indexed by the
    others, so a coordinate step combines whole rows.  Every coordinate is
    stepped between rows (see _yates_tallies): half of them, then one
    transpose of the slot matrix, then the other half.  Each coordinate is
    one pass over all the rows (_step_rows): the q strided columns of rows
    that differ in that coordinate are multiplied by the q x q matrix
    chi(ab) through a subgroup H of (R, +) (see _Split), in about
    q (|H| + q/|H|) whole-column adds and the rotations they read, less the
    ones on all-zero columns.  The final rows are checked and read whole
    into the indicator (_read_tallies).
    """
    check_ambient_cap(code.ring, code.n, cap)
    check_levels(code, levels)
    return _read_tallies(*_yates_tallies(code, default_character(code.ring)), code.ring.exponent)


def _read_tallies(field: int, rows: list, period: int, code_size: int, e: int) -> bytes:
    """The indicator of the coefficient-1 tallies: byte r P + k is 0x80 if slot k of final row r holds one, else 0.

    P = period, the slots of a row.  A slot is e fields of field bits,
    padded to whole bytes.  By orthogonality (see _byte_coefficient) it
    holds a tally T_g, g | e and (e/g) | |C|: |C| g/e on the fields of the
    multiples of g, 0 on the rest and on the padding; T_e is coefficient 1,
    the others 0.  By Lamport's lane test, a slot of x = row ^ T_g
    (repeated) is nonzero exactly when its top bit is set in
    ((x & rest) + rest) | x, rest being the other bits.  T_e goes
    first, its equal slots read off their top bytes, the row's P bytes of
    the indicator, then g = 1, 2, ... until every slot has matched; a slot
    matching none raises IntegrityError.  A row equal to one read before
    reuses its bytes, and the rows' bytes are joined in row order.
    """
    slot = -(-e * field // 8)  # bytes
    top = _bias(period, slot)  # the top bit of each slot
    lanes = top >> (8 * slot - 1)  # the low bit of each slot
    rest = top - lanes  # the other bits of each slot
    unit, *others = [
        lanes * (code_size * g // e) * sum(1 << field * r for r in range(0, e, g))
        for g in (e, *range(1, e))
        if e % g == 0 and code_size * g % e == 0
    ]
    read: dict[int, bytes] = {}  # a row read before -> its bytes of the indicator
    out = []  # each row's bytes; a row int is hashed once, as its hash reads every digit
    for row in rows:
        ones = read.get(row)
        if ones is None:
            x = row ^ unit
            left = (((x & rest) + rest) | x) & top  # the top bits of the slots that match no form so far
            ones = read[row] = (top ^ left).to_bytes(slot * period, "little")[slot - 1 :: slot]
            for tally in others:
                if not left:
                    break
                x = row ^ tally
                left &= ((x & rest) + rest) | x
            if left:
                k = (left & -left).bit_length() // (8 * slot) - 1
                tally = row >> (8 * slot * k) & ((1 << 8 * slot) - 1)
                _byte_coefficient(tally, e, field, code_size)
                raise IntegrityError(f"the padding bits of a tally hold {tally >> e * field:#x}")
        out.append(ones)
    return b"".join(out)


def _byte_coefficient(tally: int, e: int, field: int, code_size: int) -> int:
    """(1/|C|) sum over r of tally[r] zeta_e^r, by the orthogonality of characters.

    Count r of the tally is its field of field bits at bit r * field.  As
    chi is additive, u -> eps(<b, u>) is a homomorphism from C to Z_e, so
    its image is a subgroup H = {0, g, 2g, ...} of Z_e, g | e, and it takes
    each value in H exactly |C|/|H| times.  The tally must have that shape,
    or IntegrityError is raised.  The sum is then |C|/|H| times the sum of
    zeta_e^h over h in H: |C| when H = {0} and 0 otherwise.
    """
    counts = [tally >> (r * field) & ((1 << field) - 1) for r in range(e)]
    g = next((r for r in range(1, e) if counts[r]), e)
    if e % g or counts != ([counts[0]] + [0] * (g - 1)) * (e // g) or counts[0] * (e // g) != code_size:
        raise IntegrityError(
            f"character sum did not collapse to an integer by orthogonality: the exponent tally"
            f" {counts} is not |C|/|H| on each element of a subgroup H of Z_{e}, |C| = {code_size}"
        )
    return int(g == e)


@lru_cache(maxsize=256)
def _krawtchouk_columns(n_j: int, q: int) -> tuple[tuple[int, ...], ...]:
    """Column p holds K_p(l) = sum over a of (-1)^a (q-1)^(p-a) C(l, a) C(n_j - l, p - a), l = 0..n_j.

    The columns follow the three-term recurrence in p (MacWilliams & Sloane, ch. 5)
        (p+1) K_(p+1)(l) = ((n_j - p)(q-1) + p - q l) K_p(l) - (q-1)(n_j - p + 1) K_(p-1)(l)
    from K_0 = 1 and K_(-1) = 0; a division by p+1 that is not exact raises IntegrityError.
    """
    columns = [(0,) * (n_j + 1), (1,) * (n_j + 1)]  # K_(-1), K_0
    for p in range(n_j):
        lead, lag = (n_j - p) * (q - 1) + p, (q - 1) * (n_j - p + 1)
        sums = [(lead - q * l) * k - lag * k_1 for l, (k, k_1) in enumerate(zip(columns[-1], columns[-2]))]
        if any(s % (p + 1) for s in sums):
            raise IntegrityError(f"a Krawtchouk value K_{p + 1}(l) at n = {n_j}, q = {q} is not an integer")
        columns.append(tuple(s // (p + 1) for s in sums))
    return tuple(columns[1:])


def krawtchouk_contraction(spectrum: dict, levels: LevelStructure, q: int) -> dict[int, int]:
    """Per-level weight spectrum of the dual, from the code's, both keyed by weight key.

    The dual's count at weights p is (1/|C|) sum over spectrum entries A_l of
        A_l prod_j K_(p_j)(l_j), with level j's Krawtchouk values (_krawtchouk_columns),
    and |C| the sum of the counts A_l.  The product factors by level, so
    the spectrum is contracted with one Krawtchouk matrix per level, by the
    byte transform's kernel in its four-step order (see _yates_tallies).
    Each cell is one signed field; the first floor(s/2) levels index the W
    slots of a row and the others the P rows, so each count is added
    straight into its row.  The trailing levels are stepped between the
    rows, each pass a multiply-add of whole columns by the level's matrix
    (_step_rows, _column_sums with mul), the slot matrix is transposed
    once, and the leading levels are stepped between the new rows.  Row r, slot k then holds weight key r P + k, so
    the keys are read in order.  The absolute values in a row of a
    Krawtchouk matrix sum to at most q^n_j, so no cell exceeds |C| q^n in
    absolute value: a field holds that and a sign, in 1, 2, 4, 8, ... bytes.

    Every key must be a weight key and every count a positive int, or
    ValueError is raised, and so is an empty spectrum, which no code has,
    or levels other than a LevelStructure (check_levels), before any entry
    is read.  Every result must divide exactly by |C| and not be negative,
    or IntegrityError is raised; zero results are left out.
    """
    check_levels(None, levels)
    sizes = levels.sizes
    cells = prod(n + 1 for n in sizes)
    for key, count in spectrum.items():
        if type(key) is not int or not 0 <= key < cells:
            raise ValueError(f"spectrum key {key!r} is no weight key of levels {sizes}")
        if type(count) is not int or count < 1:
            raise ValueError(f"spectrum count {count!r} at {key} is not a positive integer")
    if not spectrum:
        raise ValueError("the spectrum is empty, but every code holds its zero word")
    code_size = sum(spectrum.values())
    field = 1 << ((code_size * q**levels.n).bit_length() // 8).bit_length()
    lead = len(sizes) // 2
    width = prod(n + 1 for n in sizes[:lead])  # W, the slots of a row
    nrows = cells // width  # P, the rows
    rows = [0] * nrows
    for key, count in spectrum.items():
        k, r = divmod(key, nrows)
        rows[r] += count << 8 * field * k

    def steps(part: tuple) -> list:  # the last level first, each a multiply-add by its Krawtchouk matrix
        matrices = [_krawtchouk_columns(n, q) for n in reversed(part)]
        return [(len(m), lambda columns, height, m=m: list(_column_sums(columns, m, height))) for m in matrices]

    rows = _step_rows(rows, steps(sizes[lead:]))
    rows = _transpose(rows, field * width, field, signed=True)
    rows = _step_rows(rows, steps(sizes[:lead]))

    bias = _bias(nrows, field)  # + bias, then ^ bias: each field its two's complement
    data = b"".join(((row + bias) ^ bias).to_bytes(field * nrows, "little") for row in rows)
    if field <= 8:  # struct's codes for 1, 2, 4 and 8 bytes
        values = unpack(f"<{len(data) // field}{'bhiq'[field.bit_length() - 1]}", data)
    else:
        values = [int.from_bytes(data[i : i + field], "little", signed=True) for i in range(0, len(data), field)]
    out = {}
    for key, total in zip(compress(range(cells), values), filter(None, values)):
        coeff, rem = divmod(total, code_size)
        if rem:
            raise IntegrityError(f"coefficient {total} not divisible by |C| = {code_size}")
        if coeff < 0:
            raise IntegrityError(f"negative enumerator coefficient {coeff}")
        out[key] = coeff
    return out


# The dual complete enumerator, from the per-level weight spectrum of the code, and the dual
# plain-level one, that spectrum read as exponents z_j^p_j, are both the contraction; the names
# remain because the benchmark's tracer (perfbench/spans.py) times each layer under them.
complete_transform = level_transform = krawtchouk_contraction


def mspotty_transform(spectrum: dict, levels: LevelStructure, t, q: int) -> dict[int, int]:
    """Dual spotty enumerator: the dual spectrum folded to z_j^ceil(p_j/t_j)."""
    dual_spectrum = krawtchouk_contraction(spectrum, levels, q)
    return spotty_spectrum(dual_spectrum, levels, check_t(levels, t))


class Kind(NamedTuple):
    """How one enumerator kind is computed and printed.

    Each route takes (code, shape, cap) to the kind's count dict: "code" for
    the code's words, "dual" for the dual's, listed or counted, "transform"
    for the dual's by the identity, from the code alone; the poset kind has
    no transform.  count() runs a route and the fold.  shape is a
    LevelStructure, or for the poset kind (levels False) the poset as read
    by poset_from_json_obj: a LevelStructure when the poset is hierarchical
    with its levels in coordinate order, else a Poset of down-set bitmasks.
    """

    routes: dict  # route name -> (code, shape, cap) -> counts
    terms: Callable  # (counts, q, levels) -> the terms in print order, read once; see render
    fold: Callable | None = None  # (counts, levels, t) -> counts under the thresholds t
    levels: bool = True


# The routes call the kernels through their module globals, so that a tracer
# that rebinds those names (perfbench/spans.py) sees each call.
_WEIGHT_ROUTES = {
    "code": lambda code, levels, cap: weight_spectrum(code, levels),
    "dual": lambda code, levels, cap: dual_weight_spectrum(code, levels, cap),
    "transform": lambda code, levels, cap: krawtchouk_contraction(weight_spectrum(code, levels), levels, code.ring.q),
}


def _poset_route(spectrum: Callable, listed: Callable) -> Callable:
    """A poset kind route: on a LevelStructure, the weight spectrum route folded by poset_spectrum, with
    no word listed; on a Poset of the code's length, the words, as listed, weighed half by half by masks."""

    def route(code, shape, cap):
        if isinstance(shape, LevelStructure):
            return poset_spectrum(spectrum(code, shape, cap), shape)
        if code.n != len(shape.down):
            raise ValueError(f"poset size {len(shape.down)} does not match code length {code.n}")
        return poset_weight_enumerator(listed(code, cap), shape)

    return route


KINDS = {
    "byte": Kind(
        {
            "code": lambda code, levels, cap: byte_enumerator(code, levels),
            # the levels checked first, as on the other routes
            "dual": lambda code, levels, cap: check_levels(code, levels) or dual_indicator(code, cap),
            "transform": lambda code, levels, cap: byte_transform(code, levels, cap),
        },
        byte_terms,
    ),
    "complete": Kind(_WEIGHT_ROUTES, complete_terms),
    "level": Kind(_WEIGHT_ROUTES, plain_terms),
    "mspotty": Kind(
        _WEIGHT_ROUTES, plain_terms, lambda counts, levels, t: spotty_spectrum(counts, levels, check_t(levels, t))
    ),
    "poset": Kind(
        {
            "code": _poset_route(_WEIGHT_ROUTES["code"], lambda code, cap: code.words),
            "dual": _poset_route(_WEIGHT_ROUTES["dual"], lambda code, cap: dual_words(code, cap)),
        },
        poset_terms,
        levels=False,
    ),
}
TRANSFORM_KINDS = tuple(kind for kind, entry in KINDS.items() if "transform" in entry.routes)


def count(kind: str, route: str, code: LinearCode, shape, t=None, cap: int | None = None) -> dict:
    """The counts of this kind by the named route of KINDS, folded by t where the kind folds."""
    entry = KINDS[kind]
    counts = entry.routes[route](code, shape, cap)
    return entry.fold(counts, shape, t) if entry.fold else counts


def render(kind: str, counts: dict, q: int | None = None, levels=None, json: bool = False):
    """The enumerator of this kind with these counts, as text or as a list of JSON terms.

    Only the byte kind reads q, and every kind but poset the levels.  A term
    prints as its coefficient, left out when it is 1 and the term has a
    variable, then its variables; the zero enumerator prints as 0.
    """
    terms = KINDS[kind].terms(counts, q, levels)
    if json:
        return [{"coeff": c, "vars": [var[1] for var in variables]} for c, variables in terms]
    texts = (("".join(var[0] for var in variables), c) for c, variables in terms)
    return " + ".join(f"{c}{body}" if c != 1 or not body else body for body, c in texts) or "0"


def verify_identity(
    kind: str, code: LinearCode, levels: LevelStructure, t=None, cap: int | None = None
) -> IdentityReport:
    """Check one transform against a direct computation on the dual.

    lhs is the kind's "transform" route, computed from the primal code; rhs
    is the same enumerator computed on the dual by its "dual" route, which
    joins the dual's indicator (byte) or counts its per-level weight
    spectrum without listing it.  Both sides are q^n-byte indicators (byte)
    or count dicts, compared before anything is rendered.  The levels are
    checked first; then t is read, checked and recorded only by the kinds
    that fold by it, and read once, before either route runs.
    """
    if kind not in TRANSFORM_KINDS:
        raise ValueError(f"unknown identity kind {kind!r}; expected {TRANSFORM_KINDS}")
    check_levels(code, levels)
    t = check_t(levels, t) if KINDS[kind].fold else t
    rhs = count(kind, "dual", code, levels, t, cap)
    lhs = count(kind, "transform", code, levels, t, cap)
    instance = {
        "ring": code.ring.to_json_obj(),
        "levels": list(levels.sizes),
        "generators": [list(g) for g in code.generators],
    }
    if KINDS[kind].fold:
        instance["t"] = list(t)
    return IdentityReport(kind, lhs == rhs, lhs, rhs, instance)
