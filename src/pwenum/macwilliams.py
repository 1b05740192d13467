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

from functools import lru_cache, partial
from itertools import chain, compress, repeat
from math import prod
from operator import add, itemgetter, lshift, mul
from struct import Struct, unpack
from typing import Callable, NamedTuple

from .codes import LinearCode, check_ambient_cap, check_levels, dual_code, dual_indices, dual_weight_spectrum
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

    The sides are the two compared count dicts, by weight key for the weight kinds; render spells them.
    """

    kind: str
    equal: bool
    lhs: dict
    rhs: dict
    instance: dict


def _column_sums(columns: list, weights: list, height: int, op=lshift):
    """For each row w of weights in turn, the rows of the column sum over a of op(columns[a], w[a]).

    op is lshift, a weight being a shift in bits, or mul.  A column of
    height 1 is its one value, and such columns are summed as one line, the
    zero ones left out: a chain's two map objects a column would outweigh
    its one op-add.  Taller columns are lists of rows; all-zero ones are
    skipped, and each output column is one lazy chain of whole-column maps,
    a weight that leaves a row as it is (a zero shift, a factor 1) adding
    its column as it is.  The result is one iterable over the rows of every
    output column in turn, to be read once.
    """
    if height == 1:
        if 0 in columns:
            live = [a for a, v in enumerate(columns) if v]
            columns = [columns[a] for a in live]
            weights = [[w[a] for a in live] for w in weights]
        return [sum(map(op, columns, w)) for w in weights]
    if not all(map(any, columns)):
        live = list(compress(range(len(columns)), map(any, columns)))
        if not live:
            return repeat(0, height * len(weights))
        columns = list(map(columns.__getitem__, live))
        weights = [list(map(w.__getitem__, live)) for w in weights]
    unit = int(op is mul)  # the weight that leaves a row as it is
    sums = []
    for w in weights:
        acc = None
        for column, x in zip(columns, w):
            term = column if x == unit else map(op, column, repeat(x))
            acc = term if acc is None else map(add, acc, term)
        sums.append(acc)
    return chain.from_iterable(sums)


def _fold(sums, low: int, half: int) -> list:
    """The packed values of sums, each with field e+j folded onto field j: x^e = 1."""
    return [(acc & low) + ((acc >> half) & low) for acc in sums]


class _Split(NamedTuple):
    """One coordinate's chi(ab) product, factored through an additive subgroup H.

    As chi(b(t + h)) = chi(bt) chi(bh), value b of a step is the sum over the
    cosets t + H of chi(bt) times the coset's sum against chi(b.) on H, and
    that inner sum depends only on the class of b: the restriction of
    chi(b.) to H.  Stage 1 sums each coset against each class's shifts
    (inner) and folds; stage 2 sums, for each b of each class, the coset
    results of its class against its shifts chi(bt) (outer).  The results
    come class by class, and order puts them back in the order of b.  With
    H = {0} there is no stage 1, one class and no reordering: stage 2 is the
    dense product by the q x q matrix.

    A pass on L nonzero columns in M cosets is counted per row of its
    columns, with a shift-add of two rows as 1, one step of a chain of maps,
    and a fold as 4, four big-int operations in the interpreter (two masks,
    a shift and an add).  Stage 1 takes L |classes| shift-adds and |classes|
    folds per live coset, stage 2 q shift-adds per live coset and q folds:
    L |classes| + M (q + 4 |classes|) + 4q in all, against Lq + 4q for
    H = {0}.  The split is the cheaper one exactly when
    L (q - |classes|) > M (q + 4 |classes|).  As L <= M |H|, a pass pays
    split only if a full line, all q columns in all q/|H| cosets, does, so
    the choice is made once per ring, on a full line (pays).
    """

    cosets: list | None  # an itemgetter of the values on each coset t + H; None if H = {0}
    coset_of: tuple  # the index in cosets of each element's coset
    inner: list  # inner[c]: the shifts of chi(bh), h in H, for every b of class c
    outer: list  # outer[c][j]: the shifts of chi(bt), t over the coset representatives, for the j-th b of class c
    order: Callable | None  # the results class by class -> the results by b; None if already so

    def pays(self) -> bool:
        """Whether a full line, all q columns nonzero, counts fewer operations split than dense."""
        q, classes = len(self.coset_of), len(self.inner)
        return bool(self.cosets) and q * (q - classes) > len(self.cosets) * (q + 4 * classes)


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


def _coset_split(add: tuple, shifts: list, group: list) -> _Split:
    """The step through the sorted subgroup group; shifts[b][a] multiplies by chi(ab).

    The cosets come in the order of their smallest elements, and the
    classes in the order of their smallest b.
    """
    q = len(add)
    if len(group) == 1:  # each element its own coset, one class
        return _Split(None, tuple(range(q)), [(0,)], [shifts], None)
    cosets, reps, coset_of = [], [], [None] * q
    for t in range(q):
        if coset_of[t] is None:
            coset = [add[t][h] for h in group]
            for a in coset:
                coset_of[a] = len(reps)
            cosets.append(itemgetter(*coset))
            reps.append(t)
    classes: dict[tuple, list] = {}  # the restriction of chi(b.) to H -> the b with it
    for b, on_group in enumerate(map(itemgetter(*group), shifts)):
        classes.setdefault(on_group, []).append(b)
    members = [b for bs in classes.values() for b in bs]
    at_reps = itemgetter(*reps)
    return _Split(
        cosets,
        tuple(coset_of),
        list(classes),
        [[at_reps(shifts[b]) for b in bs] for bs in classes.values()],
        None if members == sorted(members) else itemgetter(*sorted(range(q), key=members.__getitem__)),
    )


def _ring_step(columns: list, height: int, low: int, half: int, split: _Split) -> list:
    """One coordinate pass: the q columns times the matrix chi(ab), by the two stages of split.

    Column a holds the rows whose stepped digit is a, height rows each (a
    column of height 1 is its one row), and row i of output column b is the
    sum over a of row i of column a times chi(ab).  Returns the rows of the output columns b = 0, ..., q-1 in
    turn.  Each stage is folded once over all its rows: stage 1's sums
    before stage 2 reads them, and stage 2's.  Once stage 1 has read the
    list columns it empties it, so that a split pass holds two sets of rows
    at a time, as a dense one does: its input and stage 1's sums, then those
    sums and its output.
    """
    if not split.cosets:  # H = {0}: stage 2 alone, one class, in order
        return _fold(_column_sums(columns, split.outer[0], height), low, half)
    classes = len(split.inner)
    inner = chain.from_iterable(_column_sums(coset(columns), split.inner, height) for coset in split.cosets)
    inner = _fold(inner, low, half)
    columns.clear()
    if height > 1:
        inner = list(zip(*[iter(inner)] * height))  # coset t's column of class c at t classes + c
    out = chain.from_iterable(_column_sums(inner[c::classes], w, height) for c, w in enumerate(split.outer))
    out = _fold(out, low, half)
    if split.order:  # the columns come class by class
        out = list(chain.from_iterable(split.order(list(zip(*[iter(out)] * height)))))
    return out


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


def _yates_tallies(code: LinearCode, eps: bytes) -> tuple[int, list, int]:
    """Tally of the exponents eps(<b, u>) over u in C, for every b in R^n, eps the character's exponent row.

    Returns the field width in bits, b = |C|.bit_length(), the final rows
    and the period P = q^ceil(n/2).  Each tally is e count fields followed
    by e zero fields, 2e b bits, and zero bits pad its slot to whole bytes:
    no count exceeds |C| < 2^b, and a shift by fewer than e fields keeps a
    value in its 2e fields, so no bit reaches the padding.  Row r packs the
    tallies of the P patterns with lexicographic index r * P + k, at slot
    k, so the rows read in order are the patterns in lexicographic order.

    The steps follow Bailey's four-step order.  The last ceil(n/2)
    coordinates index a list of rows, each packing the patterns of the first
    floor(n/2); those trailing coordinates are stepped between rows, one
    pass over all rows each (_step_rows), the slot matrix is transposed
    once, and the leading coordinates are stepped between the new rows.  A
    pass or the transpose holds two sets of rows at a time, each of
    q^n ceil(2e b / 8) bytes.
    """
    ring = code.ring
    q, e, n = ring.q, ring.exponent, code.n
    field = code.size.bit_length()  # a count field holds up to |C|
    half = field * e
    slot = -(-2 * half // 8)  # bytes
    width, nrows = q ** (n // 2), q ** (n - n // 2)
    row_bytes = width * slot
    scaled = [x * field for x in eps]
    shifts = [itemgetter(*row)(scaled) for row in ring.mul_table]
    split = _coset_split(ring.add_table, shifts, _subgroup(ring.add_table))
    if not split.pays():  # then no pass pays split: the dense product by the q x q matrix
        split = _coset_split(ring.add_table, shifts, [0])

    def steps(slots: int, digits: int) -> list:  # passes on rows of that many slots
        low = int.from_bytes(((1 << half) - 1).to_bytes(slot, "little") * slots, "little")  # their low e fields
        return [(q, partial(_ring_step, low=low, half=half, split=split))] * digits

    marks: dict[int, bytearray] = {}  # the indicator of C, by row
    for index in code.indices:
        r, k = divmod(index, nrows)
        if k not in marks:
            marks[k] = bytearray(row_bytes)
        marks[k][r * slot] = 1
    rows = [int.from_bytes(marks.pop(k), "little") if k in marks else 0 for k in range(nrows)]
    rows = _step_rows(rows, steps(width, n - n // 2))
    rows = _transpose(rows, row_bytes, slot)
    rows = _step_rows(rows, steps(nrows, n // 2))
    return field, rows, nrows


def byte_transform(code: LinearCode, levels: LevelStructure, cap: int | None = None) -> dict[int, int]:
    """Dual byte enumerator from the primal code, by Yates' algorithm, refused where q^n exceeds cap.

    The coefficient of z_{1:b1}...z_{s:bs}, with b the concatenated pattern, is
        (1/|C|) sum over u in C of chi(<b, u>),
    the n-fold tensor power of the q x q matrix chi(ab) applied to the
    indicator of C.  Yates' algorithm applies that matrix one coordinate at a
    time in the group ring Z[Z_e], where zeta_e is x, and each value ends as
    the tally of the character exponents <b, u> over the code.  The result
    is the nonzero {lexicographic index of b: coefficient}, in increasing
    index order.

    A value is packed into a Python int as 2e count fields of
    |C|.bit_length() bits, in a slot of whole bytes, so multiplying by x^r
    is a left shift by r fields; after each coordinate one mask-and-add
    folds field e+j back onto field j.  Row ints pack the patterns of some
    coordinates and a list of rows is indexed by the others, so a coordinate
    step combines whole rows.  Every coordinate is stepped between rows (see
    _yates_tallies): half of them, then one transpose of the slot matrix,
    then the other half.  Each coordinate is one pass over all the rows
    (_step_rows): the q strided columns of rows that differ in that
    coordinate are multiplied by the q x q matrix chi(ab) in whole-column
    shift-adds, q^2 of them, or q (|H| + q/|H|) where a subgroup H of (R, +)
    splits the product (see _Split), less the ones on all-zero columns.  A
    pass thus reads the q^n slot bytes of the rows q times, or |H| + q/|H|
    times, and holds the old and the new rows.  The final rows are checked
    and read whole (_read_tallies).
    """
    check_ambient_cap(code.ring, code.n, cap)
    check_levels(code, levels)
    return _read_tallies(*_yates_tallies(code, default_character(code.ring)), code.ring.exponent, code.size)


def _read_tallies(field: int, rows: list, period: int, e: int, code_size: int) -> dict[int, int]:
    """{r P + k: 1} for each slot k of each final row r that holds the tally of coefficient 1; P = period.

    A slot is 2e fields of field bits, padded to whole bytes.  By
    orthogonality (see _byte_coefficient) it holds a tally T_g, g | e and
    (e/g) | |C|: |C| g/e on the count fields of the multiples of g, 0 on the
    rest, on the zero fields and on the padding; T_e is coefficient 1, the
    others 0.  By Lamport's lane test, a slot of x = row ^ T_g (repeated) is
    nonzero exactly when its top bit is set in ((x & rest) + rest) | x, rest
    being the other bits.  T_e goes first, its equal slots read off their
    top bytes, then g = 1, 2, ... until every slot has matched; a slot
    matching none raises IntegrityError.
    """
    slot = -(-2 * e * field // 8)  # bytes
    top = _bias(period, slot)  # the top bit of each slot
    lanes = top >> (8 * slot - 1)  # the low bit of each slot
    rest = top - lanes  # the other bits of each slot
    unit, *others = [
        lanes * (code_size * g // e) * sum(1 << field * r for r in range(0, e, g))
        for g in (e, *range(1, e))
        if e % g == 0 and code_size * g % e == 0
    ]
    read: dict[int, tuple] = {}  # a row read before -> the slots k of its coefficient-1 patterns
    out = {}
    for start, row in zip(range(0, period * len(rows), period), rows):
        slots = read.get(row)
        if slots is None:
            x = row ^ unit
            left = (((x & rest) + rest) | x) & top  # the top bits of the slots that match no form so far
            ones = (top ^ left).to_bytes(slot * period, "little")[slot - 1 :: slot]
            for tally in others:
                if not left:
                    break
                x = row ^ tally
                left &= ((x & rest) + rest) | x
            if left:
                k = (left & -left).bit_length() // (8 * slot) - 1
                tally = row >> (8 * slot * k) & ((1 << 8 * slot) - 1)
                _byte_coefficient(tally, e, field, code_size)
                raise IntegrityError(f"the zero fields and padding of a tally hold {tally >> e * field:#x}")
            slots = read[row] = tuple(compress(range(period), ones))
        out.update(zip(map(start.__add__, slots), repeat(1)))
    return out


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


def krawtchouk_contraction(
    spectrum: dict, levels: LevelStructure, q: int, code_size: int
) -> dict[int, int]:
    """Per-level weight spectrum of the dual, from the code's, both keyed by weight key.

    The dual's count at weights p is (1/|C|) sum over spectrum entries A_l of
        A_l prod_j K_(p_j)(l_j), with level j's Krawtchouk values (_krawtchouk_columns).
    The product factors by level, so the spectrum is contracted with one
    Krawtchouk matrix per level, by the byte transform's kernel in its
    four-step order (see _yates_tallies).  Each cell is one signed field;
    the first floor(s/2) levels index the W slots of a row and the others
    the P rows, so each count is added straight into its row.  The trailing
    levels are stepped between the rows, each pass a multiply-add of whole
    columns by the level's matrix (_step_rows, _column_sums with mul), the
    slot matrix is transposed once, and the leading levels are stepped
    between the new rows.  Row r, slot k then holds weight key r P + k, so
    the keys are read in order.  The absolute values in a row of a
    Krawtchouk matrix sum to at most q^n_j, so no cell exceeds |C| q^n in
    absolute value: a field holds that and a sign, in 1, 2, 4, 8, ... bytes.

    Every key must be a weight key and every count a positive int, or
    ValueError is raised.  Every result must divide exactly by |C| and not
    be negative, or IntegrityError is raised; zero results are left out.
    """
    sizes = levels.sizes
    cells = prod(n + 1 for n in sizes)
    for key, count in spectrum.items():
        if type(key) is not int or not 0 <= key < cells:
            raise ValueError(f"spectrum key {key!r} is no weight key of levels {sizes}")
        if type(count) is not int or count < 1:
            raise ValueError(f"spectrum count {count!r} at {key} is not a positive integer")
    if code_size < 1 or code_size != sum(spectrum.values()):
        raise ValueError(f"spectrum sums to {sum(spectrum.values())}, but |C| = {code_size}")
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
        return [(len(m), lambda columns, height, m=m: list(_column_sums(columns, m, height, mul))) for m in matrices]

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


def mspotty_transform(
    spectrum: dict, levels: LevelStructure, t, q: int, code_size: int
) -> dict[int, int]:
    """Dual spotty enumerator: the dual spectrum folded to z_j^ceil(p_j/t_j)."""
    dual_spectrum = krawtchouk_contraction(spectrum, levels, q, code_size)
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
    terms: Callable  # (counts, q, levels) -> the terms in print order; see render
    fold: Callable | None = None  # (counts, levels, t) -> counts under the thresholds t
    levels: bool = True


# The routes call the kernels through their module globals, so that a tracer
# that rebinds those names (perfbench/spans.py) sees each call.  The transform
# route's |C| is the spectrum's total: code.size would list and sort the indices.
_WEIGHT_ROUTES = {
    "code": lambda code, levels, cap: weight_spectrum(code, levels),
    "dual": lambda code, levels, cap: dual_weight_spectrum(code, levels, cap),
    "transform": lambda code, levels, cap: krawtchouk_contraction(
        spectrum := weight_spectrum(code, levels), levels, code.ring.q, sum(spectrum.values())
    ),
}


def _poset_route(spectrum: Callable, listed: Callable) -> Callable:
    """A poset kind route: on a LevelStructure, the weight spectrum route folded by poset_spectrum,
    with no word listed; on a Poset, the listed word indices weighed half by half by their masks."""

    def route(code, shape, cap):
        if isinstance(shape, LevelStructure):
            return poset_spectrum(spectrum(code, shape, cap), shape)
        return poset_weight_enumerator(listed(code, cap), shape)

    return route


KINDS = {
    "byte": Kind(
        {
            "code": lambda code, levels, cap: byte_enumerator(code, levels),
            # a monomial a word, the levels checked first as on the other routes
            "dual": lambda code, levels, cap: check_levels(code, levels) or dict.fromkeys(dual_indices(code, cap), 1),
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
            "code": _poset_route(_WEIGHT_ROUTES["code"], lambda code, cap: code),
            "dual": _poset_route(_WEIGHT_ROUTES["dual"], lambda code, cap: dual_code(code, cap)),
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
    lists the dual's word indices (byte) or counts its per-level weight
    spectrum without listing it.  Both sides are count dicts, compared
    before anything is rendered.  The levels are checked first; then t is
    read, checked and recorded only by the kinds that fold by it, and read
    once, before either route runs.
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
