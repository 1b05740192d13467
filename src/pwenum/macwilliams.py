"""MacWilliams-type transforms and the identity-verification harness.

Each transform computes a dual-code enumerator from the primal code alone,
through exact character sums; verify_identity() then compares the result
against the same enumerator computed directly on the brute-force dual.
Intermediate coefficients are cyclotomic integers that must collapse to
rational integers and divide exactly by the code size; any remainder is
raised as an IntegrityError, never rounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import comb

from .codes import LinearCode, dual_code, inner_product, level_split
from .cyclotomic import CycInt
from .enumerators import (
    EnumeratorPoly,
    byte_enumerator,
    byte_var,
    complete_level_enumerator,
    level_enumerator,
    mspotty_enumerator,
    substitute,
    weight_spectrum,
    weight_var,
    _check_t,
)
from .errors import IntegrityError
from .posets import LevelStructure
from .rings import Character, RingSpec, default_character

TRANSFORM_KINDS = ("byte", "complete", "level", "mspotty")


@dataclass
class IdentityReport:
    """Outcome of one identity check: transform output vs direct computation."""

    kind: str
    equal: bool
    lhs: object  # EnumeratorPoly, or CycInt for the hadamard kind
    rhs: object
    instance: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "equal": self.equal,
            "lhs": _side_json(self.lhs),
            "rhs": _side_json(self.rhs),
            "instance": self.instance,
        }


def _side_json(value):
    if isinstance(value, EnumeratorPoly):
        return value.to_json_obj()
    if isinstance(value, CycInt):
        if value.is_integer():
            return value.coeffs[0]
        return {"order": value.order, "coeffs": list(value.coeffs)}
    return value


def hadamard_check(
    ring: RingSpec,
    chi: Character,
    code: LinearCode,
    f: dict,
    cap: int | None = None,
) -> IdentityReport:
    """Compare sum of f over the dual with the averaged transformed sum over C.

    f maps words of R^n to integers or cyclotomic integers; missing words
    count as zero.  The transformed function sums chi(<u, v>) f(v) over the
    support of f, and its total over the code must divide exactly by |C|.
    """
    e = ring.exponent
    zero = CycInt(e)
    support = [(tuple(v), _as_cyc(e, val)) for v, val in f.items()]

    dual = dual_code(code, cap)
    lhs = zero
    for v, val in support:
        if v in dual:
            lhs = lhs + val

    total = zero
    for u in code.words:
        for v, val in support:
            total = total + chi.value(inner_product(ring, u, v)) * val
    rhs = total.divide_exact(code.size)
    return IdentityReport(
        kind="hadamard",
        equal=lhs == rhs,
        lhs=lhs,
        rhs=rhs,
        instance={"ring": ring.to_json_obj(), "generators": [list(g) for g in code.generators]},
    )


def _as_cyc(e, val):
    if isinstance(val, CycInt):
        if val.order != e:
            raise ValueError(f"test function value has order {val.order}, ring has {e}")
        return val
    return CycInt(e, (int(val),))


def byte_transform(
    code: LinearCode, levels: LevelStructure, chi: Character | None = None
) -> EnumeratorPoly:
    """Dual byte enumerator from the primal code, via per-level character sums.

    Per codeword u and level S the factor is
        sum over patterns beta in R^{n_S} of chi(<beta, u^S>) z_{S:beta};
    multiplying the factors across levels and summing over the code gives,
    for every monomial z_{1:b1}...z_{s:bs}, the exact coefficient
        (1/|C|) sum over u of chi(<b, u>).
    The walk below accumulates exactly that, one concatenated pattern at a
    time, tallying character exponents over the codewords.
    """
    ring = code.ring
    if levels.n != code.n:
        raise ValueError(
            f"level structure size {levels.n} does not match code length {code.n}"
        )
    if chi is None:
        chi = default_character(ring)
    q, e = ring.q, ring.exponent
    eps = chi.exponents
    add, mul = ring.add_table, ring.mul_table
    csize = code.size

    slices = [level_split(u, levels) for u in code.words]
    tables = []
    for idx, n_s in enumerate(levels.sizes):
        parts = [sl[idx] for sl in slices]
        entries = []
        for beta in product(range(q), repeat=n_s):
            rows = [mul[b] for b in beta]
            vec = []
            for part in parts:
                acc = 0
                for row, x in zip(rows, part):
                    acc = add[acc][row[x]]
                vec.append(eps[acc])
            entries.append((beta, vec))
        tables.append(entries)

    terms: dict[tuple, int] = {}

    def walk(level_idx, mono, vec):
        if level_idx == len(tables):
            counts = [0] * e
            for x in vec:
                counts[x] += 1
            value = CycInt(e, counts)
            if not value.is_integer():
                raise IntegrityError(
                    f"character sum {value!r} did not collapse to an integer"
                )
            coeff, rem = divmod(value.coeffs[0], csize)
            if rem:
                raise IntegrityError(
                    f"coefficient {value.coeffs[0]} not divisible by |C| = {csize}"
                )
            if coeff < 0:
                raise IntegrityError(f"negative enumerator coefficient {coeff}")
            if coeff:
                terms[mono] = coeff
            return
        for beta, bvec in tables[level_idx]:
            merged = bvec if vec is None else [(a + b) % e for a, b in zip(vec, bvec)]
            walk(level_idx + 1, mono + ((byte_var(level_idx + 1, beta), 1),), merged)

    walk(0, (), None)
    return EnumeratorPoly(terms)


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


def complete_transform(
    spectrum: dict, levels: LevelStructure, q: int, code_size: int
) -> EnumeratorPoly:
    """Dual complete enumerator from the per-level weight spectrum of the code.

    (1/|C|) sum over spectrum entries A_l of
        prod_j ( sum over p_j of krawtchouk_level(n_j, l_j, p_j, q) z_{j:p_j} ),
    expanded coefficient by coefficient.  The product factors by level, so
    the spectrum is contracted with one Krawtchouk matrix per level in turn.
    Each step replaces the leading l_j of a key by p_j at its end: after
    step j the keys read (l_{j+1}, ..., l_s, p_1, ..., p_j).
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

    terms: dict[tuple, int] = {}
    for p, total in state.items():
        coeff, rem = divmod(total, code_size)
        if rem:
            raise IntegrityError(f"coefficient {total} not divisible by |C| = {code_size}")
        if coeff < 0:
            raise IntegrityError(f"negative enumerator coefficient {coeff}")
        terms[tuple((weight_var(j, pj), 1) for j, pj in enumerate(p, start=1))] = coeff
    return EnumeratorPoly(terms)


def level_transform(
    spectrum: dict, levels: LevelStructure, q: int, code_size: int
) -> EnumeratorPoly:
    """Dual plain-level enumerator: the complete transform with z_{j:p} -> z_j^p."""
    return substitute(complete_transform(spectrum, levels, q, code_size), "complete->level")


def mspotty_transform(
    spectrum: dict, levels: LevelStructure, t, q: int, code_size: int
) -> EnumeratorPoly:
    """Dual spotty enumerator: the complete transform with z_{j:p} -> z_j^ceil(p/t_j)."""
    t = _check_t(levels, t)
    return substitute(
        complete_transform(spectrum, levels, q, code_size), "complete->mspotty", t
    )


def verify_identity(
    kind: str,
    code: LinearCode,
    levels: LevelStructure,
    t=None,
    chi: Character | None = None,
    cap: int | None = None,
    dual: LinearCode | None = None,
) -> IdentityReport:
    """Check one transform against brute-force dual enumeration.

    lhs is the transform computed from the primal code; rhs is the same
    enumerator computed directly on the scanned dual.  Pass a precomputed
    dual to amortize the scan across several kinds.
    """
    if kind not in TRANSFORM_KINDS:
        raise ValueError(f"unknown identity kind {kind!r}; expected {TRANSFORM_KINDS}")
    ring = code.ring
    if dual is None:
        dual = dual_code(code, cap)
    if kind == "byte":
        lhs = byte_transform(code, levels, chi)
        rhs = byte_enumerator(dual, levels)
    else:
        spectrum = weight_spectrum(code, levels)
        if kind == "complete":
            lhs = complete_transform(spectrum, levels, ring.q, code.size)
            rhs = complete_level_enumerator(dual, levels)
        elif kind == "level":
            lhs = level_transform(spectrum, levels, ring.q, code.size)
            rhs = level_enumerator(dual, levels)
        else:
            lhs = mspotty_transform(spectrum, levels, t, ring.q, code.size)
            rhs = mspotty_enumerator(dual, levels, t)
    instance = {
        "ring": ring.to_json_obj(),
        "levels": list(levels.sizes),
        "generators": [list(g) for g in code.generators],
    }
    if t is not None:
        instance["t"] = list(t)
    return IdentityReport(kind=kind, equal=lhs == rhs, lhs=lhs, rhs=rhs, instance=instance)
