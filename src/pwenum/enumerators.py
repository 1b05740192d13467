"""Weight enumerators of linear codes split into coordinate levels.

All polynomials are sparse with exact integer coefficients.  Variables come
in four kinds:

    byte    z_{S:pattern}   one variable per level and per word over that level
    weight  z_{S:w}         one variable per level and per Hamming weight
    plain   z_S             one variable per level, weights live in exponents
    x                       the single variable of ordinary weight enumerators

Each codeword contributes exactly one monomial to each enumerator, so the
coefficient sum always equals the code size.
"""

from __future__ import annotations

from functools import cache, partial
from math import ceil
from typing import NamedTuple

from .codes import LinearCode, level_split, word_indices
from .posets import LevelStructure, Poset


class VarKey(NamedTuple):
    """Identity of one enumerator variable; data disambiguates within a kind."""

    level: int
    kind: str  # "byte" | "weight" | "plain" | "x"
    data: tuple[int, ...] = ()


def byte_var(level: int, pattern) -> VarKey:
    return VarKey(level, "byte", tuple(pattern))


def weight_var(level: int, w: int) -> VarKey:
    return VarKey(level, "weight", (w,))


def plain_var(level: int) -> VarKey:
    return VarKey(level, "plain")


X_VAR = VarKey(0, "x")


def _var_text(key: VarKey, exp: int) -> str:
    if key.kind == "x":
        base = "x"
    elif key.kind == "plain":
        base = f"z_{key.level}"
    elif key.kind == "weight":
        base = f"z_{{{key.level}:{key.data[0]}}}"
    else:
        pattern = key.data
        joined = (
            "".join(str(i) for i in pattern)
            if all(i < 10 for i in pattern)
            else ",".join(str(i) for i in pattern)
        )
        base = f"z_{{{key.level}:{joined}}}"
    return base if exp == 1 else f"{base}^{exp}"


def _var_json(key: VarKey, exp: int) -> dict:
    if key.kind == "byte":
        obj = {"level": key.level, "kind": "byte", "pattern": list(key.data)}
        if exp != 1:
            obj["exp"] = exp
        return obj
    if key.kind == "weight":
        obj = {"level": key.level, "kind": "weight", "w": key.data[0]}
        if exp != 1:
            obj["exp"] = exp
        return obj
    return {"level": key.level, "kind": key.kind, "exp": exp}


def _canonical_monomial(mono) -> tuple:
    merged: dict[VarKey, int] = {}
    for key, exp in mono:
        if not isinstance(key, VarKey):
            key = VarKey(*key)
        exp = int(exp)
        if exp < 0:
            raise ValueError(f"negative exponent {exp} on {key}")
        if exp:
            merged[key] = merged.get(key, 0) + exp
    return tuple(sorted(merged.items()))


class EnumeratorPoly:
    """Sparse exact-integer polynomial over VarKey variables.

    Terms map a canonical monomial (sorted tuple of (VarKey, exponent)
    pairs, exponents positive) to a nonzero integer coefficient.  Equality
    is structural.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        canon: dict[tuple, int] = {}
        if terms:
            for mono, coeff in dict(terms).items():
                coeff = int(coeff)
                if coeff == 0:
                    continue
                key = _canonical_monomial(mono)
                canon[key] = canon.get(key, 0) + coeff
                if canon[key] == 0:
                    del canon[key]
        self.terms = canon

    @classmethod
    def from_canonical(cls, terms: dict) -> EnumeratorPoly:
        """Wrap terms whose monomials are already canonical and coefficients nonzero.

        The kernels build their monomials sorted, with positive exponents and
        no repeated variable, so re-canonicalising them would only repeat work.
        """
        poly = cls.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def constant(cls, c: int) -> EnumeratorPoly:
        return cls({(): c})

    @classmethod
    def monomial(cls, variables, coeff: int = 1) -> EnumeratorPoly:
        return cls({tuple(variables): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = EnumeratorPoly.constant(other)
        if not isinstance(other, EnumeratorPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = EnumeratorPoly.constant(other)
        if not isinstance(other, EnumeratorPoly):
            return NotImplemented
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = out.get(mono, 0) + coeff
            if new:
                out[mono] = new
            else:
                out.pop(mono, None)
        result = EnumeratorPoly.__new__(EnumeratorPoly)
        result.terms = out
        return result

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, int):
            other = EnumeratorPoly.constant(other)
        if not isinstance(other, EnumeratorPoly):
            return NotImplemented
        out: dict[tuple, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _canonical_monomial(m1 + m2)
                new = out.get(mono, 0) + c1 * c2
                if new:
                    out[mono] = new
                else:
                    out.pop(mono, None)
        result = EnumeratorPoly.__new__(EnumeratorPoly)
        result.terms = out
        return result

    __rmul__ = __mul__

    def coefficient_sum(self) -> int:
        return sum(self.terms.values())

    def sorted_terms(self) -> list[tuple[tuple, int]]:
        return sorted(self.terms.items())

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            body = "".join(_var_text(k, e) for k, e in mono)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            else:
                parts.append(f"{coeff}{body}")
        return " + ".join(parts)

    def to_json_obj(self) -> list[dict]:
        return [
            {"coeff": coeff, "vars": [_var_json(k, e) for k, e in mono]}
            for mono, coeff in self.sorted_terms()
        ]

    def __repr__(self):
        return f"EnumeratorPoly({self.to_text()})"


def _weight(word) -> int:
    return sum(1 for x in word if x)


def poset_weight_enumerator(code: LinearCode, poset: Poset) -> EnumeratorPoly:
    """sum over codewords of x^(poset weight)."""
    if poset.n != code.n:
        raise ValueError(f"poset size {poset.n} does not match code length {code.n}")
    terms: dict[tuple, int] = {}
    for u in code.words:
        w = poset.weight(u)
        mono = ((X_VAR, w),) if w else ()
        terms[mono] = terms.get(mono, 0) + 1
    return EnumeratorPoly(terms)


def eta(s_level: int, pattern, k_level: int, word) -> int:
    """1 iff the levels agree and the word matches the pattern exactly."""
    if s_level != k_level:
        return 0
    pattern, word = tuple(pattern), tuple(word)
    if len(pattern) != len(word):
        raise ValueError(
            f"pattern length {len(pattern)} does not match word length {len(word)}"
        )
    return 1 if pattern == word else 0


def mu(s_level: int, pattern, u, levels: LevelStructure) -> int:
    """Indicator that level s_level of u equals the pattern.

    Summing the match indicator over all levels k collapses to the single
    k = s_level term, since cross-level comparisons vanish by definition.
    """
    parts = level_split(u, levels)
    return eta(s_level, pattern, s_level, parts[s_level - 1])


def byte_enumerator(code: LinearCode, levels: LevelStructure) -> EnumeratorPoly:
    """sum over codewords of prod_S z_{S:(level-S block of the codeword)}."""
    _check_levels(code, levels)
    return render_byte(dict.fromkeys(word_indices(code), 1), code.ring.q, levels)


def render_byte(counts: dict, q: int, levels: LevelStructure) -> EnumeratorPoly:
    """The byte enumerator with these {pattern index: count}: z_{S:level-S block} per level S.

    Pattern b has index sum of b_i q^(n-1-i); its level-S block, with `after`
    coordinates past level S, has index (index // q^after) % q^n_S.  A block's
    variable is built when the block first occurs, so the cost follows the counts.
    """
    blocks, after = [], levels.n
    for level, n_s in enumerate(levels.sizes, start=1):
        after -= n_s
        places = [q**j for j in reversed(range(n_s))]
        blocks.append((cache(partial(_block_var, level, q, places)), q**after, q**n_s))
    return EnumeratorPoly.from_canonical(
        {tuple(var(i // div % mod) for var, div, mod in blocks): c for i, c in counts.items()}
    )


def _block_var(level: int, q: int, places: list, block: int) -> tuple:
    """(z_{level:beta}, 1) for the level block beta = (block // p % q for p in places)."""
    return byte_var(level, [block // p % q for p in places]), 1


def weight_spectrum(code: LinearCode, levels: LevelStructure) -> dict[tuple, int]:
    """Count codewords by their tuple of per-level Hamming weights."""
    _check_levels(code, levels)
    out: dict[tuple, int] = {}
    for u in code.words:
        key = tuple(_weight(part) for part in level_split(u, levels))
        out[key] = out.get(key, 0) + 1
    return out


def render_complete(spectrum: dict) -> EnumeratorPoly:
    """The complete level enumerator with this spectrum: z_{i:w_i} for each level i."""
    return EnumeratorPoly.from_canonical(
        {
            tuple((weight_var(i, w), 1) for i, w in enumerate(l, start=1)): c
            for l, c in spectrum.items()
        }
    )


def render_plain(spectrum: dict) -> EnumeratorPoly:
    """The enumerator with this spectrum in plain variables: z_i^(key_i) for each level i."""
    return EnumeratorPoly.from_canonical(
        {
            tuple((plain_var(i), w) for i, w in enumerate(l, start=1) if w): c
            for l, c in spectrum.items()
        }
    )


def spotty_spectrum(spectrum: dict, t) -> dict[tuple, int]:
    """Per-level weights w_i folded to ceil(w_i / t_i), counts of equal keys summed."""
    out: dict[tuple, int] = {}
    for l, count in spectrum.items():
        key = tuple(-(-w // ti) for w, ti in zip(l, t))
        out[key] = out.get(key, 0) + count
    return out


def render_weight_spectrum(kind: str, spectrum: dict, levels: LevelStructure, t=None):
    """The complete, level or mspotty enumerator of a per-level weight spectrum."""
    if kind == "complete":
        return render_complete(spectrum)
    if kind == "mspotty":
        spectrum = spotty_spectrum(spectrum, _check_t(levels, t))
    return render_plain(spectrum)


def complete_level_enumerator(code: LinearCode, levels: LevelStructure) -> EnumeratorPoly:
    """sum over codewords of prod_i z_{i:w(level-i block)}."""
    return render_complete(weight_spectrum(code, levels))


def level_enumerator(code: LinearCode, levels: LevelStructure) -> EnumeratorPoly:
    """sum over codewords of prod_i z_i^(w(level-i block))."""
    return render_plain(weight_spectrum(code, levels))


def _check_levels(code, levels):
    if levels.n != code.n:
        raise ValueError(
            f"level structure size {levels.n} does not match code length {code.n}"
        )


def _check_t(levels: LevelStructure, t) -> tuple[int, ...]:
    t = tuple(int(x) for x in t)
    if len(t) != levels.count:
        raise ValueError(f"t has {len(t)} entries for {levels.count} levels")
    for ti, ni in zip(t, levels.sizes):
        if not 1 <= ti <= ni:
            raise ValueError(f"t entry {ti} outside 1..{ni}")
    return t


def mspotty_weight(v, levels: LevelStructure, t) -> int:
    """Sum over levels of ceil(level Hamming weight / t_i)."""
    t = _check_t(levels, t)
    parts = level_split(v, levels)
    return sum(ceil(_weight(part) / ti) for part, ti in zip(parts, t))


def mspotty_distance(u, v, levels: LevelStructure, t) -> int:
    """Sum over levels of ceil(level Hamming distance / t_i); a metric."""
    if not len(u) == len(v) == levels.n:
        raise ValueError(
            f"word lengths {len(u)} and {len(v)} do not match level structure size {levels.n}"
        )
    t = _check_t(levels, t)
    dist = 0
    for (lo, hi), ti in zip(levels.bounds(), t):
        d = sum(1 for a, b in zip(u[lo - 1 : hi], v[lo - 1 : hi]) if a != b)
        dist += ceil(d / ti)
    return dist


def mspotty_enumerator(code: LinearCode, levels: LevelStructure, t) -> EnumeratorPoly:
    """sum over codewords of prod_i z_i^(ceil(w(level-i block)/t_i))."""
    return render_weight_spectrum("mspotty", weight_spectrum(code, levels), levels, t)


def collapse_to_x(poly: EnumeratorPoly) -> EnumeratorPoly:
    """Set every plain level variable equal to x (Hamming specialization)."""
    terms: dict[tuple, int] = {}
    for mono, coeff in poly.terms.items():
        total = 0
        for key, exp in mono:
            if key.kind != "plain":
                raise ValueError(f"cannot collapse variable of kind {key.kind!r}")
            total += exp
        new_mono = ((X_VAR, total),) if total else ()
        terms[new_mono] = terms.get(new_mono, 0) + coeff
    return EnumeratorPoly(terms)
