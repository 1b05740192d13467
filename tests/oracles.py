"""Brute-force reference implementations that the library kernels replaced.

They are kept here, outside the package, as differential-test oracles:
each one is the direct reading of its definition and shares no logic with
the fast kernel it checks.
"""

from itertools import product
from math import ceil, comb

from pwenum.cyclotomic import CycInt
from pwenum.enumerators import EnumeratorPoly, plain_var, weight_var
from pwenum.errors import IntegrityError


def scan_dual_words(code) -> list[tuple]:
    """Every word of R^n orthogonal to the generators, by a full scan in lexicographic order."""
    ring = code.ring
    add, mul = ring.add_table, ring.mul_table
    gen_rows = [[mul[x] for x in g] for g in code.generators]
    words = []
    for v in product(range(ring.q), repeat=code.n):
        for rows in gen_rows:
            acc = 0
            for row, x in zip(rows, v):
                acc = add[acc][row[x]]
            if acc:
                break
        else:
            words.append(v)
    return words


def _krawtchouk(n_j, l_j, p_j, q):
    return sum(
        (-1) ** a * (q - 1) ** (p_j - a) * comb(l_j, a) * comb(n_j - l_j, p_j - a)
        for a in range(p_j + 1)
    )


def cell_complete_transform(spectrum, sizes, q, code_size) -> dict[tuple, int]:
    """Dual complete spectrum, one output cell at a time.

    For every per-level weight tuple p, sums A_l * prod_j K(n_j, l_j, p_j)
    over the spectrum and divides by |C|, asserting the division is exact.
    Returns {p: coefficient} with zero cells left out.
    """
    out = {}
    for p in product(*(range(n + 1) for n in sizes)):
        total = 0
        for l, count in spectrum.items():
            term = count
            for n_j, l_j, p_j in zip(sizes, l, p):
                term *= _krawtchouk(n_j, l_j, p_j, q)
            total += term
        coeff, rem = divmod(total, code_size)
        assert rem == 0, f"cell {p}: {total} not divisible by {code_size}"
        if coeff:
            out[p] = coeff
    return out


def pattern_byte_transform(code, chi) -> dict[tuple, int]:
    """Dual byte coefficients, one pattern at a time.

    For every b in R^n, tallies the exponents of chi(<b, u>) over the
    codewords u, reduces the tally in Z[zeta_e] and divides it by |C|,
    raising IntegrityError where the pattern's value is not a nonnegative
    integer.  Returns {b: coefficient} with zero patterns left out.
    """
    ring = code.ring
    e = ring.exponent
    add, mul = ring.add_table, ring.mul_table
    eps = chi.exponents
    out = {}
    for b in product(range(ring.q), repeat=code.n):
        rows = [mul[x] for x in b]
        counts = [0] * e
        for u in code.words:
            acc = 0
            for row, x in zip(rows, u):
                acc = add[acc][row[x]]
            counts[eps[acc]] += 1
        value = CycInt(e, counts)
        if not value.is_integer():
            raise IntegrityError(f"character sum {value!r} did not collapse to an integer")
        coeff, rem = divmod(value.coeffs[0], code.size)
        if rem:
            raise IntegrityError(f"coefficient {value.coeffs[0]} not divisible by |C| = {code.size}")
        if coeff < 0:
            raise IntegrityError(f"negative enumerator coefficient {coeff}")
        if coeff:
            out[b] = coeff
    return out


def exhaustive_ring_axioms(add, mul) -> bool:
    """True iff the tables form a commutative ring with identities at indices 0 and 1.

    Checks the identities, commutativity and additive inverses pair by pair,
    then associativity of both operations and distributivity over every
    triple (a, b, c).  The additive exponent facts that RingSpec also checks
    follow from these axioms.
    """
    q = len(add)
    rng = range(q)
    for a in rng:
        if add[0][a] != a or add[a][0] != a or mul[1][a] != a or mul[a][1] != a:
            return False
        if 0 not in add[a]:
            return False
        for b in rng:
            if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                return False
    for a in rng:
        for b in rng:
            for c in rng:
                if add[add[a][b]][c] != add[a][add[b][c]]:
                    return False
                if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                    return False
                if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                    return False
    return True


def _gf_poly_mod(poly, modulus, p):
    """Reduce a coefficient list modulo a monic modulus, over GF(p)."""
    poly = list(poly)
    k = len(modulus) - 1
    for i in range(len(poly) - 1, k - 1, -1):
        c = poly[i] % p
        if c:
            for j in range(k + 1):
                poly[i - k + j] = (poly[i - k + j] - c * modulus[j]) % p
    return [c % p for c in poly[:k]]


def convolution_gf_tables(p, k, modulus) -> tuple[tuple, tuple]:
    """(add, mul) of GF(p^k), entry by entry from coefficient lists.

    Element i has base-p digits i_0, ..., i_{k-1} as its coefficients, low to
    high.  The modulus is scaled to be monic; each product is the
    convolution of two coefficient lists reduced modulo it.
    """
    q = p**k
    inv_lead = pow(modulus[-1] % p, p - 2, p)
    modulus = [c * inv_lead % p for c in modulus]

    def to_poly(i):
        out = []
        for _ in range(k):
            out.append(i % p)
            i //= p
        return out

    def to_index(poly):
        i = 0
        for c in reversed(poly):
            i = i * p + c
        return i

    polys = [to_poly(i) for i in range(q)]
    add = tuple(
        tuple(to_index([(x + y) % p for x, y in zip(polys[a], polys[b])]) for b in range(q))
        for a in range(q)
    )
    mul_rows = []
    for a in range(q):
        row = []
        for b in range(q):
            conv = [0] * (2 * k - 1)
            for i, x in enumerate(polys[a]):
                if x:
                    for j, y in enumerate(polys[b]):
                        conv[i + j] += x * y
            red = _gf_poly_mod(conv, modulus, p)
            red.extend([0] * (k - len(red)))
            row.append(to_index(red))
        mul_rows.append(tuple(row))
    return add, tuple(mul_rows)


def substitute(poly, rule: str, t=None):
    """Rewrite the variables of an enumerator and collect like terms.

    byte->complete      z_{S:pattern} becomes z_{S:w(pattern)}
    complete->level     z_{j:p}       becomes z_j^p
    complete->mspotty   z_{j:p}       becomes z_j^ceil(p/t_j)

    The paper's substitution relations, read variable by variable; the
    library renders the level and spotty enumerators from spectra instead.
    """
    if rule not in ("byte->complete", "complete->level", "complete->mspotty"):
        raise ValueError(f"unknown substitution rule {rule!r}")
    source = "byte" if rule == "byte->complete" else "weight"
    if rule == "complete->mspotty":
        if t is None:
            raise ValueError("complete->mspotty needs the spotty thresholds t")
        t = tuple(int(x) for x in t)
        if any(ti < 1 for ti in t):
            raise ValueError(f"t entries must be positive, got {t}")
    terms: dict[tuple, int] = {}
    for mono, coeff in poly.terms.items():
        new_mono = []
        for key, exp in mono:
            if key.kind != source:
                raise ValueError(
                    f"variable {key} has kind {key.kind!r}; rule {rule} expects {source!r}"
                )
            if rule == "byte->complete":
                weight = sum(1 for x in key.data if x)
                new_mono.append((weight_var(key.level, weight), exp))
            elif rule == "complete->level":
                new_mono.append((plain_var(key.level), key.data[0] * exp))
            else:
                if key.level > len(t):
                    raise ValueError(f"no t entry for level {key.level}")
                new_exp = ceil(key.data[0] / t[key.level - 1]) * exp
                new_mono.append((plain_var(key.level), new_exp))
        terms[tuple(new_mono)] = terms.get(tuple(new_mono), 0) + coeff
    return EnumeratorPoly(terms)
