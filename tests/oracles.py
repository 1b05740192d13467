"""Brute-force reference implementations that the library kernels replaced.

They are kept here, outside the package, as differential-test oracles:
each one is the direct reading of its definition and shares no logic with
the fast kernel it checks.
"""

from itertools import product
from math import comb

from pwenum.cyclotomic import CycInt
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
