"""Brute-force reference implementations that the library kernels replaced.

They are kept here, outside the package, as differential-test oracles:
each one is the direct reading of its definition and shares no logic with
the fast kernel it checks.  The oracles key a per-level weight spectrum by
the weight tuple; weight_key, keyed and unkeyed translate to and from the
library's weight keys.
"""

from collections import Counter
from functools import cache
from itertools import accumulate, product
from math import ceil, comb, prod

from cyclotomic import CycInt, character_value
from pwenum.codes import dual_code, level_split
from pwenum.enumerators import check_t
from pwenum.errors import IntegrityError
from pwenum.macwilliams import IdentityReport


def span_words(ring, n, generators) -> list[tuple]:
    """Every sum of c_j g_j, over all coefficient tuples c in R^k, in lexicographic order."""
    add, mul = ring.add_table, ring.mul_table
    words = set()
    for coeffs in product(range(ring.q), repeat=len(generators)):
        word = (0,) * n
        for c, g in zip(coeffs, generators):
            word = tuple(add[a][mul[c][x]] for a, x in zip(word, g))
        words.add(word)
    return sorted(words)


def weight_key(sizes, weights) -> int:
    """The weight key of a weight tuple: the sum of w_j times the product of n_i + 1 over i > j."""
    assert len(weights) == len(sizes) and all(0 <= w <= n for w, n in zip(weights, sizes))
    return sum(w * prod(n + 1 for n in sizes[j + 1 :]) for j, w in enumerate(weights))


def weight_tuples(sizes) -> dict[int, tuple]:
    """Every weight tuple of these level sizes, by its weight key."""
    return {weight_key(sizes, w): w for w in product(*(range(n + 1) for n in sizes))}


def keyed(sizes, counts: dict) -> dict[int, int]:
    """A spectrum keyed by weight tuple, keyed by weight key instead."""
    return {weight_key(sizes, l): c for l, c in counts.items()}


def unkeyed(sizes, counts: dict) -> dict[tuple, int]:
    """A spectrum keyed by weight key, keyed by weight tuple instead; a key of no tuple raises KeyError."""
    tuples = weight_tuples(sizes)
    return {tuples[key]: c for key, c in counts.items()}


def tuple_weight_spectrum(code, levels) -> Counter:
    """The codewords, decoded to tuples, counted by their per-level numbers of nonzero entries."""
    return Counter(
        tuple(sum(1 for x in part if x) for part in level_split(u, levels)) for u in code.words
    )


def level_bounds(sizes) -> list[tuple[int, int]]:
    """1-based inclusive (first, last) position of each level."""
    return [(end - size + 1, end) for size, end in zip(sizes, accumulate(sizes))]


def hierarchical_poset(sizes) -> list[tuple[int, int]]:
    """The covers of the hierarchical poset on these level sizes: each level below all of the next."""
    bounds = level_bounds(sizes)
    return [
        (a, b)
        for (lo, hi), (up_lo, up_hi) in zip(bounds, bounds[1:])
        for a in range(lo, hi + 1)
        for b in range(up_lo, up_hi + 1)
    ]


def cover_ideal(covers, support) -> set[int]:
    """The smallest ideal containing the support: a search down the given (lower, upper) pairs."""
    below = {}
    for a, b in covers:
        below.setdefault(b, set()).add(a)
    ideal, stack = set(support), list(support)
    while stack:
        for a in below.get(stack.pop(), ()):
            if a not in ideal:
                ideal.add(a)
                stack.append(a)
    return ideal


def cover_poset_enumerator(words, covers) -> Counter:
    """The words counted by the size of the ideal their support generates under the covers."""
    return Counter(len(cover_ideal(covers, [i + 1 for i, x in enumerate(w) if x])) for w in words)


def cover_level_sizes(n, covers):
    """The level sizes of the order the covers generate, or None where there are none.

    The levels are the height classes, read off the down-sets; the order has
    level sizes when every position of one level lies below every position
    of the next, and each level is the block of coordinates right after the
    level below it.  The covers must be acyclic.
    """
    down = {p: cover_ideal(covers, [p]) for p in range(1, n + 1)}
    height = {}
    for p in sorted(down, key=lambda p: len(down[p])):
        height[p] = max((height[x] + 1 for x in down[p] - {p}), default=0)
    levels = [sorted(p for p in height if height[p] == h) for h in range(max(height.values()) + 1)]
    for lower, upper in zip(levels, levels[1:]):
        if any(a not in down[b] for a in lower for b in upper):
            return None
    if [p for level in levels for p in level] != list(range(1, n + 1)):
        return None
    return tuple(map(len, levels))


def inner_product(ring, u, v) -> int:
    """Coordinatewise product summed in the ring."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    add, mul = ring.add_table, ring.mul_table
    acc = 0
    for a, b in zip(u, v):
        acc = add[acc][mul[a][b]]
    return acc


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


@cache
def _krawtchouk(n_j, l_j, p_j, q):
    return sum(
        (-1) ** a * (q - 1) ** (p_j - a) * comb(l_j, a) * comb(n_j - l_j, p_j - a)
        for a in range(p_j + 1)
    )


def cell_complete_totals(spectrum, sizes, q) -> dict[tuple, int]:
    """Dual complete spectrum before the division by |C|, zero cells kept.

    For every per-level weight tuple p, sums A_l * prod_j K(n_j, l_j, p_j)
    over the spectrum.
    """
    totals = {}
    for p in product(*(range(n + 1) for n in sizes)):
        total = 0
        for l, count in spectrum.items():
            term = count
            for n_j, l_j, p_j in zip(sizes, l, p):
                term *= _krawtchouk(n_j, l_j, p_j, q)
            total += term
        totals[p] = total
    return totals


def cell_complete_transform(spectrum, sizes, q, code_size) -> dict[tuple, int]:
    """Dual complete spectrum, one output cell at a time.

    Divides each of cell_complete_totals by |C|, asserting the division is
    exact.  Returns {p: coefficient} with zero cells left out.
    """
    out = {}
    for p, total in cell_complete_totals(spectrum, sizes, q).items():
        coeff, rem = divmod(total, code_size)
        assert rem == 0, f"cell {p}: {total} not divisible by {code_size}"
        if coeff:
            out[p] = coeff
    return out


def pattern_byte_transform(code, eps) -> dict[tuple, int]:
    """Dual byte coefficients, one pattern at a time; eps is the character's exponent row.

    For every b in R^n, tallies the exponents eps(<b, u>) over the
    codewords u and reads the tally by cyclotomic_coefficient.  Returns
    {b: coefficient} with zero patterns left out.
    """
    ring = code.ring
    e = ring.exponent
    add, mul = ring.add_table, ring.mul_table
    out = {}
    for b in product(range(ring.q), repeat=code.n):
        rows = [mul[x] for x in b]
        counts = [0] * e
        for u in code.words:
            acc = 0
            for row, x in zip(rows, u):
                acc = add[acc][row[x]]
            counts[eps[acc]] += 1
        coeff = cyclotomic_coefficient(counts, code.size)
        if coeff:
            out[b] = coeff
    return out


def cyclotomic_coefficient(counts, code_size) -> int:
    """(1/|C|) sum over r of counts[r] zeta_e^r, e = len(counts), reduced modulo Phi_e.

    Raises IntegrityError unless the sum is a rational integer that divides
    exactly by |C| and is not negative.
    """
    value = CycInt(len(counts), counts)
    if not value.is_integer():
        raise IntegrityError(f"character sum {value!r} did not collapse to an integer")
    coeff, rem = divmod(value.coeffs[0], code_size)
    if rem:
        raise IntegrityError(f"coefficient {value.coeffs[0]} not divisible by |C| = {code_size}")
    if coeff < 0:
        raise IntegrityError(f"negative enumerator coefficient {coeff}")
    return coeff


def dense_line_step(values, shifts, low, half) -> list:
    """One coordinate line of the byte transform times the q x q matrix chi(ab), pair by pair.

    values[a] is the packed value at element a and shifts[b][a] the shift
    that multiplies by chi(ab); each of the q sums is folded with low and
    half as in the kernel.  This is the step as it ran before it was split
    through a subgroup.
    """
    out = []
    for row in shifts:
        acc = 0
        for value, shift in zip(values, row):
            acc += value << shift
        out.append((acc & low) + ((acc >> half) & low))
    return out


def exhaustive_is_additive(ring, exponents) -> bool:
    """True iff eps(a + b) = eps(a) + eps(b) mod e for every pair (a, b)."""
    e, add, rng = ring.exponent, ring.add_table, range(ring.q)
    return all((exponents[a] + exponents[b]) % e == exponents[add[a][b]] for a in rng for b in rng)


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


def gf_is_irreducible(modulus, p, k) -> bool:
    """Trial division of a monic modulus of degree k by every monic polynomial of degree 1..k//2."""
    for d in range(1, k // 2 + 1):
        for tail in product(range(p), repeat=d):
            den = list(tail) + [1]
            rem = list(modulus)
            for i in range(len(rem) - 1, d - 1, -1):
                c = rem[i] % p
                if c:
                    for j in range(d + 1):
                        rem[i - d + j] = (rem[i - d + j] - c * den[j]) % p
            if not any(c % p for c in rem[:d]):
                return False
    return True


def pattern_of(index, q, n) -> list[int]:
    """The pattern with this lexicographic index, index = sum of b_i q^(n-1-i)."""
    digits = []
    for _ in range(n):
        index, d = divmod(index, q)
        digits.append(d)
    return digits[::-1]


def substitute(counts, rule: str, t=None, q=None, levels=None) -> dict:
    """Rewrite an enumerator's count dict by a substitution and collect equal keys.

    byte->complete      z_{S:pattern} becomes z_{S:w(pattern)}: a pattern index
                        (read in base q, cut at the levels) becomes its weight tuple
    complete->level     z_{j:p}       becomes z_j^p: the weight tuple stays
    complete->mspotty   z_{j:p}       becomes z_j^ceil(p/t_j)

    The paper's substitution relations, read variable by variable; the
    library computes the level and spotty enumerators from spectra instead.
    """
    if rule not in ("byte->complete", "complete->level", "complete->mspotty"):
        raise ValueError(f"unknown substitution rule {rule!r}")
    source = int if rule == "byte->complete" else tuple
    if rule == "complete->mspotty":
        if t is None:
            raise ValueError("complete->mspotty needs the spotty thresholds t")
        t = tuple(int(x) for x in t)
        if any(ti < 1 for ti in t):
            raise ValueError(f"t entries must be positive, got {t}")
    out: dict = {}
    for key, coeff in counts.items():
        if not isinstance(key, source):
            found = type(key).__name__
            raise ValueError(f"key {key!r} is a {found}; rule {rule} expects a {source.__name__}")
        if rule == "byte->complete":
            pattern = pattern_of(key, q, levels.n)
            new = tuple(sum(1 for x in pattern[lo - 1 : hi] if x) for lo, hi in level_bounds(levels.sizes))
        elif rule == "complete->level":
            new = key
        else:
            if len(key) > len(t):
                raise ValueError(f"no t entry for level {len(t) + 1}")
            new = tuple(ceil(p / ti) for p, ti in zip(key, t))
        out[new] = out.get(new, 0) + coeff
    return out


# ---------------------------------------------------------------------------
# The reference renderer: the sparse polynomial type's term order and spelling.
# A variable is a (level, kind, data) tuple, a monomial the sorted tuple of its
# (variable, exponent) pairs with positive exponents, and terms print in
# ascending monomial order.
# ---------------------------------------------------------------------------


def reference_poly(kind: str, counts: dict, q=None, levels=None) -> dict[tuple, int]:
    """{monomial: coefficient} of one enumerator kind's count dict."""
    poly: dict[tuple, int] = {}
    for key, coeff in counts.items():
        if kind == "byte":
            pattern = pattern_of(key, q, levels.n)
            bounds = enumerate(level_bounds(levels.sizes), start=1)
            mono = [((s, "byte", tuple(pattern[lo - 1 : hi])), 1) for s, (lo, hi) in bounds]
        elif kind == "complete":
            mono = [((s, "weight", (w,)), 1) for s, w in enumerate(key, start=1)]
        elif kind in ("level", "mspotty"):
            mono = [((s, "plain", ()), w) for s, w in enumerate(key, start=1)]
        else:
            mono = [((0, "x", ()), key)]
        mono = tuple(sorted((var, e) for var, e in mono if e))
        poly[mono] = poly.get(mono, 0) + coeff
    return {mono: c for mono, c in poly.items() if c}


def _var_text(var, exp: int) -> str:
    level, kind, data = var
    if kind == "x":
        base = "x"
    elif kind == "plain":
        base = f"z_{level}"
    elif kind == "weight":
        base = f"z_{{{level}:{data[0]}}}"
    else:
        joined = ("" if all(i < 10 for i in data) else ",").join(str(i) for i in data)
        base = f"z_{{{level}:{joined}}}"
    return base if exp == 1 else f"{base}^{exp}"


def _var_json(var, exp: int) -> dict:
    level, kind, data = var
    if kind == "byte":
        obj = {"level": level, "kind": kind, "pattern": list(data)}
    elif kind == "weight":
        obj = {"level": level, "kind": kind, "w": data[0]}
    else:
        return {"level": level, "kind": kind, "exp": exp}
    if exp != 1:
        obj["exp"] = exp
    return obj


def reference_text(poly: dict) -> str:
    parts = []
    for mono, coeff in sorted(poly.items()):
        body = "".join(_var_text(var, e) for var, e in mono)
        parts.append(str(coeff) if not body else body if coeff == 1 else f"{coeff}{body}")
    return " + ".join(parts) or "0"


def reference_json(poly: dict) -> list[dict]:
    return [
        {"coeff": coeff, "vars": [_var_json(var, e) for var, e in mono]}
        for mono, coeff in sorted(poly.items())
    ]


# ---------------------------------------------------------------------------
# Checks of the definitions the identities rest on, by direct reading.
# ---------------------------------------------------------------------------


def hadamard_check(ring, eps, code, f: dict, cap=None) -> IdentityReport:
    """Compare sum of f over the dual with the averaged transformed sum over C; eps is chi's exponent row.

    f maps words of R^n to integers or cyclotomic integers; missing words
    count as zero.  The transformed function sums chi(<u, v>) f(v) over the
    support of f, and its total over the code must divide exactly by |C|.
    """
    e = ring.exponent
    zero = CycInt(e)
    support = [(tuple(v), _as_cyc(e, val)) for v, val in f.items()]

    dual = set(dual_code(code, cap).words)
    lhs = zero
    for v, val in support:
        if v in dual:
            lhs = lhs + val

    total = zero
    for u in code.words:
        for v, val in support:
            total = total + character_value(ring, eps, inner_product(ring, u, v)) * val
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


def enumerate_ideals(ring) -> list[frozenset[int]]:
    """All ideals, as the closure of the principal ideals under ideal sum."""
    q, mul, add = ring.q, ring.mul_table, ring.add_table
    ideals = {frozenset(mul[r][a] for r in range(q)) for a in range(q)}
    changed = True
    while changed:
        changed = False
        current = list(ideals)
        for i, left in enumerate(current):
            for right in current[i:]:
                total = frozenset(add[x][y] for x in left for y in right)
                if total not in ideals:
                    ideals.add(total)
                    changed = True
    return sorted(ideals, key=lambda s: (len(s), sorted(s)))


def _is_ideal(ring, subset):
    if 0 not in subset:
        return False
    add, mul = ring.add_table, ring.mul_table
    for a in subset:
        for b in subset:
            if add[a][b] not in subset:
                return False
        for r in range(ring.q):
            if mul[r][a] not in subset:
                return False
    return True


def character_ideal_sum(ring, eps, ideal) -> CycInt:
    """Exact value of the character with exponent row eps summed over an ideal.

    For a generating character this is 1 on the zero ideal and 0 on every
    larger one; the sum with the zero element removed is then -1.
    """
    ideal = frozenset(ideal)
    if not _is_ideal(ring, ideal):
        raise ValueError("subset is not an ideal")
    e = ring.exponent
    counts = [0] * e
    for a in ideal:
        counts[eps[a]] += 1
    return CycInt(e, counts)


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


def mu(s_level: int, pattern, u, levels) -> int:
    """Indicator that level s_level of u equals the pattern.

    Summing the match indicator over all levels k collapses to the single
    k = s_level term, since cross-level comparisons vanish by definition.
    """
    parts = level_split(u, levels)
    return eta(s_level, pattern, s_level, parts[s_level - 1])


def mspotty_weight(v, levels, t) -> int:
    """The paper's m-spotty weight: the sum over levels of ceil(level Hamming weight / t_i)."""
    t = check_t(levels, t)
    parts = level_split(v, levels)
    return sum(ceil((len(part) - part.count(0)) / ti) for part, ti in zip(parts, t))


def mspotty_distance(u, v, levels, t) -> int:
    """Sum over levels of ceil(level Hamming distance / t_i); a metric."""
    if not len(u) == len(v) == levels.n:
        raise ValueError(
            f"word lengths {len(u)} and {len(v)} do not match level structure size {levels.n}"
        )
    t = check_t(levels, t)
    dist = 0
    for (lo, hi), ti in zip(level_bounds(levels.sizes), t):
        d = sum(1 for a, b in zip(u[lo - 1 : hi], v[lo - 1 : hi]) if a != b)
        dist += ceil(d / ti)
    return dist


def collapse_to_x(spectrum: dict) -> dict[int, int]:
    """Set every level variable equal to x (Hamming specialization): fold each key on its sum.

    Only a per-level weight spectrum collapses; the pattern indices of a
    byte enumerator are refused.
    """
    out: dict[int, int] = {}
    for key, count in spectrum.items():
        if not isinstance(key, tuple):
            raise ValueError(f"cannot collapse key {key!r}; expected a per-level weight tuple")
        out[sum(key)] = out.get(sum(key), 0) + count
    return out
