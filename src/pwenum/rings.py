"""Finite commutative Frobenius rings as explicit index tables.

A ring of size q lives on element indices 0..q-1, with index 0 the additive
identity and index 1 the multiplicative identity.  Four constructions are
supported:

    Zm    integers modulo m
    GF    Galois field GF(p^k) with a supplied irreducible modulus
    F2u   F2[u]/(u^2), elements {0, 1, u, 1+u}
    F2v   F2[v]/(v^2 - v), elements {0, 1, v, 1+v}

The last three are all Z_p[x]/(f), built by one table builder.  Every ring
has a catalog additive character, one rule for every kind, whose kernel
contains no nonzero ideal; default_character returns its exponent row as
bytes, checked on every call, as all the dual-code identities depend on it.

Every construction builds its tables in O(q^2) as rows of bytes, a whole row
at a time, and checks every ring axiom on them exactly in |A| + 2·min(|A|, |M|)
passes of q bytes.translate calls, each reading one row through another, A and
M generating sets of + and · (3 passes at Z64, 6 at GF(49), 10 at GF(64)).
Closure arguments make that enough: the elements that pass Light's
associativity test, or the distributive law, against all the others form a
set closed under one operation, so the test need only run on that
operation's generators (see _verify_tables).
"""

from __future__ import annotations

MAX_RING_SIZE = 64

RING_KINDS = ("Zm", "GF", "F2u", "F2v")


class RingSpec:
    """A finite commutative ring given by total operation tables.

    Not constructed directly; use make_ring().  Immutable after construction.
    add_table and mul_table are the checked tables, tuples of q rows of bytes
    that the axiom checks and every kernel read; no other copy is kept.
    neg_table is a tuple indexed by element index.
    """

    def __init__(self, kind, q, add_table, mul_table, names, params):
        self.kind = kind
        self.q = q
        self.add_table, self.mul_table = add, mul = _byte_rows(add_table, q), _byte_rows(mul_table, q)
        rows = add + mul  # translate deletes each index in range(q) and leaves the rest
        if {len(add), len(mul), *map(len, rows)} != {q} or b"".join(rows).translate(None, bytes(range(q))):
            raise ValueError(f"an operation table is not {q} rows of {q} indices in range({q})")
        self.names = names
        self.params = dict(params)
        self.neg_table = tuple([row.find(0) for row in add])
        if -1 in self.neg_table:
            raise ValueError("addition table has an element without an inverse")
        self.exponent = self._order_of_one()
        self._add_gens = _generators(add, 0)  # A, for _verify_tables and check_additive
        _verify_tables(self)

    def _order_of_one(self):
        acc, e = 1, 1
        while acc != 0:
            acc = self.add_table[acc][1]
            e += 1
            if e > self.q:
                raise ValueError("additive order of 1 exceeds the ring size")
        return e

    def to_json_obj(self) -> dict:
        return {"kind": self.kind, **self.params}

    def __eq__(self, other):
        if not isinstance(other, RingSpec):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.q == other.q
            and self.add_table == other.add_table
            and self.mul_table == other.mul_table
        )

    def __hash__(self):
        return hash((self.kind, self.q))

    def __repr__(self):
        return f"RingSpec({self.kind}, q={self.q})"


def _byte_rows(table, q):
    """The rows of a table as a tuple of bytes, any row but bytes or a list or tuple of ints in range(q) as b"".

    bytes() alone would read True as 1 and an int n as n zero bytes; RingSpec refuses b"" by its length.
    """
    return tuple([
        row if type(row) is bytes
        else bytes(row) if isinstance(row, (list, tuple)) and all(type(x) is int and 0 <= x < q for x in row)
        else b""
        for row in table
    ])


def _generators(table, identity, limit=None):
    """Generators of the magma of one operation table, chosen greedily.

    The identity counts as reached.  Each element not yet reached becomes a
    generator, and the reached set is closed under right products x∘g by
    every generator g, breadth first.  Every element ends up reached, so any
    table, even a corrupt one, yields a finite list, cut short at limit generators if given.
    """
    reached = {identity}
    gens = []
    for s in range(len(table)):
        if s in reached:
            continue
        gens.append(s)
        if len(gens) == limit:
            break
        reached.add(s)
        frontier = list(reached)
        while frontier:
            fresh = []
            for x in frontier:
                row = table[x]
                for g in gens:
                    y = row[g]
                    if y not in reached:
                        reached.add(y)
                        fresh.append(y)
            frontier = fresh
    return gens


def _is_associative(rows, through, gens):
    """Light's test: (x∘g)∘y = x∘(g∘y) for every generator g and all x, y.

    Over y: row x∘g, x∘g = entry x of row g in a commutative table, against
    row g read through row x, which through[x] pads to a translation table.
    """
    for g in gens:
        row_g = rows[g]
        for x, through_x in enumerate(through):
            if rows[row_g[x]] != row_g.translate(through_x):
                return False
    return True


def _distributes(add, add_through, rows, times, right):
    """a(b+c) = ab + ac for every a with row of · in rows (times: padded), every b in right and all c.

    Over c: row b of + read through row a of ·, against row a read through row ab of +.
    """
    for b in right:
        plus_ab = [add_through[row[b]] for row in rows]
        if list(map(add[b].translate, times)) != list(map(bytes.translate, rows, plus_ab)):
            return False
    return True


def _verify_tables(ring):
    """Exact check of the commutative ring axioms in |A| + 2·min(|A|, |M|) passes over the tables.

    The identities and commutativity are read off whole rows and columns,
    strided slices of the joined table; right distributivity follows from
    left by commutativity.  A and M are generating sets of + and · (see
    _generators).  Associativity of + is Light's test on A: the g with
    (x+g)+y = x+(g+y) for all x, y form a closed sub-magma that holds 0, so
    if it holds A it is the whole ring.  The rest runs on the smaller of A and M.

    Additive route, |A| <= |M|.  Distributivity first, a(g+c) = ag + ac for
    every a, c and every g in A: as + is associative, the b with
    a(b+c) = ab + ac for all a, c are closed under +, so they form a subgroup
    of the finite additive group, and holding A it is the whole ring.  Then
    Light's test of · on A: as · distributes on both sides, the g with
    (xg)y = x(gy) for all x, y are closed under +; they hold 0, so holding A
    they are the whole ring.

    Multiplicative route, |M| < |A|.  Light's test of · on M first, as for +.
    Then a(b+c) = ab + ac for every a in M and all b, c: as · is associative,
    the a that satisfy it are closed under ·; they hold 1, so holding M they
    are the whole ring.
    """
    q, add, mul = ring.q, ring.add_table, ring.mul_table
    rng, ident, pad = range(q), bytes(range(q)), bytes(256 - q)
    flat_add, flat_mul = b"".join(add), b"".join(mul)
    if add[0] != ident or flat_add[::q] != ident:
        raise ValueError("index 0 is not the additive identity")
    if mul[1] != ident or flat_mul[1::q] != ident:
        raise ValueError("index 1 is not the multiplicative identity")
    if tuple([flat_add[a::q] for a in rng]) != add or tuple([flat_mul[a::q] for a in rng]) != mul:
        raise ValueError("operation tables are not commutative")
    add_through, mul_through = [row + pad for row in add], [row + pad for row in mul]
    add_gens = ring._add_gens
    if not _is_associative(add, add_through, add_gens):
        raise ValueError("addition is not associative")
    mul_gens = _generators(mul, 1, len(add_gens))  # all of M only where |M| < |A|
    if len(add_gens) <= len(mul_gens):
        if not _distributes(add, add_through, mul, mul_through, add_gens):
            raise ValueError("multiplication does not distribute")
        if not _is_associative(mul, mul_through, add_gens):
            raise ValueError("multiplication is not associative")
    else:
        if not _is_associative(mul, mul_through, mul_gens):
            raise ValueError("multiplication is not associative")
        if not _distributes(add, add_through, [mul[g] for g in mul_gens], [mul_through[g] for g in mul_gens], rng):
            raise ValueError("multiplication does not distribute")
    e = ring.exponent
    if ring.q % e != 0:
        raise ValueError("additive exponent does not divide the ring size")
    # e·g for every g in A by double-and-add: the a with e·a = 0 form a subgroup, which holds A
    for g in add_gens:
        m = 0
        for bit in bin(e)[2:]:
            m = add[m][m] if bit == "0" else add[add[m][m]][g]
        if m:
            raise ValueError("additive exponent does not annihilate the ring")


def _is_prime(p):
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p**0.5) + 1))


def _make_zm(m):
    if m < 2:
        raise ValueError(f"modulus must be at least 2, got {m}")
    # C-level slices: row a of + is range(m) rotated by a, of * every a-th of range(m) * a;
    # bytes hold every index as m <= MAX_RING_SIZE < 256
    row = bytes(range(m))
    add = [row[a:] + row[:a] for a in range(m)]
    mul = [bytes(m)] + [(row * a)[::a] for a in range(1, m)]
    names = tuple(map(str, range(m)))
    return RingSpec("Zm", m, add, mul, names, {"m": m})


def _poly_tables(p, k, modulus, var):
    """The + and · tables of Z_p[x]/(modulus), modulus monic of degree k, and names in var.

    Index a < p^k is the polynomial whose coefficient of x^j is the base-p
    digit j of a.
    """
    q = p**k
    ident, pad = bytes(range(q)), bytes(256 - q)  # a row and pad make a translation table
    powers = [p**j for j in range(k)]
    # bump[j][x]: x with its digit j raised by one, mod p; each run of p^(j+1) indices rotates by p^j
    bump = [b"".join([ident[s + d : s + p * d] + ident[s : s + d] for s in range(0, q, p * d)]) + pad for d in powers]
    # a > 0 is a - p^j plus x^j, j = low[a] its lowest nonzero digit: the rows build in index order
    low = [0] * q
    for a in range(p, q, p):
        low[a] = low[a // p] + 1
    # row a of + is row a - p^j with digit j of each entry raised
    add = [ident]
    for a in range(1, q):
        add.append(add[a - powers[low[a]]].translate(bump[low[a]]))
    # a·x shifts the digits of a up by one and folds the top one c back in through
    # x^k = -(modulus_0 + ... + modulus_{k-1} x^{k-1}): every p-th entry of the row of that fold
    folded = [sum(-c * m % p * pj for m, pj in zip(modulus, powers)) for c in range(p)]
    times_x = b"".join([add[f][::p] for f in folded]) + pad
    # row a of · is x times row a/p when j > 0 (p | a), else row a - 1 plus b in each column b
    mul = [bytes(q)]
    for a in range(1, q):
        mul.append(mul[a // p].translate(times_x) if low[a] else bytes([row[u] for row, u in zip(add, mul[a - 1])]))
    # the name of a joins its nonzero terms c·var^j, low to high, by +; the
    # names of the indices below p^(j+1) are the terms of digit j over those below p^j
    names = [""]
    for j, power in enumerate(["", var, *[f"{var}^{j}" for j in range(2, k)]][:k]):
        terms = ["", *[(str(c) if c > 1 or j == 0 else "") + power for c in range(1, p)]]
        names = [lo + "+" + term if lo and term else lo or term for term in terms for lo in names]
    return add, mul, tuple([name or "0" for name in names])


def _make_gf(p, k, modulus):
    """GF(p^k) as Z_p[a]/(modulus), refused unless no nonzero row of · holds a 0 past column 0.

    A finite commutative ring is a field exactly when it has no zero divisors.
    A field's one nonzero ideal is itself, so every nonzero additive map on
    it, the catalog character's top digit among them, is generating.
    """
    if p < 2:
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be positive")
    # the size cap comes before primality, whose trial division costs
    # sqrt(p); as p >= 2, a k at the cap's bit length already passes the cap
    q = p**k if k < MAX_RING_SIZE.bit_length() else MAX_RING_SIZE + 1
    if q > MAX_RING_SIZE:
        raise ValueError(f"ring size {p}^{k} exceeds the cap {MAX_RING_SIZE}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not isinstance(modulus, (list, tuple)) or len(modulus) != k + 1:
        raise ValueError(f"modulus must be a list of {k + 1} coefficients, low to high")
    for c in modulus:
        _check_int_param("modulus coefficient", c)
    lead = modulus[-1] % p
    if lead == 0:
        raise ValueError("modulus leading coefficient vanishes mod p")
    modulus = [c * pow(lead, -1, p) % p for c in modulus]
    add, mul, names = _poly_tables(p, k, modulus, "a")
    if any(0 in row[1:] for row in mul[1:]):
        raise ValueError("modulus is reducible over GF(p)")
    return RingSpec("GF", q, add, mul, names, {"p": p, "k": k, "modulus": modulus})


def make_ring(kind: str, **params) -> RingSpec:
    """Build a catalog ring.

    Zm needs m; GF needs p, k and a modulus coefficient list (low to high);
    F2u and F2v take no parameters.
    """
    if kind == "Zm":
        m = _pop_int_param(kind, params, "m")
        _reject_extra(params)
        if m > MAX_RING_SIZE:
            raise ValueError(f"ring size {m} exceeds the cap {MAX_RING_SIZE}")
        return _make_zm(m)
    if kind == "GF":
        p = _pop_int_param(kind, params, "p")
        k = _pop_int_param(kind, params, "k")
        modulus = params.pop("modulus", None)
        _reject_extra(params)
        return _make_gf(p, k, modulus)
    if kind in ("F2u", "F2v"):  # F2[u]/(u^2) and F2[v]/(v^2 + v)
        _reject_extra(params)
        modulus = [0, 0, 1] if kind == "F2u" else [0, 1, 1]
        return RingSpec(kind, 4, *_poly_tables(2, 2, modulus, kind[-1]), {})
    raise ValueError(f"unknown ring kind {kind!r}; expected one of {RING_KINDS}")


def _check_int_param(name, value):
    # bool is an int subclass, but true/false in a ring description is a typo
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"ring parameter {name} must be an integer, got {value!r}")
    return value


def _pop_int_param(kind, params, name):
    if name not in params:
        raise ValueError(f"ring kind {kind} needs the parameter {name!r}")
    return _check_int_param(name, params.pop(name))


def _reject_extra(params):
    if params:
        raise ValueError(f"unexpected ring parameters: {sorted(params)}")


def ring_from_json_obj(obj: dict) -> RingSpec:
    """Construct a ring from its JSON description, e.g. {"kind": "Zm", "m": 4}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("ring description must be an object with a 'kind' field")
    obj = dict(obj)
    return make_ring(obj.pop("kind"), **obj)


def default_character(ring: RingSpec) -> bytes:
    """The catalog character's exponent row, bytes eps(a) = a // (q/e), verified to be generating.

    The character is a -> zeta_e^{eps(a)}, e the additive exponent.  It is
    eps(a) = a on Z_m and GF(p), where the character is one-to-one.
    Elsewhere eps(a) is the top base-p digit, the coefficient of x^(k-1): a
    nonzero additive map, so generating on GF(p^k), whose one nonzero ideal
    is itself, and (0, 0, 1, 1) on F2u and F2v, whose kernel {0, 1} holds
    none of the nonzero ideals {0, u}, {0, v}, {0, 1+v} and R.
    """
    step = ring.q // ring.exponent
    eps = bytes([a // step for a in range(ring.q)])
    if not verify_generating_character(ring, eps):
        raise ValueError("catalog character failed the generating test")
    return eps


def check_additive(ring: RingSpec, eps) -> None:
    """Raise unless the exponent row eps is an additive character of the ring.

    Additivity is checked as eps(a + g) = eps(a) + eps(g) for every a and
    every additive generator g (see _generators), in O(q·|G|): the x with
    eps(a + x) = eps(a) + eps(x) for all a form a set closed under +, and
    holding the generators it is the whole ring.
    """
    q, e = ring.q, ring.exponent
    # every exponent an int in range(e), bool and float refused; eps(0) = 0
    if len(eps) != q or set(map(type, eps)) != {int} or eps[0] != 0 or min(eps) < 0 or max(eps) >= e:
        raise ValueError("exponent map is malformed")
    eps = bytes(eps)
    through_eps, cycle = eps + bytes(256 - q), bytes(range(e)) * (512 // e)
    for g in ring._add_gens:
        # eps(a + g) over a, against eps(a) + eps(g) mod e: eps read through cycle[eps(g):], rotated by eps(g)
        if ring.add_table[g].translate(through_eps) != eps.translate(cycle[eps[g] : eps[g] + 256]):
            raise ValueError("exponent map violates additivity")


def verify_generating_character(ring: RingSpec, eps) -> bool:
    """True iff no nonzero ideal sits inside the kernel of the character with exponent row eps.

    It is enough to test principal ideals: every nonzero ideal contains a
    nonzero principal one.  Raises if the exponent map is not an additive
    character at all.
    """
    check_additive(ring, eps)
    through_eps, zero = bytes(eps) + bytes(256 - ring.q), bytes(ring.q)
    # the kernel holds aR exactly when row a of · reads all 0 through eps
    return zero not in [row.translate(through_eps) for row in ring.mul_table[1:]]
