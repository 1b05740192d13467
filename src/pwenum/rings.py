"""Finite commutative Frobenius rings as explicit index tables.

A ring of size q lives on element indices 0..q-1, with index 0 the additive
identity and index 1 the multiplicative identity.  Four constructions are
supported:

    Zm    integers modulo m
    GF    Galois field GF(p^k) with a supplied irreducible modulus
    F2u   F2[u]/(u^2), elements {0, 1, u, 1+u}
    F2v   F2[v]/(v^2 - v), elements {0, 1, v, 1+v}

Every ring carries a catalog additive character whose kernel contains no
nonzero ideal; that property is re-verified on construction because all the
dual-code identities downstream depend on it.

Every construction builds its tables in O(q^2) and checks every ring axiom
on them exactly in O(q^2·|G|), |G| the size of a generating set of one
operation (1-6 at q <= 64).  Two closure arguments make that enough.  For
Light's associativity test, the elements g with (x∘g)∘y = x∘(g∘y) for all
x, y form a closed sub-magma, so the test need only run on generators.  For
distributivity, the b with a(b+c) = ab + ac for all a, c form a set closed
under addition, so the check need only run on additive generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .cyclotomic import CycInt, root_power

MAX_RING_SIZE = 64

RING_KINDS = ("Zm", "GF", "F2u", "F2v")


class RingSpec:
    """A finite commutative ring given by total operation tables.

    Not constructed directly; use make_ring().  Immutable after
    construction; all tables are tuples of tuples indexed by element index.
    """

    def __init__(self, kind, q, add_table, mul_table, names, params):
        self.kind = kind
        self.q = q
        self.add_table = add_table = tuple(map(tuple, add_table))
        self.mul_table = tuple(map(tuple, mul_table))
        self.names = names
        self.params = dict(params)
        if any(0 not in row for row in add_table):
            raise ValueError("addition table has an element without an inverse")
        self.neg_table = tuple(row.index(0) for row in add_table)
        self.exponent = self._order_of_one()
        _verify_tables(self)

    def _order_of_one(self):
        acc, e = 1, 1
        while acc != 0:
            acc = self.add_table[acc][1]
            e += 1
            if e > self.q:
                raise ValueError("additive order of 1 exceeds the ring size")
        return e

    def _check_index(self, a):
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise ValueError(f"element index {a!r} out of range 0..{self.q - 1}")

    def add(self, a: int, b: int) -> int:
        self._check_index(a)
        self._check_index(b)
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        self._check_index(a)
        self._check_index(b)
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        self._check_index(a)
        return self.neg_table[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

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


def _generators(table, identity):
    """Generators of the magma of one operation table, chosen greedily.

    The identity counts as reached.  Each element not yet reached becomes a
    generator, and the reached set is closed under right products x∘g by
    every generator g, breadth first.  Every element ends up reached, so any
    table, even a corrupt one, yields a finite list.
    """
    reached = {identity}
    gens = []
    for s in range(len(table)):
        if s in reached:
            continue
        gens.append(s)
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


def _is_associative(table, gens):
    """Light's test: (x∘g)∘y = x∘(g∘y) for every generator g and all x, y."""
    for g in gens:
        through_g = itemgetter(*table[g])  # row x -> (x∘(g∘y) for y in R)
        for row in table:
            if table[row[g]] != through_g(row):
                return False
    return True


def _verify_tables(ring):
    """Exact check of the commutative ring axioms in O(q^2·|G|) table lookups.

    The identities and commutativity are read off whole rows and columns.
    Associativity uses Light's test on a generating set G of each operation
    (see _generators): the elements g with (x∘g)∘y = x∘(g∘y) for all x, y
    form a closed sub-magma that holds the identity, so if it holds G it is
    the whole ring.  Distributivity is a(g+c) = ag + ac for every a, c and
    every additive generator g, checked once addition is known to be
    associative: the b with a(b+c) = ab + ac for all a, c form a set closed
    under +, so a subgroup of the finite additive group, and holding the
    additive generators it is the whole ring.  Right distributivity follows
    from commutativity.
    """
    q, add, mul = ring.q, ring.add_table, ring.mul_table
    rng = range(q)
    ident = tuple(rng)
    if add[0] != ident or tuple(row[0] for row in add) != ident:
        raise ValueError("index 0 is not the additive identity")
    if mul[1] != ident or tuple(row[1] for row in mul) != ident:
        raise ValueError("index 1 is not the multiplicative identity")
    if add != tuple(zip(*add)) or mul != tuple(zip(*mul)):
        raise ValueError("operation tables are not commutative")
    add_gens = _generators(add, 0)
    if not _is_associative(add, add_gens):
        raise ValueError("addition is not associative")
    if not _is_associative(mul, _generators(mul, 1)):
        raise ValueError("multiplication is not associative")
    # row_getters[a]: row x of the addition table -> (x + ac for c in R)
    row_getters = [itemgetter(*row) for row in mul]
    for g in add_gens:
        plus_g = itemgetter(*add[g])  # row a -> (a(g+c) for c in R)
        for row, times_a in zip(mul, row_getters):
            if plus_g(row) != times_a(add[row[g]]):
                raise ValueError("multiplication does not distribute")
    e = ring.exponent
    if ring.q % e != 0:
        raise ValueError("additive exponent does not divide the ring size")
    multiples = (0,) * q  # e·a for every a at once, by double-and-add over rows: O(q log e)
    for bit in bin(e)[2:]:
        multiples = [add[m][m] for m in multiples]
        if bit == "1":
            multiples = [add[m][a] for m, a in zip(multiples, rng)]
    if any(multiples):
        raise ValueError("additive exponent does not annihilate the ring")


def _is_prime(p):
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p**0.5) + 1))


def _gf_is_irreducible(modulus, p, k):
    """Trial division by every monic polynomial of degree 1..k//2."""
    from itertools import product as iproduct

    for d in range(1, k // 2 + 1):
        for tail in iproduct(range(p), repeat=d):
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


def _gf_name(coeffs):
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            var = "a" if i == 1 else f"a^{i}"
            parts.append(var if c == 1 else f"{c}{var}")
    return "+".join(parts) if parts else "0"


def _make_zm(m):
    if m < 2:
        raise ValueError(f"modulus must be at least 2, got {m}")
    # C-level slices: row a of + is range(m) rotated by a, of * every a-th of range(m) * a
    row = tuple(range(m))
    add = tuple(row[a:] + row[:a] for a in range(m))
    mul = ((0,) * m,) + tuple((row * a)[::a] for a in range(1, m))
    names = tuple(str(a) for a in range(m))
    return RingSpec("Zm", m, add, mul, names, {"m": m})


def _make_gf(p, k, modulus):
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
    inv_lead = pow(lead, p - 2, p) if lead != 1 else 1
    modulus = [c * inv_lead % p for c in modulus]
    if not _gf_is_irreducible(modulus, p, k):
        raise ValueError("modulus is reducible over GF(p)")

    powers = [p**j for j in range(k)]
    polys = [[i // pj % p for pj in powers] for i in range(q)]
    # each b > 0 is b - p^j plus the monomial x^j, j its lowest nonzero digit;
    # b - p^j < b, so every row fills in index order with one lookup per entry
    steps = []
    for b in range(1, q):
        j = next(j for j, c in enumerate(polys[b]) if c)
        steps.append((j, b - powers[j]))
    # bump[j][x]: x with its digit j raised by one, mod p
    bump = [
        [x - (p - 1) * pj if polys[x][j] == p - 1 else x + pj for x in range(q)]
        for j, pj in enumerate(powers)
    ]
    add = []
    for a in range(q):
        row = [a]
        for j, prev in steps:
            row.append(bump[j][row[prev]])
        add.append(tuple(row))
    # a·x shifts the digits of a up by one and folds the top one back in
    # through x^k = -(modulus_0 + ... + modulus_{k-1} x^{k-1})
    top = powers[-1]
    folded = [sum(-c * m % p * pj for m, pj in zip(modulus, powers)) for c in range(p)]
    times_x = [add[a % top * p][folded[a // top]] for a in range(q)]
    monomial_multiples = [list(range(q))]  # [j][a] = a·x^j
    for _ in range(k - 1):
        monomial_multiples.append([times_x[a] for a in monomial_multiples[-1]])
    mul = []
    for a in range(q):
        a_xj = [col[a] for col in monomial_multiples]
        row = [0]
        for j, prev in steps:
            row.append(add[row[prev]][a_xj[j]])
        mul.append(tuple(row))
    names = tuple(_gf_name(polys[a]) for a in range(q))
    return RingSpec("GF", q, tuple(add), tuple(mul), names, {"p": p, "k": k, "modulus": modulus})


def _make_f2_ext(square_of_gen, tag, gen_name):
    # elements a + b*g encoded as index a + 2b; g^2 is 0 (F2u) or g (F2v)
    def mul_pair(x, y):
        a, b = x & 1, x >> 1
        c, d = y & 1, y >> 1
        const = a * c
        lin = a * d + b * c
        if square_of_gen:  # g^2 = g
            lin += b * d
        return (const % 2) | ((lin % 2) << 1)

    add = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
    mul = tuple(tuple(mul_pair(a, b) for b in range(4)) for a in range(4))
    names = ("0", "1", gen_name, f"1+{gen_name}")
    return RingSpec(tag, 4, add, mul, names, {})


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
    if kind == "F2u":
        _reject_extra(params)
        return _make_f2_ext(False, "F2u", "u")
    if kind == "F2v":
        _reject_extra(params)
        return _make_f2_ext(True, "F2v", "v")
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


@dataclass(frozen=True)
class Character:
    """Additive character a -> zeta_e^{eps(a)}, e the additive exponent."""

    ring: RingSpec
    exponents: tuple[int, ...]

    def value(self, a: int) -> CycInt:
        return root_power(self.ring.exponent, self.exponents[a])


def default_character(ring: RingSpec) -> Character:
    """The catalog character of a ring, verified to be generating.

    Zm maps a to zeta_m^a; GF(p^k) maps a to zeta_p^{Tr(a)} via the absolute
    trace; the two four-element extensions of F2 read off the coefficient of
    the generator.
    """
    q = ring.q
    if ring.kind == "Zm":
        eps = tuple(range(q))
    elif ring.kind == "GF":
        p, k = ring.params["p"], ring.params["k"]
        mul = ring.mul_table
        eps = []
        for a in range(q):
            term, tr = a, a
            for _ in range(k - 1):
                nxt = term
                for _ in range(p - 1):
                    nxt = mul[nxt][term]
                term = nxt
                tr = ring.add_table[tr][term]
            if tr >= p:
                raise ValueError("trace landed outside the prime subfield")
            eps.append(tr)
        eps = tuple(eps)
    elif ring.kind in ("F2u", "F2v"):
        eps = (0, 0, 1, 1)
    else:
        raise ValueError(f"no catalog character for ring kind {ring.kind!r}")
    chi = Character(ring, eps)
    if not verify_generating_character(ring, chi):
        raise ValueError("catalog character failed the generating test")
    return chi


def check_additive(ring: RingSpec, chi: Character) -> None:
    """Raise unless the exponent map is an additive character of the ring."""
    q, e = ring.q, ring.exponent
    eps = chi.exponents
    if len(eps) != q or eps[0] != 0 or any(not 0 <= x < e for x in eps):
        raise ValueError("exponent map is malformed")
    add = ring.add_table
    for a in range(q):
        row = add[a]
        for b in range(q):
            if (eps[a] + eps[b]) % e != eps[row[b]]:
                raise ValueError("exponent map violates additivity")


def verify_generating_character(ring: RingSpec, chi: Character) -> bool:
    """True iff no nonzero ideal sits inside the kernel of chi.

    It is enough to test principal ideals: every nonzero ideal contains a
    nonzero principal one.  Raises if the exponent map is not an additive
    character at all.
    """
    check_additive(ring, chi)
    q, eps = ring.q, chi.exponents
    mul = ring.mul_table
    for a in range(1, q):
        if all(eps[mul[r][a]] == 0 for r in range(q)):
            return False
    return True

