"""Exact arithmetic in Z[zeta_e], the ring of e-th cyclotomic integers.

Additive-character values and all character sums live here.  An element is
an integer coordinate vector in the power basis {1, zeta, ..., zeta^(phi(e)-1)},
reduced modulo the e-th cyclotomic polynomial.  Equality is coordinate
equality, so sums that must cancel do cancel to a literal zero instead of
to 1e-16.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import IntegrityError

MAX_ORDER = 64


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Divide num by a monic den, requiring a zero remainder."""
    num = list(num)
    dn = len(den) - 1
    quot = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            quot[i - dn] = c
            for j, d in enumerate(den):
                num[i - dn + j] -= c * d
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return quot


def _poly_mod(num: list[int], den: list[int]) -> list[int]:
    """Remainder of num modulo a monic den."""
    num = list(num)
    dn = len(den) - 1
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            for j, d in enumerate(den):
                num[i - dn + j] -= c * d
    return num[:dn]


@lru_cache(maxsize=None)
def cyclotomic_poly(e: int) -> tuple[int, ...]:
    """Coefficients of the e-th cyclotomic polynomial, low degree first.

    Computed by exact division of x^e - 1 by the cyclotomic polynomials of
    all proper divisors of e.
    """
    if not 1 <= e <= MAX_ORDER:
        raise ValueError(f"cyclotomic order must be in 1..{MAX_ORDER}, got {e}")
    if e == 1:
        return (-1, 1)
    num = [-1] + [0] * (e - 1) + [1]
    for d in range(1, e):
        if e % d == 0:
            num = _poly_div_exact(num, list(cyclotomic_poly(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def degree(e: int) -> int:
    """phi(e), the rank of Z[zeta_e] over Z."""
    return len(cyclotomic_poly(e)) - 1


class CycInt:
    """One element of Z[zeta_e], always held in canonical reduced form.

    Construction accepts a coefficient sequence of any length; anything of
    degree >= phi(e) is reduced modulo the cyclotomic polynomial.  Mixed
    arithmetic with plain ints works; mixing two different orders is an
    error.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        phi = degree(order)
        coeffs = list(coeffs)
        if len(coeffs) > phi:
            coeffs = _poly_mod(coeffs, list(cyclotomic_poly(order)))
        coeffs.extend([0] * (phi - len(coeffs)))
        self.order = order
        self.coeffs = tuple(coeffs)

    def _coerce(self, other):
        if isinstance(other, CycInt):
            if other.order != self.order:
                raise ValueError(
                    f"mixed cyclotomic orders {self.order} and {other.order}"
                )
            return other
        if isinstance(other, int):
            return CycInt(self.order, (other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycInt(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CycInt(self.order, [-a for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycInt(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.order, [other * a for a in self.coeffs])
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        conv = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        return CycInt(self.order, conv)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_integer() and self.coeffs[0] == other
        if isinstance(other, CycInt):
            return self.order == other.order and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        return f"CycInt({self.order}, {list(self.coeffs)})"

    def is_integer(self) -> bool:
        return not any(self.coeffs[1:])

    def as_integer(self) -> int:
        if not self.is_integer():
            raise IntegrityError(f"{self!r} is not a rational integer")
        return self.coeffs[0]

    def divide_exact(self, m: int) -> CycInt:
        """Divide by a nonzero integer, requiring all coordinates to divide."""
        if m == 0:
            raise ZeroDivisionError("division of a cyclotomic integer by zero")
        out = []
        for c in self.coeffs:
            q, r = divmod(c, m)
            if r:
                raise IntegrityError(f"coordinate {c} not divisible by {m}")
            out.append(q)
        return CycInt(self.order, out)


def root_power(e: int, k: int) -> CycInt:
    """zeta_e raised to the k-th power, in canonical form."""
    k %= e
    return CycInt(e, [0] * k + [1])
