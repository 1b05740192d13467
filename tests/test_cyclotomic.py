import cmath
import random

import pytest

from cyclotomic import CycInt, cyclotomic_poly, degree, root_power
from pwenum.errors import IntegrityError


def to_complex(x: CycInt) -> complex:
    z = cmath.exp(2j * cmath.pi / x.order)
    return sum(c * z**i for i, c in enumerate(x.coeffs))


def test_small_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)


def test_cyclotomic_poly_matches_numeric_root_product():
    # independent oracle: multiply (x - r) over the primitive e-th roots
    import math

    for e in (3, 6, 8, 12):
        poly = [1.0]
        for k in range(1, e + 1):
            if math.gcd(k, e) != 1:
                continue
            r = cmath.exp(2j * cmath.pi * k / e)
            poly = [0.0] + poly
            poly = [a - r * b for a, b in zip(poly, poly[1:] + [0.0])]
        numeric = tuple(round(c.real) for c in poly)
        assert numeric == cyclotomic_poly(e)
        assert max(abs(c - n) for c, n in zip(poly, numeric)) < 1e-9


def test_order_out_of_range():
    with pytest.raises(ValueError):
        cyclotomic_poly(0)
    with pytest.raises(ValueError):
        cyclotomic_poly(65)


def test_root_power_canonical_forms():
    assert root_power(4, 0) == CycInt(4, (1,))
    assert root_power(2, 1) == -1
    assert root_power(4, 3).coeffs == (0, -1)  # zeta^3 = -zeta when zeta^2 = -1
    assert root_power(6, 2).coeffs == (-1, 1)


def test_geometric_sum_vanishes_for_all_orders():
    for e in range(2, 65):
        total = CycInt(e)
        for k in range(e):
            total = total + root_power(e, k)
        assert total == 0, e


def test_root_power_multiplication_law():
    rng = random.Random(3)
    for _ in range(200):
        e = rng.randint(1, 64)
        j, k = rng.randrange(4 * e), rng.randrange(4 * e)
        assert root_power(e, j) * root_power(e, k) == root_power(e, j + k)


def test_reduction_examples():
    one, zeta = CycInt(4, (1,)), root_power(4, 1)
    assert (one + zeta) * (one - zeta) == 2
    assert zeta * zeta * zeta * zeta == 1


def test_integer_detection_and_exact_division():
    x = CycInt(4, (6, 0))
    assert x.is_integer() and x == 6
    assert x.divide_exact(3) == 2
    with pytest.raises(IntegrityError):
        x.divide_exact(4)
    y = root_power(4, 1)
    assert not y.is_integer() and y != 0
    with pytest.raises(ZeroDivisionError):
        x.divide_exact(0)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        CycInt(4, (1,)) + CycInt(6, (1,))


def test_ring_axioms_on_random_expressions():
    rng = random.Random(11)
    for e in (2, 3, 4, 6, 12):
        elems = [
            CycInt(e, [rng.randint(-3, 3) for _ in range(degree(e))]) for _ in range(6)
        ]
        a, b, c = rng.sample(elems, 3)
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert a + b == b + a
        assert a - a == 0


def test_float_cross_check_of_random_expressions():
    rng = random.Random(5)
    for _ in range(100):
        e = rng.choice((2, 3, 4, 5, 6, 8, 12))
        a = CycInt(e, [rng.randint(-4, 4) for _ in range(degree(e))])
        b = CycInt(e, [rng.randint(-4, 4) for _ in range(degree(e))])
        exact = a * b + a - b
        approx = to_complex(a) * to_complex(b) + to_complex(a) - to_complex(b)
        assert abs(to_complex(exact) - approx) < 1e-9
