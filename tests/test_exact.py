import math
import random
from fractions import Fraction

import pytest

from coxdesc.exact import (
    CycloElement,
    cyclo_field,
    minimal_polynomial_2cos,
    rational_from_string,
    rational_to_string,
)


def test_rational_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert Fraction(3, 4) * Fraction(4, 3) == 1
    assert Fraction(2, 7) < Fraction(3, 10)


def test_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_rational_strings():
    assert rational_to_string(Fraction(5, 6)) == "5/6"
    assert rational_to_string(Fraction(4)) == "4"
    assert rational_to_string(Fraction(-3, 7)) == "-3/7"
    assert rational_from_string("5/6") == Fraction(5, 6)
    assert rational_from_string("-12") == Fraction(-12)
    assert rational_from_string(" 7/21 ") == Fraction(1, 3)


def test_rational_field_axioms_randomized():
    rng = random.Random(123)

    def r():
        return Fraction(rng.randint(-50, 50), rng.randint(1, 50))

    for _ in range(300):
        a, b, c = r(), r(), r()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if a != 0:
            assert a * (1 / a) == 1


def test_minimal_polynomial_small_cases():
    # 2cos(pi/2) = 0, 2cos(pi/3) = 1, 2cos(pi/4) = sqrt(2), 2cos(pi/5) = golden
    assert minimal_polynomial_2cos(2) == (0, 1)
    assert minimal_polynomial_2cos(3) == (-1, 1)
    assert minimal_polynomial_2cos(4) == (-2, 0, 1)
    assert minimal_polynomial_2cos(5) == (-1, -1, 1)
    assert minimal_polynomial_2cos(6) == (-3, 0, 1)


def test_minimal_polynomial_degree_is_half_totient():
    def phi(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    for n in range(2, 31):
        assert len(minimal_polynomial_2cos(n)) - 1 == phi(2 * n) // 2


def test_cyclo_field_n3_is_rational():
    f = cyclo_field(3)
    assert f.degree == 1
    assert f.generator.coeffs == (Fraction(1),)


def test_cyclo_field_n5_golden_identity():
    f = cyclo_field(5)
    g = f.generator
    assert g * g == g + f.one


def test_cyclo_field_n4_sqrt2():
    f = cyclo_field(4)
    r = f.generator
    assert r * r == f.from_rational(2)


def test_two_cos_embedding():
    f = cyclo_field(30)
    gamma = 2 * math.cos(math.pi / 30)
    for m in (2, 3, 5, 6, 10, 15, 30):
        e = f.two_cos_pi_over(m)
        approx = sum(float(c) * gamma ** i for i, c in enumerate(e.coeffs))
        assert abs(approx - 2 * math.cos(math.pi / m)) < 1e-9
    with pytest.raises(ValueError):
        f.two_cos_pi_over(7)


def test_cyclo_arithmetic_consistency():
    f = cyclo_field(12)
    g = f.generator
    rng = random.Random(5)
    gamma = 2 * math.cos(math.pi / 12)
    for _ in range(50):
        a = CycloElement(f, [Fraction(rng.randint(-4, 4)) for _ in range(f.degree)])
        b = CycloElement(f, [Fraction(rng.randint(-4, 4)) for _ in range(f.degree)])
        fa = sum(float(c) * gamma ** i for i, c in enumerate(a.coeffs))
        fb = sum(float(c) * gamma ** i for i, c in enumerate(b.coeffs))
        prod = a * b
        fp = sum(float(c) * gamma ** i for i, c in enumerate(prod.coeffs))
        assert abs(fp - fa * fb) < 1e-6
    assert (g + (-g)).is_zero()
