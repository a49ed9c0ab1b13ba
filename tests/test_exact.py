import random
from fractions import Fraction

import pytest

from coxdesc.exact import rational_from_string, rational_to_string


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
