import random
from fractions import Fraction

import pytest

from coxdesc.modular import (
    DEFAULT_PRIMES,
    charpoly_mod,
    is_prime,
    poly_divides_mod,
    poly_divmod_mod,
    poly_gcd_mod,
    poly_squarefree_part_mod,
    primes_below,
)

from conftest import poly_mul_mod


def faddeev_charpoly(matrix):
    """Independent exact characteristic polynomial, ascending coefficients."""
    n = len(matrix)
    a = [[Fraction(x) for x in row] for row in matrix]
    mk = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    coeffs = [Fraction(1)]
    for k in range(1, n + 1):
        prod = [[sum(a[i][l] * mk[l][j] for l in range(n)) for j in range(n)]
                for i in range(n)]
        ck = -sum(prod[i][i] for i in range(n)) / k
        coeffs.append(ck)
        mk = [[prod[i][j] + (ck if i == j else 0) for j in range(n)]
              for i in range(n)]
    asc = list(reversed(coeffs))
    assert all(c.denominator == 1 for c in asc)
    return [int(c) for c in asc]


def test_default_primes_are_62_bit_primes():
    for p in DEFAULT_PRIMES:
        assert is_prime(p)
        assert p.bit_length() == 62
        assert p > 2 ** 59


def test_primes_below():
    ps = primes_below(100, 4)
    assert ps == [97, 89, 83, 79]
    assert primes_below(2 ** 62, 1)[0] == DEFAULT_PRIMES[0]


def test_charpoly_identity():
    # (t-1)^3 = t^3 - 3t^2 + 3t - 1
    got = charpoly_mod([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 101)
    assert got == [100, 3, 98, 1]


def test_charpoly_zero():
    assert charpoly_mod([[0, 0], [0, 0]], 101) == [0, 0, 1]


def test_charpoly_all_ones():
    # rank-1 all-ones 6x6: t^5 (t - 6)
    got = charpoly_mod([[1] * 6 for _ in range(6)], 10007)
    assert got == [0, 0, 0, 0, 0, 10007 - 6, 1]


def test_charpoly_companion_known_integer_poly():
    # companion matrix of t^4 - 2t^3 + 7t - 5: charpoly is that polynomial
    poly = [-5, 7, 0, -2, 1]
    comp = [[0, 0, 0, 5],
            [1, 0, 0, -7],
            [0, 1, 0, 0],
            [0, 0, 1, 2]]
    for p in DEFAULT_PRIMES + (1000003, 2097169):
        assert is_prime(p)
        assert charpoly_mod(comp, p) == [c % p for c in poly]


def test_charpoly_vs_exact_reference_randomized():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 9)
        mat = [[rng.randint(-60, 60) for _ in range(n)] for _ in range(n)]
        exact = faddeev_charpoly(mat)
        for p in DEFAULT_PRIMES + (101, 1000003):
            assert charpoly_mod(mat, p) == [c % p for c in exact]


def test_charpoly_sparse_and_permutation_matrices():
    rng = random.Random(7)
    p = DEFAULT_PRIMES[0]
    for n in (5, 8):
        perm = list(range(n))
        rng.shuffle(perm)
        mat = [[int(perm[i] == j) for j in range(n)] for i in range(n)]
        assert charpoly_mod(mat, p) == [c % p for c in faddeev_charpoly(mat)]
    # heavily singular matrix exercises the pivotless branch
    mat = [[0] * 6 for _ in range(6)]
    mat[0][5] = 3
    assert charpoly_mod(mat, p) == [c % p for c in faddeev_charpoly(mat)]


def test_charpoly_rejects_bad_input():
    with pytest.raises(ValueError):
        charpoly_mod([[1, 2]], 101)
    with pytest.raises(ValueError):
        charpoly_mod([[1]], 2 ** 63)  # beyond the supported word size
    with pytest.raises(ValueError):
        charpoly_mod([[1]], 91)  # 91 = 7 * 13: pow(, -1) still works, caught by ctx
    assert charpoly_mod([], 101) == [1]


def test_poly_helpers():
    p = 10007
    a = poly_mul_mod([1, 1], [p - 1, 1], p)          # (x+1)(x-1) = x^2 - 1
    assert a == [p - 1, 0, 1]
    q, r = poly_divmod_mod(a, [1, 1], p)
    assert q == [p - 1, 1] and r == [0]
    g = poly_gcd_mod(a, [1, 1], p)
    assert g == [1, 1]
    # squarefree part of (x-2)^3 (x-5) is (x-2)(x-5)
    f = [1]
    for root, mult in ((2, 3), (5, 1)):
        for _ in range(mult):
            f = poly_mul_mod(f, [p - root, 1], p)
    sf = poly_squarefree_part_mod(f, p)
    assert sf == poly_mul_mod([p - 2, 1], [p - 5, 1], p)
    assert poly_divides_mod(sf, f, p)
    assert not poly_divides_mod(f, sf, p)

