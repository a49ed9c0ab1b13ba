"""Exact scalar arithmetic: rationals and real cyclotomic algebraic numbers.

Rationals are ``fractions.Fraction`` (arbitrary precision, always reduced,
positive denominator).  This module adds the "p/q" string serialization used
in all file formats, and the real cyclotomic fields Q(2cos(pi/N)) that carry
the exact coordinates of root systems.  The root closure only needs exact
equality of such coordinates; no sign or ordering of field elements is ever
decided (root signs come from the generator permutations, see coxeter).

Everything here is immutable after construction; all operations are pure
functions, safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

Rational = Fraction


def rational_from_string(s: str) -> Fraction:
    """Parse "p/q" or "p" (q omitted when 1)."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def rational_to_string(x: Fraction) -> str:
    """Render as "p/q", omitting "/q" when the denominator is 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# Integer polynomial helpers (coefficient lists, ascending degree).

def _poly_trim(c):
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _poly_divexact(a, b):
    """Exact division of integer polynomials (remainder must be zero)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c == 0:
            continue
        assert c % lb == 0
        f = c // lb
        q[i - db] = f
        for j, y in enumerate(b):
            a[i - db + j] -= f * y
    assert all(x == 0 for x in a), "inexact polynomial division"
    return _poly_trim(q)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divexact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _dickson_polys(kmax):
    """D_0..D_kmax with 2cos(k*t) = D_k(2cos t):  D_{k+1} = x*D_k - D_{k-1}."""
    polys = [[2], [0, 1]]
    for _ in range(2, kmax + 1):
        prev, cur = polys[-2], polys[-1]
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        polys.append(nxt)
    return polys[: kmax + 1]


@lru_cache(maxsize=None)
def minimal_polynomial_2cos(n: int) -> tuple[int, ...]:
    """Minimal polynomial of 2cos(pi/N) over Q, ascending coefficients.

    Obtained by folding the palindromic cyclotomic polynomial of order 2N:
    Phi_{2N}(z) = z^d * Psi(z + 1/z) with d = deg Phi_{2N} / 2.
    """
    if n < 2:
        raise ValueError("N must be >= 2")
    phi = list(cyclotomic_polynomial(2 * n))
    deg = len(phi) - 1
    assert deg % 2 == 0 and phi == phi[::-1]
    d = deg // 2
    dick = _dickson_polys(d)
    out = [phi[d]] + [0] * d
    for k in range(1, d + 1):
        for i, c in enumerate(dick[k]):
            out[i] += phi[d + k] * c
    return tuple(_poly_trim(out))


# ---------------------------------------------------------------------------
# Real cyclotomic field Q(2cos(pi/N)).

class CycloField:
    """The field Q(2cos(pi/N)), elements in the power basis of the generator.

    The generator gamma = 2cos(pi/N) is a root of the minimal polynomial;
    elements are reduced modulo that polynomial, so equality is exact.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("N must be >= 2")
        self.n = n
        self.min_poly = tuple(Fraction(c) for c in minimal_polynomial_2cos(n))
        self.degree = len(self.min_poly) - 1
        # x^(degree+i) mod min_poly for i = 0..degree-2, as coefficient rows
        self._red = self._reduction_rows()
        self.zero = CycloElement(self, (Fraction(0),) * self.degree)
        self.one = self.from_rational(Fraction(1))
        self.generator = self._make_generator()

    # -- construction -------------------------------------------------------

    def _reduction_rows(self):
        d = self.degree
        rows = []
        cur = [-c for c in self.min_poly[:-1]]  # x^d = -(lower part), monic
        rows.append(tuple(cur))
        for _ in range(d - 2):
            nxt = [Fraction(0)] + cur[:-1]
            top = cur[-1]
            if top:
                for i in range(d):
                    nxt[i] += top * rows[0][i]
            cur = nxt
            rows.append(tuple(cur))
        return rows

    def _make_generator(self):
        coeffs = [Fraction(0)] * self.degree
        if self.degree == 1:
            # gamma is rational: x - gamma = min poly
            coeffs[0] = -self.min_poly[0]
        else:
            coeffs[1] = Fraction(1)
        return CycloElement(self, tuple(coeffs))

    # -- public helpers ------------------------------------------------------

    def from_rational(self, x) -> CycloElement:
        coeffs = [Fraction(0)] * self.degree
        coeffs[0] = Fraction(x)
        return CycloElement(self, tuple(coeffs))

    def two_cos_pi_over(self, m: int) -> CycloElement:
        """2cos(pi/m) as an element, for any m dividing N."""
        if self.n % m != 0:
            raise ValueError(f"{m} does not divide N={self.n}")
        k = self.n // m
        # 2cos(k*theta) = D_k(2cos theta)
        d0, d1 = self.from_rational(2), self.generator
        if k == 0:
            return d0
        for _ in range(k - 1):
            d0, d1 = d1, self.generator * d1 - d0
        return d1

    def reduce(self, coeffs) -> tuple:
        """Reduce a product polynomial (length <= 2*degree-1) mod min_poly."""
        d = self.degree
        out = list(coeffs[:d]) + [Fraction(0)] * (d - len(coeffs[:d]))
        for i in range(d, len(coeffs)):
            c = coeffs[i]
            if c:
                row = self._red[i - d]
                for j in range(d):
                    out[j] += c * row[j]
        return tuple(out)

    def __repr__(self):
        return f"CycloField(N={self.n}, degree={self.degree})"


class CycloElement:
    """Element of a CycloField, as a power-basis coefficient tuple."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycloField, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def __add__(self, other):
        return CycloElement(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return CycloElement(self.field, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycloElement(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElement(self.field, tuple(a * other for a in self.coeffs))
        a, b = self.coeffs, other.coeffs
        prod = [Fraction(0)] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return CycloElement(self.field, self.field.reduce(prod))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, CycloElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __repr__(self):
        return f"CycloElement{self.coeffs}"


@lru_cache(maxsize=None)
def cyclo_field(n: int) -> CycloField:
    """Field descriptor for Q(2cos(pi/N))."""
    return CycloField(n)


def lcm(*values: int) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out
