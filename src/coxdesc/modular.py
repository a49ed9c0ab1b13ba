"""Prime fields below 2^62 and exact modular characteristic polynomials.

`prime_one_mod` and `root_of_unity` give the field the root closure runs in:
a prime p = 1 (mod 2N) and an element of order exactly 2N in F_p.

`charpoly_mod` is for small matrices (the descent-algebra action matrix has
2^rank rows): a similarity reduction to upper Hessenberg form, then the
leading-principal-minor recurrence, O(n^3) operations on Python ints.  The
|W| x |W| regular representation never reaches it; the oracle checks that
matrix through power sums in the group algebra instead.

Nothing here mutates shared state.
"""

from __future__ import annotations

from .errors import InvariantError

#: Default verification primes: the three largest 62-bit primes.
DEFAULT_PRIMES = (4611686018427387847, 4611686018427387817, 4611686018427387787)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 2^64."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
        d, r = n - 1, 0
        while d % 2 == 0:
            d //= 2
            r += 1
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(start: int, count: int) -> list[int]:
    """The first `count` primes strictly below `start`, descending."""
    out = []
    c = start - 1 if start % 2 == 0 else start - 2
    while len(out) < count:
        if c < 3:
            raise ValueError("ran out of primes")
        if is_prime(c):
            out.append(c)
        c -= 2
    return out


def prime_one_mod(q: int) -> int:
    """The largest prime p < 2^62 with p = 1 (mod q)."""
    p = ((1 << 62) - 2) // q * q + 1
    while not is_prime(p):
        p -= q
    return p


def root_of_unity(n: int, p: int) -> int:
    """An element of order exactly n in F_p, for a prime p = 1 (mod n):
    the first a^((p-1)/n), a = 2, 3, ..., whose n/q-th power is not 1 for
    any prime q dividing n."""
    factors, rest, q = [], n, 2
    while q * q <= rest:
        if rest % q == 0:
            factors.append(q)
            while rest % q == 0:
                rest //= q
        q += 1
    if rest > 1:
        factors.append(rest)
    a = 2
    while True:
        z = pow(a, (p - 1) // n, p)
        if all(pow(z, n // q, p) != 1 for q in factors):
            return z
        a += 1


# ---------------------------------------------------------------------------
# Characteristic polynomial mod p.

def charpoly_mod(matrix, p: int) -> list[int]:
    """Characteristic polynomial det(tI - M) mod p, ascending coefficients.

    `matrix` is a square array of integers (arbitrary size; reduced mod p on
    entry); p must be an odd prime below 2^62.  The result is monic of degree
    n, returned as n+1 coefficients from the constant term up.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 2 < p < (1 << 62):
        raise ValueError("modulus must be an odd prime below 2^62")
    h = [[int(x) % p for x in row] for row in matrix]
    n = len(h)
    if any(len(row) != n for row in h):
        raise ValueError("matrix must be square")
    # similarity reduction to upper Hessenberg form: column k is cleared
    # below the subdiagonal by row operations L, then undone on columns by L^-1
    for k in range(n - 2):
        piv = next((i for i in range(k + 1, n) if h[i][k]), None)
        if piv is None:
            continue
        if piv != k + 1:
            h[k + 1], h[piv] = h[piv], h[k + 1]
            for row in h:
                row[k + 1], row[piv] = row[piv], row[k + 1]
        inv = pow(h[k + 1][k], -1, p)
        top = h[k + 1]
        for i in range(k + 2, n):
            f = h[i][k] * inv % p
            if f:
                row_i = h[i]
                for j in range(k, n):
                    row_i[j] = (row_i[j] - f * top[j]) % p
                for row in h:
                    row[k + 1] = (row[k + 1] + f * row[i]) % p
    # leading principal minors of the Hessenberg matrix:
    # P_{m+1} = (t - h_mm) P_m - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) P_i
    minors = [[1]]
    for m in range(n):
        cur = [0] + minors[m]
        for j, c in enumerate(minors[m]):
            cur[j] = (cur[j] - h[m][m] * c) % p
        beta = 1
        for i in range(m - 1, -1, -1):
            beta = beta * h[i + 1][i] % p
            if not beta:
                break
            f = h[i][m] * beta % p
            for j, c in enumerate(minors[i]):
                cur[j] = (cur[j] - f * c) % p
        minors.append(cur)
    return minors[n]


# ---------------------------------------------------------------------------
# Dense polynomial arithmetic mod p (ascending coefficient lists).

def poly_trim_mod(c):
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def poly_divmod_mod(a, b, p):
    a = [x % p for x in a]
    b = poly_trim_mod([x % p for x in b])
    if b == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    q = [0] * max(1, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c == 0:
            continue
        f = c * inv_lead % p
        q[i - db] = f
        for j, y in enumerate(b):
            a[i - db + j] = (a[i - db + j] - f * y) % p
    return poly_trim_mod(q), poly_trim_mod(a)


def poly_gcd_mod(a, b, p):
    a = poly_trim_mod([x % p for x in a])
    b = poly_trim_mod([x % p for x in b])
    while b != [0]:
        _, r = poly_divmod_mod(a, b, p)
        a, b = b, r
    if a != [0]:
        inv = pow(a[-1], -1, p)
        a = [x * inv % p for x in a]
    return a


def poly_deriv_mod(a, p):
    return poly_trim_mod([i * c % p for i, c in enumerate(a)][1:] or [0])


def poly_squarefree_part_mod(a, p):
    """a / gcd(a, a') mod p; valid while all root multiplicities are < p."""
    g = poly_gcd_mod(a, poly_deriv_mod(a, p), p)
    q, r = poly_divmod_mod(a, g, p)
    if r != [0]:
        raise InvariantError(f"gcd(a, a') mod {p} does not divide a")
    inv = pow(q[-1], -1, p)
    return [x * inv % p for x in q]


def poly_divides_mod(a, b, p) -> bool:
    """True iff a divides b mod p."""
    _, r = poly_divmod_mod(b, a, p)
    return r == [0]
