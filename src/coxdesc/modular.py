"""Machine-word prime fields and exact modular characteristic polynomials.

The characteristic polynomial of an n x n matrix mod p is computed in O(n^3)
field operations: similarity reduction to upper Hessenberg form, then the
standard leading-principal-minor recurrence.  The heavy inner loops run as
vectorized numpy uint64 passes; products of 62-bit residues are done with a
branch-free Montgomery multiplication built from 32-bit limb splits, so any
odd prime p < 2^62 is supported at full speed.

Per-prime computations are independent: nothing here mutates shared state.
"""

from __future__ import annotations

import numpy as np

_M32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)

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


# ---------------------------------------------------------------------------
# Vectorized Montgomery arithmetic (R = 2^64).

class _MontCtx:
    def __init__(self, p: int):
        if p % 2 == 0 or not 2 < p < (1 << 62):
            raise ValueError("modulus must be an odd prime below 2^62")
        self.p_int = p
        self.p = np.uint64(p)
        self.pninv = np.uint64((-pow(p, -1, 1 << 64)) & ((1 << 64) - 1))
        self.r2_int = (1 << 128) % p  # (2^64)^2 mod p

    def scalar_mont(self, x: int) -> int:
        """x * 2^64 mod p, for scalars."""
        return (x << 64) % self.p_int


def _mont_mul(a, b_hi, b_lo, ctx: _MontCtx):
    """Elementwise a*b*2^-64 mod p for uint64 arrays with a, b < p < 2^62.

    `b` is passed pre-split into 32-bit halves (broadcastable against `a`).
    """
    a_hi = a >> _S32
    a_lo = a & _M32
    ll = a_lo * b_lo
    mid = a_hi * b_lo + a_lo * b_hi  # < 2^64: both halves of a, b are < 2^31/2^32
    t = mid + (ll >> _S32)
    t_hi = (a_hi * b_hi) + (t >> _S32)
    t_lo = ((t & _M32) << _S32) | (ll & _M32)
    # Montgomery reduction: m = t_lo * (-p^-1) mod 2^64; result = (t + m*p) >> 64
    m = t_lo * ctx.pninv
    m_hi = m >> _S32
    m_lo = m & _M32
    p_hi = np.uint64(ctx.p_int >> 32)
    p_lo = np.uint64(ctx.p_int & 0xFFFFFFFF)
    t1 = m_hi * p_lo
    mid2 = t1 + m_lo * p_hi
    c1 = (mid2 < t1).astype(np.uint64)
    ll2 = m_lo * p_lo
    t2 = mid2 + (ll2 >> _S32)
    c2 = (t2 < mid2).astype(np.uint64)
    mp_hi = (m_hi * p_hi) + ((c1 + c2) << _S32) + (t2 >> _S32)
    r = t_hi + mp_hi + (t_lo != 0).astype(np.uint64)
    return np.where(r >= ctx.p, r - ctx.p, r)


def _submod(x, y, p):
    d = x - y
    return np.where(x < y, d + p, d)


def _addmod(x, y, p):
    s = x + y
    return np.where(s >= p, s - p, s)


def _foldsum_mod(a, axis, p):
    """Sum mod p along an axis by pairwise folding (pairwise sums fit uint64)."""
    a = np.moveaxis(a, axis, -1)
    while a.shape[-1] > 1:
        m = a.shape[-1] // 2
        head = _addmod(a[..., :m], a[..., m : 2 * m], p)
        if a.shape[-1] % 2:
            head = np.concatenate([head, a[..., 2 * m :]], axis=-1)
        a = head
    return a[..., 0]


# ---------------------------------------------------------------------------
# Characteristic polynomial mod p.

_CHUNK = 128  # row blocking keeps working sets cache-resident


def _hessenberg_mod(M, ctx: _MontCtx):
    """In-place similarity reduction of uint64 matrix M to upper Hessenberg."""
    n = M.shape[0]
    p = ctx.p
    for k in range(n - 2):
        col = M[k + 1 :, k]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = int(nz[0]) + k + 1
        if piv != k + 1:
            M[[k + 1, piv], :] = M[[piv, k + 1], :]
            M[:, [k + 1, piv]] = M[:, [piv, k + 1]]
        inv_mont = ctx.scalar_mont(pow(int(M[k + 1, k]), -1, ctx.p_int))
        f = _mont_mul(
            M[k + 2 :, k],
            np.uint64(inv_mont >> 32),
            np.uint64(inv_mont & 0xFFFFFFFF),
            ctx,
        )
        r2 = np.uint64(ctx.r2_int)
        fm = _mont_mul(f, r2 >> _S32, r2 & _M32, ctx)  # f in Montgomery form
        prow = M[k + 1, k:].copy()
        prow_hi = prow >> _S32
        prow_lo = prow & _M32
        # row updates: M[i, k:] -= f_i * prow  (similarity left factor)
        rows = n - k - 2
        for r0 in range(0, rows, _CHUNK):
            r1 = min(r0 + _CHUNK, rows)
            blk = M[k + 2 + r0 : k + 2 + r1, k:]
            prod = _mont_mul(fm[r0:r1, None], prow_hi[None, :], prow_lo[None, :], ctx)
            blk[...] = _submod(blk, prod, p)
        # column update: M[:, k+1] += M[:, k+2:] @ f  (similarity right factor)
        fm_hi = fm >> _S32
        fm_lo = fm & _M32
        acc = np.empty(n, dtype=np.uint64)
        for r0 in range(0, n, _CHUNK):
            r1 = min(r0 + _CHUNK, n)
            prod = _mont_mul(M[r0:r1, k + 2 :], fm_hi[None, :], fm_lo[None, :], ctx)
            acc[r0:r1] = _foldsum_mod(prod, 1, p)
        M[:, k + 1] = _addmod(M[:, k + 1], acc, p)
    return M


def _charpoly_hessenberg(H, ctx: _MontCtx):
    """Charpoly of an upper Hessenberg matrix via the principal-minor recurrence.

    p_0 = 1;  p_m = (t - h_mm) p_{m-1} - sum_{i=1}^{m-1} h_{m-i,m} beta_i p_{m-i-1}
    with beta_i the running product of subdiagonal entries below row m-i.
    """
    n = H.shape[0]
    p = ctx.p
    p_int = ctx.p_int
    P = np.zeros((n + 1, n + 1), dtype=np.uint64)
    P[0, 0] = 1
    Hl = H.tolist()  # python ints for the scalar coefficient work
    for m in range(1, n + 1):
        prev = P[m - 1, :m]
        cur = np.zeros(m + 1, dtype=np.uint64)
        cur[1 : m + 1] = prev  # t * p_{m-1}
        h = Hl[m - 1][m - 1] % p_int
        if h:
            hm = ctx.scalar_mont(h)
            hp = _mont_mul(prev, np.uint64(hm >> 32), np.uint64(hm & 0xFFFFFFFF), ctx)
            cur[:m] = _submod(cur[:m], hp, p)
        # scalar coefficients c_i = h[m-1-i][m-1] * prod of subdiagonals
        coefs = []
        prod = 1
        for i in range(1, m):
            prod = (prod * Hl[m - i][m - i - 1]) % p_int
            if prod == 0:
                break
            coefs.append((m - 1 - i, (Hl[m - 1 - i][m - 1] * prod) % p_int))
        coefs = [(row, c) for row, c in coefs if c]
        if coefs:
            rows = np.array([r for r, _ in coefs], dtype=np.intp)
            cvec = np.array([c for _, c in coefs], dtype=np.uint64)
            r2 = np.uint64(ctx.r2_int)
            cm = _mont_mul(cvec, r2 >> _S32, r2 & _M32, ctx)  # c * 2^64 mod p
            prod_block = _mont_mul(P[rows, :m], (cm >> _S32)[:, None], (cm & _M32)[:, None], ctx)
            s = _foldsum_mod(prod_block, 0, p)
            cur[:m] = _submod(cur[:m], s, p)
        P[m, : m + 1] = cur
    return [int(c) for c in P[n, : n + 1]]


def charpoly_mod(matrix, p: int) -> list[int]:
    """Characteristic polynomial det(tI - M) mod p, ascending coefficients.

    `matrix` is a square array of integers (arbitrary size; reduced mod p on
    entry); p must be an odd prime below 2^62.  The result is monic of degree
    n, returned as n+1 coefficients from the constant term up.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    rows = [[int(x) % p for x in row] for row in matrix]
    n = len(rows)
    if n == 0:
        return [1]
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    ctx = _MontCtx(p)
    M = np.array(rows, dtype=np.uint64)
    _hessenberg_mod(M, ctx)
    return _charpoly_hessenberg(M, ctx)


# ---------------------------------------------------------------------------
# Dense polynomial arithmetic mod p (ascending coefficient lists).

def poly_trim_mod(c):
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def poly_mul_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return poly_trim_mod(out)


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
    assert r == [0]
    inv = pow(q[-1], -1, p)
    return [x * inv % p for x in q]


def poly_divides_mod(a, b, p) -> bool:
    """True iff a divides b mod p."""
    _, r = poly_divmod_mod(b, a, p)
    return r == [0]
