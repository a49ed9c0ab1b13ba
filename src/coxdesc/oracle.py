"""Brute-force spectral verification through the regular representation.

The check: expand a descent element d into the group algebra and compare the
characteristic polynomial of its |W| x |W| left-multiplication matrix R_W(d)
with the predicted product of (t - Delta_j)^(m_j), exactly, modulo one or
more primes |W| < p < 2^62.  Denominators are cleared first by scaling the
element by the common denominator D, which scales every eigenvalue by D.

The matrix is never formed, and there is no convolution and no |W| x |W|
table.  R_W(a) has constant diagonal a(e), so tr R_W(a)^k = |W| [e] a^k.  The
expansion of D d is constant on the right-descent classes C_K = {w :
Des_R(w) = K}, and the descent algebra is a subalgebra of the group algebra
(L. Solomon, "A Mackey formula in the group ring of a Coxeter group",
J. Algebra 41, 1976), so every power a^k is too.  Products of such elements
are read from the counts N[K][K1][K2] = #{u : Des_R(u) = K1, Des_R(u^-1 w_K)
= K2} at one member w_K of each class, one multiplication row per class, and
[e] a^k is an entry of the k-th power of a 2^rank x 2^rank matrix mod p.  For
p > |W| Newton's identities make two monic degree-|W| polynomials agree mod
p exactly when their first |W| power sums do, so the power sums are compared
with sum_j m_j (D Delta_j)^k.  The counts use only `mult_row`, `inverse` and
`des_r`, never the structure constants or the parabolic atlas under test;
each multiplication row is built for one class member and dropped.

The reduction is checked, never assumed: the scaled coefficients must be
equal on every C_K, and N[K] must be equal at other members of C_K: at every
member in certified mode (O(|W|^2) work, O(|W|) memory), otherwise at the
middle and the last member of each class.  A difference raises
InvariantError.

The default (a fixed list of 3 primes) is a probabilistic identity check;
certified mode adds primes until their product exceeds twice the Hadamard
bound on the characteristic polynomial coefficients, which makes the integer
identity exact.  Per-prime runs are independent and share no mutable state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import mul

from .coxeter import CoxeterSystem, ParabolicAtlas
from .descent import (
    DescentElement,
    SpectrumReport,
    StructureConstants,
    action_matrix,
    spectrum,
    y_to_x,
)
from .errors import GroupTooLargeError, InvariantError
from .exact import rational_to_string
# charpoly_mod is unused here but kept: perfbench/spans.py hooks oracle.charpoly_mod
from .modular import DEFAULT_PRIMES, charpoly_mod, is_prime, primes_below
from .subsets import subset_name

REGULAR_REP_CAP = 20000


@dataclass
class GroupAlgebraElement:
    """Sparse element of the group algebra: element index -> coefficient."""

    coeffs: dict

    def __post_init__(self):
        self.coeffs = {w: Fraction(c) for w, c in self.coeffs.items() if c != 0}

    def coeff(self, w: int) -> Fraction:
        return self.coeffs.get(w, Fraction(0))


def expand(group: CoxeterSystem, d: DescentElement) -> GroupAlgebraElement:
    """Expand into the group algebra: x_J contributes 1 on every w in W^J."""
    dx = y_to_x(d, group.rank)
    out = [Fraction(0)] * group.order
    for j, c in dx.coeffs.items():
        for w in group.min_coset_reps(j):
            out[w] += c
    return GroupAlgebraElement({w: c for w, c in enumerate(out) if c})


def _require_rep_size(n: int):
    if n > REGULAR_REP_CAP:
        raise GroupTooLargeError(
            f"regular representation refused for |W| = {n} > {REGULAR_REP_CAP}")


def _require_primes(primes, n: int):
    """Every modulus must be a prime p with |W| < p < 2^62: below that,
    power sums stop determining the characteristic polynomial.  No modulus
    may repeat: a repeated prime adds nothing to the certified product."""
    seen = set()
    for p in primes:
        if not (n < p < (1 << 62) and is_prime(p)):
            raise ValueError(
                f"modulus {p} is not a prime p with |W| = {n} < p < 2^62")
        if p in seen:
            raise ValueError(f"modulus {p} is repeated")
        seen.add(p)


def _scaled_integer_coeffs(group: CoxeterSystem, d: DescentElement):
    """(D, integer coefficient list of D*d expanded), D = lcm of denominators.

    The x-coefficients are scaled to integers first, so the expansion adds
    ints: D*c_J on every w in W^J.
    """
    dx = y_to_x(d, group.rank)
    den = lcm(*(c.denominator for c in dx.coeffs.values()))
    out = [0] * group.order
    for j, c in dx.coeffs.items():
        v = c.numerator * (den // c.denominator)
        for w in group.min_coset_reps(j):
            out[w] += v
    return den, out


def _class_coeffs(group: CoxeterSystem, int_coeffs) -> list[int]:
    """The coefficient a_K shared by every w in C_K, indexed by the mask K.

    InvariantError if two members of one class differ.
    """
    out = {}
    for k, c in zip(group.des_r, int_coeffs):
        if out.setdefault(k, c) != c:
            raise InvariantError(
                f"coefficients are not constant on right-descent class {k}")
    return [out[k] for k in range(1 << group.rank)]


def _descent_pairs(group: CoxeterSystem, row) -> Counter:
    """(Des_R(u), Des_R(u^-1 w)) -> number of u in W, for row = w * (.).

    Over v in W, u = w v^-1 = row[v^-1] runs over W with u^-1 w = v.
    """
    des = group.des_r
    return Counter(zip([des[row[x]] for x in group.inverse], des))


def _class_counts(group: CoxeterSystem, full: bool) -> list[Counter]:
    """N[K] = _descent_pairs at the first (shortest) member w_K of C_K.

    The class basis is sound only if N[K] is the same at every member of
    C_K.  That is checked at every member when `full`, and otherwise at the
    middle and the last member of each class in index order.  Each row is
    built afresh and dropped after counting.  InvariantError on a difference.
    """
    members = [[] for _ in range(1 << group.rank)]
    for w, k in enumerate(group.des_r):
        members[k].append(w)
    counts = [_descent_pairs(group, group.mult_row(ws[0])) for ws in members]
    for k, ws in enumerate(members):
        others = ws[1:] if full else sorted({ws[len(ws) // 2], ws[-1]} - {ws[0]})
        for w in others:
            if _descent_pairs(group, group.mult_row(w)) != counts[k]:
                raise InvariantError(
                    f"descent-pair counts differ within right-descent class {k}")
    return counts


def _power_sums(counts, coeffs, n: int, p: int) -> list[int]:
    """[tr R_W(a)^k mod p for k = 1..n], a = sum_K coeffs[K] (sum of C_K).

    a lies in the descent algebra, so every a^k does, and the vector of
    class values of a*b is L b with L[K][K2] = sum_K1 N[K][K1][K2] a_K1.
    The identity is the only element with no descents, so a^k = L^k e_0
    and tr R_W(a)^k = n [e] a^k = n (L^k e_0)_0.
    """
    size = len(counts)
    mat = [[0] * size for _ in range(size)]
    for row, pairs in zip(mat, counts):
        for (k1, k2), c in pairs.items():
            row[k2] += c * coeffs[k1]
    mat = [[x % p for x in row] for row in mat]
    x = [1] + [0] * (size - 1)
    out = []
    for _ in range(n):
        x = [sum(map(mul, row, x)) % p for row in mat]
        out.append(n * x[0] % p)
    return out


def _predicted_power_sums(factors, p: int, n: int) -> list[int]:
    """[sum of mult * root^k mod p over (root, mult) for k = 1..n]."""
    sums = [0] * n
    for root, mult in factors:
        x = 1
        for k in range(n):
            x = x * root % p
            sums[k] += mult * x
    return [s % p for s in sums]


def _hadamard_coeff_bound(int_coeffs, n: int) -> int:
    """Upper bound on |char poly coefficients| of the integer matrix R.

    Every entry of R is one of the element coefficients; |c_{n-k}| is at most
    C(n,k) (sqrt(k) A)^k <= 2^n (n A^2 + 1)^ceil(n/2) with A = max |entry|.
    """
    a = max((abs(c) for c in int_coeffs), default=0)
    return (2 ** n) * (n * a * a + 1) ** ((n + 1) // 2)


@dataclass
class VerificationVerdict:
    """Outcome of a charpoly comparison across primes."""

    group_label: str
    order: int
    weights: dict               # subset name -> rational string (x-basis)
    primes: list[int]
    matched: list[bool]
    skipped: list[int]          # primes dividing the denominator scale
    certified: bool
    predicted_factors: list     # (Fraction delta, int multiplicity)
    scale: int                  # denominator D cleared from the weights
    report: SpectrumReport = field(repr=False, default=None)

    @property
    def all_matched(self) -> bool:
        return bool(self.matched) and all(self.matched)

    def to_json_dict(self) -> dict:
        return {
            "group": self.group_label,
            "order": self.order,
            "weights": self.weights,
            "primes": self.primes,
            "matched": self.matched,
            "skipped_primes": self.skipped,
            "certified": self.certified,
            "predicted_factors": [
                {"delta": rational_to_string(d), "multiplicity": m}
                for d, m in self.predicted_factors
            ],
        }


def verify_spectrum(group: CoxeterSystem, d: DescentElement,
                    primes=DEFAULT_PRIMES, certify: bool = False,
                    atlas: ParabolicAtlas | None = None,
                    constants: StructureConstants | None = None) -> VerificationVerdict:
    """Check charpoly(R_W(d)) == prod (t - Delta_j)^(m_j) modulo each prime.

    Every prime must satisfy |W| < p < 2^62 and appear once (ValueError
    otherwise).  Primes dividing the weight denominators are skipped (with a
    notice in the verdict); it is an error if every prime is skipped.  In
    certified mode extra primes are appended until their product exceeds
    twice the Hadamard coefficient bound, making the match an exact integer
    identity, and the class counts are checked at every class member.
    """
    n = group.order
    _require_rep_size(n)  # fail before building the atlas and spectrum
    prime_list = list(primes)
    _require_primes(prime_list, n)
    atlas = atlas or ParabolicAtlas(group)
    rep = spectrum(d, atlas, constants)
    den, int_coeffs = _scaled_integer_coeffs(group, d)
    # eigenvalues scale linearly with the cleared denominator
    factors = []
    for dv, m in zip(rep.delta_values, rep.multiplicities):
        scaled = dv * den
        if scaled.denominator != 1:
            raise InvariantError(f"eigenvalue {dv} times {den} is not an integer")
        factors.append((int(scaled), m))
    if certify:
        bound = 2 * _hadamard_coeff_bound(int_coeffs, n)
        prod = 1
        for p in prime_list:
            if den % p:
                prod *= p
        cursor = min(prime_list)
        while prod <= bound:
            cursor = primes_below(cursor, 1)[0]
            _require_primes([cursor], n)
            prime_list.append(cursor)
            if den % cursor:
                prod *= cursor
    coeffs = _class_coeffs(group, int_coeffs)
    counts = _class_counts(group, full=certify)
    used, matched, skipped = [], [], []
    for p in prime_list:
        if den % p == 0:
            skipped.append(p)
            continue
        got = _power_sums(counts, coeffs, n, p)
        used.append(p)
        matched.append(got == _predicted_power_sums(factors, p, n))
    if not used:
        raise ValueError("all primes divide the weight denominators")
    dx = y_to_x(d, group.rank)
    weights = dict(sorted((subset_name(m), rational_to_string(c))
                          for m, c in dx.coeffs.items()))
    return VerificationVerdict(
        group_label=group.spec.label(),
        order=n,
        weights=weights,
        primes=used,
        matched=matched,
        skipped=skipped,
        certified=certify and all(matched),
        predicted_factors=[(dv, m) for dv, m in zip(rep.delta_values,
                                                    rep.multiplicities)],
        scale=den,
        report=rep,
    )


def verify_lemma_same_spectrum(group: CoxeterSystem, d: DescentElement,
                               primes=DEFAULT_PRIMES,
                               constants: StructureConstants | None = None) -> bool:
    """Do R_W(d) and left multiplication by d on the descent algebra have the
    same eigenvalues?

    `verify_spectrum` checks that the roots of charpoly(R_W(d)) are the
    predicted Delta_j, modulo each prime.  The action matrix in ascending
    mask order is upper triangular, since a_JKL is nonzero only for L subset
    of K (InvariantError if an entry below the diagonal is not zero), so its
    eigenvalues are its diagonal, compared with the Delta_j exactly.  This
    implies equal root sets, and is narrower: it is also False when the
    predicted spectrum is wrong, even if the two root sets agree.
    """
    constants = constants or StructureConstants(group)
    verdict = verify_spectrum(group, d, primes, constants=constants)
    act, _, _ = action_matrix(d, constants)
    if any(any(row[:i]) for i, row in enumerate(act)):
        raise InvariantError("descent-algebra action matrix is not upper triangular")
    diagonal = {row[k] for k, row in enumerate(act)}
    return verdict.all_matched and diagonal == set(verdict.report.delta_values)
