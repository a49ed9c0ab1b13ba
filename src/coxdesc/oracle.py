"""Brute-force spectral verification through the regular representation.

The check: expand a descent element into the group algebra, form the |W|x|W|
left-multiplication matrix, and compare its characteristic polynomial with
the predicted product of (t - Delta_j)^(m_j), exactly, modulo one or more
62-bit primes.  Denominators are cleared first by scaling the element by the
common denominator D, which scales every eigenvalue by D as well.

The default (a fixed list of 3 primes) is a probabilistic identity check;
certified mode adds primes until their product exceeds twice the Hadamard
bound on the characteristic polynomial coefficients, which makes the integer
identity exact.  Per-prime runs are independent and share no mutable state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .coxeter import CoxeterSystem, ParabolicAtlas
from .descent import (
    DescentElement,
    SpectrumReport,
    StructureConstants,
    action_matrix,
    spectrum,
    y_to_x,
)
from .errors import GroupTooLargeError
from .exact import lcm, rational_to_string
from .modular import (
    DEFAULT_PRIMES,
    charpoly_mod,
    poly_divides_mod,
    poly_squarefree_part_mod,
    primes_below,
)
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
        for w in group.min_coset_reps(j, "right"):
            out[w] += c
    return GroupAlgebraElement({w: c for w, c in enumerate(out) if c})


def convolve(group: CoxeterSystem, a: GroupAlgebraElement,
             b: GroupAlgebraElement) -> GroupAlgebraElement:
    """(a * b)(w) = sum over uv = w of a(u) b(v)."""
    out: dict[int, Fraction] = {}
    for u, cu in a.coeffs.items():
        row = group.mult_row(u)
        for v, cv in b.coeffs.items():
            w = row[v]
            out[w] = out.get(w, Fraction(0)) + cu * cv
    return GroupAlgebraElement(out)


def _require_rep_size(n: int):
    if n > REGULAR_REP_CAP:
        raise GroupTooLargeError(
            f"regular representation refused for |W| = {n} > {REGULAR_REP_CAP}")


def _regular_rep_array(group: CoxeterSystem, cvec: np.ndarray) -> np.ndarray:
    """The R_W builder: entry (w, w') = cvec[w w'^-1], one column at a time.

    cvec holds a group-algebra element per element index; its dtype is the
    matrix dtype.  Refused for |W| > REGULAR_REP_CAP (quadratic memory).
    """
    n = group.order
    _require_rep_size(n)
    mat = np.empty((n, n), dtype=cvec.dtype)
    for j in range(n):
        col = group.right_translation(group.inverse[j])
        mat[:, j] = cvec[np.asarray(col, dtype=np.intp)]
    return mat


def regular_rep(group: CoxeterSystem, d: DescentElement):
    """R_W(d) as Fraction rows: entry (w, w') = coefficient of w w'^-1.

    Acting on coordinate vectors this is left multiplication by d.  Refused
    for |W| > REGULAR_REP_CAP.
    """
    coeffs = expand(group, d)
    cvec = np.array([coeffs.coeff(w) for w in range(group.order)], dtype=object)
    return _regular_rep_array(group, cvec).tolist()


def _scaled_integer_coeffs(group: CoxeterSystem, d: DescentElement):
    """(D, integer coefficient list of D*d expanded), D = lcm of denominators."""
    dx = y_to_x(d, group.rank)
    den = lcm(*(c.denominator for c in dx.coeffs.values()))
    coeffs = expand(group, dx)
    out = [0] * group.order
    for w, c in coeffs.coeffs.items():
        v = c * den
        assert v.denominator == 1
        out[w] = int(v)
    return den, out


def _regular_rep_mod(group: CoxeterSystem, int_coeffs, p: int) -> np.ndarray:
    """R_W of an integer-coefficient element, reduced mod p, as uint64."""
    cmod = np.array([c % p for c in int_coeffs], dtype=np.uint64)
    return _regular_rep_array(group, cmod)


def _predicted_charpoly_mod(factors, p: int, degree: int):
    """prod (t - root)^mult mod p as ascending coefficients of that degree."""
    poly = [1]
    for root, mult in factors:
        r = root % p
        for _ in range(mult):
            nxt = [0] * (len(poly) + 1)
            for i, c in enumerate(poly):
                if c:
                    nxt[i + 1] = (nxt[i + 1] + c) % p
                    nxt[i] = (nxt[i] - r * c) % p
            poly = nxt
    assert len(poly) == degree + 1
    return poly


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

    Primes dividing the weight denominators are skipped (with a notice in the
    verdict); it is an error if every prime is skipped.  In certified mode
    extra primes are appended until their product exceeds twice the Hadamard
    coefficient bound, making the match an exact integer identity.
    """
    n = group.order
    _require_rep_size(n)  # fail before building the atlas and spectrum
    atlas = atlas or ParabolicAtlas(group)
    rep = spectrum(d, atlas, constants)
    den, int_coeffs = _scaled_integer_coeffs(group, d)
    # eigenvalues scale linearly with the cleared denominator
    factors = []
    for dv, m in zip(rep.delta_values, rep.multiplicities):
        scaled = dv * den
        assert scaled.denominator == 1
        factors.append((int(scaled), m))
    prime_list = list(primes)
    if certify:
        bound = 2 * _hadamard_coeff_bound(int_coeffs, n)
        prod = 1
        for p in prime_list:
            if den % p:
                prod *= p
        cursor = min(prime_list)
        while prod <= bound:
            extra = primes_below(cursor, 1)[0]
            prime_list.append(extra)
            if den % extra:
                prod *= extra
            cursor = extra
    used, matched, skipped = [], [], []
    for p in prime_list:
        if den % p == 0:
            skipped.append(p)
            continue
        mat = _regular_rep_mod(group, int_coeffs, p)
        got = charpoly_mod(mat, p)
        want = _predicted_charpoly_mod(factors, p, n)
        used.append(p)
        matched.append(got == want)
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
                               atlas: ParabolicAtlas | None = None,
                               constants: StructureConstants | None = None) -> bool:
    """Do R_W(d) and the descent-algebra action matrix have equal root sets?

    Compared through mutual divisibility of the squarefree parts of the two
    characteristic polynomials modulo each usable prime.  All multiplicities
    here are below every 62-bit prime, so mod-p squarefree parts are exact.
    """
    constants = constants or StructureConstants(group)
    den, int_coeffs = _scaled_integer_coeffs(group, d)
    act, _, _ = action_matrix(d, constants)
    act_int = [[v * den for v in row] for row in act]
    assert all(v.denominator == 1 for row in act_int for v in row)
    used = 0
    for p in primes:
        if den % p == 0:
            continue
        used += 1
        rp = charpoly_mod(_regular_rep_mod(group, int_coeffs, p), p)
        mp = charpoly_mod([[int(v) % p for v in row] for row in act_int], p)
        sr = poly_squarefree_part_mod(rp, p)
        sm = poly_squarefree_part_mod(mp, p)
        if not (poly_divides_mod(sr, sm, p) and poly_divides_mod(sm, sr, p)):
            return False
    if used == 0:
        raise ValueError("all primes divide the weight denominators")
    return True
