"""The descent algebra: bases, structure constants, and spectra.

The algebra is spanned by the elements x_J (sums of minimal coset
representatives); products expand as x_J x_K = sum over L of a_JKL x_L.
This module computes the structure constants both by definition (counting
distinguished double-coset representatives, bucketed once per J so that a
(J, K) table regroups the same count over at most 3^rank buckets) and by
the closed normalizer formula for the diagonal values a_JKK, in corrected
and in the published naive variant; it builds action matrices and the
eigenvalue/multiplicity report for the regular representation of any element.

StructureConstants keeps the per-J bucket rows, stored under a lock when
built, so a shared instance is safe for concurrent readers; everything else
is immutable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .coxeter import CoxeterSystem, ParabolicAtlas, parabolic_degrees
from .errors import InvariantError
from .subsets import iter_subsets, subset_name

__all__ = [
    "DescentElement", "StructureConstants", "SpectrumReport",
    "y_to_x", "x_to_y", "multiply", "ajkk_formula", "ajkk_matrix",
    "ajkk_matrix_bruteforce", "action_matrix", "spectrum",
    "solve_class_vector", "solve_lower_triangular",
]


@dataclass
class DescentElement:
    """Coefficients (lambda_J) over subset masks, in the x- or y-basis."""

    basis: str
    coeffs: dict  # mask -> Fraction, zero entries omitted

    def __post_init__(self):
        if self.basis not in ("x", "y"):
            raise ValueError("basis must be 'x' or 'y'")
        self.coeffs = {m: Fraction(c) for m, c in self.coeffs.items() if c != 0}

    def coeff(self, mask: int) -> Fraction:
        return self.coeffs.get(mask, Fraction(0))

    @staticmethod
    def unit(rank: int) -> "DescentElement":
        """x_S, the identity of the algebra."""
        return DescentElement("x", {(1 << rank) - 1: Fraction(1)})


def y_to_x(d: DescentElement, rank: int) -> DescentElement:
    """Moebius expansion y_J = sum over K subset of J of (-1)^|J\\K| x_{S\\K}."""
    if d.basis == "x":
        return d
    full = (1 << rank) - 1
    out: dict[int, Fraction] = {}
    for j, c in d.coeffs.items():
        k = j
        while True:  # iterate subsets k of j
            sign = -1 if (bin(j ^ k).count("1") % 2) else 1
            m = full ^ k
            out[m] = out.get(m, Fraction(0)) + sign * c
            if k == 0:
                break
            k = (k - 1) & j
    return DescentElement("x", out)


def x_to_y(d: DescentElement, rank: int) -> DescentElement:
    """Inverse basis change via x_{S\\K} = sum over J subset of K of y_J."""
    if d.basis == "y":
        return d
    full = (1 << rank) - 1
    out: dict[int, Fraction] = {}
    for m, c in d.coeffs.items():
        k = full ^ m
        j = k
        while True:
            out[j] = out.get(j, Fraction(0)) + c
            if j == 0:
                break
            j = (j - 1) & k
    return DescentElement("y", out)


class StructureConstants:
    """Lazy structure constants a_JKL of one group, from memoized J rows.

    table(J, K) counts, for each distinguished representative x in ^J W^K,
    the subset L = {s in K : x s x^-1 in W_J}, which generates x^-1 W_J x
    intersect W_K (Solomon/Kilmoyer).  x s_k x^-1 lies in W_J iff x alpha_k
    is a simple root alpha_j with j in J (Geck-Pfeiffer, Characters of
    Finite Coxeter Groups, 2.1), so L = P & K for P = {k : x alpha_k in
    Delta_J}.  The row of J buckets ^J W once by (Des_R(x), P), at most
    3^rank keys as k in P forces k not in Des_R(x); table(J, K) adds the
    buckets with Des_R & K empty at L = P & K: the same x, the same L.
    """

    def __init__(self, group: CoxeterSystem):
        self.group = group
        self._rows: dict[int, dict[tuple[int, int], int]] = {}
        self._lock = threading.Lock()

    def table(self, j_mask: int, k_mask: int) -> dict[int, int]:
        """Sparse map L -> a_JKL (only L subset of K appear)."""
        if (row := self._rows.get(j_mask)) is None:
            g, row = self.group, {}
            for px, dl, dr in zip(g.elements, g.des_l, g.des_r):
                if not dl & j_mask:
                    p = 0
                    for k in range(g.rank):
                        if j_mask >> px[k] & 1:  # a mask has no bit >= rank
                            p |= 1 << k
                    row[dr, p] = row.get((dr, p), 0) + 1
            with self._lock:
                self._rows[j_mask] = row
        out: dict[int, int] = {}
        for (dr, p), n in row.items():
            if not dr & k_mask:
                out[p & k_mask] = out.get(p & k_mask, 0) + n
        return out

    def value(self, j_mask: int, k_mask: int, l_mask: int) -> int:
        return self.table(j_mask, k_mask).get(l_mask, 0)

    def diagonal(self, j_mask: int, k_mask: int) -> int:
        """a_JKK by brute force."""
        return self.value(j_mask, k_mask, k_mask)


def ajkk_formula(atlas: ParabolicAtlas, j_mask: int, k_mask: int,
                 mode: str = "corrected") -> int:
    """a_JKK by the closed normalizer-coset formula.

    Sums |N_K| / |W_J intersect N_K'| over the K' in the class of K that lie
    inside J; in corrected mode only K' whose fixed conjugator c_{K'K} has no
    left descent inside J contribute.  Naive mode drops that filter, which
    reproduces the older published formula (wrong in general).  N_K is the
    entry of `atlas.images(K)` at K itself.
    """
    if mode not in ("corrected", "bbht_naive"):
        raise ValueError("mode must be 'corrected' or 'bbht_naive'")
    g = atlas.group
    n_k = len(atlas.images(k_mask)[k_mask])
    w_j = g.subgroup(j_mask)
    total = 0
    for kp in atlas.classes[atlas.class_of[k_mask]][1]:
        if kp & ~j_mask:
            continue  # K' must lie inside J
        if mode == "corrected":
            c = atlas.conjugator(kp, k_mask)
            if g.des_l[c] & j_mask:
                continue  # c_{K'K} != ^J c_{K'K}
        inter = sum(x in w_j for x in atlas.images(kp)[kp])
        if n_k % inter:
            raise InvariantError(f"|W_J & N_K'| = {inter} does not divide "
                                 f"|N_K| = {n_k}")
        total += n_k // inter
    return total


def ajkk_matrix(atlas: ParabolicAtlas, mode: str = "corrected") -> list[list[int]]:
    """The p x p matrix A with A[i][j] = a_{K_i K_j K_j} over class reps."""
    reps = atlas.class_reps
    return [[ajkk_formula(atlas, ji, kj, mode) for kj in reps] for ji in reps]


def ajkk_matrix_bruteforce(atlas: ParabolicAtlas,
                           constants: StructureConstants) -> list[list[int]]:
    """Same matrix, by the counting definition.

    The closed corrected formula reproduces these values on every named group
    except D4, where it overcounts three cells (J a rank-3 subset containing
    the central generator, K a sibling of the rank-2 class inside J); the
    definition is therefore the authority for spectra.
    """
    reps = atlas.class_reps
    return [[constants.diagonal(ji, kj) for kj in reps] for ji in reps]


def multiply(d1: DescentElement, d2: DescentElement,
             constants: StructureConstants) -> DescentElement:
    """Product in the descent algebra (inputs converted to the x-basis)."""
    rank = constants.group.rank
    a = y_to_x(d1, rank)
    b = y_to_x(d2, rank)
    out: dict[int, Fraction] = {}
    for j, cj in a.coeffs.items():
        for k, ck in b.coeffs.items():
            cjk = cj * ck
            for l_mask, mult in constants.table(j, k).items():
                out[l_mask] = out.get(l_mask, Fraction(0)) + cjk * mult
    return DescentElement("x", out)


def action_matrix(d: DescentElement, constants: StructureConstants,
                  order: list[int] | None = None):
    """Matrix of left multiplication by d on the x-basis.

    Returns (M, v, order): column at K is the coefficient vector of d * x_K,
    so M[row L][col K] = sum over J of lambda_J a_JKL; v is the coefficient
    vector of d itself.  M is upper triangular in the default ascending
    mask order (a_JKL is nonzero only for L subset of K), and also with
    `order` the subsets sorted descending by the Bergeron order.
    """
    g = constants.group
    rank = g.rank
    dx = y_to_x(d, rank)
    if order is None:
        order = list(iter_subsets(rank))
    pos = {m: i for i, m in enumerate(order)}
    n = len(order)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for k in order:
        col = pos[k]
        for j, cj in dx.coeffs.items():
            for l_mask, mult in constants.table(j, k).items():
                mat[pos[l_mask]][col] += cj * mult
    vec = [dx.coeff(m) for m in order]
    return mat, vec, order


# ---------------------------------------------------------------------------
# Spectrum

@dataclass
class SpectrumReport:
    """Eigenvalues (per parabolic class) with multiplicities, plus the
    class-rep matrix A that produced them: Delta_j is column j of A applied
    to the class sums of the weights, and the multiplicities solve A m = u."""

    group_label: str
    order: int
    class_reps: list[int]
    class_members: list[list[int]]
    matrix: list[list[int]]          # A[i][j] = a_{K_i K_j K_j}
    delta_values: list[Fraction]
    multiplicities: list[int]

    @property
    def p(self) -> int:
        return len(self.class_reps)

    def expanded_delta(self, j: int) -> dict:
        """Delta_j as per-subset coefficients: lambda_K gets A[class(K)][j]."""
        out = {}
        for i, members in enumerate(self.class_members):
            c = self.matrix[i][j]
            if c:
                for m in members:
                    out[m] = c
        return out

    def to_json_dict(self) -> dict:
        from .exact import rational_to_string

        classes = []
        for j in range(self.p):
            rep = self.class_reps[j]
            sym = {subset_name(m): str(c)
                   for i, members in enumerate(self.class_members)
                   for m in members if (c := self.matrix[i][j])}
            classes.append({
                "rep": subset_name(rep),
                "members": [subset_name(m) for m in self.class_members[j]],
                "delta_symbolic": sym,
                "delta": rational_to_string(self.delta_values[j]),
                "multiplicity": self.multiplicities[j],
            })
        return {
            "group": self.group_label,
            "order": self.order,
            "classes": classes,
        }


def solve_class_vector(atlas: ParabolicAtlas, matrix: list[list[int]]):
    """Solve A z = (|W|, ..., |W|) exactly.

    A is lower triangular once classes are permuted by ascending parabolic
    subgroup order (a nonzero a_{JKK} needs a member of K's class inside J,
    which forces |W_K| <= |W_J| with equality only on the diagonal); the
    diagonal entries |N_K| are positive, so the system is uniquely solvable.
    """
    g = atlas.group
    p = atlas.p
    sizes = [prod(parabolic_degrees(g.spec, rep)) for rep in atlas.class_reps]
    perm = sorted(range(p), key=lambda i: sizes[i])
    b = [[matrix[perm[i]][perm[j]] for j in range(p)] for i in range(p)]
    for i in range(p):
        if b[i][i] <= 0:
            raise InvariantError(f"class matrix has diagonal entry {b[i][i]}")
        if any(b[i][i + 1:]):
            raise InvariantError("class matrix not triangular in size order")
    z = solve_lower_triangular(b, g.order)
    out = [Fraction(0)] * p
    for i in range(p):
        out[perm[i]] = z[i]
    return out


def solve_lower_triangular(rows, rhs) -> list[Fraction]:
    """Exact forward substitution for A z = (rhs, ..., rhs), A lower triangular."""
    n = len(rows)
    z = [Fraction(0)] * n
    for i in range(n):
        acc = Fraction(rhs)
        for j in range(i):
            acc -= rows[i][j] * z[j]
        z[i] = acc / rows[i][i]
    return z


def spectrum(d: DescentElement, atlas: ParabolicAtlas,
             constants: StructureConstants | None = None) -> SpectrumReport:
    """Eigenvalues of the regular representation of d, with multiplicities.

    Delta_j = sum over classes i of a_{K_i K_j K_j} * Lambda_i, with the
    a-values taken from the counting definition; the multiplicities solve
    A m = u and must equal the parabolic-closure counts, which the atlas
    derives from the degrees without A (InvariantError on mismatch).
    """
    g = atlas.group
    rank = g.rank
    dx = y_to_x(d, rank)
    constants = constants or StructureConstants(g)
    mat = ajkk_matrix_bruteforce(atlas, constants)
    # Lambda_i: the x-coefficients summed over class i
    lam = [sum((dx.coeff(m) for m in members), Fraction(0))
           for _, members in atlas.classes]
    p = atlas.p
    delta_values = [sum((mat[i][j] * lam[i] for i in range(p)), Fraction(0))
                    for j in range(p)]
    m_solved = solve_class_vector(atlas, mat)
    if any(v.denominator != 1 or v <= 0 for v in m_solved):
        raise InvariantError(f"multiplicity solve produced non-positive-integer {m_solved}")
    mult = [int(v) for v in m_solved]
    closure = atlas.closure_class_counts()
    if mult != closure:
        raise InvariantError(
            f"multiplicity solve {mult} disagrees with closure counts {closure}")
    if sum(mult) != g.order:
        raise InvariantError("multiplicities do not sum to the group order")
    return SpectrumReport(
        group_label=g.spec.label(),
        order=g.order,
        class_reps=list(atlas.class_reps),
        class_members=[members for _, members in atlas.classes],
        matrix=mat,
        delta_values=delta_values,
        multiplicities=mult,
    )
