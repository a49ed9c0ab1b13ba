from fractions import Fraction
from functools import cmp_to_key

import pytest

from coxdesc import oracle
from coxdesc.coxeter import CoxeterSpec, ParabolicAtlas, build_group
from coxdesc.descent import StructureConstants, ajkk_matrix, solve_class_vector
from coxdesc.oracle import GroupAlgebraElement, expand
from coxdesc.subsets import bergeron_compare, subset_indices

_groups = {}
_atlases = {}
_constants = {}


@pytest.fixture(scope="session")
def group_factory():
    """Build each named group at most once per session."""

    def get(name):
        if name not in _groups:
            _groups[name] = build_group(CoxeterSpec.from_name(name))
        return _groups[name]

    return get


@pytest.fixture(scope="session")
def atlas_factory(group_factory):
    def get(name):
        if name not in _atlases:
            _atlases[name] = ParabolicAtlas(group_factory(name))
        return _atlases[name]

    return get


@pytest.fixture(scope="session")
def constants_factory(group_factory):
    def get(name):
        if name not in _constants:
            _constants[name] = StructureConstants(group_factory(name))
        return _constants[name]

    return get


def star_matrix(arms):
    """Simply laced tree: a centre (vertex 0) with paths of the given lengths."""
    n = 1 + sum(arms)
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    v = 1
    for arm in arms:
        prev = 0
        for _ in range(arm):
            m[prev][v] = m[v][prev] = 3
            prev, v = v, v + 1
    return m


def double_coset_reps(group, j_mask, k_mask):
    """Reference scan of the distinguished cross-section ^J W^K: every w
    with no left descent in J and no right descent in K, by element index."""
    return [w for w in range(group.order)
            if not group.des_l[w] & j_mask and not group.des_r[w] & k_mask]


def double_coset_rep(group, w, j_mask, k_mask):
    """The unique minimal-length element of W_J w W_K: strip left descents
    in J and right descents in K until none is left."""
    while True:
        dl = group.des_l[w] & j_mask
        if dl:
            w = group.left_table[w][(dl & -dl).bit_length() - 1]
            continue
        dr = group.des_r[w] & k_mask
        if dr:
            w = group.right_table[w][(dr & -dr).bit_length() - 1]
            continue
        return w


def word(group, w):
    """The stored reduced word for w (generator indices, left to right)."""
    out = []
    while w != 0:
        w, i = group.parent[w]
        out.append(i)
    return tuple(reversed(out))


def root_permutation(group, w):
    """The permutation w induces on all the roots, composed from the
    generator permutations along w's stored reduced word."""
    perm = tuple(range(group.num_roots))
    for i in word(group, w):
        perm = tuple([perm[x] for x in group.gen_perms[i]])
    return perm


def length_by_roots(group, w):
    """Number of positive roots that w sends negative (equals l(w))."""
    perm, signs = root_permutation(group, w), group.root_signs
    return sum(1 for r in range(group.num_roots)
               if signs[r] > 0 and signs[perm[r]] < 0)


def coxeter_class_size(group, mask, order_reversed=False):
    """Size of the conjugacy class of the Coxeter element of W_J: the
    product of the generators of J, ascending index unless reversed."""
    gens = subset_indices(mask)
    w = 0
    for i in (gens[::-1] if order_reversed else gens):
        w = group.right_table[w][i]
    return len(conjugacy_class(group, w))


def conjugacy_class(group, x):
    """Orbit of x under conjugation, by generator-conjugation BFS."""
    lt, rt = group.left_table, group.right_table
    seen = {x}
    frontier = [x]
    while frontier:
        nxt = []
        for y in frontier:
            for i in range(group.rank):
                z = rt[lt[y][i]][i]  # s_i y s_i
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
        frontier = nxt
    return frozenset(seen)


def closure_counts_by_conjugacy(atlas):
    """Reference parabolic-closure counts, per atlas class, by sweeping W.

    w lies in a conjugate of W_J iff its conjugacy class meets W_J, so each
    conjugacy class gets the class of the smallest W_J it meets.
    """
    g = atlas.group
    label = [None] * g.order
    sizes = []
    for w in range(g.order):
        if label[w] is None:
            members = conjugacy_class(g, w)
            for x in members:
                label[x] = len(sizes)
            sizes.append(len(members))
    # stable sort: among equal orders the first mask in all_masks wins
    best = [None] * len(sizes)
    for mask in sorted(atlas.all_masks, key=lambda m: len(g.subgroup(m))):
        for u in g.subgroup(mask):
            if best[label[u]] is None:
                best[label[u]] = atlas.class_of[mask]
    assert None not in best, "a conjugacy class meets no standard parabolic"
    counts = [0] * atlas.p
    for cls, size in zip(best, sizes):
        counts[cls] += size
    return counts


def convolve(group, a, b):
    """(a * b)(w) = sum over uv = w of a(u) b(v), in the group algebra."""
    out = {}
    for u, cu in a.coeffs.items():
        row = group.mult_row(u)
        for v, cv in b.coeffs.items():
            w = row[v]
            out[w] = out.get(w, Fraction(0)) + cu * cv
    return GroupAlgebraElement(out)


def regular_rep(group, d):
    """R_W(d) as Fraction rows: entry (w, w') = coefficient of w w'^-1.

    Acting on coordinate vectors this is left multiplication by d.  Refused
    above the oracle's REGULAR_REP_CAP, like the oracle itself.
    """
    oracle._require_rep_size(group.order)
    coeffs = expand(group, d)
    inverse = group.inverse
    return [[coeffs.coeff(row[v]) for v in inverse]
            for row in map(group.mult_row, range(group.order))]


def class_sizes_from_A(atlas, mode="corrected"):
    """The vector A^-1 u with A from the chosen closed-formula mode.

    With corrected constants this is the per-class element-count vector
    wherever the formula matches the counting definition (every named group
    except D4); with the naive constants it yields the absurd negative
    values of the counterexample.
    """
    return solve_class_vector(atlas, ajkk_matrix(atlas, mode))


def bergeron_sorted(masks, rank, descending=True):
    """Masks sorted by the Bergeron order (largest first by default)."""
    key = cmp_to_key(lambda a, b: bergeron_compare(a, b, rank))
    return sorted(masks, key=key, reverse=descending)


def charpoly_from_power_sums(sums, p):
    """det(tI - M) mod p, ascending, from s_k = tr M^k for k = 1..n.

    Newton's identities: k c_(n-k) = -sum_(i=1..k) s_i c_(n-k+i), c_n = 1;
    dividing by k needs p > n.
    """
    n = len(sums)
    c = [0] * n + [1]
    for k in range(1, n + 1):
        acc = sum(s * c[n - k + i] for i, s in enumerate(sums[:k], 1))
        c[n - k] = -acc * pow(k, -1, p) % p
    return c
