import pytest

from coxdesc.coxeter import CoxeterSpec, ParabolicAtlas, build_group
from coxdesc.descent import StructureConstants
from coxdesc.subsets import subset_indices

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


def root_permutation(group, w):
    """The permutation w induces on all the roots, composed from the
    generator permutations along w's stored reduced word."""
    perm = tuple(range(group.num_roots))
    for i in group.word(w):
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
    return len(group.conjugacy_class(w))


def poly_mul_mod(a, b, p):
    """Product of two ascending coefficient lists mod p, trailing zeros
    trimmed."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out
