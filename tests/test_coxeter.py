import hashlib
import json
import random
from math import factorial, prod

import pytest

from coxdesc import cache, coxeter
from coxdesc.coxeter import (
    CoxeterSpec,
    ParabolicAtlas,
    _build_root_permutations,
    _chain,
    build_group,
    group_sizes,
    parabolic_degrees,
)
from coxdesc.descent import StructureConstants, ajkk_matrix
from coxdesc.errors import GroupTooLargeError, InvariantError
from coxdesc.subsets import (
    iter_subsets,
    subset_from_name,
    subset_indices,
    subset_name,
)

from conftest import (
    closure_counts_by_conjugacy,
    coxeter_class_size,
    double_coset_rep,
    double_coset_reps,
    length_by_roots,
    root_permutation,
    root_signs,
    star_matrix,
    subgroup,
    word,
)

KNOWN_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120,
    "B2": 8, "B3": 48, "B4": 384, "D4": 192,
    "H3": 120, "F4": 1152, "I2(5)": 10, "I2(7)": 14, "I2(12)": 24,
}


@pytest.mark.parametrize("name,order", sorted(KNOWN_ORDERS.items()))
def test_group_orders(group_factory, name, order):
    assert group_factory(name).order == order


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        CoxeterSpec.from_matrix([[1, 3], [4, 1]])  # not symmetric
    with pytest.raises(ValueError):
        CoxeterSpec.from_matrix([[2, 3], [3, 1]])  # diagonal must be 1
    with pytest.raises(ValueError):
        CoxeterSpec.from_matrix([[1, 1], [1, 1]])  # off-diagonal >= 2
    with pytest.raises(ValueError):
        CoxeterSpec.from_name("E8")
    with pytest.raises(ValueError):
        CoxeterSpec.from_name("I2(13)")
    with pytest.raises(ValueError):
        CoxeterSpec.from_json({"rank": 3, "m": [[1, 3], [3, 1]]})
    with pytest.raises(ValueError, match="rank does not match"):
        CoxeterSpec.from_json({"type": "F4", "rank": 3})
    with pytest.raises(ValueError, match='"type" or "m", not both'):
        CoxeterSpec.from_json({"type": "A2", "m": [[1, 3], [3, 1]]})


def test_spec_json_roundtrip():
    spec = CoxeterSpec.from_name("H3")
    again = CoxeterSpec.from_json(spec.to_json())
    assert again.matrix == spec.matrix
    assert CoxeterSpec.from_json({"type": "H3", "rank": 3}) == spec
    custom = CoxeterSpec.from_json({"m": [[1, 5], [5, 1]]})
    assert custom.rank == 2 and custom.type_tag is None


def test_infinite_group_trips_cap():
    affine = CoxeterSpec.from_matrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    with pytest.raises(GroupTooLargeError, match="too large or infinite"):
        build_group(affine)


def test_group_laws_small(group_factory):
    for name in ("A2", "B2", "A3", "I2(7)"):
        g = group_factory(name)
        assert g.length[0] == 0
        assert sum(1 for w in range(g.order) if g.length[w] == 0) == 1
        for w in range(g.order):
            assert g.mul(0, w) == w and g.mul(w, 0) == w
            assert g.mul(w, g.inv(w)) == 0
            assert g.inv(g.inv(w)) == w


def test_mult_row_matches_mul(group_factory):
    g = group_factory("B3")
    rng = random.Random(0)
    for _ in range(20):
        u = rng.randrange(g.order)
        row = g.mult_row(u)
        for _ in range(10):
            v = rng.randrange(g.order)
            pa, pb = root_permutation(g, u), root_permutation(g, v)
            assert root_permutation(g, row[v]) == tuple(pa[x] for x in pb)
            assert g.mul(u, v) == row[v]


def test_right_multiplication_changes_length_by_one(group_factory):
    for name in ("A3", "B3", "H3"):
        g = group_factory(name)
        for w in range(g.order):
            for i in range(g.rank):
                assert abs(g.length[g.right_table[w][i]] - g.length[w]) == 1


def test_conj_example_a2(group_factory):
    g = group_factory("A2")
    s1, s2 = g.right_table[0][0], g.right_table[0][1]
    assert g.length[g.conj(s1, s2)] == 3  # s2 s1 s2


def test_descent_sets(group_factory):
    for name in ("A2", "B2", "A3", "H3"):
        g = group_factory(name)
        full = (1 << g.rank) - 1
        assert (g.des_l[0], g.des_r[0]) == (0, 0)
        assert (g.des_l[g.longest], g.des_r[g.longest]) == (full, full)
        for w in range(g.order):
            dl, dr = g.des_l[w], g.des_r[w]
            assert dl == g.des_r[g.inv(w)]
            assert dr == g.des_l[g.inv(w)]
    a2 = group_factory("A2")
    w = a2.right_table[a2.right_table[0][0]][1]  # s1 s2
    assert a2.des_r[w] == 0b10


def test_length_equals_root_count(group_factory):
    for name in ("A2", "A3", "B2", "B3", "D4", "H3", "I2(7)", "I2(12)"):
        g = group_factory(name)
        for w in range(g.order):
            assert g.length[w] == length_by_roots(g, w)
    f4 = group_factory("F4")
    rng = random.Random(1)
    for w in [0, f4.longest] + [rng.randrange(f4.order) for _ in range(50)]:
        assert f4.length[w] == length_by_roots(f4, w)


# Explicit matrices for groups without a CLI name (as in perfbench/workloads.py).
EXPLICIT_MATRICES = {
    "H4": [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]],
    "B5": [[1, 3, 2, 2, 2], [3, 1, 3, 2, 2], [2, 3, 1, 3, 2],
           [2, 2, 3, 1, 4], [2, 2, 2, 4, 1]],
    "D5": [[1, 3, 2, 2, 2], [3, 1, 3, 2, 2], [2, 3, 1, 3, 3],
           [2, 2, 3, 1, 2], [2, 2, 3, 2, 1]],
}
SIGN_GROUPS = (["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "D4",
                "H3", "F4"] + [f"I2({m})" for m in range(2, 13)]
               + sorted(EXPLICIT_MATRICES))


@pytest.mark.parametrize("name", SIGN_GROUPS)
def test_root_signs_from_closure(group_factory, name):
    if name in EXPLICIT_MATRICES:
        g = build_group(CoxeterSpec.from_matrix(EXPLICIT_MATRICES[name]))
    else:
        g = group_factory(name)
    signs = root_signs(g)
    positive = [r for r in range(g.num_roots) if signs[r] > 0]
    assert 2 * len(positive) == g.num_roots
    for i, perm in enumerate(g.gen_perms):
        # s_i sends alpha_i, and no other positive root, negative
        assert [r for r in positive if signs[perm[r]] < 0] == [i]
    assert length_by_roots(g, g.longest) == len(positive)


def _block(*matrices):
    """Coxeter matrix of a direct product: the blocks on the diagonal."""
    n = sum(len(m) for m in matrices)
    out = [[2] * n for _ in range(n)]
    offset = 0
    for m in matrices:
        for i, row in enumerate(m):
            out[offset + i][offset:offset + len(row)] = row
        offset += len(m)
    return out


CLOSURE_MATRICES = {
    **EXPLICIT_MATRICES,
    "E6": [[1, 3, 2, 2, 2, 2], [3, 1, 3, 2, 2, 2], [2, 3, 1, 3, 2, 3],
           [2, 2, 3, 1, 3, 2], [2, 2, 2, 3, 1, 2], [2, 2, 3, 2, 2, 1]],
    "H3xI2(7)": _block([[1, 5, 2], [5, 1, 3], [2, 3, 1]], [[1, 7], [7, 1]]),
    "I2(30)": [[1, 30], [30, 1]],
}

# sha256 of json.dumps([list(p) for p in gen_perms]), recorded from the exact
# closure over Q(2cos(pi/N)) that the prime-field closure replaced.
ROOT_PERM_DIGESTS = {
    "A1": "182b77e38efae503abf58a12f7c83c1ff2a91b8d1a8fc47da71ae46d59e3621a",
    "A2": "9846de6129bf138ea3d4e4ee27622bc48c4d42d1a55924a943bc491b83f63b34",
    "A3": "3a8b5592abf42ba61976157b0388fb9eaa59cc7e139fa4dd26fa40d4296aa9de",
    "A4": "4dc7f76e8340efa90c8e58e78054364ec2183ad29bd7229240f8cf38aa2a9129",
    "A5": "7fe38e75da5021d1202a1080dce5a0cbcc1d76326e3991109159f4d15008bae5",
    "A6": "786df5fc4b1d2e867e1ebd9b04341303f834815707ed3efbc3c763f6f1cac62a",
    "B2": "e8f9edc8a3937980d75f18b4e496bfb173cb2f0b67e2934facf3e2a96f361617",
    "B3": "1b980436c57ce5daabbb7d6c649a7e901ce09f58e2fee16d2ea88bab8234ae60",
    "B4": "a95d719b317c498b70977bf27a36c581aa614a8dd3d3867f90d80af7e6ee3fc8",
    "D4": "babe42acaae928dd9759d08eaa29888b1428b618bbdf6c0768c08fe8d968d1ed",
    "H3": "4fbf742ec1b9ff24ec83b870579c715dcc514c002dc8a3ea1b12087de77838b7",
    "F4": "356d50b641da6c1cdfbf5e9dd916bd9b911e3850f7df987e3795f76da439e1a0",
    "I2(2)": "d609041ca194dd2e263e59133c6e8599475091f5581db0570cdd81bd21044932",
    "I2(3)": "9846de6129bf138ea3d4e4ee27622bc48c4d42d1a55924a943bc491b83f63b34",
    "I2(4)": "e8f9edc8a3937980d75f18b4e496bfb173cb2f0b67e2934facf3e2a96f361617",
    "I2(5)": "794cb60b77b207b7c2f1e51ac7901484459d36d1163d3c853a52584a65a19755",
    "I2(6)": "7d5be96e49e0f70d734071c36668d3c949f8212265f9c40c8d0c3fb653d625c9",
    "I2(7)": "20d7470430f74195a0af7ca6bdbd9321794be43474bda4a014e83c261a113889",
    "I2(8)": "b2767dd35d74eb297a45ca10a6a271eeb11ec5943af46f6063388ac137844a97",
    "I2(9)": "2b88d462156a771e5aaefbd97f8572f08e2f3ccc5192c54257abae81b610d0ca",
    "I2(10)": "314d1bc595361b03e4ae980902b6f1a9cf724e29eabeee48475b52ba3353d364",
    "I2(11)": "f304c5ee32ec728f0ac0c4fb0bb1e15a7cc1f99b4d93129fa077e69b0e20d768",
    "I2(12)": "2225b6d2e9a1eb163ca235777eaae87e1814e2094e94e439c24b0abf25298f3d",
    "H4": "2484222fed2f5f1ee8d326d3d9c2ce7ae7b964cc39a65a53288e9b29db8d6043",
    "B5": "9c8ab560782c5aa8c7fca9acc026e531d5316a3865ab8e6e3d1f91f2ba897cc7",
    "D5": "9d0f4b20381cbb8e4479c6bb09990e7fa47f89ef8d45d7d46bd5b499e5ebf1ab",
    "E6": "29e42176b46bfacaa61276a0ae152f815a8a3fdd2071f559c0110b6e725b233a",
    "H3xI2(7)": "7a6b376b1ce3b71d998888766ffb0c3b6a23051299a48a5e1bc90210735cdcd9",
    "I2(30)": "2242a85c444afcf25d1b3bf95896dc1d28c550fe8066899706a4e4292d34ff6e",
}


def _closure_spec(name):
    if name in CLOSURE_MATRICES:
        return CoxeterSpec.from_matrix(CLOSURE_MATRICES[name])
    return CoxeterSpec.from_name(name)


@pytest.mark.parametrize("name", sorted(ROOT_PERM_DIGESTS))
def test_root_permutations_match_exact_closure(name):
    perms = _build_root_permutations(_closure_spec(name))
    digest = hashlib.sha256(json.dumps([list(p) for p in perms]).encode())
    assert digest.hexdigest() == ROOT_PERM_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(ROOT_PERM_DIGESTS))
def test_classification_predicts_order_and_roots(group_factory, name):
    if name in CLOSURE_MATRICES:
        g = build_group(_closure_spec(name))
    else:
        g = group_factory(name)
    assert group_sizes(g.spec) == (g.order, g.num_roots)


# One matrix per irreducible type, with the textbook |W| and |Phi|; the
# stars put the branch vertex at index 0, so those are not paths in index order.
COMPONENT_SIZES = {
    **{f"A{n}": (_chain(n, [3] * (n - 1)), factorial(n + 1), n * (n + 1))
       for n in range(1, 9)},
    **{f"B{n}": (_chain(n, [3] * (n - 2) + [4]), 2 ** n * factorial(n), 2 * n * n)
       for n in range(2, 9)},
    **{f"D{n}": (star_matrix([1, 1, n - 3]), 2 ** (n - 1) * factorial(n),
                 2 * n * (n - 1)) for n in range(4, 9)},
    "E6": (star_matrix([1, 2, 2]), 51840, 72),
    "E7": (star_matrix([1, 2, 3]), 2903040, 126),
    "E8": (star_matrix([1, 2, 4]), 696729600, 240),
    "F4": (_chain(4, [3, 4, 3]), 1152, 48),
    "H3": (_chain(3, [5, 3]), 120, 30),
    "H4": (_chain(4, [5, 3, 3]), 14400, 120),
    **{f"I2({m})": ([[1, m], [m, 1]], 2 * m, 2 * m) for m in (3, 4, 5, 7, 12, 1000)},
}


@pytest.mark.parametrize("name", sorted(COMPONENT_SIZES))
def test_degrees_give_order_and_roots(name):
    matrix, order, roots = COMPONENT_SIZES[name]
    spec = CoxeterSpec.from_matrix(matrix)
    degrees = parabolic_degrees(spec, (1 << spec.rank) - 1)
    assert len(degrees) == spec.rank
    assert prod(degrees) == order
    assert 2 * sum(d - 1 for d in degrees) == roots
    assert group_sizes(spec) == (order, roots)


def test_group_sizes_classifies_e7_and_e8_without_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("nothing may be built")

    monkeypatch.setattr(cache, "load", refuse)
    monkeypatch.setattr(coxeter, "_build_root_permutations", refuse)
    monkeypatch.setattr(coxeter.CoxeterSystem, "__init__", refuse)
    e7 = CoxeterSpec.from_matrix(star_matrix([1, 2, 3]))
    e8 = CoxeterSpec.from_matrix(star_matrix([1, 2, 4]))
    assert group_sizes(e7) == (2903040, 126)
    assert group_sizes(e8) == (696729600, 240)
    # the element cap is build_group's, checked before anything is built
    with pytest.raises(GroupTooLargeError, match=r"\|W\| = 2903040 > 2000000"):
        build_group(e7)
    with pytest.raises(GroupTooLargeError, match=r"\|W\| = 696729600 > 2000000"):
        build_group(e8, use_cache=True)


def test_large_dihedral_group_builds():
    g = build_group(CoxeterSpec.from_matrix([[1, 1000], [1000, 1]]))
    assert (g.order, g.num_roots) == (2000, 2000)


@pytest.mark.parametrize("shift,message", [
    ((0, -1), "closure mod .* exceeds"), ((0, 1), "has 30 roots"),
    ((-1, 0), "enumeration exceeds"), ((1, 0), "enumerated 120 elements"),
], ids=["roots-low", "roots-high", "order-low", "order-high"])
def test_wrong_prediction_raises(monkeypatch, shift, message):
    # a count above the prediction must stop the closure or enumeration at
    # once; one below it must be caught when it ends
    real = coxeter.group_sizes

    def wrong(spec):
        order, roots = real(spec)
        return order + shift[0], roots + shift[1]

    monkeypatch.setattr(coxeter, "group_sizes", wrong)
    with pytest.raises(InvariantError, match=message):
        build_group(CoxeterSpec.from_name("H3"))


def test_wrong_degree_list_fails_the_size_checks(monkeypatch):
    # control: H3 with degrees 2, 6, 12 predicts |Phi| = 34 and |W| = 144
    real = coxeter._component_degrees

    def wrong(m, comp):
        got = real(m, comp)
        return got[:-1] + [got[-1] + 2]

    monkeypatch.setattr(coxeter, "_component_degrees", wrong)
    with pytest.raises(InvariantError, match="has 30 roots, not .* 34"):
        build_group(CoxeterSpec.from_name("H3"))


def _full_permutation_tables(gen_perms):
    """Reference enumeration keyed by the whole root permutation: the same
    breadth-first order, with every product composed on all roots."""
    identity = tuple(range(len(gen_perms[0])))
    elements, index, length = [identity], {identity: 0}, [0]
    right = []
    for w, pw in enumerate(elements):  # the list grows: a BFS queue
        row = []
        for g in gen_perms:
            key = tuple([pw[x] for x in g])
            if key not in index:
                index[key] = len(elements)
                elements.append(key)
                length.append(length[w] + 1)
            row.append(index[key])
        right.append(row)
    left, inverse, conj = [], [], []
    for pw in elements:
        ip = [0] * len(pw)
        for r, x in enumerate(pw):
            ip[x] = r
        left.append([index[tuple([g[x] for x in pw])] for g in gen_perms])
        inverse.append(index[tuple(ip)])
        conj.append([index[tuple([pw[g[x]] for x in ip])] for g in gen_perms])

    def descents(table):
        return [sum(1 << i for i, v in enumerate(row) if length[v] < length[w])
                for w, row in enumerate(table)]

    return {"elements": elements, "index": index, "length": length,
            "right_table": right, "left_table": left, "inverse": inverse,
            "des_r": descents(right), "des_l": descents(left),
            "conj_gen": conj}


@pytest.mark.parametrize("name", SIGN_GROUPS)
def test_simple_root_key_matches_full_permutations(group_factory, name):
    if name in EXPLICIT_MATRICES:
        g = build_group(CoxeterSpec.from_matrix(EXPLICIT_MATRICES[name]))
    else:
        g = group_factory(name)
    ref = _full_permutation_tables(g.gen_perms)
    full, index = ref.pop("elements"), ref.pop("index")
    for attr, want in ref.items():
        assert getattr(g, attr) == want, attr
    assert g.elements == [pw[:g.rank] for pw in full]
    assert all(len(e) == g.rank for e in g.elements)
    rng = random.Random(2)
    for _ in range(50):
        a, b = rng.randrange(g.order), rng.randrange(g.order)
        pa, pb = full[a], full[b]
        assert g.mul(a, b) == index[tuple(pa[x] for x in pb)]


def test_longest_element_length(group_factory):
    for name in ("A3", "B3", "H3", "F4"):
        g = group_factory(name)
        assert g.length[g.longest] == g.num_roots // 2


def test_min_coset_reps_counts(group_factory):
    for name in ("A2", "B2", "A3", "B3"):
        g = group_factory(name)
        full = (1 << g.rank) - 1
        assert g.min_coset_reps(0) == list(range(g.order))
        assert g.min_coset_reps(full) == [0]
        for mask in iter_subsets(g.rank):
            reps = g.min_coset_reps(mask)
            assert len(reps) * len(subgroup(g, mask)) == g.order
            for w in reps:
                for i in subset_indices(mask):
                    assert g.length[g.right_table[w][i]] > g.length[w]


def test_f4_s1_left_reps(group_factory):
    # ^J W for J = {s1}: no left descent at s1
    assert sum(1 for k in group_factory("F4").des_l if not k & 0b0001) == 576


def test_unique_length_additive_factorization(group_factory):
    for name in ("A2", "B2", "A3"):
        g = group_factory(name)
        for mask in iter_subsets(g.rank):
            reps = g.min_coset_reps(mask)
            sub = subgroup(g, mask)
            seen = {}
            for u in reps:
                row = g.mult_row(u)
                for v in sub:
                    w = row[v]
                    assert w not in seen
                    seen[w] = (u, v)
                    assert g.length[w] == g.length[u] + g.length[v]
            assert len(seen) == g.order


def test_descent_partition(group_factory):
    for name in ("A2", "B2", "A3", "B3"):
        g = group_factory(name)
        full = (1 << g.rank) - 1
        d_sets = {}
        for w in range(g.order):
            d_sets.setdefault(g.des_r[w], set()).add(w)
        assert sum(len(v) for v in d_sets.values()) == g.order
        for k_mask in iter_subsets(g.rank):
            union = set()
            j = k_mask
            while True:
                union |= d_sets.get(j, set())
                if j == 0:
                    break
                j = (j - 1) & k_mask
            assert union == set(g.min_coset_reps(full ^ k_mask))


def test_double_coset_rep(group_factory):
    a2 = group_factory("A2")
    s1, s2 = a2.right_table[0][0], a2.right_table[0][1]
    w = a2.mul(a2.mul(s1, s2), s1)
    assert double_coset_rep(a2, w, 0b01, 0b01) == s2
    for j in iter_subsets(2):
        for k in iter_subsets(2):
            assert double_coset_rep(a2, 0, j, k) == 0
    # members of W_J reduce to the identity on the left
    b2 = group_factory("B2")
    for j in iter_subsets(2):
        for w in subgroup(b2, j):
            assert double_coset_rep(b2, w, j, 0) == 0
    # representative is independent of the coset member sampled
    g = group_factory("B3")
    rng = random.Random(3)
    for _ in range(20):
        j = rng.randrange(8)
        k = rng.randrange(8)
        w = rng.randrange(g.order)
        x = double_coset_rep(g, w, j, k)
        wj, wk = sorted(subgroup(g, j)), sorted(subgroup(g, k))
        for _ in range(10):
            u = rng.choice(wj)
            v = rng.choice(wk)
            member = g.mul(g.mul(u, w), v)
            assert double_coset_rep(g, member, j, k) == x


def test_double_coset_cross_section(group_factory):
    g = group_factory("A3")
    for j in iter_subsets(3):
        for k in iter_subsets(3):
            reps = double_coset_reps(g, j, k)
            assert reps == sorted({double_coset_rep(g, w, j, k)
                                   for w in range(g.order)})


def test_parabolic_class_counts(group_factory):
    expected = {"F4": 12, "H3": 6, "B2": 4, "A2": 3, "A3": 5, "B3": 7}
    for name, p in expected.items():
        atlas = ParabolicAtlas(group_factory(name))
        assert atlas.p == p
        assert atlas.classes[0] == (0, [0])  # the empty set is alone on top


def test_atlas_class_reps_are_bergeron_minimal(atlas_factory):
    from coxdesc.subsets import bergeron_compare

    for name in ("A3", "B3", "H3", "F4"):
        atlas = atlas_factory(name)
        rank = atlas.group.rank
        for rep, members in atlas.classes:
            for m in members:
                if m != rep:
                    assert bergeron_compare(m, rep, rank) == 1
        reps = atlas.class_reps
        for i in range(len(reps) - 1):
            assert bergeron_compare(reps[i], reps[i + 1], rank) == 1


def test_normalizer_complement(group_factory, atlas_factory):
    f4 = group_factory("F4")
    atlas = atlas_factory("F4")
    full = 0b1111
    assert atlas.normalizer_complement(0) == frozenset(range(f4.order))
    assert atlas.normalizer_complement(full) == frozenset([0])
    assert len(atlas.normalizer_complement(0b0001)) == 48
    for name in ("A2", "B2", "A3", "H3"):
        g = group_factory(name)
        a = ParabolicAtlas(g)
        for mask in iter_subsets(g.rank):
            nj = a.normalizer_complement(mask)
            sub = subgroup(g, mask)
            assert 0 in nj
            assert nj & sub == {0}
            for x in nj:
                for y in nj:
                    assert g.mul(x, y) in nj
                xi = g.inv(x)
                assert {g.mul(g.mul(xi, t), x) for t in sub} == sub
            assert g.order % (len(nj) * len(sub)) == 0


def test_conjugator_properties(group_factory, atlas_factory):
    f4 = group_factory("F4")
    atlas = atlas_factory("F4")
    assert atlas.conjugator(0b0001, 0b0001) == 0
    c = atlas.conjugator(0b0010, 0b0001)  # {s2} -> {s1}
    s2 = f4.right_table[0][1]
    s1 = f4.right_table[0][0]
    assert f4.conj(s2, c) == s1
    with pytest.raises(ValueError, match="not conjugate"):
        atlas.conjugator(0b0001, 0b1000)  # {s1} and {s4} are not conjugate in F4


def test_conjugator_checks_the_root_test_in_the_group(group_factory):
    # a corrupted images() entry is caught by conjugating W_K' in the group
    atlas = ParabolicAtlas(group_factory("A2"))
    atlas.images(0b01)[0b10] = [0]  # the identity does not send s1 to s2
    with pytest.raises(InvariantError, match="does not conjugate"):
        atlas.conjugator(0b10, 0b01)


def _conjugate_pairs(atlas):
    for _, members in atlas.classes:
        for kp in members:
            for k in members:
                if kp != k:
                    yield kp, k


@pytest.mark.parametrize("name", ["A2", "B2", "A3", "B3", "H3"])
def test_conjugator_coset_set_equalities(group_factory, name):
    """The fixed conjugator c satisfies, as literal finite-set identities,
    {w in ^K'W^K : w^-1 W_K' w = W_K} = c N_K = N_K' c, and the set c N_K is
    stable under taking distinguished double-coset representatives."""
    g = group_factory(name)
    atlas = ParabolicAtlas(g)
    for kp, k in _conjugate_pairs(atlas):
        c = atlas.conjugator(kp, k)
        sub_kp, sub_k = subgroup(g, kp), subgroup(g, k)
        lhs = set()
        for w in double_coset_reps(g, kp, k):
            wi = g.inv(w)
            if {g.mul(g.mul(wi, t), w) for t in sub_kp} == sub_k:
                lhs.add(w)
        row_c = g.mult_row(c)
        c_nk = {row_c[x] for x in atlas.normalizer_complement(k)}
        nkp_c = {g.mul(x, c) for x in atlas.normalizer_complement(kp)}
        assert lhs == c_nk == nkp_c
        assert {double_coset_rep(g, x, kp, k) for x in c_nk} == c_nk


# sha256 of the parabolic data below, recorded when N_J, the classes, the
# conjugators and the structure constants were still computed through the
# conjugation table conj_gen and |W|-bit membership masks of W_J.
ATLAS_DIGESTS = {
    "A1": "469488572cb546ccdfe96f990d3e515926fa42da78e6d8943e33f87c53ce4963",
    "A2": "a10d808a09133bff7e8e37683d3a29922155a7e2ea32127a6a4d653f2525612b",
    "A3": "77fd4aa7a954af6e2bd3dfaaf1401c938b99ec8fcaadf58f1c4e3a8f7957725e",
    "A4": "84fb786ee03268f993dede9c0c80ae74b016ae612a8aa4c0e0556dc7efa274ac",
    "A5": "078fd10612701bc8d307853cd28dbd48a216ddf69c30fe7d0d98ca2bc14df66a",
    "A6": "cff481b2d3e74236f8128ea5a78ac8a66206875ffba82fce00b4a61dcd7e9333",
    "B2": "684947389397c062fbab7465f34137dd9b92e5d347f893568a7feadce52ce729",
    "B3": "0caf489bc71b583e4d9d06b29b2661b37606795faca80136dda0a97ae4a1d843",
    "B4": "19f517fac24e8da38dae84ab5ec2fabbb7c731f56d0be8cde4b7c1030ef38e32",
    "D4": "dc59cd07b1f32d714de7594f1539e6088410a87378c0c0174e7d0dd786cc2958",
    "H3": "4dc2db2b634e68184abf6dd9024107e775dbab5e74f55d6039cae7a78ba9bb7d",
    "F4": "0983901f358f6d208f1669009b282df55296fae623d3e31c86041509082a20ca",
    "I2(2)": "35b8958a18f1eaf00f4ef260f3c6fe79d32fe93490acac468cacd0d90eb2ea3f",
    "I2(3)": "a10d808a09133bff7e8e37683d3a29922155a7e2ea32127a6a4d653f2525612b",
    "I2(4)": "684947389397c062fbab7465f34137dd9b92e5d347f893568a7feadce52ce729",
    "I2(5)": "6cd6482460c77ced0b300c759cff39faed9608cdac4281bbb4bf342c62ca4a24",
    "I2(6)": "42ce0255988366fbc43e28e074ee5cab949c49d057fe6c9995e3a53112d2ef86",
    "I2(7)": "21acdee131903f8fef8cc3fc0a25df3e1e96870232c1963c8bdc57eb822258b8",
    "I2(8)": "312f7c2f5afd0820ab5ed01c842ae1515fe4b378d4c845becd8ac17646968d6a",
    "I2(9)": "776b7214baf7bb685b39bf0d42d363a33c3dfb28403e9ff62b97ebb0cac73ef2",
    "I2(10)": "3f14b15eaf4284f89dbdd57fb93364df6959a545a6a442f6cb4f16a571f3af02",
    "I2(11)": "60ee5e6fa398ca8b4905774cd2aa7db7c520590008d84dc5b8a3a253dd3c3de4",
    "I2(12)": "ae5dbfe94f5fb97bbf469b53e516cda6004d52de730edf221cdbf376ce908614",
    "B5": "043ae057eee6106ba6afd204cffe9a9ed737160a6c3252c38e3849d2af6921c2",
    "D5": "fe551a9a6c850eb16451f13c8b8c53483e3ee188b220ecd0ae0da7aa8593eb34",
    "H4": "da598adcde74d58b8de3fe0039a0302f770964011c8d950d6d10e51fd025aae3",
}


def _atlas_digest(g):
    masks = list(iter_subsets(g.rank))
    sc = StructureConstants(g)
    data = {"tables": [[sorted(sc.table(j, k).items()) for k in masks]
                       for j in masks]}
    atlas = ParabolicAtlas(g)
    # the digests were recorded with the atlas under two keys, one per way of
    # breaking conjugator ties; no tie occurs (test_minimal_conjugator_is_unique)
    data["lex"] = data["revlex"] = {
        "classes": atlas.classes,
        "nj": [sorted(atlas.normalizer_complement(m)) for m in masks],
        "ajkk": [ajkk_matrix(atlas, mode)
                 for mode in ("corrected", "bbht_naive")],
        "conjugators": [atlas.conjugator(kp, k)
                        for kp, k in _conjugate_pairs(atlas)],
    }
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


@pytest.mark.parametrize("name", SIGN_GROUPS)
def test_atlas_and_structure_constants_match_recorded(group_factory, name):
    if name in EXPLICIT_MATRICES:
        g = build_group(CoxeterSpec.from_matrix(EXPLICIT_MATRICES[name]))
    else:
        g = group_factory(name)
    assert _atlas_digest(g) == ATLAS_DIGESTS[name]


@pytest.mark.parametrize("name", SIGN_GROUPS)
def test_minimal_conjugator_is_unique(group_factory, name):
    # the conjugator is the first hit in index order; that pick is only
    # canonical while no two minimal-length w with w Delta_K = Delta_K' tie
    if name in EXPLICIT_MATRICES:
        g = build_group(CoxeterSpec.from_matrix(EXPLICIT_MATRICES[name]))
    else:
        g = group_factory(name)
    atlas = ParabolicAtlas(g)
    for kp, k in _conjugate_pairs(atlas):
        gens = subset_indices(k)
        hits = [w for w in g.min_coset_reps(k)
                if all(kp >> g.elements[w][i] & 1 for i in gens)]
        least = min(g.length[w] for w in hits)
        shortest = [w for w in hits if g.length[w] == least]
        assert shortest == [atlas.conjugator(kp, k)], (kp, k)


@pytest.mark.parametrize("name", ["A2", "B2", "A3", "B3", "H3", "D4", "I2(5)"])
def test_atlas_matches_the_literal_definition(group_factory, name):
    # classes, N_K and conjugators straight from the definitions: each W_K'
    # conjugated element by element in the group, with no root images
    g = group_factory(name)
    atlas = ParabolicAtlas(g)
    masks = list(iter_subsets(g.rank))
    mask_of = {subgroup(g, k): k for k in masks}
    first = {}  # (K', K) -> the first w with w^-1 W_K' w = W_K
    normalizers = {k: set() for k in masks}
    for kp in masks:
        for w in range(g.order):
            k = mask_of.get(frozenset(g.conj(t, w) for t in subgroup(g, kp)))
            if k is not None:
                first.setdefault((kp, k), w)
                if k == kp and not g.des_r[w] & k:
                    normalizers[k].add(w)
    assert sorted(tuple(members) for _, members in atlas.classes) == sorted(
        {tuple(kp for kp in masks if (kp, k) in first) for k in masks})
    for k in masks:
        assert atlas.normalizer_complement(k) == normalizers[k]
        for kp in masks:
            if (kp, k) in first:
                assert atlas.conjugator(kp, k) == first[kp, k]
            else:
                with pytest.raises(ValueError, match="not conjugate"):
                    atlas.conjugator(kp, k)


def test_conjugator_set_equalities_f4_sampled(group_factory, atlas_factory):
    g = group_factory("F4")
    atlas = atlas_factory("F4")
    pairs = [(0b0010, 0b0001), (0b0100, 0b1000), (0b0101, 0b1001)]
    for kp, k in pairs:
        assert atlas.class_of[kp] == atlas.class_of[k]
        c = atlas.conjugator(kp, k)
        sub_kp, sub_k = subgroup(g, kp), subgroup(g, k)
        lhs = set()
        for w in double_coset_reps(g, kp, k):
            wi = g.inv(w)
            if {g.mul(g.mul(wi, t), w) for t in sub_kp} == sub_k:
                lhs.add(w)
        row_c = g.mult_row(c)
        c_nk = {row_c[x] for x in atlas.normalizer_complement(k)}
        nkp_c = {g.mul(x, c) for x in atlas.normalizer_complement(kp)}
        assert lhs == c_nk == nkp_c
        assert {double_coset_rep(g, x, kp, k) for x in c_nk} == c_nk


def test_coxeter_class_size_order_independent(atlas_factory):
    for name in ("A3", "B3", "H3", "F4"):
        atlas = atlas_factory(name)
        for mask in iter_subsets(atlas.group.rank):
            assert coxeter_class_size(atlas.group, mask) == \
                coxeter_class_size(atlas.group, mask, order_reversed=True)


def test_coxeter_class_size_identity(atlas_factory):
    assert coxeter_class_size(atlas_factory("A3").group, 0) == 1


def test_closure_counts_small(group_factory):
    a2 = ParabolicAtlas(group_factory("A2"))
    by_label = {subset_name(r): c for r, c in
                zip(a2.class_reps, a2.closure_class_counts())}
    assert by_label == {"": 1, "s1": 3, "s1,s2": 2}
    b2 = ParabolicAtlas(group_factory("B2"))
    by_label = {subset_name(r): c for r, c in
                zip(b2.class_reps, b2.closure_class_counts())}
    assert by_label == {"": 1, "s1": 2, "s2": 2, "s1,s2": 3}


def test_closure_counts_h3(atlas_factory):
    atlas = atlas_factory("H3")
    by_label = {subset_name(r): c for r, c in
                zip(atlas.class_reps, atlas.closure_class_counts())}
    assert by_label == {"": 1, "s1": 15, "s1,s2": 24, "s2,s3": 20,
                        "s1,s3": 15, "s1,s2,s3": 45}


def test_closure_counts_versus_orbit_in_type_a(atlas_factory):
    # in type A the closure count per class equals the conjugacy-class size
    # of the Coxeter element; outside type A it need not (H3: 24 vs 12)
    for name in ("A2", "A3", "A4"):
        atlas = atlas_factory(name)
        counts = atlas.closure_class_counts()
        for idx, (rep, _) in enumerate(atlas.classes):
            assert counts[idx] == coxeter_class_size(atlas.group, rep)
    h3 = atlas_factory("H3")
    i = h3.class_of[subset_from_name("s1,s2", 3)]
    assert h3.closure_class_counts()[i] == 24
    assert coxeter_class_size(h3.group, subset_from_name("s1,s2", 3)) == 12


REDUCIBLE_MATRICES = {
    "A1xA2": _block([[1]], _chain(2, [3])),
    "A1^3": _block([[1]], [[1]], [[1]]),
    "H3xA2": _block(_chain(3, [5, 3]), _chain(2, [3])),
    "B3xI2(5)": _block(_chain(3, [3, 4]), [[1, 5], [5, 1]]),
}


@pytest.mark.parametrize("name", SIGN_GROUPS + sorted(REDUCIBLE_MATRICES))
def test_closure_counts_from_degrees_match_conjugacy_sweep(group_factory, name):
    matrix = {**EXPLICIT_MATRICES, **REDUCIBLE_MATRICES}.get(name)
    g = build_group(CoxeterSpec.from_matrix(matrix)) if matrix else group_factory(name)
    atlas = ParabolicAtlas(g)
    assert atlas.closure_class_counts() == closure_counts_by_conjugacy(atlas)
    for mask in atlas.all_masks:
        assert prod(parabolic_degrees(g.spec, mask)) == len(subgroup(g, mask))


@pytest.mark.parametrize("name", SIGN_GROUPS + ["A1xA2", "H3xA2"])
def test_support_masks_give_parabolic_subgroups(group_factory, name):
    # x lies in W_J iff the generators of its stored reduced word lie in J
    matrix = {**EXPLICIT_MATRICES, **REDUCIBLE_MATRICES}.get(name)
    g = build_group(CoxeterSpec.from_matrix(matrix)) if matrix else group_factory(name)
    for mask in iter_subsets(g.rank):
        members = frozenset(w for w in range(g.order) if not g.support[w] & ~mask)
        assert members == subgroup(g, mask)
        assert len(members) == prod(parabolic_degrees(g.spec, mask))


def test_word_is_reduced(group_factory):
    for name in ("B3", "H3"):
        g = group_factory(name)
        for w in range(g.order):
            reduced = word(g, w)
            assert len(reduced) == g.length[w]
            x = 0
            for i in reduced:
                x = g.right_table[x][i]
            assert x == w


def test_cache_roundtrip(tmp_path, group_factory):
    spec = CoxeterSpec.from_name("B3")
    fresh = build_group(spec, use_cache=True, cache_dir=str(tmp_path))
    files = list(tmp_path.glob("group-*.json"))
    assert len(files) == 1
    cached = build_group(spec, use_cache=True, cache_dir=str(tmp_path))
    assert cached.elements == fresh.elements
    assert cached.right_table == fresh.right_table
    assert cached.length == fresh.length
    assert cached.des_l == fresh.des_l and cached.des_r == fresh.des_r
    assert root_signs(cached) == root_signs(fresh)
    assert cached.inverse == fresh.inverse


def test_cache_rejects_stale_version(tmp_path):
    spec = CoxeterSpec.from_name("A2")
    build_group(spec, use_cache=True, cache_dir=str(tmp_path))
    path = next(tmp_path.glob("group-*.json"))
    data = json.loads(path.read_text())
    data["version"] = 999
    path.write_text(json.dumps(data))
    assert cache.load(spec, str(tmp_path)) is None
    # corrupt file is also ignored
    path.write_text("{not json")
    assert cache.load(spec, str(tmp_path)) is None


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("COXDESC_CACHE", str(tmp_path / "envcache"))
    spec = CoxeterSpec.from_name("A2")
    build_group(spec, use_cache=True)
    assert list((tmp_path / "envcache").glob("group-*.json"))
