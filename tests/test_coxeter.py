import json
import random

import pytest

from coxdesc.coxeter import CoxeterSpec, ParabolicAtlas, build_group
from coxdesc.errors import GroupTooLargeError
from coxdesc.subsets import (
    iter_subsets,
    subset_from_name,
    subset_indices,
    subset_name,
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


def test_spec_json_roundtrip():
    spec = CoxeterSpec.from_name("H3")
    again = CoxeterSpec.from_json(spec.to_json())
    assert again.matrix == spec.matrix
    custom = CoxeterSpec.from_json({"m": [[1, 5], [5, 1]]})
    assert custom.rank == 2 and custom.type_tag is None


def test_infinite_group_trips_cap():
    affine = CoxeterSpec.from_matrix([[1, 3, 3], [3, 1, 3], [3, 3, 1]])
    with pytest.raises(GroupTooLargeError, match="too large or infinite"):
        build_group(affine, cap=500)


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
            pa, pb = g.elements[u], g.elements[v]
            assert row[v] == g.index[tuple(pa[x] for x in pb)]


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
        assert g.descent_sets(0) == (0, 0)
        assert g.descent_sets(g.longest) == (full, full)
        for w in range(g.order):
            dl, dr = g.descent_sets(w)
            assert dl == g.des_r[g.inv(w)]
            assert dr == g.des_l[g.inv(w)]
    a2 = group_factory("A2")
    w = a2.right_table[a2.right_table[0][0]][1]  # s1 s2
    assert a2.des_r[w] == 0b10


def test_length_equals_root_count(group_factory):
    for name in ("A2", "A3", "B2", "B3", "D4", "H3", "I2(7)", "I2(12)"):
        g = group_factory(name)
        for w in range(g.order):
            assert g.length[w] == g.length_by_roots(w)
    f4 = group_factory("F4")
    rng = random.Random(1)
    for w in [0, f4.longest] + [rng.randrange(f4.order) for _ in range(50)]:
        assert f4.length[w] == f4.length_by_roots(w)


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
    signs = g.root_signs
    positive = [r for r in range(g.num_roots) if signs[r] > 0]
    assert 2 * len(positive) == g.num_roots
    for i, perm in enumerate(g.gen_perms):
        # s_i sends alpha_i, and no other positive root, negative
        assert [r for r in positive if signs[perm[r]] < 0] == [i]
    assert g.length_by_roots(g.longest) == len(positive)


def test_longest_element_length(group_factory):
    for name in ("A3", "B3", "H3", "F4"):
        g = group_factory(name)
        assert g.length[g.longest] == g.num_roots // 2


def test_min_coset_reps_counts(group_factory):
    for name in ("A2", "B2", "A3", "B3"):
        g = group_factory(name)
        full = (1 << g.rank) - 1
        assert g.min_coset_reps(0, "right") == list(range(g.order))
        assert g.min_coset_reps(full, "right") == [0]
        for mask in iter_subsets(g.rank):
            reps = g.min_coset_reps(mask, "right")
            assert len(reps) * len(g.subgroup(mask)) == g.order
            for w in reps:
                for i in subset_indices(mask):
                    assert g.length[g.right_table[w][i]] > g.length[w]


def test_f4_s1_left_reps(group_factory):
    assert len(group_factory("F4").min_coset_reps(0b0001, "left")) == 576


def test_unique_length_additive_factorization(group_factory):
    for name in ("A2", "B2", "A3"):
        g = group_factory(name)
        for mask in iter_subsets(g.rank):
            reps = g.min_coset_reps(mask, "right")
            sub = g.subgroup(mask)
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
            assert union == set(g.min_coset_reps(full ^ k_mask, "right"))


def test_double_coset_rep(group_factory):
    a2 = group_factory("A2")
    s1, s2 = a2.right_table[0][0], a2.right_table[0][1]
    w = a2.mul(a2.mul(s1, s2), s1)
    assert a2.double_coset_rep(w, 0b01, 0b01) == s2
    for j in iter_subsets(2):
        for k in iter_subsets(2):
            assert a2.double_coset_rep(0, j, k) == 0
    # members of W_J reduce to the identity on the left
    b2 = group_factory("B2")
    for j in iter_subsets(2):
        for w in b2.subgroup(j):
            assert b2.double_coset_rep(w, j, 0) == 0
    # representative is independent of the coset member sampled
    g = group_factory("B3")
    rng = random.Random(3)
    for _ in range(20):
        j = rng.randrange(8)
        k = rng.randrange(8)
        w = rng.randrange(g.order)
        x = g.double_coset_rep(w, j, k)
        wj, wk = sorted(g.subgroup(j)), sorted(g.subgroup(k))
        for _ in range(10):
            u = rng.choice(wj)
            v = rng.choice(wk)
            member = g.mul(g.mul(u, w), v)
            assert g.double_coset_rep(member, j, k) == x


def test_double_coset_cross_section(group_factory):
    g = group_factory("A3")
    for j in iter_subsets(3):
        for k in iter_subsets(3):
            reps = g.double_coset_reps(j, k)
            assert reps == sorted({g.double_coset_rep(w, j, k)
                                   for w in range(g.order)})


def test_min_rep_general(group_factory):
    g = group_factory("A3")
    rng = random.Random(4)
    for _ in range(10):
        w = rng.randrange(g.order)
        assert g.min_rep_general(w, [0], [0]) == [w]
    assert g.min_rep_general(5, range(g.order), range(g.order)) == [0]
    with pytest.raises(ValueError, match="not a subgroup"):
        g.min_rep_general(1, [0, 1, 2], [0])


def test_min_rep_general_conjugating_property(group_factory, atlas_factory):
    # every minimal representative between normalizers conjugates the
    # parabolic onto the other one
    g = group_factory("H3")
    atlas = atlas_factory("H3")
    kp, k = 0b010, 0b001  # {s2}, {s1}
    u = sorted(atlas._normalizer_group(kp))
    v = sorted(atlas._normalizer_group(k))
    c0 = atlas.conjugator(kp, k)
    sub_kp = g.subgroup(kp)
    sub_k = g.subgroup(k)
    for x in g.min_rep_general(c0, u, v, check=True):
        xi = g.inv(x)
        assert {g.mul(g.mul(xi, t), x) for t in sub_kp} == sub_k


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
            sub = g.subgroup(mask)
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
        sub_kp, sub_k = g.subgroup(kp), g.subgroup(k)
        lhs = set()
        for w in g.double_coset_reps(kp, k):
            wi = g.inv(w)
            if {g.mul(g.mul(wi, t), w) for t in sub_kp} == sub_k:
                lhs.add(w)
        row_c = g.mult_row(c)
        c_nk = {row_c[x] for x in atlas.normalizer_complement(k)}
        nkp_c = {g.mul(x, c) for x in atlas.normalizer_complement(kp)}
        assert lhs == c_nk == nkp_c
        assert {g.double_coset_rep(x, kp, k) for x in c_nk} == c_nk


def test_conjugator_set_equalities_f4_sampled(group_factory, atlas_factory):
    g = group_factory("F4")
    atlas = atlas_factory("F4")
    pairs = [(0b0010, 0b0001), (0b0100, 0b1000), (0b0101, 0b1001)]
    for kp, k in pairs:
        assert atlas.class_of[kp] == atlas.class_of[k]
        c = atlas.conjugator(kp, k)
        sub_kp, sub_k = g.subgroup(kp), g.subgroup(k)
        lhs = set()
        for w in g.double_coset_reps(kp, k):
            wi = g.inv(w)
            if {g.mul(g.mul(wi, t), w) for t in sub_kp} == sub_k:
                lhs.add(w)
        row_c = g.mult_row(c)
        c_nk = {row_c[x] for x in atlas.normalizer_complement(k)}
        nkp_c = {g.mul(x, c) for x in atlas.normalizer_complement(kp)}
        assert lhs == c_nk == nkp_c
        assert {g.double_coset_rep(x, kp, k) for x in c_nk} == c_nk


def test_coxeter_class_size_order_independent(atlas_factory):
    for name in ("A3", "B3", "H3", "F4"):
        atlas = atlas_factory(name)
        for mask in iter_subsets(atlas.group.rank):
            assert atlas.coxeter_class_size(mask) == \
                atlas.coxeter_class_size(mask, order_reversed=True)


def test_coxeter_class_size_identity(atlas_factory):
    assert atlas_factory("A3").coxeter_class_size(0) == 1


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
            assert counts[idx] == atlas.coxeter_class_size(rep)
    h3 = atlas_factory("H3")
    i = h3.class_of[subset_from_name("s1,s2", 3)]
    assert h3.closure_class_counts()[i] == 24
    assert h3.coxeter_class_size(subset_from_name("s1,s2", 3)) == 12


def test_word_is_reduced(group_factory):
    for name in ("B3", "H3"):
        g = group_factory(name)
        for w in range(g.order):
            word = g.word(w)
            assert len(word) == g.length[w]
            x = 0
            for i in word:
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
    assert cached.root_signs == fresh.root_signs
    assert cached.inverse == fresh.inverse


def test_cache_rejects_stale_version(tmp_path):
    spec = CoxeterSpec.from_name("A2")
    build_group(spec, use_cache=True, cache_dir=str(tmp_path))
    path = next(tmp_path.glob("group-*.json"))
    data = json.loads(path.read_text())
    data["version"] = 999
    path.write_text(json.dumps(data))
    from coxdesc import cache

    assert cache.load(spec, str(tmp_path)) is None
    # corrupt file is also ignored
    path.write_text("{not json")
    assert cache.load(spec, str(tmp_path)) is None


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("COXDESC_CACHE", str(tmp_path / "envcache"))
    spec = CoxeterSpec.from_name("A2")
    build_group(spec, use_cache=True)
    assert list((tmp_path / "envcache").glob("group-*.json"))
