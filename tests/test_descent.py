import ast
import importlib.util
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import prod

import pytest

import coxdesc
from coxdesc.coxeter import CoxeterSpec, ParabolicAtlas, build_group, parabolic_degrees
from coxdesc.descent import (
    DescentElement,
    StructureConstants,
    action_matrix,
    ajkk_formula,
    ajkk_matrix,
    multiply,
    solve_class_vector,
    spectrum,
    x_to_y,
    y_to_x,
)
from coxdesc.errors import InvariantError
from coxdesc.oracle import expand
from coxdesc.subsets import (
    bergeron_compare,
    iter_subsets,
    subset_from_name,
    subset_indices,
    subset_name,
)

from conftest import (
    bergeron_sorted,
    class_sizes_from_A,
    convolve,
    double_coset_reps,
    subgroup,
)


def _random_element(rank, seed, basis="x"):
    rng = random.Random(seed)
    return DescentElement(basis, {
        m: Fraction(rng.randint(-20, 20), rng.randint(1, 12))
        for m in iter_subsets(rank)})


# ---------------------------------------------------------------------------
# basis changes

def test_y_empty_is_x_full():
    d = y_to_x(DescentElement("y", {0: Fraction(1)}), 3)
    assert d.coeffs == {0b111: Fraction(1)}


def test_x_complement_is_subset_indicator():
    # x_{S\K} in the y-basis is the indicator of all J contained in K
    rank = 3
    k = 0b101
    d = x_to_y(DescentElement("x", {(1 << rank) - 1 ^ k: Fraction(1)}), rank)
    expected = {}
    j = k
    while True:
        expected[j] = Fraction(1)
        if j == 0:
            break
        j = (j - 1) & k
    assert d.coeffs == expected


def test_a2_y_s1_in_x_basis():
    d = y_to_x(DescentElement("y", {0b01: Fraction(1)}), 2)
    assert d.coeffs == {0b10: Fraction(1), 0b11: Fraction(-1)}


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_moebius_roundtrip_random(rank):
    for seed in (0, 1, 2):
        d = _random_element(rank, seed)
        assert y_to_x(x_to_y(d, rank), rank).coeffs == d.coeffs
        dy = _random_element(rank, seed + 10, basis="y")
        assert x_to_y(y_to_x(dy, rank), rank).coeffs == dy.coeffs


def test_basis_tag_validation():
    with pytest.raises(ValueError):
        DescentElement("z", {})


# ---------------------------------------------------------------------------
# structure constants

def test_a_j_empty_empty(group_factory, constants_factory):
    for name in ("A2", "B2", "A3", "B3"):
        g = group_factory(name)
        sc = constants_factory(name)
        for j in iter_subsets(g.rank):
            assert sc.value(j, 0, 0) == g.order // len(subgroup(g, j))


def test_f4_bottom_row_is_ones(constants_factory):
    sc = constants_factory("F4")
    for k in iter_subsets(4):
        assert sc.table(0b1111, k) == {k: 1}


def test_f4_named_cell(constants_factory):
    sc = constants_factory("F4")
    j = subset_from_name("s1,s2,s3", 4)
    k = subset_from_name("s2,s3", 4)
    assert sc.diagonal(j, k) == 4


def test_structure_constants_vanish_outside_k(constants_factory):
    sc = constants_factory("B3")
    for j in iter_subsets(3):
        for k in iter_subsets(3):
            for l_mask in sc.table(j, k):
                assert l_mask & ~k == 0


def _intersection_mask(g, x, j, k):
    """L with x^-1 W_J x intersect W_K = W_L, found by conjugating in W."""
    xi = g.inv(x)
    inter = {g.mul(g.mul(xi, t), x) for t in subgroup(g, j)} & subgroup(g, k)
    lmask = sum(1 << i for i in subset_indices(k)
                if g.right_table[0][i] in inter)
    assert inter == subgroup(g, lmask)
    return lmask


def test_intersection_is_the_standard_parabolic(group_factory):
    # for a distinguished representative x the set x^-1 W_J x intersect W_K
    # is exactly the standard parabolic on the k in K with x alpha_k a simple
    # root of J (root indices below the rank are the simple roots)
    for name in ("A2", "B2", "A3", "H3", "B3", "D4", "I2(5)"):
        g = group_factory(name)
        for j in iter_subsets(g.rank):
            for k in iter_subsets(g.rank):
                for x in double_coset_reps(g, j, k):
                    px = g.elements[x]
                    lmask = sum(1 << i for i in subset_indices(k)
                                if px[i] < g.rank and j >> px[i] & 1)
                    assert lmask == _intersection_mask(g, x, j, k)


@pytest.mark.parametrize("name", ["A2", "B2", "A3", "B3", "H3", "D4", "I2(5)"])
def test_tables_match_the_literal_definition(group_factory, name):
    # a_JKL counted straight from the definition: x in ^J W^K by descents,
    # L by conjugating W_J in the group, with no root images and no buckets
    g = group_factory(name)
    sc = StructureConstants(g)
    for j in iter_subsets(g.rank):
        for k in iter_subsets(g.rank):
            counts = {}
            for x in double_coset_reps(g, j, k):
                lmask = _intersection_mask(g, x, j, k)
                counts[lmask] = counts.get(lmask, 0) + 1
            assert sc.table(j, k) == counts


@pytest.mark.parametrize("name", ["B4", "H3"])
def test_tables_independent_of_call_order(group_factory, name):
    # the per-J rows are shared by every K; a row cached for, or filtered
    # by, the first K asked would give later tables the wrong buckets
    g = group_factory(name)
    pairs = [(j, k) for j in iter_subsets(g.rank) for k in iter_subsets(g.rank)]
    shuffled = list(pairs)
    random.Random(5).shuffle(shuffled)
    forward = StructureConstants(g)
    expected = {pair: forward.table(*pair) for pair in pairs}
    for order in (pairs[::-1], shuffled):
        sc = StructureConstants(g)
        assert {pair: sc.table(*pair) for pair in order} == expected


@pytest.mark.parametrize("name", ["A2", "B2", "I2(5)", "A3"])
def test_product_identity_vs_convolution(group_factory, constants_factory, name):
    g = group_factory(name)
    sc = constants_factory(name)
    for j in iter_subsets(g.rank):
        xj = expand(g, DescentElement("x", {j: Fraction(1)}))
        for k in iter_subsets(g.rank):
            xk = expand(g, DescentElement("x", {k: Fraction(1)}))
            lhs = convolve(g, xj, xk)
            rhs = {}
            for l_mask, c in sc.table(j, k).items():
                for w, cw in expand(g, DescentElement("x", {l_mask: Fraction(c)})).coeffs.items():
                    rhs[w] = rhs.get(w, Fraction(0)) + cw
            rhs = {w: c for w, c in rhs.items() if c}
            assert lhs.coeffs == rhs


# ---------------------------------------------------------------------------
# the closed formula for the diagonal values

def test_h3_counterexample_cell(atlas_factory):
    atlas = atlas_factory("H3")
    j = subset_from_name("s1,s2", 3)
    k = subset_from_name("s1", 3)
    assert ajkk_formula(atlas, j, k, "corrected") == 4
    assert ajkk_formula(atlas, j, k, "bbht_naive") == 8


def test_diagonal_is_normalizer_order(atlas_factory):
    for name in ("A2", "B2", "A3", "B3", "H3"):
        atlas = atlas_factory(name)
        for k in iter_subsets(atlas.group.rank):
            n_k = len(atlas.normalizer_complement(k))
            assert ajkk_formula(atlas, k, k, "corrected") == n_k
            assert ajkk_formula(atlas, k, k, "bbht_naive") == n_k


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "H3"])
def test_formula_equals_bruteforce(atlas_factory, constants_factory, name):
    atlas = atlas_factory(name)
    sc = constants_factory(name)
    for j in iter_subsets(atlas.group.rank):
        for k in iter_subsets(atlas.group.rank):
            assert ajkk_formula(atlas, j, k) == sc.diagonal(j, k), \
                (name, subset_name(j), subset_name(k))


def test_formula_mode_validation(atlas_factory):
    with pytest.raises(ValueError):
        ajkk_formula(atlas_factory("A2"), 0, 0, "wrong")


def test_formula_overcounts_on_d4(atlas_factory, constants_factory):
    """The closed corrected formula itself fails on D4: for a rank-3 subset
    containing the central generator and a sibling of its inner rank-2 class,
    it counts both embedded class members although only two representatives
    exist.  The counting definition (cross-checked by convolution elsewhere)
    is the authority; this locks the known divergence."""
    atlas = atlas_factory("D4")
    sc = constants_factory("D4")
    cells = [("s1,s2,s3", "s2,s4"), ("s1,s2,s4", "s2,s3"), ("s2,s3,s4", "s1,s2")]
    for jn, kn in cells:
        j, k = subset_from_name(jn, 4), subset_from_name(kn, 4)
        assert sc.diagonal(j, k) == 2
        assert ajkk_formula(atlas, j, k, "corrected") == 4
    # everywhere else on D4 the formula agrees with the definition
    diffs = [(j, k) for j in iter_subsets(4) for k in iter_subsets(4)
             if ajkk_formula(atlas, j, k) != sc.diagonal(j, k)]
    assert diffs == [(subset_from_name(a, 4), subset_from_name(b, 4))
                     for a, b in cells]


def test_spectrum_uses_definition_not_formula_on_d4(atlas_factory,
                                                    constants_factory):
    from coxdesc.descent import ajkk_matrix_bruteforce

    atlas = atlas_factory("D4")
    sc = constants_factory("D4")
    rep = spectrum(_random_element(4, 77), atlas, sc)
    assert rep.multiplicities == atlas.closure_class_counts()
    assert sum(rep.multiplicities) == 192
    assert rep.matrix == ajkk_matrix_bruteforce(atlas, sc)


@pytest.mark.parametrize("name", ["H3", "F4", "A3", "I2(5)"])
def test_spectrum_rejects_closure_counts_with_prod_d(atlas_factory, monkeypatch,
                                                     name):
    # control: prod d_i in place of prod (d_i - 1) in the closure formula
    # must disagree with the solve of A m = u
    def counts_with_prod_d(atlas):
        order, out = atlas.group.order, []
        for _, members in atlas.classes:
            k = members[0]
            degrees = parabolic_degrees(atlas.group.spec, k)
            index = prod(degrees) * len(atlas.images(k)[k])
            out.append(order // index * prod(degrees))
        return out

    atlas = atlas_factory(name)
    monkeypatch.setattr(ParabolicAtlas, "closure_class_counts", counts_with_prod_d)
    with pytest.raises(InvariantError, match="disagrees with closure counts"):
        spectrum(_random_element(atlas.group.rank, 3), atlas)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["H3", "F4", "D4", "B4", "A5"])
def test_spectrum_invariant_under_relabelling(atlas_factory, name, seed):
    # generator i becomes generator pi[i], in the matrix and in the weights;
    # the classification then meets graphs that are not paths in index order
    atlas = atlas_factory(name)
    rank, matrix = atlas.group.rank, atlas.group.spec.matrix
    rng = random.Random(seed)
    pi = list(range(rank))
    while pi == sorted(pi):
        rng.shuffle(pi)
    moved = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(rank):
            moved[pi[i]][pi[j]] = matrix[i][j]
    d = _random_element(rank, seed)
    d_moved = DescentElement("x", {sum(1 << pi[i] for i in subset_indices(k)): c
                                   for k, c in d.coeffs.items()})
    relabelled = ParabolicAtlas(build_group(CoxeterSpec.from_matrix(moved)))

    def pairs(rep):
        return sorted(zip(rep.delta_values, rep.multiplicities))

    assert pairs(spectrum(d_moved, relabelled)) == pairs(spectrum(d, atlas))


def test_conjugation_invariance(atlas_factory, constants_factory):
    for name in ("A2", "B2", "A3", "B3", "H3"):
        atlas = atlas_factory(name)
        sc = constants_factory(name)
        for _, j_members in atlas.classes:
            for _, k_members in atlas.classes:
                vals = {sc.diagonal(j, k) for j in j_members for k in k_members}
                assert len(vals) == 1


def test_conjugation_invariance_f4_sampled(atlas_factory, constants_factory):
    atlas = atlas_factory("F4")
    sc = constants_factory("F4")
    rng = random.Random(8)
    classes = atlas.classes
    for _ in range(12):
        _, j_members = classes[rng.randrange(len(classes))]
        _, k_members = classes[rng.randrange(len(classes))]
        vals = {sc.diagonal(j, k) for j in j_members for k in k_members}
        assert len(vals) == 1


# ---------------------------------------------------------------------------
# Bergeron order

def test_bergeron_examples():
    rank = 4
    for j in range(1, 1 << rank):
        assert bergeron_compare(0, j, rank) == 1  # empty set is the maximum
    assert bergeron_compare(0b10, 0b01, rank) == 1      # {s2} > {s1}
    assert bergeron_compare(0b101, 0b011, rank) == 1    # {s1,s3} > {s1,s2}


def test_bergeron_total_order_up_to_rank_6():
    for rank in range(1, 7):
        masks = list(iter_subsets(rank))
        for a in masks:
            for b in masks:
                c1 = bergeron_compare(a, b, rank)
                c2 = bergeron_compare(b, a, rank)
                assert c1 == -c2
                assert (c1 == 0) == (a == b)
        # transitivity via sort consistency (descending: each dominates the next)
        order = sorted(masks, key=lambda m: sum(
            1 for x in masks if bergeron_compare(x, m, rank) == 1))
        for i in range(len(order) - 1):
            assert bergeron_compare(order[i], order[i + 1], rank) == 1


def test_subset_implies_bergeron_larger():
    rank = 5
    for k in iter_subsets(rank):
        j = k
        while True:
            if j != k:
                assert bergeron_compare(j, k, rank) == 1
            if j == 0:
                break
            j = (j - 1) & k


# ---------------------------------------------------------------------------
# products and action matrices

def test_multiply_unit(constants_factory):
    sc = constants_factory("A3")
    d = _random_element(3, 5)
    unit = DescentElement.unit(3)
    assert multiply(unit, d, sc).coeffs == d.coeffs
    assert multiply(d, unit, sc).coeffs == d.coeffs


def test_multiply_x_empty_squared(group_factory, constants_factory):
    g = group_factory("A2")
    sc = constants_factory("A2")
    x0 = DescentElement("x", {0: Fraction(1)})
    prod = multiply(x0, x0, sc)
    assert prod.coeffs == {0: Fraction(g.order)}


def test_multiply_matches_convolution(group_factory, constants_factory):
    g = group_factory("A2")
    sc = constants_factory("A2")
    d1 = DescentElement("x", {0b01: Fraction(1)})
    lhs = expand(g, multiply(d1, d1, sc))
    rhs = convolve(g, expand(g, d1), expand(g, d1))
    assert lhs.coeffs == rhs.coeffs


def test_multiply_associative(constants_factory):
    sc = constants_factory("B2")
    a = _random_element(2, 11)
    b = _random_element(2, 12)
    c = _random_element(2, 13)
    lhs = multiply(multiply(a, b, sc), c, sc)
    rhs = multiply(a, multiply(b, c, sc), sc)
    assert lhs.coeffs == rhs.coeffs


def test_multiply_converts_y_basis(group_factory, constants_factory):
    g = group_factory("A2")
    sc = constants_factory("A2")
    dy = _random_element(2, 14, basis="y")
    ex = expand(g, dy)
    assert convolve(g, ex, ex).coeffs == expand(g, multiply(dy, dy, sc)).coeffs


def test_action_matrix_unit_is_identity(constants_factory):
    sc = constants_factory("B2")
    mat, vec, order = action_matrix(DescentElement.unit(2), sc)
    n = len(order)
    for i in range(n):
        for j in range(n):
            assert mat[i][j] == (1 if i == j else 0)
    assert vec[order.index(0b11)] == 1


def test_action_matrix_x_empty_pattern(group_factory, constants_factory):
    # x_empty * x_K = |W^K| x_empty: the only nonzero row is the one at the
    # empty set, and the only nonzero diagonal entry is (empty, empty) = |W|
    g = group_factory("A2")
    sc = constants_factory("A2")
    mat, _, order = action_matrix(DescentElement("x", {0: Fraction(1)}), sc)
    pos0 = order.index(0)
    for i, l_mask in enumerate(order):
        for j, k_mask in enumerate(order):
            if i == pos0:
                assert mat[i][j] == g.order // len(subgroup(g, k_mask))
            else:
                assert mat[i][j] == 0
    for i in range(len(order)):
        assert mat[i][i] == (g.order if i == pos0 else 0)


def test_action_matrix_column_is_product_vector(constants_factory):
    sc = constants_factory("B2")
    d = _random_element(2, 21)
    mat, _, order = action_matrix(d, sc)
    for k in order:
        col = order.index(k)
        prod = multiply(d, DescentElement("x", {k: Fraction(1)}), sc)
        for i, l_mask in enumerate(order):
            assert mat[i][col] == prod.coeff(l_mask)


@pytest.mark.parametrize("name", ["A3", "B3", "F4"])
def test_action_matrix_triangular_in_bergeron_order(constants_factory, name):
    sc = constants_factory(name)
    rank = sc.group.rank
    order = bergeron_sorted(iter_subsets(rank), rank, descending=True)
    d = _random_element(rank, 31)
    mat, _, _ = action_matrix(d, sc, order)
    for i in range(len(order)):
        for j in range(i):
            assert mat[i][j] == 0


# ---------------------------------------------------------------------------
# spectrum

def test_spectrum_of_unit(atlas_factory):
    atlas = atlas_factory("B3")
    lam = Fraction(7, 3)
    rep = spectrum(DescentElement("x", {0b111: lam}), atlas)
    assert all(v == lam for v in rep.delta_values)
    assert sum(rep.multiplicities) == atlas.group.order


def test_spectrum_a2_uniform(atlas_factory):
    atlas = atlas_factory("A2")
    rep = spectrum(DescentElement("x", {m: Fraction(1) for m in iter_subsets(2)}),
                   atlas)
    by_label = {subset_name(r): (v, m) for r, v, m in
                zip(rep.class_reps, rep.delta_values, rep.multiplicities)}
    assert by_label == {"": (13, 1), "s1": (3, 3), "s1,s2": (1, 2)}


def test_spectrum_h3_multiplicities(atlas_factory):
    atlas = atlas_factory("H3")
    rep = spectrum(_random_element(3, 40), atlas)
    by_label = {subset_name(r): m for r, m in
                zip(rep.class_reps, rep.multiplicities)}
    assert by_label == {"": 1, "s1": 15, "s1,s2": 24, "s2,s3": 20,
                        "s1,s3": 15, "s1,s2,s3": 45}
    assert rep.multiplicities == atlas.closure_class_counts()


def test_trace_identity(atlas_factory):
    for name in ("A2", "B2", "A3", "B3", "H3"):
        atlas = atlas_factory(name)
        d = _random_element(atlas.group.rank, hash(name) % 1000)
        rep = spectrum(d, atlas)
        dx = y_to_x(d, atlas.group.rank)
        total = sum((m * v for m, v in zip(rep.multiplicities, rep.delta_values)),
                    Fraction(0))
        assert total == atlas.group.order * sum(dx.coeffs.values())


def test_spectrum_expanded_delta(atlas_factory):
    atlas = atlas_factory("A2")
    rep = spectrum(DescentElement("x", {m: Fraction(1) for m in iter_subsets(2)}),
                   atlas)
    j = rep.class_reps.index(0)
    assert rep.expanded_delta(j) == {0: 6, 0b01: 3, 0b10: 3, 0b11: 1}


def test_class_sizes_from_a_h3(atlas_factory):
    atlas = atlas_factory("H3")
    corr = class_sizes_from_A(atlas, "corrected")
    by_label = {subset_name(r): v for r, v in zip(atlas.class_reps, corr)}
    assert by_label == {"": 1, "s1": 15, "s1,s2": 24, "s2,s3": 20,
                        "s1,s3": 15, "s1,s2,s3": 45}
    naive = class_sizes_from_A(atlas, "bbht_naive")
    assert Fraction(-6) in naive and Fraction(-10) in naive
    assert corr[0] == 1 and naive[0] == 1


def test_solve_uses_triangular_structure(atlas_factory):
    atlas = atlas_factory("B3")
    mat = ajkk_matrix(atlas, "corrected")
    vec = solve_class_vector(atlas, mat)
    # direct residual check
    for i in range(atlas.p):
        assert sum(mat[i][j] * vec[j] for j in range(atlas.p)) == atlas.group.order


@pytest.mark.parametrize("cell,value,message", [
    ((0, 1), 1, "not triangular in size order"),
    ((1, 1), 0, "diagonal entry 0"),
], ids=["not-triangular", "zero-diagonal"])
def test_solve_refuses_a_bad_class_matrix(atlas_factory, cell, value, message):
    # class 0 is the empty set, the smallest W_K: its row is 0 off the diagonal
    atlas = atlas_factory("B3")
    mat = ajkk_matrix(atlas, "corrected")
    mat[cell[0]][cell[1]] = value
    with pytest.raises(InvariantError, match=message):
        solve_class_vector(atlas, mat)


def test_invariant_checks_survive_python_O():
    code = ("from coxdesc.coxeter import CoxeterSpec, ParabolicAtlas, build_group\n"
            "from coxdesc.descent import solve_class_vector\n"
            "from coxdesc.errors import InvariantError\n"
            "atlas = ParabolicAtlas(build_group(CoxeterSpec.from_name('A2')))\n"
            "try:\n"
            "    solve_class_vector(atlas, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])\n"
            "except InvariantError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(coxdesc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    assert subprocess.run([sys.executable, "-O", "-c", code], env=env).returncode == 0


def _src_trees():
    """(module file name, parsed AST) for every module of the package."""
    pkg = os.path.dirname(os.path.abspath(coxdesc.__file__))
    modules = sorted(f for f in os.listdir(pkg) if f.endswith(".py"))
    assert "oracle.py" in modules and "modular.py" in modules
    for name in modules:
        with open(os.path.join(pkg, name), encoding="utf-8") as fh:
            yield name, ast.parse(fh.read(), filename=name)


def _perfbench_hooks():
    """HOOKS of perfbench/spans.py, loaded by path (it imports only coxdesc)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(root, "perfbench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


def test_src_has_no_assert_statements():
    # python -O strips assert statements; every check in the package raises
    found = [f"{name}:{node.lineno}" for name, tree in _src_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_perfbench_hooks_resolve():
    # the tracer replaces owner.__dict__[attr]; a missing one is a KeyError
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in _perfbench_hooks()
               if attr not in owner.__dict__]
    assert missing == []


def test_src_imports_are_used():
    # a name counts as used if the module reads it, exports it in __all__,
    # or perfbench hooks it there
    hooked = {(owner.__name__, attr) for owner, attr, _ in _perfbench_hooks()}
    unused = []
    for name, tree in _src_trees():
        module = "coxdesc" if name == "__init__.py" else f"coxdesc.{name[:-3]}"
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{name}:{line} {ident}" for ident, line in imported.items()
                   if ident not in used and (module, ident) not in hooked]
    assert unused == []


def test_src_private_helpers_are_used():
    # a function or method named _x must be read somewhere in the package or
    # be a perfbench hook target; Python itself calls the __dunder__ ones
    hooked = {attr for _, attr, _ in _perfbench_hooks()}
    defined, read = {}, set()
    for name, tree in _src_trees():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                defined[node.name] = f"{name}:{node.lineno}"
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = [f"{where} {ident}" for ident, where in defined.items()
            if ident not in read and ident not in hooked]
    assert dead == []
