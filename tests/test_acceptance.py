"""Acceptance suite: one criterion per test, one printed PASS line each.

Golden data is transcribed from the published reference tables.  Six cells of
the published F4 table (and the numbers downstream of them: three
multiplicities and five symbolic eigenvalue lines) are misprinted; the
corrected values used here are pinned by three mutually
independent routes computed in this suite: the counting definition of the
structure constants, the closed normalizer formula, and the group-algebra
convolution identity, and by the full-scale characteristic-polynomial
oracle at |W| = 1152.  Every such deviation is asserted explicitly below,
so the published values are regression-locked as known errata rather than
silently replaced.
"""

import random
import time
from fractions import Fraction

import pytest

from coxdesc.coxeter import CoxeterSpec, ParabolicAtlas, build_group
from coxdesc.descent import (
    DescentElement,
    StructureConstants,
    ajkk_formula,
    solve_class_vector,
    spectrum,
    x_to_y,
    y_to_x,
)
from coxdesc.modular import DEFAULT_PRIMES
from coxdesc.oracle import expand, verify_lemma_same_spectrum, verify_spectrum
from coxdesc.subsets import (
    bergeron_compare,
    iter_subsets,
    subset_from_name,
    subset_name,
)
from coxdesc.weights import random_weights

from conftest import convolve, double_coset_rep, double_coset_reps


def _pass(n, msg):
    print(f"ACCEPTANCE {n}: PASS - {msg}")


# ---------------------------------------------------------------------------
# Golden data: published F4 table (rows/columns in the printed label order).

F4_LABELS = ["", "s1", "s4", "s1,s2", "s2,s3", "s3,s4", "s1,s4",
             "s1,s2,s3", "s2,s3,s4", "s1,s3,s4", "s1,s2,s4", "s1,s2,s3,s4"]

F4_TABLE_PRINTED = [
    [1152, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [576, 48, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [576, 0, 48, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [192, 48, 0, 12, 0, 0, 0, 0, 0, 0, 0, 0],
    [144, 24, 24, 0, 8, 0, 0, 0, 0, 0, 0, 0],
    [192, 0, 48, 0, 0, 12, 0, 0, 0, 0, 0, 0],
    [288, 24, 24, 0, 0, 0, 4, 0, 0, 0, 0, 0],
    [24, 24, 6, 12, 4, 0, 0, 2, 0, 0, 0, 0],
    [24, 6, 24, 0, 4, 12, 0, 0, 2, 0, 0, 0],
    [96, 8, 24, 0, 0, 6, 4, 0, 0, 2, 0, 0],
    [96, 24, 8, 6, 0, 0, 4, 0, 0, 0, 2, 0],
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
]

#: (row label, column label) -> (printed value, correct value).  The printed
#: table is inconsistent with its own corrected closed formula exactly
#: here (symmetric under the diagram flip s1<->s4, s2<->s3); two of the six
#: printed values coincide with the uncorrected formula.
F4_ERRATA = {
    ("s1,s2,s3", "s1"): (24, 12),
    ("s1,s2,s3", "s1,s2"): (12, 6),
    ("s1,s2,s3", "s1,s4"): (0, 2),
    ("s2,s3,s4", "s4"): (24, 12),
    ("s2,s3,s4", "s3,s4"): (12, 6),
    ("s2,s3,s4", "s1,s4"): (0, 2),
}

F4_DIAGONAL = [1152, 48, 48, 12, 8, 12, 4, 2, 2, 2, 2, 1]

#: Printed multiplicity list: 84, 84 and 577 are downstream of the table
#: errata; the oracle-verified values are 180, 180 and 385.
F4_MULTIPLICITIES_PRINTED = {
    "": 1, "s1": 12, "s4": 12, "s1,s2": 32, "s2,s3": 54, "s3,s4": 32,
    "s1,s4": 72, "s1,s2,s3": 84, "s2,s3,s4": 84, "s1,s3,s4": 96,
    "s1,s2,s4": 96, "s1,s2,s3,s4": 577,
}
F4_MULTIPLICITIES = dict(F4_MULTIPLICITIES_PRINTED,
                         **{"s1,s2,s3": 180, "s2,s3,s4": 180,
                            "s1,s2,s3,s4": 385})

#: The twelve symbolic eigenvalue lines, as subset-name -> coefficient maps.
#: Corrections relative to the printed lines: Delta_2 (s1,s2,s3: 24 -> 12),
#: Delta_3 (s2,s3,s4: 24 -> 12), Delta_4 (s1,s2,s3: 12 -> 6), Delta_6
#: (s2,s3,s4: 12 -> 6), Delta_7 (the printed line has an unbalanced
#: parenthesis and is recomputed from the table column: both rank-3 terms
#: get 4, and the errata add 2 on s1,s2,s3 and s2,s3,s4).
F4_DELTAS = {
    "": {"": 1152, "s1": 576, "s2": 576, "s3": 576, "s4": 576,
         "s1,s2": 192, "s3,s4": 192, "s2,s3": 144,
         "s1,s3": 288, "s1,s4": 288, "s2,s4": 288,
         "s1,s2,s3": 24, "s2,s3,s4": 24, "s1,s3,s4": 96, "s1,s2,s4": 96,
         "s1,s2,s3,s4": 1},
    "s1": {"s1": 48, "s2": 48, "s1,s2": 48,
           "s2,s3": 24, "s1,s3": 24, "s1,s4": 24, "s2,s4": 24,
           "s1,s2,s3": 12, "s1,s2,s4": 24, "s2,s3,s4": 6, "s1,s3,s4": 8,
           "s1,s2,s3,s4": 1},
    "s4": {"s3": 48, "s4": 48, "s3,s4": 48,
           "s2,s3": 24, "s1,s3": 24, "s1,s4": 24, "s2,s4": 24,
           "s2,s3,s4": 12, "s1,s3,s4": 24, "s1,s2,s3": 6, "s1,s2,s4": 8,
           "s1,s2,s3,s4": 1},
    "s1,s2": {"s1,s2": 12, "s1,s2,s3": 6, "s1,s2,s4": 6, "s1,s2,s3,s4": 1},
    "s2,s3": {"s2,s3": 8, "s1,s2,s3": 4, "s2,s3,s4": 4, "s1,s2,s3,s4": 1},
    "s3,s4": {"s3,s4": 12, "s2,s3,s4": 6, "s1,s3,s4": 6, "s1,s2,s3,s4": 1},
    "s1,s4": {"s1,s3": 4, "s1,s4": 4, "s2,s4": 4,
              "s1,s3,s4": 4, "s1,s2,s4": 4, "s1,s2,s3": 2, "s2,s3,s4": 2,
              "s1,s2,s3,s4": 1},
    "s1,s2,s3": {"s1,s2,s3": 2, "s1,s2,s3,s4": 1},
    "s2,s3,s4": {"s2,s3,s4": 2, "s1,s2,s3,s4": 1},
    "s1,s3,s4": {"s1,s3,s4": 2, "s1,s2,s3,s4": 1},
    "s1,s2,s4": {"s1,s2,s4": 2, "s1,s2,s3,s4": 1},
    "s1,s2,s3,s4": {"s1,s2,s3,s4": 1},
}

# Published H3 tables (labels in the printed order).
H3_LABELS = ["", "s1", "s1,s2", "s2,s3", "s1,s3", "s1,s2,s3"]
H3_CORRECTED_TABLE = [
    [120, 0, 0, 0, 0, 0],
    [60, 4, 0, 0, 0, 0],
    [12, 4, 2, 0, 0, 0],
    [20, 4, 0, 2, 0, 0],
    [30, 4, 0, 0, 2, 0],
    [1, 1, 1, 1, 1, 1],
]
H3_NAIVE_TABLE_PRINTED = [
    [120, 0, 0, 0, 0, 0],
    [60, 4, 0, 0, 0, 0],
    [12, 8, 2, 0, 0, 0],
    [20, 8, 0, 2, 0, 0],
    [30, 4, 0, 0, 2, 0],
    [1, 1, 1, 1, 1, 1],
]
#: The naive formula as quoted actually yields 3 at (S, {s1}) (three
#: reflection subsets inside S, no filter); the printed table hand-filled
#: the trivially known bottom row.
H3_NAIVE_ERRATUM = (("s1,s2,s3", "s1"), 1, 3)

H3_CLASS_SIZES = {"": 1, "s1": 15, "s1,s2": 24, "s2,s3": 20,
                  "s1,s3": 15, "s1,s2,s3": 45}
H3_NAIVE_SOLUTION_PRINTED = [1, 15, -6, -10, 15, 105]


@pytest.fixture(scope="module")
def f4():
    group = build_group(CoxeterSpec.from_name("F4"))
    atlas = ParabolicAtlas(group)
    return group, atlas, StructureConstants(group)


def test_criterion_1_f4_golden_table(f4):
    t0 = time.monotonic()
    group = build_group(CoxeterSpec.from_name("F4"))  # include a build in the budget
    atlas = ParabolicAtlas(group)
    constants = StructureConstants(group)
    masks = [subset_from_name(s, 4) for s in F4_LABELS]
    mismatches = []
    for i, (jl, j) in enumerate(zip(F4_LABELS, masks)):
        for jdx, (kl, k) in enumerate(zip(F4_LABELS, masks)):
            printed = F4_TABLE_PRINTED[i][jdx]
            expected = F4_ERRATA.get((jl, kl), (printed, printed))[1]
            got_formula = ajkk_formula(atlas, j, k, "corrected")
            got_brute = constants.diagonal(j, k)
            assert got_formula == got_brute == expected, (jl, kl)
            if printed != expected:
                mismatches.append((jl, kl, printed, expected))
    # named example cells and the diagonal from the criterion statement
    assert ajkk_formula(atlas, subset_from_name("s2,s3", 4),
                        subset_from_name("s1", 4)) == 24
    assert ajkk_formula(atlas, subset_from_name("s1,s2,s3", 4),
                        subset_from_name("s2,s3", 4)) == 4
    assert [ajkk_formula(atlas, m, m) for m in masks] == F4_DIAGONAL
    # the six documented errata, locked: printed != correct, and two of the
    # printed values are exactly the uncorrected-formula values
    assert {(a, b): (p, e) for a, b, p, e in mismatches} == F4_ERRATA
    assert ajkk_formula(atlas, subset_from_name("s1,s2,s3", 4),
                        subset_from_name("s1", 4), "bbht_naive") == 24
    assert ajkk_formula(atlas, subset_from_name("s2,s3,s4", 4),
                        subset_from_name("s4", 4), "bbht_naive") == 24
    dt = time.monotonic() - t0
    assert dt < 60
    _pass(1, f"F4 table: 138/144 cells as printed, 6 documented errata "
             f"triple-verified (formula = brute force), {dt:.1f}s < 60s")


def test_criterion_2_h3_counterexample(group_factory):
    group = group_factory("H3")
    atlas = ParabolicAtlas(group)
    constants = StructureConstants(group)
    masks = [subset_from_name(s, 3) for s in H3_LABELS]
    for i, j in enumerate(masks):
        for jdx, k in enumerate(masks):
            corr = ajkk_formula(atlas, j, k, "corrected")
            assert corr == H3_CORRECTED_TABLE[i][jdx]
            assert corr == constants.diagonal(j, k)
            naive = ajkk_formula(atlas, j, k, "bbht_naive")
            printed = H3_NAIVE_TABLE_PRINTED[i][jdx]
            if (H3_LABELS[i], H3_LABELS[jdx]) == H3_NAIVE_ERRATUM[0]:
                assert printed == H3_NAIVE_ERRATUM[1]
                assert naive == H3_NAIVE_ERRATUM[2]
            else:
                assert naive == printed
    # solving with the corrected matrix gives the true per-class counts
    corr_sol = solve_class_vector(
        atlas, [[ajkk_formula(atlas, j, k, "corrected") for k in atlas.class_reps]
                for j in atlas.class_reps])
    by_label = {subset_name(r): v for r, v in zip(atlas.class_reps, corr_sol)}
    assert by_label == {k: Fraction(v) for k, v in H3_CLASS_SIZES.items()}
    # solving with the printed uncorrected matrix reproduces the absurd vector
    z = [Fraction(0)] * 6
    for i in range(6):
        acc = Fraction(120)
        for jdx in range(i):
            acc -= H3_NAIVE_TABLE_PRINTED[i][jdx] * z[jdx]
        z[i] = acc / H3_NAIVE_TABLE_PRINTED[i][i]
    assert z == H3_NAIVE_SOLUTION_PRINTED
    assert sum(z) == 120 and sum(corr_sol) == 120
    # the computed naive matrix is just as absurd (negative entries)
    naive_sol = solve_class_vector(
        atlas, [[ajkk_formula(atlas, j, k, "bbht_naive") for k in atlas.class_reps]
                for j in atlas.class_reps])
    assert Fraction(-6) in naive_sol and Fraction(-10) in naive_sol
    _pass(2, "H3 counterexample: corrected table exact (36/36), naive mode = "
             "quoted formula, printed-matrix solve = (1,15,-6,-10,15,105), "
             "corrected solve = (1,15,24,20,15,45)")


def test_criterion_3_f4_spectrum(f4):
    group, atlas, constants = f4
    # symbolic spectrum: work with indeterminate-free coefficient maps
    rep = spectrum(DescentElement("x", {m: Fraction(1) for m in iter_subsets(4)}),
                   atlas)
    mult_by_label = {}
    delta_by_label = {}
    for j in range(rep.p):
        label = subset_name(rep.class_reps[j])
        mult_by_label[label] = rep.multiplicities[j]
        delta_by_label[label] = {subset_name(m): c
                                 for m, c in rep.expanded_delta(j).items()}
    # class labels in the golden data may be any member of the class
    def canon(label):
        return subset_name(rep.class_reps[atlas.class_of[subset_from_name(label, 4)]])

    for label, want in F4_MULTIPLICITIES.items():
        assert mult_by_label[canon(label)] == want, label
    assert sum(rep.multiplicities) == 1152
    for label, want_map in F4_DELTAS.items():
        assert delta_by_label[canon(label)] == want_map, label
    # regression-lock the three printed multiplicities that are downstream
    # of the table errata
    for label in ("s1,s2,s3", "s2,s3,s4", "s1,s2,s3,s4"):
        assert mult_by_label[canon(label)] != F4_MULTIPLICITIES_PRINTED[label]
    _pass(3, "F4 spectrum: 12 multiplicities sum to 1152 and match the "
             "errata-corrected golden list; all 12 symbolic eigenvalue lines "
             "match coefficient-by-coefficient")


def test_criterion_4_small_group_oracles(group_factory):
    t0 = time.monotonic()
    for name in ("A2", "A3", "B2", "B3", "H3"):
        group = group_factory(name)
        atlas = ParabolicAtlas(group)
        constants = StructureConstants(group)
        for seed in (1, 2):
            d = random_weights(group.rank, seed)
            v = verify_spectrum(group, d, primes=DEFAULT_PRIMES,
                                atlas=atlas, constants=constants)
            assert v.primes == list(DEFAULT_PRIMES)
            assert v.all_matched, (name, seed)
    dt = time.monotonic() - t0
    assert dt < 30
    _pass(4, f"charpoly(R_W(d)) = product of (t - Delta_j)^m_j for "
             f"A2/A3/B2/B3/H3, 2 seeded weight vectors, 3 62-bit primes "
             f"each, {dt:.1f}s < 30s")


def test_criterion_5_f4_flagship_oracle(f4):
    group, atlas, constants = f4
    t0 = time.monotonic()
    for seed in (7, 8):  # two independent weight vectors
        d = random_weights(4, seed)
        v = verify_spectrum(group, d, primes=[DEFAULT_PRIMES[0]],
                            atlas=atlas, constants=constants)
        assert v.all_matched
        assert v.order == 1152
    dt = time.monotonic() - t0
    assert dt < 600
    _pass(5, f"F4 flagship: degree-1152 charpoly oracle matched at a 62-bit "
             f"prime for two weight vectors in {dt:.1f}s < 600s")


RANK_LE_3 = ("A1", "A2", "B2", "I2(5)", "A3", "B3", "H3")
ALL_NAMED = (["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "D4",
              "H3", "F4"] + [f"I2({m})" for m in range(2, 13)])


def test_criterion_6a_product_vs_convolution(group_factory, constants_factory):
    for name in RANK_LE_3:
        group = group_factory(name)
        constants = constants_factory(name)
        for j in iter_subsets(group.rank):
            xj = expand(group, DescentElement("x", {j: Fraction(1)}))
            for k in iter_subsets(group.rank):
                xk = expand(group, DescentElement("x", {k: Fraction(1)}))
                lhs = convolve(group, xj, xk)
                rhs: dict[int, Fraction] = {}
                for l_mask, c in constants.table(j, k).items():
                    for w in group.min_coset_reps(l_mask):
                        rhs[w] = rhs.get(w, Fraction(0)) + c
                assert lhs.coeffs == {w: c for w, c in rhs.items() if c}
    _pass("6a", f"Solomon product = group-algebra convolution on all (J,K) "
                f"pairs for {', '.join(RANK_LE_3)}")


def test_criterion_6b_formula_vs_bruteforce(group_factory):
    for name in ("A2", "A3", "B3", "H3", "F4"):
        group = group_factory(name)
        atlas = ParabolicAtlas(group)
        constants = StructureConstants(group)
        for j in iter_subsets(group.rank):
            for k in iter_subsets(group.rank):
                assert ajkk_formula(atlas, j, k) == constants.diagonal(j, k), \
                    (name, subset_name(j), subset_name(k))
    _pass("6b", "corrected formula = brute-force diagonal on every (J,K) "
                "pair of A2, A3, B3, H3, F4")


def test_criterion_6c_conjugator_set_equalities(group_factory):
    checked = 0
    for name in RANK_LE_3:
        group = group_factory(name)
        atlas = ParabolicAtlas(group)
        for _, members in atlas.classes:
            for kp in members:
                for k in members:
                    if kp == k:
                        continue
                    c = atlas.conjugator(kp, k)
                    sub_kp, sub_k = group.subgroup(kp), group.subgroup(k)
                    lhs = set()
                    for w in double_coset_reps(group, kp, k):
                        wi = group.inv(w)
                        if {group.mul(group.mul(wi, t), w) for t in sub_kp} == sub_k:
                            lhs.add(w)
                    row_c = group.mult_row(c)
                    c_nk = {row_c[x] for x in atlas.normalizer_complement(k)}
                    nkp_c = {group.mul(x, c)
                             for x in atlas.normalizer_complement(kp)}
                    assert lhs == c_nk == nkp_c
                    assert {double_coset_rep(group, x, kp, k)
                            for x in c_nk} == c_nk
                    checked += 1
    assert checked > 0
    _pass("6c", f"coset set-identities for the fixed conjugators hold on all "
                f"{checked} conjugate ordered pairs in ranks <= 3")


def test_criterion_6d_trace_identity_all_named_groups(group_factory):
    rng = random.Random(2024)
    for name in ALL_NAMED:
        group = group_factory(name)
        atlas = ParabolicAtlas(group)
        d = random_weights(group.rank, rng.randint(0, 10 ** 6))
        rep = spectrum(d, atlas)
        assert sum(rep.multiplicities) == group.order, name
        dx = y_to_x(d, group.rank)
        total = sum((m * v for m, v in zip(rep.multiplicities,
                                           rep.delta_values)), Fraction(0))
        assert total == group.order * sum(dx.coeffs.values()), name
    _pass("6d", f"trace identity and sum(m_j) = |W| on all "
                f"{len(ALL_NAMED)} supported named groups")


def test_criterion_6e_moebius_roundtrip(group_factory):
    rng = random.Random(99)
    for rank in (1, 2, 3, 4, 5):
        for _ in range(5):
            d = DescentElement("x", {
                m: Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                for m in iter_subsets(rank)})
            assert y_to_x(x_to_y(d, rank), rank).coeffs == d.coeffs
            dy = DescentElement("y", dict(d.coeffs))
            assert x_to_y(y_to_x(dy, rank), rank).coeffs == dy.coeffs
    _pass("6e", "x <-> y basis conversions round-trip on random elements "
                "up to rank 5")


def test_criterion_6f_bergeron_order_rank_6():
    for rank in range(1, 7):
        masks = list(iter_subsets(rank))
        for a in masks:
            for b in masks:
                c1 = bergeron_compare(a, b, rank)
                assert c1 == -bergeron_compare(b, a, rank)
                assert (c1 == 0) == (a == b)
    _pass("6f", "Bergeron order is total and antisymmetric on all subset "
                "pairs up to rank 6")


def test_criterion_7_same_spectrum_lemma(group_factory):
    for name in ("A2", "B2", "A3"):
        group = group_factory(name)
        for seed in (11, 12):
            d = random_weights(group.rank, seed)
            assert verify_lemma_same_spectrum(group, d), (name, seed)
    _pass(7, "regular representation and descent-algebra action matrix have "
             "equal root sets (charpoly of R_W(d) matches the predicted "
             "spectrum mod each prime; the triangular action matrix has "
             "exactly those values on its diagonal) on A2, B2, A3")
