import dataclasses
import random
import re
from fractions import Fraction

import pytest

from coxdesc.descent import (
    DescentElement,
    StructureConstants,
    action_matrix,
    multiply,
    spectrum,
)
from coxdesc.errors import GroupTooLargeError, InvariantError
from coxdesc.modular import DEFAULT_PRIMES, charpoly_mod
from coxdesc import oracle
from coxdesc.oracle import (
    GroupAlgebraElement,
    expand,
    verify_lemma_same_spectrum,
    verify_spectrum,
)
from coxdesc.subsets import iter_subsets
from tests.test_modular import faddeev_charpoly

from conftest import charpoly_from_power_sums, convolve, regular_rep


def _random_element(rank, seed):
    rng = random.Random(seed)
    return DescentElement("x", {
        m: Fraction(rng.randint(-100, 100), rng.randint(1, 100))
        for m in iter_subsets(rank)})


def test_expand_x_full_is_identity(group_factory):
    g = group_factory("B2")
    d = DescentElement.unit(2)
    assert expand(g, d).coeffs == {0: Fraction(1)}


def test_expand_x_empty_is_all_ones(group_factory):
    g = group_factory("B2")
    out = expand(g, DescentElement("x", {0: Fraction(1)}))
    assert out.coeffs == {w: Fraction(1) for w in range(g.order)}


def test_expand_a2_y_s1(group_factory):
    g = group_factory("A2")
    out = expand(g, DescentElement("y", {0b01: Fraction(1)}))
    expected = {w for w in range(g.order) if g.des_r[w] == 0b01}
    assert out.coeffs == {w: Fraction(1) for w in expected}
    s1 = g.right_table[0][0]
    s2s1 = g.right_table[g.right_table[0][1]][0]
    assert expected == {s1, s2s1}


def test_convolve_unit_and_involution(group_factory):
    g = group_factory("A2")
    s1 = g.right_table[0][0]
    e = GroupAlgebraElement({0: Fraction(1)})
    a = GroupAlgebraElement({s1: Fraction(1), 4: Fraction(2, 3)})
    assert convolve(g, e, a).coeffs == a.coeffs
    ss = convolve(g, GroupAlgebraElement({s1: Fraction(1)}),
                  GroupAlgebraElement({s1: Fraction(1)}))
    assert ss.coeffs == {0: Fraction(1)}


def test_convolution_matches_descent_product(group_factory, constants_factory):
    g = group_factory("A2")
    sc = constants_factory("A2")
    d = DescentElement("x", {0b01: Fraction(1)})
    lhs = convolve(g, expand(g, d), expand(g, d))
    rhs = expand(g, multiply(d, d, sc))
    assert lhs.coeffs == rhs.coeffs


def test_regular_rep_unit_and_all_ones(group_factory):
    g = group_factory("A2")
    rid = regular_rep(g, DescentElement.unit(2))
    for i in range(g.order):
        for j in range(g.order):
            assert rid[i][j] == (1 if i == j else 0)
    rall = regular_rep(g, DescentElement("x", {0: Fraction(1)}))
    assert all(v == 1 for row in rall for v in row)
    # all-ones 6x6 has charpoly t^5 (t - 6)
    cp = faddeev_charpoly([[int(v) for v in row] for row in rall])
    assert cp == [0, 0, 0, 0, 0, -6, 1]


def test_regular_rep_first_column_is_expansion(group_factory):
    g = group_factory("B2")
    d = _random_element(2, 1)
    mat = regular_rep(g, d)
    coeffs = expand(g, d)
    for w in range(g.order):
        assert mat[w][0] == coeffs.coeff(w)


def test_regular_rep_is_multiplicative(group_factory, constants_factory):
    g = group_factory("A2")
    sc = constants_factory("A2")
    d1 = _random_element(2, 2)
    d2 = _random_element(2, 3)
    r1 = regular_rep(g, d1)
    r2 = regular_rep(g, d2)
    r12 = regular_rep(g, multiply(d1, d2, sc))
    n = g.order
    for i in range(n):
        for j in range(n):
            assert sum(r1[i][k] * r2[k][j] for k in range(n)) == r12[i][j]


def test_regular_rep_trace(group_factory):
    for name in ("A2", "B2", "A3"):
        g = group_factory(name)
        d = _random_element(g.rank, 4)
        mat = regular_rep(g, d)
        assert sum(mat[i][i] for i in range(g.order)) == \
            g.order * sum(d.coeffs.values())


@pytest.mark.parametrize("name", ["B3", "H3"])
def test_power_sum_charpoly_matches_regular_rep(group_factory, name):
    # Newton's identities on the class-basis power sums against the
    # Hessenberg charpoly of the explicit matrix R_W(D d)
    g = group_factory(name)
    d = _random_element(g.rank, 5)
    den, int_coeffs = oracle._scaled_integer_coeffs(g, d)
    p = DEFAULT_PRIMES[0]
    sums = oracle._power_sums(oracle._class_counts(g, full=True),
                              oracle._class_coeffs(g, int_coeffs), g.order, p)
    mat = [[int(v * den) for v in row] for row in regular_rep(g, d)]
    assert charpoly_from_power_sums(sums, p) == charpoly_mod(mat, p)


@pytest.mark.parametrize("name", ["A3", "B3", "H3"])
def test_class_power_sums_match_convolution(group_factory, name):
    # |W| [e] a^k from Fraction convolutions in the group algebra
    g = group_factory(name)
    den, int_coeffs = oracle._scaled_integer_coeffs(g, _random_element(g.rank, 12))
    p = DEFAULT_PRIMES[0]
    sums = oracle._power_sums(oracle._class_counts(g, full=False),
                              oracle._class_coeffs(g, int_coeffs), g.order, p)
    a = GroupAlgebraElement(dict(enumerate(int_coeffs)))
    x = a
    for k in range(6):
        assert sums[k] == g.order * x.coeff(0) % p
        x = convolve(g, x, a)


def _last_member(g, k_mask):
    return max(w for w in range(g.order) if g.des_r[w] == k_mask)


@pytest.mark.parametrize("full", [True, False], ids=["full", "sampled"])
def test_class_counts_guard(group_factory, monkeypatch, full):
    g = group_factory("B3")
    target = _last_member(g, 0b001)
    real = oracle._descent_pairs

    def corrupted(group, row):
        pairs = real(group, row)
        if row[0] == target:
            pairs[(0b001, 0b010)] += 1
        return pairs

    monkeypatch.setattr(oracle, "_descent_pairs", corrupted)
    with pytest.raises(InvariantError, match="class 1"):
        oracle._class_counts(g, full=full)
    with pytest.raises(InvariantError, match="class 1"):
        verify_spectrum(g, _random_element(3, 13), certify=full)


def test_class_coeffs_guard(group_factory, monkeypatch):
    g = group_factory("B3")
    target = _last_member(g, 0b100)
    real = oracle._scaled_integer_coeffs

    def corrupted(group, d):
        den, out = real(group, d)
        out[target] += 1
        return den, out

    monkeypatch.setattr(oracle, "_scaled_integer_coeffs", corrupted)
    with pytest.raises(InvariantError, match="class 4"):
        verify_spectrum(g, _random_element(3, 14))


def test_regular_rep_guard(group_factory, monkeypatch):
    monkeypatch.setattr(oracle, "REGULAR_REP_CAP", 5)
    with pytest.raises(GroupTooLargeError, match="refused"):
        regular_rep(group_factory("A2"), DescentElement.unit(2))
    with pytest.raises(GroupTooLargeError, match="refused"):
        verify_spectrum(group_factory("A2"), DescentElement.unit(2))
    with pytest.raises(GroupTooLargeError, match="refused"):
        verify_lemma_same_spectrum(group_factory("A2"), DescentElement.unit(2))


def test_verify_spectrum_a2(group_factory, atlas_factory):
    g = group_factory("A2")
    v = verify_spectrum(g, _random_element(2, 5), atlas=atlas_factory("A2"))
    assert v.order == 6
    assert v.primes == list(DEFAULT_PRIMES)
    assert v.all_matched
    assert sum(m for _, m in v.predicted_factors) == 6
    data = v.to_json_dict()
    assert data["order"] == 6 and data["matched"] == [True, True, True]
    assert len(data["predicted_factors"]) == 3


def test_verify_spectrum_b2_and_report_invariants(group_factory, atlas_factory):
    g = group_factory("B2")
    v = verify_spectrum(g, _random_element(2, 6), atlas=atlas_factory("B2"))
    assert v.all_matched
    rep = v.report
    assert sum(rep.multiplicities) == g.order
    assert all(m >= 1 for m in rep.multiplicities)


def test_verify_spectrum_skips_bad_primes(group_factory, atlas_factory):
    g = group_factory("A2")
    p0 = DEFAULT_PRIMES[0]
    d = DescentElement("x", {0: Fraction(1, p0), 0b11: Fraction(2)})
    v = verify_spectrum(g, d, atlas=atlas_factory("A2"))
    assert v.skipped == [p0]
    assert v.primes == list(DEFAULT_PRIMES[1:])
    assert v.all_matched
    with pytest.raises(ValueError, match="divide"):
        verify_spectrum(g, d, primes=[p0], atlas=atlas_factory("A2"))


def test_verify_spectrum_certified_small(group_factory, atlas_factory):
    g = group_factory("A2")
    v = verify_spectrum(g, _random_element(2, 7), certify=True,
                        atlas=atlas_factory("A2"))
    assert v.certified and v.all_matched
    # enough primes to cover the Hadamard bound
    from coxdesc.oracle import _hadamard_coeff_bound, _scaled_integer_coeffs

    den, coeffs = _scaled_integer_coeffs(g, _random_element(2, 7))
    bound = 2 * _hadamard_coeff_bound(coeffs, g.order)
    prod = 1
    for p in v.primes:
        prod *= p
    assert prod > bound


def test_verify_uniform_h3(group_factory, atlas_factory):
    g = group_factory("H3")
    d = DescentElement("x", {m: Fraction(1) for m in iter_subsets(3)})
    v = verify_spectrum(g, d, atlas=atlas_factory("H3"))
    assert v.all_matched and v.order == 120
    assert sorted(m for _, m in v.predicted_factors) == [1, 15, 15, 20, 24, 45]


def _shift_last_delta(rep):
    return dataclasses.replace(
        rep, delta_values=rep.delta_values[:-1] + [rep.delta_values[-1] + 1])


def _move_one_multiplicity(rep):
    m = list(rep.multiplicities)
    m[0] += 1
    m[-1] -= 1
    return dataclasses.replace(rep, multiplicities=m)


@pytest.mark.parametrize("corrupt", [_shift_last_delta, _move_one_multiplicity])
@pytest.mark.parametrize("name", ["B3", "H3"])
def test_verify_spectrum_rejects_a_wrong_spectrum(group_factory, atlas_factory,
                                                  monkeypatch, name, corrupt):
    real = oracle.spectrum
    monkeypatch.setattr(oracle, "spectrum",
                        lambda *args, **kwargs: corrupt(real(*args, **kwargs)))
    v = verify_spectrum(group_factory(name), _random_element(3, 11),
                        atlas=atlas_factory(name))
    assert v.matched == [False] * len(DEFAULT_PRIMES)


def test_predicted_charpoly_degree(group_factory, atlas_factory):
    g = group_factory("B3")
    rep = spectrum(_random_element(3, 8), atlas_factory("B3"))
    assert sum(rep.multiplicities) == g.order


@pytest.mark.parametrize("name", ["A2", "B2", "A3", "B3", "H3", "D4", "F4"])
def test_lemma_same_spectrum(group_factory, name):
    g = group_factory(name)
    assert verify_lemma_same_spectrum(g, _random_element(g.rank, 9))
    assert verify_lemma_same_spectrum(g, DescentElement.unit(g.rank))
    with pytest.raises(ValueError, match=re.escape(f"|W| = {g.order} <")):
        verify_lemma_same_spectrum(g, DescentElement.unit(g.rank),
                                   primes=[DEFAULT_PRIMES[0], g.order - 1])


@pytest.mark.parametrize("corrupt", [_shift_last_delta, _move_one_multiplicity])
def test_lemma_rejects_a_wrong_spectrum(group_factory, monkeypatch, corrupt):
    # a wrong multiplicity leaves the Delta_j, so the diagonal still matches
    real = oracle.spectrum
    monkeypatch.setattr(oracle, "spectrum",
                        lambda *args, **kwargs: corrupt(real(*args, **kwargs)))
    assert not verify_lemma_same_spectrum(group_factory("H3"), _random_element(3, 9))


def test_lemma_rejects_a_wrong_action_diagonal(group_factory, monkeypatch):
    # R_W(d) still matches the predicted spectrum; only the entry at K = {},
    # alone in its class, moves off Delta_class({})
    real = oracle.action_matrix

    def shifted(*args, **kwargs):
        act, vec, order = real(*args, **kwargs)
        act[0][0] += 1
        return act, vec, order

    monkeypatch.setattr(oracle, "action_matrix", shifted)
    g, d = group_factory("H3"), _random_element(3, 9)
    assert verify_spectrum(g, d).all_matched
    assert not verify_lemma_same_spectrum(g, d)


def test_lemma_refuses_a_non_triangular_action_matrix(group_factory, monkeypatch):
    # one extra entry at L = {s1} for K = {} (L > K as masks) lies below
    # the diagonal; the diagonal entries a_JKK are unchanged
    real = StructureConstants.table

    def corrupted(self, j_mask, k_mask):
        out = real(self, j_mask, k_mask)
        return {**out, 0b001: 1} if k_mask == 0 else out

    monkeypatch.setattr(StructureConstants, "table", corrupted)
    with pytest.raises(InvariantError, match="not upper triangular"):
        verify_lemma_same_spectrum(group_factory("B3"), DescentElement.unit(3))


@pytest.mark.parametrize("name", ["D4", "F4"])
def test_action_matrix_diagonal_is_the_spectrum(group_factory, atlas_factory,
                                                constants_factory, name):
    # the diagonal at K is sum_J lambda_J a_JKK = Delta_class(K)
    g, sc = group_factory(name), constants_factory(name)
    d = _random_element(g.rank, 9)
    rep = spectrum(d, atlas_factory(name), sc)
    act, _, order = action_matrix(d, sc)
    assert order == list(range(1 << g.rank))
    for delta, members in zip(rep.delta_values, rep.class_members):
        for k in members:
            assert act[k][k] == delta


def test_repeated_prime_refused(group_factory):
    # a repeated modulus would count twice toward the certified product
    g = group_factory("A2")
    p = DEFAULT_PRIMES[0]
    d = DescentElement.unit(2)
    with pytest.raises(ValueError, match=f"modulus {p} is repeated"):
        verify_spectrum(g, d, primes=[p, DEFAULT_PRIMES[1], p], certify=True)
    with pytest.raises(ValueError, match=f"modulus {p} is repeated"):
        verify_lemma_same_spectrum(g, d, primes=[p, p])


@pytest.mark.parametrize("name", ["D4", "A4", "I2(7)"])
def test_verify_spectrum_beyond_formula_groups(group_factory, name):
    # D4 is the group where the closed diagonal formula fails; the
    # definition-based spectrum must still satisfy the charpoly identity
    g = group_factory(name)
    v = verify_spectrum(g, _random_element(g.rank, 10),
                        primes=[DEFAULT_PRIMES[0]])
    assert v.all_matched
