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
    y_to_x,
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
from coxdesc.weights import parse_preset
from tests.test_modular import faddeev_charpoly

import conftest
from conftest import (
    block_partition,
    charpoly_from_power_sums,
    convolve,
    cycle_type_count,
    regular_rep,
    thibon_qmaj_delta,
)


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
    den, coeffs = oracle._class_coeffs(d, g.rank)
    p = DEFAULT_PRIMES[0]
    counts = oracle._class_counts(g, full=True)
    sums = oracle._power_sums(counts, coeffs, g.order, p, g.order)
    assert sums[0] == g.order
    mat = [[int(v * den) for v in row] for row in regular_rep(g, d)]
    assert charpoly_from_power_sums(sums[1:], p) == charpoly_mod(mat, p)


@pytest.mark.parametrize("name", ["A3", "B3", "H3"])
def test_class_power_sums_match_convolution(group_factory, name):
    # |W| [e] a^k from Fraction convolutions in the group algebra
    g = group_factory(name)
    d = _random_element(g.rank, 12)
    den, coeffs = oracle._class_coeffs(d, g.rank)
    p = DEFAULT_PRIMES[0]
    sums = oracle._power_sums(oracle._class_counts(g, full=False), coeffs,
                              g.order, p, 6)
    a = GroupAlgebraElement({w: den * c for w, c in expand(g, d).coeffs.items()})
    x = GroupAlgebraElement({0: 1})
    for k in range(7):
        assert sums[k] == g.order * x.coeff(0) % p
        x = convolve(g, x, a)


@pytest.mark.parametrize("name,weights", [
    *[(name, "seeded") for name in ("H3", "F4", "D4", "B4", "A5", "I2(7)")],
    ("A3", "qmaj:2"), ("A3", "desx:1,1/2,3"), ("A3", "zero")])
def test_class_coeffs_are_the_expanded_coefficients(group_factory, name, weights):
    # D y_K is the coefficient of D d at every w with Des_R(w) = K, and the
    # Hadamard bound reads the same maximum from either list
    g = group_factory(name)
    if weights == "seeded":
        d = _random_element(g.rank, 21)
    elif weights == "zero":
        d = DescentElement("x", {})
    else:
        d = parse_preset(weights, g.spec)
    den, coeffs = oracle._class_coeffs(y_to_x(d, g.rank), g.rank)
    expanded = expand(g, d)
    scaled = [den * expanded.coeff(w) for w in range(g.order)]
    assert scaled == [coeffs[k] for k in g.des_r]
    assert oracle._hadamard_coeff_bound(coeffs, g.order) == \
        oracle._hadamard_coeff_bound(scaled, g.order)


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


def test_regular_rep_guard(group_factory, monkeypatch):
    monkeypatch.setattr(conftest, "REGULAR_REP_CAP", 5)
    with pytest.raises(GroupTooLargeError, match="refused"):
        regular_rep(group_factory("A2"), DescentElement.unit(2))
    monkeypatch.setattr(oracle, "SAMPLED_COUNTS_CAP", 5)
    with pytest.raises(GroupTooLargeError, match="refused"):
        verify_spectrum(group_factory("A2"), DescentElement.unit(2))
    with pytest.raises(GroupTooLargeError, match="refused"):
        verify_lemma_same_spectrum(group_factory("A2"), DescentElement.unit(2))


def test_class_counts_caps():
    # every group the oracle accepted under the single 20,000 cap is still
    # accepted; the sampled counts admit E6, A7, B6 and D6
    assert oracle.FULL_COUNTS_CAP == 20000
    assert oracle.SAMPLED_COUNTS_CAP == 51840


@pytest.mark.parametrize("certify", [False, True], ids=["sampled", "certified"])
def test_class_counts_cap_boundary(group_factory, monkeypatch, certify):
    # each mode reads its own cap only: the other one is set below |W|
    g, d = group_factory("A3"), _random_element(3, 14)
    mode, cap, other = (("certified", "FULL_COUNTS_CAP", "SAMPLED_COUNTS_CAP")
                        if certify else
                        ("sampled", "SAMPLED_COUNTS_CAP", "FULL_COUNTS_CAP"))
    monkeypatch.setattr(oracle, other, 1)
    monkeypatch.setattr(oracle, cap, g.order)
    assert verify_spectrum(g, d, certify=certify).all_matched
    monkeypatch.setattr(oracle, cap, g.order - 1)
    with pytest.raises(GroupTooLargeError, match=re.escape(
            f"{mode} class counts refused for |W| = 24 > 23")):
        verify_spectrum(g, d, certify=certify)


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
    _, coeffs = oracle._class_coeffs(_random_element(2, 7), 2)
    bound = 2 * oracle._hadamard_coeff_bound(coeffs, g.order)
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


def _patch_spectrum(monkeypatch, edit):
    """Make the oracle see edit(report) in place of spectrum's report."""
    monkeypatch.setattr(oracle, "spectrum",
                        lambda *args, **kwargs: edit(spectrum(*args, **kwargs)))


def _scaled_factors(rep, den):
    """(D Delta_j, m_j) per class, as verify_spectrum forms them."""
    return [(int(dv * den), m) for dv, m in zip(rep.delta_values, rep.multiplicities)]


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
    _patch_spectrum(monkeypatch, corrupt)
    v = verify_spectrum(group_factory(name), _random_element(3, 11),
                        atlas=atlas_factory(name))
    assert v.matched == [False] * len(DEFAULT_PRIMES)


@pytest.mark.parametrize("name", ["H3", "F4", "D4", "A5", "B4", "I2(7)"])
def test_truncated_power_sums_decide_like_all_of_them(group_factory, atlas_factory,
                                                      monkeypatch, name):
    # verify_spectrum stops after 2^rank + c - 1 power sums; its verdict must
    # be the one all |W| of them give, for the true spectrum and two wrong ones
    g, d = group_factory(name), _random_element(group_factory(name).rank, 22)
    den, coeffs = oracle._class_coeffs(y_to_x(d, g.rank), g.rank)
    counts = oracle._class_counts(g, full=False)
    every_sum = [oracle._power_sums(counts, coeffs, g.order, p, g.order)
                 for p in DEFAULT_PRIMES]
    for corrupt, expected in [(lambda rep: rep, True),
                              (_shift_last_delta, False),
                              (_move_one_multiplicity, False)]:
        _patch_spectrum(monkeypatch, corrupt)
        v = verify_spectrum(g, d, atlas=atlas_factory(name))
        assert v.primes == list(DEFAULT_PRIMES)
        assert v.matched == [expected] * len(DEFAULT_PRIMES)
        factors = _scaled_factors(v.report, den)
        assert v.matched == [
            sums == oracle._predicted_power_sums(factors, p, g.order)
            for p, sums in zip(DEFAULT_PRIMES, every_sum)]


@pytest.mark.parametrize("name", ["A1", "A2", "F4"])
def test_verify_spectrum_step_count(group_factory, monkeypatch, name):
    # min(|W|, 2^rank + c - 1) power sums per prime: 2 on A1, 6 = |W| on A2
    # (2^2 + 3 - 1 = 6), 16 + 12 - 1 = 27 on F4 (12 parabolic classes)
    calls = []

    def recording(real):
        def run(*args):
            calls.append(args[-1])
            return real(*args)
        return run

    for fn in ("_power_sums", "_predicted_power_sums"):
        monkeypatch.setattr(oracle, fn, recording(getattr(oracle, fn)))
    g = group_factory(name)
    v = verify_spectrum(g, _random_element(g.rank, 25))
    assert v.all_matched
    steps = min(g.order, (1 << g.rank) + len(v.predicted_factors) - 1)
    assert steps == {"A1": 2, "A2": 6, "F4": 27}[name]
    assert calls == [steps] * 2 * len(DEFAULT_PRIMES)


@pytest.mark.parametrize("name", ["A2", "H3"])
def test_verify_spectrum_checks_the_zeroth_power_sum(group_factory, monkeypatch, name):
    # an extra eigenvalue 0 changes only sum_j m_j, the k = 0 power sum
    _patch_spectrum(monkeypatch, lambda rep: dataclasses.replace(
        rep, delta_values=rep.delta_values + [Fraction(0)],
        multiplicities=rep.multiplicities + [1]))
    g = group_factory(name)
    v = verify_spectrum(g, _random_element(g.rank, 24))
    assert v.matched == [False] * len(DEFAULT_PRIMES)


def _thue_morse_split(start, size):
    """start + i over i < size, split by the parity of i's binary digit sum.

    For size = 2^(t+1) the two halves have equal k-th power sums for every
    k <= t (Prouhet), and unequal (t+1)-th ones.
    """
    halves = ([], [])
    for i in range(size):
        halves[bin(i).count("1") % 2].append(start + i)
    return halves


@pytest.mark.parametrize("name", ["A2", "B2", "I2(5)"])
def test_verify_spectrum_runs_past_2_to_the_rank(group_factory, monkeypatch, name):
    # a Prouhet-Tarry-Escott pair added to the prediction (+1 on one half,
    # -1 on the other) agrees with the true power sums for k <= t = 2^rank,
    # so only a run past k = t rejects it
    g = group_factory(name)
    t = 1 << g.rank
    plus, minus = _thue_morse_split(1000, 2 ** (t + 1))
    _patch_spectrum(monkeypatch, lambda rep: dataclasses.replace(
        rep, delta_values=rep.delta_values + [Fraction(v) for v in plus + minus],
        multiplicities=rep.multiplicities + [1] * len(plus) + [-1] * len(minus)))
    d = _random_element(g.rank, 23)
    v = verify_spectrum(g, d)
    assert v.matched == [False] * len(DEFAULT_PRIMES)
    den, coeffs = oracle._class_coeffs(y_to_x(d, g.rank), g.rank)
    factors = _scaled_factors(v.report, den)
    counts = oracle._class_counts(g, full=False)
    gap = (sum((den * a) ** (t + 1) for a in plus)
           - sum((den * b) ** (t + 1) for b in minus))
    for p in DEFAULT_PRIMES:
        assert oracle._power_sums(counts, coeffs, g.order, p, t) == \
            oracle._predicted_power_sums(factors, p, t)
        assert gap % p


def _thibon_report(rep, rank, q, swap=()):
    """rep with Thibon's closed-form q-maj eigenvalues and multiplicities,
    the multiplicities of the two partitions in swap exchanged."""
    lams = [block_partition(members[0], rank) for members in rep.class_members]
    mult = {lam: cycle_type_count(lam) for lam in lams}
    if swap:
        a, b = swap
        mult[a], mult[b] = mult[b], mult[a]
    return dataclasses.replace(
        rep, delta_values=[thibon_qmaj_delta(lam, q) for lam in lams],
        multiplicities=[mult[lam] for lam in lams])


@pytest.mark.parametrize("name,swap", [
    ("A3", ()), ("A4", ()), ("A3", ((2, 2), (4,)))])
def test_verify_checks_thibons_qmaj_spectrum(group_factory, monkeypatch, name, swap):
    # the oracle checks the closed form itself, not spectrum's values; on A3
    # the classes (2,2) and (4) hold 3 and 6 elements, and swapped they fail
    g = group_factory(name)
    _patch_spectrum(monkeypatch, lambda rep: _thibon_report(rep, g.rank, Fraction(2), swap))
    v = verify_spectrum(g, parse_preset("qmaj:2", g.spec))
    assert v.matched == [not swap] * len(DEFAULT_PRIMES)


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
    _patch_spectrum(monkeypatch, corrupt)
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
