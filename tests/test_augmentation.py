import random
from fractions import Fraction

import pytest

from hrlab import augmentation, bilinear
from hrlab.augmentation import (
    CONSISTENT,
    DEFAULT_T_SAMPLES,
    NOT_APPLICABLE,
    AugmentedSpace,
    FormFamily,
    _kernel_coordinate,
    _Stack,
    check_property_a,
    check_property_b,
    intersection_form,
    rank_drop_family,
    twist_family,
    verify_augmentation1,
    verify_augmentation2,
    verify_recursion,
)
from hrlab.bilinear import (
    Signature,
    SymBilinearForm,
    _congruence,
    _count_signs,
    derivative_inequality_defect,
    gram,
    hodge_index_defect,
    is_hr_wrt,
    signature,
)
from hrlab.exterior import Form, HermitianMatrix, hermitian_to_form, identity_form
from hrlab.sampling import random_positive_form
from hrlab.symfunc import Partition, derived_schur, partitions, schur

from oracles import (
    fraction_horner,
    in_lowest_terms,
    intersection_form_by_product,
    rational_rows,
    schur_shifted,
)


def make_space(d, e, seed, random_h=False):
    rng = random.Random(seed)
    h = random_positive_form(rng, d) if random_h else None
    omegas = [random_positive_form(rng, d) for _ in range(e)]
    return AugmentedSpace(omegas, h)


# -- space validation -----------------------------------------------------------


def test_space_rejects_bad_data():
    d = 3
    with pytest.raises(ValueError):
        AugmentedSpace([])
    with pytest.raises(ValueError):
        AugmentedSpace([hermitian_to_form(HermitianMatrix.diagonal([1, -1, 1]))])
    with pytest.raises(ValueError):
        AugmentedSpace([identity_form(3), identity_form(4)])
    with pytest.raises(ValueError):
        AugmentedSpace([identity_form(3)], h=identity_form(2))


def test_space_layout():
    sp = make_space(3, 2, 1)
    assert sp.dim_v == 10
    assert sp.zeta_index == 9
    assert sp.h_coords[-1] == 0
    assert sp.zeta_coords[-1] == 1
    assert len(sp.w_basis) == 9


def test_weight_mismatch_rejected():
    sp = make_space(3, 1, 2)
    with pytest.raises(ValueError):
        intersection_form(sp, (2,), 1)
    with pytest.raises(ValueError):
        twist_family(sp, (), 1)


# -- the forms Q_i -----------------------------------------------------------------


def test_qi_zero_outside_range():
    sp = make_space(3, 1, 3)
    lam = Partition((1,))
    assert intersection_form(sp, lam, -1).is_zero()
    assert intersection_form(sp, lam, 4).is_zero()
    assert intersection_form_by_product(sp, lam, -2).is_zero()


def test_qi_at_top_index_restricts_to_gram():
    # R_{d,0} = Q_d is its W block plus a zero zeta row and column, which is
    # what aug2's conclusion rests on.  The block comes from the derived-Schur
    # wedge route and gram(schur) from the pencil route wherever 2 <= |lam|.
    for d in range(3, 6):
        for e in range(1, 4):
            for lam in partitions(d - 2, e):
                sp = make_space(d, e, d * 10 + e, random_h=True)
                q = intersection_form(sp, lam, d)
                assert all(x == 0 for x in q.pairing_vector(sp.zeta_coords)), (d, e, lam)
                assert q.restrict_indices(sp.w_indices()) == gram(schur(lam, sp.omegas)), (d, e, lam)


def test_top_family_kernel_is_zeta_minus_t_h():
    # R_{d,t} (zeta - t h) = 0 for every t; differentiating, R'_t (zeta - t h)
    # = R_t h, so both defect matrices annihilate zeta - t h as well.
    for d in range(3, 6):
        for e in range(1, 4):
            for lam in partitions(d - 2, e):
                sp = make_space(d, e, 300 + d * 10 + e, random_h=True)
                h = sp.h_coords
                fam = twist_family(sp, lam, d)
                deriv = fam.derivative()
                for t in (Fraction(0), Fraction(1, 7), Fraction(-3, 2)):
                    v = [z - t * x for z, x in zip(sp.zeta_coords, h)]
                    rt = fam.at(t)
                    for m in (rt, hodge_index_defect(rt, h), derivative_inequality_defect(rt, deriv.at(t), h)):
                        assert not any(m.pairing_vector(v)), (d, e, lam, t)


def test_q_top_minkowski_case():
    sp = make_space(2, 1, 5)
    q = intersection_form(sp, Partition(()), 2)
    block = q.restrict_indices(range(4))
    assert signature(block) == Signature(1, 3, 0)


@pytest.mark.parametrize("d,e,lam", [(3, 1, (1,)), (3, 2, (1,)), (4, 2, (2,)), (4, 2, (1, 1))])
def test_product_route_equals_derived_route(d, e, lam):
    sp = make_space(d, e, 100 + d + e)
    for i in range(-1, d + 2):
        assert intersection_form(sp, lam, i) == intersection_form_by_product(sp, lam, i), i


def test_zeta_degree_overflow_integrates_to_zero():
    # any slice beyond zeta power d never reaches the integral: the form at
    # power d+1 would need negative complementary degree, so both routes give
    # exactly zero matrices outside 0..d
    sp = make_space(3, 1, 6)
    lam = Partition((1,))
    shat = schur_shifted(sp, lam)
    assert shat.degree() <= lam.weight
    assert intersection_form_by_product(sp, lam, 3 + 1).is_zero()


def test_index_shift_identity():
    # Q_i(b, zeta) = Q_{i+1}(b, h) for every i and basis vector
    for d, e, lam in [(3, 1, (1,)), (4, 2, (1, 1))]:
        sp = make_space(d, e, 200 + d)
        for i in range(-1, d + 1):
            qi = intersection_form(sp, lam, i)
            qi1 = intersection_form(sp, lam, i + 1)
            assert qi.pairing_vector(sp.zeta_coords) == qi1.pairing_vector(sp.h_coords)


def test_linear_and_square_identities():
    d, e, lam = 4, 2, (2,)
    sp = make_space(d, e, 321)
    rng = random.Random(99)
    qs = {i: intersection_form(sp, lam, i) for i in range(-1, d + 3)}
    basis = [tuple(Fraction(r == k) for r in range(sp.dim_v)) for k in range(sp.dim_w)]
    for _ in range(5):
        s = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        for i in range(0, d + 1):
            qi, qi1, qi2 = qs[i], qs[i + 1], qs[i + 2]
            for alpha in basis[:5]:
                shifted = tuple(a + s * z for a, z in zip(alpha, sp.zeta_coords))
                assert qi.value(shifted, sp.h_coords) == qi.value(alpha, sp.h_coords) + s * qi1.quad(sp.h_coords)
                assert qi.quad(shifted) == qi.quad(alpha) + 2 * s * qi1.value(alpha, sp.h_coords) + s * s * qi2.quad(sp.h_coords)


# -- families ------------------------------------------------------------------------


def test_family_base_cases():
    sp = make_space(3, 1, 7)
    lam = Partition((1,))
    r0 = twist_family(sp, lam, 0)
    assert len(r0.coeffs) == 1
    assert r0.at(0) == intersection_form(sp, lam, 0)
    assert r0.derivative().at(Fraction(1, 3)).is_zero()
    out = twist_family(sp, lam, -1)
    assert out.at(5).is_zero()


def test_family_linear_coefficient():
    d, e, lam = 4, 1, (1, 1)
    sp = make_space(d, e, 8)
    for i in range(0, d + 1):
        fam = twist_family(sp, lam, i)
        assert fam.coeffs[0] == intersection_form(sp, lam, i)
        if i >= 1:
            assert fam.coeffs[1] == (d - i + 1) * intersection_form(sp, lam, i - 1)


@pytest.mark.parametrize("d,e,lam", [(3, 1, (1,)), (4, 2, (2,))])
def test_family_derivative_identity(d, e, lam):
    sp = make_space(d, e, 9 + d)
    for i in range(0, d + 1):
        assert twist_family(sp, lam, i).derivative() == (d - i + 1) * twist_family(sp, lam, i - 1)


def test_family_second_derivative_identity():
    d, e, lam = 4, 2, (1, 1)
    sp = make_space(d, e, 10)
    for i in range(0, d + 1):
        lhs = twist_family(sp, lam, i).derivative().derivative()
        rhs = (d - i + 2) * (d - i + 1) * twist_family(sp, lam, i - 2)
        assert lhs == rhs


def test_family_eval_horner():
    c0 = SymBilinearForm([[1]])
    c1 = SymBilinearForm([[2]])
    c2 = SymBilinearForm([[3]])
    fam = FormFamily((c0, c1, c2))
    t = Fraction(1, 2)
    assert fam.at(t).matrix[0][0] == 1 + 2 * t + 3 * t * t
    assert fam.at(0) == c0
    assert fam.derivative().coeffs == (c1, 2 * c2)
    assert FormFamily((c0,)) == FormFamily((c0, SymBilinearForm.zero(1)))


# -- property checks -------------------------------------------------------------------


def test_property_a_passes_in_mid_range():
    d, e, lam = 4, 1, (1, 1)
    sp = make_space(d, e, 11)
    for i in range(3, d):
        rep = check_property_a(twist_family(sp, lam, i), sp.h_coords, sp.zeta_coords)
        assert rep.passed, (i, rep.checks)
        assert rep.constant == d - i + 1


def test_property_a_partial_failures():
    d, e, lam = 4, 2, (2,)
    sp = make_space(d, e, 12)
    rep2 = check_property_a(twist_family(sp, lam, 2), sp.h_coords, sp.zeta_coords)
    assert not rep2.a1 and rep2.r0p_h == 0
    assert rep2.a2 and rep2.a3 and rep2.a4 and rep2.a5
    repd = check_property_a(twist_family(sp, lam, d), sp.h_coords, sp.zeta_coords)
    assert repd.checks == {"A1": True, "A2": True, "A3": True, "A4": True, "A5": False}
    assert repd.constant == 1


def test_property_a_zero_family():
    zero = FormFamily((SymBilinearForm.zero(3),))
    h = (Fraction(1), Fraction(0), Fraction(0))
    zeta = (Fraction(0), Fraction(0), Fraction(1))
    rep = check_property_a(zero, h, zeta)
    assert not rep.a1
    assert not rep.passed
    assert rep.constant is None
    assert rep.a4  # vacuous: both pairings vanish identically


def test_property_a_report_json():
    d, e, lam = 4, 1, (1, 1)
    sp = make_space(d, e, 13)
    rep = check_property_a(twist_family(sp, lam, 3), sp.h_coords, sp.zeta_coords)
    obj = rep.to_json()
    assert obj["label"] == "A"
    assert obj["checks"]["A1"] is True
    assert obj["constant"] == "2/1"
    assert len(obj["per_t"]) == len(obj["t_samples"])
    assert obj["max_passing_radius"] == "1/10"


def test_property_b_at_top_index():
    for d, e, lam in [(3, 1, (1,)), (4, 2, (2,)), (2, 1, ())]:
        sp = make_space(d, e, 14 + d)
        rep = check_property_b(twist_family(sp, lam, d), sp.h_coords, sp.zeta_coords)
        assert rep.passed, (d, rep.checks)


def test_property_b_zero_family():
    zero = FormFamily((SymBilinearForm.zero(3),))
    h = (Fraction(1), Fraction(0), Fraction(0))
    zeta = (Fraction(0), Fraction(0), Fraction(1))
    rep = check_property_b(zero, h, zeta)
    assert not rep.b1
    assert not rep.passed


def test_property_b_reduction_to_shift_identity():
    # the zeta-zeta second derivative identity is the index shift in disguise
    d, e, lam = 4, 2, (1, 1)
    sp = make_space(d, e, 15)
    qd = intersection_form(sp, lam, d)
    qdm1 = intersection_form(sp, lam, d - 1)
    assert qdm1.value(sp.zeta_coords, sp.h_coords) == qd.quad(sp.h_coords)


def test_custom_t_samples_respected():
    d, e, lam = 3, 1, (1,)
    sp = make_space(d, e, 16)
    rep = check_property_a(
        twist_family(sp, lam, 2), sp.h_coords, sp.zeta_coords, [Fraction(1, 7)]
    )
    assert rep.t_samples == (Fraction(0), Fraction(1, 7))


# -- theorem verdicts ---------------------------------------------------------------------


def test_augmentation1_consistent():
    d, e, lam = 4, 2, (1, 1)
    sp = make_space(d, e, 17)
    verdict = verify_augmentation1(
        twist_family(sp, lam, 3), sp.h_coords, sp.zeta_coords
    )
    assert verdict.status == CONSISTENT
    assert verdict.conclusion
    assert all(verdict.hypotheses.values())


def test_augmentation1_not_applicable_for_zero_family():
    zero = FormFamily((SymBilinearForm.zero(3),))
    h = (Fraction(1), Fraction(0), Fraction(0))
    zeta = (Fraction(0), Fraction(0), Fraction(1))
    verdict = verify_augmentation1(zero, h, zeta)
    assert verdict.status == NOT_APPLICABLE
    assert not verdict.conclusion


def test_augmentation1_on_rank_drop_embedding():
    fam = rank_drop_family(3)
    h = (Fraction(1), Fraction(0), Fraction(0))
    zeta = (Fraction(0), Fraction(0), Fraction(1))
    verdict = verify_augmentation1(fam, h, zeta)
    assert verdict.status == NOT_APPLICABLE
    assert not verdict.hypotheses["property_A"]


def test_recursion_consistent():
    for d, e, lam in [(3, 1, (1,)), (4, 2, (1, 1))]:
        sp = make_space(d, e, 18 + d)
        verdict = verify_recursion(sp, lam, d - 1)
        assert verdict.status == CONSISTENT, verdict.hypotheses
        assert verdict.conclusion


def test_recursion_hypothesis_details():
    d, e, lam = 4, 2, (2,)
    sp = make_space(d, e, 19)
    verdict = verify_recursion(sp, lam, 3)
    assert verdict.hypotheses["r1_vanishes_on_w"]
    assert verdict.hypotheses["r2_hr_on_w"]
    assert verdict.details["constants"]["2"] == "3/1"
    # positive scalar times the classical power form
    scalar = derived_schur(lam, sp.omegas, d - 2)
    assert scalar.homogeneous_bidegree() == (0, 0)
    value = scalar.coefficient([], [])
    assert value.is_real() and value.re > 0
    q2_block = intersection_form(sp, lam, 2).restrict_indices(range(d * d))
    power = sp.h_power(d - 2)
    assert q2_block == value.re * gram(power)


def test_recursion_rejects_bad_depth():
    sp = make_space(3, 1, 20)
    with pytest.raises(ValueError):
        verify_recursion(sp, (1,), 3)
    with pytest.raises(ValueError):
        verify_recursion(sp, (1,), 1)


def test_augmentation2_consistent_for_d_at_least_4():
    d, e, lam = 4, 2, (2,)
    sp = make_space(d, e, 21)
    verdict = verify_augmentation2(sp, lam)
    assert verdict.status == CONSISTENT
    assert verdict.conclusion
    assert verdict.details["restricted_signature"] == [1, d * d - 1, 0]


def test_augmentation2_small_d_pattern():
    # for d = 2, 3 the second derivative is degenerate, so the hypotheses
    # cannot hold, but the conclusion (the signature statement) still does
    for d, e, lam in [(2, 1, ()), (3, 2, (1,))]:
        sp = make_space(d, e, 22 + d)
        verdict = verify_augmentation2(sp, lam)
        assert verdict.status == NOT_APPLICABLE
        assert verdict.conclusion
        assert verdict.hypotheses["property_B"]
        assert verdict.hypotheses["second_derivative_identity"]
        assert not verdict.hypotheses["second_derivative_hr_wrt_h"]


def test_random_h_still_consistent():
    d, e, lam = 4, 1, (1, 1)
    sp = make_space(d, e, 23, random_h=True)
    verdict = verify_recursion(sp, lam, d - 1, t_samples=[Fraction(1, 100), Fraction(-1, 100)])
    assert verdict.status == CONSISTENT
    assert verdict.conclusion


def test_verdict_status_mapping():
    from hrlab.augmentation import _verdict

    assert _verdict("x", {"a": True}, True, {}).status == CONSISTENT
    assert _verdict("x", {"a": True}, False, {}).status == "INCONSISTENT"
    assert _verdict("x", {"a": False}, True, {}).status == NOT_APPLICABLE
    v = _verdict("x", {"a": True, "b": False}, False, {"k": 1})
    assert v.status == NOT_APPLICABLE
    assert v.to_json() == {
        "name": "x",
        "hypotheses": {"a": True, "b": False},
        "conclusion": False,
        "status": NOT_APPLICABLE,
        "details": {"k": 1},
    }


# -- derivative inequality helper -------------------------------------------------------


def test_derivative_inequality_defect_matches_pointwise():
    rng = random.Random(24)
    n = 4
    from oracles import random_symmetric_rows

    q = SymBilinearForm(random_symmetric_rows(rng, n))
    qp = SymBilinearForm(random_symmetric_rows(rng, n))
    h = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
    S = derivative_inequality_defect(q, qp, h)
    for _ in range(20):
        v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
        want = 2 * qp.value(v, h) * q.value(v, h) - qp.quad(v) * q.quad(h)
        assert S.quad(v) == want


# -- the rank drop example ---------------------------------------------------------------


def test_rank_drop_family_battery():
    fam = rank_drop_family(3)
    h = (Fraction(1), Fraction(0), Fraction(0))
    q0 = fam.at(0)
    assert signature(q0) == Signature(1, 1, 1)
    assert q0.quad(h) > 0
    for t in (Fraction(1, 10), Fraction(-1, 10)):
        assert signature(fam.at(t)) == Signature(1, 2, 0)
    deriv = fam.derivative()
    assert len(deriv.coeffs) == 1
    assert signature(deriv.at(0)) == Signature(1, 2, 0)
    assert is_hr_wrt(deriv.at(0), h)


def test_rank_drop_dimension_scaling():
    fam = rank_drop_family(5)
    assert signature(fam.at(0)) == Signature(1, 3, 1)
    assert signature(fam.at(Fraction(1, 10))) == Signature(1, 4, 0)
    with pytest.raises(ValueError):
        rank_drop_family(1)


# -- each R_t evaluated and signed once -------------------------------------------------


def _random_rational_symmetric(rng, n):
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return rows


def test_family_at_equals_direct_sum():
    rng = random.Random(41)
    for count in range(1, 5):
        n = rng.randint(1, 4)
        coeffs = [_random_rational_symmetric(rng, n) for _ in range(count)]
        fam = FormFamily(SymBilinearForm(c) for c in coeffs)
        for t in (Fraction(0), Fraction(1, 3), Fraction(-1, 3), Fraction(7, 2)):
            want = [
                [sum(t**k * c[a][b] for k, c in enumerate(coeffs)) for b in range(n)]
                for a in range(n)
            ]
            assert fam.at(t).matrix == tuple(tuple(row) for row in want)


def test_family_at_matches_fraction_horner():
    rng = random.Random(42)
    ts = [Fraction(1, 100), Fraction(-1, 100), Fraction(1, 10), Fraction(-1, 10), Fraction(7, 3), Fraction(-5, 2)]
    for count in (1, 2, 4, 6):
        for n in (1, 3, 5):
            coeffs = [rational_rows(rng, n) for _ in range(count)]
            fam = FormFamily(SymBilinearForm(c) for c in coeffs)
            for t in ts:
                got = fam.at(t)
                assert in_lowest_terms(got)
                assert got.matrix == tuple(tuple(row) for row in fraction_horner(coeffs, t))
            assert fam.at(0) is fam.coeffs[0]


REUSE_SPACES = [(3, 1, (1,), 51), (4, 2, (2,), 52), (4, 2, (1, 1), 53)]


@pytest.mark.parametrize("d, e, lam, seed", REUSE_SPACES)
def test_r0_signature_is_the_t0_sample(d, e, lam, seed):
    sp = make_space(d, e, seed)
    h, zeta = sp.h_coords, sp.zeta_coords
    for i in range(2, d + 1):
        fam = twist_family(sp, lam, i)
        rep = check_property_a(fam, h, zeta)
        assert rep.t_samples[0] == 0
        assert rep.r0_signature == signature(fam.at(0)) == rep.per_t[0]["signature"]
    fam = twist_family(sp, lam, d)
    assert check_property_b(fam, h, zeta).r0_signature == signature(fam.at(0))


@pytest.mark.parametrize("d, e, lam, seed", REUSE_SPACES)
def test_verdict_conclusions_equal_direct_hr_checks(d, e, lam, seed):
    sp = make_space(d, e, seed)
    h, zeta = sp.h_coords, sp.zeta_coords
    # i = 2 and i = d are the EXPECTED-FAIL indices of property A.
    for i in range(2, d + 1):
        fam = twist_family(sp, lam, i)
        v = verify_augmentation1(fam, h, zeta)
        r0p = fam.derivative().at(0)
        assert v.conclusion == is_hr_wrt(fam.at(0), h)
        assert v.hypotheses["derivative_hr_wrt_h"] == is_hr_wrt(r0p, h)
        assert v.details["r0_signature"] == list(signature(fam.at(0)))
        assert v.details["derivative_signature"] == list(signature(r0p))
    for j in range(2, d):
        v = verify_recursion(sp, lam, j)
        direct = {str(i): is_hr_wrt(twist_family(sp, lam, i).at(0), h) for i in range(2, j + 1)}
        assert v.details["per_i_conclusion"] == direct
        assert v.conclusion == all(direct.values())


def test_verdict_conclusions_equal_direct_hr_checks_aug2():
    # The conclusion is read off property B's t = 0 sample; the directly
    # signed W block of R_{d,0} is the oracle.
    cases = REUSE_SPACES + [(5, 2, (2, 1), 54), (6, 2, (2, 2), 55), (6, 3, (3, 1), 56)]
    for d, e, lam, seed in cases:
        sp = make_space(d, e, seed, random_h=d == 6)
        v = verify_augmentation2(sp, lam)
        restricted = twist_family(sp, lam, d).at(0).restrict_indices(sp.w_indices())
        assert v.conclusion == is_hr_wrt(restricted, sp.h_coords_w())
        assert v.details["restricted_signature"] == list(signature(restricted))
        rpp0 = twist_family(sp, lam, d).derivative().derivative().at(0)
        assert v.hypotheses["second_derivative_hr_wrt_h"] == is_hr_wrt(rpp0, sp.h_coords)


def test_verdict_conclusion_on_degenerate_r0():
    fam = rank_drop_family(3)
    h = (Fraction(1), Fraction(0), Fraction(0))
    zeta = (Fraction(0), Fraction(0), Fraction(1))
    v = verify_augmentation1(fam, h, zeta)
    assert v.conclusion is False
    assert v.conclusion == is_hr_wrt(fam.at(0), h)
    assert v.details["r0_signature"] == [1, 1, 1]
    assert v.hypotheses["derivative_hr_wrt_h"] == is_hr_wrt(fam.derivative().at(0), h)


def test_verdicts_build_each_derivative_family_once(monkeypatch, routes):
    # Each verdict builds each derivative family once and evaluates a family
    # only at t = 0 (R_0, R'_0, R''_0): its samples are read off the int
    # stack.  Each matrix it signs, by size: the five R_t, the t = 0 border
    # (two rows more) and R'_0 for aug1 and each recursion family, and
    # R''_0 last for aug2; R_2 on W (hyp4) last for the recursion.
    calls, evaluated = [], []
    original, at = FormFamily.derivative, FormFamily.at

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(FormFamily, "derivative", counting)
    monkeypatch.setattr(FormFamily, "at", lambda self, t: evaluated.append(t) or at(self, t))
    d, e, lam, seed = REUSE_SPACES[2]
    sp = make_space(d, e, seed)
    n = sp.dim_v
    fam = twist_family(sp, lam, 3)
    verify_augmentation1(fam, sp.h_coords, sp.zeta_coords)
    assert len(calls) == 1  # R'
    assert evaluated == [0, 0]
    assert routes.per_matrix() == [(n, "kernel")] * 5 + [(n + 2, "kernel"), (n, "kernel")]
    calls.clear(), evaluated.clear(), routes.clear()
    verify_augmentation2(sp, lam)
    assert len(calls) == 2  # R' and R''
    assert evaluated == [0, 0, 0]
    assert routes.per_matrix() == [(n - 1, "kernel"), (n + 1, "kernel")] * 5 + [(n, "kernel")]
    calls.clear(), evaluated.clear(), routes.clear()
    verify_recursion(sp, lam, d - 1)
    assert len(calls) == d - 2  # R'_i for i = 2..j
    assert evaluated == [0, 0] * (d - 2)
    assert routes.per_matrix() == ([(n, "kernel")] * 5 + [(n + 2, "kernel")]) * (d - 2) + [(n - 1, "kernel")]


def test_verdicts_build_only_the_families_they_check(monkeypatch):
    # R_{i,0} is read as the cached Q_i, so no family is built for its
    # constant term alone.
    built = []
    original = augmentation.twist_family
    monkeypatch.setattr(augmentation, "twist_family", lambda sp, lam, i: built.append(i) or original(sp, lam, i))
    for d, e, lam, seed in REUSE_SPACES + [(5, 2, (2, 1), 54)]:
        sp = make_space(d, e, seed)
        verify_augmentation2(sp, lam)
        assert built == [d]
        built.clear()
        for j in range(2, d):
            verify_recursion(sp, lam, j)
            assert built == list(range(2, j + 1))
            built.clear()


def test_augmentation2_signs_no_w_block(routes):
    # Every matrix aug2 signs, by its row count and route.  The i = d family
    # annihilates zeta - t h, so the five R_t and the five derivative borders
    # are signed off zeta (16 and 18 rows at d = 4, 25 and 27 at d = 5), and
    # R''_0 on all of V (17 and 26); the W block of R_{d,0} is the t = 0
    # sample and is not signed a second time.  At d = 5 the t = 0 matrix of
    # each chain certifies on a fresh proposal, its family bound covers the
    # samples at t = +-1/100 (the border's too: R_t and R'_t share one
    # scale, so no sample refuses the border's t = 0 proposal), and the
    # samples at t = +-1/10 reuse the t = 0 proposal.
    assert verify_augmentation2(make_space(4, 2, 53), (1, 1)).status == CONSISTENT
    assert routes.per_matrix() == [(16, "kernel"), (18, "kernel")] * 5 + [(17, "kernel")]
    routes.clear()
    assert verify_augmentation2(make_space(5, 2, 54), (2, 1)).status == CONSISTENT
    assert routes.per_matrix() == [
        (25, "fresh"), (27, "fresh"),
        (25, "bound"), (27, "bound"),
        (25, "bound"), (27, "bound"),
        (25, "reused"), (27, "reused"),
        (25, "reused"), (27, "reused"),
        (26, "fresh"),
    ]
    assert ("verdict", 27, False) not in routes


def test_recursion_routes_sparse_matrices_to_the_kernel(routes):
    # At d = 5 the i = 2 family (R_{2,t} 13 % nonzero, its border and R_{2,0}
    # on W) and the i = 3 border stay on the kernel.  The bound of R_{3,0}'s
    # certificate covers its four other samples; R_{4,t}'s samples at
    # t = +-1/100 fall outside its bound and reuse the t = 0 proposal.  At
    # d = 6 the 36-row R_{2,0} on W (hyp4), under a twentieth nonzero, does
    # not reach the rounded route.
    sp = make_space(5, 2, 54)
    assert verify_recursion(sp, (2, 1), 4).status == CONSISTENT
    assert routes.per_matrix() == (
        [(26, "kernel")] * 5 + [(28, "kernel")]
        + [(26, "fresh")] + [(26, "bound")] * 4 + [(28, "kernel")]
        + [(26, "fresh"), (26, "reused"), (26, "reused"), (26, "fresh"), (26, "fresh"), (28, "fresh")]
        + [(25, "kernel")]
    )
    sp = make_space(6, 2, 55)
    block = intersection_form(sp, (2, 2), 2).restrict_indices(sp.w_indices())
    assert 20 * sum(x != 0 for row in block._ints for x in row) < 36 * 36
    routes.clear()
    assert verify_recursion(sp, (2, 2), 2).status == CONSISTENT
    assert routes.per_matrix() == [(37, "kernel")] * 5 + [(39, "kernel"), (36, "kernel")]


def kernel_signature(q):
    return _count_signs(_congruence(q._ints), q.n)


def test_top_family_is_signed_off_its_kernel():
    # For d = 3..6, random h and every default t plus three negative t (where
    # R_t(h) < 0 takes the q <= 0 branch): the block off zeta plus one zero
    # is the inertia of R_t, and the border off zeta plus one zero that of
    # the derivative defect, both signed directly on V.
    branches = set()
    for d in range(3, 7):
        sp = make_space(d, 2, 400 + d, random_h=True)
        h, zeta = sp.h_coords, sp.zeta_coords
        fam = twist_family(sp, partitions(d - 2, 2)[0], d)
        deriv = fam.derivative()
        z = _kernel_coordinate(fam, h, zeta)
        assert z == sp.zeta_index
        stack = _Stack(fam, h, z)
        samples, borders = stack.chain(), stack.border_chain()
        for t in DEFAULT_T_SAMPLES + (Fraction(-1), Fraction(-3), Fraction(-100)):
            rt, rpt = fam.at(t), deriv.at(t)
            sig = stack.weak_hr_sample(t, samples)["signature"]
            assert sig == kernel_signature(rt)
            assert sig.n_zero >= 1
            border = stack.derivative_sample(t, borders)
            assert border == kernel_signature(derivative_inequality_defect(rt, rpt, h)), (d, t)
            branches.add(rt.quad(h) > 0)
    assert branches == {True, False}
    # The zero family (i outside 0..d) deflates too: every matrix is zero.
    sp = make_space(3, 1, 401)
    zero = twist_family(sp, (1,), 4)
    z = _kernel_coordinate(zero, sp.h_coords, sp.zeta_coords)
    assert z == sp.zeta_index
    rep = check_property_b(zero, sp.h_coords, sp.zeta_coords)
    assert [entry["signature"] for entry in rep.per_t] == [Signature(0, 0, 10)] * 5
    stack = _Stack(zero, sp.h_coords, z)
    assert stack.derivative_sample(Fraction(1), stack.border_chain()) == Signature(0, 0, 10)


def test_broken_kernel_identity_signs_the_full_matrix(routes):
    # Two families that break R_t (zeta - t h) = 0: C_1 zeta != C_0 h, and a
    # last coefficient C_K with C_K h != 0.  Neither is deflated, and each
    # report is the one signed on V.
    sp = make_space(4, 2, 57)
    h, zeta, n = sp.h_coords, sp.zeta_coords, sp.dim_v
    coeffs = twist_family(sp, (2,), 4).coeffs
    unit = SymBilinearForm([[int(i == j == sp.zeta_index) for j in range(n)] for i in range(n)])
    w_unit = SymBilinearForm([[int(i == j == 0) for j in range(n)] for i in range(n)])
    assert h[0] != 0
    broken = (
        FormFamily((coeffs[0], coeffs[1] + unit) + coeffs[2:]),
        FormFamily(coeffs + (w_unit,)),
    )
    for fam in broken:
        assert _kernel_coordinate(fam, h, zeta) is None
        routes.clear()
        rep = check_property_b(fam, h, zeta)
        assert sorted(routes.per_matrix()) == [(n, "kernel")] * 5 + [(n + 2, "kernel")] * 5
        for entry in rep.per_t:
            rt, rpt = fam.at(entry["t"]), fam.derivative().at(entry["t"])
            assert entry["signature"] == kernel_signature(rt)
            defect = kernel_signature(derivative_inequality_defect(rt, rpt, h))
            assert entry["derivative_inequality_psd"] == (defect.n_minus == 0)
    assert _kernel_coordinate(twist_family(sp, (2,), 3), h, zeta) is None


@pytest.mark.parametrize("d, lam", [(5, (2, 1)), (6, (2, 2)), (7, (2, 2, 1))])
def test_augmentation2_proposes_for_no_singular_matrix(monkeypatch, d, lam):
    proposed = []
    real = bilinear._rounded_congruence
    monkeypatch.setattr(bilinear, "_rounded_congruence", lambda rows: proposed.append(rows) or real(rows))
    assert verify_augmentation2(make_space(d, 2, 60 + d), lam).status == CONSISTENT
    assert proposed
    for rows in proposed:
        assert _count_signs(_congruence(rows), len(rows)).n_zero == 0
