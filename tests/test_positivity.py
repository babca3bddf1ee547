import random
from fractions import Fraction
from itertools import combinations

import pytest

from hrlab.bilinear import Signature, hermitian_inertia
from hrlab.exterior import (
    Form,
    HermitianMatrix,
    _adjugate,
    conjugate,
    hermitian_to_form,
    top_coefficient,
    top_pairings,
    top_ratio,
    vol_form,
    wedge,
)
from hrlab.gaussian import GaussianRational, I
from hrlab.positivity import (
    NOT_POSITIVE,
    POSITIVE,
    STRICTLY_POSITIVE,
    WEAKLY_POSITIVE_FALSIFIED,
    WEAKLY_POSITIVE_UNFALSIFIED,
    ConeVerdict,
    falsify_weak_positivity,
    is_positive_definite_11,
    is_positive_pp,
    simple_form,
)
from hrlab.sampling import random_hermitian, random_one_form, random_positive_hermitian
from hrlab.symfunc import schur

from oracles import (
    descartes_inertia,
    fraction_congruence_inertia,
    gaussian_matrix,
    hermitian_det,
    leading_principal_minors,
    pairing_by_wedge,
    realified,
)


def test_pd_examples():
    assert is_positive_definite_11(HermitianMatrix.identity(3))
    assert not is_positive_definite_11(HermitianMatrix.diagonal([1, -1]))
    assert not is_positive_definite_11(HermitianMatrix.diagonal([1, 0]))


def test_pd_construction_and_cross_check():
    rng = random.Random(3)
    for d in (2, 3, 4):
        for _ in range(8):
            H = random_positive_hermitian(rng, d)
            assert is_positive_definite_11(H)
            assert all(m > 0 for m in leading_principal_minors(H))
            # independent route: full inertia must be (d, 0, 0)
            sig = hermitian_inertia([list(row) for row in H.entries])
            assert sig == (d, 0, 0)


def test_pd_agrees_with_inertia_on_arbitrary_hermitians():
    rng = random.Random(5)
    for d in (2, 3):
        for _ in range(15):
            H = random_hermitian(rng, d)
            sig = hermitian_inertia([list(row) for row in H.entries])
            assert is_positive_definite_11(H) == (sig == (d, 0, 0))


def rational_hermitian(rng, n, kind):
    """Hermitian GaussianRational rows over mixed denominators.

    "zero-diagonal": arbitrary entries with at least one zero on the diagonal;
    "definite": B^H B / 3 + I / 2; "semidefinite": B^H B / 3 with B of fewer
    than n rows, so the kernel is not trivial.
    """
    def entry():
        den = rng.choice([1, 2, 3, 100])
        return GaussianRational(Fraction(rng.randint(-3, 3), den), Fraction(rng.randint(-3, 3), den))

    zero = GaussianRational(0)
    if kind == "zero-diagonal":
        rows = [[zero] * n for _ in range(n)]
        zeros = set(rng.sample(range(n), rng.randint(1, n)))
        for j in range(n):
            for k in range(j, n):
                z = entry()
                if j == k:
                    z = zero if j in zeros else GaussianRational(z.re)
                rows[j][k], rows[k][j] = z, z.conjugate()
        return rows
    b = [[entry() for _ in range(n)] for _ in range(n if kind == "definite" else rng.randint(0, n - 1))]
    shift = Fraction(1, 2) if kind == "definite" else 0
    return [
        [sum((col[j].conjugate() * col[k] for col in b), zero) * Fraction(1, 3) + (shift if j == k else 0)
         for k in range(n)]
        for j in range(n)
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_pd_and_inertia_of_rational_matrices_match_oracles(n):
    # Descartes' rule expands a 2n x 2n cofactor determinant, so it stops at n = 3.
    rng = random.Random(31 + n)
    for kind in ("zero-diagonal", "definite", "semidefinite"):
        for _ in range(4 if n <= 3 else 2):
            rows = rational_hermitian(rng, n, kind)
            H = HermitianMatrix(rows)
            want = fraction_congruence_inertia(rows)
            if n <= 3:
                assert Signature(*(x // 2 for x in descartes_inertia(realified(rows)))) == want
            assert hermitian_inertia(rows) == hermitian_inertia(H.entries) == want
            assert is_positive_definite_11(H) == (want == (n, 0, 0))
            assert (want == (n, 0, 0)) == (kind == "definite")


def sylvester_cases(rng):
    """Hermitian rows of each kind the Sylvester test must tell apart: 1 x 1,
    zero leading entries, definite, rank-deficient and negative definite,
    over non-integer denominators."""
    zero, one = GaussianRational(0), GaussianRational(1)
    cases = [[[GaussianRational(x)]] for x in (1, 0, -1, Fraction(2, 7), Fraction(-1, 100))]
    cases += [
        [[zero, one], [one, zero]],
        [[zero, zero], [zero, one]],
        [[zero, I], [-I, GaussianRational(5)]],
        [[one, zero, zero], [zero, zero, one], [zero, one, GaussianRational(Fraction(1, 3))]],
    ]
    for n in (2, 3, 4, 6):
        for _ in range(3):
            cases.append([list(row) for row in random_positive_hermitian(rng, n).entries])
            for kind in ("definite", "semidefinite", "zero-diagonal"):
                rows = rational_hermitian(rng, n, kind)
                cases += [rows, [[-x for x in row] for row in rows]]
    return cases


def test_sylvester_test_agrees_with_inertia():
    verdicts = []
    for rows in sylvester_cases(random.Random(47)):
        n = len(rows)
        want = hermitian_inertia(rows) == (n, 0, 0)
        assert is_positive_definite_11(HermitianMatrix(rows)) == want, rows
        verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_forward_sweep_verdict_is_the_adjugates():
    # The verdict stops at the first leading minor that is not positive, on
    # the zero-pivot and the negative-pivot draws alike.
    kinds = set()
    for rows in sylvester_cases(random.Random(59)):
        H = HermitianMatrix(rows)
        re, im = [[z[0] for z in row] for row in H._rows], [[z[1] for z in row] for row in H._rows]
        verdict = is_positive_definite_11(H)
        assert verdict == (_adjugate(re, im) is not None), rows
        first = next((m for m in leading_principal_minors(H) if m <= 0), None)
        assert verdict == (first is None)
        kinds.add(None if first is None else (first > 0) - (first < 0))
    assert kinds == {None, 0, -1}


def test_adjugate_refuses_exactly_the_matrices_that_are_not_positive_definite():
    refused = []
    for rows in sylvester_cases(random.Random(53)):
        H = HermitianMatrix(rows)
        n = H.d
        re, im = [[z[0] for z in row] for row in H._rows], [[z[1] for z in row] for row in H._rows]
        out = _adjugate(re, im)
        assert [list(zip(*rows)) for rows in zip(re, im)] == [list(row) for row in H._rows]  # input kept
        refused.append(out is None)
        assert refused[-1] == any(m <= 0 for m in leading_principal_minors(H)), rows
        if out is None:
            continue
        det, adj_re, adj_im = out
        int_rows = [[GaussianRational(*z) for z in row] for row in H._rows]
        assert GaussianRational(det) == hermitian_det(int_rows)
        # adj(M) M = det(M) I, over the Gaussian integers.
        for j in range(n):
            for k in range(n):
                prod_re = sum(adj_re[j][l] * re[l][k] - adj_im[j][l] * im[l][k] for l in range(n))
                prod_im = sum(adj_re[j][l] * im[l][k] + adj_im[j][l] * re[l][k] for l in range(n))
                assert (prod_re, prod_im) == ((det if j == k else 0), 0), rows
    assert True in refused and False in refused


def test_hermitian_det_small():
    i = GaussianRational(0, 1)
    m = [[GaussianRational(2), i], [-i, GaussianRational(3)]]
    assert hermitian_det(m) == GaussianRational(5)
    assert hermitian_det([[GaussianRational(0)]]) == GaussianRational(0)


# -- positive (p,p) cone ------------------------------------------------------


def test_simple_11_form_is_positive_not_strict():
    eta = Form.term(2, [1], [1], I)
    v = is_positive_pp(eta)
    assert v.cone == POSITIVE


def test_negative_scalar_not_positive():
    v = is_positive_pp(Form.scalar(2, -1))
    assert v.cone == NOT_POSITIVE
    assert v.witness is not None


def test_power_of_strictly_positive_is_strictly_positive():
    rng = random.Random(7)
    for d in (2, 3):
        omega = hermitian_to_form(random_positive_hermitian(rng, d))
        power = omega
        for _ in range(d - 2):
            power = wedge(power, omega)
        assert is_positive_pp(power).cone == STRICTLY_POSITIVE
        assert is_positive_pp(omega).cone == STRICTLY_POSITIVE


def test_vol_is_strictly_positive_top_form():
    assert is_positive_pp(vol_form(3)).cone == STRICTLY_POSITIVE


def test_not_positive_witness_is_valid():
    d = 2
    eta = hermitian_to_form(HermitianMatrix.diagonal([1, -3]))
    v = is_positive_pp(eta)
    assert v.cone == NOT_POSITIVE
    beta = v.witness
    q = d - 1
    pairing = wedge(eta, wedge(beta, conjugate(beta)).scale(I ** (q * q)))
    assert top_ratio(pairing) < 0


def test_not_positive_witness_after_pair_step():
    # The induced pairing has a zero diagonal, so the witness is rebuilt
    # through the kernel's pair step and then one elimination.
    a = GaussianRational(2, 1)
    eta = hermitian_to_form(HermitianMatrix([[0, a], [a.conjugate(), 0]]))
    v = is_positive_pp(eta)
    assert v.cone == NOT_POSITIVE
    beta = v.witness
    assert top_ratio(wedge(eta, wedge(beta, conjugate(beta)).scale(I))) < 0


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_positive_pp_pairing_matches_wedge_oracle(d):
    # The fragment pairing is_positive_pp signs, read three ways: by
    # top_pairings (dz_S ^ eta ^ dzb_T), by the wedge oracle, and in the
    # order eta ^ dz_S ^ dzb_T, equal because eta has even degree.
    rng = random.Random(700 + d)
    for p in range(d + 1):
        eta = Form.scalar(d, 1)
        for _ in range(p):
            eta = wedge(eta, hermitian_to_form(random_hermitian(rng, d)))
        subsets = list(combinations(range(1, d + 1), d - p))
        dz = [Form.term(d, S, []) for S in subsets]
        dzb = [Form.term(d, [], T) for T in subsets]
        got = gaussian_matrix(top_pairings(dz, eta, dzb))
        assert got == pairing_by_wedge(dz, eta, dzb)
        assert got == [[top_coefficient(wedge(wedge(eta, a), b)) for b in dzb] for a in dz]
        assert any(x for row in got for x in row)


def test_is_positive_pp_errors():
    with pytest.raises(ValueError):
        is_positive_pp(Form.dz(2, 1))
    with pytest.raises(ValueError):
        is_positive_pp(Form.term(2, [1], [2]))


# -- simple forms -----------------------------------------------------------------


def test_simple_form_single_factor():
    assert simple_form([Form.dz(2, 1)]) == Form.term(2, [1], [1], I)


@pytest.mark.parametrize("d", [2, 3])
def test_simple_form_top_is_vol(d):
    alphas = [Form.dz(d, j) for j in range(1, d + 1)]
    assert simple_form(alphas) == vol_form(d)


def test_simple_forms_lie_in_positive_cone():
    rng = random.Random(11)
    for d in (2, 3, 4):
        for p in range(1, d + 1):
            for _ in range(4):
                gamma = simple_form([random_one_form(rng, d) for _ in range(p)])
                assert is_positive_pp(gamma).cone in (POSITIVE, STRICTLY_POSITIVE)


def test_simple_form_errors():
    with pytest.raises(ValueError):
        simple_form([])
    with pytest.raises(ValueError):
        simple_form([Form.dzbar(2, 1)])
    with pytest.raises(ValueError):
        simple_form([Form.dz(2, 1)] * 3)
    with pytest.raises(ValueError):
        simple_form([Form.dz(2, 1), Form.dz(3, 1)])


def test_products_of_strictly_positive_forms_stay_positive():
    rng = random.Random(13)
    for d in (3, 4):
        omegas = [hermitian_to_form(random_positive_hermitian(rng, d)) for _ in range(d - 1)]
        acc = omegas[0]
        for w in omegas[1:]:
            acc = wedge(acc, w)
            verdict = is_positive_pp(acc)
            assert verdict.cone in (POSITIVE, STRICTLY_POSITIVE)


def test_schur_forms_pass_positive_cone_check():
    rng = random.Random(17)
    for d, e, lam in [(3, 1, (1,)), (3, 2, (1,)), (4, 2, (2,)), (4, 2, (1, 1))]:
        omegas = [hermitian_to_form(random_positive_hermitian(rng, d)) for _ in range(e)]
        verdict = is_positive_pp(schur(lam, omegas))
        assert verdict.cone in (POSITIVE, STRICTLY_POSITIVE), (d, e, lam)


# -- weak positivity falsifier ------------------------------------------------------


def test_falsifier_unfalsified_on_scalar_one():
    v = falsify_weak_positivity(Form.scalar(3, 1), trials=10, seed=1)
    assert v.cone == WEAKLY_POSITIVE_UNFALSIFIED
    assert v.witness is None


def test_falsifier_catches_negative_simple_pairing():
    eta = Form.term(2, [1], [1], -I)
    v = falsify_weak_positivity(eta, trials=40, seed=2)
    assert v.cone == WEAKLY_POSITIVE_FALSIFIED
    assert top_ratio(wedge(eta, v.witness)) < 0


def test_falsifier_never_falsifies_strictly_positive_11():
    rng = random.Random(19)
    for d in (2, 3):
        eta = hermitian_to_form(random_positive_hermitian(rng, d))
        v = falsify_weak_positivity(eta, trials=30, seed=3)
        assert v.cone == WEAKLY_POSITIVE_UNFALSIFIED


def test_positive_11_never_falsified_when_cones_coincide():
    # at p = 1 and p = d-1 the positive and weakly positive cones agree
    rng = random.Random(23)
    d = 3
    omega = hermitian_to_form(random_positive_hermitian(rng, d))
    power = wedge(omega, omega)
    assert is_positive_pp(power).cone == STRICTLY_POSITIVE
    assert falsify_weak_positivity(power, trials=25, seed=5).cone == WEAKLY_POSITIVE_UNFALSIFIED


def test_cone_verdict_validation_and_json():
    with pytest.raises(ValueError):
        ConeVerdict(NOT_POSITIVE)
    v = ConeVerdict(POSITIVE)
    assert v.to_json() == {"cone": POSITIVE, "witness": None}
    w = ConeVerdict(NOT_POSITIVE, Form.scalar(2, -1))
    assert w.to_json()["witness"]["dimension"] == 2
