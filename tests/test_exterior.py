import copy
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hrlab.bilinear import SymBilinearForm, gram
from hrlab.exterior import (
    Form,
    HermitianMatrix,
    basis_11_real,
    conjugate,
    coords_11_real,
    form_to_hermitian,
    hermitian_to_form,
    identity_form,
    top_coefficient,
    top_pairings,
    top_ratio,
    vol_form,
    wedge,
)
from hrlab.gaussian import GaussianRational, I
from hrlab.sampling import (
    random_gaussian_rational,
    random_hermitian,
    random_positive_form,
    random_positive_hermitian,
)
from hrlab.symfunc import schur

from oracles import (
    form_from_json_by_constructor,
    form_in_lowest_terms,
    gaussian_matrix,
    hermitian_in_lowest_terms,
    in_lowest_terms,
    mixed_discriminant,
    naive_from_form,
    naive_mul,
    naive_product_of_forms,
    naive_top_coefficient,
    naive_vol,
    pairing_by_wedge,
)


def all_monomials(d):
    for h in range(1 << d):
        for a in range(1 << d):
            yield h, a


def coeffs(draw_ints):
    return GaussianRational(draw_ints[0], draw_ints[1])


small_coeff = st.builds(
    GaussianRational,
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
)


def forms(d, max_terms=4):
    masks = st.tuples(
        st.integers(min_value=0, max_value=(1 << d) - 1),
        st.integers(min_value=0, max_value=(1 << d) - 1),
    )
    return st.builds(
        lambda t: Form(d, dict(t)),
        st.lists(st.tuples(masks, small_coeff), max_size=max_terms).map(tuple),
    )


# -- wedge basics ------------------------------------------------------------


def test_wedge_repeated_generator_vanishes():
    a = Form.dz(2, 1)
    assert wedge(a, a).is_zero()


def test_wedge_anticommutes_in_odd_degree():
    a, b = Form.dz(2, 1), Form.dzbar(2, 1)
    assert wedge(a, b) == Form.term(2, [1], [1])
    assert wedge(b, a) == Form.term(2, [1], [1], -1)


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(Form.dz(2, 1), Form.dz(3, 1))


def test_spec_square_example():
    # (i dz1^dzb2 + i dz2^dzb1)^2 pairs off-diagonally to -2 vol
    u = Form(2, {(0b01, 0b10): I, (0b10, 0b01): I})
    assert top_ratio(wedge(u, u)) == -2


@pytest.mark.parametrize("d", [1, 2, 3])
def test_graded_commutativity_exhaustive(d):
    for h1, a1 in all_monomials(d):
        m1 = Form(d, {(h1, a1): GaussianRational(1)})
        deg1 = h1.bit_count() + a1.bit_count()
        for h2, a2 in all_monomials(d):
            m2 = Form(d, {(h2, a2): GaussianRational(1)})
            deg2 = h2.bit_count() + a2.bit_count()
            lhs = wedge(m1, m2)
            rhs = wedge(m2, m1)
            if deg1 * deg2 % 2:
                rhs = -rhs
            assert lhs == rhs


@pytest.mark.parametrize("d", [4, 5])
def test_graded_commutativity_randomized(d):
    rng = random.Random(d * 17)
    for _ in range(40):
        def pick():
            h = rng.getrandbits(d)
            a = rng.getrandbits(d)
            c = GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))
            return Form(d, {(h, a): c}) if c else Form.zero(d), h.bit_count() + a.bit_count()

        m1, deg1 = pick()
        m2, deg2 = pick()
        lhs = wedge(m1, m2)
        rhs = wedge(m2, m1)
        if deg1 * deg2 % 2:
            rhs = -rhs
        assert lhs == rhs


@given(forms(4), forms(4))
def test_wedge_matches_naive_oracle(a, b):
    got = naive_from_form(wedge(a, b), 4)
    want = naive_mul(naive_from_form(a, 4), naive_from_form(b, 4))
    assert got == want


def rational_form(rng, d, terms):
    """Terms with re and im over different non-integer denominators."""
    out = {}
    for _ in range(terms):
        key = (rng.randrange(1 << d), rng.randrange(1 << d))
        re = Fraction(rng.randint(-9, 9), rng.choice([2, 3, 7, 100]))
        im = Fraction(rng.randint(-9, 9), rng.choice([5, 9, 11, 10_000]))
        out[key] = GaussianRational(re, im)
    return Form(d, out)


def assert_wedge_matches_oracle(a, b):
    d = a.d
    got = wedge(a, b)
    assert naive_from_form(got, d) == naive_mul(naive_from_form(a, d), naive_from_form(b, d))
    assert all(c for c in got.terms.values())


def test_wedge_matches_naive_oracle_on_rational_coefficients():
    rng = random.Random(29)
    for d in (1, 2, 3, 5):
        for _ in range(12):
            a, b = rational_form(rng, d, 6), rational_form(rng, d, 6)
            assert_wedge_matches_oracle(a, b)
            assert any(c.re.denominator != c.im.denominator for c in a.terms.values())


def rational_one_form(rng, d):
    out = Form.zero(d)
    for j in range(1, d + 1):
        re = Fraction(rng.randint(-9, 9), rng.choice([2, 3, 100]))
        im = Fraction(rng.randint(-9, 9), rng.choice([5, 7, 10_000]))
        out = out + Form.term(d, [j], [], GaussianRational(re, im))
        out = out + Form.term(d, [], [j], GaussianRational(im, re))
    return out


def test_wedge_drops_exactly_cancelling_sums():
    rng = random.Random(31)
    for d in (2, 4):
        for _ in range(6):
            alpha, beta = rational_one_form(rng, d), rational_one_form(rng, d)
            # Every monomial of alpha ^ alpha gets two products that cancel.
            assert naive_mul(naive_from_form(alpha, d), naive_from_form(alpha, d)) == {}
            assert wedge(alpha, alpha).terms == {}
            # Only the beta ^ alpha part of (alpha + beta) ^ alpha survives.
            assert wedge(alpha + beta, alpha) == wedge(beta, alpha)
            assert_wedge_matches_oracle(alpha + beta, alpha)
            gamma = rational_form(rng, d, 5)
            assert_wedge_matches_oracle(wedge(gamma, alpha), alpha)


def test_wedge_zero_forms_and_d1():
    rng = random.Random(37)
    for d in (1, 3):
        a = rational_form(rng, d, 4)
        zero = Form.zero(d)
        assert wedge(a, zero).terms == {} and wedge(zero, a).terms == {}
        assert wedge(zero, zero).terms == {}
    z, zb = Form.dz(1, 1), Form.dzbar(1, 1)
    half = GaussianRational(Fraction(1, 2), Fraction(3, 7))
    assert wedge(z.scale(half), zb) == Form.term(1, [1], [1], half)
    assert wedge(zb, z.scale(half)) == Form.term(1, [1], [1], -half)
    assert wedge(z, z).terms == {}
    for _ in range(10):
        assert_wedge_matches_oracle(rational_form(rng, 1, 3), rational_form(rng, 1, 3))


@given(forms(4), forms(4), forms(4))
def test_wedge_associative_and_bilinear(a, b, c):
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
    assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)


def test_even_degree_centrality():
    rng = random.Random(7)
    d = 4
    for _ in range(20):
        h = hermitian_to_form(random_hermitian(rng, d))
        k = hermitian_to_form(random_hermitian(rng, d))
        hk = wedge(h, k)
        assert wedge(hk, h) == wedge(h, hk)
        assert wedge(hk, hk) == wedge(hk, hk)
        assert wedge(h, k) == wedge(k, h)


# -- conjugation --------------------------------------------------------------


def test_conjugate_generators():
    assert conjugate(Form.dz(3, 1)) == Form.dzbar(3, 1)
    gen = Form.term(2, [1], [1], I)
    assert conjugate(gen) == gen


@given(forms(3))
def test_conjugate_involution(a):
    assert conjugate(conjugate(a)) == a


@given(forms(3), forms(3))
def test_conjugate_wedge_homomorphism(a, b):
    assert conjugate(wedge(a, b)) == wedge(conjugate(a), conjugate(b))


# -- volume normalization ------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_vol_constant_derived_from_expansion(d):
    # The closed-form unit used by top extraction must match both the wedge
    # product and the permutation-expansion oracle.
    full = (1 << d) - 1
    built = vol_form(d)
    assert set(built.terms) == {(full, full)}
    canonical_coeff = built.terms[(full, full)]
    assert canonical_coeff == I ** (d * d)
    (tup, oracle_coeff), = naive_vol(d).items()
    assert tup == tuple(range(1, d + 1)) + tuple(range(d + 1, 2 * d + 1))
    assert oracle_coeff == canonical_coeff


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_top_ratio_of_vol(d):
    assert top_ratio(vol_form(d)) == 1


def test_top_ratio_d1_scaling():
    a = Form.term(1, [1], [1], I * Fraction(5, 3))
    assert top_ratio(a) == Fraction(5, 3)


@pytest.mark.parametrize("d", [2, 3])
def test_top_matches_oracle_on_random_products(d):
    rng = random.Random(d * 31)
    for _ in range(25):
        ones = []
        for _ in range(2 * d):
            coeffs = {}
            for j in range(1, d + 1):
                bar = rng.random() < 0.5
                c = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                if c:
                    key = ((0, 1 << (j - 1)) if bar else (1 << (j - 1), 0))
                    coeffs[key] = coeffs.get(key, GaussianRational(0)) + c
            ones.append(Form(d, coeffs))
        prod = Form.scalar(d, 1)
        for f in ones:
            prod = wedge(prod, f)
        oracle = naive_top_coefficient(naive_product_of_forms(ones, d), d)
        if prod.is_zero():
            assert not oracle
        else:
            assert top_coefficient(prod) == oracle


def test_top_ratio_errors():
    with pytest.raises(ValueError):
        top_ratio(Form.dz(2, 1))
    # (d,d)-form with an imaginary ratio
    bad = Form.term(2, [1, 2], [1, 2], I)
    with pytest.raises(ValueError):
        top_ratio(bad)
    assert top_ratio(Form.zero(3)) == 0


# -- top pairings by coefficient lookup ------------------------------------------


def random_rational_form(rng, d, density, re_dens=(2, 3, 7), im_dens=(1, 5, 9)):
    """Each monomial of any bidegree with the given probability; re and im
    over different non-integer denominators."""
    terms = {}
    for key in all_monomials(d):
        if rng.random() < density:
            terms[key] = GaussianRational(
                Fraction(rng.randint(-5, 5), rng.choice(re_dens)),
                Fraction(rng.randint(-5, 5), rng.choice(im_dens)),
            )
    return Form(d, terms)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_form_results_stay_in_lowest_terms(d):
    # re and im over different denominators up to 100^3, so every operation
    # has common factors to take out.
    rng = random.Random(600 + d)
    for _ in range(6):
        a, b = (random_rational_form(rng, d, 0.4, (3, 100, 7 * 100**2), (9, 300, 100**3)) for _ in "ab")
        w = Fraction(rng.choice((-3, 7, 100)), rng.choice((21, 100**3)))
        results = [a, a + b, a - b, a - a, a.scale(w), a.scale(I), a.scale(0), wedge(a, b), conjugate(a)]
        assert all(form_in_lowest_terms(f) for f in results)
        assert all(Form(d, f.terms) == f for f in results)
        assert 2 * (Fraction(1, 2) * a) == a
        assert a - a == Form.zero(d)
        assert a.scale(I).scale(-I) == a
        assert conjugate(conjugate(a)) == a


@pytest.mark.parametrize("d", [3, 4])
def test_gram_of_a_scaled_form(d):
    rng = random.Random(650 + d)
    omega = schur((1,) * (d - 2), [random_positive_form(rng, d) for _ in range(2)])
    third = gram(omega.scale(Fraction(1, 3)))
    assert third == Fraction(1, 3) * gram(omega)
    assert in_lowest_terms(third)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_top_pairings_match_wedge_oracle_on_mixed_rational_forms(d):
    rng = random.Random(400 + d)
    nonzero = 0
    for _ in range(4):
        left = [random_rational_form(rng, d, 0.3) for _ in range(4)] + [Form.zero(d)]
        right = [random_rational_form(rng, d, 0.3) for _ in range(3)]
        omega = random_rational_form(rng, d, 0.5)
        got = gaussian_matrix(top_pairings(left, omega, right))
        assert got == pairing_by_wedge(left, omega, right)
        nonzero += sum(1 for row in got for x in row if x.re.denominator > 1 and x.im)
    assert nonzero > 0


@pytest.mark.parametrize("d", [1, 2, 4])
def test_top_pairings_zero_omega(d):
    basis = basis_11_real(d)
    got = gaussian_matrix(top_pairings(basis, Form.zero(d), basis))
    assert got == pairing_by_wedge(basis, Form.zero(d), basis)
    assert all(x == 0 for row in got for x in row)
    assert gaussian_matrix(top_pairings([], Form.scalar(d, 1), basis)) == []


def test_top_pairings_d1_unit_pairing():
    # At d = 1, i dz ^ dzb is the volume form, so it pairs with 1 as 1.
    basis = basis_11_real(1)
    one = [Form.scalar(1, 1)]
    assert gaussian_matrix(top_pairings(basis, Form.scalar(1, 3), one)) == [[GaussianRational(3)]]
    assert gaussian_matrix(top_pairings(one, basis[0], one)) == [[GaussianRational(1)]]
    assert gaussian_matrix(top_pairings(basis, Form.scalar(1, 1), basis)) == pairing_by_wedge(
        basis, Form.scalar(1, 1), basis
    ) == [[GaussianRational(0)]]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_top_pairings_ignore_off_degree_parts_of_omega(d):
    rng = random.Random(500 + d)
    basis = basis_11_real(d)
    middle = schur((1,) * (d - 2), [random_positive_form(rng, d) for _ in range(2)])
    extra = Form(
        d,
        {
            key: c
            for key, c in random_rational_form(rng, d, 0.4).terms.items()
            if key[0].bit_count() + key[1].bit_count() != 2 * (d - 2)
        },
    )
    assert extra
    expected = pairing_by_wedge(basis, middle, basis)
    assert gaussian_matrix(top_pairings(basis, middle + extra, basis)) == expected
    assert pairing_by_wedge(basis, middle + extra, basis) == expected
    assert gaussian_matrix(top_pairings(basis, middle, basis)) == expected


def parity_part(f, odd):
    """The monomials of f of odd (or even) total degree."""
    return Form(
        f.d, {key: c for key, c in f.terms.items() if (key[0].bit_count() + key[1].bit_count()) & 1 == odd}
    )


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_top_pairings_match_wedge_oracle_on_every_basis_shape(d):
    # One basis on both sides of even-degree forms takes the half-triangle
    # path, whether passed as one object or as equal copies; odd-degree forms
    # anticommute, so their matrix is not symmetric and must not be mirrored.
    rng = random.Random(700 + d)
    density = 0.3 if d <= 3 else 0.02
    forms = [random_positive_form(rng, d) for _ in range(2)]
    schur_parts = [schur((1,) * k, forms) for k in range(max(d - 2, 0), d + 1)]
    omega = sum(schur_parts, random_rational_form(rng, d, density))
    augmented = basis_11_real(d) + (Form.scalar(d, 1),)

    def coeff(*dens):
        return Fraction(rng.randint(1, 5), rng.choice(dens))

    rational = [
        parity_part(random_rational_form(rng, d, density), 0)
        + Form.term(d, [rng.randint(1, d)], [rng.randint(1, d)], coeff(7, 100))
        for _ in range(4)
    ]
    # Degree-1 parts meet omega's (d-1,d-1) part, so the odd matrix is not zero.
    one_forms = [Form(d, {(1 << j, 0): coeff(1, 3), (0, 1 << j): coeff(1, 3)}) for j in range(d) for _ in range(4)]
    odd = [parity_part(random_rational_form(rng, d, density), 1) + f for f in rng.sample(one_forms, 4)]
    cases = [
        (augmented, augmented),
        (list(augmented), [Form(d, f.terms) for f in augmented]),
        (rational, rational),
        (rational, list(rational)),
        (odd, odd),
        (rational, odd),
    ]
    for left, right in cases:
        got = gaussian_matrix(top_pairings(left, omega, right))
        assert got == pairing_by_wedge(left, omega, right)
    got = gaussian_matrix(top_pairings(odd, omega, odd))
    assert any(got[j][k] != got[k][j] for j in range(4) for k in range(4))
    got = gaussian_matrix(top_pairings(rational, omega, rational))
    assert any(x.re.denominator > 1 for row in got for x in row)


def test_top_pairings_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        top_pairings([Form.scalar(2, 1)], Form.scalar(3, 1), [Form.scalar(3, 1)])
    with pytest.raises(ValueError, match="dimension"):
        top_pairings([Form.scalar(3, 1)], Form.scalar(3, 1), [Form.scalar(2, 1)])


# -- Hermitian correspondence --------------------------------------------------


def test_identity_matrix_form():
    d = 3
    assert hermitian_to_form(HermitianMatrix.identity(d)) == identity_form(d)


def test_round_trip_random():
    rng = random.Random(11)
    for _ in range(20):
        H = random_hermitian(rng, 3)
        assert form_to_hermitian(hermitian_to_form(H)) == H


def test_half_i_off_diagonal_is_real():
    H = HermitianMatrix(
        [
            [GaussianRational(1), GaussianRational(0, Fraction(1, 2))],
            [GaussianRational(0, Fraction(-1, 2)), GaussianRational(2)],
        ]
    )
    a = hermitian_to_form(H)
    assert conjugate(a) == a


def test_form_to_hermitian_rejects_bad_input():
    with pytest.raises(ValueError):
        form_to_hermitian(Form.dz(2, 1))
    non_real = Form.term(2, [1], [2], GaussianRational(1))
    with pytest.raises(ValueError):
        form_to_hermitian(non_real)


def test_form_to_hermitian_keeps_its_error_messages():
    with pytest.raises(ValueError, match=r"expected a \(1,1\)-form"):
        form_to_hermitian(Form.term(3, [1, 2], [1, 2]))
    with pytest.raises(ValueError, match="form is not real"):
        form_to_hermitian(Form.term(2, [1], [2], GaussianRational(1)))
    with pytest.raises(ValueError, match="form is not real"):
        form_to_hermitian(Form.term(2, [1], [1]))  # real diagonal coefficient: H[0][0] = -i


# -- the Hermitian matrix as Gaussian integers over one denominator ----------------


def rational_hermitian_entries(rng, d):
    """Hermitian GaussianRational rows over mixed denominators, some zero."""
    def part():
        return Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 4, 6, 100]))

    rows = [[GaussianRational(0)] * d for _ in range(d)]
    for j in range(d):
        for k in range(j, d):
            z = GaussianRational(part(), 0 if j == k else part())
            rows[j][k], rows[k][j] = z, z.conjugate()
    return rows


def test_hermitian_matrix_is_in_lowest_terms_from_every_constructor():
    rng = random.Random(29)
    for d in (1, 2, 3, 4):
        for _ in range(6):
            entries = rational_hermitian_entries(rng, d)
            H = HermitianMatrix(entries)
            assert hermitian_in_lowest_terms(H)
            assert H.entries == tuple(map(tuple, entries))
            assert hermitian_in_lowest_terms(HermitianMatrix.from_json(H.to_json()))
            f = hermitian_to_form(H)
            assert form_in_lowest_terms(f)
            G = form_to_hermitian(f.scale(Fraction(2, 3)))
            assert hermitian_in_lowest_terms(G)
            assert G.entries == tuple(tuple(z * Fraction(2, 3) for z in row) for row in entries)
            for draw in (random_hermitian(rng, d), random_positive_hermitian(rng, d)):
                assert hermitian_in_lowest_terms(draw)
                assert hermitian_in_lowest_terms(form_to_hermitian(hermitian_to_form(draw)))
        assert hermitian_in_lowest_terms(HermitianMatrix.identity(d))
        assert hermitian_in_lowest_terms(HermitianMatrix([[0] * d for _ in range(d)]))
    H = HermitianMatrix.diagonal([Fraction(1, 2), Fraction(3, 4), 0])
    assert hermitian_in_lowest_terms(H)
    assert [H.entries[j][j] for j in range(3)] == [Fraction(1, 2), Fraction(3, 4), 0]


def test_hermitian_draws_match_their_definition():
    # The same rng calls in the same order, then A + A^H and B^H B + I over
    # Gaussian rationals: the seeded draws do not depend on the int arithmetic.
    for d in (1, 2, 3, 4):
        for seed in range(4):
            rng = random.Random(seed)
            a = [[random_gaussian_rational(rng) for _ in range(d)] for _ in range(d)]
            want = [[a[j][k] + a[k][j].conjugate() for k in range(d)] for j in range(d)]
            assert random_hermitian(random.Random(seed), d).entries == tuple(map(tuple, want))
            rng = random.Random(seed)
            b = [[random_gaussian_rational(rng) for _ in range(d)] for _ in range(d)]
            want = [
                [sum((bm[j].conjugate() * bm[k] for bm in b), GaussianRational(int(j == k))) for k in range(d)]
                for j in range(d)
            ]
            assert random_positive_hermitian(random.Random(seed), d).entries == tuple(map(tuple, want))


def test_trusted_constructor_reduces_by_the_gcd():
    H = HermitianMatrix._of(6, [[(4, 0), (2, -6)], [(2, 6), (0, 0)]])
    assert hermitian_in_lowest_terms(H)
    assert H == HermitianMatrix([[Fraction(2, 3), GaussianRational(Fraction(1, 3), -1)],
                                 [GaussianRational(Fraction(1, 3), 1), 0]])


def test_equal_hermitian_matrices_compare_equal():
    half = HermitianMatrix([[Fraction(2, 4), GaussianRational(Fraction(2, 6), Fraction(-4, 8))],
                            [GaussianRational(Fraction(1, 3), Fraction(1, 2)), 3]])
    same = HermitianMatrix([[Fraction(1, 2), GaussianRational(Fraction(1, 3), Fraction(-1, 2))],
                            [GaussianRational(Fraction(2, 6), Fraction(2, 4)), Fraction(6, 2)]])
    assert half == same
    assert HermitianMatrix([[Fraction(2, 4)]]) == HermitianMatrix([[Fraction(1, 2)]])
    assert HermitianMatrix.diagonal([Fraction(2, 4)]) == HermitianMatrix([[Fraction(1, 2)]])
    assert HermitianMatrix([[Fraction(2, 4)]]) != HermitianMatrix([[Fraction(1, 4)]])
    assert form_to_hermitian(hermitian_to_form(half)) == same


def test_two_det_identity():
    rng = random.Random(23)
    for _ in range(20):
        H = random_hermitian(rng, 2)
        alpha = hermitian_to_form(H)
        det = H.entries[0][0] * H.entries[1][1] - H.entries[0][1] * H.entries[1][0]
        assert det.is_real()
        assert top_ratio(wedge(alpha, alpha)) == 2 * det.re


# -- the real (1,1) basis -------------------------------------------------------


def test_basis_lengths():
    assert len(basis_11_real(1)) == 1
    assert basis_11_real(1)[0] == Form.term(1, [1], [1], I)
    assert len(basis_11_real(2)) == 4
    assert len(basis_11_real(5)) == 25


@pytest.mark.parametrize("d", [1, 2, 3])
def test_basis_forms_are_real(d):
    for f in basis_11_real(d):
        assert conjugate(f) == f


def test_basis_coords_round_trip():
    rng = random.Random(5)
    d = 3
    basis = basis_11_real(d)
    for k, f in enumerate(basis):
        coords = coords_11_real(f)
        assert coords == [Fraction(i == k) for i in range(d * d)]
    for _ in range(10):
        a = hermitian_to_form(random_hermitian(rng, d))
        coords = coords_11_real(a)
        rebuilt = Form.zero(d)
        for c, f in zip(coords, basis):
            rebuilt = rebuilt + f.scale(c)
        assert rebuilt == a


# -- mixed discriminant ---------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mixed_discriminant_normalization(d):
    # Frozen normalization: the d-fold wedge of matrix avatars integrates to
    # d! times the double-sum mixed discriminant.
    import math

    rng = random.Random(100 + d)
    for _ in range(8):
        mats = [random_hermitian(rng, d, box=1) for _ in range(d)]
        prod = Form.scalar(d, 1)
        for M in mats:
            prod = wedge(prod, hermitian_to_form(M))
        val = mixed_discriminant(mats)
        assert val.is_real()
        assert top_ratio(prod) == math.factorial(d) * val.re


def test_mixed_discriminant_diagonal_agreement():
    # All arguments equal gives the determinant; checked against the minor
    # formula on a 2x2.
    H = HermitianMatrix(
        [[GaussianRational(3), GaussianRational(1, 2)], [GaussianRational(1, -2), GaussianRational(4)]]
    )
    det = H.entries[0][0] * H.entries[1][1] - H.entries[0][1] * H.entries[1][0]
    assert mixed_discriminant([H, H]) == det


# -- serialization ---------------------------------------------------------------


def test_form_json_round_trip():
    rng = random.Random(3)
    f = hermitian_to_form(random_positive_hermitian(rng, 3))
    obj = f.to_json()
    assert obj["dimension"] == 3
    for t in obj["terms"]:
        assert set(t["monomial"]) == {"dz", "dzbar"}
        assert set(t["coeff"]) == {"re", "im"}
        assert "/" in t["coeff"]["re"]
    assert Form.from_json(obj) == f


def outcome(read, obj):
    """("form", the Form read) or ("error", exception type, message)."""
    try:
        return ("form", read(obj))
    except Exception as exc:
        return ("error", type(exc), str(exc))


def test_form_from_json_matches_the_constructor_route():
    rng = random.Random(19)
    for d in (1, 2, 3, 5):
        for _ in range(4):
            f = random_rational_form(rng, d, 0.3, (1, 3, 100), (1, 7, 100**3))
            obj = json.loads(json.dumps(f.to_json()))
            got = Form.from_json(obj)
            assert got == form_from_json_by_constructor(obj) == f
            assert form_in_lowest_terms(got)
    # Zero coefficients are dropped; unreduced and mixed spellings still give lowest terms.
    obj = {
        "dimension": 2,
        "terms": [
            {"monomial": {"dz": [1], "dzbar": [1]}, "coeff": {"re": "6/4", "im": "0/5"}},
            {"monomial": {"dz": [2], "dzbar": [1]}, "coeff": {"re": "0/9", "im": "-0/3"}},
            {"monomial": {"dz": [1, 2], "dzbar": []}, "coeff": {"re": 2, "im": "0.25"}},
        ],
    }
    assert Form.from_json(obj) == form_from_json_by_constructor(obj)
    assert form_in_lowest_terms(Form.from_json(obj))


def test_form_from_json_accepts_and_refuses_what_the_constructor_route_does():
    def form(d, *terms):
        return {
            "dimension": d,
            "terms": [
                {"monomial": {"dz": dz, "dzbar": dzb}, "coeff": {"re": re, "im": im}} for dz, dzb, re, im in terms
            ],
        }

    spellings = ["1/0", "1e3", 0.5, True, "３/7", "+3/7", " 3/7 ", "3_0/7", "-0/5", "0.25", "7/0"]
    spellings.append("1" * 5000 + "/7")  # past the int-string digit limit
    inputs = [form(2, ([1], [2], s, "1/3")) for s in spellings]
    inputs += [form(2, ([2], [1], "1/2", s)) for s in spellings]
    inputs += [
        form(3, ([1], [2], "1/2", "0/1"), ([1], [2], "1/3", "0/1")),  # duplicate monomial
        form(3, ([1], [4], "1/2", "0/1")),  # index outside 1..d
        form(3, ([0], [1], "1/2", "0/1")),
        form(0),
        form(2, ([1], [1], "1/2", "0/1"), ([1, 1], [2], "1", "0")),  # repeated index
    ]
    for obj in inputs:
        want = outcome(form_from_json_by_constructor, obj)
        assert outcome(Form.from_json, obj) == want, obj
    kinds = [outcome(Form.from_json, obj)[:2] for obj in inputs]
    assert ("error", ValueError) in kinds and ("error", TypeError) in kinds
    assert sum(k[0] == "form" for k in kinds) >= 10


def test_hermitian_json_round_trip():
    rng = random.Random(4)
    H = random_hermitian(rng, 3)
    assert HermitianMatrix.from_json(H.to_json()) == H


@pytest.mark.parametrize(
    "value, invariant",
    [
        (Form(2, {(1, 1): GaussianRational(Fraction(1, 3), 2), (1, 2): Fraction(-2, 9)}), form_in_lowest_terms),
        (
            HermitianMatrix([[Fraction(1, 2), GaussianRational(1, Fraction(1, 3))],
                             [GaussianRational(1, Fraction(-1, 3)), 2]]),
            hermitian_in_lowest_terms,
        ),
        (SymBilinearForm([[Fraction(1, 2), 3], [3, Fraction(-5, 4)]]), in_lowest_terms),
        (GaussianRational(Fraction(1, 3), -2), lambda z: type(z.re) is type(z.im) is Fraction),
    ],
    ids=["Form", "HermitianMatrix", "SymBilinearForm", "GaussianRational"],
)
@pytest.mark.parametrize(
    "duplicate", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_exact_values_pickle_and_copy(value, invariant, duplicate):
    # Worker processes receive campaign inputs pickled.
    twin = duplicate(value)
    assert type(twin) is type(value) and twin == value
    assert invariant(twin)
    with pytest.raises(AttributeError, match="immutable"):
        setattr(twin, "d", 1)


def test_hermitian_validation():
    with pytest.raises(ValueError):
        HermitianMatrix([[GaussianRational(0, 1)]])
    with pytest.raises(ValueError):
        HermitianMatrix(
            [[GaussianRational(1), GaussianRational(1)], [GaussianRational(2), GaussianRational(1)]]
        )
