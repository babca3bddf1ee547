import random
import warnings
from fractions import Fraction

import pytest

import hrlab.symfunc
from hrlab.exterior import Form, HermitianMatrix, hermitian_to_form, identity_form, pencil_power_sum, wedge
from hrlab.sampling import random_hermitian, random_positive_form
from hrlab.symfunc import (
    Partition,
    _lattice_weights,
    derived_schur,
    derived_schur_all,
    elementary_elements,
    partitions,
    schur,
    schur_elements,
    twisted_chern_elements,
)

from oracles import (
    Poly,
    UniPoly,
    WeightVector,
    brute_partitions,
    derived_schur_all_elements,
    elementary,
    lattice_weights_by_solve,
    oracle_elementary,
    oracle_schur,
    schur_by_permutations,
    schur_combination,
    twisted_chern,
)


def poly_vars(n):
    return [Poly.var(i, n) for i in range(n)]


def all_small_partitions(max_weight):
    out = []
    for b in range(max_weight + 1):
        out.extend(partitions(b, max(b, 1)))
    return out


# -- partitions ----------------------------------------------------------------


def test_partition_examples():
    assert [p.parts for p in partitions(0, 3)] == [()]
    assert [p.parts for p in partitions(2, 2)] == [(2,), (1, 1)]
    assert [p.parts for p in partitions(3, 3)] == [(3,), (2, 1), (1, 1, 1)]


def test_partitions_order_and_counts():
    for b in range(9):
        for e in range(1, 5):
            got = [p.parts for p in partitions(b, e)]
            assert set(got) == brute_partitions(b, e)
            assert got == sorted(got, reverse=True)
            assert len(set(got)) == len(got)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition((3, 1)).weight == 4
    assert Partition(()).largest == 0
    assert Partition((2, 1)).padded(4) == (2, 1, 0, 0)
    with pytest.raises(ValueError):
        Partition((2, 1)).padded(1)
    assert Partition.from_json([2, 1]).parts == (2, 1)
    assert Partition((2, 1)).to_json() == [2, 1]


def test_weight_vector_validation():
    WeightVector([Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        WeightVector([Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ValueError):
        WeightVector([Fraction(3, 2), Fraction(-1, 2)])
    w = WeightVector.from_json(["1/4", "3/4"])
    assert w.to_json() == ["1/4", "3/4"]


# -- elementary ------------------------------------------------------------------


def test_elementary_examples():
    d = 3
    w1, w2 = identity_form(d), identity_form(d).scale(2)
    assert elementary(0, [w1, w2]) == Form.scalar(d, 1)
    assert elementary(1, [w1, w2]) == w1 + w2
    assert elementary(3, [w1, w2]).is_zero()
    with pytest.raises(ValueError):
        elementary(1, [identity_form(2), identity_form(3)])


def test_elementary_matches_subset_oracle():
    for e in range(1, 5):
        xs = poly_vars(e)
        for k in range(0, e + 2):
            assert elementary_elements(k, xs, Poly.const(e, 1)) == oracle_elementary(k, xs)


# -- schur ------------------------------------------------------------------------


def test_schur_single_row_is_chern():
    d = 4
    rng = random.Random(2)
    forms = [random_positive_form(rng, d) for _ in range(2)]
    assert schur((1,), forms) == forms[0] + forms[1]
    assert schur((2,), forms) == elementary(2, forms)
    assert schur((), forms) == Form.scalar(d, 1)


def test_schur_scalar_example():
    xs = poly_vars(2)
    a, b = xs
    want = a * a + a * b + b * b
    assert schur_elements((1, 1), xs, Poly.const(2, 1)) == want


def test_schur_cofactor_oracle_agreement():
    one = lambda e: Poly.const(e, 1)
    for e in range(1, 4):
        xs = poly_vars(e)
        for lam in all_small_partitions(4):
            got = schur_elements(lam, xs, one(e))
            want = oracle_schur(lam.parts, e)
            assert got == want, (lam, e)


def test_zero_padding_invariance():
    d = 4
    rng = random.Random(8)
    forms = [random_positive_form(rng, d) for _ in range(2)]
    lam = Partition((2,))
    base = schur(lam, forms)
    for extra in (1, 2):
        parts = lam.parts + (0,) * extra
        # zero parts are not valid Partition entries; evaluate via the padded
        # determinant directly
        one = Form.scalar(d, 1)
        got = schur_by_permutations(parts, forms, one)
        assert got == base
    xs = poly_vars(2)
    assert schur_by_permutations((1, 1, 0), xs, Poly.const(2, 1)) == schur_elements(
        (1, 1), xs, Poly.const(2, 1)
    )


def test_schur_warns_when_part_exceeds_form_count():
    d = 4
    forms = [identity_form(d)]
    with pytest.warns(RuntimeWarning):
        out = schur((2,), forms)
    assert out.is_zero()


def test_schur_matches_permutation_oracle_on_forms():
    # Every partition of d - 2, parts above e and (1^4) included.
    for d in range(4, 7):
        for e in range(1, 4):
            rng = random.Random(100 * d + e)
            forms = [random_positive_form(rng, d) for _ in range(e)]
            one = Form.scalar(d, 1)
            for lam in partitions(d - 2, d - 2):
                want = schur_by_permutations(lam.parts, forms, one)
                assert schur_elements(lam, forms, one) == want, (d, e, lam)


# -- the pencil route ----------------------------------------------------------------
# schur takes it when 2 <= |lam| <= d, the lattice has at most 4^(d-2) points
# and pencil_power_sum accepts the forms: real (1,1)-forms, whose pencil is
# positive definite at every lattice point when 2|lam| > d.  Strict
# positivity is not decided there.  The wedge route, schur_elements over
# forms, is its oracle.


def wedge_route(lam, forms):
    return schur_elements(lam, forms, Form.scalar(forms[0].d, 1))


def positive_forms(d, e, seed):
    rng = random.Random(seed)
    return [random_positive_form(rng, d) for _ in range(e)]


def test_pencil_route_equals_wedge_route_at_weight_d_minus_2():
    for d in range(2, 8):
        for e in range(1, 4):
            forms = positive_forms(d, e, 300 * d + e)
            for lam in partitions(d - 2, max(d - 2, 1)):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    assert schur(lam, forms) == wedge_route(lam, forms), (d, e, lam)


def test_pencil_route_on_both_sides_of_half_the_dimension():
    # At d = 5, weight 2 reads p-minors of the pencil, weights 4 and 5
    # (d - p)-minors of its adjugate; weight 1 takes the wedge route.
    d = 5
    for e in range(1, 4):
        forms = positive_forms(d, e, 400 + e)
        for p in (1, 2, d - 1, d):
            for lam in partitions(p, p):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    assert schur(lam, forms) == wedge_route(lam, forms), (e, lam)


def test_pencil_route_at_d_8():
    for e, lam in ((2, (1,) * 6), (3, (2, 2, 1, 1))):
        forms = positive_forms(8, e, 500 + e)
        assert schur(lam, forms) == wedge_route(lam, forms), (e, lam)


def test_route_follows_weight_and_lattice_size(monkeypatch):
    calls = []

    def recording(*args):
        calls.append(args[1])
        return pencil_power_sum(*args)

    monkeypatch.setattr(hrlab.symfunc, "pencil_power_sum", recording)
    cases = (
        (6, (1, 1, 1, 1), 4, True),  # e = |lam|
        (6, (1, 1, 1, 1), 5, True),  # e = |lam| + 1
        (6, (1, 1, 1, 1), 7, True),  # 210 points, 4^4 = 256
        (6, (1, 1, 1, 1), 8, False),  # 330 points
        (4, (1, 1), 5, True),  # 15 points, 4^2 = 16
        (4, (1, 1), 6, False),  # 21 points
        (2, (1, 1), 1, True),  # 1 point, 4^0 = 1
        (2, (1, 1), 2, False),  # 3 points
        (5, (1,), 1, False),  # weight 1
        (3, (1, 1, 1, 1), 1, False),  # weight above d, 1 point
    )
    for d, lam, e, routed in cases:
        calls.clear()
        forms = positive_forms(d, e, 600 + 10 * d + e)
        assert schur(lam, forms) == wedge_route(lam, forms), (d, lam, e)
        assert calls == ([sum(lam)] if routed else []), (d, lam, e)


def test_forms_off_the_route_give_the_wedge_result():
    # At 2p <= d the pencil reads minors of the matrices themselves, exact for
    # any real (1,1)-forms.  At 2p > d it needs the adjugate of a positive
    # definite pencil at every lattice point, and the first point is the first
    # form's matrix.  Forms that are not real (1,1)-forms never take it.
    d = 4
    w = positive_forms(d, 1, 700)[0]
    rank_one = hermitian_to_form(HermitianMatrix([[1, 1, 0, 0], [1, 1, 0, 0], [0] * 4, [0] * 4]))
    indefinite = hermitian_to_form(HermitianMatrix.diagonal([1, -1, 2, 3]))
    not_real = Form.term(d, [1], [2])
    not_11 = wedge(w, w)
    for p in (2, 3, 4):
        for lam in partitions(p, 2):
            weights = _lattice_weights(lam, 2)
            for bad in (rank_one, indefinite, Form.zero(d)):
                assert pencil_power_sum([w, bad], p, weights) == wedge_route(lam, [w, bad]), (bad, lam)
                want = wedge_route(lam, [bad, w]) if 2 * p <= d else None
                assert pencil_power_sum([bad, w], p, weights) == want, (bad, lam)
            for bad in (not_real, not_11):
                for forms in ([w, bad], [bad, w]):
                    assert pencil_power_sum(forms, p, weights) is None, (bad, lam)
    for bad in (rank_one, indefinite, not_real, not_11, Form.zero(d)):
        for forms in ([w, bad], [bad, w]):
            for lam in ((1, 1), (2,), (2, 1), (1, 1, 1)):
                assert schur(lam, forms) == wedge_route(lam, forms), (bad, lam)


def test_pencil_route_on_hermitian_draws_mixed_with_positive_forms(monkeypatch):
    # Indefinite, singular and definite draws of random_hermitian, in any
    # position among positive forms: schur gives the wedge result whichever
    # route it takes.
    taken = []

    def recording(*args):
        out = pencil_power_sum(*args)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(hrlab.symfunc, "pencil_power_sum", recording)
    rng = random.Random(1000)
    for d in range(2, 7):
        for e in range(1, 4):
            for _ in range(3):
                forms = [
                    hermitian_to_form(random_hermitian(rng, d)) if rng.random() < 0.5
                    else random_positive_form(rng, d)
                    for _ in range(e)
                ]
                for p in range(2, d + 1):
                    for lam in partitions(p, p):
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore")
                            assert schur(lam, forms) == wedge_route(lam, forms), (d, e, lam)
    assert True in taken and False in taken


def test_weight_above_d_gives_the_zero_form():
    # A (1,1)-form's p-th power vanishes for p > d, on both routes.
    forms = positive_forms(2, 2, 750)
    assert wedge_route((2, 1), forms).is_zero()
    assert schur((2, 1), forms).is_zero()
    assert pencil_power_sum(forms, 3, _lattice_weights(Partition((2, 1)), 2)) == Form.zero(2)


def test_empty_partition_gives_the_unit_form():
    for e in range(1, 4):
        forms = positive_forms(4, e, 800 + e)
        assert schur((), forms) == Form.scalar(4, 1)


def test_part_above_e_gives_zero_and_warns_on_the_pencil_route():
    for e, lam in ((1, (2, 1)), (2, (3,)), (2, (3, 1))):
        forms = positive_forms(5, e, 900 + e)
        with pytest.warns(RuntimeWarning):
            out = schur(lam, forms)
        assert out.is_zero()


def test_lattice_weights_match_a_dense_solve():
    # e up to |lam| for every weight up to 5, and two more forms for weights
    # 2 and 3: the pencil route also runs with more forms than |lam|.
    for p in range(1, 6):
        lams = partitions(p, p)
        for e in range(1, p + 1 + 2 * (p in (2, 3))):
            want = lattice_weights_by_solve([lam.parts for lam in lams], e)
            for lam, w in zip(lams, want):
                assert _lattice_weights(lam, e) == w, (lam, e)


# -- derived schur ------------------------------------------------------------------


def test_derived_schur_scalar_examples():
    one = Poly.const(2, 1)
    xs = poly_vars(2)
    all_coeffs = derived_schur_all_elements((1,), xs, one)
    assert all_coeffs[0] == xs[0] + xs[1]
    assert all_coeffs[1] == Poly.const(2, 2)
    assert derived_schur_all_elements((1, 1), xs, one)[2] == Poly.const(2, 3)


def test_derived_schur_out_of_range_is_zero():
    d = 3
    forms = [identity_form(d)]
    assert derived_schur((1,), forms, 5).is_zero()
    assert derived_schur((1,), forms, -1).is_zero()
    assert derived_schur((1,), forms, 0) == schur((1,), forms)


def test_derived_schur_all_matches_unipoly_oracle_on_forms():
    for d in range(2, 6):
        for e in range(1, 4):
            rng = random.Random(200 * d + e)
            forms = [random_positive_form(rng, d) for _ in range(e)]
            one = Form.scalar(d, 1)
            for lam in partitions(d - 2, max(d - 2, 1)):
                want = derived_schur_all_elements(lam, forms, one)
                assert derived_schur_all(lam, forms) == want, (d, e, lam)


def test_derived_schur_rejects_forms_not_of_bidegree_11():
    d = 3
    w = identity_form(d)
    for bad in (Form.scalar(d, 1), w + Form.scalar(d, 1), wedge(w, w), Form.dz(d, 1)):
        with pytest.raises(ValueError):
            derived_schur_all((1,), [w, bad])
        with pytest.raises(ValueError):
            derived_schur((1,), [w, bad], 0)


def test_derived_schur_monomial_positive():
    for e in range(1, 4):
        xs = poly_vars(e)
        one = Poly.const(e, 1)
        for lam in all_small_partitions(4):
            for j in range(lam.weight + 1):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    val = derived_schur_all_elements(lam, xs, one)[j]
                assert all(c >= 0 for c in val.terms.values()), (lam, e, j)


def test_twist_identity_with_concrete_form():
    d = 4
    rng = random.Random(12)
    forms = [random_positive_form(rng, d) for _ in range(2)]
    delta = random_positive_form(rng, d)
    lam = Partition((2,))
    shifted = schur(lam, [f + delta for f in forms])
    total = Form.zero(d)
    dpow = Form.scalar(d, 1)
    for j in range(lam.weight + 1):
        total = total + wedge(derived_schur(lam, forms, j), dpow)
        dpow = wedge(dpow, delta)
    assert shifted == total


def test_twist_identity_formal_variable():
    # Expand with an extra scalar variable standing for the shift.
    e = 2
    n = e + 1
    xs = [Poly.var(i, n) for i in range(e)]
    delta = Poly.var(e, n)
    one = Poly.const(n, 1)
    for lam in all_small_partitions(3):
        shifted = schur_elements(lam, [x + delta for x in xs], one)
        coeffs = derived_schur_all_elements(lam, xs, one)
        total = Poly(n)
        dpow = one
        for j in range(lam.weight + 1):
            total = total + coeffs[j] * dpow
            dpow = dpow * delta
        assert shifted == total, lam


# -- twisted chern ---------------------------------------------------------------


def test_twisted_chern_small_cases():
    e = 2
    n = e + 1
    xs = [Poly.var(i, n) for i in range(e)]
    delta = Poly.var(e, n)
    one = Poly.const(n, 1)
    cs = [oracle_elementary(k, xs) for k in range(e + 1)]
    assert twisted_chern_elements(cs, e, delta, 0, one) == one
    assert twisted_chern_elements(cs, e, delta, 1, one) == cs[1] + 2 * delta
    assert twisted_chern_elements(cs, e, delta, 2, one) == cs[2] + cs[1] * delta + delta * delta
    with pytest.raises(ValueError):
        twisted_chern_elements(cs, e, delta, 3, one)


def test_twisted_chern_matches_root_shift():
    for e in range(1, 4):
        n = e + 1
        xs = [Poly.var(i, n) for i in range(e)]
        delta = Poly.var(e, n)
        one = Poly.const(n, 1)
        cs = [oracle_elementary(k, xs) for k in range(e + 1)]
        shifted = [x + delta for x in xs]
        for p in range(e + 1):
            want = oracle_elementary(p, shifted)
            assert twisted_chern_elements(cs, e, delta, p, one) == want, (e, p)


def test_twisted_chern_with_forms():
    d = 4
    rng = random.Random(33)
    roots = [random_positive_form(rng, d) for _ in range(2)]
    delta = random_positive_form(rng, d)
    cs = [elementary(k, roots) for k in range(3)]
    for p in range(3):
        assert twisted_chern(cs, 2, delta, p) == elementary(p, [r + delta for r in roots])


# -- convex combinations ------------------------------------------------------------


def test_schur_combination_vertex():
    d = 4
    rng = random.Random(9)
    forms = [random_positive_form(rng, d) for _ in range(2)]
    lams = partitions(2, 2)
    w = WeightVector([Fraction(1), Fraction(0)])
    assert schur_combination(w, 2, 2, forms) == schur(lams[0], forms)


def test_schur_combination_average_scalars():
    xs = poly_vars(2)
    one = Poly.const(2, 1)
    s_20 = schur_elements((2,), xs, one)
    s_11 = schur_elements((1, 1), xs, one)
    half = Fraction(1, 2)
    want = (s_20 + s_11) * half
    # combination in the form layer with matching weights
    d = 3
    rng = random.Random(10)
    forms = [random_positive_form(rng, d) for _ in range(2)]
    combo = schur_combination(WeightVector([half, half]), 2, 2, forms)
    direct = (schur((2,), forms) + schur((1, 1), forms)).scale(half)
    assert combo == direct
    assert want == (s_20 * half) + (s_11 * half)


def test_schur_combination_zero_forms():
    d = 3
    zero = Form.zero(d)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        combo = schur_combination(WeightVector([Fraction(1)]), 1, 1, [zero])
    assert combo.is_zero()


def test_schur_combination_length_mismatch():
    d = 4
    forms = [identity_form(d)]
    with pytest.raises(ValueError):
        schur_combination(WeightVector([Fraction(1)]), 2, 2, forms)


# -- UniPoly ---------------------------------------------------------------------


def test_unipoly_basics():
    one = Poly.const(1, 1)
    x = Poly.var(0, 1)
    p = UniPoly((x, one))
    q = p * p
    assert q.coeff(0) == x * x
    assert q.coeff(1) == 2 * x
    assert q.coeff(2) == one
    assert q.coeff(5) == Poly(1)
    assert UniPoly((x,)) == UniPoly((x, Poly(1)))
