import random
import warnings
from fractions import Fraction

import pytest

from hrlab.exterior import Form, identity_form, wedge
from hrlab.sampling import random_positive_form
from hrlab.symfunc import (
    Partition,
    WeightVector,
    derived_schur,
    derived_schur_all,
    elementary,
    elementary_elements,
    partitions,
    schur,
    schur_combination,
    schur_elements,
    twisted_chern,
    twisted_chern_elements,
)

from oracles import (
    Poly,
    UniPoly,
    brute_partitions,
    derived_schur_all_elements,
    oracle_elementary,
    oracle_schur,
    schur_by_permutations,
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
