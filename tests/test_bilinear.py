import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hrlab import bilinear
from hrlab.bilinear import (
    ROUNDED_FROM_N,
    Signature,
    SymBilinearForm,
    _congruence,
    _congruence_vector,
    _count_signs,
    _dominant_inertia,
    _FamilyChain,
    _inertia,
    _realified,
    _rounded_congruence,
    _sample_rows,
    combine,
    derivative_inequality_defect,
    derivative_inequality_inertia,
    gram,
    hermitian_inertia,
    hodge_index_defect,
    hodge_index_inertia,
    is_hr,
    is_hr_wrt,
    is_psd,
    is_weak_hr_wrt,
    kernel_basis,
    primitive_restriction,
    proportionality_witness,
    signature,
    solve_in_span,
)
from hrlab.exterior import (
    Form,
    HermitianMatrix,
    coords_11_real,
    hermitian_to_form,
    identity_form,
)
from hrlab.gaussian import GaussianRational
from hrlab.sampling import random_hermitian, random_positive_form
from hrlab.symfunc import partitions, schur

from oracles import (
    berkowitz_inertia,
    descartes_inertia,
    dominant_inertia_by_product,
    family_bound_admits,
    family_bound_rows,
    fraction_combination,
    fraction_congruence_inertia,
    fraction_derivative_inequality_defect,
    fraction_hodge_index_defect,
    full_block_congruence,
    in_lowest_terms,
    mixed_vector,
    naive_product_of_forms,
    naive_top_coefficient,
    pairing_by_wedge,
    random_symmetric_rows,
    rational_rows,
    realified,
)
from hrlab.augmentation import AugmentedSpace, check_property_a, check_property_b, twist_family
from hrlab.exterior import basis_11_real


def diag(*vals):
    n = len(vals)
    return SymBilinearForm(
        [[Fraction(vals[i]) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    )


def e(i, n):
    return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))


def random_invertible(rng, n):
    # product of unit triangular matrices and a permutation: exactly invertible
    lower = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    upper = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-2, 2))
            upper[j][i] = Fraction(rng.randint(-2, 2))
    perm = list(range(n))
    rng.shuffle(perm)
    pm = [[Fraction(1 if perm[i] == j else 0) for j in range(n)] for i in range(n)]

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    return matmul(matmul(lower, upper), pm)


def congruent(Q, P):
    n = Q.n
    rows = [
        [
            sum(P[k][i] * Q.matrix[k][m] * P[m][j] for k in range(n) for m in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return SymBilinearForm(rows)


# -- signatures -------------------------------------------------------------


def test_signature_examples():
    assert signature(diag(2, -3, 0)) == Signature(1, 1, 1)
    hyper = SymBilinearForm([[0, 1], [1, 0]])
    assert signature(hyper) == Signature(1, 1, 0)
    assert signature(diag(0, 0)) == Signature(0, 0, 2)


def test_signature_congruence_invariance():
    rng = random.Random(17)
    for n in (2, 3, 4, 5):
        for _ in range(15):
            Q = SymBilinearForm(random_symmetric_rows(rng, n))
            P = random_invertible(rng, n)
            assert signature(congruent(Q, P)) == signature(Q)


def test_symmetry_validation():
    with pytest.raises(ValueError):
        SymBilinearForm([[0, 1], [2, 0]])


def test_sym_form_json_round_trip():
    Q = SymBilinearForm([[Fraction(1, 2), 1], [1, 0]])
    got = SymBilinearForm.from_json(Q.to_json())
    assert got == Q
    assert Q.to_json()["matrix"][0][0] == "1/2"


# -- HR predicates ------------------------------------------------------------


def test_is_hr_examples():
    n3 = 3
    assert is_hr_wrt(diag(1, -1, -1), e(0, n3))
    assert not is_hr(diag(1, 1, -1))
    assert not is_hr(diag(1, -1, 0))


def test_weak_hr_examples():
    assert is_weak_hr_wrt(diag(1, 0, -1), e(0, 3))
    assert not is_weak_hr_wrt(diag(1, 1, -1), e(0, 3))
    assert not is_weak_hr_wrt(diag(1, 1, -1), e(2, 3))


def test_rank_drop_member_weak_not_hr():
    # (x1+x2)^2 - x3^2: weak with respect to e1, one-dimensional kernel
    Q = SymBilinearForm([[1, 1, 0], [1, 1, 0], [0, 0, -1]])
    assert is_weak_hr_wrt(Q, e(0, 3))
    assert not is_hr(Q)
    assert signature(Q) == Signature(1, 1, 1)


# -- hodge index defect ---------------------------------------------------------


def test_defect_examples():
    T = hodge_index_defect(diag(1, -1), e(0, 2))
    assert T.matrix == ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)))
    assert is_psd(T)
    T2 = hodge_index_defect(diag(1, 1), e(0, 2))
    assert T2.matrix == ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(-1)))
    assert not is_psd(T2)


def test_defect_equality_locus_on_hr_instances():
    rng = random.Random(31)
    for n in (2, 3, 4):
        for _ in range(10):
            P = random_invertible(rng, n)
            Q = congruent(diag(*([1] + [-1] * (n - 1))), P)
            # P h = e1 makes h the known positive direction of the congruence
            cols = [tuple(P[r][c] for r in range(n)) for c in range(n)]
            h = solve_in_span(cols, e(0, n))
            assert Q.quad(h) > 0
            T = hodge_index_defect(Q, h)
            assert is_psd(T)
            null = kernel_basis([list(r) for r in T.matrix])
            assert len(null) == 1
            k = next(i for i in range(n) if h[i] != 0)
            factor = null[0][k] / h[k]
            assert factor != 0
            assert all(x == factor * y for x, y in zip(null[0], h))


def test_weak_hr_iff_defect_psd():
    rng = random.Random(41)
    for n in (2, 3, 4):
        for _ in range(60):
            Q = SymBilinearForm(random_symmetric_rows(rng, n, box=3))
            h = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            lhs = is_weak_hr_wrt(Q, h)
            rhs = Q.quad(h) > 0 and is_psd(hodge_index_defect(Q, h))
            assert lhs == rhs


# -- primitive restriction --------------------------------------------------------


def test_primitive_restriction_examples():
    R = primitive_restriction(diag(1, -1, -1), e(0, 3))
    assert signature(R) == Signature(0, 2, 0)
    degenerate = primitive_restriction(diag(1, 0), e(0, 2))
    assert signature(degenerate) == Signature(0, 0, 1)
    with pytest.raises(ValueError):
        primitive_restriction(diag(0, 1), e(0, 2))


def test_minkowski_primitive_restriction():
    g = gram(Form.scalar(2, 1))
    h = tuple(coords_11_real(identity_form(2)))
    R = primitive_restriction(g, h)
    assert signature(R) == Signature(0, 3, 0)


def test_four_characterizations_agree():
    # The four characterizations agree on random forms admitting a positive
    # direction: signature; primitive restriction negative definite at one h;
    # at several h'; defect PSD with one-dimensional kernel.
    rng = random.Random(53)
    for n in (2, 3, 4):
        count = 0
        while count < 40:
            Q = SymBilinearForm(random_symmetric_rows(rng, n, box=3))
            hs = []
            for _ in range(60):
                v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
                if Q.quad(v) > 0:
                    hs.append(v)
                if len(hs) == 4:
                    break
            if not hs:
                continue
            count += 1
            c1 = is_hr(Q)
            c2 = signature(primitive_restriction(Q, hs[0])) == Signature(0, n - 1, 0)
            c3 = all(
                signature(primitive_restriction(Q, h)) == Signature(0, n - 1, 0)
                for h in hs
            )
            T = hodge_index_defect(Q, hs[0])
            c4 = is_psd(T) and signature(T).n_zero == 1
            assert c1 == c2 == c3 == c4, (Q.matrix, hs)


# -- proportionality -----------------------------------------------------------------


def test_proportionality_trivial_cases():
    Q = diag(1, -1, -1)
    vprime = [(Fraction(1), Fraction(1), Fraction(0)), (Fraction(0), Fraction(0), Fraction(1))]
    gamma = (Fraction(1), Fraction(1), Fraction(0))
    zero = (Fraction(0),) * 3
    assert proportionality_witness(Q, vprime, zero, gamma) == 0
    beta = (Fraction(3), Fraction(3), Fraction(0))
    assert proportionality_witness(Q, vprime, beta, gamma) == 3


def test_proportionality_randomized_null_cone():
    rng = random.Random(71)
    Q = diag(1, -1, -1)
    vprime = [(Fraction(1), Fraction(1), Fraction(0)), (Fraction(0), Fraction(0), Fraction(1))]
    for _ in range(10):
        s = Fraction(rng.randint(-5, 5))
        t = Fraction(rng.randint(1, 5))
        beta = (s, s, Fraction(0))
        gamma = (t, t, Fraction(0))
        assert proportionality_witness(Q, vprime, beta, gamma) == s / t


def test_proportionality_hypothesis_violations():
    Q = diag(1, -1, -1)
    vprime = [(Fraction(1), Fraction(1), Fraction(0)), (Fraction(0), Fraction(0), Fraction(1))]
    gamma = (Fraction(1), Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        proportionality_witness(diag(1, 1, -1), vprime, gamma, gamma)
    with pytest.raises(ValueError):
        proportionality_witness(Q, vprime, (Fraction(1), Fraction(0), Fraction(0)), gamma)
    with pytest.raises(ValueError):
        proportionality_witness(Q, vprime, gamma, (Fraction(0),) * 3)
    with pytest.raises(ValueError):
        bad_sub = [(Fraction(1), Fraction(0), Fraction(0))]
        proportionality_witness(Q, bad_sub, (Fraction(0),) * 3, (Fraction(1), Fraction(0), Fraction(0)))


def test_solve_in_span():
    v1 = (Fraction(1), Fraction(0), Fraction(1))
    v2 = (Fraction(0), Fraction(1), Fraction(1))
    assert solve_in_span([v1, v2], (Fraction(1), Fraction(1), Fraction(2))) == (1, 1)
    assert solve_in_span([v1, v2], (Fraction(1), Fraction(1), Fraction(0))) is None


# -- gram ------------------------------------------------------------------------


def test_gram_minkowski():
    g = gram(Form.scalar(2, 1))
    assert g.matrix == (
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, -2, 0),
        (0, 0, 0, -2),
    )
    assert signature(g) == Signature(1, 3, 0)


def test_gram_minkowski_quadratic_is_twice_det():
    rng = random.Random(91)
    g = gram(Form.scalar(2, 1))
    for _ in range(10):
        H = random_hermitian(rng, 2)
        a = hermitian_to_form(H)
        det = H.entries[0][0] * H.entries[1][1] - H.entries[0][1] * H.entries[1][0]
        assert g.quad(coords_11_real(a)) == 2 * det.re


def test_gram_cross_checked_against_naive_oracle():
    d = 2
    basis = basis_11_real(d)
    g = gram(Form.scalar(d, 1))
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            oracle = naive_top_coefficient(naive_product_of_forms([bi, bj], d), d)
            assert oracle.is_real()
            assert g.matrix[i][j] == oracle.re


@pytest.mark.parametrize("d", range(2, 9))
def test_gram_matches_wedge_oracle_on_schur_forms(d):
    rng = random.Random(600 + d)
    lam = rng.choice(partitions(d - 2, 2))
    omega = schur(lam, [random_positive_form(rng, d) for _ in range(2)])
    basis = basis_11_real(d)
    oracle = pairing_by_wedge(basis, omega, basis)
    assert all(x.is_real() for row in oracle for x in row)
    assert gram(omega).matrix == tuple(tuple(x.re for x in row) for row in oracle)


def test_gram_zero_and_errors():
    assert gram(Form.zero(3)).is_zero()
    with pytest.raises(ValueError):
        gram(Form.dz(3, 1))
    with pytest.raises(ValueError):
        gram(Form.term(3, [1], [2]))  # (1,1) but not real
    with pytest.raises(ValueError):
        gram(Form.scalar(1, 1))


def test_gram_classical_power_case():
    iota = identity_form(3)
    g = gram(schur((1,), [iota]))
    assert signature(g) == Signature(1, 8, 0)


def test_gram_symmetric_on_random_real_middles():
    rng = random.Random(13)
    for _ in range(5):
        omega = random_positive_form(rng, 3)
        g = gram(omega)
        assert g.matrix == tuple(tuple(row) for row in zip(*g.matrix))


# -- hermitian inertia -------------------------------------------------------------


def test_hermitian_inertia_small_cases():
    one = GaussianRational(1)
    i = GaussianRational(0, 1)
    m = [[one, i], [-i, one]]
    # eigenvalues 0 and 2
    assert hermitian_inertia(m) == Signature(1, 0, 1)
    m2 = [[GaussianRational(0), i], [-i, GaussianRational(0)]]
    assert hermitian_inertia(m2) == Signature(1, 1, 0)


def test_hermitian_inertia_matches_real_signature():
    rng = random.Random(19)
    for n in (2, 3, 4):
        for _ in range(10):
            rows = random_symmetric_rows(rng, n)
            sig_real = signature(SymBilinearForm(rows))
            sig_herm = hermitian_inertia(
                [[GaussianRational(x) for x in row] for row in rows]
            )
            assert sig_real == sig_herm


# -- the congruence kernel's zero-diagonal pair step -------------------------------


def hyperbolic_plus_diagonal(rng, n, hermitian):
    """[[0, a], [conj(a), 0]] + D with a outside {0, 1, -1}, D nonzero diagonal.

    Returns the rows and the inertia Sylvester's law gives them.
    """
    if hermitian:
        a = GaussianRational(rng.randint(-3, 3), rng.choice([-3, -2, -1, 1, 2, 3]))
    else:
        a = Fraction(rng.choice([-3, -2, 2, 3]), rng.choice([1, 2]))
    ds = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 3])) for _ in range(n - 2)]
    zero = a * 0
    rows = [[zero] * n for _ in range(n)]
    for i, d in enumerate(ds):
        rows[i][i] = zero + d
    rows[n - 2][n - 1] = a
    rows[n - 1][n - 2] = a.conjugate()
    plus = sum(1 for d in ds if d > 0)
    return rows, Signature(plus + 1, n - 2 - plus + 1, 0)


def permuted_copy(rng, rows):
    perm = list(range(len(rows)))
    rng.shuffle(perm)
    return [[rows[p][q] for q in perm] for p in perm]


def lower_congruent_copy(rng, rows, hermitian):
    """L rows L^H, L unit lower triangular with the last 2 x 2 block the identity.

    Eliminating the leading diagonal entries leaves exactly the zero-diagonal
    block again, so the pair step comes only after Schur complements.
    """
    n = len(rows)
    zero = rows[0][0] * 0
    L = [[zero + int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(min(i, n - 2)):
            re = rng.randint(-2, 2)
            L[i][j] = zero + (GaussianRational(re, rng.randint(-2, 2)) if hermitian else re)
    return [
        [
            sum((L[i][k] * rows[k][m] * L[j][m].conjugate() for k in range(n) for m in range(n)), zero)
            for j in range(n)
        ]
        for i in range(n)
    ]


@pytest.mark.parametrize("hermitian", [False, True])
def test_pair_step_inertia_matches_descartes(hermitian):
    # The Hermitian oracle expands a 2n x 2n cofactor determinant, so n stays small.
    rng = random.Random(67 + hermitian)
    for n in (3,) if hermitian else (3, 4, 5, 6):
        for _ in range(8 if hermitian else 4):
            rows, expected = hyperbolic_plus_diagonal(rng, n, hermitian)
            for M in (permuted_copy(rng, rows), lower_congruent_copy(rng, rows, hermitian)):
                # The kernel runs on integers; Hermitian input enters realified.
                A = _realified(HermitianMatrix(M)._rows) if hermitian else SymBilinearForm(M)._ints
                size = len(A)
                pivots = _congruence(A)
                steps = [s for s, (_, _, pair, _) in enumerate(pivots) if pair is not None]
                assert steps and 0 < steps[0] < len(pivots) - 1
                # the replayed basis diagonalises A: b_s^T A b_t is the LDL pivot or 0
                basis = [_congruence_vector(pivots, size, s) for s in range(len(pivots))]
                minors = [1] + [minor for _, minor, _, _ in pivots]
                for s in range(len(pivots)):
                    for t, v in enumerate(basis):
                        got = sum(basis[s][i] * A[i][j] * v[j] for i in range(size) for j in range(size))
                        assert got == (Fraction(minors[s + 1], minors[s]) if s == t else 0)
                if hermitian:
                    got = hermitian_inertia(M)
                    oracle = descartes_inertia(realified(M))
                    assert oracle == tuple(2 * x for x in got)
                else:
                    got = signature(SymBilinearForm(M))
                    assert descartes_inertia(M) == got
                assert got == expected


# -- the integer kernel against the rational congruence oracle ------------------


def entry(rng, zero, hermitian, box=5):
    """A random entry over the denominator 100**k, as R_t has at t = 1/100."""
    den = 100 ** rng.randint(0, 3)
    re = Fraction(rng.randint(-box, box), den)
    if not hermitian:
        return re
    return zero + GaussianRational(re, Fraction(rng.randint(-box, box), den))


def hermitian_rows(rng, n, hermitian, zero_diagonal=(), rank=None):
    """A random symmetric (or Hermitian) matrix with entries over 100**k.

    Indices in zero_diagonal get a zero diagonal entry.  With a rank, the
    matrix is a sum of rank signed outer products v v^H instead.
    """
    zero = GaussianRational(0) if hermitian else Fraction(0)
    rows = [[zero] * n for _ in range(n)]
    if rank is None:
        for i in range(n):
            for j in range(i, n):
                x = entry(rng, zero, hermitian)
                if i == j:
                    x = zero + (0 if i in zero_diagonal else x.re if hermitian else x)
                rows[i][j] = x
                rows[j][i] = x.conjugate() if hermitian else x
        return rows
    for _ in range(rank):
        v = [entry(rng, zero, hermitian, 2) for _ in range(n)]
        sign = rng.choice([-1, 1])
        for i in range(n):
            for j in range(n):
                rows[i][j] += sign * v[i] * (v[j].conjugate() if hermitian else v[j])
    return rows


def inertia(rows, hermitian):
    return hermitian_inertia(rows) if hermitian else signature(SymBilinearForm(rows))


def oracle_inertias(rows, hermitian):
    """The rational congruence oracle, and Descartes' rule where it is cheap."""
    n = len(rows)
    out = [fraction_congruence_inertia(rows)]
    if n <= 3 or (n <= 6 and not hermitian):
        full = descartes_inertia(realified(rows) if hermitian else rows)
        out.append(Signature(*(x // 2 for x in full)) if hermitian else full)
    return out


@pytest.mark.parametrize("hermitian", [False, True])
def test_integer_kernel_matches_oracles_on_random_matrices(hermitian):
    rng = random.Random(71 + hermitian)
    for n in (1, 2, 3, 6, 13, 26) + ((49,) if not hermitian else ()):
        for _ in range(3 if n < 26 else 1):
            rows = hermitian_rows(rng, n, hermitian)
            got = inertia(rows, hermitian)
            assert all(o == got for o in oracle_inertias(rows, hermitian))


@pytest.mark.parametrize("hermitian", [False, True])
def test_integer_kernel_pair_step_on_zero_diagonal_blocks(hermitian):
    # A zero-diagonal block behind nonzero diagonal entries: once those are
    # eliminated, the active diagonal can vanish and force a pair step.
    rng = random.Random(73 + hermitian)
    for n in (3, 6, 13, 36) if hermitian else (3, 6, 13, 49):
        for _ in range(3 if n < 13 else 1):
            zeros = set(rng.sample(range(n), rng.randint(2, max(2, n // 4))))
            rows = hermitian_rows(rng, n, hermitian, zero_diagonal=zeros)
            got = inertia(rows, hermitian)
            assert all(o == got for o in oracle_inertias(rows, hermitian))
    # Block diagonal D + Z, permuted: the pair step comes after every D pivot.
    for n in (4, 9, 26):
        k = n // 3 + 1
        rows = hermitian_rows(rng, n, hermitian, zero_diagonal=set(range(n - k, n)))
        for i in range(n - k):
            for j in range(n):
                rows[i][j] = rows[j][i] = rows[i][j] * 0
            rows[i][i] += Fraction(rng.choice([-3, -1, 2, 5]), 100 ** rng.randint(0, 3))
        rows = permuted_copy(rng, rows)
        A = _realified(HermitianMatrix(rows)._rows) if hermitian else SymBilinearForm(rows)._ints
        pivots = _congruence(A)
        steps = [s for s, (_, _, pair, _) in enumerate(pivots) if pair is not None]
        assert steps and steps[0] == (2 if hermitian else 1) * (n - k)
        got = inertia(rows, hermitian)
        assert all(o == got for o in oracle_inertias(rows, hermitian))


@pytest.mark.parametrize("hermitian", [False, True])
def test_integer_kernel_on_rank_deficient_zero_and_1x1(hermitian):
    rng = random.Random(79 + hermitian)
    zero = GaussianRational(0) if hermitian else Fraction(0)
    for n, rank in ((1, 1), (4, 2), (6, 5), (13, 4), (26, 3)):
        rows = hermitian_rows(rng, n, hermitian, rank=rank)
        got = inertia(rows, hermitian)
        assert got.n_zero >= n - rank
        assert all(o == got for o in oracle_inertias(rows, hermitian))
    for n in (1, 5, 26):
        assert inertia([[zero] * n for _ in range(n)], hermitian) == Signature(0, 0, n)
    for x, want in ((Fraction(3, 100), (1, 0, 0)), (Fraction(-1, 10**6), (0, 1, 0)), (0, (0, 0, 1))):
        assert inertia([[zero + x]], hermitian) == Signature(*want)


def test_hermitian_inertia_rejects_non_hermitian_input():
    i = GaussianRational(0, 1)
    one = GaussianRational(1)
    for rows in (
        [[one, i], [i, one]],  # M[1][0] != conj(M[0][1])
        [[one + i]],  # complex diagonal
        [[one, Fraction(1, 2)], [Fraction(1, 3), one]],
    ):
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_inertia(rows)
    with pytest.raises(ValueError, match="square"):
        hermitian_inertia([[one, one]])


def test_integer_kernel_matches_oracle_on_d7_gram():
    rng = random.Random(83)
    omega = schur((2, 1, 1, 1), [random_positive_form(rng, 7) for _ in range(2)])
    g = gram(omega)
    assert g.n == 49
    assert signature(g) == fraction_congruence_inertia(g.matrix) == Signature(1, 48, 0)


# -- the triangle kernel against the full-block kernel and Berkowitz ------------


def assert_full_block_pivots(A):
    """_congruence on A returns the full-block oracle's pivot list exactly."""
    pivots = _congruence(A)
    assert pivots == full_block_congruence(A)
    return pivots


@pytest.fixture(scope="module")
def family_matrices():
    """A d = 5 family member R_t (26 x 26) and both of its defect matrices."""
    rng = random.Random(89)
    space = AugmentedSpace([random_positive_form(rng, 5) for _ in range(2)])
    fam = twist_family(space, (2, 1), 5)
    t = Fraction(1, 100)
    r_t, rp_t = fam.at(t), fam.derivative().at(t)
    h = space.h_coords
    return [r_t, hodge_index_defect(r_t, h), derivative_inequality_defect(r_t, rp_t, h)]


@pytest.fixture(scope="module")
def gram_matrices():
    """Gram matrices of Schur forms at d = 5, 6 and 7: 25, 36 and 49 rows."""
    rng = random.Random(97)
    lams = {5: (2, 1), 6: (2, 1, 1), 7: (2, 1, 1, 1)}
    return [
        gram(schur(lam, [random_positive_form(rng, d) for _ in range(2)])) for d, lam in lams.items()
    ]


def test_triangle_kernel_matches_full_block_oracle(family_matrices, gram_matrices):
    rng = random.Random(101)
    for n in (1, 2, 3, 6, 13, 26):
        for _ in range(3 if n < 26 else 1):
            assert_full_block_pivots(SymBilinearForm(hermitian_rows(rng, n, False))._ints)
            assert_full_block_pivots(_realified(HermitianMatrix(hermitian_rows(rng, n, True))._rows))
    # Zero diagonals: the first nonzero diagonal entry lies past row 0, so the
    # rows above the pivot are updated through the triangle's columns, and
    # where the active diagonal vanishes a pair step runs.
    late_pivots = pair_steps = 0
    for n in (2, 3, 6, 13, 26):
        for _ in range(6 if n < 26 else 2):
            zeros = set(range(rng.randint(1, n))) | set(rng.sample(range(n), n // 3))
            rows = SymBilinearForm(hermitian_rows(rng, n, False, zero_diagonal=zeros))._ints
            pivots = assert_full_block_pivots(rows)
            late_pivots += bool(pivots) and pivots[0][0] > 0 and pivots[0][2] is None
            pair_steps += sum(pair is not None for _, _, pair, _ in pivots)
    assert late_pivots and pair_steps
    for n, rank in ((1, 1), (4, 2), (6, 5), (13, 4), (26, 3)):
        assert_full_block_pivots(SymBilinearForm(hermitian_rows(rng, n, False, rank=rank))._ints)
    for n in (1, 5, 26):
        assert assert_full_block_pivots([[0] * n for _ in range(n)]) == []
    for x in (3, -7, 0):
        assert_full_block_pivots([[x]])
    for Q in family_matrices + gram_matrices[-1:]:
        assert_full_block_pivots(Q._ints)


def test_signature_matches_berkowitz_past_descartes_range(family_matrices, gram_matrices):
    # Division-free characteristic polynomials: no elimination on either side
    # of the comparison shares a step with the kernel.
    assert [Q.n for Q in family_matrices] == [26] * 3
    assert [Q.n for Q in gram_matrices] == [25, 36, 49]
    for Q in family_matrices + gram_matrices:
        assert signature(Q) == berkowitz_inertia(Q._ints)
    assert all(signature(Q) == Signature(1, Q.n - 1, 0) for Q in gram_matrices)


# -- the int matrix over one denominator, against Fraction rows ---------------------


def as_rows(rows):
    return tuple(tuple(row) for row in rows)


WEIGHTS = [Fraction(1, 100), Fraction(-1, 100), Fraction(1, 10), Fraction(-1, 10), Fraction(7, 3), Fraction(-5, 2)]


def test_public_constructor_is_in_lowest_terms():
    rng = random.Random(91)
    for n in (1, 2, 5):
        rows = rational_rows(rng, n)
        Q = SymBilinearForm(rows)
        assert in_lowest_terms(Q) and Q.matrix == as_rows(rows)
    assert in_lowest_terms(SymBilinearForm.zero(3))
    assert SymBilinearForm([[Fraction(2, 4), 0], [0, 3]]) == SymBilinearForm([[Fraction(1, 2), 0], [0, 3]])


def test_combine_matches_entrywise_oracle():
    rng = random.Random(92)
    for n in (1, 3, 6):
        for count in (1, 2, 4):
            rows_list = [rational_rows(rng, n) for _ in range(count)]
            forms = [SymBilinearForm(r) for r in rows_list]
            weights = [rng.choice(WEIGHTS + [0, 1, -3]) for _ in range(count)]
            got = combine(weights, forms)
            assert in_lowest_terms(got)
            assert got.matrix == as_rows(fraction_combination(weights, rows_list))
        P, Q = forms[0], forms[-1]
        for got, want in (
            (P + Q, fraction_combination((1, 1), (rows_list[0], rows_list[-1]))),
            (P - Q, fraction_combination((1, -1), (rows_list[0], rows_list[-1]))),
            (Fraction(-5, 2) * P, fraction_combination((Fraction(-5, 2),), (rows_list[0],))),
            (-P, fraction_combination((-1,), (rows_list[0],))),
        ):
            assert in_lowest_terms(got) and got.matrix == as_rows(want)


def test_form_arithmetic_identities_and_size_mismatch():
    rng = random.Random(93)
    for n in (1, 4):
        Q = SymBilinearForm(rational_rows(rng, n))
        assert 2 * (Fraction(1, 2) * Q) == Q
        assert Q - Q == SymBilinearForm.zero(n)
        assert in_lowest_terms(Q - Q) and (Q - Q).is_zero()
        assert Q.is_zero() or Fraction(1, 2) * Q != Q
    with pytest.raises(ValueError):
        combine((1, 1), (SymBilinearForm.zero(2), SymBilinearForm.zero(3)))
    with pytest.raises(ValueError):
        SymBilinearForm.zero(2) + SymBilinearForm.zero(3)
    with pytest.raises(ValueError):
        combine((1,), (SymBilinearForm.zero(2), SymBilinearForm.zero(2)))
    with pytest.raises(ValueError):
        combine((1,), ())
    with pytest.raises(ValueError):
        combine((), ())
    # Restrictions to nothing are rejected, as the public constructor rejects [].
    with pytest.raises(ValueError, match="non-empty"):
        SymBilinearForm.zero(2).restrict_indices([])
    with pytest.raises(ValueError, match="non-empty"):
        SymBilinearForm.zero(2).restrict_span([])


def test_values_and_restrictions_match_fraction_rows():
    rng = random.Random(94)
    for n in (2, 5):
        rows = rational_rows(rng, n)
        Q = SymBilinearForm(rows)
        u, v = mixed_vector(rng, n), mixed_vector(rng, n)
        image = [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in rows]
        assert Q.pairing_vector(v) == tuple(image)
        assert Q.value(u, v) == sum((x * y for x, y in zip(u, image)), Fraction(0))
        assert Q.quad(v) == sum((x * y for x, y in zip(v, image)), Fraction(0))
        span = Q.restrict_span([u, v])
        assert in_lowest_terms(span)
        assert span.matrix == ((Q.quad(u), Q.value(u, v)), (Q.value(v, u), Q.quad(v)))
        sub = Q.restrict_indices([n - 1, 0])
        assert in_lowest_terms(sub)
        assert sub.matrix == ((rows[n - 1][n - 1], rows[n - 1][0]), (rows[0][n - 1], rows[0][0]))


def test_defects_match_fraction_oracles():
    rng = random.Random(95)
    for n in (1, 3, 6):
        for _ in range(3):
            rows, rows_p = rational_rows(rng, n), rational_rows(rng, n)
            h = mixed_vector(rng, n)
            T = hodge_index_defect(SymBilinearForm(rows), h)
            assert in_lowest_terms(T)
            assert T.matrix == as_rows(fraction_hodge_index_defect(rows, h))
            S = derivative_inequality_defect(SymBilinearForm(rows), SymBilinearForm(rows_p), h)
            assert in_lowest_terms(S)
            assert S.matrix == as_rows(fraction_derivative_inequality_defect(rows, rows_p, h))


def test_hermitian_inertia_of_the_empty_matrix():
    assert hermitian_inertia([]) == Signature(0, 0, 0)


# -- the rounded congruence, checked exactly --------------------------------------


def scaled_congruent_rows(rng, n, rank=None, spread=3):
    """B^T D B over ints for an r x n matrix B with entries in -3..3 and
    D = diag(+-10^k), k in 0..spread, so the eigenvalues span several orders
    of magnitude; r = n unless a rank is given."""
    r = n if rank is None else rank
    d = [rng.choice((-1, 1)) * 10 ** rng.randint(0, spread) for _ in range(r)]
    cols = list(zip(*([rng.randint(-3, 3) for _ in range(n)] for _ in range(r))))
    return [[sum(x * dk * y for x, dk, y in zip(ci, d, cj)) for cj in cols] for ci in cols]


def kernel_inertia(rows):
    return _count_signs(_congruence(rows), len(rows))


def test_rounded_route_matches_kernel_and_berkowitz_on_d7_and_d8_gram(gram_matrices, routes):
    rng = random.Random(103)
    g8 = gram(schur((2, 2, 1, 1), [random_positive_form(rng, 8) for _ in range(3)]))
    for Q in (gram_matrices[-1], g8):
        expected = Signature(1, Q.n - 1, 0)
        assert signature(Q) == kernel_inertia(Q._ints) == berkowitz_inertia(Q._ints) == expected
    assert [c for c in routes if c[0] == "verdict"] == [("verdict", 49, True), ("verdict", 64, True)]


def test_rounded_route_on_random_nonsingular_matrices(routes):
    rng = random.Random(107)
    for n in (40, 47, 55, 64):
        rows = scaled_congruent_rows(rng, n)
        expected = kernel_inertia(rows)
        assert expected.n_zero == 0
        routes.clear()
        assert signature(SymBilinearForm(rows)) == expected
        assert routes == [("proposal", n), ("verdict", n, True)]


def dominant_rows(rng, n, nonzero):
    """A strictly diagonally dominant symmetric int matrix with `nonzero`
    nonzero entries, its whole diagonal among them, of alternating signs."""
    rows = [[0] * n for _ in range(n)]
    for i, j in rng.sample([(i, j) for i in range(n) for j in range(i)], (nonzero - n) // 2):
        rows[i][j] = rows[j][i] = rng.choice((-1, 1)) * rng.randint(1, 9)
    for i, row in enumerate(rows):
        row[i] = (-1) ** i * (sum(map(abs, row)) + 1)
    return rows


def test_rounded_route_starts_at_its_size(routes):
    # From ROUNDED_FROM_N rows on, a matrix at least half of whose entries
    # are nonzero tries the rounded route; a sparser one goes to the kernel
    # at any size.
    rng = random.Random(109)
    n = ROUNDED_FROM_N
    half = (n * n + 1) // 2
    cases = [
        (scaled_congruent_rows(rng, n - 1), [("kernel", n - 1)]),
        (scaled_congruent_rows(rng, n), [("proposal", n), ("verdict", n, True)]),
        (dominant_rows(rng, n, half), [("proposal", n), ("verdict", n, True)]),
        (dominant_rows(rng, n, half - 2), [("kernel", n)]),
        (dominant_rows(rng, 64, 64 * 64 // 4), [("kernel", 64)]),
    ]
    for rows, route in cases:
        routes.clear()
        assert signature(SymBilinearForm(rows)) == kernel_inertia(rows)
        assert routes == route
    assert [sum(x != 0 for row in rows for x in row) for rows, _ in cases[2:4]] == [half, half - 2]
    assert signature(SymBilinearForm(cases[2][0])) == Signature((n + 1) // 2, n // 2, 0)


def flat(rows):
    return [x for row in rows for x in row]


def test_a_family_hands_its_proposal_on(routes):
    # A proposal that certified one matrix is tried first on the next; a
    # refused one costs its check, and a fresh proposal follows.  The
    # margins come back only when the rounded route certified.
    rng = random.Random(167)
    a = scaled_congruent_rows(rng, 30)
    b = [[1000 * x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(a)]
    sig, proposal, margins = _inertia(a)
    assert routes.per_matrix() == [(30, "fresh")] and sig == kernel_inertia(a)
    assert (sig, margins) == dominant_inertia_by_product(a, *proposal)
    routes.clear()
    assert _inertia(b, proposal)[:2] == (kernel_inertia(b), proposal)
    assert routes.per_matrix() == [(30, "reused")]
    routes.clear()
    other = scaled_congruent_rows(rng, 30)
    sig, fresh, _ = _inertia(other, ([*range(30)], [[int(i == j) for j in range(i + 1)] for i in range(30)]))
    assert sig == kernel_inertia(other) and fresh != proposal
    assert routes == [("verdict", 30, False), ("proposal", 30), ("verdict", 30, True)]
    assert routes.per_matrix() == [(30, "fresh")]
    # A proposal of another size is refused before any product.
    assert _dominant_inertia(scaled_congruent_rows(rng, 31), *proposal) is None
    # The family a + t (b - a): its t = 0 certificate covers a sample
    # near 0 with no matrix formed; at t = 1, outside the bound, the sample
    # is b and reuses the t = 0 proposal.  The kernel's sparse matrices take
    # no certificate.
    routes.clear()
    step = [[y - x for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    family = _FamilyChain([flat(a), flat(step)], 30)
    assert [family.inertia(0, 1), family.inertia(1, 10**12), family.inertia(1, 1)] == [
        kernel_inertia(a), kernel_inertia(a), kernel_inertia(b)
    ]
    assert routes.per_matrix() == [(30, "fresh"), (30, "bound"), (30, "reused")]
    assert family.certificate == (kernel_inertia(a), *family_bound_rows([a, step], *proposal))
    sparse = _FamilyChain([flat(dominant_rows(rng, 30, 200)), [1] * 900], 30)
    routes.clear()
    sparse.inertia(0, 1)
    assert routes.per_matrix() == [(30, "kernel")] and sparse.certificate is None


def unimodular_rows(rng, n):
    """A random int matrix of determinant +-1: row operations on I."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return rows


def test_a_singular_sample_is_never_certified_by_the_bound(routes):
    # R_t = U^T diag(1 - 100 s t, -1, ..., -1) U, U unimodular and s = +-1:
    # dense, 25 rows, singular at t = s/100 and of another inertia past it.
    # The t = 0 bound covers the samples near 0, and no other: the singular
    # sample goes to the kernel, which finds its zero.
    rng = random.Random(173)
    n = 25
    U = unimodular_rows(rng, n)
    m0 = [[sum(U[k][i] * U[k][j] * (1 if k == 0 else -1) for k in range(n)) for j in range(n)] for i in range(n)]
    assert 2 * sum(x != 0 for x in flat(m0)) >= n * n
    for s in (1, -1):
        m1 = [[-100 * s * U[0][i] * U[0][j] for j in range(n)] for i in range(n)]
        family = _FamilyChain([flat(m0), flat(m1)], n)
        ts = [Fraction(s * k, 10**j) for k, j in ((0, 0), (1, 6), (-1, 6), (1, 2), (-1, 2), (1, 1))]
        for t in ts:
            routes.clear()
            sig = family.inertia(t.numerator, t.denominator)
            a = 1 - 100 * s * t
            expected = Signature(int(a > 0), n - 1 + int(a < 0), int(a == 0))
            assert sig == expected == kernel_inertia(_sample_rows(family.coeffs, t.numerator, t.denominator, n))
            if a == 0:
                assert sig.n_zero == 1 and ("bound", n) not in routes and routes[-1] == ("kernel", n)
            if abs(t) == Fraction(1, 10**6):
                assert routes.per_matrix() == [(n, "bound")]


def test_family_bound_admits_what_the_oracle_admits(routes):
    # Each family signs t = 0, then a t far out, where its samples take
    # another proposal, then samples just inside and just outside the
    # threshold of the t = 0 bound, of both signs.  A sample is certified by
    # the bound exactly when the oracle, fed the t = 0 proposal, admits it,
    # and every sample gets the kernel's inertia.
    rng = random.Random(179)
    for n, K in ((25, 1), (26, 2), (27, 3)):
        coeffs = [scaled_congruent_rows(rng, n, spread=2)]
        coeffs += [scaled_congruent_rows(rng, n, spread=1) for _ in range(K)]
        order, P = _rounded_congruence(coeffs[0])
        margins, sums = family_bound_rows(coeffs, order, P)
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if family_bound_admits(margins, sums, Fraction(mid)) else (lo, mid)
        inside, outside = (Fraction(lo * f).limit_denominator(10**9) for f in (0.99, 1.01))
        assert family_bound_admits(margins, sums, inside) and not family_bound_admits(margins, sums, outside)
        family = _FamilyChain([flat(m) for m in coeffs], n)
        for t in (Fraction(0), 10**4 * inside, inside, -inside, outside, -outside):
            routes.clear()
            sig = family.inertia(t.numerator, t.denominator)
            assert sig == kernel_inertia(_sample_rows(family.coeffs, t.numerator, t.denominator, n)), (n, t)
            bound = routes.per_matrix() == [(n, "bound")]
            assert bound == (t != 0 and family_bound_admits(margins, sums, t)), (n, K, t, routes)
            if t == 10**4 * inside:
                assert routes.per_matrix() == [(n, "fresh")] and family.proposal != (order, P)


def test_family_samples_match_the_kernel_sweep(routes):
    # Dense int families, n = 25..30 and K = 1..5, M_0 scaled by 10^e so
    # that the bound covers some samples and not others.  Every sample, on
    # whichever route, has the inertia the kernel finds.
    ts = [Fraction(s, q) for q in (100, 10, 2) for s in (1, -1)] + [Fraction(3), Fraction(-3)]
    seen = set()

    @given(st.integers(0, 2**32), st.integers(25, 30), st.integers(1, 5), st.integers(0, 8))
    def sweep(seed, n, K, e):
        rng = random.Random(seed)
        coeffs = [[[10**e * x for x in row] for row in scaled_congruent_rows(rng, n, spread=1)]]
        coeffs += [[[int(x) for x in row] for row in random_symmetric_rows(rng, n)] for _ in range(K)]
        family = _FamilyChain([flat(m) for m in coeffs], n)
        for t in [Fraction(0)] + ts:
            routes.clear()
            p, q = t.numerator, t.denominator
            assert family.inertia(p, q) == kernel_inertia(_sample_rows(family.coeffs, p, q, n)), (seed, n, K, e, t)
            seen.add(routes.per_matrix()[-1][1] == "bound")

    sweep()
    assert seen == {True, False}


def test_singular_and_near_singular_inputs_fall_back(routes):
    rng = random.Random(113)
    cases = [scaled_congruent_rows(rng, n, rank=r) for n, r in ((40, 39), (49, 30), (64, 60))]
    # One eigenvalue scale 10^-12 of the others: a pivot under the proposal's floor.
    near = scaled_congruent_rows(rng, 45, rank=44, spread=0)
    cases.append([[x * 10**12 + (i == j) for j, x in enumerate(row)] for i, row in enumerate(near)])
    for rows in cases:
        n = len(rows)
        expected = kernel_inertia(rows)
        routes.clear()
        assert signature(SymBilinearForm(rows)) == expected
        assert routes[-1] == ("kernel", n)
        assert ("verdict", n, True) not in routes
    assert [kernel_inertia(rows).n_zero for rows in cases] == [1, 19, 4, 0]


def test_row_scaled_matrices_stay_on_the_rounded_route(routes):
    # S A S with S = diag(1, s, ..., s): row 0 is s times smaller than the
    # rest, which the power-of-two row scales of the proposal balance.
    for seed in (149, 151, 157):
        a = scaled_congruent_rows(random.Random(seed), 40, spread=1)
        for s in (10, 10**2, 10**3, 10**4):
            rows = [[x * (s if i else 1) * (s if j else 1) for j, x in enumerate(row)] for i, row in enumerate(a)]
            routes.clear()
            assert signature(SymBilinearForm(rows)) == kernel_inertia(rows)
            assert routes == [("proposal", 40), ("verdict", 40, True)]


def test_proposal_on_hard_inputs_is_none_or_checked(monkeypatch):
    rng = random.Random(163)
    a = scaled_congruent_rows(rng, 40)
    huge = [[x << 1100 for x in row] for row in a]
    assert _dominant_inertia(huge, *_rounded_congruence(huge))[0] == kernel_inertia(a)
    for rows in (scaled_congruent_rows(rng, 40, rank=39), [[0] * 40 for _ in range(40)]):
        proposal = _rounded_congruence(rows)
        assert proposal is None or _dominant_inertia(rows, *proposal) is None
    # A pivot at 2^-40 of the largest diagonal entry ends the proposal; one at twice that does not.
    assert _rounded_congruence([[1 << 40, 0], [0, 1]]) is None
    assert _rounded_congruence([[1 << 40, 0], [0, 2]]) == ([0, 1], [[1 << 32], [0, 1 << 51]])
    # A row scale past the binary64 range.
    monkeypatch.setattr(bilinear, "_SCALE_BITS", 1100)
    assert _rounded_congruence(a) is None


def hodge_index_case(rng, n, rank, y):
    """Q = B^T D B over ints and an int vector h with B h = y.

    B is rank x n with entries in -3..3 and D = diag(1, -1, +-10^k), k in
    0..1.  h is 1 at 0 and +-1 at five other places, and column 0 of B is
    set to y - sum_{j>0} h_j b_j, so Q(h) = y^T D y and Q h = B^T D y."""
    d = [1, -1] + [rng.choice((-1, 1)) * 10 ** rng.randint(0, 1) for _ in range(rank - 2)]
    h = [1] + [0] * (n - 1)
    for j in rng.sample(range(1, n), 5):
        h[j] = rng.choice((-1, 1))
    cols = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(n)]
    cols[0] = [yk - sum(hj * c[k] for hj, c in zip(h[1:], cols[1:])) for k, yk in enumerate(y)]
    rows = [[sum(x * dk * z for x, dk, z in zip(ci, d, cj)) for cj in cols] for ci in cols]
    return SymBilinearForm(rows), h


def test_hodge_index_inertia_on_the_rounded_route(routes):
    # y = e_0, e_1 and e_0 + e_1 give Q(h) = 1, -1 and 0 with Q h != 0.
    # y = 0 gives Q h = 0 but makes B, and so Q, singular: only at rank < n.
    rng = random.Random(137)
    seen = set()
    for n, rank in ((40, 40), (50, 50), (44, 41), (48, 46)):
        ys = [[int(k == 0) for k in range(rank)], [int(k == 1) for k in range(rank)]]
        ys.append([int(k < 2) for k in range(rank)])
        if rank < n:
            ys.append([0] * rank)
        for y in ys:
            Q, h = hodge_index_case(rng, n, rank, y)
            routes.clear()
            got = hodge_index_inertia(Q, h)
            if rank == n:
                assert routes == [("proposal", n), ("verdict", n, True)]
            else:
                assert routes[-1] == ("kernel", n) and ("verdict", n, True) not in routes
            routes.clear()
            assert got == signature(hodge_index_defect(Q, h))
            assert routes[-1] == ("kernel", n)
            if n == 40 and y is ys[1]:
                assert got == fraction_congruence_inertia(fraction_hodge_index_defect(Q.matrix, h))
            q = Q.quad(h)
            seen.add(((q > 0) - (q < 0), any(Q.pairing_vector(h)), rank == n))
    assert seen == {(1, True, True), (-1, True, True), (0, True, True),
                    (1, True, False), (-1, True, False), (0, True, False), (0, False, False)}


def test_refused_certificate_falls_back(gram_matrices, routes, monkeypatch):
    # Identity rows propose C = A, which is not diagonally dominant.
    def identity(rows):
        return list(range(len(rows))), [[int(i == j) for j in range(i + 1)] for i in range(len(rows))]

    monkeypatch.setattr(bilinear, "_rounded_congruence", identity)
    Q = gram_matrices[-1]
    assert signature(Q) == Signature(1, 48, 0)
    assert routes == [("verdict", 49, False), ("kernel", 49)]


def exact_triangular_congruence(b):
    """Integer lower-triangular rows P with P b P^T diagonal, or None when a
    leading minor of b vanishes: row elimination with Fraction multipliers."""
    n = len(b)
    work = [[Fraction(x) for x in row] for row in b]
    t = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        if work[k][k] == 0:
            return None
        for r in range(k + 1, n):
            f = work[r][k] / work[k][k]
            work[r] = [x - f * y for x, y in zip(work[r], work[k])]
            t[r] = [x - f * y for x, y in zip(t[r], t[k])]
    out = []
    for i, row in enumerate(t):
        den = lcm(*(x.denominator for x in row[: i + 1]))
        out.append([int(x * den) for x in row[: i + 1]])
    return out


def test_verdict_refuses_hand_made_certificates():
    # Equality in a row is not strict dominance: [[1, 1], [1, 1]] is singular.
    assert _dominant_inertia([[1, 1], [1, 1]], [0, 1], [[1], [0, 1]]) is None
    assert _dominant_inertia([[1, 1], [1, 1]], [0, 1], [[1, 0], [0, 1]]) is None
    # P = I leaves [[2, 3], [3, 4]] undominated; P = [[1, 0], [-3, 2]] makes
    # C = diag(2, -2), while P^T A P = [[20, -18], [-18, 16]] is not dominant.
    a = [[2, 3], [3, 4]]
    assert _dominant_inertia(a, [0, 1], [[1], [0, 1]]) is None
    assert _dominant_inertia(a, [0, 1], [[1], [-3, 2]]) == (Signature(1, 1, 0), [2, 2])
    assert _dominant_inertia([[4, 3], [3, 2]], [1, 0], [[1], [-3, 2]]) == (Signature(1, 1, 0), [2, 2])
    assert _dominant_inertia([[-5]], [0], [[7]]) == (Signature(0, 1, 0), [245])
    # A P with fewer rows than A forms only part of C: no verdict.
    assert _dominant_inertia([[1, 0], [0, 1]], [0, 1], [[1]]) is None
    assert _dominant_inertia([[1, 0], [0, 1]], [0, 1], []) is None


def test_verdict_matches_the_product_oracle():
    # P triangular, full, ragged (rows of any length up to n, empty ones
    # included) or with zero rows, its entries of mixed signs and of 1 to 80
    # bits, so a slot spans from one byte to dozens.
    rng = random.Random(127)
    verdicts, kinds = set(), set()
    for _ in range(300):
        n = rng.randint(1, 12)
        a = [[int(x) for x in row] for row in random_symmetric_rows(rng, n)]
        order = rng.sample(range(n), n)
        kind = rng.randrange(4)
        P = exact_triangular_congruence([[a[i][j] for j in order] for i in order]) if kind == 0 else None
        if P is None:  # random entries, nonzero on the diagonal where a row reaches it
            box = 1 << rng.randint(2, 80)
            if kind == 3:
                lengths = [rng.randint(0, n) for _ in range(n)]
            else:
                lengths = [n if kind == 2 else i + 1 for i in range(n)]
            P = [[rng.randint(-box, box) for _ in range(m)] for m in lengths]
            for i, row in enumerate(P):
                if i < len(row):
                    row[i] = rng.choice((-3, -1, 1, 2, 5)) * rng.randint(1, box)
        elif rng.random() < 0.7:
            i = rng.randrange(n)
            P[i][rng.randrange(i + 1)] += rng.choice((-1, 1))
        if rng.random() < 0.1:
            P[rng.randrange(n)] = [0] * rng.randint(0, n)
        expected = dominant_inertia_by_product(a, order, P)
        assert _dominant_inertia(a, order, P) == expected
        verdicts.add(expected is None)
        kinds.add(kind)
    assert verdicts == {True, False} and kinds == {0, 1, 2, 3}


@pytest.mark.parametrize("n, pbits, bbits", [(1, 31, 62), (3, 8, 2), (7, 8, 8), (12, 31, 64)])
def test_verdict_at_the_slot_bound(n, pbits, bbits):
    # Every |C_ij| = n^2 pmax^2 bmax, just under 2^(W-2), with W =
    # 2 bits(pmax) + bits(bmax) + 2 bits(n) + 2 a whole number of bytes.
    assert (2 * pbits + bbits + 2 * n.bit_length() + 2) % 8 == 0
    pmax, bmax = (1 << pbits) - 1, (1 << bbits) - 1
    P = [[pmax] * n for _ in range(n)]
    for sign in (1, -1):
        b = [[sign * bmax] * n for _ in range(n)]
        expected = dominant_inertia_by_product(b, list(range(n)), P)
        assert expected == ((Signature((1 + sign) // 2, (1 - sign) // 2, 0), [bmax * pmax**2]) if n == 1 else None)
        assert _dominant_inertia(b, list(range(n)), P) == expected


# -- defect matrices: the Hodge-index one in closed form, the derivative one on its border


def test_bordered_inertias_match_the_direct_defects():
    rng = random.Random(131)
    report_signs = set()
    for d in (3, 4, 5):
        space = AugmentedSpace([random_positive_form(rng, d) for _ in range(2)])
        lam = (2,) + (1,) * (d - 4) if d > 3 else (1,)
        fam = twist_family(space, lam, d)
        h, zeta = space.h_coords, space.zeta_coords
        for t in (Fraction(0), Fraction(1, 100), Fraction(-7, 3)):
            q, qp = fam.at(t), fam.derivative().at(t)
            assert hodge_index_inertia(q, h) == signature(hodge_index_defect(q, h))
            assert derivative_inequality_inertia(q, qp, h) == signature(derivative_inequality_defect(q, qp, h))
        # The reports read hodge_index_psd off each sample's own signature;
        # t = -100 gives R_{3,t}(h) < 0 at every d here.
        ts = (Fraction(1, 100), Fraction(-7, 3), Fraction(-100))
        for i in sorted({3, d}):
            fam_i = twist_family(space, lam, i)
            for report in (check_property_a(fam_i, h, zeta, ts), check_property_b(fam_i, h, zeta, ts)):
                for entry in report.per_t:
                    r_t = fam_i.at(entry["t"])
                    assert entry["hodge_index_psd"] == (signature(hodge_index_defect(r_t, h)).n_minus == 0)
                    report_signs.add((i, (r_t.quad(h) > 0) - (r_t.quad(h) < 0)))
    assert (3, -1) in report_signs and (3, 1) in report_signs
    signs = set()
    for n in (1, 2, 3, 6, 9):
        for _ in range(12):
            rows = hermitian_rows(rng, n, False, rank=rng.choice([None, max(1, n - 2)]))
            zero = rng.randrange(n)
            if rng.random() < 0.3:  # a zero row and column
                rows = [[0 if zero in (i, j) else x for j, x in enumerate(row)] for i, row in enumerate(rows)]
            Q, Qp = SymBilinearForm(rows), SymBilinearForm(rational_rows(rng, n))
            h = mixed_vector(rng, n)
            signs.add((Q.quad(h) > 0) - (Q.quad(h) < 0))
            assert hodge_index_inertia(Q, h) == signature(hodge_index_defect(Q, h))
            assert derivative_inequality_inertia(Q, Qp, h) == signature(derivative_inequality_defect(Q, Qp, h))
            assert derivative_inequality_inertia(Qp, Q, h) == signature(derivative_inequality_defect(Qp, Q, h))
    assert signs == {-1, 0, 1}
    # Q(h) = 0 with h != 0, and Q(h) < 0.
    Q = diag(1, -1, 2)
    for h in ((1, 1, 0), (0, 1, 0)):
        assert hodge_index_inertia(Q, h) == signature(hodge_index_defect(Q, h))
        assert derivative_inequality_inertia(Q, diag(3, 1, -1), h) == signature(
            derivative_inequality_defect(Q, diag(3, 1, -1), h)
        )


@pytest.mark.parametrize("mode", ["independent", "parallel", "zero_w", "zero_u"])
def test_defect_rule_matches_the_kernel(routes, mode):
    # The one rule for the derivative defect S = U W^T + W U^T - q A'
    # (derivative_inequality_inertia) against the kernel on the matrix
    # derivative_inequality_defect builds.  With h = e_0, U is column 0 of A'
    # and W column 0 of Q, so q = W_0: A' is random of any rank (singular and
    # low-rank included), W is random with W_0 = q for q in
    # {-3, -1, 0, 1, 2}, or c U for c of both signs, or zero, and U is zero
    # when A' has a zero first row and column.  At q = 0 no matrix is signed.
    rng = random.Random(2500 + len(mode))
    seen = set()
    for _ in range(150):
        n = rng.randint(1, 6)
        ap = [[0] * n for _ in range(n)]
        for _ in range(rng.randint(0, n)):
            v, s = [rng.randint(-3, 3) for _ in range(n)], rng.choice((1, -1))
            ap = [[a + s * vi * vj for a, vj in zip(row, v)] for row, vi in zip(ap, v)]
        if mode == "zero_u":
            ap = [[0 if 0 in (i, j) else a for j, a in enumerate(row)] for i, row in enumerate(ap)]
        u = [row[0] for row in ap]
        if mode == "independent":
            w = [rng.choice((-3, -1, 0, 1, 2))] + [rng.randint(-3, 3) for _ in range(n - 1)]
        elif mode == "parallel":
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            w = [c * x for x in u]
        else:
            w = [rng.randint(-3, 3) for _ in range(n)] if mode == "zero_u" else [0] * n
            w[0] = 0 if mode == "zero_w" else w[0]
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        rows = [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        for k in range(n):
            rows[0][k] = rows[k][0] = w[k]
        Q, Qp = SymBilinearForm(rows), SymBilinearForm(ap)
        h = [int(i == 0) for i in range(n)]
        routes.clear()
        sig = derivative_inequality_inertia(Q, Qp, h)
        assert sig == _count_signs(_congruence(derivative_inequality_defect(Q, Qp, h)._ints), n), (ap, w)
        q = w[0]
        assert q or not routes
        seen.add(((q > 0) - (q < 0), None if q else sig[:2]))
    closed = {sig for s, sig in seen if s == 0}
    if mode != "zero_w":
        assert {s for s, _ in seen} == {-1, 0, 1}
    if mode == "independent":
        assert (1, 1) in closed
    elif mode == "parallel":
        assert {(1, 0), (0, 1), (0, 0)} <= closed
    else:
        assert closed == {(0, 0)}


def test_family_checks_eliminate_no_hodge_index_border(routes):
    # Each R_t is eliminated once, each derivative defect on its two-row
    # border; the Hodge-index defect needs no matrix.  The i = d family
    # annihilates zeta - t h, so its R_t and borders are one row smaller:
    # the blocks off zeta.  At d = 4 every matrix is below ROUNDED_FROM_N.
    rng = random.Random(139)
    space = AugmentedSpace([random_positive_form(rng, 4) for _ in range(2)])
    h, zeta, n = space.h_coords, space.zeta_coords, space.dim_v
    for i in (3, 4):
        fam = twist_family(space, (2,), i)
        check_property_a(fam, h, zeta)
        check_property_b(fam, h, zeta)
    # Five samples per check; A signs one derivative border, B one per sample.
    signed = sorted(routes.per_matrix())
    assert signed == [(n - 1, "kernel")] * 10 + [(n, "kernel")] * 10 + [(n + 1, "kernel")] * 6 + [(n + 2, "kernel")] * 6
