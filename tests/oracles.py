"""Independent brute-force implementations used only as test oracles.

Nothing here shares code with the package, except the last four sections,
whose comments say what they reuse: the exterior algebra is replayed over
generator tuples with insertion-sort sign counting, determinants are
expanded by cofactors or by plain elimination, inertia is read off the
characteristic polynomial (by cofactors, or by Berkowitz's division-free
recurrence) or found by rational congruence, the congruence kernel's pivot
list is redone by Bareiss elimination on the full active block, elementary
symmetric functions come from explicit subsets, the mixed discriminant from
the double permutation sum, the pencil route's lattice weights from one
dense solve, UniPoly is a plain polynomial ring in one central variable,
and symmetric-form arithmetic (combinations, Horner and both defect
matrices) is redone entry by entry on Fraction rows.
"""

import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, gcd

from hrlab.augmentation import _check_weight
from hrlab.bilinear import Signature, SymBilinearForm, _congruence, _count_signs
from hrlab.exterior import Form, HermitianMatrix, indices_of, mask_of, wedge
from hrlab.gaussian import GaussianRational, as_fraction, fraction_from_str, fraction_to_str
from hrlab.symfunc import (
    Partition,
    elementary_elements,
    partitions,
    schur,
    schur_elements,
    twisted_chern_elements,
)

# -- naive exterior algebra over generator tuples ---------------------------
# Generators are coded 1..d for the holomorphic ones and d+1..2d for the
# conjugates; a multivector is a dict from ascending generator tuples to
# GaussianRational coefficients.


def sort_with_sign(seq):
    """Insertion sort; returns (sorted tuple, sign) or (None, 0) on repeats."""
    arr = list(seq)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(arr, arr[1:]):
        if a == b:
            return None, 0
    return tuple(arr), sign


def naive_mul(a: dict, b: dict) -> dict:
    out = {}
    for ta, ca in a.items():
        for tb, cb in b.items():
            tup, sign = sort_with_sign(ta + tb)
            if tup is None:
                continue
            c = ca * cb
            if sign < 0:
                c = -c
            acc = out.get(tup, GaussianRational(0)) + c
            if acc:
                out[tup] = acc
            elif tup in out:
                del out[tup]
    return out


def naive_from_form(f: Form, d: int) -> dict:
    out = {}
    for (h, am), c in f.terms.items():
        tup = tuple(indices_of(h)) + tuple(d + j for j in indices_of(am))
        out[tup] = c
    return out


def naive_product_of_forms(forms, d: int) -> dict:
    acc = {(): GaussianRational(1)}
    for f in forms:
        acc = naive_mul(acc, naive_from_form(f, d))
    return acc


def naive_vol(d: int) -> dict:
    acc = {(): GaussianRational(1)}
    for j in range(1, d + 1):
        acc = naive_mul(acc, {(j, d + j): GaussianRational(0, 1)})
    return acc


def naive_top_coefficient(mv: dict, d: int) -> GaussianRational:
    """Coefficient against the naive volume expansion."""
    vol = naive_vol(d)
    (vol_tup, vol_c), = vol.items()
    coeff = mv.get(vol_tup, GaussianRational(0))
    return coeff / vol_c


# -- scalar polynomials ------------------------------------------------------


class Poly:
    """Multivariate polynomial over Fractions, dict keyed by exponent tuples."""

    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for k, v in terms.items():
                v = Fraction(v)
                if v:
                    self.terms[tuple(k)] = v

    @staticmethod
    def const(n, value):
        return Poly(n, {(0,) * n: Fraction(value)})

    @staticmethod
    def var(i, n):
        key = tuple(1 if j == i else 0 for j in range(n))
        return Poly(n, {key: Fraction(1)})

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n, other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            acc = out.get(k, Fraction(0)) + v
            if acc:
                out[k] = acc
            elif k in out:
                del out[k]
        return Poly(self.n, out)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(self.n, {k: v * other for k, v in self.terms.items()})
        out = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                acc = out.get(key, Fraction(0)) + va * vb
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        return Poly(self.n, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n, other)
        return self + (other * -1)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n, other)
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Poly({self.terms})"


def oracle_elementary(k: int, xs: list) -> object:
    """Elementary symmetric function by explicit subset sums."""
    n = xs[0].n
    if k < 0 or k > len(xs):
        return Poly(n)
    if k == 0:
        return Poly.const(n, 1)
    total = Poly(n)
    for combo in combinations(xs, k):
        prod = Poly.const(n, 1)
        for x in combo:
            prod = prod * x
        total = total + prod
    return total


def oracle_cofactor_det(rows: list) -> object:
    """Determinant by recursive first-row cofactor expansion."""
    size = len(rows)
    if size == 0:
        raise ValueError("use the 1x1 base case upstream")
    if size == 1:
        return rows[0][0]
    n = rows[0][0].n
    total = Poly(n)
    for j in range(size):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * oracle_cofactor_det(minor)
        total = total + (term if j % 2 == 0 else term * -1)
    return total


def oracle_schur(parts: tuple, nvars: int) -> object:
    """Schur polynomial in nvars scalar variables via the cofactor oracle."""
    xs = [Poly.var(i, nvars) for i in range(nvars)]
    size = len(parts)
    if size == 0:
        return Poly.const(nvars, 1)
    need = parts[0] + size - 1
    cs = [oracle_elementary(k, xs) for k in range(need + 1)]

    def entry(i, j):
        k = parts[i] - (i + 1) + (j + 1)
        if k < 0 or k > need:
            return Poly(nvars)
        return cs[k]

    rows = [[entry(i, j) for j in range(size)] for i in range(size)]
    return oracle_cofactor_det(rows)


def lattice_weights_by_solve(lams, e: int) -> list:
    """The pencil route's lattice weights by one dense exact solve, for
    partitions lams of one weight p.

    Unknowns w_t at the points t in N^(e-1) with |t| <= p; one equation per
    monomial t^c: sum_t w_t t^c = f_a a!, where a = (p - |c|, c) and f is
    oracle_schur of the partition.  The points are unisolvent for degree p,
    so the square system has one solution; all partitions share its matrix,
    each adds a right-hand side.  Returns the nonzero entries per partition.
    """
    (p,) = {sum(lam) for lam in lams}
    fs = [oracle_schur(tuple(lam), e).terms for lam in lams]
    points = [t for t in product(range(p + 1), repeat=e - 1) if sum(t) <= p]
    rows = []
    for c in points:
        a = (p - sum(c),) + c
        scale = 1
        for x in a:
            scale *= factorial(x)
        row = []
        for t in points:
            value = Fraction(1)
            for x, y in zip(t, c):
                value *= x**y
            row.append(value)
        rows.append(row + [f.get(a, Fraction(0)) * scale for f in fs])
    n = len(points)
    for k in range(n):
        pivot = next(r for r in range(k, n) if rows[r][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        inv = 1 / rows[k][k]
        rows[k] = [x * inv for x in rows[k]]
        for r in range(n):
            if r != k and rows[r][k]:
                factor = rows[r][k]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[k])]
    return [{t: rows[i][n + j] for i, t in enumerate(points) if rows[i][n + j]} for j in range(len(lams))]


def descartes_inertia(rows) -> Signature:
    """Inertia of a real symmetric matrix by Descartes' rule of signs.

    The characteristic polynomial det(xI - M) comes from cofactor expansion.
    All its roots are real, so the sign changes of its coefficients count the
    positive eigenvalues exactly, and those of p(-x) the negative ones.
    """
    n = len(rows)
    x = Poly.var(0, 1)
    char = oracle_cofactor_det(
        [[(x if i == j else Poly(1)) - Fraction(rows[i][j]) for j in range(n)] for i in range(n)]
    )
    return _descartes([char.terms.get((k,), Fraction(0)) for k in range(n + 1)])


def _descartes(coeffs) -> Signature:
    """Inertia from the coefficients of a real-rooted det(xI - M), lowest
    degree first: sign changes of p(x) count the positive roots, those of
    p(-x) the negative ones."""

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    plus = sign_changes(coeffs)
    minus = sign_changes([c if k % 2 == 0 else -c for k, c in enumerate(coeffs)])
    return Signature(plus, minus, len(coeffs) - 1 - plus - minus)


def berkowitz_charpoly(rows) -> list:
    """Coefficients of det(xI - M), highest degree first, without division.

    Berkowitz's recurrence: with M_r the leading r x r block, R the row and S
    the column that border it and a the new diagonal entry, the polynomial of
    M_(r+1) is the lower-triangular Toeplitz matrix of
    (1, -a, -R S, -R M_r S, ..., -R M_r^(r-1) S) times that of M_r.  Only
    ring operations are used, so int rows give int coefficients.
    """
    poly = [1]
    for r, row in enumerate(rows):
        col = [rows[i][r] for i in range(r)]
        vector = [1, -row[r]]
        for _ in range(r):
            vector.append(-sum(x * y for x, y in zip(row, col)))
            col = [sum(x * y for x, y in zip(rows[i], col)) for i in range(r)]
        poly = [
            sum(vector[i - j] * poly[j] for j in range(max(0, i - r - 1), min(i, r) + 1))
            for i in range(r + 2)
        ]
    return poly


def berkowitz_inertia(rows) -> Signature:
    """Inertia of a real symmetric matrix from its Berkowitz characteristic
    polynomial and Descartes' rule of signs, as descartes_inertia reads it.

    No elimination and no division: it reaches the 49 x 49 Gram matrices of
    d = 7, where the cofactor expansion of descartes_inertia cannot.
    """
    return _descartes(berkowitz_charpoly(rows)[::-1])


def realified(rows) -> list:
    """The real symmetric 2n x 2n form [[A, -B], [B, A]] of H = A + iB.

    Its inertia is twice that of the Hermitian matrix H.
    """
    n = len(rows)
    out = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            a, b = rows[i][j].re, rows[i][j].im
            out[i][j] = out[n + i][n + j] = a
            out[i][n + j] = -b
            out[n + i][j] = b
    return out


def fraction_congruence_inertia(rows) -> Signature:
    """Inertia of a symmetric or Hermitian matrix by rational congruence.

    Fraction or GaussianRational entries, eliminated in place with division
    by each pivot: the first nonzero diagonal entry of the active block, or,
    when that diagonal vanishes, the entry 2|a|^2 that b_j += conj(a) b_k
    exposes from a nonzero off-diagonal a.  Cubic, so unlike
    descartes_inertia it reaches the 49 x 49 intersection forms of d = 7.
    """
    rows = [list(row) for row in rows]
    n = len(rows)
    active = list(range(n))
    values = []
    while active:
        pivot = next((k for k in active if rows[k][k]), None)
        if pivot is None:
            found = next(((j, k) for j in active for k in active if j != k and rows[j][k]), None)
            if found is None:
                break
            pivot, k = found
            a = rows[pivot][k]
            m = a.conjugate()
            for c in active:
                rows[pivot][c] += a * rows[k][c]
            for r in active:
                rows[r][pivot] += m * rows[r][k]
        p = rows[pivot][pivot]
        if isinstance(p, GaussianRational):
            if p.im:
                raise RuntimeError("Hermitian reduction produced a complex pivot")
            p = p.re
        values.append(p)
        active.remove(pivot)
        pivot_row = rows[pivot]
        for r in active:
            f = rows[r][pivot]
            if f:
                f = f / pivot_row[pivot]
                for c in active:
                    rows[r][c] -= f * pivot_row[c]
    plus = sum(1 for p in values if p > 0)
    return Signature(plus, len(values) - plus, n - len(values))


def full_block_congruence(rows: list[list[int]]) -> list[tuple]:
    """Congruence-diagonalise a symmetric integer matrix without fractions,
    updating the whole active block: the oracle of bilinear._congruence,
    which must return the identical pivot list from the upper triangle alone.

    Symmetric Bareiss elimination: the pivot is the first nonzero diagonal
    entry of the active block, and each update divides exactly by the previous
    pivot, so every entry stays an integer minor of the input.  When the active
    diagonal vanishes, the pair step b_j += b_k for a nonzero off-diagonal
    entry a = A[j][k] exposes the diagonal entry 2a.

    Returns (index, minor, pair, column) per pivot, in pivot order.  The minor
    is the leading principal minor on the pivots so far, so the LDL pivot is
    minor / previous minor.  pair is (k, 1) when the pair step b_index += b_k
    came just before, else None.  column lists (r, A[r][index]) for the rows r
    still active, so A[r][index] / minor is the multiple of b_index taken off
    b_r: the LDL multiplier.
    """
    active = list(range(len(rows)))
    block = [list(row) for row in rows]
    pivots = []
    prev = 1
    while block:
        pair = None
        t = next((i for i, row in enumerate(block) if row[i]), None)
        if t is None:
            found = next(
                ((j, k) for j, row in enumerate(block) for k, x in enumerate(row) if x and j != k),
                None,
            )
            if found is None:
                break
            t, k = found
            block[t] = [x + y for x, y in zip(block[t], block[k])]
            for row in block:
                row[t] += row[k]
            pair = (active[k], 1)
        p = block[t][t]
        pivot_row = block.pop(t)
        del pivot_row[t]
        q = active.pop(t)
        column = []
        for i, row in enumerate(block):
            f = row.pop(t)
            if f:
                column.append((active[i], f))
                block[i] = [(p * x - f * y) // prev for x, y in zip(row, pivot_row)]
            elif p != prev:
                block[i] = [p * x // prev for x in row]
        pivots.append((q, p, pair, column))
        prev = p
    return pivots


def dominant_inertia_by_product(rows, order, P):
    """The oracle of bilinear._dominant_inertia: C = P B P^T entry by entry,
    with B = rows in `order` and each row of P padded with zeros to n, then
    the signs of diag(C) and the row margins |C_ii| - sum_{j != i} |C_ij|
    when every row is strictly diagonally dominant, else None."""
    n = len(order)
    b = [[rows[i][j] for j in order] for i in order]
    p = [list(row) + [0] * (n - len(row)) for row in P]
    c = [
        [sum(p[i][k] * b[k][m] * p[j][m] for k in range(n) for m in range(n)) for j in range(n)]
        for i in range(n)
    ]
    margins = [abs(c[i][i]) - sum(abs(x) for j, x in enumerate(c[i]) if j != i) for i in range(n)]
    if any(m <= 0 for m in margins):
        return None
    plus = sum(c[i][i] > 0 for i in range(n))
    return Signature(plus, n - plus, 0), margins


def family_bound_rows(coeffs, order, P):
    """The oracle of a family certificate: for int rows M_0..M_K and an
    (order, P) that certifies M_0, the margins of C_0 that
    dominant_inertia_by_product finds and, for each k >= 1, the row sums
    of |P| |M_k^pi| |P|^T, formed entry by entry."""
    n = len(order)
    _, margins = dominant_inertia_by_product(coeffs[0], order, P)
    p = [[abs(x) for x in row] + [0] * (n - len(row)) for row in P]
    sums = []
    for m in coeffs[1:]:
        b = [[abs(m[i][j]) for j in order] for i in order]
        pb = [[sum(p[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        sums.append([sum(pb[i][k] * p[j][k] for j in range(n) for k in range(n)) for i in range(n)])
    return margins, sums


def family_bound_admits(margins, sums, t) -> bool:
    """sum_k |t|^k (row sum k)_i < m_i on every row, over Fractions."""
    t = abs(Fraction(t))
    return all(sum(t**k * s[i] for k, s in enumerate(sums, 1)) < m for i, m in enumerate(margins))


# -- Sylvester's criterion -----------------------------------------------------


def hermitian_det(rows) -> GaussianRational:
    """Exact determinant by fraction elimination with row-swap sign tracking."""
    m = [list(row) for row in rows]
    n = len(m)
    sign = 1
    det = GaussianRational(1)
    for c in range(n):
        hit = next((r for r in range(c, n) if m[r][c]), None)
        if hit is None:
            return GaussianRational(0)
        if hit != c:
            m[c], m[hit] = m[hit], m[c]
            sign = -sign
        p = m[c][c]
        det = det * p
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] / p
                for k in range(c, n):
                    m[r][k] = m[r][k] - f * m[c][k]
    return det if sign > 0 else -det


def leading_principal_minors(H) -> list:
    """Determinants of the leading k x k blocks; real for Hermitian input."""
    out = []
    for k in range(1, H.d + 1):
        det = hermitian_det([row[:k] for row in H.entries[:k]])
        if det.im != 0:
            raise RuntimeError("Hermitian minor came out complex")
        out.append(det.re)
    return out


# -- mixed discriminant ------------------------------------------------------


def perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def mixed_discriminant(mats) -> GaussianRational:
    """Double permutation sum, normalized so D(A, ..., A) = det(A)."""
    d = mats[0].d
    # entries is a view built on each read, so read it once per matrix.
    entries = [M.entries for M in mats]
    total = GaussianRational(0)
    for sigma in permutations(range(d)):
        s1 = perm_sign(sigma)
        for tau in permutations(range(d)):
            s2 = perm_sign(tau)
            prod = GaussianRational(1)
            for k in range(d):
                prod = prod * entries[k][sigma[k]][tau[k]]
            total = total + (prod if s1 * s2 > 0 else -prod)
    return total / factorial(d)


def brute_partitions(b: int, e: int) -> set:
    """All bounded partitions by filtering tuples, for enumeration cross-checks."""
    if b == 0:
        return {()}
    out = set()

    def rec(remaining, prefix):
        if remaining == 0:
            out.add(tuple(prefix))
            return
        lo = 1
        for p in range(lo, min(e, remaining, prefix[-1] if prefix else e) + 1):
            rec(remaining - p, prefix + [p])

    rec(b, [])
    return out


# -- symmetric-form arithmetic on Fraction rows -------------------------------
# Entry by entry over Fraction rows, the references for the int matrix over
# one denominator that bilinear computes with.  Each returns Fraction rows.


def fraction_combination(weights, rows_list) -> list:
    """sum_k w_k M_k, entrywise."""
    n = len(rows_list[0])
    return [
        [sum((Fraction(w) * m[i][j] for w, m in zip(weights, rows_list)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def fraction_horner(coeff_rows, t) -> list:
    """sum_k t^k C_k by Horner's rule, from the last coefficient down."""
    rows = coeff_rows[-1]
    for c in reversed(coeff_rows[:-1]):
        rows = [[t * x + y for x, y in zip(r, cr)] for r, cr in zip(rows, c)]
    return rows


def _fraction_image(rows, h) -> list:
    return [sum((x * y for x, y in zip(row, h)), Fraction(0)) for row in rows]


def fraction_hodge_index_defect(rows, h) -> list:
    """w_i w_j - Q(h) Q_ij with w = Q h."""
    w = _fraction_image(rows, h)
    qh = sum((x * y for x, y in zip(h, w)), Fraction(0))
    return [[w[i] * w[j] - qh * rows[i][j] for j in range(len(w))] for i in range(len(w))]


def fraction_derivative_inequality_defect(rows, rows_p, h) -> list:
    """u_a w_b + w_a u_b - Q(h) Qp_ab with u = Qp h and w = Q h."""
    u = _fraction_image(rows_p, h)
    w = _fraction_image(rows, h)
    qh = sum((x * y for x, y in zip(h, w)), Fraction(0))
    n = len(w)
    return [[u[a] * w[b] + w[a] * u[b] - qh * rows_p[a][b] for b in range(n)] for a in range(n)]


def in_lowest_terms(Q: SymBilinearForm) -> bool:
    """The representation invariant: int entries over a denominator > 0 that
    shares no factor with all of them."""
    entries = [x for row in Q._ints for x in row]
    return all(type(x) is int for x in entries) and Q._den > 0 and gcd(Q._den, *entries) == 1


def form_in_lowest_terms(f: Form) -> bool:
    """The Form invariant: Gaussian-integer entries, none zero, over a
    denominator > 0 that shares no factor with all of them."""
    entries = [x for c in f._coeffs.values() for x in c]
    return (
        all(type(x) is int for x in entries)
        and all(c != (0, 0) for c in f._coeffs.values())
        and f._den > 0
        and gcd(f._den, *entries) == 1
    )


def hermitian_in_lowest_terms(H: HermitianMatrix) -> bool:
    """The HermitianMatrix invariant: a d x d tuple of Gaussian-integer
    entries with H[j][k] = conj(H[k][j]), over a denominator > 0 that shares
    no factor with all of them."""
    rows, d = H._rows, H.d
    entries = [x for row in rows for c in row for x in c]
    return (
        type(rows) is tuple
        and len(rows) == d
        and all(type(row) is tuple and len(row) == d for row in rows)
        and all(type(x) is int for x in entries)
        and all(rows[j][k] == (rows[k][j][0], -rows[k][j][1]) for j in range(d) for k in range(d))
        and H._den > 0
        and gcd(H._den, *entries) == 1
    )


def gaussian_matrix(pairings) -> list:
    """The (rows, den) result of exterior.top_pairings as GaussianRational rows."""
    rows, den = pairings
    return [[GaussianRational(Fraction(re, den), Fraction(im, den)) for re, im in row] for row in rows]


# -- seeded test data ------------------------------------------------------------


def random_symmetric_rows(rng, n: int, box: int = 5) -> list:
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(-box, box))
    return rows


def rational_rows(rng, n: int) -> list:
    """A symmetric Fraction matrix with denominators up to 100^3."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            den = rng.choice([1, 3, 7, 100, 300, 100**2, 7 * 100**2, 100**3])
            rows[i][j] = rows[j][i] = Fraction(rng.randint(-999, 999), den)
    return rows


def mixed_vector(rng, n: int) -> tuple:
    """A vector with mixed denominators and some zero coordinates."""
    return tuple(
        Fraction(rng.choice([0, rng.randint(-9, 9)]), rng.choice([1, 2, 3, 10, 49, 100]))
        for _ in range(n)
    )


# -- polynomials in one central variable ----------------------------------------


class UniPoly:
    """Polynomial in one central variable with coefficients in any ring."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, j: int):
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return self.coeffs[0] * 0

    def __bool__(self):
        return any(bool(c) for c in self.coeffs)

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = out[j] + c
        return UniPoly(out)

    def __mul__(self, other):
        if isinstance(other, UniPoly):
            out = [self.coeffs[0] * 0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    if not b:
                        continue
                    out[i + j] = out[i + j] + a * b
            return UniPoly(out)
        return UniPoly([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return UniPoly([other * c for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        la, lb = len(self.coeffs), len(other.coeffs)
        pad_a = self.coeffs + tuple(self.coeffs[0] * 0 for _ in range(max(0, lb - la)))
        pad_b = other.coeffs + tuple(other.coeffs[0] * 0 for _ in range(max(0, la - lb)))
        return all(a == b for a, b in zip(pad_a, pad_b))

    def __repr__(self):
        return f"UniPoly({list(self.coeffs)!r})"


# -- second routes to Schur and derived Schur values and to top pairings -------
# Unlike the rest of this module, these routes reuse package primitives: the
# elementary functions, the Schur expansion (over UniPoly, in schur_shifted)
# and the wedge.


def pairing_by_wedge(left, omega, right) -> list:
    """The matrix of the top coefficient of l ^ omega ^ r, by wedging.

    Each product is formed and its coefficient at the top monomial is read
    against naive_vol, so parts of omega of other degrees, which only reach
    other monomials, add nothing.  The oracle of exterior.top_pairings.
    """
    d = omega.d
    full = (1 << d) - 1
    ((_, unit),) = naive_vol(d).items()
    # The unit is 1, -1, i or -i, so dividing by it is multiplying by its conjugate.
    inverse = unit.conjugate()
    out = []
    for l in left:
        lo = wedge(l, omega)
        out.append(
            [wedge(lo, r).terms.get((full, full), GaussianRational(0)) * inverse for r in right]
        )
    return out


def schur_by_permutations(parts, xs, one):
    """The Jacobi-Trudi determinant summed over all n! permutations.

    Takes explicit parts, so zero parts can be kept to test padding.
    """
    zero = one * 0
    n = len(parts)
    need = max(parts[0] + n - 1, 0) if n else 0
    cs = [elementary_elements(k, list(xs), one) for k in range(need + 1)]

    def entry(i, j):
        k = parts[i] - i + j
        if k < 0 or k > need:
            return zero
        return cs[k]

    total = zero
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        prod = one
        for i in range(n):
            prod = prod * entry(i, perm[i])
        total = total + (prod if inv % 2 == 0 else prod * -1)
    return total


def derived_schur_all_elements(lam, xs, one) -> list:
    """Coefficients [s^(0), s^(1), ...] of the uniform shift expansion.

    Substituting x_i + T for every argument and expanding in the central
    variable T gives the derived values; index j is the coefficient of T^j.
    """
    lam = Partition(lam)
    lifted = [UniPoly((x, one)) for x in xs]
    s = schur_by_permutations(lam.parts, lifted, UniPoly((one,)))
    return [s.coeff(j) for j in range(lam.weight + 1)]


# The second route to the augmented intersection forms differs from
# intersection_form in how it reaches Q_i: by multiplying s_lam(omega_j + zeta)
# out in the truncated polynomial ring over forms, not through derived Schur
# coefficients.

_schur_hat = weakref.WeakKeyDictionary()


def schur_shifted(space, lam):
    """s_lam evaluated at omega_j + zeta in the polynomial ring over forms."""
    cache = _schur_hat.setdefault(space, {})
    key = lam.parts
    if key not in cache:
        one = Form.scalar(space.d, 1)
        hats = [UniPoly((w, one)) for w in space.omegas]
        cache[key] = schur_elements(lam, hats, UniPoly((one,)))
    return cache[key]


def intersection_form_by_product(space, lam, i: int) -> SymBilinearForm:
    """Q_i by direct multiplication in the truncated ring over the algebra.

    Computes s_lam(omega_hat) * zeta^i * h^(d-i) as a polynomial in zeta with
    form coefficients and integrates against the basis: integration reads the
    zeta^d slice, so any zeta power above d contributes nothing.  Must agree
    with intersection_form exactly.
    """
    lam = Partition(lam)
    _check_weight(space, lam)
    d = space.d
    if i < 0 or i > d:
        return SymBilinearForm.zero(space.dim_v)
    s_hat = schur_shifted(space, lam)
    hp = space.h_power(d - i)

    def slice_at(m: int) -> Form:
        # coefficient of zeta^m in s_hat * zeta^i * h^(d-i)
        c = s_hat.coeff(m - i) if m - i >= 0 else Form.zero(d)
        return wedge(c, hp)

    # The W x W block, the W x zeta column and the zeta x zeta entry, each
    # integrated from its own slice.
    w = space.w_basis
    one = [Form.scalar(d, 1)]
    block = pairing_by_wedge(w, slice_at(d), w)
    column = [row[0] for row in pairing_by_wedge(w, slice_at(d - 1), one)]
    corner = pairing_by_wedge(one, slice_at(d - 2), one)[0][0]
    rows = [row + [c] for row, c in zip(block, column)] + [column + [corner]]
    if any(not x.is_real() for row in rows for x in row):
        raise ValueError("the pairing of real forms came out complex")
    return SymBilinearForm([[x.re for x in row] for row in rows])



# -- a second route from JSON to forms ------------------------------------------
# It reuses the package's public constructors: one GaussianRational per
# coefficient, and Form checks and scales them.


def form_from_json_by_constructor(obj) -> Form:
    """The Form a serialized form describes, through Form(d, terms) with every
    coefficient read by GaussianRational.from_json.  The oracle of
    Form.from_json."""
    d = int(obj["dimension"])
    terms = {}
    for t in obj["terms"]:
        key = (mask_of(t["monomial"]["dz"], d), mask_of(t["monomial"]["dzbar"], d))
        if key in terms:
            raise ValueError("duplicate monomial in serialized form")
        terms[key] = GaussianRational.from_json(t["coeff"])
    return Form(d, terms)


# -- form-level helpers reached by no CLI path ---------------------------------
# Convex combinations of Schur forms and the form-level elementary and twisted
# classes, kept for the tests that exercise them; they reuse the package's
# ring-level evaluators and schur.


@dataclass(frozen=True)
class WeightVector:
    """Non-negative rational weights summing to one, indexed like partitions(b, e)."""

    x: tuple[Fraction, ...]

    def __init__(self, x):
        vals = tuple(as_fraction(v) for v in x)
        if not vals:
            raise ValueError("weight vector cannot be empty")
        if any(v < 0 for v in vals):
            raise ValueError("weights must be non-negative")
        if sum(vals) != 1:
            raise ValueError("weights must sum to one exactly")
        object.__setattr__(self, "x", vals)

    def __iter__(self):
        return iter(self.x)

    def __len__(self):
        return len(self.x)

    def to_json(self) -> list[str]:
        return [fraction_to_str(v) for v in self.x]

    @staticmethod
    def from_json(obj) -> "WeightVector":
        return WeightVector([fraction_from_str(s) for s in obj])


def elementary(k: int, forms) -> Form:
    """k-th elementary symmetric function of (1,1)-forms under wedge."""
    d = forms[0].d
    if any(f.d != d for f in forms):
        raise ValueError("mixed dimensions")
    return elementary_elements(k, list(forms), Form.scalar(d, 1))


def twisted_chern(cs, e: int, delta: Form, p: int) -> Form:
    """Twist of a Chern-class list by a (1,1)-form delta."""
    return twisted_chern_elements(list(cs), e, delta, p, Form.scalar(delta.d, 1))


def schur_combination(weights: WeightVector, b: int, e: int, forms) -> Form:
    """Convex combination of the Schur forms indexed by partitions(b, e)."""
    lams = partitions(b, e)
    if len(weights) != len(lams):
        raise ValueError(
            f"weight vector has {len(weights)} entries but there are "
            f"{len(lams)} partitions of {b} with parts at most {e}"
        )
    total = Form.zero(forms[0].d)
    for w, lam in zip(weights, lams):
        if w:
            total = total + schur(lam, forms).scale(w)
    return total


# -- the package's congruence kernel as a reference route ---------------------
# It reuses bilinear's Bareiss kernel and sign count, bound here at import, so
# the routes fixture, which patches bilinear._congruence, records none of its
# calls.


def kernel_signature(rows: list[list[int]]) -> Signature:
    """The signature of a symmetric int matrix signed by the congruence kernel
    alone: the reference for the rounded route, the family chains and the
    i = d family signed off its kernel."""
    return _count_signs(_congruence(rows), len(rows))
