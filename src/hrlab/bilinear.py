"""Exact symmetric bilinear forms, signatures, and the Hodge-Riemann predicates.

Every inertia in the package comes from one congruence kernel, fraction-free
symmetric Bareiss elimination over Python ints.  A rational matrix enters
scaled by the lcm of its denominators, and a Hermitian one M = A + iB as its
real form [[A, -B], [B, A]], whose inertia is twice that of M.  The kernel
pivots on the diagonal where it can, and when the remaining diagonal vanishes
the basis change b_j += b_k exposes the diagonal entry 2a from a nonzero
off-diagonal a.  Sylvester's law makes the count basis independent, so the
result is exact.

A form Q with Q(h) > 0 for some h has the Hodge-Riemann property when its
signature is (1, n-1, 0); the weak variant with respect to h asks only for a
single positive direction plus Q(h) > 0.  The quantified Hodge-index
inequality Q(v)Q(h) <= Q(v,h)^2 for all v is decided exactly by testing
positive semidefiniteness of the assembled quadratic form
T(v) = Q(v,h)^2 - Q(v)Q(h).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .exterior import Form, basis_11_real, top_pairings, wedge  # wedge unused: perfbench's rebind test reads it
from .gaussian import GaussianRational, as_fraction, fraction_to_str


class Signature(NamedTuple):
    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def is_hr(self) -> bool:
        """(1, n-1, 0): one positive direction, no kernel."""
        return self.n_plus == 1 and self.n_zero == 0

    def to_json(self) -> list[int]:
        return [self.n_plus, self.n_minus, self.n_zero]


Vector = Sequence[Fraction]


def _as_vector(v, n: int) -> tuple[Fraction, ...]:
    vec = tuple(as_fraction(x) for x in v)
    if len(vec) != n:
        raise ValueError(f"vector has length {len(vec)}, expected {n}")
    return vec


class SymBilinearForm:
    """Rational symmetric matrix; the caller knows the basis it is written in."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        rows = tuple(tuple(as_fraction(x) for x in row) for row in matrix)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and non-empty")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix is not symmetric")
        object.__setattr__(self, "matrix", rows)

    def __setattr__(self, name, value):
        raise AttributeError("SymBilinearForm is immutable")

    @staticmethod
    def zero(n: int) -> "SymBilinearForm":
        z = Fraction(0)
        return SymBilinearForm([[z] * n for _ in range(n)])

    @property
    def n(self) -> int:
        return len(self.matrix)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.matrix for x in row)

    def value(self, u: Vector, v: Vector) -> Fraction:
        u = _as_vector(u, self.n)
        w = self.pairing_vector(v)
        return sum((x * w[i] for i, x in enumerate(u) if x), Fraction(0))

    def quad(self, v: Vector) -> Fraction:
        return self.value(v, v)

    def pairing_vector(self, h: Vector) -> tuple[Fraction, ...]:
        """The vector of values Q(e_i, h) over the declared basis.

        Only the nonzero coordinates of h are read: h and zeta are sparse.
        """
        nonzero = [(j, x) for j, x in enumerate(_as_vector(h, self.n)) if x]
        return tuple(sum((row[j] * x for j, x in nonzero), Fraction(0)) for row in self.matrix)

    def restrict_indices(self, indices: Sequence[int]) -> "SymBilinearForm":
        return SymBilinearForm([[self.matrix[i][j] for j in indices] for i in indices])

    def restrict_span(self, vectors: Sequence[Vector]) -> "SymBilinearForm":
        vecs = [_as_vector(v, self.n) for v in vectors]
        images = [self.pairing_vector(v) for v in vecs]
        return SymBilinearForm(
            [[sum(u[k] * img[k] for k in range(self.n)) for img in images] for u in vecs]
        )

    def __add__(self, other):
        if not isinstance(other, SymBilinearForm):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("size mismatch")
        return SymBilinearForm(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.matrix, other.matrix)]
        )

    def __sub__(self, other):
        if not isinstance(other, SymBilinearForm):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, c):
        if isinstance(c, (int, Fraction)):
            return SymBilinearForm([[x * c for x in row] for row in self.matrix])
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return (-1) * self

    def __eq__(self, other):
        if not isinstance(other, SymBilinearForm):
            return NotImplemented
        return self.matrix == other.matrix

    def __repr__(self):
        return f"SymBilinearForm(n={self.n})"

    def to_json(self) -> dict:
        return {"matrix": [[fraction_to_str(x) for x in row] for row in self.matrix]}

    @staticmethod
    def from_json(obj: dict) -> "SymBilinearForm":
        return SymBilinearForm([[Fraction(s) for s in row] for row in obj["matrix"]])


def _integer_matrix(rows) -> list[list[int]]:
    """The rational matrix times the lcm of its denominators.

    The factor is positive, so the inertia is the same.
    """
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    den = lcm(*{q for row in ratios for _, q in row})
    return [[p * (den // q) for p, q in row] for row in ratios]


def _congruence(rows: list[list[int]]) -> list[tuple]:
    """Congruence-diagonalise a symmetric integer matrix without fractions.

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


def _pivot_signs(pivots) -> list[int]:
    """Sign of each LDL pivot: the sign of its minor times the previous one."""
    signs = []
    prev = 1
    for _, minor, _, _ in pivots:
        signs.append(1 if (minor > 0) == (prev > 0) else -1)
        prev = minor
    return signs


def _congruence_vector(pivots, n: int, step: int) -> list[Fraction]:
    """The basis vector whose value is pivot number `step`, replayed from the
    pair steps and multipliers _congruence returned."""
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for s, (q, minor, pair, column) in enumerate(pivots):
        if pair is not None:
            k, m = pair
            basis[q] = [x + m * y for x, y in zip(basis[q], basis[k])]
        if s == step:
            return basis[q]
        for r, f in column:
            c = Fraction(f, minor)
            basis[r] = [x - c * y for x, y in zip(basis[r], basis[q])]


def _count_signs(pivots, n: int) -> Signature:
    plus = _pivot_signs(pivots).count(1)
    return Signature(plus, len(pivots) - plus, n - len(pivots))


def signature(Q: SymBilinearForm) -> Signature:
    """Exact inertia (n_plus, n_minus, n_zero) via integer congruence."""
    return _count_signs(_congruence(_integer_matrix(Q.matrix)), Q.n)


def is_psd(Q: SymBilinearForm) -> bool:
    return signature(Q).n_minus == 0


def is_hr(Q: SymBilinearForm) -> bool:
    """Signature (1, n-1, 0): one positive direction, no kernel."""
    return signature(Q).is_hr


def is_hr_wrt(Q: SymBilinearForm, h: Vector) -> bool:
    return Q.quad(h) > 0 and is_hr(Q)


def is_weak_hr_wrt(Q: SymBilinearForm, h: Vector) -> bool:
    """Q(h) > 0 and exactly one positive eigenvalue (closure of the HR forms)."""
    return Q.quad(h) > 0 and signature(Q).n_plus == 1


def hodge_index_defect(Q: SymBilinearForm, h: Vector) -> SymBilinearForm:
    """The quadratic form T(v) = Q(v,h)^2 - Q(v)Q(h).

    T positive semidefinite is equivalent to the Hodge-index inequality
    holding for every v, turning the universal quantifier into one exact
    signature computation.
    """
    w = Q.pairing_vector(h)
    qh = Q.quad(h)
    n = Q.n
    rows = [
        [w[i] * w[j] - qh * Q.matrix[i][j] for j in range(n)]
        for i in range(n)
    ]
    return SymBilinearForm(rows)


def kernel_basis(rows: Sequence[Sequence[Fraction]]) -> list[tuple[Fraction, ...]]:
    """Basis of the null space of a rational matrix, deterministic pivots."""
    m = [list(as_fraction(x) for x in row) for row in rows]
    if not m:
        raise ValueError("empty matrix")
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        hit = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if hit is None:
            continue
        m[r], m[hit] = m[hit], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for c in free:
        v = [Fraction(0)] * ncols
        v[c] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][c]
        basis.append(tuple(v))
    return basis


def solve_in_span(vectors: Sequence[Vector], target: Vector):
    """Coefficients expressing target in the given spanning vectors, or None."""
    if not vectors:
        return None
    n = len(vectors[0])
    cols = [_as_vector(v, n) for v in vectors] + [_as_vector(target, n)]
    null = kernel_basis([[col[i] for col in cols] for i in range(n)])
    # t is in the span iff its column is free in the RREF of [v_1..v_k | t]; its
    # kernel vector then comes last with a 1 there, where a pivot leaves 0.
    if not null or null[-1][-1] == 0:
        return None
    return tuple(-x for x in null[-1][:-1])


def primitive_restriction(Q: SymBilinearForm, h: Vector) -> SymBilinearForm:
    """Q restricted to the orthogonal complement {v : Q(v,h) = 0}.

    Requires Q(h) != 0; for Hodge-Riemann forms with Q(h) > 0 the result is
    negative definite.
    """
    if Q.quad(h) == 0:
        raise ValueError("primitive restriction needs Q(h) != 0")
    w = Q.pairing_vector(h)
    basis = kernel_basis([w])
    return Q.restrict_span(basis)


def proportionality_witness(
    Q: SymBilinearForm,
    vprime: Sequence[Vector],
    beta: Vector,
    gamma: Vector,
) -> Fraction:
    """The factor kappa with beta = kappa * gamma, under the null-pair hypotheses.

    Hypotheses checked exactly: Q has the Hodge-Riemann property, Q is
    negative semidefinite on span(vprime), beta and gamma lie in that span,
    both are null vectors of Q, and gamma is nonzero.  Existence of kappa is
    then guaranteed; failing to find one indicates a bug and raises.
    """
    beta = _as_vector(beta, Q.n)
    gamma = _as_vector(gamma, Q.n)
    if not is_hr(Q):
        raise ValueError("form does not have the Hodge-Riemann property")
    sub = Q.restrict_span(vprime)
    if signature(sub).n_plus != 0:
        raise ValueError("form is not negative semidefinite on the subspace")
    if solve_in_span(vprime, beta) is None or solve_in_span(vprime, gamma) is None:
        raise ValueError("vectors must lie in the given subspace")
    if Q.quad(beta) != 0 or Q.quad(gamma) != 0:
        raise ValueError("vectors must be null vectors of the form")
    if all(x == 0 for x in gamma):
        raise ValueError("gamma must be nonzero")
    k = next(i for i in range(Q.n) if gamma[i] != 0)
    kappa = beta[k] / gamma[k]
    if any(b != kappa * g for b, g in zip(beta, gamma)):
        raise RuntimeError("proportionality guaranteed by hypotheses but not found")
    return kappa


def gram(omega: Form) -> SymBilinearForm:
    """Intersection form (a, b) -> top_ratio(a ^ omega ^ b) over basis_11_real.

    omega must be a real homogeneous (d-2, d-2)-form with d >= 2; the result
    is the d^2 x d^2 rational symmetric matrix of the pairing, read off
    omega's coefficients by exterior.top_pairings.  The pairing of real forms
    is real, so only the real parts are kept.
    """
    d = omega.d
    if d < 2:
        raise ValueError("need dimension at least 2")
    if not omega.is_homogeneous(d - 2, d - 2):
        raise ValueError(f"expected a ({d-2},{d-2})-form")
    if not omega.is_real():
        raise ValueError("expected a real form")
    basis = basis_11_real(d)
    return SymBilinearForm([[x.re for x in row] for row in top_pairings(basis, omega, basis)])


def _realified(entries) -> list[list[int]]:
    """The integer realification of a Hermitian matrix M = A + iB.

    It is [[A, -B], [B, A]] with the real and imaginary parts of each
    coordinate interleaved, scaled to integers: row 2j + (0 or 1) belongs to
    Re or Im of coordinate j.  Its inertia is twice that of M, and a real
    vector (x_0, y_0, x_1, y_1, ...) takes the value v^H M v for
    v_j = x_j + i y_j, up to the positive scale.
    """
    rows = [[GaussianRational.of(x) for x in row] for row in entries]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    for j in range(n):
        for k in range(j, n):
            if rows[j][k] != rows[k][j].conjugate():
                raise ValueError("matrix is not Hermitian")
    real = [[None] * (2 * n) for _ in range(2 * n)]
    for j, row in enumerate(rows):
        for k, z in enumerate(row):
            real[2 * j][2 * k] = real[2 * j + 1][2 * k + 1] = z.re
            real[2 * j][2 * k + 1] = -z.im
            real[2 * j + 1][2 * k] = z.im
    return _integer_matrix(real)


def _hermitian_reduction(entries) -> tuple[Signature, list[GaussianRational] | None]:
    """The inertia of a Hermitian matrix M and, when M has a negative
    direction, a vector v with v^H M v < 0: the real basis vector
    (x_0, y_0, x_1, y_1, ...) of the first negative pivot of the real form,
    read back as v_j = x_j + i y_j."""
    real = _realified(entries)
    pivots = _congruence(real)
    plus, minus, zero = _count_signs(pivots, len(real))
    negative = next((s for s, sign in enumerate(_pivot_signs(pivots)) if sign < 0), None)
    vector = None
    if negative is not None:
        w = _congruence_vector(pivots, len(real), negative)
        vector = [GaussianRational(x, y) for x, y in zip(w[::2], w[1::2])]
    return Signature(plus // 2, minus // 2, zero // 2), vector


def hermitian_inertia(entries) -> Signature:
    """Exact inertia of a Hermitian Gaussian-rational matrix."""
    return _hermitian_reduction(entries)[0]
