"""Exact symmetric bilinear forms, signatures, and the Hodge-Riemann predicates.

Every inertia in the package comes from one congruence kernel, over Fraction
or GaussianRational entries: diagonal pivots where available, and when the
remaining diagonal vanishes the basis change b_j += conj(a) b_k exposes the
diagonal entry 2|a|^2 from a nonzero off-diagonal a.  Sylvester's law makes
the count basis independent, so the result is exact.

A form Q with Q(h) > 0 for some h has the Hodge-Riemann property when its
signature is (1, n-1, 0); the weak variant with respect to h asks only for a
single positive direction plus Q(h) > 0.  The quantified Hodge-index
inequality Q(v)Q(h) <= Q(v,h)^2 for all v is decided exactly by testing
positive semidefiniteness of the assembled quadratic form
T(v) = Q(v,h)^2 - Q(v)Q(h).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .exterior import Form, basis_11_real, top_ratio, wedge
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
        v = _as_vector(v, self.n)
        return sum(u[i] * sum(self.matrix[i][j] * v[j] for j in range(self.n)) for i in range(self.n))

    def quad(self, v: Vector) -> Fraction:
        return self.value(v, v)

    def pairing_vector(self, h: Vector) -> tuple[Fraction, ...]:
        """The vector of values Q(e_i, h) over the declared basis."""
        h = _as_vector(h, self.n)
        return tuple(sum(row[j] * h[j] for j in range(self.n)) for row in self.matrix)

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


def _congruence(rows: list[list]) -> list[tuple]:
    """Congruence-diagonalise a symmetric or Hermitian matrix in place.

    Returns (index, value, pair) per pivot, in pivot order; pair is (k, m) when
    a zero-diagonal pair step b_index += m * b_k came just before, else None.
    Eliminated entries keep their multiplier (LDL^H-style): rows[r][q] is the
    multiple of b_q taken off b_r when q was eliminated, for each r then active.
    """
    active = list(range(len(rows)))
    pivots = []
    while active:
        pair = None
        pivot = next((k for k in active if rows[k][k]), None)
        if pivot is None:
            found = next(((j, k) for j in active for k in active if j != k and rows[j][k]), None)
            if found is None:
                break
            pivot, k = found
            a = rows[pivot][k]
            m = a.conjugate()
            # b_pivot += conj(a) * b_k turns its zero diagonal entry into 2|a|^2.
            for c in active:
                rows[pivot][c] += a * rows[k][c]
            for r in active:
                rows[r][pivot] += m * rows[r][k]
            pair = (k, m)
        p = rows[pivot][pivot]
        pivots.append((pivot, p, pair))
        active.remove(pivot)
        for r in active:
            f = rows[r][pivot]
            if f:
                f = f / p
                for c in active:
                    rows[r][c] -= f * rows[pivot][c]
                rows[r][pivot] = f
    return pivots


def _congruence_vector(rows, pivots, step: int) -> list:
    """The basis vector whose value is pivot number `step`, replayed from the
    multipliers and pair steps _congruence left behind."""
    n = len(rows)
    basis = [[type(rows[0][0])(int(i == j)) for j in range(n)] for i in range(n)]
    active = list(range(n))
    for s, (q, _value, pair) in enumerate(pivots):
        if pair is not None:
            k, m = pair
            basis[q] = [x + m * y for x, y in zip(basis[q], basis[k])]
        if s == step:
            return basis[q]
        active.remove(q)
        for r in active:
            if rows[r][q]:
                c = rows[r][q].conjugate()
                basis[r] = [x - c * y for x, y in zip(basis[r], basis[q])]


def _count_signs(pivots, n: int) -> Signature:
    plus = sum(1 for _, value, _ in pivots if value > 0)
    return Signature(plus, len(pivots) - plus, n - len(pivots))


def signature(Q: SymBilinearForm) -> Signature:
    """Exact inertia (n_plus, n_minus, n_zero) via rational congruence."""
    return _count_signs(_congruence([list(row) for row in Q.matrix]), Q.n)


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
    is the d^2 x d^2 rational symmetric matrix of the pairing.
    """
    d = omega.d
    if d < 2:
        raise ValueError("need dimension at least 2")
    if not omega.is_homogeneous(d - 2, d - 2):
        raise ValueError(f"expected a ({d-2},{d-2})-form")
    if not omega.is_real():
        raise ValueError("expected a real form")
    basis = basis_11_real(d)
    n = len(basis)
    left = [wedge(b, omega) for b in basis]
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = top_ratio(wedge(left[i], basis[j]))
    return SymBilinearForm(rows)


def _hermitian_congruence(entries):
    """_congruence of a Hermitian matrix: (rows, pivots), pivot values real."""
    rows = [[GaussianRational.of(x) for x in row] for row in entries]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    pivots = _congruence(rows)
    if any(p.im for _, p, _ in pivots):
        raise RuntimeError("Hermitian reduction produced a complex pivot")
    return rows, [(q, p.re, pair) for q, p, pair in pivots]


def hermitian_inertia(entries) -> Signature:
    """Exact inertia of a Hermitian Gaussian-rational matrix."""
    rows, pivots = _hermitian_congruence(entries)
    return _count_signs(pivots, len(rows))
