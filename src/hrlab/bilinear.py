"""Exact symmetric bilinear forms, signatures, and the Hodge-Riemann predicates.

A SymBilinearForm is an int matrix over one positive denominator in lowest
terms, read only here.  combine, the restrictions and the defect matrices
build their results over ints and skip the public checks.

Inertias come from two exact routes.  The congruence kernel is
fraction-free symmetric Bareiss elimination over Python ints that keeps only
the active upper triangle, so each pivot updates about half the entries a
full block would.  A form enters it as its int matrix, and a Hermitian one
M = A + iB, given as the Gaussian-integer rows a HermitianMatrix stores or
top_pairings returns, as its real form [[A, -B], [B, A]], whose inertia is
twice that of M; those rows are taken as they are, with no coercion and no
second symmetry check.  Only hermitian_inertia takes Gaussian-rational rows,
and exterior coerces and checks them once.  The kernel pivots on the
diagonal where it can, and when the remaining diagonal vanishes the basis
change b_j += b_k exposes the diagonal entry 2a from a nonzero off-diagonal
a.  Sylvester's law makes the count basis independent, so the result is
exact.

A matrix of ROUNDED_FROM_N rows or more, at least half of whose entries
are nonzero, first tries a rounded congruence: a binary64 LDL^T proposes a
triangular int P, C = P A P^T is formed exactly, each row of it one int of
packed slots, and when every row of C is strictly diagonally dominant the
signs of its diagonal are the inertia, by Sylvester's law and Gershgorin's
theorem (the certify-then-fall-back pattern of S. M. Rump, "Verification of
positive definiteness", BIT 46, 2006).  Floats only choose P, and any int P
will do: the matrices of one family hand each other the P that certified the
last of them, and propose afresh only when it is refused.  The check hands
back the row margins m_i = |C_ii| - sum_{j != i} |C_ij| with the inertia.

A polynomial family F_t = sum_k t^k F_k of int matrices (_FamilyChain)
extends the pattern from one matrix to the family: a family certificate is
the (order, P) that certified F_0, the margins of C_0 = P F_0 P^T and the
bounds b^(k) = |P| (|F_k| (|P|^T 1)), two int matrix-vector products per
coefficient.  C_t - C_0 = sum_k t^k P F_k P^T, so a sample t = p/q with
sum_k |p|^k q^(K-k) b^(k)_i < q^K m_i on every row has rows that stay
strictly dominant with the diagonal signs of C_0, and the inertia of F_0 by
the same two theorems; it is never formed.  Any other sample is signed as
one matrix.  A singular matrix is never dominant and never within a bound.
The kernel signs it, every smaller or sparser matrix, every refused
certificate, and the Hermitian reductions, whose witness replays its
pivots.
Positive definiteness of a Hermitian matrix needs no inertia and is decided
elsewhere, in exterior, by Sylvester's criterion on the leading principal
minors.

A form Q with Q(h) > 0 for some h has the Hodge-Riemann property when its
signature is (1, n-1, 0); the weak variant with respect to h asks only for a
single positive direction plus Q(h) > 0.  The quantified Hodge-index
inequality Q(v)Q(h) <= Q(v,h)^2 for all v is decided exactly by testing
positive semidefiniteness of the assembled quadratic form
T(v) = Q(v,h)^2 - Q(v)Q(h), whose inertia hodge_index_inertia reads off
that of Q and the sign of Q(h) in closed form.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from itertools import chain, repeat, zip_longest
from math import frexp, gcd, inf, lcm, ldexp
from operator import add, mul, sub
from struct import Struct
from typing import NamedTuple, Sequence

from .exterior import Form, _hermitian_ints, basis_11_real, top_pairings, wedge  # wedge unused: perfbench's rebind test reads it
from .gaussian import GaussianRational, as_fraction, fraction_from_str, fraction_to_str


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


def _int_rows(rows) -> tuple[list[list[int]], int]:
    """Rational rows as int rows over the lcm of their denominators, and that lcm."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _dot(x, y) -> int:
    """x . y over ints, reading only the nonzero coordinates of x."""
    return sum(a * b for a, b in zip(x, y) if a)


class SymBilinearForm:
    """Rational symmetric matrix _ints / _den; the caller knows its basis."""

    __slots__ = ("_ints", "_den")

    def __init__(self, matrix):
        rows = tuple(tuple(as_fraction(x) for x in row) for row in matrix)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and non-empty")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix is not symmetric")
        ints, den = _int_rows(rows)
        object.__setattr__(self, "_ints", tuple(map(tuple, ints)))
        object.__setattr__(self, "_den", den)

    @classmethod
    def _of(cls, ints, den: int) -> "SymBilinearForm":
        """ints / den reduced by the gcd, trusting symmetric int rows and den > 0."""
        if not ints:
            raise ValueError("matrix must be square and non-empty")
        g = gcd(den, *(x for row in ints for x in row))
        if g > 1:
            ints = [[x // g for x in row] for row in ints]
        form = object.__new__(cls)
        object.__setattr__(form, "_ints", tuple(map(tuple, ints)))
        object.__setattr__(form, "_den", den // g)
        return form

    def __setattr__(self, name, value):
        raise AttributeError("SymBilinearForm is immutable")

    def __reduce__(self):
        return SymBilinearForm._of, (self._ints, self._den)

    @staticmethod
    def zero(n: int) -> "SymBilinearForm":
        return SymBilinearForm._of([[0] * n for _ in range(n)], 1)

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The read-only view as Fraction rows, built anew on each read."""
        return tuple(tuple(Fraction(x, self._den) for x in row) for row in self._ints)

    @property
    def n(self) -> int:
        return len(self._ints)

    def is_zero(self) -> bool:
        return not any(map(any, self._ints))

    def _image(self, v: Vector) -> tuple[list[int], list[int], int]:
        """(x, A x, s) with v = x / s over ints, so Q(e_i, v) = (A x)_i / (den s).
        Only the nonzero coordinates of v are read: h and zeta are sparse."""
        (x,), s = _int_rows([_as_vector(v, self.n)])
        nonzero = [(j, c) for j, c in enumerate(x) if c]
        return x, [sum(row[j] * c for j, c in nonzero) for row in self._ints], s

    def value(self, u: Vector, v: Vector) -> Fraction:
        (x,), su = _int_rows([_as_vector(u, self.n)])
        _, w, sv = self._image(v)
        return Fraction(_dot(x, w), self._den * su * sv)

    def quad(self, v: Vector) -> Fraction:
        x, w, s = self._image(v)
        return Fraction(_dot(x, w), self._den * s * s)

    def pairing_vector(self, h: Vector) -> tuple[Fraction, ...]:
        """The vector of values Q(e_i, h) over the declared basis."""
        _, w, s = self._image(h)
        return tuple(Fraction(c, self._den * s) for c in w)

    def restrict_indices(self, indices: Sequence[int]) -> "SymBilinearForm":
        return SymBilinearForm._of([[self._ints[i][j] for j in indices] for i in indices], self._den)

    def restrict_span(self, vectors: Sequence[Vector]) -> "SymBilinearForm":
        xs, s = _int_rows([_as_vector(v, self.n) for v in vectors])
        images = [[_dot(x, row) for row in self._ints] for x in xs]
        return SymBilinearForm._of([[_dot(x, w) for w in images] for x in xs], self._den * s * s)

    def __add__(self, other):
        if not isinstance(other, SymBilinearForm):
            return NotImplemented
        return combine((1, 1), (self, other))

    def __sub__(self, other):
        if not isinstance(other, SymBilinearForm):
            return NotImplemented
        return combine((1, -1), (self, other))

    def __mul__(self, c):
        if isinstance(c, (int, Fraction)):
            return combine((c,), (self,))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return combine((-1,), (self,))

    def __eq__(self, other):
        if not isinstance(other, SymBilinearForm):
            return NotImplemented
        return self._den == other._den and self._ints == other._ints

    def __repr__(self):
        return f"SymBilinearForm(n={self.n})"

    def to_json(self) -> dict:
        return {"matrix": [[fraction_to_str(x) for x in row] for row in self.matrix]}

    @staticmethod
    def from_json(obj: dict) -> "SymBilinearForm":
        return SymBilinearForm([[fraction_from_str(s) for s in row] for row in obj["matrix"]])


def combine(weights: Sequence, forms: Sequence[SymBilinearForm]) -> SymBilinearForm:
    """sum_k w_k Q_k for exact rational weights, over ints with one lcm denominator.
    Raises ValueError on no forms, forms of different sizes or a count mismatch."""
    if not forms:
        raise ValueError("no forms to combine")
    n = forms[0].n
    if any(f.n != n for f in forms):
        raise ValueError("size mismatch")
    terms = [(as_fraction(w), f) for w, f in zip(weights, forms, strict=True) if w]
    den = lcm(*(w.denominator * f._den for w, f in terms))
    rows = [[0] * n for _ in range(n)]
    for w, f in terms:
        c = w.numerator * (den // (w.denominator * f._den))
        rows = [[x + c * y for x, y in zip(r, a)] for r, a in zip(rows, f._ints)]
    return SymBilinearForm._of(rows, den)


def _congruence(rows: list[list[int]]) -> list[tuple]:
    """Congruence-diagonalise a symmetric integer matrix without fractions.

    Symmetric Bareiss elimination on the active upper triangle: row i holds
    A[i][i:] for the rows still active.  The pivot is the first nonzero
    diagonal entry, its column is read off the triangle (A[i][t] from row i
    above it, from the pivot row's tail below it), and each row updates only
    its own tail, dividing exactly by the previous pivot, so every entry stays
    an integer minor of the input.  When the active diagonal vanishes, the
    pair step b_j += b_k for the first nonzero off-diagonal entry
    a = A[j][k] (j < k) exposes the diagonal entry 2a.

    Returns (index, minor, pair, column) per pivot, in pivot order.  The minor
    is the leading principal minor on the pivots so far, so the LDL pivot is
    minor / previous minor.  pair is (k, 1) when the pair step b_index += b_k
    came just before, else None.  column lists (r, A[r][index]) for the rows r
    still active, so A[r][index] / minor is the multiple of b_index taken off
    b_r: the LDL multiplier.
    """
    active = list(range(len(rows)))
    up = [list(row[i:]) for i, row in enumerate(rows)]
    pivots = []
    prev = 1
    while up:
        pair = None
        t = next((i for i, row in enumerate(up) if row[0]), None)
        if t is None:
            # The diagonal is zero, so the first nonzero entry lies right of it.
            found = next(
                ((j, j + o) for j, row in enumerate(up) for o, x in enumerate(row) if x), None
            )
            if found is None:
                break
            t, k = found
            # Row t += row k over the columns t.., then column t += column k,
            # which reaches the diagonal through the entry at column k.  The
            # rows above t are zero, so their entries in column t stay 0.
            tail_k = [up[m][k - m] for m in range(t, k)] + up[k]
            up[t] = [x + y for x, y in zip(up[t], tail_k)]
            up[t][0] += up[t][k - t]
            pair = (active[k], 1)
        pivot_row = up.pop(t)
        p = pivot_row[0]
        pcol = [row.pop(t - i) for i, row in enumerate(up[:t])] + pivot_row[1:]
        q = active.pop(t)
        column = []
        for i, row in enumerate(up):
            f = pcol[i]
            if f:
                column.append((active[i], f))
                up[i] = [(p * x - f * y) // prev for x, y in zip(row, pcol[i:])]
            elif p != prev:
                up[i] = [p * x // prev for x in row]
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


# A matrix of at least this many rows, at least half of whose entries are
# nonzero, tries the rounded congruence before _congruence.  Read off CPU
# times of both routes on the family and Gram matrices at d = 4..8 (in
# CHANGES): from 25 rows on a dense matrix is signed faster on the rounded
# route, most of all when it reuses a family's proposal, while every matrix
# with at most a quarter of its entries nonzero (R_{2,t}, R_{2,0} on W and
# the borders on them, 26 to 67 rows) is signed faster by the kernel.
ROUNDED_FROM_N = 25
# Bits of the proposal's row of largest pivot.  A pivot at or below 2^-40 of
# the largest diagonal entry ends it: the input is singular or nearly so.
_SCALE_BITS = 32


def _rounded_congruence(rows) -> tuple[list[int], list[list[int]]] | None:
    """Propose a congruence for a symmetric int matrix, or None.

    A left-looking LDL^T in binary64 on the matrix shifted to at most 60
    bits, each pivot the largest |diagonal| of the remaining block; each
    entry of L and of L^-1 is one dot product.  Returns (order, P): order
    lists the rows in pivot order, and row i of P, of length i + 1, is row i
    of L^-1 times 2^(e_i + g), rounded.  e_i = -floor(exponent(|D_i|) / 2)
    balances the diagonal of C = P A P^T, and g gives each row at least
    _SCALE_BITS bits.  None at a small pivot or a value out of range.
    Nothing here is trusted; _dominant_inertia checks the proposal exactly.
    """
    shift = max(0, max(map(abs, chain.from_iterable(rows)), default=0).bit_length() - 60)
    left = [float(row[i] >> shift) for i, row in enumerate(rows)]  # the diagonal of the remaining block
    floor = 2.0**-40 * max(map(abs, left), default=0.0)
    active, L = list(range(len(rows))), [[] for _ in rows]  # the L row of each active index
    order, D, cols = [], [], []  # cols: the columns of L^-1 on the pivots so far
    while active:
        mags = list(map(abs, left))
        t = mags.index(max(mags))
        k, d, lk = active.pop(t), left.pop(t), L.pop(t)
        if not floor < abs(d) < inf:
            return None
        order.append(k)
        w = list(map(mul, lk, D))
        D.append(d)
        m = [(float(rows[k][j] >> shift) - sum(map(mul, r, w))) / d for j, r in zip(active, L)]
        for r, x in zip(L, m):
            r.append(x)
        left = [x - y * y * d for x, y in zip(left, m)]
        for j, c in enumerate(cols):  # row k of L^-1, from L^-1 L = I
            c.append(-sum(map(mul, lk[j:], c)))
        cols.append([1.0])
    e = [-(frexp(d)[1] // 2) for d in D]
    g = _SCALE_BITS - min(e, default=0)
    try:  # round raises OverflowError on an infinity, ValueError on a NaN
        return order, [[round(ldexp(cols[j][i - j], s + g)) for j in range(i + 1)] for i, s in enumerate(e)]
    except (OverflowError, ValueError):
        return None


def _dominant_inertia(rows, order, P) -> tuple[Signature, list[int]] | None:
    """The inertia of a symmetric int matrix A from any int matrix P, and
    the row margins of C = P B P^T; None when C is not dominant.

    C is computed exactly, B being A with its rows and columns in `order`, a
    permutation of range(n), and a row of P shorter than n reads as zeros
    past its end; a P or an order of another length is refused.  Each row of
    C is one int of W-bit slots: with Pcol_l packing column l of P,
    N_k = sum_l B_kl Pcol_l and C_i = sum_k P_ik N_k has C_ij in slot j.
    Every |C_ij| <= n^2 max|P|^2 max|B| < 2^(W-2), so with 2^(W-1) added to
    each slot the slots are the base-2^W digits, read off the bytes.  If
    every margin m_i = |C_ii| - sum_{j != i} |C_ij| is positive, C is
    nonsingular, and so are P and A; by Sylvester's law A has the inertia of
    C, and by Gershgorin's theorem, along the path from diag(C) to C, which
    stays dominant, C has that of its diagonal.  Otherwise returns None.
    """
    n = len(rows)
    if len(order) != n or len(P) != n:  # C needs a row of P for each row of A
        return None
    bp, bb = (max(map(abs, chain.from_iterable(m)), default=0).bit_length() for m in (P, rows))
    size = (2 * bp + bb + 2 * n.bit_length() + 9) // 8  # bytes a slot: W = 8 size
    half = 1 << (8 * size - 1)
    bias = int.from_bytes(half.to_bytes(size, "little") * n, "little")
    encode = partial(int.to_bytes, length=size, byteorder="little")
    columns = zip(*(list(p) + [0] * (n - len(p)) for p in P))
    pcols = [int.from_bytes(b"".join(map(encode, map(add, col, repeat(half)))), "little") - bias for col in columns]
    N = [sum(map(mul, map(row.__getitem__, order), pcols)) for row in map(rows.__getitem__, order)]
    split, plus, margins = Struct(f"{size}s" * n).unpack, 0, []
    for i, p in enumerate(P):
        c = split((sum(map(mul, p, N)) + bias).to_bytes(n * size, "little"))
        c = list(map(sub, map(int.from_bytes, c, repeat("little")), repeat(half)))
        margin = 2 * abs(c[i]) - sum(map(abs, c))
        if margin <= 0:
            return None
        margins.append(margin)
        plus += c[i] > 0
    return Signature(plus, n - plus, 0), margins


def _rounded_first(rows) -> bool:
    """Whether rows go to the rounded congruence first: ROUNDED_FROM_N rows
    or more, at least half of the entries nonzero."""
    n = len(rows)
    return n >= ROUNDED_FROM_N and 2 * sum(n - row.count(0) for row in rows) >= n * n


def _inertia(rows, proposal=None) -> tuple[Signature, tuple | None, list[int] | None]:
    """The inertia of a symmetric int matrix, the proposal for the next, and
    the row margins of the C that certified it.

    A matrix that _rounded_first admits tries `proposal`, the (order, P)
    that certified an earlier matrix of its family, then a fresh one of its
    own; the kernel signs whatever neither certifies.  Returns the proposal
    that certified, else `proposal` unchanged, and the margins
    _dominant_inertia handed back, or None when the kernel signed it.
    """
    if _rounded_first(rows):
        if proposal is not None:
            certified = _dominant_inertia(rows, *proposal)
            if certified is not None:
                return certified[0], proposal, certified[1]
        fresh = _rounded_congruence(rows)
        if fresh is not None:
            certified = _dominant_inertia(rows, *fresh)
            if certified is not None:
                return certified[0], fresh, certified[1]
    return _count_signs(_congruence(rows), len(rows)), proposal, None


def _weights(p: int, q: int, K: int) -> list[int]:
    """p^k q^(K-k) for k = 0..K: q^K t^k at t = p/q."""
    return [p**k * q ** (K - k) for k in range(K + 1)]


def _sample_rows(coeffs, p: int, q: int, n: int) -> list[list[int]]:
    """The rows of sum_k p^k q^(K-k) M_k for flat (row-major) n x n int
    matrices M_0..M_K: q^K times the family's value at t = p/q, q > 0."""
    flat = None
    for w, m in zip(_weights(p, q, len(coeffs) - 1), coeffs):
        if w:
            term = m if w == 1 else map(mul, m, repeat(w))
            flat = list(term) if flat is None else list(map(add, flat, term))
    if flat is None:
        flat = [0] * (n * n)
    return [flat[i : i + n] for i in range(0, n * n, n)]


def _family_bounds(order, P, coeffs, n: int) -> list[list[int]]:
    """b^(k) = |P| (|M_k^pi| (|P|^T 1)) for each flat n x n int matrix M_k
    of coeffs, M_k^pi being M_k with its rows and columns in `order`.

    Row i of P M_k^pi P^T has sum_j |(P M_k^pi P^T)_ij| <= b^(k)_i.
    """
    absP = [list(map(abs, row)) for row in P]
    v = [0] * n  # |P|^T 1, in the coordinates of M_k
    for j, col in zip(order, zip_longest(*absP, fillvalue=0)):
        v[j] = sum(col)
    bounds = []
    for m in coeffs:
        w = [sum(map(mul, map(abs, m[i : i + n]), v)) for i in range(0, n * n, n)]
        wp = [w[j] for j in order]
        bounds.append([sum(map(mul, row, wp)) for row in absP])
    return bounds


def _bounded_inertia(certificate, p: int, q: int) -> Signature | None:
    """F_0's inertia for the sample t = p/q, q > 0, of a family
    F_t = sum_k t^k F_k, when the bound admits it, else None.

    certificate = (sig, margins, bounds): the inertia of F_0, the margins of
    C_0 = P F_0^pi P^T that certified it, and _family_bounds of F_1..F_K
    for that (order, P).  C_t - C_0 = sum_k t^k P F_k^pi P^T, so row i of C_t
    differs from row i of C_0 by at most sum_k |t|^k b^(k)_i in the l1 norm.
    When that is below m_i on every row (over ints:
    sum_k |p|^k q^(K-k) b^(k)_i < q^K m_i), every row of C_t is strictly
    dominant with the diagonal sign of C_0's, so by Gershgorin's theorem and
    Sylvester's law F_t has the inertia sig.
    """
    sig, margins, bounds = certificate
    top, *weights = _weights(abs(p), q, len(bounds))
    if all(sum(map(mul, weights, b)) < top * m for m, *b in zip(margins, *bounds)):
        return sig
    return None


class _FamilyChain:
    """Signs the samples F(p, q) = sum_k p^k q^(K-k) F_k of one polynomial
    family of symmetric int matrices, given as flat n x n int lists.

    F(p, q) is q^K F_{p/q}, q > 0, so it has the inertia of F_t.  The
    samples hand each other the proposal that certified the last of them
    (_inertia), and `sign` puts any other matrix of the family on the same
    chain.  When the rounded route certifies F_0 itself, the chain keeps the
    family certificate (inertia, margins, _family_bounds of F_1..F_K for
    that P), and every later sample the bound admits (_bounded_inertia)
    takes F_0's inertia without being formed.
    """

    __slots__ = ("coeffs", "n", "proposal", "certificate")

    def __init__(self, coeffs, n: int):
        self.coeffs, self.n = coeffs, n
        self.proposal = self.certificate = None

    def rows(self, p: int, q: int) -> list[list[int]]:
        return _sample_rows(self.coeffs, p, q, self.n)

    def inertia(self, p: int, q: int) -> Signature:
        if p and self.certificate is not None:
            sig = _bounded_inertia(self.certificate, p, q)
            if sig is not None:
                return sig
        sig, self.proposal, margins = _inertia(self.rows(p, q), self.proposal)
        if not p and margins is not None:
            bounds = _family_bounds(*self.proposal, self.coeffs[1:], self.n)
            self.certificate = (sig, margins, bounds)
        return sig

    def sign(self, rows) -> Signature:
        sig, self.proposal, _ = _inertia(rows, self.proposal)
        return sig


def signature(Q: SymBilinearForm) -> Signature:
    """Exact inertia (n_plus, n_minus, n_zero).

    A rounded congruence checked exactly when _rounded_first admits the
    matrix and it certifies; otherwise, and for every singular matrix,
    integer congruence by _congruence.
    """
    return _inertia(Q._ints)[0]


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
    signature computation.  With h = x / s over ints, W = A x and q = x.W,
    T = (W W^T - q A) / (den s)^2.
    """
    x, w, s = Q._image(h)
    q = _dot(x, w)
    rows = [[wi * wj - q * a for wj, a in zip(w, row)] for wi, row in zip(w, Q._ints)]
    return SymBilinearForm._of(rows, (Q._den * s) ** 2)


def _defect_rows(ap, u, w, qh: int) -> list[list[int]]:
    """U W^T + W U^T - q A' over ints, for A' = ap, U = u, W = w and q = qh."""
    return [
        [ua * wb + wa * ub - qh * b for wb, ub, b in zip(w, u, row)]
        for ua, wa, row in zip(u, w, ap)
    ]


def derivative_inequality_defect(
    q: SymBilinearForm, qp: SymBilinearForm, h: Vector
) -> SymBilinearForm:
    """Matrix of S(v) = 2*Qp(v,h)*Q(v,h) - Qp(v)*Q(h).

    S positive semidefinite decides the first-derivative inequality
    Qp(v)Q(h) <= 2*Qp(v,h)Q(v,h) for every v at once: U W^T + W U^T - q A'
    over den den' s^2, with U = A' x and W, q as in hodge_index_defect.
    """
    x, w, s = q._image(h)
    _, u, _ = qp._image(h)
    return SymBilinearForm._of(_defect_rows(qp._ints, u, w, _dot(x, w)), q._den * qp._den * s * s)


def _hodge_index_inertia(qh: int, sig: Signature, image_nonzero: bool) -> Signature:
    """The signature of hodge_index_defect(Q, h), given sig = signature(Q),
    the sign of qh = Q(h) at any positive scale and, read only when qh = 0,
    whether W = Q h is nonzero.

    With W, q as there, B = [[q, W^T], [W, A]] = [x | I]^T A [x | I] has,
    by Sylvester's law, the inertia of A plus one zero.  For q != 0,
    Haynsworth's additivity on the pivot q gives inertia(B) =
    inertia(q) + inertia(A - W W^T / q), and T is -q times that Schur
    complement: (n_minus, n_plus - 1, n_zero + 1) for q > 0 and
    (n_plus, n_minus - 1, n_zero + 1) for q < 0.  For q = 0, T = W W^T.
    """
    if qh > 0:
        return Signature(sig.n_minus, sig.n_plus - 1, sig.n_zero + 1)
    if qh < 0:
        return Signature(sig.n_plus, sig.n_minus - 1, sig.n_zero + 1)
    n = sum(sig)
    return Signature(1, 0, n - 1) if image_nonzero else Signature(0, 0, n)


def hodge_index_inertia(Q: SymBilinearForm, h: Vector) -> Signature:
    """The signature of hodge_index_defect(Q, h), read off signature(Q)."""
    x, w, _ = Q._image(h)
    return _hodge_index_inertia(_dot(x, w), signature(Q), any(w))


def _border_rows(ap, u, w, qh: int) -> list[list[int]]:
    """B = [[A', P, M], [P^T, 2q, 0], [M^T, 0, -2q]] with P = U + W and
    M = U - W, for A' = ap, U = u, W = w and q = qh: linear in (A', U, W, q).
    The border comes last, so the kernel eliminates a sparse A' before the
    dense border rows."""
    p = list(map(add, u, w))
    m = list(map(sub, u, w))
    return [[*row, a, b] for a, b, row in zip(p, m, ap)] + [[*p, 2 * qh, 0], [*m, 0, -2 * qh]]


def _border_defect(rows) -> list[list[int]]:
    """The defect rows U W^T + W U^T - q A' of the border _border_rows built."""
    n = len(rows) - 2
    p, m = [row[n] for row in rows[:n]], [row[n + 1] for row in rows[:n]]
    u = [(a + b) // 2 for a, b in zip(p, m)]
    w = [(a - b) // 2 for a, b in zip(p, m)]
    return _defect_rows([row[:n] for row in rows[:n]], u, w, rows[n][n] // 2)


def _from_border(sig: Signature) -> Signature:
    """The inertia of -S/q, hence of S, from that of its border (q > 0)."""
    plus, minus, zero = sig
    return Signature(minus - 1, plus - 1, zero)


def derivative_inequality_inertia(q: SymBilinearForm, qp: SymBilinearForm, h: Vector) -> Signature:
    """The signature of derivative_inequality_defect(q, qp, h), from a
    bordered matrix.

    With U, W, q as there, P = U + W, M = U - W and q > 0, the border
    B = [[A', P, M], [P^T, 2q, 0], [M^T, 0, -2q]] (_border_rows) has the
    inertia (1, 1, 0) + inertia(-S/q): the Schur complement of its trailing
    block is A' - (P P^T - M M^T) / 2q = A' - (U W^T + W U^T) / q.  B is
    singular whenever S is.  For q <= 0 the defect matrix itself is signed.
    """
    x, w, _ = q._image(h)
    _, u, _ = qp._image(h)
    qh = _dot(x, w)
    if qh <= 0:
        return _inertia(_defect_rows(qp._ints, u, w, qh))[0]
    return _from_border(_inertia(_border_rows(qp._ints, u, w, qh))[0])


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


def pairing_form(basis: Sequence[Form], omega: Form) -> SymBilinearForm:
    """The form (a, b) -> top_ratio(a ^ omega ^ b) over basis, from the int
    matrix of exterior.top_pairings over its denominator.

    The trusted constructor may skip the public checks: for a real omega and
    a basis of real even-degree forms, a ^ omega ^ b = b ^ omega ^ a is real,
    so the imaginary parts vanish and the real parts are symmetric.
    """
    rows, den = top_pairings(basis, omega, basis)
    return SymBilinearForm._of([[re for re, _ in row] for row in rows], den)


def gram(omega: Form) -> SymBilinearForm:
    """Intersection form (a, b) -> top_ratio(a ^ omega ^ b) over basis_11_real.

    omega must be a real homogeneous (d-2, d-2)-form with d >= 2; the result
    is the d^2 x d^2 rational symmetric matrix of the pairing, from
    pairing_form.
    """
    d = omega.d
    if d < 2:
        raise ValueError("need dimension at least 2")
    if not omega.is_homogeneous(d - 2, d - 2):
        raise ValueError(f"expected a ({d-2},{d-2})-form")
    if not omega.is_real():
        raise ValueError("expected a real form")
    return pairing_form(basis_11_real(d), omega)


def _realified(rows) -> list[list[int]]:
    """The real form [[A, -B], [B, A]] of a Hermitian matrix M = A + iB,
    given as Gaussian-integer rows: rows[j][k] = (re, im) is M[j][k] up to a
    positive scale.

    The real and imaginary parts of each coordinate are interleaved: row
    2j + (0 or 1) belongs to Re or Im of coordinate j.  Its inertia is twice
    that of M, and a real vector (x_0, y_0, x_1, y_1, ...) takes the value
    v^H M v for v_j = x_j + i y_j, up to the same scale.
    """
    n = len(rows)
    real = [[0] * (2 * n) for _ in range(2 * n)]
    for j, row in enumerate(rows):
        for k, (re, im) in enumerate(row):
            real[2 * j][2 * k] = real[2 * j + 1][2 * k + 1] = re
            real[2 * j][2 * k + 1] = -im
            real[2 * j + 1][2 * k] = im
    return real


def _hermitian_reduction(rows) -> tuple[Signature, list[GaussianRational] | None]:
    """The inertia of a Hermitian matrix M, given as Gaussian-integer rows
    as _realified takes them, and, when M has a negative direction, a vector
    v with v^H M v < 0: the real basis vector (x_0, y_0, x_1, y_1, ...) of
    the first negative pivot of the real form, read back as v_j = x_j + i y_j.
    The rows are trusted to be Hermitian."""
    real = _realified(rows)
    pivots = _congruence(real)
    plus, minus, zero = _count_signs(pivots, len(real))
    negative = next((s for s, sign in enumerate(_pivot_signs(pivots)) if sign < 0), None)
    vector = None
    if negative is not None:
        w = _congruence_vector(pivots, len(real), negative)
        vector = [GaussianRational(x, y) for x, y in zip(w[::2], w[1::2])]
    return Signature(plus // 2, minus // 2, zero // 2), vector


def hermitian_inertia(entries) -> Signature:
    """Exact inertia of a Hermitian Gaussian-rational matrix, given as rows."""
    return _hermitian_reduction(_hermitian_ints(entries)[0])[0]
