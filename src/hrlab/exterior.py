"""Exact exterior algebra of (p,q)-forms on a d-dimensional complex vector space.

A monomial is a pair of bitmasks over the d coordinate indices: one selecting
holomorphic generators dz_j, one selecting their antiholomorphic conjugates,
written dzb_j here.  The canonical normal form of a monomial puts all dz
factors first in ascending index order, followed by all dzb factors in
ascending index order.  Every Koszul sign in the algebra is computed against
this normal form, which makes the wedge sign a pure popcount computation.

A form stores Gaussian integers over one positive denominator in lowest
terms, keyed by packed monomials, and a HermitianMatrix stores a square array
of Gaussian integers the same way.  Only this module reads these
representations; `Form.terms` and `HermitianMatrix.entries` are read-only
views of them as Gaussian rationals.  Forms and matrices are immutable and
every operation here is pure.  The wedge product, the hot loop of Schur
evaluation, multiplies the stored Gaussian integers (pairs of Python ints)
directly, and so do the split by holomorphic degree and the passage between
a real (1,1)-form and its Hermitian matrix, a rotation by i.  Hermitian
symmetry is checked by _is_hermitian alone, once per matrix: where
Gaussian-rational rows come in, and where a form's matrix is read, in
form_to_hermitian and pencil_power_sum.  Form.from_json reads each
coefficient component as an int pair in lowest terms and builds the form
through Form._of.  Every matrix of top-degree pairings
(a, b) -> top_coefficient(a ^ omega ^ b) comes from top_pairings, which reads
omega's coefficients at complements instead of wedging and returns Gaussian
integers over one denominator; for one basis of even-degree forms on both
sides, as in gram and the intersection forms, it computes the upper triangle
and mirrors it.  _adjugate, fraction-free Gauss-Jordan elimination, is the
one elimination of Hermitian Gaussian-integer rows that returns a matrix;
positivity.is_positive_definite_11 runs only its forward half, whose pivots
decide positive definiteness.
pencil_power_sum gives the Schur forms of real (1,1)-forms without a wedge:
it sums divided powers of a pencil of them at lattice points, each read off
the minors of one Hermitian matrix or, where the pencil is positive
definite, of its adjugate.  It does not check the forms' positivity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .gaussian import GaussianRational, I, RationalLike, _ratio_from_str, as_fraction

MaskPair = tuple[int, int]


def mask_of(indices: Iterable[int], d: int) -> int:
    """Bitmask for a set of 1-based coordinate indices."""
    m = 0
    for j in indices:
        if not 1 <= j <= d:
            raise ValueError(f"index {j} out of range 1..{d}")
        bit = 1 << (j - 1)
        if m & bit:
            raise ValueError(f"repeated index {j}")
        m |= bit
    return m


def indices_of(mask: int) -> tuple[int, ...]:
    """1-based indices of the set bits, ascending."""
    out = []
    j = 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


class Form:
    """Sparse element of the exterior algebra on d generators and conjugates.

    _coeffs maps a packed monomial (the dz mask in the low d bits, the dzb
    mask above, so ascending bit order is the canonical generator order) to
    (re, im), the coefficient (re + im*i)/_den.  No entry is zero and the gcd
    of _den > 0 with every re and im is 1, so equal forms store equal values.
    """

    __slots__ = ("d", "_den", "_coeffs")

    def __init__(self, d: int, terms: Mapping[MaskPair, GaussianRational] | None = None):
        if d < 1:
            raise ValueError("dimension must be positive")
        full = (1 << d) - 1
        parts = []
        for (h, a), c in (terms or {}).items():
            if h & ~full or a & ~full:
                raise ValueError("monomial index exceeds dimension")
            c = GaussianRational.of(c)
            if c:
                parts.append((h | (a << d), c.re.as_integer_ratio(), c.im.as_integer_ratio()))
        # Scaling by the lcm of the denominators leaves the form in lowest terms.
        den = lcm(*(x[1] for _, re, im in parts for x in (re, im)))
        coeffs = {m: (re[0] * (den // re[1]), im[0] * (den // im[1])) for m, re, im in parts}
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_coeffs", coeffs)

    @classmethod
    def _of(cls, d: int, den: int, coeffs: dict[int, tuple[int, int]]) -> "Form":
        """coeffs / den reduced by the gcd, trusting den > 0 and nonzero entries."""
        g = gcd(den, *(x for c in coeffs.values() for x in c))
        if g > 1:
            coeffs = {m: (re // g, im // g) for m, (re, im) in coeffs.items()}
        form = object.__new__(cls)
        object.__setattr__(form, "d", d)
        object.__setattr__(form, "_den", den // g)
        object.__setattr__(form, "_coeffs", coeffs)
        return form

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through _of: the stored ints are in lowest terms.
        return Form._of, (self.d, self._den, self._coeffs)

    def _gaussian(self, m: int) -> GaussianRational:
        re, im = self._coeffs.get(m, (0, 0))
        return GaussianRational(Fraction(re, self._den), Fraction(im, self._den))

    @property
    def terms(self) -> dict[MaskPair, GaussianRational]:
        """The read-only view {(dz mask, dzb mask): coefficient}, built anew on each read."""
        full = (1 << self.d) - 1
        return {(m & full, m >> self.d): self._gaussian(m) for m in self._coeffs}

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zero(d: int) -> "Form":
        return Form(d)

    @staticmethod
    def scalar(d: int, value) -> "Form":
        return Form(d, {(0, 0): GaussianRational.of(value)})

    @staticmethod
    def term(d: int, dz: Iterable[int], dzbar: Iterable[int], coeff=1) -> "Form":
        return Form(d, {(mask_of(dz, d), mask_of(dzbar, d)): GaussianRational.of(coeff)})

    @staticmethod
    def dz(d: int, j: int) -> "Form":
        return Form.term(d, [j], [])

    @staticmethod
    def dzbar(d: int, j: int) -> "Form":
        return Form.term(d, [], [j])

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def coefficient(self, dz: Iterable[int], dzbar: Iterable[int]) -> GaussianRational:
        return self._gaussian(mask_of(dz, self.d) | mask_of(dzbar, self.d) << self.d)

    def bidegrees(self) -> set[tuple[int, int]]:
        full = (1 << self.d) - 1
        return {((m & full).bit_count(), (m >> self.d).bit_count()) for m in self._coeffs}

    def homogeneous_bidegree(self) -> tuple[int, int] | None:
        """The (p,q) shared by all monomials, or None for zero or mixed forms."""
        degs = self.bidegrees()
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self, p: int, q: int) -> bool:
        return self.is_zero() or self.bidegrees() == {(p, q)}

    def is_real(self) -> bool:
        return conjugate(self) == self

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if other.d != self.d:
            raise ValueError("dimension mismatch")
        den = lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        coeffs = {m: (re * fa, im * fa) for m, (re, im) in self._coeffs.items()}
        for m, (re, im) in other._coeffs.items():
            r0, i0 = coeffs.get(m, (0, 0))
            c = (r0 + re * fb, i0 + im * fb)
            if c[0] or c[1]:
                coeffs[m] = c
            else:
                del coeffs[m]
        return Form._of(self.d, den, coeffs)

    def __sub__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, value) -> "Form":
        parts = (value.re, value.im) if isinstance(value, GaussianRational) else (value, 0)
        if not all(isinstance(x, RationalLike) for x in parts):
            raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")
        (cr, rd), (ci, id_) = (x.as_integer_ratio() for x in parts)
        cden = lcm(rd, id_)
        cr, ci = cr * (cden // rd), ci * (cden // id_)
        if not (cr or ci):
            return Form._of(self.d, 1, {})
        coeffs = {m: (re * cr - im * ci, re * ci + im * cr) for m, (re, im) in self._coeffs.items()}
        return Form._of(self.d, self._den * cden, coeffs)

    def __mul__(self, other):
        if isinstance(other, Form):
            return wedge(self, other)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("form powers need a non-negative integer exponent")
        out = Form.scalar(self.d, 1)
        for _ in range(k):
            out = wedge(out, self)
        return out

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return (self.d, self._den, self._coeffs) == (other.d, other._den, other._coeffs)

    def __repr__(self):
        if not self._coeffs:
            return f"Form(d={self.d}, 0)"
        bits = []
        for (h, a), c in sorted(self.terms.items()):
            gens = [f"dz{j}" for j in indices_of(h)] + [f"dzb{j}" for j in indices_of(a)]
            mono = "^".join(gens) if gens else "1"
            bits.append(f"({c})*{mono}")
        return f"Form(d={self.d}, " + " + ".join(bits) + ")"

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for (h, a), c in sorted(self.terms.items()):
            terms.append(
                {
                    "monomial": {"dz": list(indices_of(h)), "dzbar": list(indices_of(a))},
                    "coeff": c.to_json(),
                }
            )
        return {"dimension": self.d, "terms": terms}

    @staticmethod
    def from_json(obj: dict) -> "Form":
        d = int(obj["dimension"])
        parts: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
        for t in obj["terms"]:
            key = mask_of(t["monomial"]["dz"], d) | mask_of(t["monomial"]["dzbar"], d) << d
            if key in parts:
                raise ValueError("duplicate monomial in serialized form")
            parts[key] = (_ratio_from_str(t["coeff"]["re"]), _ratio_from_str(t["coeff"]["im"]))
        if d < 1:
            raise ValueError("dimension must be positive")
        # The components are in lowest terms, so scaling by the lcm of the
        # denominators of the nonzero coefficients leaves the form in lowest terms.
        parts = {m: c for m, c in parts.items() if c[0][0] or c[1][0]}
        den = lcm(*(q for re, im in parts.values() for _, q in (re, im)))
        coeffs = {m: (re * (den // rq), im * (den // iq)) for m, ((re, rq), (im, iq)) in parts.items()}
        return Form._of(d, den, coeffs)


@lru_cache(maxsize=None)
def _parity_above(m: int) -> int:
    # Bit j is set when m has an odd number of set bits above position j.  A
    # generator j of a second factor moves left past exactly those bits of the
    # first factor m, so the popcount parity of _parity_above(m) & m2 is the
    # Koszul sign of the product of packed monomials m and m2.
    x = m >> 1
    shift = 1
    while shift < m.bit_length():
        x ^= x >> shift
        shift <<= 1
    return x


def wedge(a: Form, b: Form) -> Form:
    """Exterior product.  Bilinear, associative, graded-commutative.

    The pair loop multiplies the stored Gaussian integers, sums the products
    per output monomial and keeps the sums that are not exactly zero, over
    the product of the two denominators.
    """
    if not isinstance(a, Form) or not isinstance(b, Form):
        raise TypeError("wedge expects two forms")
    if a.d != b.d:
        raise ValueError("dimension mismatch")
    rows_b = list(b._coeffs.items())
    acc_re: dict[int, int] = {}
    acc_im: dict[int, int] = {}
    for m1, (r1, i1) in a._coeffs.items():
        sign_mask = _parity_above(m1)
        for m2, (r2, i2) in rows_b:
            if m1 & m2:
                continue
            re = r1 * r2 - i1 * i2
            im = r1 * i2 + i1 * r2
            if (sign_mask & m2).bit_count() & 1:
                re = -re
                im = -im
            key = m1 | m2
            if key in acc_re:
                acc_re[key] += re
                acc_im[key] += im
            else:
                acc_re[key] = re
                acc_im[key] = im
    coeffs = {key: (re, acc_im[key]) for key, re in acc_re.items() if re or acc_im[key]}
    return Form._of(a.d, a._den * b._den, coeffs)


def top_pairings(
    left: Sequence[Form], omega: Form, right: Sequence[Form]
) -> tuple[list[list[tuple[int, int]]], int]:
    """The matrix of top_coefficient(l ^ omega ^ r) over l in left, r in right,
    as (rows, den): rows[j][k] = (re, im) stands for (re + im*i)/den, with den
    the lcm of the left denominators times omega's times the lcm of the right.

    No product is formed.  Monomials m1 of l and m2 of r reach top degree
    only through omega's coefficient at the complement c of m1 | m2, so each
    entry is a signed sum of such coefficients.  The Koszul sign moves c left
    past m1, then m2 past m1 | c = top ^ m2: the first mask is read once per
    left monomial, and the second sign, which depends on m2 alone, is folded
    into the right coefficients.  Parts of omega of any other degree meet no
    complement and add nothing.  When left and right are the same basis of
    even-degree forms, which commute, l ^ omega ^ r = r ^ omega ^ l, so only
    the entries on and above the diagonal are computed and the rest mirrored.
    """
    d = omega.d
    if any(f.d != d for f in (*left, *right)):
        raise ValueError("dimension mismatch")
    top = (1 << (2 * d)) - 1
    omega_at = omega._coeffs
    den_l, den_r = lcm(*(f._den for f in left)), lcm(*(f._den for f in right))
    left_rows = [
        (den_l // l._den, [(m, _parity_above(m), re, im) for m, (re, im) in l._coeffs.items()])
        for l in left
    ]
    right_rows = [
        (
            den_r // r._den,
            [
                (m, -re, -im) if (_parity_above(top ^ m) & m).bit_count() & 1 else (m, re, im)
                for m, (re, im) in r._coeffs.items()
            ],
        )
        for r in right
    ]
    half = tuple(left) == tuple(right) and not any(
        m.bit_count() & 1 for f in left for m in f._coeffs
    )
    out = [[None] * len(right) for _ in left]
    for j, (scale_l, rows_l) in enumerate(left_rows):
        for k in range(j if half else 0, len(right_rows)):
            scale_r, rows_r = right_rows[k]
            re = im = 0
            for m1, mask1, r1, i1 in rows_l:
                for m2, r2, i2 in rows_r:
                    if m1 & m2:
                        continue
                    c = top ^ m1 ^ m2
                    o = omega_at.get(c)
                    if o is None:
                        continue
                    a_re, a_im = r1 * o[0] - i1 * o[1], r1 * o[1] + i1 * o[0]
                    if (mask1 & c).bit_count() & 1:
                        re -= a_re * r2 - a_im * i2
                        im -= a_re * i2 + a_im * r2
                    else:
                        re += a_re * r2 - a_im * i2
                        im += a_re * i2 + a_im * r2
            s = scale_l * scale_r
            out[j][k] = _per_vol_unit(d, re * s, im * s)
            if half:
                out[k][j] = out[j][k]
    return out, den_l * omega._den * den_r


def conjugate(a: Form) -> Form:
    """Antilinear involution swapping dz and dzb; maps bidegree (p,q) to (q,p)."""
    d = a.d
    full = (1 << d) - 1
    coeffs = {}
    for m, (re, im) in a._coeffs.items():
        h, am = m & full, m >> d
        # dz block and dzb block swap roles; restoring canonical order costs
        # one transposition per crossing pair.
        sign = -1 if (h.bit_count() * am.bit_count()) & 1 else 1
        coeffs[am | h << d] = (sign * re, -sign * im)
    return Form._of(d, a._den, coeffs)


def holomorphic_slices(a: Form, top: int) -> list[Form]:
    """[a_0, ..., a_top]: a_p is the part of a with p dz factors.  a must have
    no part of holomorphic degree above top."""
    full = (1 << a.d) - 1
    parts: list[dict[int, tuple[int, int]]] = [{} for _ in range(top + 1)]
    for m, c in a._coeffs.items():
        parts[(m & full).bit_count()][m] = c
    return [Form._of(a.d, a._den, coeffs) for coeffs in parts]


def _per_vol_unit(d: int, re: int, im: int) -> tuple[int, int]:
    # (re + im*i) divided by the coefficient of dz_1..dz_d ^ dzb_1..dzb_d in
    # the volume form i*dz1^dzb1 ^ ... ^ i*dzd^dzbd: i**(d*d), 1 for even d and
    # i for odd d.  The test suite re-derives vol_form from the product for small d.
    return (im, -re) if d & 1 else (re, im)


def vol_form(d: int) -> Form:
    """The canonical volume form i*dz1^dzb1 ^ ... ^ i*dzd^dzbd, built by wedging."""
    out = Form.scalar(d, 1)
    for j in range(1, d + 1):
        out = wedge(out, Form.term(d, [j], [j], I))
    return out


def identity_form(d: int) -> Form:
    """i * sum_j dz_j^dzb_j, the coordinate avatar of the identity matrix."""
    return Form(d, {((1 << (j - 1)), (1 << (j - 1))): I for j in range(1, d + 1)})


def top_coefficient(a: Form) -> GaussianRational:
    """Coefficient r with a = r * vol, allowing complex r.

    The input must be homogeneous of bidegree (d,d); the zero form counts.
    """
    top = (1 << (2 * a.d)) - 1
    if a._coeffs.keys() - {top}:
        raise ValueError("top extraction needs a homogeneous (d,d)-form")
    re, im = _per_vol_unit(a.d, *a._coeffs.get(top, (0, 0)))
    return GaussianRational(Fraction(re, a._den), Fraction(im, a._den))


def top_ratio(a: Form) -> Fraction:
    """The unique rational r with a = r * vol, for real (d,d)-forms."""
    r = top_coefficient(a)
    if r.im != 0:
        raise ValueError("top ratio of a non-real form")
    return r.re


def _is_hermitian(rows: Sequence[Sequence[tuple[int, int]]]) -> bool:
    """Whether rows[j][k] == conj(rows[k][j]) for all j, k: the one Hermitian
    symmetry check of the package."""
    n = len(rows)
    return all(rows[j][k] == (rows[k][j][0], -rows[k][j][1]) for j in range(n) for k in range(j, n))


def _hermitian_ints(entries) -> tuple[list[list[tuple[int, int]]], int]:
    """Square rows of Gaussian rationals as (rows, den): rows[j][k] = (re, im)
    stands for (re + im*i)/den, in lowest terms.  Raises ValueError unless
    the rows are square and Hermitian; the empty matrix passes."""
    rows = [[GaussianRational.of(x) for x in row] for row in entries]
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("matrix must be square")
    # Scaling by the lcm of the denominators leaves the rows in lowest terms.
    den = lcm(*(x.denominator for row in rows for z in row for x in (z.re, z.im)))
    ints = [[(int(z.re * den), int(z.im * den)) for z in row] for row in rows]
    if not _is_hermitian(ints):
        raise ValueError("matrix is not Hermitian")
    return ints, den


class HermitianMatrix:
    """d x d Gaussian-rational matrix with exact Hermitian symmetry.

    _rows[j][k] = (re, im) stands for the entry (re + im*i)/_den.  The gcd of
    _den > 0 with every re and im is 1, so equal matrices store equal values.
    Only this module reads that representation; `entries` is a read-only view
    of it as Gaussian rationals.
    """

    __slots__ = ("d", "_den", "_rows")

    def __init__(self, entries):
        rows, den = _hermitian_ints(entries)
        if not rows:
            raise ValueError("matrix must be square and non-empty")
        object.__setattr__(self, "d", len(rows))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_rows", tuple(map(tuple, rows)))

    @classmethod
    def _of(cls, den: int, rows) -> "HermitianMatrix":
        """rows / den reduced by the gcd, trusting Hermitian rows and den > 0."""
        if not rows:
            raise ValueError("matrix must be square and non-empty")
        g = gcd(den, *(x for row in rows for c in row for x in c))
        H = object.__new__(cls)
        object.__setattr__(H, "d", len(rows))
        object.__setattr__(H, "_den", den // g)
        rows = tuple(tuple((re // g, im // g) for re, im in row) for row in rows)
        object.__setattr__(H, "_rows", rows)
        return H

    def __setattr__(self, name, value):
        raise AttributeError("HermitianMatrix is immutable")

    def __reduce__(self):
        return HermitianMatrix._of, (self._den, self._rows)

    @property
    def entries(self) -> tuple[tuple[GaussianRational, ...], ...]:
        """The read-only view as Gaussian-rational rows, built anew on each read."""
        den = self._den
        return tuple(
            tuple(GaussianRational(Fraction(re, den), Fraction(im, den)) for re, im in row)
            for row in self._rows
        )

    @staticmethod
    def identity(d: int) -> "HermitianMatrix":
        return HermitianMatrix._of(1, [[(int(j == k), 0) for k in range(d)] for j in range(d)])

    @staticmethod
    def diagonal(values) -> "HermitianMatrix":
        vals = [as_fraction(v) for v in values]
        den = lcm(*(v.denominator for v in vals))
        d = len(vals)
        return HermitianMatrix._of(
            den, [[(int(v * den) if j == k else 0, 0) for k in range(d)] for j, v in enumerate(vals)]
        )

    def __eq__(self, other):
        if not isinstance(other, HermitianMatrix):
            return NotImplemented
        return (self._den, self._rows) == (other._den, other._rows)

    def __repr__(self):
        return f"HermitianMatrix({[[repr(x) for x in row] for row in self.entries]})"

    def to_json(self) -> dict:
        return {"d": self.d, "entries": [[x.to_json() for x in row] for row in self.entries]}

    @staticmethod
    def from_json(obj: dict) -> "HermitianMatrix":
        return HermitianMatrix(
            [[GaussianRational.from_json(x) for x in row] for row in obj["entries"]]
        )


def hermitian_to_form(H: HermitianMatrix) -> Form:
    """The real (1,1)-form i * sum_{j,k} H[j][k] dz_j^dzb_k."""
    d = H.d
    coeffs = {}
    for j, row in enumerate(H._rows):
        for k, (re, im) in enumerate(row):
            if re or im:
                coeffs[1 << j | 1 << (k + d)] = (-im, re)  # i * (re + im*i)
    return Form._of(d, H._den, coeffs)


def _rows_11(a: Form) -> list[list[tuple[int, int]]]:
    """The rows H with a = i * sum_{j,k} H[j][k] dz_j^dzb_k / a._den, for a
    (1,1)-form a; Hermitian exactly when a is real."""
    d = a.d
    full = (1 << d) - 1
    rows = [[(0, 0)] * d for _ in range(d)]
    for m, (re, im) in a._coeffs.items():
        rows[(m & full).bit_length() - 1][(m >> d).bit_length() - 1] = (im, -re)  # (re + im*i) / i
    return rows


def form_to_hermitian(a: Form) -> HermitianMatrix:
    """Inverse of hermitian_to_form; rejects non-(1,1) and non-real input."""
    if not a.is_homogeneous(1, 1):
        raise ValueError("expected a (1,1)-form")
    rows = _rows_11(a)
    if not _is_hermitian(rows):
        raise ValueError("form is not real")
    return HermitianMatrix._of(a._den, rows)


def _adjugate(re: list[list[int]], im: list[list[int]]) -> tuple[int, list, list] | None:
    """(det M, Re adj M, Im adj M) for the Hermitian matrix M = re + i*im of
    Gaussian integers when M is positive definite, else None.

    Fraction-free Gauss-Jordan elimination without row exchanges on a copy
    of M, in one d x d array: once column k is eliminated its storage holds
    column k of the adjugate.
    The k-th pivot is the k-th leading principal minor, a real int, so by
    Sylvester's criterion M is positive definite exactly when every pivot is
    positive; the elimination stops at the first that is not.  The division
    of each component by the previous pivot is exact.
    """
    d = len(re)
    re, im = [r[:] for r in re], [r[:] for r in im]
    prev = 1
    for k in range(d):
        p = re[k][k]
        if p <= 0:
            return None
        rk, ik = re[k], im[k]
        for i in range(d):
            if i == k:
                continue
            ri, ii = re[i], im[i]
            fr, fi = ri[k], ii[k]
            re[i] = [(p * a - fr * c + fi * s) // prev for a, c, s in zip(ri, rk, ik)]
            im[i] = [(p * b - fr * s - fi * c) // prev for b, c, s in zip(ii, rk, ik)]
            re[i][k], im[i][k] = -fr, -fi
        rk[k] = prev
        prev = p
    return prev, re, im


@lru_cache(maxsize=None)
def _minor_plan(d: int, p: int):
    """How to read det M[I, J], for p-subsets I, J of 0..d-1 and a Hermitian
    d x d matrix M, off q-minors, q = min(p, d - p): those of M for 2p <= d,
    else those of adj(M) for positive definite M, by Jacobi's identity
    det M[I, J] = (-1)^(sum I + sum J) det adj(M)[J', I'] / det(M)^(d-p-1),
    with ' the complement.

    Returns (levels, out).  Level s lists the s-minors [R, C], each as its
    Laplace expansion along the first row of R: terms (i, j, negate, k) with
    k the position of the (s-1)-minor in the level below.  The last level
    keeps only R <= C (as bitmasks): the matrices are Hermitian, so
    [C, R] is the conjugate of [R, C].  out[n] = (key, mirror, negate) says
    where the n-th minor of the last level goes, I | J << d, where its
    conjugate goes, and whether Jacobi's sign flips both.
    """
    q, full = min(p, d - p), (1 << d) - 1
    levels = []
    below = {(0, 0): 0}
    for s in range(1, q + 1):
        level, index = [], {}
        for rows in combinations(range(d), s):
            r = sum(1 << i for i in rows)
            for cols in combinations(range(d), s):
                c = sum(1 << j for j in cols)
                if s == q and r > c:
                    continue
                terms = tuple(
                    (rows[0], j, pos & 1 == 1, below[(r & ~(1 << rows[0]), c & ~(1 << j))])
                    for pos, j in enumerate(cols)
                )
                index[(r, c)] = len(level)
                level.append(terms)
        levels.append(tuple(level))
        below = index
    out = []
    odd = sum(1 << i for i in range(1, d, 2))
    for r, c in below:
        if 2 * p <= d:
            out.append((r | c << d, c | r << d, False))
        else:
            rows, cols = full ^ c, full ^ r
            negate = ((rows & odd).bit_count() + (cols & odd).bit_count()) & 1 == 1
            out.append((rows | cols << d, cols | rows << d, negate))
    return tuple(levels), tuple(out)


def _last_minors(levels, re: list[list[int]], im: list[list[int]]) -> list[tuple[int, int]]:
    """The minors of M = re + i*im on the last level of a _minor_plan."""
    vals = [(1, 0)]
    for level in levels:
        nxt = []
        for terms in level:
            sr = si = 0
            for i, j, negate, k in terms:
                ar, ai = re[i][j], im[i][j]
                mr, mi = vals[k]
                tr, ti = ar * mr - ai * mi, ar * mi + ai * mr
                if negate:
                    sr, si = sr - tr, si - ti
                else:
                    sr, si = sr + tr, si + ti
            nxt.append((sr, si))
        vals = nxt
    return vals


def pencil_power_sum(
    forms: Sequence[Form], p: int, weights: Mapping[tuple[int, ...], Fraction]
) -> Form | None:
    """sum_t weights[t] * (omega_1 + t_1 omega_2 + ... + t_(e-1) omega_e)^p / p!
    over the points t of weights, each of length e - 1; None unless every
    omega_k is a real (1,1)-form, or for 2p > d unless the pencil is
    positive definite at every point.

    No wedge is formed.  For omega = i sum H[j][k] dz_j^dzb_k the coefficient
    of omega^p / p! at dz_I^dzb_J is i^(p*p) det H[I, J] (the sign
    (-1)^(p(p-1)/2) of moving the dzb factors right is folded in), so each
    point needs only the p-minors of one Hermitian matrix; _minor_plan reads
    them off min(p, d - p)-minors.  The identity is polynomial in the H_k,
    so for 2p <= d, where those are minors of the matrix itself, it holds
    for any real (1,1)-forms.  For 2p > d they are minors of its adjugate,
    which _adjugate gives for a positive definite matrix, as every point's
    is when every H_k is, since t >= 0.  For p > d every power is zero.
    """
    d = forms[0].d
    if any(f.d != d for f in forms):
        raise ValueError("dimension mismatch")
    if any(len(t) != len(forms) - 1 for t in weights):
        raise ValueError("each point needs one coordinate per form after the first")
    mats = []
    for f in forms:
        if not f.is_homogeneous(1, 1):
            return None
        rows = _rows_11(f)
        if not _is_hermitian(rows):
            return None
        re, im = [[z[0] for z in row] for row in rows], [[z[1] for z in row] for row in rows]
        mats.append((f._den, re, im))
    if p > d:
        return Form.zero(d)
    # One denominator: H(1, t) = M(t) / den, so det H[I, J] = det M[I, J] / den^p.
    den = lcm(*(fden for fden, _, _ in mats))
    mats = [
        ([[x * (den // fden) for x in r] for r in re], [[x * (den // fden) for x in r] for r in im])
        for fden, re, im in mats
    ]
    wden = lcm(*(w.denominator for w in weights.values()))
    levels, out = _minor_plan(d, p)
    acc_re, acc_im = [0] * len(out), [0] * len(out)
    for t, w in weights.items():
        re, im = mats[0]
        for x, (re_k, im_k) in zip(t, mats[1:]):
            if x:
                re = [[a + x * b for a, b in zip(row, row_k)] for row, row_k in zip(re, re_k)]
                im = [[a + x * b for a, b in zip(row, row_k)] for row, row_k in zip(im, im_k)]
        scale, div = w.numerator * (wden // w.denominator), 1
        if 2 * p > d:
            adj = _adjugate(re, im)
            if adj is None:
                return None
            det, re, im = adj
            if p == d:
                scale *= det
            else:
                div = det ** (d - p - 1)
        for n, (mr, mi) in enumerate(_last_minors(levels, re, im)):
            acc_re[n] += scale * mr // div
            acc_im[n] += scale * mi // div
    coeffs = {}
    for (key, mirror, negate), sr, si in zip(out, acc_re, acc_im):
        if negate:
            sr, si = -sr, -si
        if sr or si:
            # i^(p*p) is i for odd p: i * (sr + si*i) = -si + sr*i.
            coeffs[key] = (-si, sr) if p & 1 else (sr, si)
            coeffs[mirror] = (si, sr) if p & 1 else (sr, -si)
    return Form._of(d, wden * den**p, coeffs)


@lru_cache(maxsize=None)
def basis_11_real(d: int) -> tuple[Form, ...]:
    """Ordered basis of the real (1,1)-forms; length d*d.

    First the d diagonal forms i*dz_j^dzb_j.  Then for each pair j < k in
    lexicographic order the two off-diagonal forms

        i*(dz_j^dzb_k + dz_k^dzb_j)      and      -(dz_j^dzb_k - dz_k^dzb_j)

    i.e. the images under hermitian_to_form of E_jj, E_jk + E_kj and
    i*(E_jk - E_kj).  The scaling constant of the second off-diagonal form is
    fixed at -1 so that coordinates read off as (Re H_jk, Im H_jk).
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    out = []
    for j in range(1, d + 1):
        out.append(Form(d, {((1 << (j - 1)), (1 << (j - 1))): I}))
    one = GaussianRational(1)
    for j in range(1, d + 1):
        for k in range(j + 1, d + 1):
            bj, bk = 1 << (j - 1), 1 << (k - 1)
            out.append(Form(d, {(bj, bk): I, (bk, bj): I}))
            out.append(Form(d, {(bj, bk): -one, (bk, bj): one}))
    return tuple(out)


def coords_11_real(a: Form) -> list[Fraction]:
    """Coordinates of a real (1,1)-form in the basis_11_real ordering."""
    H = form_to_hermitian(a)
    den, rows = H._den, H._rows
    coords = [Fraction(rows[j][j][0], den) for j in range(H.d)]
    for j in range(H.d):
        for k in range(j + 1, H.d):
            re, im = rows[j][k]
            coords += [Fraction(re, den), Fraction(im, den)]
    return coords
