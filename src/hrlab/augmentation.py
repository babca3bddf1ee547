"""Families of intersection forms on a space extended by one formal direction.

The ambient space V is the real (1,1)-basis W of dimension d^2 extended by a
single extra vector zeta, modelling one formal positive direction whose powers
truncate above degree d.  For a partition lam and strictly positive data
(h, omega_1..omega_e) the weighted intersection forms

    Q_i(b, b') = integral of  b * s_lam(omega_hat) * zeta^i * h^(d-i) * b'

are read off the derived Schur coefficients of s_lam by one top-degree
pairing (intersection_form).  The tests build them a second way, by
multiplying everything out in the truncated polynomial ring over the exterior
algebra and wedging each pairing, and require exact equality.

The one-parameter families

    R_{i,t} = sum_k binom(d-i+k, k) t^k Q_{i-k}

support two verification routes to the Hodge-Riemann property: a first-order
route (property A: five conditions on R, its derivative and zeta) driving a
recursion in i, and a second-order route (property B) whose conclusion is the
restriction to W.  Each check here is exact: the quantified inequalities are
decided by positive semidefiniteness of the defect matrices, whose signatures
bilinear reads off R_t's and off a border, never by sampling vectors.

A family keeps its coefficients once, as int matrices M_0..M_K over one
denominator D (FormFamily), and the checks read every sample off that stack
at one scale: for t = p/q, sum_k p^k q^(K-k) M_k = D q^K R_t, and with
h = x/s, Y_k = M_k x and c_k = x . Y_k, the same weights give R_t(h), R_t h
and the derivative border B_t = sum_k t^k B_k, whose coefficients are the
border (bilinear._border_rows) of (k+1) M_{k+1}, (k+1) Y_{k+1}, Y_k and
c_k.  No sample is put in lowest terms; only its reported q_h is a Fraction.
t = 0 is always the first sample and is R_0 itself, so the reported
r0_signature is that sample's.

R_t and the borders are each signed on one chain (bilinear._FamilyChain):
the samples hand each other the rounded proposal that certified the last of
them, and when the rounded route certifies the t = 0 matrix F_0 with P, its
margins m_i and the bounds b^(k) = |P| |F_k| |P|^T 1 certify every later
sample with sum_k |p|^k q^(K-k) b^(k)_i < q^K m_i on every row, with F_0's
inertia and no matrix formed.  That is sound: C_t - C_0 =
sum_k t^k P F_k P^T changes row i of C_0 = P F_0 P^T by at most
sum_k |t|^k b^(k)_i < m_i, so every row of C_t stays strictly dominant with
its diagonal's sign, and Gershgorin's theorem and Sylvester's law give the
inertia as for C_0.  Every other sample takes the chain's proposal, then a
fresh one, then the kernel.  The i = d family annihilates zeta - t h, which
the checks verify exactly on its coefficients (_kernel_coordinate), so its
stack is cut off zeta once: R_t and the borders are signed one row smaller,
nonsingular, and one zero is added back.  The verdicts read "R_0 is
Hodge-Riemann with respect to h", and aug2 its restriction to W, off the
report instead of signing R_0 again, and take R_{i,0} as the cached Q_i.
Both reports share one shape: the per-t serialiser, passed and
max_passing_radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import comb, lcm
from operator import add, mul
from typing import ClassVar, Optional, Sequence

from .bilinear import (
    Signature,
    SymBilinearForm,
    _as_vector,
    _border_defect,
    _border_rows,
    _FamilyChain,
    _from_border,
    _hodge_index_inertia,
    _int_rows,
    _sample_rows,
    _weights,
    is_hr_wrt,
    pairing_form,
    signature,
)
from .exterior import (
    Form,
    basis_11_real,
    coords_11_real,
    form_to_hermitian,
    identity_form,
    wedge,
)
from .gaussian import as_fraction, fraction_to_str
from .positivity import is_positive_definite_11
from .symfunc import Partition, derived_schur_all

DEFAULT_T_SAMPLES = (
    Fraction(0),
    Fraction(1, 100),
    Fraction(-1, 100),
    Fraction(1, 10),
    Fraction(-1, 10),
)

CONSISTENT = "CONSISTENT"
INCONSISTENT = "INCONSISTENT"
NOT_APPLICABLE = "NOT-APPLICABLE"


def _normalize_t_samples(t_samples) -> tuple[Fraction, ...]:
    # t = 0 is always checked; the rest of the grid is configurable.
    vals = {Fraction(0)}
    for t in t_samples if t_samples is not None else DEFAULT_T_SAMPLES:
        vals.add(as_fraction(t))
    return tuple(sorted(vals, key=lambda t: (abs(t), t)))


class AugmentedSpace:
    """W + R*zeta with strictly positive reference data h and omega_1..omega_e.

    The basis order is basis_11_real(d) followed by zeta.  Instances cache the
    derived Schur coefficients and assembled matrices per partition; caches
    are private memoization of pure values, so instances stay safe to share
    across threads and to rebuild per process.
    """

    def __init__(self, omegas: Sequence[Form], h: Form | None = None):
        omegas = list(omegas)
        if not omegas:
            raise ValueError("need at least one strictly positive form")
        d = omegas[0].d
        if d < 2:
            raise ValueError("need dimension at least 2")
        h = identity_form(d) if h is None else h
        if h.d != d or any(w.d != d for w in omegas):
            raise ValueError("mixed dimensions")
        for name, f in [("h", h)] + [(f"omega_{j+1}", w) for j, w in enumerate(omegas)]:
            if not is_positive_definite_11(form_to_hermitian(f)):
                raise ValueError(f"{name} is not strictly positive")
        self.d = d
        self.e = len(omegas)
        self.h = h
        self.omegas = tuple(omegas)
        self.w_basis = basis_11_real(d)
        self.dim_w = d * d
        self.dim_v = d * d + 1
        self.zeta_index = d * d
        self.h_coords = tuple(coords_11_real(h)) + (Fraction(0),)
        self.zeta_coords = tuple(
            Fraction(1) if i == self.zeta_index else Fraction(0)
            for i in range(self.dim_v)
        )
        self._hpow: dict[int, Form] = {}
        self._derived: dict[tuple[int, ...], list[Form]] = {}
        self._qi: dict[tuple[tuple[int, ...], int], SymBilinearForm] = {}

    def w_indices(self) -> range:
        return range(self.dim_w)

    def h_coords_w(self) -> tuple[Fraction, ...]:
        return self.h_coords[: self.dim_w]

    def h_power(self, k: int) -> Form:
        if k < 0:
            return Form.zero(self.d)
        cached = self._hpow.get(k)
        if cached is None:
            cached = Form.scalar(self.d, 1) if k == 0 else wedge(self.h_power(k - 1), self.h)
            self._hpow[k] = cached
        return cached

    def derived_coeffs(self, lam: Partition) -> list[Form]:
        key = lam.parts
        cached = self._derived.get(key)
        if cached is None:
            cached = derived_schur_all(lam, self.omegas)
            self._derived[key] = cached
        return cached


def _check_weight(space: AugmentedSpace, lam: Partition) -> None:
    # The integrand slices only land in top degree when |lam| = d - 2.
    if lam.weight != space.d - 2:
        raise ValueError(
            f"partition weight must be d-2 = {space.d - 2}, got {lam.weight}"
        )


def intersection_form(space: AugmentedSpace, lam, i: int) -> SymBilinearForm:
    """Q_i assembled from derived Schur coefficients.

    The integrand is the sum of the derived coefficients d-i, d-i-1 and d-i-2,
    wedged once with h^(d-i).  zeta pairs as the unit form, so pairing the
    integrand over W's basis followed by 1 (bilinear.pairing_form) reads the
    W x W block off its (d-2,d-2) part, the W x zeta column off its
    (d-1,d-1) part and the zeta x zeta entry off its (d,d) part.  Outside
    0 <= i <= d the form is zero.
    """
    lam = Partition(lam)
    _check_weight(space, lam)
    key = (lam.parts, i)
    cached = space._qi.get(key)
    if cached is not None:
        return cached
    d = space.d
    if i < 0 or i > d:
        out = SymBilinearForm.zero(space.dim_v)
    else:
        coeffs = space.derived_coeffs(lam)
        slices = sum(coeffs[max(d - i - 2, 0) : d - i + 1], Form.zero(d))
        basis = space.w_basis + (Form.scalar(d, 1),)
        out = pairing_form(basis, wedge(slices, space.h_power(d - i)))
    space._qi[key] = out
    return out


class FormFamily:
    """Polynomial in one real parameter t with symmetric-form coefficients.

    The coefficients are kept once as int matrices M_0..M_K over one
    positive denominator D, each a flat row-major list, so that
    R_t = sum_k t^k M_k / D: the family's int coefficient stack.  A
    coefficient is read as a SymBilinearForm in lowest terms on first use.
    """

    __slots__ = ("_mats", "_den", "n", "_coeffs")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        n = coeffs[0].n
        if any(c.n != n for c in coeffs):
            raise ValueError("coefficients must share one dimension")
        den = lcm(*(c._den for c in coeffs))
        mats = [[x * (den // c._den) for row in c._ints for x in row] for c in coeffs]
        self._init(mats, den, n, list(coeffs))

    def _init(self, mats, den: int, n: int, coeffs) -> None:
        for name, value in zip(self.__slots__, (mats, den, n, coeffs)):
            object.__setattr__(self, name, value)

    @classmethod
    def _stack(cls, mats, den: int, n: int, coeffs=None) -> "FormFamily":
        """The family sum_k t^k M_k / den, trusting symmetric flat int
        matrices and den > 0; coeffs lists any coefficient forms known."""
        family = object.__new__(cls)
        family._init(mats, den, n, coeffs or [None] * len(mats))
        return family

    def __setattr__(self, name, value):
        raise AttributeError("FormFamily is immutable")

    def __reduce__(self):
        return FormFamily._stack, (self._mats, self._den, self.n)

    def _coeff(self, k: int) -> SymBilinearForm:
        c = self._coeffs[k]
        if c is None:
            n = self.n
            rows = [self._mats[k][i : i + n] for i in range(0, n * n, n)]
            c = self._coeffs[k] = SymBilinearForm._of(rows, self._den)
        return c

    @property
    def coeffs(self) -> tuple[SymBilinearForm, ...]:
        return tuple(map(self._coeff, range(len(self._mats))))

    def at(self, t) -> SymBilinearForm:
        """Exact evaluation at a rational parameter t = p/q: the int matrix
        sum_k p^k q^(K-k) M_k over D q^K, in lowest terms."""
        t = as_fraction(t)
        if t == 0:
            # R_0 itself: the checks evaluate t = 0 often and it costs nothing.
            return self._coeff(0)
        q = t.denominator
        rows = _sample_rows(self._mats, t.numerator, q, self.n)
        return SymBilinearForm._of(rows, self._den * q ** (len(self._mats) - 1))

    def derivative(self) -> "FormFamily":
        n = self.n
        if len(self._mats) == 1:
            return FormFamily._stack([[0] * (n * n)], 1, n)
        return FormFamily._stack([[k * x for x in m] for k, m in enumerate(self._mats) if k], self._den, n)

    def __eq__(self, other):
        if not isinstance(other, FormFamily):
            return NotImplemented
        if self.n != other.n:
            return False
        zero = [0] * (self.n * self.n)
        la, lb = len(self._mats), len(other._mats)
        pa = self._mats + [zero] * max(0, lb - la)
        pb = other._mats + [zero] * max(0, la - lb)
        da, db = self._den, other._den
        return all([x * db for x in a] == [y * da for y in b] for a, b in zip(pa, pb))

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            c = Fraction(c)
            mats = [[c.numerator * x for x in m] for m in self._mats]
            return FormFamily._stack(mats, self._den * c.denominator, self.n)
        return NotImplemented

    __mul__ = __rmul__

    def __repr__(self):
        return f"FormFamily(n={self.n}, degree={len(self._mats) - 1})"


def twist_family(space: AugmentedSpace, lam, i: int) -> FormFamily:
    """The family R_{i,t} = sum_k binom(d-i+k, k) t^k Q_{i-k}; zero outside 0..d.

    The binomial weights go into the int stack, over the lcm of the Q
    denominators; R_{i,0} is the cached Q_i itself."""
    lam = Partition(lam)
    _check_weight(space, lam)
    d, n = space.d, space.dim_v
    if i < 0 or i > d:
        return FormFamily._stack([[0] * (n * n)], 1, n)
    forms = [intersection_form(space, lam, i - k) for k in range(i + 1)]
    den = lcm(*(f._den for f in forms))
    weights = [comb(d - i + k, k) * (den // f._den) for k, f in enumerate(forms)]
    mats = [[w * x for row in f._ints for x in row] for w, f in zip(weights, forms)]
    return FormFamily._stack(mats, den, n, [forms[0]] + [None] * i)


def _images(family: FormFamily, x) -> list[list[int]]:
    """M_k x for each matrix of the family's stack, reading only the nonzero
    coordinates of the int vector x: h and zeta are sparse.  Rows of a
    symmetric matrix are its columns."""
    n = family.n
    nonzero = [(j * n, c) for j, c in enumerate(x) if c]
    out = []
    for m in family._mats:
        y = [0] * n
        for j, c in nonzero:
            y = list(map(add, y, map(mul, m[j : j + n], repeat(c))))
        out.append(y)
    return out


def _kernel_coordinate(family: FormFamily, h, zeta) -> Optional[int]:
    """A coordinate z with zeta_z != 0 = h_z when R_t (zeta - t h) = 0 for
    every t, else None.

    The identity is checked exactly on the stack M_0..M_K: the coefficient
    of t^k in D R_t (zeta - t h) is M_k zeta - M_{k-1} h, so it holds when
    M_0 zeta = 0, M_k zeta = M_{k-1} h for k = 1..K and M_K h = 0.
    Differentiating gives R'_t (zeta - t h) = R_t h, so the derivative
    defect annihilates zeta - t h too.  That vector keeps coordinate z at
    zeta_z for every t, so the basis change that swaps e_z for it leaves R_t
    and that defect as their blocks off z plus one zero: the i = d family of
    an AugmentedSpace, with z its zeta index.
    """
    z = next((k for k, (a, b) in enumerate(zip(zeta, h)) if a and not b), None)
    if z is None:
        return None
    # h = x / s and zeta = y / s over one s, which cancels.
    (x, y), _ = _int_rows([_as_vector(h, family.n), _as_vector(zeta, family.n)])
    hs, zs = _images(family, x), _images(family, y)
    zero = [0] * family.n
    if zs[0] == zero and zs[1:] == hs[:-1] and hs[-1] == zero:
        return z
    return None


def _with_kernel(z: Optional[int], sig: Signature) -> Signature:
    """The signature of a matrix from that of its block off z (_kernel_coordinate)."""
    return sig if z is None else sig._replace(n_zero=sig.n_zero + 1)


class _Stack:
    """A family's int stack read at h = x/s and cut off its kernel
    coordinate z (None: nothing cut), as the checks sign it.

    With Y_k = M_k x and c_k = x . Y_k, the sample at t = p/q is read at
    the one scale D q^K: its matrix sum_k p^k q^(K-k) M_k, its value
    R_t(h) = sum_k p^k q^(K-k) c_k / (D q^K s^2) and its image R_t h, and
    the derivative border B_t = sum_k t^k B_k, whose coefficients
    B_k = _border_rows((k+1) M_{k+1}, (k+1) Y_{k+1}, Y_k, c_k) are the
    border of R'_t = sum_k (k+1) t^k M_{k+1} at h.  The blocks off z are
    cut once, from the coefficients: x_z = 0, so (M_k x) off z is
    (M_k off z)(x off z).
    """

    def __init__(self, family: FormFamily, h, z: Optional[int]):
        n = family.n
        (x,), s = _int_rows([_as_vector(h, n)])
        self.ys = _images(family, x)
        self.cs = [sum(map(mul, x, y)) for y in self.ys]
        self.scale = family._den * s * s
        self.degree = len(family._mats) - 1
        self.z = z
        if z is None:
            self.mats, self.ys_off, self.n = family._mats, self.ys, n
        else:
            keep = [k for k in range(n) if k != z]
            self.mats = [[m[i * n + j] for i in keep for j in keep] for m in family._mats]
            self.ys_off = [[y[k] for k in keep] for y in self.ys]
            self.n = n - 1

    def chain(self) -> _FamilyChain:
        """The chain that signs R_t off z."""
        return _FamilyChain(self.mats, self.n)

    def border_chain(self, degree: Optional[int] = None) -> _FamilyChain:
        """The chain of the derivative borders off z, its coefficients
        B_0..B_degree: all of them by default, and B_0 alone (degree 0) for
        a check that reads only t = 0."""
        n, K = self.n, self.degree
        zero = [0] * (n * n)
        coeffs = []
        for k in range(K + 1 if degree is None else degree + 1):
            a, u = (self.mats[k + 1], self.ys_off[k + 1]) if k < K else (zero, [0] * n)
            rows = [[(k + 1) * x for x in a[i : i + n]] for i in range(0, n * n, n)]
            border = _border_rows(rows, [(k + 1) * x for x in u], self.ys_off[k], self.cs[k])
            coeffs.append([x for row in border for x in row])
        return _FamilyChain(coeffs, n + 2)

    def _value_at_h(self, p: int, q: int) -> int:
        """D q^K s^2 R_t(h) at t = p/q."""
        return sum(map(mul, _weights(p, q, self.degree), self.cs))

    def weak_hr_sample(self, t: Fraction, samples: _FamilyChain) -> dict:
        """The sample at t, R_t signed off z on `samples`."""
        p, q = t.numerator, t.denominator
        weights = _weights(p, q, self.degree)
        qh = sum(map(mul, weights, self.cs))
        sig = _with_kernel(self.z, samples.inertia(p, q))
        image_nonzero = qh == 0 and any(sum(map(mul, weights, col)) for col in zip(*self.ys))
        return {
            "t": t,
            "signature": sig,
            "q_h": Fraction(qh, self.scale * weights[0]),
            "weak_hr": qh > 0 and sig.n_plus == 1,
            "hodge_index_psd": _hodge_index_inertia(qh, sig, image_nonzero).n_minus == 0,
        }

    def derivative_sample(self, t: Fraction, borders: _FamilyChain) -> Signature:
        """derivative_inequality_inertia(R_t, R'_t, h), from the border off z
        on `borders` when R_t(h) > 0, else from the defect matrix read off it."""
        p, q = t.numerator, t.denominator
        if self._value_at_h(p, q) > 0:
            sig = _from_border(borders.inertia(p, q))
        else:
            sig = borders.sign(_border_defect(borders.rows(p, q)))
        return _with_kernel(self.z, sig)


def _str_or_none(x: Optional[Fraction]) -> Optional[str]:
    return fraction_to_str(x) if x is not None else None


@dataclass(frozen=True)
class _FamilyReport:
    """The shape the first- and second-order reports share.

    per_t holds one sample per t, t = 0 first, so r0_signature is the
    signature of that sample.  A subclass names its label, its five checks,
    the values it echoes as (JSON key, attribute) pairs, and the per-t flags
    a sample must show for its |t| to count toward max_passing_radius.
    """

    r0_h: Fraction
    r0_signature: Signature
    t_samples: tuple[Fraction, ...]
    per_t: tuple[dict, ...]

    label: ClassVar[str]
    value_fields: ClassVar[tuple[tuple[str, str], ...]]
    sample_checks: ClassVar[tuple[str, ...]]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    @property
    def r0_hr(self) -> bool:
        """R_0 is Hodge-Riemann with respect to h: is_hr_wrt on R_0."""
        return self.r0_h > 0 and self.r0_signature.is_hr

    @property
    def max_passing_radius(self) -> Optional[Fraction]:
        passing = [
            abs(entry["t"])
            for entry in self.per_t
            if all(entry[k] for k in self.sample_checks)
        ]
        return max(passing) if passing else None

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "checks": self.checks,
            "passed": self.passed,
            "values": {key: fraction_to_str(getattr(self, attr)) for key, attr in self.value_fields},
            "r0_signature": self.r0_signature.to_json(),
            "t_samples": [fraction_to_str(t) for t in self.t_samples],
            "per_t": [
                {
                    "t": fraction_to_str(entry["t"]),
                    "signature": entry["signature"].to_json(),
                    "hodge_index_psd": entry["hodge_index_psd"],
                    **{k: entry[k] for k in self.sample_checks},
                }
                for entry in self.per_t
            ],
            "max_passing_radius": _str_or_none(self.max_passing_radius),
        }


@dataclass(frozen=True)
class PropertyAReport(_FamilyReport):
    """Verdicts for the five first-order conditions of a family.

    a1: R_0(h) > 0 and R'_0(h) > 0.
    a2: weak Hodge-Riemann with respect to h at every sampled t.
    a3: the derivative inequality at t = 0, as exact semidefiniteness.
    a4: R'_0(., zeta) is a constant multiple of R_0(., h); the multiple is
        reported as `constant`.
    a5: R_0(zeta, h) > 0.

    r0p is the R'_0 the checks used, kept for the verdicts and not serialised.
    """

    a1: bool
    a2: bool
    a3: bool
    a4: bool
    a5: bool
    constant: Optional[Fraction]
    r0p_h: Fraction
    r0_zeta_h: Fraction
    r0p: SymBilinearForm = field(repr=False, compare=False)

    label: ClassVar[str] = "A"
    value_fields: ClassVar = (
        ("r0_h", "r0_h"),
        ("r0_derivative_h", "r0p_h"),
        ("r0_zeta_h", "r0_zeta_h"),
    )
    sample_checks: ClassVar = ("weak_hr",)

    @property
    def checks(self) -> dict[str, bool]:
        return {"A1": self.a1, "A2": self.a2, "A3": self.a3, "A4": self.a4, "A5": self.a5}

    def to_json(self) -> dict:
        return {**super().to_json(), "constant": _str_or_none(self.constant)}


@dataclass(frozen=True)
class PropertyBReport(_FamilyReport):
    """Verdicts for the five second-order conditions of a family.

    b1: R_0(h) > 0.
    b2: weak Hodge-Riemann with respect to h at every sampled t.
    b3: the derivative inequality at every sampled t.
    b4: R''_0(a, zeta) = 2 R'_0(a, h) for every basis vector a of W.
    b5: R''_0(zeta, zeta) = 2 R_0(h).

    rpp0 is the R''_0 the checks used, kept for the verdict and not serialised.
    """

    b1: bool
    b2: bool
    b3: bool
    b4: bool
    b5: bool
    rpp0: SymBilinearForm = field(repr=False, compare=False)

    label: ClassVar[str] = "B"
    value_fields: ClassVar = (("r0_h", "r0_h"),)
    sample_checks: ClassVar = ("weak_hr", "derivative_inequality_psd")

    @property
    def checks(self) -> dict[str, bool]:
        return {"B1": self.b1, "B2": self.b2, "B3": self.b3, "B4": self.b4, "B5": self.b5}


def check_property_a(family: FormFamily, h, zeta, t_samples=None) -> PropertyAReport:
    """Evaluate the five first-order conditions; verdicts, not exceptions."""
    ts = _normalize_t_samples(t_samples)
    r0 = family.at(0)
    r0p = family.derivative().at(0)
    r0_h = r0.quad(h)
    r0p_h = r0p.quad(h)
    stack = _Stack(family, h, _kernel_coordinate(family, h, zeta))
    samples = stack.chain()
    per_t = [stack.weak_hr_sample(t, samples) for t in ts]

    lhs = r0p.pairing_vector(zeta)
    rhs = r0.pairing_vector(h)
    pivot = next((k for k in range(r0.n) if rhs[k] != 0), None)
    if pivot is None:
        constant = None
        a4 = all(x == 0 for x in lhs)
    else:
        constant = lhs[pivot] / rhs[pivot]
        a4 = all(x == constant * y for x, y in zip(lhs, rhs))

    r0_zeta_h = r0.value(zeta, h)
    return PropertyAReport(
        a1=r0_h > 0 and r0p_h > 0,
        a2=all(entry["weak_hr"] for entry in per_t),
        a3=stack.derivative_sample(Fraction(0), stack.border_chain(0)).n_minus == 0,
        a4=a4,
        a5=r0_zeta_h > 0,
        constant=constant,
        r0_h=r0_h,
        r0p_h=r0p_h,
        r0_zeta_h=r0_zeta_h,
        r0p=r0p,
        r0_signature=per_t[0]["signature"],
        t_samples=ts,
        per_t=tuple(per_t),
    )


def check_property_b(family: FormFamily, h, zeta, t_samples=None) -> PropertyBReport:
    """Evaluate the five second-order conditions; verdicts, not exceptions.

    The basis vectors of W are taken to be the coordinate directions where
    zeta has coordinate zero.
    """
    ts = _normalize_t_samples(t_samples)
    deriv = family.derivative()
    r0_h = family.at(0).quad(h)

    # R_t and the derivative borders each sign on their own chain.
    stack = _Stack(family, h, _kernel_coordinate(family, h, zeta))
    samples, borders = stack.chain(), stack.border_chain()
    per_t = []
    for t in ts:
        entry = stack.weak_hr_sample(t, samples)
        entry["derivative_inequality_psd"] = stack.derivative_sample(t, borders).n_minus == 0
        per_t.append(entry)

    zeta_vec = [as_fraction(x) for x in zeta]
    w_indices = [a for a in range(family.n) if zeta_vec[a] == 0]
    rpp0 = deriv.derivative().at(0)
    second_zeta = rpp0.pairing_vector(zeta)
    first_h = deriv.at(0).pairing_vector(h)
    return PropertyBReport(
        b1=r0_h > 0,
        b2=all(entry["weak_hr"] for entry in per_t),
        b3=all(entry["derivative_inequality_psd"] for entry in per_t),
        b4=all(second_zeta[a] == 2 * first_h[a] for a in w_indices),
        b5=rpp0.value(zeta, zeta) == 2 * r0_h,
        rpp0=rpp0,
        r0_h=r0_h,
        r0_signature=per_t[0]["signature"],
        t_samples=ts,
        per_t=tuple(per_t),
    )


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of one verification: hypothesis flags, conclusion, and status.

    INCONSISTENT (hypotheses hold, conclusion fails) always indicates an
    implementation bug and fails any driver that sees it; NOT-APPLICABLE means
    the hypotheses themselves did not hold for the given data.
    """

    name: str
    hypotheses: dict
    conclusion: bool
    status: str
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "hypotheses": self.hypotheses,
            "conclusion": self.conclusion,
            "status": self.status,
            "details": self.details,
        }


def _verdict(name: str, hypotheses: dict, conclusion: bool, details: dict) -> TheoremVerdict:
    if all(hypotheses.values()):
        status = CONSISTENT if conclusion else INCONSISTENT
    else:
        status = NOT_APPLICABLE
    return TheoremVerdict(name, hypotheses, conclusion, status, details)


def verify_augmentation1(family: FormFamily, h, zeta, t_samples=None) -> TheoremVerdict:
    """First-order upgrade: property A plus R'_0 Hodge-Riemann forces R_0 to be.

    The conclusion is tested independently of the hypotheses; a CONSISTENT
    verdict means both sides came out true.
    """
    rep = check_property_a(family, h, zeta, t_samples)
    derivative_sig = signature(rep.r0p)
    hyps = {
        "property_A": rep.passed,
        "derivative_hr_wrt_h": rep.r0p_h > 0 and derivative_sig.is_hr,
    }
    details = {
        "property_A": rep.to_json(),
        "r0_signature": rep.r0_signature.to_json(),
        "derivative_signature": derivative_sig.to_json(),
    }
    return _verdict("augmentation1", hyps, rep.r0_hr, details)


def verify_recursion(space: AugmentedSpace, lam, j: int, t_samples=None) -> TheoremVerdict:
    """Recursive upgrade along i = 2..j for the twist families of (space, lam).

    Hypotheses: (1) the first-order conditions for each family, where the
    base family i = 2 is only required to satisfy the conditions its base
    case actually uses (R_0(h) > 0, weak HR at the samples, the constant
    identity, and R_0(zeta, h) > 0; its derivative pairs to zero on W by
    construction, so the derivative half of the first condition is excluded);
    (2) R'_{i,0} = (d-i+1) R_{i-1,0} exactly; (3) R_{1,0} vanishes on W;
    (4) R_{2,0} restricted to W is Hodge-Riemann with respect to h;
    (5) the reported constant of the i = 2 family is nonzero.

    Conclusion: R_{i,0} is Hodge-Riemann with respect to h for every i in 2..j.
    """
    lam = Partition(lam)
    d = space.d
    if not 2 <= j <= d - 1:
        raise ValueError(f"need 2 <= j <= d-1, got j={j}, d={d}")
    h = space.h_coords
    zeta = space.zeta_coords
    reports = {i: check_property_a(twist_family(space, lam, i), h, zeta, t_samples) for i in range(2, j + 1)}

    per_i_ok = {}
    for i in range(2, j + 1):
        rep = reports[i]
        if i == 2:
            per_i_ok[i] = rep.r0_h > 0 and rep.a2 and rep.a4 and rep.a5
        else:
            per_i_ok[i] = rep.passed
    hyp1 = all(per_i_ok.values())

    hyp2 = all(
        reports[i].r0p == (d - i + 1) * intersection_form(space, lam, i - 1)
        for i in range(2, j + 1)
    )
    w_idx = list(space.w_indices())
    hyp3 = intersection_form(space, lam, 1).restrict_indices(w_idx).is_zero()
    hyp4 = is_hr_wrt(intersection_form(space, lam, 2).restrict_indices(w_idx), space.h_coords_w())
    c2 = reports[2].constant
    hyp5 = c2 is not None and c2 != 0

    hyps = {
        "property_A_families": hyp1,
        "derivative_recursion": hyp2,
        "r1_vanishes_on_w": hyp3,
        "r2_hr_on_w": hyp4,
        "r2_constant_nonzero": hyp5,
    }
    conclusions = {i: reports[i].r0_hr for i in reports}
    details = {
        "per_i_property_A": {str(i): reports[i].to_json() for i in reports},
        "per_i_base_conditions_ok": {str(i): per_i_ok[i] for i in per_i_ok},
        "per_i_conclusion": {str(i): conclusions[i] for i in conclusions},
        "constants": {str(i): _str_or_none(reports[i].constant) for i in reports},
    }
    return _verdict("recursion", hyps, all(conclusions.values()), details)


def verify_augmentation2(space: AugmentedSpace, lam, t_samples=None) -> TheoremVerdict:
    """Second-order upgrade at i = d: the conclusion restricts to W.

    Hypotheses: property B for the i = d family, the exact identity
    R''_{d,0} = 2 R_{d-2,0}, and that this second derivative is Hodge-Riemann
    with respect to h.  Conclusion: R_{d,0} restricted to W is Hodge-Riemann
    with respect to h, which is exactly the signature statement for the
    intersection form of s_lam(omega).  R_{d,0} = Q_d pairs zeta with
    nothing (its integrand is the (d-2,d-2) slice alone), so it is its W
    block plus a zero row and column: the conclusion reads property B's t = 0
    sample, with one zero fewer and R_{d,0}(h) as the block's value at h.
    """
    lam = Partition(lam)
    d = space.d
    h = space.h_coords
    rep = check_property_b(twist_family(space, lam, d), h, space.zeta_coords, t_samples)
    rpp0 = rep.rpp0
    hyps = {
        "property_B": rep.passed,
        "second_derivative_identity": rpp0 == 2 * intersection_form(space, lam, d - 2),
        "second_derivative_hr_wrt_h": is_hr_wrt(rpp0, h),
    }
    restricted_sig = rep.r0_signature._replace(n_zero=rep.r0_signature.n_zero - 1)
    details = {
        "property_B": rep.to_json(),
        "restricted_signature": restricted_sig.to_json(),
    }
    return _verdict("augmentation2", hyps, rep.r0_h > 0 and restricted_sig.is_hr, details)


def rank_drop_family(n: int = 3) -> FormFamily:
    """A family on R^n whose t = 0 member acquires a one-dimensional kernel.

    The quadratic form is (1+t)x1^2 + 2x1x2 + (1-t)x2^2 - (1+t)(x3^2+...):
    Hodge-Riemann for small nonzero t, degenerate at t = 0, with the constant
    derivative family Hodge-Riemann throughout.  Useful as the stock example
    of why the first-order upgrade needs its side conditions.
    """
    if n < 2:
        raise ValueError("need dimension at least 2")
    z = Fraction(0)
    c0 = [[z] * n for _ in range(n)]
    c0[0][0] = Fraction(1)
    c0[0][1] = c0[1][0] = Fraction(1)
    c0[1][1] = Fraction(1)
    c1 = [[z] * n for _ in range(n)]
    c1[0][0] = Fraction(1)
    c1[1][1] = Fraction(-1)
    for k in range(2, n):
        c0[k][k] = Fraction(-1)
        c1[k][k] = Fraction(-1)
    return FormFamily((SymBilinearForm(c0), SymBilinearForm(c1)))
