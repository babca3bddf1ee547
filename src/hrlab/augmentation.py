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
denominator D (FormFamily), and each check reads it once, through one
_Reading built from (family, h, zeta): with h = x/s and zeta = y/s over one
s, the images Y_k = M_k x and Z_k = M_k y and the values c_k = x . Y_k give
every value the checks report (R_0(h), R'_0(h), R_0(zeta, h), A4, B4, B5),
decide whether R_t annihilates zeta - t h, and, with the weights
p^k q^(K-k) of t = p/q, give each sample's R_t(h), R_t h and derivative
border at the one scale D q^K.  No sample is put in lowest terms; only its
reported q_h is a Fraction.  t = 0 is always the first sample and is R_0
itself, so the reported r0_signature is that sample's.

R_t and the borders are each signed on one chain (bilinear._FamilyChain),
which hands on proposals and certifies the samples near t = 0 by the family
bound whose soundness the bilinear module docstring states; the derivative
defect's inertia follows bilinear's one rule (_defect_inertia).  The i = d
family annihilates zeta - t h, so its stack is cut off zeta once: R_t and
the borders are signed one row smaller, nonsingular, and one zero is added
back.  The verdicts read "R_0 is Hodge-Riemann with respect to h", and aug2
its restriction to W, off the report instead of signing R_0 again, and take
R_{i,0} as the cached Q_i.  Both reports share one shape: the per-t
serialiser, passed and max_passing_radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import comb, factorial, lcm
from operator import add, mul
from typing import ClassVar, Optional, Sequence

from .bilinear import (
    Signature,
    SymBilinearForm,
    _as_vector,
    _border_rows,
    _defect_inertia,
    _FamilyChain,
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


class _Reading:
    """A family read once at h = x/s and zeta = y/s, over one s, as a check
    reads it.

    Its images Y_k = M_k x and Z_k = M_k y and the values c_k = x . Y_k
    are formed once, each list padded with zeros past K to at least three
    entries, and give the checks their values: R^(k)_0(h) = k! c_k / (D s^2),
    R^(k)_0 h = k! Y_k / (D s) and R^(k)_0 zeta = k! Z_k / (D s).

    The images also decide the kernel cut.  The coefficient of t^k in
    D R_t (zeta - t h) is Z_k - Y_{k-1}, so R_t annihilates zeta - t h for
    every t when Z_0 = 0, Z_k = Y_{k-1} for k = 1..K and Y_K = 0; then
    R'_t (zeta - t h) = R_t h, so the derivative defect annihilates it
    too.  With a coordinate z where zeta_z != 0 = h_z (the zeta index of
    an AugmentedSpace, whose i = d family is such a family), that vector
    keeps coordinate z at zeta_z for every t, so the basis change that swaps
    e_z for it leaves R_t and the defect as their blocks off z plus one
    zero.  Those blocks are cut once, from the coefficients: x_z = 0, so
    (M_k x) off z is (M_k off z)(x off z).

    The sample at t = p/q is read at the one scale D q^K: its matrix
    sum_k p^k q^(K-k) M_k, R_t(h) and R_t h.  R_t is signed on one chain
    (bilinear._FamilyChain), and the derivative borders on another, as the
    polynomial B_t = sum_k t^k B_k whose coefficients
    B_k = _border_rows((k+1) M_{k+1}, (k+1) Y_{k+1}, Y_k, c_k) are the
    border of R'_t = sum_k (k+1) t^k M_{k+1} at h; border_degree = 0 keeps
    B_0 alone, for a check that reads only t = 0.
    """

    def __init__(self, family: FormFamily, h, zeta, border_degree: Optional[int] = None):
        n, K = family.n, len(family._mats) - 1
        (x, self.y), s = _int_rows([_as_vector(h, n), _as_vector(zeta, n)])
        zero = [0] * n
        pad = [zero] * max(1, 2 - K)
        self.ys, self.zs = _images(family, x) + pad, _images(family, self.y) + pad
        self.cs = [sum(map(mul, x, y)) for y in self.ys]
        self.scale = family._den * s * s
        self.degree = K
        z = next((k for k, (a, b) in enumerate(zip(self.y, x)) if a and not b), None)
        self.z = z if z is not None and self.zs == [zero] + self.ys[:-1] else None
        mats, ys = family._mats, self.ys[: K + 2]
        if self.z is not None:
            keep = [k for k in range(n) if k != self.z]
            mats = [[m[i * n + j] for i in keep for j in keep] for m in mats]
            ys = [[y[k] for k in keep] for y in ys]
            n -= 1
        self.ys_off, self.samples = ys, _FamilyChain(mats, n)
        borders = []
        for k in range(K + 1 if border_degree is None else border_degree + 1):
            a = mats[k + 1] if k < K else [0] * (n * n)
            rows = [[(k + 1) * v for v in a[i : i + n]] for i in range(0, n * n, n)]
            border = _border_rows(rows, [(k + 1) * v for v in ys[k + 1]], ys[k], self.cs[k])
            borders.append([v for row in border for v in row])
        self.borders = _FamilyChain(borders, n + 2)

    def _with_kernel(self, sig: Signature) -> Signature:
        """The signature of a matrix from that of its block off z."""
        return sig if self.z is None else sig._replace(n_zero=sig.n_zero + 1)

    def _at(self, t: Fraction) -> tuple[int, int, list[int], int, list[int]]:
        """(p, q, the weights p^k q^(K-k), D q^K s^2 R_t(h), D q^K s R_t h off z)."""
        p, q = t.numerator, t.denominator
        weights = _weights(p, q, self.degree)
        image = [sum(map(mul, weights, col)) for col in zip(*self.ys_off)]
        return p, q, weights, sum(map(mul, weights, self.cs)), image

    def weak_hr_sample(self, t: Fraction) -> dict:
        """The sample at t, R_t signed off z."""
        p, q, weights, qh, image = self._at(t)
        sig = self._with_kernel(self.samples.inertia(p, q))
        return {
            "t": t,
            "signature": sig,
            "q_h": Fraction(qh, self.scale * weights[0]),
            "weak_hr": qh > 0 and sig.n_plus == 1,
            "hodge_index_psd": _hodge_index_inertia(qh, sig, any(image)).n_minus == 0,
        }

    def derivative_sample(self, t: Fraction) -> Signature:
        """derivative_inequality_inertia(R_t, R'_t, h) by bilinear's one
        rule: off the border chain, or in closed form where R_t(h) = 0."""
        p, q, weights, qh, image = self._at(t)
        # R'_t h = sum_k (k+1) t^k Y_{k+1} at the same scale.
        dweights = [(k + 1) * w for k, w in enumerate(weights)]
        u = [sum(map(mul, dweights, col[1:])) for col in zip(*self.ys_off)]
        return self._with_kernel(_defect_inertia(qh, u, image, lambda: self.borders.inertia(p, q)))


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


def _derivative_at_0(family: FormFamily, k: int) -> SymBilinearForm:
    """R^(k)_0 = k! M_k / D, the zero form past the family's degree."""
    if k >= len(family._mats):
        return SymBilinearForm.zero(family.n)
    return factorial(k) * family._coeff(k)


def check_property_a(family: FormFamily, h, zeta, t_samples=None) -> PropertyAReport:
    """Evaluate the five first-order conditions; verdicts, not exceptions.

    Every value is read off one _Reading: R_0(h) and R'_0(h) from c_0 and
    c_1, R_0(zeta, h) from y . Y_0, and A4 holds when Z_1 = R'_0 zeta is a
    multiple of Y_0 = R_0 h, both at the scale D s.
    """
    ts = _normalize_t_samples(t_samples)
    reading = _Reading(family, h, zeta, border_degree=0)
    per_t = [reading.weak_hr_sample(t) for t in ts]
    r0_h, r0p_h, r0_zeta_h = (
        Fraction(c, reading.scale) for c in (reading.cs[0], reading.cs[1], sum(map(mul, reading.y, reading.ys[0])))
    )

    lhs, rhs = reading.zs[1], reading.ys[0]
    pivot = next((k for k, c in enumerate(rhs) if c), None)
    if pivot is None:
        constant = None
        a4 = not any(lhs)
    else:
        constant = Fraction(lhs[pivot], rhs[pivot])
        a4 = all(a * rhs[pivot] == lhs[pivot] * b for a, b in zip(lhs, rhs))
    return PropertyAReport(
        a1=r0_h > 0 and r0p_h > 0,
        a2=all(entry["weak_hr"] for entry in per_t),
        a3=reading.derivative_sample(Fraction(0)).n_minus == 0,
        a4=a4,
        a5=r0_zeta_h > 0,
        constant=constant,
        r0_h=r0_h,
        r0p_h=r0p_h,
        r0_zeta_h=r0_zeta_h,
        r0p=_derivative_at_0(family, 1),
        r0_signature=per_t[0]["signature"],
        t_samples=ts,
        per_t=tuple(per_t),
    )


def check_property_b(family: FormFamily, h, zeta, t_samples=None) -> PropertyBReport:
    """Evaluate the five second-order conditions; verdicts, not exceptions.

    The basis vectors of W are taken to be the coordinate directions where
    zeta has coordinate zero.  Every value is read off one _Reading:
    R''_0 zeta = 2 Z_2 and R'_0 h = Y_1 at the scale D s, so B4 is
    Z_2 = Y_1 on W, and B5, R''_0(zeta, zeta) = 2 R_0(h), is y . Z_2 = c_0.
    """
    ts = _normalize_t_samples(t_samples)
    reading = _Reading(family, h, zeta)
    per_t = []
    for t in ts:
        entry = reading.weak_hr_sample(t)
        entry["derivative_inequality_psd"] = reading.derivative_sample(t).n_minus == 0
        per_t.append(entry)

    y, z2, y1 = reading.y, reading.zs[2], reading.ys[1]
    return PropertyBReport(
        b1=reading.cs[0] > 0,
        b2=all(entry["weak_hr"] for entry in per_t),
        b3=all(entry["derivative_inequality_psd"] for entry in per_t),
        b4=all(a == b for a, b, c in zip(z2, y1, y) if not c),
        b5=sum(map(mul, y, z2)) == reading.cs[0],
        rpp0=_derivative_at_0(family, 2),
        r0_h=Fraction(reading.cs[0], reading.scale),
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
