"""Partitions and Schur polynomials evaluated in the algebra of real (p,p)-forms.

Elementary, Schur and twisted-class evaluation each have two layers: a
generic one that works in any commutative ring given via duck typing (elements
need +, * and multiplication by ints), and a thin wrapper specialized to
forms.  The generic layer is what lets the test suite replay the same
determinants over plain commuting scalar variables.  Derived Schur
coefficients live in the form layer only: they are the bidegree slices of one
Schur evaluation at the arguments shifted by the unit form.

The Schur determinant convention is: for a partition (l_1 >= ... >= l_N) the
entry in row i, column j (1-based) is c_{l_i - i + j}, with c_0 = 1 and c_k = 0
for k < 0 or k beyond the number of arguments.  Padding a partition with zero
parts never changes the determinant.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Sequence

from .exterior import Form, holomorphic_slices
from .gaussian import as_fraction, fraction_from_str, fraction_to_str


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __init__(self, parts=()):
        if isinstance(parts, Partition):
            parts = parts.parts
        parts = tuple(int(p) for p in parts)
        if any(p <= 0 for p in parts):
            raise ValueError("partition parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("partition parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)

    @property
    def weight(self) -> int:
        return sum(self.parts)

    @property
    def largest(self) -> int:
        return self.parts[0] if self.parts else 0

    def padded(self, n: int) -> tuple[int, ...]:
        """Parts extended with zeros to length n (evaluations are unchanged)."""
        if n < len(self.parts):
            raise ValueError("cannot pad below the number of parts")
        return self.parts + (0,) * (n - len(self.parts))

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"

    def to_json(self) -> list[int]:
        return list(self.parts)

    @staticmethod
    def from_json(obj) -> "Partition":
        return Partition(obj)


@lru_cache(maxsize=None)
def partitions(b: int, e: int) -> tuple[Partition, ...]:
    """Partitions of b with parts at most e, lexicographically decreasing."""
    if b < 0:
        raise ValueError("weight must be non-negative")
    if e < 1:
        raise ValueError("largest-part cap must be at least 1")
    out: list[Partition] = []

    def rec(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            out.append(Partition(tuple(prefix)))
            return
        for p in range(min(cap, remaining), 0, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(b, e, [])
    return tuple(out)


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


# -- generic ring layer ----------------------------------------------------


def elementary_elements(k: int, xs: Sequence, one):
    """k-th elementary symmetric function of xs in any commutative ring."""
    if k < 0 or k > len(xs):
        return one * 0
    if k == 0:
        return one
    # Running coefficients of prod (1 + x_i T) up to degree k; descending
    # in-place updates keep the previous round's values where needed.
    coeffs = [one]
    for x in xs:
        if len(coeffs) < k + 1:
            coeffs.append(coeffs[-1] * x)
            start = len(coeffs) - 2
        else:
            start = k
        for j in range(start, 0, -1):
            coeffs[j] = coeffs[j] + coeffs[j - 1] * x
    return coeffs[k]


def schur_elements(lam, xs: Sequence, one):
    """Schur polynomial of xs, via the determinant in elementary functions.

    Laplace expansion over column subsets, from the last row up: minors[cols]
    is the determinant of rows i..n-1 on the columns in the bitmask cols, and
    each level is built from the one below, which is then dropped.  The work
    is bounded by the 2^n column subsets, not the n! products of the Leibniz
    formula.
    """
    lam = Partition(lam)
    n = len(lam.parts)
    need = lam.largest + n - 1
    cs = [elementary_elements(k, xs, one) for k in range(need + 1)]
    minors = {0: one}
    for i in range(n - 1, -1, -1):
        level = {}
        for cols, minor in minors.items():
            for j in range(n):
                k = lam.parts[i] - i + j
                if cols >> j & 1 or k < 0 or k > need or not cs[k]:
                    continue
                term = cs[k] * minor
                if (cols & ((1 << j) - 1)).bit_count() & 1:
                    term = term * -1
                key = cols | 1 << j
                level[key] = level[key] + term if key in level else term
        minors = level
    return minors.get((1 << n) - 1, one * 0)


def twisted_chern_elements(cs: Sequence, e: int, delta, p: int, one):
    """Twisted class c_p: sum over k of binom(e-k, p-k) * c_k * delta^(p-k)."""
    if not 0 <= p <= e:
        raise ValueError(f"index {p} out of range 0..{e}")
    total = one * 0
    dpow = one
    # Walk k from p down to 0 so delta powers build incrementally.
    for k in range(p, -1, -1):
        if k < len(cs):
            total = total + comb(e - k, p - k) * (cs[k] * dpow)
        dpow = dpow * delta
    return total


# -- form layer -------------------------------------------------------------


def _common_dimension(forms: Sequence[Form]) -> int:
    if not forms:
        raise ValueError("need at least one form")
    d = forms[0].d
    for f in forms:
        if not isinstance(f, Form):
            raise TypeError("expected forms")
        if f.d != d:
            raise ValueError("mixed dimensions")
    return d


def elementary(k: int, forms: Sequence[Form]) -> Form:
    """k-th elementary symmetric function of (1,1)-forms under wedge."""
    d = _common_dimension(forms)
    return elementary_elements(k, list(forms), Form.scalar(d, 1))


def schur(lam, forms: Sequence[Form]) -> Form:
    """Schur polynomial of (1,1)-forms; a real form of bidegree (|lam|, |lam|)."""
    lam = Partition(lam)
    d = _common_dimension(forms)
    if lam.largest > len(forms):
        warnings.warn(
            f"partition part {lam.largest} exceeds the number of forms "
            f"({len(forms)}); outside the guaranteed signature range",
            RuntimeWarning,
            stacklevel=2,
        )
    return schur_elements(lam, list(forms), Form.scalar(d, 1))


def derived_schur_all(lam, forms: Sequence[Form]) -> list[Form]:
    """Derived Schur forms [s^(0), ..., s^(|lam|)] of (1,1)-forms.

    s^(j) is the coefficient of T^j in s_lam(x_1 + T, ..., x_e + T) and is
    homogeneous of degree |lam| - j in the x.  Setting T to the unit form
    keeps the identity exact, so the (p,p) slice of s_lam(omega + 1) is
    s^(|lam| - p).
    """
    lam = Partition(lam)
    d = _common_dimension(forms)
    if not all(f.is_homogeneous(1, 1) for f in forms):
        raise ValueError("derived Schur forms need (1,1)-forms")
    one = Form.scalar(d, 1)
    shifted = schur_elements(lam, [f + one for f in forms], one)
    return holomorphic_slices(shifted, lam.weight)[::-1]


def derived_schur(lam, forms: Sequence[Form], j: int) -> Form:
    """Coefficient of the j-th power of a uniform (1,1) shift of the arguments."""
    coeffs = derived_schur_all(lam, forms)
    return coeffs[j] if 0 <= j < len(coeffs) else Form.zero(forms[0].d)


def twisted_chern(cs: Sequence[Form], e: int, delta: Form, p: int) -> Form:
    """Twist of a Chern-class list by a (1,1)-form delta."""
    d = _common_dimension(cs)
    return twisted_chern_elements(list(cs), e, delta, p, Form.scalar(d, 1))


def schur_combination(weights: WeightVector, b: int, e: int, forms: Sequence[Form]) -> Form:
    """Convex combination of the Schur forms indexed by partitions(b, e)."""
    lams = partitions(b, e)
    if len(weights) != len(lams):
        raise ValueError(
            f"weight vector has {len(weights)} entries but there are "
            f"{len(lams)} partitions of {b} with parts at most {e}"
        )
    d = _common_dimension(forms)
    total = Form.zero(d)
    for w, lam in zip(weights, lams):
        if w:
            total = total + schur(lam, forms).scale(w)
    return total
