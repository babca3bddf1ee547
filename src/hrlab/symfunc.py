"""Partitions and Schur polynomials evaluated in the algebra of real (p,p)-forms.

Elementary, Schur and twisted-class evaluation each have a generic layer that
works in any commutative ring given via duck typing (elements need +, * and
multiplication by ints); it lets the test suite replay the same determinants
over plain commuting scalar variables.  Derived Schur coefficients live in
the form layer only: they are the bidegree slices of one Schur evaluation at
the arguments shifted by the unit form.

`schur` has two routes, chosen by the input alone.  The pencil route is
taken when 2 <= |lam| <= d, the lattice below has at most 4^(d-2) points and
exterior.pencil_power_sum accepts the forms: real (1,1)-forms, whose pencil
is positive definite at every lattice point when 2|lam| > d, as it is for
strictly positive forms.  Strict positivity is decided where forms enter
(the CLI's forms file, AugmentedSpace), not here.  In the linear setting,
the (I,J) coefficient of s_lam is i^(p*p) sum_a f_a a! [x^a] det H(x)[I,J],
with p = |lam|, H(x) = sum_k x_k H_k the pencil of the forms' Hermitian
matrices and f = sum_a f_a x^a lam's Schur polynomial in e scalar variables
(e forms).  The functional is a fixed weighted sum of values at the
binom(p+e-1, e-1) points x = (1, t), t in N^(e-1), |t| <= p, whose weights
come in closed form from Newton forward differences and are cached per
(lam, e); exterior.pencil_power_sum reads the minors at each point, with no
wedge.  Every other input, and `derived_schur_all`, takes the wedge route:
the Jacobi-Trudi determinant in the elementary functions, expanded over
wedges.

The rule follows CPU times of both routes on random positive forms at
d = 2..8.  The wedge route costs about e times the number of coefficient
pairs of a (j,j)-form and a (1,1)-form, which grows like 4^d; a lattice
point costs one d x d elimination and its small minors.  The pencil lost
once the lattice had more than about 4^(d-2) points: near 4 points at
d = 2, 20 at d = 4, 1,000 at d = 7 and 1,700 to 8,000 at d = 8.  At
|lam| = 1, s_lam is the sum of the forms, which the wedge route forms with
no product of two (1,1)-forms.  Both routes then take tens of microseconds
and neither won at every d: pencil over wedge CPU time read 0.64 to 1.69
over d = 2..8 and e = 1..3, so the sum stays on the wedge route.

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
from itertools import product
from math import comb, factorial, prod
from operator import add
from types import MappingProxyType
from typing import Mapping, Sequence

from .exterior import Form, holomorphic_slices, pencil_power_sum


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


# -- lattice weights of the pencil route --------------------------------------


class _Poly(dict):
    """Polynomial with int coefficients as {exponent tuple: coefficient}, no
    zero entries: the ring in which schur_elements expands f_lam."""

    def __add__(self, other):
        out = _Poly(self)
        for k, c in other.items():
            c += out.get(k, 0)
            if c:
                out[k] = c
            else:
                del out[k]
        return out

    def __mul__(self, other):
        if isinstance(other, int):
            return _Poly({k: c * other for k, c in self.items()} if other else {})
        out: dict[tuple[int, ...], int] = {}
        for k1, c1 in self.items():
            for k2, c2 in other.items():
                k = tuple(map(add, k1, k2))
                out[k] = out.get(k, 0) + c1 * c2
        return _Poly({k: c for k, c in out.items() if c})


@lru_cache(maxsize=None)
def _stirling1(n: int, k: int) -> int:
    """Signed Stirling number of the first kind: t(t-1)...(t-n+1) = sum_k s(n, k) t^k."""
    if n == 0:
        return int(k == 0)
    return (_stirling1(n - 1, k - 1) if k else 0) - (n - 1) * _stirling1(n - 1, k)


@lru_cache(maxsize=None)
def _simplex(m: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The points of N^m with coordinate sum at most r."""
    if m == 0:
        return ((),)
    return tuple((a,) + rest for a in range(r + 1) for rest in _simplex(m - 1, r - a))


@lru_cache(maxsize=None)
def _lattice_weights(lam: Partition, e: int) -> Mapping[tuple[int, ...], Fraction]:
    """Weights w_t, t in N^(e-1) with |t| <= p = |lam|, such that
    sum_t w_t g(1, t) = sum_a f_a a! g_a for every form g of degree p in e
    variables, where f = sum_a f_a x^a is lam's Schur polynomial in x.

    Closed form, no solve.  Write q(t) = g(1, t).  Newton's forward-difference
    expansion q(t) = sum_b (D^b q)(0) prod_i binom(t_i, b_i), with the Stirling
    numbers s(b, c) taking b! binom(t, b) to monomials, gives
    sum_a f_a a! g_a = sum_b u_b (D^b q)(0) with
    u_b = sum_c f_(p-|c|, c) (p-|c|)! c! prod_i s(b_i, c_i) / b!, and
    (D^b q)(0) = sum_(t <= b) (-1)^|b-t| prod_i binom(b_i, t_i) q(t).
    """
    p, m = lam.weight, e - 1
    xs = [_Poly({tuple(int(i == k) for i in range(e)): 1}) for k in range(e)]
    f = schur_elements(lam, xs, _Poly({(0,) * e: 1}))
    # Integers throughout: p!/b! is one, and the weights come out over p!.
    u: dict[tuple[int, ...], int] = {}
    for a, fa in f.items():
        c = a[1:]
        fa *= prod(map(factorial, a))
        for step in _simplex(m, p - sum(c)):
            b = tuple(map(add, c, step))
            term = fa * prod(map(_stirling1, b, c)) * (factorial(p) // prod(map(factorial, b)))
            u[b] = u.get(b, 0) + term
    w: dict[tuple[int, ...], int] = {}
    for b, ub in u.items():
        for t in product(*(range(x + 1) for x in b)):
            term = ub * prod(map(comb, b, t))
            w[t] = w.get(t, 0) + (-term if (sum(b) - sum(t)) & 1 else term)
    # Read-only: the cache hands the same mapping to every caller.
    return MappingProxyType({t: Fraction(x, factorial(p)) for t, x in w.items() if x})


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


def schur(lam, forms: Sequence[Form]) -> Form:
    """Schur polynomial of (1,1)-forms; a real form of bidegree (|lam|, |lam|).

    The pencil route when 2 <= |lam| <= d, binom(|lam| + e - 1, e - 1) <=
    4^(d-2) for e forms and exterior.pencil_power_sum accepts the forms,
    else the wedge route (see the module docstring); both give the same
    form.  The forms' strict positivity is the caller's to check."""
    lam = Partition(lam)
    d = _common_dimension(forms)
    if lam.largest > len(forms):
        warnings.warn(
            f"partition part {lam.largest} exceeds the number of forms "
            f"({len(forms)}); outside the guaranteed signature range",
            RuntimeWarning,
            stacklevel=2,
        )
    p, e = lam.weight, len(forms)
    if 2 <= p <= d and comb(p + e - 1, e - 1) <= 4 ** (d - 2):
        out = pencil_power_sum(forms, p, _lattice_weights(lam, e))
        if out is not None:
            return out
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
