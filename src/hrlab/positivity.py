"""Positivity tests for forms, at the levels where they are exactly decidable.

Strict positivity of a (1,1)-form reduces to positive definiteness of its
Hermitian matrix, decided by Sylvester's criterion on the Gaussian integers
the HermitianMatrix stores, whose symmetry was checked when it was built:
the pivots of fraction-free forward elimination are the leading principal
minors, and it refuses the matrix at the first that is not positive; the
backward half of exterior._adjugate's Gauss-Jordan is not needed for a
verdict.  The layers that receive forms (the CLI's forms file,
AugmentedSpace) run this test once per form; Schur evaluation does not.
Positivity of a real (p,p)-form is decided by the exact inertia of the
induced Hermitian pairing on the complementary space of holomorphic top
fragments, whose matrix exterior.top_pairings reads off the form's
coefficients as Gaussian integers over one denominator, a positive scale that
changes neither the inertia nor the witness and is dropped; the volume unit
1 or i is an int rotation of the rows.  That inertia runs the integer kernel
of `bilinear` on the real form of the Hermitian matrix M; a refutation
rebuilds the real basis vector (x, y) of the first negative pivot and takes
v = x + iy, for which v^H M v < 0, as its witness.  Weak positivity
is dual to the simple-form cone and only gets a sampling falsifier: a
refutation carries a witness, absence of one proves nothing, and the verdict
name says so.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .bilinear import _hermitian_reduction
from .exterior import (
    Form,
    HermitianMatrix,
    conjugate,
    top_pairings,
    top_ratio,
    wedge,
)
from .gaussian import I
from .sampling import derive_seed, random_one_form

POSITIVE = "POSITIVE"
STRICTLY_POSITIVE = "STRICTLY_POSITIVE"
NOT_POSITIVE = "NOT_POSITIVE"
WEAKLY_POSITIVE_UNFALSIFIED = "WEAKLY_POSITIVE_UNFALSIFIED"
WEAKLY_POSITIVE_FALSIFIED = "WEAKLY_POSITIVE_FALSIFIED"


@dataclass(frozen=True)
class ConeVerdict:
    cone: str
    witness: Optional[Form] = None

    def __post_init__(self):
        if self.cone in (NOT_POSITIVE, WEAKLY_POSITIVE_FALSIFIED) and self.witness is None:
            raise ValueError(f"{self.cone} verdicts must carry a witness")

    def to_json(self) -> dict:
        return {
            "cone": self.cone,
            "witness": self.witness.to_json() if self.witness is not None else None,
        }


def is_positive_definite_11(H: HermitianMatrix) -> bool:
    """Exact positive definiteness: every leading principal minor is positive."""
    re, im = [[z[0] for z in row] for row in H._rows], [[z[1] for z in row] for row in H._rows]
    return _leading_minors_positive(re, im)


def _leading_minors_positive(re: list[list[int]], im: list[list[int]]) -> bool:
    """Whether every leading principal minor of the Hermitian matrix
    M = re + i*im of Gaussian integers is positive, overwriting re and im.

    Fraction-free forward elimination without row exchanges: after k steps
    the entries right of and below pivot k are (k+1)-minors of M, and pivot
    k is the (k+1)-th leading principal minor, so the sweep stops at the
    first that is not positive.  The division of each component by the
    previous pivot is exact.
    """
    d = len(re)
    prev = 1
    for k in range(d):
        p = re[k][k]
        if p <= 0:
            return False
        rk, ik = re[k][k + 1 :], im[k][k + 1 :]
        for i in range(k + 1, d):
            ri, ii = re[i], im[i]
            fr, fi = ri[k], ii[k]
            ri[k + 1 :], ii[k + 1 :] = (
                [(p * a - fr * c + fi * s) // prev for a, c, s in zip(ri[k + 1 :], rk, ik)],
                [(p * b - fr * s - fi * c) // prev for b, c, s in zip(ii[k + 1 :], rk, ik)],
            )
        prev = p
    return True


def is_positive_pp(eta: Form) -> ConeVerdict:
    """Decide membership of a real (p,p)-form in the positive cone.

    The pairing sends a holomorphic (d-p)-fragment b to the top ratio of
    eta ^ i^((d-p)^2) b ^ conj(b); eta is positive exactly when the induced
    Hermitian matrix over the canonical fragment basis is positive
    semidefinite, and strictly positive when definite.  The matrix is read
    off eta's coefficients by exterior.top_pairings, with no wedge.
    """
    d = eta.d
    deg = eta.homogeneous_bidegree()
    if eta.is_zero():
        return ConeVerdict(POSITIVE)
    if deg is None or deg[0] != deg[1]:
        raise ValueError("expected a homogeneous (p,p)-form")
    p = deg[0]
    if not eta.is_real():
        raise ValueError("expected a real form")
    q = d - p
    subsets = list(combinations(range(1, d + 1), q))
    # eta has even degree, so eta ^ dz_S ^ dzb_T = dz_S ^ eta ^ dzb_T.
    pairings, _ = top_pairings(
        [Form.term(d, S, []) for S in subsets], eta, [Form.term(d, [], T) for T in subsets]
    )
    if q & 1:  # the unit i**(q*q) is i: (re, im) * i = (-im, re)
        pairings = [[(-im, re) for re, im in row] for row in pairings]
    inertia, vec = _hermitian_reduction(pairings)
    if vec is not None:
        witness = Form(d, {})
        for coeff, S in zip(vec, subsets):
            if coeff:
                witness = witness + Form.term(d, S, [], coeff.conjugate())
        return ConeVerdict(NOT_POSITIVE, witness)
    if inertia.n_zero == 0:
        return ConeVerdict(STRICTLY_POSITIVE)
    return ConeVerdict(POSITIVE)


def simple_form(alphas: Sequence[Form]) -> Form:
    """The product of i*a^conj(a) over the given (1,0)-forms."""
    if not alphas:
        raise ValueError("need at least one (1,0)-form")
    d = alphas[0].d
    if len(alphas) > d:
        raise ValueError("more factors than the dimension allows")
    out = Form.scalar(d, 1)
    for a in alphas:
        if a.d != d:
            raise ValueError("mixed dimensions")
        if not a.is_homogeneous(1, 0):
            raise ValueError("factors must be (1,0)-forms")
        out = wedge(out, wedge(a, conjugate(a)).scale(I))
    return out


def falsify_weak_positivity(eta: Form, trials: int, seed: int) -> ConeVerdict:
    """Search for a simple form of complementary degree pairing negatively.

    Returns FALSIFIED with the witness on success.  UNFALSIFIED is explicitly
    not a membership proof; it only reports that the sampled dual directions
    all paired non-negatively.
    """
    d = eta.d
    deg = eta.homogeneous_bidegree()
    if not eta.is_zero():
        if deg is None or deg[0] != deg[1]:
            raise ValueError("expected a homogeneous (p,p)-form")
        if not eta.is_real():
            raise ValueError("expected a real form")
        p = deg[0]
    else:
        p = 0
    q = d - p
    for trial in range(trials):
        rng = random.Random(derive_seed(seed, "weak-positivity", trial))
        if q == 0:
            gamma = Form.scalar(d, 1)
        else:
            gamma = simple_form([random_one_form(rng, d) for _ in range(q)])
        if top_ratio(wedge(eta, gamma)) < 0:
            return ConeVerdict(WEAKLY_POSITIVE_FALSIFIED, gamma)
    return ConeVerdict(WEAKLY_POSITIVE_UNFALSIFIED)
