"""Seeded random generators for exactly positive test data.

Strictly positive Hermitian matrices come from the construction B*B + I with
B drawn from a small Gaussian-integer box, so positivity holds by construction
and every draw is reproducible from its seed.  The Hermitian draws are built
over the Gaussian integers a HermitianMatrix stores, with no Gaussian-rational
step and no symmetry check: they are Hermitian by construction.  Task seeds
are derived by hashing, never by reusing a shared stream, so campaigns
parallelize without order dependence.
"""

from __future__ import annotations

import hashlib
import random

from .exterior import Form, HermitianMatrix, hermitian_to_form
from .gaussian import GaussianRational


def derive_seed(*parts) -> int:
    """Deterministic 64-bit seed from a tuple of hashable labels."""
    material = "|".join(repr(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")


def _gaussian_int(rng: random.Random, box: int) -> tuple[int, int]:
    """(re, im) drawn from the box, real part first."""
    return rng.randint(-box, box), rng.randint(-box, box)


def random_gaussian_rational(rng: random.Random, box: int = 2) -> GaussianRational:
    return GaussianRational(*_gaussian_int(rng, box))


def random_one_form(rng: random.Random, d: int, box: int = 2) -> Form:
    """A (1,0)-form with Gaussian-integer coefficients from the box."""
    out = Form.zero(d)
    for j in range(1, d + 1):
        c = random_gaussian_rational(rng, box)
        if c:
            out = out + Form.term(d, [j], [], c)
    return out


def random_hermitian(rng: random.Random, d: int, box: int = 2) -> HermitianMatrix:
    """A + A*, an arbitrary Hermitian matrix over the Gaussian-integer box."""
    a = [[_gaussian_int(rng, box) for _ in range(d)] for _ in range(d)]
    return HermitianMatrix._of(
        1, [[(a[j][k][0] + a[k][j][0], a[j][k][1] - a[k][j][1]) for k in range(d)] for j in range(d)]
    )


def random_positive_hermitian(rng: random.Random, d: int, box: int = 2) -> HermitianMatrix:
    """B*B + I: exactly positive definite by construction."""
    b = [[_gaussian_int(rng, box) for _ in range(d)] for _ in range(d)]
    rows = []
    for j in range(d):
        row = []
        for k in range(d):
            re, im = int(j == k), 0
            for bm in b:  # + conj(b[m][j]) * b[m][k]
                (xr, xi), (yr, yi) = bm[j], bm[k]
                re += xr * yr + xi * yi
                im += xr * yi - xi * yr
            row.append((re, im))
        rows.append(row)
    return HermitianMatrix._of(1, rows)


def random_positive_form(rng: random.Random, d: int, box: int = 2) -> Form:
    """A strictly positive real (1,1)-form, reproducible from the generator."""
    return hermitian_to_form(random_positive_hermitian(rng, d, box))
