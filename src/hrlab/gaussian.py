"""Gaussian rationals: complex numbers with exact rational real and imaginary parts.

The edge type of the package: public constructors take it and views return
it, while the library computes over (Gaussian) integers over one denominator.
Every operation is exact, so signatures are proofs rather than estimates.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

RationalLike = (int, Fraction)

_PLAIN_RATIO = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def fraction_to_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _ratio_from_str(s) -> tuple[int, int]:
    """(numerator, denominator > 0) in lowest terms for what fraction_from_str
    accepts, with its errors.  The spellings to_json writes, "p/q" and
    integers in ASCII digits, are read by int() alone; every other string goes
    through Fraction(s), so the accepted spellings are Fraction's."""
    if isinstance(s, str):
        if "e" in s or "E" in s:
            raise ValueError(f"exponent notation in {s!r}; write p/q or a decimal")
        plain = _PLAIN_RATIO.fullmatch(s)
        if plain is None:
            try:
                return Fraction(s).as_integer_ratio()
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {s!r}") from None
        num, den = plain.groups()
        p, q = int(num), int(den or "1")
        if not q:
            raise ValueError(f"zero denominator in {s!r}")
        g = gcd(p, q)
        return p // g, q // g
    if isinstance(s, int) and not isinstance(s, bool):
        return s, 1
    raise TypeError(f"expected a rational string or an int, got {type(s).__name__}")


def fraction_from_str(s) -> Fraction:
    """The rational a JSON field holds, a string such as "-3/7" or "0.1" or an
    int.  ValueError on a malformed string, a zero denominator or exponent
    notation, whose value ("1e1000000000") can take unbounded time and memory
    to build; TypeError on any other type, so a float or a bool is never read
    as a rational."""
    return Fraction(*_ratio_from_str(s))


class GaussianRational:
    """re + im*i with Fraction components.  Immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @staticmethod
    def of(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, RationalLike):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __add__(self, other):
        if isinstance(other, RationalLike):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, RationalLike):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        if isinstance(other, RationalLike):
            return GaussianRational(other).__sub__(self)
        return NotImplemented

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, RationalLike):
            return GaussianRational(self.re * other, self.im * other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RationalLike):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return self * GaussianRational(other.re / norm, -other.im / norm)

    def __rtruediv__(self, other):
        if isinstance(other, RationalLike):
            return GaussianRational(other).__truediv__(self)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (GaussianRational(1) / self) ** (-k)
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, RationalLike):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # Equal values hash equally: a real one hashes like its Fraction.
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"

    def to_json(self) -> dict:
        return {"re": fraction_to_str(self.re), "im": fraction_to_str(self.im)}

    @staticmethod
    def from_json(obj: dict) -> "GaussianRational":
        return GaussianRational(fraction_from_str(obj["re"]), fraction_from_str(obj["im"]))


I = GaussianRational(0, 1)
