from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hrlab.gaussian import GaussianRational, I, _ratio_from_str, fraction_from_str, fraction_to_str

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_basic_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(Fraction(3, 4), -1)
    assert a + b == GaussianRational(Fraction(7, 4), 1)
    assert a - b == GaussianRational(Fraction(1, 4), 3)
    assert a * b == GaussianRational(Fraction(3, 4) + 2, Fraction(3, 2) - 1)
    assert I * I == GaussianRational(-1)
    assert I ** 4 == 1
    assert (a / b) * b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_scalar_interop():
    a = GaussianRational(1, 1)
    assert a + 1 == GaussianRational(2, 1)
    assert 2 * a == GaussianRational(2, 2)
    assert a * Fraction(1, 2) == GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert 1 - a == GaussianRational(0, -1)
    assert 2 / GaussianRational(1, 1) == GaussianRational(1, -1)


@given(gaussians)
def test_conjugation_involution(z):
    assert z.conjugate().conjugate() == z
    assert (z * z.conjugate()).is_real()


@given(gaussians, gaussians)
def test_conjugation_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(gaussians)
def test_json_round_trip(z):
    assert GaussianRational.from_json(z.to_json()) == z


def test_fraction_strings():
    assert fraction_to_str(Fraction(-3, 7)) == "-3/7"
    assert fraction_from_str("-3/7") == Fraction(-3, 7)
    assert fraction_from_str("5") == Fraction(5)
    assert fraction_from_str(-4) == Fraction(-4)
    with pytest.raises(ValueError, match="zero denominator"):
        fraction_from_str("1/0")
    with pytest.raises(ValueError):
        fraction_from_str("1/x")
    # Decimals are exact and stay; an exponent could ask for a numerator of
    # unbounded size, so it is refused before Fraction sees it.
    assert fraction_from_str("0.1") == Fraction(1, 10)
    assert fraction_from_str("-2.50") == Fraction(-5, 2)
    for bad in ("1e1000000000", "1E5", "2.5e-3", "1/1e3", "-e"):
        with pytest.raises(ValueError, match="exponent notation"):
            fraction_from_str(bad)
    # A float is inexact and a bool is no number: neither is read as a rational.
    for bad in (0.1, 1.0, True, None, Fraction(1, 2)):
        with pytest.raises(TypeError):
            fraction_from_str(bad)


def test_fraction_strings_read_as_fraction_reads_them():
    # "p/q" and integers in ASCII digits are read by int() alone; every other
    # spelling goes through Fraction, with the same values and errors.
    spellings = [
        "３/7", "+3/7", " 3/7 ", "3_0/7", "-0/5", "0.25", "6/4", "-12", "007/3", "-0", "3/-7",
        "1/x", "/3", "3/", "-", "", "1//2", "1/0", "0/0", " 1/0", "1" * 5000 + "/7", "7/" + "1" * 5000,
    ]
    for s in spellings:
        try:
            want = Fraction(s)
        except ZeroDivisionError:
            with pytest.raises(ValueError, match="zero denominator"):
                fraction_from_str(s)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                fraction_from_str(s)
            assert str(got.value) == str(exc)
        else:
            assert fraction_from_str(s) == want
            assert _ratio_from_str(s) == want.as_integer_ratio()


def test_immutability_and_hash():
    z = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(0)
    assert hash(GaussianRational(1, 2)) == hash(z)
    assert bool(GaussianRational(0, 0)) is False
    assert bool(GaussianRational(0, 1)) is True


@given(rationals)
def test_hash_agrees_with_equality_on_reals(x):
    # A real value equals its Fraction (and int), so it must hash like one.
    z = GaussianRational(x)
    assert z == x and hash(z) == hash(x)
    assert x in {z} and z in {x}
    assert GaussianRational(3) in {3} and 3 in {GaussianRational(3)}
