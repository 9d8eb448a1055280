from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from focklab.scalars import (
    GaussianRational,
    I,
    NotASquare,
    conj,
    fraction_sqrt,
    parse_gaussian,
)

rationals = st.builds(
    Fraction, st.integers(-50, 50), st.integers(1, 20)
)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_basic_arithmetic():
    z = GaussianRational(2, 3)
    w = GaussianRational(1, -1)
    assert z + w == GaussianRational(3, 2)
    assert z * w == GaussianRational(5, 1)
    assert z - z == 0
    assert (z / w) * w == z
    assert 1 / I == -I
    assert I * I == -1


def test_conj_definition():
    assert conj(GaussianRational(2, 3)) == GaussianRational(2, -3)
    assert conj(Fraction(5, 7)) == Fraction(5, 7)
    assert conj(GaussianRational(Fraction(5, 7))) == GaussianRational(Fraction(5, 7))


def test_conj_multiplicative_example():
    z = GaussianRational(1, 1)
    w = GaussianRational(2, -1)
    assert conj(z * w) == conj(z) * conj(w)
    assert z * w == GaussianRational(3, 1)


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gaussians, gaussians)
def test_conj_is_ring_involution(a, b):
    assert conj(conj(a)) == a
    assert conj(a + b) == conj(a) + conj(b)
    assert conj(a * b) == conj(a) * conj(b)


@given(gaussians)
def test_inverse(a):
    if a:
        assert a * a.inverse() == 1


def test_sqrt():
    assert GaussianRational(Fraction(9, 4)).sqrt() == GaussianRational(Fraction(3, 2))
    assert GaussianRational(0, 2).sqrt() == GaussianRational(1, 1)  # (1+i)^2 = 2i
    assert GaussianRational(-4).sqrt() == GaussianRational(0, 2)
    with pytest.raises(NotASquare):
        GaussianRational(2).sqrt()
    with pytest.raises(NotASquare):
        I.sqrt()  # sqrt(i) needs sqrt(2)
    with pytest.raises(NotASquare):
        fraction_sqrt(Fraction(-1))


def test_parse():
    assert parse_gaussian("3") == GaussianRational(3)
    assert parse_gaussian("-1/2") == GaussianRational(Fraction(-1, 2))
    assert parse_gaussian("i") == I
    assert parse_gaussian("1+2i") == GaussianRational(1, 2)
    assert parse_gaussian("(1-i)/2") == GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    assert parse_gaussian("2i") == GaussianRational(0, 2)


def test_str_roundtrip():
    for z in [GaussianRational(1, 2), GaussianRational(0, -1), GaussianRational(Fraction(1, 3))]:
        assert parse_gaussian(str(z)) == z


def test_a_failed_square_root_certificate_is_identity_failed(monkeypatch):
    """sqrt certifies w * w == z; a wrong rational root fails that as
    IdentityFailed, an AssertionError that python -O keeps."""
    from focklab import scalars

    monkeypatch.setattr(scalars, "fraction_sqrt", lambda q: Fraction(1))
    with pytest.raises(scalars.IdentityFailed, match="square root certification failed"):
        GaussianRational(4).sqrt()
    assert issubclass(scalars.IdentityFailed, AssertionError)
