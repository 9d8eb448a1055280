"""Exact scalars: Gaussian rationals a + b*sqrt(-1) and their scalar domains.

Every identity verified by this package is an equality in Q(sqrt(-1)) or in a
rational-function field over it, so the scalar layer is exact by construction:
no floats anywhere.

This lowest layer also holds the one text grammar of exact values,
`parse_expression`: `parse_gaussian` reads it over Q(sqrt(-1)),
`DifferentialField.parse` over a rational-function field and `parse_series`
over Laurent polynomials in t, so whatever one of them prints the others read.
It also holds IdentityFailed, which every layer raises when an identity it
certifies comes out false.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd


class NotASquare(ValueError):
    """The requested exact square root does not exist in Q(sqrt(-1))."""


class IdentityFailed(AssertionError):
    """An exact identity the construction certifies came out false; carries
    the witness."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


def fraction_sqrt(q: Fraction) -> Fraction:
    """Exact square root of a nonnegative rational, or NotASquare."""
    if q < 0:
        raise NotASquare(f"{q} is negative")
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        raise NotASquare(f"{q} is not a square in Q")
    return Fraction(rn, rd)


_new = object.__new__


def _make(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d from a triple that is already canonical."""
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduce(a: int, b: int, d: int) -> "GaussianRational":
    """(a + b*i)/d for d > 0, cancelled by the one gcd of the triple."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    return _make(a, b, d)


class GaussianRational:
    """Element (a + b*sqrt(-1))/d of Q(sqrt(-1)), stored as one integer triple.

    The triple is canonical (d > 0, gcd(a, b, d) = 1), so equality is equality
    of triples and each operation cancels with a single gcd.  Immutable and
    hashable; .re and .im are read-only Fraction views, and a real value
    hashes like the int or Fraction it equals.  conj() is the ring involution
    fixing Q and sending sqrt(-1) to -sqrt(-1).
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        if type(re) is int and type(im) is int:
            return _make(re, im, 1)
        re, im = _as_fraction(re), _as_fraction(im)
        dr, di = re.denominator, im.denominator
        d = dr * di // gcd(dr, di)
        return _make(re.numerator * (d // dr), im.numerator * (d // di), d)

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, int):
            return _make(int(x), 0, 1)
        if isinstance(x, Fraction):
            return _make(x.numerator, 0, x.denominator)
        raise TypeError(f"cannot coerce {x!r} to GaussianRational")

    def conj(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    @property
    def is_real(self) -> bool:
        return self._b == 0

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (self._b == 0 and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        if self._b == 0:
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __add__(self, other):
        a, b, d = self._a, self._b, self._d
        if isinstance(other, GaussianRational):
            a2, b2, d2 = other._a, other._b, other._d
            if not (a2 or b2):
                return self
            if not (a or b):
                return other
            if d == d2:
                return _reduce(a + a2, b + b2, d)
            return _reduce(a * d2 + a2 * d, b * d2 + b2 * d, d * d2)
        if isinstance(other, int):
            return _make(a + other * d, b, d) if other else self
        if isinstance(other, Fraction):
            n, q = other.numerator, other.denominator
            return _reduce(a * q + n * d, b * q, d * q)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            a2, b2, d2 = other._a, other._b, other._d
            if not (a2 or b2):
                return self
            a, b, d = self._a, self._b, self._d
            if d == d2:
                return _reduce(a - a2, b - b2, d)
            return _reduce(a * d2 - a2 * d, b * d2 - b2 * d, d * d2)
        if isinstance(other, (int, Fraction)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        a, b, d = self._a, self._b, self._d
        if isinstance(other, GaussianRational):
            if not (a or b):
                return self
            a2, b2 = other._a, other._b
            if not (a2 or b2):
                return other
            return _reduce(a * a2 - b * b2, a * b2 + b * a2, d * other._d)
        if isinstance(other, int):
            return _reduce(a * other, b * other, d) if other else ZERO
        if isinstance(other, Fraction):
            n = other.numerator
            return _reduce(a * n, b * n, d * other.denominator) if n else ZERO
        return NotImplemented

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """Field norm re^2 + im^2."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(-1))")
        return _reduce(a * d, -b * d, n)

    def __truediv__(self, other):
        a, b, d = self._a, self._b, self._d
        if isinstance(other, GaussianRational):
            a2, b2, d2 = other._a, other._b, other._d
            n = a2 * a2 + b2 * b2
            if n == 0:
                raise ZeroDivisionError("division by zero in Q(sqrt(-1))")
            # (a + bi)/d * d2 (a2 - b2 i)/n
            return _reduce((a * a2 + b * b2) * d2, (b * a2 - a * b2) * d2, d * n)
        if isinstance(other, (int, Fraction)):
            n, q = other.numerator, other.denominator
            if n == 0:
                raise ZeroDivisionError("division by zero in Q(sqrt(-1))")
            if n < 0:
                n, q = -n, -q
            return _reduce(a * q, b * q, d * n)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational.coerce(other) * self.inverse()
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sqrt(self) -> "GaussianRational":
        """Principal exact square root in Q(sqrt(-1)), or NotASquare.

        Branch: result has re > 0, or re == 0 and im >= 0.
        """
        if not self:
            return ZERO
        s = fraction_sqrt(self.norm())  # |z|, must be rational
        a = (self.re + s) / 2
        b = (s - self.re) / 2
        ra = fraction_sqrt(a)
        rb = fraction_sqrt(b)
        if self.im < 0:
            rb = -rb
        w = GaussianRational(ra, rb)
        if w * w != self:
            raise IdentityFailed(f"square root certification failed: ({w})^2 != {self}")
        return w

    def __str__(self):
        real, imag = self.re, self.im
        if imag == 0:
            return str(real)
        if real == 0:
            if imag == 1:
                return "i"
            if imag == -1:
                return "-i"
            if imag.denominator == 1:
                return f"{imag}i"
            return f"({imag})i" if imag > 0 else f"-({-imag})i"
        sign = "+" if imag > 0 else "-"
        mag = abs(imag)
        istr = "i" if mag == 1 else (f"{mag}i" if mag.denominator == 1 else f"({mag})i")
        return f"{real}{sign}{istr}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


# _make fills the slots through their descriptors, past the __setattr__ guard
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)

_TOKEN = re.compile(
    r"(?P<number>[0-9]+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<power>\^\s*[-+]?[0-9]+)|(?P<op>\S)"
)


def parse_expression(text: str, number, name):
    """Read text in the one grammar of exact values, computing with the values
    that number(int) and name(str) give its atoms (name returns None for a
    name it does not know):

        sum     := product {(+|-) product}
        product := factor {[* | /] factor}     no operator: juxtaposition
        factor  := (+|-) factor | atom [^[+|-]integer]
        atom    := integer | name | ( sum )

    The numerals are integers, so '/' is always the operator, and '*', '/'
    and juxtaposition share one precedence, read left to right: 'x/2/3' is
    x/6, '(1/2)i*x' is (1/2)*i*x and '1/2i' is i/2.  Malformed text raises
    ValueError.
    """
    tokens = [(m.lastgroup, m.group()) for m in _TOKEN.finditer(text)] + [("end", "")]
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def fail(what):
        tok = tokens[pos - 1][1]
        raise ValueError(f"{what} at {repr(tok) if tok else 'the end'} in {text!r}")

    def read_sum():
        value = read_product()
        while tokens[pos][1] in ("+", "-"):
            value = value + read_product() if take()[1] == "+" else value - read_product()
        return value

    def read_product():
        value = read_factor()
        while True:
            kind, tok = tokens[pos]
            if tok in ("*", "/"):
                take()
                value = value * read_factor() if tok == "*" else value / read_factor()
            elif kind in ("number", "name") or tok == "(":
                value = value * read_factor()
            else:
                return value

    def read_factor():
        if tokens[pos][1] in ("+", "-"):
            return -read_factor() if take()[1] == "-" else read_factor()
        kind, tok = take()
        if kind == "number":
            value = number(int(tok))
        elif kind == "name":
            value = name(tok)
            if value is None:
                fail("unknown name")
        elif tok == "(":
            value = read_sum()
            if take()[1] != ")":
                fail("expected ')'")
        else:
            fail("expected a number, a name or '('")
        return value ** int(take()[1][1:]) if tokens[pos][0] == "power" else value

    value = read_sum()
    if tokens[pos][0] != "end":
        take()
        fail("unexpected token")
    return value


def parse_gaussian(text: str) -> GaussianRational:
    """Parse scalars like '3', '-1/2', 'i', '2i', '(1/2)i', '1+2i', '(1-i)/2'."""
    return parse_expression(text, GaussianRational, {"i": I, "I": I}.get)


def conj(x):
    """Conjugation on anything exposing .conj(); rationals are fixed points."""
    if isinstance(x, (int, Fraction)):
        return x
    return x.conj()


class ScalarDomain:
    """The domain of a matrix's entries: its zero, its one, and conversion into it.

    Domains are ordered by rank, and an operation on operands from two domains
    works in the larger one.  The built-in domains are Q and Q(sqrt(-1)); a
    DifferentialField is the domain of its rational functions.
    """

    __slots__ = ("name", "rank", "zero", "one", "convert")

    def __init__(self, name: str, rank: int, zero, one, convert):
        self.name = name
        self.rank = rank
        self.zero = zero
        self.one = one
        self.convert = convert

    def __repr__(self):
        return self.name


QQ = ScalarDomain("QQ", 0, Fraction(0), Fraction(1), _as_fraction)
QQ_I = ScalarDomain("QQ_I", 1, ZERO, ONE, GaussianRational.coerce)
