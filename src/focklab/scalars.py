"""Exact scalars: Gaussian rationals a + b*sqrt(-1) and formal pi-tagged multiples.

Every identity verified by this package is an equality in Q(sqrt(-1)) or in a
rational-function field over it, so the scalar layer is exact by construction:
no floats anywhere.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


class NotASquare(ValueError):
    """The requested exact square root does not exist in Q(sqrt(-1))."""


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


class GaussianRational:
    """Element re + im*sqrt(-1) of Q(sqrt(-1)), stored in lowest terms.

    Immutable and hashable.  conj() is the ring involution fixing Q and
    sending sqrt(-1) to -sqrt(-1).
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, *a):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        raise TypeError(f"cannot coerce {x!r} to GaussianRational")

    def conj(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """Field norm re^2 + im^2."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(-1))")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except TypeError:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

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
            raise AssertionError(f"square root certification failed: ({w})^2 != {self}")
        return w

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            if self.im.denominator == 1:
                return f"{self.im}i"
            return f"({self.im})i" if self.im > 0 else f"-({-self.im})i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        istr = "i" if mag == 1 else (f"{mag}i" if mag.denominator == 1 else f"({mag})i")
        return f"{self.re}{sign}{istr}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)

_SCALAR_TOKEN = re.compile(r"^\(?\s*(?P<body>[^()]*)\s*\)?(?:/(?P<den>\d+))?$")


def parse_gaussian(text: str) -> GaussianRational:
    """Parse scalars like '3', '-1/2', 'i', '2i', '(1/2)i', '1+2i', '(1-i)/2'."""
    text = text.strip().replace(" ", "")
    m = re.match(r"^(-?)\((-?\d+(?:/\d+)?)\)[iI]$", text)
    if m:
        sign = -1 if m.group(1) else 1
        return GaussianRational(0, sign * Fraction(m.group(2)))
    m = _SCALAR_TOKEN.match(text)
    if m:
        body, den = m.group("body"), m.group("den")
        value = _parse_sum(body)
        if den:
            value = value / int(den)
        return value
    return _parse_sum(text)


def _parse_sum(body: str) -> GaussianRational:
    # split on +/- not inside parentheses
    parts = []
    depth, cur = 0, ""
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and cur and not cur.endswith("/"):
            parts.append(cur)
            cur = "-" if ch == "-" else ""
            continue
        cur += ch
    if cur:
        parts.append(cur)
    if not parts:
        raise ValueError("empty scalar literal")
    total = GaussianRational(0)
    for part in parts:
        sign = 1
        if part.startswith("+"):
            part = part[1:]
        elif part.startswith("-"):
            sign = -1
            part = part[1:]
        if part in ("i", "I"):
            total = total + GaussianRational(0, sign)
        elif part.endswith(("i", "I")):
            core = part[:-1].rstrip("*")
            if core.startswith("(") and core.endswith(")"):
                core = core[1:-1]
            total = total + GaussianRational(0, sign * Fraction(core))
        else:
            if part.startswith("(") and part.endswith(")"):
                part = part[1:-1]
            total = total + GaussianRational(sign * Fraction(part))
    return total


def conj(x):
    """Conjugation on anything exposing .conj(); rationals are fixed points."""
    if isinstance(x, (int, Fraction)):
        return x
    return x.conj()


class PiScaled:
    """A scalar times an integer power of pi, never numerically expanded.

    Used for the residue-to-intersection bridge (-2*pi*sqrt(-1) * residue
    pairing) and related normalizations; pi stays a formal tag.
    """

    __slots__ = ("coeff", "pi_power")

    def __init__(self, coeff, pi_power: int = 0):
        object.__setattr__(self, "coeff", GaussianRational.coerce(coeff))
        object.__setattr__(self, "pi_power", pi_power if coeff else 0)

    def __setattr__(self, *a):
        raise AttributeError("PiScaled is immutable")

    @staticmethod
    def coerce(x) -> "PiScaled":
        if isinstance(x, PiScaled):
            return x
        return PiScaled(GaussianRational.coerce(x))

    def __bool__(self):
        return bool(self.coeff)

    def __eq__(self, other):
        try:
            other = PiScaled.coerce(other)
        except TypeError:
            return NotImplemented
        if not self.coeff and not other.coeff:
            return True
        return self.coeff == other.coeff and self.pi_power == other.pi_power

    def __hash__(self):
        return hash((self.coeff, self.pi_power))

    def __mul__(self, other):
        other = PiScaled.coerce(other)
        return PiScaled(self.coeff * other.coeff, self.pi_power + other.pi_power)

    __rmul__ = __mul__

    def __neg__(self):
        return PiScaled(-self.coeff, self.pi_power)

    def __add__(self, other):
        other = PiScaled.coerce(other)
        if not other.coeff:
            return self
        if not self.coeff:
            return other
        if self.pi_power != other.pi_power:
            raise ValueError("cannot add formal pi-multiples of different pi powers")
        return PiScaled(self.coeff + other.coeff, self.pi_power)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-PiScaled.coerce(other))

    def __rsub__(self, other):
        return PiScaled.coerce(other) + (-self)

    def conj(self):
        return PiScaled(self.coeff.conj(), self.pi_power)

    def __str__(self):
        if self.pi_power == 0:
            return str(self.coeff)
        ppart = "pi" if self.pi_power == 1 else f"pi^{self.pi_power}"
        return f"({self.coeff})*{ppart}"

    __repr__ = __str__


# The declared bridge between the residue pairing and the topological
# intersection pairing: intersection = (-2*pi*sqrt(-1)) * residue.
INTERSECTION_BRIDGE = PiScaled(GaussianRational(0, -2), 1)

# Prefactor of the residue operator realizing the connection on covariants.
WZW_PREFACTOR = PiScaled(GaussianRational(0, 1), 1)
