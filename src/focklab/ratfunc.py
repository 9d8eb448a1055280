"""Rational-function differential fields in named real parameters.

Elements are quotients of sparse multivariate Laurent polynomials over
Q(sqrt(-1)); Polynomial is a SparseVector (sparse.py) keyed by exponent
vectors.  The parameters are treated as real: conjugation fixes them and
conjugates coefficients.  There is no general multivariate gcd.

Normal form (what `_normalize` computes): the numerator is a Laurent
polynomial, whose exponents may be negative; the denominator is the field's
shared 1, or a lex-monic polynomial with no monomial factor that lex long
division found not to divide the numerator.  A monomial denominator is never
stored: it is a negative exponent of the numerator.  The polarized
families' denominators are monomials in the imaginary parts, so all their
values are Laurent polynomials over 1.  Equality never needs a gcd: equal
denominators compare numerators, others cross multiply.  The hash is built
from the lex lead exponent and lead coefficient ratio of numerator over
denominator, which a common factor cannot change (lex is a monomial order),
so equal values hash equally.  A binary operation first tests for a value
of the very same field object; only then does it try a scalar, or convert
a value of an equal field built separately (another field is a ValueError).

Some results skip `_normalize`.  Already normal: negation; conjugation, a
ring automorphism that keeps every exponent, every exact division and the
denominator's lead coefficient 1; scaling by a nonzero constant; adding
zero; a product with a zero factor; the constants and variables of a field.
Over denominators 1 the Laurent ring is a domain whose dict form is
canonical, so a product, a sum and a derivative are its ring operations: a
sum adds one numerator's terms into a copy of the other's, and a one-term
factor shifts the other's terms (Polynomial.__mul__).
tests/test_ratfunc.py checks that every operation returns a fixed point of
`_normalize`.

The text format is the grammar of `scalars.parse_expression`.  `str` writes
num/den with the numerator's negative exponents moved into the denominator,
parenthesises a sum or a product of several factors, and
`DifferentialField.parse` reads what it writes back to an equal value.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, sub

from .scalars import ONE, ZERO, GaussianRational, parse_expression
from .sparse import SparseVector, add_term

_SCALARS = (int, Fraction, GaussianRational)
_new = object.__new__


class DifferentialField:
    """A field Q(sqrt(-1))(p_1, ..., p_n) with declared real parameter names.

    It is also the scalar domain of matrices over it: it ranks above the
    constant domains and supplies zero, one and convert.
    """

    rank = 2

    def __init__(self, params):
        params = tuple(params)
        if len(set(params)) != len(params):
            raise ValueError("duplicate parameter names")
        self.params = params
        self.nvars = len(params)
        self._zero_exp = (0,) * self.nvars
        # the denominator of every value whose denominator is 1
        self._one = _poly(self, {self._zero_exp: ONE})
        self.zero = _normal(self, _poly(self, {}), self._one)
        self.one = self.const(ONE)
        self.i = self.const(GaussianRational(0, 1))

    def var(self, name: str) -> "RationalFunction":
        k = self.params.index(name)
        exp = tuple(1 if j == k else 0 for j in range(self.nvars))
        return _normal(self, _poly(self, {exp: ONE}), self._one)

    def const(self, c) -> "RationalFunction":
        c = GaussianRational.coerce(c)
        num = _poly(self, {self._zero_exp: c} if c else {})
        return _normal(self, num, self._one)

    def convert(self, x) -> "RationalFunction":
        if isinstance(x, RationalFunction):
            if x.field != self:
                raise ValueError("mixing different differential fields")
            return x
        return self.const(x) if x else self.zero

    def parse(self, text: str) -> "RationalFunction":
        """Read text in the grammar of scalars.parse_expression: the names
        are the parameters and i (or I), the imaginary unit."""
        return parse_expression(
            text, self.const, lambda n: self.i if n in ("i", "I") else self.var(n) if n in self.params else None
        )

    def __eq__(self, other):
        return isinstance(other, DifferentialField) and self.params == other.params

    def __hash__(self):
        return hash(self.params)

    def __repr__(self):
        return f"DifferentialField(params={self.params})"


class Polynomial(SparseVector):
    """Sparse multivariate Laurent polynomial: exponent tuple ->
    GaussianRational."""

    __slots__ = ("field",)

    def __init__(self, field: DifferentialField, terms: dict):
        self.field = field
        self.terms = {e: c for e, c in terms.items() if c}

    def _like(self, terms: dict):
        return _poly(self.field, terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __mul__(self, other):
        """By a constant, or by a polynomial.  A one-term factor c*x^e sends
        each term c2*x^e2 of the other to (c*c2)*x^(e+e2): the exponents stay
        distinct and Q(sqrt(-1)) is a domain, so only longer ones convolve."""
        if isinstance(other, GaussianRational):
            return self.scale(other)
        a, b = self.terms, other.terms
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            ((e1, c1),) = a.items()
            return _poly(self.field, {tuple(map(add, e1, e2)): c1 * c2 for e2, c2 in b.items()})
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                add_term(out, tuple(map(add, e1, e2)), c1 * c2)
        return _poly(self.field, out)

    def conj(self):
        return _poly(self.field, {e: c.conj() for e, c in self.terms.items()})

    def derivative(self, k: int) -> "Polynomial":
        out: dict = {}
        for e, c in self.terms.items():
            if e[k] == 0:
                continue
            e2 = tuple(v - 1 if j == k else v for j, v in enumerate(e))
            add_term(out, e2, c * e[k])
        return _poly(self.field, out)

    def evaluate(self, point: dict) -> GaussianRational:
        vals = [GaussianRational.coerce(point[p]) for p in self.field.params]
        total = ZERO
        for e, c in self.terms.items():
            term = c
            for v, p in zip(vals, e):
                if p:
                    term = term * v**p
            total = total + term
        return total

    def _lead(self):
        # lex-largest exponent
        e = max(self.terms)
        return e, self.terms[e]

    def divide_exact(self, divisor: "Polynomial"):
        """Return self/divisor if the division is exact (lex long division),
        else None.  Both have no negative exponent: over Laurent polynomials
        lex division need not end (1/(x + 1))."""
        if not divisor:
            raise ZeroDivisionError("polynomial division by zero")
        # the remainder is updated in place; its lead falls at every step
        rem, (de, dc), quot = dict(self.terms), divisor._lead(), {}
        while rem:
            e = max(rem)
            qe = tuple(map(sub, e, de))
            if any(v < 0 for v in qe):
                return None
            qc = quot[qe] = rem[e] / dc
            qc = -qc
            for e2, c2 in divisor.terms.items():
                add_term(rem, tuple(map(add, qe, e2)), qc * c2)
        return _poly(self.field, quot)

    def _text(self, e) -> str:
        return "*".join(n if p == 1 else f"{n}^{p}" for n, p in zip(self.field.params, e) if p) or "1"

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items(), reverse=True):
            cs = str(c)
            cs = f"({cs})" if ("+" in cs[1:] or "-" in cs[1:]) else cs
            if not any(e):
                bits.append(cs)
            elif cs in ("1", "-1"):
                bits.append(cs[:-1] + self._text(e))
            else:
                bits.append(f"{cs}*{self._text(e)}")
        out = bits[0]
        for b in bits[1:]:
            out += f" + {b}" if not b.startswith("-") else f" - {b[1:]}"
        return out


class RationalFunction:
    """Quotient of polynomials over Q(sqrt(-1)) in declared real parameters."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num: Polynomial, den: Polynomial):
        if not den:
            raise ZeroDivisionError("zero denominator")
        num, den = _normalize(num, den)
        self.field = field
        self.num = num
        self.den = den

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other):
        """other as a value of this field, or None for a foreign type."""
        return self.field.convert(other) if isinstance(other, (RationalFunction, *_SCALARS)) else None

    def _scale(self, c):
        """self * c for a constant c of Q(sqrt(-1)): only the numerator moves,
        and not at all for c = 1 (values are immutable)."""
        if not c:
            return self.field.zero
        if c == 1:
            return self
        return _normal(self.field, self.num * GaussianRational.coerce(c), self.den)

    # -- ring/field ops ----------------------------------------------------

    def __bool__(self):
        return bool(self.num.terms)

    def __eq__(self, other):
        if type(other) is not RationalFunction or other.field is not self.field:
            if (other := self._coerce(other)) is None:
                return NotImplemented
        if self.den.terms == other.den.terms:
            return self.num.terms == other.num.terms
        return not (self.num * other.den - other.num * self.den)

    def __hash__(self):
        # lead(p h) = lead(p) lead(h) in the lex order, so the lead exponent
        # and lead coefficient of num over den do not see a common factor h
        if not self.num:
            return hash(ZERO)
        ne, nc = self.num._lead()
        de, dc = self.den._lead()
        ratio = nc / dc
        shift = tuple(map(sub, ne, de))
        return hash((shift, ratio)) if any(shift) else hash(ratio)

    def __add__(self, other):
        if type(other) is not RationalFunction or other.field is not self.field:
            if isinstance(other, _SCALARS) and not other:
                return self
            if (other := self._coerce(other)) is None:
                return NotImplemented
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other
        if self.den is other.den is self.field._one:
            terms = dict(self.num.terms)
            for e, c in other.num.terms.items():
                add_term(terms, e, c)
            return _normal(self.field, _poly(self.field, terms), self.den)
        if self.den == other.den:
            return RationalFunction(self.field, self.num + other.num, self.den)
        return RationalFunction(self.field, self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return _normal(self.field, -self.num, self.den)

    def __sub__(self, other):
        if type(other) is not RationalFunction or other.field is not self.field:
            if (other := self._coerce(other)) is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not RationalFunction or other.field is not self.field:
            if isinstance(other, _SCALARS):
                return self._scale(other)
            if (other := self._coerce(other)) is None:
                return NotImplemented
        if not (self.num.terms and other.num.terms):
            return self.field.zero
        if self.den is other.den is self.field._one:
            return _normal(self.field, self.num * other.num, self.den)
        return RationalFunction(self.field, self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not RationalFunction or other.field is not self.field:
            if (other := self._coerce(other)) is None:
                return NotImplemented
        if not other.num.terms:
            raise ZeroDivisionError("division by zero rational function")
        if self.den is other.den is self.field._one:
            return RationalFunction(self.field, self.num, other.num)
        return RationalFunction(self.field, self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return NotImplemented if (other := self._coerce(other)) is None else other / self

    def __pow__(self, n: int):
        if n < 0:
            return (self.field.one / self) ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- differential/involution structure ---------------------------------

    def conj(self):
        den = self.den
        return _normal(self.field, self.num.conj(), den if den is self.field._one else den.conj())

    def derivative(self, param: str) -> "RationalFunction":
        k = self.field.params.index(param)
        if self.den is self.field._one:
            return _normal(self.field, self.num.derivative(k), self.den)
        num = self.num.derivative(k) * self.den - self.num * self.den.derivative(k)
        return RationalFunction(self.field, num, self.den * self.den)

    def _fraction(self):
        """(num, den) times x^s, where s holds the numerator's negative
        exponents: two polynomials in the parameters."""
        s = _negative_part(self.num)
        return _shift(self.num, s, sub), _shift(self.den, s, sub)

    def evaluate(self, point: dict) -> GaussianRational:
        num, den = self._fraction()
        d = den.evaluate(point)
        if not d:
            raise ZeroDivisionError("denominator vanishes at sample point")
        return num.evaluate(point) / d

    @property
    def is_constant(self) -> bool:
        return self.den is self.field._one and set(self.num.terms) <= {self.field._zero_exp}

    def constant_value(self) -> GaussianRational:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self.num.terms.get(self.field._zero_exp, ZERO)

    def __str__(self):
        if not self.num:
            return "0"
        num, den = self._fraction()
        ns = str(num)
        if den is self.field._one:
            return ns
        ds = str(den)
        ns = f"({ns})" if " " in ns else ns
        ds = f"({ds})" if " " in ds or "*" in ds else ds
        return f"{ns}/{ds}"

    __repr__ = __str__


def _normalize(num: Polynomial, den: Polynomial):
    field = den.field
    if not num:
        return num, field._one
    # the denominator's monomial content moves into the numerator
    cm = tuple(map(min, zip(*den.terms)))
    num, den = _shift(num, cm, sub), _shift(den, cm, sub)
    if len(den.terms) == 1:
        (c,) = den.terms.values()
        return num if c == ONE else num * c.inverse(), field._one
    # opportunistic exact division, on the numerator shifted to no negative
    # exponent (den has none, and no monomial factor)
    s = _negative_part(num)
    q = _shift(num, s, sub).divide_exact(den)
    if q is not None:
        return _shift(q, s, add), field._one
    # make denominator lex-monic
    _, lead = den._lead()
    if lead != ONE:
        inv = lead.inverse()
        num, den = num * inv, den * inv
    return num, den


def _negative_part(p: Polynomial):
    """The least exponent of each variable in p where it is below 0, else 0."""
    return tuple(min(0, *col) for col in zip(*p.terms))


def _shift(p: Polynomial, k, op) -> Polynomial:
    """p * x^k for op = add, p / x^k for op = sub."""
    if not any(k):
        return p
    return _poly(p.field, {tuple(map(op, e, k)): c for e, c in p.terms.items()})


def _poly(field, terms: dict) -> Polynomial:
    """A Polynomial from a term dict that holds no zero coefficient."""
    p = _new(Polynomial)
    p.field = field
    p.terms = terms
    return p


def _normal(field, num: Polynomial, den: Polynomial) -> RationalFunction:
    """A RationalFunction from a pair that is already in normal form."""
    rf = _new(RationalFunction)
    rf.field = field
    rf.num = num
    rf.den = den
    return rf
