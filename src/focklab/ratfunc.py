"""Rational-function differential fields in named real parameters.

Elements are quotients of sparse multivariate polynomials over Q(sqrt(-1));
Polynomial is a SparseVector (sparse.py) keyed by exponent vectors.  The
parameters are treated as real: conjugation fixes them and conjugates
coefficients.  There is no general multivariate gcd.  Every RationalFunction
is stored in the normal form that `_normalize` computes.  Over a one-term
denominator c*x^d it is one rule: cancel the monomial content (componentwise
least exponent) that the numerator shares with x^d, and divide the numerator
by c.  Over a longer denominator the shared monomial content cancels too;
then an exact lex long division leaves the quotient over 1, and otherwise
both are scaled so that the denominator's lex-leading coefficient is 1.  The
polarized families' denominators are monomials in the imaginary parts.
Equality never needs a gcd: equal denominators compare numerators, others
cross multiply.  The hash is built from the lex lead exponent and lead
coefficient ratio of numerator over denominator, which a common factor
cannot change (lex is a monomial order), so equal values hash equally.

Some results skip `_normalize`.  Already normal: negation; conjugation, a
ring automorphism that keeps every exponent, every exact division and the
denominator's lead coefficient 1; scaling by a nonzero constant; adding
zero; a product with a zero factor; the constants and variables of a field.
Over monomial denominators x^d1, x^d2 the monomial rule applies directly:
to the product over x^(d1 + d2), the sum over x^max(d1, d2), and the
derivative d(n/x^d)/dx_k = (x_k dn/dx_k - d_k n) / x^(d + e_k), or
dn/dx_k / x^d when d_k = 0.  tests/test_ratfunc.py checks that every
operation returns a fixed point of `_normalize`.

The text format is the grammar of `scalars.parse_expression`.  `str` writes
num/den and parenthesises a sum or a product of several factors, and
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
        self.zero = _normal(self, _poly(self, {}), self._one_poly())
        self.one = self.const(ONE)
        self.i = self.const(GaussianRational(0, 1))

    def _one_poly(self):
        return _poly(self, {self._zero_exp: ONE})

    def var(self, name: str) -> "RationalFunction":
        k = self.params.index(name)
        exp = tuple(1 if j == k else 0 for j in range(self.nvars))
        return _normal(self, _poly(self, {exp: ONE}), self._one_poly())

    def const(self, c) -> "RationalFunction":
        c = GaussianRational.coerce(c)
        num = _poly(self, {self._zero_exp: c} if c else {})
        return _normal(self, num, self._one_poly())

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
    """Sparse multivariate polynomial: exponent tuple -> GaussianRational."""

    __slots__ = ("field",)

    def __init__(self, field: DifferentialField, terms: dict):
        self.field = field
        self.terms = {e: c for e, c in terms.items() if c}

    def _like(self, terms: dict):
        return _poly(self.field, terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return self.scale(other)
        if not (self.terms and other.terms):
            return _poly(self.field, {})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
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
        else None."""
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
            for e2, c2 in divisor.terms.items():
                add_term(rem, tuple(map(add, qe, e2)), -(qc * c2))
        return _poly(self.field, quot)

    def _text(self, e) -> str:
        return "*".join(f"{n}^{p}" if p > 1 else n for n, p in zip(self.field.params, e) if p) or "1"

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
        if isinstance(other, RationalFunction):
            if other.field != self.field:
                raise ValueError("mixing different differential fields")
            return other
        if isinstance(other, _SCALARS):
            return self.field.const(other)
        return None

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
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
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
        if isinstance(other, _SCALARS) and not other:
            return self
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        if len(self.den.terms) == 1 == len(other.den.terms):
            (d1,), (d2,) = self.den.terms, other.den.terms
            d = tuple(map(max, d1, d2))
            num = _shift(self.num, tuple(map(sub, d, d1)), add) + _shift(other.num, tuple(map(sub, d, d2)), add)
            return _normal(self.field, *_monomial_normal(num, d))
        if self.den == other.den:
            return RationalFunction(self.field, self.num + other.num, self.den)
        return RationalFunction(
            self.field, self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return _normal(self.field, -self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scale(other)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not (self.num and other.num):
            return self.field.zero
        if len(self.den.terms) == 1 == len(other.den.terms):
            (d1,), (d2,) = self.den.terms, other.den.terms
            return _normal(self.field, *_monomial_normal(self.num * other.num, tuple(map(add, d1, d2))))
        return RationalFunction(self.field, self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.field, self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

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
        return _normal(self.field, self.num.conj(), self.den.conj())

    def derivative(self, param: str) -> "RationalFunction":
        k = self.field.params.index(param)
        if len(self.den.terms) == 1:
            (d,) = self.den.terms
            dk = d[k]
            if not dk:
                return _normal(self.field, *_monomial_normal(self.num.derivative(k), d))
            num = {e: c * (e[k] - dk) for e, c in self.num.terms.items() if e[k] != dk}
            d = d[:k] + (dk + 1,) + d[k + 1:]
            return _normal(self.field, *_monomial_normal(_poly(self.field, num), d))
        num = self.num.derivative(k) * self.den - self.num * self.den.derivative(k)
        return RationalFunction(self.field, num, self.den * self.den)

    def evaluate(self, point: dict) -> GaussianRational:
        d = self.den.evaluate(point)
        if not d:
            raise ZeroDivisionError("denominator vanishes at sample point")
        return self.num.evaluate(point) / d

    @property
    def is_constant(self) -> bool:
        # a constant's normal denominator is 1
        zero = self.field._zero_exp
        return set(self.den.terms) == {zero} and set(self.num.terms) <= {zero}

    def constant_value(self) -> GaussianRational:
        if not self.is_constant:
            raise ValueError(f"{self} is not constant")
        return self.num.terms.get(self.field._zero_exp, ZERO)

    def __str__(self):
        if not self.num:
            return "0"
        ns = str(self.num)
        if self.den == self.field._one_poly():
            return ns
        ds = str(self.den)
        ns = f"({ns})" if " " in ns else ns
        ds = f"({ds})" if " " in ds or "*" in ds else ds
        return f"{ns}/{ds}"

    __repr__ = __str__


def _normalize(num: Polynomial, den: Polynomial):
    if len(den.terms) == 1:
        ((d, c),) = den.terms.items()
        return _monomial_normal(num, d, c)
    field = den.field
    if not num:
        return num, field._one_poly()
    # cancel common monomial factor
    cm = tuple(map(min, *num.terms, *den.terms))
    if any(cm):
        num, den = _shift(num, cm, sub), _shift(den, cm, sub)
    # opportunistic exact division
    q = num.divide_exact(den)
    if q is not None:
        return q, field._one_poly()
    # make denominator lex-monic
    _, lead = den._lead()
    if lead != ONE:
        inv = lead.inverse()
        num, den = num * inv, den * inv
    return num, den


def _monomial_normal(num: Polynomial, d, c=ONE):
    """The normal (num, den) of num / (c x^d): the shared monomial content
    cancels and c moves into the numerator."""
    if not num:
        return num, num.field._one_poly()
    cm = tuple(map(min, d, *num.terms))
    if any(cm):
        num, d = _shift(num, cm, sub), tuple(map(sub, d, cm))
    return num if c == ONE else num * c.inverse(), _poly(num.field, {d: ONE})


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
