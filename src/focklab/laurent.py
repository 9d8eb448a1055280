"""Truncated formal Laurent series with per-value precision windows.

A LaurentSeries represents a series f known to have no exponent below
``floor`` and with exactly known coefficients for exponents in
[floor, prec).  Arithmetic tracks the window pessimistically, so any stored
coefficient is a theorem about f, never an approximation.  Zero detection is
definitional: "zero up to prec".

Exact Laurent polynomials are represented with a very large prec (their
coefficients are sparse, so this costs nothing); inversion and square roots
on such inputs require an explicit target window.

Also here: the residue form (f,g) = res(g df), derivations D = g(t) d/dt
and formal integration.

Products, residue forms, inverses and square roots over Q run in integers,
with the values of the Fraction loops.  A series over Q keeps its integer
form ({e: n}, d), d the lcm of its denominators and coeffs[e] = n / d at the
same exponents, from its first product on; a product is built from its
operands' forms and keeps its own.  When both operands store at least 12
terms in an exponent span at most twice their count, the product packs each
form into one int at 2^W per exponent and multiplies once (Kronecker
substitution); shorter or sparser operands, such as 1 + t^100000, are
convolved term by term.  inv and sqrt_unit run their recurrences on the unit's
numerators over d with a power of d (of 4d for the root) as the scale,
building each coefficient once.  A residue form scans only the overlap
window, where f_e and g_{-e} can both be stored, or f's exponents where they
are fewer, and residue_gram reads each series of a Gram in its integer form,
as for the 576 entries of a loop-oscillator basis check.  Q(i) and Q(x) share
the recurrences with d = 1, keep no integer form and keep generic loops.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, repeat
from math import gcd, lcm

from .scalars import GaussianRational, NotASquare, conj as _conj, fraction_sqrt
from .ratfunc import DifferentialField, RationalFunction
from .sparse import add_term

EXACT_PREC = 1 << 30  # window used for exactly known Laurent polynomials
_UNBOUNDED = 1 << 20  # beyond this, treat the window as "exact polynomial"


class NotInvertible(ZeroDivisionError):
    """Series is zero within its window."""


class PrecisionExhausted(ValueError):
    """The tracked window is too small to carry out the operation exactly."""


class WindowTooNarrow(PrecisionExhausted):
    """A required coefficient lies outside the stored window."""


class NonzeroResidue(ValueError):
    """Integration requested for a series with nonzero t^-1 coefficient."""


class LaurentSeries:
    __slots__ = ("floor", "prec", "coeffs", "_ints")

    def __init__(self, floor: int, prec: int, coeffs: dict):
        if prec < floor:
            raise ValueError("empty window: prec < floor")
        clean = {}
        for e, c in coeffs.items():
            if e < floor or e >= prec:
                raise ValueError(f"exponent {e} outside window [{floor},{prec})")
            if isinstance(c, int):
                c = Fraction(c)  # keep division exact throughout
            if c:
                clean[e] = c
        if clean:
            floor = min(clean)  # leading stored coefficient nonzero
        else:
            floor = prec  # known zero up to prec
        self.floor = floor
        self.prec = prec
        self.coeffs = clean
        self._ints = None

    @classmethod
    def _from_ints(cls, prec: int, nums: dict, d: int) -> "LaurentSeries":
        """sum_e (nums[e] / d) t^e up to prec, for nonzero integers nums at
        exponents below prec, keeping its integer form over the lcm of its
        denominators; the checks of __init__ are skipped."""
        if d > 1 and (g := gcd(d, *nums.values())) > 1:
            d //= g
            nums = {e: n // g for e, n in nums.items()}
        f = object.__new__(cls)
        f.floor = min(nums, default=prec)
        f.prec = prec
        # over d = 1 each Fraction shares its numerator object with the form
        f.coeffs = (dict(zip(nums, map(Fraction, nums.values()))) if d == 1
                    else {e: Fraction(n, d) for e, n in nums.items()})
        f._ints = nums, d
        return f

    def _integer_form(self):
        """_numerators(self.coeffs), kept after the first call; None, and
        nothing kept, unless every coefficient is a Fraction."""
        if self._ints is None:
            self._ints = _numerators(self.coeffs)
        return self._ints

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_terms(terms: dict, prec: int) -> "LaurentSeries":
        floor = min(terms) if terms else prec
        return LaurentSeries(min(floor, prec), prec, {e: c for e, c in terms.items() if e < prec})

    @staticmethod
    def polynomial(terms: dict) -> "LaurentSeries":
        """Exactly known Laurent polynomial."""
        return LaurentSeries.from_terms(dict(terms), EXACT_PREC)

    @staticmethod
    def t_power(k: int, coeff=1) -> "LaurentSeries":
        return LaurentSeries.polynomial({k: coeff})

    @staticmethod
    def one() -> "LaurentSeries":
        return LaurentSeries.t_power(0)

    @staticmethod
    def zero(prec: int = EXACT_PREC) -> "LaurentSeries":
        return LaurentSeries(prec, prec, {})

    # -- inspection ---------------------------------------------------------

    @property
    def ord(self):
        """Least exponent with a nonzero stored coefficient; None if zero up to prec."""
        return min(self.coeffs) if self.coeffs else None

    def is_zero(self) -> bool:
        """Definitional zero test: zero up to prec."""
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def coefficient(self, e: int):
        """Exact coefficient of t^e; WindowTooNarrow if e is not determined."""
        if e >= self.prec:
            raise WindowTooNarrow(f"coefficient of t^{e} not determined (prec={self.prec})")
        return self.coeffs.get(e, 0)

    def agrees_with(self, other: "LaurentSeries") -> bool:
        """Equality on the common knowledge region (all exponents < min prec)."""
        p = min(self.prec, other.prec)
        exps = {e for e in self.coeffs if e < p} | {e for e in other.coeffs if e < p}
        return all(not (self.coeffs.get(e, 0) - other.coeffs.get(e, 0)) for e in exps)

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self.prec == other.prec and self.agrees_with(other)

    def truncate(self, prec: int) -> "LaurentSeries":
        if prec > self.prec:
            raise WindowTooNarrow("cannot widen a window by truncation")
        return LaurentSeries(min(self.floor, prec), prec, {e: c for e, c in self.coeffs.items() if e < prec})

    # -- ring ops -----------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, RationalFunction)):
            other = LaurentSeries.polynomial({0: other})
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        prec = min(self.prec, other.prec)
        out = {e: c for e, c in self.coeffs.items() if e < prec}
        for e, c in other.coeffs.items():
            if e < prec:
                add_term(out, e, c)
        return LaurentSeries(min(self.floor, other.floor, prec), prec, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.floor, self.prec, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, RationalFunction)):
            other = LaurentSeries.polynomial({0: other})
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def scale(self, c) -> "LaurentSeries":
        if not c:
            return LaurentSeries(self.prec, self.prec, {})
        return LaurentSeries(self.floor, self.prec, {e: c * v for e, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, RationalFunction)):
            return self.scale(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        prec = min(self.floor + other.prec, other.floor + self.prec)
        qa = self._integer_form()
        qb = other._integer_form() if qa else None
        if qb is None:
            # other's exponents ascend, so each row stops at the first e2 with
            # e1 + e2 >= prec; every output exponent still sums its terms in
            # the order of self's exponents
            out: dict = {}
            row = sorted(other.coeffs.items())
            for e1, c1 in self.coeffs.items():
                stop = prec - e1
                for e2, c2 in row:
                    if e2 >= stop:
                        break
                    add_term(out, e1 + e2, c1 * c2)
            return LaurentSeries(min(self.floor + other.floor, prec), prec, out)
        (na, da), (nb, db) = qa, qb
        if _dense(na) and _dense(nb):
            return LaurentSeries._from_ints(prec, _packed_product(na, nb, prec), da * db)
        out = {}
        nb = sorted(nb.items())
        for e1, a in na.items():
            stop = prec - e1
            for e2, b in nb:
                if e2 >= stop:
                    break
                e = e1 + e2
                out[e] = out.get(e, 0) + a * b
        return LaurentSeries._from_ints(prec, {e: n for e, n in out.items() if n}, da * db)

    def __rmul__(self, other):
        return self.scale(other)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by t^k."""
        return LaurentSeries(
            self.floor + k, self.prec + k, {e + k: c for e, c in self.coeffs.items()}
        )

    def _unit(self, prec, what):
        """(a, lead, width, u, d) for f = lead t^a u/d, u_0 = d, on exponents
        [0, width): over Q, u holds f's integer numerators over their lcm and
        d = u_0; otherwise u = f/(lead t^a) and d = 1.  The width is the number
        of coefficients from the result's order: f's own, capped by prec; an
        exactly known polynomial needs prec."""
        a = self.ord
        lead = self.coeffs[a]
        width = self.prec - a
        if width >= _UNBOUNDED:
            if prec is None:
                raise PrecisionExhausted(
                    f"the {what} of an exactly known polynomial needs an explicit window"
                )
            width = prec
        elif prec is not None:
            width = min(width, prec)
        if width < 1:
            raise WindowTooNarrow(f"the {what} is not determined in a window of {width} coefficients")
        part = {e - a: c for e, c in self.coeffs.items() if e - a < width}
        if (over_q := _numerators(part)) is None:
            inv_lead = 1 / lead
            return a, lead, width, {k: c * inv_lead for k, c in part.items()}, 1
        u, _ = over_q
        return a, lead, width, u, u[0]

    def inv(self, prec: int | None = None) -> "LaurentSeries":
        """Exact inverse within the window (see _unit for prec)."""
        if self.is_zero():
            raise NotInvertible("series is zero within its window")
        a, lead, width, u, d = self._unit(prec, "inverse")
        # d/u = sum_m V_m (t/d)^m: V_0 = 1, V_m = -sum_k u_k d^(k-1) V_(m-k)
        w = [(k, c * d ** (k - 1)) for k, c in u.items() if k]
        v = {0: 1}
        for m in range(1, width):
            if s := sum(c * x for k, c in w if k <= m and (x := v.get(m - k)) is not None):
                v[m] = -s
        inv_lead = 1 / lead
        return LaurentSeries(-a, -a + width, {m - a: _over(x, d**m, inv_lead) for m, x in v.items()})

    def sqrt_unit(self, prec: int | None = None) -> "LaurentSeries":
        """Square root with principal branch on the leading coefficient.

        Requires even order and a leading coefficient that is an exact square
        in the scalar field (1 in the geometric applications).
        """
        if self.is_zero():
            return LaurentSeries(self.prec, self.prec, {})
        if self.ord % 2:
            raise NotASquare(f"odd order {self.ord}")
        a, lead, width, u, d = self._unit(prec, "square root")
        # sqrt(u/d) = sum_n S_n (t/b)^n: S_0 = 1, 2 S_n = (b^n/d) u_n - sum_{0<k<n} S_k S_(n-k).
        # Over Q, b = 4d keeps S_n an even integer for n > 0; otherwise b = d = 1
        ints = type(u[0]) is int
        b, s = 4 * d if ints else 1, {0: 1}
        for n in range(1, width):
            acc = u[n] * (b**n // d) if n in u else 0
            acc -= sum(x * y for k in range(1, n) if (x := s.get(k)) is not None and (y := s.get(n - k)) is not None)
            if acc:
                s[n] = acc >> 1 if ints else acc / 2
        root = _scalar_sqrt(lead)
        return LaurentSeries(a // 2, a // 2 + width, {n + a // 2: _over(x, b**n, root) for n, x in s.items()})

    def compose_monomial(self, m: int) -> "LaurentSeries":
        """Substitute t -> t^m for a nonzero integer m.

        For m < 0 the input is read as an exact Laurent polynomial: the
        stored window is taken to be its complete support.
        """
        if m == 0:
            raise ValueError("substitution exponent must be nonzero")
        out = {e * m: c for e, c in self.coeffs.items()}
        if m > 0:
            floor, prec = m * self.floor, m * (self.prec - 1) + 1
        else:
            floor, prec = m * (self.prec - 1), m * self.floor + 1
            if self.prec < _UNBOUNDED:
                raise PrecisionExhausted(
                    "negative substitution requires an exactly known polynomial"
                )
            prec = EXACT_PREC
        return LaurentSeries(floor, prec, out)

    def derivative(self) -> "LaurentSeries":
        out = {}
        for e, c in self.coeffs.items():
            if e != 0:
                out[e - 1] = c * e
        return LaurentSeries(self.floor - 1, self.prec - 1, out)

    def map_coefficients(self, fn) -> "LaurentSeries":
        return LaurentSeries(
            self.floor, self.prec, {e: fn(c) for e, c in self.coeffs.items()}
        )

    def conj(self) -> "LaurentSeries":
        return self.map_coefficients(_conj)

    def __str__(self):
        return format_series(self)

    __repr__ = __str__


def _numerators(part: dict):
    """{e: Fraction} as ({e: integer numerator}, d) over d, the lcm of its
    denominators; None when any value is not a Fraction."""
    if not all(type(c) is Fraction for c in part.values()):
        return None
    d = lcm(*[c.denominator for c in part.values()])
    return {e: c.numerator * (d // c.denominator) for e, c in part.items()}, d


_DENSE_TERMS = 12  # fewest stored terms for which packing beats the dict loop


def _dense(n: dict) -> bool:
    """Long enough, and with few enough gaps, for _packed_product: at least
    _DENSE_TERMS terms and an exponent span at most twice the term count."""
    return len(n) >= _DENSE_TERMS and max(n) - min(n) < 2 * len(n)


def _packed_product(a: dict, b: dict, prec: int) -> dict:
    """The nonzero coefficients below prec of the product of integer series a
    and b ({e: n}), from one big-integer multiply (Kronecker substitution).

    Each series is packed as sum_e n_e 2^(W (e - floor)) with W a whole number
    of bytes: no coefficient of the product reaches 2^(W-1), since it sums at
    most min(len(a), len(b)) products each below 2^(bits(a) + bits(b)).  A
    digit is stored plus 2^(W-1), so it is one unsigned W-bit field; adding
    that offset to every kept digit of the product, and masking (a remainder
    of a negative int is a long division), turns the signed digits into
    fields that the bytes of the int hold in place.
    """
    fa, fb = min(a), min(b)
    size = min(max(a) - fa + max(b) - fb + 1, prec - fa - fb)  # digits kept
    bits = max(map(int.bit_length, a.values())) + max(map(int.bit_length, b.values()))
    width = (bits + min(len(a), len(b)).bit_length() + 2 + 7) >> 3  # W / 8
    half = 1 << (8 * width - 1)
    offset = b"\0" * (width - 1) + b"\x80"  # one digit's 2^(W-1), little-endian

    def pack(n, lo):
        row = [half] * min(size, max(n) - lo + 1)
        for e, v in n.items():
            if e - lo < size:
                row[e - lo] += v
        fields = b"".join(map(int.to_bytes, row, repeat(width), repeat("little")))
        return int.from_bytes(fields, "little") - int.from_bytes(offset * len(row), "little")

    product = pack(a, fa) * pack(b, fb) + int.from_bytes(offset * size, "little")
    raw = (product & ((1 << 8 * width * size) - 1)).to_bytes(width * size, "little")
    fields = map(int.from_bytes, (raw[i:i + width] for i in range(0, len(raw), width)), repeat("little"))
    return {e: v - half for e, v in zip(count(fa + fb), fields) if v != half}


def _over(n, d, c):
    """(n / d) * c, one Fraction for integers n, d and a Fraction c."""
    if type(n) is int and type(c) is Fraction:
        return Fraction(n * c.numerator, d * c.denominator)
    return n * c if d == 1 else Fraction(n, d) * c


def _scalar_sqrt(c):
    """The principal root of a lead; a Fraction for a positive rational square."""
    if isinstance(c, Fraction):
        return fraction_sqrt(c) if c > 0 else GaussianRational(c).sqrt()
    if isinstance(c, GaussianRational):
        return c.sqrt()
    if isinstance(c, RationalFunction) and c.is_constant:
        return c.field.const(c.constant_value().sqrt())
    raise NotASquare(f"no exact square root for leading coefficient {c}")


# -- residue calculus ---------------------------------------------------------


def residue(f: LaurentSeries):
    """res(f dt): the exact t^-1 coefficient, or WindowTooNarrow."""
    if -1 < f.floor:
        return 0
    return f.coefficient(-1)


def _residue_exponents(f: LaurentSeries, g: LaurentSeries, fc: dict):
    """The exponents e at which f_e and g_{-e} can both be stored: the overlap
    window [max(f.floor, 1 - g.prec), min(f.prec - 1, -g.floor)], or fc (f's
    coefficients or numerators) where the window is longer.  WindowTooNarrow
    unless g df is known past t^-1, below both bounds of the product rule."""
    df_floor = f.floor - 1
    if f.floor == 0 and fc:  # the constant term drops out of df
        df_floor = min((e for e in fc if e), default=f.prec) - 1
    # comparisons in place of min and max: a curves pass makes 2,791 calls
    by_g, by_df = g.floor + f.prec - 1, df_floor + g.prec
    if by_g <= -1 or by_df <= -1:
        raise WindowTooNarrow(f"coefficient of t^-1 not determined (prec={min(by_g, by_df)})")
    lo = f.floor if f.floor > -g.prec else 1 - g.prec
    hi = -g.floor  # below f.prec, since g.floor + f.prec - 1 >= 0
    return fc if hi - lo >= len(fc) else range(lo, hi + 1)


def residue_form(f: LaurentSeries, g: LaurentSeries):
    """(f, g) = res(g df) = sum_e e f_e g_{-e} over _residue_exponents: the int
    0 when it vanishes, summed in integers when every pair is Fraction x Fraction."""
    fc, gc = f.coeffs, g.coeffs
    pairs = [(e, c, h) for e in _residue_exponents(f, g, fc)
             if e and (c := fc.get(e)) is not None and (h := gc.get(-e)) is not None]
    if all(type(c) is Fraction and type(h) is Fraction for _, c, h in pairs):
        n, d = 0, 1  # the sum so far is n / d, d the lcm of the pair denominators
        for e, c, h in pairs:
            q = c.denominator * h.denominator
            m = lcm(d, q)
            n = n * (m // d) + e * c.numerator * h.numerator * (m // q)
            d = m
        return Fraction(n, d) if n else 0
    s = 0
    for e, c, h in pairs:
        s = s + h * (c * e)
    return s if s else 0


def residue_gram(series: list):
    """Yield residue_form(f, g) for f, then g, in series: the Gram in (i, j)
    order, lazily, so a caller that stops early computes no later entry.  Each
    series over Q is read in its kept integer form (see _integer_form)."""
    ints = [f._integer_form() for f in series]
    for f, nf in zip(series, ints):
        for g, ng in zip(series, ints):
            if not (nf and ng):
                yield residue_form(f, g)
                continue
            (a, da), (b, db) = nf, ng
            n = 0
            for e in _residue_exponents(f, g, a):
                if e and (x := a.get(e)) and (y := b.get(-e)):
                    n += e * x * y
            yield Fraction(n, da * db) if n else 0


def integrate(f: LaurentSeries) -> LaurentSeries:
    """Termwise antiderivative with constant term 0.

    Precondition: the t^-1 coefficient is zero, determined within the window.
    """
    r = residue(f)
    if r:
        raise NonzeroResidue(f"t^-1 coefficient is {r}; no primitive in K")
    out = {e + 1: c / (e + 1) for e, c in f.coeffs.items() if e != -1}
    return LaurentSeries(f.floor + 1, f.prec + 1, out)


# -- derivations --------------------------------------------------------------


class Derivation:
    """A continuous derivation D = g(t) d/dt, given as the symbolic D_k
    (g = t^(k+1)) or by its coefficient series g, exactly one of the two; the
    zero derivation is from_series(LaurentSeries.zero(N)).

    D_k applies exactly to any window by shifting exponents, D_k(t^i) =
    i t^(i+k).  As the series t^(k+1) it would build f' and then a product:
    the loop-oscillator benchmark's lifted identities took 1.3 to 3 ms more
    CPU per pass, of 12 to 22 ms (2-CPU Xeon).
    """

    __slots__ = ("k", "series")

    def __init__(self, k=None, series=None):
        if (k is None) == (series is None):
            raise ValueError("give exactly one of k or series")
        self.k = k
        self.series = series

    @staticmethod
    def D(k: int) -> "Derivation":
        return Derivation(k=k)

    @staticmethod
    def from_series(g: LaurentSeries) -> "Derivation":
        return Derivation(series=g)

    def vertical_series(self) -> LaurentSeries:
        """The coefficient g of D = g d/dt."""
        return LaurentSeries.t_power(self.k + 1) if self.k is not None else self.series

    def order(self):
        """Least N with D(m) contained in m^{N+1}, within the window."""
        return None if (o := self.vertical_series().ord) is None else o - 1

    def apply(self, f: LaurentSeries) -> LaurentSeries:
        if self.k is None:
            return self.series * f.derivative()
        out = {e + self.k: c * e for e, c in f.coeffs.items() if e != 0}
        return LaurentSeries(f.floor + self.k, f.prec + self.k, out)

    def __repr__(self):
        return f"D_{self.k}" if self.k is not None else f"({self.series})·d/dt"


def pairing_with_form(D: Derivation, form_coeff: LaurentSeries) -> LaurentSeries:
    """<D, h dt> = g*h for D = g d/dt."""
    return D.vertical_series() * form_coeff


# -- text format --------------------------------------------------------------


def parse_series(text: str) -> LaurentSeries:
    """Parse 'c_k*t^k + ...; prec=N' (or 'prec=exact') with Gaussian-rational
    coefficients; reads everything format_series writes except text it
    truncated with '+ ...'.

    The body is read as a rational function of t (scalars.parse_expression);
    it must be a Laurent polynomial, whose normal form has denominator 1 and
    whose numerator's terms are the series' terms.
    """
    text = text.strip()
    prec = EXACT_PREC
    if ";" in text:
        text, tail = text.split(";", 1)
        tail = tail.strip()
        if not tail.startswith("prec="):
            raise ValueError(f"bad series suffix {tail!r}")
        value = tail[len("prec="):].strip()
        prec = EXACT_PREC if value == "exact" else int(value)
    if text.rstrip().endswith("..."):
        raise ValueError("series text is truncated ('+ ...'); its terms are not all known")
    f = DifferentialField(["t"]).parse(text)
    if f.den != f.field.one.den:
        raise ValueError(f"{text!r} is not a Laurent polynomial in t: its denominator is {f.den}")
    return LaurentSeries.from_terms({e: a for (e,), a in f.num.terms.items()}, prec)


def format_series(f: LaurentSeries, max_terms: int = 12) -> str:
    bits = []
    for e in sorted(f.coeffs)[:max_terms]:
        c = f.coeffs[e]
        cs = str(c)
        if "+" in cs[1:] or "-" in cs[1:] or "/" in cs:
            cs = f"({cs})"
        if e == 0:
            bits.append(cs)
        else:
            t = "t" if e == 1 else f"t^{e}"
            bits.append(t if cs == "1" else f"-{t}" if cs == "-1" else f"{cs}*{t}")
    body = " + ".join(bits).replace("+ -", "- ") if bits else "0"
    if len(f.coeffs) > max_terms:
        body += " + ..."
    prec = "exact" if f.prec >= _UNBOUNDED else str(f.prec)
    return f"{body}; prec={prec}"
