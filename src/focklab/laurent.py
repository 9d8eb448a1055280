"""Truncated formal Laurent series with per-value precision windows.

A LaurentSeries represents a series f known to have no exponent below
``floor`` and with exactly known coefficients for exponents in
[floor, prec).  Arithmetic tracks the window pessimistically, so any stored
coefficient is a theorem about f, never an approximation.  Zero detection is
definitional: "zero up to prec".

Exact Laurent polynomials are represented with a very large prec (their
coefficients are sparse, so this costs nothing); inversion and square roots
on such inputs require an explicit target window.

Also here: finite direct sums over a puncture set (SemiLocalSeries), the
residue form (f,g) = res(g df), derivations D = g(t) d/dt with an optional
horizontal part acting on coefficient parameters, and formal integration.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GaussianRational, NotASquare, conj as _conj, parse_gaussian
from .ratfunc import RationalFunction

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


def _is_scalar_zero(c):
    return not c


class LaurentSeries:
    __slots__ = ("floor", "prec", "coeffs")

    def __init__(self, floor: int, prec: int, coeffs: dict):
        if prec < floor:
            raise ValueError("empty window: prec < floor")
        clean = {}
        for e, c in coeffs.items():
            if e < floor or e >= prec:
                raise ValueError(f"exponent {e} outside window [{floor},{prec})")
            if isinstance(c, int):
                c = Fraction(c)  # keep division exact throughout
            if not _is_scalar_zero(c):
                clean[e] = c
        if clean:
            floor = min(clean)  # leading stored coefficient nonzero
        else:
            floor = prec  # known zero up to prec
        self.floor = floor
        self.prec = prec
        self.coeffs = clean

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
            if e >= prec:
                continue
            s = out.get(e, 0) + c
            if _is_scalar_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
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
        if _is_scalar_zero(c):
            return LaurentSeries(self.prec, self.prec, {})
        return LaurentSeries(self.floor, self.prec, {e: c * v for e, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational, RationalFunction)):
            return self.scale(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        prec = min(self.floor + other.prec, other.floor + self.prec)
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e >= prec:
                    continue
                s = out.get(e, 0) + c1 * c2
                if _is_scalar_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return LaurentSeries(min(self.floor + other.floor, prec), prec, out)

    def __rmul__(self, other):
        return self.scale(other)

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by t^k."""
        return LaurentSeries(
            self.floor + k, self.prec + k, {e + k: c for e, c in self.coeffs.items()}
        )

    def inv(self, prec: int | None = None) -> "LaurentSeries":
        """Exact inverse within the window.

        For exact-polynomial inputs an explicit target window length (number
        of coefficients from the result's order) is required.
        """
        if self.is_zero():
            raise NotInvertible("series is zero within its window")
        a = self.ord
        lead = self.coeffs[a]
        width = self.prec - a
        if width >= _UNBOUNDED:
            if prec is None:
                raise PrecisionExhausted(
                    "inverting an exactly known polynomial needs an explicit window"
                )
            width = prec
        elif prec is not None:
            width = min(width, prec)
        inv_lead = 1 / lead
        # u = t^-a * f / lead has u_0 = 1; invert by recursion
        u = {e - a: c * inv_lead for e, c in self.coeffs.items() if e - a < width}
        v = {0: lead / lead}  # one, in the right scalar type
        for n in range(1, width):
            s = 0
            for k, uk in u.items():
                if 0 < k <= n:
                    vk = v.get(n - k)
                    if vk is not None:
                        s = s + uk * vk
            if not _is_scalar_zero(s):
                v[n] = -s
        out = {e - a: c * inv_lead for e, c in v.items()}
        return LaurentSeries(-a, -a + width, out)

    def sqrt_unit(self, prec: int | None = None) -> "LaurentSeries":
        """Square root with principal branch on the leading coefficient.

        Requires even order and a leading coefficient that is an exact square
        in the scalar field (1 in the geometric applications).
        """
        if self.is_zero():
            return LaurentSeries(self.prec, self.prec, {})
        a = self.ord
        if a % 2:
            raise NotASquare(f"odd order {a}")
        lead = self.coeffs[a]
        root = _scalar_sqrt(lead)
        width = self.prec - a
        if width >= _UNBOUNDED:
            if prec is None:
                raise PrecisionExhausted(
                    "square root of an exactly known polynomial needs an explicit window"
                )
            width = prec
        elif prec is not None:
            width = min(width, prec)
        inv_lead = 1 / lead
        u = {e - a: c * inv_lead for e, c in self.coeffs.items() if e - a < width}
        # s^2 = u with s_0 = 1:  2 s_n = u_n - sum_{0<k<n} s_k s_{n-k}
        s = {0: u[0]}
        for n in range(1, width):
            acc = u.get(n, 0)
            for k in range(1, n):
                sk, snk = s.get(k), s.get(n - k)
                if sk is not None and snk is not None:
                    acc = acc - sk * snk
            half = acc / 2 if acc else 0
            if not _is_scalar_zero(half):
                s[n] = half
        out = {e + a // 2: c * root for e, c in s.items()}
        result = LaurentSeries(a // 2, a // 2 + width, out)
        return result

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


def _scalar_sqrt(c):
    if isinstance(c, int):
        c = GaussianRational(c)
    if isinstance(c, Fraction):
        c = GaussianRational(c)
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


def residue_form(f: LaurentSeries, g: LaurentSeries):
    """(f, g) = res(g df), computed as the direct sum  sum_e e f_e g_{-e}.

    Only the pairs of stored coefficients f_e, g_{-e} reach the t^-1 term of
    g df, so the product series is never formed.  The window rule is the
    product's: g df is known below min(g.floor + df.prec, df.floor + g.prec),
    and the residue is determined only when that bound exceeds -1; otherwise
    WindowTooNarrow.  A vanishing residue is returned as the int 0.
    """
    df_floor = f.floor - 1
    if f.floor == 0 and f.coeffs:  # the constant term drops out of df
        df_floor = min((e for e in f.coeffs if e), default=f.prec) - 1
    prec = min(g.floor + f.prec - 1, df_floor + g.prec)
    if prec <= -1:
        raise WindowTooNarrow(f"coefficient of t^-1 not determined (prec={prec})")
    s = 0
    for e, c in f.coeffs.items():
        if e:
            h = g.coeffs.get(-e)
            if h is not None:
                s = s + h * (c * e)
    return s if s else 0


def integrate(f: LaurentSeries) -> LaurentSeries:
    """Termwise antiderivative with constant term 0.

    Precondition: the t^-1 coefficient is zero, determined within the window.
    """
    r = residue(f)
    if not _is_scalar_zero(r):
        raise NonzeroResidue(f"t^-1 coefficient is {r}; no primitive in K")
    out = {e + 1: c / (e + 1) for e, c in f.coeffs.items() if e != -1}
    return LaurentSeries(f.floor + 1, f.prec + 1, out)


# -- derivations --------------------------------------------------------------


class Derivation:
    """A continuous derivation D = g(t) d/dt, optionally plus a horizontal
    part acting on declared coefficient parameters.

    D_k is the symbolic derivation with D_k(t^i) = i t^{i+k}; it applies
    exactly to any window.
    """

    __slots__ = ("k", "series", "horizontal")

    def __init__(self, k=None, series=None, horizontal=None):
        if k is not None and series is not None:
            raise ValueError("give at most one of k or series for the vertical part")
        self.k = k
        self.series = series
        self.horizontal = dict(horizontal or {})

    @staticmethod
    def D(k: int) -> "Derivation":
        return Derivation(k=k)

    @staticmethod
    def from_series(g: LaurentSeries) -> "Derivation":
        return Derivation(series=g)

    @staticmethod
    def horizontal_part(coeffs: dict) -> "Derivation":
        return Derivation(horizontal=coeffs)

    @property
    def is_vertical(self) -> bool:
        return not self.horizontal

    def vertical_series(self) -> LaurentSeries:
        """The coefficient g of D_vert = g d/dt."""
        if self.k is not None:
            return LaurentSeries.t_power(self.k + 1)
        if self.series is not None:
            return self.series
        return LaurentSeries.zero()

    def order(self):
        """Least N with D(m) contained in m^{N+1}, within the window."""
        g = self.vertical_series()
        return None if g.is_zero() else g.ord - 1

    def apply_vertical(self, f: LaurentSeries) -> LaurentSeries:
        if self.k is not None:
            out = {e + self.k: c * e for e, c in f.coeffs.items() if e != 0}
            return LaurentSeries(f.floor + self.k, f.prec + self.k, out)
        if self.series is not None:
            return self.series * f.derivative()
        return LaurentSeries.zero(f.prec)

    def apply_horizontal_scalar(self, c):
        total = 0
        for p, coeff in self.horizontal.items():
            if isinstance(c, RationalFunction):
                total = total + coeff * c.derivative(p)
        return total

    def apply(self, f: LaurentSeries) -> LaurentSeries:
        out = self.apply_vertical(f)
        if self.horizontal:
            h = LaurentSeries(
                f.floor,
                f.prec,
                {
                    e: d
                    for e, c in f.coeffs.items()
                    if not _is_scalar_zero(d := self.apply_horizontal_scalar(c))
                },
            )
            out = out + h
        return out

    def __repr__(self):
        bits = []
        if self.k is not None:
            bits.append(f"D_{self.k}")
        if self.series is not None:
            bits.append(f"({self.series})·d/dt")
        for p, c in self.horizontal.items():
            bits.append(f"({c})·d/d{p}")
        return " + ".join(bits) or "0"


def apply_derivation(D: Derivation, f: LaurentSeries) -> LaurentSeries:
    return D.apply(f)


def pairing_with_form(D: Derivation, form_coeff: LaurentSeries) -> LaurentSeries:
    """<D, h dt> = g*h for the vertical part g d/dt of D."""
    return D.vertical_series() * form_coeff


def selfadjoint_check(D: Derivation, alpha: LaurentSeries, beta: LaurentSeries) -> bool:
    """res(<D,alpha> beta) == res(<D,beta> alpha) for forms alpha dt, beta dt."""
    left = residue(pairing_with_form(D, alpha) * beta)
    right = residue(pairing_with_form(D, beta) * alpha)
    return not (left - right)


# -- semi-local series --------------------------------------------------------


class SemiLocalSeries:
    """Finite direct sum of Laurent series over a puncture index set."""

    __slots__ = ("parts",)

    def __init__(self, parts: dict):
        if not parts:
            raise ValueError("puncture set must be nonempty")
        self.parts = dict(parts)

    @property
    def punctures(self):
        return tuple(sorted(self.parts))

    def _zip(self, other, op):
        if set(self.parts) != set(other.parts):
            raise ValueError("puncture sets differ")
        return SemiLocalSeries({p: op(self.parts[p], other.parts[p]) for p in self.parts})

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __mul__(self, other):
        if isinstance(other, SemiLocalSeries):
            return self._zip(other, lambda a, b: a * b)
        return SemiLocalSeries({p: f * other for p, f in self.parts.items()})

    __rmul__ = __mul__

    def __neg__(self):
        return SemiLocalSeries({p: -f for p, f in self.parts.items()})

    def derivative(self):
        return SemiLocalSeries({p: f.derivative() for p, f in self.parts.items()})

    def is_zero(self):
        return all(f.is_zero() for f in self.parts.values())


def residue_sum(f: SemiLocalSeries):
    """Sum of the exact component residues of f dt."""
    return sum(residue(fp) for fp in f.parts.values())


def semilocal_residue_form(f: SemiLocalSeries, g: SemiLocalSeries):
    return residue_sum(g * f.derivative())


# -- text format --------------------------------------------------------------


def parse_series(text: str) -> LaurentSeries:
    """Parse 'c_k*t^k + ...; prec=N' (or 'prec=exact') with Gaussian-rational
    coefficients; reads everything format_series writes except text it
    truncated with '+ ...'."""
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
    terms: dict = {}
    for sign, chunk in _split_terms(text):
        if "t" in chunk:
            coeff_txt, _, exp_txt = chunk.partition("t")
            coeff_txt = coeff_txt.rstrip("*") or "1"
            exp = int(exp_txt.lstrip("^")) if exp_txt else 1
        else:
            coeff_txt, exp = chunk, 0
        c = parse_gaussian(_unwrap_parens(coeff_txt))
        if sign < 0:
            c = -c
        terms[exp] = terms.get(exp, GaussianRational(0)) + c
    return LaurentSeries.from_terms({e: c for e, c in terms.items() if c}, prec)


def _unwrap_parens(text: str) -> str:
    """Drop one pair of parentheses around all of text, as format_series
    writes them around compound coefficients such as '((1/2)i)'."""
    if not (text.startswith("(") and text.endswith(")")):
        return text
    depth = 0
    for k, ch in enumerate(text):
        depth += (ch == "(") - (ch == ")")
        if depth == 0:
            return text[1:-1] if k == len(text) - 1 else text
    return text


def _split_terms(text: str):
    """Split a sum into (sign, chunk) pairs; +/- inside parens or right after
    '^' (negative exponents) do not split."""
    text = text.replace(" ", "")
    out = []
    depth = 0
    current = ""
    sign = 1
    for k, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and current and not current.endswith(("^", "*", "/")):
            out.append((sign, current))
            sign = -1 if ch == "-" else 1
            current = ""
            continue
        if ch in "+-" and depth == 0 and not current:
            sign = sign * (-1 if ch == "-" else 1)
            continue
        current += ch
    if current:
        out.append((sign, current))
    return out


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
