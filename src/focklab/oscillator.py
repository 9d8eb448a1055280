"""Oscillator algebra of K = R((t)) and its Fock module.

Mode conventions: the Fock space F(K, O) is modelled by multisets of negative
mode indices acting on the generator v_0; [e_k, e_l] = k delta_{k+l,0} hbar as
forced by the residue form, hbar acts as 1, and e_0 (the unit of K) acts as 0
since the inducing character kills O.

Normally ordered quadratic operators are lazy-by-grade: for a vector of
bounded grade only finitely many monomials act, so the action is exact with
no window error; a window enters only through the coefficient series of a
derivation, and exhaustion raises instead of truncating silently.  Operators
accumulate their image into one dictionary in place.

tau_hat(D_k) = -(1/2) sum_{a+b=k, a,b != 0} :e_a e_b: reproduces
[tau_hat(D_k), f] = D_k(f) and the central term (k^3 - k)/12 delta_{k+l,0}.

virasoro_bracket certifies one (k, l) pair; virasoro_sweep certifies every
pair with |k|, |l| <= kmax and shares the work between them.  Following the
grade decomposition of the oscillator representation (T(D_k) maps grade n to
grade n - k; Kac and Raina, Bombay Lectures, 1987), it takes one probe vector
v at a time, applies each T(D_m) to v once, and forms the two products
T(D_k) T(D_l) v and T(D_l) T(D_k) v once for both orders of a pair.  Every
vector it compares still comes from applying the operators, never from the
bracket formula being verified.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import (
    Derivation,
    LaurentSeries,
    PrecisionExhausted,
    _UNBOUNDED,
    residue,
)
from .ratfunc import RationalFunction


class BasisNotQuasiSymplectic(ValueError):
    """Supplied topological basis fails the quasi-symplectic conditions."""


def _add_term(terms: dict, key, c):
    """terms[key] += c in place, dropping the entry when the sum is zero."""
    s = terms.get(key, 0) + c
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


class OscFockVector:
    """Finitely supported map from multisets of negative modes to scalars."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        for key, c in (terms or {}).items():
            if not c:
                continue
            key = tuple(sorted(key))
            if any(k >= 0 for k in key):
                raise ValueError("modes must be negative integers")
            _add_term(self.terms, key, c)

    @staticmethod
    def vacuum(coeff=1):
        return OscFockVector({(): coeff})

    @staticmethod
    def basis(key):
        return OscFockVector({tuple(sorted(key)): 1})

    def __add__(self, other):
        out = OscFockVector()
        out.terms = dict(self.terms)
        for k, c in other.terms.items():
            _add_term(out.terms, k, c)
        return out

    def __neg__(self):
        out = OscFockVector()
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        out = OscFockVector()
        if c:
            out.terms = {k: v * c for k, v in self.terms.items()}
        return out

    __mul__ = scale
    __rmul__ = scale

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, OscFockVector):
            return NotImplemented
        return not (self - other)

    def max_mode(self) -> int:
        """Largest |mode| appearing (0 for multiples of the vacuum)."""
        return max((-min(k) for k in self.terms if k), default=0)

    def grade(self) -> int:
        return max((sum(-m for m in k) for k in self.terms), default=0)

    def map_coefficients(self, fn):
        out = OscFockVector()
        for k, c in self.terms.items():
            v = fn(c)
            if v:
                out.terms[k] = v
        return out

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k, c in sorted(self.terms.items(), key=lambda kv: (sum(-m for m in kv[0]), kv[0])):
            mono = "".join(f"e_{{{m}}}" for m in k)
            bits.append(f"({c})·{mono}v_0" if mono else f"({c})·v_0")
        return " + ".join(bits)


def apply_mode(m: int, v: OscFockVector) -> OscFockVector:
    """Action of e_m: creation for m < 0, k*multiplicity annihilation of
    e_{-m} for m > 0, zero for m = 0 (the unit of K acts as 0)."""
    out = OscFockVector()
    if m == 0:
        return out
    for key, c in v.terms.items():
        if m < 0:
            _add_term(out.terms, tuple(sorted(key + (m,))), c)
        else:
            n = key.count(-m)
            if not n:
                continue
            lst = list(key)
            lst.remove(-m)
            _add_term(out.terms, tuple(lst), c * m * n)
    return out


def series_multiply(f: LaurentSeries, v: OscFockVector) -> OscFockVector:
    """Multiplication operator of a series f on the Fock module.

    Exact on bounded-grade vectors provided the window reaches beyond every
    annihilable mode; the constant term acts as 0.
    """
    n = v.max_mode()
    if f.prec <= n:
        raise PrecisionExhausted(
            f"series window prec={f.prec} cannot act on modes up to {n}"
        )
    out = OscFockVector()
    for e, c in f.coeffs.items():
        if e == 0:
            continue
        if e > n:
            continue  # annihilates nothing present
        for key, x in apply_mode(e, v).terms.items():
            _add_term(out.terms, key, x * c)
    return out


def osc_basis(max_grade: int):
    """All multisets of negative modes of total energy <= max_grade."""

    def parts(n, mx):
        if n == 0:
            yield ()
            return
        for p in range(min(n, mx), 0, -1):
            for rest in parts(n - p, p):
                yield (p,) + rest

    out = []
    for n in range(max_grade + 1):
        for p in parts(n, n):
            out.append(tuple(sorted(-x for x in p)))
    return out


class QuadraticOperator:
    """scale * sum_k weights[k] tau_hat(D_k) + central * id.

    weights[k] is determined for k in [klo, khi); applying the operator to a
    vector that needs weights outside the determined range raises
    PrecisionExhausted.  For any vector of grade n only weights k <= 2n and
    monomials with annihilator <= n contribute, so the action is exact.
    """

    __slots__ = ("weights", "klo", "khi", "central")

    def __init__(self, weights: dict, klo: int, khi: int, central=0):
        self.weights = {k: c for k, c in weights.items() if c}
        self.klo = klo
        self.khi = khi
        self.central = central

    @staticmethod
    def zero():
        return QuadraticOperator({}, -_UNBOUNDED, _UNBOUNDED)

    def scale(self, c) -> "QuadraticOperator":
        return QuadraticOperator(
            {k: v * c for k, v in self.weights.items()}, self.klo, self.khi,
            self.central * c,
        )

    def __add__(self, other: "QuadraticOperator") -> "QuadraticOperator":
        w = dict(self.weights)
        for k, c in other.weights.items():
            _add_term(w, k, c)
        return QuadraticOperator(
            w, max(self.klo, other.klo), min(self.khi, other.khi),
            self.central + other.central,
        )

    def plus_central(self, c) -> "QuadraticOperator":
        return QuadraticOperator(self.weights, self.klo, self.khi, self.central + c)

    def monomials_for_grade(self, k: int, max_mode: int):
        """Normally ordered pairs (a, b, coeff), a <= b, a+b = k, acting
        nontrivially on vectors whose modes are bounded by max_mode."""
        out = []
        lo_b = (k + 1) // 2  # smallest b with a = k - b <= b
        for bb in range(lo_b, max_mode + 1):
            a = k - bb
            if a == 0 or bb == 0 or a > bb:
                continue
            coeff = Fraction(-1, 2) if a == bb else Fraction(-1)
            out.append((a, bb, coeff))
        return out

    def apply(self, v: OscFockVector) -> OscFockVector:
        n = v.max_mode()
        if not v:
            return OscFockVector()
        needed_hi = 2 * n
        if needed_hi >= self.khi:
            raise PrecisionExhausted(
                f"operator weights determined for k < {self.khi}, "
                f"but grade needs k <= {needed_hi}"
            )
        out = v.scale(self.central) if self.central else OscFockVector()
        for k, w in self.weights.items():
            for a, b, coeff in self.monomials_for_grade(k, n):
                cw = coeff * w
                for key, c in apply_mode(a, apply_mode(b, v)).terms.items():
                    _add_term(out.terms, key, c * cw)
        return out

    def __repr__(self):
        bits = [f"({c})·T[{k}]" for k, c in sorted(self.weights.items())]
        if self.central:
            bits.append(f"({self.central})·id")
        return " + ".join(bits) or "0"


def tau_hat_Dk(k: int) -> QuadraticOperator:
    """tau_hat of the symbolic derivation D_k (exact for every grade)."""
    return QuadraticOperator({k: 1}, -_UNBOUNDED, _UNBOUNDED)


def tau_hat_D(D: Derivation) -> QuadraticOperator:
    """tau_hat of a vertical derivation; the window of its coefficient series
    bounds the determined weight range."""
    if not D.is_vertical:
        raise ValueError("tau_hat takes a vertical derivation")
    if D.k is not None:
        return tau_hat_Dk(D.k)
    g = D.series if D.series is not None else LaurentSeries.zero()
    weights = {e - 1: c for e, c in g.coeffs.items()}
    return QuadraticOperator(weights, g.floor - 1, g.prec - 1)


def operator_equal_on_grade(p: QuadraticOperator, q, max_grade: int) -> bool:
    """Compare operators on every basis vector of grade <= max_grade; q may
    be a QuadraticOperator or a callable."""
    qf = q.apply if isinstance(q, QuadraticOperator) else q
    return all(
        p.apply(OscFockVector.basis(key)) == qf(OscFockVector.basis(key))
        for key in osc_basis(max_grade)
    )


def _virasoro_central(k: int, l: int) -> Fraction:
    """(k^3 - k)/12 delta_{k+l,0}."""
    return Fraction(k**3 - k, 12) if k + l == 0 else Fraction(0)


def virasoro_bracket(k: int, l: int, probe_grade: int):
    """Certified [tau_hat(D_k), tau_hat(D_l)] on all vectors of grade <=
    probe_grade; returns (operator, central scalar).

    The bracket is checked vector-by-vector against
    (l - k) tau_hat(D_{k+l}) + (k^3 - k)/12 delta_{k+l,0} id.
    """
    a, b = tau_hat_Dk(k), tau_hat_Dk(l)
    central = _virasoro_central(k, l)
    candidate = tau_hat_Dk(k + l).scale(l - k).plus_central(central)
    for key in osc_basis(probe_grade):
        v = OscFockVector.basis(key)
        lhs = a.apply(b.apply(v)) - b.apply(a.apply(v))
        if lhs != candidate.apply(v):
            raise AssertionError(
                f"Virasoro identity failed for (k,l)=({k},{l}) on {key}"
            )
    return candidate, central


def virasoro_sweep(kmax: int, probe_grade: int) -> list:
    """The checks of virasoro_bracket for every (k, l) with |k|, |l| <= kmax
    on every vector of grade <= probe_grade; returns the failing
    (k, l, probe key) triples in sweep order, empty when all hold.

    Per probe v: T(D_m) v once for each |m| <= 2 kmax; per unordered pair
    {k, l}: T(D_k) T(D_l) v and T(D_l) T(D_k) v once, checked for (k, l)
    and (l, k), then dropped.
    """
    ks = range(-kmax, kmax + 1)
    ops = {m: tau_hat_Dk(m) for m in range(-2 * kmax, 2 * kmax + 1)}
    failures = []
    for key in osc_basis(probe_grade):
        v = OscFockVector.basis(key)
        tv = {m: op.apply(v) for m, op in ops.items()}
        for i, k in enumerate(ks):
            for l in ks[i:]:
                kl = ops[k].apply(tv[l])
                if l == k:
                    checks = ((k, k, kl - kl),)
                else:
                    lk = ops[l].apply(tv[k])
                    checks = ((k, l, kl - lk), (l, k, lk - kl))
                for a, b, lhs in checks:
                    if lhs != tv[a + b].scale(b - a) + v.scale(_virasoro_central(a, b)):
                        failures.append((a, b, key))
    return failures


def commutator_with_multiplication(
    op: QuadraticOperator, f: LaurentSeries, v: OscFockVector
) -> OscFockVector:
    """[op, mult-by-f] applied to v."""
    return op.apply(series_multiply(f, v)) - series_multiply(f, op.apply(v))


# -- quasi-symplectic bases and lifted derivations --------------------------------


def check_quasi_symplectic(basis: dict, index_range=None, consequence_range=3) -> bool:
    """Exact check of the defining conditions on the supplied index range:
    e_0 = 1, e_i in m for i > 0, (e_i, e_j) = i delta_{i+j,0}; additionally
    verifies the topology-encoding consequence that e_i lands in m^{k+1} once
    the negative part up to N_k covers m^{-k}/O."""
    from .laurent import residue_form

    idx = sorted(index_range if index_range is not None else basis.keys())
    if 0 in idx:
        e0 = basis[0]
        if not (e0 - 1).is_zero():
            return False
    for i in idx:
        if i > 0:
            ei = basis[i]
            if ei.is_zero() or ei.ord < 1:
                return False
    for i in idx:
        for j in idx:
            if i == 0 or j == 0:
                continue
            want = i if i + j == 0 else 0
            if residue_form(basis[i], basis[j]) - want:
                return False
    # consequence: once e_{-1}..e_{-N} cover m^{-k}/O, any later e_i with
    # i > N must lie in m^{k+1}
    negs = sorted((i for i in idx if i < 0), reverse=True)
    pos = sorted(i for i in idx if i > 0)
    for k in range(1, consequence_range + 1):
        nk = None
        covered = set()
        for count, i in enumerate(negs, start=1):
            o = basis[i].ord
            if o is not None and -k <= o <= -1:
                covered.add(o)
            if {-d for d in range(1, k + 1)} <= covered:
                nk = count
                break
        if nk is None:
            continue
        for i in pos:
            if i > nk and basis[i].ord is not None and basis[i].ord < k + 1:
                return False
    return True


class LiftedDerivation:
    """Action of a derivation with horizontal part on Fock families expressed
    in a quasi-symplectic basis: tau_hat of the basis-vertical part plus
    coefficientwise horizontal derivation.

    Requires ord(e_i) = i on the supplied range, which makes the pairing
    coefficients (D e_i, e_j) vanish for i + j > -order(D) and the monomial
    enumeration exact.
    """

    def __init__(self, D: Derivation, basis: dict):
        self.D = D
        self.basis = dict(basis)
        if not check_quasi_symplectic(self.basis):
            raise BasisNotQuasiSymplectic("basis fails the defining conditions")
        for i, e in self.basis.items():
            if i != 0 and e.ord != i:
                raise BasisNotQuasiSymplectic(
                    f"lift needs ord(e_{i}) = {i}, got {e.ord}"
                )
        self._d_images = {}

    def _d_image(self, i):
        if i not in self._d_images:
            self._d_images[i] = self.D.apply(self.basis[i])
        return self._d_images[i]

    def pairing_coefficient(self, i: int, j: int):
        """(D e_i, e_j) / (i j), the tau-hat weight of :b_{-i} b_{-j}:/2."""
        from .laurent import residue_form

        return residue_form(self._d_image(i), self.basis[j]) / Fraction(i * j)

    def apply(self, family: OscFockVector) -> OscFockVector:
        n = family.max_mode()
        out = OscFockVector()
        # horizontal part: coefficientwise derivation of the family
        if self.D.horizontal:
            out = out + family.map_coefficients(self.D.apply_horizontal_scalar)
        # basis-vertical part through tau_hat: (1/2) sum c_ij :e_{-i} e_{-j}:
        dv = self.D.order()
        if dv is None and not self.D.horizontal:
            return out
        dmin = 0 if dv is None else (min(dv, 0) if self.D.horizontal else dv)
        top = -dmin + n  # (D e_i, e_j) = 0 once i + j > -dmin since ord(e_i) = i
        for i in range(-n, top + 1):
            if i == 0:
                continue
            for j in range(-n, min(top, -dmin - i) + 1):
                if j == 0:
                    continue
                if i not in self.basis or j not in self.basis:
                    raise PrecisionExhausted(
                        f"basis must cover index range [{-n}, {top}] for this grade"
                    )
                c = self.pairing_coefficient(i, j)
                if not c:
                    continue
                lo, hi = min(-i, -j), max(-i, -j)
                half = c * Fraction(1, 2)
                for key, x in apply_mode(lo, apply_mode(hi, family)).terms.items():
                    _add_term(out.terms, key, x * half)
        return out

    def realize(self, family: OscFockVector) -> OscFockVector:
        return realize_in_modes(family, self.basis)


def lift_derivation(D: Derivation, basis: dict) -> LiftedDerivation:
    return LiftedDerivation(D, basis)


def realize_in_modes(family: OscFockVector, basis: dict) -> OscFockVector:
    """Expand basis-label multisets into t-mode vectors by multiplying the
    basis series in the Fock module."""
    out = OscFockVector()
    for key, c in family.terms.items():
        v = OscFockVector.vacuum(c)
        for lab in key:
            v = series_multiply(basis[lab], v)
        out = out + v
    return out


def coefficientwise_action(D: Derivation, family: OscFockVector, basis: dict) -> OscFockVector:
    """The (double-dagger) first summand: sum over slots replacing e_{k_i} by
    D(e_{k_i}), realized in t-modes."""
    out = OscFockVector()
    for key, c in family.terms.items():
        for idx in range(len(key)):
            v = OscFockVector.vacuum(c)
            for pos in range(len(key)):
                lab = key[pos]
                f = D.apply(basis[lab]) if pos == idx else basis[lab]
                v = series_multiply(f, v)
            out = out + v
    return out
