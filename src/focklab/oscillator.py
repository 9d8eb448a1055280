"""Oscillator algebra of K = R((t)) and its Fock module.

Mode conventions: the Fock space F(K, O) is modelled by multisets of negative
mode indices acting on the generator v_0; [e_k, e_l] = k delta_{k+l,0} hbar as
forced by the residue form, hbar acts as 1, and e_0 (the unit of K) acts as 0
since the inducing character kills O.

Normally ordered quadratic operators are lazy-by-grade: for a vector of
bounded grade only finitely many monomials act, so the action is exact with
no window error; a window enters only through the coefficient series of a
derivation, and exhaustion raises instead of truncating silently.  Two
in-place kernels on integer codes (below) serve every caller: _emit_doubled
decodes a basis key once and adds 2 w T(D_k) of it to a dictionary per
target (k, w), and _emit_series adds f times it for a series f.  apply and
virasoro_sweep run on the first, series_multiply on the second, and
module_commutator_sweep, which certifies [T(D_k), t^m] = D_k(t^m), on both.

tau_hat(D_k) = -(1/2) sum_{a+b=k, a,b != 0} :e_a e_b: reproduces
[tau_hat(D_k), f] = D_k(f) and the central term (k^3 - k)/12 delta_{k+l,0}.
The coefficients -1/2 of :e_a e_a: make 2 tau_hat(D_k) the operator with
integer entries, so operators are applied doubled and halved once at the
end, key by key: the kernel visits only the monomials that act on one key.

While the kernel works, a multiset of negative modes is one int, its code:
slot b holds the multiplicity n_b of the mode -b, code = sum n_b 2^(S (b-1)),
so a monomial moves a code by adding and subtracting the codes of single
parts, with no tuple built or hashed.  The width S = top.bit_length() comes
from a bound top on the grade of every key and image of the call (grade(v)
plus the most negative weight's |k| for apply and exponent's |e| for
series_multiply, probe grade + 2 kmax for virasoro_sweep, and probe grade
plus the most negative m's and weight's |.| for module_commutator_sweep); a
multiplicity is at most the grade, below 2^S, so no slot carries.

virasoro_bracket certifies one (k, l) pair; virasoro_sweep certifies every
pair with |k|, |l| <= kmax at once.  Following the grade decomposition of the
oscillator representation (T(D_k) maps grade n to grade n - k; Kac and Raina,
Bombay Lectures, 1987), it takes one probe at a time, decodes each key once to
emit every weight's image, and sums each unordered pair in one integer
dictionary.  Every nonzero vector it compares comes from applying the
operators, never from the bracket formula.

check_quasi_symplectic reads the residue Gram of its basis lazily, in (i, j)
order; a lift pairs each (D e_i, e_j) once and keeps it beside D e_i.

No column is cached.  A cache of every (k, key) column of the sweep made
before the packing raised peak resident memory from 18 to 66 MB at grade 16
(about 11 MB more at grades 8 and 11) to save less time than the packing
saves with no memory growth.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import (
    Derivation,
    LaurentSeries,
    PrecisionExhausted,
    _UNBOUNDED,
    residue_form,
    residue_gram,
)
from .scalars import IdentityFailed
from .sparse import SparseVector, add_term


class BasisNotQuasiSymplectic(ValueError):
    """Supplied topological basis fails the quasi-symplectic conditions."""


class OscFockVector(SparseVector):
    """Finitely supported map from multisets of negative modes to scalars."""

    __slots__ = ()

    @staticmethod
    def _key(key) -> tuple:
        key = tuple(sorted(key))
        if any(k >= 0 for k in key):
            raise ValueError("modes must be negative integers")
        return key

    @staticmethod
    def vacuum(coeff=1):
        return OscFockVector({(): coeff})

    @staticmethod
    def basis(key):
        return OscFockVector({tuple(sorted(key)): 1})

    def max_mode(self) -> int:
        """Largest |mode| appearing (0 for multiples of the vacuum)."""
        return max((-min(k) for k in self.terms if k), default=0)

    def grade(self) -> int:
        return max((sum(-m for m in k) for k in self.terms), default=0)

    @staticmethod
    def _order(key):
        return -sum(key), key

    @staticmethod
    def _text(key) -> str:
        return "".join(f"e_{{{m}}}" for m in key) + "v_0"


def apply_mode(m: int, v: OscFockVector) -> OscFockVector:
    """Action of e_m: creation for m < 0, k*multiplicity annihilation of
    e_{-m} for m > 0, zero for m = 0 (the unit of K acts as 0)."""
    out = OscFockVector()
    if m == 0:
        return out
    for key, c in v.terms.items():
        if m < 0:
            add_term(out.terms, tuple(sorted(key + (m,))), c)
        else:
            n = key.count(-m)
            if not n:
                continue
            lst = list(key)
            lst.remove(-m)
            add_term(out.terms, tuple(lst), c * m * n)
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
    packing = _packing(v.grade() + max(0, -min(f.coeffs, default=0)))
    terms = [(e, c) for e, c in f.coeffs.items() if e <= n]  # a part e > n is absent
    out = {}
    for key, x in v.terms.items():
        _emit_series(_encode(key, packing), x, terms, out, packing)
    return v._like({_decode(code, packing): c for code, c in out.items()})


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


def _packing(top: int) -> tuple:
    """(S, ONE) for grades up to top: the width S = top.bit_length() (at
    least 1) and ONE[b] = 2^(S (b-1)), the code of the part b <= top."""
    s = max(top, 1).bit_length()
    return s, [0] + [1 << s * i for i in range(top)]


def _encode(key: tuple, packing) -> int:
    """The code of a mode multiset: sum of n_b 2^(S (b-1)) over its parts."""
    return sum(1 << packing[0] * (-m - 1) for m in key)


def _decode(code: int, packing) -> tuple:
    """The sorted mode multiset of a code."""
    s = packing[0]
    mask = (1 << s) - 1
    parts, b = [], 0
    while code:
        b += 1
        parts += [-b] * (code & mask)
        code >>= s
    parts.reverse()
    return tuple(parts)


def _half(c):
    """c / 2, an int when c is an even int."""
    if type(c) is int:
        return c // 2 if c % 2 == 0 else Fraction(c, 2)
    return c / 2


def _emit_doubled(code: int, x, targets, packing):
    """acc += w * x * 2 tau_hat(D_k)(code) in place for each target (k, w, acc),
    the code decoded once for all; a target (None, c, acc) is a central term,
    adding 2 c x code.  Integer w, c and x add only integers.

    2 tau_hat(D_k) = -sum_{a<b} 2 :e_a e_b: - :e_{k/2} e_{k/2}: over
    a+b = k, a, b != 0, and only the monomials that act on the key are
    visited: a part b > k becomes b - k through e_{k-b} e_b; present parts
    a = k - b and b, 0 < a <= b, are annihilated by e_a e_b; for k < 0 the
    pairs a <= b < 0 create two modes.  Taking e_b from a key holding the
    part b n times gives the factor b n.
    """
    s, one = packing
    mask = (1 << s) - 1
    parts = [(b, n) for b in range(1, code.bit_length() // s + 2) if (n := code >> s * (b - 1) & mask)]
    for k, w, acc in targets:
        wx = w * x
        if k is None:
            add_term(acc, code, 2 * wx)
            continue
        for b, n in parts:
            if b > k:
                add_term(acc, code - one[b] + one[b - k], -2 * b * n * wx)
            elif 2 * b >= k and b != k:
                a = k - b
                if a == b and n >= 2:
                    add_term(acc, code - 2 * one[b], -b * n * a * (n - 1) * wx)
                elif a != b and (na := code >> s * (a - 1) & mask):
                    add_term(acc, code - one[b] - one[a], -2 * b * n * a * na * wx)
        for b in range((k + 1) // 2, 0):
            a = k - b
            add_term(acc, code + one[-a] + one[-b], (-1 if a == b else -2) * wx)


def _emit_series(code: int, x, terms, acc: dict, packing):
    """acc += x * f * code in place, f = sum c t^e over the pairs (e, c) of
    terms: t^e creates the mode e for e < 0, takes the part e held n times
    with the factor e n for e > 0, and acts as 0 for e = 0."""
    s, one = packing
    mask = (1 << s) - 1
    for e, c in terms:
        if e < 0:
            add_term(acc, code + one[-e], x * c)
        elif e and (n := code >> s * (e - 1) & mask):
            add_term(acc, code - one[e], x * e * n * c)


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
            add_term(w, k, c)
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

    def _targets(self, acc: dict, sign=1) -> list:
        """The _emit_doubled targets that add sign * 2 * self into acc."""
        central = [(None, sign * self.central, acc)] if self.central else []
        return central + [(k, sign * w, acc) for k, w in self.weights.items()]

    def _check_determined(self, needed_hi: int):
        """Raise PrecisionExhausted unless every weight k <= needed_hi is determined."""
        if needed_hi >= self.khi:
            raise PrecisionExhausted(f"operator weights determined for k < {self.khi}, "
                                     f"but grade needs k <= {needed_hi}")

    def _add_doubled(self, terms: dict, v_codes: dict, packing):
        """terms += 2 * self * v in place, v given by its codes under packing,
        one _emit_doubled pass per code."""
        if not v_codes:
            return
        needed_hi = 2 * -(-max(v_codes).bit_length() // packing[0])  # 2 * largest mode
        self._check_determined(needed_hi)
        targets = [t for t in self._targets(terms) if t[0] is None or t[0] <= needed_hi]  # k > 2n: no monomial
        for code, x in v_codes.items():
            _emit_doubled(code, x, targets, packing)

    def apply(self, v: OscFockVector) -> OscFockVector:
        packing = _packing(v.grade() + max(0, -min(self.weights, default=0)))
        doubled = {}
        self._add_doubled(doubled, {_encode(key, packing): x for key, x in v.terms.items()}, packing)
        return v._like({_decode(code, packing): _half(c) for code, c in doubled.items()})

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
            raise IdentityFailed(
                f"Virasoro identity failed for (k,l)=({k},{l}) on {key}"
            )
    return candidate, central


def _whole(c):
    """c as an int when it is a whole number, so that comparing it with the
    integer sums of the sweep stays in int arithmetic."""
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def virasoro_sweep(kmax: int, probe_grade: int) -> list:
    """The checks of virasoro_bracket for every (k, l) with |k|, |l| <= kmax
    on every vector of grade <= probe_grade; returns the failing
    (k, l, probe key) triples in sweep order, empty when all hold.

    Per probe v, one _emit_doubled pass over its key gives 2 T(D_m) v for
    every |m| <= 2 kmax, and one pass over each key of 2 T_l v gives 2 T_k of
    it for every k != l, added with sign + into the dictionary of the pair
    (k, l) if k < l and - into that of (l, k) if k > l.  Less
    2 (l - k) (2 T_{k+l} v), the pair k < l holds when its dictionary equals
    4 central(k, l) v and (l, k) when it equals -4 central(l, k) v; both are
    integers, so on basis probes every comparison runs in ints.  A diagonal
    pair forms no product ([T_k, T_k] = 0), so it holds exactly when its
    central term vanishes.  Target lists and dictionaries are made once per
    sweep and emptied per probe.
    """
    ks = range(-kmax, kmax + 1)
    ops = {m: tau_hat_Dk(m) for m in range(-2 * kmax, 2 * kmax + 1)}
    central4 = {(k, l): _whole(4 * _virasoro_central(k, l)) for k in ks for l in ks}
    packing = _packing(probe_grade + 2 * kmax)  # T_k T_l v reaches this grade
    tv = {m: {} for m in ops}
    acc = {(k, l): {} for k in ks for l in ks if k < l}
    image_targets = [t for m, op in ops.items() for t in op._targets(tv[m])]
    pair_targets = {l: [t for k in ks if k != l for t in ops[k]._targets(
        acc[min(k, l), max(k, l)], 1 if k < l else -1)] for l in ks}
    failures = []
    for key in osc_basis(probe_grade):
        code = _encode(key, packing)
        for d in (*tv.values(), *acc.values()):
            d.clear()
        _emit_doubled(code, 1, image_targets, packing)
        for l, targets in pair_targets.items():
            for image, x in tv[l].items():
                _emit_doubled(image, x, targets, packing)
        for i, k in enumerate(ks):
            if central4[k, k]:
                failures.append((k, k, key))
            for l in ks[i + 1:]:
                pair = acc[k, l]
                c = 2 * (k - l)
                for image, x in tv[k + l].items():
                    add_term(pair, image, c * x)
                for a, b, want in ((k, l, central4[k, l]), (l, k, -central4[l, k])):
                    if pair != ({code: want} if want else {}):
                        failures.append((a, b, key))
    return failures


def module_commutator_sweep(ops: dict, ms: list, probe_grade: int) -> list:
    """The checks of [T_k, t^m] = D_k(t^m) for every operator T_k = ops[k],
    m in ms and vector of grade <= probe_grade; returns the failing
    (k, m, probe key) triples in (k, m, key) order, empty when all hold.

    Per probe v, one _emit_doubled pass gives 2 T_k v for every k; per m, one
    pass over the code of t^m v adds 2 T_k (t^m v) into the dictionary of k,
    _emit_series subtracts t^m (2 T_k v), and the result must equal
    2 D_k(t^m) v, with D_k(t^m) from Derivation.D(k).apply.  An operator not
    determined on the largest mode it meets raises PrecisionExhausted.
    """
    low_m = min(0, *ms)  # t^m v gains at most -low_m in grade and in its largest mode
    packing = _packing(probe_grade - low_m - min(0, *ops, *(k for op in ops.values() for k in op.weights)))
    for op in ops.values():
        op._check_determined(2 * max(probe_grade, -low_m))
    derived = {(k, m): [(e, 2 * _whole(c)) for e, c in Derivation.D(k).apply(LaurentSeries.t_power(m)).coeffs.items()]
               for k in ops for m in ms}
    image, comm = {k: {} for k in ops}, {k: {} for k in ops}
    image_targets = [t for k, op in ops.items() for t in op._targets(image[k])]
    comm_targets = [t for k, op in ops.items() for t in op._targets(comm[k])]
    failing = {(k, m): [] for k in ops for m in ms}
    for key in osc_basis(probe_grade):
        code = _encode(key, packing)
        for d in image.values():
            d.clear()
        _emit_doubled(code, 1, image_targets, packing)
        for m in ms:
            for d in comm.values():
                d.clear()
            f_v = {}
            _emit_series(code, 1, [(m, 1)], f_v, packing)
            for f_code, x in f_v.items():
                _emit_doubled(f_code, x, comm_targets, packing)
            for k, acc in comm.items():
                for image_code, x in image[k].items():
                    _emit_series(image_code, -x, [(m, 1)], acc, packing)
                want = {}
                _emit_series(code, 1, derived[k, m], want, packing)
                if acc != want:
                    failing[k, m].append(key)
    return [(k, m, key) for (k, m), keys in failing.items() for key in keys]


# -- quasi-symplectic bases and lifted derivations --------------------------------


def check_quasi_symplectic(basis: dict, index_range=None, consequence_range=3) -> bool:
    """Exact check of the defining conditions on the supplied index range:
    e_0 = 1, e_i in m for i > 0, (e_i, e_j) = i delta_{i+j,0}; additionally
    verifies the topology-encoding consequence that e_i lands in m^{k+1} once
    the negative part up to N_k covers m^{-k}/O."""
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
    nonzero = [i for i in idx if i]
    gram = residue_gram([basis[i] for i in nonzero])
    if any(next(gram) - (i if i + j == 0 else 0) for i in nonzero for j in nonzero):
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
        self._d_images, self._pairings = {}, {}

    def pairing_coefficient(self, i: int, j: int):
        """(D e_i, e_j) / (i j), the tau-hat weight of :b_{-i} b_{-j}:/2; each
        D e_i is applied and each pair is paired once per lift."""
        if (i, j) not in self._pairings:
            if i not in self._d_images:
                self._d_images[i] = self.D.apply(self.basis[i])
            self._pairings[i, j] = residue_form(self._d_images[i], self.basis[j]) / Fraction(i * j)
        return self._pairings[i, j]

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
                    add_term(out.terms, key, x * half)
        return out


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
