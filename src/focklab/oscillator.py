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
adds 2 w T(D_k) of each entry of a decoded column to a dictionary per target
(k, w), reading per-weight move tables built once per packing, and
_emit_series adds f times a code for a series f.  apply and virasoro_sweep
run on the first, series_multiply on the second, and module_commutator_sweep,
which certifies [T(D_k), t^m] = D_k(t^m), on both.  _emit_doubled writes
acc[t] = get(t, 0) + c inline, so an entry that cancels stays in its private
accumulator as 0 until the reader drops it; no vector ever holds a zero.

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
pair with |k|, |l| <= kmax at once, in blocks of probes (T(D_k) maps grade n
to grade n - k; Kac and Raina, Bombay Lectures, 1987) and pair by pair, in
one reused accumulator.  Every nonzero vector it compares comes from
applying the operators, never from the bracket formula.

check_quasi_symplectic reads the residue Gram of its basis lazily, in (i, j)
order; a lift pairs each (D e_i, e_j) once and keeps it beside D e_i.

No column is cached: images repeat too little to pay for one.  At grade 11
(kmax 6) the sweep's 5,595 image visits hit 3,787 distinct (l, code), and
within one probe grade an image recurs at most 1.64 times; a cache of every
(k, key) column raised peak resident memory from 18 to 66 MB at grade 16.
What the sweeps share instead is the kernel call: both run _BLOCK
consecutive probes through each call, probe i of a block tagged by i in the
bits above every slot (code | i << S max(top, 1)).  No move reaches the
tag, so every image keeps its probe's tag, _column reads parts below it, and
a verdict reads an entry's probe as t >> S max(top, 1).  Per call the
accumulators hold a block's entries, so _BLOCK stays small (see there).
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


def _tag_shift(packing) -> int:
    """S max(top, 1), the lowest bit of a probe's tag: above every slot of
    packing, so no move of the kernels reaches it."""
    return packing[0] * max(len(packing[1]) - 1, 1)


def _column(codes: dict, packing) -> list:
    """The nonzero entries of codes, decoded once for every job that reads
    them: (code, x, parts), parts a triple (b, n, -2 b n) for each part b the
    code holds n > 0 times, b ascending, read below the tag only."""
    s = packing[0]
    mask, below = (1 << s) - 1, (1 << _tag_shift(packing)) - 1
    return [(code, x, [(b, n, -2 * b * n) for b in range(1, low.bit_length() // s + 2)
                       if (n := low >> s * (b - 1) & mask)])
            for code, x in codes.items() if x for low in (code & below,)]


# B, the probes a sweep carries through the kernel at once.  A block shares
# each kernel call, and its accumulators hold B probes' entries, so B stays
# small: at (kmax, grade) = (6, 11) the traced peak of virasoro_sweep is
# 96 KiB one probe at a time, 221 KiB at B = 8 and 383 KiB at B = 16, and one
# block per probe grade reached 1.3 MB (3.4 MB at grade 14, against 268 KiB
# at B = 8).
_BLOCK = 8


def _probe_blocks(probe_grade: int, packing, moves, images: dict, targets: list):
    """The probes of grade <= probe_grade in blocks of _BLOCK consecutive
    keys in osc_basis order: yields (keys, tags), tags[i] the code of keys[i]
    with i in the bits from _tag_shift(packing) up, once one _emit_doubled
    pass through targets has refilled the dictionaries of images."""
    keys, shift = osc_basis(probe_grade), _tag_shift(packing)
    for j in range(0, len(keys), _BLOCK):
        block = keys[j:j + _BLOCK]
        tags = [_encode(key, packing) | i << shift for i, key in enumerate(block)]
        for d in images.values():
            d.clear()
        _emit_doubled([(_column(dict.fromkeys(tags, 1), packing), targets)], moves, packing)
        yield block, tags


def _moves(packing, ks) -> dict:
    """The move tables of 2 tau_hat(D_k) under packing, per weight k:
    shift[b] = ONE[b-k] - ONE[b], the code change of e_{k-b} e_b on a part
    b > k (read only there), and the creation pairs (code change, factor) of
    :e_a e_b:, a <= b < 0, a + b = k."""
    one = packing[1]
    top = len(one) - 1
    return {k: ([one[b - k] - one[b] if b > k else 0 for b in range(top + 1 + min(k, 0))],
                [(one[b - k] + one[-b], -1 if 2 * b == k else -2) for b in range((k + 1) // 2, 0)])
            for k in ks}


def _emit_doubled(jobs, moves, packing):
    """acc += w * x * 2 tau_hat(D_k)(code) in place for each job (column,
    targets), each target (k, w, acc) and each entry (code, x, parts) of the
    column; a target (None, c, acc) is a central term, adding 2 c x code.
    Integer w, c and x add only integers; an entry that cancels stays as 0.

    2 tau_hat(D_k) = -sum_{a<b} 2 :e_a e_b: - :e_{k/2} e_{k/2}: over a+b = k,
    a, b != 0, visiting only the monomials that act on the code: a part b > k
    held n times becomes b - k through e_{k-b} e_b (code + shift[b], factor
    -2 b n); present parts a = k - b and b, 0 < a <= b, are annihilated by
    e_a e_b; for k < 0 the creation pairs of moves[k] create two modes.
    """
    s, one = packing
    mask = (1 << s) - 1
    for column, targets in jobs:
        for k, w, acc in targets:
            get = acc.get
            if k is None:
                for code, x, _ in column:
                    acc[code] = get(code, 0) + 2 * w * x
                continue
            shift, create = moves[k]
            for code, x, parts in column:
                wx = w * x
                for b, n, m in parts:
                    if b > k:
                        t = code + shift[b]
                        acc[t] = get(t, 0) + m * wx
                    elif b < k <= 2 * b:  # e_a e_b, a = k - b <= b; for a = b, -b^2 n (n - 1)
                        a = k - b
                        if na := (code >> s * (a - 1) & mask) - (a == b):
                            t = code - one[a] - one[b]
                            acc[t] = get(t, 0) + m * a * na // (1 + (a == b)) * wx
                for d, f in create:
                    t = code + d
                    acc[t] = get(t, 0) + f * wx


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

    def scale(self, c) -> "QuadraticOperator":
        return QuadraticOperator(
            {k: v * c for k, v in self.weights.items()}, self.klo, self.khi,
            self.central * c,
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

    def apply(self, v: OscFockVector) -> OscFockVector:
        packing = _packing(v.grade() + max(0, -min(self.weights, default=0)))
        doubled = {}
        if v.terms:
            needed_hi = 2 * v.max_mode()
            self._check_determined(needed_hi)
            targets = [t for t in self._targets(doubled) if t[0] is None or t[0] <= needed_hi]  # k > 2n: no monomial
            column = _column({_encode(key, packing): x for key, x in v.terms.items()}, packing)
            _emit_doubled([(column, targets)], _moves(packing, self.weights), packing)
        return v._like({_decode(code, packing): _half(c) for code, c in doubled.items() if c})

    def __repr__(self):
        bits = [f"({c})·T[{k}]" for k, c in sorted(self.weights.items())]
        if self.central:
            bits.append(f"({self.central})·id")
        return " + ".join(bits) or "0"


def tau_hat_Dk(k: int) -> QuadraticOperator:
    """tau_hat of the symbolic derivation D_k (exact for every grade)."""
    return QuadraticOperator({k: 1}, -_UNBOUNDED, _UNBOUNDED)


def tau_hat_D(D: Derivation) -> QuadraticOperator:
    """tau_hat of D = g d/dt; the window of g bounds the determined weights."""
    if D.k is not None:
        return tau_hat_Dk(D.k)
    g = D.series
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

    The probes run in tagged blocks (_probe_blocks), so each kernel call
    serves a whole block.  Per block, one _emit_doubled pass gives 2 T(D_m) v
    for every m = k or k + l and every probe v, and each image of |m| <= kmax
    is decoded once.  Then, per pair k < l, one kernel call adds
    2 T_k (2 T_l v) - 2 T_l (2 T_k v) to the reused accumulator, the sweep
    adds -2 (l - k) (2 T_{k+l} v), and one pass checks it: (k, l) holds on v
    when the entries tagged with v's index equal 4 central(k, l) v, (l, k)
    when they equal -4 central(l, k) v, both integers: the entry at v's own
    tagged code is popped and compared, and any other nonzero entry t fails
    probe t >> tag in both orders.  A diagonal pair forms no product
    ([T_k, T_k] = 0), so it holds exactly when its central term vanishes.
    Each block's failures are listed probe by probe, in sweep order.
    """
    ks = range(-kmax, kmax + 1)
    top_m = max(2 * kmax - 1, kmax)  # the largest |k| and |k + l|, k < l
    ops = {m: tau_hat_Dk(m) for m in range(-top_m, top_m + 1)}
    central4 = {(k, l): _whole(4 * _virasoro_central(k, l)) for k in ks for l in ks}
    packing = _packing(probe_grade + 2 * kmax)  # T_k T_l v reaches this grade
    moves = _moves(packing, {k for op in ops.values() for k in op.weights})
    tv, acc = {m: {} for m in ops}, {}
    image_targets = [t for m, op in ops.items() for t in op._targets(tv[m])]
    rows = [(k, central4[k, k], [(l, ops[k]._targets(acc), ops[l]._targets(acc, -1), 2 * (k - l),
                                  central4[k, l], -central4[l, k]) for l in ks if l > k]) for k in ks]
    failures, get, shift = [], acc.get, _tag_shift(packing)
    for block, tags in _probe_blocks(probe_grade, packing, moves, tv, image_targets):
        cols = {m: _column(tv[m], packing) for m in ks}
        found = [[] for _ in block]
        for k, diagonal, pairs in rows:
            if diagonal:
                for out, key in zip(found, block):
                    out.append((k, k, key))
            for l, plus_k, minus_l, c, want_kl, want_lk in pairs:
                acc.clear()
                _emit_doubled(((cols[l], plus_k), (cols[k], minus_l)), moves, packing)
                for image, x in tv[k + l].items():
                    acc[image] = get(image, 0) + c * x
                at = [acc.pop(t, 0) for t in tags]
                if any(acc.values()) or want_kl != want_lk or at.count(want_kl) < len(at):
                    bad = {t >> shift for t, x in acc.items() if x}
                    for i, key in enumerate(block):
                        if i in bad or at[i] != want_kl:
                            found[i].append((k, l, key))
                        if i in bad or at[i] != want_lk:
                            found[i].append((l, k, key))
        for out in found:
            failures += out
        cols.clear()  # before the next block's image pass, so the peak holds one block's columns
    return failures


def module_commutator_sweep(ops: dict, ms: list, probe_grade: int) -> list:
    """The checks of [T_k, t^m] = D_k(t^m) for every operator T_k = ops[k],
    m in ms and vector of grade <= probe_grade; returns the failing
    (k, m, probe key) triples in (k, m, key) order, empty when all hold.

    The probes run in tagged blocks (_probe_blocks), as in virasoro_sweep.
    Per block, one _emit_doubled pass gives 2 T_k v for every k and probe v;
    per m, one pass over the codes of every t^m v adds 2 T_k (t^m v) into the
    dictionary of k, and _emit_series subtracts t^m (2 T_k v) and
    2 D_k(t^m) v, with D_k(t^m) from Derivation.D(k).apply.  Any nonzero
    entry t left fails probe t >> tag.  An operator not determined on the
    largest mode it meets raises PrecisionExhausted.
    """
    low_m = min(0, *ms)  # t^m v gains at most -low_m in grade and in its largest mode
    packing = _packing(probe_grade - low_m - min(0, *ops, *(k for op in ops.values() for k in op.weights)))
    for op in ops.values():
        op._check_determined(2 * max(probe_grade, -low_m))
    top = len(packing[1]) - 1  # no code holds a part e > top, so t^e acts as 0 and must not read the tag
    derived = {(k, m): [(e, -2 * _whole(c)) for e, c in Derivation.D(k).apply(LaurentSeries.t_power(m)).coeffs.items()
                        if e <= top] for k in ops for m in ms}
    moves = _moves(packing, {k for op in ops.values() for k in op.weights})
    image, comm = {k: {} for k in ops}, {k: {} for k in ops}
    image_targets = [t for k, op in ops.items() for t in op._targets(image[k])]
    comm_targets = [t for k, op in ops.items() for t in op._targets(comm[k])]
    failing, shift = {(k, m): [] for k in ops for m in ms}, _tag_shift(packing)
    for block, tags in _probe_blocks(probe_grade, packing, moves, image, image_targets):
        for m in ms:
            for d in comm.values():
                d.clear()
            f_v, t_m = {}, [(m, 1)] if m <= top else []
            for tag in tags:
                _emit_series(tag, 1, t_m, f_v, packing)
            _emit_doubled([(_column(f_v, packing), comm_targets)], moves, packing)
            for k, acc in comm.items():
                for image_code, x in image[k].items():
                    _emit_series(image_code, -x, t_m, acc, packing)
                for tag in tags:
                    _emit_series(tag, 1, derived[k, m], acc, packing)
                failing[k, m] += [block[i] for i in sorted({t >> shift for t, c in acc.items() if c})]
    return [(k, m, key) for (k, m), keys in failing.items() for key in keys]


# -- quasi-symplectic bases and lifted derivations --------------------------------


def check_quasi_symplectic(basis: dict) -> bool:
    """Exact check of the defining conditions on the basis's indices: e_0 = 1,
    e_i in m for i > 0, (e_i, e_j) = i delta_{i+j,0}.  They imply that e_i
    lies in m^{k+1} once e_{-1}..e_{-N} cover m^{-k}/O and i > N: an e_i of
    order o <= k pairs with the e_{-j} (j <= N) of order -o to
    o lead(e_i) lead(e_{-j}) != 0, where the Gram needs 0 as i != j."""
    idx = sorted(basis)
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
    return not any(next(gram) - (i if i + j == 0 else 0) for i in nonzero for j in nonzero)


class LiftedDerivation:
    """tau_hat of a derivation D = g d/dt on Fock families expressed in a
    quasi-symplectic basis: (1/2) sum c_ij :e_{-i} e_{-j}: with c_ij =
    (D e_i, e_j) / (i j).

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
        """(D e_i, e_j) / (2 i j), the tau-hat weight of :b_{-i} b_{-j}:, halved
        once when cached; each D e_i is applied and each pair is paired once
        per lift."""
        if (i, j) not in self._pairings:
            if i not in self._d_images:
                self._d_images[i] = self.D.apply(self.basis[i])
            self._pairings[i, j] = residue_form(self._d_images[i], self.basis[j]) / Fraction(2 * i * j)
        return self._pairings[i, j]

    def apply(self, family: OscFockVector) -> OscFockVector:
        n = family.max_mode()
        out = OscFockVector()
        dv = self.D.order()
        if dv is None:
            return out
        top = -dv + n  # (D e_i, e_j) = 0 once i + j > -dv since ord(e_i) = i
        for i in range(-n, top + 1):
            if i == 0:
                continue
            for j in range(-n, min(top, -dv - i) + 1):
                if j == 0:
                    continue
                if i not in self.basis or j not in self.basis:
                    raise PrecisionExhausted(
                        f"basis must cover index range [{-n}, {top}] for this grade"
                    )
                half = self.pairing_coefficient(i, j)
                if not half:
                    continue
                lo, hi = min(-i, -j), max(-i, -j)
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
