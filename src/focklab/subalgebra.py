"""Fock-type subalgebras A of K = R((t)), symplectic quotients and covariants.

A subalgebra is stored as an order-echelon basis: one element per occurring
order, which makes per-degree independence structural and membership testing
a certified leading-term reduction.  All claims carry the window they were
proved in; a nonzero remainder coefficient inside a valid window certifies
non-membership exactly.

FockSubalgebra.certify decides FT1-FT4 through `member(f) -> True | False |
None`.  The FT4 rule: an image that `member` cannot decide counts under
`unchecked` and clears its flag, unless the map is a Derivation D whose own
order puts the image past the bound, -(ord f + ord D) > degree_bound.  Such
an image lies outside D(A_{<=N+ord D}) in A, the statement the window
determines; it still counts under `unchecked` but leaves the flag alone.  A
flag that no decided nonzero image supports reads None (undetermined): a zero
image, such as D(1) = 0, proves nothing.

The symplectic quotient H_A = A-perp / A is built following the lift recipe:
choose negative lifts spanning K/(A+O), correct them to make A + sum(R e_{-i})
totally isotropic (the correction lives in A-perp intersect m, which pairs
nondegenerately with the lifts), then normalize positive lifts e_i in m with
(e_i, e_j) = i delta_{i+j,0}.  Covariants kill every A-factor; the induced
operators of vertical derivations preserving A act on them by a certified,
probe-independent scalar.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import Derivation, LaurentSeries, WindowTooNarrow, residue_form
from .linalg import ExactMatrix
from .fock import FockVector, standard_space
from .oscillator import OscFockVector, realize_in_modes, tau_hat_D
from .sparse import SparseVector, add_term


class NoIsotropicLift(ValueError):
    """Quotient construction failed; signals an FT-condition failure upstream."""


class NotReduced(ValueError):
    """Vector contains positive modes; apply the module action first."""


class NotScalar(ValueError):
    """The induced action on covariants is not a scalar; carries witnesses."""


# -- order-echelon bookkeeping --------------------------------------------------


def echelonize(elements):
    """Return dict ord -> series with distinct orders, reducing collisions."""
    by_ord: dict = {}
    for f in reversed(list(elements)):
        f, _ = echelon_reduce(f, by_ord)
        if f:
            by_ord[f.ord] = f
    return by_ord


def echelon_reduce(f: LaurentSeries, by_ord: dict):
    """Subtract echelon elements to push ord(f) out of the order set.

    Returns (remainder, coefficients used per order).  A nonzero remainder
    coefficient inside its window certifies that f is not in the span.
    """
    coeffs: dict = {}
    while f and f.ord in by_ord:
        b = by_ord[f.ord]
        q = f.coeffs[f.ord] / b.coeffs[b.ord]
        f = f - b.scale(q)
        coeffs[b.ord] = coeffs.get(b.ord, 0) + q
    return f, coeffs


def span_membership(f: LaurentSeries, by_ord: dict):
    """True / False / None: None when the remainder's order is deeper than
    the stored echelon reaches, so the window cannot decide."""
    rem, _ = echelon_reduce(f, by_ord)
    if rem.is_zero():
        return True
    if rem.ord < min(by_ord):
        return None
    return False


class FockSubalgebra:
    """Subalgebra given by an order-echelon basis within a window.

    degree_bound is the largest represented pole order; window the ambient
    prec used for arithmetic.  Certification is produced by `certify`.
    """

    def __init__(self, basis, window: int, degree_bound: int):
        self.by_ord = echelonize(basis)
        if any(o > 0 for o in self.by_ord):
            raise ValueError("subalgebra elements must have order <= 0")
        if 0 not in self.by_ord:
            raise ValueError("the unit (order 0) must be present")
        self.window = window
        self.degree_bound = degree_bound

    def basis_elements(self):
        return [self.by_ord[o] for o in sorted(self.by_ord, reverse=True)]

    def missing_orders(self):
        """Negative orders not realized by A within the degree bound; these
        index a basis of K/(A+O)."""
        return [
            -d for d in range(1, self.degree_bound + 1) if -d not in self.by_ord
        ]

    def quotient_rank(self) -> int:
        return len(self.missing_orders())

    def member(self, f):
        """True / False / None: `span_membership` in the stored echelon."""
        return span_membership(f, self.by_ord)

    def certify(self, derivations: dict, perp_reps=()) -> dict:
        """Certified FT checks within the window, for the named maps in
        derivations.

        FT1 is not machine-checkable (flatness / finite type); the surrogate
        checks that each product of two basis elements lies in A, skipping
        before multiplying a product whose pole orders add up past the bound.
        FT3 is isotropy of the basis; FT4 follows the rule of the module doc.
        """
        bound = self.degree_bound
        record = {
            "window": self.window,
            "degree_bound": bound,
            "ft1_surrogate": {"independent_per_degree": True, "products_in_A": True},
            # A cap O = R: the echelon has exactly the unit at order >= 0
            "ft2": {
                "A_cap_O_is_R": set(o for o in self.by_ord if o >= 0) == {0},
                "quotient_rank": self.quotient_rank(),
            },
            "ft3": True,
            "ft4": {},
        }
        basis = self.basis_elements()
        for i, a in enumerate(basis):
            for b in basis[i:]:
                if residue_form(a, b):
                    record["ft3"] = False
                if -(a.ord + b.ord) <= bound and self.member(a * b) is not True:
                    record["ft1_surrogate"]["products_in_A"] = False
        for name, d in derivations.items():
            apply = d.apply if isinstance(d, Derivation) else d if callable(d) else None
            n = d.order() if isinstance(d, Derivation) else None
            entry = {"preserves_A": True, "maps_perp_to_A": True, "unchecked": 0}
            for flag, fs in (("preserves_A", basis), ("maps_perp_to_A", perp_reps)):
                supported = False
                for f in fs:
                    img = None if apply is None else apply(f)
                    verdict = None if img is None else self.member(img)
                    if verdict is None:
                        entry["unchecked"] += 1
                        if n is not None and -(f.ord + n) > bound:
                            continue  # D(f) lies past the bound by D's own order
                    if verdict is not True:
                        entry[flag] = False
                    supported |= verdict is True and not img.is_zero()
                entry[flag] = entry[flag] and (supported or None)  # None: nothing certified
            record["ft4"][name] = entry
        return record


def genus0_subalgebra(window: int, degree_bound: int) -> FockSubalgebra:
    """The polynomial subalgebra C[t^{-1}] of the one-point genus-0 model."""
    basis = [LaurentSeries.t_power(-k) for k in range(degree_bound + 1)]
    return FockSubalgebra(basis, window, degree_bound)


# -- A-perp ----------------------------------------------------------------------


def compute_perp(a_sub: FockSubalgebra, lo: int, hi: int):
    """Degree-filtered basis of the A-perp solution space on the coordinate
    window [lo, hi).

    Constraints come from basis elements whose pole order is below hi (deeper
    elements pair with the unknown tail, so including them would wrongly
    discard truncations of genuine A-perp elements); the returned basis drops
    leading orders hi - 2 and hi - 1, a guard zone where the window cannot
    distinguish junk from truncations.
    """
    unknowns = list(range(lo, hi))
    rows = []
    for o in sorted(a_sub.by_ord):
        a = a_sub.by_ord[o]
        if -o > hi - 1:
            continue
        if a.prec <= -lo:
            raise WindowTooNarrow(
                f"basis window prec={a.prec} too small for perp range [{lo},{hi})"
            )
        # (f, a) = res(a df) = sum_e c_e * e * [coeff of t^{-e} in a]
        rows.append([Fraction(e) * a.coeffs.get(-e, 0) for e in unknowns])
    kernel = ExactMatrix(rows).kernel() if rows else []
    series = [
        LaurentSeries(lo, hi, {e: c for e, c in zip(unknowns, vec)}) for vec in kernel
    ]
    filtered = [
        f for f in echelonize(series).values() if f.ord is not None and f.ord < hi - 2
    ]
    return sorted(filtered, key=lambda f: f.ord)


# -- the symplectic quotient ------------------------------------------------------


class QuotientSymplectic:
    """Lifts e_{-g}..e_{-1}, e_1..e_g in A-perp with (e_i, e_j) = i d_{i+j,0},
    e_i in m for i > 0, and A + span(e_{-i}) totally isotropic."""

    def __init__(self, a_sub: FockSubalgebra, neg_lifts, pos_lifts):
        self.a_sub = a_sub
        self.neg_lifts = list(neg_lifts)  # e_{-1} first
        self.pos_lifts = list(pos_lifts)
        self.g = len(neg_lifts)
        self._verify()
        # the K^- echelon uses A-reduced representatives (same classes; the
        # choice of lift only changes them by A-elements)
        self.kminus_by_ord = dict(a_sub.by_ord)
        self._lift_order: dict = {}
        for i, e in enumerate(self.neg_lifts):
            rep, _ = echelon_reduce(e, a_sub.by_ord)
            if rep.ord is None or rep.ord in self.kminus_by_ord or rep.ord > 0:
                raise NoIsotropicLift("negative lifts must fill the missing orders")
            self.kminus_by_ord[rep.ord] = rep
            self._lift_order[rep.ord] = i + 1
        # the target of covariants, built and certified once per quotient
        self._covariant_space = standard_space(max(self.g, 1))

    def _verify(self):
        idx = list(range(-self.g, 0)) + list(range(1, self.g + 1))
        gram = self.gram()
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                want = i if i + j == 0 else 0
                if gram[a, b] - want:
                    raise NoIsotropicLift(
                        f"Gram entry ({i},{j}) is {gram[a, b]}, expected {want}"
                    )
        for pos, neg in zip(self.pos_lifts, self.neg_lifts):
            if pos.ord is None or pos.ord < 1:
                raise NoIsotropicLift("positive lifts must lie in m")
            for a in self.a_sub.basis_elements():
                if residue_form(pos, a) or residue_form(neg, a):
                    raise NoIsotropicLift("lifts must be perpendicular to A")

    def gram(self) -> ExactMatrix:
        """Residue pairings of the lifts e_{-g}, ..., e_{-1}, e_1, ..., e_g."""
        lifts = self.neg_lifts[::-1] + self.pos_lifts
        return ExactMatrix([[residue_form(a, b) for b in lifts] for a in lifts])


def build_quotient(a_sub: FockSubalgebra) -> QuotientSymplectic:
    """Construct the quotient lifts from A alone, per the explicit recipe."""
    perp = compute_perp(a_sub, -a_sub.degree_bound, min(a_sub.window, a_sub.degree_bound + 1))
    neg, pos = [], []
    for f in perp:
        rem, _ = echelon_reduce(f, a_sub.by_ord)
        if rem.is_zero():
            continue  # in A
        (neg if rem.ord < 0 else pos).append(rem)
    # Remainders of order -1 need not be proportional (y^2 = x^3 + x + 1), so
    # echelonizing them can cancel every pole; such a combination is not a
    # negative class and joins the positive candidates.
    neg = echelonize(neg)
    for o in [o for o in neg if o >= 0]:
        rem, _ = echelon_reduce(neg.pop(o), a_sub.by_ord)
        if rem:
            pos.append(rem)
    neg = [neg[o] for o in sorted(neg, reverse=True)]
    pos = echelonize(pos)
    pos = [pos[o] for o in sorted(pos)]
    g = a_sub.quotient_rank()
    if len(neg) != g:
        raise NoIsotropicLift(
            f"found {len(neg)} negative classes, expected quotient rank {g}"
        )
    if len(pos) < g:
        raise NoIsotropicLift(f"found {len(pos)} positive classes, need {g}")
    pos = pos[:g]
    if g == 0:
        return QuotientSymplectic(a_sub, [], [])
    # isotropy correction of the negative lifts by positive ones
    b = ExactMatrix([[residue_form(x, y) for y in neg] for x in neg])
    p = ExactMatrix([[residue_form(x, f) for f in pos] for x in neg])
    gamma = b * p.inverse().transpose() * Fraction(1, 2)
    corrected = [sum((pos[k].scale(gamma[i, k]) for k in range(g)), neg[i]) for i in range(g)]
    # normalize positive lifts: (e_i, e_{-j}) = i delta_{ij}
    q = ExactMatrix([[residue_form(f, e) for e in corrected] for f in pos])
    mu = ExactMatrix(
        [[Fraction(i + 1) if i == j else Fraction(0) for j in range(g)] for i in range(g)]
    ) * q.inverse()
    zero = LaurentSeries.zero(pos[0].prec)
    pos_norm = [sum((pos[k].scale(mu[i, k]) for k in range(g)), zero) for i in range(g)]
    return QuotientSymplectic(a_sub, corrected, pos_norm)


# -- covariants --------------------------------------------------------------------


class KMinusVector(SparseVector):
    """Element of Sym(K^-): multisets over labels ('a', ord) and ('q', i)."""

    __slots__ = ()

    @staticmethod
    def vacuum(coeff=1):
        return KMinusVector({(): coeff})

    def prepend(self, label):
        return self._like({tuple(sorted(k + (label,))): c for k, c in self.terms.items()})


def label_series(q: QuotientSymplectic, label) -> LaurentSeries:
    kind, v = label
    if kind == "a":
        return q.a_sub.by_ord[v]
    return q.neg_lifts[v - 1]


def realize_kminus(q: QuotientSymplectic, kv: KMinusVector) -> OscFockVector:
    """Multiply out the label series in the Fock module (t-mode model)."""
    labels = {lab for key in kv.terms for lab in key}
    return realize_in_modes(kv, {lab: label_series(q, lab) for lab in labels})


def mode_reduce(q: QuotientSymplectic, v: OscFockVector) -> KMinusVector:
    """Rewrite a t-mode Fock vector in the Sym(K^-) model, exactly within the
    stored windows.

    Each mode t^{-k} splits as (K^- part) + (m part); the m part kills v_0 and
    contributes only mode commutators, which lowers the grade, so the
    recursion terminates.
    """
    for key in v.terms:
        if any(m >= 0 for m in key):
            raise NotReduced("apply the module action to positive modes first")
    out = KMinusVector()
    for key, c in v.terms.items():
        out = out + _reduce_monomial(q, key, c)
    return out


def _reduce_monomial(q: QuotientSymplectic, key, coeff) -> KMinusVector:
    if not key:
        return KMinusVector.vacuum(coeff)
    k0 = key[0]  # most negative mode
    rest = key[1:]
    mode = LaurentSeries.t_power(k0)
    mu, used = echelon_reduce(mode, q.kminus_by_ord)
    # mu is the m-part: echelon orders cover every order <= 0
    if mu and mu.ord is not None and mu.ord <= 0:
        raise NoIsotropicLift("K^- echelon does not complement m")
    out = KMinusVector()
    reduced_rest = _reduce_monomial(q, rest, coeff)
    for o, c in used.items():
        label = ("q", q._lift_order[o]) if o in q._lift_order else ("a", o)
        out = out + reduced_rest.scale(c).prepend(label)
    # m-part: commutators with the remaining modes
    if mu:
        for idx in range(len(rest)):
            m = rest[idx]
            pair = residue_form(mu, LaurentSeries.t_power(m))
            if pair:
                out = out + _reduce_monomial(
                    q, rest[:idx] + rest[idx + 1:], coeff * pair
                )
    return out


def covariants(q: QuotientSymplectic, kv: KMinusVector) -> FockVector:
    """Functorial quotient map to F(H_A, F_A): A-factors kill the monomial,
    quotient labels map to the corresponding generators of Sym(F_A-bar)."""
    out = FockVector(q._covariant_space)
    for key, c in kv.terms.items():
        if any(kind == "a" for kind, _v in key):
            continue
        add_term(out.terms, tuple(sorted(-idx for _kind, idx in key)), c)
    return out


def covariants_of_modes(q: QuotientSymplectic, v: OscFockVector) -> FockVector:
    return covariants(q, mode_reduce(q, v))


def scalar_action(D: Derivation, q: QuotientSymplectic, probes):
    """Certified scalar of the induced action of tau_hat(D) on covariants.

    D is expected to preserve A (certify with FT4).  Probes are KMinusVector
    instances with nonzero covariant image; the same scalar must work for all
    of them, else NotScalar reports two witnesses.
    """
    op = tau_hat_D(D)
    scalar = None
    witness = None
    for probe in probes:
        realized = realize_kminus(q, probe)
        image = covariants_of_modes(q, op.apply(realized))
        base = covariants(q, probe)
        if not base:
            continue
        # solve image == lam * base on the leading key
        key = next(iter(base.terms))
        top, bottom = image.terms.get(key, 0), base.terms[key]
        if isinstance(top, int) and isinstance(bottom, int):
            lam = Fraction(top, bottom)  # int / int would give a float
        else:
            lam = top / bottom
        if image != base.scale(lam):
            raise NotScalar(f"action is not scalar on probe {probe}")
        if scalar is None:
            scalar, witness = lam, probe
        elif lam - scalar:
            raise NotScalar(
                f"probe {witness} gives {scalar} but probe {probe} gives {lam}"
            )
    if scalar is None:
        raise ValueError("no probe had nonzero covariant image")
    return scalar
