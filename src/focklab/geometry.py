"""One-puncture hyperelliptic models at a Weierstrass point.

The affine curve y^2 = f(x), deg f = 2g+1 with distinct roots, is expanded in
the local coordinate t with x = t^{-2} and y = t^{-1-2g} u(t^2)^{-1}, where
u = (t^{2g+1} f(1/t))^{-1/2} is a unit.  From the expansions:

    A_p      = C[x] + C[x] y                      (functions on the affine curve)
    omega(C) = <1, t^2, ..., t^{2g-2}> u(t^2) dt  (holomorphic differentials)
    phi_{2i-1} primitives with phi' = u(t^2) t^{2i-2}, i = 1-g .. g
    K^-      = A_p + span(phi_{-1}, phi_{-3}, ..., phi_{1-2g})

A rational f keeps the model in Q, where laurent runs in integers: one square
root r = sqrt(w) = 1/u of w(t) = t^{2g+1} f(1/t), one inverse, u = r/w, and y
read off r(t^2).  The tangent field 2y d/dx + f'(x) d/dy reads D(t) =
-t^{2-2g} u(t^2)^{-1} = -t^3 y and preserves A_p; its A_p-multiples supply
vertical derivations for the FT4 and scalar-action checks.  The residue Gram
of a vertical derivation against the holomorphic basis is symmetric by
selfadjointness, and with de_j = j omega_j the per-entry sign identity is
res(e_j d(D e_i)) = -i j res(<D,omega_i> omega_j).
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import (
    Derivation,
    LaurentSeries,
    integrate,
    pairing_with_form,
    residue,
    residue_form,
)
from .linalg import ExactMatrix
from .scalars import QQ, GaussianRational, IdentityFailed, InvalidParameters, NotASquare
from .subalgebra import FockSubalgebra, echelon_reduce, echelonize


class WrongDegree(InvalidParameters):
    pass


class RepeatedRoots(InvalidParameters):
    pass


def _resultant(p: dict, q: dict):
    """Resultant of two polynomials {power: coefficient} of degrees m, n >= 0:
    the determinant of their (m + n) x (m + n) Sylvester matrix."""
    m, n = max(p), max(q)
    rows = [[p.get(m - c + r, 0) for c in range(m + n)] for r in range(n)]
    rows += [[q.get(n - c + r, 0) for c in range(m + n)] for r in range(m)]
    return ExactMatrix(rows).det()


# -- the model ---------------------------------------------------------------------


class HyperellipticModel:
    def __init__(self, f_coeffs, genus: int, window: int):
        """f_coeffs[k] is the x^k coefficient of f; deg f = 2g+1 and the
        leading coefficient must be an exact square (1 for monic f)."""
        convert = GaussianRational.coerce if any(isinstance(c, GaussianRational) for c in f_coeffs) else QQ.convert
        self.f = {k: convert(c) for k, c in enumerate(f_coeffs) if c}
        self.g = genus
        self.window = window
        deg = max(self.f, default=None)  # the zero polynomial has none
        if deg != 2 * genus + 1:
            raise WrongDegree(f"deg f = {deg}, expected {2 * genus + 1}")
        try:
            GaussianRational.coerce(self.f[deg]).sqrt()
        except NotASquare:
            raise InvalidParameters(f"the leading coefficient {self.f[deg]} of f is not an exact square") from None
        # f and f' share a root exactly when their resultant vanishes
        if not _resultant(self.f, {k - 1: c * k for k, c in self.f.items() if k}):
            raise RepeatedRoots("gcd(f, f') is not constant")
        # w = t^{2g+1} f(1/t): exact polynomial with w(0) = leading coefficient
        w = LaurentSeries.polynomial({2 * genus + 1 - k: c for k, c in self.f.items()})
        # u = root/w: 1/w keeps w's small denominators, where 1/root would carry root's
        root = w.sqrt_unit(prec=window)
        self.u = root * w.inv(prec=window)
        self.u2 = self.u.compose_monomial(2).truncate(window)
        self.x = LaurentSeries.t_power(-2)
        self.y = root.compose_monomial(2).truncate(window).shift(-1 - 2 * genus)
        self._validate()

    def _validate(self):
        fx = LaurentSeries.polynomial({-2 * k: c for k, c in self.f.items()})
        if not (self.y * self.y - fx).is_zero():
            raise IdentityFailed("y(t)^2 != f(x(t)) within the window")
        if not (self.u2 * self.y - LaurentSeries.t_power(-1 - 2 * self.g)).is_zero():
            raise IdentityFailed("u(t^2) y(t) != t^(-1-2g) within the window")
        if self.u.coefficient(0) * self.u.coefficient(0) * self.f[2 * self.g + 1] != 1:
            raise IdentityFailed("u(0)^2 * lead(f) != 1")

    def omega_coefficient(self, i: int) -> LaurentSeries:
        """Coefficient series of omega_i = u(t^2) t^{2i-2} dt."""
        return self.u2.shift(2 * i - 2)

    def phi(self, i: int) -> LaurentSeries:
        """phi_{2i-1}: the primitive of u(t^2) t^{2i-2} with zero constant."""
        return integrate(self.omega_coefficient(i))

    def tangent_field(self) -> Derivation:
        """The vector field 2y d/dx + f'(x) d/dy in the local coordinate:
        dx/dt = -2 t^-3, so 2y d/dx = -t^3 y d/dt."""
        return Derivation.from_series(self.y.shift(3).scale(-1))


def build_model(f_coeffs, genus: int, window: int) -> HyperellipticModel:
    return HyperellipticModel(f_coeffs, genus, window)


# -- derived bases ------------------------------------------------------------------


class CurveFockData:
    """Graded bases of A_p, omega(C), the phi-primitives and K^-."""

    def __init__(self, model: HyperellipticModel, degree_bound: int):
        self.model = model
        self.degree_bound = degree_bound
        g = model.g
        # x^k (degree 2k), then x^k y (degree 2k + 2g + 1), up to the bound
        self.a_basis = [LaurentSeries.t_power(-2 * k).truncate(model.window) for k in range(degree_bound // 2 + 1)]
        self.a_basis += [model.y.shift(-2 * k) for k in range((degree_bound - 2 * g - 1) // 2 + 1)]
        self.phis = {2 * i - 1: model.phi(i) for i in range(1 - g, g + 1)}
        self.omega_curve = [model.omega_coefficient(i) for i in range(1, g + 1)]
        self.kminus_extra = [self.phis[1 - 2 * i] for i in range(1, g + 1)]
        self.b_basis = self.a_basis + list(self.phis.values())

    def subalgebra(self) -> FockSubalgebra:
        return FockSubalgebra(self.a_basis, self.model.window, self.degree_bound)

    def residue_gram_mod_A(self) -> ExactMatrix:
        """Residue Gram on the phi-classes modulo A_p (rank 2g, antisymmetric,
        with the holomorphic part isotropic)."""
        phis = [self.phis[k] for k in sorted(self.phis)]
        return ExactMatrix(
            [[residue_form(a, b) for b in phis] for a in phis]
        )


def curve_fock_data(model: HyperellipticModel, degree_bound: int) -> CurveFockData:
    data = CurveFockData(model, degree_bound)
    # A_p pairs to zero with every B_p element (Fock-type isotropy statement)
    for a in data.a_basis:
        for b in data.b_basis:
            if residue_form(b, a):
                raise IdentityFailed("A_p is not perpendicular to B_p")
    return data


# -- non-closure witness -------------------------------------------------------------


def closure_falsifier(model: HyperellipticModel, data: CurveFockData | None = None):
    """Search K^- products for one that leaves K^-.

    Returns a dict witness with the factor descriptions and the certified
    remainder, or None when the bounded search finds nothing (reported as
    skipped upstream, never as a silent pass).
    """
    if model.g < 1:
        raise ValueError("genus must be >= 1")
    if data is None:
        data = curve_fock_data(model, degree_bound=4 * model.g + 4)
    kminus = echelonize(data.a_basis + data.kminus_extra)
    candidates = []
    for i in range(1, model.g + 1):
        candidates.append((f"phi_{1 - 2 * i}", data.phis[1 - 2 * i]))
    for k, a in enumerate(data.a_basis[:3]):
        candidates.append((f"A_basis[{k}]", a))
    for idx1, (n1, f1) in enumerate(candidates):
        for n2, f2 in candidates[idx1:]:
            prod = f1 * f2
            rem, _ = echelon_reduce(prod, kminus)
            # a nonzero remainder of positive order is a certificate: every
            # nonzero element of K^- has order <= 0
            if rem and rem.ord >= 1:
                return {
                    "left": n1,
                    "right": n2,
                    "remainder_order": rem.ord,
                    "remainder_leading": rem.coeffs[rem.ord],
                    "window": rem.prec,
                }
    return None


# -- the residue Gram of the connection operator --------------------------------------


def wzw_gram_entries(model: HyperellipticModel, D: Derivation):
    """(M, sign_witness) for a derivation D, with
    M_ij = res(<D, omega_i> omega_j) / (i j), omega_i = model.omega_coefficient(i).

    sign_witness is None when the per-entry sign identity
    res(e_j d(D e_i)) = -i j res(<D,omega_i> omega_j), e_j = j phi_{2j-1} (so
    that de_j = j omega_j), holds at every entry, and otherwise describes the
    first entry where it fails.  Symmetry of M is left to the caller.
    """
    g = model.g
    omegas = [model.omega_coefficient(i) for i in range(1, g + 1)]
    e = [model.phi(j).scale(j) for j in range(1, g + 1)]
    m = [[None] * g for _ in range(g)]
    witness = None
    for i in range(1, g + 1):
        d_omega, d_e = pairing_with_form(D, omegas[i - 1]), D.apply(e[i - 1])
        for j in range(1, g + 1):
            raw = residue(d_omega * omegas[j - 1])
            m[i - 1][j - 1] = raw * Fraction(1, i * j)
            lhs = residue_form(d_e, e[j - 1])
            if witness is None and lhs + Fraction(i * j) * raw:
                witness = (
                    f"sign identity failed at entry ({i},{j}): "
                    f"res(e_j d(De_i)) = {lhs}, -ij res(<D,w_i>w_j) = {-Fraction(i*j)*raw}"
                )
    return ExactMatrix(m), witness


def wzw_gram(model: HyperellipticModel, D: Derivation) -> ExactMatrix:
    """M_ij = res(<D, omega_i> omega_j) / (i j) for a derivation D.

    Certifies symmetry (selfadjointness of D for the residue pairing) and the
    per-entry sign identity of wzw_gram_entries; raises IdentityFailed when
    either fails.
    """
    mat, witness = wzw_gram_entries(model, D)
    if witness is not None:
        raise IdentityFailed(witness)
    if not mat.is_symmetric():
        raise IdentityFailed("residue Gram is not symmetric")
    return mat
