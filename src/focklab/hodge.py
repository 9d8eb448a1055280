"""Symbolic families of polarized weight-one structures and the Fock connection.

A family is a constant symplectic frame over a rational-function field in real
parameters, plus a holomorphic frame of the subbundle F given by coordinate
vectors.  Everything in the curvature story is then an identity of rational
functions, decidable exactly:

  * the flat connection is coordinatewise d in the flat frame; in the moving
    frame (v, conj v) its matrix has the block shape [[A^F, sigma_bar],
    [sigma, conj A^F]], and flatness gives the two block identities exactly;
  * s_bar = E_Fbar^{-1}(sigma) and s = conj(s_bar) act on Fock probes through
    the generic-Gram symplectic space of the moving frame;
  * the curvature of nabla^FF = nabla^Fbar + rho(s + s_bar) is computed probe
    by probe as nabla_X nabla_Y - nabla_Y nabla_X and certified to be the
    scalar (1/2) trace Omega(det nabla^F) = -(1/2) trace(sigma_bar ^ sigma).

The one identity stated in a unitary trivialization (d s + Abar^F ^ s +
s ^ Abar^F = 0) is verified in covariant form, [nabla^Fbar_X, rho(s(Y))] -
[nabla^Fbar_Y, rho(s(X))] = 0, because a rational unitary frame does not
exist (it would need square roots of the imaginary parts); in such a frame
the covariant form reduces to the printed one.

Positivity (the open condition) is certified at a declared sample point.
"""

from __future__ import annotations

from fractions import Fraction

from .forms import Form
from .fock import (
    FockVector,
    SymplecticSpace,
    UElement,
    endomorphism_action,
    fock_basis,
    inner_product,
    rho_apply,
    rho_vector,
)
from .linalg import ExactMatrix, Inconsistent
from .ratfunc import DifferentialField, RationalFunction
from .scalars import GaussianRational, IdentityFailed
from .sparse import add_term


class DegenerateFrame(ValueError):
    """F + conj(F) fails to span at the generic point."""


class NotSymplecticFrame(ValueError):
    """Supplied extension frame is not symplectic-normalized."""


class HodgeFamily:
    def __init__(self, field: DifferentialField, flat_gram: ExactMatrix, frame,
                 sample_point: dict):
        self.field = field
        self.flat_gram = flat_gram.map(
            lambda c: field.const(c) if not isinstance(c, RationalFunction) else c
        )
        self.frame = [list(v) for v in frame]
        self.g = len(self.frame)
        self.sample_point = dict(sample_point)
        if any(len(v) != 2 * self.g for v in self.frame):
            raise ValueError("frame vectors must have 2g flat coordinates")
        self.conj_frame = [[c.conj() for c in v] for v in self.frame]
        self._frame_matrix = ExactMatrix(
            [[col[i] for col in self.frame + self.conj_frame] for i in range(2 * self.g)]
        )
        self._certify()

    # -- basic pairings ---------------------------------------------------------

    def pairing(self, u, v):
        gv = self.flat_gram.apply(v)
        return sum(a * b for a, b in zip(u, gv))

    def _certify(self):
        # F totally isotropic at the generic point
        for i in range(self.g):
            for j in range(self.g):
                if self.pairing(self.frame[i], self.frame[j]):
                    raise DegenerateFrame("F is not isotropic")
        if not self._frame_matrix.det():
            raise DegenerateFrame("F + conj(F) does not span at the generic point")
        # positivity at the declared sample point, exactly
        herm = self.hermitian_at_sample()
        for minor in herm.leading_principal_minors():
            if not (minor.is_real and minor.re > 0):
                raise DegenerateFrame(
                    f"sqrt(-1)(v, conj v) not positive at sample: minor {minor}"
                )

    def hermitian_at_sample(self) -> ExactMatrix:
        i_unit = GaussianRational(0, 1)
        rows = []
        for a in range(self.g):
            row = []
            for b in range(self.g):
                val = self.pairing(self.frame[a], self.conj_frame[b])
                row.append(i_unit * val.evaluate(self.sample_point))
            rows.append(row)
        return ExactMatrix(rows)

    # -- the moving-frame symplectic space ---------------------------------------

    def moving_gram(self) -> ExactMatrix:
        cols = self.frame + self.conj_frame
        return ExactMatrix(
            [[self.pairing(cols[a], cols[b]) for b in range(2 * self.g)]
             for a in range(2 * self.g)]
        )

    def probe_space(self) -> SymplecticSpace:
        g = self.g
        zero, one = self.field.zero, self.field.one
        swap = [[zero] * (2 * g) for _ in range(2 * g)]
        for i in range(g):
            swap[g + i][i] = one
            swap[i][g + i] = one
        return SymplecticSpace(
            g, self.moving_gram(), ExactMatrix(swap), check_positivity=False
        )

    def space_at_sample(self) -> SymplecticSpace:
        g = self.g
        gram = self.moving_gram().map(lambda c: c.evaluate(self.sample_point))
        mi = GaussianRational(0)
        swap = [[mi] * (2 * g) for _ in range(2 * g)]
        for i in range(g):
            swap[g + i][i] = GaussianRational(1)
            swap[i][g + i] = GaussianRational(1)
        return SymplecticSpace(g, gram, ExactMatrix(swap))


class ConnectionData:
    """Blocks of the flat connection in the moving frame, with the Sym^2
    coefficient matrices of s and s_bar.

    The connection's operators on Fock vectors -- the derivation action of
    Abar^F_k, rho(s(k)), rho(s_bar(k)) and their sum "ff" in nabla^FF -- are
    linear over the coefficient field.  _images holds each one's image of
    FockVector.basis(space, key), made the first time a key of any grade
    meets it, and _act extends those images by linearity to the exact value
    endomorphism_action or rho_apply gives on the whole vector.  The
    curvature and lemma checks apply a few operators to the same keys many
    times over; each image is built once per ConnectionData.
    """

    def __init__(self, fam: HodgeFamily):
        self.fam = fam
        field, g = fam.field, fam.g
        a_blocks, sigma_blocks = {}, {}
        pmat = fam._frame_matrix
        for k, p in enumerate(field.params):
            a_cols, s_cols = [], []
            for j in range(g):
                rhs = [c.derivative(p) for c in fam.frame[j]]
                sol = pmat.solve(rhs)
                a_cols.append(sol[:g])
                s_cols.append(sol[g:])
            a_blocks[(k,)] = ExactMatrix(
                [[a_cols[j][i] for j in range(g)] for i in range(g)]
            )
            sigma_blocks[(k,)] = ExactMatrix(
                [[s_cols[j][i] for j in range(g)] for i in range(g)]
            )
        self.a_f = Form(field, 1, (g, g), a_blocks)
        self.sigma = Form(field, 1, (g, g), sigma_blocks)
        self.a_f_bar = self.a_f.conj()
        self.sigma_bar = self.sigma.conj()
        # Gram between the conjugate frame and the frame: (vbar_b, v_d)
        self.gbar = ExactMatrix(
            [[fam.pairing(fam.conj_frame[b], fam.frame[d]) for d in range(g)]
             for b in range(g)]
        )
        gbar_inv = self.gbar.inverse()
        self.sbar_coeff = {}
        self.s_coeff = {}
        for key, mat in self.sigma.terms.items():
            c = mat * gbar_inv * Fraction(1, 2)
            if not c.is_symmetric():
                raise IdentityFailed("second fundamental form is not symmetric")
            self.sbar_coeff[key[0]] = c
            self.s_coeff[key[0]] = c.map(lambda v: v.conj())
        self._space = fam.probe_space()
        self._u_cache = {}
        self._images = {}

    # -- operators on probes -------------------------------------------------------

    def zero_matrix(self):
        g = self.fam.g
        z = self.fam.field.zero
        return ExactMatrix([[z] * g for _ in range(g)])

    def _sym2_tensor(self, coeff: ExactMatrix, barred: bool) -> ExactMatrix:
        g = self.fam.g
        z = self.fam.field.zero
        out = [[z] * (2 * g) for _ in range(2 * g)]
        off = g if barred else 0
        for i in range(g):
            for j in range(g):
                out[off + i][off + j] = coeff[i, j]
        return ExactMatrix(out)

    def rho_s(self, k: int) -> UElement:
        key = ("s", k)
        if key not in self._u_cache:
            c = self.s_coeff.get(k)
            self._u_cache[key] = (
                UElement.from_tensor(self._space, self._sym2_tensor(c, False))
                if c is not None
                else UElement.zero(self._space)
            )
        return self._u_cache[key]

    def rho_sbar(self, k: int) -> UElement:
        key = ("sbar", k)
        if key not in self._u_cache:
            c = self.sbar_coeff.get(k)
            self._u_cache[key] = (
                UElement.from_tensor(self._space, self._sym2_tensor(c, True))
                if c is not None
                else UElement.zero(self._space)
            )
        return self._u_cache[key]

    def d_param(self, k: int, vec: FockVector) -> FockVector:
        p = self.fam.field.params[k]
        return vec.map_coefficients(
            lambda c: c.derivative(p) if isinstance(c, RationalFunction) else 0
        )

    def _image(self, part: str, k: int, key) -> FockVector:
        entry = (part, k, key)
        if entry not in self._images:
            basis = FockVector.basis(self._space, key)
            if part == "abar":
                img = endomorphism_action(self._space, self.a_f_bar.coefficient((k,)), basis)
            elif part == "s":
                img = rho_apply(self.rho_s(k), basis)
            elif part == "sbar":
                img = rho_apply(self.rho_sbar(k), basis)
            else:
                img = (self._image("abar", k, key) + self._image("s", k, key)
                       + self._image("sbar", k, key))
            self._images[entry] = img
        return self._images[entry]

    def _act(self, part: str, k: int, vec: FockVector) -> FockVector:
        terms: dict = {}
        for key, c in vec.terms.items():
            for kk, w in self._image(part, k, key).terms.items():
                add_term(terms, kk, c * w)
        return vec._like(terms)

    def nabla_fbar(self, k: int, vec: FockVector) -> FockVector:
        return self.d_param(k, vec) + self._act("abar", k, vec)

    def nabla_ff(self, k: int, vec: FockVector) -> FockVector:
        return self.d_param(k, vec) + self._act("ff", k, vec)

    def curvature_on_probe(self, nabla, k1: int, k2: int, vec: FockVector) -> FockVector:
        return nabla(k1, nabla(k2, vec)) - nabla(k2, nabla(k1, vec))


def second_fundamental_form(fam: HodgeFamily) -> Form:
    return ConnectionData(fam).sigma


def connection_blocks(fam: HodgeFamily) -> ConnectionData:
    return ConnectionData(fam)


def curvature(omega: Form) -> Form:
    """d omega + omega ^ omega."""
    return omega.exterior_derivative() + omega.wedge(omega)


# -- Theorem-level verification -------------------------------------------------------


def verify_theorem31(fam: HodgeFamily, probe_grade: int = 4) -> dict:
    """Certify the curvature statement on Fock probes, exactly.

    Checks, in order: flatness blocks (the two dagger identities), scalarity
    of Omega(nabla^FF) on probes of grade <= probe_grade, the scalar value
    -(1/2) trace(sigma_bar ^ sigma), its agreement with half the curvature of
    det(F), the pointwise endomorphism identity, the covariant form of the
    remaining lemma, the wedge anticommutation bookkeeping of the two trace
    orderings, and skew-Hermitian-ness of rho(s + s_bar) at the sample point.
    """
    conn = ConnectionData(fam)
    field, g = fam.field, fam.g
    report = {}

    # full moving-frame connection matrix is flat
    blocks = {}
    for key in set(conn.a_f.terms) | set(conn.sigma.terms):
        k = key[0]
        top = _hstack(conn.a_f.coefficient(key), conn.sigma_bar.coefficient(key))
        bot = _hstack(conn.sigma.coefficient(key), conn.a_f_bar.coefficient(key))
        blocks[key] = _vstack(top, bot)
    a_h = Form(field, 1, (2 * g, 2 * g), blocks)
    report["flatness"] = not curvature(a_h)
    if not report["flatness"]:
        raise IdentityFailed("flat connection has nonzero curvature form")

    # dagger identities
    sigma_sigma_bar = conn.sigma.wedge(conn.sigma_bar)
    dagger1 = (
        conn.a_f_bar.exterior_derivative()
        + conn.a_f_bar.wedge(conn.a_f_bar)
        + sigma_sigma_bar
    )
    dagger2 = (
        conn.sigma_bar.exterior_derivative()
        + conn.a_f.wedge(conn.sigma_bar)
        + conn.sigma_bar.wedge(conn.a_f_bar)
    )
    report["dagger1"] = not dagger1
    report["dagger2"] = not dagger2

    # trace bookkeeping
    tr_ss = sigma_sigma_bar.trace()
    tr_sbs = conn.sigma_bar.wedge(conn.sigma).trace()
    report["trace_anticommutation"] = tr_ss == -(tr_sbs)
    omega_det_f = curvature(conn.a_f).trace()
    report["det_curvature_is_minus_trace"] = omega_det_f == -(tr_sbs)

    # extract the Fock curvature scalar from its action on the vacuum, then
    # certify scalarity on every probe of grade <= probe_grade, the vacuum
    # (the empty key) among them; the witness is the first failing probe
    space = conn._space
    keys = fock_basis(space, probe_grade)
    vacuum = FockVector.vacuum(space)
    extracted = {}
    witness = None
    for k1 in range(field.nvars):
        for k2 in range(k1 + 1, field.nvars):
            c = conn.curvature_on_probe(conn.nabla_ff, k1, k2, vacuum).terms.get((), 0)
            extracted[(k1, k2)] = c
            for key in keys:
                probe = FockVector.basis(space, key)
                got = conn.curvature_on_probe(conn.nabla_ff, k1, k2, probe)
                if witness is None and got != probe.scale(c):
                    witness = (field.params[k1], field.params[k2], key)
    report["fock_curvature_scalar"] = scalar_ok = witness is None
    # independent comparisons of the extracted scalar 2-form
    half_det = omega_det_f * field.const(Fraction(1, 2))
    report["scalar_equals_half_det_curvature"] = all(
        not (extracted[key] - half_det.scalar_coefficient(key)) for key in extracted
    )
    report["scalar_equals_minus_half_trace"] = all(
        not (
            extracted[key]
            - tr_sbs.scalar_coefficient(key) * Fraction(-1, 2)
        )
        for key in extracted
    )
    if not scalar_ok:
        raise IdentityFailed(f"Fock curvature not scalar at {witness}")

    # pointwise endomorphism identity on probes:
    # -(sigma ^ sigma_bar) acting as derivation + s ^ sbar + sbar ^ s
    #   = -(1/2) trace(sigma_bar ^ sigma) id
    lemma_pointwise = True
    for k1 in range(field.nvars):
        for k2 in range(k1 + 1, field.nvars):
            ssb = sigma_sigma_bar.coefficient((k1, k2))
            rhs_scalar = tr_sbs.scalar_coefficient((k1, k2)) * Fraction(-1, 2)
            for key in keys:
                probe = FockVector.basis(space, key)
                lhs = -endomorphism_action(space, ssb, probe)
                lhs = lhs + conn._act("s", k1, conn._act("sbar", k2, probe))
                lhs = lhs - conn._act("s", k2, conn._act("sbar", k1, probe))
                lhs = lhs + conn._act("sbar", k1, conn._act("s", k2, probe))
                lhs = lhs - conn._act("sbar", k2, conn._act("s", k1, probe))
                if lhs != probe.scale(rhs_scalar):
                    lemma_pointwise = False
    report["endomorphism_lemma"] = lemma_pointwise

    # covariant form of the remaining lemma, for s and for s_bar
    lemma_cov = True
    for which in ("s", "sbar"):
        for k1 in range(field.nvars):
            for k2 in range(k1 + 1, field.nvars):
                for key in keys:
                    probe = FockVector.basis(space, key)
                    lhs = (
                        conn.nabla_fbar(k1, conn._act(which, k2, probe))
                        - conn._act(which, k2, conn.nabla_fbar(k1, probe))
                        - conn.nabla_fbar(k2, conn._act(which, k1, probe))
                        + conn._act(which, k1, conn.nabla_fbar(k2, probe))
                    )
                    if lhs:
                        lemma_cov = False
    report["covariant_s_lemma"] = lemma_cov

    # unitarity at the sample point: rho(s + s_bar) is skew-Hermitian
    report["skew_hermitian_at_sample"] = _skew_hermitian_at_sample(
        fam, conn, min(probe_grade, 3)
    )
    return report


def _skew_hermitian_at_sample(fam, conn, grade):
    space = fam.space_at_sample()
    point = fam.sample_point
    keys = fock_basis(space, grade)
    for k in range(fam.field.nvars):
        su = conn.rho_s(k) + conn.rho_sbar(k)
        u_eval = UElement(space)
        for (modes, h), c in su.terms.items():
            u_eval._accumulate(list(modes), h, c.evaluate(point))
        probes = [FockVector.basis(space, key) for key in keys]
        images = [rho_apply(u_eval, v) for v in probes]
        for v, uv in zip(probes, images):
            for w, uw in zip(probes, images):
                if inner_product(uv, w) + inner_product(v, uw):
                    return False
    return True


def _hstack(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return ExactMatrix([ra + rb for ra, rb in zip(a.rows, b.rows)])


def _vstack(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(a.rows + b.rows)


# -- the u-section -----------------------------------------------------------------


def default_extension_frame(fam: HodgeFamily):
    """e_i = v_i and e_{-i} in span(conj-frame) with (e_i, e_{-j}) = d_{ij}."""
    g = fam.g
    m = ExactMatrix(
        [[fam.pairing(fam.frame[k], fam.conj_frame[b]) for b in range(g)]
         for k in range(g)]
    )
    c = m.inverse()
    neg = []
    for j in range(g):
        coords = [fam.field.zero] * (2 * g)
        for b in range(g):
            for r in range(2 * g):
                coords[r] = coords[r] + c[b, j] * fam.conj_frame[b][r]
        neg.append(coords)
    return [list(v) for v in fam.frame], neg


def u_section(fam: HodgeFamily, extension=None) -> dict:
    """The Sym^2-valued 1-form u = 1/2 sum (nabla e_j, e_i) e_{-i} (x) e_{-j}.

    Returns the per-parameter coefficient matrices of u in the e_{-}-frame,
    after certifying: the extension frame is symplectic with the unit
    normalization, u is symmetric (flatness of the form), E(u) agrees with
    the second fundamental form on F, and (when the negative frame lies in
    the conjugate span) u equals s_bar exactly.
    """
    g = fam.g
    pos, neg = extension if extension is not None else default_extension_frame(fam)
    for i in range(g):
        for j in range(g):
            if fam.pairing(pos[i], pos[j]) or fam.pairing(neg[i], neg[j]):
                raise NotSymplecticFrame("isotropy fails")
            want = fam.field.one if i == j else fam.field.zero
            if fam.pairing(pos[i], neg[j]) - want:
                raise NotSymplecticFrame("(e_i, e_{-j}) != delta_ij")
    conn = ConnectionData(fam)
    u_coeffs = {}
    for k, p in enumerate(fam.field.params):
        mat = [[None] * g for _ in range(g)]
        for i in range(g):
            for j in range(g):
                nabla_ej = [c.derivative(p) for c in pos[j]]
                mat[i][j] = fam.pairing(nabla_ej, pos[i]) * Fraction(1, 2)
        u_k = ExactMatrix(mat)
        if not u_k.is_symmetric():
            raise IdentityFailed("u is not symmetric")
        u_coeffs[k] = u_k
    # E(u) agrees with sigma on F: (E(u)(e_k), e_l) = (nabla e_k, e_l)
    for k, p in enumerate(fam.field.params):
        for a in range(g):
            for b in range(g):
                lhs = 0
                for i in range(g):
                    for j in range(g):
                        lhs = lhs + 2 * u_coeffs[k][i, j] * fam.pairing(
                            neg[j], pos[a]
                        ) * fam.pairing(neg[i], pos[b])
                nabla_ea = [c.derivative(p) for c in pos[a]]
                rhs = fam.pairing(nabla_ea, pos[b])
                if lhs - rhs:
                    raise IdentityFailed("E(u) does not reproduce sigma on F")
    # when e_{-i} lies in the conjugate span, u = s_bar on the nose
    matches_sbar = None
    cf = ExactMatrix(
        [[fam.conj_frame[b][r] for b in range(g)] for r in range(2 * g)]
    )
    try:
        coords = [cf.solve(v) for v in neg]
        in_span = True
    except Inconsistent:
        in_span = False
    if in_span:
        matches_sbar = True
        for k in range(fam.field.nvars):
            sbar = conn.sbar_coeff.get(k)
            got = [[fam.field.zero] * g for _ in range(g)]
            for i in range(g):
                for j in range(g):
                    for bi in range(g):
                        for bj in range(g):
                            got[bi][bj] = got[bi][bj] + u_coeffs[k][i, j] * coords[i][
                                bi
                            ] * coords[j][bj]
            if sbar is None:
                sbar = conn.zero_matrix()
            if not (ExactMatrix(got) - sbar).is_zero():
                matches_sbar = False
    return {
        "u": u_coeffs,
        "extension": (pos, neg),
        "matches_sbar": matches_sbar,
        "connection": conn,
    }


def nabla_h_insertion_identity(fam: HodgeFamily, probe_key=( -1, -1)) -> bool:
    """nabla^FF = nabla^H + rho(s_bar) on a probe: inserting nabla^H into the
    slots plus right multiplication by s_bar reproduces nabla^FF."""
    conn = ConnectionData(fam)
    space = conn._space
    g = fam.g
    probe = FockVector.basis(space, probe_key)
    for k in range(fam.field.nvars):
        lhs = conn.nabla_ff(k, probe)
        # insertion of nabla^H(vbar_j): moving-frame coords are the columns
        # of [sigma_bar; a_f_bar]
        rhs = FockVector(space)
        key = probe_key
        for idx in range(len(key)):
            v = FockVector.vacuum(space)
            for pos in range(len(key) - 1, -1, -1):
                j = -key[pos]  # conjugate-frame index, 1-based
                if pos == idx:
                    col = [conn.sigma_bar.coefficient((k,))[r, j - 1] for r in range(g)]
                    col += [conn.a_f_bar.coefficient((k,))[r, j - 1] for r in range(g)]
                else:
                    col = space.basis_vector(key[pos])
                v = rho_vector(space, col, v)
            rhs = rhs + v
        rhs = rhs + rho_apply(conn.rho_sbar(k), probe)
        if lhs != rhs:
            return False
    return True


# -- built-in families ---------------------------------------------------------------


def modular_family() -> HodgeFamily:
    """g = 1: v = a + tau b over the upper half plane, tau = x + iy."""
    field = DifferentialField(["x", "y"])
    flat = ExactMatrix([[GaussianRational(0), GaussianRational(1)],
                        [GaussianRational(-1), GaussianRational(0)]])
    v = [field.one, field.parse("x + i*y")]
    return HodgeFamily(field, flat, [v], {"x": 0, "y": 1})


def siegel_family(coupling=0) -> HodgeFamily:
    """g = 2 block family: v_a = a_a + sum_b Z_ab b_b with Z = [[tau1, c],
    [c, tau2]], c a rational constant."""
    field = DifferentialField(["x1", "y1", "x2", "y2"])
    z = GaussianRational(0)
    one = GaussianRational(1)
    flat = ExactMatrix(
        [
            [z, z, one, z],
            [z, z, z, one],
            [-one, z, z, z],
            [z, -one, z, z],
        ]
    )
    c = field.const(coupling)
    t1 = field.parse("x1 + i*y1")
    t2 = field.parse("x2 + i*y2")
    v1 = [field.one, field.zero, t1, c]
    v2 = [field.zero, field.one, c, t2]
    return HodgeFamily(field, flat, [v1, v2], {"x1": 0, "y1": 1, "x2": 0, "y2": 2})


def constant_family() -> HodgeFamily:
    """Parameter-independent frame: sigma = 0 and every curvature vanishes."""
    field = DifferentialField(["x", "y"])
    flat = ExactMatrix([[GaussianRational(0), GaussianRational(1)],
                        [GaussianRational(-1), GaussianRational(0)]])
    v = [field.one, field.i]
    return HodgeFamily(field, flat, [v], {"x": 0, "y": 1})
