from fractions import Fraction

import pytest

from focklab import hodge
from focklab.fock import FockVector, UElement, endomorphism_action, fock_basis, rho_apply
from focklab.forms import Form
from focklab.hodge import (
    THEOREM31_STATEMENTS,
    ConnectionData,
    DegenerateFrame,
    HodgeFamily,
    NotSymplecticFrame,
    connection_blocks,
    curvature,
    default_extension_frame,
    modular_family,
    siegel_family,
    theorem31_checks,
    u_section,
    verify_theorem31,
)
from focklab.linalg import ExactMatrix
from focklab.ratfunc import DifferentialField, Polynomial
from focklab.reports import CheckRecord
from focklab.scalars import GaussianRational
from oracles import Inconsistent, constant_family, d_param, solve

F = Fraction


def test_modular_family_certifies():
    fam = modular_family()
    assert fam.g == 1


def test_positivity_guard_at_sample():
    field = DifferentialField(["x", "y"])
    flat = ExactMatrix([[GaussianRational(0), GaussianRational(1)],
                        [GaussianRational(-1), GaussianRational(0)]])
    v = [field.one, field.parse("x + i*y")]
    with pytest.raises(DegenerateFrame):
        HodgeFamily(field, flat, [v], {"x": 0, "y": -1})  # lower half plane


def test_sigma_modular():
    fam = modular_family()
    sigma = connection_blocks(fam).sigma
    # sigma(v) = (dx + i dy) vbar / (taubar - tau): coefficient 1/(-2iy) = i/(2y)
    want = fam.field.parse("i/(2*y)")
    assert sigma.coefficient(("x",))[0, 0] == want
    assert sigma.coefficient(("y",))[0, 0] == want * fam.field.i


def test_sigma_constant_family_vanishes():
    assert not connection_blocks(constant_family()).sigma


def test_sigma_symmetry_coupled_g2():
    fam = siegel_family(coupling=F(1, 2))
    conn = connection_blocks(fam)
    # (sigma(v_i), v_j) symmetric: built-in certification ran; also directly
    for key in conn.sigma.terms:
        m = conn.sigma.coefficient(key)
        weighted = ExactMatrix(
            [
                [
                    sum(
                        m[b, i] * fam.pairing(fam.conj_frame[b], fam.frame[j])
                        for b in range(fam.g)
                    )
                    for j in range(fam.g)
                ]
                for i in range(fam.g)
            ]
        )
        assert (weighted - weighted.transpose()).is_zero()


def test_sigma_tensoriality():
    """Rescaling a frame vector by a holomorphic function rescales sigma."""
    fam = modular_family()
    conn = connection_blocks(fam)
    field = fam.field
    tau = field.parse("x + i*y")
    fam2 = HodgeFamily(
        field,
        ExactMatrix([[GaussianRational(0), GaussianRational(1)],
                     [GaussianRational(-1), GaussianRational(0)]]),
        [[tau * c for c in fam.frame[0]]],
        {"x": 0, "y": 1},
    )
    conn2 = connection_blocks(fam2)
    for key in conn.sigma.terms:
        # sigma2(tau v) = tau sigma(v); the new Fbar frame is conj(tau) vbar
        got = conn2.sigma.coefficient(key)[0, 0]
        want = conn.sigma.coefficient(key)[0, 0] * tau / tau.conj()
        assert got == want


def test_curvature_of_scalar_form():
    field = DifferentialField(["x", "y"])
    omega = Form(field, 0, (1, 1), {(): ExactMatrix([[field.var("x")]])}).wedge(Form.d_param(field, "y"))
    c = curvature(omega)
    assert c.scalar_coefficient(("x", "y")) == field.one


def test_abar_curvature_is_minus_sigma_wedge_sigmabar():
    fam = modular_family()
    conn = connection_blocks(fam)
    lhs = curvature(conn.a_f_bar)
    rhs = -(conn.sigma.wedge(conn.sigma_bar))
    assert lhs == rhs


def test_verify_theorem31_modular():
    report = verify_theorem31(modular_family(), probe_grade=4)
    assert all(report.values()), report


def test_verify_theorem31_constant():
    report = verify_theorem31(constant_family(), probe_grade=3)
    assert all(report.values()), report


def test_verify_theorem31_siegel_block():
    report = verify_theorem31(siegel_family(), probe_grade=3)
    assert all(report.values()), report


def _nabla_by_formula(conn, k, vec, with_rho):
    """d + Abar^F_k acting as a derivation, plus rho(s(k) + s_bar(k)) for
    nabla^FF: each operator applied to the whole vector."""
    out = d_param(conn, k, vec) + endomorphism_action(conn._space, conn.a_f_bar.coefficient((k,)), vec)
    if with_rho:
        out = out + rho_apply(conn.rho_s(k) + conn.rho_sbar(k), vec)
    return out


@pytest.mark.parametrize(
    "family", [modular_family, lambda: siegel_family(0), lambda: siegel_family(2)],
    ids=["modular", "siegel(0)", "siegel(2)"],
)
def test_nabla_by_basis_images_is_the_operator_formula(family):
    """nabla^Fbar and nabla^FF, extended by linearity from the images of
    basis keys, equal the operators applied to a vector with rational-function
    coefficients, once and twice over, in every direction."""
    fam = family()
    conn = ConnectionData(fam)
    field, space = fam.field, conn._space
    p, q = field.var(field.params[0]), field.var(field.params[-1])
    vec = FockVector(space, {
        key: (p * (j + 1) + q * q) / (q + field.i * j) for j, key in enumerate(fock_basis(space, 3))
    })
    for with_rho, nabla in ((False, conn.nabla_fbar), (True, conn.nabla_ff)):
        for k in range(field.nvars):
            once = _nabla_by_formula(conn, k, vec, with_rho)
            assert nabla(k, vec) == once
            for k2 in range(field.nvars):
                assert nabla(k2, nabla(k, vec)) == _nabla_by_formula(conn, k2, once, with_rho)


def _mutate(monkeypatch, mutation):
    rho_s, rho_sbar = ConnectionData.rho_s, ConnectionData.rho_sbar
    if mutation == "rho(s) counted twice":
        monkeypatch.setattr(ConnectionData, "rho_s", lambda self, k: rho_s(self, k).scale(2))
    elif mutation == "A^F-bar dropped from nabla_fbar":
        monkeypatch.setattr(ConnectionData, "nabla_fbar", d_param)
    else:
        monkeypatch.setattr(ConnectionData, "rho_sbar", lambda self, k: UElement.zero(self._space))


@pytest.mark.parametrize("mutation", ["rho(s) counted twice", "rho(s_bar) dropped"])
@pytest.mark.parametrize("family", [modular_family, lambda: siegel_family(1)], ids=["modular", "siegel(1)"])
def test_a_wrong_rho_s_fails_the_certificate(monkeypatch, mutation, family):
    """The image table is built from rho_s and rho_sbar, so a wrong rho(s)
    or rho(s_bar) reaches every check: verify_theorem31 reports the curvature
    and the sample-point skew-Hermitian test false, without raising."""
    fam = family()
    _mutate(monkeypatch, mutation)
    report = verify_theorem31(fam, probe_grade=3)
    assert report["fock_curvature_scalar"] is False and report["skew_hermitian_at_sample"] is False, report
    rec = CheckRecord("skew_hermitian_at_sample", THEOREM31_STATEMENTS["skew_hermitian_at_sample"])
    assert hodge._skew_hermitian_at_sample(fam, ConnectionData(fam), 3, rec) is rec and rec.status == "fail"


def test_verify_theorem31_applies_each_operator_to_a_key_once(monkeypatch):
    """A counting guard (calls, not time): at siegel_family(-2), grade 4,
    the operators were applied 2624 and 1194 times when every check applied
    them to whole vectors; the image table needs 264 and 202."""
    calls = {"rho_apply": 0, "endomorphism_action": 0}

    def counted(name):
        inner = getattr(hodge, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(hodge, name, counted(name))
    report = verify_theorem31(siegel_family(-2), probe_grade=4)
    assert all(report.values()), report
    assert calls["rho_apply"] <= 400 and calls["endomorphism_action"] <= 300, calls


def _reference_probe_identities(conn, keys, sigma_sigma_bar, tr_sbs):
    """hodge._probe_identities as three separate compositions per pair and
    key: Omega(nabla^FF) by curvature_on_probe, the endomorphism lemma
    through _act, the covariant lemma through nabla_fbar."""
    space, params = conn._space, conn.fam.field.params
    act, nabla_fbar = conn._act, conn.nabla_fbar
    vacuum = FockVector.vacuum(space)
    first, extracted = {}, {}
    for k1 in range(len(params)):
        for k2 in range(k1 + 1, len(params)):
            where = (params[k1], params[k2])
            c = conn.curvature_on_probe(conn.nabla_ff, k1, k2, vacuum).terms.get((), 0)
            extracted[(k1, k2)] = c
            ssb = sigma_sigma_bar.coefficient((k1, k2))
            lemma_scalar = tr_sbs.scalar_coefficient((k1, k2)) * F(-1, 2)
            for key in keys:
                probe = FockVector.basis(space, key)
                if conn.curvature_on_probe(conn.nabla_ff, k1, k2, probe) != probe.scale(c):
                    first.setdefault("fock_curvature_scalar", (*where, key))
                lhs = (
                    -endomorphism_action(space, ssb, probe)
                    + act("s", k1, act("sbar", k2, probe)) - act("s", k2, act("sbar", k1, probe))
                    + act("sbar", k1, act("s", k2, probe)) - act("sbar", k2, act("s", k1, probe))
                )
                if lhs != probe.scale(lemma_scalar):
                    first.setdefault("endomorphism_lemma", (*where, key))
                for which in ("s", "sbar"):
                    if (
                        nabla_fbar(k1, act(which, k2, probe)) - act(which, k2, nabla_fbar(k1, probe))
                        - nabla_fbar(k2, act(which, k1, probe)) + act(which, k1, nabla_fbar(k2, probe))
                    ):
                        first.setdefault("covariant_s_lemma", (*where, key))
    return first, extracted


PROBE_IDENTITIES = ("fock_curvature_scalar", "endomorphism_lemma", "covariant_s_lemma")


@pytest.mark.parametrize("family, grade, mutation", [
    (modular_family, 4, None),
    (lambda: siegel_family(0), 4, None),
    (lambda: siegel_family(1), 4, None),
    (constant_family, 4, None),
    (modular_family, 2, "rho(s_bar) dropped"),
    (lambda: siegel_family(1), 2, "rho(s_bar) dropped"),
    (modular_family, 2, "rho(s) counted twice"),
    (lambda: siegel_family(1), 2, "rho(s) counted twice"),
    (modular_family, 2, "A^F-bar dropped from nabla_fbar"),
    (lambda: siegel_family(1), 2, "A^F-bar dropped from nabla_fbar"),
], ids=["modular", "siegel(0)", "siegel(1)", "constant", "modular-sbar-dropped", "siegel(1)-sbar-dropped",
        "modular-s-doubled", "siegel(1)-s-doubled", "modular-abar-dropped", "siegel(1)-abar-dropped"])
def test_one_pass_matches_the_three_identity_loop(monkeypatch, family, grade, mutation):
    """The one-pass probe identities give the reference loop's verdicts,
    first witnesses and extracted scalars, and theorem31_checks yields them
    as its records."""
    fam = family()
    if mutation:
        _mutate(monkeypatch, mutation)
    conn = ConnectionData(fam)
    sigma_sigma_bar = conn.sigma.wedge(conn.sigma_bar)
    tr_sbs = conn.sigma_bar.wedge(conn.sigma).trace()
    keys = fock_basis(conn._space, grade)
    want = _reference_probe_identities(conn, keys, sigma_sigma_bar, tr_sbs)
    first, extracted = want
    assert bool(first) == bool(mutation), first
    expected = {
        name: ("fail", str(first[name])) if name in first else ("pass", None) for name in PROBE_IDENTITIES
    }
    records = {name: CheckRecord(name, THEOREM31_STATEMENTS[name]) for name in PROBE_IDENTITIES}
    assert hodge._probe_identities(conn, keys, sigma_sigma_bar, tr_sbs, records) == extracted
    assert {name: (rec.status, rec.witness) for name, rec in records.items()} == expected
    records = {rec.id: (rec.status, rec.witness) for rec in theorem31_checks(fam, grade)}
    assert {name: records[name] for name in PROBE_IDENTITIES} == expected


def test_theorem31_composes_nabla_ff_once(monkeypatch):
    """A counting guard (calls, not time): theorem31_checks(siegel_family(1), 4)
    made 2028 products of two rational functions and 1004 derivative calls
    when the curvature, endomorphism and covariant identities each composed
    the connection again; one composition per (pair, key) needs 1484 and 740."""
    from focklab.ratfunc import RationalFunction

    fam = siegel_family(1)
    calls = {"products": 0, "derivative": 0}
    mul, derivative = RationalFunction.__mul__, RationalFunction.derivative

    def counted_mul(a, b):
        calls["products"] += isinstance(b, RationalFunction)
        return mul(a, b)

    def counted_derivative(a, param):
        calls["derivative"] += 1
        return derivative(a, param)

    monkeypatch.setattr(RationalFunction, "__mul__", counted_mul)
    monkeypatch.setattr(RationalFunction, "derivative", counted_derivative)
    checks = [(rec.id, rec.status, rec.witness) for rec in theorem31_checks(fam, 4)]
    assert all(status == "pass" for _, status, _ in checks), checks
    assert calls["products"] <= 1520 and calls["derivative"] <= 760, calls


def test_theorem31_stays_in_one_field_and_one_dictionary(monkeypatch):
    """A counting guard (calls, not time): theorem31_checks(siegel_family(1), 4)
    made about 3,500 DifferentialField.__eq__ calls when every
    rational-function operation coerced its operand; same-field operands
    dispatching first need about 800."""
    fam = siegel_family(1)
    calls = {"field_eq": 0}
    field_eq = DifferentialField.__eq__

    def counted_eq(a, b):
        calls["field_eq"] += 1
        return field_eq(a, b)

    monkeypatch.setattr(DifferentialField, "__eq__", counted_eq)
    checks = [(rec.id, rec.status, rec.witness) for rec in theorem31_checks(fam, 4)]
    assert all(status == "pass" for _, status, _ in checks), checks
    assert calls["field_eq"] <= 1000, calls


def test_theorem31_makes_no_curvature_on_probe_call(monkeypatch):
    """The certificate reads the curvature scalar off its own pass."""
    def refuse(*args):
        raise AssertionError("curvature_on_probe called")

    monkeypatch.setattr(ConnectionData, "curvature_on_probe", refuse)
    assert all(verify_theorem31(modular_family(), probe_grade=2).values())


def test_modular_scalar_value():
    """The predicted scalar 2-form is -(i/4) dx^dy / y^2."""
    fam = modular_family()
    conn = connection_blocks(fam)
    omega_det = curvature(conn.a_f).trace()
    scalar = omega_det.scalar_coefficient(("x", "y")) * F(1, 2)
    assert scalar == fam.field.parse("-i/(4*y^2)")


def test_u_section_modular():
    fam = modular_family()
    out = u_section(fam)
    assert out["matches_sbar"] is True
    # u = s_bar = dtau vbar (x) vbar / (8 y^2) in the conjugate frame
    assert out["connection"].sbar_coeff[0][0, 0] == fam.field.parse("1/(8*y^2)")


FAMILIES = {
    "modular": modular_family,
    "siegel(0)": lambda: siegel_family(0),
    "siegel(1)": lambda: siegel_family(1),
    "constant": constant_family,
}


@pytest.mark.parametrize("family", list(FAMILIES.values()), ids=list(FAMILIES))
def test_u_matches_sbar_and_fails_on_a_doubled_sbar(monkeypatch, family):
    """matches_sbar is True on every built-in family; with s_bar doubled it is
    False wherever s_bar is nonzero (the constant family has none)."""
    fam = family()
    assert u_section(fam)["matches_sbar"] is True
    init = ConnectionData.__init__

    def doubled(self, fam):
        init(self, fam)
        self.sbar_coeff = {k: c * 2 for k, c in self.sbar_coeff.items()}

    monkeypatch.setattr(ConnectionData, "__init__", doubled)
    assert u_section(fam)["matches_sbar"] is (family is constant_family)


def _reference_blocks(fam):
    """(A^F, sigma, s_bar coefficients) by one solve of the frame matrix per
    (parameter, frame vector) and entrywise pairings."""
    g, field = fam.g, fam.field
    a_blocks, sigma_blocks = {}, {}
    for k, p in enumerate(field.params):
        cols = [solve(fam._frame_matrix, [c.derivative(p) for c in v]) for v in fam.frame]
        a_blocks[(k,)] = ExactMatrix([[cols[j][i] for j in range(g)] for i in range(g)])
        sigma_blocks[(k,)] = ExactMatrix([[cols[j][g + i] for j in range(g)] for i in range(g)])
    sigma = Form(field, 1, (g, g), sigma_blocks)
    gbar = ExactMatrix([[fam.pairing(fam.conj_frame[b], fam.frame[d]) for d in range(g)] for b in range(g)])
    sbar = {key[0]: mat * gbar.inverse() * F(1, 2) for key, mat in sigma.terms.items()}
    return Form(field, 1, (g, g), a_blocks), sigma, sbar


def _reference_extension_frame(fam):
    """e_i = v_i and e_{-j} = sum_b (M^-1)[b, j] conj v_b, summed entry by entry."""
    g = fam.g
    c = ExactMatrix([[fam.pairing(fam.frame[k], fam.conj_frame[b]) for b in range(g)] for k in range(g)]).inverse()
    neg = []
    for j in range(g):
        coords = [fam.field.zero] * (2 * g)
        for b in range(g):
            for r in range(2 * g):
                coords[r] = coords[r] + c[b, j] * fam.conj_frame[b][r]
        neg.append(coords)
    return [list(v) for v in fam.frame], neg


def _reference_u_section(fam, sbar_coeff, extension):
    """(u, matches_sbar) of the u-section by index loops: u[i][j] =
    1/2 (d e_j, e_i), E(u) against (d e_a, e_b) and, when each e_{-i} solves
    in the conjugate span, sum u[i][j] C[i][a] C[j][b] against s_bar."""
    g, field = fam.g, fam.field
    pos, neg = extension
    u = {}
    for k, p in enumerate(field.params):
        u[k] = ExactMatrix([
            [fam.pairing([c.derivative(p) for c in pos[j]], pos[i]) * F(1, 2) for j in range(g)] for i in range(g)
        ])
        assert u[k].is_symmetric()
        for a in range(g):
            for b in range(g):
                lhs = sum(
                    2 * u[k][i, j] * fam.pairing(neg[j], pos[a]) * fam.pairing(neg[i], pos[b])
                    for i in range(g) for j in range(g)
                )
                assert lhs == fam.pairing([c.derivative(p) for c in pos[a]], pos[b])
    cf = ExactMatrix([[fam.conj_frame[b][r] for b in range(g)] for r in range(2 * g)])
    try:
        coords = [solve(cf, v) for v in neg]
    except Inconsistent:
        return u, None
    matches = True
    for k in range(field.nvars):
        got = ExactMatrix([
            [sum(u[k][i, j] * coords[i][a] * coords[j][b] for i in range(g) for j in range(g)) for b in range(g)]
            for a in range(g)
        ])
        want = sbar_coeff.get(k)
        if not (got.is_zero() if want is None else got == want):
            matches = False
    return u, matches


def sheared_siegel():
    """siegel_family(1) in the holomorphic frame (v_1 + i v_2, v_2), where
    the pairing matrix [(v_k, conj v_b)] is not symmetric."""
    fam = siegel_family(1)
    v1, v2 = fam.frame
    sheared = [[a + fam.field.i * b for a, b in zip(v1, v2)], v2]
    return HodgeFamily(fam.field, fam.flat_gram, sheared, fam.sample_point)


@pytest.mark.parametrize(
    "family", [*FAMILIES.values(), sheared_siegel], ids=[*FAMILIES, "siegel(1)-sheared"]
)
def test_matrix_connection_and_u_section_match_the_loop_reference(family):
    """The frame inverse gives the per-column solves' A^F, sigma and s_bar,
    and the u-section identities as matrix equalities give the index loops'
    extension frame, u and matches_sbar: for the default frame, and for
    e_{-i} + e_i, which stays symplectic but leaves the conjugate span."""
    fam = family()
    conn = ConnectionData(fam)
    a_f, sigma, sbar = _reference_blocks(fam)
    assert conn.a_f == a_f and conn.sigma == sigma and conn.sbar_coeff == sbar
    pos, neg = _reference_extension_frame(fam)
    assert default_extension_frame(fam) == (pos, neg)
    shifted = [[a + b for a, b in zip(e_neg, e_pos)] for e_neg, e_pos in zip(neg, pos)]
    for extension, matches in (((pos, neg), True), ((pos, shifted), None)):
        out = u_section(fam, extension)
        assert out["extension"] == extension
        assert (out["u"], out["matches_sbar"]) == _reference_u_section(fam, sbar, extension)
        assert out["matches_sbar"] is matches


@pytest.mark.parametrize("family", list(FAMILIES.values()), ids=list(FAMILIES))
def test_connection_data_inverts_the_frame_once(monkeypatch, family):
    """A counting guard (calls, not time): ConnectionData makes one inverse
    of the frame matrix and one of Gbar, and the package has no per-column
    solve to fall back on."""
    fam = family()
    calls = {"inverse": 0}
    inner = ExactMatrix.inverse

    def counted(self, *args):
        calls["inverse"] += 1
        return inner(self, *args)

    monkeypatch.setattr(ExactMatrix, "inverse", counted)
    ConnectionData(fam)
    assert calls == {"inverse": 2} and not hasattr(ExactMatrix, "solve")


def test_u_section_constant_family_zero():
    out = u_section(constant_family())
    for mat in out["u"].values():
        assert mat.is_zero()


def test_u_section_rejects_bad_frame():
    fam = modular_family()
    pos, neg = default_extension_frame(fam)
    bad_neg = [[c * 2 for c in neg[0]]]
    with pytest.raises(NotSymplecticFrame):
        u_section(fam, (pos, bad_neg))


def test_nabla_h_insertion_identity():
    """nabla^FF = nabla^H + rho(s_bar) on every probe key of grade <= 4: the
    certificate's own record, in the families that carry s_bar and in the
    one that does not."""
    for fam in (modular_family(), siegel_family(1), constant_family()):
        checks = {rec.id: (rec.status, rec.witness) for rec in theorem31_checks(fam)}
        assert checks["nabla_h_insertion"] == ("pass", None)


def test_curvature_witness_is_the_first_failing_probe(monkeypatch):
    """With rho(s_bar) dropped the curvature fails on every key of grades
    1..4; the witness is the first of them in fock_basis order, and the
    certificate yields it as a false record instead of raising."""
    monkeypatch.setattr(ConnectionData, "rho_sbar", lambda self, k: UElement.zero(self._space))
    checks = {rec.id: (rec.status, rec.witness) for rec in theorem31_checks(modular_family())}
    assert checks["fock_curvature_scalar"] == ("fail", "('x', 'y', (-1,))")


def test_curvature_failure_is_a_fail_record_and_exit_1(monkeypatch):
    """A false curvature identity is its own connection.* FAIL record, with
    the first wedge direction where it fails as the witness, and exit code 1,
    not a traceback; every other identity keeps its record."""
    from focklab import cli, hodge

    # curvature(omega) = omega makes the flatness check see a nonzero form
    monkeypatch.setattr(hodge, "curvature", lambda omega: omega)
    rep = cli.run_suite("connection", {"grade": 2})
    assert len(rep.checks) == 24
    failed = [(r["id"], r["witness"]) for r in rep.to_json()["checks"] if r["status"] == "fail"]
    assert failed == [
        (f"connection.{family}.{check}", f"('{x}',)")
        for family, x in (("modular", "x"), ("siegel-block", "x1"))
        for check in ("det_curvature_is_minus_trace", "flatness", "scalar_equals_half_det_curvature")
    ]
    assert cli.main(["--suite", "connection", "--param", "grade=2"]) == 1


def test_theorem31_divides_by_no_polynomial(monkeypatch):
    """A counting guard (calls, not time): every denominator of the Siegel
    family is a monomial, so verify_theorem31(siegel_family(1), 4) makes no
    Polynomial.divide_exact call (1,879 when a one-term denominator went
    through exact division) and at most 1500 products of two polynomials
    (4,804 when the monomial denominators were multiplied out too)."""
    fam = siegel_family(1)
    calls = {"products": 0, "divide_exact": 0}
    mul, divide_exact = Polynomial.__mul__, Polynomial.divide_exact

    def counted_mul(a, b):
        calls["products"] += isinstance(b, Polynomial)
        return mul(a, b)

    def counted_divide_exact(a, b):
        calls["divide_exact"] += 1
        return divide_exact(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counted_mul)
    monkeypatch.setattr(Polynomial, "divide_exact", counted_divide_exact)
    report = verify_theorem31(fam, 4)
    assert all(report.values()), report
    assert calls["divide_exact"] == 0 and calls["products"] <= 1500, calls


def test_theorem31_stays_in_the_laurent_ring(monkeypatch):
    """A counting guard (calls, not time): every family's denominators are
    monomials in the imaginary parts, which the normal form keeps as negative
    exponents, so across verify_theorem31 at grade 4 no sum, product or
    derivative has a denominator other than 1 (3,035 did when a monomial
    denominator was stored) and no Polynomial.divide_exact call is made."""
    from focklab.ratfunc import RationalFunction

    families = [modular_family(), siegel_family(0), siegel_family(1), constant_family()]
    calls = {"results": 0, "den_not_1": 0, "divide_exact": 0}

    def counted(method):
        def wrapped(*args):
            out = method(*args)
            if isinstance(out, RationalFunction):
                calls["results"] += 1
                calls["den_not_1"] += out.den != out.field.one.den
            return out

        return wrapped

    for name in ("__add__", "__mul__", "derivative"):
        monkeypatch.setattr(RationalFunction, name, counted(getattr(RationalFunction, name)))
    divide_exact = Polynomial.divide_exact

    def counted_divide_exact(a, b):
        calls["divide_exact"] += 1
        return divide_exact(a, b)

    monkeypatch.setattr(Polynomial, "divide_exact", counted_divide_exact)
    for fam in families:
        report = verify_theorem31(fam, 4)
        assert all(report.values()), report
    assert calls["results"] > 1000 and calls["den_not_1"] == 0 and calls["divide_exact"] == 0, calls
