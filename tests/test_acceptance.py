"""Acceptance gate: every criterion runs standalone at tolerance zero.

Each test prints one PASS line on success (visible with pytest -s or -rA);
a failure carries the exact witness in the assertion message.
"""

from fractions import Fraction

import pytest

from focklab.cli import run_suite
from focklab.fock import (
    E_map,
    FockVector,
    UElement,
    adjoint_failures,
    bracket_TT_probes,
    fock_basis,
    rho_apply,
    standard_space,
    tau,
    tau_hat,
)
from focklab.geometry import build_model, closure_falsifier, curve_fock_data, wzw_gram
from focklab.hodge import modular_family, siegel_family, verify_theorem31
from focklab.laurent import Derivation, LaurentSeries, pairing_with_form, residue
from focklab.linalg import ExactMatrix
from focklab.oscillator import virasoro_bracket
from focklab.subalgebra import KMinusVector, build_quotient, scalar_action

import random

CURVES = {1: [0, -1, 0, 1], 2: [0, -1, 0, 0, 0, 1]}


def _sym_pair(sp, a, b):
    n = 2 * sp.g
    m = [[0] * n for _ in range(n)]
    m[sp.pos(a)][sp.pos(b)] += 1
    m[sp.pos(b)][sp.pos(a)] += 1
    return ExactMatrix(m)


def test_c01_virasoro_cocycle():
    """|k|,|l| <= 6 on every Fock basis vector of grade <= 8, exactly."""
    for k in range(-6, 7):
        for l in range(-6, 7):
            virasoro_bracket(k, l, probe_grade=8)  # raises on any mismatch
    _, central = virasoro_bracket(2, -2, probe_grade=4)
    assert central == Fraction(1, 2)
    print("ACCEPTANCE 1 virasoro-cocycle: PASS")


def test_c02_adjunction():
    for g in (1, 2, 3):
        sp = standard_space(g)
        keys = fock_basis(sp, 4)
        probes = [FockVector.basis(sp, k) for k in keys]
        pairs = [
            (i, j)
            for i, kv in enumerate(keys)
            for j, kw in enumerate(keys)
            if abs(len(kv) - len(kw)) == 1
        ]
        for a in sp.labels():
            failures = list(adjoint_failures(sp, sp.basis_vector(a), probes, probes, pairs))
            assert not failures, [(g, a, keys[i], keys[j]) for i, j in failures]
    print("ACCEPTANCE 2 adjunction: PASS")


def test_c03_tau_homomorphism_and_deviation():
    for g in (1, 2, 3):
        sp = standard_space(g)
        span = [
            E_map(sp, _sym_pair(sp, a, b))
            for a in sp.labels()
            for b in sp.labels()
            if (a, b) <= (b, a)
        ]
        for x in span:
            for y in span:
                assert tau(sp, x).bracket(tau(sp, y)) == tau(sp, x.bracket(y))
        for x in span:
            dev = tau_hat(sp, x) - tau(sp, x)
            want = UElement.monomial(
                sp, [], coeff=x.trace_on_complement() * Fraction(-1, 2)
            )
            assert dev == want
    print("ACCEPTANCE 3 tau-homomorphism-and-deviation: PASS")


def test_c04_quadratic_bracket():
    rng = random.Random(20240808)
    for g in (1, 2, 3):
        sp = standard_space(g)
        for _ in range(4):
            c1 = [[0] * g for _ in range(g)]
            c2 = [[0] * g for _ in range(g)]
            for i in range(g):
                for j in range(i, g):
                    c1[i][j] = c1[j][i] = rng.randint(-3, 3)
                    c2[i][j] = c2[j][i] = rng.randint(-3, 3)
            keys = fock_basis(sp, 4)
            probes = [FockVector.basis(sp, key) for key in keys]
            certified = bracket_TT_probes(sp, ExactMatrix(c1), ExactMatrix(c2), probes)[2]
            assert all(certified), [(g, key) for key, ok in zip(keys, certified) if not ok]
    print("ACCEPTANCE 4 quadratic-bracket: PASS")


def test_c05_curvature():
    """Omega(nabla^FF) is the scalar (1/2) Omega(det nabla^F) =
    -(1/2) trace(conj sigma ^ sigma) on probes of grade <= 4, together with
    both flatness identities and both supporting lemmas; the two trace
    orderings differ by the wedge anticommutation sign, reported explicitly."""
    for fam in (modular_family(), siegel_family()):
        report = verify_theorem31(fam, probe_grade=4)
        for key, value in report.items():
            assert value, (key, report)
    print("ACCEPTANCE 5 fock-connection-curvature: PASS")


def test_c06_fock_type_certification():
    for g, f in CURVES.items():
        n = 44 + 8 * g
        assert n >= 40
        model = build_model(f, g, n)
        data = curve_fock_data(model, degree_bound=4 * g + 4)
        sub = data.subalgebra()
        record = sub.certify(
            derivations={"tangent": model.tangent_field()},
            perp_reps=list(data.phis.values()),
        )
        assert record["ft2"]["A_cap_O_is_R"], record
        assert record["ft2"]["quotient_rank"] == g, record
        assert record["ft3"], record
        assert record["ft4"]["tangent"]["preserves_A"], record
        assert record["ft4"]["tangent"]["maps_perp_to_A"], record
        assert record["ft1_surrogate"]["products_in_A"], record
        # rank(B_p/A_p) = 2g through the quotient construction
        q = build_quotient(sub)
        assert q.g == g
        gram = q.gram()
        idx = list(range(-g, 0)) + list(range(1, g + 1))
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                assert gram.rows[a][b] == (i if i + j == 0 else 0)
        # residue Gram on B_p/A_p: nondegenerate, holomorphic part isotropic
        rg = data.residue_gram_mod_A()
        assert rg.nrows == 2 * g and rg.det()
        assert (rg + rg.transpose()).is_zero()
        phis = sorted(data.phis)
        for i, ki in enumerate(phis):
            for j, kj in enumerate(phis):
                if ki >= 1 and kj >= 1:
                    assert not rg[i, j]
    print("ACCEPTANCE 6 fock-type-certification: PASS")


def test_c07_nonclosure_witness():
    for g, f in CURVES.items():
        n = 44 + 8 * g
        witness = closure_falsifier(build_model(f, g, n))
        if witness is None:
            pytest.skip(f"no witness within the search bound for g={g}")
        again = closure_falsifier(build_model(f, g, n + 10))
        assert again is not None
        assert (again["left"], again["right"]) == (witness["left"], witness["right"])
        assert again["remainder_order"] == witness["remainder_order"]
        assert again["remainder_leading"] == witness["remainder_leading"]
    print("ACCEPTANCE 7 nonclosure-witness: PASS")


def test_c08_covariant_scalar_action():
    for g, f in CURVES.items():
        model = build_model(f, g, 44 + 8 * g)
        data = curve_fock_data(model, degree_bound=4 * g + 4)
        q = build_quotient(data.subalgebra())
        probes = [
            KMinusVector.vacuum(),
            KMinusVector({(("q", 1),): 1}),
            KMinusVector({(("q", 1), ("q", 1)): 1}),
        ]
        if g >= 2:
            probes.append(KMinusVector({(("q", 2),): 1}))
            probes.append(KMinusVector({(("q", 1), ("q", 2)): 1}))
        lam = scalar_action(model.tangent_field(), q, probes)  # raises NotScalar on failure
        assert lam == lam  # probe-independent by certification
    print("ACCEPTANCE 8 covariant-scalar-action: PASS")


def test_c09_wzw_gram():
    rng = random.Random(20240808)
    for g, f in CURVES.items():
        n = 44 + 8 * g
        model = build_model(f, g, n)
        derivations = [
            model.tangent_field(),
            Derivation.D(2),
            Derivation.from_series(
                LaurentSeries.from_terms({k: rng.randint(-3, 3) for k in range(-2, 7)}, n - 8)
            ),
        ]
        for d in derivations:
            m = wzw_gram(model, d)  # certifies the sign identity entrywise
            assert m == m.transpose()
            # independent re-check of the sign identity on each entry
            for i in range(1, g + 1):
                for j in range(1, g + 1):
                    e_i = model.phi(i).scale(i)
                    e_j = model.phi(j).scale(j)
                    lhs = residue(e_j * d.apply(e_i).derivative())
                    rhs = residue(
                        pairing_with_form(d, model.omega_coefficient(i))
                        * model.omega_coefficient(j)
                    )
                    assert lhs == -Fraction(i * j) * rhs, (g, i, j)
    print("ACCEPTANCE 9 wzw-gram: PASS")


def test_c10_determinism():
    a = run_suite("all", {"seed": 20240808}).to_json_bytes()
    b = run_suite("all", {"seed": 20240808}).to_json_bytes()
    assert a == b
    print("ACCEPTANCE 10 determinism: PASS")
