import ast
import re
from fractions import Fraction

import pytest

from focklab import oscillator
from focklab.cli import main, run_suite
from focklab.laurent import Derivation, LaurentSeries, PrecisionExhausted, residue_form
from focklab.oscillator import (
    BasisNotQuasiSymplectic,
    OscFockVector,
    apply_mode,
    check_quasi_symplectic,
    coefficientwise_action,
    commutator_with_multiplication,
    lift_derivation,
    operator_equal_on_grade,
    osc_basis,
    realize_in_modes,
    series_multiply,
    tau_hat_D,
    tau_hat_Dk,
    virasoro_bracket,
    virasoro_sweep,
)
from focklab.ratfunc import DifferentialField

t = LaurentSeries.t_power


def t_basis(lo, hi):
    return {i: t(i) for i in range(lo, hi + 1)}


def test_heisenberg_relation_on_probes():
    for k in range(-5, 6):
        for l in range(-5, 6):
            for key in osc_basis(5):
                v = OscFockVector.basis(key)
                lhs = apply_mode(k, apply_mode(l, v)) - apply_mode(l, apply_mode(k, v))
                want = v.scale(k) if (k + l == 0 and k != 0) else OscFockVector()
                assert lhs == want, (k, l, key)


def test_tau_hat_positive_order_annihilates_vacuum():
    for k in range(1, 6):
        assert not tau_hat_Dk(k).apply(OscFockVector.vacuum())


def test_tau_hat_small_cases():
    # expanding every contributing monomial: tau_hat(D_1) kills e_{-1} v_0
    assert not tau_hat_Dk(1).apply(OscFockVector.basis((-1,)))
    # no creation pair has mode sum -1 (indices 0 are excluded)
    assert not tau_hat_Dk(-1).apply(OscFockVector.vacuum())
    # mode sum -2 admits exactly the pair (-1, -1) with coefficient -1/2
    w = tau_hat_Dk(-2).apply(OscFockVector.vacuum())
    assert w == OscFockVector.basis((-1, -1)).scale(Fraction(-1, 2))
    # tau_hat(D_0) is minus the energy operator
    v = OscFockVector.basis((-3, -1))
    assert tau_hat_Dk(0).apply(v) == v.scale(-4)


def test_commutator_with_multiplication_examples():
    # [tau_hat(D), f] = D(f) as operators
    v0 = OscFockVector.vacuum()
    got = commutator_with_multiplication(tau_hat_Dk(2), t(-3), v0)
    want = series_multiply(Derivation.D(2).apply(t(-3)), v0)
    assert got == want == OscFockVector.basis((-1,)).scale(-3)


def test_commutator_identity_sweep():
    for k in range(-5, 6):
        op = tau_hat_Dk(k)
        for m in range(-5, 6):
            if m == 0:
                continue
            f = t(m)
            df = Derivation.D(k).apply(f)
            for key in osc_basis(6):
                v = OscFockVector.basis(key)
                assert commutator_with_multiplication(op, f, v) == series_multiply(df, v), (k, m, key)


def test_virasoro_examples():
    op, central = virasoro_bracket(1, -1, probe_grade=5)
    assert central == 0
    assert operator_equal_on_grade(op, tau_hat_Dk(0).scale(-2), 5)
    op, central = virasoro_bracket(2, -2, probe_grade=5)
    assert central == Fraction(1, 2)
    op, central = virasoro_bracket(3, -3, probe_grade=6)
    assert central == 2
    assert operator_equal_on_grade(
        op, lambda v: tau_hat_Dk(0).apply(v).scale(-6) + v.scale(2), 6
    )


def test_virasoro_full_range():
    for k in range(-4, 5):
        for l in range(-4, 5):
            virasoro_bracket(k, l, probe_grade=4)


def test_tau_hat_of_series_derivation():
    # g = t^3 gives D = D_2 exactly
    d_series = Derivation.from_series(LaurentSeries.from_terms({3: 1}, 12))
    op = tau_hat_D(d_series)
    assert operator_equal_on_grade(op, tau_hat_Dk(2), 4)
    # window exhaustion is honest
    short = Derivation.from_series(LaurentSeries.from_terms({3: 1}, 5))
    op2 = tau_hat_D(short)
    with pytest.raises(PrecisionExhausted):
        op2.apply(OscFockVector.basis((-2,)))


def test_quasi_symplectic_checks():
    basis = t_basis(-6, 6)
    assert check_quasi_symplectic(basis)
    bad0 = dict(basis)
    bad0[0] = LaurentSeries.polynomial({0: 1, 1: 1})
    assert not check_quasi_symplectic(bad0)
    bad1 = dict(basis)
    bad1[1] = basis[1].scale(2)
    assert not check_quasi_symplectic(bad1)


def substituted_basis(lam, lo, hi, prec=40):
    """e_i = (t + lam t^2)^i: quasi-symplectic since residues are
    substitution invariant."""
    base = LaurentSeries.from_terms({1: 1, 2: lam}, prec)
    out = {}
    for i in range(lo, hi + 1):
        if i >= 0:
            v = LaurentSeries.one()
            for _ in range(i):
                v = v * base
        else:
            inv = base.inv()
            v = LaurentSeries.one()
            for _ in range(-i):
                v = v * inv
        out[i] = v
    return out


def test_substituted_basis_is_quasi_symplectic():
    basis = substituted_basis(1, -5, 5)
    assert check_quasi_symplectic(basis, index_range=range(-4, 5))


def test_lift_horizontal_only():
    xy = DifferentialField(["x", "y"])
    D = Derivation.horizontal_part({"x": 1})
    lift = lift_derivation(D, t_basis(-4, 4))
    fam = OscFockVector({(-1,): xy.parse("x^2"), (-2, -1): xy.parse("y")})
    got = lift.apply(fam)
    want = OscFockVector({(-1,): xy.parse("2*x")})
    assert got == want


def test_lift_example_D0_plus_dx():
    xy = DifferentialField(["x"])
    D = Derivation(k=0, horizontal={"x": 1})
    lift = lift_derivation(D, t_basis(-4, 4))
    fam = OscFockVector({(-1,): xy.var("x")})
    got = lift.apply(fam)
    # x * (tau_hat(D_0) e_{-1} v_0) + e_{-1} v_0 = (1 - x) e_{-1} v_0
    tau0 = tau_hat_Dk(0).apply(OscFockVector.basis((-1,)))
    assert tau0 == OscFockVector.basis((-1,)).scale(-1)
    want = OscFockVector({(-1,): xy.parse("1 - x")})
    assert got == want


def test_lift_matches_tau_hat_in_standard_basis():
    D = Derivation.D(2)
    lift = lift_derivation(D, t_basis(-8, 8))
    for key in osc_basis(4):
        v = OscFockVector.basis(key)
        assert lift.apply(v) == tau_hat_Dk(2).apply(v)


def test_lift_basis_change_consistency():
    """Two quasi-symplectic bases: the lifts differ by the coefficientwise
    action of a positive-order derivation."""
    D = Derivation.D(1)
    basis1 = t_basis(-9, 9)
    basis2 = substituted_basis(1, -9, 9, prec=50)
    lift1 = lift_derivation(D, basis1)
    lift2 = lift_derivation(D, basis2)
    for key in [(-1,), (-2,), (-2, -1)]:
        fam = OscFockVector.basis(key)
        r1 = realize_in_modes(lift1.apply(fam), basis1)
        r2 = realize_in_modes(lift2.apply(fam), basis2)
        diff = r1 - r2
        # D = D_vert^1 + D_hor^1 = D_vert^2 + D_hor^2; the difference of the
        # two lifts acts coefficientwise via D_0 := D_vert^1 - D_vert^2,
        # whose image on each basis element has positive order
        # (here D_hor^i = 0 and the correction shows up through the
        # tau-hat weights); certify against the slotwise oracle.
        correction = coefficientwise_action(D, fam, basis1) - coefficientwise_action(
            D, fam, basis2
        )
        # both are realizations of the same abstract vector difference up to
        # the scalar (grade-0) part killed by covariants; compare gradewise
        assert _strip_scalar(diff - correction) == OscFockVector()


def _strip_scalar(v):
    out = OscFockVector()
    out.terms = {k: c for k, c in v.terms.items() if k}
    return out


def test_central_term_independent_of_basis():
    """Virasoro central scalars recomputed in a substituted basis agree."""
    basis = substituted_basis(1, -12, 12, prec=60)
    for k, l in [(2, -2), (3, -3), (1, -1), (2, -1)]:
        lift_k = lift_derivation(Derivation.D(k), basis)
        lift_l = lift_derivation(Derivation.D(l), basis)
        lift_kl = lift_derivation(Derivation.D(k + l), basis)
        expected_central = Fraction(k**3 - k, 12) if k + l == 0 else Fraction(0)
        for key in osc_basis(3):
            v = OscFockVector.basis(key)
            lhs = lift_k.apply(lift_l.apply(v)) - lift_l.apply(lift_k.apply(v))
            rhs = lift_kl.apply(v).scale(l - k) + v.scale(expected_central)
            assert lhs == rhs, (k, l, key)


def test_series_multiply_window_guard():
    f = LaurentSeries.from_terms({-1: 1}, 2)
    with pytest.raises(PrecisionExhausted):
        series_multiply(f, OscFockVector.basis((-3,)))


# -- the Virasoro sweep ----------------------------------------------------------

# Deliberate defects, each installed over the real function it wraps.
BREAKS = {
    "central": ("_virasoro_central", lambda real: lambda k, l: real(k, l) + (1 if k + l == 0 else 0)),
    "operator": ("tau_hat_Dk", lambda real: lambda k: real(k).scale(2) if k == 2 else real(k)),
}

# The byte-stable fock-lab/1 body of a passing run_suite("virasoro", {"kmax": 3, "grade": 4}).
VIRASORO_K3_G4_JSON = """{
  "checks": [
    {
      "id": "virasoro.01-cocycle",
      "statement": "[T(D_k), T(D_l)] = (l-k) T(D_{k+l}) + (k^3-k)/12 delta_{k+l,0}",
      "status": "pass"
    },
    {
      "id": "virasoro.02-spot-central",
      "statement": "central term at (k,l) = (2,-2) equals 1/2",
      "status": "pass"
    },
    {
      "id": "virasoro.03-module-commutator",
      "statement": "[T(D), f] = D(f) on the Fock module",
      "status": "pass"
    },
    {
      "id": "virasoro.04-positive-order-vacuum",
      "statement": "T(D) v_0 = 0 for D of positive order",
      "status": "pass"
    }
  ],
  "params": {
    "grade": "4",
    "kmax": "3"
  },
  "schema": "fock-lab/1",
  "suite": "virasoro"
}
"""


def _break(monkeypatch, name):
    attr, make = BREAKS[name]
    monkeypatch.setattr(oscillator, attr, make(getattr(oscillator, attr)))


@pytest.mark.parametrize("broken", [None, *sorted(BREAKS)])
def test_sweep_agrees_with_per_pair_brackets(monkeypatch, broken):
    if broken:
        _break(monkeypatch, broken)
    failing = set()
    for k in range(-3, 4):
        for l in range(-3, 4):
            try:
                virasoro_bracket(k, l, probe_grade=4)
            except AssertionError:
                failing.add((k, l))
    assert {(k, l) for k, l, _ in virasoro_sweep(3, 4)} == failing
    assert bool(failing) == bool(broken)


@pytest.mark.parametrize("broken", sorted(BREAKS))
def test_virasoro_suite_reports_a_broken_identity(monkeypatch, broken):
    _break(monkeypatch, broken)
    rep = run_suite("virasoro", {"kmax": 3, "grade": 4})
    rec = next(c for c in rep.checks if c.id == "virasoro.01-cocycle")
    assert rec.status == "fail"
    m = re.match(r"Virasoro identity failed for \(k,l\)=\((-?\d+),(-?\d+)\) on (\(.*?\));", rec.witness)
    assert m, rec.witness
    k, l, key = int(m[1]), int(m[2]), ast.literal_eval(m[3])
    # the per-pair check fails on the same pair, first at the same probe
    with pytest.raises(AssertionError) as exc:
        virasoro_bracket(k, l, probe_grade=4)
    assert str(exc.value) == rec.witness.split(";")[0]
    assert key in osc_basis(4)
    assert main(["--suite", "virasoro", "--param", "kmax=3", "--param", "grade=4"]) == 1


def test_virasoro_suite_json_unchanged():
    rep = run_suite("virasoro", {"kmax": 3, "grade": 4})
    assert rep.to_json_bytes() == VIRASORO_K3_G4_JSON.encode()
