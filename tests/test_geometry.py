import json
import os
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from focklab import cli, geometry
from focklab.geometry import (
    IdentityFailed,
    RepeatedRoots,
    WrongDegree,
    build_model,
    closure_falsifier,
    curve_fock_data,
    wzw_gram,
)
from focklab.laurent import Derivation, LaurentSeries, residue_form
from focklab.linalg import ExactMatrix
from focklab.scalars import GaussianRational, InvalidParameters

F = Fraction

CURVE_G1 = [0, -1, 0, 1]       # f = x^3 - x
CURVE_G2 = [0, -1, 0, 0, 0, 1]  # f = x^5 - x


def test_build_model_g1_u_series():
    model = build_model(CURVE_G1, 1, 40)
    # u(t) = (1 - t^2)^(-1/2) = 1 + t^2/2 + 3 t^4/8 + ...
    assert model.u.coefficient(0) == 1
    assert model.u.coefficient(2) == F(1, 2)
    assert model.u.coefficient(4) == F(3, 8)
    assert model.u.coefficient(1) == 0
    # square back: u^2 (1 - t^2) = 1
    w = LaurentSeries.polynomial({0: 1, 2: -1})
    assert ((model.u * model.u) * w - 1).is_zero()


def test_build_model_rejects_bad_input():
    with pytest.raises(RepeatedRoots):
        build_model([0, 0, 0, 1], 1, 20)  # f = x^3
    with pytest.raises(WrongDegree):
        build_model([1, 1], 1, 20)
    # defining identity y^2 = f(x) is (re)checked at construction
    model = build_model(CURVE_G1, 1, 40)
    fx = LaurentSeries.polynomial({-6: 1, -2: -1})
    assert (model.y * model.y - fx).is_zero()


@pytest.mark.parametrize("lead", [2, -2, F(1, 2), GaussianRational(0, 1)])
def test_a_lead_with_no_exact_square_root_is_refused_before_any_series(monkeypatch, lead):
    """A leading coefficient with no square root in Q(sqrt(-1)) names no
    model: InvalidParameters, raised before any series is built, as the
    degree and repeated-root refusals are."""
    monkeypatch.setattr(LaurentSeries, "polynomial", lambda *a, **k: pytest.fail("a series was built"))
    with pytest.raises(InvalidParameters, match=f"the leading coefficient {lead} of f is not an exact square"):
        build_model([0, -1, 0, lead], 1, 20)
    assert issubclass(WrongDegree, InvalidParameters) and issubclass(RepeatedRoots, InvalidParameters)


@pytest.mark.parametrize(
    "f",
    [
        [0, 0, 0, 1],  # x^3
        [1, -1, -1, 1],  # (x - 1)^2 (x + 1)
        [-1, GaussianRational(-1, -2), GaussianRational(1, -2), 1],  # (x - i)^2 (x + 1)
    ],
)
def test_a_curve_with_a_repeated_root_is_rejected(f):
    with pytest.raises(RepeatedRoots):
        build_model(f, 1, 20)


def test_a_square_free_cubic_is_accepted():
    model = build_model([1, 1, 0, 1], 1, 20)  # x^3 + x + 1, discriminant -31
    assert model.g == 1 and model.f[3] == 1


def test_phi_conventions():
    model = build_model(CURVE_G1, 1, 40)
    phi_m1 = model.phi(0)  # phi_{-1}
    assert phi_m1.ord == -1
    assert phi_m1.coefficient(-1) == -1
    assert (phi_m1.derivative() - model.omega_coefficient(0)).is_zero()
    phi_1 = model.phi(1)
    assert phi_1.ord == 1
    assert (phi_1.derivative() - model.u2).is_zero()


def test_omega_curve_g1():
    model = build_model(CURVE_G1, 1, 40)
    data = curve_fock_data(model, degree_bound=8)
    assert len(data.omega_curve) == 1
    assert (data.omega_curve[0] - model.u2).is_zero()


def test_residue_gram_structure():
    for coeffs, g in [(CURVE_G1, 1), (CURVE_G2, 2)]:
        model = build_model(coeffs, g, 48)
        data = curve_fock_data(model, degree_bound=4 * g + 4)
        gram = data.residue_gram_mod_A()
        assert gram.nrows == 2 * g
        assert (gram + gram.transpose()).is_zero()
        assert gram.det()  # nondegenerate
        # holomorphic part (phi_{2i-1}, i >= 1) is isotropic
        phis = sorted(data.phis)
        for i, ki in enumerate(phis):
            for j, kj in enumerate(phis):
                if ki >= 1 and kj >= 1:
                    assert not gram[i, j]


def test_closure_falsifier_g1():
    model = build_model(CURVE_G1, 1, 40)
    witness = closure_falsifier(model)
    assert witness is not None
    assert witness["remainder_order"] >= 1
    # phi_{-1}^2 = x - t^2/3 + ...: the first obstruction
    assert witness == {
        "left": "phi_-1",
        "right": "phi_-1",
        "remainder_order": witness["remainder_order"],
        "remainder_leading": witness["remainder_leading"],
        "window": witness["window"],
    }
    assert witness["remainder_order"] == 2
    assert witness["remainder_leading"] == F(-1, 3)


def test_closure_falsifier_stable_under_window_growth():
    w1 = closure_falsifier(build_model(CURVE_G1, 1, 40))
    w2 = closure_falsifier(build_model(CURVE_G1, 1, 50))
    assert w1["left"] == w2["left"] and w1["right"] == w2["right"]
    assert w1["remainder_order"] == w2["remainder_order"]
    assert w1["remainder_leading"] == w2["remainder_leading"]
    wg2 = closure_falsifier(build_model(CURVE_G2, 2, 60))
    assert wg2 is not None and wg2["remainder_order"] >= 1


def test_closure_falsifier_rejects_genus0():
    model = build_model(CURVE_G1, 1, 40)
    model.g = 0
    with pytest.raises(ValueError):
        closure_falsifier(model)


def test_tangent_field_preserves_A():
    from focklab.subalgebra import span_membership

    for coeffs, g in [(CURVE_G1, 1), (CURVE_G2, 2)]:
        model = build_model(coeffs, g, 48)
        data = curve_fock_data(model, degree_bound=4 * g + 4)
        sub = data.subalgebra()
        D = model.tangent_field()
        ord_d = D.order()
        for a in data.a_basis:
            verdict = span_membership(D.apply(a), sub.by_ord)
            assert verdict is not False  # never a certified failure
            if -a.ord - ord_d <= data.degree_bound:
                # image pole stays within the stored bound: must be decided
                assert verdict is True
        # and maps the phi-lifts (A-perp) into A, exactly
        for phi in data.phis.values():
            assert span_membership(D.apply(phi), sub.by_ord) is True


def test_wzw_gram_g1_D2():
    model = build_model(CURVE_G1, 1, 40)
    m = wzw_gram(model, Derivation.D(2))
    # res(t^3 u(t^2)^2 dt) with u^2 = 1/(1-t^4): only even powers appear
    assert m == ExactMatrix([[0]])


def test_wzw_gram_zero_derivation():
    model = build_model(CURVE_G1, 1, 40)
    d0 = Derivation.from_series(LaurentSeries.zero(40))
    assert wzw_gram(model, d0).is_zero()


def test_wzw_gram_symmetric_seeded_g2():
    model = build_model(CURVE_G2, 2, 60)
    import random

    rng = random.Random(20240812)
    terms = {k: rng.randint(-3, 3) for k in range(-2, 7)}
    d = Derivation.from_series(LaurentSeries.from_terms(terms, 40))
    m = wzw_gram(model, d)  # certifies symmetry + sign identity internally
    assert m == m.transpose()
    # tangent-field Gram also symmetric, entries exact rationals
    m2 = wzw_gram(model, model.tangent_field())
    assert m2 == m2.transpose()


def _asymmetric(entries):
    """wzw_gram_entries with 1 added to M[1,2] and a passing sign identity;
    the zero derivation keeps its zero Gram, so check 03 still holds, and a
    Gram with fewer than two rows, which has no M[1,2], is left unchanged."""
    def broken(model, d):
        m, _ = entries(model, d)
        if d.order() is None or m.nrows < 2:
            return m, None
        rows = [list(r) for r in m.rows]
        rows[0][1] += 1
        return ExactMatrix(rows), None
    return broken


# Defects keyed by the one wzw-gram record each must break: (module, name, wrapper).
WZW_BREAKS = {
    "wzw-gram.01-symmetric": (cli, "wzw_gram_entries", _asymmetric),
    # res(e_j d(D e_i)) off by one at every entry; M itself is untouched
    "wzw-gram.02-sign-identity": (geometry, "residue_form", lambda real: lambda f, g: real(f, g) + 1),
}


@pytest.mark.parametrize("check", sorted(WZW_BREAKS))
def test_wzw_gram_suite_verdicts_are_separate(monkeypatch, check):
    module, name, make = WZW_BREAKS[check]
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    params = {"f": CURVE_G2, "g": 2, "N": 60}
    rep = cli.run_suite("wzw-gram", params)
    assert [c.id for c in rep.failed] == [check]
    model = build_model([F(c) for c in CURVE_G2], 2, 60)
    if check == "wzw-gram.01-symmetric":
        m, _ = geometry.wzw_gram_entries(model, model.tangent_field())
        want = f"tangent-field: M[1,2] = {m[0, 1] + 1} != M[2,1] = {m[1, 0]}"
    else:
        want = "tangent-field: sign identity failed at entry (1,1): "
    assert rep.failed[0].witness.startswith(want)
    argv = ["--suite", "wzw-gram", "--param", "f=[0,-1,0,0,0,1]", "--param", "g=2", "--param", "N=60"]
    assert cli.main(argv) == 1


def test_suite_all_fails_an_asymmetric_gram_at_genus_2(monkeypatch, tmp_path):
    """--suite all runs wzw-gram at g = 2 as well as at g = 1, where the 1x1
    Gram is symmetric by construction, so an asymmetric Gram fails there."""
    monkeypatch.setattr(cli, "wzw_gram_entries", _asymmetric(cli.wzw_gram_entries))
    out = tmp_path / "all.json"
    assert cli.main(["--suite", "all", "--json", str(out)]) == 1
    checks = json.loads(out.read_bytes())["checks"]
    assert [c["id"] for c in checks if c["status"] == "fail"] == ["wzw-gram.01-symmetric.g2"]


# (g, the coefficients of x^0 .. x^2g below the leading 1), g <= 2
LOW_COEFFICIENTS = st.integers(1, 2).flatmap(
    lambda g: st.tuples(st.just(g), st.lists(st.integers(-3, 3), min_size=2 * g + 1, max_size=2 * g + 1))
)


@settings(max_examples=20, deadline=None)
@given(LOW_COEFFICIENTS)
def test_generic_curves_certify_or_exhaust_the_window(curve):
    """On a monic square-free f of degree 2g + 1 the hyperelliptic suite
    passes all six checks, or ends in a skipped run record when the window
    is exhausted; it never fails or raises."""
    sympy = pytest.importorskip("sympy")
    g, low = curve
    f = low + [1]
    x = sympy.Symbol("x")
    assume(sympy.discriminant(sum(c * x**k for k, c in enumerate(f)), x) != 0)
    rep = cli.run_suite("hyperelliptic", {"f": f, "g": g, "N": 44 + 8 * g})
    assert not rep.failed, (f, [(c.id, c.witness) for c in rep.failed])
    last = rep.checks[-1]
    assert [c.status for c in rep.checks] == ["pass"] * 6 or (last.id, last.status) == ("hyperelliptic.run", "skipped")


def test_a_model_takes_one_root_and_one_inverse(monkeypatch):
    """build_model makes one sqrt_unit and one inv call, and tangent_field()
    none: y and the tangent field come from the root.  A rational f keeps
    u and y in Fractions, on the integer paths of laurent."""
    calls = []
    for name in ("inv", "sqrt_unit"):
        real = getattr(LaurentSeries, name)
        monkeypatch.setattr(LaurentSeries, name, lambda self, *a, _r=real, _n=name, **k: calls.append(_n) or _r(self, *a, **k))
    model = build_model([0, -1, 0, 0, 0, F(9, 4)], 2, 60)  # a non-monic square lead
    assert sorted(calls) == ["inv", "sqrt_unit"]
    D = model.tangent_field()
    assert sorted(calls) == ["inv", "sqrt_unit"]
    assert {type(c) for s in (model.u, model.u2, model.y, D.series) for c in s.coeffs.values()} == {F}


def test_the_model_certifies_u2_times_y():
    """y no longer comes from inverting u2, so the model checks u(t^2) y(t) =
    t^(-1-2g) within the window; an altered u2 fails it."""
    model = build_model(CURVE_G1, 1, 40)
    model._validate()
    model.u2 = model.u2 + LaurentSeries(38, 40, {38: 1})
    with pytest.raises(IdentityFailed, match=r"u\(t\^2\) y\(t\)"):
        model._validate()


def test_curve_suites_at_the_benchmark_sizes_match_the_pinned_reports():
    """hyperelliptic and wzw-gram on x^7 - x (g = 3, N = 68) and x^9 - x
    (g = 4, N = 76), the sizes the benchmark runs and --suite all does not
    reach, give the reports pinned in tests/data/curves_g3_g4.json."""
    with open(os.path.join(os.path.dirname(__file__), "data", "curves_g3_g4.json")) as fh:
        want = json.load(fh)
    for g in (3, 4):
        f = [0, -1] + [0] * (2 * g - 1) + [1]
        for suite in ("hyperelliptic", "wzw-gram"):
            assert cli.run_suite(suite, {"f": f, "g": g, "N": 44 + 8 * g}).to_json() == want[f"{suite}.g{g}"]
