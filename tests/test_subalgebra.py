from fractions import Fraction

import pytest

from focklab.fock import FockVector, standard_space
from focklab.geometry import build_model, curve_fock_data
from focklab.laurent import Derivation, LaurentSeries, residue_form
from focklab.oscillator import OscFockVector, osc_basis, series_multiply, tau_hat_D
from focklab.subalgebra import (
    FockSubalgebra,
    KMinusVector,
    NoIsotropicLift,
    NotScalar,
    QuotientSymplectic,
    build_quotient,
    compute_perp,
    covariants,
    covariants_of_modes,
    echelon_reduce,
    echelonize,
    genus0_subalgebra,
    mode_reduce,
    realize_kminus,
    scalar_action,
    span_membership,
)

F = Fraction
CURVE_G1 = [0, -1, 0, 1]
CURVE_G2 = [0, -1, 0, 0, 0, 1]


def g1_quotient(window=44, bound=8):
    model = build_model(CURVE_G1, 1, window)
    data = curve_fock_data(model, degree_bound=bound)
    return model, data, build_quotient(data.subalgebra())


# -- genus 0 ---------------------------------------------------------------------


def test_genus0_perp_equals_A():
    sub = genus0_subalgebra(window=24, degree_bound=12)
    assert sub.quotient_rank() == 0
    perp = compute_perp(sub, -12, 13)
    # every perp class reduces into A: rank of the quotient is 0
    assert all(span_membership(f, sub.by_ord) is True for f in perp)
    q = build_quotient(sub)
    assert q.g == 0


def test_perp_of_constants_only():
    # A = R*1: everything pairs to zero with constants
    sub = FockSubalgebra([LaurentSeries.one()], window=16, degree_bound=4)
    perp = compute_perp(sub, -4, 8)
    # the computed perp has full coordinate rank (minus nothing): d(1) = 0
    assert len(perp) >= 10


def test_genus0_certification():
    sub = genus0_subalgebra(window=24, degree_bound=10)
    record = sub.certify(derivations={"D1": Derivation.D(1)})
    assert record["ft1_surrogate"]["products_in_A"]
    assert record["ft2"]["A_cap_O_is_R"]
    assert record["ft2"]["quotient_rank"] == 0
    assert record["ft3"]
    assert record["ft4"]["D1"]["preserves_A"]


def test_genus0_scalar_action():
    sub = genus0_subalgebra(window=24, degree_bound=10)
    q = build_quotient(sub)
    # covariant space is 1-dimensional: the vacuum class
    probes = [KMinusVector.vacuum()]
    lam = scalar_action(Derivation.D(1), q, probes)
    assert lam == 0


# -- hyperelliptic quotients -------------------------------------------------------


def test_quotient_rank_matches_missing_orders():
    for coeffs, g in [(CURVE_G1, 1), (CURVE_G2, 2)]:
        model = build_model(coeffs, g, 48)
        data = curve_fock_data(model, degree_bound=4 * g + 4)
        sub = data.subalgebra()
        assert sub.quotient_rank() == g
        assert sub.missing_orders() == [-(2 * i - 1) for i in range(1, g + 1)]


def test_build_quotient_g1():
    model, data, q = g1_quotient()
    assert q.g == 1
    # e_{-1} has the phi_{-1} order, e_1 is an omega-primitive multiple
    assert q.neg_lifts[0].ord == -1
    assert q.pos_lifts[0].ord == 1
    gram = q.gram()
    # Gram = [[0, -1], [1, 0]] in the order (e_{-1}, e_1)
    assert gram.rows[0][0] == 0 and gram.rows[1][1] == 0
    assert gram.rows[1][0] == 1 and gram.rows[0][1] == -1
    # e_1 is proportional to the holomorphic primitive phi_1 modulo A
    rem, _ = echelon_reduce(q.pos_lifts[0], data.subalgebra().by_ord)
    phi1 = data.phis[1]
    assert (rem * phi1.coefficient(1) - phi1 * rem.coeffs[rem.ord]).is_zero()


def test_build_quotient_g2_rank_and_gram():
    model = build_model(CURVE_G2, 2, 56)
    data = curve_fock_data(model, degree_bound=12)
    q = build_quotient(data.subalgebra())
    assert q.g == 2
    idx = [-2, -1, 1, 2]
    gram = q.gram()
    for a, i in enumerate(idx):
        for b, j in enumerate(idx):
            assert gram.rows[a][b] == (i if i + j == 0 else 0), (i, j)


# f with both a constant and a linear term: the order -1 remainders of A-perp
# modulo A are not proportional, so echelonizing them cancels a pole.
GENERIC_CURVES = [([1, 1, 0, 1], 1), ([1, -1, 0, 0, 0, 1], 2), ([1, 1, 0, 0, 0, 0, 0, 1], 3)]


@pytest.mark.parametrize("f, g", GENERIC_CURVES)
def test_build_quotient_on_curves_that_are_not_odd(f, g):
    from focklab.cli import main

    n = 44 + 8 * g
    data = curve_fock_data(build_model(f, g, n), degree_bound=4 * g + 4)
    q = build_quotient(data.subalgebra())  # QuotientSymplectic._verify certifies the lifts
    assert q.g == g
    assert [e.ord for e in q.neg_lifts] == [-(2 * i - 1) for i in range(1, g + 1)]
    assert all(e.ord >= 1 for e in q.pos_lifts)
    argv = ["--suite", "hyperelliptic", "--param", f"f={f}", "--param", f"g={g}", "--param", f"N={n}"]
    assert main(argv) == 0


def perp_spans_check(q: QuotientSymplectic, lo: int, hi: int) -> bool:
    """A-perp = A + span(lifts) within the window: reduce each computed
    perp basis element by A and the lifts; remainders must vanish."""
    perp = compute_perp(q.a_sub, lo, hi)
    span = dict(q.kminus_by_ord)
    for e in q.pos_lifts:
        span[e.ord] = e
    span = echelonize(list(span.values()))
    return all(span_membership(f, span) is True for f in perp)


def test_perp_span_check_g1():
    model, data, q = g1_quotient()
    assert perp_spans_check(q, -8, 9)


def test_ft_certification_hyperelliptic():
    for coeffs, g, window in [(CURVE_G1, 1, 44), (CURVE_G2, 2, 56)]:
        model = build_model(coeffs, g, window)
        data = curve_fock_data(model, degree_bound=4 * g + 4)
        sub = data.subalgebra()
        D = model.tangent_field()
        record = sub.certify(
            derivations={"tangent": D}, perp_reps=list(data.phis.values())
        )
        assert record["ft1_surrogate"]["products_in_A"]
        assert record["ft2"]["A_cap_O_is_R"]
        assert record["ft2"]["quotient_rank"] == g
        assert record["ft3"]
        assert record["ft4"]["tangent"]["preserves_A"]
        assert record["ft4"]["tangent"]["maps_perp_to_A"]


# -- covariants --------------------------------------------------------------------


def test_covariants_kill_A_factors():
    model, data, q = g1_quotient()
    a_label = ("a", -2)  # the class of x
    kv = KMinusVector({(a_label,): 1})
    assert not covariants(q, kv)
    kv2 = KMinusVector({(("q", 1),): 1})
    image = covariants(q, kv2)
    space = standard_space(1)
    assert image == FockVector.basis(space, (-1,))


def test_covariant_graded_dimensions():
    """Graded dimension of the covariant image equals dim Sym of rank g."""
    model, data, q = g1_quotient()
    # realize every t-mode basis vector of grade <= 5 and reduce
    from collections import defaultdict

    images = defaultdict(list)
    for key in osc_basis(5):
        v = OscFockVector.basis(key)
        image = covariants_of_modes(q, v)
        for k, c in image.terms.items():
            images[len(k)].append((key, k, c))
    # rank of the image per degree d is 1 (Sym^d of a rank-1 space)
    space = standard_space(1)
    for d in range(6):
        keys = {k for (_src, k, _c) in images[d]}
        assert len(keys) <= 1
    # degree-d part is hit (surjectivity): t-mode monomial of d copies of t^{-1}
    for d in range(6):
        v = OscFockVector.basis(tuple([-1] * d))
        assert covariants_of_modes(q, v).terms


def test_mode_reduce_roundtrip():
    """Realize a K^- monomial in t-modes, reduce back: identity."""
    model, data, q = g1_quotient()
    for key in [(), (("q", 1),), (("q", 1), ("q", 1)), (("a", -2), ("q", 1))]:
        kv = KMinusVector({tuple(sorted(key)): F(3, 2)})
        v = realize_kminus(q, kv)
        back = mode_reduce(q, v)
        assert back == kv, key


def test_mode_reduce_rejects_positive_modes():
    model, data, q = g1_quotient()
    v = OscFockVector()
    v.terms = {(-1, 2): F(1)}  # bypass constructor guard deliberately
    with pytest.raises(Exception):
        mode_reduce(q, v)


def test_covariants_independent_of_lift_choice():
    """Two valid lift choices give the same covariant map and the same
    quotient pairing (the form descends: shifting a lift by an A-element
    changes nothing, by total isotropy of A and perpendicularity)."""
    model, data, q1 = g1_quotient()
    sub = data.subalgebra()
    # second choice: shift e_{-1} by an A-element of the same parity
    x_elem = sub.by_ord[-2]
    e_m1 = q1.neg_lifts[0] + x_elem.scale(F(5, 7))
    # keep pairing normalization: (e_1, e'_{-1}) = (e_1, e_{-1}) since e_1 perp A
    q2 = QuotientSymplectic(sub, [e_m1], list(q1.pos_lifts))
    assert q1.gram() == q2.gram()
    for key in osc_basis(4):
        v = OscFockVector.basis(key)
        assert covariants_of_modes(q1, v) == covariants_of_modes(q2, v), key


# -- scalar action -----------------------------------------------------------------


def test_scalar_action_tangent_field_g1():
    model, data, q = g1_quotient()
    D = model.tangent_field()
    probes = [
        KMinusVector.vacuum(),
        KMinusVector({(("q", 1),): 1}),
        KMinusVector({(("q", 1), ("q", 1)): 1}),
    ]
    lam = scalar_action(D, q, probes)
    assert lam == 0  # the canonical normally ordered lift acts by 0


def test_scalar_action_derivation_zero():
    model, data, q = g1_quotient()
    d0 = Derivation.from_series(LaurentSeries.zero(40))
    assert scalar_action(d0, q, [KMinusVector({(("q", 1),): 1})]) == 0


def test_membership_below_the_degree_bound_is_undetermined():
    """A pole deeper than degree_bound lies outside the represented basis, so
    membership there is undetermined, never a certified member."""
    sub = genus0_subalgebra(window=24, degree_bound=10)
    assert sub.member(LaurentSeries.from_terms({-2: 1, 0: 1}, 24)) is True
    assert sub.member(LaurentSeries.t_power(1)) is False
    assert sub.member(LaurentSeries.t_power(-12)) is None


def test_ft4_counts_images_it_did_not_compute():
    """A derivation that is not callable yields no image: each basis element
    and each A-perp representative counts as unchecked, never as a pass; a
    map whose every image is zero certifies nothing."""
    sub = genus0_subalgebra(window=24, degree_bound=10)
    one = LaurentSeries.t_power(0)
    record = sub.certify(derivations={"not-callable": 5}, perp_reps=[one])
    assert record["ft4"]["not-callable"] == {"preserves_A": False, "maps_perp_to_A": False, "unchecked": 12}
    record = sub.certify(derivations={"zero": lambda f: f.scale(0)}, perp_reps=[one])
    assert record["ft4"]["zero"] == {"preserves_A": None, "maps_perp_to_A": None, "unchecked": 0}


def test_ft4_entries_of_a_preserving_and_a_deepening_map():
    """On C[t^-1], D_1 given as a plain map preserves A and maps A-perp into
    it; a map onto a pole past the bound decides nothing and fails both flags."""
    window, bound = 24, 10
    sub = genus0_subalgebra(window, bound)
    deep = LaurentSeries.from_terms({-(bound + 2): 1, 0: 1}, window)
    maps = {"D1": Derivation.D(1).apply, "to-deep": lambda f: deep}
    perp = [LaurentSeries.t_power(-k).truncate(window) for k in (1, 3)]
    got = sub.certify(derivations=maps, perp_reps=perp)["ft4"]
    assert got["D1"] == {"preserves_A": True, "maps_perp_to_A": True, "unchecked": 0}
    assert got["to-deep"] == {"preserves_A": False, "maps_perp_to_A": False, "unchecked": bound + 3}


def test_ft4_leaves_the_flag_only_for_images_a_derivation_puts_past_the_bound():
    """D_{-1} = d/dt sends t^-N one order past the bound N: as a Derivation
    that image is unchecked and D_{-1}(A_{<=N-1}) in A is certified; the same
    map given as a plain callable cannot vouch for its image and fails."""
    sub = genus0_subalgebra(window=24, degree_bound=10)
    d = Derivation.D(-1)
    record = sub.certify(derivations={"derivation": d, "callable": d.apply})["ft4"]
    assert record["derivation"] == {"preserves_A": True, "maps_perp_to_A": None, "unchecked": 1}
    assert record["callable"] == {"preserves_A": False, "maps_perp_to_A": None, "unchecked": 1}


def test_ft4_flags_with_no_decided_nonzero_image_are_undetermined():
    """D_{-11} puts every image of a nonconstant source of C[t^-1] past the
    bound 10 and sends 1 to 0: nothing is certified, so neither flag is True."""
    sub = genus0_subalgebra(window=24, degree_bound=10)
    entry = sub.certify(derivations={"D-11": Derivation.D(-11)})["ft4"]["D-11"]
    assert entry == {"preserves_A": None, "maps_perp_to_A": None, "unchecked": 10}


def test_scalar_action_not_scalar_detection():
    """A derivation NOT preserving A fails the scalarity certificate."""
    model, data, q = g1_quotient()
    bad = Derivation.D(-1)  # does not preserve A_p
    probes = [
        KMinusVector.vacuum(),
        KMinusVector({(("q", 1),): 1}),
        KMinusVector({(("q", 1), ("q", 1)): 1}),
    ]
    with pytest.raises((NotScalar, Exception)):
        lam = scalar_action(bad, q, probes)
        # if it happens to be scalar on these probes the value must be probed
        raise NotScalar(f"unexpectedly scalar: {lam}")


def test_scalar_action_is_exact():
    """Integer covariant coefficients divide as a Fraction, never as a float."""
    q0 = build_quotient(genus0_subalgebra(window=24, degree_bound=10))
    lam = scalar_action(Derivation.D(1), q0, [KMinusVector.vacuum()])
    assert lam == 0 and isinstance(lam, Fraction)
    # the hyperelliptic.06 probes on y^2 = x^3 - x keep their scalar 0
    model, data, q = g1_quotient()
    probes = [
        KMinusVector.vacuum(),
        KMinusVector({(("q", 1),): 1}),
        KMinusVector({(("q", 1), ("q", 1)): 1}),
    ]
    lam = scalar_action(model.tangent_field(), q, probes)
    assert lam == 0 and not isinstance(lam, float)


@pytest.mark.parametrize("kernel", ["residue_form"])
def test_ft3_reads_the_pairing_kernel_at_call_time(monkeypatch, kernel):
    """FT3 calls its kernel by the name the subalgebra module gives it, so a
    patch of that name reaches the isotropy check."""
    from focklab import subalgebra

    sub = genus0_subalgebra(window=24, degree_bound=10)
    assert sub.certify({})["ft3"] is True
    real = getattr(subalgebra, kernel)
    monkeypatch.setattr(subalgebra, kernel, lambda f, g: real(f, g) + 1)
    assert sub.certify({})["ft3"] is False
