from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from focklab.laurent import (
    EXACT_PREC,
    Derivation,
    LaurentSeries,
    NonzeroResidue,
    NotInvertible,
    PrecisionExhausted,
    SemiLocalSeries,
    WindowTooNarrow,
    apply_derivation,
    format_series,
    integrate,
    parse_series,
    residue,
    residue_form,
    residue_sum,
    selfadjoint_check,
    semilocal_residue_form,
)
from focklab.ratfunc import DifferentialField
from focklab.scalars import GaussianRational, NotASquare

F = Fraction
t = LaurentSeries.t_power


def geometric(prec):
    """1/(1-t) reference: 1 + t + t^2 + ..."""
    return LaurentSeries.from_terms({k: 1 for k in range(prec)}, prec)


def test_inv_geometric_series():
    f = LaurentSeries.polynomial({0: 1, 1: -1})
    assert f.inv(prec=12).agrees_with(geometric(12))


def test_inv_zero_raises():
    with pytest.raises(NotInvertible):
        LaurentSeries.zero(5).inv()


def test_sqrt_unit_of_one_plus_t():
    f = LaurentSeries.polynomial({0: 1, 1: 1})
    s = f.sqrt_unit(prec=6)
    expected = LaurentSeries.from_terms(
        {0: F(1), 1: F(1, 2), 2: F(-1, 8), 3: F(1, 16), 4: F(-5, 128)}, 5
    )
    assert s.agrees_with(expected)
    assert (s * s).agrees_with(f)


def test_sqrt_unit_branch_and_errors():
    with pytest.raises(NotASquare):
        t(1).sqrt_unit(prec=4)  # odd order
    with pytest.raises(NotASquare):
        LaurentSeries.polynomial({0: 2}).sqrt_unit(prec=4)
    s = LaurentSeries.polynomial({2: 4, 3: 4}).sqrt_unit(prec=5)
    assert s.coefficient(1) == 2  # principal branch on the leading coefficient


def test_compose_monomial():
    assert t(1).compose_monomial(-2).agrees_with(t(-2))
    f = LaurentSeries.polynomial({0: 1, 1: 2, 2: 3})
    g = f.compose_monomial(2)
    assert g.coefficient(0) == 1 and g.coefficient(2) == 2 and g.coefficient(4) == 3
    assert g.coefficient(3) == 0
    with pytest.raises(PrecisionExhausted):
        geometric(5).compose_monomial(-1)


def test_residue_examples():
    # res(t^3 * t^-4 dt) = 1
    assert residue(t(3) * t(-4)) == 1
    for i in range(-5, 6):
        for j in range(-5, 6):
            expected = i if i + j == 0 else 0
            got = residue_form(t(i), t(j))
            assert got == expected, (i, j)
    # residue_form(1, g) == 0 for any g
    g = LaurentSeries.from_terms({-3: 2, -1: 5, 4: F(1, 3)}, 8)
    assert residue_form(LaurentSeries.one(), g) == 0


def test_residue_window_too_narrow():
    f = LaurentSeries(-5, -2, {-5: 1})  # window ends before exponent -1
    with pytest.raises(WindowTooNarrow):
        residue(f)


X = DifferentialField(["x"])
rationals = st.builds(F, st.integers(-5, 5), st.integers(1, 4))
COEFFICIENTS = {
    "Q": rationals,
    "Q(i)": st.builds(GaussianRational, rationals, rationals),
    "Q(x)": st.builds(
        lambda a, b, c: (X.var("x") * a + b) / (X.var("x") * c + 1), rationals, rationals, rationals
    ),
}


@st.composite
def windowed_series(draw, coefficients):
    """A series with a random window, sometimes an exact polynomial."""
    floor = draw(st.integers(-5, 3))
    width = draw(st.integers(0, 7))
    terms = {}
    if width:
        exponents = st.integers(floor, floor + width - 1)
        terms = draw(st.dictionaries(exponents, coefficients, max_size=width))
    prec = EXACT_PREC if draw(st.integers(0, 4)) == 0 else floor + width
    return LaurentSeries(floor, prec, terms)


@st.composite
def residue_pairs(draw):
    coefficients = COEFFICIENTS[draw(st.sampled_from(sorted(COEFFICIENTS)))]
    return draw(windowed_series(coefficients)), draw(windowed_series(coefficients))


def _residue_or_narrow(fn):
    try:
        return fn()
    except WindowTooNarrow:
        return WindowTooNarrow


@settings(max_examples=300, deadline=None)
@given(residue_pairs())
# product window exactly -1 (raises) and exactly 0 (determined, zero)
@example((LaurentSeries(-1, 1, {-1: 1}), LaurentSeries(1, 1, {})))
@example((LaurentSeries(-1, 1, {-1: 1}), LaurentSeries(2, 2, {})))
# the constant term of f drops out of df and widens the window
@example((LaurentSeries(0, 3, {0: 5, 2: 1}), LaurentSeries(-2, 0, {-2: 2})))
def test_residue_form_matches_definition(pair):
    """The direct-sum kernel against res(g * f.derivative())."""
    f, g = pair
    got = _residue_or_narrow(lambda: residue_form(f, g))
    want = _residue_or_narrow(lambda: residue(g * f.derivative()))
    if want is WindowTooNarrow:
        assert got is WindowTooNarrow
        return
    assert got is not WindowTooNarrow
    assert got == want
    assert bool(got) == bool(want)
    assert type(got) is type(want)


def test_residue_antisymmetry_mod_constants():
    # for series with zero constant term the form is antisymmetric
    f = LaurentSeries.from_terms({-2: 3, 1: 1, 4: F(2, 7)}, 9)
    g = LaurentSeries.from_terms({-1: 1, 2: 5}, 9)
    assert residue_form(f, g) + residue_form(g, f) == 0


def test_integrate():
    assert integrate(t(2)).agrees_with(t(3) * F(1, 3))
    f = LaurentSeries.polynomial({0: 1, 2: 3})
    g = integrate(f)
    assert g.agrees_with(LaurentSeries.polynomial({1: 1, 3: 1}))
    assert g.derivative().agrees_with(f)
    with pytest.raises(NonzeroResidue):
        integrate(t(-1))


def test_integrate_u_equals_one_degenerate():
    # with u = 1 and i = 1 the phi-primitive integrand is u(t^2) t^0 = 1
    assert integrate(LaurentSeries.one()).agrees_with(t(1))


def test_apply_derivation():
    D1 = Derivation.D(1)
    assert apply_derivation(D1, t(2)).agrees_with(2 * t(3))
    D0 = Derivation.D(0)
    assert apply_derivation(D0, t(-3)).agrees_with(-3 * t(-3))
    # Leibniz for D_{-1} on f = t, g = t^2
    Dm1 = Derivation.D(-1)
    f, g = t(1), t(2)
    lhs = apply_derivation(Dm1, f * g)
    rhs = apply_derivation(Dm1, f) * g + f * apply_derivation(Dm1, g)
    assert lhs.agrees_with(rhs)


def test_derivation_from_series_matches_Dk():
    g = LaurentSeries.t_power(3)  # t^3 d/dt = D_2
    D = Derivation.from_series(g)
    f = LaurentSeries.from_terms({-2: 5, 0: 1, 3: F(1, 2)}, 9)
    assert D.apply(f).agrees_with(Derivation.D(2).apply(f))
    assert D.order() == 2


def test_selfadjoint_direct():
    assert selfadjoint_check(Derivation.D(2), t(-3), t(-1))
    alpha = LaurentSeries.from_terms({-2: 1, 1: 4}, 8)
    assert selfadjoint_check(Derivation.from_series(t(2)), alpha, alpha)


def test_selfadjoint_monomial_sweep():
    for k in range(-6, 7):
        D = Derivation.D(k)
        for a in range(-4, 5):
            for b in range(-4, 5):
                assert selfadjoint_check(D, t(a), t(b)), (k, a, b)


@settings(max_examples=40)
@given(
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4),
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4),
    st.integers(-3, 3),
)
def test_selfadjoint_property(fa, fb, k):
    alpha = LaurentSeries.from_terms(fa, 8)
    beta = LaurentSeries.from_terms(fb, 8)
    assert selfadjoint_check(Derivation.D(k), alpha, beta)


def test_precision_soundness():
    """Re-running a computation with prec+10 agrees on the original window."""

    def pipeline(prec):
        f = LaurentSeries.from_terms({0: 1, 1: -1, 3: F(1, 2)}, prec)
        g = f.inv() * LaurentSeries.from_terms({--1: 0, -2: 1, 0: 2}, prec)
        return integrate((g * g).derivative()) + g

    lo = pipeline(12)
    hi = pipeline(22)
    assert lo.agrees_with(hi)


def test_semilocal_residue_sum_of_exact_differential():
    f = SemiLocalSeries(
        {
            "p": LaurentSeries.polynomial({-3: 2, 1: 5}),
            "q": LaurentSeries.polynomial({-1: 7, 2: 1}),
        }
    )
    assert residue_sum(f.derivative()) == 0
    g = SemiLocalSeries(
        {"p": LaurentSeries.polynomial({-1: 1}), "q": LaurentSeries.polynomial({0: 1})}
    )
    # pairing sums component residues
    assert semilocal_residue_form(f, g) == residue_form(
        LaurentSeries.polynomial({-3: 2, 1: 5}), LaurentSeries.polynomial({-1: 1})
    ) + residue_form(
        LaurentSeries.polynomial({-1: 7, 2: 1}), LaurentSeries.polynomial({0: 1})
    )


def test_parse_and_format_roundtrip():
    f = parse_series("3/2*t^-2 - t + (1+2i)*t^3; prec=9")
    assert f.coefficient(-2) == GaussianRational(F(3, 2))
    assert f.coefficient(1) == GaussianRational(-1)
    assert f.coefficient(3) == GaussianRational(1, 2)
    assert f.prec == 9
    again = parse_series(format_series(f))
    assert again == f
    assert parse_series("t^2; prec=5").agrees_with(t(2))


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(st.integers(-6, 6), COEFFICIENTS["Q(i)"], max_size=12),
    st.one_of(st.none(), st.integers(7, 20)),
)
def test_format_parse_roundtrip_property(terms, prec):
    f = LaurentSeries.polynomial(terms) if prec is None else LaurentSeries.from_terms(terms, prec)
    again = parse_series(format_series(f))
    assert again == f
    assert again.prec == f.prec


def test_parse_exact_and_truncated_series():
    f = parse_series("t^-1 + 3*t^2; prec=exact")
    assert f == LaurentSeries.polynomial({-1: 1, 2: 3})
    assert parse_series(format_series(f)) == f
    long = LaurentSeries.polynomial({e: 1 for e in range(13)})
    with pytest.raises(ValueError, match="truncated"):
        parse_series(format_series(long))


def test_mul_window_bookkeeping():
    f = LaurentSeries.from_terms({-1: 1}, 4)  # knows exponents < 4
    g = LaurentSeries.from_terms({2: 1}, 3)  # knows exponents < 3
    h = f * g
    assert h.prec == 2  # -1 + 3
    assert h.coefficient(1) == 1
    with pytest.raises(WindowTooNarrow):
        h.coefficient(2)
