from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from focklab.laurent import (
    EXACT_PREC,
    Derivation,
    LaurentSeries,
    NonzeroResidue,
    NotInvertible,
    PrecisionExhausted,
    WindowTooNarrow,
    _dense,
    _numerators,
    _residue_exponents,
    format_series,
    integrate,
    parse_series,
    residue,
    pairing_with_form,
    residue_form,
    residue_gram,
)
from focklab.oscillator import OscFockVector, osc_basis, tau_hat_D
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
    with pytest.raises(WindowTooNarrow):
        LaurentSeries.one().inv(prec=0)  # a window with no coefficient


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
    with pytest.raises(WindowTooNarrow):
        LaurentSeries.one().sqrt_unit(prec=0)


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


def _product_by_fractions(f, g):
    """f * g by the plain double loop over the stored coefficients, each sum
    dropped when it vanishes: the oracle for the integer kernel."""
    prec = min(f.floor + g.prec, g.floor + f.prec)
    out = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            e = e1 + e2
            if e < prec:
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
    return LaurentSeries(min(f.floor + g.floor, prec), prec, out)


def _residue_form_by_fractions(f, g):
    """sum_e e f_e g_{-e} by the plain loop: the oracle for the integer
    kernel (the window rule is test_residue_form_matches_definition's)."""
    s = 0
    for e, c in f.coeffs.items():
        if e and -e in g.coeffs:
            s = s + g.coeffs[-e] * (c * e)
    return s if s else 0


def _typed(f):
    return f.floor, f.prec, {e: (c, type(c)) for e, c in f.coeffs.items()}


# Mostly Q on both sides; otherwise each operand over its own domain, or one
# series that mixes Q with Q(i) coefficients.
DOMAINS = {**COEFFICIENTS, "Q+Q(i)": st.one_of(rationals, COEFFICIENTS["Q(i)"])}


@st.composite
def kernel_pairs(draw):
    if draw(st.integers(0, 2)):
        return draw(windowed_series(rationals)), draw(windowed_series(rationals))
    domains = st.sampled_from(sorted(DOMAINS))
    return draw(windowed_series(DOMAINS[draw(domains)])), draw(windowed_series(DOMAINS[draw(domains)]))


HALF_T = LaurentSeries.polynomial({0: F(1, 2), 1: F(1, 3)})


@settings(max_examples=300, deadline=None)
@given(kernel_pairs())
# (1/2 + t/3)(1/2 - t/3): the t coefficient cancels and is not stored
@example((HALF_T, LaurentSeries.from_terms({0: F(1, 2), 1: F(-1, 3), 2: F(5, 7)}, 4)))
# a window that ends at the floor sum: known zero, floor == prec
@example((LaurentSeries(0, 1, {0: F(1, 2)}), LaurentSeries(1, 1, {})))
# exact x windowed, products on both sides of the window's end: over Q, and
# Q x Q(i) through the generic loop
@example((HALF_T, LaurentSeries.from_terms({-2: F(3, 4), 0: F(-2, 3)}, 1)))
@example((HALF_T, LaurentSeries.from_terms({0: GaussianRational(1, F(1, 2))}, 3)))
def test_product_matches_the_fraction_loop(pair):
    f, g = pair
    assert _typed(f * g) == _typed(_product_by_fractions(f, g))


@st.composite
def cut_series(draw, coefficients):
    """A windowed series with a floor at or below 0, its coefficients stored
    in a drawn exponent order."""
    floor = draw(st.integers(-6, 0))
    width = draw(st.integers(1, 8))
    terms = draw(st.dictionaries(st.integers(floor, floor + width - 1), coefficients, min_size=1))
    order = draw(st.permutations(sorted(terms)))
    return LaurentSeries(floor, floor + width, {e: terms[e] for e in order})


@st.composite
def cut_pairs(draw):
    domains = st.sampled_from(sorted(DOMAINS))
    return draw(cut_series(DOMAINS[draw(domains)])), draw(cut_series(DOMAINS[draw(domains)]))


@settings(max_examples=300, deadline=None)
@given(cut_pairs())
# exponents stored in descending order on both sides; the product is known
# below t^0, so the pairs (-1, 2) and (2, -1) fall outside it, (-3, 2) inside
@example((LaurentSeries(-3, 3, {2: F(1, 2), -1: F(2, 3), -3: F(-1, 4)}),
          LaurentSeries(-1, 3, {2: GaussianRational(1, 1), -1: F(1, 3)})))
def test_windowed_product_matches_the_double_loop(pair):
    """Products that the window cuts, with negative floors and coefficients
    stored out of exponent order, over Q, Q(i), Q(x) and Q with Q(i) in one
    series: the same typed coefficients as the double loop over every pair."""
    f, g = pair
    assert _typed(f * g) == _typed(_product_by_fractions(f, g))
    assert _typed(g * f) == _typed(_product_by_fractions(g, f))


# signed numerators of 1 to 300 bits over mixed denominators
wide_rationals = st.builds(
    lambda bits, n, sign, d: F(sign * (n % (1 << bits) or 1), d),
    st.integers(1, 300), st.integers(1, 1 << 300), st.sampled_from((1, -1)),
    st.sampled_from((1, 1, 2, 3, 12, 35, (1 << 61) - 1)),
)


@st.composite
def dense_series(draw):
    """A series over Q above the packing line: 12 to 40 stored terms in a span
    at most twice their count, a floor that may be negative, and a window that
    may cut a product, or an exact polynomial."""
    count = draw(st.integers(12, 40))
    floor = draw(st.integers(-30, 5))
    steps = draw(st.sets(st.integers(1, 2 * count - 1), min_size=count - 1, max_size=count - 1))
    terms = {floor + k: draw(wide_rationals) for k in (0, *steps)}
    prec = EXACT_PREC if draw(st.integers(0, 3)) == 0 else max(terms) + draw(st.integers(1, 6))
    return LaurentSeries(floor, prec, terms)


def _alternating(big, small, n):
    return {e: big if e % 2 == 0 else small for e in range(n)}


# h alternates 2^300 and -1; with g = (1 - t) h the product (1 + ... + t^11) g
# is (1 - t^12) h: digits 2^300, -1, ... that borrow from their neighbours,
# then cancellations to zero
H = _alternating(1 << 300, -1, 14)
G = LaurentSeries.polynomial({e: H.get(e, 0) - H.get(e - 1, 0) for e in range(15)})
ONES = LaurentSeries.polynomial(dict.fromkeys(range(12), 1))


@settings(max_examples=100, deadline=None)
@given(dense_series(), dense_series())
@example(ONES, G)
@example(LaurentSeries.from_terms(dict.fromkeys(range(12), F(1, 3)), 12), -G)
@example(LaurentSeries.polynomial(H), LaurentSeries.polynomial(_alternating(-1, 1 << 300, 13)))
@example(LaurentSeries.from_terms(_alternating(F(-1, 2), F(1 << 299, 3), 14), 14), ONES.shift(-5))
def test_packed_product_matches_the_fraction_loop(f, g):
    """Dense operands over Q take the one-multiply product: the same floor,
    prec and coefficients as the double loop, no stored zero, and a kept
    integer form equal to the coefficients' numerators over their lcm."""
    assert _dense(f._integer_form()[0]) and _dense(g._integer_form()[0])
    product = f * g
    assert _typed(product) == _typed(_product_by_fractions(f, g))
    assert all(product.coeffs.values())
    assert product._ints == _numerators(product.coeffs)


def test_sparse_long_span_operands_take_the_dict_loop(monkeypatch):
    """An operand whose exponent span is far above its term count is never
    packed: 1 + t^100000 would take a 100,000-digit pack."""
    from focklab import laurent

    def refuse(*args):
        raise AssertionError("a sparse operand was packed")

    monkeypatch.setattr(laurent, "_packed_product", refuse)
    sparse = LaurentSeries.polynomial({1000 * k: F(k + 1, 3) for k in range(12)})
    spike = LaurentSeries.polynomial({0: 1, 100000: 1})
    dense = LaurentSeries.from_terms({e: F(e - 7, e + 5) for e in range(-3, 40)}, 40)
    for f, g in ((sparse, dense), (dense, spike), (sparse, sparse)):
        assert _typed(f * g) == _typed(_product_by_fractions(f, g))


def test_a_product_chain_converts_each_series_once(monkeypatch):
    """A counting guard (calls, not time): building e_-12..e_12 for
    e_i = (t + 2t^2)^i at window 60 converts each series that enters a product
    without a kept integer form once (156 conversions before forms were kept),
    every kept form equals the coefficients' numerators over their lcm, and
    products over Q(i) and Q(x) keep none."""
    from focklab import laurent

    base = LaurentSeries.from_terms({1: 1, 2: 2}, 60)
    inv = base.inv()
    calls = []
    numerators = laurent._numerators
    monkeypatch.setattr(laurent, "_numerators", lambda part: calls.append(1) or numerators(part))
    unformed = {}  # id -> series, each held so that no id is reused
    product = LaurentSeries.__mul__

    def counted(f, g):
        unformed.update((id(s), s) for s in (f, g) if s._ints is None)
        return product(f, g)

    monkeypatch.setattr(LaurentSeries, "__mul__", counted)
    basis = {}
    for i in range(-12, 13):
        v = LaurentSeries.one()
        for _ in range(abs(i)):
            v = v * (base if i > 0 else inv)
        basis[i] = v
    assert len(calls) <= len(unformed) == 26  # base, inv and 24 ones
    assert all(v._ints == numerators(v.coeffs) for i, v in basis.items() if i)
    x = X.var("x")
    gauss = LaurentSeries.polynomial({e: GaussianRational(e, 1) for e in range(14)})
    funcs = LaurentSeries.polynomial({e: (x * e + 1) / (x + 2) for e in range(14)})
    over_q = basis[-3]
    for f, g in ((gauss, gauss), (funcs, funcs), (gauss, over_q), (over_q, gauss), (funcs, over_q)):
        assert (f * g)._ints is None
    assert gauss._ints is None and funcs._ints is None


@settings(max_examples=300, deadline=None)
@given(kernel_pairs())
# (1/2 t + 1/3 t^-1, 2/3 t^-1 + t): the pairs 1/3 and -1/3 cancel to the int 0
@example((LaurentSeries.polynomial({1: F(1, 2), -1: F(1, 3)}), LaurentSeries.polynomial({-1: F(2, 3), 1: 1})))
# exact x windowed, with pairs of unequal denominators; and Q x Q(i)
@example((LaurentSeries.polynomial({2: F(1, 6), -3: F(5, 4)}), LaurentSeries.from_terms({-2: F(3, 10), 3: F(1, 9)}, 4)))
@example((LaurentSeries.polynomial({1: F(1, 2)}), LaurentSeries.polynomial({-1: GaussianRational(0, F(1, 3))})))
def test_residue_form_matches_the_fraction_loop(pair):
    f, g = pair
    got = _outcome(lambda: residue_form(f, g))
    if got is WindowTooNarrow:
        return
    want = _residue_form_by_fractions(f, g)
    assert (got, type(got)) == (want, type(want))


@st.composite
def overlap_pairs(draw):
    """Two series of up to 16 mostly stored exponents, so that the overlap
    window is often shorter than f's dictionary: over Q, Q(i) or Q with Q(i)
    in one series, each window cut anywhere or exact."""
    domains = st.sampled_from(["Q", "Q(i)", "Q+Q(i)"])

    def one():
        coefficients = DOMAINS[draw(domains)]
        floor = draw(st.integers(-10, 4))
        width = draw(st.integers(0, 16))
        exponents = st.integers(floor, floor + width - 1)
        terms = draw(st.dictionaries(exponents, coefficients, min_size=width // 2, max_size=width)) if width else {}
        prec = EXACT_PREC if draw(st.booleans()) else floor + width
        return LaurentSeries(floor, prec, terms)

    return one(), one()


DENSE = LaurentSeries.from_terms({e: F(e + 20, 3) for e in range(-6, 10)}, 10)


@settings(max_examples=300, deadline=None)
@given(overlap_pairs())
# f's 15 stored exponents against an overlap window [-6, 1] of 8
@example((DENSE, LaurentSeries(-1, 7, {-1: F(1, 2), 2: 3, 6: F(-2, 5)})))
# an exact polynomial against a window of one exponent, which lies past -1
@example((LaurentSeries.polynomial({-2: F(1, 3), 1: GaussianRational(1, 1)}), LaurentSeries(-1, 0, {-1: 2})))
@example((LaurentSeries.polynomial({-2: F(1, 3), 1: GaussianRational(1, 1)}), LaurentSeries(-1, 1, {-1: 2})))
# f's constant term drops out of df, so g's window sets the low end: [3, 3]
@example((LaurentSeries.polynomial({0: 1, 3: 1}), LaurentSeries(-3, -2, {-3: 1})))
def test_residue_form_scans_the_overlap_only(pair):
    """Against the plain loop over every stored f_e: the same value and type,
    WindowTooNarrow exactly where res(g df) is undetermined, and the same
    stored pairs found in the exponents scanned."""
    f, g = pair
    got = _outcome(lambda: residue_form(f, g))
    if _outcome(lambda: residue(g * f.derivative())) is WindowTooNarrow:
        assert got is WindowTooNarrow
        return
    want = _residue_form_by_fractions(f, g)
    assert (got, type(got)) == (want, type(want))
    scanned = _residue_exponents(f, g, f.coeffs)
    assert sorted(e for e in scanned if e and e in f.coeffs and -e in g.coeffs) == sorted(
        e for e in f.coeffs if e and -e in g.coeffs
    )


def test_the_scan_takes_the_shorter_of_window_and_dictionary():
    g = LaurentSeries(-1, 7, {-1: 1})
    assert _residue_exponents(DENSE, g, DENSE.coeffs) == range(-6, 2)
    cube = t(3)  # the window [3, 6] is longer than its one exponent
    assert _residue_exponents(cube, DENSE, cube.coeffs) is cube.coeffs
    assert _residue_exponents(t(-3), t(5), {-3: 1}) == range(-3, -4)  # empty: [-3, -5]


@st.composite
def gram_series(draw):
    """One to four windowed series over Q, or each over its own domain."""
    same = draw(st.integers(0, 2))
    domains = st.sampled_from(sorted(DOMAINS))
    size = draw(st.integers(1, 4))
    return [draw(windowed_series(rationals if same else DOMAINS[draw(domains)])) for _ in range(size)]


def _until_narrow(entries):
    """(value, type) of each entry up to the first WindowTooNarrow, which
    ends the list."""
    out = []
    try:
        for value in entries:
            out.append((value, type(value)))
    except WindowTooNarrow:
        out.append(WindowTooNarrow)
    return out


@settings(max_examples=300, deadline=None)
@given(gram_series())
# every entry over Q; then a Q(i) series, whose pairs are residue_form's
@example([LaurentSeries.polynomial({-2: F(1, 2), 2: F(3, 4)}), LaurentSeries.from_terms({2: F(1, 6), 3: 1}, 5)])
@example([LaurentSeries.polynomial({-1: GaussianRational(0, 1)}), t(1)])
# (f, f) is determined, (f, g) raises at entry (0, 1)
@example([LaurentSeries(-2, 3, {-2: F(1, 3)}), LaurentSeries(0, 1, {0: 1})])
def test_residue_gram_equals_the_entrywise_form(series):
    """The Gram in (i, j) order equals residue_form entry by entry, value and
    type, and raises WindowTooNarrow at the same first entry."""
    entrywise = (residue_form(f, g) for f in series for g in series)
    assert _until_narrow(residue_gram(series)) == _until_narrow(entrywise)


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
    assert D1.apply(t(2)).agrees_with(2 * t(3))
    D0 = Derivation.D(0)
    assert D0.apply(t(-3)).agrees_with(-3 * t(-3))
    # Leibniz for D_{-1} on f = t, g = t^2
    Dm1 = Derivation.D(-1)
    f, g = t(1), t(2)
    lhs = Dm1.apply(f * g)
    rhs = Dm1.apply(f) * g + f * Dm1.apply(g)
    assert lhs.agrees_with(rhs)


def test_derivation_from_series_matches_Dk():
    g = LaurentSeries.t_power(3)  # t^3 d/dt = D_2
    D = Derivation.from_series(g)
    f = LaurentSeries.from_terms({-2: 5, 0: 1, 3: F(1, 2)}, 9)
    assert D.apply(f).agrees_with(Derivation.D(2).apply(f))
    assert D.order() == 2


def test_a_derivation_is_given_by_exactly_one_of_k_and_series():
    """Neither D_k nor a series, or both, is no derivation; the zero
    derivation is the zero series."""
    with pytest.raises(ValueError):
        Derivation()
    with pytest.raises(ValueError):
        Derivation(k=1, series=t(2))
    assert Derivation.from_series(LaurentSeries.zero(8)).order() is None


WINDOWED = st.sampled_from(["Q", "Q(i)"]).flatmap(
    lambda name: windowed_series(COEFFICIENTS[name]).filter(lambda f: f.prec < EXACT_PREC)
)


@settings(max_examples=200, deadline=None)
@given(st.integers(-6, 6), WINDOWED)
def test_symbolic_Dk_equals_the_series_t_power(k, f):
    """D_k and t^(k+1) d/dt are one derivation in two representations: the
    same order, the same image of a windowed series, coefficients and prec
    (on an exact polynomial the two prec differ, though both are exact),
    and the same tau_hat on every probe of grade <= 4."""
    sym, ser = Derivation.D(k), Derivation.from_series(t(k + 1))
    assert sym.order() == ser.order() == k
    a, b = sym.apply(f), ser.apply(f)
    assert (a.coeffs, a.prec) == (b.coeffs, b.prec)
    for key in osc_basis(4):
        v = OscFockVector.basis(key)
        assert tau_hat_D(sym).apply(v) == tau_hat_D(ser).apply(v)


def selfadjoint_check(D: Derivation, alpha: LaurentSeries, beta: LaurentSeries) -> bool:
    """res(<D,alpha> beta) == res(<D,beta> alpha) for forms alpha dt, beta dt."""
    left = residue(pairing_with_form(D, alpha) * beta)
    right = residue(pairing_with_form(D, beta) * alpha)
    return not (left - right)


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


def _outcome(fn):
    """The value of fn(), or the class of the error it raised."""
    try:
        return fn()
    except (WindowTooNarrow, ValueError) as exc:
        return type(exc)


@st.composite
def derivations(draw):
    if draw(st.booleans()):
        return Derivation.D(draw(st.integers(-3, 3)))
    return Derivation.from_series(draw(windowed_series(COEFFICIENTS["Q"])))


@st.composite
def polynomial_pairs(draw):
    terms = st.dictionaries(st.integers(-4, 4), rationals, min_size=1, max_size=4)
    return LaurentSeries.polynomial(draw(terms)), LaurentSeries.polynomial(draw(terms))


@settings(max_examples=200, deadline=None)
@given(st.one_of(residue_pairs(), polynomial_pairs()), derivations())
# the product window ends exactly at t^-1
@example((LaurentSeries(-1, 1, {-1: 1}), LaurentSeries(1, 1, {})), Derivation.D(0))
def test_derivation_residue_form_matches_product(pair, D):
    """The residue of the wzw-gram sign identity, res(e_j d(D e_i)), taken as
    residue_form(D e_i, e_j) against the residue of the product series."""
    e_i, e_j = pair
    De_i = _outcome(lambda: D.apply(e_i))
    if isinstance(De_i, type):
        return
    got = _outcome(lambda: residue_form(De_i, e_j))
    want = _outcome(lambda: residue(e_j * De_i.derivative()))
    assert got == want
    assert bool(got) == bool(want)


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


# -- inv, sqrt_unit and residues against sympy's series ----------------------------------

SCALARS = {"Q": rationals, "Q(i)": COEFFICIENTS["Q(i)"]}


def _sympy_scalar(c, sympy):
    c = GaussianRational.coerce(c)
    return sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)


def _sympy_expr(f, sympy, T):
    """The stored coefficients of f as a sympy Laurent polynomial in T."""
    return sum((_sympy_scalar(c, sympy) * T**e for e, c in f.coeffs.items()), sympy.Integer(0))


@st.composite
def laurent_polynomials(draw):
    domain = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    f = LaurentSeries.polynomial(draw(st.dictionaries(st.integers(-3, 3), domain, min_size=1, max_size=4)))
    assume(f)
    return f


@settings(max_examples=25, deadline=None)
@given(laurent_polynomials(), st.integers(1, 8))
def test_inv_matches_sympy_series(f, width):
    sympy = pytest.importorskip("sympy")
    T = sympy.Symbol("t")
    h = f.inv(prec=width)
    # t^a / f is a unit, so its series below t^width is sympy's without poles
    a = f.ord
    want = sympy.series(T**a / _sympy_expr(f, sympy, T), T, 0, width).removeO() / T**a
    assert sympy.expand(want - _sympy_expr(h, sympy, T)) == 0


@st.composite
def square_leads(draw):
    """A Laurent polynomial of even order whose leading coefficient is the
    square of a nonzero scalar."""
    domain = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    root = draw(domain.filter(bool))
    a = 2 * draw(st.integers(-2, 2))
    rest = draw(st.dictionaries(st.integers(a + 1, a + 5), domain, max_size=3))
    return LaurentSeries.polynomial({a: root * root, **rest})


@settings(max_examples=25, deadline=None)
@given(square_leads(), st.integers(1, 8))
def test_sqrt_unit_matches_sympy_series(f, width):
    """s = sqrt_unit(f) against r t^(a/2) sqrt(u), u = f / (lead t^a), whose
    sympy series is unambiguous (u(0) = 1); the branch r is checked by r^2 = lead."""
    sympy = pytest.importorskip("sympy")
    T = sympy.Symbol("t")
    s = f.sqrt_unit(prec=width)
    a = f.ord
    root = s.coeffs[a // 2]
    assert root * root == f.coeffs[a]
    u = _sympy_expr(f, sympy, T) / (_sympy_scalar(f.coeffs[a], sympy) * T**a)
    want = _sympy_scalar(root, sympy) * T ** (a // 2) * sympy.series(sympy.sqrt(u), T, 0, width).removeO()
    assert sympy.expand(want - _sympy_expr(s, sympy, T)) == 0


@settings(max_examples=40, deadline=None)
@given(laurent_polynomials(), laurent_polynomials())
def test_residues_match_the_sympy_product(f, g):
    """res(f g dt) and (f, g) = res(g df) against the t^-1 coefficient of the
    expanded sympy products."""
    sympy = pytest.importorskip("sympy")
    T = sympy.Symbol("t")
    F_, G_ = _sympy_expr(f, sympy, T), _sympy_expr(g, sympy, T)
    pairs = ((residue(f * g), F_ * G_), (residue_form(f, g), G_ * sympy.diff(F_, T)))
    for got, product in pairs:
        want = sympy.expand(product).coeff(T, -1)
        assert sympy.expand(_sympy_scalar(got, sympy) - want) == 0


# -- inv and sqrt_unit over Q in integers, against the generic recurrences -------------


def _width(f, prec):
    """The result's window width, as _unit sets it (None: no window given)."""
    width = f.prec - f.ord
    if width >= 1 << 20:
        return prec
    return width if prec is None else min(width, prec)


def _inv_by_recurrence(f, prec):
    """1/f by the recurrence in the scalars' own type, from the unit
    u = f/(lead t^a) with v_0 = u_0: the oracle for the integer path."""
    a, width = f.ord, _width(f, prec)
    inv_lead = 1 / f.coeffs[a]
    u = {e - a: c * inv_lead for e, c in f.coeffs.items() if e - a < width}
    v = {0: u[0]}
    for n in range(1, width):
        s = 0
        for k, uk in u.items():
            if 0 < k <= n and (vk := v.get(n - k)) is not None:
                s = s + uk * vk
        if s:
            v[n] = -s
    return LaurentSeries(-a, -a + width, {e - a: c * inv_lead for e, c in v.items()})


def _sqrt_by_recurrence(f, prec):
    """sqrt(f) by 2 s_n = u_n - sum_{0<k<n} s_k s_{n-k} in the scalars' own
    type, with the principal root of the lead taken in Q(i) (or the constants
    of Q(x)): the oracle for the integer path."""
    a, width = f.ord, _width(f, prec)
    lead = f.coeffs[a]
    inv_lead = 1 / lead
    u = {e - a: c * inv_lead for e, c in f.coeffs.items() if e - a < width}
    if isinstance(lead, Fraction):
        root = GaussianRational(lead).sqrt()
    elif isinstance(lead, GaussianRational):
        root = lead.sqrt()
    else:
        root = lead.field.const(lead.constant_value().sqrt())
    s = {0: u[0]}
    for n in range(1, width):
        acc = u.get(n, 0)
        for k in range(1, n):
            if (sk := s.get(k)) is not None and (snk := s.get(n - k)) is not None:
                acc = acc - sk * snk
        if acc:
            s[n] = acc / 2
    return LaurentSeries(a // 2, a // 2 + width, {e + a // 2: c * root for e, c in s.items()})


def _over_q(f):
    return all(type(c) is Fraction for c in f.coeffs.values())


UNIT_DOMAINS = ["Q", "Q", "Q", "Q(i)", "Q(x)"]  # mostly Q, the integer path


def _target(draw, domain):
    """A window for the result; short over Q(x), whose sums grow in degree."""
    return draw(st.integers(1, 5 if domain == "Q(x)" else 10))


@st.composite
def invertible_series(draw):
    domain = draw(st.sampled_from(UNIT_DOMAINS))
    f = draw(windowed_series(COEFFICIENTS[domain]))
    assume(f)
    prec = None if draw(st.booleans()) else _target(draw, domain)
    assume(_width(f, prec) is not None and _width(f, prec) >= 1)
    return f, prec


THIN_UNIT = LaurentSeries.from_terms({1: 1, 2: 2}, 60)  # t + 2 t^2, the loop-oscillator basis


@settings(max_examples=200, deadline=None)
@given(invertible_series())
@example((LaurentSeries.polynomial({0: F(9, 4), 1: F(1, 3), 3: F(-2, 5)}), 8))  # a non-monic square lead
@example((LaurentSeries.polynomial({0: -1, 2: F(1, 2)}), 6))  # lead -1
@example((LaurentSeries.polynomial({0: X.const(2), 1: X.var("x")}), 5))  # Q(x)
@example((LaurentSeries.polynomial({0: 1, 2: -3, 5: 2}), 9))  # integer coefficients, d = 1
@example((THIN_UNIT, None))
def test_inv_over_q_equals_the_generic_recurrence(case):
    """inv over Q runs on integer numerators; it equals the generic
    recurrence, is an inverse in the window, and over Q every coefficient is
    a Fraction."""
    f, prec = case
    got, want = f.inv(prec=prec), _inv_by_recurrence(f, prec)
    assert (got.floor, got.prec) == (want.floor, want.prec) and got == want
    assert (got * f).agrees_with(LaurentSeries.one())
    if _over_q(f):
        assert _over_q(got)


@st.composite
def square_lead_series(draw):
    """A series of even order whose lead is the square of a nonzero scalar, or
    over Q its negative, with a root in Q(i); over Q(x) the lead is constant."""
    domain = draw(st.sampled_from(UNIT_DOMAINS))
    root = draw(COEFFICIENTS["Q" if domain == "Q(x)" else domain].filter(bool))
    lead = root * root if domain != "Q" or draw(st.booleans()) else -root * root
    if domain == "Q(x)":
        lead = X.const(lead)
    a = 2 * draw(st.integers(-2, 2))
    width = draw(st.integers(1, 9))
    rest = draw(st.dictionaries(st.integers(a + 1, a + width), COEFFICIENTS[domain], max_size=4))
    prec = EXACT_PREC if draw(st.booleans()) else a + width
    f = LaurentSeries(a, prec, {a: lead, **{e: c for e, c in rest.items() if e < prec}})
    return f, _target(draw, domain)


@settings(max_examples=200, deadline=None)
@given(square_lead_series())
@example((LaurentSeries.polynomial({0: F(9, 4), 1: F(1, 3), 3: F(-2, 5)}), 8))
@example((LaurentSeries.polynomial({0: -1, 2: F(1, 2)}), 6))  # root i: Q(i) coefficients
@example((LaurentSeries.polynomial({2: X.const(4), 3: X.var("x")}), 5))
@example((LaurentSeries.polynomial({0: 1, 2: -3, 5: 2}), 9))
@example((LaurentSeries.polynomial({2: 1, 3: 4, 4: 4}), 60))  # THIN_UNIT squared
def test_sqrt_unit_over_q_equals_the_generic_recurrence(case):
    """sqrt_unit over Q runs on integer numerators and halves even integers;
    it equals the generic recurrence.  Over Q a lead with a rational root
    gives Fraction coefficients, and a negative lead Q(i) ones."""
    f, prec = case
    got, want = f.sqrt_unit(prec=prec), _sqrt_by_recurrence(f, prec)
    assert (got.floor, got.prec) == (want.floor, want.prec) and got == want
    if _over_q(f):
        types = {type(c) for c in got.coeffs.values()}
        assert types == ({Fraction} if f.coeffs[f.ord] > 0 else {GaussianRational})
