"""Rational functions: normal form, fast paths, hashing.

The oracle below is the long-division normalisation that every
RationalFunction went through before single-term divisors got their closed
form and scaling, negation and conjugation stopped renormalising, mapped
into the Laurent normal form by one helper.  It works on plain
{exponent: GaussianRational} dicts, so it shares no code with the module
under test, and each operation is replayed on it with the same formula the
module used; the stored (num.terms, den.terms) must come out identical, not
merely equal as values.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from focklab.laurent import parse_series
from focklab.ratfunc import DifferentialField, Polynomial, RationalFunction, _normalize
from focklab.scalars import ONE, ZERO, GaussianRational, parse_gaussian

F = Fraction
XY = DifferentialField(["x", "y"])
Z = XY._zero_exp
REF_ONE = {Z: ONE}

# -- the reference normal form, on plain term dicts ------------------------------------


def p_add(p, q):
    out = dict(p)
    for e, c in q.items():
        s = out.get(e, ZERO) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def p_neg(p):
    return {e: -c for e, c in p.items()}


def p_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, ZERO) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def p_conj(p):
    return {e: c.conj() for e, c in p.items()}


def p_derivative(p, k):
    out = {}
    for e, c in p.items():
        if e[k]:
            e2 = tuple(v - 1 if j == k else v for j, v in enumerate(e))
            out = p_add(out, {e2: c * e[k]})
    return out


def p_content(p):
    mins = None
    for e in p:
        mins = e if mins is None else tuple(map(min, mins, e))
    return mins


def ref_divide_exact(num, div):
    rem, quot = num, {}
    while rem:
        e = max(rem)
        de = max(div)
        qe = tuple(a - b for a, b in zip(e, de))
        if any(v < 0 for v in qe):
            return None
        qc = rem[e] / div[de]
        quot[qe] = quot.get(qe, ZERO) + qc
        rem = p_add(rem, p_neg(p_mul(div, {qe: qc})))
    return {e: c for e, c in quot.items() if c}


def p_shift(p, k):
    """p / x^k."""
    return {tuple(a - b for a, b in zip(e, k)): c for e, c in p.items()}


def ref_normalize(num, den):
    if not num:
        return {}, dict(REF_ONE)
    cm = tuple(map(min, p_content(num), p_content(den)))
    if any(cm):
        num, den = p_shift(num, cm), p_shift(den, cm)
    q = ref_divide_exact(num, den)
    if q is not None:
        return q, dict(REF_ONE)
    lead = den[max(den)]
    if lead != ONE:
        inv = lead.inverse()
        num = {e: c * inv for e, c in num.items()}
        den = {e: c * inv for e, c in den.items()}
    return laurent_form(num, den)


def laurent_form(num, den):
    """A long-division normal pair in the Laurent normal form: the monomial
    content of den moves into num, and a den that then divides num (as in
    (x + 1)/(x^2 + x) = 1/x) leaves the quotient over 1."""
    cm = p_content(den)
    num, den = p_shift(num, cm), p_shift(den, cm)
    if len(den) == 1:
        return num, den
    s = tuple(min(0, v) for v in p_content(num))
    q = ref_divide_exact(p_shift(num, s), den)
    if q is None:
        return num, den
    return p_shift(q, tuple(-v for v in s)), dict(REF_ONE)


def ref(x):
    """The reference pair of an operand: scalars become constants."""
    if isinstance(x, RationalFunction):
        return x.num.terms, x.den.terms
    c = GaussianRational.coerce(x)
    return ref_normalize({Z: c} if c else {}, dict(REF_ONE))


def r_add(a, b):
    (n1, d1), (n2, d2) = a, b
    if d1 == d2:
        return ref_normalize(p_add(n1, n2), d1)
    return ref_normalize(p_add(p_mul(n1, d2), p_mul(n2, d1)), p_mul(d1, d2))


def r_neg(a):
    return ref_normalize(p_neg(a[0]), a[1])


def r_mul(a, b):
    return ref_normalize(p_mul(a[0], b[0]), p_mul(a[1], b[1]))


def r_div(a, b):
    return ref_normalize(p_mul(a[0], b[1]), p_mul(a[1], b[0]))


def r_pow(a, n):
    if n < 0:
        return r_pow(r_div(ref(1), a), -n)
    out, base = ref(1), a
    while n:
        if n & 1:
            out = r_mul(out, base)
        base = r_mul(base, base)
        n >>= 1
    return out


def r_conj(a):
    return ref_normalize(p_conj(a[0]), p_conj(a[1]))


def r_derivative(a, k):
    n, d = a
    num = p_add(p_mul(p_derivative(n, k), d), p_neg(p_mul(n, p_derivative(d, k))))
    return ref_normalize(num, p_mul(d, d))


# -- inputs -----------------------------------------------------------------------------

GAUSS = [
    GaussianRational(c)
    for c in (1, -1, 2, F(1, 2), F(-3, 4))
] + [GaussianRational(0, 1), GaussianRational(1, -1), GaussianRational(F(2, 3), F(-1, 3))]
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))
coefficients = st.sampled_from(GAUSS)
scalars = st.one_of(
    st.integers(-3, 3),
    st.builds(F, st.integers(-3, 3), st.integers(1, 3)),
    st.sampled_from(GAUSS + [GaussianRational(0)]),
)


def poly_terms(min_size, max_size):
    return st.dictionaries(exponents, coefficients, min_size=min_size, max_size=max_size)


@st.composite
def raw_pairs(draw):
    """(num, den) term dicts: a monomial or a longer denominator, sometimes
    with a common factor, so every step of the normal form gets exercised."""
    num = draw(poly_terms(0, 3))
    den = draw(st.one_of(poly_terms(1, 1), poly_terms(2, 3)))
    if draw(st.booleans()):
        h = draw(poly_terms(1, 2))
        num, den = p_mul(num, h), p_mul(den, h)
    return num, den


@st.composite
def rfs(draw):
    num, den = draw(raw_pairs())
    return RationalFunction(XY, Polynomial(XY, num), Polynomial(XY, den))


operands = st.one_of(rfs(), rfs(), scalars)


def assert_matches(got, want):
    assert isinstance(got, RationalFunction)
    assert (got.num.terms, got.den.terms) == want
    # every value an operation returns is a fixed point of the normal form
    num, den = _normalize(got.num, got.den)
    assert (num.terms, den.terms) == (got.num.terms, got.den.terms)


# -- the oracle -------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(raw_pairs())
def test_construction_matches_long_division(pair):
    num, den = pair
    got = RationalFunction(XY, Polynomial(XY, num), Polynomial(XY, den))
    assert_matches(got, ref_normalize(num, den))


def r_sub(a, b):
    # scalar - rf runs rf.__rsub__, which is -rf + scalar
    if isinstance(b, RationalFunction) and not isinstance(a, RationalFunction):
        return r_add(r_neg(ref(b)), ref(a))
    return r_add(ref(a), r_neg(ref(b)))


BINARY = {
    "+": (lambda a, b: a + b, lambda a, b: r_add(ref(a), ref(b))),
    "-": (lambda a, b: a - b, r_sub),
    "*": (lambda a, b: a * b, lambda a, b: r_mul(ref(a), ref(b))),
    "/": (lambda a, b: a / b, lambda a, b: r_div(ref(a), ref(b))),
}


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(BINARY)), operands, operands)
@example("+", XY.var("x"), 0)
@example("+", 0, XY.var("x"))
@example("*", XY.parse("x/y"), 0)
@example("*", GaussianRational(0, 1), XY.parse("(x + 1)/y^2"))
@example("-", F(1, 2), XY.parse("x/(x + y)"))
@example("*", XY.parse("y/x"), XY.parse("x/y"))  # monomial denominators, the product is a constant
@example("+", XY.parse("1/y"), XY.parse("1/(x*y^2)"))  # over the componentwise max x*y^2
@example("-", XY.parse("1/y"), XY.parse("1/y"))  # a sum that cancels to zero
@example("/", XY.var("x"), XY.parse("2*y"))  # a one-term denominator 2*y reaches _normalize
@example("+", XY.parse("x + 1/y"), XY.parse("2 - 1/y"))  # the negative exponents cancel
@example("/", 1, XY.parse("1/x + y"))  # x/(x*y + 1): a Laurent denominator
@example("*", XY.parse("(x + 1)/y"), XY.parse("1/(x + 1)"))  # x + 1 divides the Laurent numerator: 1/y
def test_operations_match_long_division(op, a, b):
    if not (isinstance(a, RationalFunction) or isinstance(b, RationalFunction)):
        b = XY.const(b)
    fn, want = BINARY[op]
    if op == "/" and not b:
        with pytest.raises(ZeroDivisionError):
            fn(a, b)
        return
    assert_matches(fn(a, b), want(a, b))


@settings(max_examples=200, deadline=None)
@given(rfs(), st.integers(-3, 3))
def test_pow_matches_long_division(a, n):
    if n < 0 and not a:
        return
    assert_matches(a**n, r_pow(ref(a), n))


@settings(max_examples=200, deadline=None)
@given(rfs(), st.sampled_from(["x", "y"]))
@example(XY.parse("x*y^-2"), "y")  # the derivative in a negative exponent
@example(XY.parse("x*y^-2"), "x")  # and in a positive one
def test_unary_operations_match_long_division(a, param):
    assert_matches(-a, r_neg(ref(a)))
    assert_matches(a.conj(), r_conj(ref(a)))
    assert_matches(a.derivative(param), r_derivative(ref(a), XY.params.index(param)))


def test_scaling_by_one_returns_the_value_itself():
    f = XY.parse("(x + 1)/(x*y)")
    for one in (1, Fraction(1), GaussianRational(1)):
        assert f * one is f and one * f is f
    assert f * 2 == XY.parse("(2*x + 2)/(x*y)")


def test_field_constructors_are_normal():
    for value in (XY.zero, XY.one, XY.i, XY.var("x"), XY.const(F(-2, 3)), XY.const(0)):
        assert_matches(value, ref_normalize(value.num.terms, value.den.terms))


def test_scalar_fast_paths():
    f = XY.parse("(x + 1)/y")
    assert (f.num.terms, f.den.terms) == ({(1, -1): ONE, (0, -1): ONE}, REF_ONE)
    assert f + 0 is f and 0 + f is f and f - 0 is f
    assert f * 0 == 0 and not (0 * f) and (f * GaussianRational(0)).den.terms == REF_ONE
    assert (f * 2).den.terms == f.den.terms
    assert (GaussianRational(0, 1) * f).num.terms == {(1, -1): GaussianRational(0, 1),
                                                      (0, -1): GaussianRational(0, 1)}


def test_laurent_values_keep_denominator_one():
    x, y = XY.var("x"), XY.var("y")
    one = XY.one.den
    for f in (x / y**2, (x / y**2).derivative("y"), x / y + y / x, (x + 1) / y * (y / x), 1 / (1 / x + y) * (1 + x * y)):
        assert f.den is one, f
    assert 1 / (1 / x + y) == XY.parse("x/(1 + x*y)")
    assert (1 / (1 / x + y)).num.terms == {(1, 0): ONE}


def test_evaluate_where_a_negative_exponent_vanishes():
    with pytest.raises(ZeroDivisionError, match="denominator vanishes at sample point"):
        ((XY.var("x") + 1) / XY.var("y")).evaluate({"x": 1, "y": 0})
    assert ((XY.var("x") + 1) / XY.var("y")).evaluate({"x": 1, "y": 2}) == 1


# -- dispatch: this field, an equal field, a scalar --------------------------------------

XY_AGAIN = DifferentialField(["x", "y"])  # equal to XY, built separately
XZ = DifferentialField(["x", "z"])
DISPATCHED = dict(BINARY, **{"==": (lambda a, b: a == b, None)})


def variants(b):
    """b as a value of XY, as a value of XY_AGAIN with the same stored terms,
    and as a scalar when it is constant."""
    b = XY.convert(b)
    again = RationalFunction(XY_AGAIN, Polynomial(XY_AGAIN, b.num.terms), Polynomial(XY_AGAIN, b.den.terms))
    return [b, again] + ([b.constant_value()] if b.is_constant else [])


def stored(x):
    return (x.num.terms, x.den.terms) if isinstance(x, RationalFunction) else x


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(DISPATCHED)), rfs(), operands)
@example("*", XY.parse("2*x/y"), XY.parse("x + y^2 - 3"))  # a one-term factor times three terms
@example("*", XY.parse("x + y^2 - 3"), XY.parse("2*x/y"))  # and in the other order
@example("*", XY.parse("3*x/y^2"), XY.parse("(1/2)i*y^2/x"))  # one-term factors, exponents cancel to 0
@example("+", XY.parse("x/y"), GaussianRational(2))
@example("==", XY.parse("(x + 1)/(x + y)"), XY.parse("(x + 1)/(x + y)"))
def test_an_operand_of_this_field_an_equal_field_or_a_scalar_gives_one_result(op, a, b):
    """Whichever of the three routes the other operand takes -- the same
    DifferentialField object, an equal one built separately, or a scalar --
    an operation stores the same terms and hashes alike, on either side; the
    first route matches the long-division reference.  A value of a field with
    other parameters is a ValueError."""
    fn, want = DISPATCHED[op]
    vs = variants(b)
    assert len({hash(v) for v in vs}) == 1
    for pairs in ([(a, v) for v in vs], [(v, a) for v in vs]):
        if op == "/" and not pairs[0][1]:
            continue
        results = [fn(x, y) for x, y in pairs]
        assert all(stored(r) == stored(results[0]) for r in results), (pairs, results)
        assert len({hash(r) for r in results}) == 1
        if want is None:
            assert results[0] == (not (pairs[0][0] - pairs[0][1]))
        else:
            assert_matches(results[0], want(*pairs[0]))
    with pytest.raises(ValueError, match="different differential fields"):
        fn(a, XZ.var("z"))
    with pytest.raises(ValueError, match="different differential fields"):
        fn(XZ.var("z"), a)



@pytest.mark.parametrize("foreign", ["a", [1], None])
def test_a_foreign_operand_is_a_type_error(foreign):
    """An operand of no supported type returns NotImplemented, so Python
    raises TypeError, on either side."""
    x = XY.var("x")
    for fn in (lambda: x + foreign, lambda: foreign * x, lambda: x / foreign, lambda: foreign / x):
        with pytest.raises(TypeError):
            fn()
    assert x != foreign

# -- against sympy ----------------------------------------------------------------------


def to_sympy(x):
    sympy = pytest.importorskip("sympy")
    sx, sy = sympy.symbols("x y", real=True)

    def scalar(c):
        c = GaussianRational.coerce(c)
        return sympy.Rational(c.re.numerator, c.re.denominator) + sympy.I * sympy.Rational(
            c.im.numerator, c.im.denominator
        )

    def poly(terms):
        return sum((scalar(c) * sx ** e[0] * sy ** e[1] for e, c in terms.items()), sympy.S(0))

    if isinstance(x, RationalFunction):
        return poly(x.num.terms) / poly(x.den.terms)
    return scalar(x)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(BINARY)), rfs(), operands)
def test_operations_agree_with_sympy_cancel(op, a, b):
    sympy = pytest.importorskip("sympy")
    if op == "/" and not b:
        return
    got = BINARY[op][0](a, b)
    sa, sb = to_sympy(a), to_sympy(b)
    want = {"+": sa + sb, "-": sa - sb, "*": sa * sb, "/": sa / sb}[op]
    assert sympy.cancel(to_sympy(got) - want) == 0


@settings(max_examples=25, deadline=None)
@given(rfs(), st.integers(-2, 2))
def test_unary_operations_agree_with_sympy_cancel(a, n):
    sympy = pytest.importorskip("sympy")
    sa = to_sympy(a)
    sx, sy = sympy.symbols("x y", real=True)
    assert sympy.cancel(to_sympy(a.conj()) - sympy.conjugate(sa)) == 0
    assert sympy.cancel(to_sympy(a.derivative("y")) - sympy.diff(sa, sy)) == 0
    if a or n >= 0:
        assert sympy.cancel(to_sympy(a**n) - sa**n) == 0


# -- hashing ----------------------------------------------------------------------------


def test_hash_agrees_with_eq_on_an_unreduced_quotient():
    a = XY.parse("((x+1)*y)/((x+1)*(y+1))")
    b = XY.parse("y/(y+1)")
    assert a == b
    assert (a.num.terms, a.den.terms) != (b.num.terms, b.den.terms)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@settings(max_examples=200, deadline=None)
@given(rfs(), poly_terms(1, 2))
def test_hash_ignores_a_common_factor(a, h):
    h = Polynomial(XY, h)
    b = RationalFunction(XY, a.num * h, a.den * h)
    assert a == b
    assert hash(a) == hash(b)


@given(scalars)
def test_constants_hash_like_their_value(c):
    assert XY.const(c) == c
    assert hash(XY.const(c)) == hash(c)


# -- the text format --------------------------------------------------------------------

FIELDS = [DifferentialField(["x"]), XY, DifferentialField(["x1", "y1", "x2", "y2"])]
nonreal = st.builds(
    GaussianRational,
    st.fractions(-3, 3, max_denominator=4),
    st.fractions(-3, 3, max_denominator=4).filter(bool),
)


@st.composite
def printable(draw):
    """A value of a field with 1, 2 or 4 parameters: non-real coefficients
    over a monomial denominator, often of several factors, or a longer one."""
    field = draw(st.sampled_from(FIELDS))
    exps = st.tuples(*[st.integers(0, 2)] * field.nvars)
    num = draw(st.dictionaries(exps, nonreal, max_size=3))
    den = draw(st.dictionaries(exps, nonreal, min_size=1, max_size=draw(st.sampled_from([1, 1, 3]))))
    return RationalFunction(field, Polynomial(field, num), Polynomial(field, den))


def test_printed_polynomials_and_quotients():
    x, y, i = XY.var("x"), XY.var("y"), XY.i
    assert str((x**2 * y - 3 * x + 1 + 2 * i).num) == "x^2*y - 3*x + (1+2i)"
    assert str((-x + (i - 1) * y**3 - 1).num) == "-x + (-1+i)*y^3 - 1"
    assert str(Polynomial(XY, {})) == "0" and str(XY.zero) == "0"
    assert str((x - i * y + 1) / (x * y**2 + 2)) == "(x - i*y + 1)/(x*y^2 + 2)"
    assert str((x + 1) / y**2) == "(x + 1)/y^2"
    assert str(-x / (2 * y)) == "-1/2*x/y"
    assert str(1 / (y * (y + 1))) == "1/(y^2 + y)"
    assert str(Polynomial(XY, {(-1, 0): ONE, (2, -3): -ONE})) == "-x^2*y^-3 + x^-1"


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.one_of(coefficients, nonreal), max_size=4))
def test_printed_laurent_polynomials_read_back(terms):
    p = Polynomial(XY, terms)
    assert XY.parse(str(p)) == RationalFunction(XY, p, XY.one.den)


@settings(max_examples=200, deadline=None)
@given(printable())
@example(XY.const(GaussianRational(0, F(-1, 4))) / XY.var("y") ** 2)  # the modular curvature scalar
@example(1 / (XY.var("x") * XY.var("y")))
@example(1 / (XY.var("y") * (XY.var("y") + 1)))  # stored as y^-1/(y + 1)
def test_printed_values_read_back(rf):
    assert rf.field.parse(str(rf)) == rf


def test_the_grammar_reads_left_to_right():
    x, y = XY.var("x"), XY.var("y")
    assert XY.parse("x/2/3") == x / 6
    assert XY.parse("2^1/2") == 1
    assert XY.parse("1/2i*x") == XY.parse("(1/2)i*x") == XY.i * x / 2
    assert XY.parse("x^-2 y") == y / x**2
    assert XY.parse("-x^2") == -(x**2)
    assert str(XY.parse("-(1/4)i/y^2")) == "-(1/4)i/y^2"


@pytest.mark.parametrize("parse, text, where", [
    (parse_series, "1/(1+t)", "not a Laurent polynomial in t"),
    (parse_series, "x^2", "unknown name at 'x'"),
    (parse_gaussian, "x", "unknown name at 'x'"),
    (XY.parse, "x +", "at the end"),
    (XY.parse, "(x", "expected '\\)' at the end"),
    (XY.parse, "x^y", "unexpected token at '\\^'"),
])
def test_malformed_text_is_a_value_error_that_says_where(parse, text, where):
    with pytest.raises(ValueError, match=where):
        parse(text)
