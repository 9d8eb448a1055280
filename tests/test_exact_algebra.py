import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from focklab.forms import DegreeOverflow, Form
from focklab.linalg import ExactMatrix
from focklab.ratfunc import DifferentialField
from focklab.scalars import GaussianRational, conj
from oracles import Inconsistent, rank, solve


# -- rational functions -------------------------------------------------------

XY = DifferentialField(["x", "y"])


def test_parse_and_equality():
    f = XY.parse("(x^2 - y^2)/(x - y)")
    g = XY.parse("x + y")
    assert f == g  # cross-multiplication equality, no gcd needed


def test_conjugation_fixes_parameters():
    f = XY.parse("(x + i*y)/(x - i*y)")
    assert f.conj() == XY.parse("(x - i*y)/(x + i*y)")
    assert f.conj().conj() == f
    g = XY.parse("x^2 + y")
    assert g.conj() == g


def test_derivative_quotient_rule():
    f = XY.parse("x^2*y") / XY.parse("y^2")
    # f = x^2/y, df/dy = -x^2/y^2
    assert f.derivative("y") == XY.parse("-x^2/y^2")
    assert f.derivative("x") == XY.parse("2*x/y")


def test_evaluate():
    f = XY.parse("(x + i*y)/(1 + y^2)")
    v = f.evaluate({"x": 1, "y": 2})
    assert v == GaussianRational(Fraction(1, 5), Fraction(2, 5))


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 4))
def test_field_ops_random(a, b, n):
    f = XY.parse(f"({a} + x)/({n} + y^2)")
    g = XY.parse(f"({b} - y)/(1 + x^2)")
    assert (f + g) - g == f
    if g:
        assert (f * g) / g == f


# -- exact matrices -----------------------------------------------------------


def test_solve_identity():
    m = ExactMatrix.identity(3)
    b = [GaussianRational(1), GaussianRational(2, 1), GaussianRational(0, -1)]
    assert solve(m, b) == b


def test_solve_singular_with_kernel():
    m = ExactMatrix([[1, 1], [1, 1]])
    x = solve(m, [1, 1])
    assert x[0] + x[1] == 1
    k = m.kernel()
    assert len(k) == 1
    assert k[0][0] + k[0][1] == 0
    with pytest.raises(Inconsistent):
        solve(m, [1, 2])


def test_random_seeded_5x5_gaussian():
    rng = random.Random(20240811)
    while True:
        m = ExactMatrix(
            [
                [
                    GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
                    for _ in range(5)
                ]
                for _ in range(5)
            ]
        )
        if m.det():
            break
    b = [GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(5)]
    x = solve(m, b)
    # back-substitution oracle
    assert all(sum(m[i, j] * x[j] for j in range(5)) == b[i] for i in range(5))


def test_kernel_over_function_field():
    m = ExactMatrix([[XY.parse("x"), XY.parse("x*y")], [XY.parse("1"), XY.parse("y")]])
    k = m.kernel()
    assert len(k) == 1
    v = m.apply(k[0])
    assert all(not c for c in v)


def test_det_and_minors():
    m = ExactMatrix([[2, 1], [1, 2]])
    assert m.det() == 3
    assert m.leading_principal_minors() == [2, 3]
    assert m.inverse() * m == ExactMatrix.identity(2)


MINOR_ENTRIES = {
    "Q": st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    "Q(i)": st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2)),
    "Q(x,y)": st.builds(lambda a, b: XY.parse(f"({a}*x + y)/({b} + x^2)"), st.integers(-2, 2), st.integers(1, 3)),
}


@st.composite
def minor_matrices(draw, domains=tuple(sorted(MINOR_ENTRIES))):
    """A matrix over Q, Q(i) or Q(x, y), square or not, with many zeros; often
    one leading block is made singular (row k a multiple of row 0 on the
    first k + 1 columns), so a zero pivot has minors after it."""
    entries = MINOR_ENTRIES[draw(st.sampled_from(domains))]
    nr, nc = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    rows = [[draw(st.one_of(st.just(0), entries)) for _ in range(nc)] for _ in range(nr)]
    if min(nr, nc) > 1 and draw(st.booleans()):
        k = draw(st.integers(1, min(nr, nc) - 1))
        c = draw(entries)
        rows[k][: k + 1] = [c * x for x in rows[0][: k + 1]]
    return ExactMatrix(rows)


@given(minor_matrices())
@example(ExactMatrix([[0, 1], [1, 0]]))
@example(ExactMatrix([[1, 2, 3], [2, 4, 5], [3, 5, 7]]))
@example(ExactMatrix([[2, 1, 0], [4, 2, 1], [0, 1, 3], [1, 1, 1]]))
def test_leading_minors_equal_one_det_per_minor(m):
    """The minors read from one elimination equal the definition, a det of
    each leading block, including every minor after a zero pivot."""
    n = min(m.nrows, m.ncols)
    oracle = [ExactMatrix([r[: k + 1] for r in m.rows[: k + 1]]).det() for k in range(n)]
    assert m.leading_principal_minors() == oracle


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(0), MINOR_ENTRIES["Q(x,y)"]), min_size=n, max_size=n), min_size=n, max_size=n
)))
def test_det_over_a_field_is_the_permutation_sum(rows):
    """det over Q(x, y), which eliminates on rows cleared of their
    denominators and divides by the row scales, is the Leibniz sum."""
    n = len(rows)
    leibniz = sum(
        (-1) ** sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) * math.prod(r[c] for r, c in zip(rows, p))
        for p in itertools.permutations(range(n))
    )
    assert ExactMatrix(rows).det() == leibniz


def _fraction_bareiss(rows):
    """(echelon rows, pivot columns, sign of the swaps) by fraction-free
    elimination on Fraction entries, each step divided by the last pivot:
    the oracle for elimination over Q on integer rows."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots, sign, prev = [], 1, Fraction(1)
    for col in range(len(m[0])):
        row = len(pivots)
        piv = next((r for r in range(row, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv], sign = m[piv], m[row], -sign
        p = m[row][col]
        for r in range(row + 1, len(m)):
            m[r] = [(x * p - m[r][col] * y) / prev for x, y in zip(m[r], m[row])]
        prev = p
        pivots.append(col)
    return m, pivots, sign


def _fraction_kernel(m, pivots, nc):
    """The kernel vector with a 1 at each free column and 0 at the others."""
    basis = []
    for fc in (c for c in range(nc) if c not in pivots):
        x = [Fraction(0)] * nc
        x[fc] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            col = pivots[r]
            x[col] = -sum(m[r][c] * x[c] for c in range(col + 1, nc)) / m[r][col]
        basis.append(x)
    return basis


@given(minor_matrices(("Q",)))
@example(ExactMatrix([[Fraction(1, 2), Fraction(1, 3), 0], [Fraction(3, 4), Fraction(1, 2), 0], [0, Fraction(2, 3), Fraction(5, 6)]]))
@example(ExactMatrix([[Fraction(2, 3), Fraction(4, 3), Fraction(-1, 2), 1], [Fraction(1, 3), Fraction(2, 3), Fraction(1, 5), 0], [1, 2, 0, Fraction(3, 7)]]))
@example(ExactMatrix([[0, 0], [0, 0]]))
def test_elimination_over_q_on_integer_rows_matches_fraction_bareiss(m):
    """det, rank and kernel over Q eliminate each row as integers over its lcm;
    they equal fraction-free elimination on the Fraction entries, and every
    value is a Fraction: a float would mean that / ran on two integers."""
    ech, pivots, sign = _fraction_bareiss(m.rows)
    assert rank(m) == len(pivots)
    kernel = m.kernel()
    assert kernel == _fraction_kernel(ech, pivots, m.ncols)
    assert all(type(v) is Fraction for x in kernel for v in x)
    if m.nrows == m.ncols:
        n = m.nrows
        want = sign * ech[n - 1][n - 1] if len(pivots) == n else 0
        got = m.det()
        assert got == want and type(got) is Fraction
        assert all(type(v) is Fraction for v in m.leading_principal_minors())


# -- differential forms -------------------------------------------------------


def scalar_form(field, value) -> Form:
    """The degree-0 scalar form of a rational function."""
    return Form(field, 0, (1, 1), {(): ExactMatrix([[value]])})


def test_d_of_x_dy():
    x = scalar_form(XY, XY.var("x"))
    dy = Form.d_param(XY, "y")
    omega = x.wedge(dy)
    d_omega = omega.exterior_derivative()
    # d(x dy) = dx ^ dy
    assert d_omega.scalar_coefficient(("x", "y")) == XY.one


def test_dd_zero_degree0():
    f = scalar_form(XY, XY.parse("x^2*y"))
    assert not f.exterior_derivative().exterior_derivative()


def test_d_quotient():
    # d(y^-1 dx) = y^-2 dx ^ dy with the canonical key order dx < dy
    omega = scalar_form(XY, XY.parse("1/y")).wedge(Form.d_param(XY, "x"))
    d_omega = omega.exterior_derivative()
    assert d_omega.scalar_coefficient(("x", "y")) == XY.parse("1/y^2")


def test_degree2_d_in_two_params_is_zero():
    omega = scalar_form(XY, XY.parse("x*y")).wedge(
        Form.d_param(XY, "x").wedge(Form.d_param(XY, "y"))
    )
    assert omega.degree == 2
    assert not omega.exterior_derivative()
    with pytest.raises(DegreeOverflow):
        omega.exterior_derivative().exterior_derivative()


def test_wedge_anticommutes_for_scalar_one_forms():
    a = scalar_form(XY, XY.parse("x")).wedge(Form.d_param(XY, "x"))
    b = scalar_form(XY, XY.parse("y^2")).wedge(Form.d_param(XY, "y"))
    assert a.wedge(b) == -(b.wedge(a))


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_dd_zero_random_function(a, b, c):
    f = scalar_form(XY, XY.parse(f"({a}*x^2 + {b}*x*y + {c}*y)/(1 + y^2)"))
    assert not f.exterior_derivative().exterior_derivative()


def test_form_conj():
    omega = scalar_form(XY, XY.parse("i*x")).wedge(Form.d_param(XY, "x"))
    assert omega.conj().scalar_coefficient(("x",)) == XY.parse("-i*x")
    assert conj(conj(omega)) == omega


def test_dd_zero_on_one_forms_four_params():
    """d(d omega) = 0 for 1-forms where degree-3 terms genuinely exist."""
    field4 = DifferentialField(["a", "b", "c", "d"])
    omega = Form.zero(field4, 1, (1, 1))
    for name, coeff in [("a", "b*c^2"), ("c", "(a + d)/(1 + b^2)"), ("d", "a*b*c*d")]:
        omega = omega + scalar_form(field4, field4.parse(coeff)).wedge(
            Form.d_param(field4, name)
        )
    assert omega.exterior_derivative().exterior_derivative().degree == 3
    assert not omega.exterior_derivative().exterior_derivative()


# -- certification survives python -O ------------------------------------------


def test_failed_certification_raises_under_optimize():
    """sqrt and kernel verify their result with an explicit raise, which
    python -O keeps (an assert would be stripped)."""
    code = textwrap.dedent(
        """
        from fractions import Fraction
        from focklab import scalars
        from focklab.linalg import ExactMatrix

        assert False, "this line runs only without -O"
        scalars.fraction_sqrt = lambda q: Fraction(1)  # wrong roots
        ExactMatrix.apply = lambda self, x: [1] * self.nrows  # A x != 0
        for name, thunk in (
            ("sqrt", lambda: scalars.GaussianRational(4).sqrt()),
            ("kernel", lambda: ExactMatrix([[1, 1]]).kernel()),
        ):
            try:
                thunk()
                print(name, "certified")
            except AssertionError as exc:
                print(name, "raised:", exc)
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("focklab").__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["sqrt raised", "kernel raised"], lines
