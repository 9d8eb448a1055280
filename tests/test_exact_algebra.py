import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from focklab.forms import DegreeOverflow, Form
from focklab.linalg import ExactMatrix, Inconsistent
from focklab.ratfunc import DifferentialField
from focklab.scalars import GaussianRational, conj


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
    assert m.solve(b) == b


def test_solve_singular_with_kernel():
    m = ExactMatrix([[1, 1], [1, 1]])
    x = m.solve([1, 1])
    assert x[0] + x[1] == 1
    k = m.kernel()
    assert len(k) == 1
    assert k[0][0] + k[0][1] == 0
    with pytest.raises(Inconsistent):
        m.solve([1, 2])


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
    x = m.solve(b)
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


# -- differential forms -------------------------------------------------------


def test_d_of_x_dy():
    x = Form.from_function(XY, XY.var("x"))
    dy = Form.d_param(XY, "y")
    omega = x.wedge(dy)
    d_omega = omega.exterior_derivative()
    # d(x dy) = dx ^ dy
    assert d_omega.scalar_coefficient(("x", "y")) == XY.one


def test_dd_zero_degree0():
    f = Form.from_function(XY, XY.parse("x^2*y"))
    assert not f.exterior_derivative().exterior_derivative()


def test_d_quotient():
    # d(y^-1 dx) = y^-2 dx ^ dy with the canonical key order dx < dy
    omega = Form.from_function(XY, XY.parse("1/y")).wedge(Form.d_param(XY, "x"))
    d_omega = omega.exterior_derivative()
    assert d_omega.scalar_coefficient(("x", "y")) == XY.parse("1/y^2")


def test_degree2_d_in_two_params_is_zero():
    omega = Form.from_function(XY, XY.parse("x*y")).wedge(
        Form.d_param(XY, "x").wedge(Form.d_param(XY, "y"))
    )
    assert omega.degree == 2
    assert not omega.exterior_derivative()
    with pytest.raises(DegreeOverflow):
        omega.exterior_derivative().exterior_derivative()


def test_wedge_anticommutes_for_scalar_one_forms():
    a = Form.from_function(XY, XY.parse("x")).wedge(Form.d_param(XY, "x"))
    b = Form.from_function(XY, XY.parse("y^2")).wedge(Form.d_param(XY, "y"))
    assert a.wedge(b) == -(b.wedge(a))


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_dd_zero_random_function(a, b, c):
    f = Form.from_function(XY, XY.parse(f"({a}*x^2 + {b}*x*y + {c}*y)/(1 + y^2)"))
    assert not f.exterior_derivative().exterior_derivative()


def test_form_conj():
    omega = Form.from_function(XY, XY.parse("i*x")).wedge(Form.d_param(XY, "x"))
    assert omega.conj().scalar_coefficient(("x",)) == XY.parse("-i*x")
    assert conj(conj(omega)) == omega


def test_dd_zero_on_one_forms_four_params():
    """d(d omega) = 0 for 1-forms where degree-3 terms genuinely exist."""
    field4 = DifferentialField(["a", "b", "c", "d"])
    omega = Form.zero(field4, 1, (1, 1))
    for name, coeff in [("a", "b*c^2"), ("c", "(a + d)/(1 + b^2)"), ("d", "a*b*c*d")]:
        omega = omega + Form.from_function(field4, field4.parse(coeff)).wedge(
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
