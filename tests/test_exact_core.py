"""Differential tests of the exact Q(i) core.

GaussianRational is checked against a reference model that keeps a value as
a pair of Fractions; the zero-skipping ExactMatrix kernels are checked
against dense textbook definitions (triple-loop products, Leibniz
determinants, Cramer's rule) and, when sympy is installed, against its
DomainMatrix over QQ_I.
"""

import itertools
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from focklab.linalg import ExactMatrix
from focklab.ratfunc import DifferentialField, RationalFunction
from focklab.scalars import QQ, QQ_I, GaussianRational, NotASquare, parse_gaussian
from oracles import Inconsistent, rank, solve

# -- reference model: a pair of Fractions ---------------------------------------


class Pair:
    """re + im*i with Fraction parts and schoolbook formulas."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(z):
        return Pair(z.re, z.im)

    def __add__(self, o):
        return Pair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Pair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return Pair(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return Pair(self.re / n, -self.im / n)

    def __truediv__(self, o):
        return self * o.inverse()

    def conj(self):
        return Pair(self.re, -self.im)

    def matches(self, z):
        return isinstance(z, GaussianRational) and (z.re, z.im) == (self.re, self.im)


rationals = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 24))
small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
gaussians = st.builds(GaussianRational, rationals, rationals)
# mostly zero, so that the zero-skipping paths are exercised
sparse_entries = st.one_of(
    st.just(GaussianRational(0)),
    st.just(GaussianRational(0)),
    st.builds(GaussianRational, small_rationals, small_rationals),
    st.builds(GaussianRational, small_rationals),
)


def matrices(rows, cols):
    return st.lists(
        st.lists(sparse_entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(ExactMatrix)


square = st.integers(1, 4).flatmap(lambda n: matrices(n, n))


# -- GaussianRational -------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(gaussians, gaussians)
def test_field_operations_match_the_pair_model(z, w):
    pz, pw = Pair.of(z), Pair.of(w)
    assert (pz + pw).matches(z + w)
    assert (pz - pw).matches(z - w)
    assert (pz * pw).matches(z * w)
    assert pz.conj().matches(z.conj())
    if w:
        assert (pz / pw).matches(z / w)
        assert pw.inverse().matches(w.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            z / w
        with pytest.raises(ZeroDivisionError):
            w.inverse()


@settings(max_examples=200, deadline=None)
@given(gaussians, st.one_of(st.integers(-30, 30), rationals))
def test_mixed_int_and_fraction_operands_match_the_pair_model(z, q):
    pz, pq = Pair.of(z), Pair(q)
    assert (pz + pq).matches(z + q) and (pq + pz).matches(q + z)
    assert (pz - pq).matches(z - q) and (pq - pz).matches(q - z)
    assert (pz * pq).matches(z * q) and (pq * pz).matches(q * z)
    if q:
        assert (pz / pq).matches(z / q)
    if z:
        assert (pq / pz).matches(q / z)


@settings(max_examples=150, deadline=None)
@given(gaussians, st.integers(-5, 5))
def test_integer_powers_match_repeated_products(z, n):
    if not z and n < 0:
        with pytest.raises(ZeroDivisionError):
            z**n
        return
    want = Pair(1)
    base = Pair.of(z) if n >= 0 else Pair.of(z).inverse()
    for _ in range(abs(n)):
        want = want * base
    assert want.matches(z**n)


@settings(max_examples=150, deadline=None)
@given(gaussians, st.sampled_from([GaussianRational(0, 1), GaussianRational(2),
                                   GaussianRational(1, 2), GaussianRational(0, -3)]))
def test_sqrt_of_squares_and_of_non_squares(w, non_square):
    z = w * w
    root = z.sqrt()
    assert root * root == z and root in (w, -w)
    assert root.re > 0 or (root.re == 0 and root.im >= 0)
    if w:
        # w^2 * u is a square only if u is, and none of these is
        with pytest.raises(NotASquare):
            (z * non_square).sqrt()


@settings(max_examples=200, deadline=None)
@given(rationals, rationals)
def test_equality_and_hash_agree_with_int_and_fraction(re, im):
    z = GaussianRational(re)
    assert z == re and re == z and hash(z) == hash(re)
    if re.denominator == 1:
        assert z == int(re) and hash(z) == hash(int(re))
    assert len({z, re}) == 1
    w = GaussianRational(re, im)
    assert (w == re) == (im == 0)
    assert hash(w) == hash(GaussianRational(w.re, w.im))


@settings(max_examples=300, deadline=None)
@given(gaussians)
def test_text_round_trip(z):
    assert parse_gaussian(str(z)) == z
    assert eval(repr(z), {"GaussianRational": GaussianRational, "Fraction": Fraction}) == z


def test_values_are_immutable():
    z = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(3)
    with pytest.raises(AttributeError):
        z.extra = 1
    with pytest.raises(AttributeError):
        z._a = 5
    assert z == GaussianRational(1, 2) and hash(z) == hash((1, 2, 1))


# -- ExactMatrix against dense references ---------------------------------------------


def dense_mul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), GaussianRational(0))
         for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def leibniz_det(a):
    n = len(a)
    total = GaussianRational(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = GaussianRational(-1 if inversions % 2 else 1)
        for i in range(n):
            term = term * a[i][perm[i]]
        total = total + term
    return total


def brute_rank(a):
    rows, cols = len(a), len(a[0])
    for k in range(min(rows, cols), 0, -1):
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                if leibniz_det([[a[r][c] for c in cs] for r in rs]):
                    return k
    return 0


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_mul_and_apply_match_dense_products(n, m, p, data):
    a = data.draw(matrices(n, m))
    b = data.draw(matrices(m, p))
    v = data.draw(st.lists(sparse_entries, min_size=m, max_size=m))
    assert (a * b).rows == dense_mul(a.rows, b.rows)
    assert a.apply(v) == [row[0] for row in dense_mul(a.rows, [[x] for x in v])]
    for entry in [x for row in (a * b).rows for x in row] + a.apply(v):
        assert isinstance(entry, GaussianRational)


@settings(max_examples=120, deadline=None)
@given(square, st.data())
def test_det_solve_inverse_match_leibniz_and_cramer(a, data):
    n = a.nrows
    b = data.draw(st.lists(sparse_entries, min_size=n, max_size=n))
    det = leibniz_det(a.rows)
    assert a.det() == det
    if det:
        # Cramer's rule: x_j = det(A with column j replaced by b) / det(A)
        cramer = [
            leibniz_det([[b[i] if c == j else a.rows[i][c] for c in range(n)] for i in range(n)]) / det
            for j in range(n)
        ]
        assert solve(a, b) == cramer
        inv = a.inverse()
        assert inv * a == ExactMatrix.identity(n) and a * inv == ExactMatrix.identity(n)
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_rank_kernel_and_solve_on_rectangular_systems(n, m, data):
    a = data.draw(matrices(n, m))
    r = brute_rank(a.rows)
    assert rank(a) == r
    kernel = a.kernel()
    assert len(kernel) == m - r
    for x in kernel:
        assert not any(a.apply(x))
    if kernel:
        assert brute_rank([list(x) for x in kernel]) == len(kernel)
    # a consistent right-hand side is solved, and the solution checks
    x0 = data.draw(st.lists(sparse_entries, min_size=m, max_size=m))
    b = a.apply(x0)
    assert a.apply(solve(a, b)) == b


def test_inconsistent_system_raises():
    a = ExactMatrix([[1, 1], [1, 1]])
    with pytest.raises(Inconsistent):
        solve(a, [1, 2])


# -- the same kernels against sympy's DomainMatrix over QQ_I ------------------------------


def to_sympy(mat):
    sympy_domains = pytest.importorskip("sympy.polys.domains")
    matrices_mod = pytest.importorskip("sympy.polys.matrices")
    qq, qq_i = sympy_domains.QQ, sympy_domains.QQ_I
    rows = [
        [qq_i(qq(z.re.numerator, z.re.denominator), qq(z.im.numerator, z.im.denominator))
         for z in map(GaussianRational.coerce, row)]
        for row in mat.rows
    ]
    return matrices_mod.DomainMatrix(rows, (mat.nrows, mat.ncols), qq_i)


def from_sympy_entry(x):
    return GaussianRational(Fraction(int(x.x.numerator), int(x.x.denominator)),
                            Fraction(int(x.y.numerator), int(x.y.denominator)))


def from_sympy(dm):
    return [[from_sympy_entry(x) for x in row] for row in dm.to_list()]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_kernels_match_sympy_domain_matrix(n, m, p, data):
    pytest.importorskip("sympy")
    a = data.draw(matrices(n, m))
    b = data.draw(matrices(m, p))
    sa, sb = to_sympy(a), to_sympy(b)
    assert (a * b).rows == from_sympy(sa * sb)
    assert rank(a) == sa.rank()
    assert len(a.kernel()) == sa.nullspace().shape[0]
    if n == m:
        assert a.det() == from_sympy_entry(sa.det())
        if a.det():
            assert a.inverse().rows == from_sympy(sa.inv())
            rhs = data.draw(matrices(n, 1))
            assert [[x] for x in solve(a, [r[0] for r in rhs.rows])] == from_sympy(
                sa.lu_solve(to_sympy(rhs))
            )


# -- domains ---------------------------------------------------------------------------


def test_domain_is_inferred_and_joined():
    q = ExactMatrix([[1, Fraction(1, 2)]])
    g = ExactMatrix([[GaussianRational(0, 1)], [0]])
    assert q.domain is QQ and g.domain is QQ_I
    assert isinstance(g[1, 0], GaussianRational)
    assert (q * g).domain is QQ_I and isinstance((q * g)[0, 0], GaussianRational)
    assert ExactMatrix([[0, 0], [0, 0]]).domain is QQ and ExactMatrix.identity(2).domain is QQ


def test_matrix_text():
    m = ExactMatrix([[1, Fraction(1, 2)], [GaussianRational(0, 1), 0]])
    assert str(m) == repr(m) == "[1, 1/2; i, 0]"
    assert str(ExactMatrix([[GaussianRational(1, -2), Fraction(3, 4)]])) == "[1-2i, 3/4]"


def test_zero_rows_and_columns_over_a_field_stay_rational_functions():
    field = DifferentialField(["x", "y"])
    x, y = field.var("x"), field.var("y")
    # row 1 and column 1 of a are zero; b has a zero column 0
    a = ExactMatrix([[x, 0, GaussianRational(0, 1)], [0, 0, 0], [1, 0, y]])
    b = ExactMatrix([[0, 2, 1], [0, 0, 0], [0, Fraction(1, 2), 0]])
    assert a.domain == field and b.domain is QQ
    for mat in (a, a * b, b * a, a.transpose(), a * 2, a.conj(), -a, a + b, a - b):
        assert mat.domain == field
        assert all(isinstance(e, RationalFunction) for row in mat.rows for e in row)
    assert (a * b)[1, 1] == 0 and (a * b)[0, 0] == 0
    applied = a.apply([0, 1, 0]) + a.apply([1, 0, 0]) + b.apply([x, y, 1])
    assert all(isinstance(e, RationalFunction) for e in applied)
    assert isinstance(a.det(), RationalFunction) and not a.det()
    assert isinstance(a.trace(), RationalFunction)
    kernel = a.kernel()
    assert kernel and all(isinstance(e, RationalFunction) for v in kernel for e in v)
    assert not any(a.apply(kernel[0]))


rational_entries = st.one_of(st.just(0), st.just(Fraction(0)), small_rationals)


def _nonzero_entries(m):
    """The nonzero (row * ncols + col, entry) of m, in row-major order."""
    return tuple((r * m.ncols + c, v) for r, row in enumerate(m.rows) for c, v in enumerate(row) if v)


def _commutator_entries(a, b):
    """cli._bracket_entries on the nonzero (row, col, entry) of a and b."""
    from focklab.cli import _bracket_entries

    xs, ys = ([(r, c, v) for r, row in enumerate(m.rows) for c, v in enumerate(row) if v] for m in (a, b))
    return _bracket_entries(xs, ys, a.nrows)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.sampled_from([rational_entries, sparse_entries]), st.data())
def test_commutator_matches_the_two_products(n, entries, data):
    """Over QQ and QQ_I, with operands zero about half the time."""
    a, b = (
        data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n).map(ExactMatrix))
        for _ in range(2)
    )
    want = _nonzero_entries(a * b - b * a)
    got = _commutator_entries(a, b)
    assert got == want
    assert [type(v) for _, v in got] == [type(v) for _, v in want]


def test_commutator_over_a_field_with_dense_and_zero_operands():
    field = DifferentialField(["x", "y"])
    x, y = field.var("x"), field.var("y")
    operands = [
        ExactMatrix([[1, Fraction(1, 2), -2], [3, Fraction(-1, 3), 1], [2, 5, Fraction(7, 4)]]),
        ExactMatrix([[0, GaussianRational(0, 1), 0], [0, 0, 0], [GaussianRational(2, -1), 0, 0]]),
        ExactMatrix([[x, y, 1], [x * y, 2, y], [1, x, x + y]]),
        ExactMatrix([[0] * 3 for _ in range(3)]),
    ]
    for a in operands:
        for b in operands:
            want = _nonzero_entries(a * b - b * a)
            got = _commutator_entries(a, b)
            assert got == want
            assert [type(v) for _, v in got] == [type(v) for _, v in want]
    assert _commutator_entries(operands[2], operands[2]) == ()


def test_inverse_certification_raises_under_optimize():
    """inverse() checks A * A^-1 == I with an explicit raise, which python -O
    keeps, and a singular matrix still raises ZeroDivisionError."""
    code = textwrap.dedent(
        """
        from focklab import linalg
        from focklab.linalg import ExactMatrix

        assert False, "this line runs only without -O"
        try:
            ExactMatrix([[1, 2], [2, 4]]).inverse()
        except ZeroDivisionError as exc:
            print("singular raised:", exc)
        linalg._back_substitute = lambda m, pivots, b, x: x
        try:
            ExactMatrix([[2, 1], [1, 2]]).inverse()
            print("inverse certified")
        except AssertionError as exc:
            print("inverse raised:", exc)
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(__import__("focklab").__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["singular raised", "inverse raised"], lines
