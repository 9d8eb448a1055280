"""Reference routines that only the tests use: an exact solve and the rank of
an ExactMatrix, and a Hodge family whose frame does not depend on its
parameters (sigma = 0 and every curvature vanishes)."""

from focklab.hodge import HodgeFamily
from focklab.linalg import ExactMatrix, _back_substitute, _domain_of_all
from focklab.ratfunc import DifferentialField
from focklab.scalars import GaussianRational, IdentityFailed


class Inconsistent(ValueError):
    """A linear system with no solution."""


def solve(a: ExactMatrix, b):
    """One exact solution of a * x = b, certified by back-multiplication.

    Raises Inconsistent when none exists, and IdentityFailed when the
    solution fails its certification although the echelon proved the
    system consistent.  For underdetermined systems the free variables
    are set to zero.
    """
    if len(b) != a.nrows:
        raise ValueError("dimension mismatch")
    dom = _domain_of_all(b, a.domain)
    m, rhs, pivots, _ = a._echelon(rhs=[[dom.convert(v)] for v in b])
    # rows beyond the pivot rows must have zero rhs
    for r in range(len(pivots), a.nrows):
        if rhs[r][0]:
            raise Inconsistent("no exact solution")
    x = _back_substitute(m, pivots, [r[0] for r in rhs], [dom.zero] * a.ncols)
    for got, want in zip(a.apply(x), b):
        if got - want:
            raise IdentityFailed("solve certification failed: A x != b")
    return x


def rank(a: ExactMatrix) -> int:
    return len(a._cleared()[0]._echelon()[2])


def constant_family() -> HodgeFamily:
    """Parameter-independent frame: sigma = 0 and every curvature vanishes."""
    field = DifferentialField(["x", "y"])
    flat = ExactMatrix([[GaussianRational(0), GaussianRational(1)],
                        [GaussianRational(-1), GaussianRational(0)]])
    v = [field.one, field.i]
    return HodgeFamily(field, flat, [v], {"x": 0, "y": 1})
