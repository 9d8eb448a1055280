"""Reference routines that only the tests use: an exact solve and the rank of
an ExactMatrix, a Hodge family whose frame does not depend on its parameters
(sigma = 0 and every curvature vanishes), the coefficientwise derivative of a
Fock vector over a family, the bracket of sp(H), and the quasi-symplectic
check with the consequence loop that its Gram condition makes redundant."""

from focklab.fock import SpElement
from focklab.hodge import HodgeFamily
from focklab.laurent import residue_gram
from focklab.linalg import ExactMatrix, _back_substitute, _domain_of_all
from focklab.ratfunc import DifferentialField, RationalFunction
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


def d_param(conn, k: int, vec):
    """d/dp_k of each coefficient of a Fock vector over conn's family: the
    flat part of nabla^Fbar (a constant coefficient has derivative 0).  As a
    ConnectionData method it is nabla^Fbar with A^F-bar dropped."""
    p = conn.fam.field.params[k]
    return vec._like({
        key: d for key, c in vec.terms.items() if isinstance(c, RationalFunction) and (d := c.derivative(p))
    })


def sp_bracket(a: SpElement, b: SpElement) -> SpElement:
    """The bracket of sp(H), the commutator A B - B A of the matrices."""
    return SpElement(a.space, a.matrix * b.matrix - b.matrix * a.matrix, check=False)


def check_quasi_symplectic(basis: dict, consequence_depth: int = 3) -> bool:
    """The defining conditions on the basis's indices (e_0 = 1, e_i in m for
    i > 0, (e_i, e_j) = i delta_{i+j,0}), and then the consequence that e_i
    lies in m^{k+1} once e_{-1}..e_{-N} cover m^{-k}/O and i > N, for
    k <= consequence_depth, tested on the orders directly."""
    idx = sorted(basis)
    if 0 in idx and not (basis[0] - 1).is_zero():
        return False
    if any(basis[i].is_zero() or basis[i].ord < 1 for i in idx if i > 0):
        return False
    nonzero = [i for i in idx if i]
    gram = residue_gram([basis[i] for i in nonzero])
    if any(next(gram) - (i if i + j == 0 else 0) for i in nonzero for j in nonzero):
        return False
    negs = sorted((i for i in idx if i < 0), reverse=True)
    pos = [i for i in idx if i > 0]
    for k in range(1, consequence_depth + 1):
        covered, nk = set(), None
        for count, i in enumerate(negs, start=1):
            o = basis[i].ord
            if o is not None and -k <= o <= -1:
                covered.add(o)
            if len(covered) == k:
                nk = count
                break
        if nk is not None and any(i > nk and basis[i].ord < k + 1 for i in pos):
            return False
    return True
