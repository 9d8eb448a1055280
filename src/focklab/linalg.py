"""Exact linear algebra over Q(sqrt(-1)) or a rational-function field.

Solutions and kernels are certified by exact back-multiplication; there is no
pivoting heuristic to go wrong because every comparison is an exact zero test.
Entries may be GaussianRational, RationalFunction, or plain ints/Fractions
(they coerce through the scalar dunder ops).
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import conj as _conj


class Inconsistent(ValueError):
    """A linear system with no solution."""


def _coerce(x):
    return Fraction(x) if isinstance(x, int) else x


class ExactMatrix:
    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = [[_coerce(x) for x in r] for r in rows]
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged matrix")
        self.rows = rows

    # -- construction -------------------------------------------------------

    @staticmethod
    def zeros(n, m, zero=0):
        return ExactMatrix([[zero] * m for _ in range(n)])

    @staticmethod
    def identity(n, one=1, zero=0):
        return ExactMatrix([[one if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            return False
        return all(
            not (a - b)
            for ra, rb in zip(self.rows, other.rows)
            for a, b in zip(ra, rb)
        )

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return ExactMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        return ExactMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self):
        return ExactMatrix([[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.ncols != other.nrows:
                raise ValueError("dimension mismatch")
            cols = other.ncols
            return ExactMatrix(
                [
                    [
                        sum(self.rows[i][k] * other.rows[k][j] for k in range(self.ncols))
                        for j in range(cols)
                    ]
                    for i in range(self.nrows)
                ]
            )
        return ExactMatrix([[a * other for a in r] for r in self.rows])

    def __rmul__(self, other):
        return ExactMatrix([[other * a for a in r] for r in self.rows])

    def transpose(self):
        return ExactMatrix([list(c) for c in zip(*self.rows)]) if self.rows else self

    def map(self, fn):
        return ExactMatrix([[fn(a) for a in r] for r in self.rows])

    def conj(self):
        return self.map(_conj)

    def trace(self):
        return sum(self.rows[i][i] for i in range(min(self.nrows, self.ncols)))

    def apply(self, vec):
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        return [sum(r[j] * vec[j] for j in range(self.ncols)) for r in self.rows]

    def is_zero(self):
        return all(not a for r in self.rows for a in r)

    # -- elimination --------------------------------------------------------

    def _echelon(self, rhs=None):
        """Fraction-free forward elimination (Bareiss); returns
        (work rows, rhs rows, pivot column list)."""
        m = [list(r) for r in self.rows]
        b = [list(r) for r in rhs] if rhs is not None else None
        nr, nc = len(m), self.ncols
        pivots = []
        prev = 1
        row = 0
        for col in range(nc):
            piv = None
            for r in range(row, nr):
                if m[r][col]:
                    piv = r
                    break
            if piv is None:
                continue
            if piv != row:
                m[row], m[piv] = m[piv], m[row]
                if b is not None:
                    b[row], b[piv] = b[piv], b[row]
            p = m[row][col]
            for r in range(row + 1, nr):
                factor = m[r][col]
                for c in range(nc):
                    num = m[r][c] * p - factor * m[row][c]
                    m[r][c] = num / prev if prev != 1 else num
                if b is not None:
                    for c in range(len(b[r])):
                        num = b[r][c] * p - factor * b[row][c]
                        b[r][c] = num / prev if prev != 1 else num
            prev = p
            pivots.append(col)
            row += 1
            if row == nr:
                break
        return m, b, pivots

    def rank(self):
        _, _, pivots = self._echelon()
        return len(pivots)

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if self.nrows == 0:
            return 1
        m = [list(r) for r in self.rows]
        n = self.nrows
        sign = 1
        prev = 1
        for k in range(n - 1):
            if not m[k][k]:
                for r in range(k + 1, n):
                    if m[r][k]:
                        m[k], m[r] = m[r], m[k]
                        sign = -sign
                        break
                else:
                    return m[k][k] - m[k][k]  # structural zero of the right type
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                    m[i][j] = num / prev if prev != 1 else num
            prev = m[k][k]
        d = m[n - 1][n - 1]
        return -d if sign < 0 else d

    def solve(self, b):
        """One exact solution of self * x = b, verified by back-substitution.

        Raises Inconsistent when none exists.  For underdetermined systems the
        free variables are set to zero.
        """
        if len(b) != self.nrows:
            raise ValueError("dimension mismatch")
        m, rhs, pivots = self._echelon(rhs=[[v] for v in b])
        nc = self.ncols
        x = [0] * nc
        # rows beyond the pivot rows must have zero rhs
        for r in range(len(pivots), self.nrows):
            if rhs[r][0]:
                raise Inconsistent("no exact solution")
        for r in range(len(pivots) - 1, -1, -1):
            col = pivots[r]
            s = rhs[r][0]
            for c in range(col + 1, nc):
                if m[r][c] and x[c]:
                    s = s - m[r][c] * x[c]
            x[col] = s / m[r][col]
        # certification
        for i, want in enumerate(b):
            got = sum(self.rows[i][j] * x[j] for j in range(nc))
            if got - want:
                raise Inconsistent("no exact solution")
        return x

    def kernel(self):
        """Exact basis of the null space (list of coordinate vectors)."""
        m, _, pivots = self._echelon()
        nc = self.ncols
        free = [c for c in range(nc) if c not in pivots]
        basis = []
        for fc in free:
            x = [0] * nc
            x[fc] = 1
            for r in range(len(pivots) - 1, -1, -1):
                col = pivots[r]
                s = 0
                for c in range(col + 1, nc):
                    if m[r][c] and x[c]:
                        s = s + m[r][c] * x[c]
                x[col] = (-s) / m[r][col] if s else 0
            basis.append(x)
        for x in basis:
            if any(self.apply(x)):
                raise AssertionError(f"kernel certification failed: A x != 0 for x = {x}")
        return basis

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        cols = []
        for j in range(n):
            e = [1 if i == j else 0 for i in range(n)]
            try:
                cols.append(self.solve(e))
            except Inconsistent:
                raise ZeroDivisionError("matrix is singular")
        return ExactMatrix([[cols[j][i] for j in range(n)] for i in range(n)])

    def leading_principal_minors(self):
        return [
            ExactMatrix([r[: k + 1] for r in self.rows[: k + 1]]).det()
            for k in range(min(self.nrows, self.ncols))
        ]

    def __str__(self):
        return "[" + "; ".join(", ".join(str(a) for a in r) for r in self.rows) + "]"

    __repr__ = __str__
