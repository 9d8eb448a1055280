"""Exact linear algebra over Q(sqrt(-1)) or a rational-function field.

Every matrix carries an explicit scalar domain, inferred from its entries:
Q, Q(sqrt(-1)) or a DifferentialField.  Entries are converted into the
domain on construction, a product works in the larger of its operands'
domains, and an entry that no product reaches is the domain's zero.
Products and applications skip zero operands.

Kernels and inverses are certified by exact back-multiplication; there is no
pivoting heuristic to go wrong because every comparison is an exact zero
test.  det, kernel and the leading minors eliminate rows
cleared of denominators: integers over Q, polynomials over a field Q(x, ...).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ratfunc import DifferentialField, RationalFunction
from .scalars import QQ, QQ_I, GaussianRational, IdentityFailed, conj as _conj


_DOMAIN_OF_TYPE = {
    int: QQ,
    bool: QQ,
    Fraction: QQ,
    GaussianRational: QQ_I,
}


def _domain_of(x):
    """The scalar domain of one exact scalar."""
    dom = _DOMAIN_OF_TYPE.get(type(x))
    if dom is not None:
        return dom
    if isinstance(x, RationalFunction):
        return x.field
    raise TypeError(f"no scalar domain for {x!r}")


def _join(a, b):
    """The smaller domain containing both a and b."""
    if a is b:
        return a
    if a.rank != b.rank:
        return a if a.rank > b.rank else b
    if a == b:
        return a
    raise ValueError(f"mixing different scalar domains {a!r} and {b!r}")


def _domain_of_all(values, dom=QQ):
    for x in values:
        d = _domain_of(x)
        if d is not dom:
            dom = _join(dom, d)
    return dom


def _eliminate(xs, ys, p, factor, prev, start=0):
    """One fraction-free (Bareiss) row step in place on the columns from
    start on: xs <- (xs * p - factor * ys) / prev, skipping zero operands.
    prev is None when there is nothing to divide by."""
    for c in range(start, len(xs)):
        x, y = xs[c], ys[c]
        if y and factor:
            num = x * p - factor * y if x else -(factor * y)
        elif x:
            num = x * p
        else:
            continue
        xs[c] = num if prev is None else num // prev if type(prev) is int else num / prev


def _back_substitute(m, pivots, b, x):
    """Fill the pivot entries of x so that the echelon system m x = b holds
    for the free entries already in x; returns x."""
    nc = len(x)
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        row = m[r]
        s = b[r]
        for c in range(col + 1, nc):
            if row[c] and x[c]:
                s = s - row[c] * x[c]
        x[col] = s / row[col]
    return x


class ExactMatrix:
    """Dense matrix whose entries are elements of `domain`."""

    __slots__ = ("rows", "domain")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged matrix")
        dom = QQ
        for r in rows:
            dom = _domain_of_all(r, dom)
        convert = dom.convert
        self.rows = [[convert(x) for x in r] for r in rows]
        self.domain = dom

    @classmethod
    def _over(cls, rows, domain):
        """A matrix whose entries are already elements of `domain`."""
        m = object.__new__(cls)
        m.rows = rows
        m.domain = domain
        return m

    # -- construction -------------------------------------------------------

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
        return ExactMatrix._over(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            _join(self.domain, other.domain),
        )

    def __sub__(self, other):
        return ExactMatrix._over(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            _join(self.domain, other.domain),
        )

    def __neg__(self):
        return ExactMatrix._over([[-a for a in r] for r in self.rows], self.domain)

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return self._scale(other)
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        dom = _join(self.domain, other.domain)
        zero = dom.zero
        width = other.ncols
        right = [[(j, b) for j, b in enumerate(r) if b] for r in other.rows]
        out = []
        for row in self.rows:
            acc = [zero] * width
            for a, bs in zip(row, right):
                if not a:
                    continue
                for j, b in bs:
                    s = acc[j]
                    acc[j] = a * b if s is zero else s + a * b
            out.append(acc)
        return ExactMatrix._over(out, dom)

    def __rmul__(self, other):
        return self._scale(other)

    def _scale(self, c):
        dom = _join(self.domain, _domain_of(c))
        zero = dom.zero
        return ExactMatrix._over(
            [[a * c if a else zero for a in r] for r in self.rows], dom
        )

    def transpose(self):
        if not self.rows:
            return self
        return ExactMatrix._over([list(c) for c in zip(*self.rows)], self.domain)

    def map(self, fn):
        return ExactMatrix([[fn(a) for a in r] for r in self.rows])

    def conj(self):
        return ExactMatrix._over([[_conj(a) for a in r] for r in self.rows], self.domain)

    def trace(self):
        total = self.domain.zero
        for i in range(min(self.nrows, self.ncols)):
            total = total + self.rows[i][i]
        return total

    def apply(self, vec):
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch")
        zero = _domain_of_all(vec, self.domain).zero
        support = [(j, v) for j, v in enumerate(vec) if v]
        out = []
        for row in self.rows:
            s = zero
            for j, v in support:
                a = row[j]
                if a:
                    s = a * v if s is zero else s + a * v
            out.append(s)
        return out

    def is_zero(self):
        return all(not a for r in self.rows for a in r)

    def is_symmetric(self):
        """Square and equal to its transpose, compared entry by entry."""
        rows = self.rows
        n = len(rows)
        return self.ncols == n and all(
            rows[i][j] == rows[j][i] for i in range(n) for j in range(i + 1, n)
        )

    # -- elimination --------------------------------------------------------

    def _echelon(self, rhs=None, swaps=True):
        """Fraction-free forward elimination (Bareiss); returns
        (work rows, rhs rows, pivot column list, sign of the row swaps).
        Without swaps it stops at the first zero on the diagonal."""
        m = [list(r) for r in self.rows]
        b = [list(r) for r in rhs] if rhs is not None else None
        nr, nc = len(m), self.ncols
        zero = self.domain.zero
        pivots = []
        sign = 1
        prev = None
        row = 0
        for col in range(nc):
            piv = None
            for r in range(row, nr if swaps else row + 1):
                if m[r][col]:
                    piv = r
                    break
            if piv is None:
                if not swaps:
                    break
                continue
            if piv != row:
                m[row], m[piv] = m[piv], m[row]
                if b is not None:
                    b[row], b[piv] = b[piv], b[row]
                sign = -sign
            p = m[row][col]
            for r in range(row + 1, nr):
                factor = m[r][col]
                m[r][col] = zero
                _eliminate(m[r], m[row], p, factor, prev, col + 1)
                if b is not None:
                    _eliminate(b[r], b[row], p, factor, prev)
            # the Bareiss division is exact; dividing by a pivot equal to 1
            # is skipped
            prev = p if p != 1 else None
            pivots.append(col)
            row += 1
            if row == nr:
                break
        return m, b, pivots, sign

    def _cleared(self):
        """(self with each row cleared of its denominators, the row scales),
        or (self, None) over Q(sqrt(-1)).  Over Q a row is integers over its
        lcm, a Fraction scale.  Over a field Q(x, ...), which has no gcd to
        cancel common factors, a row is multiplied by the product of its
        distinct denominators, less each one that divides another of them; a
        row over 1 stays as it is.  On the cleared rows, Laurent polynomials
        over 1, every Bareiss division is exact."""
        dom = self.domain
        if dom is QQ:
            lcms = [math.lcm(*[v.denominator for v in r]) for r in self.rows]
            rows = [[v.numerator * (d // v.denominator) for v in r] for r, d in zip(self.rows, lcms)]
            return ExactMatrix._over(rows, dom), [Fraction(d) for d in lcms]
        if not isinstance(dom, DifferentialField):
            return self, None
        one, rows, scales = dom.one.den, [], []
        for r in self.rows:
            dens = list(dict.fromkeys(v.den for v in r if v.den != one))
            dens = [d for d in dens if not any(e != d and e.divide_exact(d) is not None for e in dens)]
            scale = math.prod(dens, start=one)
            rows.append([RationalFunction(dom, v.num * scale, v.den) for v in r] if dens else r)
            scales.append(RationalFunction(dom, scale, one))
        return ExactMatrix._over(rows, dom), scales

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        n = self.nrows
        if n == 0:
            return self.domain.one
        cleared, scales = self._cleared()
        m, _, pivots, sign = cleared._echelon()
        if len(pivots) < n:
            return self.domain.zero
        d = m[n - 1][n - 1] / math.prod(scales) if scales else m[n - 1][n - 1]
        return -d if sign < 0 else d

    def kernel(self):
        """Exact basis of the null space (list of coordinate vectors)."""
        m, _, pivots, _ = self._cleared()[0]._echelon()
        nc = self.ncols
        zero, one = self.domain.zero, self.domain.one
        rhs = [zero] * len(pivots)
        basis = []
        for fc in (c for c in range(nc) if c not in pivots):
            x = [zero] * nc
            x[fc] = one
            basis.append(_back_substitute(m, pivots, rhs, x))
        for x in basis:
            if any(self.apply(x)):
                raise IdentityFailed(
                    f"kernel certification failed: A x != 0 for x = [{', '.join(map(str, x))}]"
                )
        return basis

    def inverse(self):
        """A^-1 from one elimination of [A | I] and back substitution for
        every column, certified by A * A^-1 == I."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        dom = self.domain
        ident = ExactMatrix.identity(n, dom.one, dom.zero)
        m, rhs, pivots, _ = self._echelon(rhs=ident.rows)
        if len(pivots) < n:
            raise ZeroDivisionError("matrix is singular")
        cols = [
            _back_substitute(m, pivots, [r[j] for r in rhs], [dom.zero] * n) for j in range(n)
        ]
        inv = ExactMatrix._over([[cols[j][i] for j in range(n)] for i in range(n)], dom)
        if self * inv != ident:
            raise IdentityFailed("inverse certification failed: A * A^-1 != I")
        return inv

    def leading_principal_minors(self):
        """det(self[:k, :k]) for k = 1 .. min(nrows, ncols), read from one
        fraction-free elimination without row swaps, whose k-th pivot is the
        k-th minor (times the scales of rows 0..k over a rational-function
        field).  Only the minors after a zero pivot take a det each."""
        n = min(self.nrows, self.ncols)
        lead = lambda k: ExactMatrix._over([r[:k] for r in self.rows[:k]], self.domain)
        cleared, scales = lead(n)._cleared()
        m, _, pivots, _ = cleared._echelon(swaps=False)
        minors = [m[k][k] / math.prod(scales[: k + 1]) if scales else m[k][k] for k in pivots]
        return minors + [lead(k).det() for k in range(len(pivots) + 1, n + 1)]

    def __str__(self):
        return "[" + "; ".join(", ".join(str(a) for a in r) for r in self.rows) + "]"

    __repr__ = __str__
