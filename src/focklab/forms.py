"""Matrix-valued exterior differential forms over a rational-function field.

A Form of degree d stores, for each ascending tuple of parameter indices of
length d, an ExactMatrix of RationalFunction coefficients.  Antisymmetry of
wedge labels is enforced by the canonical ascending keys; signs appear when
keys are merged.  The parameters are the declared (real) coordinates of the
underlying differential field.
"""

from __future__ import annotations

from .linalg import ExactMatrix
from .ratfunc import DifferentialField, RationalFunction


class DegreeOverflow(ValueError):
    """Exterior derivative requested on a form of degree above the contract."""


def _merge_sign(k1, k2):
    """Sign of sorting the concatenation of two ascending tuples, or None
    when they share an index (the wedge vanishes)."""
    merged = list(k1 + k2)
    if len(set(merged)) != len(merged):
        return None, ()
    sign = 1
    # insertion count of inversions
    for i in range(1, len(merged)):
        j = i
        while j > 0 and merged[j - 1] > merged[j]:
            merged[j - 1], merged[j] = merged[j], merged[j - 1]
            sign = -sign
            j -= 1
    return sign, tuple(merged)


class Form:
    __slots__ = ("field", "degree", "shape", "terms")

    def __init__(self, field: DifferentialField, degree: int, shape, terms=None):
        self.field = field
        self.degree = degree
        self.shape = tuple(shape)
        clean = {}
        for key, mat in (terms or {}).items():
            key = tuple(key)
            if len(key) != degree or list(key) != sorted(set(key)):
                raise ValueError(f"bad wedge key {key} for degree {degree}")
            if (mat.nrows, mat.ncols) != self.shape:
                raise ValueError("coefficient shape mismatch")
            if not mat.is_zero():
                clean[key] = mat
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(field, degree, shape):
        return Form(field, degree, shape, {})

    @staticmethod
    def d_param(field, name: str) -> "Form":
        """The 1-form dp for a declared parameter p."""
        k = field.params.index(name)
        return Form(field, 1, (1, 1), {(k,): ExactMatrix([[field.one]])})

    def _zero_matrix(self):
        z = self.field.zero
        return ExactMatrix([[z] * self.shape[1] for _ in range(self.shape[0])])

    def coefficient(self, key) -> ExactMatrix:
        key = tuple(sorted(self.field.params.index(p) if isinstance(p, str) else p for p in key))
        mat = self.terms.get(key)
        return mat if mat is not None else self._zero_matrix()

    # -- ring structure -----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        # no coefficient is stored as zero, so equal forms hold equal terms
        if not isinstance(other, Form):
            return NotImplemented
        return self.degree == other.degree and self.shape == other.shape and self.terms == other.terms

    def __add__(self, other):
        if self.degree != other.degree or self.shape != other.shape:
            raise ValueError("adding forms of different degree/shape")
        keys = set(self.terms) | set(other.terms)
        return Form(
            self.field,
            self.degree,
            self.shape,
            {k: self.coefficient(k) + other.coefficient(k) for k in keys},
        )

    def _map(self, fn, shape=None) -> "Form":
        """The form with each coefficient m replaced by fn(m), of this shape
        unless shape is given."""
        return Form(self.field, self.degree, shape or self.shape, {k: fn(m) for k, m in self.terms.items()})

    def __neg__(self):
        return self._map(lambda m: -m)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        return self._map(lambda m: m * scalar)

    __rmul__ = __mul__

    def wedge(self, other: "Form") -> "Form":
        """Wedge with matrix multiplication of the coefficients."""
        if self.shape[1] != other.shape[0]:
            raise ValueError("shape mismatch in wedge")
        out: dict = {}
        shape = (self.shape[0], other.shape[1])
        for k1, m1 in self.terms.items():
            for k2, m2 in other.terms.items():
                sign, key = _merge_sign(k1, k2)
                if sign is None:
                    continue
                prod = m1 * m2
                if sign < 0:
                    prod = -prod
                out[key] = out[key] + prod if key in out else prod
        return Form(self.field, self.degree + other.degree, shape, out)

    def trace(self) -> "Form":
        return self._map(lambda m: ExactMatrix([[m.trace()]]), (1, 1))

    def conj(self) -> "Form":
        """Coefficientwise conjugation; the real parameters (hence the dp) are fixed."""
        return self._map(ExactMatrix.conj)

    def transpose(self) -> "Form":
        return self._map(ExactMatrix.transpose, self.shape[::-1])

    # -- calculus -----------------------------------------------------------

    def exterior_derivative(self) -> "Form":
        """d with the Leibniz bookkeeping carried by the ascending keys.

        Contract covers degrees 0..2; on a degree-2 input in a 2-parameter
        base the result is structurally the zero 3-form, which is returned.
        Degrees >= 3 are outside the Form contract.
        """
        if self.degree >= 3:
            raise DegreeOverflow("exterior derivative contract covers degrees 0..2")
        out: dict = {}
        for key, mat in self.terms.items():
            for k in range(self.field.nvars):
                if k in key:
                    continue
                dmat = mat.map(lambda f, _k=k: f.derivative(self.field.params[_k]))
                if dmat.is_zero():
                    continue
                sign, new_key = _merge_sign((k,), key)
                term = dmat if sign > 0 else -dmat
                out[new_key] = out[new_key] + term if new_key in out else term
        return Form(self.field, self.degree + 1, self.shape, out)

    def scalar_coefficient(self, key) -> RationalFunction:
        if self.shape != (1, 1):
            raise ValueError("not a scalar form")
        return self.coefficient(key)[0, 0]

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.field.params
        bits = []
        for key in sorted(self.terms):
            label = "∧".join(f"d{names[k]}" for k in key) or "1"
            mat = self.terms[key]
            if self.shape == (1, 1):
                bits.append(f"({mat[0, 0]})·{label}" if key else f"{mat[0, 0]}")
            else:
                bits.append(f"{mat}·{label}")
        return " + ".join(bits)

    __repr__ = __str__


def exterior_derivative(form: Form) -> Form:
    return form.exterior_derivative()
