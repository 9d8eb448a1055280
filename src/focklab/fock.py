"""Finite symplectic Fock spaces: normal ordering, tau / tau-hat, inner product.

The space H has basis labels 1..g (spanning the maximal isotropic F) and
-1..-g (spanning the chosen complement F'), with a stored exact Gram matrix;
standard_space uses (e_i, e_j) = i*delta_{i+j,0}.  Conjugation is an
antilinear involution given by a matrix; standard_space uses
e_{-i} = sqrt(-1) * conj(e_i), which makes F' = conj(F) and the induced
Hermitian form positive definite.

Elements of the enveloping algebra U(H^) are kept in normal form with modes
sorted in nondecreasing label order and explicit hbar powers; the rewriting
rule is a.b - b.a = (a,b)*hbar.  A product moves only the left factor's
letters into each normal monomial of the right factor, and a bracket writes
both orders of each term pair into one dictionary.  The Fock space Sym(F')
is modelled by finitely supported maps from multisets of negative labels to
scalars; hbar acts as 1 there.

The inner product of two basis monomials of grade n is the permanent of
their n x n matrix of Hermitian pairings.  A key repeats labels, so that
matrix repeats rows and columns; Ryser's formula is summed over how many
copies of each distinct column a subset takes, each count weighted by an
exact binomial product.  The sum is the permanent exactly, term for term,
with prod_c (m_c + 1) terms for column multiplicities m_c against the 2^n
subsets of the plain formula (3 against 8 for e_{-1}^3).  A space pairs
each ordered key pair once and keeps every value, zero or not.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, prod

from .linalg import ExactMatrix
from .scalars import GaussianRational, conj as _conj
from .sparse import SparseVector, add_term


class NotSymmetric(ValueError):
    """A Sym^2 coefficient matrix that is not symmetric."""


class HodgePositivityError(ValueError):
    """The induced Hermitian form is not positive definite on F."""


class SymplecticSpace:
    """2g-dimensional symplectic space with splitting H = F + F'.

    Coordinates are ordered (e_1, ..., e_g, e_{-1}, ..., e_{-g}).
    """

    def __init__(self, g: int, gram: ExactMatrix, conj_matrix: ExactMatrix,
                 check_positivity: bool = True):
        self.g = g
        self.gram = gram
        self.conj_matrix = conj_matrix
        n = 2 * g
        if gram.nrows != n or gram.ncols != n:
            raise ValueError("Gram matrix has wrong size")
        # antisymmetry and isotropy of F and F'
        if not (gram + gram.transpose()).is_zero():
            raise ValueError("Gram matrix is not antisymmetric")
        for i in range(g):
            for j in range(g):
                if gram[i, j] or gram[g + i, g + j]:
                    raise ValueError("F and F' must be totally isotropic")
        if not gram.det():
            raise ValueError("degenerate symplectic form")
        # conj is an antilinear involution respecting the real form
        cc = conj_matrix * conj_matrix.map(_conj)
        if cc != ExactMatrix.identity(n):
            raise ValueError("conjugation is not an involution")
        real = conj_matrix.transpose() * gram * conj_matrix - gram.map(_conj)
        if not real.is_zero():
            raise ValueError("symplectic form is not real for the conjugation")
        self._lmul_cache: dict = {}
        self._key_pair_cache: dict = {}
        self._gram_inv = None
        self._half_gram_inv = None
        self._hermitian = self._hermitian_gram()
        if check_positivity:
            self._check_positive()

    def _lmul(self, label: int, modes: tuple):
        """Normal form of e_label * (normal monomial): tuple of
        (modes, hbar-shift, coefficient)."""
        key = (label, modes)
        hit = self._lmul_cache.get(key)
        if hit is not None:
            return hit
        if not modes or label <= modes[0]:
            out = (((label,) + modes, 0, 1),)
        else:
            head, rest = modes[0], modes[1:]
            # e_a e_b = e_b e_a + (a, b) hbar  for a > b
            out = [((head,) + m2, dh, c) for m2, dh, c in self._lmul(label, rest)]
            pair = self.pairing_labels(label, head)
            if pair:
                out.append((rest, 1, pair))
            out = tuple(out)
        self._lmul_cache[key] = out
        return out

    # -- label bookkeeping ----------------------------------------------------

    def pos(self, label: int) -> int:
        if label > 0:
            return label - 1
        return self.g - label - 1

    def labels(self):
        return list(range(1, self.g + 1)) + [-i for i in range(1, self.g + 1)]

    def pairing_labels(self, a: int, b: int):
        return self.gram[self.pos(a), self.pos(b)]

    @property
    def gram_inverse(self) -> ExactMatrix:
        if self._gram_inv is None:
            self._gram_inv = self.gram.inverse()
        return self._gram_inv

    @property
    def half_gram_inverse(self) -> ExactMatrix:
        """gram_inverse / 2, the factor of E^{-1}."""
        if self._half_gram_inv is None:
            self._half_gram_inv = self.gram_inverse * Fraction(1, 2)
        return self._half_gram_inv

    def pairing(self, u, v):
        """Symplectic form on coordinate vectors."""
        gv = self.gram.apply(v)
        return sum(x * y for x, y in zip(u, gv))

    def conj_vector(self, coords):
        """Antilinear conjugation on coordinate vectors."""
        return self.conj_matrix.apply([_conj(c) for c in coords])

    def basis_vector(self, label: int):
        v = [0] * (2 * self.g)
        v[self.pos(label)] = 1
        return v

    # -- Hermitian structure ---------------------------------------------------

    def _hermitian_gram(self) -> ExactMatrix:
        """h[i][j] = <e_{-i}, e_{-j}> = sqrt(-1)(conj(e_{-j}), e_{-i})."""
        i_unit = GaussianRational(0, 1)
        rows = []
        for a in range(1, self.g + 1):
            row = []
            ea = self.basis_vector(-a)
            for b in range(1, self.g + 1):
                cb = self.conj_vector(self.basis_vector(-b))
                row.append(i_unit * self.pairing(cb, ea))
            rows.append(row)
        return ExactMatrix(rows)

    def _check_positive(self):
        h = self._hermitian
        if not (h - h.transpose().map(_conj)).is_zero():
            raise HodgePositivityError("induced form is not Hermitian")
        for m in h.leading_principal_minors():
            if isinstance(m, (int, Fraction)):
                m = GaussianRational.coerce(m)
            if not isinstance(m, GaussianRational):
                raise HodgePositivityError(
                    "positivity is only decidable for numeric scalars; "
                    "construct with check_positivity=False and certify at a sample point"
                )
            if not (m.is_real and m.re > 0):
                raise HodgePositivityError(f"principal minor {m} is not positive")

    def hermitian_pair(self, a: int, b: int):
        """<e_a, e_b> for negative labels a, b."""
        return self._hermitian[-a - 1, -b - 1]

    def key_pairing(self, kv: tuple, kw: tuple):
        """<e_kv v_o, e_kw v_o> for Fock keys of one grade: the permanent of
        their Hermitian pairings, kept for the ordered pair (zero or not), as
        the form need not be diagonal."""
        hit = self._key_pair_cache.get((kv, kw))
        if hit is not None:
            return hit
        (labels, mult), (w_labels, w_mult) = _multiset(kv), _multiset(kw)
        rows = [[self.hermitian_pair(a, b) for b in w_labels] for a in labels]
        value = _grouped_permanent(rows, mult, w_mult)
        self._key_pair_cache[(kv, kw)] = value
        return value


def standard_space(g: int) -> SymplecticSpace:
    """The convention (e_i, e_j) = i * delta_{i+j,0} with conjugation
    e_{-i} = sqrt(-1) * conj(e_i)."""
    n = 2 * g
    zero = GaussianRational(0)
    gram = [[zero] * n for _ in range(n)]
    cm = [[zero] * n for _ in range(n)]
    mi = GaussianRational(0, -1)
    for i in range(1, g + 1):
        w = GaussianRational(i)
        gram[i - 1][g + i - 1] = w
        gram[g + i - 1][i - 1] = -w
        # conj(e_i) = -sqrt(-1) e_{-i};  conj(e_{-i}) = -sqrt(-1) e_i
        cm[g + i - 1][i - 1] = mi
        cm[i - 1][g + i - 1] = mi
    return SymplecticSpace(g, ExactMatrix(gram), ExactMatrix(cm))


# -- enveloping algebra -------------------------------------------------------


class UElement(SparseVector):
    """Normal-form element of U(H^)[hbar^{-1}] over a SymplecticSpace."""

    __slots__ = ("space",)

    def __init__(self, space: SymplecticSpace, terms: dict | None = None):
        self.space = space
        self.terms = {}
        for (modes, h), c in (terms or {}).items():
            if c:
                self._accumulate(modes, (), h, c)

    @staticmethod
    def _order(key):
        return len(key[0]), key

    @staticmethod
    def _text(key) -> str:
        modes, h = key
        return ("∘".join(f"e_{{{i}}}" for i in modes) or "1") + (f"·ħ^{h}" if h else "")

    def _accumulate(self, left, right, h, coeff):
        """Add coeff * left.right * hbar^h in normal form: right is a normal
        monomial already, so only the letters of left are moved into place."""
        words = {(right, 0): coeff}
        for x in reversed(left):
            nxt: dict = {}
            for (m, dh), c in words.items():
                for m2, dh2, c2 in self.space._lmul(x, m):
                    add_term(nxt, (m2, dh + dh2), c * c2 if c2 != 1 else c)
            words = nxt
        for (m, dh), c in words.items():
            add_term(self.terms, (m, h + dh), c)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def zero(space):
        return UElement(space)

    @staticmethod
    def monomial(space, modes, hpow=0, coeff=1):
        return UElement(space, {(tuple(modes), hpow): coeff})

    @staticmethod
    def from_vector(space, coords):
        u = UElement(space)
        for label in space.labels():
            c = coords[space.pos(label)]
            if c:
                u._accumulate((), (label,), 0, c)
        return u

    @staticmethod
    def from_tensor(space, tensor: ExactMatrix, hpow=0):
        """Image of sum tensor[u,v] e_u (x) e_v under the hat map."""
        u = UElement(space)
        labels = space.labels()  # in coordinate order
        for a, row in zip(labels, tensor.rows):
            for b, c in zip(labels, row):
                if c:
                    u._accumulate((a,), (b,), hpow, c)
        return u

    # -- algebra ----------------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, UElement):
            return self.scale(other)
        out = UElement(self.space)
        for (m1, h1), c1 in self.terms.items():
            for (m2, h2), c2 in other.terms.items():
                out._accumulate(m1, m2, h1 + h2, c1 * c2)
        return out

    def bracket(self, other):
        """self * other - other * self, both orders written into one dictionary."""
        out = UElement(self.space)
        for (m1, h1), c1 in self.terms.items():
            for (m2, h2), c2 in other.terms.items():
                c = c1 * c2
                out._accumulate(m1, m2, h1 + h2, c)
                out._accumulate(m2, m1, h1 + h2, -c)
        return out

    def bar(self):
        """The anti-involution: conjugate entries, reverse factor order."""
        out = UElement(self.space)
        for (modes, h), c in self.terms.items():
            expansions = [(list(), _conj(c))]
            for label in reversed(modes):
                coords = self.space.conj_vector(self.space.basis_vector(label))
                new = []
                for prefix, cc in expansions:
                    for lab2 in self.space.labels():
                        w = coords[self.space.pos(lab2)]
                        if w:
                            new.append((prefix + [lab2], cc * w))
                expansions = new
            for m, cc in expansions:
                out._accumulate(m, (), h, cc)
        return out


# -- sp(H) and the E-correspondence -------------------------------------------


class SpElement:
    """Infinitesimally symplectic endomorphism in the (F, F') coordinates."""

    __slots__ = ("space", "matrix")

    def __init__(self, space: SymplecticSpace, matrix: ExactMatrix, check=True):
        self.space = space
        self.matrix = matrix
        if check:
            j = space.gram
            if not (matrix.transpose() * j + j * matrix).is_zero():
                raise ValueError("matrix does not lie in sp(H)")

    def __add__(self, other):
        return SpElement(self.space, self.matrix + other.matrix, check=False)

    def __sub__(self, other):
        return SpElement(self.space, self.matrix - other.matrix, check=False)

    def scale(self, c):
        return SpElement(self.space, self.matrix * c, check=False)

    def bracket(self, other):
        a, b = self.matrix, other.matrix
        return SpElement(self.space, a * b - b * a, check=False)

    def trace_on_complement(self):
        """trace(A^{F'}): restriction to F' followed by projection onto F'."""
        g = self.space.g
        return sum(self.matrix[g + i, g + i] for i in range(g))


def E_map(space: SymplecticSpace, tensor: ExactMatrix) -> SpElement:
    """E(sum C[u,v] e_u (x) e_v)(x) = 2 (e_v, x) e_u; requires C symmetric."""
    if not tensor.is_symmetric():
        raise NotSymmetric("coefficient matrix is not symmetric")
    return SpElement(space, (tensor * space.gram) * 2)


def E_inverse(space: SymplecticSpace, a: SpElement) -> ExactMatrix:
    tensor = a.matrix * space.half_gram_inverse
    if not tensor.is_symmetric():
        raise NotSymmetric("endomorphism is not in sp(H)")
    return tensor


def normal_order_tensor(space: SymplecticSpace, tensor: ExactMatrix) -> ExactMatrix:
    """Projector on H (x) H: transposition on F (x) F', identity elsewhere."""
    g = space.g
    out = [[tensor[i, j] for j in range(2 * g)] for i in range(2 * g)]
    for i in range(g):          # F rows
        for j in range(g, 2 * g):  # F' cols
            c = out[i][j]
            if c:
                out[i][j] = tensor.domain.zero
                out[j][i] = out[j][i] + c
    return ExactMatrix(out)


def tau(space: SymplecticSpace, a: SpElement) -> UElement:
    """tau(A) = hbar^{-1} * hat(E^{-1}(A)); a Lie homomorphism into U(H^)."""
    return UElement.from_tensor(space, E_inverse(space, a), hpow=-1)


def tau_hat(space: SymplecticSpace, a: SpElement) -> UElement:
    """Normally ordered variant; differs from tau by -1/2 trace(A^{F'})."""
    return UElement.from_tensor(
        space, normal_order_tensor(space, E_inverse(space, a)), hpow=-1
    )


def tau_hat_wrt_complement(space: SymplecticSpace, a: SpElement, complement) -> UElement:
    """tau-hat computed with a second isotropic complement W = span(w_1..w_g).

    `complement` is a list of g coordinate vectors.  Used to verify that for
    A stabilizing F the operator does not depend on the choice of complement.
    """
    g = space.g
    for i in range(g):
        for j in range(g):
            if space.pairing(complement[i], complement[j]):
                raise ValueError("complement is not isotropic")
    cols = [space.basis_vector(i) for i in range(1, g + 1)] + list(complement)
    p = ExactMatrix([[cols[j][i] for j in range(2 * g)] for i in range(2 * g)])
    p_inv = p.inverse()
    c_e = E_inverse(space, a)
    c_f = p_inv * c_e * p_inv.transpose()
    # transpose the F (x) W part in the f-coordinates
    c_f = normal_order_tensor(space, c_f)
    c_back = p * c_f * p.transpose()
    return UElement.from_tensor(space, c_back, hpow=-1)


# -- the Fock module ----------------------------------------------------------


class FockVector(SparseVector):
    """Finitely supported map from multisets of negative labels to scalars."""

    __slots__ = ("space",)

    def __init__(self, space: SymplecticSpace, terms: dict | None = None):
        self.space = space
        super().__init__(terms)

    @staticmethod
    def _key(key) -> tuple:
        key = tuple(sorted(key))
        if any(l >= 0 for l in key):
            raise ValueError("Fock keys are multisets of negative labels")
        return key

    @staticmethod
    def _order(key):
        return len(key), key

    @staticmethod
    def _text(key) -> str:
        return "".join(f"e_{{{i}}}" for i in key) + "v_o"

    @staticmethod
    def vacuum(space):
        return FockVector(space, {(): 1})

    @staticmethod
    def basis(space, key):
        return FockVector(space, {tuple(sorted(key)): 1})


def rho_apply(u: UElement, v: FockVector) -> FockVector:
    """Left action of U(H^) with hbar = 1: negative labels multiply, positive
    labels act by the pairing derivation, the empty monomial scales.  Each
    monomial's word runs on v first; its coefficient scales the image terms."""
    space = v.space
    out = FockVector(space)
    for (modes, _h), coeff in u.terms.items():
        current = v.terms
        for m in reversed(modes):
            nxt: dict = {}
            if m < 0:
                for k, c in current.items():
                    add_term(nxt, tuple(sorted(k + (m,))), c)
            else:
                for k, c in current.items():
                    # keys are sorted: the distinct labels, in key order
                    for i, j in enumerate(k):
                        if i and j == k[i - 1]:
                            continue
                        pair = space.pairing_labels(m, j)
                        if pair:
                            add_term(nxt, k[:i] + k[i + 1:], c * (pair * k.count(j)))
            current = nxt
            if not current:
                break
        for k, c in current.items():
            add_term(out.terms, k, c * coeff)
    return out


def rho_vector(space: SymplecticSpace, coords, v: FockVector) -> FockVector:
    return rho_apply(UElement.from_vector(space, coords), v)


def endomorphism_action(space: SymplecticSpace, m: ExactMatrix, v: FockVector) -> FockVector:
    """Derivation action of M in End(F') (e_{-coordinates}) on Sym F'."""
    out = FockVector(space)
    for key, c in v.terms.items():
        for idx, j in enumerate(key):
            col = -j - 1
            for a in range(1, space.g + 1):
                w = m[a - 1, col]
                if w:
                    kk = tuple(sorted(key[:idx] + (-a,) + key[idx + 1:]))
                    add_term(out.terms, kk, c * w)
    return out


# -- inner product ------------------------------------------------------------


def permanent(m: ExactMatrix):
    """Ryser's formula with exact scalars: the grouped kernel with every row
    and column of multiplicity 1, 2^n terms (desk scale: n <= ~8)."""
    return _grouped_permanent(m.rows, [1] * m.nrows, [1] * m.ncols)


def _grouped_permanent(rows, row_mult, col_mult):
    """Permanent of the n x n matrix in which distinct row r (the list
    rows[r], one entry a_rc per distinct column) is repeated row_mult[r]
    times and column c col_mult[c] = m_c times.

    Ryser's formula sums over column subsets S; the subsets taking s_c of the
    m_c copies of column c number prod_c C(m_c, s_c) and share every row sum,
    so the sum runs over the vectors 0 <= s_c <= m_c:

        (-1)^n sum_s (-1)^|s| prod_c C(m_c, s_c) prod_r (sum_c s_c a_rc)^p_r.

    Every term is an exact integer times a product of exact scalars, so the
    value is the permanent itself, with prod_c (m_c + 1) terms against 2^n.
    A term stops at its first zero row sum.  An all-zero row or column meets
    every permutation, so the value is 0 without a sum.
    """
    n = sum(col_mult)
    if n != sum(row_mult):
        raise ValueError("permanent of a non-square matrix")
    if not all(map(any, rows)) or not all(map(any, zip(*rows))):
        return 0
    total = 0
    for s in product(*(range(m + 1) for m in col_mult)):
        term = (-1) ** (n - sum(s)) * prod(map(comb, col_mult, s))
        for row, p in zip(rows, row_mult):
            x = sum(c * a for c, a in zip(s, row) if c and a)
            if not x:
                break
            for _ in range(p):
                term = x * term
        else:
            total = total + term
    return total


def _multiset(key):
    """The distinct labels of a Fock key in key order, and their multiplicities."""
    labels = list(dict.fromkeys(key))
    return labels, [key.count(a) for a in labels]


def inner_product(v: FockVector, w: FockVector):
    """Hermitian pairing: graded pieces orthogonal, permanents on each grade.

    Linear in the first slot, conjugate-linear in the second.  Each pair of
    keys of one grade contributes its space's key_pairing.
    """
    space = v.space
    total = 0
    w_terms = [(kw, _conj(cw)) for kw, cw in w.terms.items()]
    for kv, cv in v.terms.items():
        for kw, cw in w_terms:
            if len(kw) == len(kv):
                p = space.key_pairing(kv, kw)
                if p:
                    total = total + cv * cw * p
    return total


def ebar_monomial(space: SymplecticSpace, indices) -> FockVector:
    """The vector conj(e_{i_1}) ... conj(e_{i_n}) v_o for positive indices."""
    v = FockVector.vacuum(space)
    for i in indices:
        coords = space.conj_vector(space.basis_vector(i))
        v = rho_vector(space, coords, v)
    return v


# -- named checks -------------------------------------------------------------


def adjoint_failures(space, coords, vs, ws, pairs):
    """The pairs (i, j) of `pairs`, in order, with
    <rho(a) vs[i], ws[j]> != <vs[i], rho(sqrt(-1) conj(a)) ws[j]> for the
    mode a = coords.  Each side's image is built once per probe vector and
    serves every pair that probe is in."""
    adj = [GaussianRational(0, 1) * c for c in space.conj_vector(coords)]
    left = [rho_vector(space, coords, v) for v in vs]
    right = [rho_vector(space, adj, w) for w in ws]
    for i, j in pairs:
        if inner_product(left[i], ws[j]) - inner_product(vs[i], right[j]):
            yield i, j


def sym2F_tensor(space, c_f: ExactMatrix) -> ExactMatrix:
    """Embed a symmetric g x g matrix over F into a full H (x) H tensor."""
    g = space.g
    out = [[c_f.domain.zero] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        for j in range(g):
            out[i][j] = c_f[i, j]
    return ExactMatrix(out)


def conj_tensor(space, tensor: ExactMatrix) -> ExactMatrix:
    """bar(sum C[u,v] e_u (x) e_v) = sum conj(C[u,v]) conj(e_v) (x) conj(e_u)."""
    cm = space.conj_matrix
    return cm * tensor.map(_conj).transpose() * cm.transpose()


def bracket_TT_probes(space, alpha_f: ExactMatrix, beta_f: ExactMatrix, probes):
    """For alpha, beta in Sym^2 F: the bracket [rho(bar alpha), rho(beta)]
    equals the evident action of E_{F'}(bar alpha) E_F(beta) in End(F') plus
    the central scalar 1/2 trace of it.  The two operators, the endomorphism
    and the scalar are built once and serve every probe.  Returns
    (endomorphism, scalar, [certified on each probe])."""
    if not alpha_f.is_symmetric() or not beta_f.is_symmetric():
        raise NotSymmetric("inputs must be symmetric")
    g = space.g
    alpha_bar = conj_tensor(space, sym2F_tensor(space, alpha_f))
    beta_t = sym2F_tensor(space, beta_f)
    a_big = (alpha_bar * space.gram) * 2   # E of the conjugated tensor
    b_big = (beta_t * space.gram) * 2
    # blocks: E_{F'}(bar alpha): F -> F' lives in rows F', cols F
    m1 = ExactMatrix([[a_big[g + i, j] for j in range(g)] for i in range(g)])
    m2 = ExactMatrix([[b_big[i, g + j] for j in range(g)] for i in range(g)])
    end = m1 * m2
    scalar = end.trace() * Fraction(1, 2)
    u_alpha_bar = UElement.from_tensor(space, alpha_bar)
    u_beta = UElement.from_tensor(space, beta_t)
    certified = []
    for probe in probes:
        lhs = rho_apply(u_alpha_bar, rho_apply(u_beta, probe)) - rho_apply(
            u_beta, rho_apply(u_alpha_bar, probe)
        )
        rhs = endomorphism_action(space, end, probe) + probe.scale(scalar)
        certified.append(lhs == rhs)
    return end, scalar, certified


def fock_basis(space, max_grade: int):
    """All multiset basis keys of grade <= max_grade."""
    labels = [-i for i in range(1, space.g + 1)]

    def rec(start, depth):
        if depth == 0:
            yield ()
            return
        for idx in range(start, len(labels)):
            for rest in rec(idx, depth - 1):
                yield (labels[idx],) + rest

    out = []
    for d in range(max_grade + 1):
        out.extend(tuple(sorted(k)) for k in rec(0, d))
    return out
