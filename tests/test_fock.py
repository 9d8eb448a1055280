import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from focklab import fock
from focklab.fock import (
    E_inverse,
    E_map,
    FockVector,
    HodgePositivityError,
    NotSymmetric,
    SpElement,
    SymplecticSpace,
    UElement,
    adjoint_failures,
    bracket_TT_probes,
    conj_tensor,
    ebar_monomial,
    endomorphism_action,
    fock_basis,
    _grouped_permanent,
    inner_product,
    normal_order_tensor,
    permanent,
    rho_apply,
    rho_vector,
    standard_space,
    sym2F_tensor,
    tau,
    tau_hat,
    tau_hat_wrt_complement,
)
from focklab.linalg import ExactMatrix
from focklab.scalars import GaussianRational, I, conj
from oracles import sp_bracket


def sym_pair_tensor(space, a, b):
    """Coefficient matrix of e_a (x) e_b + e_b (x) e_a (or 2 e_a (x) e_a)."""
    n = 2 * space.g
    m = [[0] * n for _ in range(n)]
    m[space.pos(a)][space.pos(b)] += 1
    m[space.pos(b)][space.pos(a)] += 1
    return ExactMatrix(m)


def zeros(n):
    return ExactMatrix([[0] * n for _ in range(n)])


def image_of_label(a, label):
    """A(e_label) for an sp(H) element, as coordinates."""
    return [row[a.space.pos(label)] for row in a.matrix.rows]


def stabilizes_f(a):
    g = a.space.g
    return all(not a.matrix[g + i, j] for i in range(g) for j in range(g))


def random_sp(space, rng):
    """Random element of sp(H) through the E-correspondence."""
    n = 2 * space.g
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = rng.randint(-3, 3)
            c[i][j] += v
            c[j][i] += v
    return E_map(space, ExactMatrix(c))


# -- space and Gram conventions ------------------------------------------------


def test_standard_gram():
    sp = standard_space(2)
    assert sp.pairing_labels(1, -1) == 1
    assert sp.pairing_labels(-1, 1) == -1
    assert sp.pairing_labels(2, -2) == 2
    assert sp.pairing_labels(1, 2) == 0
    assert sp.pairing_labels(1, -2) == 0


def test_conjugation_convention():
    sp = standard_space(2)
    # conj(e_i) = -sqrt(-1) e_{-i}
    v = sp.conj_vector(sp.basis_vector(1))
    assert v[sp.pos(-1)] == GaussianRational(0, -1)
    # involution
    w = sp.conj_vector(v)
    assert w == sp.basis_vector(1)


def test_positivity_guard():
    bad_gram = ExactMatrix(
        [[GaussianRational(0), GaussianRational(-1)], [GaussianRational(1), GaussianRational(0)]]
    )
    mi = GaussianRational(0, -1)
    cm = ExactMatrix([[GaussianRational(0), mi], [mi, GaussianRational(0)]])
    with pytest.raises(HodgePositivityError):
        SymplecticSpace(1, bad_gram, cm)


# -- E correspondence -----------------------------------------------------------


def test_E_map_defining_formula_g1():
    sp = standard_space(1)
    a = E_map(sp, sym_pair_tensor(sp, 1, 1).map(lambda v: v * Fraction(1, 2)))
    # alpha = e_1 (x) e_1: A(x) = 2 (e_1, x) e_1, so A(e_{-1}) = 2(e_1,e_{-1}) e_1 = 2 e_1
    img = image_of_label(a, -1)
    assert img[sp.pos(1)] == 2 and not img[sp.pos(-1)]
    assert not any(image_of_label(a, 1))


def test_E_roundtrip_seeded():
    rng = random.Random(7)
    for g in (1, 2, 3):
        sp = standard_space(g)
        for _ in range(3):
            a = random_sp(sp, rng)
            c = E_inverse(sp, a)
            assert E_map(sp, c).matrix == a.matrix
    sp = standard_space(2)
    zero = zeros(4)
    assert E_map(sp, zero).matrix.is_zero()


def test_E_map_rejects_asymmetric():
    sp = standard_space(1)
    m = [[0, 1], [0, 0]]
    with pytest.raises(NotSymmetric):
        E_map(sp, ExactMatrix(m))


# -- normal ordering ------------------------------------------------------------


def test_normal_order_transposition():
    sp = standard_space(1)
    t = zeros(2)
    t.rows[sp.pos(1)][sp.pos(-1)] = 1  # e_1 (x) e_{-1}
    no = normal_order_tensor(sp, t)
    assert no[sp.pos(-1), sp.pos(1)] == 1 and not no[sp.pos(1), sp.pos(-1)]
    # already ordered stays put; projector is idempotent
    assert normal_order_tensor(sp, no) == no
    rng = random.Random(3)
    m = ExactMatrix([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
    assert normal_order_tensor(sp, normal_order_tensor(sp, m)) == normal_order_tensor(sp, m)


# -- UElement normal form --------------------------------------------------------


def test_heisenberg_rewrite():
    sp = standard_space(1)
    ab = UElement.monomial(sp, [1, -1])
    ba = UElement.monomial(sp, [-1, 1])
    diff = ab - ba
    # e_1 e_{-1} - e_{-1} e_1 = (e_1, e_{-1}) hbar = hbar
    assert diff.terms == {((), 1): Fraction(1)}


def parity(u: UElement) -> int:
    """The Z/2 degree of u: the parity of its monomials' lengths."""
    parities = {len(m) % 2 for (m, _h) in u.terms}
    if len(parities) > 1:
        raise ValueError("mixed Z/2 parity")
    return parities.pop() if parities else 0


def test_parity():
    sp = standard_space(1)
    u = UElement.monomial(sp, [1, -1]) + UElement.monomial(sp, [-1, -1])
    assert parity(u) == 0
    with pytest.raises(ValueError):
        parity(UElement.monomial(sp, [1]) + UElement.monomial(sp, [1, 1]))


def test_bar_antiinvolution():
    sp = standard_space(2)
    u = UElement.monomial(sp, [1, -2], coeff=GaussianRational(1, 1))
    v = UElement.monomial(sp, [2, 2], coeff=GaussianRational(0, 3))
    assert (u * v).bar() == v.bar() * u.bar()
    assert u.bar().bar() == u


# -- tau and tau-hat -------------------------------------------------------------


def test_tau_lie_homomorphism_spanning_set():
    for g in (1, 2, 3):
        sp = standard_space(g)
        basis_tensors = []
        for a in sp.labels():
            for b in sp.labels():
                if (a, b) <= (b, a):
                    basis_tensors.append(sym_pair_tensor(sp, a, b))
        elems = [E_map(sp, t) for t in basis_tensors]
        for x in elems:
            for y in elems:
                lhs = tau(sp, x).bracket(tau(sp, y))
                rhs = tau(sp, sp_bracket(x, y))
                assert lhs == rhs


def test_tau_hat_deviation():
    rng = random.Random(11)
    for g in (1, 2, 3):
        sp = standard_space(g)
        for _ in range(4):
            a = random_sp(sp, rng)
            dev = tau_hat(sp, a) - tau(sp, a)
            # equals -1/2 trace(A^{F'}) times the identity
            expected = UElement.monomial(sp, [], coeff=a.trace_on_complement() * Fraction(-1, 2))
            assert dev == expected


def test_tau_hat_kills_vacuum_when_F_stable():
    sp = standard_space(2)
    # A diagonal: A e_i = e_i, A e_{-i} = -e_{-i}
    n = 4
    m = ExactMatrix.identity(n)
    for i in range(2):
        m.rows[2 + i][2 + i] = -1
    a = SpElement(sp, m)
    assert stabilizes_f(a)
    v = rho_apply(tau_hat(sp, a), FockVector.vacuum(sp))
    assert not v


def f_stable_sp(space, rng):
    """Random F-stabilizing sp element: tensor with no F' (x) F' component."""
    g = space.g
    n = 2 * g
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i >= g and j >= g:
                continue
            v = rng.randint(-3, 3)
            c[i][j] += v
            c[j][i] += v
    a = E_map(space, ExactMatrix(c))
    assert stabilizes_f(a)
    return a


def test_tau_hat_acts_as_A_when_F_stable():
    """For A stabilizing F, tau^(A) acts by inserting A(x_i) into each slot
    (the F-components of A(x_i) then annihilate to the right)."""
    rng = random.Random(31)
    sp = standard_space(2)
    a = f_stable_sp(sp, rng)

    def insert_oracle(key):
        total = FockVector(sp)
        for idx in range(len(key)):
            v = FockVector.vacuum(sp)
            for pos in range(len(key) - 1, -1, -1):
                coords = image_of_label(a, key[pos]) if pos == idx else sp.basis_vector(key[pos])
                v = rho_vector(sp, coords, v)
            total = total + v
        return total

    for key in fock_basis(sp, 3):
        v = FockVector.basis(sp, key)
        assert rho_apply(tau_hat(sp, a), v) == insert_oracle(key)


def test_tau_bracket_example_pair():
    # A = E(a (x) a), B = E(b (x) b) with a = e_1, b = e_1 + e_{-1}
    sp = standard_space(1)
    a = E_map(sp, sym_pair_tensor(sp, 1, 1))
    bvec = [Fraction(1), Fraction(1)]  # e_1 + e_{-1}
    c = [[bvec[i] * bvec[j] for j in range(2)] for i in range(2)]
    b = E_map(sp, ExactMatrix(c))
    assert tau(sp, a).bracket(tau(sp, b)) == tau(sp, sp_bracket(a, b))


def test_tau_hat_bracket_cocycle_bookkeeping():
    """[tau^(A), tau^(B)] - tau^([A,B]) = 1/2 trace([A,B]^{F'}); vanishes when
    both stabilize F (commutator trace on H/F is zero), so tau^ restricts to a
    Lie homomorphism there."""
    rng = random.Random(37)
    for g in (1, 2):
        sp = standard_space(g)
        for _ in range(3):
            a, b = random_sp(sp, rng), random_sp(sp, rng)
            dev = tau_hat(sp, a).bracket(tau_hat(sp, b)) - tau_hat(sp, sp_bracket(a, b))
            expected = UElement.monomial(
                sp, [], coeff=sp_bracket(a, b).trace_on_complement() * Fraction(1, 2)
            )
            assert dev == expected
        for _ in range(3):
            a, b = f_stable_sp(sp, rng), f_stable_sp(sp, rng)
            assert tau_hat(sp, a).bracket(tau_hat(sp, b)) == tau_hat(sp, sp_bracket(a, b))


def _second_complement(sp, rng):
    """Isotropic complement w_{-i} = e_{-i} + i * sum_j s_{ij} e_j, s symmetric."""
    g = sp.g
    s = [[rng.randint(-2, 2) for _ in range(g)] for _ in range(g)]
    for i in range(g):
        for j in range(g):
            s[i][j] = s[j][i]
    complement = []
    for i in range(1, g + 1):
        w = sp.basis_vector(-i)
        for j in range(1, g + 1):
            w[sp.pos(j)] = w[sp.pos(j)] + Fraction(i) * s[i - 1][j - 1]
        complement.append(w)
    return complement, s


def test_tau_hat_independent_of_complement_for_F_stabilizers():
    rng = random.Random(23)
    for g in (1, 2, 3):
        sp = standard_space(g)
        a = f_stable_sp(sp, rng)
        complement, s = _second_complement(sp, rng)
        for u in complement:
            for v in complement:
                assert not sp.pairing(u, v)
        assert tau_hat_wrt_complement(sp, a, complement) == tau_hat(sp, a)
        # deviation formula holds in the second complement as well
        dev = tau_hat_wrt_complement(sp, a, complement) - tau(sp, a)
        assert dev == UElement.monomial(
            sp, [], coeff=a.trace_on_complement() * Fraction(-1, 2)
        )
    # for an A moving F the ordering genuinely depends on the complement:
    # the deviation is the trace difference of the two compressions
    sp = standard_space(1)
    b = E_map(sp, sym_pair_tensor(sp, -1, -1))
    w = sp.basis_vector(-1)
    w[sp.pos(1)] = Fraction(1)  # w = e_{-1} + e_1, s_{11} = 1
    diff = tau_hat_wrt_complement(sp, b, [w]) - tau_hat(sp, b)
    assert diff == UElement.monomial(sp, [], coeff=2)


# -- rho -------------------------------------------------------------------------


def test_rho_annihilation_and_creation():
    sp = standard_space(2)
    v = rho_vector(sp, sp.basis_vector(-1), FockVector.vacuum(sp))
    assert v == FockVector.basis(sp, (-1,))
    # rho(e_1) e_{-1} v_o = (e_1, e_{-1}) v_o = v_o
    w = rho_vector(sp, sp.basis_vector(1), v)
    assert w == FockVector.vacuum(sp)
    for i in (1, 2):
        assert not rho_vector(sp, sp.basis_vector(i), FockVector.vacuum(sp))


def test_rho_heisenberg_relation_all_pairs():
    for g in (1, 2, 3):
        sp = standard_space(g)
        for a in sp.labels():
            for b in sp.labels():
                for key in fock_basis(sp, 3):
                    v = FockVector.basis(sp, key)
                    lhs = rho_vector(sp, sp.basis_vector(a), rho_vector(sp, sp.basis_vector(b), v)) - rho_vector(
                        sp, sp.basis_vector(b), rho_vector(sp, sp.basis_vector(a), v)
                    )
                    assert lhs == v.scale(sp.pairing_labels(a, b))


def test_rho_respects_products():
    sp = standard_space(2)
    rng = random.Random(5)
    for _ in range(5):
        m1 = [rng.choice(sp.labels()) for _ in range(2)]
        m2 = [rng.choice(sp.labels()) for _ in range(2)]
        u = UElement.monomial(sp, m1)
        w = UElement.monomial(sp, m2)
        v = FockVector.basis(sp, (-1, -2))
        assert rho_apply(u * w, v) == rho_apply(u, rho_apply(w, v))


def _seeded_quadratic(sp, rng):
    """from_tensor of a seeded symmetric tensor over Q(i) on all of H (x) H."""
    n = 2 * sp.g
    c = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            c[i][j] = c[j][i] = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
    return UElement.from_tensor(sp, ExactMatrix(c))


def test_rho_apply_is_a_module_action():
    """rho(u1 u2) = rho(u1) rho(u2) for seeded quadratic u1, u2, over Q(i) and
    over the rational functions of a family's rho(s), rho(s_bar)."""
    from focklab.hodge import ConnectionData, siegel_family

    rng = random.Random(11)
    cases = []
    for g in (1, 2):
        sp = standard_space(g)
        cases += [(sp, _seeded_quadratic(sp, rng), _seeded_quadratic(sp, rng)) for _ in range(2)]
    conn = ConnectionData(siegel_family(1))
    cases += [(conn._space, conn.rho_s(0), conn.rho_sbar(1)), (conn._space, conn.rho_sbar(0), conn.rho_s(0))]
    for sp, u1, u2 in cases:
        assert u1 and u2
        for key in fock_basis(sp, 3):
            v = FockVector.basis(sp, key)
            assert rho_apply(u1 * u2, v) == rho_apply(u1, rho_apply(u2, v)), key


# -- inner product ----------------------------------------------------------------


def test_permanent_small():
    assert permanent(ExactMatrix([[1, 1], [1, 1]])) == 2
    assert permanent(ExactMatrix([[2, 1], [3, 4]])) == 11
    assert permanent(ExactMatrix([[Fraction(1, 2)]])) == Fraction(1, 2)


ENTRIES = {
    "int": st.integers(-3, 3),
    "Fraction": st.fractions(min_value=-2, max_value=2, max_denominator=4),
    "GaussianRational": st.builds(
        GaussianRational,
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
    ),
}


@st.composite
def zero_heavy_matrices(draw):
    """Square matrices of size 1..5 whose entries are zero about half the time."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))])
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(zero_heavy_matrices())
def test_permanent_matches_the_sum_over_permutations(rows):
    n = len(rows)
    want = 0
    for sigma in itertools.permutations(range(n)):
        term = 1
        for i in range(n):
            term = term * rows[i][sigma[i]]
        want = want + term
    assert permanent(ExactMatrix(rows)) == want


def _permutation_sum(rows):
    """The permanent by its definition, sum over sigma of prod_i a_{i sigma(i)}."""
    total = 0
    for sigma in itertools.permutations(range(len(rows))):
        term = 1
        for i, j in enumerate(sigma):
            term = term * rows[i][j]
        total = total + term
    return total


def _expand(rows, row_mult, col_mult):
    """The n x n matrix with each distinct row and column repeated."""
    return [[a for a, m in zip(row, col_mult) for _ in range(m)] for row, p in zip(rows, row_mult) for _ in range(p)]


@st.composite
def compositions(draw, n):
    """Positive multiplicities summing to n, in a random number of parts."""
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    ends = [0, *cuts, n]
    return [b - a for a, b in zip(ends, ends[1:]) if b > a]


@st.composite
def grouped_matrices(draw):
    """Distinct rows and columns with multiplicities, n <= 6, entries zero
    about half the time, off the diagonal as often as on it."""
    n = draw(st.integers(0, 6))
    row_mult, col_mult = draw(compositions(n)), draw(compositions(n))
    entry = st.one_of(st.just(0), ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))])
    return [[draw(entry) for _ in col_mult] for _ in row_mult], row_mult, col_mult


@settings(max_examples=300, deadline=None)
@given(grouped_matrices())
def test_grouped_permanent_matches_the_expanded_sum_over_permutations(case):
    assert _grouped_permanent(*case) == _permutation_sum(_expand(*case))


def _ryser(rows):
    """Ryser's formula over the 2^n column subsets of the expanded matrix."""
    n, total = len(rows), 0
    for subset in itertools.product((0, 1), repeat=n):
        term = (-1) ** (n - sum(subset))
        for row in rows:
            term = term * sum(a for a, b in zip(row, subset) if b)
        total = total + term
    return total


@st.composite
def repeated_columns(draw):
    """One or two distinct columns of multiplicity up to 8, n <= 8, rows
    grouped at random."""
    col_mult = draw(st.lists(st.integers(1, 8), min_size=1, max_size=2).filter(lambda m: sum(m) <= 8))
    row_mult = draw(compositions(sum(col_mult)))
    entry = st.one_of(st.just(0), ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))])
    return [[draw(entry) for _ in col_mult] for _ in row_mult], row_mult, col_mult


@settings(max_examples=150, deadline=None)
@given(repeated_columns())
def test_grouped_permanent_matches_ryser_on_the_expanded_matrix(case):
    assert _grouped_permanent(*case) == _ryser(_expand(*case))


def test_one_label_of_multiplicity_8_visits_9_multiplicity_vectors(monkeypatch):
    """perm of the 8 x 8 matrix of one entry a is 8! a^8, summed over the 9
    vectors s = (0)..(8), each with one binomial, not over 256 subsets."""
    calls = []
    monkeypatch.setattr(fock, "comb", lambda m, k: calls.append(k) or math.comb(m, k))
    a = GaussianRational(1, 1)
    assert _grouped_permanent([[a]], [8], [8]) == math.factorial(8) * a ** 8
    assert calls == list(range(9))


def sheared_space(shear=1):
    """standard_space(2) in the basis e_{-1}, shear e_{-1} + e_{-2} of F':
    the Hermitian form on F' gets an off-diagonal entry, which is not real
    when the shear is not."""
    sp = standard_space(2)
    p = ExactMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, shear], [0, 0, 0, 1]])
    return SymplecticSpace(2, p.transpose() * sp.gram * p, p.inverse() * sp.conj_matrix * p.map(conj))


PRODUCT_SPACES = {"standard": standard_space(2), "sheared": sheared_space()}


@st.composite
def u_elements(draw, space):
    """A U(H^) element from words of up to three modes in any order, with
    hbar powers -1..1 and scalar (empty-word) terms."""
    words = st.lists(st.sampled_from(space.labels()), max_size=3).map(tuple)
    coeffs = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))
    terms = draw(st.dictionaries(st.tuples(words, st.integers(-1, 1)), coeffs, max_size=4))
    return UElement(space, terms)


@st.composite
def u_element_pairs(draw):
    space = PRODUCT_SPACES[draw(st.sampled_from(sorted(PRODUCT_SPACES)))]
    return draw(u_elements(space)), draw(u_elements(space))


@settings(max_examples=150, deadline=None)
@given(u_element_pairs())
def test_products_equal_the_full_word_rewrite(pair):
    """a * b rewrites only a's letters into b's normal monomials; it equals
    rewriting each concatenated word m1 m2 from the empty word.  The one-pass
    bracket equals a * b - b * a, on a pairing that is not diagonal too."""
    a, b = pair
    space = a.space
    full = UElement(space, {})
    for (m1, h1), c1 in a.terms.items():
        for (m2, h2), c2 in b.terms.items():
            full = full + UElement(space, {(m1 + m2, h1 + h2): c1 * c2})
    assert a * b == full
    assert a.bracket(b) == a * b - b * a


@pytest.mark.parametrize("make", [
    lambda: standard_space(1), lambda: standard_space(2), lambda: standard_space(3),
    sheared_space,
], ids=["g1", "g2", "g3", "g2-sheared"])
def test_inner_product_matches_a_sum_over_permutations(make):
    """<e_a1..e_an v_o, e_b1..e_bn v_o> = sum_sigma prod_i <e_ai, e_b sigma(i)>
    on every pair of basis keys of grade <= 4, repeated labels included."""
    sp = make()
    keys = fock_basis(sp, 4)
    assert any(len(set(k)) < len(k) for k in keys)
    for kv in keys:
        for kw in keys:
            want = 0
            if len(kv) == len(kw):
                want = _permutation_sum([[sp.hermitian_pair(a, b) for b in kw] for a in kv])
            got = inner_product(FockVector.basis(sp, kv), FockVector.basis(sp, kw))
            assert got == want, (kv, kw)


@pytest.mark.parametrize("shear", [1, I], ids=["real", "imaginary"])
def test_inner_product_of_sums_reads_each_key_pair_in_order(shear):
    """<v, w> and <w, v> of multi-term vectors equal the conjugate-bilinear
    expansion of the permutation sums, on a fresh space and again once its
    key pairings are kept.  Under the imaginary shear <e_kv, e_kw> differs
    from <e_kw, e_kv> for some keys, so the kept pairings must be ordered."""
    sp = sheared_space(shear)
    keys = fock_basis(sp, 3)
    rng = random.Random(5)
    vs = [
        FockVector(sp, {k: GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                        for k in keys if rng.random() < 0.5})
        for _ in range(4)
    ]

    def expansion(v, w):
        total = 0
        for kv, cv in v.terms.items():
            for kw, cw in w.terms.items():
                if len(kv) == len(kw):
                    rows = [[sp.hermitian_pair(a, b) for b in kw] for a in kv]
                    total = total + cv * conj(cw) * _permutation_sum(rows)
        return total

    for _ in range(2):
        for v in vs:
            for w in vs:
                assert inner_product(v, w) == expansion(v, w)
                assert inner_product(w, v) == expansion(w, v)
    if shear == I:
        assert sp.key_pairing((-1,), (-2,)) != sp.key_pairing((-2,), (-1,))


def test_inner_product_examples():
    sp = standard_space(1)
    vac = FockVector.vacuum(sp)
    assert inner_product(vac, vac) == 1
    v = ebar_monomial(sp, (1, 1))
    # <e1bar e1bar, e1bar e1bar> = 2 <e1bar, e1bar>^2 = 2
    assert inner_product(v, v) == 2
    w = ebar_monomial(sp, (1,))
    assert inner_product(v, w) == 0  # mixed degrees


def test_inner_product_positive_definite_low_grades():
    for g in (1, 2, 3):
        sp = standard_space(g)
        for grade, keys in _by_grade(fock_basis(sp, 4)).items():
            gram = ExactMatrix(
                [
                    [
                        inner_product(FockVector.basis(sp, a), FockVector.basis(sp, b))
                        for b in keys
                    ]
                    for a in keys
                ]
            )
            for minor in gram.leading_principal_minors():
                minor = GaussianRational.coerce(minor)
                assert minor.is_real and minor.re > 0, (g, grade)


def _by_grade(keys):
    out = {}
    for k in keys:
        out.setdefault(len(k), []).append(k)
    return out


# -- adjoints and Lemma-2.3-type bracket ------------------------------------------


def test_adjoint_examples():
    sp = standard_space(1)
    vac, v, w = FockVector.vacuum(sp), ebar_monomial(sp, (1,)), ebar_monomial(sp, (1, 1))
    # (v, vac) is an adjoint pair; (vac, w) mismatches grades, so both sides vanish
    assert not list(adjoint_failures(sp, sp.basis_vector(1), [v, vac], [vac, w], [(0, 0), (1, 1)]))


def test_adjoint_all_basis_probes():
    for g in (1, 2, 3):
        sp = standard_space(g)
        keys = fock_basis(sp, 4 if g == 1 else 3)
        probes = [FockVector.basis(sp, k) for k in keys]
        pairs = [
            (i, j)
            for i, kv in enumerate(keys)
            for j, kw in enumerate(keys)
            if abs(len(kv) - len(kw)) == 1
        ]
        for a in sp.labels():
            assert not list(adjoint_failures(sp, sp.basis_vector(a), probes, probes, pairs)), (g, a)


def test_unitary_infinitesimal_transformation():
    # rho(s + bar s) is skew-Hermitian for s in Sym^2 F
    rng = random.Random(17)
    for g in (1, 2):
        sp = standard_space(g)
        c = [[0] * g for _ in range(g)]
        for i in range(g):
            for j in range(i, g):
                v = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
                c[i][j] = c[i][j] + v
                c[j][i] = c[j][i] + v if i != j else c[j][i]
        s_t = sym2F_tensor(sp, ExactMatrix(c))
        u = UElement.from_tensor(sp, s_t) + UElement.from_tensor(sp, conj_tensor(sp, s_t))
        keys = fock_basis(sp, 4)
        for kv in keys:
            for kw in keys:
                v = FockVector.basis(sp, kv)
                w = FockVector.basis(sp, kw)
                lhs = inner_product(rho_apply(u, v), w)
                rhs = inner_product(v, rho_apply(u, w))
                assert not (lhs + rhs), (g, kv, kw)


def test_bracket_TT_g1_example():
    sp = standard_space(1)
    c = ExactMatrix([[1]])  # alpha = beta = e_1 (x) e_1
    probe = FockVector.basis(sp, (-1, -1))
    end, scalar, (ok,) = bracket_TT_probes(sp, c, c, [probe])
    assert ok
    # central scalar = 1/2 * 4 (bar a, b)(b, bar a) with a = b = e_1
    abar = sp.conj_vector(sp.basis_vector(1))
    b = sp.basis_vector(1)
    expected = 2 * sp.pairing(abar, b) * sp.pairing(b, abar)
    assert scalar == expected == 2


def test_bracket_TT_seeded():
    rng = random.Random(29)
    for g in (1, 2, 3):
        sp = standard_space(g)
        for _ in range(3):
            c1 = [[0] * g for _ in range(g)]
            c2 = [[0] * g for _ in range(g)]
            for i in range(g):
                for j in range(i, g):
                    v1 = rng.randint(-2, 2)
                    v2 = rng.randint(-2, 2)
                    c1[i][j] = c1[j][i] = v1
                    c2[i][j] = c2[j][i] = v2
            probes = [FockVector.basis(sp, key) for key in fock_basis(sp, 4)[:12]]
            assert all(bracket_TT_probes(sp, ExactMatrix(c1), ExactMatrix(c2), probes)[2])
