"""The shared sparse-vector core against a plain-dict model.

Every subclass of SparseVector must do the linear algebra of a dictionary
from keys to scalars in which no entry is ever zero: the inputs below draw
coefficients from a small pool so that sums and differences cancel often.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from focklab.fock import FockVector, UElement, standard_space
from focklab.oscillator import OscFockVector
from focklab.ratfunc import DifferentialField, Polynomial
from focklab.scalars import GaussianRational
from focklab.sparse import SparseVector, add_term
from focklab.subalgebra import KMinusVector

SPACE = standard_space(2)
FIELD = DifferentialField(["x", "y"])

# normal keys of each class: sorted multisets (for UElement sorted modes with
# an hbar power, which normal ordering leaves unchanged; for Polynomial
# exponent vectors)
CLASSES = {
    "FockVector": (
        lambda terms: FockVector(SPACE, terms),
        [(), (-1,), (-2,), (-2, -1), (-1, -1), (-2, -2, -1)],
    ),
    "OscFockVector": (
        OscFockVector,
        [(), (-1,), (-3,), (-2, -1), (-1, -1), (-3, -2, -2)],
    ),
    "KMinusVector": (
        KMinusVector,
        [(), (("a", -2),), (("q", 1),), (("a", -2), ("q", 1)), (("q", 1), ("q", 2))],
    ),
    "UElement": (
        lambda terms: UElement(SPACE, terms),
        [((), 0), ((-1,), 0), ((1,), -1), ((-2, 1), 0), ((-1, -1), 1), ((-2, -1, 2), -1)],
    ),
    "Polynomial": (
        lambda terms: Polynomial(FIELD, terms),
        [(0, 0), (1, 0), (0, 1), (2, 1), (1, 1), (0, 3)],
    ),
}

COEFFICIENTS = st.sampled_from(
    [0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), GaussianRational(0, 1), GaussianRational(0, -1)]
)


def model_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def terms_for(keys):
    return st.dictionaries(st.sampled_from(keys), COEFFICIENTS, max_size=len(keys))


@pytest.mark.parametrize("name", sorted(CLASSES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_linear_structure_matches_the_dict_model(name, data):
    make, keys = CLASSES[name]
    a, b = data.draw(terms_for(keys)), data.draw(terms_for(keys))
    c = data.draw(COEFFICIENTS)
    x, y = make(a), make(b)
    a, b = model_add(a, {}), model_add(b, {})
    assert x.terms == a and y.terms == b
    results = {
        "x + y": (x + y, model_add(a, b)),
        "x - y": (x - y, model_add(a, {k: -v for k, v in b.items()})),
        "-x": (-x, {k: -v for k, v in a.items()}),
        "x - x": (x - x, {}),
        "x + (-x)": (x + (-x), {}),
        "x.scale(c)": (x.scale(c), {k: v * c for k, v in a.items()} if c else {}),
        "c * x": (c * x, {k: v * c for k, v in a.items()} if c else {}),
        "x.scale(0)": (x.scale(0), {}),
        "x.map_coefficients(v - 1)": (
            x.map_coefficients(lambda v: v - 1),
            {k: v - 1 for k, v in a.items() if v - 1},
        ),
    }
    for label, (got, want) in results.items():
        assert type(got) is type(x), label
        assert got.terms == want, label
        assert all(got.terms.values()), f"{label} stores a zero"
        assert bool(got) == bool(want), label
        assert got == make(want), label
        if isinstance(x, (FockVector, UElement)):
            assert got.space is SPACE, label
        if isinstance(x, Polynomial):
            assert got.field is FIELD, label
    assert (x == y) == (a == b)
    assert (x != y) == (a != b)


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_equality_with_another_type_is_false(name):
    make, keys = CLASSES[name]
    v = make({keys[0]: 1})
    assert v != 0 and not (v == 0)
    assert v != {keys[0]: 1}
    assert make({}) != 0


def test_kminus_vector_equality_does_not_duck_type():
    assert (KMinusVector() == 0) is False
    assert (KMinusVector({(): 1}) == OscFockVector.vacuum()) is False
    assert KMinusVector({(): 1}) == KMinusVector.vacuum()


def test_add_term_drops_a_cancelled_entry():
    terms = {}
    add_term(terms, "k", Fraction(1, 2))
    add_term(terms, "j", 3)
    add_term(terms, "k", Fraction(-1, 2))
    assert terms == {"j": 3}
    add_term(terms, "j", 0)
    assert terms == {"j": 3}


def test_the_vectors_share_the_base():
    inherited = {"__add__", "__neg__", "__sub__", "scale", "map_coefficients", "__bool__", "__eq__", "__repr__",
                 "_same_module"}
    for cls in (FockVector, OscFockVector, KMinusVector, UElement, Polynomial):
        assert issubclass(cls, SparseVector)
        assert not set(vars(cls)) & inherited, cls.__name__


def test_each_vector_prints_in_its_own_notation():
    i = GaussianRational(0, 1)
    v = FockVector(SPACE, {(-1, -2): Fraction(-1, 2), (): 3, (-2,): i, (-1, -1, -2): GaussianRational(1, -2)})
    assert repr(v) == "(3)·v_o + (i)·e_{-2}v_o + (-1/2)·e_{-2}e_{-1}v_o + (1-2i)·e_{-2}e_{-1}e_{-1}v_o"
    v = OscFockVector({(-3,): 2, (-1, -1): Fraction(1, 3), (): -1, (-2, -1, -1): i})
    assert repr(v) == "(-1)·v_0 + (1/3)·e_{-1}e_{-1}v_0 + (2)·e_{-3}v_0 + (i)·e_{-2}e_{-1}e_{-1}v_0"
    u = UElement(SPACE, {((), 0): 5, ((-1,), 1): Fraction(2, 3), ((-2, 1), -1): -i, ((-1, -1), 0): 1})
    assert repr(u) == "(5)·1 + (2/3)·e_{-1}·ħ^1 + (-i)·e_{-2}∘e_{1}·ħ^-1 + (1)·e_{-1}∘e_{-1}"
    k = KMinusVector({(): 1, (("q", 1), ("a", -2)): Fraction(-3, 4), (("q", 2),): i})
    assert repr(k) == "(1)·v_0 + (-3/4)·('a', -2)·('q', 1) + (i)·('q', 2)"
    assert [repr(z) for z in (FockVector(SPACE), OscFockVector(), UElement(SPACE), KMinusVector())] == ["0"] * 4


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_addition_refuses_a_vector_of_another_class(name):
    make, keys = CLASSES[name]
    v = make({keys[1]: 1})
    for other in sorted(CLASSES):
        if other != name:
            w = CLASSES[other][0]({CLASSES[other][1][1]: 1})
            with pytest.raises(TypeError):
                v + w
            with pytest.raises(TypeError):
                v - w


def test_addition_refuses_a_space_of_another_genus():
    with pytest.raises(TypeError):
        FockVector.vacuum(standard_space(2)) + OscFockVector({(-3,): 1})
    with pytest.raises(TypeError):
        FockVector.vacuum(standard_space(2)) - FockVector.vacuum(standard_space(1))
    with pytest.raises(TypeError):
        UElement.monomial(standard_space(2), [1]) + UElement.monomial(standard_space(3), [1])
    # spaces are compared by genus: two equal spaces built apart still add
    assert FockVector.vacuum(standard_space(2)) + FockVector.vacuum(standard_space(2)) == FockVector(SPACE, {(): 2})
