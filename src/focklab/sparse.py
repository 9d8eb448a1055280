"""One sparse vector: a finitely supported map from keys to exact scalars.

The Fock modules of the package -- Sym(F'-bar) for the finite blocks,
Sym(R((t))^-) for the oscillator, Sym(K^-) for the covariants -- and the
normal-form elements of U(H^) store a dictionary from multisets (sorted
tuples) to scalars; the polynomials of ratfunc store one from exponent
vectors.  SparseVector holds that dictionary and the linear structure on it
once, in the manner of sympy's SDM, with one printer and one module rule;
each subclass keeps only its key convention, its constructors and what is
its own.

Invariant: no vector ever stores an entry as zero.  Every write goes through
add_term or skips a zero value, so two vectors are equal exactly when their
term dictionaries are.  A kernel's private integer accumulator (laurent's
product, oscillator's _emit_doubled) may hold zeros until its reader drops
them on the way to a vector.
"""

from __future__ import annotations


def add_term(terms: dict, key, c):
    """terms[key] += c in place, dropping the entry when the sum is zero.  A
    new key stores c itself, when it is nonzero: no 0 + c is formed."""
    s = terms.get(key)
    if s is None:
        if c:
            terms[key] = c
    elif s := s + c:
        terms[key] = s
    else:
        del terms[key]


class SparseVector:
    """Finitely supported map from sorted-tuple keys to scalars.

    A direct subclass lists its extra attributes in __slots__ (for example
    "space"); _like copies them to every vector it builds.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {}
        for key, c in (terms or {}).items():
            if c:
                add_term(self.terms, self._key(key), c)

    @staticmethod
    def _key(key) -> tuple:
        """Normal form of a key: the sorted multiset."""
        return tuple(sorted(key))

    def _like(self, terms: dict):
        """A vector of this type and these extra slots, holding terms as
        given (the caller guarantees normal keys and no zero value)."""
        out = object.__new__(type(self))
        for name in type(self).__slots__:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def _same_module(self, other) -> bool:
        """Whether other is a vector of this module: of this class, and over
        a space of the same genus where the class has one (spaces compare by
        genus, not identity: equal spaces built twice must add)."""
        return type(other) is type(self) and ("space" not in self.__slots__ or other.space.g == self.space.g)

    def __add__(self, other):
        if not self._same_module(other):
            raise TypeError(f"cannot add a {type(other).__name__} to a {type(self).__name__} of another module")
        terms = dict(self.terms)
        for key, c in other.terms.items():
            add_term(terms, key, c)
        return self._like(terms)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return self._like({k: v * c for k, v in self.terms.items()} if c else {})

    __mul__ = scale
    __rmul__ = scale

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    @staticmethod
    def _order(key):
        """Where the printer puts the term of key: keys print in this order."""
        return key

    @staticmethod
    def _text(key) -> str:
        """The basis vector of key as the printer writes it: the multiset's
        entries joined by '·', the empty key as the vacuum v_0."""
        return "·".join(map(str, key)) or "v_0"

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[k]})·{self._text(k)}" for k in sorted(self.terms, key=self._order))
