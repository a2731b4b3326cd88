"""Quotient rings R[name]/(name^d - tail) by a monic modulus, written once.

A ``QuotientElem`` holds ``poly``, one MPoly of name-degree below d, and
``modulus`` = (name, d, tail), the arguments of ``MPoly.rem_monic``; the
tail has an integer content.  A product is one MPoly product and one
remainder; a sum keeps the degree and is not reduced.  An element hashes
as its polynomial, so a constant hashes as its value.  Elements of two
moduli do not mix: ValueError.  ``AlgNum`` is Q[q]/(m) for a monic m with
integer coefficients; its inverse is ``poly.dense_inverse`` on the
coefficient list, and an element sharing a factor with m raises
``ZeroDivisorError``.
"""

from fractions import Fraction
from functools import lru_cache

from .errors import ZeroDivisorError
from .poly import MPoly, Ring, dense_inverse, sum_polys

_ZERO = Fraction(0)


def in_powers(name, coeffs):
    """The MPoly sum of coeffs[k] * name^k."""
    return sum_polys(c * MPoly.var(name, k) for k, c in enumerate(coeffs))


class QuotientElem(Ring):
    """One reduced MPoly ``poly`` and the ``modulus`` it was reduced by."""

    __slots__ = ("poly", "modulus")

    @classmethod
    def _reduced(cls, poly, modulus):
        """The element of ``cls`` for ``poly`` reduced by ``modulus``."""
        new = object.__new__(cls)
        _set_poly(new, poly.rem_monic(*modulus))
        _set_modulus(new, modulus)
        return new

    def _make(self, poly):    # poly is reduced
        new = object.__new__(type(self))
        _set_poly(new, poly)
        _set_modulus(new, self.modulus)
        return new

    def _lift(self, other):
        if isinstance(other, QuotientElem):
            if other.modulus != self.modulus:
                raise ValueError("mixed quotient rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self._make(MPoly.const(other))
        raise TypeError(f"cannot combine {type(self).__name__} with "
                        f"{type(other).__name__}")

    @property
    def is_zero(self):
        return self.poly.is_zero

    def __add__(self, other):
        return self._make(self.poly + self._lift(other).poly)

    def __sub__(self, other):
        return self._make(self.poly - self._lift(other).poly)

    def __neg__(self):
        return self._make(-self.poly)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._make(self.poly * other)
        product = self.poly * self._lift(other).poly
        return self._make(product.rem_monic(*self.modulus))

    def __hash__(self):
        return hash(self.poly)

    def __str__(self):
        return str(self.poly)

    def __repr__(self):
        return str(self)


# the slot setters, past the immutability guard
_set_poly = QuotientElem.poly.__set__
_set_modulus = QuotientElem.modulus.__set__


@lru_cache(maxsize=None)
def _modulus(minpoly):
    """(name, degree, tail) of the monic minpoly = q^degree - tail."""
    if not minpoly or minpoly[-1] != 1:
        raise ValueError("minimal polynomial must be monic")
    return "q", len(minpoly) - 1, -in_powers("q", minpoly[:-1])


def _dense(p, name, degree):
    """The coefficient list of ``p`` in ``name``, constant first."""
    parts = p.coeffs_in(name)
    return [parts[k].as_constant() if k in parts else _ZERO
            for k in range(degree)]


class AlgNum(QuotientElem):
    """Element of Q[q]/(m): AlgNum(m, representative), constant first."""

    __slots__ = ()

    def __new__(cls, minpoly, vec):
        return cls._reduced(in_powers("q", vec), _modulus(tuple(minpoly)))

    @staticmethod
    def generator(minpoly):
        return AlgNum(minpoly, [0, 1])

    @staticmethod
    def const(minpoly, c):
        return AlgNum(minpoly, [c])

    def inverse(self):
        """Extended-Euclid inverse modulo the minimal polynomial."""
        name, degree, tail = self.modulus
        minpoly = _dense(MPoly.var(name, degree) - tail, name, degree + 1)
        inv = dense_inverse(_dense(self.poly, name, degree), minpoly)
        if inv is None:
            raise ZeroDivisorError("zero, or shares a factor with the "
                                   "modulus: not invertible")
        return self._make(in_powers(name, inv))
