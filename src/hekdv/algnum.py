"""Arithmetic in a quotient ring R[q]/(m(q)) for a monic polynomial m.

Elements are coefficient vectors of length deg(m) over R, the rationals
here; ``phiring.PhiRingElem`` is the same ring over Q[w3, w5].  Products,
reduction modulo m and the extended-Euclid inverse are the dense univariate
routines of ``poly``; an element that is not coprime to the modulus has no
inverse and raises ``ZeroDivisorError``.
"""

from fractions import Fraction

from .errors import ZeroDivisorError
from .poly import Ring, dense_divmod, dense_inverse, dense_mul


class AlgNum(Ring):
    """Element of R[q]/(m) given by its degree-reduced coefficient vector."""

    __slots__ = ("minpoly", "vec")
    _zero = Fraction(0)     # the zero of the coefficient ring R

    def __init__(self, minpoly, vec):
        minpoly = tuple(Fraction(c) for c in minpoly)
        if not minpoly or minpoly[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self._store(minpoly, [Fraction(c) for c in vec])

    def _store(self, minpoly, vec):
        """Set the fields: the list ``vec`` over R reduced modulo ``minpoly``."""
        zero = self._zero
        d = len(minpoly) - 1
        if len(vec) > d:
            _, vec = dense_divmod(vec, minpoly, zero)
        _set_minpoly(self, minpoly)
        _set_vec(self, tuple(vec) + (zero,) * (d - len(vec)))

    def _make(self, vec):
        """The element of this ring with coefficient list ``vec``."""
        new = object.__new__(type(self))
        new._store(self.minpoly, vec)
        return new

    @staticmethod
    def generator(minpoly):
        return AlgNum(minpoly, [0, 1])

    @staticmethod
    def const(minpoly, c):
        return AlgNum(minpoly, [Fraction(c)])

    def _lift(self, other):
        if isinstance(other, AlgNum):
            if other.minpoly != self.minpoly:
                raise ValueError("mixed quotient rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self._make([self._zero + other])
        raise TypeError(f"cannot combine {type(self).__name__} with "
                        f"{type(other).__name__}")

    @property
    def is_zero(self):
        return not any(self.vec)

    def __add__(self, other):
        o = self._lift(other)
        return self._make([a + b for a, b in zip(self.vec, o.vec)])

    def __neg__(self):
        return self._make([-a for a in self.vec])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._make([a * other for a in self.vec])
        o = self._lift(other)
        return self._make(dense_mul(self.vec, o.vec, self._zero))

    def inverse(self):
        """Extended-Euclid inverse modulo the minimal polynomial."""
        if self.is_zero:
            raise ZeroDivisorError("zero has no inverse in the quotient ring")
        inv = dense_inverse(self.vec, self.minpoly, self._zero)
        if inv is None:
            raise ZeroDivisorError(
                "element shares a factor with the modulus; not invertible")
        return self._make(inv)

    def __hash__(self):
        return hash((self.minpoly, self.vec))

    def __str__(self):
        parts = []
        for k, c in enumerate(self.vec):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{head}q" + (f"^{k}" if k > 1 else ""))
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


# the slot setters, past the immutability guard
_set_minpoly = AlgNum.minpoly.__set__
_set_vec = AlgNum.vec.__set__


def algnum_invert(x):
    """Module-level spelling of AlgNum.inverse for symmetry with the tests."""
    return x.inverse()
