"""Arithmetic in a quotient ring Q[q]/(m(q)) for a monic polynomial m.

Elements are coefficient vectors of length deg(m) over the rationals.
Products, reduction modulo m and the extended-Euclid inverse are the dense
univariate routines of ``poly``; an element that is not coprime to the
modulus has no inverse and raises ``ZeroDivisorError``.  A constant hashes
as its value, since it compares equal to it.
"""

from fractions import Fraction

from .errors import ZeroDivisorError
from .poly import Ring, dense_divmod, dense_inverse, dense_mul

_ZERO = Fraction(0)


class AlgNum(Ring):
    """Element of Q[q]/(m) given by its degree-reduced coefficient vector."""

    __slots__ = ("minpoly", "vec")

    def __init__(self, minpoly, vec):
        minpoly = tuple(Fraction(c) for c in minpoly)
        if not minpoly or minpoly[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        self._store(minpoly, [Fraction(c) for c in vec])

    def _store(self, minpoly, vec):
        """Set the fields: the list ``vec`` reduced modulo ``minpoly``."""
        d = len(minpoly) - 1
        if len(vec) > d:
            _, vec = dense_divmod(vec, minpoly)
        _set_minpoly(self, minpoly)
        _set_vec(self, tuple(vec) + (_ZERO,) * (d - len(vec)))

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
            return self._make([Fraction(other)])
        raise TypeError(f"cannot combine AlgNum with {type(other).__name__}")

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
        return self._make(dense_mul(self.vec, o.vec))

    def inverse(self):
        """Extended-Euclid inverse modulo the minimal polynomial."""
        if self.is_zero:
            raise ZeroDivisorError("zero has no inverse in the quotient ring")
        inv = dense_inverse(self.vec, self.minpoly)
        if inv is None:
            raise ZeroDivisorError(
                "element shares a factor with the modulus; not invertible")
        return self._make(inv)

    def __hash__(self):
        if not any(self.vec[1:]):
            return hash(self.vec[0] if self.vec else _ZERO)
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
