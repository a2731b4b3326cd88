"""Arithmetic in a quotient ring Q[q]/(m(q)) for a monic minimal polynomial m.

Elements are coefficient vectors of length deg(m).  Products, reduction
modulo m and the extended-Euclid inverse are the dense univariate routines
of ``poly``; an element that is not coprime to the modulus has no inverse
and raises ``ZeroDivisorError``.
"""

from fractions import Fraction

from .errors import ZeroDivisorError
from .poly import dense_divmod, dense_inverse, dense_mul, power

_ZERO = Fraction(0)


class AlgNum:
    """Element of Q[q]/(m) given by its degree-reduced coefficient vector."""

    __slots__ = ("minpoly", "vec")

    def __init__(self, minpoly, vec):
        minpoly = tuple(Fraction(c) for c in minpoly)
        if not minpoly or minpoly[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        _, vec = dense_divmod([Fraction(c) for c in vec], minpoly, _ZERO)
        vec += [_ZERO] * (len(minpoly) - 1 - len(vec))
        object.__setattr__(self, "minpoly", minpoly)
        object.__setattr__(self, "vec", tuple(vec))

    def __setattr__(self, *_):
        raise AttributeError("AlgNum is immutable")

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
        return AlgNum.const(self.minpoly, other)

    @property
    def is_zero(self):
        return not any(self.vec)

    def __bool__(self):
        return not self.is_zero

    def __add__(self, other):
        o = self._lift(other)
        return AlgNum(self.minpoly, [a + b for a, b in zip(self.vec, o.vec)])

    __radd__ = __add__

    def __neg__(self):
        return AlgNum(self.minpoly, [-a for a in self.vec])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        return AlgNum(self.minpoly, dense_mul(self.vec, o.vec, _ZERO))

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, AlgNum.const(self.minpoly, 1))

    def inverse(self):
        """Extended-Euclid inverse modulo the minimal polynomial."""
        if self.is_zero:
            raise ZeroDivisorError("zero has no inverse in the quotient ring")
        inv = dense_inverse(self.vec, self.minpoly, _ZERO)
        if inv is None:
            raise ZeroDivisorError(
                "element shares a factor with the modulus; not invertible")
        return AlgNum(self.minpoly, inv)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __eq__(self, other):
        try:
            o = self._lift(other)
        except (ValueError, TypeError):
            return NotImplemented
        return self.vec == o.vec

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


def algnum_invert(x):
    """Module-level spelling of AlgNum.inverse for symmetry with the tests."""
    return x.inverse()
