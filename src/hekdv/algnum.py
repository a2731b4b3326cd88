"""Arithmetic in a quotient ring Q[q]/(m(q)) for a monic minimal polynomial m.

Elements are coefficient vectors of length deg(m); inversion runs the
extended Euclidean algorithm and reports a zero divisor when the element
is not coprime to the modulus.
"""

from fractions import Fraction

from .errors import ZeroDivisorError
from .poly import power


def _trim(v):
    v = list(v)
    while v and not v[-1]:
        v.pop()
    return v


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return _trim([x - y for x, y in zip(a, b)])


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    inv_lead = Fraction(1) / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        coef = a[k + len(b) - 1] * inv_lead
        if coef:
            q[k] = coef
            for j, y in enumerate(b):
                a[k + j] -= coef * y
    return _trim(q), _trim(a)


class AlgNum:
    """Element of Q[q]/(m) given by its degree-reduced coefficient vector."""

    __slots__ = ("minpoly", "vec")

    def __init__(self, minpoly, vec):
        minpoly = tuple(Fraction(c) for c in minpoly)
        if not minpoly or minpoly[-1] != 1:
            raise ValueError("minimal polynomial must be monic")
        deg = len(minpoly) - 1
        vec = [Fraction(c) for c in vec]
        if len(vec) >= len(minpoly):
            _, vec = _poly_divmod(vec, list(minpoly))
        vec = vec + [Fraction(0)] * (deg - len(vec))
        object.__setattr__(self, "minpoly", minpoly)
        object.__setattr__(self, "vec", tuple(vec[:deg]))

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
        return AlgNum(self.minpoly, _poly_mul(list(self.vec), list(o.vec)))

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, AlgNum.const(self.minpoly, 1))

    def inverse(self):
        """Extended-Euclid inverse modulo the minimal polynomial."""
        if self.is_zero:
            raise ZeroDivisorError("zero has no inverse in the quotient ring")
        r0, r1 = list(self.minpoly), _trim(self.vec)
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            s = _poly_sub(s0, _poly_mul(q, s1))
            r0, r1 = r1, r
            s0, s1 = s1, s
        if len(r0) != 1:
            raise ZeroDivisorError(
                "element shares a factor with the modulus; not invertible")
        scale = Fraction(1) / r0[0]
        return AlgNum(self.minpoly, [c * scale for c in s0])

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
