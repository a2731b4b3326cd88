"""Rational functions as reduced fractions of sparse polynomials.

Normalization is deliberately lazy: no multivariate gcd.  Constructors
strip scalar content, fix the sign of the denominator's leading
coefficient, and attempt exact-division cancellation only against an
optional list of known factors (or the full denominator when it is small).
Equality is decided by cross-multiplication, which is representation
independent.
"""

from fractions import Fraction

from .errors import ZeroDenominatorError
from .poly import MPoly, weighted_degree

# denominators with at most this many terms are tried as exact divisors
_FULL_REDUCE_TERM_LIMIT = 24


def _as_mpoly(x):
    if isinstance(x, MPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return MPoly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to a polynomial")


class RatFn:
    """A fraction num/den of multivariate polynomials, den != 0."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1, known_factors=()):
        num = _as_mpoly(num)
        den = _as_mpoly(den)
        if den.is_zero:
            raise ZeroDenominatorError("rational function with zero denominator")
        if num.is_zero:
            object.__setattr__(self, "num", MPoly.zero())
            object.__setattr__(self, "den", MPoly.const(1))
            return
        for f in known_factors:
            while True:
                dq = den.exact_div(f)
                if dq is None or dq.is_zero:
                    break
                nq = num.exact_div(f)
                if nq is None:
                    break
                num, den = nq, dq
        if den.as_constant() is None and den.term_count() <= _FULL_REDUCE_TERM_LIMIT:
            q = num.exact_div(den)
            if q is not None:
                num, den = q, MPoly.const(1)
        dc = den.as_constant()
        if dc is not None:
            num = num * (Fraction(1) / dc)
            den = MPoly.const(1)
        else:
            scale = den.content()
            if den.leading()[1] < 0:
                scale = -scale
            num = num * (Fraction(1) / scale)
            den = den * (Fraction(1) / scale)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("RatFn is immutable")

    # -- predicates -----------------------------------------------------

    @property
    def is_zero(self):
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    def is_polynomial(self):
        return self.den.as_constant() == 1

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFn):
            return x
        return RatFn(_as_mpoly(x))

    def __add__(self, other):
        other = RatFn._coerce(other)
        return RatFn(self.num * other.den + other.num * self.den,
                     self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFn(-self.num, self.den)

    def __sub__(self, other):
        other = RatFn._coerce(other)
        return RatFn(self.num * other.den - other.num * self.den,
                     self.den * other.den)

    def __rsub__(self, other):
        return RatFn._coerce(other) - self

    def __mul__(self, other):
        other = RatFn._coerce(other)
        return RatFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RatFn._coerce(other)
        if other.num.is_zero:
            raise ZeroDenominatorError("division by the zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RatFn._coerce(other) / self

    def __pow__(self, n):
        if n < 0:
            if self.num.is_zero:
                raise ZeroDenominatorError("inverting the zero rational function")
            return RatFn(self.den ** (-n), self.num ** (-n))
        return RatFn(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MPoly)):
            other = RatFn._coerce(other)
        if not isinstance(other, RatFn):
            return NotImplemented
        return ratfn_equal(self, other)

    def __hash__(self):
        raise TypeError("RatFn is unhashable; equality is cross-multiplicative")

    # -- calculus ----------------------------------------------------------

    def derivative(self, name, known_factors=()):
        return RatFn(self.num.derivative(name) * self.den
                     - self.num * self.den.derivative(name),
                     self.den * self.den,
                     known_factors=known_factors)

    def subst(self, mapping):
        """Substitute variables by RatFn/MPoly/Fraction values."""
        from .poly import eval_poly
        lifted = {k: RatFn._coerce(v) for k, v in mapping.items()}
        one = RatFn(MPoly.const(1))
        num = eval_poly(self.num, lifted, one)
        den = eval_poly(self.den, lifted, one)
        return num / den

    def fraction_weight(self, table):
        """Weighted degree num minus den if both homogeneous, else None."""
        wn = weighted_degree(self.num, table)
        wd = weighted_degree(self.den, table)
        if wn is None or wd is None:
            return None
        return wn - wd

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFn({self.num.to_str(max_terms=6)} / {self.den.to_str(max_terms=6)})"


def ratfn_equal(f, g):
    """True iff f and g agree as rational functions (cross-multiplication)."""
    f = RatFn._coerce(f)
    g = RatFn._coerce(g)
    return (f.num * g.den - g.num * f.den).is_zero
