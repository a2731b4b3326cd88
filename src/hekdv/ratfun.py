"""Rational functions as fractions of sparse polynomials, and their normal form.

``normal_form`` is the one routine that cancels or scales a fraction, for
both ``RatFn`` and ``symsq.SymSqElem``.  It is deliberately lazy (no
multivariate gcd), so equality is decided by cross-multiplication, which is
representation independent.
"""

from fractions import Fraction

from .errors import ZeroDenominatorError
from .poly import MPoly, weighted_degree


def _as_mpoly(x):
    if isinstance(x, MPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return MPoly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to a polynomial")


def normal_form(num, den, factors=()):
    """The stored (num, den) pair of num/den.

    In order: a zero den raises (a zero num gives 0/1); the common monomial
    is cancelled, each variable to its lower minimum degree; the common
    power of each of ``factors`` is divided out, skipping a factor whose
    variables den lacks; den is scaled to content 1 with a positive leading
    coefficient (den = 1 when constant).  The scaling reads den's stored
    content and replaces the contents of both, flipping the signs of their
    integer parts when den leads negative; no coefficient is divided.  The
    pair is canonical only when every factor num and den share is a
    monomial or one of ``factors``.
    """
    if den.is_zero:
        raise ZeroDenominatorError("fraction with zero denominator")
    if num.is_zero:
        return MPoly.zero(), MPoly.const(1)
    mono = MPoly.const(1)
    for name in den.variables_used():
        k = den.min_degree_in(name)
        if k:
            k = min(k, num.min_degree_in(name))
            if k:
                mono = mono * MPoly.var(name, k)
    if mono.as_constant() is None:
        num, den = num.exact_div(mono), den.exact_div(mono)
    for f in factors:
        needed = f.variables_used()
        while needed <= den.variables_used():
            dq = den.exact_div(f)
            if dq is None:
                break
            nq = num.exact_div(f)
            if nq is None:
                break
            num, den = nq, dq
    dc = den.as_constant()
    if dc is not None:
        return num * (Fraction(1) / dc), MPoly.const(1)
    scale = den.content()
    if den.leading()[1] < 0:
        scale = -scale
    return num * (Fraction(1) / scale), den * (Fraction(1) / scale)


class RatFn:
    """A fraction num/den of multivariate polynomials, den != 0."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1, known_factors=()):
        num, den = normal_form(_as_mpoly(num), _as_mpoly(den), known_factors)
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
