"""Rational functions as fractions of sparse polynomials, and their normal form.

``RatFn`` holds the one fraction arithmetic; ``symsq.SymSqElem`` inherits it
and supplies its own normal form.  ``normal_form`` is the one routine that
cancels or scales a fraction; its ``factors`` are declared by the ring, not
per call.  It is deliberately lazy (no multivariate gcd), so equality is
decided by cross-multiplication, which is representation independent.
"""

from fractions import Fraction

from .errors import ZeroDenominatorError
from .poly import MPoly, Ring, weighted_degree


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


class RatFn(Ring):
    """A fraction num/den of multivariate polynomials, den != 0.

    The fraction arithmetic, equality and printing are written once, here,
    for every fraction ring; the reflected operators are ``Ring``'s.  A
    subclass supplies its normal form in
    ``__init__`` and two hooks: ``_lift`` brings an operand into the ring
    (raising TypeError for a foreign one) and ``_make`` builds a result.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, den = normal_form(_as_mpoly(num), _as_mpoly(den))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def _lift(self, other):
        """``other`` as an element of this ring: a RatFn, MPoly or scalar."""
        if type(other) is RatFn:
            return other
        return RatFn(other)

    def _make(self, num, den):
        return RatFn(num, den)

    # -- predicates -----------------------------------------------------

    @property
    def is_zero(self):
        return self.num.is_zero

    def is_polynomial(self):
        return self.den.as_constant() == 1

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        return self._make(self.num * o.den + o.num * self.den,
                          self.den * o.den)

    def __neg__(self):
        return self._make(-self.num, self.den)

    def __sub__(self, other):
        o = self._lift(other)
        return self._make(self.num * o.den - o.num * self.den,
                          self.den * o.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._make(self.num * other, self.den)
        o = self._lift(other)
        return self._make(self.num * o.num, self.den * o.den)

    def __truediv__(self, other):
        o = self._lift(other)
        if o.is_zero:
            raise ZeroDenominatorError("division by the zero fraction")
        return self._make(self.num * o.den, self.den * o.num)

    def __pow__(self, n):
        if n < 0:
            if self.is_zero:
                raise ZeroDenominatorError("inverting the zero fraction")
            return self._make(self.den ** (-n), self.num ** (-n))
        return self._make(self.num ** n, self.den ** n)

    def __eq__(self, other):
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        return (self.num * o.den - o.num * self.den).is_zero

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is unhashable; "
                        "equality is cross-multiplicative")

    # -- calculus ----------------------------------------------------------

    def derivative(self, name):
        return RatFn(self.num.derivative(name) * self.den
                     - self.num * self.den.derivative(name),
                     self.den * self.den)

    def subst(self, mapping):
        """Substitute variables by RatFn/MPoly/Fraction values."""
        from .poly import eval_poly
        lifted = {k: self._lift(v) for k, v in mapping.items()}
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
        return (f"{type(self).__name__}({self.num.to_str(max_terms=6)} / "
                f"{self.den.to_str(max_terms=6)})")


def ratfn_equal(f, g):
    """True iff f and g agree as rational functions (cross-multiplication)."""
    return f == g
