"""Rational functions as fractions of sparse polynomials, and their normal form.

``RatFn`` holds the one fraction arithmetic; ``symsq.SymSqElem`` inherits
its division, printing and weights, and supplies its own normal form and
the rest of the arithmetic over products of X1, X2 and X1 - X2;
``phiring.PhiFrac`` inherits the arithmetic over the one base sigma_1(phi),
its numerator in the sextic quotient ring, and supplies its derivative.
``normal_form`` cancels the common monomial and scales the denominator;
the symmetric square also cancels X1 - X2, from its stored exponents.  It
is deliberately lazy (no multivariate gcd), so equality is decided over a
common denominator.  A RatFn is num / base^k.  Over a *stable* base (no
monomial factor) results need no normal form: a sum is over the lcm
(Knuth, TAOCP vol. 2, 4.5.1), a product adds the powers; other pairs of
bases multiply out into a new base.
"""

from fractions import Fraction

from .errors import ZeroDenominatorError
from .poly import MPoly, Ring, eval_poly, unit_den, weighted_degree

_ONE = MPoly.const(1)


def _as_mpoly(x):
    if isinstance(x, MPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return MPoly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to a polynomial")


def normal_form(num, den):
    """The stored (num, den) pair of num/den.

    In order: a zero den raises (a zero num gives 0/1); unless a side has a
    constant term, the common monomial is cancelled; ``poly.unit_den``
    scales den to content 1 and a positive leading coefficient (den = 1
    when constant).  The pair is canonical when every factor num and den
    share is a monomial.
    """
    if den.is_zero:
        raise ZeroDenominatorError("fraction with zero denominator")
    if num.is_zero:
        return MPoly.zero(), MPoly.const(1)
    if not (num.has_constant_term() or den.has_constant_term()):
        mono = MPoly.const(1)
        for name in den.variables_used():
            k = den.min_degree_in(name)
            if k:
                k = min(k, num.min_degree_in(name))
                if k:
                    mono = mono * MPoly.var(name, k)
        if not mono.has_constant_term():
            num, den = num.exact_div(mono), den.exact_div(mono)
    return unit_den(num, den)


class RatFn(Ring):
    """A fraction num / base^k, ``stable`` when base has no monomial factor.

    The fraction arithmetic, equality and printing are written once, here,
    for every fraction ring; the reflected operators are ``Ring``'s.  A
    subclass supplies its normal form in ``__init__`` and two hooks:
    ``_lift`` brings an operand into the ring (raising TypeError for a
    foreign one) and ``_make`` builds a result.
    """

    __slots__ = ("num", "base", "k", "stable", "_expanded")

    def __init__(self, num, den=None):
        if den is None:
            _fill(self, _as_mpoly(num), _ONE, 0, True)
            return
        num, den = normal_form(_as_mpoly(num), _as_mpoly(den))
        _fill(self, num, den, 0 if den.as_constant() else 1,
              not any(den.min_degree_in(v) for v in den.variables_used()))

    @property
    def den(self):
        """The expanded denominator base^k, formed on first read and kept."""
        try:
            return self._expanded
        except AttributeError:
            RatFn._expanded.__set__(self, self.base ** self.k)
            return self._expanded

    def _lift(self, other):
        """``other`` as an element of this ring: a RatFn, MPoly or scalar."""
        return other if type(other) is RatFn else RatFn(other)

    def _make(self, num, den):
        return RatFn(num, den)

    def _build(self, num, base, k, stable):
        """num / base^k, as it stands over a stable base, else normalized."""
        if not stable:
            return self._make(num, base ** k)
        if not k or num.is_zero:
            base, k = _ONE, 0
        return _fill(object.__new__(type(self)), num, base, k, True)

    def _common_base(self, o):
        """The base both denominators are powers of, or None."""
        if not (self.k and o.k):
            return self.base if self.k else o.base
        shared = self.stable and (self.base is o.base or self.base == o.base)
        return self.base if shared else None

    # -- predicates -----------------------------------------------------

    @property
    def is_zero(self):
        return self.num.is_zero

    def is_polynomial(self):
        return self.den.as_constant() == 1

    # -- arithmetic -------------------------------------------------------

    def _plus(self, o, sign):
        """self + sign * o over the lcm of the denominators."""
        m, n, j, k, b = self.num, o.num, self.k, o.k, self._common_base(o)
        if b is None:
            m, n, b, j = m * o.den, n * self.den, self.den * o.den, 1
        elif j < k:
            m, j = m * b ** (k - j), k
        elif k < j:
            n = n * b ** (j - k)
        return self._build(m + n if sign > 0 else m - n, b, j,
                           self.stable and o.stable)

    def __add__(self, other):
        return self._plus(self._lift(other), 1)

    def __neg__(self):
        return self._build(-self.num, self.base, self.k, self.stable)

    def __sub__(self, other):
        return self._plus(self._lift(other), -1)

    def __mul__(self, other):
        o = self._lift(other)
        b = self._common_base(o)
        b, k = (self.den * o.den, 1) if b is None else (b, self.k + o.k)
        return self._build(self.num * o.num, b, k, self.stable and o.stable)

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
        return self._build(self.num ** n, self.base, self.k * n, self.stable)

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is unhashable; "
                        "equality is cross-multiplicative")

    # -- calculus ----------------------------------------------------------

    def derivative(self, name):
        num, base, k = self.num.derivative(name), self.base, self.k
        db = base.derivative(name)
        if not db.is_zero:
            num, k = num * base - self.num * (db * k), k + 1
        return self._build(num, base, k, self.stable)

    def subst(self, mapping):
        """Substitute variables by RatFn/MPoly/Fraction values."""
        lifted = {k: self._lift(v) for k, v in mapping.items()}
        one = RatFn(1)
        num = eval_poly(self.num, lifted, one)
        return num * (one / eval_poly(self.base, lifted, one)) ** self.k

    def fraction_weight(self, table):
        """Weighted degree num minus den if both homogeneous, else None."""
        wn, wb = (weighted_degree(p, table) for p in (self.num, self.base))
        return None if wn is None or wb is None else wn - wb * self.k

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return (f"{type(self).__name__}({self.num.to_str(max_terms=6)} / "
                f"{self.den.to_str(max_terms=6)})")


_set_num, _set_base, _set_k, _set_stable = (
    getattr(RatFn, name).__set__ for name in ("num", "base", "k", "stable"))


def _fill(r, num, base, k, stable):
    """Set num, base, k and stable of ``r``, past the immutability guard."""
    _set_num(r, num)
    _set_base(r, base)
    _set_k(r, k)
    _set_stable(r, stable)
    return r
