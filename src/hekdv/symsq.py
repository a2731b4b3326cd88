"""Function field of the square of a hyperelliptic curve, in Y-reduced form.

Every element is stored as num/den with num of degree <= 1 in each of Y1,
Y2 (the rewrites Y_i^2 -> Q(X_i) are confluent, so this normal form is
canonical) and den free of Y variables.  The Y-reduction is the remainder
by Y1^2 - Q(X1), then by Y2^2 - Q(X2), one ``MPoly.rem_monic`` each.  The
denominator is kept factored: the exponents (i, j, k) of X1, X2 and
X1 - X2 (``den_exps``) times a cofactor R (``den_rest``, None for 1) that
has none of those factors, content 1 and a positive leading coefficient.
R is 1 on every path of the checks and the bridges; only ``elem(num,
den)`` with an arbitrary den, conjugate clearing of a Y-denominator
included, factors a denominator polynomial, once, by trial division.
Everything else passes exponents (``SymSqField.over``): a product adds
them, and a sum scales each numerator by the rest of its denominator up to
the componentwise maximum, the addition over the lcm of the denominators
(Knuth, TAOCP vol. 2, 4.5.1), which needs no Y-reduction.  The normal form
cancels X1, X2 and X1 - X2 against the numerator only: its least degrees
in X1 and X2, then at most k divisions by X1 - X2.  With R = 1 the stored
form is canonical, so equality compares it, and ``den`` is expanded on
first read and kept.  An element with R != 1 takes ``RatFn``'s arithmetic
on the expanded pair.

The module also provides the two coordinate bridges with the symmetric
function generators: substitution of

    a = (X1+X2)/2,  b = (X1-X2)^2/4,  c = (Y1-Y2)/(X1-X2),  d = (Y1+Y2)/2

and its inverse through the auxiliary variable s with X1 = a+s, X2 = a-s,
Y1 = d+s*c, Y2 = d-s*c, s^2 = b: the last is the remainder by s^2 - b.
Only c has a denominator, and as X1 - X2 = 2s, a polynomial of degree k in
c has in the s chart the monomial denominator (2s)^k, whose common power
s^j with the numerator cancels before anything is expanded.  Evaluation on
the square goes by blocks, the two-level Horner scheme (Pena & Sauer, SIAM
J. Numer. Anal. 37(4), 2000): one pass carries a polynomial into the s
chart and groups its terms by their monomial m in c and d; the X-image of
each group's coefficient, in a, s and the curve parameters, times the
Y-image of m, summed, is the numerator over (X1-X2)^(k-j).  Terms cancel
within a group before any product with Y, and a round trip through
``xy_to_abcd`` has j = k and divides nothing by X1 - X2.  ``xy_to_abcd``
stays one block: grouped by its Y part it measured flat, and through
``build_MN`` the simulator's output digest pins its term order.  Each
bridge keeps the images of the monomial prefixes it forms in one
``poly.Substitution``: ``SymSqField.to_xy``, for both blocks, and ``_s_chart``.
"""

from fractions import Fraction
from functools import lru_cache
from operator import add

from .curve import CurveParams, y_symbols
from .errors import NotSymmetricError, ZeroDenominatorError
from .poly import MPoly, Substitution, standard_weights, sum_polys
from .ratfun import RatFn, _as_mpoly, normal_form

_HALF = Fraction(1, 2)
_DX = MPoly.var("X1") - MPoly.var("X2")
_NO_EXPS = (0, 0, 0)


@lru_cache(maxsize=None)
def x_part(i, j, k):
    """X1^i * X2^j * (X1 - X2)^k, expanded once."""
    return MPoly.var("X1", i) * MPoly.var("X2", j) * _DX ** k


def _split(den):
    """((i, j, k), R) with den = X1^i * X2^j * (X1 - X2)^k * R and R free
    of those factors: the least degrees, then trial division by X1 - X2."""
    i, j = den.min_degree_in("X1"), den.min_degree_in("X2")
    if i or j:
        den = den.exact_div(x_part(i, j, 0))
    k = 0
    while den.degree_in("X1") and den.degree_in("X2"):
        q = den.divide_out_linear("X1", "X2")
        if q is None:
            break
        den, k = q, k + 1
    return (i, j, k), den


def _cancel(num, exps, rest=None):
    """The normal form of num / (x_part(*exps) * rest), num Y-reduced and
    rest None or free of X1, X2 and X1 - X2: (num, exps, rest)."""
    if num.is_zero:
        return num, _NO_EXPS, None
    i, j, k = exps
    a = i and min(i, num.min_degree_in("X1"))
    b = j and min(j, num.min_degree_in("X2"))
    if a or b:
        num = num.exact_div(x_part(a, b, 0))
    c = 0
    while c < k:
        q = num.divide_out_linear("X1", "X2")
        if q is None:
            break
        num, c = q, c + 1
    if rest is not None:
        num, rest = normal_form(num, rest)
        if rest.as_constant() is not None:
            rest = None
    return num, (i - a, j - b, k - c), rest


class SymSqField:
    """Context holding the curve relations for one symmetric square."""

    def __init__(self, params: CurveParams):
        self.params = params
        self.Q1 = params.Q("X1")
        self.Q2 = params.Q("X2")
        self.dQ1 = self.Q1.derivative("X1")
        self.dQ2 = self.Q2.derivative("X2")
        self._abcd = None
        self._to_xy = None

    # -- reduction ---------------------------------------------------------

    def reduce(self, p):
        """Confluent Y-reduction: the remainder by Y1^2 - Q(X1), then by
        Y2^2 - Q(X2)."""
        return p.rem_monic("Y1", 2, self.Q1).rem_monic("Y2", 2, self.Q2)

    # -- element construction ----------------------------------------------

    def elem(self, num, den=1):
        return SymSqElem(self, num, den)

    def over(self, num, exps):
        """num / (X1^i * X2^j * (X1 - X2)^k) for exps = (i, j, k), num a
        polynomial; that denominator is never formed."""
        return _element(self, *_cancel(self.reduce(num), exps))

    def zero(self):
        return self.elem(0)

    def one(self):
        return self.elem(1)

    def gens(self):
        """The coordinate functions X1, Y1, X2, Y2 as field elements."""
        return {n: self.elem(MPoly.var(n)) for n in ("X1", "Y1", "X2", "Y2")}

    def abcd(self):
        """Pullbacks of the four symmetric generators, computed once."""
        if self._abcd is None:
            self._abcd = {g: abcd_to_xy(MPoly.var(g), self) for g in "abcd"}
        return self._abcd

    def to_xy(self):
        """The substitution of ``abcd_to_xy``, built once: a, c, d and s in
        X1, Y1, X2, Y2, and each curve parameter by its value or symbol."""
        if self._to_xy is None:
            x1, y1, x2, y2 = (MPoly.var(n) for n in ("X1", "Y1", "X2", "Y2"))
            sub = {n: self.params.coefficient(n)
                   for n in y_symbols(self.params.genus)}
            sub.update(a=(x1 + x2) * _HALF, c=y1 - y2, d=(y1 + y2) * _HALF,
                       s=_DX * _HALF)
            self._to_xy = Substitution(sub)
        return self._to_xy

    def weights(self):
        return standard_weights(self.params.genus)


class SymSqElem(RatFn):
    """One element of the field, normalized as described in the module doc.

    It adds its field, the Y-reduction and the factored denominator to
    ``RatFn``, whose arithmetic on the expanded pair it takes when either
    operand has a cofactor R != 1.
    """

    __slots__ = ("field", "den_exps", "den_rest")

    def __init__(self, field, num, den=1):
        num = field.reduce(_as_mpoly(num))
        den = _as_mpoly(den)
        c = den.as_constant()
        if c is not None:
            if not c:
                raise ZeroDenominatorError("fraction with zero denominator")
            _fill(self, field, num if c == 1 else num / c, _NO_EXPS, None)
            return
        den = field.reduce(den)
        # clear Y from the denominator by conjugate multiplication
        for yvar in ("Y1", "Y2"):
            if den.degree_in(yvar):
                # den = C0 + Y*C1 after reduction; its conjugate is C0 - Y*C1
                parts = den.coeffs_in(yvar)
                zero = MPoly.zero()
                conj = parts.get(0, zero) - MPoly.var(yvar) * parts.get(1, zero)
                num = field.reduce(num * conj)
                den = field.reduce(den * conj)
        if den.is_zero:
            raise ZeroDenominatorError("fraction with zero denominator")
        _fill(self, field, *_cancel(num, *_split(den)))

    @property
    def den(self):
        """The expanded denominator, formed on first read and kept."""
        try:
            return _get_den(self)
        except AttributeError:
            den = x_part(*self.den_exps)
            if self.den_rest is not None:
                den = den * self.den_rest
            _set_den(self, den)
            return den

    def _lift(self, other):
        """``other`` in this field: an element of it, an MPoly or a scalar.

        A plain RatFn is foreign (TypeError): it knows nothing of Y^2 = Q(X).
        """
        if isinstance(other, SymSqElem):
            if other.field is not self.field:
                raise ValueError("elements of different symmetric squares")
            return other
        return SymSqElem(self.field, other)

    def _make(self, num, den):
        return SymSqElem(self.field, num, den)

    def _factored(self, o):
        """Whether both operands have the cofactor 1."""
        return self.den_rest is None and o.den_rest is None

    def __add__(self, other):
        o = self._lift(other)
        return _sum(self, o, 1) if self._factored(o) else super().__add__(o)

    def __sub__(self, other):
        o = self._lift(other)
        return _sum(self, o, -1) if self._factored(o) else super().__sub__(o)

    def __neg__(self):
        return _element(self.field, -self.num, self.den_exps, self.den_rest)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return _element(self.field, MPoly.zero(), _NO_EXPS, None)
            return _element(self.field, self.num * other, self.den_exps,
                            self.den_rest)
        o = self._lift(other)
        if not self._factored(o):
            return super().__mul__(o)
        return self.field.over(self.num * o.num,
                               tuple(map(add, self.den_exps, o.den_exps)))

    def __truediv__(self, other):
        o = self._lift(other)
        if o.is_zero:
            raise ZeroDenominatorError("division by the zero fraction")
        if (not self._factored(o) or o.num.degree_in("Y1")
                or o.num.degree_in("Y2")):
            return super().__truediv__(o)
        # a Y-free divisor is factored once, as elem(num, den) would
        exps, rest = _split(o.num)
        return _element(self.field, *_cancel(
            self.num * x_part(*o.den_exps),
            tuple(map(add, self.den_exps, exps)), rest))

    def __pow__(self, n):
        if n < 0 or self.den_rest is not None:
            return super().__pow__(n)
        return self.field.over(self.num ** n,
                               tuple(e * n for e in self.den_exps))

    def __eq__(self, other):
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        if self._factored(o):
            return self.den_exps == o.den_exps and self.num == o.num
        return super().__eq__(o)

    def derivative(self, name):
        raise TypeError("a partial derivative ignores Y^2 = Q(X); "
                        "apply a derivations.Derivation instead")

    def subst(self, mapping):
        raise TypeError("a substitution ignores Y^2 = Q(X); "
                        "map the numerator and build a field element instead")


# the slot setters, past the immutability guard; RatFn's den slot keeps the
# expanded denominator once it is read
_get_den, _set_den = RatFn.den.__get__, RatFn.den.__set__
_SETTERS = (SymSqElem.field.__set__, RatFn.num.__set__,
            SymSqElem.den_exps.__set__, SymSqElem.den_rest.__set__)


def _fill(e, *parts):
    """Set the field, num, den_exps and den_rest of ``e``."""
    for setter, value in zip(_SETTERS, parts):
        setter(e, value)
    return e


def _element(field, num, exps, rest):
    """An element from its normal form, past ``SymSqElem.__init__``."""
    return _fill(object.__new__(SymSqElem), field, num, exps, rest)


def _sum(x, y, sign):
    """x + sign * y, both with cofactor 1: each numerator scaled by the rest
    of the componentwise maximum of the exponents, then one normal form."""
    if y.is_zero:
        return x
    if x.is_zero:
        return y if sign > 0 else -y
    ex, ey = x.den_exps, y.den_exps
    nx, ny = x.num, y.num
    if ex != ey:
        top = tuple(map(max, ex, ey))
        if ex != top:
            nx = nx * x_part(*(t - e for t, e in zip(top, ex)))
        if ey != top:
            ny = ny * x_part(*(t - e for t, e in zip(top, ey)))
        ex = top
    return _element(x.field, *_cancel(nx + ny if sign > 0 else nx - ny, ex))


# -- coordinate bridges ------------------------------------------------------

def abcd_to_xy(expr, field):
    """Evaluate a polynomial in a,b,c,d and the curve parameters on the square.

    ``MPoly.chart_groups`` carries expr into the s chart, expr * (2s)^k
    with b = s^2 divided by its common (2s)^j, grouped by the monomials in
    c and d.  The field's kept substitution maps each group's coefficient
    (the X block) and its monomial (the Y block) apart; the sum of their
    products is the numerator over (X1-X2)^(k-j).  The bridge variable s
    is (X1-X2)/2; other variables stand for themselves.
    """
    groups, k = expr.chart_groups("c", "s", 2, "b", ("c", "d"))
    sub = field.to_xy()
    return field.over(sum_polys(sub(x) * sub.image(y) for x, y in groups), (0, 0, k))


@lru_cache(maxsize=None)
def _s_chart():
    """The substitution X1=a+s, X2=a-s, Y1=d+s*c, Y2=d-s*c, built once."""
    a, c, d, s = (MPoly.var(n) for n in ("a", "c", "d", "s"))
    return Substitution({"X1": a + s, "X2": a - s,
                         "Y1": d + s * c, "Y2": d - s * c})


def _in_s_chart(p):
    """p rewritten through X1=a+s, X2=a-s, Y1=d+s*c, Y2=d-s*c."""
    return _s_chart()(p)


def xy_to_abcd(p):
    """Rewrite a symmetric even polynomial through X1=a+s, X2=a-s, Y1=d+sc, Y2=d-sc.

    Only even powers of s may survive; they become powers of b.  Raises
    NotSymmetricError otherwise.
    """
    return _even_s_to_b(_in_s_chart(p))


def _even_s_to_b(q):
    """The remainder of q by s^2 - b; NotSymmetricError when s survives."""
    q = q.rem_monic("s", 2, MPoly.var("b"))
    if q.degree_in("s"):
        raise NotSymmetricError(
            "odd power of the antisymmetric variable survives; "
            "input is not a symmetric function of the two points")
    return q


def build_MN(params):
    """The two symmetric-square relations as polynomials in a,b,c,d,y.

    Constructed from the curve equation: the difference quotient of
    Y^2 - Q(X) over the two points (exact division by X1 - X2 in the
    s-coordinates) and the average, combined as printed.
    """
    Q1 = params.Q("X1")
    Q2 = params.Q("X2")
    Y1 = MPoly.var("Y1")
    Y2 = MPoly.var("Y2")
    m_div = _in_s_chart(Y1 ** 2 - Q1 - Y2 ** 2 + Q2).exact_div(MPoly.var("s") * 2)
    if m_div is None:
        raise NotSymmetricError("difference quotient is not exact")
    M = _even_s_to_b(m_div)
    N = xy_to_abcd(Y1 ** 2 - Q1 + Y2 ** 2 - Q2)
    N_tilde = N * Fraction(-1, 2) + MPoly.var("a") * M
    return M, N_tilde
