"""Function field of the square of a hyperelliptic curve, in Y-reduced form.

Every element is stored as num/den with num of degree <= 1 in each of Y1,
Y2 (the rewrites Y_i^2 -> Q(X_i) are confluent, so this normal form is
canonical) and den free of Y variables.  The Y-reduction is the remainder
by Y1^2 - Q(X1), then by Y2^2 - Q(X2), one ``MPoly.rem_monic`` each.  Denominators arising anywhere in
the pipeline are products of X1, X2 and (X1 - X2).  After Y-reduction and
conjugate clearing an element goes through ``ratfun.normal_form`` with the
variable pair (X1, X2): it cancels the common monomial and the common power
of X1 - X2, exactly those factors, which keeps expression swell linear.

The module also provides the two coordinate bridges with the symmetric
function generators: substitution of

    a = (X1+X2)/2,  b = (X1-X2)^2/4,  c = (Y1-Y2)/(X1-X2),  d = (Y1+Y2)/2

and its inverse through the auxiliary variable s with X1 = a+s, X2 = a-s,
Y1 = d+s*c, Y2 = d-s*c, s^2 = b: the last is the remainder by s^2 - b.  Only c has a denominator, and as
X1 - X2 = 2s, a polynomial of degree k in c has in the s chart the
monomial denominator (2s)^k, whose common power s^j with the numerator cancels
before anything is expanded.  Every evaluation on the square is then one
polynomial substitution over the denominator (X1-X2)^(k-j) * 2^j,
normalized once (see ``abcd_to_xy``); a round trip through ``xy_to_abcd``
has j = k and divides nothing by X1 - X2.  Both substitutions are kept as
``poly.Substitution``s: one per field for ``abcd_to_xy``, whose curve
parameters belong to the field (``SymSqField.to_xy``), and one for the s
chart.  Each keeps the image of every monomial prefix it forms, the
powers of (X1+X2)/2, Y1-Y2, a+s, d-s*c and the rest among them, so a
later call forms no product that an earlier one formed.
"""

from fractions import Fraction
from functools import lru_cache

from .curve import CurveParams, y_symbols
from .errors import NotSymmetricError
from .poly import MPoly, Substitution, standard_weights
from .ratfun import RatFn, _as_mpoly, normal_form

_HALF = Fraction(1, 2)
_DX = MPoly.var("X1") - MPoly.var("X2")


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

    The arithmetic is ``RatFn``'s; an element adds its field, the
    Y-reduction and, in its normal form, the one non-monomial factor a
    denominator on the square shares with its numerator, X1 - X2.
    """

    __slots__ = ("field",)

    def __init__(self, field, num, den=1):
        num = field.reduce(_as_mpoly(num))
        den = field.reduce(_as_mpoly(den))
        # clear Y from the denominator by conjugate multiplication
        for yvar in ("Y1", "Y2"):
            if den.degree_in(yvar):
                # den = C0 + Y*C1 after reduction; its conjugate is C0 - Y*C1
                parts = den.coeffs_in(yvar)
                zero = MPoly.zero()
                conj = parts.get(0, zero) - MPoly.var(yvar) * parts.get(1, zero)
                num = field.reduce(num * conj)
                den = field.reduce(den * conj)
        num, den = normal_form(num, den, ("X1", "X2"))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

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

    def derivative(self, name):
        raise TypeError("a partial derivative ignores Y^2 = Q(X); "
                        "apply a derivations.Derivation instead")

    def subst(self, mapping):
        raise TypeError("a substitution ignores Y^2 = Q(X); "
                        "map the numerator and build a field element instead")


# -- coordinate bridges ------------------------------------------------------

def abcd_to_xy(expr, field):
    """Evaluate a polynomial in a,b,c,d and the curve parameters on the square.

    With 2s = X1 - X2, c = (Y1-Y2)/(2s) is the only generator with a
    denominator: expr * (2s)^k (k = deg_c expr) is a polynomial in the s
    chart, formed in one pass by ``MPoly.clear_denominator``.  There
    b = s^2, so the denominator (2s)^k is a monomial and its common power
    s^j with the numerator (j = min(k, least degree in s)) is cancelled
    before anything is expanded.  The field's kept substitution
    of a, c, d, s and the curve parameters then gives the numerator over
    (X1-X2)^(k-j) * 2^j.  The bridge variable s is (X1-X2)/2; other
    variables stand for themselves.
    """
    num, k = expr.clear_denominator("c", MPoly.var("s") * 2)
    num = num.subst({"b": MPoly.var("s", 2)})
    j = min(k, num.min_degree_in("s"))
    if j:
        num = num.exact_div(MPoly.var("s", j))
    return field.elem(field.to_xy()(num), _DX ** (k - j) * 2 ** j)


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
