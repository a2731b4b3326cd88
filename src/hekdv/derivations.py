"""Derivations of the symmetric-square field and the genus-2/3 transfer maps.

All operators used here are combinations of the two basic vector fields

    D_k = 2*Y_k d/dX_k + Q'(X_k) d/dY_k,     k = 1, 2,

of the form (p*D1 + q*D2)/den with polynomials p, q and a denominator den
among 1, X1 - X2 and X1*X2*(X1 - X2).  A derivation is built from that
(p, q, den) and stored as the exponents of den in X1, X2 and X1 - X2 and
four polynomial coefficients, one per coordinate generator.  It is applied
to n/d, for d = X1^i*X2^j*(X1-X2)^k, through the logarithmic derivative
D(d)/d = i*D(X1)/X1 + j*D(X2)/X2 + k*D(X1-X2)/(X1-X2): with L the product
of the factors present in d,

    D(n/d) = (L*D(n) - n*sum_p e_p*(L/p)*D(p)) / (den*d*L),

one numerator over exponents, normalized once; neither den*d^2 nor d
itself is formed.  An element with a cofactor R != 1 in its denominator
takes the quotient rule over den*d^2 on the expanded polynomials.  The
transfer maps pass exponents too.  Compatibility with the curve relation
Y_i^2 = Q(X_i) holds by construction: the coefficients of X_i and Y_i are
2*Y_i and Q'(X_i) times the same p or q.
"""

from math import prod

from .errors import ConfigError
from .poly import MPoly, sum_polys
from .symsq import SymSqElem, SymSqField, x_part

_X1, _X2, _ONE = MPoly.var("X1"), MPoly.var("X2"), MPoly.const(1)
_DX = _X1 - _X2


class Derivation:
    """The derivation (p*D1 + q*D2)/den of ``field``, stored as the
    coefficient of each coordinate generator (``coeffs``, generator name ->
    MPoly) over the common denominator X1^i*X2^j*(X1-X2)^k, ``den`` =
    (i, j, k)."""

    __slots__ = ("field", "coeffs", "den")

    def __init__(self, field, p, q, den):
        self.field = field
        self.coeffs = {"X1": p * MPoly.var("Y1") * 2, "Y1": p * field.dQ1,
                       "X2": q * MPoly.var("Y2") * 2, "Y2": q * field.dQ2}
        self.den = den

    def _on_poly(self, p):
        return sum_polys(c * p.derivative(v)
                         for v, c in self.coeffs.items() if not c.is_zero)

    def __call__(self, e):
        """Apply to n/d by the logarithmic derivative of d (module doc)."""
        if isinstance(e, MPoly):
            e = self.field.elem(e)
        if e.field is not self.field:
            raise ValueError("derivation and element live on different squares")
        n = e.num
        if e.den_rest is not None:
            d = e.den
            return self.field.elem(self._on_poly(n) * d - n * self._on_poly(d),
                                   x_part(*self.den) * d * d)
        # each factor p of d present in it, its exponent and its image D(p)
        i, j, k = e.den_exps
        cx1, cx2 = self.coeffs["X1"], self.coeffs["X2"]
        factors = [f for f in ((_X1, i, cx1), (_X2, j, cx2)) if f[1]]
        if k:
            factors.append((_DX, k, cx1 - cx2))
        num = self._on_poly(n)
        if factors:
            logd = sum_polys(dp * ep * prod((q for q, _, _ in factors
                                             if q is not p), start=_ONE)
                             for p, ep, dp in factors)
            num = num * prod((p for p, _, _ in factors), start=_ONE) - n * logd
        return self.field.over(num, tuple(
            a + b + (b > 0) for a, b in zip(self.den, e.den_exps)))

    def commutator_on(self, other, e):
        """[self, other] applied to e."""
        return self(other(e)) - other(self(e))


def make_derivation(field: SymSqField, name: str) -> Derivation:
    """Construct one of the named derivations on the given square.

    Names: "D1", "D2" (the basic vector fields); "L{2g-3}", "L{2g-1}" (the
    commuting pair, i.e. L1/L3 at genus 2 and L3/L5 at genus 3); "T1", "T3"
    (the rational pair, genus-3 shape only).
    """
    g = field.params.genus
    x1, x2 = _X1, _X2

    # name -> (p, q, den) with the derivation (p*D1 + q*D2) / den, den
    # given by its exponents of X1, X2 and X1 - X2
    if name == "D1":
        p, q, den = 1, 0, (0, 0, 0)
    elif name == "D2":
        p, q, den = 0, 1, (0, 0, 0)
    elif name == f"L{2 * g - 3}":
        # (D2 - D1) / (X1 - X2)
        p, q, den = -1, 1, (0, 0, 1)
    elif name == f"L{2 * g - 1}":
        # (X2*D1 - X1*D2) / (X1 - X2)
        p, q, den = x2, -x1, (0, 0, 1)
    elif name in ("T1", "T3"):
        if g != 3:
            raise ConfigError("T1 and T3 require a genus-3 curve shape")
        if name == "T1":
            # -(1/(X1*X2)) * L5
            p, q = -x2, x1
        else:
            # L3 + ((X1+X2)/(X1*X2)) * L5
            p, q = x2 ** 2, -(x1 ** 2)
        den = (1, 1, 1)
    else:
        raise ConfigError(f"unknown derivation {name!r} for genus {g}")
    return Derivation(field, p, q, den)


# -- transfer between the genus-2 square and the degenerate genus-3 square --

def psi1(e: SymSqElem, target: SymSqField) -> SymSqElem:
    """Field map X_i -> X_i, Y_i -> Y_i/X_i into the degenerate genus-3 square."""
    num, k1 = e.num.clear_denominator("Y1", _X1)
    num, k2 = num.clear_denominator("Y2", _X2)
    if e.den_rest is not None:
        return target.elem(num, e.den * MPoly.var("X1", k1) * MPoly.var("X2", k2))
    i, j, k = e.den_exps
    return target.over(num, (i + k1, j + k2, k))


def psi2(e: SymSqElem, target: SymSqField) -> SymSqElem:
    """Inverse map X_i -> X_i, Y_i -> X_i*Y_i back to the genus-2 square."""
    num = e.num.subst({"Y1": _X1 * MPoly.var("Y1"), "Y2": _X2 * MPoly.var("Y2")})
    if e.den_rest is not None:
        return target.elem(num, e.den)
    return target.over(num, e.den_exps)
