"""Derivations of the symmetric-square field and the genus-2/3 transfer maps.

All operators used here are combinations of the two basic vector fields

    D_k = 2*Y_k d/dX_k + Q'(X_k) d/dY_k,     k = 1, 2,

of the form (p*D1 + q*D2)/den with polynomials p, q and a denominator den
among 1, X1 - X2 and X1*X2*(X1 - X2).  A derivation is built from that
(p, q, den) and stored as den and four polynomial coefficients, one per
coordinate generator, and applied to n/d through the quotient rule as one
polynomial over den*d^2, normalized once.  When d is a constant times
X1^i*X2^j*(X1-X2)^k, so is den*d^2, and the normalized pair is the one that
stepwise field arithmetic would reach.  Compatibility with the curve
relation Y_i^2 = Q(X_i) holds by construction: the coefficients of X_i and
Y_i are 2*Y_i and Q'(X_i) times the same p or q.
"""

from .errors import ConfigError
from .poly import MPoly, sum_polys
from .symsq import SymSqElem, SymSqField


class Derivation:
    """The derivation (p*D1 + q*D2)/den of ``field``, stored as the
    coefficient of each coordinate generator (``coeffs``, generator name ->
    MPoly) over the common denominator ``den``."""

    __slots__ = ("field", "coeffs", "den")

    def __init__(self, field, p, q, den):
        self.field = field
        self.coeffs = {"X1": p * MPoly.var("Y1") * 2, "Y1": p * field.dQ1,
                       "X2": q * MPoly.var("Y2") * 2, "Y2": q * field.dQ2}
        self.den = den

    def __call__(self, e):
        """Apply to n/d: sum_v coeff(v)*(d*dn/dv - n*dd/dv) over den*d^2."""
        if isinstance(e, MPoly):
            e = self.field.elem(e)
        if e.field is not self.field:
            raise ValueError("derivation and element live on different squares")
        n, d = e.num, e.den
        total = sum_polys(c * (d * n.derivative(v) - n * d.derivative(v))
                          for v, c in self.coeffs.items() if not c.is_zero)
        return self.field.elem(total, self.den * d * d)

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
    x1 = MPoly.var("X1")
    x2 = MPoly.var("X2")
    one = MPoly.const(1)
    dx = x1 - x2

    # name -> (p, q, den) with the derivation (p*D1 + q*D2) / den
    if name == "D1":
        p, q, den = 1, 0, one
    elif name == "D2":
        p, q, den = 0, 1, one
    elif name == f"L{2 * g - 3}":
        # (D2 - D1) / (X1 - X2)
        p, q, den = -1, 1, dx
    elif name == f"L{2 * g - 1}":
        # (X2*D1 - X1*D2) / (X1 - X2)
        p, q, den = x2, -x1, dx
    elif name in ("T1", "T3"):
        if g != 3:
            raise ConfigError("T1 and T3 require a genus-3 curve shape")
        if name == "T1":
            # -(1/(X1*X2)) * L5
            p, q = -x2, x1
        else:
            # L3 + ((X1+X2)/(X1*X2)) * L5
            p, q = x2 ** 2, -(x1 ** 2)
        den = x1 * x2 * dx
    else:
        raise ConfigError(f"unknown derivation {name!r} for genus {g}")
    return Derivation(field, p, q, den)


# -- transfer between the genus-2 square and the degenerate genus-3 square --

def psi1(e: SymSqElem, target: SymSqField) -> SymSqElem:
    """Field map X_i -> X_i, Y_i -> Y_i/X_i into the degenerate genus-3 square."""
    num, k1 = e.num.clear_denominator("Y1", MPoly.var("X1"))
    num, k2 = num.clear_denominator("Y2", MPoly.var("X2"))
    return target.elem(num, e.den * MPoly.var("X1", k1) * MPoly.var("X2", k2))


def psi2(e: SymSqElem, target: SymSqField) -> SymSqElem:
    """Inverse map X_i -> X_i, Y_i -> X_i*Y_i back to the genus-2 square."""
    sub = {"Y1": MPoly.var("X1") * MPoly.var("Y1"),
           "Y2": MPoly.var("X2") * MPoly.var("Y2")}
    return target.elem(e.num.subst(sub), e.den)
