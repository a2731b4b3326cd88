"""Derivations of the symmetric-square field and the genus-2/3 transfer maps.

All operators used here are combinations of the two basic vector fields

    D_k = 2*Y_k d/dX_k + Q'(X_k) d/dY_k,     k = 1, 2,

of the form (p*D1 + q*D2)/den with polynomials p, q and a denominator den
among 1, X1 - X2 and X1*X2*(X1 - X2).  A derivation is therefore stored as
that one denominator and four polynomial coefficients, one per coordinate
generator, and applied to n/d through the quotient rule as one polynomial
over den*d^2, normalized once.  When d is a constant times X1^i*X2^j*
(X1-X2)^k, so is den*d^2, and the normalized pair is the one that stepwise
field arithmetic would reach.  Compatibility with the curve relation is a
polynomial identity between the coefficients.
"""

from dataclasses import dataclass

from .errors import ConfigError
from .poly import MPoly, sum_polys
from .symsq import SymSqElem, SymSqField, clear_denominator

_GEN_NAMES = ("X1", "Y1", "X2", "Y2")


@dataclass(frozen=True)
class Derivation:
    name: str
    field: SymSqField
    coeffs: dict   # generator name -> MPoly coefficient over den
    den: MPoly

    def __post_init__(self):
        missing = set(_GEN_NAMES) - set(self.coeffs)
        if missing:
            raise ConfigError(f"derivation lacks coefficients for {sorted(missing)}")

    @property
    def images(self):
        """The images of the coordinate generators, as field elements."""
        return {v: self.field.elem(self.coeffs[v], self.den) for v in _GEN_NAMES}

    def check_compatible(self):
        """2*Y_i * coeff(Y_i) == Q'(X_i) * coeff(X_i) modulo the curve relation."""
        f = self.field
        c = self.coeffs
        return all(
            f.reduce(MPoly.var(yv) * 2 * c[yv] - dQ * c[xv]).is_zero
            for xv, yv, dQ in (("X1", "Y1", f.dQ1), ("X2", "Y2", f.dQ2)))

    def __call__(self, e):
        """Apply to n/d: sum_v coeff(v)*(d*dn/dv - n*dd/dv) over den*d^2."""
        if isinstance(e, MPoly):
            e = self.field.elem(e)
        if e.field is not self.field:
            raise ValueError("derivation and element live on different squares")
        n, d = e.num, e.den
        coeffs = [(v, self.coeffs[v]) for v in _GEN_NAMES]
        total = sum_polys(c * (d * n.derivative(v) - n * d.derivative(v))
                          for v, c in coeffs if not c.is_zero)
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
    coeffs = {"X1": p * MPoly.var("Y1") * 2, "Y1": p * field.dQ1,
              "X2": q * MPoly.var("Y2") * 2, "Y2": q * field.dQ2}
    return Derivation(name, field, coeffs, den)


# -- transfer between the genus-2 square and the degenerate genus-3 square --

def psi1(e: SymSqElem, target: SymSqField) -> SymSqElem:
    """Field map X_i -> X_i, Y_i -> Y_i/X_i into the degenerate genus-3 square."""
    num, k1 = clear_denominator(e.num, "Y1", MPoly.var("X1"))
    num, k2 = clear_denominator(num, "Y2", MPoly.var("X2"))
    return target.elem(num, e.den * MPoly.var("X1", k1) * MPoly.var("X2", k2))


def psi2(e: SymSqElem, target: SymSqField) -> SymSqElem:
    """Inverse map X_i -> X_i, Y_i -> X_i*Y_i back to the genus-2 square."""
    sub = {"Y1": MPoly.var("X1") * MPoly.var("Y1"),
           "Y2": MPoly.var("X2") * MPoly.var("Y2")}
    return target.elem(e.num.subst(sub), e.den)
