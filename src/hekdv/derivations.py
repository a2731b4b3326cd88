"""Derivations of the symmetric-square field and the genus-2/3 transfer maps.

A derivation is specified by its images on the coordinate generators and
extended through the Leibniz and quotient rules.  All operators used here
are combinations of the two basic vector fields

    D_k = 2*Y_k d/dX_k + Q'(X_k) d/dY_k,     k = 1, 2,

divided by X1, X2 or X1 - X2; their images are compatible with the curve
relation, which is asserted at construction time.
"""

from dataclasses import dataclass

from .errors import ConfigError
from .poly import MPoly
from .symsq import SymSqElem, SymSqField, clear_denominator

_GEN_NAMES = ("X1", "Y1", "X2", "Y2")


@dataclass(frozen=True)
class Derivation:
    name: str
    field: SymSqField
    images: dict

    def __post_init__(self):
        missing = set(_GEN_NAMES) - set(self.images)
        if missing:
            raise ConfigError(f"derivation lacks images for {sorted(missing)}")

    def check_compatible(self):
        """2*Y_i * image(Y_i) == Q'(X_i) * image(X_i) in the field."""
        f = self.field
        ok = True
        for xv, yv, dQ in (("X1", "Y1", f.dQ1), ("X2", "Y2", f.dQ2)):
            lhs = f.elem(MPoly.var(yv)) * 2 * self.images[yv]
            rhs = f.elem(dQ) * self.images[xv]
            ok = ok and (lhs == rhs)
        return ok

    def __call__(self, e):
        """Apply to a field element via partials, Leibniz and quotient rule."""
        if isinstance(e, MPoly):
            e = self.field.elem(e)
        if e.field is not self.field:
            raise ValueError("derivation and element live on different squares")
        dnum = self._apply_poly(e.num)
        if e.den.as_constant() == 1:
            return dnum
        dden = self._apply_poly(e.den)
        den_el = self.field.elem(e.den)
        num_el = self.field.elem(e.num)
        return (dnum * den_el - num_el * dden) / (den_el * den_el)

    def _apply_poly(self, p):
        total = self.field.zero()
        for v in _GEN_NAMES:
            dp = p.derivative(v)
            if not dp.is_zero:
                total = total + self.field.elem(dp) * self.images[v]
        return total

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
    y1 = MPoly.var("Y1")
    y2 = MPoly.var("Y2")
    dx = x1 - x2
    el = field.elem

    if name == "D1":
        images = {"X1": el(2 * y1), "Y1": el(field.dQ1),
                  "X2": field.zero(), "Y2": field.zero()}
    elif name == "D2":
        images = {"X1": field.zero(), "Y1": field.zero(),
                  "X2": el(2 * y2), "Y2": el(field.dQ2)}
    elif name == f"L{2 * g - 3}":
        # (D2 - D1) / (X1 - X2)
        images = {"X1": el(-2 * y1, dx), "Y1": el(-1 * field.dQ1, dx),
                  "X2": el(2 * y2, dx), "Y2": el(field.dQ2, dx)}
    elif name == f"L{2 * g - 1}":
        # (X2*D1 - X1*D2) / (X1 - X2)
        images = {"X1": el(2 * x2 * y1, dx), "Y1": el(x2 * field.dQ1, dx),
                  "X2": el(-2 * x1 * y2, dx), "Y2": el(-1 * x1 * field.dQ2, dx)}
    elif name in ("T1", "T3"):
        if g != 3:
            raise ConfigError("T1 and T3 require a genus-3 curve shape")
        if name == "T1":
            # -(1/(X1*X2)) * L5
            images = {"X1": el(-2 * y1, x1 * dx),
                      "Y1": el(-1 * field.dQ1, x1 * dx),
                      "X2": el(2 * y2, x2 * dx),
                      "Y2": el(field.dQ2, x2 * dx)}
        else:
            # L3 + ((X1+X2)/(X1*X2)) * L5
            images = {"X1": el(2 * x2 * y1, x1 * dx),
                      "Y1": el(x2 * field.dQ1, x1 * dx),
                      "X2": el(-2 * x1 * y2, x2 * dx),
                      "Y2": el(-1 * x1 * field.dQ2, x2 * dx)}
    else:
        raise ConfigError(f"unknown derivation {name!r} for genus {g}")
    return Derivation(name, field, images)


# -- transfer between the genus-2 square and the degenerate genus-3 square --

def psi1(e: SymSqElem, target: SymSqField) -> SymSqElem:
    """Field map X_i -> X_i, Y_i -> Y_i/X_i into the degenerate genus-3 square."""
    num, k1 = clear_denominator(e.num, "Y1", MPoly.var("X1"))
    num, k2 = clear_denominator(num, "Y2", MPoly.var("X2"))
    return target.elem(num, e.den * MPoly.var("X1", k1) * MPoly.var("X2", k2))


def psi2(e: SymSqElem, target: SymSqField) -> SymSqElem:
    """Inverse map X_i -> X_i, Y_i -> X_i*Y_i back to the genus-2 square."""
    sub = {v: MPoly.var(v) for v in e.num.variables_used()}
    sub.update(Y1=MPoly.var("X1") * MPoly.var("Y1"),
               Y2=MPoly.var("X2") * MPoly.var("Y2"))
    return target.elem(e.num.subst(sub), e.den)
