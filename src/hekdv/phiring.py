"""The quotient ring Q(w3,w5)[phi] modulo the monic sextic divisor relation,
and the corrected rational-limit solution checks that live in it.

The relation phi^6 = 15 phi^3 w3 + 45 w3^2 - 45 phi w5 is 45 times the
rational-limit sigma polynomial at w1 = phi, so its phi-derivative is
45 sigma_1(phi): every denominator in the pipeline is a rational multiple
of a power of sigma_1(phi), which fractions carry explicitly, and every
equality is certified fraction-free by cross-multiplication in the ring.
An element is an ``algnum.QuotientElem`` by the relation; ring elements
are never divided.
"""

from fractions import Fraction
from functools import lru_cache

from .algnum import AlgNum, QuotientElem, in_powers
from .errors import ConfigError
from .poly import MPoly, Ring, eval_poly, variables
from .ratlimit import sigma_rational
from .report import ReportBuilder
from .series import PSeries, eval_at_series, newton_solve

w3, w5, phi_var, t_var = variables("w3", "w5", "phi", "t")

_ZERO = MPoly.zero()
# the relation is phi^6 = _TAIL
_TAIL = 15 * phi_var ** 3 * w3 + 45 * w3 ** 2 - 45 * phi_var * w5
_MODULUS = ("phi", 6, _TAIL)


class PhiRingElem(QuotientElem):
    """One MPoly of phi-degree below 6; ``coeffs`` are its six coefficient
    polynomials in w3, w5, constant term first.  It refuses ``inverse``."""

    __slots__ = ()

    def __new__(cls, coeffs):
        return cls._reduced(in_powers("phi", coeffs), _MODULUS)

    @property
    def coeffs(self):
        parts = self.poly.coeffs_in("phi")
        return tuple(parts.get(k, _ZERO) for k in range(6))

    @staticmethod
    def from_mpoly(p):
        """A polynomial in (phi, w3, w5), reduced by the sextic."""
        return PhiRingElem._reduced(p, _MODULUS)

    @staticmethod
    def const(c):
        return PhiRingElem._reduced(MPoly.const(c), _MODULUS)

    def _lift(self, other):
        return phi_reduce(other)

    def d_w(self, name):
        """Formal partial derivative in w3 or w5 (phi held fixed)."""
        return self._make(self.poly.derivative(name))

    def d_phi(self):
        """Formal partial derivative in phi of the reduced representative."""
        return self._make(self.poly.derivative("phi"))

    def __str__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c.is_zero:
                head = f"({c})"
                parts.append(head if k == 0 else f"{head}*phi^{k}")
        return " + ".join(parts) if parts else "0"


def phi_reduce(p):
    """``p`` in the ring: a polynomial in (phi, w3, w5) as its remainder by
    the sextic, a scalar as a constant, a ring element as it stands."""
    if isinstance(p, PhiRingElem):
        return p
    if isinstance(p, MPoly):
        return PhiRingElem.from_mpoly(p)
    if isinstance(p, (int, Fraction)):
        return PhiRingElem.const(p)
    if isinstance(p, QuotientElem):
        raise ValueError("mixed quotient rings")
    raise TypeError(f"cannot combine a ring element with {type(p).__name__}")


def sextic_relation():
    """The defining relation as a polynomial in (phi, w3, w5)."""
    return phi_var ** 6 - _TAIL


@lru_cache(maxsize=None)
def sigma_on_ring(key):
    """sigma's partial by multi-index ("" for sigma) at w1 = phi."""
    mapped = sigma_rational(3).partial(key).subst({"w1": phi_var})
    return PhiRingElem.from_mpoly(mapped)


@lru_cache(maxsize=None)
def _sigma1_power(k):
    return sigma_on_ring("1") ** k


class PhiFrac(Ring):
    """num / sigma_1(phi)^k, the only fraction shape the checks need."""

    __slots__ = ("num", "k")

    def __init__(self, num, k=0):
        object.__setattr__(self, "num", phi_reduce(num))
        object.__setattr__(self, "k", k)

    @property
    def is_zero(self):
        return self.num.is_zero

    def _lift(self, other):
        return other if isinstance(other, PhiFrac) else PhiFrac(other)

    def __add__(self, other):
        other = self._lift(other)
        k = max(self.k, other.k)
        a = self.num * _sigma1_power(k - self.k)
        b = other.num * _sigma1_power(k - other.k)
        return PhiFrac(a + b, k)

    def __neg__(self):
        return PhiFrac(-self.num, self.k)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PhiFrac(self.num * other, self.k)
        other = self._lift(other)
        return PhiFrac(self.num * other.num, self.k + other.k)

    def __pow__(self, n):
        return PhiFrac(self.num ** n, self.k * n)

    def __str__(self):
        return f"({self.num}) / sigma1^{self.k}"

    __repr__ = __str__


def d_total(frac, wname):
    """Total derivative along the divisor: phi varies implicitly with w.

    d/dw (n / s1^k) with dphi/dw = -sigma_w(phi)/sigma_1(phi); both the
    numerator rule and the chain rule keep denominators inside sigma_1
    powers, courtesy of the relation's derivative being 45 sigma_1.
    """
    key = {"w3": "3", "w5": "5"}[wname]
    s1 = sigma_on_ring("1")
    sw = sigma_on_ring(key)
    n = frac.num
    # total derivative of the numerator: n_w * s1 - n_phi * sw, over s1
    dn = n.d_w(wname) * s1 - n.d_phi() * sw
    if frac.k == 0:
        return PhiFrac(dn, 1)
    # quotient rule against s1^k: s1' (total) = s1_w * s1 - s1_phi * sw, over s1
    ds1 = s1.d_w(wname) * s1 - s1.d_phi() * sw
    num = dn * s1 - n * ds1 * frac.k
    return PhiFrac(num, frac.k + 2)


# -- the corrected solution components -----------------------------------

# f-function name -> multi-index of the sigma partial in its numerator
_F_KEYS = {"f1": "11", "f2": "3", "f3": "13", "f4": "5",
           "f5": "33", "g5": "15", "f7": "35"}


def _combine(f, i):
    """F_i from its defining combination of the f-functions in ``f``."""
    f1, f2, f3, f4, f5, g5, f7 = (
        f[n] for n in ("f1", "f2", "f3", "f4", "f5", "g5", "f7"))
    if i == 2:
        return f2 * Fraction(-1, 2)
    if i == 4:
        return f2 * f2 * Fraction(1, 4) - f4
    if i == 5:
        return (f1 * f2 * f2 + f5 - f2 * f3 * 2) * Fraction(1, 2)
    if i == 7:
        return (f2 * f2 * f3 * 2 - f3 * f4 * 2 - f1 * f2 ** 3
                + f1 * f2 * f4 * 2 - f2 * f5 + f7 * 2
                - f2 * g5 * 2) * Fraction(1, 4)
    raise ConfigError(f"no solution component with index {i}")


@lru_cache(maxsize=None)
def f_component(name):
    """f-functions as fractions: sigma partial over sigma_1."""
    return PhiFrac(sigma_on_ring(_F_KEYS[name]), 1)


@lru_cache(maxsize=None)
def solution_component(i):
    """F_i built from its defining combination of the f-functions."""
    return _combine({n: f_component(n) for n in _F_KEYS}, i)


def printed_forms():
    """The corrected numerators N_i and denominators K_i, as ring elements."""
    p = phi_var
    N = {
        2: 5 * (p ** 3 + 6 * w3),
        4: 15 * (-1 * p ** 3 * w3 + 15 * p * w5 - 15 * w3 ** 2),
        5: (-15 * w5 ** 2 - 195 * p ** 2 * w3 * w5 + 8 * p ** 5 * w5
            + 135 * p * w3 ** 3 + 63 * p ** 4 * w3 ** 2),
        7: -15 * p * (25 * p ** 2 * w5 ** 2 - 45 * p * w3 ** 2 * w5
                      - 15 * p ** 4 * w3 * w5 + 27 * w3 ** 4
                      + 18 * p ** 3 * w3 ** 3),
    }
    K = {
        2: 2 * (2 * p ** 5 - 15 * p ** 2 * w3 + 15 * w5),
        4: 4 * (-8 * p ** 5 * w5 + 27 * p ** 4 * w3 ** 2
                - 30 * p ** 2 * w3 * w5 + 15 * w5 ** 2),
        5: 3 * (5 * w5 ** 3 + 165 * p ** 2 * w3 * w5 ** 2 + 14 * p ** 5 * w5 ** 2
                - 585 * p * w3 ** 3 * w5 - 111 * p ** 4 * w3 ** 2 * w5
                + 405 * w3 ** 5 + 189 * p ** 3 * w3 ** 4),
        7: 2 * (15 * w5 ** 4 - 4380 * p ** 2 * w3 * w5 ** 3 - 208 * p ** 5 * w5 ** 3
                + 28620 * p * w3 ** 3 * w5 ** 2 + 3042 * p ** 4 * w3 ** 2 * w5 ** 2
                - 24300 * w3 ** 5 * w5 - 11583 * p ** 3 * w3 ** 4 * w5
                + 2187 * p ** 2 * w3 ** 6 + 729 * p ** 5 * w3 ** 5),
    }
    return ({i: PhiRingElem.from_mpoly(v) for i, v in N.items()},
            {i: PhiRingElem.from_mpoly(v) for i, v in K.items()})


def appendix_F(i):
    """The computed F_i as a (numerator, denominator) pair of ring elements."""
    comp = solution_component(i)
    return comp.num, _sigma1_power(comp.k)


def verify_appendix_forms(printed=None):
    """Cross-multiplied equality of computed F_i with the printed N_i/K_i."""
    rb = ReportBuilder("app-F-forms", "corrected closed forms F2, F4, F5, F7")
    N, K = printed if printed is not None else printed_forms()
    rb.expect("relation is 45*sigma(phi)", sigma_on_ring("").is_zero)
    for i in (2, 4, 5, 7):
        num, den = appendix_F(i)
        rb.residual(f"F{i} * K{i} - N{i} * den", num * K[i] - N[i] * den)
    return rb.build()


def verify_ratc():
    """The eight flow equations for G_i = F_i(phi, t, tau), exactly."""
    rb = ReportBuilder("thm-A.1", "flow equations for the quotient-ring solution")
    G = {i: solution_component(i) for i in (2, 4, 5, 7)}
    # implicit-derivative cross-check against the printed fractions:
    # dphi/dt = (15 phi^3 + 90 t) / (6 phi^5 - 45 phi^2 t + 45 tau)
    s1 = sigma_on_ring("1")
    s3 = sigma_on_ring("3")
    printed_num = PhiRingElem.from_mpoly(15 * phi_var ** 3 + 90 * w3)
    printed_den = PhiRingElem.from_mpoly(
        6 * phi_var ** 5 - 45 * phi_var ** 2 * w3 + 45 * w5)
    rb.residual("printed dphi/dt numerator = -45*sigma_3(phi)",
                printed_num + s3 * 45)
    rb.residual("printed dphi/dt denominator = 45*sigma_1(phi)",
                printed_den - s1 * 45)
    g2, g4, g5_, g7 = G[2], G[4], G[5], G[7]
    flows = [
        ("d/dt G2 + G5", d_total(g2, "w3") + g5_),
        ("d/dt G4 + 2 G7", d_total(g4, "w3") + g7 * 2),
        ("d/dt G5 + 35 G2^4 + 42 G2^2 G4 + 3 G4^2",
         d_total(g5_, "w3") + g2 ** 4 * 35 + g2 * g2 * g4 * 42 + g4 * g4 * 3),
        ("d/dt G7 + 7(3 G2^5 + 10 G2^3 G4 + 3 G2 G4^2)",
         d_total(g7, "w3") + g2 ** 5 * 21 + g2 ** 3 * g4 * 70 + g2 * g4 * g4 * 21),
        ("d/dtau G2 - (G2 G5 - G7)", d_total(g2, "w5") - g2 * g5_ + g7),
        ("d/dtau G4 - 2(G2 G7 - G4 G5)",
         d_total(g4, "w5") - g2 * g7 * 2 + g4 * g5_ * 2),
        ("d/dtau G5 - (G5^2 + 14 G2^5 - 28 G2^3 G4 - 18 G2 G4^2)",
         d_total(g5_, "w5") - g5_ * g5_ - g2 ** 5 * 14 + g2 ** 3 * g4 * 28
         + g2 * g4 * g4 * 18),
        ("d/dtau G7 - (-G5 G7 + 21 G2^6 + 35 G2^4 G4 - 21 G2^2 G4^2 - 3 G4^3)",
         d_total(g7, "w5") + g5_ * g7 - g2 ** 6 * 21 - g2 ** 4 * g4 * 35
         + g2 ** 2 * g4 ** 2 * 21 + g4 ** 3 * 3),
    ]
    for label, resid in flows:
        rb.residual(label, resid)
    return rb.build()


# -- Example 1: series branch through the origin ---------------------------

def phi_series_example1(order=15):
    """Series solution phi(t) of the relation at w5 = 1, branch phi ~ t^2.

    The default order extends two terms past the last coefficient the
    verification pins down.
    """
    if order < 2:
        raise ConfigError("the seed already has order 2")
    rel = sextic_relation().subst({"w3": t_var, "w5": MPoly.const(1)})
    seed = PSeries("t", [0, 0, 1], 2)
    return newton_solve(rel, order, seed)


def verify_example1(expected=None):
    rb = ReportBuilder("ex-A.1", "series expansion of the divisor branch")
    series = phi_series_example1(12)
    want = expected or {2: Fraction(1), 7: Fraction(1, 3), 12: Fraction(14, 45)}
    for k in range(13):
        target = want.get(k, Fraction(0))
        rb.expect(f"coefficient of t^{k} = {target}", series[k] == target)
    rel = sextic_relation().subst({"w3": t_var, "w5": MPoly.const(1)})
    back = eval_at_series(rel, {"phi": series, "t": PSeries.identity("t", 12)})
    rb.expect("substituted back: zero through t^12", back.is_zero)
    return rb.build()


# -- Example 3: the algebraic point with w3 = t, w5 = 0 --------------------

MINPOLY_Q = (Fraction(-45), Fraction(0), Fraction(0),
             Fraction(-15), Fraction(0), Fraction(0), Fraction(1))


class ThetaVal(Ring):
    """AlgNum coefficient times an integer power of theta (theta^3 = t)."""

    __slots__ = ("coeff", "exp")

    def __init__(self, coeff, exp=0):
        if not isinstance(coeff, AlgNum):
            coeff = AlgNum.const(MINPOLY_Q, coeff)
        if coeff.is_zero:
            exp = 0
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "exp", exp)

    @property
    def is_zero(self):
        return self.coeff.is_zero

    def _lift(self, other):
        """A ThetaVal, or an int/Fraction as a theta-degree-0 value."""
        if isinstance(other, ThetaVal):
            return other
        if isinstance(other, (int, Fraction)):
            return ThetaVal(other)
        raise TypeError(f"cannot combine a ThetaVal with {type(other).__name__}")

    def __add__(self, other):
        other = self._lift(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        if self.exp != other.exp:
            raise ArithmeticError(
                "mixing theta-degrees; inputs were not weighted-homogeneous")
        return ThetaVal(self.coeff + other.coeff, self.exp)

    def __neg__(self):
        return ThetaVal(-self.coeff, self.exp)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return ThetaVal(self.coeff * other, self.exp)
        other = self._lift(other)
        return ThetaVal(self.coeff * other.coeff, self.exp + other.exp)

    def __truediv__(self, other):
        other = self._lift(other)
        return ThetaVal(self.coeff / other.coeff, self.exp - other.exp)

    def __pow__(self, n):
        return ThetaVal(self.coeff ** n, self.exp * n)

    def __eq__(self, other):
        # values of different theta-degrees are unequal, not an error
        try:
            other = self._lift(other)
        except TypeError:
            return NotImplemented
        if self.is_zero and other.is_zero:
            return True
        return self.coeff == other.coeff and self.exp == other.exp

    def __str__(self):
        return f"({self.coeff}) * theta^{self.exp}"

    __repr__ = __str__


def _sigma_at_point(key):
    """Evaluate a sigma partial at (w1, w3, w5) = (q*theta, theta^3, 0)."""
    p = sigma_rational(3).partial(key)
    point = {"w1": ThetaVal(AlgNum.generator(MINPOLY_Q), 1),
             "w3": ThetaVal(1, 3), "w5": ThetaVal(0)}
    return eval_poly(p, point, ThetaVal(1))


def example3_values():
    """All four solution components at the algebraic point, plus sigma_1."""
    svals = {k: _sigma_at_point(k) for k in ("", "1", *_F_KEYS.values())}
    inv_s1 = 1 / svals["1"]
    f = {n: svals[k] * inv_s1 for n, k in _F_KEYS.items()}
    return {i: _combine(f, i) for i in (2, 4, 5, 7)}, svals


def verify_example3(expected=None):
    rb = ReportBuilder("ex-A.3", "solution values at the algebraic point")
    qgen = AlgNum.generator(MINPOLY_Q)
    # the point satisfies the relation: theta^6 * (q^6 - 15 q^3 - 45) = 0
    rb.expect("relation holds for phi = q*theta",
              (qgen ** 6 - qgen ** 3 * 15 - 45).is_zero)
    F, svals = example3_values()
    if expected is None:
        expected = {
            2: ThetaVal(qgen * Fraction(1, 6), -2),
            4: ThetaVal((qgen ** 3 + 15) * Fraction(-5)
                        / (qgen ** 4 * 36), -4),
            5: ThetaVal(qgen * Fraction(1, 9), -5),
            7: ThetaVal((qgen ** 3 * 2 + 3) * Fraction(-5)
                        / (qgen * (qgen ** 3 + 3) * 54), -7),
        }
    for i in (2, 4, 5, 7):
        rb.expect(f"F{i} equals printed value", F[i] == expected[i])
    want_s1 = ThetaVal(qgen ** 2 * (qgen ** 3 * 2 - 15) * Fraction(1, 15), 5)
    rb.expect("sigma_1 at the base point = q^2(2q^3-15)/15",
              svals["1"] == want_s1)
    rb.expect("sigma vanishes at the point", svals[""].is_zero)
    return rb.build()


def suite_appendix():
    return [verify_appendix_forms(), verify_ratc(),
            verify_example1(), verify_example3()]
