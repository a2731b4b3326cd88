"""Closed forms at the rational limit (all curve parameters zero).

The sigma function degenerates to a Schur polynomial in the w-variables;
everything downstream of that is exact rational-function arithmetic: the
divisor parametrization xi, the solution pair U, V, the hierarchy
residuals, and the comparison with the genus-2 logarithmic-derivative
solution D, E.
"""

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import ConfigError
from .poly import MPoly, variables
from .ratfun import RatFn
from .report import ReportBuilder

w1, w3, w5 = variables("w1", "w3", "w5")
x_var, t_var = variables("x", "t")


class SigmaRat:
    """Rational-limit sigma polynomial with its cached partial derivatives
    (``partials``, multi-index like "", "1", "13" -> MPoly)."""

    __slots__ = ("sigma", "partials")

    def __init__(self, sigma, partials):
        self.sigma = sigma
        self.partials = partials

    def partial(self, key):
        key = "".join(sorted(key))
        try:
            return self.partials[key]
        except KeyError:
            raise ConfigError(f"partial derivative {key!r} not cached")


@lru_cache(maxsize=None)
def sigma_rational(genus):
    """The Schur polynomial of the staircase partition of genus 2 or 3,
    built once per genus; callers share it, so its partials are read-only."""
    if genus == 2:
        sig = -1 * w3 + w1 ** 3 * Fraction(1, 3)
    elif genus == 3:
        sig = (w1 * w5 - w3 ** 2 - w1 ** 3 * w3 * Fraction(1, 3)
               + w1 ** 6 * Fraction(1, 45))
    else:
        raise ConfigError("rational-limit sigma implemented for genus 2 and 3")
    partials = {"": sig}
    names = [("1", "w1"), ("3", "w3"), ("5", "w5")][:genus]
    for key, var in names:
        partials[key] = sig.derivative(var)
    for k1, v1 in names:
        for k2, v2 in names:
            if k1 <= k2:
                partials[k1 + k2] = partials[k1].derivative(v2)
    return SigmaRat(sig, MappingProxyType(partials))


def xi_closed_form():
    """The divisor parametrization w5 = xi(w1, w3); checked against sigma."""
    xi = (RatFn(w3 ** 2, w1) + RatFn(w1 ** 2 * w3) * Fraction(1, 3)
          - RatFn(w1 ** 5) * Fraction(1, 45))
    sig = sigma_rational(3)
    on_divisor = _compose_w5(RatFn(sig.sigma), xi)
    if not on_divisor.is_zero:
        raise ArithmeticError("xi does not parametrize the divisor")
    return xi


def _compose_w5(rf, xi):
    """Substitute w5 -> xi(w1, w3) in a rational function of w1, w3, w5."""
    return rf.subst({"w1": RatFn(w1), "w3": RatFn(w3), "w5": xi})


def _to_xt(rf):
    """Rename (w1, w3) into the solution variables (x, t)."""
    return rf.subst({"w1": RatFn(x_var), "w3": RatFn(t_var)})


def uv_closed_form():
    """U = -2 sigma_3/sigma_1 and V = -2 sigma_5/sigma_1 composed with xi."""
    sig = sigma_rational(3)
    xi = xi_closed_form()
    s1 = _compose_w5(RatFn(sig.partial("1")), xi)
    s3 = _compose_w5(RatFn(sig.partial("3")), xi)
    s5 = _compose_w5(RatFn(sig.partial("5")), xi)
    U = _to_xt(s3 / s1) * Fraction(-2)
    V = _to_xt(s5 / s1) * Fraction(-2)
    return U, V


def printed_U():
    return RatFn(6 * x_var * (x_var ** 3 + 6 * t_var),
                 (x_var ** 3 - 3 * t_var) ** 2)


def printed_V():
    return RatFn(-18 * x_var ** 2, (x_var ** 3 - 3 * t_var) ** 2)


def kdv_residuals(U, V):
    """The three hierarchy residuals for an explicit solution pair."""
    Up = U.derivative("x")
    Uppp = Up.derivative("x").derivative("x")
    Udot = U.derivative("t")
    Vp = V.derivative("x")
    Udotpp = Udot.derivative("x").derivative("x")
    return (
        ("U''' - 4 Udot - 6 U U'", Uppp - Udot * 4 - U * Up * 6),
        ("Udot'' - 4 U Udot - 2 U' V", Udotpp - U * Udot * 4 - Up * V * 2),
        ("Udot - V'", Udot - Vp),
    )


def verify_uv_closed_form(expected_U=None, expected_V=None):
    """The sigma-quotient solution equals the printed closed forms exactly."""
    rb = ReportBuilder("sec-8-UV", "closed-form solution pair U, V")
    U, V = uv_closed_form()
    rb.equal("U matches printed closed form", U, expected_U or printed_U())
    rb.equal("V matches printed closed form", V, expected_V or printed_V())
    # spot value fixed by the closed form
    rb.expect("U(1,0) = 6", U.subst({"x": RatFn(MPoly.const(1)),
                                     "t": RatFn(MPoly.const(0))}) == RatFn(MPoly.const(6)))
    return rb.build()


def verify_rational_kdv():
    """All three residuals of the hierarchy vanish for the closed forms."""
    rb = ReportBuilder("thm-8.1", "rational solution of the KdV hierarchy")
    U, V = uv_closed_form()
    for label, resid in kdv_residuals(U, V):
        rb.residual(label, resid)
    return rb.build()


def genus2_DE():
    """Logarithmic-derivative pair from the genus-2 rational sigma."""
    sig = sigma_rational(2)
    s = RatFn(sig.sigma)
    s1 = RatFn(sig.partial("1"))
    s3 = RatFn(sig.partial("3"))
    s11 = RatFn(sig.partial("11"))
    s13 = RatFn(sig.partial("13"))
    D = _to_xt((s1 * s1 - s11 * s) / (s * s)) * 2
    E = _to_xt((s1 * s3 - s13 * s) / (s * s)) * 2
    return D, E


def verify_genus2_comparison():
    """D = U and E = V exactly, and (D, E) satisfies the same hierarchy."""
    rb = ReportBuilder("sec-8-DE", "genus-2 comparison pair D, E")
    D, E = genus2_DE()
    U, V = uv_closed_form()
    rb.equal("D = U", D, U)
    rb.equal("E = V", E, V)
    for label, resid in kdv_residuals(D, E):
        rb.residual(label.replace("U", "D").replace("V", "E"), resid)
    return rb.build()


def verify_sigma_displays():
    """The cached partials reproduce every printed rational-limit display."""
    rb = ReportBuilder("sec-8-sigma", "rational-limit sigma and partials")
    s3 = sigma_rational(3)
    rb.equal("sigma_1", s3.partial("1"),
             w5 - w1 ** 2 * w3 + w1 ** 5 * Fraction(2, 15))
    rb.equal("sigma_3", s3.partial("3"), -2 * w3 - w1 ** 3 * Fraction(1, 3))
    rb.equal("sigma_5", s3.partial("5"), w1)
    rb.equal("sigma_11", s3.partial("11"),
             -2 * w1 * w3 + w1 ** 4 * Fraction(2, 3))
    rb.equal("sigma_13", s3.partial("13"), -1 * w1 ** 2)
    rb.equal("sigma_15", s3.partial("15"), MPoly.const(1))
    rb.equal("sigma_33", s3.partial("33"), MPoly.const(-2))
    rb.equal("sigma_35", s3.partial("35"), MPoly.zero())
    s2 = sigma_rational(2)
    rb.equal("genus-2 sigma_1", s2.partial("1"), w1 ** 2)
    rb.equal("genus-2 sigma_3", s2.partial("3"), MPoly.const(-1))
    rb.equal("genus-2 sigma_11", s2.partial("11"), 2 * w1)
    rb.equal("genus-2 sigma_13", s2.partial("13"), MPoly.zero())
    return rb.build()


def xi_slope_identity():
    """d(xi)/dw1 equals -sigma_1/sigma_5 along the divisor (cross-multiplied)."""
    xi = xi_closed_form()
    sig = sigma_rational(3)
    s1 = _compose_w5(RatFn(sig.partial("1")), xi)
    s5 = _compose_w5(RatFn(sig.partial("5")), xi)
    lhs = xi.derivative("w1") * s5
    return lhs + s1


def suite_rational():
    return [verify_sigma_displays(), verify_uv_closed_form(),
            verify_rational_kdv(), verify_genus2_comparison()]
