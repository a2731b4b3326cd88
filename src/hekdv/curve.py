"""Hyperelliptic curve data: defining polynomial, nonsingularity, one-forms.

A curve of genus g is Y^2 = Q(X) with Q monic of degree 2g+1 and an
alternating sign pattern on the parameters y4, y6, ...  Parameters may be
exact rationals (numeric mode), formal symbols (symbolic mode), or a mix
(used internally, e.g. to pin only the two deformation parameters to 0).
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, ModeError
from .poly import MPoly, dense_divmod


def y_symbols(genus):
    return tuple(f"y{2 * j}" for j in range(2, 2 * genus + 2))


@dataclass(frozen=True)
class CurveParams:
    """Genus plus the 2g curve parameters; None marks a formal symbol."""

    genus: int
    ys: tuple

    def __post_init__(self):
        if self.genus not in (2, 3):
            raise ConfigError(f"supported genera are 2 and 3, got {self.genus}")
        if len(self.ys) != 2 * self.genus:
            raise ConfigError(
                f"genus {self.genus} needs {2 * self.genus} parameters")
        object.__setattr__(self, "ys", tuple(
            None if v is None else Fraction(v) for v in self.ys))

    @staticmethod
    def symbolic(genus):
        return CurveParams(genus, (None,) * (2 * genus))

    @staticmethod
    def numeric(genus, ys):
        ys = tuple(Fraction(v) for v in ys)
        return CurveParams(genus, ys)

    def specialize(self, **fixed):
        """Pin named parameters (e.g. y12=0, y14=0), keeping the rest."""
        names = y_symbols(self.genus)
        vals = list(self.ys)
        for key, v in fixed.items():
            if key not in names:
                raise ConfigError(f"{key!r} is not a parameter of genus {self.genus}")
            vals[names.index(key)] = Fraction(v)
        return CurveParams(self.genus, tuple(vals))

    @property
    def is_numeric(self):
        return all(v is not None for v in self.ys)

    def coefficient(self, name):
        """The parameter as a Fraction or as its formal symbol."""
        names = y_symbols(self.genus)
        v = self.ys[names.index(name)]
        return MPoly.var(name) if v is None else MPoly.const(v)

    def Q(self, xvar="X1"):
        """The defining polynomial Q(X) in the given X-variable."""
        return curve_Q(self, xvar)

    def sub_y(self, p):
        """Substitute the numeric parameters of this curve into a polynomial."""
        mapping = {name: v for name, v in zip(y_symbols(self.genus), self.ys)
                   if v is not None}
        return p.subst(mapping) if mapping else p


def curve_Q(params, xvar="X1"):
    """Monic degree-(2g+1) polynomial with the alternating parameter signs."""
    g = params.genus
    X = MPoly.var(xvar)
    out = X ** (2 * g + 1)
    for j in range(2, 2 * g + 2):
        sign = 1 if j % 2 == 0 else -1
        out = out + params.coefficient(f"y{2 * j}") * X ** (2 * g + 1 - j) * sign
    return out


def dr_numerator(genus, i):
    """Numerator of 2Y * (second-kind one-form)_{2i-1} / dX.

    The convention y0 = 1, y2 = 0 applies; indices outside 1..g are
    rejected.
    """
    if not 1 <= i <= genus:
        raise ConfigError(f"form index {i} out of range 1..{genus}")
    g = genus
    out = MPoly.zero()
    X = MPoly.var("X1")
    for k in range(g - i + 1, g + i):
        idx = 2 * g + 2 * i - 2 * k - 2
        if idx == 0:
            coeff = MPoly.const(1)
        elif idx == 2:
            continue
        else:
            coeff = MPoly.var(f"y{idx}")
        sign = 1 if (g + i - k) % 2 == 0 else -1
        out = out + coeff * X ** k * ((k + i - g) * sign)
    return out


def _univ_coeffs(p, xvar):
    """Dense coefficient list (constant first) of a univariate polynomial."""
    coeffs = [Fraction(0)] * (p.degree_in(xvar) + 1)
    for e, c in p.coeffs_in(xvar).items():
        coeffs[e] = c.as_constant()
        if coeffs[e] is None:
            raise ConfigError("polynomial is not univariate")
    return coeffs


def sylvester_resultant(p, q, xvar="X1"):
    """Exact resultant (Sylvester determinant) of two univariate polynomials.

    Euclid's recurrence res(a, b) = (-1)^(mn) lc(b)^(m-k) res(b, a mod b),
    m, n, k the degrees of a, b, a mod b, ends at res(a, c) = c^m; the zero
    polynomial counts as degree 0, as in the Sylvester matrix.
    """
    a = _univ_coeffs(p, xvar)
    b = _univ_coeffs(q, xvar)
    res = Fraction(1)
    while len(b) > 1:
        _, r = dense_divmod(a, b)
        if not r:
            return Fraction(0)
        m, n, k = len(a) - 1, len(b) - 1, len(r) - 1
        res *= (-1) ** (m * n) * b[-1] ** (m - k)
        a, b = b, r
    return res * b[0] ** (len(a) - 1)


def in_Bg(params):
    """True iff the curve is nonsingular: resultant(Q, Q') != 0, exactly."""
    if not params.is_numeric:
        raise ModeError("nonsingularity test needs numeric parameters")
    Q = params.Q("X1")
    return sylvester_resultant(Q, Q.derivative("X1"), "X1") != 0
