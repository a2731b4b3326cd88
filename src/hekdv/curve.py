"""Hyperelliptic curve data: defining polynomial and nonsingularity.

A curve of genus g is Y^2 = Q(X) with Q monic of degree 2g+1 and an
alternating sign pattern on the parameters y4, y6, ...  Parameters may be
exact rationals (numeric mode), formal symbols (symbolic mode), or a mix
(used internally, e.g. to pin only the two deformation parameters to 0).
"""

from fractions import Fraction

from .errors import ConfigError, ModeError
from .poly import MPoly, dense_coeffs, dense_divmod


def y_symbols(genus):
    return tuple(f"y{2 * j}" for j in range(2, 2 * genus + 2))


class CurveParams:
    """Genus plus the 2g curve parameters; None marks a formal symbol.

    Immutable: a curve is a key of the lru caches, and two curves with the
    same genus and parameters compare equal and hash alike.
    """

    __slots__ = ("genus", "ys")

    def __init__(self, genus, ys):
        if genus not in (2, 3):
            raise ConfigError(f"supported genera are 2 and 3, got {genus}")
        if len(ys) != 2 * genus:
            raise ConfigError(f"genus {genus} needs {2 * genus} parameters")
        _set_genus(self, genus)
        _set_ys(self, tuple(None if v is None else Fraction(v) for v in ys))

    def __setattr__(self, *_):
        raise AttributeError("CurveParams is immutable")

    def __eq__(self, other):
        if type(other) is not CurveParams:
            return NotImplemented
        return self.genus == other.genus and self.ys == other.ys

    def __hash__(self):
        return hash((self.genus, self.ys))

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


# the slot setters, past the immutability guard
_set_genus = CurveParams.genus.__set__
_set_ys = CurveParams.ys.__set__


def curve_Q(params, xvar="X1"):
    """Monic degree-(2g+1) polynomial with the alternating parameter signs."""
    g = params.genus
    X = MPoly.var(xvar)
    out = X ** (2 * g + 1)
    for j in range(2, 2 * g + 2):
        sign = 1 if j % 2 == 0 else -1
        out = out + params.coefficient(f"y{2 * j}") * X ** (2 * g + 1 - j) * sign
    return out


def sylvester_resultant(p, q):
    """Exact resultant (Sylvester determinant) of two polynomials in X1.

    Euclid's recurrence res(a, b) = (-1)^(mn) lc(b)^(m-k) res(b, a mod b),
    m, n, k the degrees of a, b, a mod b, ends at res(a, c) = c^m; the zero
    polynomial counts as degree 0, as in the Sylvester matrix.
    """
    a = dense_coeffs(p, "X1")
    b = dense_coeffs(q, "X1")
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
    return sylvester_resultant(Q, Q.derivative("X1")) != 0
