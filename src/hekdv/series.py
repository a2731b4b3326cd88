"""Truncated univariate power series over exact rationals, with Newton lifting.

A product is the dense product of ``poly`` cut after the smaller order.  The
inverse solves its coefficient recurrence, which is faster here than an
extended-Euclid inverse modulo t^(order+1).
"""

from fractions import Fraction

from .errors import ConfigError, SingularExpansionError
from .poly import Ring, dense_mul, eval_poly


class PSeries(Ring):
    """Coefficients c[0..order] of a series truncated at the given order."""

    __slots__ = ("variable", "coeffs", "order")

    def __init__(self, variable, coeffs, order):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) < order + 1:
            coeffs = coeffs + [Fraction(0)] * (order + 1 - len(coeffs))
        object.__setattr__(self, "variable", variable)
        object.__setattr__(self, "coeffs", tuple(coeffs[:order + 1]))
        object.__setattr__(self, "order", order)

    @staticmethod
    def zero(variable, order):
        return PSeries(variable, [], order)

    @staticmethod
    def identity(variable, order):
        return PSeries(variable, [0, 1], order)

    def truncated(self, order):
        return PSeries(self.variable, list(self.coeffs), order)

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k <= self.order else Fraction(0)

    @property
    def is_zero(self):
        return not any(self.coeffs)

    def valuation(self):
        """Index of the first nonzero coefficient; order+1 when zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return self.order + 1

    def _lift(self, other):
        if isinstance(other, PSeries):
            if other.variable != self.variable:
                raise ValueError("series in different variables do not mix")
            return other
        if isinstance(other, (int, Fraction)):
            return PSeries(self.variable, [other], self.order)
        raise TypeError(f"cannot combine a series with {type(other).__name__}")

    def __add__(self, other):
        other = self._lift(other)
        n = min(self.order, other.order)
        return PSeries(self.variable,
                       [self[k] + other[k] for k in range(n + 1)], n)

    def __neg__(self):
        return PSeries(self.variable, [-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        other = self._lift(other)
        n = min(self.order, other.order)
        out = dense_mul(self.coeffs, other.coeffs, Fraction(0), n + 1)
        return PSeries(self.variable, out, n)

    def inverse(self):
        """Multiplicative inverse; requires a unit (nonzero constant term)."""
        if not self.coeffs[0]:
            raise SingularExpansionError(
                "series is not a unit (zero constant term)")
        inv0 = Fraction(1) / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * self.order
        for k in range(1, self.order + 1):
            s = Fraction(0)
            for j in range(1, k + 1):
                s += self[j] * out[k - j]
            out[k] = -inv0 * s
        return PSeries(self.variable, out, self.order)

    def __str__(self):
        var = self.variable
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*{var}" if c != 1 else var)
            else:
                parts.append(f"{c}*{var}^{k}" if c != 1 else f"{var}^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O({var}^{self.order + 1})"

    __repr__ = __str__


def eval_at_series(p, assignments):
    """Evaluate an MPoly at PSeries values for each of its variables.

    The values share one variable; the result is truncated at the least of
    their orders.
    """
    least = min(assignments.values(), key=lambda s: s.order)
    var, order = least.variable, least.order
    one = PSeries(var, [1], order)
    return PSeries.zero(var, order) + eval_poly(p, assignments, one)


def newton_solve(rel, order, seed):
    """Solve rel(unknown, t) = 0 for a series in the seed's variable t.

    The unknown is the one variable of ``rel`` other than t; a relation
    in no or several other variables raises ConfigError.  ``seed`` must
    satisfy the relation through its own truncation order and have a unit
    partial derivative there; Newton steps then at least double the number
    of correct coefficients per iteration.
    """
    if order < seed.order:
        raise ValueError("target order below the seed's order")
    parameter = seed.variable
    unknowns = rel.variables_used() - {parameter}
    if len(unknowns) != 1:
        raise ConfigError(f"newton_solve needs one unknown besides "
                          f"{parameter!r}, got {sorted(unknowns)}")
    unknown, = unknowns
    t_series = PSeries.identity(parameter, order)
    drel = rel.derivative(unknown)
    cur = seed.truncated(order)
    residual = eval_at_series(rel, {unknown: cur, parameter: t_series})
    # sanity on the seed before any step
    if residual.valuation() <= seed.order:
        raise SingularExpansionError(
            "seed does not satisfy the relation through its stated order")
    for _ in range(order.bit_length() + 3):
        if residual.is_zero:
            return cur
        dval = eval_at_series(drel, {unknown: cur, parameter: t_series})
        if not dval.coeffs[0]:
            raise SingularExpansionError(
                "derivative is not a unit series; Newton step undefined")
        cur = cur - residual * dval.inverse()
        residual = eval_at_series(rel, {unknown: cur, parameter: t_series})
    if residual.is_zero:
        return cur
    raise SingularExpansionError("Newton iteration failed to converge")
