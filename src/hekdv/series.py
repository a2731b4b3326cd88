"""Truncated univariate power series over exact rationals, with Newton lifting.

A series in t truncated at order n is an element of the quotient ring
Q[t]/(t^(n+1)) (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 9):
an ``algnum.QuotientElem`` with the modulus (t, n + 1, 0), so a product is
one MPoly product and one ``rem_monic``, which drops the terms past the
order.  Series in different variables or of different orders do not mix:
ValueError.  The inverse solves its coefficient recurrence, which is faster
here than an extended-Euclid inverse modulo t^(n+1).
"""

from fractions import Fraction
from functools import lru_cache

from .algnum import QuotientElem, in_powers
from .errors import ConfigError, SingularExpansionError
from .poly import MPoly, dense_coeffs, eval_poly

_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def _modulus(variable, order):
    """The modulus (variable, order + 1, 0) of the series truncated at order."""
    return variable, order + 1, MPoly.zero()


class PSeries(QuotientElem):
    """The series sum(coeffs[k] * variable^k) truncated at the given order."""

    __slots__ = ()

    def __new__(cls, variable, coeffs, order):
        return cls._reduced(in_powers(variable, [Fraction(c) for c in coeffs]),
                            _modulus(variable, order))

    @staticmethod
    def zero(variable, order):
        return PSeries(variable, [], order)

    @staticmethod
    def identity(variable, order):
        return PSeries(variable, [0, 1], order)

    @property
    def variable(self):
        return self.modulus[0]

    @property
    def order(self):
        return self.modulus[1] - 1

    @property
    def coeffs(self):
        """The coefficients c[0..order], constant first, as Fractions."""
        out = dense_coeffs(self.poly, self.variable)
        return tuple(out + [_ZERO] * (self.modulus[1] - len(out)))

    def truncated(self, order):
        return PSeries._reduced(self.poly, _modulus(self.variable, order))

    def __getitem__(self, k):
        """The coefficient of variable^k, read alone; 0 past the order."""
        if 0 <= k <= self.order:
            return self.poly.coefficient(((self.variable, k),))
        return _ZERO

    def valuation(self):
        """Index of the first nonzero coefficient; order+1 when zero."""
        if self.poly.is_zero:
            return self.modulus[1]
        return self.poly.min_degree_in(self.variable)

    def inverse(self):
        """Multiplicative inverse; requires a unit (nonzero constant term)."""
        c = self.coeffs
        if not c[0]:
            raise SingularExpansionError(
                "series is not a unit (zero constant term)")
        inv0 = 1 / c[0]
        out = [inv0] + [_ZERO] * self.order
        for k in range(1, self.order + 1):
            s = _ZERO
            for j in range(1, k + 1):
                s += c[j] * out[k - j]
            out[k] = -inv0 * s
        return self._make(in_powers(self.variable, out))

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


def eval_at_series(p, assignments):
    """Evaluate an MPoly at PSeries values for each of its variables.

    The values share one variable and one order.
    """
    first = next(iter(assignments.values()))
    return eval_poly(p, assignments, PSeries(first.variable, [1], first.order))


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
        if dval.valuation():
            raise SingularExpansionError(
                "derivative is not a unit series; Newton step undefined")
        cur = cur - residual * dval.inverse()
        residual = eval_at_series(rel, {unknown: cur, parameter: t_series})
    if residual.is_zero:
        return cur
    raise SingularExpansionError("Newton iteration failed to converge")
