from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import mpoly_strategy
from hekdv.errors import ZeroDenominatorError
from hekdv.poly import MPoly, variables
from hekdv.ratfun import RatFn, normal_form

x, = variables("x")
a, b = variables("a", "b")
X1, X2 = variables("X1", "X2")


class TestEquality:
    def test_cancellation(self):
        assert RatFn(x) == RatFn(x**2, x)

    def test_distinct(self):
        assert RatFn(x) != RatFn(x + 1)

    def test_factor_cancellation(self):
        assert RatFn(x**2 - 1, x - 1) == RatFn(x + 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominatorError):
            RatFn(x, MPoly.zero())

    @given(mpoly_strategy(max_terms=3), mpoly_strategy(max_terms=3),
           mpoly_strategy(max_terms=2))
    def test_equivalence_with_injected_factors(self, n, d, k):
        # reflexive / symmetric / transitive across representative changes
        if d.is_zero:
            d = MPoly.const(1)
        if k.is_zero:
            k = MPoly.const(1)
        f = RatFn(n, d)
        g = RatFn(n * k, d * k)
        h = RatFn(n * k * k, d * k * k)
        assert f == f
        assert f == g and g == f
        assert f == g and g == h and f == h


class TestArithmetic:
    def test_add_mul(self):
        f = RatFn(1, x)
        g = RatFn(x, x + 1)
        assert f + g == RatFn(x + 1 + x * x, x * (x + 1))
        assert f * g == RatFn(MPoly.const(1), x + 1)

    def test_pow_negative(self):
        f = RatFn(x, x + 1)
        assert f ** -2 == RatFn((x + 1) ** 2, x ** 2)

    def test_derivative_quotient_rule(self):
        f = RatFn(MPoly.const(1), x)
        assert f.derivative("x") == RatFn(MPoly.const(-1), x ** 2)

    def test_subst_compose(self):
        f = RatFn(a, b)
        out = f.subst({"a": RatFn(x + 1), "b": RatFn(x, x + 1)})
        assert out == RatFn((x + 1) ** 2, x)

    def test_den_positive_leading(self):
        f = RatFn(x, -1 * (x + 1))
        assert f.den.leading()[1] > 0

    def test_common_monomial_cancelled(self):
        f = RatFn(x**2 * a * (x + 1), x * a**3)
        assert f.num == x * (x + 1) and f.den == a**2

    def test_non_monomial_common_factor_kept(self):
        # no gcd: x - 1 is not a monomial and RatFn names no u - v, so it stays
        f = RatFn(x**2 - 1, x - 1)
        assert f == RatFn(x + 1)
        assert f.den == x - 1


# The normalization of symmetric-square elements before normal_form,
# kept verbatim as the reference.
def _strip_known_factors(num, den):
    """Cancel common powers of X1, X2 and (X1 - X2); cheap and exact."""
    for name in ("X1", "X2"):
        kd = den.min_degree_in(name)
        if kd:
            kn = num.min_degree_in(name)
            k = min(kd, kn)
            if k:
                mono = MPoly.var(name, k)
                num = num.exact_div(mono)
                den = den.exact_div(mono)
    while den.degree_in("X1") or den.degree_in("X2"):
        dq = den.divide_out_linear("X1", "X2")
        if dq is None:
            break
        nq = num.divide_out_linear("X1", "X2")
        if nq is None:
            break
        num, den = nq, dq
    return num, den


def _strip_and_scale(num, den):
    if num.is_zero:
        num, den = MPoly.zero(), MPoly.const(1)
    else:
        num, den = _strip_known_factors(num, den)
        dc = den.as_constant()
        if dc is not None:
            num = num * (Fraction(1) / dc)
            den = MPoly.const(1)
        else:
            scale = den.content()
            if den.leading()[1] < 0:
                scale = -scale
            num = num * (Fraction(1) / scale)
            den = den * (Fraction(1) / scale)
    return num, den


_powers = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


def _on_square_shape(p, powers):
    i, j, k = powers
    return p * X1**i * X2**j * (X1 - X2)**k


class TestNormalForm:
    @given(mpoly_strategy(var_names=("X1", "Y1", "X2", "Y2"), max_terms=3, max_exp=2),
           _powers,
           mpoly_strategy(var_names=("X1", "X2"), max_terms=3, max_exp=2)
           .filter(bool),
           _powers)
    def test_matches_strip_and_scale(self, n, n_powers, d, d_powers):
        # numerators and Y-free denominators c*X1^i*X2^j*(X1-X2)^k, the
        # shape every denominator on the symmetric square has
        num = _on_square_shape(n, n_powers)
        den = _on_square_shape(d, d_powers)
        got_num, got_den = normal_form(num, den, ("X1", "X2"))
        want_num, want_den = _strip_and_scale(num, den)
        assert got_num == want_num and got_den == want_den

    def test_known_factor_cancellation(self):
        num, den = normal_form(a * (a - b), (a - b) ** 2, ("a", "b"))
        assert den == a - b and num == a

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominatorError):
            normal_form(MPoly.zero(), MPoly.zero())
