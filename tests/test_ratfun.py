import pytest
from hypothesis import given

from conftest import mpoly_strategy
from hekdv.errors import ZeroDenominatorError
from hekdv.poly import MPoly, variables
from hekdv.ratfun import RatFn, normal_form

x, = variables("x")
a, b = variables("a", "b")


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
        # no gcd: x - 1 is not a monomial, so it stays
        f = RatFn(x**2 - 1, x - 1)
        assert f == RatFn(x + 1)
        assert f.den == x - 1


class TestNormalForm:
    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominatorError):
            normal_form(MPoly.zero(), MPoly.zero())
