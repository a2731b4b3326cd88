import operator

import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import mpoly_strategy
from hekdv.errors import ZeroDenominatorError
from hekdv.poly import MPoly, variables
from hekdv.ratfun import RatFn, normal_form

x, = variables("x")
a, b = variables("a", "b")
t, = variables("t")


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


# bases of the powers drawn below: two stable ones and two with a monomial
# factor; None stands for a polynomial
_BASES = (x ** 3 - 3 * t, x ** 2 + t + 1, x, x * (x + 1), None)
_xt_polys = mpoly_strategy(("x", "t"), max_terms=3, max_exp=2)


def _power(num, base, j):
    """(f, (num, den)): f = num / base^j built through RatFn's own
    arithmetic, and the pair it stands for; base None for a polynomial."""
    if base is None:
        return RatFn(num), (num, MPoly.const(1))
    return RatFn(num) * RatFn(1, base) ** j, (num, base ** j)


@st.composite
def _powers(draw, base=None):
    """One _power, over ``base`` when given."""
    base = base or draw(st.sampled_from(_BASES))
    return _power(draw(_xt_polys), base, draw(st.integers(1, 3)))


@st.composite
def _pairs(draw):
    """Two _powers, over one base in half the draws."""
    f = draw(_powers())
    same = draw(st.booleans()) and f[0].k
    return f, draw(_powers(f[0].base if same else None))


def _reference(op, p, q):
    """The cross-multiplied pair of op on the pairs p and q."""
    (a_, b_), (c, d) = p, q
    return {operator.add: (a_ * d + c * b_, b_ * d),
            operator.sub: (a_ * d - c * b_, b_ * d),
            operator.mul: (a_ * c, b_ * d),
            operator.truediv: (a_ * d, b_ * c)}[op]


def _assert_stands_for(f, pair):
    """f has the value of pair, and its stored form is consistent: den is
    base^k, and over a stable base num/den is normal_form's pair."""
    num, den = pair
    assert f.num * den == num * f.den
    assert f.den == f.base ** f.k
    if f.stable:
        assert normal_form(f.num, f.den) == (f.num, f.den)
        assert not any(f.base.min_degree_in(v) for v in ("x", "t"))


class TestPowersOfABase:
    """Every operation on fractions kept as num / base^k has the value of
    the cross-multiplication of the expanded pairs."""

    @seed(3401)
    @settings(max_examples=60)
    @given(_pairs())
    def test_arithmetic_matches_cross_multiplication(self, pair):
        for (f, p), (g, q) in (pair, pair[::-1]):
            ops = [operator.add, operator.sub, operator.mul]
            if not g.is_zero:
                ops.append(operator.truediv)
            for op in ops:
                _assert_stands_for(op(f, g), _reference(op, p, q))
            assert (f == g) is (p[0] * q[1] == q[0] * p[1])

    @seed(3402)
    @settings(max_examples=40)
    @given(_powers(), st.integers(-2, 3))
    def test_powers_match_cross_multiplication(self, f, n):
        f, (num, den) = f
        if n < 0 and f.is_zero:
            with pytest.raises(ZeroDenominatorError):
                f ** n
            return
        want = (num ** n, den ** n) if n >= 0 else (den ** -n, num ** -n)
        _assert_stands_for(f ** n, want)

    @seed(3403)
    @settings(max_examples=40)
    @given(_powers())
    def test_derivatives_match_the_quotient_rule(self, f):
        f, (num, den) = f
        for name in ("x", "t"):
            want = (num.derivative(name) * den - num * den.derivative(name),
                    den * den)
            _assert_stands_for(f.derivative(name), want)
        second = f.derivative("x").derivative("x")
        dn, dd = num.derivative("x"), den.derivative("x")
        want = ((dn.derivative("x") * den - num * dd.derivative("x")) * den
                - (dn * den - num * dd) * dd * 2, den ** 3)
        _assert_stands_for(second, want)

    @seed(3404)
    @settings(max_examples=40)
    @given(_powers(), _xt_polys, _xt_polys)
    def test_subst_matches_the_substituted_pair(self, f, p, q):
        f, (num, den) = f
        mapping = {"x": p + 1, "t": q}
        image = den.subst(mapping)
        if image.is_zero:
            with pytest.raises(ZeroDenominatorError):
                f.subst(mapping)
            return
        _assert_stands_for(f.subst(mapping), (num.subst(mapping), image))

    @seed(3405)
    @settings(max_examples=40)
    @given(_powers(), _xt_polys)
    def test_equality_ignores_the_representation(self, f, q):
        f, (num, den) = f
        q = q + 3
        assert f == RatFn(num * q, den * q) and RatFn(num * q, den * q) == f
        assert (f == f + 1) is False

    @seed(3406)
    @given(_xt_polys, _xt_polys)
    def test_constructor_keeps_the_normal_form(self, num, den):
        if den.is_zero:
            den = x - 2 * t
        f = RatFn(num, den)
        assert (f.num, f.den) == normal_form(num, den)
        assert f.base == f.den and f.k == (0 if f.den == 1 else 1)

    def test_shared_base_sums_and_products(self):
        base = x ** 3 - 3 * t
        inv = RatFn(1, base)
        f, g = RatFn(x) * inv ** 2, RatFn(t) * inv ** 3
        for h in (f + g, g + f, f - g, g - f):
            assert h.base == base and h.k == 3
        _assert_stands_for(g - f, (t - x * base, base ** 3))
        _assert_stands_for(f - g, (x * base - t, base ** 3))
        assert (f * g).base == base and (f * g).k == 5
        assert (f * x).k == 2 and (f ** 3).k == 6
        assert (f + g).den == base ** 3
        # a base with a monomial factor is multiplied out and normalized
        h = RatFn(1, x) + RatFn(1, x)
        assert (h.num, h.den) == normal_form(MPoly.const(2), x)

    def test_derivative_raises_the_power_by_one(self):
        from hekdv.ratlimit import uv_closed_form
        U, _ = uv_closed_form()
        base = U.base
        assert base == (x ** 3 - 3 * t) ** 2 and U.k == 1
        d = U
        for k in (2, 3, 4):
            d = d.derivative("x")
            assert d.base == base and d.k == k
        assert d.den == (x ** 3 - 3 * t) ** 8
        # a base free of the variable keeps its power
        da = (U * a).derivative("a")
        assert da.base == base and da.k == 1 and da == U

    def test_table_entry_times_a_polynomial_stays_over_its_base(self):
        from hekdv.tables import flow_table, u2, u4, u5
        entry = flow_table("T1").entries["u5"]
        assert entry.base == u2 ** 2 - u4 and entry.k == 1
        for product in (entry * u5, entry * RatFn(u2 * u4), u2 * entry):
            assert product.base == entry.base and product.k == 1
