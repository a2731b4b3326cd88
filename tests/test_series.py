from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from hekdv.errors import ConfigError, SingularExpansionError
from hekdv.poly import variables
from hekdv.series import PSeries, eval_at_series, newton_solve

phi, t, x = variables("phi", "t", "x")

SEXTIC = phi**6 - 15 * phi**3 * t - 45 * t**2 + 45 * phi


class TestPSeries:
    def test_invariant_length(self):
        s = PSeries("t", [1, 2], 5)
        assert len(s.coeffs) == 6

    def test_mul_truncates(self):
        s = PSeries("t", [0, 1], 3)
        assert (s * s * s * s).is_zero  # t^4 beyond order 3

    def test_inverse(self):
        s = PSeries("t", [1, 1], 4)     # 1 + t
        inv = s.inverse()
        assert (s * inv) == PSeries("t", [1], 4)

    def test_inverse_nonunit(self):
        with pytest.raises(SingularExpansionError):
            PSeries("t", [0, 1], 3).inverse()

    @given(st.lists(st.fractions(min_value=F(-5), max_value=F(5),
                                 max_denominator=6), max_size=8),
           st.integers(0, 6))
    def test_index_reads_one_coefficient(self, coeffs, order):
        s = PSeries("t", coeffs, order)
        for k in range(-2, order + 3):
            want = s.coeffs[k] if 0 <= k <= order else 0
            assert type(s[k]) is F and s[k] == want

    @given(st.lists(st.fractions(min_value=F(-5), max_value=F(5),
                                 max_denominator=6), min_size=1, max_size=5))
    def test_add_neg(self, coeffs):
        s = PSeries("t", coeffs, 6)
        assert (s + (-s)).is_zero


class TestCoercion:
    def test_equal_to_scalars(self):
        assert PSeries("t", [0], 2) == 0
        assert PSeries("t", [F(3, 2)], 2) == F(3, 2)
        assert PSeries("t", [1, 1], 2) != 1

    def test_different_variables_do_not_mix(self):
        s, x = PSeries("t", [1, 1], 3), PSeries("x", [1, 1], 3)
        for op in (lambda: s + x, lambda: s - x, lambda: s * x,
                   lambda: s / x, lambda: s == x):
            with pytest.raises(ValueError):
                op()

    def test_different_orders_do_not_mix(self):
        s, u = PSeries("t", [1, 1], 3), PSeries("t", [1, 1], 4)
        for op in (lambda: s + u, lambda: s - u, lambda: s * u,
                   lambda: s / u, lambda: s == u):
            with pytest.raises(ValueError):
                op()

    def test_foreign_operands(self):
        s = PSeries("t", [1], 2)
        assert (s == None) is False  # noqa: E711
        assert s != "1"
        with pytest.raises(TypeError):
            s * "1"

    def test_scalar_division(self):
        assert PSeries("t", [2, 4], 3) / 2 == PSeries("t", [1, 2], 3)


class TestNewton:
    def test_printed_branch(self):
        seed = PSeries("t", [0, 0, 1], 2)
        sol = newton_solve(SEXTIC, 12, seed)
        assert sol[2] == 1 and sol[7] == F(1, 3) and sol[12] == F(14, 45)
        for k in (0, 1, 3, 4, 5, 6, 8, 9, 10, 11):
            assert sol[k] == 0

    def test_zero_seed_reaches_t_squared(self):
        sol = newton_solve(SEXTIC, 2, PSeries("t", [0], 0))
        assert sol == PSeries("t", [0, 0, 1], 2)

    def test_identity_relation(self):
        sol = newton_solve(phi - t, 5, PSeries("t", [0], 0))
        assert sol == PSeries.identity("t", 5)

    def test_residual_vanishes_exactly(self):
        seed = PSeries("t", [0, 0, 1], 2)
        sol = newton_solve(SEXTIC, 15, seed)
        back = eval_at_series(SEXTIC, {"phi": sol,
                                       "t": PSeries.identity("t", 15)})
        assert back.is_zero

    def test_bad_seed_rejected(self):
        with pytest.raises(SingularExpansionError):
            newton_solve(SEXTIC, 8, PSeries("t", [1], 0))

    def test_nonunit_derivative(self):
        rel = phi**2 - t**2
        with pytest.raises(SingularExpansionError):
            newton_solve(rel, 6, PSeries("t", [0], 0))

    def test_unknown_is_read_off_the_relation(self):
        sol = newton_solve(x - t, 5, PSeries("t", [0], 0))
        assert sol == PSeries.identity("t", 5)
        with pytest.raises(ConfigError):
            newton_solve(phi - x * t, 5, PSeries("t", [0], 0))
        with pytest.raises(ConfigError):
            newton_solve(t ** 2 - t, 5, PSeries("t", [0], 0))
