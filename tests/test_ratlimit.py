from fractions import Fraction as F

import pytest

from hekdv.poly import MPoly, standard_weights, variables
from hekdv.ratfun import RatFn
from hekdv.ratlimit import (genus2_DE, kdv_residuals, printed_U, printed_V,
                            sigma_rational, suite_rational, uv_closed_form,
                            verify_rational_kdv, verify_uv_closed_form,
                            xi_closed_form, xi_slope_identity)

w1, w3, x, t = variables("w1", "w3", "x", "t")


class TestSigma:
    def test_genus3_weight(self):
        from hekdv.poly import weighted_degree
        sig = sigma_rational(3)
        assert weighted_degree(sig.sigma, standard_weights(3)) == -6

    def test_printed_partials(self):
        sig = sigma_rational(3)
        assert sig.partial("3") == -2 * w3 - w1 ** 3 * F(1, 3)
        assert sig.partial("35") == MPoly.zero()
        assert sig.partial("15") == MPoly.const(1)
        assert sig.partial("33") == MPoly.const(-2)
        s2 = sigma_rational(2)
        assert s2.partial("1") == w1 ** 2
        assert s2.partial("3") == MPoly.const(-1)

    def test_built_once_per_genus(self):
        assert sigma_rational(3) is sigma_rational(3)
        assert sigma_rational(2) is not sigma_rational(3)
        with pytest.raises(TypeError):
            sigma_rational(3).partials["1"] = MPoly.zero()


class TestXi:
    def test_on_divisor(self):
        xi = xi_closed_form()     # raises if sigma(w1, w3, xi) != 0
        val = xi.subst({"w1": RatFn(MPoly.const(1)),
                        "w3": RatFn(MPoly.const(0))})
        assert val == RatFn(MPoly.const(F(-1, 45)))

    def test_slope_identity(self):
        assert xi_slope_identity().is_zero


class TestClosedForms:
    def test_uv_match_printed(self):
        U, V = uv_closed_form()
        assert U == printed_U()
        assert V == printed_V()

    def test_u_at_point(self):
        U, _ = uv_closed_form()
        val = U.subst({"x": RatFn(MPoly.const(1)), "t": RatFn(MPoly.const(0))})
        assert val == RatFn(MPoly.const(6))

    def test_kdv_residuals_zero(self):
        report = verify_rational_kdv()
        assert report.passed
        assert len(report.residuals) == 3

    def test_genus2_comparison(self):
        D, E = genus2_DE()
        U, V = uv_closed_form()
        assert D == U and E == V
        for _, resid in kdv_residuals(D, E):
            assert resid.is_zero

    def test_suite(self):
        assert all(r.passed for r in suite_rational())


class TestMutationControl:
    def test_coefficient_mutation_fails(self):
        # 6x(x^3+6t) -> 5x(x^3+6t)
        bad = RatFn(5 * x * (x ** 3 + 6 * t), (x ** 3 - 3 * t) ** 2)
        report = verify_uv_closed_form(expected_U=bad)
        assert not report.passed

    def test_mutated_pair_breaks_hierarchy(self):
        bad_U = RatFn(5 * x * (x ** 3 + 6 * t), (x ** 3 - 3 * t) ** 2)
        _, V = uv_closed_form()
        residuals = kdv_residuals(bad_U, V)
        assert any(not r.is_zero for _, r in residuals)
