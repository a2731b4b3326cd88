import operator
from fractions import Fraction as F

import pytest
from hypothesis import given, seed, strategies as st

import hekdv.algnum
import hekdv.poly
from hekdv.algnum import AlgNum
from hekdv.phiring import (MINPOLY_Q, PhiFrac, PhiRingElem, _at_point,
                           appendix_F, example3_values,
                           phi_reduce, phi_series_example1, printed_forms,
                           sextic_relation, sigma_on_ring, solution_component,
                           suite_appendix, verify_appendix_forms,
                           verify_example1, verify_example3, verify_ratc)
from hekdv.poly import MPoly, standard_weights, variables, weighted_degree
from hekdv.series import PSeries

from conftest import mpoly_strategy, small_fractions

phi, w3, w5 = variables("phi", "w3", "w5")


class TestRing:
    def test_phi6_reduction(self):
        got = phi_reduce(phi ** 6)
        want = PhiRingElem.from_mpoly(15 * phi**3 * w3 + 45 * w3**2
                                      - 45 * phi * w5)
        assert got == want

    def test_phi7_reduction(self):
        got = phi_reduce(phi ** 7)
        want = PhiRingElem.from_mpoly(15 * phi**4 * w3 + 45 * phi * w3**2
                                      - 45 * phi**2 * w5)
        assert got == want

    def test_constant(self):
        assert phi_reduce(MPoly.const(1)) == PhiRingElem.const(1)

    def test_relation_is_45_sigma(self):
        # sigma evaluated on the ring vanishes identically
        assert sigma_on_ring("").is_zero

    def test_mul_respects_relation(self):
        p = phi_reduce(phi ** 3)
        q = phi_reduce(phi ** 3)
        assert p * q == phi_reduce(phi ** 6)


    def test_no_dense_routine_runs(self, monkeypatch):
        """Products in the quotient rings, series included, are one MPoly
        product and one rem_monic; only AlgNum.inverse runs a dense
        routine."""
        def refuse(*args, **kwargs):
            raise AssertionError("a dense routine ran")
        for name in ("dense_mul", "dense_divmod", "dense_inverse"):
            monkeypatch.setattr(hekdv.poly, name, refuse)
        monkeypatch.setattr(hekdv.algnum, "dense_inverse", refuse)
        x = PhiRingElem([w3, w5, 1, 2, w3 * w5, w3 ** 2, 7])
        assert x * x ** 3 == x ** 4 and (x - x).is_zero
        assert verify_appendix_forms().passed and verify_ratc().passed
        q = AlgNum.generator(MINPOLY_Q)
        y = q ** 5 * F(1, 3) + q - 2
        assert y * y ** 3 == y ** 4 and (y - y).is_zero
        assert q ** 6 == q ** 3 * 15 + 45
        s = PSeries("t", [1, 2, F(1, 3)], 6)
        assert s * s ** 2 == s ** 3 and (s * s)[4] == F(1, 9)
        with pytest.raises(AssertionError, match="dense routine"):
            q.inverse()

    @pytest.mark.parametrize("a, b", [
        (AlgNum.generator(MINPOLY_Q), PhiRingElem.const(1)),
        (AlgNum.const(MINPOLY_Q, 1), phi_reduce(phi)),
        (AlgNum.generator(MINPOLY_Q), AlgNum.generator((-1, 0, 1))),
    ])
    @pytest.mark.parametrize("op", [operator.add, operator.sub,
                                    operator.mul, operator.eq])
    def test_mixed_quotient_rings_raise_value_error(self, a, b, op):
        with pytest.raises(ValueError, match="mixed quotient rings"):
            op(a, b)
        with pytest.raises(ValueError, match="mixed quotient rings"):
            op(b, a)


class TestCoercion:
    def test_mpoly_factor_is_a_ring_element(self):
        assert PhiRingElem.from_mpoly(phi ** 5) * phi == phi_reduce(phi ** 6)
        assert phi * PhiRingElem.from_mpoly(phi ** 5) == phi_reduce(phi ** 6)

    def test_mpoly_sum_difference_and_equality(self):
        x = PhiRingElem.from_mpoly(phi ** 5 + w3)
        assert x + phi ** 6 == phi_reduce(phi ** 5 + w3 + phi ** 6)
        assert x - phi ** 6 == phi_reduce(phi ** 5 + w3 - phi ** 6)
        assert phi ** 6 - x == phi_reduce(phi ** 6 - phi ** 5 - w3)
        assert phi_reduce(phi ** 6) == phi ** 6
        assert phi_reduce(phi ** 6) != phi ** 6 + 1

    def test_foreign_operands_compare_unequal(self):
        assert (PhiRingElem.const(1) == None) is False  # noqa: E711
        assert PhiRingElem.const(1) != "1"
        with pytest.raises(TypeError):
            PhiRingElem.const(1) + "1"

    def test_phi_frac_against_foreign_operands(self):
        assert (PhiFrac(1) == None) is False  # noqa: E711
        assert PhiFrac(1) != "1"
        assert PhiFrac(1) == 1 and PhiFrac(phi ** 6) == phi_reduce(phi ** 6)


ring_elements = mpoly_strategy(("phi", "w3", "w5"), max_terms=3, max_exp=2).map(
    PhiRingElem.from_mpoly)
fractions_over_s1 = st.tuples(ring_elements, st.integers(0, 3))


def _is(frac, num, k):
    """frac is a PhiFrac equal to num / s1^k, by cross-multiplication."""
    s1 = sigma_on_ring("1")
    return (isinstance(frac, PhiFrac)
            and frac.num * s1 ** k == num * s1 ** frac.k)


def _total_derivative(a, wname):
    """The numerator over s1 of d/dw of the ring element a along the
    divisor, a_w - a_phi * sigma_w / s1."""
    s1, sw = sigma_on_ring("1"), sigma_on_ring({"w3": "3", "w5": "5"}[wname])
    return a.d_w(wname) * s1 - a.d_phi() * sw


class TestPhiFracArithmetic:
    """PhiFrac takes RatFn's arithmetic over the one base s1 = sigma_1(phi);
    each result is checked against the cross-multiplied fraction."""

    @seed(20261022)
    @given(fractions_over_s1, fractions_over_s1)
    def test_sum_and_difference_scale_to_the_larger_power(self, x, y):
        (a, j), (b, k) = x, y
        s1, m = sigma_on_ring("1"), max(j, k)
        p, q = PhiFrac(a, j), PhiFrac(b, k)
        assert _is(p + q, a * s1 ** (m - j) + b * s1 ** (m - k), m)
        assert _is(p - q, a * s1 ** (m - j) - b * s1 ** (m - k), m)

    @seed(20261022)
    @given(fractions_over_s1, fractions_over_s1, small_fractions)
    def test_products_add_the_powers(self, x, y, c):
        (a, j), (b, k) = x, y
        p, q = PhiFrac(a, j), PhiFrac(b, k)
        assert _is(p * q, a * b, j + k)
        assert _is(p * c, a * c, j) and _is(c * p, a * c, j)
        assert _is(-p, -a, j)

    @seed(20261022)
    @given(fractions_over_s1, st.integers(0, 3))
    def test_power_multiplies_the_power(self, x, n):
        a, j = x
        assert _is(PhiFrac(a, j) ** n, a ** n, j * n)

    @seed(20261022)
    @given(fractions_over_s1, st.sampled_from(["w3", "w5"]))
    def test_derivative_is_the_quotient_rule_along_the_divisor(self, x, wname):
        # d(a / s1^j) = a' / s1^j - j a s1' / s1^(j+1), each ' over s1
        a, j = x
        s1 = sigma_on_ring("1")
        da = _total_derivative(a, wname)
        ds1 = _total_derivative(s1, wname)
        want = da * s1 - a * ds1 * j
        assert _is(PhiFrac(a, j).derivative(wname), want, j + 2)

    @seed(20261022)
    @given(fractions_over_s1, fractions_over_s1)
    def test_derivative_keeps_the_product_rule(self, x, y):
        p, q = PhiFrac(*x), PhiFrac(*y)
        d = (p * q).derivative("w3") - p.derivative("w3") * q - p * q.derivative("w3")
        assert isinstance(d, PhiFrac) and d.is_zero

    def test_failing_residual_prints_over_sigma1(self):
        assert str(PhiFrac(phi, 2)) == f"({phi_reduce(phi)}) / sigma1^2"
        assert repr(PhiFrac(phi, 2) * 3) == f"({phi_reduce(3 * phi)}) / sigma1^2"


class TestSolutionComponents:
    def test_printed_forms_certify(self):
        report = verify_appendix_forms()
        assert report.passed, report.summary()

    @pytest.mark.parametrize("i", [2, 4, 5, 7])
    def test_cross_multiplied_identity(self, i):
        num, den = appendix_F(i)
        N, K = printed_forms()
        assert (num * K[i] - N[i] * den).is_zero

    def test_mutated_numerator_fails(self):
        N, K = printed_forms()
        N = dict(N)
        N[2] = N[2] + PhiRingElem.const(1)
        report = verify_appendix_forms(printed=(N, K))
        assert not report.passed

    def test_flow_equations(self):
        report = verify_ratc()
        assert report.passed, report.summary()
        assert sum(1 for lbl, _ in report.residuals
                   if lbl.startswith("d/d")) == 8

    def test_total_derivative_of_constant(self):
        c = PhiFrac(PhiRingElem.const(7))
        assert c.derivative("w3").is_zero
        assert c.derivative("w5").is_zero

    def test_implicit_derivative_consistency(self):
        # d/dw3 applied to the class of phi itself must reproduce
        # -sigma_3/sigma_1 (the defining implicit derivative)
        phi_frac = PhiFrac(PhiRingElem.from_mpoly(phi))
        got = phi_frac.derivative("w3")
        want = PhiFrac(-1 * sigma_on_ring("3"), 1)
        assert got == want


class TestExample1:
    def test_series_coefficients(self):
        s = phi_series_example1(12)
        assert s[2] == 1 and s[7] == F(1, 3) and s[12] == F(14, 45)
        assert all(s[k] == 0 for k in (3, 4, 5, 6, 8, 9, 10, 11))

    def test_short_order_stops_at_t2(self):
        s = phi_series_example1(6)
        assert s[2] == 1
        assert all(s[k] == 0 for k in (0, 1, 3, 4, 5, 6))

    def test_report(self):
        assert verify_example1().passed

    def test_mutated_expectation_fails(self):
        bad = {2: F(1), 7: F(1, 3), 12: F(13, 45)}
        assert not verify_example1(expected=bad).passed


class TestExample3:
    """F_i at phi = q*theta, w3 = theta^3, w5 = 0, read as (coefficient,
    theta-exponent) pairs off the certified components."""

    def test_values(self):
        report = verify_example3()
        assert report.passed, report.summary()

    def test_f2_value_directly(self):
        Fvals, s1 = example3_values()
        q = AlgNum.generator(MINPOLY_Q)
        assert Fvals[2] == (q / 6, -2)
        assert Fvals[5] == (q / 9, -5)
        assert s1 == (q ** 2 * (q ** 3 * 2 - 15) / 15, 5)

    def test_mutated_value_fails(self):
        q = AlgNum.generator(MINPOLY_Q)
        bad = {
            2: (q / 6, -2),
            4: (q / 6, -4),          # wrong
            5: (q / 9, -5),
            7: (q / 6, -7),          # wrong
        }
        assert not verify_example3(expected=bad).passed

    def test_wrong_exponent_alone_fails(self):
        q = AlgNum.generator(MINPOLY_Q)
        printed = {2: (q / 6, -2),
                   4: (-5 * (q ** 3 + 15) / (36 * q ** 4), -4),
                   5: (q / 9, -5),
                   7: (-5 * (2 * q ** 3 + 3) / (54 * q * (q ** 3 + 3)), -7)}
        assert verify_example3(expected=printed).passed
        report = verify_example3(expected={**printed, 5: (q / 9, -4)})
        assert [label for label, value in report.residuals
                if value != "0"] == ["F5 equals printed value"]

    def test_sextic_has_one_weight(self):
        assert weighted_degree(sextic_relation(), standard_weights(3)) == -6

    @pytest.mark.parametrize("i", [2, 4, 5, 7])
    def test_components_are_homogeneous(self, i):
        poly = solution_component(i).num.poly
        assert weighted_degree(poly, standard_weights(3)) is not None

    def test_inhomogeneous_element_has_no_exponent(self):
        value, exp = _at_point(PhiRingElem.from_mpoly(phi + w3).poly)
        assert exp is None
        assert value == AlgNum.generator(MINPOLY_Q) + 1


def test_suite():
    reports = suite_appendix()
    assert [r.check_id for r in reports] == ["app-F-forms", "thm-A.1",
                                             "ex-A.1", "ex-A.3"]
    assert all(r.passed for r in reports)
