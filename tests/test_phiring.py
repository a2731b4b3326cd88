import operator
from fractions import Fraction as F

import pytest

import hekdv.algnum
import hekdv.poly
from hekdv.algnum import AlgNum
from hekdv.phiring import (MINPOLY_Q, PhiFrac, PhiRingElem, ThetaVal,
                           appendix_F, d_total, example3_values,
                           phi_reduce, phi_series_example1, printed_forms,
                           sigma_on_ring, suite_appendix, verify_appendix_forms,
                           verify_example1, verify_example3, verify_ratc)
from hekdv.poly import MPoly, variables
from hekdv.series import PSeries

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

    def test_theta_val_against_numbers_and_foreign_operands(self):
        assert ThetaVal(1) == 1 and 1 == ThetaVal(1)
        assert ThetaVal(F(2, 3)) == F(2, 3) and ThetaVal(2) != 3
        assert ThetaVal(1, 1) != 1 and ThetaVal(0, 4) == 0
        assert (ThetaVal(1) == None) is False  # noqa: E711
        assert ThetaVal(1) != "1"

    def test_theta_val_with_scalar_operands(self):
        assert ThetaVal(1) + 1 == ThetaVal(2)
        assert ThetaVal(2) - 1 == ThetaVal(1)
        assert ThetaVal(2) / 2 == ThetaVal(1)
        assert ThetaVal(1, 3) * F(1, 2) == ThetaVal(F(1, 2), 3)
        assert 1 + ThetaVal(1) == ThetaVal(2)
        assert 1 - ThetaVal(2) == ThetaVal(-1)
        assert F(1, 2) * ThetaVal(1, 3) == ThetaVal(F(1, 2), 3)
        assert 2 / ThetaVal(1, 3) == ThetaVal(2, -3)

    @pytest.mark.parametrize("op", [operator.add, operator.sub,
                                    operator.mul, operator.truediv])
    def test_theta_val_rejects_a_string_operand(self, op):
        with pytest.raises(TypeError):
            op(ThetaVal(1), "x")
        with pytest.raises(TypeError):
            op("x", ThetaVal(1))


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
        assert d_total(c, "w3").is_zero
        assert d_total(c, "w5").is_zero

    def test_implicit_derivative_consistency(self):
        # d/dw3 applied to the class of phi itself must reproduce
        # -sigma_3/sigma_1 (the defining implicit derivative)
        phi_frac = PhiFrac(PhiRingElem.from_mpoly(phi))
        got = d_total(phi_frac, "w3")
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
    def test_values(self):
        report = verify_example3()
        assert report.passed, report.summary()

    def test_theta_val_grading_guard(self):
        a = ThetaVal(AlgNum.const(MINPOLY_Q, 1), 2)
        b = ThetaVal(AlgNum.const(MINPOLY_Q, 1), 3)
        with pytest.raises(ArithmeticError):
            _ = a + b

    def test_f2_value_directly(self):
        Fvals, _ = example3_values()
        q = AlgNum.generator(MINPOLY_Q)
        assert Fvals[2] == ThetaVal(q / 6, -2)
        assert Fvals[5] == ThetaVal(q / 9, -5)

    def test_mutated_value_fails(self):
        q = AlgNum.generator(MINPOLY_Q)
        bad = {
            2: ThetaVal(q / 6, -2),
            4: ThetaVal(q / 6, -4),          # wrong
            5: ThetaVal(q / 9, -5),
            7: ThetaVal(q / 6, -7),          # wrong
        }
        assert not verify_example3(expected=bad).passed


def test_suite():
    reports = suite_appendix()
    assert [r.check_id for r in reports] == ["app-F-forms", "thm-A.1",
                                             "ex-A.1", "ex-A.3"]
    assert all(r.passed for r in reports)
