from unittest.mock import patch

import pytest

import hekdv.verify_tables
from hekdv.curve import CurveParams
from hekdv.poly import MPoly
from hekdv.ratfun import RatFn
from hekdv.tables import (U_VARS, PoissonStructure, first_integrals,
                          flow_table, poisson_bracket, structure_I, u2, u4)
from hekdv.verify_tables import (pullback_u, square, verify_first_integrals,
                                 verify_flow_table, verify_hamiltonian_form)


@pytest.mark.parametrize("flow", ["I", "II", "T1", "T3"])
def test_flow_tables_certify(flow):
    report = verify_flow_table(flow)
    assert report.passed, report.summary()
    # four generator residuals plus the two structural conditions
    assert len(report.residuals) == 6


def test_first_integrals_certify():
    report = verify_first_integrals()
    assert report.passed
    assert len(report.residuals) == 8


def test_hamiltonian_form_certifies():
    report = verify_hamiltonian_form()
    assert report.passed
    labels = [lbl for lbl, _ in report.residuals]
    assert any("H12, H14" in lbl for lbl in labels)


def test_t1_cross_consistency():
    # T1 = -(1/(X1 X2)) L5: pullback(T1 entry) * X1*X2 + pullback(II entry) = 0
    field = square(CurveParams.symbolic(3))
    x1x2 = field.elem(MPoly.var("X1") * MPoly.var("X2"))
    tab1, tab2 = flow_table("T1"), flow_table("II")
    for uvar in U_VARS:
        lhs = pullback_u(tab1.entries[uvar], field) * x1x2
        assert (lhs + pullback_u(tab2.entries[uvar], field)).is_zero, uvar


def _derivative_calls(run):
    """run() and the variables RatFn.derivative was called with."""
    calls, derivative = [], RatFn.derivative

    def recorded(self, name):
        calls.append(name)
        return derivative(self, name)

    with patch.object(RatFn, "derivative", recorded):
        return run(), calls


class TestFormedOnce:
    def test_first_integrals_take_each_partial_once(self):
        report, calls = _derivative_calls(verify_first_integrals)
        assert report.passed and sorted(calls) == sorted(U_VARS * 2)

    def test_poisson_bracket_takes_each_partial_once(self):
        h12, h14 = first_integrals()
        _, calls = _derivative_calls(
            lambda: poisson_bracket(h12, h14, structure_I()))
        assert sorted(calls) == sorted(["u2", "u4", "u5", "u7"] * 2)

    def test_pullback_maps_the_base_and_not_its_power(self):
        field = square(CurveParams.symbolic(3))
        x1x2 = MPoly.var("X1") * MPoly.var("X2")
        inputs, bridge = [], hekdv.verify_tables.abcd_to_xy

        def recorded(p, f):
            inputs.append(p)
            return bridge(p, f)

        rf = RatFn(u2) * RatFn(1, u4 - u2 ** 2) ** 3
        with patch.object(hekdv.verify_tables, "abcd_to_xy", recorded):
            got = pullback_u(rf, field)
        a, b = MPoly.var("a"), MPoly.var("b")
        assert inputs == [-a, a ** 2 - b]
        assert got.den_exps == (3, 3, 0)
        assert got == field.elem(-(MPoly.var("X1") + MPoly.var("X2")) / 2,
                                 x1x2 ** 3)


class TestMutationControls:
    def test_sign_flip_in_table_fails(self):
        # weight-preserving single-term change: -35 u2^4 -> -33 u2^4
        mutated = flow_table("I").mutated("u5", 2 * MPoly.var("u2", 4))
        report = verify_flow_table("I", table=mutated)
        assert not report.passed
        assert any(v != "0" for _, v in report.residuals)

    def test_perturbed_integral_fails(self):
        h12, _ = first_integrals()
        report = verify_first_integrals(h12=h12 + RatFn(MPoly.var("u2")))
        assert not report.passed

    def test_sign_flipped_bracket_fails(self):
        from fractions import Fraction as F
        bad = PoissonStructure("I", {("u2", "u7"): F(1, 2),
                                     ("u4", "u5"): F(-1)})
        report = verify_hamiltonian_form(bracket_I=bad)
        assert not report.passed
