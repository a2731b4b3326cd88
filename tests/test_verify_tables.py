import pytest

from hekdv.curve import CurveParams
from hekdv.poly import MPoly
from hekdv.ratfun import RatFn
from hekdv.tables import (U_VARS, PoissonStructure, first_integrals,
                          flow_table)
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
