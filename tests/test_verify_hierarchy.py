import copy

import pytest

from hekdv.verify_hierarchy import (DEFAULT_EQ_COEFFS, suite_dkdv, suite_psi,
                                    verify_dkdv_equations, verify_kdv_reduction,
                                    verify_psi_intertwine, verify_seconddif,
                                    split_dkdv_equation_reports,
                                    split_psi_reports)


def test_seconddif_passes():
    report = verify_seconddif()
    assert report.passed, report.summary()


def test_seconddif_right_hand_side_is_over_one_base():
    from unittest.mock import patch
    import hekdv.verify_hierarchy as vh
    from hekdv.tables import u2, u4
    seen, pullback = [], vh.pullback_u

    def recorded(rf, field):
        seen.append(rf)
        return pullback(rf, field)

    with patch.object(vh, "pullback_u", recorded):
        assert verify_seconddif().passed
    rhs, = seen
    assert rhs.base == u2 ** 2 - u4 and rhs.k == 3


def test_uv_pullbacks():
    from hekdv.poly import MPoly
    from hekdv.verify_hierarchy import _ctx
    field, _, _, u, v = _ctx()
    X1, X2 = MPoly.var("X1"), MPoly.var("X2")
    assert u == field.elem(2 * (X1 + X2))
    assert v == field.elem(-2 * X1 * X2)


def test_hierarchy_equations_pass():
    report = verify_dkdv_equations()
    assert report.passed, report.summary()
    # four weight audits plus four residuals
    assert len(report.residuals) == 8


def test_split_equation_reports():
    parts = split_dkdv_equation_reports(verify_dkdv_equations())
    ids = [p.check_id for p in parts]
    assert ids == ["thm-5.5-first", "thm-5.5-second",
                   "thm-5.5-third", "thm-5.5-fourth"]
    assert all(p.passed for p in parts)


@pytest.mark.parametrize("check, split, ids", [
    (verify_dkdv_equations, split_dkdv_equation_reports,
     ["thm-5.5-first", "thm-5.5-second", "thm-5.5-third", "thm-5.5-fourth"]),
    (verify_psi_intertwine, split_psi_reports,
     ["psi-identity", "eq-trans2", "prop-6.3"]),
])
def test_split_millis_sum_to_joint_report(check, split, ids):
    joint = check()
    parts = split(joint)
    assert [p.check_id for p in parts] == ids
    assert tuple(row for p in parts for row in p.residuals) == joint.residuals
    assert sum(p.millis for p in parts) == pytest.approx(joint.millis)
    # each part is charged its own rows' times, not a share of the total
    assert tuple(t for p in parts for t in p.row_millis) == joint.row_millis
    for p in parts:
        assert p.millis == pytest.approx(sum(p.row_millis)) and p.millis >= 0


def test_kdv_reduction():
    report = verify_kdv_reduction()
    assert report.passed, report.summary()
    labels = dict(report.residuals)
    assert labels["nonzero residual with y12 symbolic"] == "0"  # condition met


def test_psi_suite_counts_fourteen():
    report = verify_psi_intertwine()
    assert report.passed
    assert len(report.residuals) == 14


def test_psi_split_ids():
    parts = suite_psi()
    sizes = {p.check_id: len(p.residuals) for p in parts}
    assert sizes == {"psi-identity": 2, "eq-trans2": 4, "prop-6.3": 8}


def test_suite_composition():
    ids = [r.check_id for r in suite_dkdv()]
    assert ids[0] == "eq-seconddif"
    assert "thm-5.5-first" in ids and "prop-6.5" in ids
    assert "prop-6.3" in ids


class TestMutationControls:
    def test_coefficient_flip_first_equation(self):
        coeffs = copy.deepcopy(DEFAULT_EQ_COEFFS)
        coeffs["first"]["udot"] = 4          # sign flip of the 4*udot term
        report = verify_dkdv_equations(coeffs)
        assert not report.passed

    def test_y14_sign_flip_second_equation(self):
        coeffs = copy.deepcopy(DEFAULT_EQ_COEFFS)
        coeffs["second"]["y14_v_vp"] = -32
        report = verify_dkdv_equations(coeffs)
        assert not report.passed

    def test_seconddif_coefficient_mutation(self):
        from hekdv.ratfun import RatFn
        from hekdv.tables import u2, u4, y4
        from hekdv.poly import MPoly
        den = u4 - u2 ** 2
        bad = (RatFn(2 * u4 + 9 * u2 ** 2 + y4)      # 10 -> 9
               - RatFn(MPoly.var("y12"), den ** 2)
               - RatFn(4 * MPoly.var("y14") * u2, den ** 3))
        report = verify_seconddif(rhs_override=bad)
        assert not report.passed

    def test_mutated_transfer_image(self):
        from hekdv.poly import MPoly, variables
        a, b, c, d = variables("a", "b", "c", "d")
        images = {"a": (a, MPoly.const(1)), "b": (b, MPoly.const(1)),
                  "c": (a * c + d, a ** 2 - b),        # sign flip on d
                  "d": (a * d - b * c, a ** 2 - b)}
        report = verify_psi_intertwine(trans2_images=images)
        assert not report.passed
