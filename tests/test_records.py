"""The record classes: equality, hashing, immutability, fresh fields and
the refusals of their constructors."""

from fractions import Fraction as F

import pytest

from hekdv import sim, verify_tables
from hekdv.curve import CurveParams
from hekdv.errors import ConfigError
from hekdv.poly import MPoly
from hekdv.report import ReportBuilder, VerifyReport
from hekdv.sim import SimState, Trajectory
from hekdv.tables import FlowTable, flow_table


class TestCurveParams:
    @pytest.mark.parametrize("ys", [
        (0, 0, 0, 0, 1, 1),
        ("0", "-1/2", "0", "3", "1", "1"),
        (F(0), F(-1, 2), F(0), F(3), F(1), F(1)),
    ], ids=["int", "str", "Fraction"])
    def test_equal_and_hashed_as_the_field_tuple(self, ys):
        direct, numeric = CurveParams(3, ys), CurveParams.numeric(3, ys)
        assert direct is not numeric
        assert direct == numeric and not direct != numeric
        assert hash(direct) == hash(numeric)
        assert hash(direct) == hash((3, tuple(F(v) for v in ys)))
        assert direct != CurveParams.numeric(3, (*ys[:5], 2))
        assert direct != CurveParams.symbolic(3).specialize(y12=1, y14=1)
        assert direct != (3, tuple(F(v) for v in ys))

    def test_symbolic_parameters(self):
        assert CurveParams(3, (None,) * 6) == CurveParams.symbolic(3)
        assert CurveParams.symbolic(2) != CurveParams.symbolic(3)

    def test_immutable(self):
        params = CurveParams.numeric(3, [0] * 6)
        for name, value in (("genus", 2), ("ys", (F(0),) * 4), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(params, name, value)
        assert (params.genus, params.ys) == (3, (F(0),) * 6)

    def test_equal_curves_share_cached_results(self):
        ys = (0, 0, 0, 0, 1, 1)
        one, two = CurveParams(3, ys), CurveParams.numeric(3, map(str, ys))
        assert one is not two
        assert verify_tables.square(one) is verify_tables.square(two)
        assert sim._flow_fn("T3", one) is sim._flow_fn("T3", two)

    def test_refusals(self):
        with pytest.raises(ConfigError) as exc:
            CurveParams(4, (0,) * 8)
        assert str(exc.value) == "supported genera are 2 and 3, got 4"
        with pytest.raises(ConfigError) as exc:
            CurveParams(3, (0,) * 5)
        assert str(exc.value) == "genus 3 needs 6 parameters"


class TestSimState:
    def test_equal_when_the_components_are(self):
        state = SimState(1 + 2j, 0.5, -3.0, 2j)
        assert state == SimState(1 + 2j, 0.5, -3.0, 2j)
        assert SimState(1.0, 2.0, 3.0, 4.0) == SimState(1 + 0j, 2, 3, 4 + 0j)
        assert state != SimState(1 + 2j, 0.5, -3.0, 3j)
        assert state != state.vector()

    def test_seeding_twice_gives_equal_states(self):
        params = CurveParams.numeric(3, [0, 0, 0, 0, 1, 1])
        p2 = (2, sim.curve_ordinate(params, 2))
        assert (sim.seed_state(params, (1, 1), p2)
                == sim.seed_state(params, (1, 1), p2))


class TestVerifyReport:
    def test_equal_when_all_four_fields_are(self):
        fields = ("thm-3.1-I", "Theorem 3.1", (("u2", "0"),), (0.25,))
        report = VerifyReport(*fields)
        assert report == VerifyReport(*fields)
        for i, other in enumerate(("x", "y", (("u2", "1"),), (0.5,))):
            changed = list(fields)
            changed[i] = other
            assert report != VerifyReport(*changed)
        assert report != fields

    def test_a_none_residual_fails(self):
        # exact_div and divide_out_linear answer None for a non-multiple
        rb = ReportBuilder("id", "anchor")
        rb.residual("a residual that came back None", None)
        rb.residual("an exact zero", MPoly.zero())
        report = rb.build()
        assert report.residuals == (("a residual that came back None", "None"),
                                    ("an exact zero", "0"))
        assert report.status == "FAIL"


class TestTrajectory:
    def test_each_trajectory_has_its_own_samples(self):
        one, two = Trajectory(1.0), Trajectory(1.0)
        one.samples.append((0.0, (1.0, 2.0, 3.0, 4.0), 0.0, 0.0))
        assert two.samples == [] and one.samples is not two.samples
        assert (two.abort_reason, two.nfev, two.rejected, two.guard_rejected,
                two.h_min, two.h_max) == ("", 0, 0, 0, None, None)


class TestConstructorRefusals:
    def test_flow_table_checks_flow_and_entries(self):
        entries = flow_table("I").entries
        with pytest.raises(ConfigError) as exc:
            FlowTable("III", entries)
        assert str(exc.value) == ("unknown flow 'III'; expected one of "
                                  "('I', 'II', 'T1', 'T3')")
        with pytest.raises(ConfigError) as exc:
            FlowTable("I", {k: v for k, v in entries.items() if k != "u7"})
        assert str(exc.value) == "flow table must cover exactly u2,u4,u5,u7"
