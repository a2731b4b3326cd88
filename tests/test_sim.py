from fractions import Fraction as F

import numpy as np
import pytest

from hekdv.curve import CurveParams, in_Bg
from hekdv.errors import ConfigError, SeedError, SingularityAbort
from hekdv.sim import (CompiledFlow, CompiledIntegrals, commute_experiment,
                       curve_ordinate, integrate, seed_state)
from hekdv import sim, tables
from hekdv.tables import U_VARS, first_integrals, flow_table

# reference configuration: Q = X^7 + X - 1 with the exact point (1, 1)
PARAMS = CurveParams.numeric(3, [0, 0, 0, 0, 1, 1])
P1 = (F(1), F(1))
P2 = (F(2), curve_ordinate(PARAMS, F(2)))

# small-amplitude configuration whose flow-II solution is pole-free on [0,1]
# (solutions are meromorphic; the large seed hits a flow-II pole near 0.1)
SMALL_PARAMS = CurveParams.numeric(3, [0, 0, 0, 0, F(1, 1024), F(-1, 1024)])
SMALL_P1 = (F(1, 4), curve_ordinate(SMALL_PARAMS, F(1, 4)))
SMALL_P2 = (F(1, 8), curve_ordinate(SMALL_PARAMS, F(1, 8)))


@pytest.fixture(scope="module")
def s0():
    return seed_state(PARAMS, P1, P2)


@pytest.fixture(scope="module")
def s0_small():
    return seed_state(SMALL_PARAMS, SMALL_P1, SMALL_P2)


class TestSeeding:
    def test_curve_is_nonsingular(self):
        assert in_Bg(PARAMS)

    def test_invariants_at_seed(self, s0):
        h12, h14 = CompiledIntegrals(PARAMS)(s0.vector())
        assert abs(h12 - 1.0) <= 1e-10
        assert abs(h14 - 1.0) <= 1e-10

    def test_exact_oracle_for_rational_point_pair(self):
        # fully rational double point (P1, P1) is rejected, but the exact
        # polynomial evaluation oracle still applies to the u-coordinates of
        # a rational pair on a different curve: use P1 twice shifted
        h12, _ = first_integrals()
        # exact evaluation at the floating seed reproduces the float residual
        s = seed_state(PARAMS, P1, P2)
        exact = h12.num.eval_numeric({
            "u2": complex(s.u2), "u4": complex(s.u4),
            "u5": complex(s.u5), "u7": complex(s.u7),
            "y4": 0, "y6": 0, "y8": 0, "y10": 0})
        assert abs(exact - 1.0) < 1e-10

    def test_integrals_built_once(self, monkeypatch):
        first_integrals()
        calls = []

        def counting_build_MN(params):
            calls.append(params)
            return build_MN(params)

        build_MN = tables.build_MN
        monkeypatch.setattr(tables, "build_MN", counting_build_MN)
        s = seed_state(PARAMS, P1, P2)
        integrate("I", s, 0.01, params=PARAMS)
        integrate("II", s, 0.01, params=PARAMS)
        assert calls == []

    def test_tables_compiled_once(self, monkeypatch):
        integrate("I", seed_state(PARAMS, P1, P2), 0.01, params=PARAMS)
        calls = []

        def counting_bind_numeric(rfs, params):
            calls.append(params)
            return bind_numeric(rfs, params)

        bind_numeric = sim._bind_numeric
        monkeypatch.setattr(sim, "_bind_numeric", counting_bind_numeric)
        s = seed_state(PARAMS, P1, P2)
        integrate("I", s, 0.01, params=PARAMS)
        integrate("I", s, 0.02, params=PARAMS)
        assert calls == []

    def test_coincident_points_rejected(self):
        with pytest.raises(SeedError):
            seed_state(PARAMS, P1, P1)

    def test_off_curve_rejected(self):
        with pytest.raises(SeedError):
            seed_state(PARAMS, (F(1), F(0)), P2)

    def test_zero_abscissa_rejected_for_t_flows(self):
        params = CurveParams.numeric(3, [0, 0, 0, 0, 1, 0])  # Q = X^7 + X
        with pytest.raises(SeedError):
            seed_state(params, (F(0), F(0)), (F(1), curve_ordinate(params, 1)),
                       flow="T1")


class TestIntegration:
    def test_flow_I_drift(self, s0):
        traj = integrate("I", s0, 1.0, rel_tol=1e-12, abs_tol=1e-14,
                         params=PARAMS)
        d12, d14 = traj.relative_drift()
        assert d12 <= 1e-9 and d14 <= 1e-9

    def test_flow_II_drift(self, s0_small):
        traj = integrate("II", s0_small, 1.0, rel_tol=1e-12, abs_tol=1e-14,
                         params=SMALL_PARAMS)
        assert max(traj.relative_drift()) <= 1e-9

    def test_zero_span(self, s0):
        traj = integrate("I", s0, 0.0, params=PARAMS)
        assert len(traj.samples) == 1

    def test_times_increase(self, s0):
        traj = integrate("I", s0, 0.5, params=PARAMS)
        times = traj.times()
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_tolerance_sweep_monotone(self, s0):
        drift = {}
        for rt in (1e-8, 1e-10, 1e-12):
            traj = integrate("I", s0, 1.0, rel_tol=rt, abs_tol=rt * 1e-2,
                             params=PARAMS)
            drift[rt] = max(traj.relative_drift())
        assert drift[1e-12] < drift[1e-8]

    def test_time_reversal(self, s0):
        fwd = integrate("I", s0, 1.0, rel_tol=1e-12, abs_tol=1e-14,
                        params=PARAMS)
        back = integrate("I", fwd.final_state(), 1.0, rel_tol=1e-12,
                         abs_tol=1e-14, params=PARAMS, reverse=True)
        err = np.max(np.abs(np.array(back.final_state().vector())
                            - np.array(s0.vector())))
        scale = max(1.0, float(np.max(np.abs(s0.vector()))))
        assert err <= 1e-7 * scale

    def test_complex_seed(self):
        # a point with negative ordinate square: Q(0) = -1 on X^7 + X - 1
        y0 = curve_ordinate(PARAMS, F(0))
        assert abs(y0.real) < 1e-15 and abs(y0.imag - 1.0) < 1e-15
        s = seed_state(PARAMS, (F(0), y0), P2)
        traj = integrate("I", s, 0.2, params=PARAMS)
        assert max(traj.relative_drift()) <= 1e-8

    def test_t_flow_singularity_abort(self):
        # u4 - u2^2 = -x1*x2 shrinks through zero along T1 from this seed
        params = CurveParams.numeric(3, [0, 0, 0, 0, 1, -1])   # X^7 + X + 1
        x1, x2 = F(-1, 2), F(1, 2)
        s = seed_state(params,
                       (x1, curve_ordinate(params, x1)),
                       (x2, curve_ordinate(params, x2)), flow="T1")
        with pytest.raises(SingularityAbort) as exc:
            integrate("T1", s, 1.0, params=params)
        partial = exc.value.trajectory
        assert partial is not None and len(partial.samples) >= 1

    def test_step_budget_abort(self, s0):
        with pytest.raises(SingularityAbort) as exc:
            integrate("I", s0, 1.0, params=PARAMS, max_steps=3)
        partial = exc.value.trajectory
        assert partial.aborted
        assert partial.abort_reason == "step budget exhausted"
        assert str(exc.value) == "step budget exhausted"
        assert len(partial.samples) >= 1


class TestRejectedSettings:
    """A span or tolerances no step control can honour are usage errors."""

    @pytest.mark.parametrize("t_end", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_span(self, s0, t_end):
        with pytest.raises(ConfigError, match="t_end must be finite"):
            integrate("I", s0, t_end, params=PARAMS)

    @pytest.mark.parametrize("tols", [
        dict(rel_tol=-1e-6),
        dict(abs_tol=-1e-14),
        dict(rel_tol=float("nan")),
        dict(abs_tol=float("nan")),
        dict(rel_tol=float("inf")),
        dict(rel_tol=0.0, abs_tol=0.0),
    ])
    def test_unusable_tolerances(self, s0, tols):
        with pytest.raises(ConfigError, match="tol"):
            integrate("I", s0, 0.1, params=PARAMS, **tols)

    def test_one_zero_tolerance_is_accepted(self, s0):
        traj = integrate("I", s0, 0.1, rel_tol=0.0, abs_tol=1e-12,
                         params=PARAMS)
        assert traj.samples[-1][0] == pytest.approx(0.1)

    def test_commute_rejects_a_nan_leg(self, s0):
        with pytest.raises(ConfigError, match="t_end must be finite"):
            commute_experiment(PARAMS, s0, float("nan"), 0.1)

    def test_commute_checks_tolerances_without_a_leg(self, s0):
        with pytest.raises(ConfigError, match="rel_tol"):
            commute_experiment(PARAMS, s0, 0.0, 0.0, rel_tol=-1.0)


# the endpoint must match scipy's DOP853 to perfbench's ORACLE_AGREEMENT
ORACLE_AGREEMENT = 1e-8
ORACLE_RUNS = (("I", 1.0, False), ("II", 0.02, False), ("T1", 0.1, False),
               ("T3", 0.1, False), ("T1", 0.1, True))


class TestOracles:
    """The stepper and the compiled right-hand sides against independent
    evaluations: scipy's DOP853 and exact rational arithmetic."""

    def test_dop853_endpoints(self, s0):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        for flow, span, reverse in ORACLE_RUNS:
            traj = integrate(flow, s0, span, rel_tol=1e-12, abs_tol=1e-14,
                             params=PARAMS, reverse=reverse)
            rhs = CompiledFlow(flow, PARAMS)
            ref = solve_ivp(lambda t, y: rhs(y),
                            (0.0, -span if reverse else span), s0.vector(),
                            method="DOP853", rtol=1e-13, atol=1e-15)
            assert ref.success, (flow, ref.message)
            want = ref.y[:, -1]
            gap = float(np.max(np.abs(traj.final_state().vector() - want)))
            scale = max(1.0, float(np.max(np.abs(want))))
            assert gap <= ORACLE_AGREEMENT * scale, (flow, reverse, gap)

    def test_compiled_matches_exact_evaluation(self):
        # a rational state off the singular set u4 = u2^2
        point = {"u2": F(1, 3), "u4": F(2, 7), "u5": F(-3, 5), "u7": F(5, 4)}
        state = np.array([float(point[u]) for u in U_VARS], dtype=complex)

        def exact(rf):
            return (PARAMS.sub_y(rf.num).eval_numeric(point)
                    / PARAMS.sub_y(rf.den).eval_numeric(point))

        cases = [(CompiledFlow(flow, PARAMS)(state),
                  [flow_table(flow).entries[u] for u in U_VARS])
                 for flow in ("I", "II", "T1", "T3")]
        cases.append((CompiledIntegrals(PARAMS)(state), first_integrals()))
        for got, entries in cases:
            assert len(got) == len(entries)
            for g, rf in zip(got, entries):
                want = float(exact(rf))
                assert want != 0 and abs(g - want) <= 1e-12 * abs(want)


class TestCommute:
    def test_t_pair(self, s0):
        rep = commute_experiment(PARAMS, s0, 0.1, 0.1, flows=("T1", "T3"))
        assert rep["pass"] and rep["discrepancy"] <= 1e-8

    def test_polynomial_pair(self, s0_small):
        rep = commute_experiment(SMALL_PARAMS, s0_small, 0.1, 0.1,
                                 flows=("I", "II"))
        assert rep["pass"]

    def test_zero_span_degenerate(self, s0_small):
        rep = commute_experiment(SMALL_PARAMS, s0_small, 0.0, 0.1,
                                 flows=("I", "II"))
        assert rep["discrepancy"] <= 1e-12


class TestCsv:
    def test_format(self, s0, tmp_path):
        traj = integrate("I", s0, 0.1, params=PARAMS)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "time,u2,u4,u5,u7,H12,H14"
        first = lines[1].split(",")
        assert len(first) == 7
        assert float(first[0]) == 0.0
        # 17 significant digits survive the round trip
        assert float(first[2]) == 0.25
