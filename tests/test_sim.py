import cmath
import dis
import hashlib
import math
import os
import random
import struct
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import hekdv
from hekdv.curve import CurveParams, in_Bg
from hekdv.errors import (ConfigError, SeedError, SingularityAbort,
                          StepBudgetExhausted)
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

        def counting_bind_numeric(rfs, params, filename):
            calls.append(params)
            return bind_numeric(rfs, params, filename)

        bind_numeric = sim._bind_numeric
        monkeypatch.setattr(sim, "_bind_numeric", counting_bind_numeric)
        s = seed_state(PARAMS, P1, P2)
        integrate("I", s, 0.01, params=PARAMS)
        integrate("I", s, 0.02, params=PARAMS)
        assert calls == []
        # a directly built CompiledFlow shares the compiled table too
        sim._flow_fn.cache_clear()
        first = CompiledFlow("I", PARAMS)
        second = CompiledFlow("I", PARAMS)
        assert calls == [PARAMS]
        assert first._fn is second._fn

    def test_coincident_points_rejected(self):
        with pytest.raises(SeedError):
            seed_state(PARAMS, P1, P1)

    def test_off_curve_rejected(self):
        with pytest.raises(SeedError):
            seed_state(PARAMS, (F(1), F(0)), P2)

    def test_zero_abscissa_rejected_for_t_flows(self):
        params = CurveParams.numeric(3, [0, 0, 0, 0, 1, 0])  # Q = X^7 + X
        s = seed_state(params, (F(0), F(0)), (F(1), curve_ordinate(params, 1)))
        for flow in ("T1", "T3"):
            with pytest.raises(SeedError, match="singular set"):
                integrate(flow, s, 1.0, params=params)

    def test_values_outside_the_float_range(self):
        # a coefficient of the compiled integrals, an 'auto' ordinate's Q(x),
        # and a seed coordinate: u5 = 2 / -1e-320 overflows
        big = CurveParams.numeric(3, [0, 0, 0, F(10) ** 308, 0, 1])
        with pytest.raises(ConfigError, match="outside the float range"):
            CompiledIntegrals(big)
        with pytest.raises(SeedError, match="outside the float range"):
            curve_ordinate(PARAMS, F(10) ** 50)
        params = CurveParams.numeric(3, [0, 0, 0, 0, 0, -1])  # Q = X^7 + 1
        tiny = F(10) ** -320
        with pytest.raises(SeedError, match="seed state"):
            seed_state(params, (tiny, F(1)), (2 * tiny, F(-1)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan,
                                     complex(1.0, math.inf)])
    @pytest.mark.parametrize("which", [0, 1], ids=["H12", "H14"])
    def test_non_finite_invariants_rejected(self, monkeypatch, bad, which):
        # abs(hv - want) > 1e-10 * scale is False for an inf or nan hv
        def integrals(self, state4):
            values = [1.0, 1.0]
            values[which] = bad
            return tuple(values)

        monkeypatch.setattr(CompiledIntegrals, "__call__", integrals)
        tag = ("H12", "H14")[which]
        with pytest.raises(SeedError, match=f"{tag} at the seed lies outside"):
            seed_state(PARAMS, P1, P2)

    @pytest.mark.parametrize("params", [
        CurveParams.symbolic(3),
        CurveParams.numeric(2, [0, 0, 1, 1]),
    ], ids=["symbolic", "genus-2"])
    def test_compiling_needs_numeric_genus_3_parameters(self, params):
        with pytest.raises(ConfigError, match="simulation needs"):
            CompiledIntegrals(params)
        with pytest.raises(ConfigError, match="simulation needs"):
            CompiledFlow("I", params)
        with pytest.raises(ConfigError, match="simulation needs"):
            seed_state(params, P1, P2)


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
        times = [sample[0] for sample in traj.samples]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_negative_span_runs_backwards(self, s0):
        traj = integrate("I", s0, -0.05, params=PARAMS)
        times = [sample[0] for sample in traj.samples]
        assert times[0] == 0.0 and times[-1] == traj.t_end == -0.05
        assert all(b < a for a, b in zip(times, times[1:]))
        assert traj.step_stats()["h_min"] > 0

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
        back = integrate("I", fwd.final_state(), -1.0, rel_tol=1e-12,
                         abs_tol=1e-14, params=PARAMS)
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
        for _, y, h12, h14 in traj.samples:
            assert all(type(v) is complex for v in (*y, h12, h14))

    def test_t_flow_singularity_abort(self):
        # u4 - u2^2 = -x1*x2 shrinks through zero along T1 from this seed
        params = CurveParams.numeric(3, [0, 0, 0, 0, 1, -1])   # X^7 + X + 1
        x1, x2 = F(-1, 2), F(1, 2)
        s = seed_state(params,
                       (x1, curve_ordinate(params, x1)),
                       (x2, curve_ordinate(params, x2)))
        with pytest.raises(SingularityAbort) as exc:
            integrate("T1", s, 1.0, params=params)
        partial = exc.value.trajectory
        assert partial is not None and len(partial.samples) >= 1

    def test_step_budget_abort(self, s0, monkeypatch):
        monkeypatch.setattr(sim, "MAX_STEPS", 3)
        with pytest.raises(StepBudgetExhausted) as exc:
            integrate("I", s0, 1.0, params=PARAMS)
        assert isinstance(exc.value, SingularityAbort)
        assert hekdv.StepBudgetExhausted is StepBudgetExhausted
        partial = exc.value.trajectory
        assert partial.aborted
        assert partial.abort_reason == "step budget exhausted"
        assert str(exc.value) == "step budget exhausted"
        assert len(partial.samples) >= 1
        stats = partial.step_stats()
        assert stats["accepted"] + stats["rejected"] == 3
        assert stats["nfev"] == 2 + 6 * 3


class TestStepStatistics:
    """nfev, rejected and guard-rejected attempts and the step range."""

    @staticmethod
    def count_calls(monkeypatch, poison=None):
        """Count right-hand-side calls at the generated function that
        integrate takes from sim._flow_fn; call number `poison` returns
        NaN."""
        calls = []
        flow_fn = sim._flow_fn

        def counting_flow_fn(flow, params):
            fn = flow_fn(flow, params)

            def counting(*state):
                calls.append(None)
                if len(calls) == poison:
                    return (complex("nan"),) * 4
                return fn(*state)
            return counting
        monkeypatch.setattr(sim, "_flow_fn", counting_flow_fn)
        return calls

    def test_reference_run(self, s0, monkeypatch):
        calls = self.count_calls(monkeypatch)
        traj = integrate("I", s0, 1.0, rel_tol=1e-12, abs_tol=1e-14,
                         params=PARAMS)
        stats = traj.step_stats()
        assert stats["accepted"] == len(traj.samples) - 1 == 614
        assert stats["nfev"] == len(calls)
        assert stats["nfev"] == 2 + 6 * (stats["accepted"] + stats["rejected"])
        assert stats["guard_rejected"] == 0
        times = [sample[0] for sample in traj.samples]
        steps = [b - a for a, b in zip(times, times[1:])]
        assert stats["h_min"] == pytest.approx(min(steps), rel=1e-9)
        assert stats["h_max"] == pytest.approx(max(steps), rel=1e-9)

    def test_non_finite_trial_is_a_guard_rejection(self, s0, monkeypatch):
        # two calls choose the first step; the third is the first attempt's
        # second stage, so that attempt's trial state is not finite
        calls = self.count_calls(monkeypatch, poison=3)
        traj = integrate("I", s0, 0.05, params=PARAMS)
        stats = traj.step_stats()
        assert stats["guard_rejected"] == 1
        assert stats["rejected"] >= 1
        assert stats["nfev"] == len(calls)
        assert stats["nfev"] == 2 + 6 * (stats["accepted"] + stats["rejected"])

    def test_partial_trajectory(self, monkeypatch):
        # the singularity abort of TestIntegration: its error test rejects
        params = CurveParams.numeric(3, [0, 0, 0, 0, 1, -1])
        x1, x2 = F(-1, 2), F(1, 2)
        s = seed_state(params,
                       (x1, curve_ordinate(params, x1)),
                       (x2, curve_ordinate(params, x2)))
        calls = self.count_calls(monkeypatch)
        with pytest.raises(SingularityAbort) as exc:
            integrate("T1", s, 1.0, params=params)
        stats = exc.value.trajectory.step_stats()
        assert stats["rejected"] > 0
        assert stats["nfev"] == len(calls)
        assert stats["nfev"] == 2 + 6 * (stats["accepted"] + stats["rejected"])
        assert 0 < stats["h_min"] <= stats["h_max"]

    def test_zero_span(self, s0):
        assert integrate("I", s0, 0.0, params=PARAMS).step_stats() == {
            "accepted": 0, "rejected": 0, "guard_rejected": 0, "nfev": 0,
            "h_min": None, "h_max": None}

    def test_commute_sums_its_legs(self, s0):
        rep = commute_experiment(PARAMS, s0, 0.05, 0.03, flows=("T1", "T3"))
        legs = []
        for first, second, a, b in (("T1", "T3", 0.05, 0.03),
                                    ("T3", "T1", 0.03, 0.05)):
            one = integrate(first, s0, a, params=PARAMS)
            two = integrate(second, one.final_state(), b, params=PARAMS)
            legs += [one.step_stats(), two.step_stats()]
        steps = rep["steps"]
        for key in ("accepted", "rejected", "guard_rejected", "nfev"):
            assert steps[key] == sum(leg[key] for leg in legs)
        assert steps["h_min"] == min(leg["h_min"] for leg in legs)
        assert steps["h_max"] == max(leg["h_max"] for leg in legs)


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
        dict(abs_tol=0.0),
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
ORACLE_RUNS = (("I", 1.0), ("II", 0.02), ("T1", 0.1), ("T3", 0.1),
               ("T1", -0.1))


class TestOracles:
    """The stepper and the compiled right-hand sides against independent
    evaluations: scipy's DOP853 and exact rational arithmetic."""

    def test_dop853_endpoints(self, s0):
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        for flow, span in ORACLE_RUNS:
            traj = integrate(flow, s0, span, rel_tol=1e-12, abs_tol=1e-14,
                             params=PARAMS)
            rhs = CompiledFlow(flow, PARAMS)
            ref = solve_ivp(lambda t, y: rhs(y), (0.0, span), s0.vector(),
                            method="DOP853", rtol=1e-13, atol=1e-15)
            assert ref.success, (flow, ref.message)
            want = ref.y[:, -1]
            gap = float(np.max(np.abs(traj.final_state().vector() - want)))
            scale = max(1.0, float(np.max(np.abs(want))))
            assert gap <= ORACLE_AGREEMENT * scale, (flow, span, gap)

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


# Dormand & Prince (1980), as tabulated in Hairer, Norsett & Wanner,
# Solving ODEs I, Table II.5.2: the stage rows, the fifth-order weights B5
# (also the seventh stage's row) and the embedded fourth-order weights B4
DP_ROWS = (
    (),
    (F(1, 5),),
    (F(3, 40), F(9, 40)),
    (F(44, 45), F(-56, 15), F(32, 9)),
    (F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)),
    (F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176),
     F(-5103, 18656)),
)
DP_B5 = (F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784),
         F(11, 84))
DP_B4 = (F(5179, 57600), F(0), F(7571, 16695), F(393, 640),
         F(-92097, 339200), F(187, 2100), F(1, 40))


def weighted_sum(weights, stages, j):
    """Sum of float(w) * stage[j] over the nonzero weights, left to right."""
    terms = [float(w) * k[j] for w, k in zip(weights, stages) if w]
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def reference_attempt(f, y, k1, hs, h, rel_tol, abs_tol):
    """One Dormand-Prince attempt as a plain loop over the stages, followed
    by the accept test's arithmetic as the integrate loop did it: the error
    norm by _rms's rule over the scales abs_tol + rel_tol * max(|y_j|,
    |y_new_j|), the finiteness of the trial state and its largest modulus."""
    stages = [k1]
    for row in (*DP_ROWS[1:], DP_B5):
        state = tuple(y[j] + hs * weighted_sum(row, stages, j)
                      for j in range(4))
        stages.append(f(*state))
    errors = [b5 - b4 for b5, b4 in zip((*DP_B5, F(0)), DP_B4)]
    err_terms = tuple(h * weighted_sum(errors, stages, j) for j in range(4))
    scale = [abs_tol + rel_tol * max(abs(a), abs(b))
             for a, b in zip(y, state)]
    ratios = [abs(v) / s for v, s in zip(err_terms, scale)]
    # _rms's sum, written out left to right as Python 3.11's sum adds
    total = 0
    for r in ratios:
        total = total + r * r
    err = math.sqrt(total / len(ratios))
    return (state, stages[6], err, all(map(cmath.isfinite, state)),
            max(map(abs, state)))


class TestGeneratedStep:
    """The generated _dp_attempt against the tableau as a plain loop."""

    @pytest.mark.parametrize("flow", ["I", "II", "T1", "T3"])
    @pytest.mark.parametrize("kind", ["real", "complex", "float"])
    def test_matches_reference_loop(self, flow, kind):
        rng = random.Random(f"{flow}-{kind}")
        f = sim._flow_fn(flow, PARAMS)
        attempt = sim._build_dp_attempt()

        def draw():
            if kind in ("real", "float"):
                return rng.uniform(-2, 2)
            return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))

        for i in range(20):
            y = tuple(draw() for _ in range(4))
            h = 10.0 ** rng.uniform(-6, -2)
            if i < 3:
                rel_tol, abs_tol = ((1e-12, 1e-14), (1e-6, 0.0),
                                    (0.0, 1e-10))[i]
            else:
                rel_tol = 10.0 ** -rng.uniform(4, 13)
                abs_tol = rel_tol * 10.0 ** -rng.uniform(0, 3)
            for hs in (h, -h):
                args = (f, y, f(*y), hs, h, rel_tol, abs_tol)
                got = attempt(*args)
                assert got == reference_attempt(*args), (y, hs)
                assert got[3] is True
                if kind == "float":
                    # the same attempt on the state as complex numbers
                    yc = tuple(map(complex, y))
                    on_c = attempt(f, yc, f(*yc), hs, h, rel_tol, abs_tol)
                    assert got[2:] == on_c[2:]
                    for mine, theirs in zip((*got[0], *got[1]),
                                            (*on_c[0], *on_c[1])):
                        assert type(mine) is float
                        assert mine == theirs.real and theirs.imag == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf,
                                       complex(math.inf, math.nan)],
                             ids=["nan", "inf", "inf-nan"])
    def test_non_finite_trial_state_flagged(self, value):
        # a constant field carries the bad component into the trial state
        def f(u2, u4, u5, u7):
            return (1.0, -0.5, 0.25, 2.0)

        attempt = sim._build_dp_attempt()
        for j in range(4):
            y = tuple(value if i == j else 0.5 + i for i in range(4))
            args = (f, y, f(*y), 1e-3, 1e-3, 1e-12, 1e-14)
            y_new, _, err, finite, _ = attempt(*args)
            assert not cmath.isfinite(y_new[j])
            assert finite is False
            assert reference_attempt(*args)[3] is False
            if value == math.inf:
                # the norm alone would accept it: inf scales |e_j| to 0
                assert err == reference_attempt(*args)[2] <= 1.0

    def test_overflowing_modulus_raises(self):
        # finite parts whose modulus exceeds the float range
        def f(u2, u4, u5, u7):
            return (0.0, 0.0, 0.0, 0.0)

        y = (complex(1.5e308, 1.5e308), 0.5, 0.5, 0.5)
        for step in (sim._build_dp_attempt(), reference_attempt):
            with pytest.raises(OverflowError):
                step(f, y, f(*y), 1e-3, 1e-3, 1e-12, 1e-14)

    def test_overflowing_power_is_not_finite(self):
        # (1e200)^2 overflows: the product chain gives inf and nan where
        # ** raised OverflowError, and the attempt flags its trial state
        f = sim._flow_fn("T3", PARAMS)
        attempt = sim._build_dp_attempt()
        for y in ((1e200, 0.5, 0.25, 1.0), (1e200 + 0j, 0.5, 0.25, 1.0)):
            _, _, err, finite, _ = attempt(f, y, f(*y), 1e-3, 1e-3,
                                           1e-12, 1e-14)
            assert finite is False and not err <= 1.0

    def test_built_on_first_integration_only(self):
        src = str(Path(hekdv.__file__).resolve().parents[1])
        code = ("import sys, hekdv.cli, hekdv.sim; "
                "built = hekdv.sim._build_dp_attempt.cache_info().currsize; "
                "assert hekdv.cli.run(['verify', 'integrals', '--out', "
                "sys.argv[1]]) == 0; "
                "assert hekdv.sim._build_dp_attempt.cache_info().currsize "
                "== built == 0")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code, os.devnull],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr


def bits(x):
    return struct.pack("<d", x)


def operators(fn):
    """The binary operators in the bytecode of a generated table."""
    return {i.argrepr for i in dis.get_instructions(fn)
            if i.opname.startswith("BINARY")}


def power_chain(v, e):
    """v^e through the chain nodes a generated table computes."""
    lines = sim._power_chain("v", [e])
    namespace = {"v": v}
    exec("\n".join(line.strip() for line in lines), namespace)
    return namespace[sim._power_name("v", e)]


class TestFloatPath:
    """A real seed runs on floats: the generated tables write powers as
    products, so a float evaluation is the real part of the complex one."""

    def test_tables_hold_no_power_operator(self):
        tables = [CompiledFlow(f, PARAMS) for f in ("I", "II", "T1", "T3")]
        for table in (*tables, CompiledIntegrals(PARAMS)):
            ops = operators(table._fn)
            assert "*" in ops and "**" not in ops, ops

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_chain_is_complex_power(self, kind):
        rng = random.Random(f"chain-{kind}")
        for _ in range(300):
            x = rng.uniform(-3, 3)
            z = complex(x, 0.0 if kind == "real" else rng.uniform(-3, 3))
            for e in range(1, 13):
                chain = power_chain(z, e)
                want = z ** e
                assert bits(chain.real) == bits(want.real), (z, e)
                # ** starts from 1 * z, which may flip the sign of a zero
                # part; a nonzero part agrees to the bit
                assert chain.imag == want.imag, (z, e)
                if want.imag:
                    assert bits(chain.imag) == bits(want.imag), (z, e)
                if kind == "real":
                    on_float = power_chain(x, e)
                    assert bits(on_float) == bits(want.real), (x, e)

    @pytest.mark.parametrize("table", ["I", "II", "T1", "T3", "integrals"])
    def test_float_values_are_real_parts(self, table):
        fn = (CompiledIntegrals(PARAMS) if table == "integrals"
              else CompiledFlow(table, PARAMS))
        rng = random.Random(f"real-parts-{table}")
        for _ in range(1000):
            y = tuple(rng.uniform(-2, 2) for _ in range(4))
            on_floats = fn(y)
            on_complex = fn(tuple(map(complex, y)))
            for got, want in zip(on_floats, on_complex):
                assert type(got) is float and type(want) is complex
                assert got == want.real and want.imag == 0, y

    def test_real_seed_runs_on_floats(self, s0, monkeypatch):
        assert all(type(v) is complex for v in s0.vector())
        traj = integrate("T1", s0, 0.1, params=PARAMS)
        for _, y, h12, h14 in traj.samples:
            assert all(type(v) is float for v in (*y, h12, h14))
        assert all(type(v) is float for v in traj.final_state().vector())
        # a field that returns complex numbers makes the stages, hence every
        # state after the seed, complex: the float run is its real part
        flow_fn = sim._flow_fn
        monkeypatch.setattr(sim, "_flow_fn", lambda flow, params: (
            lambda *state: tuple(map(complex, flow_fn(flow, params)(*state)))))
        on_c = integrate("T1", s0, 0.1, params=PARAMS)
        assert type(on_c.samples[-1][1][0]) is complex
        assert on_c.step_stats() == traj.step_stats()
        for (t, y, h12, h14), (tc, yc, h12c, h14c) in zip(traj.samples,
                                                          on_c.samples):
            assert t == tc and y == tuple(v.real for v in yc)
            assert (h12, h14) == (complex(h12c).real, complex(h14c).real)


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


# sha256 of what scripts/drift_experiment.py writes, as the simulator wrote
# it when every seed ran on complex numbers: the float path for real seeds
# must not move a bit of it
DRIFT_DIGESTS = {
    "stdout":
        "892f187bb7eab74e393a883d2a1d02b1c1d13fce15e6cbf2bfdc75358a8c83a9",
    "drift_sweep.csv":
        "dcf437ebc2cd2e7b05c6f4ae70c14a751ffcd2f76da28b248513582acaaf6a91",
    "trajectory_I.csv":
        "db9c4b1076675b93bf750fdae0157a0146c8a1c8480fde3a3447b25ab9f59775",
}


def test_drift_experiment_outputs_are_pinned(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "drift_experiment.py")],
        cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    got = {"stdout": hashlib.sha256(done.stdout).hexdigest()}
    for name in ("drift_sweep.csv", "trajectory_I.csv"):
        got[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert got == DRIFT_DIGESTS
