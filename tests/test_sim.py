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


def recording(f):
    """f, calling which appends (state, values) to the list returned
    with it."""
    calls = []

    def call(*state):
        values = f(*state)
        calls.append((state, values))
        return values
    return call, calls


def one_attempt(f, y, hs, h, rel_tol, abs_tol):
    """One attempt of the generated step loop: a span of exactly h with
    max_steps=1, so the loop takes one attempt at h and stops, after the
    span or at the budget.  Returns the loop's result, its samples and
    the calls of f the attempt made."""
    call, calls = recording(f)
    samples = []
    result = sim._build_run()(
        call, sim._integrals_fn(PARAMS), *y, *f(*y), h,
        math.copysign(1.0, hs), h, rel_tol, abs_tol, False, 0.0, samples, 1)
    return result, samples, calls


def reference_calls(f, y, hs, h, rel_tol, abs_tol):
    """reference_attempt's result and the calls of f it made."""
    call, calls = recording(f)
    return reference_attempt(call, y, f(*y), hs, h, rel_tol, abs_tol), calls


def attempt_outcome(attempt, hs, h, inv):
    """What the step loop makes of one attempt, reference_attempt's result,
    over a span of exactly h with max_steps=1 and no guard: (result,
    samples) as ``one_attempt`` returns them."""
    y_new, _, err, finite, big = attempt
    budget = ("step budget exhausted", 1, int(not finite), math.inf, 0.0)
    if not (finite and err <= 1.0):
        return budget, []
    if big > 1e9:
        return ("state magnitude overflow (finite-time escape)",
                *budget[1:]), []
    return ("", 1, 0, h, h), [(hs, y_new, *inv(*y_new))]


class TestGeneratedStep:
    """One attempt of the generated step loop against the tableau as a
    plain loop.  An attempt shows its stage sums and trial state in the
    calls of f, and its error norm only by the decision it makes, which
    the whole-run reference (TestGeneratedLoop) pins bit for bit."""

    @pytest.mark.parametrize("flow", ["I", "II", "T1", "T3"])
    @pytest.mark.parametrize("kind", ["real", "complex", "float"])
    def test_matches_reference_loop(self, flow, kind):
        rng = random.Random(f"{flow}-{kind}")
        f = sim._flow_fn(flow, PARAMS)
        inv = sim._integrals_fn(PARAMS)

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
                result, samples, calls = one_attempt(f, y, hs, h, rel_tol,
                                                     abs_tol)
                want, want_calls = reference_calls(f, y, hs, h, rel_tol,
                                                   abs_tol)
                assert calls == want_calls, (y, hs)
                assert want[3] is True
                assert (result, samples) == attempt_outcome(want, hs, h,
                                                            inv), (y, hs)
                if kind == "float":
                    # the same attempt on the state as complex numbers
                    yc = tuple(map(complex, y))
                    on_c = one_attempt(f, yc, hs, h, rel_tol, abs_tol)
                    assert result == on_c[0]
                    assert len(calls) == len(on_c[2]) == 6
                    for (state, values), (state_c, values_c) in zip(
                            calls, on_c[2]):
                        for mine, theirs in zip((*state, *values),
                                                (*state_c, *values_c)):
                            assert type(mine) is float
                            assert mine == theirs.real and theirs.imag == 0
                    for (t, y_new, h12, h14), (tc, yc_new, h12c, h14c) in zip(
                            samples, on_c[1]):
                        assert t == tc
                        assert y_new == tuple(v.real for v in yc_new)
                        assert (h12, h14) == (h12c.real, h14c.real)

    @pytest.mark.parametrize("value", [math.nan, math.inf,
                                       complex(math.inf, math.nan)],
                             ids=["nan", "inf", "inf-nan"])
    def test_non_finite_trial_state_flagged(self, value):
        # a constant field carries the bad component into the trial state
        def f(u2, u4, u5, u7):
            return (1.0, -0.5, 0.25, 2.0)

        for j in range(4):
            y = tuple(value if i == j else 0.5 + i for i in range(4))
            args = (f, y, 1e-3, 1e-3, 1e-12, 1e-14)
            result, samples, calls = one_attempt(*args)
            want, want_calls = reference_calls(*args)
            # repr tells nan from nan, which == does not
            assert repr(calls) == repr(want_calls)
            y_new = calls[-1][0]
            assert not cmath.isfinite(y_new[j])
            assert want[3] is False
            # a guard rejection, which the budget then stops
            assert result == ("step budget exhausted", 1, 1, math.inf, 0.0)
            assert samples == []
            if value == math.inf:
                # the norm alone would accept it: inf scales |e_j| to 0
                assert want[2] <= 1.0

    def test_overflowing_modulus_raises(self):
        # finite parts whose modulus exceeds the float range
        def f(u2, u4, u5, u7):
            return (0.0, 0.0, 0.0, 0.0)

        y = (complex(1.5e308, 1.5e308), 0.5, 0.5, 0.5)
        for step in (one_attempt, reference_calls):
            with pytest.raises(OverflowError):
                step(f, y, 1e-3, 1e-3, 1e-12, 1e-14)

    def test_overflowing_power_is_not_finite(self):
        # (1e200)^2 overflows: the product chain gives inf and nan where
        # ** raised OverflowError, and the attempt flags its trial state
        f = sim._flow_fn("T3", PARAMS)
        for y in ((1e200, 0.5, 0.25, 1.0), (1e200 + 0j, 0.5, 0.25, 1.0)):
            args = (f, y, 1e-3, 1e-3, 1e-12, 1e-14)
            result, samples, _ = one_attempt(*args)
            assert result == ("step budget exhausted", 1, 1, math.inf, 0.0)
            assert samples == []
            want, _ = reference_calls(*args)
            assert want[3] is False and not want[2] <= 1.0

    def test_built_on_first_integration_only(self):
        src = str(Path(hekdv.__file__).resolve().parents[1])
        code = ("import sys, hekdv.cli, hekdv.sim; "
                "built = hekdv.sim._build_run.cache_info().currsize; "
                "assert hekdv.cli.run(['verify', 'integrals', '--out', "
                "sys.argv[1]]) == 0; "
                "assert hekdv.sim._build_run.cache_info().currsize "
                "== built == 0")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code, os.devnull],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr


def reference_integrate(flow, s0, t_end, rel_tol, abs_tol, params):
    """integrate as a plain loop around reference_attempt, the loop that
    integrate ran before its step loop was generated: (samples,
    step_stats(), abort_reason) of the run.  The argument checks, the
    seed's conversion and the initial step are integrate's own."""
    f = sim._flow_fn(flow, params)
    invariants = sim._integrals_fn(params)
    span = float(t_end)
    sign = -1.0 if span < 0 else 1.0
    length = abs(span)
    guard = flow in sim.T_FLOWS
    y = s0.vector()
    if not any(v.imag for v in y):
        y = tuple([float(v.real) for v in y])
    guard_floor = 1e-8 * max(abs(y[1] - y[0] * y[0]), 1e-30)
    samples = [(0.0, y, *invariants(*y))]
    f0 = f(*y)
    h = min(0.01 * length,
            sim._initial_step(f, y, f0, sign, rel_tol, abs_tol))
    t, err_prev, steps, guard_rejected = 0.0, 1.0, 0, 0
    h_min, h_max = math.inf, 0.0
    reason = ""
    while t < length:
        if steps >= sim.MAX_STEPS:
            reason = "step budget exhausted"
            break
        h = min(h, length - t)
        if h < 1e-15 * max(1.0, t):
            reason = ("step size underflow near the singular set" if guard
                      else "step size underflow")
            break
        y_new, k7, err, finite, big = reference_attempt(
            f, y, f0, sign * h, h, rel_tol, abs_tol)
        steps += 1
        bad = (not finite
               or guard and abs(y_new[1] - y_new[0] * y_new[0]) < guard_floor)
        if err <= 1.0 and not bad:
            t += h
            y = y_new
            if big > 1e9:
                reason = "state magnitude overflow (finite-time escape)"
                break
            f0 = k7
            samples.append((sign * t, y, *invariants(*y)))
            h_min, h_max = min(h_min, h), max(h_max, h)
            factor = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 0 else 5.0
            err_prev = max(err, 1e-16)
            h *= min(5.0, max(0.2, factor))
        elif bad:
            guard_rejected += 1
            h *= 0.25
        else:
            h *= min(1.0, max(0.2, 0.9 * err ** -0.2))
    stats = {"accepted": len(samples) - 1,
             "rejected": steps - (len(samples) - 1),
             "guard_rejected": guard_rejected, "nfev": 2 + 6 * steps,
             "h_min": h_min if h_max else None,
             "h_max": h_max if h_max else None}
    return samples, stats, reason


def pair_seed(params, x1, x2):
    return seed_state(params, (x1, curve_ordinate(params, x1)),
                      (x2, curve_ordinate(params, x2)))


# Q(1/2) < 0 on X^7 + X - 1: a complex seed off the singular set
COMPLEX_SEED = pair_seed(PARAMS, F(1, 2), F(2))
# on X^7 + X + 1, T3 nears u4 = u2^2 from this pair
NEAR_PARAMS = CurveParams.numeric(3, [0, 0, 0, 0, 1, -1])
NEAR_SEED = pair_seed(NEAR_PARAMS, F(-1, 4), F(1, 2))
REAL_SEED = pair_seed(PARAMS, P1[0], P2[0])

LOOP_CASES = {
    f"{flow}-{kind}-{'fwd' if span > 0 else 'back'}":
        (flow, seed, span, 1e-9, 1e-11, PARAMS)
    for flow in ("I", "II", "T1", "T3")
    for kind, seed in (("float", REAL_SEED), ("complex", COMPLEX_SEED))
    for span in (0.05, -0.05)}
LOOP_CASES.update({
    # 32 accepted, 9 rejected by the error test
    "rejections-float": ("II", REAL_SEED, 0.1, 1e-3, 1e-5, PARAMS),
    # 15 accepted, 6 rejected
    "rejections-complex": ("I", COMPLEX_SEED, -0.1, 1e-2, 1e-4, PARAMS),
    # one guard rejection, then the step size underflows
    "guard": ("T3", NEAR_SEED, 1.0, 1e-9, 1e-11, NEAR_PARAMS),
    "underflow": ("I", REAL_SEED, 0.05, 0.0, 1e-30, PARAMS),
    "escape": ("I", REAL_SEED, -0.3, 1e-6, 1e-8, PARAMS),
    # the first attempt's second stage is NaN: a guard rejection, then
    # the run goes on from a quarter of the step
    "non-finite": ("I", REAL_SEED, 0.05, 1e-9, 1e-11, PARAMS),
    "budget": ("II", REAL_SEED, 0.1, 1e-3, 1e-5, PARAMS),
})


class TestGeneratedLoop:
    """integrate against reference_integrate, bit for bit: every sample,
    the step statistics and the abort reason."""

    @pytest.mark.parametrize("case", list(LOOP_CASES))
    def test_matches_reference_integrate(self, case, monkeypatch):
        flow, seed, span, rel_tol, abs_tol, params = LOOP_CASES[case]
        if case == "budget":
            # the budget runs out among the rejections of the loose run
            monkeypatch.setattr(sim, "MAX_STEPS", 12)
        if case == "non-finite":
            # each run gets its own count of the calls of its table
            flow_fn = sim._flow_fn

            def poisoned_flow_fn(flow, params):
                fn, calls = flow_fn(flow, params), []

                def poisoned(*state):
                    calls.append(None)
                    return (math.nan,) * 4 if len(calls) == 3 else fn(*state)
                return poisoned
            monkeypatch.setattr(sim, "_flow_fn", poisoned_flow_fn)
        samples, stats, reason = reference_integrate(flow, seed, span,
                                                     rel_tol, abs_tol, params)
        try:
            traj = integrate(flow, seed, span, rel_tol, abs_tol, params=params)
        except SingularityAbort as exc:
            traj = exc.trajectory
            assert type(exc) is (StepBudgetExhausted if case == "budget"
                                 else SingularityAbort)
            assert str(exc) == traj.abort_reason
        assert (traj.abort_reason, traj.step_stats()) == (reason, stats)
        assert len(traj.samples) == len(samples)
        for got, want in zip(traj.samples, samples):
            # repr holds every bit of a float, and tells float from complex
            assert repr(got) == repr(want)
        kinds = {"guard": "near the singular set", "underflow": "underflow",
                 "escape": "escape", "budget": "budget"}
        assert (kinds[case] in reason) if case in kinds else not reason
        if case.startswith("rejections"):
            assert stats["rejected"] > 0 and stats["guard_rejected"] == 0
        if case in ("guard", "non-finite"):
            assert stats["guard_rejected"] == 1
        if case == "non-finite":
            assert stats["accepted"] > 0


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
