"""Numerical integration of the four flows with invariant-drift monitoring.

The right-hand sides are compiled from the same transcribed tables that the
symbolic engine certifies, so the measured drift of the two integrals along
a trajectory is purely integrator error.  Each table compiles into one
generated function.  The stepper is an embedded Dormand-Prince 5(4) pair
with PI step-size control, its stages one (7, 4) array.  The state is always
a complex numpy array of the four coordinates, so complex seeds (curve
points with negative ordinate squares) are advanced directly, and the
error norm measures each component by its modulus.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .curve import CurveParams
from .errors import ConfigError, SeedError, SingularityAbort
from .poly import MPoly
from .tables import U_VARS, first_integrals, flow_table

T_FLOWS = ("T1", "T3")


# -- compiling exact tables into fast numeric callables ---------------------

def _poly_source(p: MPoly):
    if p.is_zero:
        return "0.0"
    parts = []
    for mono, c in p.monomials():
        factors = [repr(float(c))]
        for v, e in mono:
            factors.append(v if e == 1 else f"{v}**{e}")
        parts.append("*".join(factors))
    return "(" + "+".join(parts) + ")"


def _bind_numeric(rfs, params: CurveParams):
    """Compile u-space rational functions into one f(u2, u4, u5, u7) that
    returns their values as a tuple, in the given order."""
    bodies = []
    for rf in rfs:
        body = _poly_source(params.sub_y(rf.num))
        den = params.sub_y(rf.den)
        if den.as_constant() != 1:
            body = f"{body} / {_poly_source(den)}"
        bodies.append(body)
    code = f"lambda {', '.join(U_VARS)}: ({', '.join(bodies)},)"
    return eval(code, {"__builtins__": {}})


class CompiledFlow:
    """Vector field for one flow at fixed numeric curve parameters."""

    def __init__(self, flow, params: CurveParams):
        if not params.is_numeric:
            raise ConfigError("simulation needs numeric curve parameters")
        self.flow = flow
        self.params = params
        table = flow_table(flow)
        self._fn = _bind_numeric([table.entries[u] for u in U_VARS], params)

    def __call__(self, state4):
        return np.array(self._fn(*state4), dtype=complex)


class CompiledIntegrals:
    """Numeric evaluators for the two invariants at fixed parameters."""

    def __init__(self, params: CurveParams):
        self._fn = _bind_numeric(first_integrals(), params)

    def __call__(self, state4):
        return self._fn(*state4)


# -- states and trajectories --------------------------------------------------

@dataclass(frozen=True)
class SimState:
    u2: complex
    u4: complex
    u5: complex
    u7: complex
    time: float = 0.0

    def vector(self):
        return np.array([self.u2, self.u4, self.u5, self.u7], dtype=complex)


@dataclass
class Trajectory:
    flow: str
    rel_tol: float
    abs_tol: float
    t0: float
    t_end: float
    samples: list = field(default_factory=list)  # (t, state4, H12, H14)
    aborted: bool = False
    abort_reason: str = ""

    def times(self):
        return [s[0] for s in self.samples]

    def final_state(self):
        t, y, _, _ = self.samples[-1]
        return SimState(*y, time=t)

    def h_drift(self):
        """Max absolute deviation of each integral from its initial value."""
        h12_0 = self.samples[0][2]
        h14_0 = self.samples[0][3]
        d12 = max(abs(s[2] - h12_0) for s in self.samples)
        d14 = max(abs(s[3] - h14_0) for s in self.samples)
        return d12, d14

    def relative_drift(self):
        h12_0, h14_0 = self.samples[0][2], self.samples[0][3]
        d12, d14 = self.h_drift()
        return (d12 / max(1.0, abs(h12_0)), d14 / max(1.0, abs(h14_0)))

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("time,u2,u4,u5,u7,H12,H14\n")
            for t, y, h12, h14 in self.samples:
                cells = [f"{t:.17g}"]
                for v in (*y, h12, h14):
                    v = complex(v)
                    if v.imag == 0:
                        cells.append(f"{v.real:.17g}")
                    else:
                        cells.append(f"{v.real:.17g}{v.imag:+.17g}j")
                fh.write(",".join(cells) + "\n")


# -- seeding ------------------------------------------------------------------

def curve_ordinate(params: CurveParams, xval):
    """Numeric Y with Y^2 = Q(x); complex when Q(x) < 0."""
    qx = params.Q("X1").eval_numeric({"X1": Fraction(xval)
                                      if isinstance(xval, (int, Fraction, str))
                                      else xval})
    return complex(np.sqrt(complex(qx)))


def seed_state(params: CurveParams, p1, p2, flow=None):
    """Build the symmetric-square coordinates of an unordered point pair.

    Both points must satisfy the curve equation to 1e-12 relative; the
    abscissas must differ, and for the rational flows must also be nonzero.
    The two invariants are checked against their curve values at 1e-10.
    """
    if not params.is_numeric:
        raise ConfigError("seeding needs numeric curve parameters")
    if params.genus != 3:
        raise ConfigError("the simulated flows live on the genus-3 square")
    x1, y1 = complex(p1[0]), complex(p1[1])
    x2, y2 = complex(p2[0]), complex(p2[1])
    Q = params.Q("X1")
    for tag, (xv, yv) in (("P1", (x1, y1)), ("P2", (x2, y2))):
        qx = complex(Q.eval_numeric({"X1": xv}))
        scale = max(1.0, abs(yv) ** 2, abs(qx))
        if abs(yv * yv - qx) > 1e-12 * scale:
            raise SeedError(f"{tag} is off the curve: |y^2 - Q(x)| too large")
    if x1 == x2:
        raise SeedError("coincident abscissas: the chart needs x1 != x2")
    if flow in T_FLOWS and (x1 == 0 or x2 == 0):
        raise SeedError("rational flows need nonzero abscissas")
    u2 = (x1 + x2) / 2
    u4 = (x1 - x2) ** 2 / 4
    u5 = (y1 - y2) / (x1 - x2)
    u7 = (y1 + y2) / 2
    state = (u2, u4, u5, u7)
    hvals = CompiledIntegrals(params)(state)
    targets = [float(params.coefficient(n).as_constant())
               for n in ("y12", "y14")]
    for tag, hv, want in zip(("H12", "H14"), hvals, targets):
        scale = max(1.0, abs(hv), abs(want))
        if abs(hv - want) > 1e-10 * scale:
            raise SeedError(f"{tag} residual {abs(hv - want):g} above seeding tolerance")
    return SimState(u2, u4, u5, u7, time=0.0)


# -- the embedded 5(4) pair ---------------------------------------------------

# row i combines the stages before stage i; the last row is also the
# fifth-order solution (first-same-as-last)
_DP_A = np.array([
    [0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_B5 = _DP_A[6]
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])


def _rms(x, scale):
    return float(np.sqrt(np.mean((np.abs(x) / scale) ** 2)))


def _abort(traj, reason):
    """Mark the trajectory aborted; the exception to raise carries it."""
    traj.aborted = True
    traj.abort_reason = reason
    return SingularityAbort(reason, traj)


def _check_tolerances(rel_tol, abs_tol):
    """ConfigError unless both are finite and nonnegative and one is positive."""
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not (math.isfinite(tol) and tol >= 0):
            raise ConfigError(f"{name} must be finite and nonnegative, got {tol!r}")
    if rel_tol == 0 and abs_tol == 0:
        raise ConfigError("rel_tol and abs_tol are both zero")


def integrate(flow, s0: SimState, t_end, rel_tol=1e-12, abs_tol=1e-14,
              params: CurveParams = None, max_steps=200_000, reverse=False):
    """Integrate one flow from the seed state to the requested time.

    Samples are collected at accepted steps; the two invariants are
    evaluated alongside each sample.  For the rational flows, steps that
    would bring |u4 - u2^2| below 1e-8 times its initial size are rejected
    and the run aborts with the partial trajectory once the step size
    underflows.  With reverse=True every step is taken backwards, as -h.
    A span or tolerances that no step control can honour raise ConfigError.
    """
    if params is None:
        raise ConfigError("integrate needs the curve parameters")
    span = float(t_end)
    if not math.isfinite(span):
        raise ConfigError(f"t_end must be finite, got {t_end!r}")
    if span < 0:
        raise ConfigError("t_end must be nonnegative; use reverse=True to go back")
    _check_tolerances(rel_tol, abs_tol)
    rhs = CompiledFlow(flow, params)
    invariants = CompiledIntegrals(params)
    sign = -1.0 if reverse else 1.0
    guard = flow in T_FLOWS
    y = s0.vector()
    t = 0.0
    v0 = abs(y[1] - y[0] ** 2)
    if guard and v0 == 0:
        raise SeedError("seed sits on the singular set u4 = u2^2")
    guard_floor = 1e-8 * max(v0, 1e-30)

    traj = Trajectory(flow=flow, rel_tol=rel_tol, abs_tol=abs_tol,
                      t0=0.0, t_end=span)
    h12, h14 = invariants(y)
    traj.samples.append((0.0, tuple(y), h12, h14))
    if span == 0.0:
        return traj

    k = np.empty((7, 4), dtype=complex)
    k[0] = rhs(y)
    h = min(0.01 * span, _initial_step(rhs, y, k[0], sign, rel_tol, abs_tol))
    err_prev = 1.0
    steps = 0
    while t < span:
        if steps >= max_steps:
            raise _abort(traj, "step budget exhausted")
        h = min(h, span - t)
        if h < 1e-15 * max(1.0, t):
            raise _abort(traj, "step size underflow near the singular set")
        hs = sign * h
        for i in range(1, 6):
            k[i] = rhs(y + hs * (_DP_A[i, :i] @ k[:i]))
        y_new = y + hs * (_DP_B5 @ k[:6])
        k[6] = rhs(y_new)
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms(h * (_DP_E @ k), scale)
        bad = (not np.all(np.isfinite(y_new.view(float)))
               or guard and abs(y_new[1] - y_new[0] ** 2) < guard_floor)
        if err <= 1.0 and not bad:
            t += h
            y = y_new
            if float(np.max(np.abs(y))) > 1e9:
                raise _abort(traj, "state magnitude overflow "
                                   "(finite-time escape)")
            k[0] = k[6]     # first-same-as-last
            h12, h14 = invariants(y)
            traj.samples.append((t, tuple(y), h12, h14))
            # PI controller (orders 5/4)
            factor = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 0 else 5.0
            err_prev = max(err, 1e-16)
            h *= min(5.0, max(0.2, factor))
        elif bad:
            h *= 0.25
        else:
            h *= min(1.0, max(0.2, 0.9 * err ** -0.2))
        steps += 1
    return traj


def _initial_step(rhs, y, f0, sign, rel_tol, abs_tol):
    scale = abs_tol + rel_tol * np.abs(y)
    d0 = _rms(y, scale)
    d1 = _rms(f0, scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    d2 = _rms(rhs(y + sign * h0 * f0) - f0, scale) / h0
    d = max(d1, d2)
    h1 = (0.01 / d) ** (1 / 5) if d > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1)


# a commutation discrepancy passes below this multiple of the state scale
_COMMUTE_THRESHOLD = 1e-8


def commute_experiment(params: CurveParams, s0: SimState, sigma, tau,
                       rel_tol=1e-12, abs_tol=1e-14, flows=("T1", "T3")):
    """Compare the two orderings of a pair of flows from the same seed.

    Returns a dict with the endpoint discrepancy and a PASS flag against
    1e-8 times the state scale; the flows commute exactly, so the
    discrepancy measures integrator error only.
    """
    _check_tolerances(rel_tol, abs_tol)     # also for a leg of zero span
    fa, fb = flows

    def run(flow, state, span):
        if span == 0:
            return state
        traj = integrate(flow, state, span, rel_tol, abs_tol, params=params)
        return traj.final_state()

    leg1 = run(fb, run(fa, s0, sigma), tau)
    leg2 = run(fa, run(fb, s0, tau), sigma)
    diff = leg1.vector() - leg2.vector()
    disc = float(np.max(np.abs(diff)))
    scale = max(1.0, float(np.max(np.abs(leg1.vector()))),
                float(np.max(np.abs(leg2.vector()))))
    threshold = _COMMUTE_THRESHOLD * scale
    return {
        "flows": list(flows),
        "sigma": sigma,
        "tau": tau,
        "discrepancy": disc,
        "threshold": threshold,
        "pass": disc <= threshold,
    }
