"""Numerical integration of the four flows with invariant-drift monitoring.

The right-hand sides are compiled from the same transcribed tables that the
symbolic engine certifies, so the measured drift of the two integrals along
a trajectory is purely integrator error.  Each table compiles into one
generated function f(u2, u4, u5, u7), compiled once per flow and curve,
which names each node of its power chains, and any other product or sum
its entries share, once as a local.  The stepper is an embedded
Dormand-Prince 5(4) pair with PI step-size control; its whole step loop
is one generated function, built once per process on first use and
shared by every flow: run(f, inv, ...), which calls the table f and the
integrals inv it is given, holds the state and the stages as locals, one
per component, and returns the reason it stopped with the step counts;
``_rms`` serves only the initial step.  ``CompiledFlow`` and
``CompiledIntegrals`` wrap the same functions for callers that hold a
state tuple.  The state and each of the seven stages are four Python
numbers (a sample's state a 4-tuple) whose type follows the seed: a seed
whose four components have zero imaginary part runs on floats, any other
(curve points with negative ordinate squares) on complex numbers, and the
error norm measures each component by its modulus.  The tables have real
coefficients, so a real state has a real derivative and a real run stays
real.  The generated sources write every power as a product chain, the
one CPython's ``complex ** int`` makes: a complex evaluation has the
values of ``**``, and a float evaluation is the real part of the complex
one on the same real state, bit for bit, as the same products of the
same real numbers are rounded once each.
"""

import cmath
import math
from functools import lru_cache

from .curve import CurveParams
from .errors import (ConfigError, SeedError, SingularityAbort,
                     StepBudgetExhausted)
from .poly import MPoly
from .tables import U_VARS, first_integrals, flow_table

T_FLOWS = ("T1", "T3")
# step attempts, accepted or rejected, before a run aborts
MAX_STEPS = 200_000


def _number(value, error, what):
    """value as a complex with finite parts: the one conversion of exact
    input to numbers.  Outside the float range it raises error."""
    try:
        z = complex(value)
    except OverflowError:
        z = complex(math.inf)
    if not cmath.isfinite(z):
        raise error(f"{what} lies outside the float range")
    return z


# -- compiling exact tables into fast numeric callables ---------------------

def _power_name(v, e):
    """The name of v^e in a generated table: v itself, or the local v_e."""
    return v if e == 1 else f"{v}_{e}"


def _power_chain(v, exponents):
    """Source lines that name each node of the product chains of v^e, e in
    exponents, once, in increasing e.  The chains are those of CPython's
    complex ** int, binary powering from the lowest bit: a power of two
    is the square of its half, any other e the product of the chain of e
    without its top bit and the square at that bit, in this order, so
    v^3 is v*v_2 and v^6 is v_2*v_4.  On a complex v each node has the
    value of v ** e, to the bit apart from the sign of a zero part (**
    starts from 1 * v, which turns -0.0 into 0.0); a float ** would call
    libm's pow instead, which may differ in the last bit."""
    operands = {}

    def need(e):
        if e == 1 or e in operands:
            return
        top = 1 << (e.bit_length() - 1)
        operands[e] = (e // 2, e // 2) if e == top else (e - top, top)
        for factor in operands[e]:
            need(factor)

    for e in exponents:
        need(e)
    return [f"    {_power_name(v, e)} = {_power_name(v, left)}"
            f"*{_power_name(v, right)}"
            for e, (left, right) in sorted(operands.items())]


def _poly_tree(p: MPoly, exponents):
    """p as an expression tree over the power names: each term its
    coefficient times its powers, multiplied left to right, and the terms
    added left to right.  A node is (op, left, right), a leaf its source
    text.  Adds each power it names to exponents[v]."""
    if p.is_zero:
        return "0.0"
    total = None
    for mono, c in p.monomials():
        c = _number(c, ConfigError, "a coefficient of the curve's tables").real
        term = repr(c)
        for v, e in mono:
            exponents[v].add(e)
            term = ("*", term, _power_name(v, e))
        total = term if total is None else ("+", total, term)
    return total


def _table_source(rfs, params: CurveParams):
    """Source of f(u2, u4, u5, u7), which returns the values of the u-space
    rational functions rfs as a tuple, in the given order: each the sum of
    its terms, over the sum of its denominator's where that is not 1.
    Each node of the power chains is one local, and so is every other
    node that the entries use twice or more (a denominator they share, a
    product a numerator and a denominator share), so no product or sum is
    computed twice; each is the same operation on the same operands as
    written out in full, hence the same value to the bit."""
    if not (params.is_numeric and params.genus == 3):
        raise ConfigError("simulation needs a genus-3 curve with numeric "
                          "parameters")
    exponents = {v: set() for v in U_VARS}
    entries = []
    for rf in rfs:
        entry = _poly_tree(params.sub_y(rf.num), exponents)
        den = params.sub_y(rf.den)
        if den.as_constant() != 1:
            entry = ("/", entry, _poly_tree(den, exponents))
        entries.append(entry)

    # the uses of each node; a node used twice is computed once, so its
    # operands are counted once
    uses = {}

    def count(node):
        if isinstance(node, tuple):
            uses[node] = uses.get(node, 0) + 1
            if uses[node] == 1:
                count(node[1])
                count(node[2])

    for entry in entries:
        count(entry)
    lines = [f"def f({', '.join(U_VARS)}):"]
    for v in U_VARS:
        lines += _power_chain(v, exponents[v])
    names = {}

    def source(node):
        if not isinstance(node, tuple):
            return node
        if node not in names:
            op, left, right = node
            # a sum or a product is a left fold whose right operand is a
            # term or a leaf, so only a quotient needs parentheses
            text = (f"({source(left)})/({source(right)})" if op == "/"
                    else f"{source(left)}{op}{source(right)}")
            if uses[node] == 1:
                return text
            names[node] = f"s{len(names)}"
            lines.append(f"    {names[node]} = {text}")
        return names[node]

    returned = [source(entry) for entry in entries]
    lines.append(f"    return ({', '.join(returned)},)")
    return "\n".join(lines)


def _bind_numeric(rfs, params: CurveParams, filename):
    """Compile u-space rational functions into the function that
    ``_table_source`` writes for them, under the file name ``filename``
    (a profile keys its stats by file, line and name, so each table gets
    its own)."""
    namespace = {"__builtins__": {}}
    exec(compile(_table_source(rfs, params), filename, "exec"), namespace)
    return namespace["f"]


# integrate and every CompiledFlow/CompiledIntegrals of one (flow, params)
# share one generated function
@lru_cache(maxsize=None)
def _flow_fn(flow, params: CurveParams):
    table = flow_table(flow)
    return _bind_numeric([table.entries[u] for u in U_VARS], params,
                         f"<table {flow}>")


@lru_cache(maxsize=None)
def _integrals_fn(params: CurveParams):
    return _bind_numeric(first_integrals(), params, "<integrals>")


class CompiledFlow:
    """Vector field for one flow at fixed numeric curve parameters."""

    def __init__(self, flow, params: CurveParams):
        self._fn = _flow_fn(flow, params)

    def __call__(self, state4):
        return self._fn(*state4)


class CompiledIntegrals:
    """Numeric evaluators for the two invariants at fixed parameters."""

    def __init__(self, params: CurveParams):
        self._fn = _integrals_fn(params)

    def __call__(self, state4):
        return self._fn(*state4)


# -- states and trajectories --------------------------------------------------

class SimState:
    """A point of the symmetric square in the chart (u2, u4, u5, u7).

    ``seed_state`` builds the components as complex numbers; the states of
    a trajectory hold floats when its seed was real, complex otherwise.
    Two states are equal when their four components are."""

    __slots__ = ("u2", "u4", "u5", "u7")

    def __init__(self, u2, u4, u5, u7):
        self.u2 = u2
        self.u4 = u4
        self.u5 = u5
        self.u7 = u7

    def __eq__(self, other):
        if type(other) is not SimState:
            return NotImplemented
        return self.vector() == other.vector()

    def vector(self):
        return (self.u2, self.u4, self.u5, self.u7)


class Trajectory:
    """A run over the span ``t_end``: its ``samples``, (t, state4, H12,
    H14) each, the ``abort_reason`` ("" for a run that finished) and the
    step statistics: right-hand-side evaluations (``nfev``), attempted
    steps that left no sample (``rejected``; of them, those the guard or a
    non-finite trial state rejected, ``guard_rejected``) and the range of
    accepted step sizes (``h_min``, ``h_max``; None before the first)."""

    __slots__ = ("t_end", "samples", "abort_reason", "nfev", "rejected",
                 "guard_rejected", "h_min", "h_max")

    def __init__(self, t_end):
        self.t_end = t_end
        self.samples = []
        self.abort_reason = ""
        self.nfev = self.rejected = self.guard_rejected = 0
        self.h_min = self.h_max = None

    @property
    def aborted(self):
        return bool(self.abort_reason)

    def step_stats(self):
        """The step statistics; accepted steps are those that left a sample."""
        return {"accepted": len(self.samples) - 1, "rejected": self.rejected,
                "guard_rejected": self.guard_rejected, "nfev": self.nfev,
                "h_min": self.h_min, "h_max": self.h_max}

    def final_state(self):
        return SimState(*self.samples[-1][1])

    def relative_drift(self):
        """Max deviation of (H12, H14) from the initial values, each over
        max(1, |initial value|)."""
        first = self.samples[0]
        return tuple(max(abs(s[i] - first[i]) for s in self.samples)
                     / max(1.0, abs(first[i])) for i in (2, 3))

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
    qx = params.Q("X1").eval_numeric({"X1": xval})
    return cmath.sqrt(_number(qx, SeedError, "Q(x) at this abscissa"))


def seed_state(params: CurveParams, p1, p2):
    """Build the symmetric-square coordinates of an unordered point pair.

    Both points must satisfy the curve equation to 1e-12 relative, and the
    abscissas must differ.  The two invariants are checked against their
    curve values at 1e-10.  A zero abscissa is a valid seed; the rational
    flows refuse it in ``integrate``, as u4 - u2^2 = -x1*x2 vanishes there.
    Any of these numbers, the two invariants at the seed too, outside the
    float range raises SeedError.
    """
    integrals = CompiledIntegrals(params)
    x1, y1, x2, y2 = (_number(v, SeedError, "a point coordinate")
                      for v in (*p1, *p2))
    Q = params.Q("X1")
    for tag, (xv, yv) in (("P1", (x1, y1)), ("P2", (x2, y2))):
        qx = _number(Q.eval_numeric({"X1": xv}), SeedError, f"Q(x) at {tag}")
        yy = _number(yv * yv, SeedError, f"y^2 at {tag}")
        scale = max(1.0, abs(yv) ** 2, abs(qx))
        if abs(yy - qx) > 1e-12 * scale:
            raise SeedError(f"{tag} is off the curve: |y^2 - Q(x)| too large")
    if x1 == x2:
        raise SeedError("coincident abscissas: the chart needs x1 != x2")
    u2 = (x1 + x2) / 2
    u4 = (x1 - x2) ** 2 / 4
    u5 = (y1 - y2) / (x1 - x2)
    u7 = (y1 + y2) / 2
    state = tuple(_number(u, SeedError, "the seed state")
                  for u in (u2, u4, u5, u7))
    targets = [_number(params.coefficient(n).as_constant(), ConfigError,
                       n).real for n in ("y12", "y14")]
    for tag, hv, want in zip(("H12", "H14"), integrals(state), targets):
        hv = _number(hv, SeedError, f"{tag} at the seed")
        scale = max(1.0, abs(hv), abs(want))
        if abs(hv - want) > 1e-10 * scale:
            raise SeedError(f"{tag} residual {abs(hv - want):g} above seeding tolerance")
    return SimState(*state)


# -- the embedded 5(4) pair ---------------------------------------------------

# row i weighs the stages before stage i + 1, trailing zeros dropped; the
# last row is also the fifth-order solution (first-same-as-last)
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
         22 / 525, -1 / 40)


def _stage_sum(weights, j):
    """Source of the weighted sum of component j of the stages, zero
    weights dropped, summed left to right."""
    return " + ".join(f"{w!r} * k{i}_{j}"
                      for i, w in enumerate(weights, start=1) if w)


@lru_cache(maxsize=None)
def _build_run():
    """Generate the step loop of ``integrate``:
    run(f, inv, y_0, .., y_3, k1_0, .., k1_3, h, sign, length, rel_tol,
    abs_tol, guard, guard_floor, samples, max_steps) -> (reason, steps,
    guard_rejected, h_min, h_max), for a generated table f, its values
    k1 at y and the integrals inv.  It steps from time 0 over length,
    each step taken as hs = sign * h, and appends each accepted step's
    sample to samples, until the span is done (reason "") or the run
    aborts (reason the abort's message).  A span of exactly h with
    max_steps=1 is one attempt at h.

    Each attempt unrolls the tableau per component: stage i + 1 is f of
    the four sums y_j + hs * (a1 * k1_j + a2 * k2_j + ...), unpacked
    straight into the locals ki_j, and the last stage is f of the
    fifth-order solution y_new, the next step's first (first-same-as-
    last).  err is the RMS of |e_j| / (abs_tol + rel_tol * max(|y_j|,
    |y_new_j|)), e_j being h times the E-weighted stage sum, as DOPRI5
    computes its ERR inside the step (Hairer, Norsett & Wanner, Solving
    ODE I, II.4).  A trial state that is not finite, or with guard set
    has |u4 - u2^2| below guard_floor, is a guard rejection; otherwise
    err <= 1 accepts it, and an accepted state with a modulus above 1e9
    aborts the run.  Every sum runs left to right, as a loop over the
    stages and ``_rms`` add, and each min and max of the PI controller
    is the comparison the builtin makes, so a run matches such a loop's
    to the bit.  The trial state is finite when its moduli are, as |z|
    is finite exactly when z is; a finite z whose modulus overflows
    raises in ``abs``.
    """
    comps = range(4)

    def names(name):
        return ", ".join(f"{name}_{j}" for j in comps)

    def clamp(low, high):
        # h *= min(high, max(low, factor)), as the builtins compare
        return [f"factor = factor if factor > {low} else {low}",
                f"h *= factor if factor < {high} else {high}"]

    attempt = [f"{names(f'k{i}')} = f(" + ", ".join(
        f"y_{j} + hs * ({_stage_sum(row, j)})" for j in comps) + ")"
        for i, row in enumerate(_DP_A[:-1], start=2)]
    attempt += [f"y_new_{j} = y_{j} + hs * ({_stage_sum(_DP_A[-1], j)})"
                for j in comps]
    attempt.append(f"{names('k7')} = f({names('y_new')})")
    for j in comps:
        attempt += [f"a_{j}, b_{j} = abs(y_{j}), abs(y_new_{j})",
                    f"r_{j} = abs(h * ({_stage_sum(_DP_E, j)})) / (abs_tol"
                    f" + rel_tol * (b_{j} if b_{j} > a_{j} else a_{j}))"]
    squares = " + ".join(f"r_{j} * r_{j}" for j in comps)
    stats = "steps, guard_rejected, h_min, h_max"
    lines = [
        f"def run(f, inv, {names('y')}, {names('k1')}, h, sign, length,",
        "        rel_tol, abs_tol, guard, guard_floor, samples, max_steps):",
        "    t, err_prev, steps, guard_rejected = 0.0, 1.0, 0, 0",
        "    h_min, h_max = INF, 0.0",
        "    while t < length:",
        "        if steps >= max_steps:",
        f"            return 'step budget exhausted', {stats}",
        "        if length - t < h:",
        "            h = length - t",
        "        if h < 1e-15 * (t if t > 1.0 else 1.0):",
        f"            return 'step size underflow', {stats}",
        "        hs = sign * h",
        *(f"        {line}" for line in attempt),
        f"        err = sqrt(({squares}) / 4)",
        "        steps += 1",
        "        if not (" + " and ".join(f"b_{j} < INF" for j in comps)
        + ") or guard and abs(y_new_1 - y_new_0 * y_new_0) < guard_floor:",
        "            guard_rejected += 1",
        "            h *= 0.25",
        "        elif err <= 1.0:",
        "            t += h",
        "            if " + " or ".join(f"b_{j} > 1e9" for j in comps) + ":",
        "                return ('state magnitude overflow (finite-time "
        f"escape)', {stats})",
        f"            {names('y')} = {names('y_new')}",
        f"            {names('k1')} = {names('k7')}",
        f"            h12, h14 = inv({names('y')})",
        f"            samples.append((sign * t, ({names('y')}), h12, h14))",
        "            h_min = h if h < h_min else h_min",
        "            h_max = h if h > h_max else h_max",
        "            # PI controller (orders 5/4)",
        "            factor = (0.9 * err ** -0.14 * err_prev ** 0.08 if err > 0",
        "                      else 5.0)",
        "            err_prev = 1e-16 if 1e-16 > err else err",
        *(f"            {line}" for line in clamp(0.2, 5.0)),
        "        else:",
        "            factor = 0.9 * err ** -0.2",
        *(f"            {line}" for line in clamp(0.2, 1.0)),
        f"    return '', {stats}"]
    namespace = {"__builtins__": {}, "abs": abs, "sqrt": math.sqrt,
                 "INF": math.inf}
    exec(compile("\n".join(lines), "<run>", "exec"), namespace)
    return namespace["run"]


def _rms(x, scale):
    ratios = [abs(v) / s for v, s in zip(x, scale)]
    return math.sqrt(sum([r * r for r in ratios]) / len(ratios))


def integrate(flow, s0: SimState, t_end, rel_tol=1e-12, abs_tol=1e-14, *,
              params: CurveParams):
    """Integrate one flow from the seed state to the time t_end.

    A negative t_end runs the flow backwards: every step is taken as -h,
    and the sample times run from 0 down to t_end.  Samples are collected
    at accepted steps; the two invariants are evaluated alongside each
    sample.  A seed whose four components have zero imaginary part runs
    on the floats of their real parts, so its samples hold floats; the
    values are the real parts of the complex run from the same seed.  Any
    other seed runs on complex numbers.  A rational flow refuses a seed on
    its singular set u4 = u2^2 (SeedError); steps that would bring
    |u4 - u2^2| below 1e-8 times its initial size are rejected.  Any run
    aborts with the partial trajectory once the step size underflows; the
    reason names the singular set only on a rational flow.
    ConfigError refuses a t_end that is not finite, a nonzero span whose
    first step (at most 0.01 * |span|) would fall below 1e-15, a rel_tol
    or abs_tol that is not finite or is negative, and abs_tol = 0.  A
    finite tolerance finer than float steps can meet is not refused: the
    run spends MAX_STEPS attempts and raises StepBudgetExhausted (ROADMAP
    item 2).  The trajectory, also a partial one, carries the step
    statistics.
    """
    span = float(t_end)
    if not math.isfinite(span):
        raise ConfigError(f"t_end must be finite, got {t_end!r}")
    # the first step is capped at 0.01 * |span| and must clear the 1e-15 floor
    if span and 0.01 * abs(span) < 1e-15:
        raise ConfigError(f"span {t_end!r} is shorter than the smallest step")
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not (math.isfinite(tol) and tol >= 0):
            raise ConfigError(f"{name} must be finite and nonnegative, got {tol!r}")
    if abs_tol == 0:
        # a state component at 0 would have error scale 0
        raise ConfigError("abs_tol must be positive, got 0")
    f = _flow_fn(flow, params)
    invariants = _integrals_fn(params)
    # the stepper runs over the length of the span; sign orients it
    sign = -1.0 if span < 0 else 1.0
    length = abs(span)
    guard = flow in T_FLOWS
    y = s0.vector()
    if not any(v.imag for v in y):
        y = tuple([float(v.real) for v in y])
    v0 = abs(y[1] - y[0] * y[0])
    if guard and v0 == 0:
        raise SeedError("seed sits on the singular set u4 = u2^2")
    guard_floor = 1e-8 * max(v0, 1e-30)

    traj = Trajectory(t_end=span)
    h12, h14 = invariants(*y)
    traj.samples.append((0.0, y, h12, h14))
    if length == 0.0:
        return traj

    f0 = f(*y)
    h = min(0.01 * length, _initial_step(f, y, f0, sign, rel_tol, abs_tol))
    reason, steps, traj.guard_rejected, h_min, h_max = _build_run()(
        f, invariants, *y, *f0, h, sign, length, rel_tol, abs_tol, guard,
        guard_floor, traj.samples, MAX_STEPS)
    # two evaluations choose the first step, then six per attempt (FSAL)
    traj.nfev = 2 + 6 * steps
    traj.rejected = steps - (len(traj.samples) - 1)
    if h_max:
        traj.h_min, traj.h_max = h_min, h_max
    if reason:
        if guard and reason == "step size underflow":
            reason += " near the singular set"
        traj.abort_reason = reason
        raise (StepBudgetExhausted if reason == "step budget exhausted"
               else SingularityAbort)(reason, traj)
    return traj


def _initial_step(f, y, f0, sign, rel_tol, abs_tol):
    scale = [abs_tol + rel_tol * abs(v) for v in y]
    d0 = _rms(y, scale)
    d1 = _rms(f0, scale)
    # an overflowed d1 (an error scale near 0) would make h0 0, and d2
    # divides by h0
    h0 = (1e-6 if d0 < 1e-5 or d1 < 1e-5 or not math.isfinite(d1)
          else 0.01 * d0 / d1)
    f1 = f(*[v + sign * h0 * d for v, d in zip(y, f0)])
    d2 = _rms([a - b for a, b in zip(f1, f0)], scale) / h0
    d = max(d1, d2)
    h1 = (0.01 / d) ** (1 / 5) if d > 1e-15 else max(1e-6, h0 * 1e-3)
    return min(100 * h0, h1)


# a commutation discrepancy passes below this multiple of the state scale
_COMMUTE_THRESHOLD = 1e-8


def commute_experiment(params: CurveParams, s0: SimState, sigma, tau,
                       rel_tol=1e-12, abs_tol=1e-14, flows=("T1", "T3")):
    """Compare the two orderings of a pair of flows from the same seed.

    Returns a dict with the endpoint discrepancy and a PASS flag against
    1e-8 times the state scale, and the step statistics summed over the
    legs; the flows commute exactly, so the discrepancy measures
    integrator error only.  Every leg runs through ``integrate``, a leg of
    zero span too, so each is checked as any run is: its flow id,
    tolerances and seed (a rational flow refuses a seed on its singular
    set).  A zero-span leg takes no step and adds nothing to the totals.
    """
    fa, fb = flows
    legs = []

    def run(flow, state, span):
        traj = integrate(flow, state, span, rel_tol, abs_tol, params=params)
        legs.append(traj.step_stats())
        return traj.final_state()

    leg1 = run(fb, run(fa, s0, sigma), tau)
    leg2 = run(fa, run(fb, s0, tau), sigma)
    v1, v2 = leg1.vector(), leg2.vector()
    disc = max(abs(a - b) for a, b in zip(v1, v2))
    scale = max(1.0, *map(abs, v1), *map(abs, v2))
    threshold = _COMMUTE_THRESHOLD * scale
    return {
        "flows": list(flows),
        "sigma": sigma,
        "tau": tau,
        "discrepancy": disc,
        "threshold": threshold,
        "pass": disc <= threshold,
        "steps": _leg_totals(legs),
    }


def _leg_totals(legs):
    """Step statistics summed over the legs; the step range spans the legs
    that stepped."""
    total = {key: sum(leg[key] for leg in legs)
             for key in ("accepted", "rejected", "guard_rejected", "nfev")}
    stepped = [leg for leg in legs if leg["h_min"] is not None]
    total["h_min"] = min((leg["h_min"] for leg in stepped), default=None)
    total["h_max"] = max((leg["h_max"] for leg in stepped), default=None)
    return total
