"""Seeded inputs, timed operations and independent oracles of the workloads.

Imported only by worker processes.  Every hekdv function is looked up
through its module when it is called (``hk.symsq.abcd_to_xy``), so the
tracer's wrappers are seen.  Inputs depend only on (workload, seed, index).
"""

import contextlib
import copy
import gc
import io
import itertools
import json
import math
import random
import statistics
import time
from fractions import Fraction
from pathlib import Path

import hekdv.cli
import hekdv.curve
import hekdv.errors
import hekdv.phiring
import hekdv.poly
import hekdv.ratfun
import hekdv.ratlimit
import hekdv.sim
import hekdv.symsq
import hekdv.tables
import hekdv.verify_hierarchy
import hekdv.verify_tables

hk = hekdv
GOLDEN = Path(__file__).resolve().parent / "golden" / "verify_all.json"
clock = time.perf_counter


def rng_for(workload, seed, index):
    return random.Random(f"{workload}:{seed}:{index}")


def small_fraction(rng):
    """Nonzero p/q with |p| <= 9 and 1 <= q <= 9, as the unit tests draw."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))


def monomial(rng, names, max_exp, min_degree=1):
    """Product of the named variables with exponents in 0..max_exp."""
    while True:
        exps = [rng.randint(0, max_exp) for _ in names]
        if sum(exps) >= min_degree:
            break
    m = hk.poly.MPoly.const(1)
    for name, e in zip(names, exps):
        if e:
            m = m * hk.poly.MPoly.var(name, e)
    return m


# -- host load -------------------------------------------------------------

# time of one reference_work() on an unloaded core of the machine described
# in README.md; it converts load factors back into seconds
REFERENCE_UNLOADED_S = 0.0031


def reference_work():
    """A fixed piece of exact rational arithmetic that does not use hekdv:
    the cube of a 16-term polynomial with Fraction coefficients."""
    p = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}
    q = p
    for _ in range(2):
        out = {}
        for (a, b), c in q.items():
            for (d, e), f in p.items():
                out[a + d, b + e] = out.get((a + d, b + e), 0) + c * f
        q = out
    return q


class HostLoad:
    """How much the other tenants of a shared host slow a pass down.

    `sample` times reference_work a few times.  A pass calls it between
    its timed operations, so the samples follow the load while the pass
    runs.  `factor` is the mean sample over REFERENCE_UNLOADED_S; a pass's
    times divided by it are the times on an unloaded core.  `spent_s` is
    the time spent sampling, which no timed region includes.
    """

    REPS = 3

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0

    def sample(self):
        # without the collector, the size of the program's heap cannot
        # change how long the reference takes
        t0 = clock()
        gc.disable()
        try:
            for _ in range(self.REPS):
                ts = clock()
                reference_work()
                self.samples.append(clock() - ts)
        finally:
            gc.enable()
        self.spent_s += clock() - t0

    def factor(self):
        return statistics.fmean(self.samples) / REFERENCE_UNLOADED_S


# -- certify -------------------------------------------------------------

U_NAMES = ("u2", "u4", "u5", "u7")


def _printed_trans2_images():
    """The printed images of the transfer map, as the unit tests write them."""
    a, b, c, d = hk.poly.variables("a", "b", "c", "d")
    one = hk.poly.MPoly.const(1)
    return {"a": (a, one), "b": (b, one),
            "c": (a * c - d, a ** 2 - b), "d": (a * d - b * c, a ** 2 - b)}


def _later(module, name, *args, **kwargs):
    """A call of hekdv.<module>.<name> that looks the function up when run."""
    return lambda: getattr(getattr(hk, module), name)(*args, **kwargs)


def draw_controls(seed, index):
    """Seven single-coefficient mutation controls, one per suite.

    Each adds c * m (c a nonzero rational, m a monomial) to exactly one
    transcribed input and passes it through the override the unit tests
    use.  Returns [(suite, description, thunk)]; every thunk must yield a
    failing report.
    """
    rng = rng_for("certify", seed, index)
    RatFn = hk.ratfun.RatFn
    controls = []

    flow = rng.choice(hk.tables.FLOW_IDS)
    uvar = rng.choice(U_NAMES)
    delta = monomial(rng, U_NAMES, 2) * small_fraction(rng)
    table = hk.tables.flow_table(flow).mutated(uvar, delta)
    controls.append(("tables", f"{flow}: d{uvar} += {delta}",
                     _later("verify_tables", "verify_flow_table", flow, table=table)))

    h12, h14 = hk.tables.first_integrals()
    which = rng.choice(("h12", "h14"))
    delta = monomial(rng, U_NAMES, 2) * small_fraction(rng)
    bad = (h12 if which == "h12" else h14) + RatFn(delta)
    controls.append(("integrals", f"{which} += {delta}",
                     _later("verify_tables", "verify_first_integrals", **{which: bad})))

    which = rng.choice(("bracket_I", "bracket_II"))
    base = (hk.tables.structure_I() if which == "bracket_I"
            else hk.tables.structure_II())
    entries = dict(base.table)
    key = rng.choice(sorted(entries))
    entries[key] = entries[key] + small_fraction(rng)
    bracket = hk.tables.PoissonStructure(base.name, entries)
    controls.append(("hamiltonian", f"{which}{key} = {entries[key]}",
                     _later("verify_tables", "verify_hamiltonian_form",
                            **{which: bracket})))

    coeffs = copy.deepcopy(hk.verify_hierarchy.DEFAULT_EQ_COEFFS)
    eq = rng.choice(sorted(coeffs))
    term = rng.choice(sorted(coeffs[eq]))
    coeffs[eq][term] += rng.choice((-3, -2, -1, 1, 2, 3))
    controls.append(("hierarchy", f"({eq}) {term} = {coeffs[eq][term]}",
                     _later("verify_hierarchy", "verify_dkdv_equations", coeffs)))

    images = _printed_trans2_images()
    gen = rng.choice(sorted(images))
    part = rng.randrange(2)
    delta = monomial(rng, ("a", "b", "c", "d"), 1, min_degree=0) * small_fraction(rng)
    pair = list(images[gen])
    if (pair[part] + delta).is_zero:
        delta = delta * 2
    pair[part] = pair[part] + delta
    images[gen] = tuple(pair)
    controls.append(("transfer", f"{gen} {('num', 'den')[part]} += {delta}",
                     _later("verify_hierarchy", "verify_psi_intertwine",
                            trans2_images=images)))

    which = rng.choice(("expected_U", "expected_V"))
    base = (hk.ratlimit.printed_U() if which == "expected_U"
            else hk.ratlimit.printed_V())
    delta = monomial(rng, ("x", "t"), 2) * small_fraction(rng)
    bad = RatFn(base.num + delta, base.den)
    controls.append(("rational", f"{which} numerator += {delta}",
                     _later("ratlimit", "verify_uv_closed_form", **{which: bad})))

    N, K = hk.phiring.printed_forms()
    N, K = dict(N), dict(K)
    target = rng.choice((N, K))
    i = rng.choice((2, 4, 5, 7))
    delta = (monomial(rng, ("phi", "w3", "w5"), 2, min_degree=0)
             * small_fraction(rng))
    target[i] = target[i] + hk.phiring.PhiRingElem.from_mpoly(delta)
    controls.append(("appendix", f"{'N' if target is N else 'K'}{i} += {delta}",
                     _later("phiring", "verify_appendix_forms", printed=(N, K))))
    return controls


def run_verify_all():
    """`hekdv verify all` as a user runs it; returns (exit code, report text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hk.cli.run(["verify", "all"])
    return code, out.getvalue()


def load_golden():
    return json.loads(GOLDEN.read_text())


def golden_mismatches(doc, golden):
    """Check ids whose verdict, summary or residual strings differ from golden.

    A check missing from either side counts once.
    """
    got = {c["id"]: {k: v for k, v in c.items() if k != "millis"}
           for c in doc["checks"]}
    want = {c["id"]: c for c in golden["checks"]}
    bad = [cid for cid in want if got.get(cid) != want[cid]]
    bad.extend(cid for cid in got if cid not in want)
    return bad


def unrejected(results):
    """Suites whose mutation control did not produce a failing report."""
    return [suite for suite, report in results if report.passed]


def certify_pass(controls, golden, load):
    """One cold pass: `verify all`, then the controls, then the comparison
    of the report with the golden one."""
    t0 = clock()
    code, text = run_verify_all()
    verify_s = clock() - t0
    load.sample()
    t0 = clock()
    results = [(suite, thunk()) for suite, _, thunk in controls]
    controls_s = clock() - t0
    doc = json.loads(text)
    mismatched = golden_mismatches(doc, golden)
    if code != 0 and not mismatched:
        mismatched = ["exit code"]
    missed = unrejected(results)
    return {
        "op_s": [verify_s],
        "controls_s": controls_s,
        "rate": [(len(doc["checks"]) + len(results)) / (verify_s + controls_s)],
        "work_s": verify_s + controls_s,
        "attempted": len(golden["checks"]) + len(controls),
        "failed": len(mismatched) + len(missed),
        "errors": [f"golden mismatch: {c}" for c in mismatched]
                  + [f"control not rejected: {s}" for s in missed],
    }


def time_check(call_name):
    """Cold then warm wall time of one public verify_* call, in ms."""
    from run import CHECK_CALLS
    _, mod, fn, args = next(c for c in CHECK_CALLS if c[0] == call_name)
    func = getattr(getattr(hk, mod), fn)
    t0 = clock()
    report = func(*args)
    cold = clock() - t0
    warm = []
    for _ in range(3):
        t0 = clock()
        func(*args)
        warm.append(clock() - t0)
    warm.sort()
    return {"cold_ms": 1000.0 * cold, "warm_ms": 1000.0 * warm[1],
            "passed": report.passed}


# -- bridge ----------------------------------------------------------------

XY = ("X1", "Y1", "X2", "Y2")
# tests/test_symsq.py::test_roundtrip draws up to four terms with exponents
# 0..3 in each variable; a batch element has four distinct terms
BRIDGE_TERMS = 4
BRIDGE_BOX = tuple(itertools.product(range(4), repeat=len(XY)))
BRIDGE_STRATA = 16


def size_key(expo):
    """Size of one term, (total Y degree, total degree): the largest key of
    an element orders the cost of its round trip."""
    x1, y1, x2, y2 = expo
    return (y1 + y2, x1 + y1 + x2 + y2)


def size_classes(strata=BRIDGE_STRATA):
    """Largest size key at the midpoint of each of `strata` strata of equal
    probability under the unit test's draw.

    Four distinct terms drawn uniformly from the exponent box form a
    uniform 4-subset of it, so the largest key is at most k with
    probability C(#terms of key <= k, 4) / C(#box, 4).
    """
    keys = sorted({size_key(e) for e in BRIDGE_BOX})
    total = math.comb(len(BRIDGE_BOX), BRIDGE_TERMS)
    cdf = [(k, math.comb(sum(size_key(e) <= k for e in BRIDGE_BOX),
                         BRIDGE_TERMS) / total) for k in keys]
    return tuple(next(k for k, c in cdf if c >= (i + 0.5) / strata)
                 for i in range(strata))


BRIDGE_CLASSES = size_classes()


def _swap(expo):
    x1, y1, x2, y2 = expo
    return (x2, y2, x1, y1)


def draw_element(rng, key):
    """{exponents: coefficient}: the unit test's draw, conditioned on its
    largest size key being `key`; its symmetrization is never zero."""
    while True:
        expos = rng.sample(BRIDGE_BOX, BRIDGE_TERMS)
        if max(map(size_key, expos)) != key:
            continue
        terms = {e: small_fraction(rng) for e in expos}
        sym = {}
        for e, c in terms.items():
            sym[e] = sym.get(e, 0) + c
            sym[_swap(e)] = sym.get(_swap(e), 0) + c
        if any(sym.values()):
            return terms


def bridge_batch(seed, index):
    """One element per size class: a stratified sample of the unit test's
    draw, ordered by size key."""
    rng = rng_for("bridge", seed, index)
    return [draw_element(rng, key) for key in BRIDGE_CLASSES]


def symmetrize(terms):
    """p + p(X1<->X2, Y1<->Y2), through the public substitution API."""
    MPoly = hk.poly.MPoly
    p = MPoly.from_terms(XY, terms)
    swap = {"X1": MPoly.var("X2"), "X2": MPoly.var("X1"),
            "Y1": MPoly.var("Y2"), "Y2": MPoly.var("Y1")}
    return p + p.subst({v: swap[v] for v in p.variables_used()})


def bridge_point(rng):
    """A rational point of the genus-3 family: X1, X2, Y1, Y2, y4..y10 drawn,
    y12 and y14 solved from Y_i^2 = Q(X_i), which is linear in them."""
    while True:
        x1 = Fraction(rng.randint(1, 30), rng.randint(1, 7))
        x2 = -Fraction(rng.randint(1, 30), rng.randint(1, 7))
        if x1 != x2:
            break
    pt = {"X1": x1, "X2": x2,
          "Y1": small_fraction(rng), "Y2": small_fraction(rng)}
    for name in ("y4", "y6", "y8", "y10"):
        pt[name] = small_fraction(rng)

    def rest(x):        # Q(x) without the y12 X - y14 tail
        return (x ** 7 + pt["y4"] * x ** 5 - pt["y6"] * x ** 4
                + pt["y8"] * x ** 3 - pt["y10"] * x ** 2)

    r1 = pt["Y1"] ** 2 - rest(x1)
    r2 = pt["Y2"] ** 2 - rest(x2)
    pt["y12"] = (r1 - r2) / (x1 - x2)
    pt["y14"] = pt["y12"] * x1 - r1
    return pt


def eval_terms(terms, pt):
    """Exact value of the symmetrized polynomial, straight from its terms."""
    total = Fraction(0)
    for expo, c in terms.items():
        for e in (expo, _swap(expo)):
            v = c
            for name, k in zip(XY, e):
                v *= pt[name] ** k
            total += v
    return total


def bridge_oracle(terms, e, r, pt):
    """None when the round trip checks out at the point, else a message.

    The abcd polynomial is evaluated at the abcd coordinates of the point
    and the field element as num/den, both with exact Fractions, and each
    is compared with the symmetrized polynomial evaluated term by term.
    """
    want = eval_terms(terms, pt)
    x1, x2, y1, y2 = pt["X1"], pt["X2"], pt["Y1"], pt["Y2"]
    abcd = {"a": (x1 + x2) / 2, "b": (x1 - x2) ** 2 / 4,
            "c": (y1 - y2) / (x1 - x2), "d": (y1 + y2) / 2}
    if Fraction(e.eval_numeric(abcd)) != want:
        return "xy_to_abcd disagrees with the polynomial at a rational point"
    den = Fraction(r.den.eval_numeric(pt))
    if den == 0:
        return "abcd_to_xy denominator vanishes at the point"
    if Fraction(r.num.eval_numeric(pt)) / den != want:
        return "abcd_to_xy disagrees with the polynomial at a rational point"
    return None


def bridge_prepare(seed, index):
    field = hk.symsq.SymSqField(hk.curve.CurveParams.symbolic(3))
    batch = bridge_batch(seed, index)
    rng = rng_for("bridge-point", seed, index)
    return field, [(terms, symmetrize(terms), bridge_point(rng))
                   for terms in batch]


def bridge_pass(field, elements, load):
    """Round-trip every element; the unit test asserts the field comparison."""
    times, outputs = [], []
    for _, p_sym, _ in elements:
        ts = clock()
        e = hk.symsq.xy_to_abcd(p_sym)
        r = hk.symsq.abcd_to_xy(e, field)
        same = r == field.elem(p_sym)
        times.append(clock() - ts)
        outputs.append((e, r, same))
        load.sample()
    return times, outputs


def bridge_check(elements, outputs):
    errors = []
    for k, ((terms, _, pt), (e, r, same)) in enumerate(zip(elements, outputs)):
        if not same:
            errors.append(f"element {k}: field comparison failed")
            continue
        msg = bridge_oracle(terms, e, r, pt)
        if msg:
            errors.append(f"element {k}: {msg}")
    return errors


# -- drift -------------------------------------------------------------------

REFERENCE_Y = (0, 0, 0, 0, 1, 1)         # Q = X^7 + X - 1
SWEEP_EXPONENTS = tuple(range(6, 13))     # rel_tol 1e-6 ... 1e-12
COMMUTE = ((("T1", "T3"), 0.1), (("I", "II"), 0.02))
DRIFT_LIMIT = 1e-9
ORACLE_AGREEMENT = 1e-8


def drift_prepare(seed, index):
    """Curve parameters and a seeded point pair with positive ordinates.

    Abscissas lie in [1, 17/16] and [31/16, 33/16], near the reference
    pair (1, 2): flow I, the commutativity legs and the tolerance sweep run
    there without escape, and flow I takes 610-620 steps at 1e-12.
    """
    rng = rng_for("drift", seed, index)
    params = hk.curve.CurveParams.numeric(3, list(REFERENCE_Y))
    x1 = 1 + Fraction(rng.randint(0, 16), 256)
    x2 = Fraction(31, 16) + Fraction(rng.randint(0, 32), 256)
    p1 = (x1, hk.sim.curve_ordinate(params, x1))
    p2 = (x2, hk.sim.curve_ordinate(params, x2))
    return params, p1, p2


def drift_pass(params, p1, p2):
    """One seed: seed, compile the four flows, sweep flow I, commute twice."""
    sim = hk.sim
    out = {"aborts": [], "sweep": [], "commute": []}
    t0 = clock()
    s0 = sim.seed_state(params, p1, p2)
    out["flows"] = {f: sim.CompiledFlow(f, params)
                    for f in ("I", "II", "T1", "T3")}
    step_s = 0.0
    steps = 0
    for k in SWEEP_EXPONENTS:
        rt = 10.0 ** -k
        ts = clock()
        try:
            traj = sim.integrate("I", s0, 1.0, rel_tol=rt, abs_tol=rt * 1e-2,
                                 params=params)
        except hk.errors.SingularityAbort as exc:
            out["aborts"].append(f"sweep 1e-{k}: {exc}")
            continue
        step_s += clock() - ts
        steps += len(traj.samples) - 1
        out["sweep"].append((k, traj))
    for flows, span in COMMUTE:
        try:
            rep = sim.commute_experiment(params, s0, span, span, flows=flows)
        except hk.errors.SingularityAbort as exc:
            out["aborts"].append(f"commute {flows}: {exc}")
            continue
        out["commute"].append(rep)
    out["op_s"] = clock() - t0
    out["steps"] = steps
    out["step_s"] = step_s
    out["s0"] = s0
    return out


def drift_check(out):
    """(failed operations, messages) of one seed.

    The operations are the sweep integrations and the commutativity
    experiments.  An abort fails its operation; the tightest sweep fails
    when its invariant drift exceeds DRIFT_LIMIT or its endpoint leaves
    the scipy DOP853 reference; a commutativity experiment fails on FAIL.
    """
    import numpy as np
    from scipy.integrate import solve_ivp

    errors = list(out["aborts"])
    failed = len(out["aborts"])
    tight = [traj for k, traj in out["sweep"] if k == max(SWEEP_EXPONENTS)]
    if tight:
        traj = tight[0]
        tight_errors = []
        drift = max(traj.relative_drift())
        if not drift <= DRIFT_LIMIT:
            tight_errors.append(f"relative drift {drift:.3e} above "
                                f"{DRIFT_LIMIT:g} at 1e-12")
        rhs = out["flows"]["I"]
        ref = solve_ivp(lambda t, y: rhs(y), (0.0, 1.0), out["s0"].vector(),
                        method="DOP853", rtol=1e-13, atol=1e-15)
        want = ref.y[:, -1]
        gap = float(np.max(np.abs(traj.final_state().vector() - want)))
        scale = max(1.0, float(np.max(np.abs(want))))
        if not (ref.success and gap <= ORACLE_AGREEMENT * scale):
            tight_errors.append(
                f"flow-I endpoint differs from DOP853 by {gap:.3e}")
        errors.extend(tight_errors)
        failed += bool(tight_errors)
    for rep in out["commute"]:
        if not rep["pass"]:
            errors.append(
                f"commute {rep['flows']} FAIL: {rep['discrepancy']:.3e}")
            failed += 1
    return failed, errors


DRIFT_OPS_PER_SEED = len(SWEEP_EXPONENTS) + len(COMMUTE)
# seeds share one interpreter so the scipy import of the oracle is paid once
DRIFT_SEEDS_PER_PASS = 4
