"""Command-line frontend: verification suites, simulation, expansions.

Exit codes: 0 when every requested check passes, 1 on any failure (an
aborted simulation, or an internal error of the program), 2 on usage or
configuration errors.
"""

import argparse
import json
import sys
import traceback
from fractions import Fraction

from . import phiring, ratlimit, sim, verify_hierarchy, verify_tables
from .curve import CurveParams, in_Bg
from .errors import ConfigError, MemoryCapExceeded, SeedError, SingularityAbort
from .report import emit_report

# reference configuration: a nonsingular curve with an exact rational point
DEFAULT_Y = ("0", "0", "0", "0", "1", "1")          # Q = X^7 + X - 1
DEFAULT_P1 = ("1", "1")
DEFAULT_P2 = ("2", "auto")

SUITES = {
    "bm": lambda: verify_tables.suite_bm(),
    "integrals": lambda: verify_tables.suite_integrals(),
    "hamiltonian": lambda: verify_tables.suite_hamiltonian(),
    "dkdv": lambda: verify_hierarchy.suite_dkdv(),
    "psi": lambda: verify_hierarchy.suite_psi(),
    "rational": lambda: ratlimit.suite_rational(),
    "appendix": lambda: phiring.suite_appendix(),
}
SUITE_ORDER = ("bm", "integrals", "hamiltonian", "dkdv", "rational", "appendix")


def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"{text!r} is not an exact rational") from None


def _parse_rationals(text, expect=None):
    parts = [p.strip() for p in text.split(",")]
    if expect is not None and len(parts) != expect:
        raise ConfigError(f"expected {expect} comma-separated values")
    return [_rational(p) for p in parts]


def _build_params(ns):
    ys = _parse_rationals(ns.y, expect=6)
    params = CurveParams.numeric(3, ys)
    if not in_Bg(params):
        raise ConfigError("curve parameters lie on the discriminant locus")
    return params


def _parse_point(text, params):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ConfigError("points are given as x,y (y may be 'auto')")
    x = _rational(parts[0])
    if parts[1] == "auto":
        y = sim.curve_ordinate(params, x)
    else:
        y = _rational(parts[1])
    return (x, y)


def _write_or_print(doc, out_path):
    text = json.dumps(doc, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(ns):
    if ns.suite == "all":
        reports = []
        for name in SUITE_ORDER:
            reports.extend(SUITES[name]())
    else:
        reports = SUITES[ns.suite]()
    doc = emit_report(reports)
    _write_or_print(doc, ns.out)
    for check in doc["checks"]:
        print(f"{check['status']:4s} {check['id']}: {check['residual_summary']}",
              file=sys.stderr)
    return 0 if doc["overall"] == "PASS" else 1


def _cmd_simulate(ns):
    params = _build_params(ns)
    p1 = _parse_point(ns.p1, params)
    p2 = _parse_point(ns.p2, params)
    s0 = sim.seed_state(params, p1, p2, flow=ns.flow)
    aborted = False
    try:
        traj = sim.integrate(ns.flow, s0, ns.t_end, rel_tol=ns.rel_tol,
                             abs_tol=ns.abs_tol, params=params)
    except SingularityAbort as exc:
        traj = exc.trajectory
        aborted = True
    if ns.csv:
        traj.to_csv(ns.csv)
    d12, d14 = traj.relative_drift()
    doc = {
        "flow": ns.flow,
        "t_end": ns.t_end,
        "rel_tol": ns.rel_tol,
        "abs_tol": ns.abs_tol,
        "samples": len(traj.samples),
        "reached_time": traj.samples[-1][0],
        "relative_drift_H12": d12,
        "relative_drift_H14": d14,
        "aborted": aborted,
        "abort_reason": traj.abort_reason,
    }
    _write_or_print(doc, ns.out)
    return 1 if aborted else 0


def _cmd_series(ns):
    if ns.target != "phi":
        raise ConfigError("the only series target is 'phi'")
    series = phiring.phi_series_example1(ns.order)
    doc = {
        "series": "phi(t) branch through the origin at w5 = 1",
        "order": ns.order,
        "coefficients": [str(c) for c in series.coeffs],
    }
    _write_or_print(doc, ns.out)
    print(str(series), file=sys.stderr)
    return 0


def _cmd_commute(ns):
    params = _build_params(ns)
    flows = tuple(f.strip() for f in ns.flows.split(","))
    if len(flows) != 2:
        raise ConfigError("--flows takes two comma-separated flow ids")
    p1 = _parse_point(ns.p1, params)
    p2 = _parse_point(ns.p2, params)
    s0 = sim.seed_state(params, p1, p2, flow=flows[0])
    rep = sim.commute_experiment(params, s0, ns.sigma, ns.tau,
                                 rel_tol=ns.rel_tol, abs_tol=ns.abs_tol,
                                 flows=flows)
    _write_or_print(rep, ns.out)
    return 0 if rep["pass"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hekdv",
        description="exact verification and simulation for the deformed "
                    "KdV hierarchy on a genus-3 symmetric square")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=["all"] + list(SUITES))
    pv.add_argument("--out", default=None, help="write the JSON report here")
    pv.set_defaults(func=_cmd_verify)

    def add_sim_args(p):
        p.add_argument("--y", default=",".join(DEFAULT_Y),
                       help="curve parameters c4,c6,c8,c10,c12,c14 as exact "
                            "rationals (default X^7+X-1)")
        p.add_argument("--p1", default=",".join(DEFAULT_P1),
                       help="first curve point x,y ('auto' ordinate allowed)")
        p.add_argument("--p2", default=",".join(DEFAULT_P2),
                       help="second curve point x,y")
        p.add_argument("--rel-tol", type=float, default=1e-12)
        p.add_argument("--abs-tol", type=float, default=1e-14)
        p.add_argument("--out", default=None)

    ps = sub.add_parser("simulate", help="integrate one flow")
    add_sim_args(ps)
    ps.add_argument("--flow", choices=["I", "II", "T1", "T3"], required=True)
    ps.add_argument("--t-end", type=float, default=1.0)
    ps.add_argument("--csv", default=None, help="trajectory CSV path")
    ps.set_defaults(func=_cmd_simulate)

    pse = sub.add_parser("series", help="series expansion of the divisor branch")
    pse.add_argument("target", choices=["phi"])
    pse.add_argument("--order", type=int, default=15)
    pse.add_argument("--out", default=None)
    pse.set_defaults(func=_cmd_series)

    pc = sub.add_parser("commute", help="flow commutativity experiment")
    add_sim_args(pc)
    pc.add_argument("--sigma", type=float, required=True)
    pc.add_argument("--tau", type=float, required=True)
    pc.add_argument("--flows", default="T1,T3")
    pc.set_defaults(func=_cmd_commute)
    return parser


def run(argv=None):
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return ns.func(ns)
    except (ConfigError, SeedError, MemoryCapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SingularityAbort as exc:
        # a simulation that could not finish, e.g. a commutativity leg
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # a fault of the program, not of its input
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
