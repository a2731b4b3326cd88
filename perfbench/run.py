#!/usr/bin/env python3
"""The hekdv benchmark: cold certification, bridge round trips, drift sweeps.

    python3 perfbench/run.py --workload {certify,bridge,drift} --seed N \\
                             --seconds S --trace {0,1}

Run from the root of a source checkout.  Every pass is a fresh interpreter
(``worker.py``), started one at a time, that imports the program from
``src/``.  With ``--trace 0`` passes run until ``--seconds`` is spent and
the end-to-end metrics are printed; with ``--trace 1`` a fixed set of
passes (the first input of the seed) runs once untraced and once under the
layer tracer, and the per-layer metrics are printed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md in this directory for what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("certify", "bridge", "drift")
PASS_TIMEOUT_S = 120
MIN_PASSES = 3

END_TO_END = (("setup_s", "s"), ("process_s", "s"), ("op_s", "s"),
              ("items_per_s", "1/s"), ("peak_rss_mb", "MB"))

# workload-specific names of the generic metrics, printed alongside them
ALIASES = {
    "certify": {"process_s": "certify_process_s", "op_s": "certify_pass_s",
                "items_per_s": "checks_per_s"},
    "bridge": {"op_s": "bridge_batch_s", "items_per_s": "bridge_elems_per_s"},
    "drift": {"op_s": "drift_seed_s", "items_per_s": "sim_steps_per_s"},
}

# one entry per public verify_* call that `hekdv verify all` makes, in its
# order: (metric name, module, function, positional arguments)
CHECK_CALLS = (
    ("verify_flow_table.I", "verify_tables", "verify_flow_table", ("I",)),
    ("verify_flow_table.II", "verify_tables", "verify_flow_table", ("II",)),
    ("verify_flow_table.T1", "verify_tables", "verify_flow_table", ("T1",)),
    ("verify_flow_table.T3", "verify_tables", "verify_flow_table", ("T3",)),
    ("verify_first_integrals", "verify_tables", "verify_first_integrals", ()),
    ("verify_hamiltonian_form", "verify_tables", "verify_hamiltonian_form", ()),
    ("verify_dkdv_equations", "verify_hierarchy", "verify_dkdv_equations", ()),
    ("verify_psi_intertwine", "verify_hierarchy", "verify_psi_intertwine", ()),
    ("verify_seconddif", "verify_hierarchy", "verify_seconddif", ()),
    ("verify_kdv_reduction", "verify_hierarchy", "verify_kdv_reduction", ()),
    ("verify_sigma_displays", "ratlimit", "verify_sigma_displays", ()),
    ("verify_uv_closed_form", "ratlimit", "verify_uv_closed_form", ()),
    ("verify_rational_kdv", "ratlimit", "verify_rational_kdv", ()),
    ("verify_genus2_comparison", "ratlimit", "verify_genus2_comparison", ()),
    ("verify_appendix_forms", "phiring", "verify_appendix_forms", ()),
    ("verify_ratc", "phiring", "verify_ratc", ()),
    ("verify_example1", "phiring", "verify_example1", ()),
    ("verify_example3", "phiring", "verify_example3", ()),
)
CHECK_NAMES = tuple(call[0] for call in CHECK_CALLS)

PER_LAYER = (
    ("poly.mul.calls", "count"), ("poly.mul.self_ms", "ms"),
    ("poly.mul.terms_out", "count"), ("poly.mul.peak_terms", "count"),
    ("poly.add.calls", "count"), ("poly.add.self_ms", "ms"),
    ("poly.exact_div.calls", "count"), ("poly.exact_div.self_ms", "ms"),
    ("poly.divide_out_linear.calls", "count"),
    ("poly.divide_out_linear.self_ms", "ms"),
    ("ratfun.arith.calls", "count"), ("ratfun.arith.self_ms", "ms"),
    ("symsq.elem.calls", "count"), ("symsq.elem.self_ms", "ms"),
    ("symsq.arith.self_ms", "ms"), ("symsq.eq.self_ms", "ms"),
    ("symsq.abcd_to_xy.calls", "count"), ("symsq.abcd_to_xy.self_ms", "ms"),
    ("symsq.xy_to_abcd.self_ms", "ms"),
    ("derivations.apply.calls", "count"), ("derivations.apply.self_ms", "ms"),
    ("derivations.transfer.self_ms", "ms"),
    ("report.render.self_ms", "ms"),
    ("sim.compile.ms", "ms"), ("sim.seed.ms", "ms"),
    ("sim.rhs.calls", "count"), ("sim.rhs.us_per_call", "us"),
    ("sim.invariants.calls", "count"), ("sim.integrate.self_ms", "ms"),
    ("sim.steps.accepted", "count"), ("sim.steps.rejected", "count"),
    ("sim.evals_per_step", "evals/step"),
    *((f"layer.{layer}.{what}", unit)
      for layer in ("kernel", "field", "checks", "simulator", "frontend")
      for what, unit in (("spans", "count"), ("self_ms", "ms"))),
    *((f"check.{name}.{which}", "ms")
      for name in CHECK_NAMES for which in ("cold_ms", "warm_ms")),
    ("trace.spans", "count"), ("trace.overhead_ratio", "ratio"),
)


class Tally:
    """Operations attempted and failed, with the messages of failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, res):
        self.attempted += res["attempted"]
        self.failed += res["failed"]
        self.errors.extend(res["errors"])


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"      # set iteration order, hence exact counts
    return env


def run_worker(args, timeout=PASS_TIMEOUT_S):
    """Run one worker to completion; returns its JSON result and wall time."""
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, timeout=timeout)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise RuntimeError(f"worker {args} exited {proc.returncode}: "
                           + " | ".join(tail))
    return json.loads(lines[-1]), wall


def run_pass(workload, mode, seed, index, tally):
    """One pass; a pass that crashes counts as one failed operation."""
    try:
        res, wall = run_worker([workload, mode, seed, index])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        tally.attempted += 1
        tally.failed += 1
        tally.errors.append(str(exc))
        return None
    res["wall_s"] = wall
    res["process_s"] = wall - res["untimed_s"]
    tally.add(res)
    return unloaded(res)


def unloaded(res):
    """A pass's times and rates on an unloaded core: times are divided, and
    rates multiplied, by the pass's host-load factor (workloads.HostLoad)."""
    f = res["load"]
    for key in ("setup_s", "process_s", "work_s", "controls_s"):
        if key in res:
            res[key] /= f
    for key in ("op_s", "item_s"):
        if key in res:
            res[key] = [t / f for t in res[key]]
    res["rate"] = [r * f for r in res["rate"]]
    return res


def warm_up():
    """Compile the program's bytecode once so no pass pays for it."""
    subprocess.run([sys.executable, "-c", "import hekdv.cli, workloads"],
                   cwd=ROOT, env=worker_env(), check=True,
                   timeout=PASS_TIMEOUT_S)


def measure(workload, seed, seconds, tally):
    """Untraced passes until the time is spent; returns the end-to-end metrics."""
    passes = []
    t_end = time.perf_counter() + seconds
    index = 0
    while True:
        res = run_pass(workload, "run", seed, index, tally)
        index += 1
        if res is not None:
            passes.append(res)
        typical = statistics.median([p["wall_s"] for p in passes] or [0.0])
        if index >= MIN_PASSES and time.perf_counter() + typical > t_end:
            break
    if not passes:
        raise RuntimeError("every pass failed: " + "; ".join(tally.errors[:3]))
    samples = {
        "setup_s": [p["setup_s"] for p in passes],
        "process_s": [p["process_s"] for p in passes],
        "op_s": [t for p in passes for t in p["op_s"]],
        "items_per_s": [r for p in passes for r in p["rate"]],
        "peak_rss_mb": [p["rss_mb"] for p in passes],
        "host_load": [p["load"] for p in passes],
    }
    if workload == "certify":
        samples["mutation_reject_s"] = [p["controls_s"] for p in passes]
    if workload == "bridge":
        samples["bridge_elem_s"] = [t for p in passes for t in p["item_s"]]
    # times and rates are on an unloaded core (see unloaded); a run reports
    # the median of its samples
    metrics = {name: statistics.median(samples[name]) for name, _ in END_TO_END}
    extra = {f"{name} median (n)": f"{statistics.median(vals):.6g} ({len(vals)})"
             for name, vals in samples.items()}
    return metrics, extra


def measure_traced(workload, seed, tally):
    """One untraced and one traced pass on the seed's first input, plus
    cold and warm timing of each verify_* call on certify."""
    plain = run_pass(workload, "run", seed, 0, tally)
    traced = run_pass(workload, "trace", seed, 0, tally)
    if plain is None or traced is None:
        raise RuntimeError("traced run failed: " + "; ".join(tally.errors[:3]))
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = traced["work_s"] / plain["work_s"]
    for name in CHECK_NAMES:
        cold = warm = 0.0
        if workload == "certify":
            tally.attempted += 1
            try:
                res, _ = run_worker([workload, "check", seed, 0, name])
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                res = {"cold_ms": 0.0, "warm_ms": 0.0, "passed": False}
                tally.errors.append(str(exc))
            cold, warm = res["cold_ms"], res["warm_ms"]
            if not res["passed"]:
                tally.failed += 1
                tally.errors.append(f"{name} failed when called directly")
        metrics[f"check.{name}.cold_ms"] = cold
        metrics[f"check.{name}.warm_ms"] = warm
    return metrics, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (SRC / "hekdv" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'hekdv'}", file=sys.stderr)
        return 2

    warm_up()
    tally = Tally()
    try:
        if ns.trace:
            metrics, extra = measure_traced(ns.workload, ns.seed, tally)
            names = PER_LAYER
        else:
            metrics, extra = measure(ns.workload, ns.seed, ns.seconds, tally)
            names = END_TO_END
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = tally.failed == 0

    aliases = ALIASES[ns.workload]
    print(f"workload {ns.workload}, seed {ns.seed}, trace {ns.trace}")
    for name, unit in names:
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"  {label:46s} {metrics[name]:>14.6g} {unit}")
    for key, val in extra.items():
        print(f"  {key:46s} {val}")
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'failed_ratio':46s} {ratio:>14.6g} ({tally.failed} of "
          f"{tally.attempted} operations)")
    for err in tally.errors[:20]:
        print(f"  FAILED: {err}")
    print(f"verdict: {'correct' if correct else 'INCORRECT'}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
