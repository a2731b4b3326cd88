"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Tiny runs must emit every declared metric, a doctored golden report and a
mutation that is not rejected must both count as failed operations, and
the exact counts of two traced runs with the same seed must agree.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench            # noqa: E402  (stdlib only)
import workloads as wl         # noqa: E402  (imports the program)

EXACT_COUNTS = (
    "poly.mul.calls", "poly.mul.terms_out", "poly.mul.peak_terms",
    "poly.add.calls", "poly.exact_div.calls", "poly.divide_out_linear.calls",
    "ratfun.arith.calls", "symsq.elem.calls", "symsq.abcd_to_xy.calls",
    "derivations.apply.calls", "sim.rhs.calls", "sim.invariants.calls",
    "sim.steps.accepted", "sim.steps.rejected", "layer.kernel.spans",
    "layer.field.spans", "layer.checks.spans", "layer.simulator.spans",
    "layer.frontend.spans", "trace.spans",
)


def run_bench(workload, trace, seed=5, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_declaration_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    for key, declared in (("end_to_end", bench.END_TO_END),
                          ("per_layer", bench.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[key]] == list(declared)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    res = last_json(run_bench(workload, trace=0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [n for n, _ in bench.END_TO_END]
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_counts_repeat(workload):
    first = last_json(run_bench(workload, trace=1))
    second = last_json(run_bench(workload, trace=1))
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [n for n, _ in bench.PER_LAYER]
    for name in EXACT_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_missing_trace_target_counts_as_failure():
    # a renamed method leaves its tracer target unresolved; the traced
    # pass must fail rather than report the target's metrics as zero
    code = ("import sys, hekdv.sim; del hekdv.sim.CompiledFlow.__call__; "
            "import worker; "
            "sys.exit(worker.main(['worker.py', 'certify', 'trace', '5', '0']))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=bench.worker_env(), capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["failed"] == 1
    assert res["errors"] == ["tracer target not found: sim.CompiledFlow.__call__"]


def test_times_are_corrected_for_host_load():
    load = wl.HostLoad()
    load.sample()
    assert len(load.samples) == wl.HostLoad.REPS and load.factor() > 0
    res = bench.unloaded({"load": 2.0, "setup_s": 0.5, "process_s": 3.0,
                          "work_s": 2.0, "op_s": [1.0, 0.5], "rate": [10.0]})
    assert res["setup_s"] == 0.25 and res["process_s"] == 1.5
    assert res["op_s"] == [0.5, 0.25] and res["rate"] == [20.0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("certify", trace=0, cwd=tmp_path,
                     script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def verify_all_doc():
    code, text = wl.run_verify_all()
    assert code == 0
    return json.loads(text)


def test_report_matches_golden(verify_all_doc):
    assert wl.golden_mismatches(verify_all_doc, wl.load_golden()) == []


def test_doctored_golden_and_unrejected_mutation_count_as_failures():
    golden = copy.deepcopy(wl.load_golden())
    golden["checks"][3]["residuals"][2]["value"] = "x1 - x2"
    golden["checks"][9]["status"] = "FAIL"
    controls = wl.draw_controls(seed=0, index=0)
    controls.append(("tables", "unmutated table",
                     lambda: wl.hk.verify_tables.verify_flow_table("I")))
    res = wl.certify_pass(controls, golden, wl.HostLoad())
    assert res["attempted"] == len(golden["checks"]) + 8
    assert res["failed"] == 3
    assert sorted(res["errors"]) == sorted([
        f"golden mismatch: {golden['checks'][3]['id']}",
        f"golden mismatch: {golden['checks'][9]['id']}",
        "control not rejected: tables"])


@pytest.mark.parametrize("seed", range(6))
def test_seeded_controls_are_all_rejected(seed):
    results = [(suite, thunk()) for suite, _, thunk in wl.draw_controls(seed, 3)]
    assert [s for s, _ in results] == ["tables", "integrals", "hamiltonian",
                                       "hierarchy", "transfer", "rational",
                                       "appendix"]
    assert wl.unrejected(results) == []


def test_bridge_batch_is_the_unit_test_draw_by_size_class():
    batch = wl.bridge_batch(seed=3, index=1)
    assert batch == wl.bridge_batch(seed=3, index=1)
    assert len(batch) == len(wl.BRIDGE_CLASSES) == wl.BRIDGE_STRATA
    for terms, key in zip(batch, wl.BRIDGE_CLASSES):
        assert len(terms) == wl.BRIDGE_TERMS
        assert all(0 <= k <= 3 for expo in terms for k in expo)
        assert max(map(wl.size_key, terms)) == key


def test_bridge_oracle_rejects_a_wrong_round_trip():
    field, elements = wl.bridge_prepare(seed=2, index=0)
    terms, p_sym, pt = elements[0]
    e = wl.hk.symsq.xy_to_abcd(p_sym)
    r = wl.hk.symsq.abcd_to_xy(e, field)
    assert wl.bridge_oracle(terms, e, r, pt) is None
    wrong = field.elem(p_sym + wl.hk.poly.MPoly.var("X1"))
    assert wl.bridge_oracle(terms, e, wrong, pt) is not None
    assert wl.bridge_check(elements[:1], [(e, wrong, False)]) != []


def test_drift_counts_aborts():
    params, p1, p2 = wl.drift_prepare(seed=2, index=0)
    out = wl.drift_pass(params, p1, p2)
    assert wl.drift_check(out) == (0, [])
    out["aborts"].append("sweep 1e-6: step size underflow")
    out["commute"][0] = dict(out["commute"][0], **{"pass": False})
    failed, errors = wl.drift_check(out)
    assert failed == 2 and len(errors) == 2
