"""The summary of scripts/bench_pairs.py, on made-up runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_PATH = _ROOT / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((_ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _run(workload, seed, side, op_s, items_per_s=100.0, failed=0,
         correct=True):
    metrics = {"setup_s": 0.06, "process_s": 0.2, "op_s": op_s,
               "items_per_s": items_per_s, "peak_rss_mb": 18.0}
    return {"workload": workload, "seed": seed, "side": side,
            "result": {"correct": correct, "attempted": 10, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "x"}
                                   for k, v in metrics.items()}}}


@pytest.fixture(autouse=True)
def no_subprocess(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the summary must not start a process")
    monkeypatch.setattr(bench_pairs.subprocess, "run", refuse)


def test_medians_quartiles_and_wins():
    parent = [0.090, 0.080, 0.100, 0.085]
    change = [0.040, 0.046, 0.036, 0.090]
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        for side in bench_pairs.pair_order(seed):
            runs.append(_run("bridge", seed, side, p if side == "parent" else c,
                             items_per_s=1 / (p if side == "parent" else c)))
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert list(summary) == ["bridge"]
    row = summary["bridge"]
    assert (row["pairs"], row["seeds"]) == (4, [1, 2, 3, 4])
    assert row["correct"] and row["failed"] == 0
    op = row["metrics"]["op_s"]
    # inclusive quartiles of 0.080, 0.085, 0.090, 0.100
    assert (op["parent_q1"], op["parent_median"], op["parent_q3"]) == (
        0.0838, 0.0875, 0.0925)
    # of 0.036, 0.040, 0.046, 0.090
    assert (op["change_q1"], op["change_median"], op["change_q3"]) == (
        0.039, 0.043, 0.057)
    assert op["better"] == "lower"
    assert op["change_vs_parent"] == round(0.043 / 0.0875 - 1, 4)
    assert op["change_wins"] == "3/4"
    rate = row["metrics"]["items_per_s"]
    assert rate["better"] == "higher" and rate["change_wins"] == "3/4"
    setup = row["metrics"]["setup_s"]
    assert setup["change_vs_parent"] == 0 and setup["change_wins"] == "0/4"
    assert not any(m["beyond_bound"] for m in row["metrics"].values())


def test_metrics_and_bounds_come_from_the_benchmark_file():
    runs = [_run("certify", 1, "parent", 0.080, items_per_s=100.0),
            _run("certify", 1, "change", 0.101, items_per_s=74.0)]
    metrics = [{"name": "op_s", "better": "lower", "bound": 0.25},
               {"name": "items_per_s", "better": "higher", "bound": 0.25},
               {"name": "setup_s", "better": "lower", "bound": 0.0}]
    row = bench_pairs.summarize(runs, metrics)["certify"]["metrics"]
    assert list(row) == ["op_s", "items_per_s", "setup_s"]
    # op_s 26 % slower, items_per_s 26 % lower: both past a 25 % bound
    assert row["op_s"]["beyond_bound"] and row["items_per_s"]["beyond_bound"]
    assert not row["setup_s"]["beyond_bound"]       # equal is not worse
    runs[1] = _run("certify", 1, "change", 0.099, items_per_s=76.0)
    row = bench_pairs.summarize(runs, metrics)["certify"]["metrics"]
    assert not row["op_s"]["beyond_bound"]
    assert not row["items_per_s"]["beyond_bound"]


def test_workloads_kept_apart_and_failures_counted():
    runs = [_run("certify", 7, "parent", 0.08),
            _run("certify", 7, "change", 0.07, failed=2),
            _run("drift", 7, "change", 0.3, correct=False),
            _run("drift", 7, "parent", 0.2)]
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert list(summary) == ["certify", "drift"]
    assert summary["certify"]["failed"] == 2 and summary["certify"]["correct"]
    op = summary["certify"]["metrics"]["op_s"]
    assert op["change_wins"] == "1/1"
    # one pair: the quartiles are its value
    assert (op["parent_q1"], op["parent_median"], op["parent_q3"]) == (
        0.08, 0.08, 0.08)
    assert not summary["drift"]["correct"]
    assert summary["drift"]["metrics"]["op_s"]["change_vs_parent"] == 0.5
    assert summary["drift"]["metrics"]["op_s"]["change_wins"] == "0/1"


def test_odd_seeds_run_the_parent_first():
    assert bench_pairs.pair_order(1401) == ("parent", "change")
    assert bench_pairs.pair_order(1402) == ("change", "parent")


def test_pairs_argument():
    assert bench_pairs.parse_pairs(["bridge=10", "certify=5"]) == {
        "bridge": 10, "certify": 5}
    with pytest.raises(SystemExit):
        bench_pairs.parse_pairs(["bridge"])
    with pytest.raises(SystemExit):
        bench_pairs.parse_pairs(["bridge=0"])


def test_lost_runs_leave_their_pair_out():
    runs = [_run("bridge", 1, "parent", 0.09), _run("bridge", 1, "change", 0.04),
            _run("bridge", 2, "change", 0.05),
            {"workload": "bridge", "seed": 2, "side": "parent",
             "result": {"returncode": None, "stderr": "timed out"}},
            {"workload": "certify", "seed": 1, "side": "parent",
             "result": {"returncode": 1, "stderr": "Traceback"}}]
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert summary["bridge"]["seeds"] == [1] and summary["bridge"]["lost"] == 1
    assert summary["bridge"]["metrics"]["op_s"]["change_wins"] == "1/1"
    assert summary["certify"]["pairs"] == 0 and summary["certify"]["lost"] == 1
    assert summary["certify"]["metrics"] == {}


def test_failed_and_timed_out_runs_are_recorded(monkeypatch):
    class Done:
        returncode, stdout, stderr = 1, "", "one\ntwo\nValueError: boom\n"

    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **k: Done)
    got = bench_pairs.run_once(".", "bridge", 1, 30, 0)
    assert got["returncode"] == 1 and got["stderr"].endswith("ValueError: boom")

    def slow(cmd, **kwargs):
        raise bench_pairs.subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(bench_pairs.subprocess, "run", slow)
    got = bench_pairs.run_once(".", "bridge", 1, 30, 0)
    assert got["returncode"] is None and "timed out" in got["stderr"]


def test_run_seconds_come_from_both_checkouts(tmp_path):
    roots = []
    for name, secs in (("parent", 30), ("change", 30), ("other", 20)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "BENCHMARK.json").write_text(
            json.dumps({"run_seconds": secs}))
        roots.append(str(tmp_path / name))
    assert bench_pairs.benchmark_field(roots[:2], "run_seconds") == 30
    with pytest.raises(SystemExit, match="disagree on run_seconds"):
        bench_pairs.benchmark_field(roots, "run_seconds")


def test_checkouts_with_bytecode_are_refused(tmp_path):
    clean, cached = tmp_path / "clean", tmp_path / "cached"
    (clean / "src" / "hekdv").mkdir(parents=True)
    (clean / "src" / "hekdv" / "poly.py").write_text("")
    pycache = cached / "src" / "hekdv" / "__pycache__"
    pycache.mkdir(parents=True)
    (pycache / "poly.cpython-311.pyc").write_bytes(b"")
    bench_pairs.refuse_bytecode([str(clean)])
    with pytest.raises(SystemExit, match="__pycache__"):
        bench_pairs.refuse_bytecode([str(clean), str(cached)])
    # the cache is named, not deleted
    assert (pycache / "poly.cpython-311.pyc").exists()


def test_traced_pairs_keep_the_median_of_each_metric():
    traced = []
    layer = [(3.0, 2.0), (5.0, 1.0), (4.0, 9.0)]
    for pair, (p, c) in enumerate(layer, start=1):
        for side in bench_pairs.pair_order(pair):
            run = _run("certify", 1231, side, 0.1)
            run["result"]["metrics"]["layer.kernel.self_ms"] = {
                "value": p if side == "parent" else c, "unit": "ms"}
            run["pair"] = pair
            traced.append(run)
    traced.append({"workload": "certify", "seed": 1231, "side": "change",
                   "pair": 4, "result": {"returncode": 1, "stderr": "boom"}})
    row = bench_pairs.summarize_traced(traced)["certify"]
    assert row["pairs"] == 3 and row["correct"] and row["failed"] == 0
    assert row["metrics"]["layer.kernel.self_ms"] == {
        "parent": 4.0, "parent_min": 3.0, "parent_max": 5.0,
        "change": 2.0, "change_min": 1.0, "change_max": 9.0}
    assert row["metrics"]["op_s"] == {
        "parent": 0.1, "parent_min": 0.1, "parent_max": 0.1,
        "change": 0.1, "change_min": 0.1, "change_max": 0.1}


def test_each_traced_workload_runs_alternating_pairs(tmp_path, monkeypatch):
    roots = []
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "BENCHMARK.json").write_text(
            json.dumps({"run_seconds": 30, "end_to_end": END_TO_END}))
        roots.append(str(tmp_path / name))
    calls = []

    def fake_run_once(checkout, workload, seed, seconds, trace):
        calls.append((checkout, workload, seed, trace))
        return _run(workload, seed, "", 0.1)["result"]

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "BENCH.json"
    bench_pairs.main(["--parent", roots[0], "--change", roots[1],
                      "--out", str(out), "--pairs", "bridge=1",
                      "--traced", "certify", "--trace-seed", "7"])
    parent, change = roots
    assert [(c[0], c[2]) for c in calls if c[3] == 1] == [
        (parent, 7), (change, 7), (change, 7), (parent, 7),
        (parent, 7), (change, 7)]
    doc = json.loads(out.read_text())
    assert [r["pair"] for r in doc["traced"]] == [1, 1, 2, 2, 3, 3]
    assert doc["traced_summary"]["certify"]["pairs"] == bench_pairs.TRACED_PAIRS
    assert "pair" not in doc["runs"][0]
    assert doc["summary"]["bridge"]["metrics"]["op_s"]["beyond_bound"] is False
