"""The summary of scripts/bench_pairs.py, on made-up runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


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
    summary = bench_pairs.summarize(runs)
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


def test_workloads_kept_apart_and_failures_counted():
    runs = [_run("certify", 7, "parent", 0.08),
            _run("certify", 7, "change", 0.07, failed=2),
            _run("drift", 7, "change", 0.3, correct=False),
            _run("drift", 7, "parent", 0.2)]
    summary = bench_pairs.summarize(runs)
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
    summary = bench_pairs.summarize(runs)
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
    assert bench_pairs.run_seconds(roots[:2]) == 30
    with pytest.raises(SystemExit):
        bench_pairs.run_seconds(roots)


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
