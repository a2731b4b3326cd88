#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written as a BENCH_*.json file.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out FILE \\
        --pairs bridge=10 certify=5 drift=5 --traced bridge certify \\
        [--first-seed 1401] [--trace-seed 1231] \\
        [--what TEXT] [--parent-rev REV] [--change-rev REV] [--host TEXT]

Each checkout is the root of a source tree with its own BENCHMARK.json and
perfbench/run.py; every run lasts the ``run_seconds`` of BENCHMARK.json,
which both checkouts must agree on.  A checkout that holds compiled
bytecode under ``src/`` is refused: its passes would skip the compile of
``src/`` that every pass of a clean checkout pays in ``setup_s``.  For
every workload, seeds first-seed, first-seed + 1, ... each make one pair:
the two checkouts run ``perfbench/run.py`` on the same seed, one after the
other, the parent first on odd seeds and the change first on even ones.
Then each workload named by ``--traced`` runs once per side with
``--trace 1`` on the trace seed.  The last line of every run is kept as printed,
under ``runs`` and ``traced``; a run that exits nonzero, prints nothing or
times out is kept as ``{"returncode", "stderr"}`` instead.  ``summary``
holds, per workload and end-to-end metric, each side's median and inclusive
quartiles over the pairs in which both sides finished, the change's median
relative to the parent's, and the pairs the change wins.  The file is
rewritten after every run, so an interrupted bench keeps the runs it made.
Standard library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

# the end-to-end metrics of perfbench/run.py, with the better direction
END_TO_END = (("setup_s", "lower"), ("process_s", "lower"), ("op_s", "lower"),
              ("items_per_s", "higher"), ("peak_rss_mb", "lower"))
SIDES = ("parent", "change")
RUN_TIMEOUT_S = 1800


def run_seconds(checkouts):
    """The run_seconds of BENCHMARK.json, the same in every checkout."""
    values = set()
    for root in checkouts:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            values.add(json.load(fh)["run_seconds"])
    if len(values) != 1:
        raise SystemExit(f"the checkouts disagree on run_seconds: {values}")
    return values.pop()


def refuse_bytecode(checkouts):
    """Exit, naming the directory, when a checkout holds a .pyc under src/.

    Nothing is deleted.
    """
    for root in checkouts:
        for folder, _, files in os.walk(os.path.join(root, "src")):
            if any(name.endswith(".pyc") for name in files):
                raise SystemExit(f"{folder} holds compiled bytecode, which "
                                 f"would skew setup_s; bench a checkout "
                                 f"without it")


def run_once(checkout, workload, seed, seconds, trace):
    """The last output line of one perfbench/run.py invocation, parsed, or
    {"returncode", "stderr"} when it fails or times out."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"returncode": None,
                "stderr": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"returncode": proc.returncode,
                "stderr": "\n".join(proc.stderr.strip().splitlines()[-5:])}
    return json.loads(lines[-1])


def pair_order(seed):
    """Odd seeds run the parent first, even seeds the change."""
    return SIDES if seed % 2 else SIDES[::-1]


def _round(x):
    return round(x, 4)


def summarize(runs):
    """Per-workload medians, quartiles and pairs won of the untraced runs.

    ``runs`` is a list of {"workload", "seed", "side", "result"}.  A pair
    counts when both sides have a result with metrics; the runs that lack
    one are counted under ``lost``.
    """
    by_key = {(r["workload"], r["seed"], r["side"]): r["result"] for r in runs}
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r["result"] for r in runs if r["workload"] == workload]
        seeds = sorted(s for s in {s for w, s, _ in by_key if w == workload}
                       if all("metrics" in by_key.get((workload, s, side), {})
                              for side in SIDES))
        results = [by_key[workload, s, side] for s in seeds for side in SIDES]
        metrics = {}
        for name, better in END_TO_END if seeds else ():
            values = {side: [by_key[workload, s, side]["metrics"][name]["value"]
                             for s in seeds] for side in SIDES}
            row = {"better": better}
            for side in SIDES:
                q1, median, q3 = (statistics.quantiles(
                    values[side], n=4, method="inclusive")
                    if len(seeds) > 1 else values[side] * 3)
                row[f"{side}_median"] = _round(median)
                row[f"{side}_q1"] = _round(q1)
                row[f"{side}_q3"] = _round(q3)
            row["change_vs_parent"] = _round(
                statistics.median(values["change"])
                / statistics.median(values["parent"]) - 1)
            wins = sum((c < p) if better == "lower" else (c > p)
                       for p, c in zip(values["parent"], values["change"]))
            row["change_wins"] = f"{wins}/{len(seeds)}"
            metrics[name] = row
        summary[workload] = {
            "pairs": len(seeds), "seeds": seeds,
            "lost": sum("metrics" not in r for r in mine),
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
    return summary


def parse_pairs(items):
    """["bridge=10", ...] -> {"bridge": 10, ...}, in the given order."""
    out = {}
    for item in items:
        workload, _, n = item.partition("=")
        if not n.isdigit() or int(n) < 1:
            raise SystemExit(f"--pairs wants WORKLOAD=N with N >= 1, got {item!r}")
        out[workload] = int(n)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout root")
    ap.add_argument("--change", required=True, help="changed checkout root")
    ap.add_argument("--out", required=True, help="BENCH_*.json to write")
    ap.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N")
    ap.add_argument("--traced", nargs="*", default=(), metavar="WORKLOAD")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace-seed", type=int, default=1231)
    ap.add_argument("--what", default="")
    ap.add_argument("--parent-rev", default="")
    ap.add_argument("--change-rev", default="")
    ap.add_argument("--host", default="")
    args = ap.parse_args(argv)
    pairs = parse_pairs(args.pairs)
    root = {"parent": args.parent, "change": args.change}
    seconds = run_seconds(root.values())
    refuse_bytecode(root.values())

    host = args.host or (f"{os.cpu_count()} vCPUs, Python "
                         f"{platform.python_version()}")
    counts = ", ".join(f"{w} {n}" for w, n in pairs.items())
    runs, traced = [], []
    doc = {
        "what": args.what,
        "parent": args.parent_rev,
        "change": args.change_rev,
        "host": host,
        "command": f"python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace T",
        "protocol": (
            "one pair per seed: parent and change on the same seed, each "
            "from its own checkout, alternating which side runs first (odd "
            "seeds parent first); the last line of each run is kept as "
            f"printed. Pairs per workload: {counts}. The traced runs "
            f"(--trace 1, seed {args.trace_seed}) are one per side and "
            "workload."),
        "summary_note": (
            "summary is of the untraced runs: each side's median and "
            "quartiles (statistics.quantiles, inclusive) over the pairs in "
            "which both sides finished, the change's median relative to the "
            "parent's, and the pairs in which the change is better; lost "
            "counts the runs that failed or timed out"),
        "summary": {},
        "runs": runs,
        "traced": traced,
    }

    def record(into, workload, seed, side, trace):
        result = run_once(root[side], workload, seed, seconds, trace)
        into.append({"workload": workload, "seed": seed, "side": side,
                     "result": result})
        print(workload, seed, side, json.dumps(result.get("metrics", result)),
              file=sys.stderr, flush=True)
        doc["summary"] = summarize(runs)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    for workload, n in pairs.items():
        for seed in range(args.first_seed, args.first_seed + n):
            for side in pair_order(seed):
                record(runs, workload, seed, side, 0)
    for workload in args.traced:
        for side in SIDES:
            record(traced, workload, args.trace_seed, side, 1)


if __name__ == "__main__":
    main()
