"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py WORKLOAD MODE SEED INDEX [CHECK]

MODE is ``run`` (untraced pass), ``trace`` (the same pass with the layer
tracer installed after set-up) or ``check`` (cold and warm time of the
public verify_* call named CHECK).  ``run.py`` starts these processes one
at a time with PYTHONPATH pointing at ``src`` and this directory.
"""

import json
import resource
import sys
import time

T_START = time.perf_counter()


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pass_certify(wl, seed, index, trace, load):
    controls = wl.draw_controls(seed, index)
    golden = wl.load_golden()
    setup_s = time.perf_counter() - T_START
    tracer = trace(wl)
    load.sample()
    res = wl.certify_pass(controls, golden, load)
    load.sample()
    return setup_s, tracer, res


def pass_bridge(wl, seed, index, trace, load):
    field, elements = wl.bridge_prepare(seed, index)
    setup_s = time.perf_counter() - T_START
    tracer = trace(wl)
    load.sample()
    times, outputs = wl.bridge_pass(field, elements, load)
    rss = peak_rss_mb()
    t0 = time.perf_counter()
    errors = wl.bridge_check(elements, outputs)
    res = {"op_s": [sum(times)], "work_s": sum(times),
           "rate": [len(times) / sum(times)], "item_s": times,
           "attempted": len(elements), "failed": len(errors),
           "errors": errors, "rss_mb": rss,
           "oracle_s": time.perf_counter() - t0}
    return setup_s, tracer, res


def pass_drift(wl, seed, index, trace, load):
    seeds = [wl.drift_prepare(seed, index * wl.DRIFT_SEEDS_PER_PASS + k)
             for k in range(wl.DRIFT_SEEDS_PER_PASS)]
    setup_s = time.perf_counter() - T_START
    tracer = trace(wl)
    load.sample()
    outs = []
    for s in seeds:
        outs.append(wl.drift_pass(*s))
        load.sample()
    rss = peak_rss_mb()
    t0 = time.perf_counter()
    failed, errors = 0, []
    for out in outs:
        f, e = wl.drift_check(out)
        failed += f
        errors += e
    ops = [out["op_s"] for out in outs]
    res = {"op_s": ops, "work_s": sum(ops),
           "rate": [out["steps"] / out["step_s"] for out in outs],
           "attempted": wl.DRIFT_OPS_PER_SEED * len(outs),
           "failed": failed, "errors": errors, "rss_mb": rss,
           "oracle_s": time.perf_counter() - t0}
    return setup_s, tracer, res


PASSES = {"certify": pass_certify, "bridge": pass_bridge, "drift": pass_drift}

# layers each workload must reach; a traced run that records no span in
# one of them has lost its wrappers and is reported as a failure
EXPECTED_LAYERS = {
    "certify": ("kernel", "field", "checks", "frontend"),
    "bridge": ("kernel", "field"),
    "drift": ("kernel", "field", "checks", "simulator"),
}


def trace_errors(workload, missing, layers):
    """Failures of a traced run: tracer targets that the program no longer
    has, and layers of the workload that recorded no span."""
    errors = [f"tracer target not found: {name}" for name in missing]
    errors += [f"traced run recorded no span in layer {layer}"
               for layer in EXPECTED_LAYERS[workload]
               if layers[f"layer.{layer}.spans"] == 0]
    return errors


def main(argv):
    workload, mode, seed, index = argv[1], argv[2], int(argv[3]), int(argv[4])
    import workloads as wl

    if mode == "check":
        print(json.dumps(wl.time_check(argv[5])))
        return 0

    def trace(module):
        if mode != "trace":
            return None
        import tracer
        return tracer.install([vars(module)])

    load = wl.HostLoad()
    setup_s, tr, res = PASSES[workload](wl, seed, index, trace, load)
    res["setup_s"] = setup_s
    res["load"] = load.factor()
    res.setdefault("rss_mb", peak_rss_mb())
    # time the process spends outside the program's work
    res["untimed_s"] = res.pop("oracle_s", 0.0) + load.spent_s
    if tr is not None:
        import tracer
        layers = tracer.layer_metrics(tr)
        # the tracer's coverage is one more operation of the traced pass
        errors = trace_errors(workload, tr.missing, layers)
        res["errors"] += errors
        res["attempted"] += 1
        res["failed"] += bool(errors)
        res["layers"] = layers
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
