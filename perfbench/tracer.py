"""Span tracing for the traced benchmark run.

The tracer wraps public functions and methods of the hekdv modules from
outside the package: nothing under ``src/`` is edited.  Every wrapped call
records one span (name, start, end, parent) in flat arrays; self time per
span is its duration minus the time covered by its direct children.
Wrappers are installed in every namespace that holds the original object,
so a function imported with ``from .x import f`` is traced where it is
looked up, and class aliases such as ``__rmul__ = __mul__`` are traced too.
"""

import importlib
import sys
import time
from array import array

import numpy as np

# modules of each layer, named as in the repository layout
LAYERS = {
    "kernel": ("poly", "ratfun", "series", "algnum"),
    "field": ("curve", "symsq", "derivations"),
    "checks": ("tables", "verify_tables", "verify_hierarchy", "ratlimit",
               "phiring"),
    "simulator": ("sim",),
    "frontend": ("cli", "report"),
}
LAYER_OF_MODULE = {m: layer for layer, mods in LAYERS.items() for m in mods}

_RING = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__pow__", "__neg__")
_ARITH = _RING + ("__truediv__", "__rtruediv__")

# (module, class or None, attribute names, span name).  Span names start
# with their module, which assigns them to a layer.  Structural queries
# that are called per term (degree_in, variables_used, ...) are not
# wrapped: their cost stays in the self time of the caller.  Every named
# attribute must exist: one that does not is reported as missing, and the
# traced run counts it as a failed operation.
TARGETS = (
    ("poly", "MPoly", ("__add__", "__radd__"), "poly.add"),
    ("poly", "MPoly", ("__sub__", "__rsub__", "__neg__"), "poly.sub"),
    ("poly", "MPoly", ("__mul__", "__rmul__"), "poly.mul"),
    ("poly", "MPoly", ("__pow__",), "poly.pow"),
    ("poly", "MPoly", ("exact_div",), "poly.exact_div"),
    ("poly", "MPoly", ("divide_out_linear",), "poly.divide_out_linear"),
    ("poly", "MPoly", ("derivative",), "poly.derivative"),
    ("poly", "MPoly", ("subst",), "poly.subst"),
    ("poly", "MPoly", ("eval_numeric",), "poly.eval_numeric"),
    ("poly", None, ("eval_poly",), "poly.eval_poly"),
    ("ratfun", "RatFn", _ARITH, "ratfun.arith"),
    ("ratfun", "RatFn", ("derivative", "subst"), "ratfun.calculus"),
    ("series", "PSeries", _RING + ("__truediv__", "inverse"), "series.arith"),
    ("series", None, ("eval_at_series", "newton_solve"), "series.solve"),
    ("algnum", "AlgNum", _ARITH + ("inverse",), "algnum.arith"),
    ("curve", "CurveParams", ("Q", "sub_y", "specialize"), "curve.params"),
    ("curve", None, ("curve_Q", "in_Bg", "sylvester_resultant"), "curve.fns"),
    ("symsq", "SymSqElem", ("__init__",), "symsq.elem"),
    ("symsq", "SymSqElem", _ARITH, "symsq.arith"),
    ("symsq", "SymSqElem", ("__eq__",), "symsq.eq"),
    ("symsq", "SymSqField", ("reduce",), "symsq.reduce"),
    ("symsq", None, ("abcd_to_xy",), "symsq.abcd_to_xy"),
    ("symsq", None, ("xy_to_abcd",), "symsq.xy_to_abcd"),
    ("symsq", None, ("build_MN",), "symsq.build_MN"),
    ("derivations", "Derivation", ("__call__",), "derivations.apply"),
    ("derivations", None, ("psi1", "psi2"), "derivations.transfer"),
    ("derivations", None, ("make_derivation",), "derivations.make"),
    ("tables", None, ("flow_table", "first_integrals", "poisson_bracket"),
     "tables.build"),
    ("verify_tables", None, "verify_*", "verify_tables.check"),
    ("verify_tables", None, ("pullback_u",), "verify_tables.pullback"),
    ("verify_hierarchy", None, "verify_*", "verify_hierarchy.check"),
    ("ratlimit", None, "verify_*", "ratlimit.check"),
    ("ratlimit", None, ("uv_closed_form", "genus2_DE"), "ratlimit.forms"),
    ("phiring", None, "verify_*", "phiring.check"),
    ("phiring", "PhiRingElem", _RING, "phiring.arith"),
    ("phiring", "PhiFrac", _RING, "phiring.arith"),
    ("sim", "CompiledFlow", ("__init__",), "sim.compile"),
    ("sim", "CompiledIntegrals", ("__init__",), "sim.compile"),
    ("sim", "CompiledFlow", ("__call__",), "sim.rhs"),
    ("sim", "CompiledIntegrals", ("__call__",), "sim.invariants"),
    ("sim", None, ("integrate",), "sim.integrate"),
    ("sim", None, ("seed_state",), "sim.seed"),
    ("sim", None, ("commute_experiment",), "sim.commute"),
    ("cli", None, ("run",), "cli.run"),
    ("report", "ReportBuilder", ("residual",), "report.render"),
    ("report", None, ("emit_report", "report_json"), "report.emit"),
)


class Tracer:
    """In-memory span recorder; spans are kept until the run ends."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.nid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = []
        self.counts = {}        # extra exact counters fed by result hooks
        self.peaks = {}
        self.missing = []       # targets absent from the program

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, on_result=None):
        nid_ = self.name_id(name)
        nid, start, end, parent, stack = (self.nid, self.start, self.end,
                                          self.parent, self.stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            nid.append(nid_)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key, n):
        if n > self.peaks.get(key, 0):
            self.peaks[key] = n

    # -- summaries ------------------------------------------------------

    def arrays(self):
        n = len(self.start)
        nid = np.frombuffer(self.nid, dtype=np.int32, count=n)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        return nid, start, end, parent

    def per_name(self):
        """{span name: (calls, inclusive s, self s)} over all spans."""
        nid, start, end, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        incl = np.bincount(nid, weights=dur, minlength=k)
        selft = np.bincount(nid, weights=self_time, minlength=k)
        return {name: (int(calls[i]), float(incl[i]), float(selft[i]))
                for i, name in enumerate(self.names)}

    def children_per_parent(self, child_name, parent_name):
        """Number of `child_name` spans directly under each `parent_name` span."""
        nid, _, _, parent = self.arrays()
        cid = self._ids.get(child_name)
        pid = self._ids.get(parent_name)
        if cid is None or pid is None:
            return np.zeros(0, dtype=np.int64)
        per = np.bincount(parent[(nid == cid) & (parent >= 0)],
                          minlength=len(nid))
        return per[nid == pid]


def _mul_terms(tracer, result):
    if result is NotImplemented:     # reflected operand, e.g. MPoly * SymSqElem
        return
    n = result.term_count()
    tracer.add("poly.mul.terms_out", n)
    tracer.peak("poly.mul.peak_terms", n)


def _accepted_steps(tracer, traj):
    tracer.add("sim.steps.accepted", len(traj.samples) - 1)


HOOKS = {"poly.mul": _mul_terms, "sim.integrate": _accepted_steps}


def _resolve(module, cls, attrs):
    """([(owner, attr, function)], [absent names]) of one target."""
    owner = getattr(module, cls, None) if cls else module
    if owner is None:
        return [], [cls]
    if attrs == "verify_*":
        attrs = sorted(a for a, v in vars(module).items()
                       if a.startswith("verify_") and callable(v)
                       and getattr(v, "__module__", None) == module.__name__)
        if not attrs:
            return [], ["verify_*"]
    found, absent = [], []
    for attr in attrs:
        fn = vars(owner).get(attr)
        if fn is not None and callable(fn):
            found.append((owner, attr, fn))
        else:
            absent.append(f"{cls}.{attr}" if cls else attr)
    return found, absent


def install(extra_namespaces=()):
    """Wrap every target; return the tracer that records the spans.

    `extra_namespaces` are module dicts outside the package (the
    benchmark's own) that may hold direct references to wrapped functions.
    """
    tracer = Tracer()
    modules = {m: importlib.import_module(f"hekdv.{m}")
               for m in LAYER_OF_MODULE}
    namespaces = [vars(mod) for name, mod in sys.modules.items()
                  if name == "hekdv" or name.startswith("hekdv.")]
    namespaces.extend(extra_namespaces)
    for mod_name, cls, attrs, span in TARGETS:
        found, absent = _resolve(modules[mod_name], cls, attrs)
        tracer.missing.extend(f"{mod_name}.{name}" for name in absent)
        if not found:
            continue
        wrapped = {}
        for owner, attr, fn in found:
            if id(fn) not in wrapped:
                wrapped[id(fn)] = (fn, tracer.wrap(span, fn, HOOKS.get(span)))
            setattr(owner, attr, wrapped[id(fn)][1])
        if cls is None:
            # rebind module-level functions wherever they were imported
            for ns in namespaces:
                for key, val in list(ns.items()):
                    hit = wrapped.get(id(val))
                    if hit is not None and hit[0] is val:
                        ns[key] = hit[1]
        else:
            # aliases such as __rmul__ = __mul__ share the original object
            owner = getattr(modules[mod_name], cls)
            for key, val in list(vars(owner).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(owner, key, hit[1])
    return tracer


def layer_metrics(tracer):
    """The per-layer metrics this benchmark reports, from one traced run."""
    per = tracer.per_name()

    def calls(name):
        return per.get(name, (0, 0.0, 0.0))[0]

    def self_ms(*names):
        return 1000.0 * sum(per.get(n, (0, 0.0, 0.0))[2] for n in names)

    def incl_ms(name):
        return 1000.0 * per.get(name, (0, 0.0, 0.0))[1]

    out = {}
    for op in ("mul", "add", "exact_div", "divide_out_linear"):
        out[f"poly.{op}.calls"] = calls(f"poly.{op}")
        out[f"poly.{op}.self_ms"] = self_ms(f"poly.{op}")
    out["poly.mul.terms_out"] = tracer.counts.get("poly.mul.terms_out", 0)
    out["poly.mul.peak_terms"] = tracer.peaks.get("poly.mul.peak_terms", 0)
    out["ratfun.arith.calls"] = calls("ratfun.arith")
    out["ratfun.arith.self_ms"] = self_ms("ratfun.arith")
    out["symsq.elem.calls"] = calls("symsq.elem")
    out["symsq.elem.self_ms"] = self_ms("symsq.elem")
    out["symsq.arith.self_ms"] = self_ms("symsq.arith")
    out["symsq.eq.self_ms"] = self_ms("symsq.eq")
    out["symsq.abcd_to_xy.calls"] = calls("symsq.abcd_to_xy")
    out["symsq.abcd_to_xy.self_ms"] = self_ms("symsq.abcd_to_xy")
    out["symsq.xy_to_abcd.self_ms"] = self_ms("symsq.xy_to_abcd")
    out["derivations.apply.calls"] = calls("derivations.apply")
    out["derivations.apply.self_ms"] = self_ms("derivations.apply")
    out["derivations.transfer.self_ms"] = self_ms("derivations.transfer")
    out["report.render.self_ms"] = self_ms("report.render")

    # simulator: the DP5(4) stepper evaluates the right-hand side twice to
    # choose the first step, then six times per attempted step (FSAL)
    rhs_calls = calls("sim.rhs")
    accepted = tracer.counts.get("sim.steps.accepted", 0)
    rhs_in_integrate = tracer.children_per_parent("sim.rhs", "sim.integrate")
    attempted = int(sum(max(0, int(n) - 2) // 6 for n in rhs_in_integrate))
    out["sim.compile.ms"] = incl_ms("sim.compile")
    out["sim.seed.ms"] = incl_ms("sim.seed")
    out["sim.rhs.calls"] = rhs_calls
    out["sim.rhs.us_per_call"] = (1e6 * per["sim.rhs"][1] / rhs_calls
                                  if rhs_calls else 0.0)
    out["sim.invariants.calls"] = calls("sim.invariants")
    out["sim.integrate.self_ms"] = self_ms("sim.integrate")
    out["sim.steps.accepted"] = accepted
    out["sim.steps.rejected"] = max(0, attempted - accepted)
    out["sim.evals_per_step"] = (int(rhs_in_integrate.sum()) / accepted
                                 if accepted else 0.0)

    for layer in LAYERS:
        names = [n for n in per if LAYER_OF_MODULE[n.split(".")[0]] == layer]
        out[f"layer.{layer}.spans"] = sum(per[n][0] for n in names)
        out[f"layer.{layer}.self_ms"] = self_ms(*names)
    out["trace.spans"] = len(tracer.start)
    return out
