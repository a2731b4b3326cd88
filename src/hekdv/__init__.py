"""Exact verification engine and numerical simulator for the two-parameter
deformation of the KdV hierarchy living on the symmetric square of a
genus-3 hyperelliptic curve.

The symbolic layer certifies every identity as an exact statement in the
coordinate ring of the square localized at X1, X2 and X1 - X2 (or in the
rational-limit quotient rings);
the numerical layer integrates the certified flows and monitors the drift
of the two exact invariants.

The package loads a submodule, and the names below, on first access
(PEP 562), so a process imports only what it runs.
"""

from importlib import import_module

# set before any submodule loads: report reads it while being imported
__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "algnum": ("AlgNum",),
    "curve": ("CurveParams", "curve_Q", "in_Bg", "sylvester_resultant"),
    "derivations": ("Derivation", "make_derivation", "psi1", "psi2"),
    "errors": ("ConfigError", "HekdvError", "MemoryCapExceeded", "ModeError",
               "NotSymmetricError", "SeedError", "SingularExpansionError",
               "SingularityAbort", "StepBudgetExhausted",
               "ZeroDenominatorError", "ZeroDivisorError"),
    "poly": ("MPoly", "eval_poly", "standard_weights", "sum_polys",
             "variables", "weighted_degree"),
    "ratfun": ("RatFn",),
    "report": ("VerifyReport", "emit_report", "report_json"),
    "series": ("PSeries", "newton_solve"),
    "sim": ("SimState", "Trajectory", "commute_experiment", "curve_ordinate",
            "integrate", "seed_state"),
    "symsq": ("SymSqElem", "SymSqField", "abcd_to_xy", "build_MN",
              "xy_to_abcd"),
    "tables": ("FlowTable", "PoissonStructure", "first_integrals",
               "flow_table", "poisson_bracket", "structure_I", "structure_II"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    """A submodule above, or a public name of one, loaded on first access."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
