"""Exact verification engine and numerical simulator for the two-parameter
deformation of the KdV hierarchy living on the symmetric square of a
genus-3 hyperelliptic curve.

The symbolic layer certifies every identity as an exact statement in the
function field of the square (or in the rational-limit quotient rings);
the numerical layer integrates the certified flows and monitors the drift
of the two exact invariants.
"""

# set before the submodule imports: report reads it while being imported
__version__ = "0.1.0"

from .algnum import AlgNum
from .curve import CurveParams, curve_Q, dr_numerator, in_Bg, sylvester_resultant
from .derivations import Derivation, make_derivation, psi1, psi2
from .errors import (ConfigError, HekdvError, MemoryCapExceeded, ModeError,
                     NotSymmetricError, SeedError, SingularExpansionError,
                     SingularityAbort, StepBudgetExhausted,
                     ZeroDenominatorError, ZeroDivisorError)
from .poly import (MPoly, eval_poly, standard_weights, sum_polys, variables,
                   weighted_degree)
from .ratfun import RatFn
from .report import VerifyReport, emit_report, report_json
from .series import PSeries, newton_solve
from .sim import (SimState, Trajectory, commute_experiment, curve_ordinate,
                  integrate, seed_state)
from .symsq import SymSqElem, SymSqField, abcd_to_xy, build_MN, xy_to_abcd
from .tables import (FlowTable, PoissonStructure, first_integrals, flow_table,
                     poisson_bracket, structure_I, structure_II)

