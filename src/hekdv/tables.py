"""Transcribed right-hand-side tables, first integrals and Poisson structures.

The four flows on C^4 with coordinates (u2, u4, u5, u7):

  * "I"  and "II"  -- the polynomial systems generated by the commuting
    derivations L3, L5 on the genus-3 square;
  * "T1" and "T3" -- the rational systems generated by the deformed pair,
    with denominators restricted to powers of u4 - u2^2.

These tables are transcriptions, entered here once and certified against
the derivation engine by the verification modules; they are also the
source of the numerical right-hand sides.
"""

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .errors import ConfigError
from .poly import standard_weights, variables
from .ratfun import RatFn
from .symsq import build_MN
from .curve import CurveParams

U_VARS = ("u2", "u4", "u5", "u7")
FLOW_IDS = ("I", "II", "T1", "T3")

# weight added to deg(u_j) by each flow's right-hand side
FLOW_WEIGHT_SHIFT = {"I": 3, "II": 5, "T1": 1, "T3": 3}

u2, u4, u5, u7 = variables(*U_VARS)
y4, y6, y8, y10, y12, y14 = variables("y4", "y6", "y8", "y10", "y12", "y14")

_DENOM = u4 - u2 ** 2


class FlowTable:
    """The right-hand side of ``flow``: ``entries``, a read-only map from
    u-variable name to RatFn, one entry for each of u2, u4, u5, u7."""

    __slots__ = ("flow", "entries")

    def __init__(self, flow, entries):
        check_flow(flow)
        if set(entries) != set(U_VARS):
            raise ConfigError("flow table must cover exactly u2,u4,u5,u7")
        self.flow = flow
        self.entries = MappingProxyType(dict(entries))

    def homogeneity_ok(self):
        w = standard_weights(3)
        shift = FLOW_WEIGHT_SHIFT[self.flow]
        for name, entry in self.entries.items():
            want = w[name] + shift
            if entry.fraction_weight(w) != want:
                return False
        return True

    def denominators_ok(self):
        """Each denominator must be a constant times a power of u4 - u2^2.

        u4 - u2^2 has degree 1 in u4, so the only power a denominator can
        be a multiple of is P = (u4 - u2^2)^k with k its degree in u4, and
        it is one exactly when den * lc(P) == P * lc(den), lc the leading
        coefficient.
        """
        for entry in self.entries.values():
            den = entry.den
            power = _DENOM ** den.degree_in("u4")
            if den * power.leading()[1] != power * den.leading()[1]:
                return False
        return True

    def mutated(self, uvar, delta):
        """Copy with `delta` (an MPoly) added to one entry; for control tests."""
        entries = dict(self.entries)
        entries[uvar] = entries[uvar] + RatFn(delta)
        return FlowTable(self.flow, entries)


def _table_I():
    return {
        "u2": RatFn(-1 * u5),
        "u4": RatFn(-2 * u7),
        "u5": RatFn(-35 * u2 ** 4 - 42 * u2 ** 2 * u4 - 3 * u4 ** 2
                    - 2 * y4 * (5 * u2 ** 2 + u4) + 4 * y6 * u2 - y8),
        "u7": RatFn(-7 * (3 * u2 ** 5 + 10 * u2 ** 3 * u4 + 3 * u2 * u4 ** 2)
                    - 10 * y4 * (u2 ** 3 + u2 * u4)
                    + 2 * y6 * (3 * u2 ** 2 + u4) - 3 * y8 * u2 + y10),
    }


def _table_II():
    return {
        "u2": RatFn(u2 * u5 - u7),
        "u4": RatFn(2 * (u2 * u7 - u4 * u5)),
        "u5": RatFn(u5 ** 2 + 14 * u2 ** 5 - 28 * u2 ** 3 * u4 - 18 * u2 * u4 ** 2
                    - 8 * y4 * u2 * u4 + 2 * y6 * (u2 ** 2 + u4)
                    - 2 * y8 * u2 + y10),
        "u7": RatFn(-1 * u5 * u7 + 21 * u2 ** 6 + 35 * u2 ** 4 * u4
                    - 21 * u2 ** 2 * u4 ** 2 - 3 * u4 ** 3
                    + 2 * y4 * (5 * u2 ** 4 - u4 ** 2)
                    - 2 * y6 * (3 * u2 ** 3 - u2 * u4)
                    + y8 * (3 * u2 ** 2 - u4) - y10 * u2),
    }


def _table_T1():
    return {
        "u2": RatFn(u2 * u5 - u7, _DENOM),
        "u4": RatFn(2 * (u2 * u7 - u4 * u5), _DENOM),
        "u5": RatFn(u5 ** 2 + 14 * u2 ** 5 - 28 * u2 ** 3 * u4
                    - 18 * u2 * u4 ** 2 - 8 * y4 * u2 * u4
                    + 2 * y6 * (u2 ** 2 + u4) - 2 * y8 * u2 + y10, _DENOM),
        "u7": RatFn(-1 * u5 * u7 + 21 * u2 ** 6 + 35 * u2 ** 4 * u4
                    - 21 * u2 ** 2 * u4 ** 2 - 3 * u4 ** 3
                    + 2 * y4 * (5 * u2 ** 4 - u4 ** 2)
                    - 2 * y6 * (3 * u2 ** 3 - u2 * u4)
                    + y8 * (3 * u2 ** 2 - u4) - y10 * u2, _DENOM),
    }


def _table_T3():
    return {
        "u2": RatFn(2 * u2 * u7 - u4 * u5 - u2 ** 2 * u5, _DENOM),
        "u4": RatFn(2 * (2 * u2 * u4 * u5 - u4 * u7 - u2 ** 2 * u7), _DENOM),
        "u5": RatFn(-2 * u2 * u5 ** 2 + 7 * u2 ** 6 + 63 * u2 ** 4 * u4
                    - 3 * u2 ** 2 * u4 ** 2 - 3 * u4 ** 3
                    + 2 * y4 * (5 * u2 ** 4 + 4 * u2 ** 2 * u4 - u4 ** 2)
                    - 8 * y6 * u2 ** 3 + y8 * (5 * u2 ** 2 - u4)
                    - 2 * y10 * u2, _DENOM),
        "u7": RatFn(2 * u2 * u5 * u7 - 21 * u2 ** 7 - 21 * u2 ** 5 * u4
                    - 7 * u2 ** 3 * u4 ** 2 - 15 * u2 * u4 ** 3
                    - 2 * y4 * (5 * u2 ** 5 + 3 * u2 * u4 ** 2)
                    + 2 * y6 * (3 * u2 ** 4 + u4 ** 2)
                    - y8 * (3 * u2 ** 3 + u2 * u4)
                    + y10 * (u2 ** 2 + u4), _DENOM),
    }


_BUILDERS = {"I": _table_I, "II": _table_II, "T1": _table_T1, "T3": _table_T3}


def check_flow(flow):
    """Raise ConfigError unless `flow` is one of FLOW_IDS."""
    if flow not in FLOW_IDS:
        raise ConfigError(f"unknown flow {flow!r}; expected one of {FLOW_IDS}")


def flow_table(flow):
    """The transcribed table of ``flow``, built once per process: its
    entries are read-only and ``FlowTable.mutated`` copies them."""
    check_flow(flow)
    return _flow_table(flow)


@lru_cache(maxsize=None)
def _flow_table(flow):
    return FlowTable(flow, _BUILDERS[flow]())


@lru_cache(maxsize=None)
def first_integrals():
    """H12 and H14 as u-polynomials, built from the square's relations.

    Built once per process: the returned RatFn values are immutable.
    """
    M3, N3t = build_MN(CurveParams.symbolic(3))
    sub = {"a": u2, "b": u4, "c": u5, "d": u7}
    H12 = RatFn(M3.subst(sub) + y12)
    H14 = RatFn(N3t.subst(sub) + y14)
    return H12, H14


class PoissonStructure:
    """Constant antisymmetric bracket table ``name`` on (u2, u4, u5, u7):
    ``table`` maps (ui, uj), i < j in U_VARS order, to a Fraction."""

    __slots__ = ("name", "table")

    def __init__(self, name, table):
        self.name = name
        self.table = table


def structure_I():
    return PoissonStructure("I", {("u2", "u7"): Fraction(-1, 2),
                                  ("u4", "u5"): Fraction(-1)})


def structure_II():
    return PoissonStructure("II", {("u2", "u7"): Fraction(1, 2),
                                   ("u4", "u5"): Fraction(1)})


def poisson_bracket(f, g, structure):
    """{f, g} = sum over pairs of the constant bracket times the Jacobian
    part; each partial of f and g is taken once."""
    f = f if isinstance(f, RatFn) else RatFn(f)
    g = g if isinstance(g, RatFn) else RatFn(g)
    names = dict.fromkeys(v for pair in structure.table for v in pair)
    df = {v: f.derivative(v) for v in names}
    dg = {v: g.derivative(v) for v in names}
    total = RatFn(0)
    for (vi, vj), cij in structure.table.items():
        total = total + (df[vi] * dg[vj] - df[vj] * dg[vi]) * cij
    return total
