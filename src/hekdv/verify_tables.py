"""Certification of the flow tables, first integrals and Hamiltonian form.

Each check compares an independent transcription against the derivation
engine: table entries are pulled back to the coordinates of the square and
matched against the derivation applied to the generator pullbacks, so a
transcription typo and an engine bug cannot cancel each other.
"""

from functools import lru_cache

from .curve import CurveParams
from .derivations import make_derivation
from .poly import MPoly
from .ratfun import RatFn
from .report import ReportBuilder
from .symsq import SymSqField, abcd_to_xy
from .tables import (U_VARS, first_integrals, flow_table, poisson_bracket,
                     structure_I, structure_II, u2, u4, u5, u7)

_U_POLY = {"u2": u2, "u4": u4, "u5": u5, "u7": u7}

_FLOW_DERIVATION = {"I": "L3", "II": "L5", "T1": "T1", "T3": "T3"}
_ABCD_OF_U = {"u2": "a", "u4": "b", "u5": "c", "u7": "d"}

_ANCHORS = {
    "I": ("thm-3.1-I", "polynomial system (I) table"),
    "II": ("thm-3.1-II", "polynomial system (II) table"),
    "T1": ("prop-5.4-T1", "rational system T1 table"),
    "T3": ("prop-5.4-T3", "rational system T3 table"),
}


@lru_cache(maxsize=None)
def _symbolic_field():
    return SymSqField(CurveParams.symbolic(3))


def pullback_u(rf: RatFn, field=None):
    """Evaluate a u-space rational function on the symmetric square."""
    field = field or _symbolic_field()
    num, den = (abcd_to_xy(_u_to_abcd(p), field) for p in (rf.num, rf.den))
    return num / den


def _u_to_abcd(p):
    return p.subst({v: MPoly.var(_ABCD_OF_U.get(v, v))
                    for v in p.variables_used()})


def verify_flow_table(flow, table=None):
    """PASS iff all four table entries match the derivation on the square."""
    table = table or flow_table(flow)
    check_id, anchor = _ANCHORS[flow]
    rb = ReportBuilder(check_id, anchor)
    field = _symbolic_field()
    D = make_derivation(field, _FLOW_DERIVATION[flow])
    ab = field.abcd()
    rb.expect("entries weighted-homogeneous", table.homogeneity_ok())
    rb.expect("denominators confined to u4-u2^2", table.denominators_ok())
    for uvar in U_VARS:
        lhs = D(ab[_ABCD_OF_U[uvar]])
        rhs = pullback_u(table.entries[uvar], field)
        rb.equal(f"{flow}: d{uvar}", lhs, rhs)
    return rb.build()


def verify_first_integrals(h12=None, h14=None, tables=None):
    """All eight flow derivatives of H12, H14 vanish identically in (u, y)."""
    rb = ReportBuilder("first-integrals",
                       "Section 3 first integrals H12 and H14")
    default_h12, default_h14 = first_integrals()
    h12 = h12 if h12 is not None else default_h12
    h14 = h14 if h14 is not None else default_h14
    tables = tables or {f: flow_table(f) for f in ("I", "II", "T1", "T3")}
    for hname, h in (("H12", h12), ("H14", h14)):
        for fname, table in tables.items():
            total = RatFn(0)
            for uvar in U_VARS:
                total = total + h.derivative(uvar) * table.entries[uvar]
            rb.residual(f"d{hname}/d(flow {fname})", total)
    return rb.build()


def verify_hamiltonian_form(bracket_I=None, bracket_II=None):
    """Flows I/II are Hamiltonian for H12/H14; the integrals are in involution."""
    rb = ReportBuilder("hamiltonian-form",
                       "Section 3 Hamiltonian structure and involution")
    s1 = bracket_I or structure_I()
    s2 = bracket_II or structure_II()
    h12, h14 = first_integrals()
    t1 = flow_table("I")
    t2 = flow_table("II")
    for uvar in U_VARS:
        uu = _U_POLY[uvar]
        rb.equal(f"(I) {uvar} = {{{uvar}, H12}}_I",
                 poisson_bracket(RatFn(uu), h12, s1), t1.entries[uvar])
        rb.equal(f"(II) {uvar} = {{{uvar}, H14}}_II",
                 poisson_bracket(RatFn(uu), h14, s2), t2.entries[uvar])
    rb.residual("{H12, H14} under structure I", poisson_bracket(h12, h14, s1))
    rb.residual("{H12, H14} under structure II", poisson_bracket(h12, h14, s2))
    return rb.build()


def verify_t1_is_scaled_II():
    """Cross-consistency: pullback(T1 entry) * X1*X2 + pullback(II entry) = 0."""
    rb = ReportBuilder("t1-cross-consistency",
                       "T1 = -(1/(X1 X2)) L5 relation between the tables")
    field = _symbolic_field()
    x1x2 = field.elem(MPoly.var("X1") * MPoly.var("X2"))
    tab1 = flow_table("T1")
    tab2 = flow_table("II")
    for uvar in U_VARS:
        lhs = pullback_u(tab1.entries[uvar], field) * x1x2
        rhs = pullback_u(tab2.entries[uvar], field)
        rb.residual(f"{uvar}", lhs + rhs)
    return rb.build()


def suite_bm():
    return [verify_flow_table(f) for f in ("I", "II", "T1", "T3")]


def suite_integrals():
    return [verify_first_integrals()]


def suite_hamiltonian():
    return [verify_hamiltonian_form()]
