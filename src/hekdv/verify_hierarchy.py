"""Certification of the deformed hierarchy and its KdV reduction.

The verified statements, all as exact identities of the symmetric square's
ring after pullback (u4 - u2^2 pulls back to -X1*X2, so nothing here is
sampled or approximated):

  * the second-derivative formula for u2 along the deformed flow,
    including the two deformation-parameter correction terms;
  * the four equations of the deformed hierarchy in u = 4*u2 and
    v = 2*(u4 - u2^2), with ' and dot the two deformed derivations;
  * the reduction to the classical KdV hierarchy when the two deformation
    parameters vanish, plus a negative control showing the reduction
    genuinely needs them to vanish;
  * the intertwining of the deformed derivations with the genus-2
    derivations through the degenerate-curve transfer map, the generator
    images of that map, and its two-sided inverse.
"""

from functools import lru_cache

from .curve import CurveParams
from .derivations import make_derivation, psi1, psi2
from .poly import MPoly
from .report import ReportBuilder, split_report
from .symsq import abcd_to_xy
from .verify_tables import pullback_u, square
from .ratfun import RatFn
from .tables import u2 as u2_poly, u4 as u4_poly, y4 as y4_poly


@lru_cache(maxsize=None)
def _ctx(**pinned):
    """Field, deformed derivations and the u, v pullbacks of the genus-3
    square, with the named parameters pinned, as in ``_ctx(y12=0)``."""
    field = square(CurveParams.symbolic(3).specialize(**pinned))
    T1 = make_derivation(field, "T1")
    T3 = make_derivation(field, "T3")
    ab = field.abcd()
    u = ab["a"] * 4
    v = (ab["b"] - ab["a"] ** 2) * 2
    return field, T1, T3, u, v


def verify_seconddif(rhs_override=None):
    """u2'' equals the polynomial part plus the two deformation corrections."""
    rb = ReportBuilder("eq-seconddif",
                       "second derivative of u2 along the deformed flow")
    field, T1, _, _, _ = _ctx()
    ab = field.abcd()
    lhs = T1(T1(ab["a"]))
    if rhs_override is None:
        # over powers of one base, so the sum is over den^3
        inv = RatFn(1, u4_poly - u2_poly ** 2)
        rhs_u = (RatFn(2 * u4_poly + 10 * u2_poly ** 2 + y4_poly)
                 - RatFn(MPoly.var("y12")) * inv ** 2
                 - RatFn(4 * MPoly.var("y14") * u2_poly) * inv ** 3)
    else:
        rhs_u = rhs_override
    rhs = pullback_u(rhs_u, field)
    rb.equal("u2'' identity (symbolic parameters)", lhs, rhs)
    # specialization: with both deformation parameters zero the correction
    # terms vanish and only the polynomial part remains
    field0, T1z, _, _, _ = _ctx(y12=0, y14=0)
    ab0 = field0.abcd()
    lhs0 = T1z(T1z(ab0["a"]))
    rhs0 = (ab0["b"] * 2 + ab0["a"] ** 2 * 10
            + field0.elem(MPoly.var("y4")))
    rb.equal("u2'' at y12=y14=0", lhs0, rhs0)
    return rb.build()


# coefficients of the four hierarchy equations; mutation controls override
DEFAULT_EQ_COEFFS = {
    "first": {"uppp": 1, "udot": -4, "u_up": -6, "y12_v_udot": -32,
              "y14_v_up": 32, "y14_u_udot": -96},
    "second": {"udotpp": 1, "u_udot": -4, "up_v": -2, "y12_v_vdot": -32,
               "y14_v_vp": 32, "y14_u_vdot": -96},
    "third": {"udot": 1, "vp": -1},
    "fourth": {"vdot": 2, "v_up": -1, "u_vp": 1},
}


def _hierarchy_terms(coeffs):
    """The four left-hand sides as lists of (label, element) summands."""
    field, T1, T3, u, v = _ctx()
    y12 = field.elem(MPoly.var("y12"))
    y14 = field.elem(MPoly.var("y14"))
    up = T1(u)
    udot = T3(u)
    upp = T1(up)
    uppp = T1(upp)
    vp = T1(v)
    vdot = T3(v)
    udotp = T1(udot)
    udotpp = T1(udotp)
    v4 = v ** 4
    c = coeffs
    eqs = {
        "first": [
            ("v^4 u'''", v4 * uppp * c["first"]["uppp"]),
            ("v^4 udot", v4 * udot * c["first"]["udot"]),
            ("v^4 u u'", v4 * u * up * c["first"]["u_up"]),
            ("y12 v udot", y12 * v * udot * c["first"]["y12_v_udot"]),
            ("y14 v u'", y14 * v * up * c["first"]["y14_v_up"]),
            ("y14 u udot", y14 * u * udot * c["first"]["y14_u_udot"]),
        ],
        "second": [
            ("v^4 udot''", v4 * udotpp * c["second"]["udotpp"]),
            ("v^4 u udot", v4 * u * udot * c["second"]["u_udot"]),
            ("v^4 u' v", v4 * up * v * c["second"]["up_v"]),
            ("y12 v vdot", y12 * v * vdot * c["second"]["y12_v_vdot"]),
            ("y14 v v'", y14 * v * vp * c["second"]["y14_v_vp"]),
            ("y14 u vdot", y14 * u * vdot * c["second"]["y14_u_vdot"]),
        ],
        "third": [
            ("udot", udot * c["third"]["udot"]),
            ("v'", vp * c["third"]["vp"]),
        ],
        "fourth": [
            ("2 vdot", vdot * c["fourth"]["vdot"]),
            ("v u'", v * up * c["fourth"]["v_up"]),
            ("u v'", u * vp * c["fourth"]["u_vp"]),
        ],
    }
    return eqs


def verify_dkdv_equations(coeffs=None):
    """All four deformed-hierarchy identities, with a per-term weight audit."""
    rb = ReportBuilder("thm-5.5", "deformed hierarchy, equations 1-4")
    coeffs = coeffs or DEFAULT_EQ_COEFFS
    eqs = _hierarchy_terms(coeffs)
    field, *_ = _ctx()
    wt = field.weights()
    for eq_name, summands in eqs.items():
        weights = {lbl: term.fraction_weight(wt) for lbl, term in summands}
        distinct = set(weights.values())
        rb.expect(f"({eq_name}) uniform term weight {sorted(distinct)}",
                  len(distinct) == 1 and None not in distinct)
        total = field.zero()
        for _, term in summands:
            total = total + term
        rb.residual(f"({eq_name}) residual", total)
    return rb.build()


def verify_kdv_reduction():
    """At y12 = y14 = 0 the hierarchy collapses to the classical KdV pair.

    The negative control keeps y12 symbolic and checks that the u-equation
    residual equals the correction term predicted by the first hierarchy
    equation (so it is provably nonzero, not merely unsimplified).
    """
    rb = ReportBuilder("prop-6.5", "reduction to the KdV hierarchy")
    field, T1, T3, u, v = _ctx(y12=0, y14=0)
    up = T1(u)
    udot = T3(u)
    uppp = T1(T1(up))
    vp = T1(v)
    vdot = T3(v)
    vppp = T1(T1(vp))
    u_sq_p = T1(u * u)
    uv_p = T1(u * v)
    rb.residual("u''' - 3(u^2)' - 4 udot", uppp - u_sq_p * 3 - udot * 4)
    rb.residual("v''' - 3(uv)' + 2 vdot", vppp - uv_p * 3 + vdot * 2)

    # negative control: y12 symbolic, y14 = 0
    fieldc, T1c, T3c, uc, vc = _ctx(y14=0)
    y12 = fieldc.elem(MPoly.var("y12"))
    resid = T1c(T1c(T1c(uc))) - T1c(uc * uc) * 3 - T3c(uc) * 4
    rb.expect("nonzero residual with y12 symbolic", not resid.is_zero)
    predicted = y12 * T3c(uc) * 32 / (vc ** 3)
    rb.equal("residual matches 32 y12 udot / v^3", resid, predicted)
    return rb.build()


# printed generator images of the transfer map, as (numerator, denominator)
# pairs in the symmetric generators of the degenerate genus-3 square
def _trans2_images():
    a, b, c, d = (MPoly.var(n) for n in ("a", "b", "c", "d"))
    one = MPoly.const(1)
    return {
        "a": (a, one),
        "b": (b, one),
        "c": (a * c - d, a ** 2 - b),
        "d": (a * d - b * c, a ** 2 - b),
    }


def verify_psi_intertwine(trans2_images=None):
    """Transfer-map suite: inverse on Y-generators, generator images, and
    the two intertwining relations on all four coordinates (14 identities)."""
    rb = ReportBuilder("psi-suite", "genus-2 transfer map identities")
    f2 = square(CurveParams.symbolic(2))
    f32, T1, T3, _, _ = _ctx(y12=0, y14=0)
    gens2 = f2.gens()
    for yv in ("Y1", "Y2"):
        rb.equal(f"psi2(psi1({yv})) = {yv}",
                 psi2(psi1(gens2[yv], f32), f2), gens2[yv])
    images = trans2_images or _trans2_images()
    ab2 = f2.abcd()
    for gen in ("a", "b", "c", "d"):
        num, den = images[gen]
        mapped = psi1(ab2[gen], f32)
        want_num = abcd_to_xy(num, f32)
        want_den = abcd_to_xy(den, f32)
        rb.equal(f"psi1({gen}) image", mapped * want_den, want_num)
    L1 = make_derivation(f2, "L1")
    L3 = make_derivation(f2, "L3")
    for Tg3, Lg2, tag in ((T1, L1, "T1/L1"), (T3, L3, "T3/L3")):
        for v in ("X1", "Y1", "X2", "Y2"):
            rb.equal(f"{tag} intertwine on {v}",
                     Tg3(psi1(gens2[v], f32)), psi1(Lg2(gens2[v]), f32))
    return rb.build()


def split_psi_reports(report):
    """Partition the psi suite rows into the three advertised check ids."""
    return split_report(report, (
        ("psi-identity", "transfer map is a two-sided inverse",
         lambda label: label.startswith("psi2(")),
        ("eq-trans2", "generator images of the transfer map",
         lambda label: label.startswith("psi1(")),
        ("prop-6.3", "intertwining with the genus-2 derivations",
         lambda label: "intertwine" in label),
    ))


def split_dkdv_equation_reports(report):
    """One report per hierarchy equation, with stable check ids."""
    return split_report(report, [
        (f"thm-5.5-{eq}", f"deformed hierarchy, equation ({eq})",
         lambda label, eq=eq: label.startswith(f"({eq})"))
        for eq in ("first", "second", "third", "fourth")])


def suite_dkdv():
    eq_report = verify_dkdv_equations()
    psi_report = verify_psi_intertwine()
    return ([verify_seconddif()]
            + split_dkdv_equation_reports(eq_report)
            + [verify_kdv_reduction()]
            + split_psi_reports(psi_report))


def suite_psi():
    return split_psi_reports(verify_psi_intertwine())
