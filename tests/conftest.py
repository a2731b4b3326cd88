from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from hekdv.poly import MPoly

settings.register_profile(
    "default", deadline=None, max_examples=40,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("default")


small_fractions = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=9)

nonzero_fractions = small_fractions.filter(bool)


def mpoly_strategy(var_names=("a", "b", "c", "d"), max_terms=4, max_exp=3):
    """Small random polynomials over a fixed variable tuple."""
    expo = st.tuples(*[st.integers(0, max_exp)] * len(var_names))
    term = st.tuples(expo, nonzero_fractions)
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda terms: MPoly.from_terms(var_names, dict(terms)))


@pytest.fixture(scope="session")
def symbolic_field3():
    from hekdv.curve import CurveParams
    from hekdv.symsq import SymSqField
    return SymSqField(CurveParams.symbolic(3))


@pytest.fixture(scope="session")
def symbolic_field2():
    from hekdv.curve import CurveParams
    from hekdv.symsq import SymSqField
    return SymSqField(CurveParams.symbolic(2))


def cleared_in_chart(p, name, var, scale, square):
    """The reference of ``MPoly.chart_groups`` in three passes: p cleared of
    the denominator scale * var of ``name``, ``square`` put to var^2 and
    the common var^j, j <= k, divided out; (numerator, k, j), the
    numerator still carrying the factor scale^j."""
    num, k = p.clear_denominator(name, MPoly.var(var) * scale)
    num = num.subst({square: MPoly.var(var, 2)})
    j = min(k, num.min_degree_in(var))
    if j:
        num = num.exact_div(MPoly.var(var, j))
    return num, k, j
