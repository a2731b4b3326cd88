from fractions import Fraction as F

import pytest
from hypothesis import given

from conftest import mpoly_strategy
from hekdv import tables
from hekdv.errors import ConfigError
from hekdv.poly import MPoly, standard_weights, weighted_degree
from hekdv.ratfun import RatFn
from hekdv.tables import (FLOW_IDS, FlowTable, first_integrals, flow_table,
                          poisson_bracket, structure_I, structure_II,
                          u2, u4, u5, u7)


def _coeff_of(p, mono):
    """Coefficient of the (unit-coefficient) monomial `mono` inside `p`."""
    (key, mc), = mono.monomials()
    assert mc == 1
    return dict(p.monomials()).get(key, F(0))


class TestFlowTables:
    @pytest.mark.parametrize("flow", FLOW_IDS)
    def test_homogeneity(self, flow):
        assert flow_table(flow).homogeneity_ok()

    @pytest.mark.parametrize("flow", FLOW_IDS)
    def test_denominators(self, flow):
        assert flow_table(flow).denominators_ok()

    @pytest.mark.parametrize("den, ok", [
        (7 * (u4 - u2 ** 2) ** 3, True),
        (u4 + u2 ** 2, False),
        ((u4 - u2 ** 2) ** 2 * u2, False),
    ], ids=["scaled-power", "sum", "extra-factor"])
    def test_denominators_of_one_entry(self, den, ok):
        entries = dict(flow_table("T1").entries, u5=RatFn(u5, den))
        assert FlowTable("T1", entries).denominators_ok() is ok

    def test_polynomial_flows_have_unit_denominator(self):
        for flow in ("I", "II"):
            for entry in flow_table(flow).entries.values():
                assert entry.is_polynomial()

    def test_each_table_is_built_once(self):
        table = flow_table("T1")
        assert flow_table("T1") is table
        with pytest.raises(TypeError):
            table.entries["u2"] = RatFn(u2)
        before = dict(table.entries)
        mutated = table.mutated("u5", u2 ** 2)
        assert mutated.entries["u5"] == before["u5"] + RatFn(u2 ** 2)
        assert flow_table("T1") is table
        assert all(table.entries[u] is before[u] for u in before)

    def test_unknown_flow_refused_before_the_cache(self):
        misses = tables._flow_table.cache_info().misses
        with pytest.raises(ConfigError):
            flow_table("III")
        assert tables._flow_table.cache_info().misses == misses

    def test_spot_entries(self):
        tI = flow_table("I")
        assert tI.entries["u2"] == RatFn(-1 * u5)
        assert tI.entries["u4"] == RatFn(-2 * u7)
        tT1 = flow_table("T1")
        assert tT1.entries["u2"] == RatFn(u2 * u5 - u7, u4 - u2 ** 2)


class TestFirstIntegrals:
    def test_no_deformation_symbol_in_h12(self):
        h12, h14 = first_integrals()
        # the -y12 inside the relation cancels the +y12 shift
        assert "y12" not in h12.num.variables_used()
        assert "y14" not in h14.num.variables_used()

    def test_h14_leading_terms(self):
        _, h14 = first_integrals()
        assert _coeff_of(h14.num, u7**2) == F(-1)
        assert _coeff_of(h14.num, u4 * u5**2) == F(-1)
        assert _coeff_of(h14.num, u2 * u5 * u7) == F(2)
        assert _coeff_of(h14.num, u2**7) == F(-6)

    def test_h12_spot_terms(self):
        h12, _ = first_integrals()
        assert _coeff_of(h12.num, u5 * u7) == F(2)
        assert _coeff_of(h12.num, u2**6) == F(-7)

    def test_weights(self):
        h12, h14 = first_integrals()
        w = standard_weights(3)
        assert weighted_degree(h12.num, w) == 12
        assert weighted_degree(h14.num, w) == 14


class TestPoisson:
    def test_defining_brackets(self):
        s1 = structure_I()
        assert poisson_bracket(RatFn(u2), RatFn(u7), s1) == RatFn(MPoly.const(F(-1, 2)))
        assert poisson_bracket(RatFn(u4), RatFn(u5), s1) == RatFn(MPoly.const(-1))
        assert poisson_bracket(RatFn(u2), RatFn(u5), s1).is_zero
        assert poisson_bracket(RatFn(u2), RatFn(u4), s1).is_zero
        s2 = structure_II()
        assert poisson_bracket(RatFn(u2), RatFn(u7), s2) == RatFn(MPoly.const(F(1, 2)))

    @given(mpoly_strategy(var_names=("u2", "u4", "u5", "u7"), max_terms=3,
                          max_exp=2))
    def test_antisymmetry_diagonal(self, p):
        f = RatFn(p)
        assert poisson_bracket(f, f, structure_I()).is_zero

    @given(mpoly_strategy(var_names=("u2", "u4", "u5", "u7"), max_terms=2,
                          max_exp=2),
           mpoly_strategy(var_names=("u2", "u4", "u5", "u7"), max_terms=2,
                          max_exp=2))
    def test_antisymmetry_pairs(self, p, q):
        f, g = RatFn(p), RatFn(q)
        s = structure_I()
        assert (poisson_bracket(f, g, s) + poisson_bracket(g, f, s)).is_zero
