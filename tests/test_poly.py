import os
import re
import subprocess
import sys
from fractions import Fraction as F
from math import gcd, lcm
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, strategies as st

import hekdv.poly
from conftest import (cleared_in_chart, mpoly_strategy, nonzero_fractions,
                      small_fractions)
from hekdv.curve import CurveParams
from hekdv.errors import ConfigError, MemoryCapExceeded, NotSymmetricError
from hekdv.phiring import PhiRingElem
from hekdv.poly import (MAX_EXPONENT, MPoly, Substitution, eval_poly, power,
                        standard_weights, sum_polys, variables,
                        weighted_degree)
from hekdv.series import PSeries
from hekdv.symsq import SymSqField, _even_s_to_b, _in_s_chart, xy_to_abcd

a, b, c, d = variables("a", "b", "c", "d")
X1, X2 = variables("X1", "X2")


def _term(mono, cf):
    """cf times the product of MPoly.var(v, e) over the (v, e) pairs."""
    term = MPoly.const(cf)
    for v, e in mono:
        term = term * MPoly.var(v, e)
    return term


class TestArithmetic:
    @given(mpoly_strategy(), mpoly_strategy(), mpoly_strategy())
    def test_distributive(self, f, g, h):
        assert (f + g) * h == f * h + g * h

    @given(mpoly_strategy(), mpoly_strategy(), mpoly_strategy())
    def test_mul_associative(self, f, g, h):
        assert (f * g) * h == f * (g * h)

    @given(mpoly_strategy(), mpoly_strategy())
    def test_commutative(self, f, g):
        assert f * g == g * f
        assert f + g == g + f

    @given(mpoly_strategy())
    def test_additive_inverse(self, f):
        assert (f - f).is_zero

    @given(mpoly_strategy(), small_fractions)
    def test_scalar_action(self, f, s):
        assert f * s == MPoly.const(s) * f

    def test_pow(self):
        assert (a + b) ** 3 == a**3 + 3*a**2*b + 3*a*b**2 + b**3
        assert (a + b) ** 0 == MPoly.const(1)

    @given(st.fractions().filter(bool),
           st.tuples(*[st.integers(0, 5)] * 4), st.integers(0, 7))
    @example(F(-3, 2), (1, 0, 2, 0), 0)
    def test_one_term_power_matches_repeated_products(self, cf, expo, n):
        p = MPoly.from_terms(("X1", "a", "c", "theta"), {expo: cf})
        got, want = p ** n, power(p, n, MPoly.const(1))
        assert got == want
        assert list(got.monomials()) == list(want.monomials())

    def test_alignment_across_var_sets(self):
        assert a + X1 == X1 + a
        assert (a * X1).degree_in("X1") == 1


class TestDivision:
    def test_monomial(self):
        assert ((a**2 * b).exact_div(a)) == a * b
        assert (a.exact_div(b)) is None

    def test_binomial_linear(self):
        p = X1**5 - X2**5
        q = p.divide_out_linear("X1", "X2")
        assert q * (X1 - X2) == p
        assert (X1**2 + X2).divide_out_linear("X1", "X2") is None

    @given(mpoly_strategy(max_terms=3), mpoly_strategy(max_terms=1))
    def test_exact_div_roundtrip(self, f, g):
        if g.is_zero:
            return
        q = (f * g).exact_div(g)
        assert q is not None and q == f

    def test_divisor_of_two_terms_raises(self):
        with pytest.raises(ValueError, match="divide_out_linear"):
            (X1 ** 2 - X2 ** 2).exact_div(X1 - X2)
        with pytest.raises(ValueError, match="divide_out_linear"):
            MPoly.zero().exact_div(a + 1)

    @pytest.mark.parametrize("u, v", [("X1", "X2"), ("X2", "X1"), ("a", "b")])
    @given(mpoly_strategy(var_names=("X1", "Y1", "X2", "a", "b"), max_terms=3),
           mpoly_strategy(var_names=("X1", "Y1", "X2", "a", "b"), max_terms=2))
    def test_difference_matches_long_division(self, u, v, f, r):
        # divide_out_linear(u, v) on a multiple of u - v and on a perturbed
        # one; by the factor theorem u - v divides p exactly when p vanishes
        # at u = v, and an exact quotient times u - v gives p back
        d = MPoly.var(u) - MPoly.var(v)
        for p in (f * d, f * d + r):
            got = p.divide_out_linear(u, v)
            assert (got is None) == bool(p.subst({u: MPoly.var(v)}))
            if got is not None:
                assert got * d == p

    def test_rem_monic_refuses_a_fractional_or_high_tail(self):
        x = MPoly.var("X1")
        # a tail of content 3/2: X1^3 = X1 * X1^2 = (3/2) a X1, and a term
        # kept beside it is scaled with the content
        assert (x ** 3).rem_monic("X1", 2, a * F(3, 2)) == a * x * F(3, 2)
        assert (x ** 3 + 1).rem_monic("X1", 2, a * F(3, 2)) == a * x * F(3, 2) + 1
        with pytest.raises(ValueError, match="below 2"):
            (x ** 3).rem_monic("X1", 2, x ** 2 + a)
        # the content 3/2 of the dividend is kept
        assert (x ** 3 * F(3, 2)).rem_monic("X1", 2, a * 4) == x * a * 6

    def test_rem_monic_cancels_and_repeats(self):
        x = MPoly.var("X1")
        # X1^2 = X1 + 1: X1^4 = 3 X1 + 2, and X1^4 - 3 X1 - 2 vanishes
        assert (x ** 4).rem_monic("X1", 2, x + 1) == 3 * x + 2
        assert (x ** 4 - 3 * x - 2).rem_monic("X1", 2, x + 1).is_zero


class TestExponentRange:
    """Each exponent has a fixed range; leaving it raises, never corrupts."""

    def test_var_past_the_maximum_raises(self):
        assert MPoly.var("X1", MAX_EXPONENT).degree_in("X1") == MAX_EXPONENT
        with pytest.raises(OverflowError, match="X1"):
            MPoly.var("X1", MAX_EXPONENT + 1)
        with pytest.raises(OverflowError, match="b"):
            MPoly.from_terms(("a", "b"), {(1, MAX_EXPONENT + 1): 1})

    @pytest.mark.parametrize("name", ["X1", "b", "theta"])
    def test_product_past_the_maximum_raises(self, name):
        top = MPoly.var(name, MAX_EXPONENT)
        with pytest.raises(OverflowError, match=name):
            _ = top * MPoly.var(name)
        with pytest.raises(OverflowError, match=name):
            _ = (top + a) * (MPoly.var(name) + c)
        with pytest.raises(OverflowError, match=name):
            _ = top * (MPoly.var(name, 2) * 3)

    def test_neighbours_keep_their_exponents(self):
        names = ("X1", "Y1", "X2", "a", "b", "c", "theta")
        for i, name in enumerate(names):
            p = MPoly.var(name, MAX_EXPONENT - 1) * MPoly.var(name)
            for other in names:
                p = p * MPoly.var(other, 0 if other == name else i + 1)
            for other in names:
                want = MAX_EXPONENT if other == name else i + 1
                assert p.degree_in(other) == want
            (mono, _), = p.monomials()
            assert dict(mono) == {v: (MAX_EXPONENT if v == name else i + 1)
                                  for v in names}

    def test_monomial_division_going_negative_is_none(self):
        assert (a * c).exact_div(b) is None
        assert (a ** 2 * c).exact_div(a * b) is None
        assert MPoly.var("X1").exact_div(MPoly.var("theta")) is None
        assert (a * b ** 3).exact_div(b ** 2 * 5) == a * b * F(1, 5)

    def test_one_term_power_past_the_maximum_raises(self):
        p = MPoly.var("b", 2) * MPoly.var("X1") * F(-2, 3)
        assert (p ** (MAX_EXPONENT // 2)).degree_in("b") == MAX_EXPONENT - 1
        with pytest.raises(OverflowError, match="b"):
            _ = p ** (MAX_EXPONENT // 2 + 1)

    def test_division_carries_past_the_maximum_raise(self):
        with pytest.raises(OverflowError, match="X2"):
            (X1 * MPoly.var("X2", MAX_EXPONENT)).divide_out_linear("X1", "X2")


class TestWeightedDegree:
    def test_homogeneous_examples(self):
        w = standard_weights(3)
        assert weighted_degree(a * d, w) == 9       # 2 + 7
        assert weighted_degree(a + b, w) is None    # 2 vs 4

    @given(mpoly_strategy(max_terms=2), mpoly_strategy(max_terms=2))
    def test_product_rule(self, f, g):
        w = standard_weights(3)
        wf, wg = weighted_degree(f, w), weighted_degree(g, w)
        if wf is None or wg is None or f.is_zero or g.is_zero:
            return
        assert weighted_degree(f * g, w) == wf + wg

    def test_missing_weight_is_config_error(self):
        with pytest.raises(ConfigError):
            weighted_degree(a, {"b": 1})


class TestEvalAndSubst:
    def test_subst(self):
        p = a**2 - b
        out = p.subst({"a": X1 + X2, "b": X1 * X2})
        assert out == X1**2 + X1*X2 + X2**2

    def test_eval_numeric_exact(self):
        p = 3 * a**2 * b - MPoly.const(F(1, 2))
        assert p.eval_numeric({"a": F(2), "b": F(1, 3)}) == F(4) - F(1, 2)

    def test_eval_numeric_float(self):
        p = a * b
        assert p.eval_numeric({"a": 0.5, "b": 4.0}) == pytest.approx(2.0)

    def test_eval_poly_requires_mapping(self):
        with pytest.raises(ConfigError):
            eval_poly(a * b, {"a": MPoly.const(1)}, one=MPoly.const(1))

    def test_subst_keeps_unmapped_variables(self):
        p = a**2 * b + 3 * c * a - d + F(1, 2)
        out = p.subst({"a": X1 + X2, "c": F(2, 3)})
        assert out == (X1 + X2)**2 * b + 2 * (X1 + X2) - d + F(1, 2)
        # the same terms in the same order as with the identity spelled out
        spelled = p.subst({"a": X1 + X2, "b": b, "c": F(2, 3), "d": d})
        assert list(out.monomials()) == list(spelled.monomials())

    def test_subst_of_an_unused_variable_is_the_identity(self):
        p = a * b - 1
        assert p.subst({"c": X1}) == p


def _subst_by_products(p, mapping):
    """``subst`` as products and sums, through ``eval_poly``."""
    full = {v: MPoly.var(v) for v in p.variables_used()}
    full.update((k, MPoly.const(v) if isinstance(v, (int, F)) else v)
                for k, v in mapping.items())
    return eval_poly(p, full, one=MPoly.const(1))


_MONO_VARS = ("X1", "X2", "a", "b", "s")


@st.composite
def _signed_monomials(draw):
    """+-1 times a product of powers of up to three variables."""
    out = MPoly.const(draw(st.sampled_from((1, -1))))
    for v in draw(st.lists(st.sampled_from(_MONO_VARS), max_size=3,
                           unique=True)):
        out = out * MPoly.var(v, draw(st.integers(1, 3)))
    return out


class TestMonomialSubst:
    """A map of each variable to a signed monomial rewrites exponents in one
    pass; it must give eval_poly's polynomial with its term order."""

    @staticmethod
    def _same(p, mapping):
        want = _subst_by_products(p, mapping)
        with patch.object(Substitution, "__call__") as general:
            got = p.subst(mapping)
        assert not general.called
        assert got == want
        assert list(got.monomials()) == list(want.monomials())

    @given(mpoly_strategy(_MONO_VARS, max_terms=8, max_exp=3),
           st.dictionaries(st.sampled_from(_MONO_VARS), _signed_monomials()))
    def test_matches_products(self, p, mapping):
        self._same(p, mapping)

    def test_simultaneous_swap(self):
        p = 3 * X1 ** 2 * X2 - X1 + F(1, 2) * X2 ** 3
        self._same(p, {"X1": X2, "X2": X1})
        assert p.subst({"X1": X2, "X2": X1}) == (
            3 * X2 ** 2 * X1 - X2 + F(1, 2) * X1 ** 3)

    def test_negated_monomials_flip_odd_exponents(self):
        p = a ** 3 * b + a ** 2 * b ** 2 - 5 * a * b ** 3
        self._same(p, {"a": -c, "b": -(c * d)})
        assert p.subst({"a": -c}) == -c ** 3 * b + c ** 2 * b ** 2 + 5 * c * b ** 3

    def test_colliding_terms_add_and_cancel(self):
        # a - b cancels, c comes back at the end, 2d + d**1 adds up
        p = a - b + c + 2 * d + MPoly.var("s")
        self._same(p, {"b": a, "c": a, "s": d})
        assert p.subst({"b": a, "c": a, "s": d}) == a + 3 * d
        self._same(a * c - b * c, {"b": a})
        assert (a * c - b * c).subst({"b": a}).is_zero
        self._same(a ** 2 + b ** 2, {"b": -a})
        assert (a ** 2 + b ** 2).subst({"b": -a}) == 2 * a ** 2

    def test_unit_constants(self):
        p = a ** 2 * b + a * b ** 2 + c
        for mapping in ({"a": 1, "b": -1}, {"a": MPoly.const(-1)},
                        {"a": F(1), "b": -1, "c": -1}):
            self._same(p, mapping)
        assert p.subst({"a": 1, "b": -1}) == c
        self._same(MPoly.zero(), {"a": b})
        self._same(MPoly.const(F(-3, 4)), {"a": b})

    @pytest.mark.parametrize("value", [0, MPoly.zero(), 2, F(1, 2), 2 * b,
                                       -3 * b, a + b, F(1, 3) * a])
    def test_other_values_take_the_general_path(self, value):
        p = a ** 2 * b - a + 1
        with patch.object(Substitution, "__call__", autospec=True,
                          side_effect=Substitution.__call__) as general:
            got = p.subst({"a": value})
        assert general.called
        assert got == _subst_by_products(p, {"a": value})

    def test_exponent_past_the_maximum_raises(self):
        with pytest.raises(OverflowError, match="c"):
            MPoly.var("a", MAX_EXPONENT).subst({"a": c ** 2})
        big = MPoly.var("a", 20000) * MPoly.var("b", 20000)
        with pytest.raises(OverflowError, match="c"):
            big.subst({"a": c, "b": c})
        with pytest.raises(OverflowError):
            MPoly.var("a", 2 ** 14).subst({"a": c ** 4})
        # a bound past the range with every exponent in range is no error
        p = MPoly.var("a", MAX_EXPONENT) + MPoly.var("b", MAX_EXPONENT)
        assert p.subst({"a": c, "b": c}) == 2 * MPoly.var("c", MAX_EXPONENT)


def _eval_by_running_sum(p, mapping, one):
    """``eval_poly`` as a running total: each term is added to the sum of
    the terms before it."""
    total = None
    for mono, cf in p.monomials():
        prod = None
        for v, e in mono:
            pv = power(mapping[v], e, one)
            prod = pv if prod is None else prod * pv
        term = one * cf if prod is None else prod * cf
        total = term if total is None else total + term
    return one * F(0) if total is None else total


_SUM_VARS = ("X1", "X2", "s")
# values with unlike denominators, a zero, and pairs whose products cancel
_SPECIAL_VALUES = (MPoly.zero(), X1 - X2, X1 + X2, (X1 + X2) * F(1, 2),
                   (X1 - X2) * F(-2, 3), X2 - X1, MPoly.const(F(5, 7)),
                   MPoly.var("s") * F(1, 6) + 1)
_values = st.one_of(mpoly_strategy(_SUM_VARS, max_terms=3, max_exp=2),
                    st.sampled_from(_SPECIAL_VALUES))


def _same_poly(got, want):
    assert got == want
    assert got.content() == want.content()
    assert list(got.monomials()) == list(want.monomials())


class TestOneDictSums:
    """``eval_poly`` over MPolys and ``sum_polys`` add into one term dict;
    they must give the running sum's polynomial with its term order."""

    @given(st.one_of(mpoly_strategy(max_terms=6, max_exp=3),
                     mpoly_strategy(max_terms=6, max_exp=1)), small_fractions,
           st.fixed_dictionaries({v: _values for v in "abcd"}))
    def test_eval_poly_matches_running_sum(self, p, const, mapping):
        one = MPoly.const(1)
        p = p + const
        _same_poly(eval_poly(p, mapping, one),
                   _eval_by_running_sum(p, mapping, one))

    def test_eval_poly_cancellation_and_constants(self):
        one = MPoly.const(1)
        p = a * b - b * a + c ** 2 - d ** 2 + F(-3, 4)
        mapping = {"a": X1 - X2, "b": MPoly.zero(), "c": X1 + X2,
                   "d": -(X1 + X2)}
        got = eval_poly(p, mapping, one)
        _same_poly(got, _eval_by_running_sum(p, mapping, one))
        assert got == F(-3, 4)
        # X1 cancels, then comes back after X2
        p = a - b + c
        mapping = {"a": X1 + X2, "b": X1, "c": X1}
        got = eval_poly(p, mapping, one)
        _same_poly(got, _eval_by_running_sum(p, mapping, one))
        assert list(got.monomials()) == [((("X2", 1),), 1), ((("X1", 1),), 1)]
        q = a * F(1, 2) - b * F(1, 3)
        mapping = {"a": (X1 + X2) * F(1, 3), "b": (X1 + X2) * F(1, 2)}
        assert eval_poly(q, mapping, one).is_zero
        assert eval_poly(MPoly.zero(), mapping, one).is_zero

    @given(st.lists(_values, max_size=6))
    def test_sum_polys_matches_left_to_right(self, parts):
        parts = parts + [-q for q in parts[:2]] + parts[:1]
        want = MPoly.zero()
        for q in parts:
            want = want + q
        _same_poly(sum_polys(parts), want)
        _same_poly(sum_polys(iter(parts)), want)

    def test_sum_polys_of_nothing_is_zero(self):
        assert sum_polys([]) == MPoly.zero()
        assert sum_polys(iter(())).is_zero

    def test_products_keep_the_memory_cap(self, monkeypatch):
        monkeypatch.setenv("HEKDV_MEM_CAP_MB", "0.0001")
        big = sum_polys(a ** i * b ** (7 - i) for i in range(8))
        with pytest.raises(MemoryCapExceeded):
            eval_poly(c ** 2, {"c": big}, MPoly.const(1))


def _eval_numeric_loop(p, point):
    """``MPoly.eval_numeric`` as it was before it called ``eval_poly``:
    its own term loop, with ``**`` powers and float coefficients."""
    total = None
    for mono, cf in p.monomials():
        acc = None
        for v, e in mono:
            base = point[v]
            acc = base ** e if acc is None else acc * base ** e
        term = cf if acc is None else (
            float(cf) * acc if isinstance(acc, (float, complex)) else cf * acc)
        total = term if total is None else total + term
    return F(0) if total is None else total


_complex_values = st.complex_numbers(max_magnitude=4, allow_nan=False,
                                     allow_infinity=False)
_numeric_points = st.one_of(
    st.fixed_dictionaries({v: small_fractions for v in "abcd"}),
    st.fixed_dictionaries({v: _complex_values for v in "abcd"}),
    st.fixed_dictionaries({v: st.floats(-4, 4).map(complex) for v in "abcd"}))


class TestEvalNumericThroughEvalPoly:
    """``eval_numeric`` is ``eval_poly`` with identity 1; at Fraction and
    complex points it gives what its own term loop gave, to the bit.

    The one exception is the sign of a zero part: a complex ``**`` starts
    from 1 + 0j, which turns a -0.0 part into 0.0 where a product of the
    same factors keeps it.  Adding 0 clears that sign on both sides and
    leaves every other value unchanged.
    """

    @given(mpoly_strategy(max_terms=6, max_exp=5), small_fractions,
           _numeric_points)
    def test_matches_the_term_loop(self, p, const, point):
        p = p + const
        got, want = p.eval_numeric(point), _eval_numeric_loop(p, point)
        assert type(got) is type(want)
        assert repr(got + 0) == repr(want + 0)


def _counting_products():
    """A patch of ``MPoly.__mul__`` that counts the products it forms."""
    return patch.object(MPoly, "__mul__", autospec=True,
                        side_effect=MPoly.__mul__)


class TestSubstitution:
    """A ``Substitution`` keeps the images of the powers and of the
    monomial prefixes it forms across calls."""

    def test_unmapped_variable_stands_for_itself(self):
        sub = Substitution({"a": X1 + X2, "c": F(2, 3)})
        p = a ** 2 * b - 3 * c * d + F(1, 2)
        want = (X1 + X2) ** 2 * b - 2 * d + F(1, 2)
        for _ in range(2):
            got = sub(p)
            assert got == want == p.subst(sub.mapping)
            assert list(got.monomials()) == list(
                p.subst(sub.mapping).monomials())
        assert sub.power("b", 3) == b ** 3
        assert sub(MPoly.zero()).is_zero and sub(MPoly.const(7)) == 7

    def test_kept_power_equals_power(self):
        image = X1 - F(1, 2) * X2 + 3
        sub = Substitution({"a": image, "c": F(2, 3)})
        for e in (1, 2, 5, 3, 5, 2):
            got = sub.power("a", e)
            want = power(image, e, MPoly.const(1))
            assert got == want
            assert list(got.monomials()) == list(want.monomials())
        assert sub.power("a", 5) is sub.power("a", 5)
        assert sub.power("c", 2) == F(4, 9)
        assert sub(a ** 5 * c ** 2) == image ** 5 * F(4, 9)

    def test_second_call_forms_no_product(self):
        sub = Substitution({"a": X1 + X2, "c": X1 - F(1, 2) * X2,
                            "d": X2 + 3})
        p = a ** 3 * c ** 2 * d + a ** 3 * c - 2 * c ** 2 * d ** 2 + F(1, 3)
        with _counting_products() as mul:
            first = sub(p)
        assert mul.call_count > 0
        with _counting_products() as mul:
            second = sub(p)
        assert mul.call_count == 0
        assert second == first == p.subst(sub.mapping)
        assert list(second.monomials()) == list(first.monomials())

    def test_shared_prefix_is_formed_once(self):
        # a^2*c*d and a^2*c*s share the prefix a^2*c: the products are
        # a*a, a^2*c, a^2*c*d and a^2*c*s, one each
        s = MPoly.var("s")
        sub = Substitution({"a": X1 + X2, "c": X1 - X2, "d": X2 - 1,
                            "s": X1 + 2})
        p = a ** 2 * c * d - 3 * a ** 2 * c * s
        with _counting_products() as mul:
            got = sub(p)
        assert mul.call_count == 4
        formed = [(x.to_str(), y.to_str()) for (x, y), _ in mul.call_args_list]
        assert len(set(formed)) == len(formed)
        want = sum_polys(sub.mapping["a"] ** 2 * sub.mapping["c"]
                         * sub.mapping[v] * k for v, k in (("d", 1), ("s", -3)))
        assert got == want == p.subst(sub.mapping)

    def test_past_the_cap_images_are_not_kept(self, monkeypatch):
        # 0.001 MB caps the kept terms at 5: the images of a and c (two
        # terms each) are kept, a*c and a^2 are formed on every call
        sub_map = {"a": X1 + X2, "c": X1 - X2}
        p = a * c + a ** 2
        want = Substitution(sub_map)(p)
        monkeypatch.setenv("HEKDV_MEM_CAP_MB", "0.001")
        sub = Substitution(sub_map)
        counts = []
        for _ in range(3):
            with _counting_products() as mul:
                got = sub(p)
            counts.append(mul.call_count)
            assert got == want
            assert list(got.monomials()) == list(want.monomials())
        assert counts == [2, 2, 2]
        assert sub.power("a", 1) is sub.power("a", 1)
        assert sub.power("a", 2) is not sub.power("a", 2)


def _cleared_by_sum(p, name, factor):
    """The reference clearing: each coefficient of name^e in p times
    name^e * factor^(k - e), summed, with k = deg_name(p)."""
    k = p.degree_in(name)
    if not k:
        return p, 0
    y = MPoly.var(name)
    return sum_polys(cf * (y ** e * factor ** (k - e))
                     for e, cf in p.coeffs_in(name).items()), k


def _same_clearing(p, name, factor):
    got, k = p.clear_denominator(name, factor)
    want, k_want = _cleared_by_sum(p, name, factor)
    assert k == k_want
    assert got == want
    assert list(got.monomials()) == list(want.monomials())
    return got, k


# one-term factors without c or Y1: constants, monomials, products
_FACTOR_MONOMIALS = (MPoly.const(1), MPoly.var("s"), MPoly.var("X1"),
                     MPoly.var("a") * MPoly.var("s", 2),
                     MPoly.var("X2", 3) * MPoly.var("d"))


class TestClearDenominator:
    """``MPoly.clear_denominator`` is the sum of the coefficients of the
    powers of the name, each times its power of the factor, in value and
    in term order."""

    @given(mpoly_strategy(("a", "c", "s", "X1", "Y1"), max_terms=6),
           st.sampled_from(("c", "Y1")), nonzero_fractions,
           st.sampled_from(_FACTOR_MONOMIALS))
    def test_matches_the_sum_of_coefficients(self, p, name, scale, mono):
        _same_clearing(p, name, mono * scale)

    @given(mpoly_strategy(("X1", "Y1", "X2", "Y2"), max_terms=6))
    def test_psi1_factors(self, p):
        num, _ = _same_clearing(p, "Y1", X1)
        _same_clearing(num, "Y2", X2)

    def test_rational_and_negative_content(self):
        p = F(3, 4) * a * c ** 2 - F(5, 6) * c + b
        for factor in (F(-2, 3) * MPoly.var("s"), -2 * MPoly.var("s"),
                       MPoly.const(F(-7, 5))):
            got, k = _same_clearing(p, "c", factor)
            assert k == 2
            y = MPoly.var("c")
            want = (F(3, 4) * a * y ** 2 - F(5, 6) * y * factor
                    + b * factor ** 2)
            assert got == want

    def test_without_the_name_k_is_zero(self):
        p = F(2, 3) * a ** 2 * b - d
        assert p.clear_denominator("c", 2 * MPoly.var("s")) == (p, 0)
        assert MPoly.zero().clear_denominator("c", MPoly.var("s")) == (
            MPoly.zero(), 0)

    @pytest.mark.parametrize("factor", [
        2 * MPoly.var("s") + 1, X1 - X2, MPoly.zero(), a * c],
        ids=["two-terms", "difference", "zero", "holds-the-name"])
    def test_refuses_all_but_a_monomial_factor(self, factor):
        with pytest.raises(ValueError):
            (a * c ** 2 + c).clear_denominator("c", factor)


class TestChartGroups:
    """``MPoly.chart_groups`` is the clearing, the rewrite of the square and
    the division by the common power in three passes, split by block."""

    @given(mpoly_strategy(("a", "b", "c", "d", "s", "y12"), max_terms=6,
                          max_exp=2),
           st.sampled_from((1, 2, 3)),
           st.sampled_from((("c", "d"), ("c",), ("d", "y12"), ())))
    def test_groups_sum_to_the_three_passes(self, p, scale, block):
        groups, e = p.chart_groups("c", "s", scale, "b", block)
        num, k, j = cleared_in_chart(p, "c", "s", scale, "b")
        assert e == k - j
        assert sum_polys(x * y for x, y in groups) == num * F(1, scale ** j)
        monos = [y for _, y in groups]
        assert len(set(monos)) == len(monos)
        for x, y in groups:
            assert y.term_count() == 1 and y.content() == 1
            assert y.variables_used() <= set(block)
            assert not x.variables_used() & (set(block) | {"b"})

    def test_zero_and_constant(self):
        assert MPoly.zero().chart_groups("c", "s", 2, "b", ("c", "d")) == (
            [], 0)
        groups, e = MPoly.const(F(-3, 4)).chart_groups("c", "s", 2, "b",
                                                       ("c", "d"))
        assert e == 0 and groups == [(MPoly.const(F(-3, 4)), MPoly.const(1))]

    def test_common_power_is_cancelled(self):
        # b*c^3 is s^2 * (c/2s)^3 = c^3 / (8s) and b^2*c/3 is s^3 * c / 6,
        # so over (2s)^3 the common power is (2s)^2: k = 3, j = 2
        s = MPoly.var("s")
        groups, e = (b * c ** 3 + F(1, 3) * b ** 2 * c).chart_groups(
            "c", "s", 2, "b", ("c", "d"))
        assert e == 1
        assert groups == [(MPoly.const(F(1, 4)), c ** 3),
                          (s ** 4 * F(1, 3), c)]

    def test_exponent_past_the_range_raises(self):
        s = MPoly.var("s")
        top = MPoly.var("b", MAX_EXPONENT // 2) * s
        groups, _ = top.chart_groups("c", "s", 2, "b", ())
        assert groups == [(MPoly.var("s", MAX_EXPONENT), MPoly.const(1))]
        # s^32767 * c/(2s) is c * s^32766 / 2, over (2s)^0: in range
        groups, e = (top * c).chart_groups("c", "s", 2, "b", ())
        assert e == 0 and groups == [
            (MPoly.var("s", MAX_EXPONENT - 1) * c * F(1, 2), MPoly.const(1))]
        for p in (top * s, MPoly.var("b", MAX_EXPONENT), top * s * d):
            with pytest.raises(OverflowError):
                p.chart_groups("c", "s", 2, "b", ())


class TestMemoryCap:
    def test_cap_triggers(self, monkeypatch):
        monkeypatch.setenv("HEKDV_MEM_CAP_MB", "0.0001")
        big = sum((a**i * b**(7 - i) for i in range(8)), MPoly.zero())
        with pytest.raises(MemoryCapExceeded):
            _ = (big * big)

    def test_cap_not_triggered_for_small(self, monkeypatch):
        monkeypatch.setenv("HEKDV_MEM_CAP_MB", "64")
        assert (a + b) * (a - b) == a**2 - b**2

    @pytest.mark.parametrize("raw, message", [
        ("abc", "HEKDV_MEM_CAP_MB='abc' is not a number"),
        *((raw, f"HEKDV_MEM_CAP_MB={raw!r} is not a finite positive number")
          for raw in ("nan", "inf", "-inf", "1e400", "0", "-5")),
    ])
    def test_malformed_cap_is_config_error(self, monkeypatch, raw, message):
        monkeypatch.setenv("HEKDV_MEM_CAP_MB", raw)
        with pytest.raises(ConfigError) as info:
            _ = (a + b) * (a - b)
        assert str(info.value) == message


class TestPrinting:
    def test_serialization_forms(self):
        assert str(MPoly.const(F(3, 4))) == "3/4"
        assert str(MPoly.const(2)) == "2"
        assert str(a - b) == "a-b"

    def test_term_cap(self):
        p = sum((a**i for i in range(6)), MPoly.zero())
        s = p.to_str(max_terms=2)
        assert "more terms" in s


class TestUnivariateView:
    @given(mpoly_strategy(), st.sampled_from(("a", "b", "c", "d")))
    def test_coeffs_in_rebuilds(self, p, name):
        parts = p.coeffs_in(name)
        x = MPoly.var(name)
        assert sum((cf * x ** e for e, cf in parts.items()), MPoly.zero()) == p
        assert all(cf.degree_in(name) == 0 and not cf.is_zero
                   for cf in parts.values())

    @given(mpoly_strategy())
    def test_coeffs_in_absent_variable(self, p):
        assert p.coeffs_in("X1") == ({0: p} if p else {})

    def test_unknown_symbol_is_config_error(self):
        with pytest.raises(ConfigError):
            MPoly.var("zz")
        with pytest.raises(ConfigError):
            MPoly.from_terms(("a", "zz"), {})
        with pytest.raises(ConfigError):
            (a + b).coeffs_in("zz")

    def test_coeffs_in_zero(self):
        assert MPoly.zero().coeffs_in("a") == {}
        assert (a - a).coeffs_in("a") == {}

    @given(mpoly_strategy())
    def test_monomials_rebuild(self, p):
        rebuilt = MPoly.zero()
        for mono, cf in p.monomials():
            assert all(e > 0 for _, e in mono)
            rebuilt = rebuilt + _term(mono, cf)
        assert rebuilt == p

    def test_power(self):
        for n in range(9):
            assert power(F(2, 3), n, F(1)) == F(2, 3) ** n
        assert power(a + b, 0, MPoly.const(1)) == MPoly.const(1)

    def test_negative_power_is_an_error(self):
        with pytest.raises(ValueError):
            PSeries.zero("t", 2) ** -1


def _content_reference(p):
    """gcd of the coefficient numerators over lcm of their denominators."""
    num, den = 0, 1
    for _, cf in p.monomials():
        num = gcd(num, cf.numerator)
        den = lcm(den, cf.denominator)
    return F(num, den)


_LINEAR_VARS = ("X1", "X2", "a", "b")
# numerators and denominators up to 10^6, so contents meet large gcds
_big_fractions = st.builds(F, st.integers(-10**6, 10**6),
                           st.integers(1, 10**6)).filter(bool)
_big_polys = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 2)] * 4), _big_fractions),
    max_size=4).map(lambda terms: MPoly.from_terms(_LINEAR_VARS, dict(terms)))


# -- the two-operand sum that ``_Sum`` replaced, kept verbatim as the
# reference for + and -; it runs on (content, {monomial: int}) pairs read
# through the public API ----------------------------------------------------

def _sum(a, b, ka=1, kb=1):
    """The int term dict of ka*a + kb*b: a's monomials, then b's new ones."""
    terms = dict(a) if ka == 1 else {m: c * ka for m, c in a.items()}
    if kb != 1:
        b = {m: c * kb for m, c in b.items()}
    for m, c in b.items():
        acc = terms.get(m)
        if acc is None:
            terms[m] = c
        else:
            acc += c
            if acc:
                terms[m] = acc
            else:
                del terms[m]
    return terms


def _int_part(p, sign=1):
    """(content, {monomial: int coefficient}) of sign * p."""
    content = p.content()
    return content, {mono: sign * int(cf / content) for mono, cf in p.monomials()}


def _add_by_gcd_lcm(p, q, sign=1):
    """(content, list of monomials) of p + sign * q, by the old ``__add__``."""
    cp, p_terms = _int_part(p)
    cq, q_terms = _int_part(q, sign)
    if not q_terms:
        terms = p_terms
    elif not p_terms:
        cp, terms = cq, q_terms
    elif cp is cq:
        terms = _sum(p_terms, q_terms)
    else:
        pn, pd = cp.numerator, cp.denominator
        qn, qd = cq.numerator, cq.denominator
        num, den = gcd(pn, qn), lcm(pd, qd)
        kp, kq = pn // num * (den // pd), qn // num * (den // qd)
        cp = cp if kp == 1 else cq if kq == 1 else F(num, den)
        terms = _sum(p_terms, q_terms, kp, kq)
    if not terms:
        return F(0), []
    g = gcd(*terms.values())
    return cp * g, [(m, cp * c) for m, c in terms.items()]


def _exponent_tuple(mono):
    return tuple(dict(mono).get(v, 0) for v in _LINEAR_VARS)


_operands = st.one_of(mpoly_strategy(_LINEAR_VARS), _big_polys,
                      small_fractions.map(MPoly.const), st.just(MPoly.zero()))


class TestSumAgainstGcdLcmRule:
    """``+`` and ``-`` give the old two-operand sum's content, hash and term
    order, for unlike, large and equal contents, zero operands and
    cancelling terms."""

    @given(_operands, _operands,
           st.sampled_from(("as drawn", "equal content", "cancel")),
           st.integers(0, 4))
    def test_add_and_sub(self, p, q, how, keep):
        if how == "equal content" and p and q:
            q = q * (p.content() / q.content())
        elif how == "cancel":
            # q is the drawn q minus p's first `keep` terms, so p + q
            # cancels those terms where the drawn q has none of them
            terms = {_exponent_tuple(mono): -cf
                     for mono, cf in list(p.monomials())[:keep]}
            for mono, cf in q.monomials():
                terms[_exponent_tuple(mono)] = terms.get(
                    _exponent_tuple(mono), 0) + cf
            q = MPoly.from_terms(_LINEAR_VARS, terms)
        for got, sign in ((p + q, 1), (p - q, -1)):
            content, monomials = _add_by_gcd_lcm(p, q, sign)
            assert got.content() == content
            assert list(got.monomials()) == monomials
            rebuilt = MPoly.from_terms(
                _LINEAR_VARS, {_exponent_tuple(m): cf for m, cf in monomials})
            assert got == rebuilt and hash(got) == hash(rebuilt)

    @given(mpoly_strategy(_LINEAR_VARS), small_fractions)
    def test_scalar_operands(self, p, k):
        for got, want in ((p + k, p + MPoly.const(k)), (k + p, p + MPoly.const(k)),
                          (p - k, p - MPoly.const(k)), (k - p, -p + MPoly.const(k))):
            assert got.content() == want.content()
            assert list(got.monomials()) == list(want.monomials())


class TestIntegerCoefficients:
    """A polynomial is stored as one positive rational content times a
    primitive integer part, so every route to it gives one stored form."""

    @staticmethod
    def assert_same(got, want):
        assert got == want and hash(got) == hash(want)

    @given(mpoly_strategy(_LINEAR_VARS), mpoly_strategy(_LINEAR_VARS),
           nonzero_fractions, st.integers(2, 30))
    def test_routes_agree(self, p, q, k, n):
        unreduced = {tuple(dict(mono).get(v, 0) for v in _LINEAR_VARS):
                     f"{cf.numerator * n}/{cf.denominator * n}"
                     for mono, cf in p.monomials()}
        for got in (MPoly.from_terms(_LINEAR_VARS, unreduced),
                    (p * k) / k, p + q - q, -(-p)):
            self.assert_same(got, p)

    @given(mpoly_strategy(_LINEAR_VARS), nonzero_fractions)
    def test_division_routes_agree(self, p, k):
        divisor = a ** 2 * b * k
        self.assert_same((p * divisor).exact_div(divisor), p)
        self.assert_same((p * (X1 - X2)).divide_out_linear("X1", "X2"), p)

    @given(_big_polys, _big_polys, _big_polys)
    def test_content_with_large_denominators(self, p, q, r):
        for x in (p, q, p + q, p - q, p * q, p * r + q * r, -p):
            assert x.content() == _content_reference(x)
        # Gauss's lemma: the content of a product is the product of contents
        assert (p * q).content() == p.content() * q.content()
        assert (p + q) * r == p * r + q * r
        self.assert_same((p * r + q * r - q * r) * 7 / 7, p * r)

    @given(mpoly_strategy(_LINEAR_VARS))
    def test_coefficients_read_as_fractions(self, p):
        assert all(type(cf) is F for _, cf in p.monomials())
        if p:
            assert type(p.leading()[1]) is F
        for value in (0, 3, F(-2, 3)):
            assert type(MPoly.const(value).as_constant()) is F
        assert type(p.content()) is F

    @pytest.mark.parametrize("value", [0, 3, -7, F(-5, 6)])
    def test_constant_hashes_as_its_value(self, value):
        p = MPoly.const(value)
        assert p == value and hash(p) == hash(value)
        assert len({p, value}) == 1
        assert len({MPoly.zero(), 0}) == 1


# -- the Fraction-content rules that the int-pair content replaced, kept
# verbatim as the reference for every route that forms a content without
# adding; they run on (content, {exponent tuple: int}) pairs read through
# the public API, and _sum above is the old merge -------------------------

_ONE_TERM = (0,) * len(_LINEAR_VARS)


def _ref(p):
    """(content, {exponent tuple: int coefficient}) of p."""
    content = p.content()
    return content, {_exponent_tuple(mono): int(cf / content)
                     for mono, cf in p.monomials()}


def _moved(m, i, by):
    """Exponent tuple m with ``by`` added to its exponent i."""
    return m[:i] + (m[i] + by,) + m[i + 1:]


def _plus(m, n, times=1):
    return tuple(x + times * y for x, y in zip(m, n))


def _ref_primitive(content, terms):
    if not terms:
        return F(0), terms
    g = gcd(*terms.values())
    if g == 1:
        return content, terms
    return content * g, {m: c // g for m, c in terms.items()}


def _ref_mul(p, q):
    """The old ``__mul__`` of two polynomials."""
    (cp, p_terms), (cq, q_terms) = p, q
    if len(p_terms) < len(q_terms):
        (cp, p_terms), (cq, q_terms) = (cq, q_terms), (cp, p_terms)
    # Fraction arithmetic is slow; skip it when one content is 1
    content = cq if cp == 1 else cp if cq == 1 else cp * cq
    terms = {}
    get = terms.get
    for qe, qc in q_terms.items():
        for pe, pc in p_terms.items():
            key = _plus(pe, qe)
            acc = get(key)
            if acc is None:
                terms[key] = pc * qc
            else:
                acc += pc * qc
                if acc:
                    terms[key] = acc
                else:
                    del terms[key]
    return content, terms


def _ref_scale(p, other):
    """The old ``__mul__`` by a scalar; ``p / k`` was ``p * (1 / k)``."""
    cp, terms = p
    c = F(other)
    if not c:
        return F(0), {}
    if c.numerator < 0:
        c, terms = -c, {m: -k for m, k in terms.items()}
    return c if cp == 1 else cp if c == 1 else cp * c, terms


def _ref_exact_div(p, divisor):
    """The old ``exact_div`` by a one-term divisor, None when inexact."""
    content, p_terms = p
    d_content, d_terms = divisor
    if not p_terms:
        return F(0), {}
    (de, dc), = d_terms.items()
    terms = {}
    for m, c in p_terms.items():
        q = _plus(m, de, -1)
        if min(q) < 0:
            return None
        terms[q] = c if dc == 1 else -c
    return content / d_content, terms


def _ref_divide_out_linear(p, i, j):
    """The old ``divide_out_linear`` by variable i minus variable j."""
    content, terms = p
    deg = max((m[i] for m in terms), default=0)
    buckets = [dict() for _ in range(deg + 1)]
    for m, c in terms.items():
        buckets[m[i]][_moved(m, i, -m[i])] = c
    carry = {}
    quotient = {}
    for e in range(deg, 0, -1):
        carry = _sum(carry, buckets[e])
        for key, c in carry.items():
            quotient[_moved(key, i, e - 1)] = c
        carry = {_moved(key, j, 1): c for key, c in carry.items()}
    carry = _sum(carry, buckets[0])
    if carry:
        return None
    return content, quotient


def _ref_derivative(p, i):
    content, p_terms = p
    terms = {}
    for m, c in p_terms.items():
        e = m[i]
        if e:
            terms[_moved(m, i, -1)] = c * e
    return _ref_primitive(content, terms)


def _ref_coeffs_in(p, i):
    content, p_terms = p
    parts = {}
    for m, c in p_terms.items():
        parts.setdefault(m[i], {})[_moved(m, i, -m[i])] = c
    return {e: _ref_primitive(content, terms) for e, terms in parts.items()}


def _ref_subst(p, images):
    """The old ``_subst_monomials``: variable i goes to images[i], an
    (exponent tuple, sign) pair."""
    content, p_terms = p
    terms = {}
    get = terms.get
    for m, c in p_terms.items():
        new = _ONE_TERM
        for e, (mono, sign) in zip(m, images):
            if e:
                new = _plus(new, mono, e)
                if sign < 0 and e & 1:
                    c = -c
        acc = get(new)
        if acc is None:
            terms[new] = c
        else:
            acc += c
            if acc:
                terms[new] = acc
            else:
                del terms[new]
    return _ref_primitive(content, terms)


def _packed(m):
    """The stored monomial of exponent tuple m, read off ``leading()``."""
    return MPoly.from_terms(_LINEAR_VARS, {m: 1}).leading()[0]


def _assert_reads_as(got, want):
    """``got`` reads as the old (content, terms) ``want`` is read: content,
    terms in order, leading term, constant value and hash."""
    content, terms = want
    assert type(got.content()) is F and got.content() == content
    assert list(got.monomials()) == [
        (tuple((v, e) for v, e in zip(_LINEAR_VARS, m) if e), content * c)
        for m, c in terms.items()]
    if terms:
        top = max(terms)
        assert got.leading() == (_packed(top), content * terms[top])
    value = (F(0) if not terms else content * terms[_ONE_TERM]
             if list(terms) == [_ONE_TERM] else None)
    got_value = got.as_constant()
    assert got_value == value and (value is None or type(got_value) is F)
    stored = frozenset((_packed(m), c) for m, c in terms.items())
    assert hash(got) == hash((content, stored) if value is None else value)
    rebuilt = MPoly.from_terms(_LINEAR_VARS,
                               {m: content * c for m, c in terms.items()})
    assert got == rebuilt and hash(got) == hash(rebuilt)


_scalars = st.one_of(st.integers(-10**6, 10**6), _big_fractions,
                     small_fractions)
_exponents4 = st.tuples(*[st.integers(0, 2)] * len(_LINEAR_VARS))


class TestContentPairAgainstFractionRule:
    """Products, scalar multiples, quotients, derivatives, coefficients and
    monomial substitutions form the content on ints and read as the old
    Fraction-content rules give, for small, large (10^6) and equal
    contents, zero and constant operands."""

    @given(_operands, _operands, st.booleans())
    def test_products(self, p, q, equal):
        if equal and p and q:
            q = q * (p.content() / q.content())
        _assert_reads_as(p * q, _ref_mul(_ref(p), _ref(q)))

    @given(_operands, _scalars)
    def test_scalar_multiples_and_quotients(self, p, k):
        for scalar in (k, -k) + ((p.content(), -p.content()) if p else ()):
            want = _ref_scale(_ref(p), scalar)
            _assert_reads_as(p * scalar, want)
            _assert_reads_as(scalar * p, want)
            if scalar:
                _assert_reads_as(p / scalar, _ref_scale(_ref(p), 1 / F(scalar)))

    @given(_operands, _exponents4, _scalars.filter(bool), st.booleans())
    def test_exact_div(self, p, expo, k, multiple):
        divisor = MPoly.from_terms(_LINEAR_VARS, {expo: k})
        if multiple:
            p = p * divisor
        got = p.exact_div(divisor)
        want = _ref_exact_div(_ref(p), _ref(divisor))
        assert (got is None) == (want is None)
        if want is not None:
            _assert_reads_as(got, want)

    @given(_operands, st.sampled_from(((0, 1), (1, 0), (2, 3))), st.booleans())
    def test_divide_out_linear(self, p, pair, multiple):
        u, v = (_LINEAR_VARS[i] for i in pair)
        if multiple:
            p = p * (MPoly.var(u) - MPoly.var(v))
        got = p.divide_out_linear(u, v)
        want = _ref_divide_out_linear(_ref(p), *pair)
        assert (got is None) == (want is None)
        if want is not None:
            _assert_reads_as(got, want)

    @given(_operands)
    def test_derivative_and_coeffs_in(self, p):
        for i, name in enumerate(_LINEAR_VARS):
            _assert_reads_as(p.derivative(name), _ref_derivative(_ref(p), i))
            got, want = p.coeffs_in(name), _ref_coeffs_in(_ref(p), i)
            assert list(got) == list(want)
            for e in want:
                _assert_reads_as(got[e], want[e])

    @given(_operands, st.lists(st.tuples(_exponents4, st.sampled_from((1, -1))),
                               min_size=4, max_size=4),
           st.sets(st.integers(0, 3)))
    def test_monomial_subst(self, p, images, mapped):
        mapping = {_LINEAR_VARS[i]: MPoly.from_terms(_LINEAR_VARS,
                                                     {images[i][0]: images[i][1]})
                   for i in mapped}
        kept = [(_moved(_ONE_TERM, i, 1), 1) for i in range(len(_LINEAR_VARS))]
        want = _ref_subst(_ref(p), [images[i] if i in mapped else kept[i]
                                    for i in range(len(_LINEAR_VARS))])
        _assert_reads_as(p.subst(mapping), want)


# -- the per-module exponent loops the univariate view replaced, kept as
# references for differential tests --------------------------------------

def _reduce_by_exponent_loop(field, p):
    for yvar, Q in (("Y1", field.Q1), ("Y2", field.Q2)):
        while p.degree_in(yvar) >= 2:
            low = high = MPoly.zero()
            for mono, cf in p.monomials():
                if dict(mono).get(yvar, 0) >= 2:
                    high = high + _term([(v, e - 2 if v == yvar else e)
                                         for v, e in mono], cf)
                else:
                    low = low + _term(mono, cf)
            p = low + high * Q
    return p


def _even_s_to_b_by_exponent_loop(q):
    out = MPoly.zero()
    for mono, cf in q.monomials():
        e = dict(mono).get("s", 0)
        if e % 2:
            raise NotSymmetricError("odd power of s")
        out = out + _term([(v, k) for v, k in mono if v != "s"]
                          + [("b", e // 2)], cf)
    return out


def _from_mpoly_by_exponent_loop(p):
    coeffs = [MPoly.zero()] * (p.degree_in("phi") + 1)
    for mono, cf in p.monomials():
        e = dict(mono).get("phi", 0)
        coeffs[e] = coeffs[e] + _term([(v, k) for v, k in mono if v != "phi"],
                                      cf)
    return PhiRingElem(coeffs)


_FIELD2 = SymSqField(CurveParams.symbolic(2))
# rational parameters give Q(X) a content that is not an integer
_FIELD_RATIONAL = SymSqField(CurveParams.numeric(
    3, (F(1, 2), F(-3, 7), 0, F(5, 3), 1, F(-1, 4))))
_SWAP = {"X1": MPoly.var("X2"), "Y1": MPoly.var("Y2"),
         "X2": MPoly.var("X1"), "Y2": MPoly.var("Y1")}


class TestAgainstExponentLoops:
    @given(st.sampled_from((_FIELD2, _FIELD_RATIONAL)),
           mpoly_strategy(("X1", "Y1", "X2", "Y2"), max_terms=4, max_exp=5))
    def test_reduce(self, field, p):
        assert field.reduce(p) == _reduce_by_exponent_loop(field, p)

    @given(mpoly_strategy(("a", "b", "c", "d", "s"), max_terms=4, max_exp=3))
    def test_even_s_to_b(self, p):
        p = p.subst({**{v: MPoly.var(v) for v in "abcd"},
                     "s": MPoly.var("s", 2)})
        assert _even_s_to_b(p) == _even_s_to_b_by_exponent_loop(p)
        odd = p + MPoly.var("s", 3)
        with pytest.raises(NotSymmetricError):
            _even_s_to_b(odd)

    @given(mpoly_strategy(("X1", "Y1", "X2", "Y2"), max_terms=3, max_exp=3))
    def test_xy_to_abcd(self, p):
        p = p + p.subst(_SWAP)
        assert xy_to_abcd(p) == _even_s_to_b_by_exponent_loop(_in_s_chart(p))

    @given(mpoly_strategy(("w3", "w5", "phi"), max_terms=5, max_exp=8))
    def test_from_mpoly(self, p):
        got = PhiRingElem.from_mpoly(p)
        want = _from_mpoly_by_exponent_loop(p)
        assert got.coeffs == want.coeffs


# a read of MPoly storage; a method call of the same name on another
# object (sympy's Poly(...).terms()) is not one, as MPoly's are attributes
STORAGE_READ = re.compile(r"\.(terms|vars|_content|_num|_den)\b(?!\s*\()")


def test_storage_guard_sees_reads_not_calls():
    # the attribute names are filled in, so that this file's scan passes
    lines = [line.format(t="terms", n="_num")
             for line in ("p.{t}", "p.{t}.items()", "q.{n}",
                          "Poly(x).{t}()", "Poly(x).{t} ()")]
    flagged = [line for line in lines if STORAGE_READ.search(line)]
    assert flagged == lines[:3]


def test_representation_stays_in_poly():
    """Only poly.py may read an MPoly's storage (its terms, vars or content,
    the content's numerator and denominator included).

    The package, the tests and the scripts are scanned.
    """
    root = Path(__file__).resolve().parents[1]
    src = Path(hekdv.poly.__file__).parent
    paths = [path for folder in (src, root / "tests", root / "scripts")
             for path in sorted(folder.glob("*.py")) if path.name != "poly.py"]
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in paths
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if STORAGE_READ.search(line)]
    assert not hits, "\n".join(hits)


def test_tracer_finds_every_target():
    """The benchmark's tracer looks each target up in its class's own body.

    It runs in a child process because ``install`` wraps the classes for
    good.
    """
    root = Path(__file__).resolve().parents[1]
    src = str(Path(hekdv.poly.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import tracer; "
            "print(tracer.install().missing)")
    done = subprocess.run([sys.executable, "-c", code,
                           str(root / "perfbench")],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
