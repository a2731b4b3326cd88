import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import hekdv.poly
from conftest import mpoly_strategy, small_fractions
from hekdv.curve import CurveParams
from hekdv.errors import ConfigError, MemoryCapExceeded, NotSymmetricError
from hekdv.phiring import PhiRingElem
from hekdv.poly import (MPoly, eval_poly, merge_vars, power, standard_weights,
                        variables, weighted_degree)
from hekdv.series import PSeries
from hekdv.symsq import SymSqField, _even_s_to_b, _in_s_chart, xy_to_abcd

a, b, c, d = variables("a", "b", "c", "d")
X1, X2 = variables("X1", "X2")


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

    @given(mpoly_strategy(max_terms=3), mpoly_strategy(max_terms=3))
    def test_exact_div_roundtrip(self, f, g):
        if g.is_zero:
            return
        q = (f * g).exact_div(g)
        assert q is not None and q == f

    def test_long_division_general(self):
        f = (a + b + 1) * (a * b - c + 2)
        assert f.exact_div(a + b + 1) == a * b - c + 2

    @pytest.mark.parametrize("u, v", [("X1", "X2"), ("X2", "X1"), ("a", "b")])
    @given(mpoly_strategy(var_names=("X1", "Y1", "X2", "a", "b"), max_terms=3),
           mpoly_strategy(var_names=("X1", "Y1", "X2", "a", "b"), max_terms=2))
    def test_difference_matches_long_division(self, u, v, f, r):
        # exact_div sends u - v to divide_out_linear; long division is the
        # reference, on a multiple of u - v and on a perturbed one
        d = MPoly.var(u) - MPoly.var(v)
        for p in (f * d, f * d + r):
            got = p.exact_div(d)
            pa, da = MPoly._align_pair(p, d)
            want = pa._long_div(da)
            assert (got is None) == (want is None)
            if got is not None:
                assert got == want and got * d == p


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


class TestMemoryCap:
    def test_cap_triggers(self, monkeypatch):
        monkeypatch.setenv("HEKDV_MEM_CAP_MB", "0.0001")
        big = sum((a**i * b**(7 - i) for i in range(8)), MPoly.zero())
        with pytest.raises(MemoryCapExceeded):
            _ = (big * big)

    def test_cap_not_triggered_for_small(self, monkeypatch):
        monkeypatch.setenv("HEKDV_MEM_CAP_MB", "64")
        assert (a + b) * (a - b) == a**2 - b**2


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

    def test_coeffs_in_zero(self):
        assert MPoly.zero().coeffs_in("a") == {}
        assert (a - a).coeffs_in("a") == {}

    @given(mpoly_strategy())
    def test_monomials_rebuild(self, p):
        rebuilt = MPoly.zero()
        for mono, cf in p.monomials():
            assert all(e > 0 for _, e in mono)
            term = MPoly.const(cf)
            for v, e in mono:
                term = term * MPoly.var(v, e)
            rebuilt = rebuilt + term
        assert rebuilt == p

    def test_power(self):
        for n in range(9):
            assert power(F(2, 3), n, F(1)) == F(2, 3) ** n
        assert power(a + b, 0, MPoly.const(1)) == MPoly.const(1)

    def test_negative_power_is_an_error(self):
        with pytest.raises(ValueError):
            PSeries.zero("t", 2) ** -1


# -- the per-module exponent loops the univariate view replaced, kept as
# references for differential tests --------------------------------------

def _reduce_by_exponent_loop(field, p):
    for yvar, Q in (("Y1", field.Q1), ("Y2", field.Q2)):
        while p.degree_in(yvar) >= 2:
            i = p.vars.index(yvar)
            low = {}
            high = {}
            for expo, cf in p.terms.items():
                e = expo[i]
                if e >= 2:
                    high[expo[:i] + (e - 2,) + expo[i + 1:]] = cf
                else:
                    low[expo] = cf
            p = MPoly(p.vars, low) + MPoly(p.vars, high) * Q
    return p


def _even_s_to_b_by_exponent_loop(q):
    if "s" not in q.vars:
        return q
    i = q.vars.index("s")
    vars = merge_vars(q.vars, ("b",))
    j = vars.index("b")
    out = {}
    for expo, coeff in q.terms.items():
        e = expo[i]
        if e % 2:
            raise NotSymmetricError("odd power of s")
        new = [0] * len(vars)
        for v, k in zip(q.vars, expo):
            if v != "s":
                new[vars.index(v)] = k
        new[j] += e // 2
        key = tuple(new)
        out[key] = out.get(key, F(0)) + coeff
    return MPoly(vars, {e: cf for e, cf in out.items() if cf}).pruned()


def _from_mpoly_by_exponent_loop(p):
    deg = p.degree_in("phi")
    coeffs = [MPoly.zero()] * (deg + 1)
    if "phi" not in p.vars:
        coeffs[0] = p
        return PhiRingElem(coeffs)
    i = p.vars.index("phi")
    buckets = [dict() for _ in range(deg + 1)]
    for expo, cf in p.terms.items():
        key = expo[:i] + (0,) + expo[i + 1:]
        buckets[expo[i]][key] = buckets[expo[i]].get(key, F(0)) + cf
    for e, bucket in enumerate(buckets):
        coeffs[e] = MPoly(p.vars, {k: cf for k, cf in bucket.items() if cf})
    return PhiRingElem(coeffs)


_FIELD2 = SymSqField(CurveParams.symbolic(2))
_SWAP = {"X1": MPoly.var("X2"), "Y1": MPoly.var("Y2"),
         "X2": MPoly.var("X1"), "Y2": MPoly.var("Y1")}


class TestAgainstExponentLoops:
    @given(mpoly_strategy(("X1", "Y1", "X2", "Y2"), max_terms=4, max_exp=5))
    def test_reduce(self, p):
        assert _FIELD2.reduce(p) == _reduce_by_exponent_loop(_FIELD2, p)

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


def test_representation_stays_in_poly():
    """Only poly.py may read an MPoly's storage (.terms / .vars)."""
    src = Path(hekdv.poly.__file__).parent
    pattern = re.compile(r"\.(terms|vars)\b")
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(src.glob("*.py")) if path.name != "poly.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
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
