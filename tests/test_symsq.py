import operator
import random
from fractions import Fraction as F
from unittest.mock import patch

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from conftest import cleared_in_chart, mpoly_strategy
from hekdv.curve import CurveParams, y_symbols
from hekdv.errors import (MemoryCapExceeded, NotSymmetricError,
                          ZeroDenominatorError)
from hekdv.poly import (MPoly, Substitution, eval_poly, standard_weights,
                        sum_polys, variables, weighted_degree)
from hekdv.ratfun import RatFn
from hekdv.derivations import make_derivation, psi1, psi2
from hekdv.symsq import (SymSqField, abcd_to_xy, build_MN, x_part,
                         xy_to_abcd)

X1, Y1, X2, Y2 = variables("X1", "Y1", "X2", "Y2")
a, b, c, d = variables("a", "b", "c", "d")
y4, y6, y8, y10, y12, y14 = variables("y4", "y6", "y8", "y10", "y12", "y14")

xy_polys = mpoly_strategy(var_names=("X1", "Y1", "X2", "Y2"),
                          max_terms=4, max_exp=3)
abcd_polys = mpoly_strategy(var_names=("a", "b", "c", "d"),
                            max_terms=4, max_exp=2)


@pytest.fixture
def divide_calls(monkeypatch):
    """The (u, v) and the dividend of every MPoly.divide_out_linear call
    made in the test."""
    calls = []
    divide = MPoly.divide_out_linear

    def counted(self, *names):
        calls.append((names, self))
        return divide(self, *names)

    monkeypatch.setattr(MPoly, "divide_out_linear", counted)
    return calls


class TestReduction:
    def test_basic_rewrites(self, symbolic_field3):
        f = symbolic_field3
        Q1 = f.Q1
        assert f.reduce(Y1 ** 2) == Q1
        assert f.reduce(Y1 ** 3) == Y1 * Q1
        assert f.reduce(Y1**2 * Y2**2) == Q1 * f.Q2

    @given(xy_polys)
    def test_idempotent(self, p):
        from hekdv.curve import CurveParams
        from hekdv.symsq import SymSqField
        f = SymSqField(CurveParams.symbolic(3))
        r = f.reduce(p)
        assert f.reduce(r) == r
        assert r.degree_in("Y1") <= 1 and r.degree_in("Y2") <= 1


class TestElemNormalization:
    def test_known_factor_cancellation(self, symbolic_field3):
        f = symbolic_field3
        e = f.elem(X1 * X2 * (X1 - X2) * Y1, X1 ** 2 * X2 * (X1 - X2) ** 2)
        assert e.num == Y1 and e.den == X1 * (X1 - X2)

    def test_x1_minus_x2_stripped_after_the_monomial(self, symbolic_field3,
                                                     divide_calls):
        # the monomial step runs first, so a den it makes constant is never
        # tried for X1 - X2; a shared power of X1 - X2 is still stripped
        f = symbolic_field3
        e = f.elem(X1 * X2 * Y1, X1 * X2)
        assert e.num == Y1 and e.den == 1
        assert divide_calls == []
        e = f.elem(Y1 * (X1 - X2), (X1 - X2) ** 2)
        assert e.num == Y1 and e.den == X1 - X2
        assert divide_calls

    def test_y_cleared_from_denominator(self, symbolic_field3):
        f = symbolic_field3
        e = f.elem(MPoly.const(1), Y1)
        assert e.den.degree_in("Y1") == 0
        assert e * f.elem(Y1) == f.one()

    def test_zero(self, symbolic_field3):
        z = symbolic_field3.elem(0)
        assert z.is_zero and z.den == MPoly.const(1)

    def test_denominator_zero_after_reduction(self, symbolic_field3):
        f = symbolic_field3
        with pytest.raises(ZeroDenominatorError):
            f.elem(1, Y1 ** 2 - f.Q1)

    def test_equality_with_foreign_operands(self, symbolic_field3):
        one = symbolic_field3.one()
        assert not (one == None) and one != None  # noqa: E711
        assert not (RatFn(1) == one) and RatFn(1) != one
        assert one == 1 and not (one != 1)


class TestElemIsAFraction:
    """SymSqElem inherits RatFn's arithmetic and adds its field."""

    def test_subclass_with_the_ring_operators(self, symbolic_field3):
        from hekdv.symsq import SymSqElem
        assert issubclass(SymSqElem, RatFn)
        f = symbolic_field3
        x1, y1 = f.gens()["X1"], f.gens()["Y1"]
        assert y1 ** 2 == f.elem(f.Q1)
        assert (y1 / x1) ** -2 * f.Q1 == x1 ** 2
        assert 1 - y1 / x1 == (x1 - y1) / x1
        assert type(2 / x1) is SymSqElem and (2 / x1) * x1 == 2

    def test_unhashable(self, symbolic_field3):
        with pytest.raises(TypeError):
            hash(symbolic_field3.one())

    def test_fields_do_not_mix(self, symbolic_field3):
        other = SymSqField(CurveParams.symbolic(3))
        with pytest.raises(ValueError):
            symbolic_field3.one() + other.one()
        with pytest.raises(TypeError):
            symbolic_field3.one() + RatFn(1)

    def test_calculus_ignoring_the_curve_is_refused(self, symbolic_field3):
        y1 = symbolic_field3.gens()["Y1"]
        with pytest.raises(TypeError):
            y1.derivative("X1")
        with pytest.raises(TypeError):
            y1.subst({"Y1": X1})


class TestBridges:
    def test_a2_minus_b(self, symbolic_field3):
        f = symbolic_field3
        out = abcd_to_xy(a ** 2 - b, f)
        assert out == f.elem(X1 * X2)

    def test_cd_is_difference_quotient(self, symbolic_field3):
        f = symbolic_field3
        out = abcd_to_xy(c * d, f)
        qdiff = (f.Q1 - f.Q2).divide_out_linear("X1", "X2")
        assert out == f.elem(qdiff) * F(1, 2)

    def test_plain_a(self, symbolic_field3):
        f = symbolic_field3
        assert abcd_to_xy(a, f) == f.elem(X1 + X2) * F(1, 2)

    def test_u4_minus_u2sq_pullback(self, symbolic_field3):
        f = symbolic_field3
        assert abcd_to_xy(b - a ** 2, f) == f.elem(-1 * X1 * X2)

    def test_xy_to_abcd_examples(self):
        assert xy_to_abcd(X1 + X2) == 2 * a
        assert xy_to_abcd(X1 * X2) == a**2 - b
        assert xy_to_abcd(Y1 * Y2) == d**2 - b * c**2

    def test_antisymmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            xy_to_abcd(X1 - X2)

    @given(xy_polys)
    def test_roundtrip(self, p):
        # symmetrize under the point swap, push through the abcd chart and
        # back; equality holds in the field (reduction is a field identity)
        from hekdv.curve import CurveParams
        from hekdv.symsq import SymSqField
        f = SymSqField(CurveParams.symbolic(3))
        swap = {"X1": X2, "X2": X1, "Y1": Y2, "Y2": Y1}
        p_sym = p + p.subst({v: swap.get(v, MPoly.var(v))
                             for v in p.variables_used()})
        e = xy_to_abcd(p_sym)
        assert abcd_to_xy(e, f) == f.elem(p_sym)

    @given(abcd_polys, abcd_polys)
    @settings(max_examples=25)
    def test_abcd_to_xy_matches_per_monomial_evaluation(self, p, q):
        # reference: evaluate monomial by monomial in the field, normalizing
        # every product and partial sum; the substitution must give the same
        # (num, den) pair, which keeps residual strings unchanged
        e = p + q * y12
        for f in (SymSqField(CurveParams.symbolic(3)),
                  SymSqField(CurveParams.symbolic(3).specialize(y12=0))):
            params = {n: f.elem(f.params.coefficient(n))
                      for n in y_symbols(f.params.genus)}
            want = eval_poly(e, {**f.abcd(), **params}, one=f.one())
            got = abcd_to_xy(e, f)
            assert got.num == want.num and got.den == want.den


def _bridge_inputs(seed):
    """c^k (k = 0..4), b^i c^k d^l with partial and full cancellation of
    X1 - X2, and seeded mixed polynomials with curve parameters."""
    rng = random.Random(seed)
    out = [c ** k for k in range(5)]
    out += [b * c ** 3, b ** 2 * c ** 4 * d, b * c ** 2 * d ** 2 - c * a,
            F(3, 5) * b ** 2 * c ** 3 + y12 * c ** 4 - d, b ** 2 * c ** 2]
    params = (MPoly.const(1), y4, y8, y12, y14)
    for _ in range(12):
        e = MPoly.zero()
        for _ in range(rng.randint(1, 4)):
            term = MPoly.const(F(rng.choice((-1, 1)) * rng.randint(1, 9),
                                 rng.randint(1, 9))) * rng.choice(params)
            for v, top in ((a, 2), (b, 3), (c, 4), (d, 2)):
                term = term * v ** rng.randint(0, top)
            e = e + term
        out.append(e)
    return out


_NUMERIC3 = CurveParams.numeric(3, (0, 0, 0, 0, 1, 1))


class TestBridgeCancellation:
    """abcd_to_xy cancels the common power of s before expanding; the stored
    pair must be the per-monomial evaluation's."""

    @pytest.mark.parametrize("params", [CurveParams.symbolic(3), _NUMERIC3],
                             ids=["symbolic", "numeric"])
    def test_fixed_inputs_match_per_monomial_evaluation(self, params):
        # the reference of test_abcd_to_xy_matches_per_monomial_evaluation,
        # on c^k, b^i c^k d^l and seeded mixed inputs, on both curves
        f = SymSqField(params)
        env = {**f.abcd(), **{n: f.elem(f.params.coefficient(n))
                              for n in y_symbols(f.params.genus)}}
        partial = 0
        for e in _bridge_inputs(14):
            got = abcd_to_xy(e, f)
            want = eval_poly(e, env, one=f.one())
            assert got.num == want.num and got.den == want.den, e
            partial += got.den.degree_in("X1") > 0 and e.degree_in("b") > 0
        # some inputs keep a power of X1 - X2 that only partly cancelled
        assert partial >= 3

    def test_partial_cancellation_keeps_the_rest(self, symbolic_field3):
        got = abcd_to_xy(b * c ** 3, symbolic_field3)
        assert got.den == X1 - X2
        assert got.num == symbolic_field3.reduce((Y1 - Y2) ** 3) * F(1, 4)
        assert abcd_to_xy(b ** 2 * c ** 4, symbolic_field3).den == 1

    def test_round_trip_divides_nothing(self, symbolic_field3, divide_calls):
        f = symbolic_field3
        swap = {"X1": X2, "X2": X1, "Y1": Y2, "Y2": Y1}
        for p in (Y1 * X2 ** 2 + X1 * Y2 ** 3, Y1 ** 3 * Y2 - X1 ** 4,
                  F(2, 3) * X1 * Y1 * Y2 ** 2 + Y1 + 5):
            p_sym = p + p.subst(swap)
            r = abcd_to_xy(xy_to_abcd(p_sym), f)
            assert r == f.elem(p_sym)
        assert divide_calls == []


# the parameters are not integers, so the numeric square's parameter images
# are constants unlike the symbolic square's symbols
_FRACTIONAL3 = CurveParams.numeric(
    3, (F(1, 3), F(-2, 5), F(3, 7), F(-1, 2), F(5, 4), F(2, 9)))

# two squares that outlive the examples, so their kept powers stay warm
_WARM_SQUARES = (SymSqField(CurveParams.symbolic(3)), SymSqField(_FRACTIONAL3))

_SWAP = {"X1": X2, "X2": X1, "Y1": Y2, "Y2": Y1}


def _with_substitutions(run):
    """run() and the (mapping, input, result) of each Substitution call in it."""
    calls = []
    call = Substitution.__call__

    def recorded(self, p):
        out = call(self, p)
        calls.append((self.mapping, p, out))
        return out

    with patch.object(Substitution, "__call__", recorded):
        return run(), calls


class TestKeptPowers:
    """The bridges keep their powers across calls and across the squares:
    every warm result is the result of a fresh substitution."""

    @seed(29)
    @settings(max_examples=12)
    @given(st.lists(st.tuples(mpoly_strategy(("X1", "Y1", "X2", "Y2"),
                                             max_terms=3, max_exp=2),
                              st.sampled_from(y_symbols(3)),
                              st.integers(1, 2)),
                    min_size=1, max_size=3))
    def test_warm_bridges_match_fresh_substitutions(self, inputs):
        def round_trips():
            out = []
            for p, y, k in inputs:
                p_sym = p + p.subst(_SWAP)
                e = xy_to_abcd(p_sym)
                for f in _WARM_SQUARES:
                    r = abcd_to_xy(e, f)
                    assert r == f.elem(p_sym)
                    ry = abcd_to_xy(e * MPoly.var(y, k), f)
                    assert ry == r * f.elem(f.params.coefficient(y) ** k)
                    out.append([list(q.monomials())
                                for q in (e, r.num, r.den, ry.num, ry.den)])
            return out

        cold, calls = _with_substitutions(round_trips)
        warm, more = _with_substitutions(round_trips)
        assert warm == cold
        for mapping, p, got in calls + more:
            want = p.subst(mapping)
            assert got == want
            assert list(got.monomials()) == list(want.monomials())


def _one_block(field):
    """One substitution of a, c, d, s and the curve parameters together,
    as abcd_to_xy evaluated before it grouped by the (c, d) monomial."""
    mapping = {n: field.params.coefficient(n)
               for n in y_symbols(field.params.genus)}
    mapping.update(a=(X1 + X2) * F(1, 2), c=Y1 - Y2, d=(Y1 + Y2) * F(1, 2),
                   s=(X1 - X2) * F(1, 2))
    return Substitution(mapping)


# a numeric square whose zero parameters make some images the constant 0
_ZEROS3 = SymSqField(_NUMERIC3)
_chart_polys = mpoly_strategy(("a", "b", "c", "d", "s"), max_terms=4,
                              max_exp=2)
_block_inputs = st.one_of(
    st.tuples(_chart_polys,
              mpoly_strategy(y_symbols(3), max_terms=2, max_exp=1)).map(
        lambda t: t[0] * t[1]),
    mpoly_strategy(("c", "d"), max_terms=3, max_exp=3),
    mpoly_strategy(("a", "b", "s", "y4", "y12"), max_terms=4, max_exp=2))


class TestBlockEvaluation:
    """abcd_to_xy evaluates the X block of each (c, d) monomial's group and
    multiplies it by the Y block image of the monomial: the value of one
    substitution of every variable at once."""

    @seed(33)
    @settings(max_examples=40)
    @given(_block_inputs, st.sampled_from((1, F(-6, 35), 12)))
    @example(MPoly.zero(), 1)
    @example(c ** 3 * d - F(2, 3) * d ** 2 + c, F(5, 4))
    @example(a ** 2 * b - F(7, 2) * y12 * MPoly.var("s") + 3, 1)
    def test_blocks_equal_one_substitution(self, p, scale):
        p = p * scale
        num, k, j = cleared_in_chart(p, "c", "s", 2, "b")
        for f in (_WARM_SQUARES[0], _ZEROS3):
            want = _one_block(f)(num) * F(1, 2 ** j)
            groups, e = p.chart_groups("c", "s", 2, "b", ("c", "d"))
            sub = f.to_xy()
            got = sum_polys(sub(x) * sub.image(y) for x, y in groups)
            assert e == k - j and got == want
            r, w = abcd_to_xy(p, f), f.over(want, (0, 0, e))
            assert (r.num, r.den) == (w.num, w.den)

    def test_images_of_the_y_block_are_kept(self):
        f = SymSqField(CurveParams.symbolic(3))
        sub = f.to_xy()
        for _ in range(2):
            image = sub.image(c ** 2 * d)
            assert image == (Y1 - Y2) ** 2 * (Y1 + Y2) * F(1, 2)
        assert sub.image(c ** 2 * d) is image and sub.image(MPoly.const(1)) == 1

    def test_cap_still_bounds_the_products(self, monkeypatch):
        # 0.002 MB caps a product at 10 terms: the small input evaluates,
        # the large one raises in both evaluations, as before the grouping
        f = SymSqField(CurveParams.symbolic(3))
        small = F(2, 3) * a * c + d
        large = (a + b + c + d + y12) ** 3
        num, _, _ = cleared_in_chart(large, "c", "s", 2, "b")
        monkeypatch.setenv("HEKDV_MEM_CAP_MB", "0.002")
        got, want = abcd_to_xy(small, f), abcd_to_xy(small, _WARM_SQUARES[0])
        assert (got.num, got.den) == (want.num, want.den)
        with pytest.raises(MemoryCapExceeded):
            abcd_to_xy(large, f)
        with pytest.raises(MemoryCapExceeded):
            _one_block(f)(num)


# Y-exponents capped at 1 so conjugate clearing stays small; reduction of
# higher Y powers is covered separately by TestReduction
def _flat_xy_polys():
    from hypothesis import strategies as st
    from conftest import nonzero_fractions
    expo = st.tuples(st.integers(0, 2), st.integers(0, 1),
                     st.integers(0, 2), st.integers(0, 1))
    term = st.tuples(expo, nonzero_fractions)
    return st.lists(term, min_size=0, max_size=3).map(
        lambda terms: MPoly.from_terms(("X1", "Y1", "X2", "Y2"), dict(terms)))


class TestFieldAxioms:
    @given(_flat_xy_polys(), _flat_xy_polys(), _flat_xy_polys())
    @settings(max_examples=15)
    def test_distributive_in_quotient(self, p, q, r):
        from hekdv.curve import CurveParams
        from hekdv.symsq import SymSqField
        f = SymSqField(CurveParams.symbolic(3))
        e1, e2, e3 = f.elem(p), f.elem(q), f.elem(r)
        assert (e1 + e2) * e3 == e1 * e3 + e2 * e3

    @given(_flat_xy_polys())
    @settings(max_examples=15)
    def test_self_division_through_conjugates(self, p):
        # division by elements with Y parts exercises conjugate clearing
        from hekdv.curve import CurveParams
        from hekdv.symsq import SymSqField
        f = SymSqField(CurveParams.symbolic(3))
        e = f.elem(p)
        if e.is_zero:
            return
        assert e / e == f.one()
        assert (f.one() / e) * e == f.one()

    @given(_flat_xy_polys(), _flat_xy_polys())
    @settings(max_examples=15)
    def test_elem_is_multiplicative(self, p, q):
        from hekdv.curve import CurveParams
        from hekdv.symsq import SymSqField
        f = SymSqField(CurveParams.symbolic(3))
        assert f.elem(p * q) == f.elem(p) * f.elem(q)


class TestRelations:
    def test_printed_genus2(self):
        M2, N2t = build_MN(CurveParams.symbolic(2))
        want_m = (-5*a**4 - 10*a**2*b - b**2 + 2*c*d
                  - y4*(3*a**2 + b) + 2*y6*a - y8)
        want_n = (-4*a**5 + 4*a*b**2 - c**2*b + 2*a*c*d - d**2
                  + 2*y4*(-1*a**3 + a*b) + y6*(a**2 - b) - y10)
        assert M2 == want_m
        assert N2t == want_n

    def test_printed_genus3(self):
        M3, N3t = build_MN(CurveParams.symbolic(3))
        want_m = (2*c*d - 7*a**6 - 35*a**4*b - 21*a**2*b**2 - b**3
                  - y4*(5*a**4 + 10*a**2*b + b**2) + 4*y6*(a**3 + a*b)
                  - y8*(3*a**2 + b) + 2*y10*a - y12)
        want_n = (-1*d**2 - b*c**2 + 2*a*c*d - 6*a**7 - 14*a**5*b
                  + 14*a**3*b**2 + 6*a*b**3 - 4*y4*(a**5 - a*b**2)
                  + y6*(3*a**4 - 2*a**2*b - b**2) - 2*y8*(a**3 - a*b)
                  + y10*(a**2 - b) - y14)
        assert M3 == want_m
        assert N3t == want_n

    def test_weights(self):
        M3, N3t = build_MN(CurveParams.symbolic(3))
        w = standard_weights(3)
        assert weighted_degree(M3, w) == 12
        assert weighted_degree(N3t, w) == 14

    def test_vanish_on_square(self, symbolic_field3):
        M3, N3t = build_MN(CurveParams.symbolic(3))
        assert abcd_to_xy(M3, symbolic_field3).is_zero
        assert abcd_to_xy(N3t, symbolic_field3).is_zero


# The reference normal form on expanded polynomials: Y-reduction, conjugate
# clearing of a Y-denominator, then the common powers of X1, X2 and X1 - X2
# stripped and the denominator scaled to content 1 and a positive leading
# coefficient.
def _strip_known_factors(num, den):
    """Cancel common powers of X1, X2 and (X1 - X2); cheap and exact."""
    for name in ("X1", "X2"):
        kd = den.min_degree_in(name)
        if kd:
            kn = num.min_degree_in(name)
            k = min(kd, kn)
            if k:
                mono = MPoly.var(name, k)
                num = num.exact_div(mono)
                den = den.exact_div(mono)
    while den.degree_in("X1") or den.degree_in("X2"):
        dq = den.divide_out_linear("X1", "X2")
        if dq is None:
            break
        nq = num.divide_out_linear("X1", "X2")
        if nq is None:
            break
        num, den = nq, dq
    return num, den


def _strip_and_scale(num, den):
    if num.is_zero:
        num, den = MPoly.zero(), MPoly.const(1)
    else:
        num, den = _strip_known_factors(num, den)
        dc = den.as_constant()
        if dc is not None:
            num = num * (F(1) / dc)
            den = MPoly.const(1)
        else:
            scale = den.content()
            if den.leading()[1] < 0:
                scale = -scale
            num = num * (F(1) / scale)
            den = den * (F(1) / scale)
    return num, den


def _reference_pair(field, num, den):
    """The reference (num, den) pair of num/den."""
    num, den = field.reduce(num), field.reduce(den)
    for yvar in ("Y1", "Y2"):
        if den.degree_in(yvar):
            parts = den.coeffs_in(yvar)
            zero = MPoly.zero()
            conj = parts.get(0, zero) - MPoly.var(yvar) * parts.get(1, zero)
            num, den = field.reduce(num * conj), field.reduce(den * conj)
    return _strip_and_scale(num, den)


_powers = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))


def _on_square_shape(p, powers):
    i, j, k = powers
    return p * X1**i * X2**j * (X1 - X2)**k


class TestNormalForm:
    @given(mpoly_strategy(var_names=("X1", "Y1", "X2", "Y2"), max_terms=3, max_exp=2),
           _powers,
           mpoly_strategy(var_names=("X1", "X2"), max_terms=3, max_exp=2)
           .filter(bool),
           _powers)
    def test_matches_strip_and_scale(self, symbolic_field3, n, n_powers, d,
                                     d_powers):
        # numerators and Y-free denominators c*X1^i*X2^j*(X1-X2)^k times a
        # cofactor in X1 and X2, factored once by elem(num, den)
        f = symbolic_field3
        num = _on_square_shape(n, n_powers)
        den = _on_square_shape(d, d_powers)
        e = f.elem(num, den)
        want_num, want_den = _strip_and_scale(f.reduce(num), den)
        assert e.num == want_num and e.den == want_den
        rest = MPoly.const(1) if e.den_rest is None else e.den_rest
        assert e.den == x_part(*e.den_exps) * rest


# numeric squares keep the products of cleared conjugates small: Q is
# X^5 + X + 1 and X^7 + X^3 + X^2, the second of the degenerate shape
# (y12 = y14 = 0) the transfer maps go to
_SMALL2 = SymSqField(CurveParams.numeric(2, (0, 0, 1, -1)))
_SMALL3 = SymSqField(CurveParams.numeric(3, (0, 0, 1, -1, 0, 0)))

# denominators of every shape: a scaled X1^i*X2^j*(X1-X2)^k, that times a
# cofactor in X1 and X2, and one with Y1 or Y2, cleared by its conjugate
_xdens = st.one_of(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
              st.sampled_from((1, -2, F(3, 5)))).map(
        lambda t: x_part(*t[:3]) * t[3]),
    st.tuples(mpoly_strategy(("X1", "X2"), max_terms=2, max_exp=2).filter(bool),
              st.tuples(*[st.integers(0, 1)] * 3)).map(
        lambda t: t[0] * x_part(*t[1])))
_ydens = mpoly_strategy(("X1", "Y1", "X2", "Y2"), max_terms=2, max_exp=1).filter(
    lambda p: p.degree_in("Y1") or p.degree_in("Y2"))
_nums = mpoly_strategy(("X1", "Y1", "X2", "Y2"), max_terms=3, max_exp=2)
_fractions = st.tuples(_nums, st.one_of(_xdens, _ydens))
# Y-free numerators too, whose elements divide without conjugates
_xfractions = st.tuples(
    st.one_of(_nums, mpoly_strategy(("X1", "X2"), max_terms=3, max_exp=2)),
    _xdens)


def _reference_apply(D, num, den):
    """The quotient rule on expanded polynomials: (den(D)*d^2, numerator)."""
    total = sum_polys(c * (den * num.derivative(v) - num * den.derivative(v))
                      for v, c in D.coeffs.items() if not c.is_zero)
    return x_part(*D.den) * den * den, total


class TestFactoredDenominators:
    """Every operation gives the reference pair of the expanded operands:
    their pairs cross-multiplied, then reduced, cleared and stripped."""

    @settings(max_examples=30)
    @given(_fractions, _xfractions, st.integers(-2, 3))
    def test_arithmetic_matches_the_expanded_pairs(self, x, y, n):
        # x may have a Y-denominator; y, whose powers are taken too, not
        f = _SMALL2
        ex, ey = f.elem(*x), f.elem(*y)
        (a, b), (c, d) = _reference_pair(f, *x), _reference_pair(f, *y)
        assert (ex.num, ex.den) == (a, b) and (ey.num, ey.den) == (c, d)
        assert (ex == ey) is (a * d - c * b).is_zero
        cases = [(operator.add, (a * d + c * b, b * d)),
                 (operator.sub, (a * d - c * b, b * d)),
                 (operator.mul, (a * c, b * d))]
        if c:
            cases.append((operator.truediv, (a * d, b * c)))
        for op, want in cases:
            got = op(ex, ey)
            assert (got.num, got.den) == _reference_pair(f, *want), op
        if n >= 0 or c:
            got = ey ** n
            want = (c ** n, d ** n) if n >= 0 else (d ** -n, c ** -n)
            assert (got.num, got.den) == _reference_pair(f, *want)

    @settings(max_examples=20)
    @given(_fractions)
    def test_derivations_match_the_expanded_quotient_rule(self, x):
        for f, names in ((_SMALL3, ("D1", "L3", "L5", "T1", "T3")),
                         (_SMALL2, ("D2", "L1", "L3"))):
            e = f.elem(*x)
            for name in names:
                D = make_derivation(f, name)
                got = D(e)
                den, total = _reference_apply(D, e.num, e.den)
                assert (got.num, got.den) == _reference_pair(f, total, den), name

    @settings(max_examples=20)
    @given(_fractions)
    def test_transfers_match_the_expanded_maps(self, x):
        f2, f32 = _SMALL2, _SMALL3
        e = f2.elem(*x)
        num, k1 = e.num.clear_denominator("Y1", X1)
        num, k2 = num.clear_denominator("Y2", X2)
        got = psi1(e, f32)
        assert (got.num, got.den) == _reference_pair(f32, num, e.den * X1 ** k1
                                               * X2 ** k2)
        e = f32.elem(*x)
        got = psi2(e, f2)
        want = _reference_pair(f2, e.num.subst({"Y1": X1 * Y1, "Y2": X2 * Y2}),
                         e.den)
        assert (got.num, got.den) == want

    @settings(max_examples=20)
    @given(abcd_polys)
    def test_abcd_to_xy_matches_the_expanded_denominator(self, p):
        f = _WARM_SQUARES[0]
        num, k, j = cleared_in_chart(p, "c", "s", 2, "b")
        want = _reference_pair(f, _one_block(f)(num),
                               (X1 - X2) ** (k - j) * 2 ** j)
        got = abcd_to_xy(p, f)
        assert (got.num, got.den) == want

    def test_equality_compares_the_stored_form(self, symbolic_field3):
        f = symbolic_field3
        x = f.elem(Y1, X1 - X2)
        assert x == f.elem(X2 * Y1, X2 * (X1 - X2)) and x * (X1 - X2) == Y1
        assert x != f.elem(Y1, X1) and x != f.elem(Y1) and x != 0
        # a cofactor other than 1 is compared by cross-multiplication
        y = f.elem(Y1, X1 + 1)
        assert y.den_rest == X1 + 1 and y == f.elem(X2 * Y1, X2 * (X1 + 1))
        assert y != x and y != f.elem(Y1, X1 + 2)

    def test_product_divides_only_numerators(self, symbolic_field3,
                                             divide_calls):
        # (Y1 - Y2)(Y1 + Y2) reduces to Q(X1) - Q(X2), a multiple of
        # X1 - X2: the product cancels one of its k = 2 powers, and its
        # denominator, never formed, is never divided
        f = symbolic_field3
        x = f.elem(Y1 - Y2, X1 - X2)
        y = f.elem(Y1 + Y2, X1 - X2)
        divide_calls.clear()
        got = x * y
        dividends = [p for _, p in divide_calls]
        q = f.Q1 - f.Q2
        assert dividends[0] == q and len(dividends) <= 2
        assert all(p.degree_in("Y1") == 0 and p != (X1 - X2) ** 2
                   for p in dividends)
        assert got.den_exps == (0, 0, 1) and got.den == X1 - X2
        assert got.num == q.divide_out_linear("X1", "X2")
