import pytest
from hypothesis import given, settings, strategies as st

from conftest import mpoly_strategy
from hekdv.curve import CurveParams
from hekdv.derivations import Derivation, make_derivation, psi1, psi2
from hekdv.errors import ConfigError
from hekdv.poly import MPoly, eval_poly, variables
from hekdv.symsq import SymSqField

X1, Y1, X2, Y2 = variables("X1", "Y1", "X2", "Y2")

xy_polys = mpoly_strategy(var_names=("X1", "Y1", "X2", "Y2"),
                          max_terms=4, max_exp=2)
# denominators X1^i * X2^j * (X1 - X2)^k, the shapes every check produces
known_dens = st.tuples(*[st.integers(0, 2)] * 3).map(
    lambda ijk: X1 ** ijk[0] * X2 ** ijk[1] * (X1 - X2) ** ijk[2])


def _transfer_by_evaluation(e, target, y_images):
    """Reference transfer: evaluate num and den monomial by monomial."""
    mapping = {v: target.elem(MPoly.var(v))
               for v in e.num.variables_used() | e.den.variables_used()}
    mapping.update(X1=target.elem(X1), X2=target.elem(X2), **y_images)
    one = target.one()
    return eval_poly(e.num, mapping, one) / eval_poly(e.den, mapping, one)


def _printed_images(field, name):
    """Generator images of each derivation, one normalized element each."""
    g = field.params.genus
    dQ1, dQ2 = field.dQ1, field.dQ2
    dx = X1 - X2
    one = MPoly.const(1)
    table = {
        "D1": {"X1": (2 * Y1, one), "Y1": (dQ1, one),
               "X2": (0, one), "Y2": (0, one)},
        "D2": {"X1": (0, one), "Y1": (0, one),
               "X2": (2 * Y2, one), "Y2": (dQ2, one)},
        f"L{2 * g - 3}": {"X1": (-2 * Y1, dx), "Y1": (-1 * dQ1, dx),
                          "X2": (2 * Y2, dx), "Y2": (dQ2, dx)},
        f"L{2 * g - 1}": {"X1": (2 * X2 * Y1, dx), "Y1": (X2 * dQ1, dx),
                          "X2": (-2 * X1 * Y2, dx), "Y2": (-1 * X1 * dQ2, dx)},
        "T1": {"X1": (-2 * Y1, X1 * dx), "Y1": (-1 * dQ1, X1 * dx),
               "X2": (2 * Y2, X2 * dx), "Y2": (dQ2, X2 * dx)},
        "T3": {"X1": (2 * X2 * Y1, X1 * dx), "Y1": (X2 * dQ1, X1 * dx),
               "X2": (-2 * X1 * Y2, X2 * dx), "Y2": (-1 * X1 * dQ2, X2 * dx)},
    }
    return {v: field.elem(n, d) for v, (n, d) in table[name].items()}


def _apply_by_leibniz(field, images, e):
    """Reference application: Leibniz rule over the generator images, then
    the quotient rule, every step a normalized field operation."""
    def on_poly(p):
        total = field.zero()
        for v in ("X1", "Y1", "X2", "Y2"):
            dp = p.derivative(v)
            if not dp.is_zero:
                total = total + field.elem(dp) * images[v]
        return total

    dnum = on_poly(e.num)
    if e.den.as_constant() == 1:
        return dnum
    den_el = field.elem(e.den)
    return (dnum * den_el - field.elem(e.num) * on_poly(e.den)) / (den_el * den_el)


@pytest.fixture(scope="module")
def f3():
    return SymSqField(CurveParams.symbolic(3))


@pytest.fixture(scope="module")
def f2():
    return SymSqField(CurveParams.symbolic(2))


@pytest.fixture(scope="module")
def f32():
    return SymSqField(CurveParams.symbolic(3).specialize(y12=0, y14=0))


class TestImages:
    def test_d1(self, f3):
        D1 = make_derivation(f3, "D1")
        assert D1(f3.elem(X1)) == f3.elem(2 * Y1)
        assert D1(f3.elem(X2)).is_zero

    def test_t1_printed_images(self, f3):
        T1 = make_derivation(f3, "T1")
        dx = X1 - X2
        assert T1.images["X1"] == f3.elem(-2 * Y1, X1 * dx)
        assert T1.images["Y1"] == f3.elem(-1 * f3.dQ1, X1 * dx)
        assert T1.images["X2"] == f3.elem(2 * Y2, X2 * dx)
        assert T1.images["Y2"] == f3.elem(f3.dQ2, X2 * dx)

    def test_t3_printed_images(self, f3):
        T3 = make_derivation(f3, "T3")
        dx = X1 - X2
        assert T3.images["X1"] == f3.elem(2 * X2 * Y1, X1 * dx)
        assert T3.images["Y1"] == f3.elem(X2 * f3.dQ1, X1 * dx)
        assert T3.images["X2"] == f3.elem(-2 * X1 * Y2, X2 * dx)
        assert T3.images["Y2"] == f3.elem(-1 * X1 * f3.dQ2, X2 * dx)

    def test_genus2_operator_display(self, f2):
        # expanding the displayed total-differential form on the generators:
        # L1 sends X1 to -2Y1/(X1-X2) and Y1 to -Q'(X1)/(X1-X2)
        L1 = make_derivation(f2, "L1")
        dx = X1 - X2
        assert L1(f2.elem(X1)) == f2.elem(-2 * Y1, dx)
        assert L1(f2.elem(Y1)) == f2.elem(-1 * f2.dQ1, dx)
        L3 = make_derivation(f2, "L3")
        assert L3(f2.elem(X1)) == f2.elem(2 * X2 * Y1, dx)
        assert L3(f2.elem(Y2)) == f2.elem(-1 * X1 * f2.dQ2, dx)

    def test_t_flows_need_genus3(self, f2):
        with pytest.raises(ConfigError):
            make_derivation(f2, "T1")

    def test_unknown_name(self, f3):
        with pytest.raises(ConfigError):
            make_derivation(f3, "L1")   # genus-3 names are L3, L5


class TestStructure:
    @pytest.mark.parametrize("name", ["D1", "D2", "L3", "L5", "T1", "T3"])
    def test_curve_compatibility(self, f3, name):
        assert make_derivation(f3, name).check_compatible()

    @pytest.mark.parametrize("gen", ["X1", "Y1", "X2", "Y2"])
    def test_changed_coefficient_is_incompatible(self, f3, gen):
        T3 = make_derivation(f3, "T3")
        coeffs = dict(T3.coeffs)
        coeffs[gen] = coeffs[gen] + X1 * X2
        assert not Derivation("T3", f3, coeffs, T3.den).check_compatible()

    def test_commutators_vanish(self, f3):
        L3 = make_derivation(f3, "L3")
        L5 = make_derivation(f3, "L5")
        T1 = make_derivation(f3, "T1")
        T3 = make_derivation(f3, "T3")
        for v in f3.gens().values():
            assert L3.commutator_on(L5, v).is_zero
            assert T1.commutator_on(T3, v).is_zero

    def test_derive_on_abcd(self, f3):
        L3 = make_derivation(f3, "L3")
        T1 = make_derivation(f3, "T1")
        ab = f3.abcd()
        assert L3(ab["a"]) == -1 * ab["c"]
        want = (ab["a"] * ab["c"] - ab["d"]) / (ab["b"] - ab["a"] ** 2)
        assert T1(ab["a"]) == want


class TestQuotientRule:
    @given(xy_polys, known_dens)
    @settings(max_examples=25)
    def test_matches_leibniz_application(self, f3, f2, num, den):
        for field, names in ((f3, ("D1", "D2", "L3", "L5", "T1", "T3")),
                             (f2, ("D1", "D2", "L1", "L3"))):
            e = field.elem(num, den)
            for name in names:
                got = make_derivation(field, name)(e)
                want = _apply_by_leibniz(field, _printed_images(field, name), e)
                assert got.num == want.num and got.den == want.den, name


class TestTransfer:
    def test_round_trips(self, f2, f32):
        for v in ("X1", "Y1", "X2", "Y2"):
            e2 = f2.elem(MPoly.var(v))
            assert psi2(psi1(e2, f32), f2) == e2
            e3 = f32.elem(MPoly.var(v))
            assert psi1(psi2(e3, f2), f32) == e3

    def test_c_image(self, f2, f32):
        # the c-generator maps to (ac - d)/(a^2 - b) on the degenerate square
        ab2 = f2.abcd()
        ab3 = f32.abcd()
        lhs = psi1(ab2["c"], f32)
        rhs = (ab3["a"] * ab3["c"] - ab3["d"]) / (ab3["a"] ** 2 - ab3["b"])
        assert lhs == rhs

    def test_x_fixed(self, f2, f32):
        assert psi1(f2.elem(X1), f32) == f32.elem(X1)

    @given(xy_polys, known_dens)
    @settings(max_examples=25)
    def test_psi_match_evaluation(self, f2, f32, num, den):
        e2 = f2.elem(num, den)
        want = _transfer_by_evaluation(
            e2, f32, {"Y1": f32.elem(Y1, X1), "Y2": f32.elem(Y2, X2)})
        got = psi1(e2, f32)
        assert got.num == want.num and got.den == want.den
        e3 = f32.elem(num, den)
        want = _transfer_by_evaluation(
            e3, f2, {"Y1": f2.elem(X1 * Y1), "Y2": f2.elem(X2 * Y2)})
        got = psi2(e3, f2)
        assert got.num == want.num and got.den == want.den
