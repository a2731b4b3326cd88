"""Independent oracles: sympy re-decides what the sparse ``MPoly`` kernel and
the dense univariate routines of ``poly`` compute, the u-space identities
the verifier certifies (first integrals, Hamiltonian form, involution) from
the same transcribed tables, and the rational-limit solution pair from the
Schur polynomials; the code the dense routines replaced is kept here as a
reference.

Resultants are checked against the determinant of the Sylvester matrix, not
against ``sympy.resultant``: sympy 1.14 returns 5 for X^3 - X + 1 and
X^5 + 2, where the Sylvester determinant and the product over the roots
both give -5.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import mpoly_strategy, small_fractions
from hekdv.algnum import AlgNum
from hekdv.curve import sylvester_resultant
from hekdv.errors import ZeroDivisorError
from hekdv.phiring import (MINPOLY_Q, PhiRingElem, printed_forms,
                           sextic_relation, verify_appendix_forms)
from hekdv.poly import MPoly, dense_divmod, dense_inverse, dense_mul, dense_trim
from hekdv.ratfun import RatFn
from hekdv.ratlimit import (printed_U, printed_V, sigma_rational,
                            uv_closed_form, verify_uv_closed_form)
from hekdv.series import PSeries
from hekdv.tables import (FLOW_IDS, U_VARS, PoissonStructure, first_integrals,
                          flow_table, structure_I, structure_II)

sympy = pytest.importorskip("sympy")

F = Fraction
X = sympy.Symbol("X")
ZERO = F(0)

coeff_lists = st.lists(small_fractions, max_size=7)
nonzero_lists = coeff_lists.map(dense_trim).filter(bool)


def to_sympy(v):
    """Dense Fraction list (constant first) as a sympy polynomial in X."""
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(v)] or [0], X, domain="QQ")


def from_sympy(p):
    return dense_trim(F(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


def mpoly_to_sympy(p):
    out = sympy.Integer(0)
    for mono, c in p.monomials():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in mono:
            term *= sympy.Symbol(v) ** e
        out += term
    return out


# sympy is slow per call; fewer examples keep this file near 1.5 s
oracle_settings = settings(max_examples=10)


class TestDenseAgainstSympy:
    @oracle_settings
    @given(coeff_lists, coeff_lists, st.integers(0, 10))
    def test_mul_and_cut_mul(self, a, b, n):
        full = from_sympy(to_sympy(a) * to_sympy(b))
        assert dense_mul(a, b) == full
        assert dense_mul(a, b, n) == dense_trim(full[:n])

    @oracle_settings
    @given(coeff_lists, nonzero_lists)
    def test_divmod(self, a, b):
        q, r = sympy.div(to_sympy(a), to_sympy(b))
        assert dense_divmod(a, b) == (from_sympy(q), from_sympy(r))

    @oracle_settings
    @given(st.lists(small_fractions, max_size=6))
    def test_inverse_modulo_minpoly(self, a):
        assume(any(a))
        want = sympy.invert(to_sympy(a), to_sympy(MINPOLY_Q))
        assert dense_inverse(a, MINPOLY_Q) == from_sympy(want)

    @oracle_settings
    @given(nonzero_lists, nonzero_lists)
    def test_inverse_or_common_factor(self, m, a):
        m = m + [F(1)]          # monic of degree >= 1
        a = a[:len(m) - 1]
        try:
            want = from_sympy(sympy.invert(to_sympy(a), to_sympy(m)))
        except sympy.polys.polyerrors.NotInvertible:
            want = None
        assert dense_inverse(a, m) == want

    @pytest.mark.parametrize("a, m", [
        ([], [F(-1), ZERO, F(1)]),
        ([F(-1), F(1)], [F(-1), ZERO, F(1)]),
        ([F(2), F(3), F(1)], [F(2), F(2), ZERO, F(1), F(1)]),
    ])
    def test_common_factor_has_no_inverse(self, a, m):
        with pytest.raises(sympy.polys.polyerrors.NotInvertible):
            sympy.invert(to_sympy(a), to_sympy(m))
        assert dense_inverse(a, m) is None


phi_w_polys = mpoly_strategy(("w3", "w5", "phi"), max_terms=3, max_exp=5)


class TestPhiRingAgainstSympy:
    @staticmethod
    def as_sympy(x):
        phi = sympy.Symbol("phi")
        return sum((mpoly_to_sympy(c) * phi ** k
                    for k, c in enumerate(x.coeffs)), sympy.Integer(0))

    @oracle_settings
    @given(phi_w_polys, phi_w_polys)
    def test_product_is_remainder_by_sextic(self, f, g):
        phi = sympy.Symbol("phi")
        want = sympy.rem(mpoly_to_sympy(f * g), mpoly_to_sympy(sextic_relation()),
                         phi)
        got = PhiRingElem.from_mpoly(f) * PhiRingElem.from_mpoly(g)
        assert sympy.expand(self.as_sympy(got) - want) == 0


# Q[q]/(q^6 - 15q^3 - 45) of ex-A.3, and q^2 - 1, which has zero divisors
ALGNUM_MODULI = st.sampled_from([MINPOLY_Q, (F(-1), ZERO, F(1))])
# up to q^8, so a representative may need reducing
algnum_lists = st.lists(small_fractions, max_size=9)


class TestAlgNumAgainstSympy:
    @oracle_settings
    @given(ALGNUM_MODULI, algnum_lists, algnum_lists)
    def test_product_is_sympy_rem(self, m, a, b):
        want = sympy.rem(to_sympy(a) * to_sympy(b), to_sympy(m))
        got = AlgNum(m, a) * AlgNum(m, b)
        assert got.poly.degree_in("q") < len(m) - 1
        assert got == AlgNum(m, from_sympy(want))

    @oracle_settings
    @given(ALGNUM_MODULI, algnum_lists)
    def test_inverse_is_sympy_invert(self, m, a):
        try:
            want = from_sympy(sympy.invert(to_sympy(a), to_sympy(m)))
        except sympy.polys.polyerrors.NotInvertible:
            with pytest.raises(ZeroDivisorError):
                AlgNum(m, a).inverse()
            return
        assert AlgNum(m, a).inverse() == AlgNum(m, want)


# a dividend up to phi^14, so a low monic divisor needs several passes
rem_dividends = mpoly_strategy(("w3", "w5", "phi"), max_terms=4, max_exp=14)


@st.composite
def monic_divisors(draw):
    """(degree, tail) of a monic phi^degree - tail: the tail has phi-degree
    below degree and integer coefficients, so an integer content."""
    degree = draw(st.integers(1, 6))
    expo = st.tuples(st.integers(0, 3), st.integers(0, 3),
                     st.integers(0, degree - 1))
    terms = draw(st.dictionaries(expo, st.integers(-20, 20).filter(bool),
                                 max_size=3))
    return degree, MPoly.from_terms(("w3", "w5", "phi"), terms)


class TestRemMonicAgainstSympy:
    @oracle_settings
    @given(rem_dividends, monic_divisors())
    def test_remainder_is_sympy_rem(self, f, divisor):
        degree, tail = divisor
        phi = sympy.Symbol("phi")
        want = sympy.rem(mpoly_to_sympy(f),
                         phi ** degree - mpoly_to_sympy(tail), phi)
        got = f.rem_monic("phi", degree, tail)
        assert got.degree_in("phi") < degree
        assert sympy.expand(mpoly_to_sympy(got) - want) == 0


# variables in SYMBOL_ORDER, so sympy's lex order is the kernel's term order
KERNEL_VARS = ("X1", "Y1", "X2", "a", "b")
GENS = tuple(sympy.Symbol(v) for v in KERNEL_VARS)
kernel_polys = mpoly_strategy(KERNEL_VARS, max_terms=4, max_exp=3)
kernel_vars = st.sampled_from(KERNEL_VARS)


def kernel_poly(p):
    return sympy.Poly(mpoly_to_sympy(p), *GENS, domain="QQ")


def term_poly(monom, c):
    """The MPoly of one sympy term: exponents over GENS, a QQ coefficient."""
    term = MPoly.const(F(int(c.numerator), int(c.denominator)))
    for v, e in zip(KERNEL_VARS, monom):
        term = term * MPoly.var(v, e)
    return term


class TestMPolyAgainstSympy:
    @oracle_settings
    @given(kernel_polys, kernel_polys)
    def test_add_and_mul(self, f, g):
        assert kernel_poly(f + g) == kernel_poly(f) + kernel_poly(g)
        assert kernel_poly(f * g) == kernel_poly(f) * kernel_poly(g)

    @oracle_settings
    @given(kernel_polys, kernel_vars)
    def test_derivative_and_degree(self, f, v):
        x = sympy.Symbol(v)
        assert kernel_poly(f.derivative(v)) == kernel_poly(f).diff(x)
        assert f.degree_in(v) == max(kernel_poly(f).degree(x), 0)

    @oracle_settings
    @given(kernel_polys, kernel_vars)
    def test_coeffs_in(self, f, v):
        x = sympy.Symbol(v)
        want = {k: sympy.expand(c) for (k,), c in
                sympy.Poly(mpoly_to_sympy(f), x).as_dict().items() if c}
        got = {e: sympy.expand(mpoly_to_sympy(c))
               for e, c in f.coeffs_in(v).items()}
        assert got == want

    @staticmethod
    def check_quotient(got, p, d):
        """`got`, the kernel's quotient p/d or None, against sympy.div."""
        q, r = sympy.div(kernel_poly(p), kernel_poly(d))
        if r.is_zero:
            assert got is not None and kernel_poly(got) == q
        else:
            assert got is None

    @oracle_settings
    @given(kernel_polys, kernel_polys)
    def test_divide_out_difference(self, f, r):
        d = MPoly.var("X1") - MPoly.var("X2")
        for p in (f * d, f * d + r, f):
            self.check_quotient(p.divide_out_linear("X1", "X2"), p, d)

    @oracle_settings
    @given(kernel_polys, kernel_polys, small_fractions.filter(bool),
           kernel_vars, st.integers(0, 3), kernel_vars, st.integers(0, 3))
    def test_exact_div_by_monomial(self, f, r, c, v, i, w, j):
        d = MPoly.var(v, i) * MPoly.var(w, j) * c
        for p in (f * d, f * d + r, f):
            self.check_quotient(p.exact_div(d), p, d)

    @oracle_settings
    @given(kernel_polys)
    def test_to_str_lists_terms_in_lex_order(self, f):
        sp = kernel_poly(f)      # monoms() and coeffs() come in lex order
        parts = [term_poly(m, c).to_str() for m, c in zip(sp.monoms(),
                                                         sp.coeffs()) if c]
        want = "".join(s if n == 0 or s.startswith("-") else "+" + s
                       for n, s in enumerate(parts)) or "0"
        assert f.to_str() == want


# -- the u-space suites, re-decided by sympy from the transcribed inputs -----

def ratfn_to_sympy(rf):
    return mpoly_to_sympy(rf.num) / mpoly_to_sympy(rf.den)


def flow_derivative(h, table):
    """The derivative of sympy expression h along a flow table."""
    return sum(sympy.diff(h, sympy.Symbol(u)) * ratfn_to_sympy(table.entries[u])
               for u in U_VARS)


def bracket(f, g, structure):
    """{f, g} of sympy expressions from the bracket's table of pairs."""
    total = sympy.Integer(0)
    for (vi, vj), c in structure.table.items():
        xi, xj = sympy.Symbol(vi), sympy.Symbol(vj)
        total += sympy.Rational(c.numerator, c.denominator) * (
            sympy.diff(f, xi) * sympy.diff(g, xj)
            - sympy.diff(f, xj) * sympy.diff(g, xi))
    return total


def vanishes(expr):
    return sympy.cancel(sympy.together(expr)) == 0


U_DELTA = MPoly.var("u2") * MPoly.var("u5") * F(3, 7)


class TestUSpaceAgainstSympy:
    """The first-integrals and hamiltonian-form suites, decided by sympy."""

    @pytest.fixture(scope="class")
    def integrals(self):
        return tuple(ratfn_to_sympy(h) for h in first_integrals())

    @pytest.mark.parametrize("flow", FLOW_IDS)
    def test_integrals_invariant(self, integrals, flow):
        table = flow_table(flow)
        for h in integrals:
            assert vanishes(flow_derivative(h, table))

    def test_hamiltonian_form(self, integrals):
        h12, h14 = integrals
        for flow, h, structure in (("I", h12, structure_I()),
                                   ("II", h14, structure_II())):
            table = flow_table(flow)
            for u in U_VARS:
                want = ratfn_to_sympy(table.entries[u])
                assert vanishes(bracket(sympy.Symbol(u), h, structure) - want)

    def test_integrals_in_involution(self, integrals):
        for structure in (structure_I(), structure_II()):
            assert vanishes(bracket(*integrals, structure))

    @pytest.mark.parametrize("flow, u", [("I", "u5"), ("T3", "u2")])
    def test_mutated_table_has_residual(self, integrals, flow, u):
        table = flow_table(flow).mutated(u, U_DELTA)
        assert not all(vanishes(flow_derivative(h, table)) for h in integrals)

    @pytest.mark.parametrize("which", [0, 1])
    def test_mutated_integral_has_residual(self, which):
        bad = list(first_integrals())
        bad[which] = bad[which] + U_DELTA
        h = ratfn_to_sympy(bad[which])
        assert not all(vanishes(flow_derivative(h, flow_table(flow)))
                       for flow in FLOW_IDS)

    def test_mutated_bracket_has_residual(self, integrals):
        table = dict(structure_I().table)
        table[("u2", "u7")] += F(1, 3)
        bad = PoissonStructure("I", table)
        h12 = integrals[0]
        flow = flow_table("I")
        assert not all(
            vanishes(bracket(sympy.Symbol(u), h12, bad)
                     - ratfn_to_sympy(flow.entries[u])) for u in U_VARS)


# -- the rational limit, re-derived by sympy from the Schur polynomials -----

W1, W3, W5, XS, TS = sympy.symbols("w1 w3 w5 x t")


def to_xt(expr):
    """Rename (w1, w3) into the solution variables (x, t)."""
    return expr.subs({W1: XS, W3: TS}, simultaneous=True)


def kdv_residuals_sympy(U, V):
    Up, Udot = sympy.diff(U, XS), sympy.diff(U, TS)
    return (sympy.diff(U, XS, 3) - 4 * Udot - 6 * U * Up,
            sympy.diff(Udot, XS, 2) - 4 * U * Udot - 2 * Up * V,
            Udot - sympy.diff(V, XS))


class TestRationalLimitAgainstSympy:
    """The sec-8-UV, thm-8.1 and sec-8-DE identities, decided by sympy."""

    @pytest.fixture(scope="class")
    def uv(self):
        sigma = mpoly_to_sympy(sigma_rational(3).sigma)
        # sigma is linear in w5, so the divisor sigma = 0 is w5 = xi(w1, w3)
        assert sympy.diff(sigma, W5, 2) == 0
        xi = sympy.cancel(-sigma.subs(W5, 0) / sympy.diff(sigma, W5))
        s1, s3, s5 = (sympy.diff(sigma, w).subs(W5, xi) for w in (W1, W3, W5))
        U = sympy.cancel(to_xt(-2 * s3 / s1))
        V = sympy.cancel(to_xt(-2 * s5 / s1))
        return U, V

    def test_printed_closed_forms(self, uv):
        U, V = uv
        assert vanishes(U - ratfn_to_sympy(printed_U()))
        assert vanishes(V - ratfn_to_sympy(printed_V()))
        kernel_U, kernel_V = uv_closed_form()
        assert vanishes(U - ratfn_to_sympy(kernel_U))
        assert vanishes(V - ratfn_to_sympy(kernel_V))

    def test_kdv_residuals_vanish(self, uv):
        for resid in kdv_residuals_sympy(*uv):
            assert vanishes(resid)

    def test_genus2_pair_equals_the_genus3_pair(self, uv):
        sigma = mpoly_to_sympy(sigma_rational(2).sigma)
        s1 = sympy.diff(sigma, W1)
        D = to_xt(2 * (s1 ** 2 - sympy.diff(s1, W1) * sigma) / sigma ** 2)
        E = to_xt(2 * (s1 * sympy.diff(sigma, W3)
                       - sympy.diff(s1, W3) * sigma) / sigma ** 2)
        U, V = uv
        assert vanishes(D - U) and vanishes(E - V)

    def test_mutated_expected_U_has_residual(self, uv):
        x, t = MPoly.var("x"), MPoly.var("t")
        bad = RatFn(5 * x * (x ** 3 + 6 * t), (x ** 3 - 3 * t) ** 2)   # 6 -> 5
        assert not vanishes(uv[0] - ratfn_to_sympy(bad))
        assert not verify_uv_closed_form(expected_U=bad).passed


# -- the corrected appendix forms, re-derived by sympy from sigma -----------

PHI = sympy.Symbol("phi")
F_NAMES = ("f1", "f2", "f3", "f4", "f5", "g5", "f7")
FS = sympy.symbols(F_NAMES)
# f-function -> the variables of the sigma partial over sigma_1 it stands for
F_PARTIALS = dict(zip(FS, [(W1, W1), (W3,), (W1, W3), (W5,), (W3, W3),
                           (W1, W5), (W3, W5)]))


def f_combinations():
    """F_i as a polynomial in the f-functions."""
    f1, f2, f3, f4, f5, g5, f7 = FS
    return {
        2: -f2 / 2,
        4: f2 ** 2 / 4 - f4,
        5: (f1 * f2 ** 2 + f5 - 2 * f2 * f3) / 2,
        7: (2 * f2 ** 2 * f3 - 2 * f3 * f4 - f1 * f2 ** 3 + 2 * f1 * f2 * f4
            - f2 * f5 + 2 * f7 - 2 * f2 * g5) / 4,
    }


class TestAppendixFormsAgainstSympy:
    """app-F-forms: F_i * K_i = N_i * den modulo the sextic, decided by sympy."""

    @pytest.fixture(scope="class")
    def derived(self):
        """The sextic, and each F_i as (numerator, sigma_1^k) at w1 = phi."""
        sigma = mpoly_to_sympy(sigma_rational(3).sigma)
        sextic = sympy.expand(45 * sigma.subs(W1, PHI))
        assert sympy.Poly(sextic, PHI).LC() == 1
        assert sympy.expand(sextic - mpoly_to_sympy(sextic_relation())) == 0
        s1 = sympy.diff(sigma, W1).subs(W1, PHI)
        partial = {f: sympy.diff(sigma, *ws).subs(W1, PHI)
                   for f, ws in F_PARTIALS.items()}
        forms = {}
        for i, comb in f_combinations().items():
            poly = sympy.Poly(comb, *FS)
            k = poly.total_degree()
            num = sum(c * s1 ** (k - sum(e)) * sympy.prod(
                          partial[f] ** n for f, n in zip(FS, e))
                      for e, c in poly.as_dict().items())
            forms[i] = (num, s1 ** k)
        return sextic, forms

    @staticmethod
    def remainder(derived, i, N, K):
        sextic, forms = derived
        num, den = forms[i]
        as_sympy = TestPhiRingAgainstSympy.as_sympy
        return sympy.rem(sympy.expand(num * as_sympy(K[i])
                                      - as_sympy(N[i]) * den), sextic, PHI)

    def test_printed_forms(self, derived):
        N, K = printed_forms()
        for i in (2, 4, 5, 7):
            assert self.remainder(derived, i, N, K) == 0

    def test_mutated_numerator_has_remainder(self, derived):
        N, K = printed_forms()
        # N4's coefficient of phi * w5 (225) goes up by 1
        N = {**N, 4: N[4] + PhiRingElem.from_mpoly(MPoly.var("phi")
                                                   * MPoly.var("w5"))}
        assert self.remainder(derived, 4, N, K) != 0
        assert not verify_appendix_forms(printed=(N, K)).passed


# -- the code the dense routines replaced, kept verbatim as references ------

def _sylvester_elimination(p, q, xvar="X1"):
    from hekdv.curve import _univ_coeffs
    a = _univ_coeffs(p, xvar)
    b = _univ_coeffs(q, xvar)
    m, n = len(a) - 1, len(b) - 1
    if m < 0 or n < 0:
        return Fraction(0)
    size = m + n
    if size == 0:
        return Fraction(1)
    rows = []
    for i in range(n):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(a)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(b)):
            row[i + j] = c
        rows.append(row)
    # fraction-free-ish Gaussian elimination (sizes here are at most 13x13)
    det = Fraction(1)
    for col in range(size):
        pivot = None
        for r in range(col, size):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = Fraction(1) / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = rows[r][col] * inv
                for cc in range(col, size):
                    rows[r][cc] -= factor * rows[col][cc]
    return det


_W3 = MPoly.var("w3")
_W3SQ = _W3 * _W3
_W5 = MPoly.var("w5")


def _reduce_list(coeffs):
    """Rewrite phi^k (k >= 6) via the sextic, highest degree first."""
    coeffs = list(coeffs)
    for k in range(len(coeffs) - 1, 5, -1):
        c = coeffs[k]
        if c.is_zero:
            continue
        coeffs[k] = MPoly.zero()
        coeffs[k - 3] = coeffs[k - 3] + c * _W3 * 15
        coeffs[k - 6] = coeffs[k - 6] + c * _W3SQ * 45
        coeffs[k - 5] = coeffs[k - 5] - c * _W5 * 45
    return coeffs[:6]


_SEXTIC = (-45 * _W3SQ, 45 * _W5, MPoly.zero(), -15 * _W3, MPoly.zero(),
           MPoly.zero(), MPoly.const(1))


def _dense_phi_product(a, b):
    """The product of two coefficient lists over MPoly modulo the sextic,
    as ``PhiRingElem`` formed it while it was ``AlgNum`` over Q[w3, w5]:
    the dense convolution, then the remainder by the sextic's coefficient
    tuple, its leading 1 never divided by."""
    zero = MPoly.zero()
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    low = [(j, y) for j, y in enumerate(_SEXTIC[:6]) if y]
    for k in range(len(out) - 7, -1, -1):
        c = out[k + 6]
        if c:
            for j, y in low:
                out[k + j] = out[k + j] - c * y
    return (out + [zero] * 6)[:6]


def _series_loop(self, other):
    n = min(self.order, other.order)
    out = [Fraction(0)] * (n + 1)
    for i, a in enumerate(self.coeffs):
        if a and i <= n:
            for j, b in enumerate(other.coeffs):
                if i + j > n:
                    break
                if b:
                    out[i + j] += a * b
    return PSeries(self.variable, out, n)


def x_poly(coeffs):
    x = MPoly.var("X1")
    return sum((c * x ** k for k, c in enumerate(coeffs)), MPoly.zero())


def sylvester_det(a, b):
    """Determinant of the Sylvester matrix, by sympy (zero counts as degree 0)."""
    a = [sympy.Rational(c.numerator, c.denominator) for c in reversed(a or [ZERO])]
    b = [sympy.Rational(c.numerator, c.denominator) for c in reversed(b or [ZERO])]
    m, n = len(a) - 1, len(b) - 1
    rows = ([[0] * i + a + [0] * (n - 1 - i) for i in range(n)]
            + [[0] * i + b + [0] * (m - 1 - i) for i in range(m)])
    det = sympy.Matrix(rows).det() if rows else sympy.Integer(1)
    return F(int(det.p), int(det.q))


class TestAgainstReplacedCode:
    @oracle_settings
    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_resultant_matches_sylvester(self, a, b, g):
        a, b = dense_trim(a), dense_trim(b)
        p, q = x_poly(a), x_poly(b)
        want = _sylvester_elimination(p, q)
        assert sylvester_resultant(p, q) == want == sylvester_det(a, b)
        # a common factor makes the resultant vanish
        if len(dense_trim(g)) > 1 and a and b:
            pg, qg = x_poly(dense_mul(a, g)), x_poly(dense_mul(b, g))
            assert sylvester_resultant(pg, qg) == 0 == _sylvester_elimination(pg, qg)

    def test_resultant_sign_with_both_degrees_odd(self):
        x = MPoly.var("X1")
        p, q = x ** 3 - x + 1, x ** 5 + 2
        assert sylvester_resultant(p, q) == -5 == _sylvester_elimination(p, q)
        assert sylvester_resultant(q, p) == 5

    @oracle_settings
    @given(st.lists(mpoly_strategy(("w3", "w5"), max_terms=2, max_exp=2),
                    min_size=6, max_size=12))
    def test_reduction_matches_reduce_list(self, coeffs):
        got = PhiRingElem(coeffs).coeffs
        assert list(got) == _reduce_list(coeffs)

    @given(phi_w_polys, phi_w_polys)
    def test_phi_ring_product_matches_dense_path(self, f, g):
        x, y = PhiRingElem.from_mpoly(f), PhiRingElem.from_mpoly(g)
        assert list((x * y).coeffs) == _dense_phi_product(x.coeffs, y.coeffs)

    @oracle_settings
    @given(coeff_lists, coeff_lists, st.integers(0, 9), st.integers(0, 9))
    def test_series_product_matches_loop(self, a, b, m, n):
        s, t = PSeries("t", a, m), PSeries("t", b, n)
        got, want = s * t, _series_loop(s, t)
        assert got.order == want.order and got.coeffs == want.coeffs
