from fractions import Fraction as F

import pytest

from hekdv.curve import CurveParams, curve_Q, in_Bg, sylvester_resultant
from hekdv.errors import ConfigError, ModeError
from hekdv.poly import variables

X1, = variables("X1")
y4, y6, y8, y10, y12, y14 = variables("y4", "y6", "y8", "y10", "y12", "y14")


class TestCurveQ:
    def test_genus3_symbolic(self):
        q = curve_Q(CurveParams.symbolic(3), "X1")
        want = (X1**7 + y4*X1**5 - y6*X1**4 + y8*X1**3
                - y10*X1**2 + y12*X1 - y14)
        assert q == want

    def test_genus3_zero(self):
        assert curve_Q(CurveParams.numeric(3, [0]*6), "X1") == X1**7

    def test_genus2_symbolic(self):
        q = curve_Q(CurveParams.symbolic(2), "X1")
        assert q == X1**5 + y4*X1**3 - y6*X1**2 + y8*X1 - y10

    def test_specialize(self):
        p = CurveParams.symbolic(3).specialize(y12=0, y14=0)
        q = p.Q("X1")
        assert q == X1**7 + y4*X1**5 - y6*X1**4 + y8*X1**3 - y10*X1**2

    def test_bad_genus(self):
        with pytest.raises(ConfigError):
            CurveParams.symbolic(4)


def _univariate_gcd_degree(p, q, var):
    """Independent oracle: Euclid over Q[X]; returns degree of the gcd."""
    def coeffs(f):
        out = [F(0)] * (f.degree_in(var) + 1)
        for mono, c in f.monomials():
            out[dict(mono).get(var, 0)] += c
        return out

    def trim(v):
        while v and not v[-1]:
            v.pop()
        return v

    a, b = trim(coeffs(p)), trim(coeffs(q))
    while b:
        # a mod b
        r = a[:]
        inv = F(1) / b[-1]
        for k in range(len(r) - len(b), -1, -1):
            f = r[k + len(b) - 1] * inv
            if f:
                for j, cb in enumerate(b):
                    r[k + j] -= f * cb
        a, b = b, trim(r)
    return len(a) - 1


class TestNonsingularity:
    def test_fully_degenerate(self):
        assert in_Bg(CurveParams.numeric(3, [0, 0, 0, 0, 0, 0])) is False

    def test_x7_plus_x_minus_1(self):
        params = CurveParams.numeric(3, [0, 0, 0, 0, 1, 1])
        assert in_Bg(params) is True
        # oracle: gcd(Q, Q') must be constant
        Q = params.Q("X1")
        assert _univariate_gcd_degree(Q, Q.derivative("X1"), "X1") == 0

    def test_x7_minus_1(self):
        # distinct seventh roots of unity
        params = CurveParams.numeric(3, [0, 0, 0, 0, 0, 1])
        assert in_Bg(params) is True
        Q = params.Q("X1")
        assert _univariate_gcd_degree(Q, Q.derivative("X1"), "X1") == 0

    def test_x5_minus_1(self):
        params = CurveParams.numeric(2, [0, 0, 0, 1])
        assert in_Bg(params) is True
        Q = params.Q("X1")
        assert _univariate_gcd_degree(Q, Q.derivative("X1"), "X1") == 0

    def test_symbolic_mode_rejected(self):
        with pytest.raises(ModeError):
            in_Bg(CurveParams.symbolic(3))

    def test_resultant_matches_gcd_criterion(self):
        # a singular instance: Q = (X-1)^2 (X^5 ... ) via crafted parameters
        # X^5 - 2X^4 + X^3 = X^3 (X-1)^2 is not of curve shape; instead use
        # resultant directly on a factored pair
        p = (X1 - 1) ** 2 * (X1 + 2)
        assert sylvester_resultant(p, p.derivative("X1")) == 0
        q = (X1 - 1) * (X1 + 2)
        assert sylvester_resultant(q, q.derivative("X1")) != 0
