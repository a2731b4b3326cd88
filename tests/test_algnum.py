import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from hekdv import algnum
from hekdv.algnum import AlgNum
from hekdv.errors import ZeroDivisorError
from hekdv.poly import dense_inverse

# q^6 = 15 q^3 + 45
M = (F(-45), F(0), F(0), F(-15), F(0), F(0), F(1))


def alg(vec):
    return AlgNum(M, vec)


small_vecs = st.lists(st.fractions(min_value=F(-5), max_value=F(5),
                                   max_denominator=4),
                      min_size=6, max_size=6)


class TestBasics:
    def test_relation(self):
        q = AlgNum.generator(M)
        assert q ** 6 == q ** 3 * 15 + 45

    def test_invert_generator(self):
        q = AlgNum.generator(M)
        inv = q.inverse()
        assert inv == alg([0, 0, F(-15, 45), 0, 0, F(1, 45)])
        assert q * inv == alg([1])

    def test_invert_one(self):
        assert alg([1]).inverse() == alg([1])

    def test_invert_qcubed(self):
        q = AlgNum.generator(M)
        assert (q ** 3) * (q ** 3).inverse() == alg([1])

    def test_zero_not_invertible(self):
        with pytest.raises(ZeroDivisorError):
            alg([0]).inverse()

    def test_constant_inverse_skips_the_dense_path(self, monkeypatch):
        rng = random.Random(25)
        constants = [F(rng.randint(-10 ** 6, 10 ** 6) or 1,
                       rng.randint(1, 10 ** 6)) for _ in range(50)]
        calls = []

        def counting(a, m):
            calls.append(a)
            return dense_inverse(a, m)

        monkeypatch.setattr(algnum, "dense_inverse", counting)
        for c in constants:
            assert alg([c]).inverse() == alg(dense_inverse([c], M))
            assert alg([3, 1]) / c == alg([3, 1]) * (1 / c)
        assert calls == []
        with pytest.raises(ZeroDivisorError, match="zero, or shares a factor"):
            alg([0]).inverse()
        assert calls == []
        # any other element still runs the extended Euclid
        AlgNum.generator(M).inverse()
        assert len(calls) == 1

    def test_zero_divisor_detected(self):
        # modulus (q-1)(q+1): q-1 shares a factor
        m = (F(-1), F(0), F(1))
        with pytest.raises(ZeroDivisorError):
            AlgNum(m, [-1, 1]).inverse()

    def test_minimal_polynomial_must_be_monic_with_integer_coefficients(self):
        with pytest.raises(ValueError, match="monic"):
            AlgNum((F(-1), F(0), F(2)), [1])
        with pytest.raises(ValueError, match="integer content"):
            AlgNum((F(-1, 2), F(0), F(1)), [1])

    def test_reduction_of_high_degree_input(self):
        # a length-7 vector encodes q^6, which reduces to 15 q^3 + 45
        assert alg([0, 0, 0, 0, 0, 0, 1]) == alg([45, 0, 0, 15, 0, 0])

    @given(small_vecs, small_vecs)
    def test_mul_invert_roundtrip(self, va, vb):
        x = alg(va)
        y = alg(vb)
        if x.is_zero:
            return
        try:
            xinv = x.inverse()
        except ZeroDivisorError:
            return
        assert (x * y) * xinv == y

    @given(small_vecs, small_vecs, small_vecs)
    def test_ring_axioms(self, va, vb, vc):
        x, y, z = alg(va), alg(vb), alg(vc)
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
