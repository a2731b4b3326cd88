"""The operand contract every ring-element class keeps, tested once.

Each class derives from ``poly.Ring``.  A string is a foreign operand: it
raises TypeError under every arithmetic operator on either side, and
compares unequal (as does None).  Elements are immutable, a zero
element is false, and a hashable element that equals 1 hashes as 1.
"""

import operator

import pytest

from hekdv.algnum import AlgNum
from hekdv.curve import CurveParams
from hekdv.phiring import MINPOLY_Q, PhiFrac, PhiRingElem
from hekdv.poly import Ring
from hekdv.ratfun import RatFn
from hekdv.series import PSeries
from hekdv.symsq import SymSqField

_FIELD = SymSqField(CurveParams.symbolic(2))

# (zero, one) of each class: one is the element a string "1" would name
ELEMENTS = {
    "AlgNum": (AlgNum.const(MINPOLY_Q, 0), AlgNum.const(MINPOLY_Q, 1)),
    "PhiRingElem": (PhiRingElem.const(0), PhiRingElem.const(1)),
    "PhiFrac": (PhiFrac(0), PhiFrac(1)),
    "PSeries": (PSeries.zero("t", 3), PSeries("t", [1], 3)),
    "RatFn": (RatFn(0), RatFn(1)),
    "SymSqElem": (_FIELD.zero(), _FIELD.one()),
}
CASES = [pytest.param(x, id=f"{name}-{kind}")
         for name, pair in ELEMENTS.items()
         for kind, x in zip(("zero", "one"), pair)]
OPERATORS = [operator.add, operator.sub, operator.mul, operator.truediv]


@pytest.mark.parametrize("x", CASES)
@pytest.mark.parametrize("op", OPERATORS)
def test_a_string_operand_is_a_type_error(x, op):
    with pytest.raises(TypeError):
        op(x, "1")
    with pytest.raises(TypeError):
        op("1", x)


@pytest.mark.parametrize("x", CASES)
def test_foreign_operands_compare_unequal(x):
    assert (x == "1") is False
    assert (x == None) is False  # noqa: E711
    assert x != "1"


@pytest.mark.parametrize("x", CASES)
def test_elements_are_immutable(x):
    with pytest.raises(AttributeError):
        x.extra = 1


@pytest.mark.parametrize("name", ELEMENTS)
def test_zero_is_false(name):
    zero, one = ELEMENTS[name]
    assert not zero and bool(one)


@pytest.mark.parametrize("name", ELEMENTS)
def test_is_a_ring(name):
    zero, _ = ELEMENTS[name]
    assert isinstance(zero, Ring)


def _hashable(x):
    try:
        hash(x)
    except TypeError:
        return False
    return True


HASHABLE = [name for name, (_, one) in ELEMENTS.items() if _hashable(one)]


def test_the_quotient_rings_are_hashable():
    assert HASHABLE == ["AlgNum", "PhiRingElem", "PSeries"]


@pytest.mark.parametrize("name", HASHABLE)
def test_a_constant_hashes_as_its_value(name):
    zero, one = ELEMENTS[name]
    assert one == 1 and hash(one) == hash(1) and one in {1}
    assert zero == 0 and hash(zero) == hash(0) and zero in {0}
