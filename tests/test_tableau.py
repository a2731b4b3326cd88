"""The Dormand-Prince 5(4) tableau of ``sim``, against the published pair.

Each float of ``sim._DP_A`` (whose last row is the fifth-order weights b,
first-same-as-last) and of ``sim._DP_E`` = b - b_hat is the rounding of
Dormand & Prince's rational (J. Comput. Appl. Math. 6(1), 1980).  The
rationals satisfy the order conditions of every rooted tree through order
5 for b and through order 4 for b_hat (Hairer, Norsett & Wanner, *Solving
ODE I*, II.2): Phi(t) = 1/gamma(t), with Phi(t) = b . g(t), g(leaf) the
ones vector and g([t1, ..., tm])_i = prod_k (A g(tk))_i.  b_hat, of order
4 only, fails all nine trees of order 5.
"""

from fractions import Fraction as F
from math import prod

import pytest

from hekdv import sim

A = (
    (F(1, 5),),
    (F(3, 40), F(9, 40)),
    (F(44, 45), F(-56, 15), F(32, 9)),
    (F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)),
    (F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)),
    (F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)),
)
B = A[-1] + (F(0),)
B_HAT = (F(5179, 57600), F(0), F(7571, 16695), F(393, 640),
         F(-92097, 339200), F(187, 2100), F(1, 40))
E = tuple(b - bh for b, bh in zip(B, B_HAT))
STAGES = len(B)
# the full strictly lower triangular matrix, one row per stage
MATRIX = [list(row) + [F(0)] * (STAGES - len(row))
          for row in ((),) + A]


def rooted_trees(order):
    """Every rooted tree of ``order`` vertices, each a sorted tuple of its
    subtrees (the leaf is ())."""
    if order == 1:
        return [()]
    return sorted({tuple(sorted(f)) for f in _forests(order - 1, order - 1)})


def _forests(size, largest):
    """Multisets of trees of ``size`` vertices in all, none above ``largest``."""
    if size == 0:
        yield ()
        return
    for n in range(min(size, largest), 0, -1):
        for tree in rooted_trees(n):
            for rest in _forests(size - n, n):
                yield (tree,) + rest


def gamma(tree):
    return _size(tree) * prod(gamma(t) for t in tree)


def _size(tree):
    return 1 + sum(_size(t) for t in tree)


def stage_weights(tree):
    """g(tree): the product over the subtrees of A g(subtree)."""
    g = [F(1)] * STAGES
    for sub in tree:
        inner = stage_weights(sub)
        g = [gi * sum(a * x for a, x in zip(row, inner))
             for gi, row in zip(g, MATRIX)]
    return g


def satisfied(weights, tree):
    phi = sum(b * g for b, g in zip(weights, stage_weights(tree)))
    return phi == F(1, gamma(tree))


def test_tree_counts():
    assert [len(rooted_trees(n)) for n in range(1, 6)] == [1, 1, 2, 4, 9]


def test_floats_are_the_published_rationals():
    assert len(sim._DP_A) == len(A)
    for got, want in zip(sim._DP_A, A):
        assert got == tuple(float(w) for w in want)
    assert sim._DP_E == tuple(float(e) for e in E)


def test_nodes_are_the_row_sums():
    c = [sum(row) for row in MATRIX]
    assert c == [0, F(1, 5), F(3, 10), F(4, 5), F(8, 9), 1, 1]


@pytest.mark.parametrize("order", range(1, 6))
def test_b_has_order_five(order):
    assert all(satisfied(B, t) for t in rooted_trees(order))


@pytest.mark.parametrize("order", range(1, 5))
def test_b_hat_has_order_four(order):
    assert all(satisfied(B_HAT, t) for t in rooted_trees(order))


def test_b_hat_fails_every_tree_of_order_five():
    # the negative control: the conditions tell the two weight rows apart
    assert not any(satisfied(B_HAT, t) for t in rooted_trees(5))
