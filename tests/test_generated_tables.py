"""Translation validation of the simulator's generated tables.

Each table that ``sim._bind_numeric`` compiles is parsed back from its
source with ``ast`` and evaluated exactly: every float literal becomes
the Fraction of its value, every operation a ``RatFn`` operation.  Each
returned component must then equal the certified table entry, with the
curve substituted and each coefficient rounded by ``float``, and every
power must be the product chain of CPython's ``complex ** int``, which
the float path's bit identity rests on (Pnueli, Siegel & Singerman,
"Translation validation", TACAS 1998; Necula, "Translation validation
for an optimizing compiler", PLDI 2000).

The work counts below are pinned; ``PYTHONPATH=src python
tests/test_generated_tables.py`` prints them.
"""

import ast
import dis
import operator
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from hekdv import sim
from hekdv.curve import CurveParams, in_Bg
from hekdv.poly import MPoly
from hekdv.ratfun import RatFn
from hekdv.tables import U_VARS, first_integrals, flow_table

# Q = X^7 + X - 1, the simulator's reference curve
PARAMS = CurveParams.numeric(3, [0, 0, 0, 0, 1, 1])
TABLES = ("I", "II", "T1", "T3", "integrals")


def random_curve():
    """A seeded nonsingular curve with small rational parameters."""
    rng = random.Random("generated-tables")
    while True:
        params = CurveParams.numeric(3, [F(rng.randint(-9, 9),
                                           rng.randint(1, 9))
                                         for _ in range(6)])
        if in_Bg(params):
            return params


RANDOM_PARAMS = random_curve()
CURVES = {"reference": PARAMS, "random": RANDOM_PARAMS}
# coefficients of the five tables that float rounds, of all of them
ROUNDED = {"reference": (0, 88), "random": (11, 135)}


def entries(table):
    if table == "integrals":
        return first_integrals()
    return [flow_table(table).entries[u] for u in U_VARS]


def source(table, params):
    return sim._table_source(entries(table), params)


def compiled(table, params):
    return (sim._integrals_fn(params) if table == "integrals"
            else sim._flow_fn(table, params))


def rounded(p, params, tally):
    """p with the curve substituted and each coefficient rounded by
    float, exactly; tally counts the coefficients and those that moved."""
    total = MPoly.zero()
    for mono, c in params.sub_y(p).monomials():
        tally["all"] += 1
        tally["rounded"] += F(float(c)) != c
        term = MPoly.const(F(float(c)))
        for v, e in mono:
            term = term * MPoly.var(v, e)
        total = total + term
    return total


def binary_powering(e):
    """{n: (left, right)}: the products CPython's complex ** int forms
    for v ** e, each power v^n as the product v^left * v^right.  From the
    lowest bit, the result takes the square's factor where the bit is set,
    and the square is squared."""
    products = {}
    result, square = None, 1
    while True:
        if e & 1:
            if result is not None:
                products[result + square] = (result, square)
            result = square if result is None else result + square
        e >>= 1
        if not e:
            return products
        products[2 * square] = (square, square)
        square *= 2


_OPS = {ast.Add: operator.add, ast.Mult: operator.mul,
        ast.Div: operator.truediv}


def evaluate(node, env):
    """The exact value of a generated expression, as a RatFn."""
    if isinstance(node, ast.Constant):
        assert type(node.value) is float, ast.dump(node)
        return RatFn(F(node.value))
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        assert isinstance(node.operand, ast.Constant), ast.dump(node)
        return -evaluate(node.operand, env)
    assert isinstance(node, ast.BinOp) and type(node.op) in _OPS, \
        ast.dump(node)
    return _OPS[type(node.op)](evaluate(node.left, env),
                               evaluate(node.right, env))


def power_of(name):
    """(v, e) for a chain node's name v_e, None for any other name."""
    v, _, e = name.partition("_")
    return (v, int(e)) if v in U_VARS and e.isdigit() else None


def validate(text):
    """The exact values a generated table returns; asserts the shape of
    its source and that each power is CPython's chain."""
    (fn,) = ast.parse(text).body
    assert isinstance(fn, ast.FunctionDef)
    assert [a.arg for a in fn.args.args] == list(U_VARS)
    env = {v: RatFn(MPoly.var(v)) for v in U_VARS}
    *assigns, ret = fn.body
    for stmt in assigns:
        assert isinstance(stmt, ast.Assign), ast.dump(stmt)
        (target,) = stmt.targets
        assert target.id not in env, target.id
        power = power_of(target.id)
        if power is not None:
            v, e = power
            value = stmt.value
            assert (isinstance(value, ast.BinOp)
                    and isinstance(value.op, ast.Mult)), ast.dump(value)
            operands = (value.left.id, value.right.id)
            want = tuple(v if n == 1 else f"{v}_{n}"
                         for n in binary_powering(e)[e])
            assert operands == want, (target.id, operands, want)
        env[target.id] = evaluate(stmt.value, env)
    for name in {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}:
        assert name in env, name
    assert isinstance(ret, ast.Return) and isinstance(ret.value, ast.Tuple)
    return [evaluate(e, env) for e in ret.value.elts]


@pytest.mark.parametrize("curve", CURVES)
def test_tables_are_the_certified_entries_rounded(curve):
    params = CURVES[curve]
    tally = Counter()
    for table in TABLES:
        got = validate(source(table, params))
        want = [RatFn(rounded(rf.num, params, tally),
                      rounded(rf.den, params, tally))
                for rf in entries(table)]
        assert len(got) == len(want)
        for u, g, w in zip(U_VARS, got, want):
            assert g == w, (table, u)
    assert (tally["rounded"], tally["all"]) == ROUNDED[curve]


def test_binary_powering_is_cpythons_chain():
    # the rule above against ** itself, on a complex value whose powers
    # round at every step
    z = complex(1.1, 0.7)
    for e in range(1, 40):
        values = {1: z}
        for n, (left, right) in sorted(binary_powering(e).items()):
            values[n] = values[left] * values[right]
        assert values[e] == z ** e, e


def products(fn):
    return sum(1 for i in dis.get_instructions(fn)
               if i.opname == "BINARY_OP" and i.argrepr == "*")


# BINARY_OP * instructions per table on the reference curve
PRODUCTS = {"I": 16, "II": 29, "T1": 31, "T3": 40, "integrals": 31}


@pytest.mark.parametrize("table", TABLES)
def test_each_operation_is_computed_once(table):
    tree = ast.parse(source(table, PARAMS))
    nodes = Counter(ast.dump(n) for n in ast.walk(tree)
                    if isinstance(n, ast.BinOp))
    assert max(nodes.values()) == 1
    assert products(compiled(table, PARAMS)) == PRODUCTS[table]


@pytest.mark.parametrize("table", TABLES)
def test_each_table_compiles_under_its_own_name(table):
    # a profile keys its stats by (file, line, name), and every table is
    # an f on line 1: only distinct file names keep the tables apart
    code = compiled(table, PARAMS).__code__
    name = "<integrals>" if table == "integrals" else f"<table {table}>"
    assert code.co_filename == name


if __name__ == "__main__":
    print({table: products(compiled(table, PARAMS)) for table in TABLES})
