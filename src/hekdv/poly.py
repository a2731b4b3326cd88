"""Sparse multivariate polynomials over arbitrary-precision rationals.

A polynomial is a map from exponent vectors to nonzero ``Fraction``
coefficients, together with an ordered tuple of variable names.  All
variable tuples are subsequences of one fixed global symbol order, so
every polynomial has a deterministic leading term and two polynomials in
different variable subsets can always be aligned.

This representation is private to this module: other modules read a
polynomial only through ``MPoly.coeffs_in`` (the coefficients of the powers
of one variable), ``MPoly.monomials`` (each term as its nonzero
(variable, exponent) pairs and coefficient), the structural queries, and
``eval_poly``/``MPoly.subst``, so the storage can change without them.

The ``dense_*`` routines are the one dense univariate arithmetic: lists of
coefficients, constant term first, over Fractions or MPolys (von zur
Gathen & Gerhard, Modern Computer Algebra, ch. 2-3 and 6).
"""

import os
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd, lcm

from .errors import ConfigError, MemoryCapExceeded

# Fixed global symbol order.  Lower index = more significant in the
# lexicographic term order.  "s" is the internal bridge variable for the
# symmetric-square coordinate change (s^2 = b); "theta" is the formal cube
# root of t used by the quotient-ring examples.
SYMBOL_ORDER = (
    "X1", "Y1", "X2", "Y2",
    "a", "b", "c", "d", "s",
    "u2", "u4", "u5", "u7",
    "w1", "w3", "w5", "phi", "q",
    "y4", "y6", "y8", "y10", "y12", "y14",
    "x", "t", "tau", "theta",
)
_RANK = {name: i for i, name in enumerate(SYMBOL_ORDER)}


def _as_fraction(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"cannot use {type(c).__name__} as an exact coefficient")


DEFAULT_MEM_CAP_MB = 1024.0


def _mem_cap_product_terms():
    """Translate HEKDV_MEM_CAP_MB into a rough cap on product-term count.

    A stored term costs on the order of 200 bytes (tuple + Fraction + dict
    slot); the estimate is deliberately crude but monotone.  Unset means
    the 1 GiB default.
    """
    cap_mb = os.environ.get("HEKDV_MEM_CAP_MB")
    if cap_mb is None:
        cap = DEFAULT_MEM_CAP_MB
    else:
        try:
            cap = float(cap_mb)
        except ValueError:
            raise ConfigError(f"HEKDV_MEM_CAP_MB={cap_mb!r} is not a number")
    return max(1, int(cap * 1_000_000 / 200))


def merge_vars(va, vb):
    """Union of two ordered variable tuples, in global-order position."""
    if va == vb:
        return va
    return tuple(sorted(set(va) | set(vb), key=_RANK.__getitem__))


class MPoly:
    """Immutable sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms):
        # Trusted constructor: `terms` must already be free of zero
        # coefficients and keyed by exponent tuples of matching length.
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *_):
        raise AttributeError("MPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return MPoly((), {})

    @staticmethod
    def const(c):
        c = _as_fraction(c)
        return MPoly((), {(): c} if c else {})

    @staticmethod
    def var(name, power=1):
        if name not in _RANK:
            raise ConfigError(f"unknown symbol {name!r}; extend SYMBOL_ORDER")
        if power < 0:
            raise ValueError("negative powers are not polynomials")
        if power == 0:
            return MPoly.const(1)
        return MPoly((name,), {(power,): Fraction(1)})

    @staticmethod
    def from_terms(vars, term_map):
        vars = tuple(vars)
        for v in vars:
            if v not in _RANK:
                raise ConfigError(f"unknown symbol {v!r}")
        if list(vars) != sorted(vars, key=_RANK.__getitem__):
            raise ConfigError("variables must follow the global symbol order")
        terms = {}
        for expo, c in term_map.items():
            c = _as_fraction(c)
            if c:
                terms[tuple(expo)] = terms.get(tuple(expo), Fraction(0)) + c
        return MPoly(vars, {e: c for e, c in terms.items() if c})

    # -- structural queries -------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def term_count(self):
        return len(self.terms)

    def variables_used(self):
        used = set()
        for expo in self.terms:
            for v, e in zip(self.vars, expo):
                if e:
                    used.add(v)
        return used

    def degree_in(self, name):
        if name not in self.vars or not self.terms:
            return 0
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def min_degree_in(self, name):
        if not self.terms:
            return 0
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return min(e[i] for e in self.terms)

    def coeffs_in(self, name):
        """{e: coefficient of name^e}; no coefficient contains ``name``.

        The zero polynomial gives {}; a polynomial without ``name`` gives
        {0: self}.
        """
        if name not in self.vars:
            return {0: self} if self.terms else {}
        i = self.vars.index(name)
        parts = {}
        for expo, c in self.terms.items():
            parts.setdefault(expo[i], {})[expo[:i] + (0,) + expo[i + 1:]] = c
        return {e: MPoly(self.vars, terms) for e, terms in parts.items()}

    def monomials(self):
        """Yield (((var, exp), ...), coeff) per term, zero exponents left out."""
        for expo, c in self.terms.items():
            yield tuple((v, e) for v, e in zip(self.vars, expo) if e), c

    def as_constant(self):
        """Return the Fraction value if constant, else None."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1:
            (expo, c), = self.terms.items()
            if not any(expo):
                return c
        return None

    def leading(self):
        """Leading (exponent, coefficient) under the global lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        expo = max(self.terms)
        return expo, self.terms[expo]

    def content(self):
        """Positive rational content: gcd of numerators over lcm of denominators."""
        if not self.terms:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator))
            den = lcm(den, c.denominator)
        return Fraction(num, den)

    # -- alignment ------------------------------------------------------

    def aligned_to(self, vars):
        """Re-express with the given variable tuple (a superset of self.vars)."""
        if vars == self.vars:
            return self
        idx = []
        for v in self.vars:
            idx.append(vars.index(v))
        n = len(vars)
        terms = {}
        for expo, c in self.terms.items():
            new = [0] * n
            for pos, e in zip(idx, expo):
                new[pos] = e
            terms[tuple(new)] = c
        return MPoly(vars, terms)

    def pruned(self):
        """Drop variables that never appear with a nonzero exponent."""
        used = self.variables_used()
        if len(used) == len(self.vars):
            return self
        keep = [i for i, v in enumerate(self.vars) if v in used]
        vars = tuple(self.vars[i] for i in keep)
        terms = {tuple(e[i] for i in keep): c for e, c in self.terms.items()}
        return MPoly(vars, terms)

    @staticmethod
    def _align_pair(p, q):
        if p.vars == q.vars:
            return p, q
        vars = merge_vars(p.vars, q.vars)
        return p.aligned_to(vars), q.aligned_to(vars)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        p, q = MPoly._align_pair(self, other)
        terms = dict(p.terms)
        for expo, c in q.terms.items():
            acc = terms.get(expo)
            if acc is None:
                terms[expo] = c
            else:
                acc = acc + c
                if acc:
                    terms[expo] = acc
                else:
                    del terms[expo]
        return MPoly(p.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                return MPoly.zero()
            if c == 1:
                return self
            return MPoly(self.vars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, MPoly):
            return NotImplemented
        p, q = MPoly._align_pair(self, other)
        if len(p.terms) < len(q.terms):
            p, q = q, p
        # the cap is at least 1 term, so a one-term product skips the lookup
        projected = len(p.terms) * len(q.terms)
        if projected > 1 and projected > _mem_cap_product_terms():
            raise MemoryCapExceeded(
                f"product would allocate ~{projected} terms, above the "
                f"HEKDV_MEM_CAP_MB limit; raise the cap to proceed")
        terms = {}
        if len(q.terms) == 1:
            (qe, qc), = q.terms.items()
            if not any(qe):
                if qc == 1:
                    return p
                return MPoly(p.vars, {e: c * qc for e, c in p.terms.items()})
            if qc == 1:
                return MPoly(p.vars, {tuple(a + b for a, b in zip(pe, qe)): pc
                                      for pe, pc in p.terms.items()})
            for pe, pc in p.terms.items():
                terms[tuple(a + b for a, b in zip(pe, qe))] = pc * qc
            return MPoly(p.vars, terms)
        get = terms.get
        for qe, qc in q.terms.items():
            for pe, pc in p.terms.items():
                key = tuple(a + b for a, b in zip(pe, qe))
                acc = get(key)
                if acc is None:
                    terms[key] = pc * qc
                else:
                    acc = acc + pc * qc
                    if acc:
                        terms[key] = acc
                    else:
                        del terms[key]
        return MPoly(p.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        return power(self, n, MPoly.const(1))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if not c:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            return self * (Fraction(1) / c)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        p, q = MPoly._align_pair(self, other)
        return p.terms == q.terms

    def __hash__(self):
        p = self.pruned()
        return hash((p.vars, frozenset(p.terms.items())))

    # -- calculus and substitution ---------------------------------------

    def derivative(self, name):
        if name not in self.vars:
            return MPoly.zero()
        i = self.vars.index(name)
        terms = {}
        for expo, c in self.terms.items():
            e = expo[i]
            if e:
                new = expo[:i] + (e - 1,) + expo[i + 1:]
                terms[new] = terms.get(new, Fraction(0)) + c * e
        return MPoly(self.vars, {e: c for e, c in terms.items() if c})

    def subst(self, mapping):
        """Substitute variables by polynomials/Fractions; returns MPoly."""
        mapping = {k: (MPoly.const(v) if isinstance(v, (int, Fraction)) else v)
                   for k, v in mapping.items()}
        return eval_poly(self, mapping, one=MPoly.const(1))

    def eval_numeric(self, point):
        """Evaluate at a dict of numbers (Fraction, float or complex)."""
        total = None
        for expo, c in self.terms.items():
            val = c if isinstance(c, Fraction) else Fraction(c)
            acc = None
            for v, e in zip(self.vars, expo):
                if e:
                    base = point[v]
                    acc = base ** e if acc is None else acc * base ** e
            term = val if acc is None else (
                float(val) * acc if isinstance(acc, (float, complex)) else val * acc)
            total = term if total is None else total + term
        if total is None:
            return Fraction(0)
        return total

    # -- division -------------------------------------------------------

    def exact_div(self, divisor):
        """Exact quotient self/divisor, or None when not divisible.

        A divisor u - v of two variables goes to ``divide_out_linear``.
        """
        if isinstance(divisor, (int, Fraction)):
            return self / divisor
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return MPoly.zero()
        diff = divisor._variable_difference()
        if diff is not None:
            return self.divide_out_linear(*diff)
        p, d = MPoly._align_pair(self, divisor)
        if len(d.terms) == 1:
            (de, dc), = d.terms.items()
            terms = {}
            for expo, c in p.terms.items():
                new = tuple(a - b for a, b in zip(expo, de))
                if any(e < 0 for e in new):
                    return None
                terms[new] = c / dc
            return MPoly(p.vars, terms)
        return p._long_div(d)

    def _variable_difference(self):
        """(u, v) when self is exactly u - v for two variables, else None."""
        if len(self.terms) != 2:
            return None
        signs = {c: self.vars[e.index(1)]
                 for e, c in self.terms.items() if sum(e) == 1}
        return (signs[1], signs[-1]) if set(signs) == {1, -1} else None

    def _long_div(self, d):
        """Single-divisor division; returns quotient iff remainder is zero."""
        rem = dict(self.terms)
        vars = self.vars
        de, dc = max(d.terms.items())
        dterms = [(e, c) for e, c in d.terms.items()]
        qterms = {}
        while rem:
            re = max(rem)
            new = tuple(a - b for a, b in zip(re, de))
            if any(e < 0 for e in new):
                return None
            qc = rem[re] / dc
            qterms[new] = qterms.get(new, Fraction(0)) + qc
            for e, c in dterms:
                key = tuple(a + b for a, b in zip(new, e))
                acc = rem.get(key, Fraction(0)) - qc * c
                if acc:
                    rem[key] = acc
                else:
                    rem.pop(key, None)
        return MPoly(vars, {e: c for e, c in qterms.items() if c})

    def divide_out_linear(self, name, other_name):
        """Exact quotient by (name - other_name), e.g. (X1 - X2); None if inexact.

        Horner-style division treating the polynomial as univariate in
        ``name`` with coefficients in the remaining variables; linear cost
        in the term count times the degree.
        """
        if name not in self.vars:
            return None if self.terms else MPoly.zero()
        vars = merge_vars(self.vars, (other_name,))
        p = self.aligned_to(vars)
        i = vars.index(name)
        j = vars.index(other_name)
        deg = p.degree_in(name)
        # bucket by exponent of `name`
        buckets = [dict() for _ in range(deg + 1)]
        for expo, c in p.terms.items():
            e = expo[i]
            key = expo[:i] + (0,) + expo[i + 1:]
            buckets[e][key] = buckets[e].get(key, Fraction(0)) + c
        carry = {}      # running b_k as dict
        quotient = {}
        for e in range(deg, 0, -1):
            # b_{e-1} = A_e + carry ;  quotient gains b_{e-1} * name^{e-1}
            b = dict(carry)
            for key, c in buckets[e].items():
                acc = b.get(key, Fraction(0)) + c
                if acc:
                    b[key] = acc
                else:
                    b.pop(key, None)
            for key, c in b.items():
                qkey = key[:i] + (e - 1,) + key[i + 1:]
                quotient[qkey] = c
            # carry for next lower degree: b * other_name
            carry = {}
            for key, c in b.items():
                nkey = key[:j] + (key[j] + 1,) + key[j + 1:]
                carry[nkey] = carry.get(nkey, Fraction(0)) + c
        # remainder = A_0 + carry must vanish
        rem = dict(carry)
        for key, c in buckets[0].items():
            acc = rem.get(key, Fraction(0)) + c
            if acc:
                rem[key] = acc
            else:
                rem.pop(key, None)
        if rem:
            return None
        return MPoly(vars, quotient)

    # -- printing ---------------------------------------------------------

    def _term_str(self, expo, c):
        factors = []
        for v, e in zip(self.vars, expo):
            if e == 1:
                factors.append(v)
            elif e > 1:
                factors.append(f"{v}^{e}")
        if not factors:
            return str(c)
        body = "*".join(factors)
        if c == 1:
            return body
        if c == -1:
            return f"-{body}"
        return f"{c}*{body}"

    def to_str(self, max_terms=None):
        if not self.terms:
            return "0"
        parts = []
        for n, expo in enumerate(sorted(self.terms, reverse=True)):
            if max_terms is not None and n >= max_terms:
                parts.append(f"... (+{len(self.terms) - max_terms} more terms)")
                break
            s = self._term_str(expo, self.terms[expo])
            if parts and not s.startswith("-"):
                s = "+" + s
            parts.append(s)
        return "".join(parts)

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"MPoly({self.to_str(max_terms=8)})"


def variables(*names):
    """Convenience: a tuple of fresh variable polynomials."""
    return tuple(MPoly.var(n) for n in names)


def power(base, n, one):
    """base^n (n >= 0) by square-and-multiply in any ring with identity ``one``."""
    if n < 0:
        raise ValueError("negative exponent; invert the base first")
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one if result is None else result


def dense_trim(v):
    """Copy of the coefficient list ``v`` without trailing zeros."""
    v = list(v)
    while v and not v[-1]:
        v.pop()
    return v


def dense_mul(a, b, zero, n=None):
    """Trimmed product a*b, cut to its first ``n`` coefficients if given."""
    n = len(a) + len(b) - 1 if n is None else n
    out = [zero] * max(n, 0)
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[:n - i]):
                if y:
                    out[i + j] = out[i + j] + x * y
    return dense_trim(out)


def dense_divmod(a, b, zero):
    """Trimmed (q, r) with a = q*b + r and len(r) < len(b); b trimmed, b != 0.

    A leading coefficient 1 is never divided by, so a monic b works over MPoly.
    """
    a = list(a)
    d = len(b) - 1
    monic = b[-1] == 1
    low = [(j, y) for j, y in enumerate(b[:d]) if y]
    q = [zero] * max(0, len(a) - d)
    for k in range(len(a) - 1 - d, -1, -1):
        c = a[k + d]
        if c:
            q[k] = c = c if monic else c / b[-1]
            for j, y in low:
                a[k + j] = a[k + j] - c * y
    return dense_trim(q), dense_trim(a[:d])


def dense_inverse(a, m, zero):
    """s with a*s = 1 modulo m, by extended Euclid over a field.

    None when a and m have a common factor (a = 0 included).
    """
    r0, r1 = dense_trim(m), dense_trim(a)
    s0, s1 = [], [zero + 1]
    while r1:
        q, r = dense_divmod(r0, r1, zero)
        qs = dense_mul(q, s1, zero)
        r0, r1 = r1, r
        s0, s1 = s1, dense_trim(
            x - y for x, y in zip_longest(s0, qs, fillvalue=zero))
    if len(r0) != 1:
        return None
    return [c / r0[0] for c in s0]


def eval_poly(p, mapping, one):
    """Evaluate polynomial `p` in any commutative ring.

    Values in `mapping` must support +, * between themselves and * by
    Fraction on the left or right.  `one` is the ring's multiplicative
    identity (used for empty monomials).  Variables of `p` that carry a
    nonzero exponent must all be mapped.
    """
    missing = p.variables_used() - set(mapping)
    if missing:
        raise ConfigError(f"eval_poly: unmapped variables {sorted(missing)}")

    @lru_cache(maxsize=None)
    def cached_power(v, e):
        return power(mapping[v], e, one)

    total = None
    for expo, c in p.terms.items():
        acc = None
        for v, e in zip(p.vars, expo):
            if e:
                pv = cached_power(v, e)
                acc = pv if acc is None else acc * pv
        if acc is None:
            term = one * c
        else:
            term = acc * c
        total = term if total is None else total + term
    if total is None:
        return one * Fraction(0)
    return total


class WeightTable:
    """Map from symbols to integer weights; raises on missing symbols."""

    def __init__(self, weights):
        self.weights = dict(weights)

    def __getitem__(self, name):
        try:
            return self.weights[name]
        except KeyError:
            raise ConfigError(f"no weight declared for symbol {name!r}")

    def __contains__(self, name):
        return name in self.weights


def standard_weights(genus):
    """The grading used throughout: deg X=2, Y=2g+1, y_{2i}=2i, w/u as declared."""
    w = {
        "X1": 2, "X2": 2, "Y1": 2 * genus + 1, "Y2": 2 * genus + 1,
        "a": 2, "b": 4, "s": 2, "c": 2 * genus - 1, "d": 2 * genus + 1,
        "u2": 2, "u4": 4, "u5": 5, "u7": 7,
        "w1": -1, "w3": -3, "w5": -5,
        "phi": -1, "x": -1, "t": -3, "tau": -5, "theta": -1, "q": 0,
    }
    for j in range(2, 8):
        w[f"y{2 * j}"] = 2 * j
    return WeightTable(w)


def weighted_degree(p, table):
    """Weighted degree if `p` is weighted-homogeneous, else None.

    The zero polynomial is homogeneous of every degree; returns 0.
    """
    if not isinstance(table, WeightTable):
        table = WeightTable(table)
    if p.is_zero:
        return 0
    deg = None
    for expo in p.terms:
        d = sum(e * table[v] for v, e in zip(p.vars, expo) if e)
        if deg is None:
            deg = d
        elif d != deg:
            return None
    return deg
