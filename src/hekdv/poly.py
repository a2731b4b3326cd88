"""Sparse multivariate polynomials over arbitrary-precision rationals.

A nonzero polynomial is stored as a positive rational content, two ints in
lowest terms, times a primitive integer polynomial: a map from monomials to
nonzero int coefficients whose gcd is 1, as FLINT's ``fmpq_mpoly`` is an
``fmpq`` times an ``fmpz_mpoly``.  Zero has content 0/1 and no terms.  The
form is unique, so equality and hashing compare it as stored, and the
arithmetic runs on ints; a ``Fraction`` is built only where a coefficient
or the content is read.  By Gauss's lemma a product of primitive
polynomials is primitive, so a product multiplies the contents (by cross
gcds) and convolves the integer parts without a gcd; a scalar changes only
the content.  Every sum goes through one accumulator, ``_Sum``, which
merges each part into one int term dict with ``_merge`` and takes one gcd
at the end; the terms keep the order of the running sum ``total + part``.
Products and the monomial substitution keep their own loops.  Every other
substitution of MPolys is a ``Substitution``, which keeps the image of
every monomial prefix it forms for as long as it lives; a denominator
carried by one variable is cleared by ``clear_denominator``, an exponent
shift and an int scale per term.  The kernel divides by a monomial
(``exact_div``) and by a difference u - v of two named variables
(``divide_out_linear``), and it takes one remainder: by a monic
name^d - tail (``rem_monic``).  That remainder is the Y-reduction and
the s^2 = b chart of ``symsq`` and the product of every quotient ring of
``algnum``, truncated series included.  None of them divides a
coefficient: a tail of content n/d scales the kept terms by d instead.

A monomial is one int over the fixed global symbol order: the exponent of
``SYMBOL_ORDER[i]`` sits in a field of ``_WIDTH`` bits, the first symbol in
the highest field, so comparing two monomials as ints compares them in the
lexicographic term order, and multiplying them is one int addition.  The
top bit of each field is a guard (Monagan & Pearce, "Sparse polynomial
division using a heap", JSC 46(7), 2011): exponents stay at most
``MAX_EXPONENT``, so a sum of two monomials can reach a guard bit but
never carry into the next field, and every sum is checked for it; d
divides m when (m with every guard bit set) - d keeps every guard bit.

This representation is private to this module: other modules read a
polynomial only through ``coeffs_in``, ``coefficient``, ``monomials``,
the structural queries, ``sum_polys``, ``unit_den``, ``Substitution`` and
``eval_poly``/``subst``.  The ``dense_*`` routines are the one dense
univariate arithmetic over Fractions, constant term first (von zur Gathen
& Gerhard, Modern Computer Algebra, ch. 2-3 and 6): the resultant and the
inverse in ``algnum.AlgNum``; ``dense_coeffs`` reads a polynomial in one
variable into that form.  ``Ring`` is the base of the other ring-element
classes and writes their shared operators once.
"""

import os
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import zip_longest
from math import gcd, inf, lcm
from operator import or_

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

# Monomial packing: field k (counted from the lowest bits) holds the
# exponent of SYMBOL_ORDER[-1 - k]; its top bit is the guard.
_WIDTH = 16
MAX_EXPONENT = (1 << (_WIDTH - 1)) - 1
_FIELD_NAME = SYMBOL_ORDER[::-1]
_SHIFT = {name: _WIDTH * k for k, name in enumerate(_FIELD_NAME)}
_GUARD = sum(1 << (shift + _WIDTH - 1) for shift in _SHIFT.values())

_ZERO = Fraction(0)


def _shift(name):
    try:
        return _SHIFT[name]
    except KeyError:
        raise ConfigError(f"unknown symbol {name!r}; extend SYMBOL_ORDER") from None


def _exponents(m):
    """Yield the nonzero (name, exponent) pairs of monomial m in symbol order."""
    while m:
        field = (m.bit_length() - 1) // _WIDTH
        e = m >> (field * _WIDTH)
        yield _FIELD_NAME[field], e
        m -= e << (field * _WIDTH)


def _pack(pairs):
    """The monomial of (name, exponent) pairs, each exponent in range."""
    m = 0
    for name, e in pairs:
        if e < 0:
            raise ValueError("negative powers are not polynomials")
        if e > MAX_EXPONENT:
            raise OverflowError(f"exponent of {name} exceeds {MAX_EXPONENT}")
        m += e << _shift(name)
    return m


def _checked(monomials):
    """``monomials``, after checking that no sum of two reached a guard bit."""
    over = reduce(or_, monomials, 0) & _GUARD
    if over:
        field = (over.bit_length() - 1) // _WIDTH
        raise OverflowError(
            f"exponent of {_FIELD_NAME[field]} exceeds {MAX_EXPONENT}")
    return monomials


def _merge(terms, part, k=1):
    """Add k times the int term dict ``part`` into ``terms``, in place.

    A new monomial is appended and a sum of 0 is deleted at once, so the
    terms keep the order of the running sum ``terms + k * part``.
    """
    get = terms.get
    for m, c in part.items():
        if k != 1:
            c *= k
        acc = get(m)
        if acc is None:
            terms[m] = c
        else:
            acc += c
            if acc:
                terms[m] = acc
            else:
                del terms[m]


def _mul_q(an, ad, bn, bd):
    """The product (an/ad) * (bn/bd) of two reduced fractions, den > 0, as
    a reduced (num, den) pair: the cross gcds of ``Fraction._mul``."""
    if an == ad:        # a reduced an/ad with an == ad is 1/1
        return bn, bd
    if bn == bd:
        return an, ad
    g1, g2 = gcd(an, bd), gcd(bn, ad)
    return an // g1 * (bn // g2), ad // g2 * (bd // g1)


def _primitive(num, den, terms):
    """The MPoly num/den * terms: a reduced content, ints of any gcd."""
    if not terms:
        return MPoly(0, 1, terms)
    g = gcd(*terms.values())
    if g == 1:
        return MPoly(num, den, terms)
    num, den = _mul_q(num, den, g, 1)
    return MPoly(num, den, {m: c // g for m, c in terms.items()})


class _Sum:
    """A sum of polynomials kept as one content times one int term dict.

    The running content is the gcd of the parts' content numerators over
    the lcm of their denominators, so each part is an integer multiple of
    it; the dict is rescaled in place only when it changes.  ``result``
    takes the one gcd, after an optional scale by a pair.
    """

    __slots__ = ("terms", "num", "den")

    def __init__(self):
        self.terms = {}

    def add(self, num, den, terms, k=1):
        """Add k * num/den * terms: a reduced positive content, an int term
        dict and a nonzero int."""
        if not terms:
            return
        own = self.terms
        if not own:
            self.terms = dict(terms) if k == 1 else {m: c * k for m, c in terms.items()}
            self.num, self.den = num, den
            return
        cn, cd = self.num, self.den
        if num != cn or den != cd:
            g, common = gcd(cn, num), lcm(cd, den)
            grow = cn // g * (common // cd)
            if grow != 1:
                for m in own:
                    own[m] *= grow
            k *= num // g * (common // den)
            self.num, self.den = g, common
        _merge(own, terms, k)

    def result(self, num=1, den=1):
        """The MPoly num/den * content * terms, for a reduced num/den > 0."""
        terms = self.terms
        if not terms:
            return MPoly(0, 1, terms)
        return _primitive(*_mul_q(self.num, self.den, num, den), terms)


def sum_polys(parts):
    """The sum of an iterable of MPolys, added into one term dict.

    Equal to ``parts[0] + parts[1] + ...`` from the left, in value and in
    term order, but no running total is copied: each part is merged into
    one accumulator as it arrives, and one gcd is taken at the end.  An
    empty iterable gives the zero polynomial.
    """
    acc = _Sum()
    for p in parts:
        acc.add(p._num, p._den, p.terms)
    return acc.result()


def _quotient(m, d):
    """Monomial m / d, or None when an exponent would go negative."""
    q = (m | _GUARD) - d
    return q - _GUARD if q & _GUARD == _GUARD else None


def _as_pair(c):
    """The reduced (numerator, denominator) of an exact scalar."""
    if isinstance(c, int):
        return c, 1
    if isinstance(c, str):
        c = Fraction(c)
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    raise TypeError(f"cannot use {type(c).__name__} as an exact coefficient")


DEFAULT_MEM_CAP_MB = 1024.0

# os.environ's own store and the cap's key in it, encoded once: a read of
# an unset variable is then one dict miss, where os.environ.get encodes the
# key and catches a KeyError on every product
_ENVIRON = os.environ._data
_MEM_CAP_KEY = os.environ.encodekey("HEKDV_MEM_CAP_MB")


def _mem_cap_product_terms():
    """The product-term cap that HEKDV_MEM_CAP_MB sets at this moment."""
    return _product_term_cap(_ENVIRON.get(_MEM_CAP_KEY))


@lru_cache(maxsize=8)
def _product_term_cap(raw):
    """An encoded HEKDV_MEM_CAP_MB value as a rough cap on product terms,
    at about 200 bytes a stored term; unset (None) means the 1 GiB default.
    Each raw value is decoded and parsed once; a malformed one, or one that
    is not a finite positive number, raises on every product."""
    if raw is None:
        cap = DEFAULT_MEM_CAP_MB
    else:
        cap_mb = os.environ.decodevalue(raw)
        try:
            cap = float(cap_mb)
        except ValueError:
            raise ConfigError(f"HEKDV_MEM_CAP_MB={cap_mb!r} is not a number")
        if not 0 < cap < inf:
            raise ConfigError(f"HEKDV_MEM_CAP_MB={cap_mb!r} is not a finite "
                              f"positive number")
    return max(1, int(cap * 1_000_000 / 200))


class MPoly:
    """Immutable sparse multivariate polynomial with rational coefficients."""

    __slots__ = ("_num", "_den", "terms")

    def __init__(self, num, den, terms):
        # Trusted constructor: a positive content num/den in lowest terms
        # and a primitive int term dict of in-range monomials, or 0/1 and
        # no terms.  A term dict may be shared, so none is mutated.
        _set_num(self, num)
        _set_den(self, den)
        _set_terms(self, terms)

    def __setattr__(self, *_):
        raise AttributeError("MPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return MPoly(0, 1, {})

    @staticmethod
    def const(c):
        num, den = _as_pair(c)
        if num > 0:
            return MPoly(num, den, {0: 1})
        if num < 0:
            return MPoly(-num, den, {0: -1})
        return MPoly.zero()

    @staticmethod
    def var(name, power=1):
        return MPoly(1, 1, {_pack([(name, power)]): 1})

    @staticmethod
    def from_terms(vars, term_map):
        """Sum of c * prod(v^e for v, e in zip(vars, expo)) over ``term_map``.

        Every name in ``vars`` must be a known symbol, in any order.
        """
        vars = tuple(vars)
        for v in vars:
            _shift(v)
        acc = _Sum()
        for expo, c in term_map.items():
            num, den = _as_pair(c)
            if num:
                acc.add(abs(num), den, {_pack(zip(vars, expo)): 1 if num > 0 else -1})
        _checked(acc.terms)
        return acc.result()

    # -- structural queries -------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def term_count(self):
        return len(self.terms)

    def variables_used(self):
        return {v for v, _ in _exponents(reduce(or_, self.terms, 0))}

    def degree_in(self, name):
        shift = _shift(name)
        return max(((m >> shift) & MAX_EXPONENT for m in self.terms), default=0)

    def min_degree_in(self, name):
        shift = _shift(name)
        return min(((m >> shift) & MAX_EXPONENT for m in self.terms), default=0)

    def has_constant_term(self):
        return 0 in self.terms

    def coeffs_in(self, name):
        """{e: coefficient of name^e}; no coefficient contains ``name``.

        The zero polynomial gives {}; a polynomial without ``name`` gives
        {0: self}.
        """
        shift = _shift(name)
        parts = {}
        for m, c in self.terms.items():
            e = (m >> shift) & MAX_EXPONENT
            parts.setdefault(e, {})[m - (e << shift)] = c
        return {e: _primitive(self._num, self._den, terms)
                for e, terms in parts.items()}

    def monomials(self):
        """Yield (((var, exp), ...), coeff) per term, zero exponents left out."""
        num, den = self._num, self._den
        for m, c in self.terms.items():
            yield tuple(_exponents(m)), Fraction(num * c, den)

    def coefficient(self, monomial):
        """The Fraction coefficient of the monomial given as (name,
        exponent) pairs; 0 when self has no such term."""
        c = self.terms.get(_pack(monomial))
        return _ZERO if c is None else Fraction(self._num * c, self._den)

    def as_constant(self):
        """Return the Fraction value if constant, else None."""
        if not self.terms:
            return _ZERO
        if len(self.terms) == 1:
            # a primitive constant is 1 or -1
            c = self.terms.get(0)
            if c is None:
                return None
            return Fraction(self._num if c == 1 else -self._num, self._den)
        return None

    def leading(self):
        """Leading (monomial, coefficient) under the global lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms)
        return m, Fraction(self._num * self.terms[m], self._den)

    def content(self):
        """Positive rational content: gcd of numerators over lcm of denominators."""
        return Fraction(self._num, self._den)

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MPoly.const(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        acc = _Sum()
        acc.add(self._num, self._den, self.terms)
        acc.add(other._num, other._den, other.terms)
        return acc.result()

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self._num, self._den, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MPoly.const(other)
        if not other.terms:
            return self
        if not self.terms:
            return -other
        acc = _Sum()
        acc.add(self._num, self._den, self.terms)
        acc.add(other._num, other._den, other.terms, -1)
        return acc.result()

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # an MPoly operand is tested first: isinstance against Fraction
        # goes through the numbers ABCs and is slow
        if not isinstance(other, MPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return self._scaled(*_as_pair(other))
        p, q = self, other
        if len(p.terms) < len(q.terms):
            p, q = q, p
        # the cap is at least 1 term, so a one-term product skips the lookup
        projected = len(p.terms) * len(q.terms)
        if projected > 1 and projected > _mem_cap_product_terms():
            raise MemoryCapExceeded(
                f"product would allocate ~{projected} terms, above the "
                f"HEKDV_MEM_CAP_MB limit; raise the cap to proceed")
        num, den = _mul_q(p._num, p._den, q._num, q._den)
        if len(q.terms) == 1:
            # a primitive term has coefficient 1 or -1
            (qe, qc), = q.terms.items()
            if not qe:
                return MPoly(num, den, p.terms if qc == 1 else
                             {m: -c for m, c in p.terms.items()})
            if qc == 1:
                return MPoly(num, den, _checked({pe + qe: pc
                                                 for pe, pc in p.terms.items()}))
            return MPoly(num, den, _checked({pe + qe: -pc
                                             for pe, pc in p.terms.items()}))
        # primitive times primitive is primitive (Gauss): no gcd needed
        terms = {}
        get = terms.get
        for qe, qc in q.terms.items():
            for pe, pc in p.terms.items():
                key = pe + qe
                acc = get(key)
                if acc is None:
                    terms[key] = pc * qc
                else:
                    acc += pc * qc
                    if acc:
                        terms[key] = acc
                    else:
                        del terms[key]
        return MPoly(num, den, _checked(terms))

    __rmul__ = __mul__

    def _scaled(self, num, den):
        """self * num/den, for a scalar in lowest terms with den > 0."""
        if not num:
            return MPoly.zero()
        terms = self.terms
        if num < 0:
            num, terms = -num, {m: -k for m, k in terms.items()}
        return MPoly(*_mul_q(self._num, self._den, num, den), terms)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        return power(self, n, MPoly.const(1))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            num, den = _as_pair(other)
            if not num:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            return self._scaled(den, num) if num > 0 else self._scaled(-den, -num)
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return (self.terms == other.terms and self._num == other._num
                    and self._den == other._den)
        if isinstance(other, (int, Fraction)):
            return self.as_constant() == other
        return NotImplemented

    def __hash__(self):
        # a constant hashes as its value, since it compares equal to it
        value = self.as_constant()
        if value is not None:
            return hash(value)
        return hash((Fraction(self._num, self._den),
                     frozenset(self.terms.items())))

    # -- calculus and substitution ---------------------------------------

    def derivative(self, name):
        shift = _shift(name)
        terms = {}
        for m, c in self.terms.items():
            e = (m >> shift) & MAX_EXPONENT
            if e:
                terms[m - (1 << shift)] = c * e
        return _primitive(self._num, self._den, terms)

    def subst(self, mapping):
        """Substitute variables by polynomials/Fractions; returns MPoly.

        Variables that ``mapping`` does not name stay as they are.  The
        substitution is simultaneous.  When every variable of self goes to
        one term of content 1 (a monomial, or its negative), the terms are
        rewritten in one pass without a product; otherwise a throwaway
        ``Substitution`` forms them.  Either way the result and its term
        order are ``eval_poly``'s.
        """
        sub = Substitution(mapping)
        out = self._subst_monomials(sub.mapping)
        return sub(self) if out is None else out

    def _subst_monomials(self, mapping):
        """``subst`` when each variable goes to +-1 times a monomial, else None.

        ``mapping`` holds MPolys; a variable it does not name stays.  The
        OR of self's monomials bounds the exponents.  None also when that
        bound lets an exponent of the result pass ``MAX_EXPONENT``: the
        product path then decides, and raises OverflowError where one
        does.  Terms that land on one monomial add, and a sum of 0 is
        deleted, in the order in which ``eval_poly`` adds them.
        """
        keep, moved, bound = 0, [], {}
        for v, e in _exponents(reduce(or_, self.terms, 0)):
            image = mapping.get(v)
            shift = _SHIFT[v]
            if image is None:
                mono, sign = 1 << shift, 1
            elif (len(image.terms) != 1 or image._num != 1
                    or image._den != 1):
                return None
            else:
                (mono, sign), = image.terms.items()
            if mono == 1 << shift and sign == 1:
                keep |= MAX_EXPONENT << shift
            else:
                moved.append((shift, mono, sign < 0))
            for w, f in _exponents(mono):
                bound[w] = bound.get(w, 0) + e * f
        if any(b > MAX_EXPONENT for b in bound.values()):
            return None
        terms = {}
        get = terms.get
        for m, c in self.terms.items():
            new = m & keep
            for shift, image, negative in moved:
                e = (m >> shift) & MAX_EXPONENT
                if e:
                    new += e * image
                    if negative and e & 1:
                        c = -c
            acc = get(new)
            if acc is None:
                terms[new] = c
            else:
                acc += c
                if acc:
                    terms[new] = acc
                else:
                    del terms[new]
        return _primitive(self._num, self._den, terms)

    def clear_denominator(self, name, factor):
        """Clear a denominator carried by one variable: ``(q, k)``.

        In self the variable ``name`` stands for name/factor, for a
        one-term ``factor`` without ``name``.  Then k = deg_name(self) and
        q = self * factor^k, in which ``name`` is kept: each term with
        name^e gains factor^(k - e), an exponent shift and an integer
        scale, in one pass.  The terms come grouped by e, each e where it
        first occurs, as in the sum of the coefficients of the powers of
        ``name``.  A factor of two or more terms, or none, or one that
        holds ``name``, raises ValueError.
        """
        shift = _shift(name)
        if len(factor.terms) != 1:
            raise ValueError("clear_denominator needs a one-term factor")
        (fm, sign), = factor.terms.items()
        if (fm >> shift) & MAX_EXPONENT:
            raise ValueError(f"clear_denominator needs a factor without {name}")
        field = MAX_EXPONENT << shift
        k = max((m & field for m in self.terms), default=0) >> shift
        if not k:
            return self, 0
        fn, fd = factor._num * sign, factor._den
        # per e: the shift by factor^(k-e), the scale fn^(k-e) * fd^e of an
        # int coefficient (over the content's fd^k) and the shifted terms
        groups = {}
        for m, c in self.terms.items():
            e = (m & field) >> shift
            group = groups.get(e)
            if group is None:
                group = groups[e] = (
                    _pack((v, f * (k - e)) for v, f in _exponents(fm)),
                    fn ** (k - e) * fd ** e, {})
            step, scale, part = group
            part[m + step] = c * scale
        terms = {}
        for _, _, part in groups.values():
            terms.update(part)
        return _primitive(*_mul_q(self._num, self._den, 1, fd ** k),
                          _checked(terms)), k

    def eval_numeric(self, point):
        """Evaluate at a dict of numbers (int, Fraction, float or complex):
        ``eval_poly`` with identity 1, so exact at rational points."""
        return eval_poly(self, point, 1)

    # -- division -------------------------------------------------------

    def exact_div(self, divisor):
        """Exact quotient self/divisor by a monomial, or None when not divisible.

        The divisor must have one term: the quotient shifts the monomials,
        and None means the divisor's monomial does not divide every term.
        A difference u - v of two variables is divided by name, with
        ``divide_out_linear``; any other divisor raises ValueError.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if len(divisor.terms) != 1:
            raise ValueError("exact_div divides by a monomial; divide by "
                             "u - v with divide_out_linear")
        if self.is_zero:
            return MPoly.zero()
        # a primitive term has coefficient 1 or -1, so the quotient keeps
        # the dividend's coefficients up to sign
        (de, dc), = divisor.terms.items()
        terms = {}
        for m, c in self.terms.items():
            q = _quotient(m, de)
            if q is None:
                return None
            terms[q] = c if dc == 1 else -c
        # dividing by the positive content bn/bd multiplies by bd/bn
        return MPoly(*_mul_q(self._num, self._den, divisor._den, divisor._num),
                     terms)

    def divide_out_linear(self, name, other_name):
        """Exact quotient by (name - other_name), e.g. (X1 - X2); None if inexact.

        Horner-style division treating the polynomial as univariate in
        ``name`` with coefficients in the remaining variables; linear cost
        in the term count times the degree.  It runs on the integer part
        and never divides, and an exact quotient is again primitive.
        """
        i, unit = _shift(name), 1 << _shift(other_name)
        deg = self.degree_in(name)
        # bucket by exponent of `name`
        buckets = [dict() for _ in range(deg + 1)]
        for m, c in self.terms.items():
            e = (m >> i) & MAX_EXPONENT
            buckets[e][m - (e << i)] = c
        carry = {}      # running b_k as dict
        quotient = {}
        for e in range(deg, 0, -1):
            # b_{e-1} = A_e + carry ;  quotient gains b_{e-1} * name^{e-1}
            _merge(carry, buckets[e])
            for key, c in carry.items():
                quotient[key + ((e - 1) << i)] = c
            # carry for next lower degree: b_{e-1} * other_name
            carry = _checked({key + unit: c for key, c in carry.items()})
        # remainder = A_0 + carry must vanish
        _merge(carry, buckets[0])
        if carry:
            return None
        return MPoly(self._num, self._den, quotient)

    def rem_monic(self, name, degree, tail):
        """The remainder of self by the monic name^degree - tail, whose tail
        has name-degree below ``degree``.  Each pass pops the int terms of
        name-degree at least ``degree``, scales the rest by the tail's
        content denominator (and the content by its inverse), and puts the
        tail's int terms times its content numerator in place of each
        popped name^degree; one gcd ends it.  An input with no such term is
        returned as it is, before the tail is looked at."""
        shift = _shift(name)
        field, low = MAX_EXPONENT << shift, degree << shift
        for m in self.terms:
            if m & field >= low:
                break
        else:
            return self
        if tail.degree_in(name) >= degree:
            raise ValueError(f"rem_monic needs a tail of degree in {name} "
                             f"below {degree}")
        parts = [(tm - low, tc * tail._num) for tm, tc in tail.terms.items()]
        scale, num, den = tail._den, self._num, self._den
        terms = dict(self.terms)
        high = [m for m in terms if m & field >= low]
        while high:
            popped = [(m, terms.pop(m)) for m in high]
            if scale != 1:
                for m in terms:
                    terms[m] *= scale
                num, den = _mul_q(num, den, 1, scale)
            for m, c in popped:
                for dm, dc in parts:
                    key = m + dm
                    acc = terms.get(key, 0) + c * dc
                    if acc:
                        terms[key] = acc
                    else:
                        del terms[key]
            high = [m for m in _checked(terms) if m & field >= low]
        return _primitive(num, den, terms)

    # -- printing ---------------------------------------------------------

    def _term_str(self, m, c):
        factors = [v if e == 1 else f"{v}^{e}" for v, e in _exponents(m)]
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
        for n, m in enumerate(sorted(self.terms, reverse=True)):
            if max_terms is not None and n >= max_terms:
                parts.append(f"... (+{len(self.terms) - max_terms} more terms)")
                break
            s = self._term_str(m, Fraction(self._num * self.terms[m], self._den))
            if parts and not s.startswith("-"):
                s = "+" + s
            parts.append(s)
        return "".join(parts)

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"MPoly({self.to_str(max_terms=8)})"


# the slot setters, past the immutability guard (faster than
# object.__setattr__ on every construction)
_set_num = MPoly._num.__set__
_set_den = MPoly._den.__set__
_set_terms = MPoly.terms.__set__


def unit_den(num, den):
    """num/den scaled by den's stored content pair and leading sign, so that
    den has content 1 and a positive leading coefficient (1 if constant)."""
    terms, dn, dd = den.terms, den._num, den._den
    if terms[max(terms)] < 0:
        return num._scaled(-dd, dn), MPoly(1, 1, {m: -c for m, c in terms.items()})
    return num._scaled(dd, dn), MPoly(1, 1, terms)


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


# the operators Ring.__init_subclass__ copies into each subclass
_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__neg__", "__pow__", "__truediv__",
              "__rtruediv__", "__eq__")


class Ring:
    """Base of the immutable ring-element classes: the shared operators.

    A subclass supplies ``is_zero``, ``_lift``, ``__add__``, ``__neg__``
    and ``__mul__``, and ``inverse`` if it divides.  ``_lift`` brings an
    operand into the ring; it raises TypeError for a foreign operand and
    ValueError for an element of another ring of the same kind.  The other
    operators are written here once, against those: ``==`` returns
    NotImplemented for a foreign operand and otherwise asks whether the
    difference is zero.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # perfbench/tracer.py looks a traced method up in its class's own
        # namespace, so every operator is put there
        for name in _OPERATORS:
            if name not in vars(cls):
                setattr(cls, name, getattr(cls, name))

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __bool__(self):
        return not self.is_zero

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n):
        return power(self, n, self._lift(1))

    def inverse(self):
        """The multiplicative inverse; a ring that does not divide refuses it."""
        raise TypeError(f"{type(self).__name__} has no division")

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __eq__(self, other):
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        return (self - o).is_zero


def dense_coeffs(p, name):
    """The coefficient list of ``p`` in ``name``, constant first, one entry
    per degree up to its degree in ``name``; ConfigError when a coefficient
    holds another variable."""
    coeffs = [_ZERO] * (p.degree_in(name) + 1)
    for e, c in p.coeffs_in(name).items():
        coeffs[e] = c.as_constant()
        if coeffs[e] is None:
            raise ConfigError("polynomial is not univariate")
    return coeffs


def dense_trim(v):
    """Copy of the coefficient list ``v`` without trailing zeros."""
    v = list(v)
    while v and not v[-1]:
        v.pop()
    return v


def dense_mul(a, b):
    """Trimmed product a*b."""
    out = [_ZERO] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return dense_trim(out)


def dense_divmod(a, b):
    """Trimmed (q, r) with a = q*b + r and len(r) < len(b); b trimmed, b != 0."""
    a = list(a)
    d = len(b) - 1
    low = [(j, y) for j, y in enumerate(b[:d]) if y]
    q = [_ZERO] * max(0, len(a) - d)
    for k in range(len(a) - 1 - d, -1, -1):
        c = a[k + d]
        if c:
            q[k] = c = c / b[-1]
            for j, y in low:
                a[k + j] = a[k + j] - c * y
    return dense_trim(q), dense_trim(a[:d])


def dense_inverse(a, m):
    """s with a*s = 1 modulo m, by extended Euclid over the rationals, or
    None when a and m have a common factor (a = 0 included)."""
    r0, r1 = dense_trim(m), dense_trim(a)
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = dense_divmod(r0, r1)
        qs = dense_mul(q, s1)
        r0, r1 = r1, r
        s0, s1 = s1, dense_trim(
            x - y for x, y in zip_longest(s0, qs, fillvalue=_ZERO))
    if len(r0) != 1:
        return None
    return [c / r0[0] for c in s0]


class Substitution:
    """A simultaneous substitution of MPolys for variables that keeps the
    image of every monomial prefix it forms.

    ``mapping`` sends names to MPolys, ints or Fractions; a variable it
    does not name stands for itself.  Calling the substitution on an MPoly
    forms each term as the left-to-right product, in symbol order, of the
    powers of the images, and merges the scaled products into one ``_Sum``
    with the content applied once at the end, so the result and its term
    order are the running sum's.  The image of each prefix of that chain,
    a^i, a^i*c^j, a^i*c^j*d^k, ..., is kept, keyed by its packed monomial,
    as the kept image of the shorter prefix times the kept power: each
    distinct prefix costs one product for as long as the substitution
    lives, and one that outlives a call serves every later call too (the
    tree-structured evaluation of Carnicer & Gasca, "Evaluation of
    multivariate polynomials and their derivatives", Math. Comp. 54(189),
    1990).  The kept terms count against the product-term cap that
    HEKDV_MEM_CAP_MB sets; past it, images are still formed and returned
    but no new one is kept.
    """

    __slots__ = ("mapping", "_images", "_kept_terms")

    def __init__(self, mapping):
        self.mapping = {v: MPoly.const(image)
                        if isinstance(image, (int, Fraction)) else image
                        for v, image in mapping.items()}
        self._images = {0: _ONE}
        self._kept_terms = 0

    def _keep(self, m, image):
        """Keep ``image`` as the image of monomial m, within the cap."""
        kept = self._kept_terms + len(image.terms)
        if kept <= _mem_cap_product_terms():
            self._images[m] = image
            self._kept_terms = kept
        return image

    def power(self, name, e):
        """The image of name^e, formed on first use and kept, within the
        cap."""
        m = e << _shift(name)
        pv = self._images.get(m)
        if pv is None:
            image = self.mapping.get(name)
            pv = self._keep(m, power(
                MPoly.var(name) if image is None else image, e, _ONE))
        return pv

    def _image(self, m):
        """The image of monomial m, prefix by prefix: a prefix not kept yet
        is the image of the one before it times the kept power."""
        images = self._images
        prefix, prod = 0, _ONE
        for name, e in _exponents(m):
            prefix += e << _SHIFT[name]
            pv = images.get(prefix)
            if pv is None:
                pv = self.power(name, e)
                if prod is not _ONE:
                    pv = self._keep(prefix, prod * pv)
            prod = pv
        return prod

    def __call__(self, p):
        images = self._images
        acc = _Sum()
        for m, c in p.terms.items():
            prod = images.get(m)
            if prod is None:
                prod = self._image(m)
            acc.add(prod._num, prod._den, prod.terms, c)
        return acc.result(p._num, p._den)


_ONE = MPoly(1, 1, {0: 1})


def eval_poly(p, mapping, one):
    """Evaluate polynomial `p` in any commutative ring.

    Values in `mapping` must support +, * between themselves and * by
    Fraction on the left or right.  `one` is the ring's multiplicative
    identity (used for empty monomials).  Variables of `p` that carry a
    nonzero exponent must all be mapped.

    Each term is the product of the powers of the mapped values, each
    power formed once per call, times the term's coefficient.  Over MPolys
    a throwaway ``Substitution`` does it, which forms each monomial prefix
    once per call too; other rings add a running total.
    Either way an MPoly result has the terms in the order of that running
    sum.
    """
    missing = p.variables_used() - mapping.keys()
    if missing:
        raise ConfigError(f"eval_poly: unmapped variables {sorted(missing)}")
    if isinstance(one, MPoly) and all(isinstance(v, MPoly)
                                      for v in mapping.values()):
        return Substitution(mapping)(p)

    powers = {}
    total = None
    for mono, c in p.monomials():
        acc = None
        for key in mono:
            pv = powers.get(key)
            if pv is None:
                pv = powers[key] = power(mapping[key[0]], key[1], one)
            acc = pv if acc is None else acc * pv
        if acc is None:
            term = one * c
        else:
            term = acc * c
        total = term if total is None else total + term
    if total is None:
        return one * Fraction(0)
    return total


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
    return w


def weighted_degree(p, table):
    """Weighted degree if `p` is weighted-homogeneous, else None.

    ``table`` maps each symbol of `p` to its weight; a missing symbol
    raises ConfigError.  The zero polynomial is homogeneous of every
    degree; returns 0.
    """
    if p.is_zero:
        return 0
    deg = None
    for m in p.terms:
        try:
            d = sum(e * table[v] for v, e in _exponents(m))
        except KeyError as missing:
            raise ConfigError(f"no weight declared for symbol "
                              f"{missing.args[0]!r}") from None
        if deg is None:
            deg = d
        elif d != deg:
            return None
    return deg
