"""Sparse multivariate polynomials with exact rational coefficients.

A monomial is a tuple of nonnegative exponents; variable order is fixed by the
caller (Cayley rings put the y variables first). Polynomials are immutable
once built.

Every element (a Poly here, a SuperElement or FormElement in supercomplex)
is stored in one exact form: Python int numerators over one denominator, the
coefficient at a key being nums[key] / denom. The form is canonical: denom
is positive, no zero numerator is stored and gcd(denom, *nums) == 1, so ==
and hash compare the stored ints. Every kernel runs on that form and builds
no Fraction: the products, the linear combination (LinearSum, which the sum
and difference of elements drive, and through add_product the product of
two Polys), the partials and, in supercomplex, delta and the Q contraction.
A polynomial's partials have one form, Poly.partial_rows: the numerators
n * e_i of each nonzero partial, kept over the polynomial's own denom. The
Jacobian rows of jacobired and every Q contraction of supercomplex read it.
The hot sums add products and Q contractions straight into a LinearSum's
numerators (LinearSum.add_product, supercomplex.q_f), building no product
element. Fractions enter through the constructor, which clears them with
_cleared, the one denominator-clearing helper of the package, and leave
through the terms view, a new dict of Fractions, which rendering and the
tests read. An element is falsy exactly when it stores no numerator, as a
zero Fraction or int is, so a truth test is the one zero test.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import gcd, lcm


def grevlex_key(exps):
    """Sort key realizing graded reverse lexicographic order, ascending.

    Higher total degree wins; at equal degree the monomial whose trailing
    exponent difference is negative is the larger one. Earlier positions are
    the more significant variables.
    """
    return (sum(exps), tuple(map(operator.neg, reversed(exps))))


def monomial_mul(a, b):
    return tuple(map(operator.add, a, b))


class ExponentOverflow(OverflowError):
    """An exponent past the largest one a GrevlexPacking's fields hold."""


class GrevlexPacking:
    """Monomials in nvars variables packed into one int each: the grevlex key.

    Every variable has a field of `bits` bits, the last variable the most
    significant, and above them all sits a degree field holding minus the
    total degree, so key(m) = sum(m_i * places[i]) with
    places[i] = 2**(bits*i) - 2**(bits*nvars). Hence:

    - ascending keys are descending grevlex, the reverse of grevlex_key;
    - the key of a product is the sum of the keys;
    - t divides m exactly when (key(m) - key(t)) & guards == 0.

    The top bit of every field is a guard bit kept clear, so a field holds
    exponents up to limit = 2**(bits-1) - 1. The difference of two keys
    then borrows into the guard bit of the lowest field where t exceeds m,
    and no field ever carries into the next. The width comes from the
    largest exponent top to be packed: whole bytes holding its bits plus
    the guard bit. key raises ExponentOverflow for an exponent past limit.
    """

    __slots__ = ("nvars", "bits", "limit", "places", "guards")

    def __init__(self, nvars, top):
        bits = 8 * -(-(top.bit_length() + 1) // 8)
        degree = 1 << (bits * nvars)
        self.nvars = nvars
        self.bits = bits
        self.limit = (1 << (bits - 1)) - 1
        self.places = tuple((1 << (bits * i)) - degree for i in range(nvars))
        self.guards = sum(1 << (bits * i + bits - 1) for i in range(nvars))

    def key(self, exps):
        if max(exps) > self.limit:
            raise ExponentOverflow(
                f"exponent {max(exps)} of {exps} is past {self.limit}, "
                f"the largest a {self.bits}-bit field holds"
            )
        return sum(map(operator.mul, exps, self.places))

    def exponents(self, key):
        """The monomial of a key: its fields, read off the low bits."""
        bits = self.bits
        mask = (1 << bits) - 1
        return tuple((key >> (bits * i)) & mask for i in range(self.nvars))


def _cleared(coeffs):
    """(d, d * coeffs) with d the lcm of the denominators; the values are ints.
    Any value but an int or a Fraction, a float say, raises TypeError."""
    try:
        d = lcm(*(v.denominator for v in coeffs.values()))
    except AttributeError:
        bad = next(v for v in coeffs.values() if not hasattr(v, "denominator"))
        raise TypeError(f"coefficient {bad!r} is not an int or a Fraction") from None
    return d, {key: v.numerator * (d // v.denominator) for key, v in coeffs.items()}


def _canonical(denom, nums):
    """(denom, nums) with the zero numerators dropped and the gcd of denom
    and the numerators divided out; denom is positive."""
    if 0 in nums.values():
        nums = {key: n for key, n in nums.items() if n}
    g = gcd(denom, *nums.values())
    if g == 1:
        return denom, nums
    return denom // g, {key: n // g for key, n in nums.items()}


class LinearSum:
    """A running sum of scale * x over elements x of one class, a scale an int
    or a Fraction: int numerators over the lcm of the scaled denominators
    added so far. The numerators are rescaled when a term's denominator does
    not divide that lcm, so the sum holds no term once it is added.
    add_product, and supercomplex.q_f, add a product or a Q contraction
    without building it."""

    __slots__ = ("cls", "denom", "nums")

    def __init__(self, cls):
        self.cls = cls
        self.denom = 1
        self.nums = {}

    def admit(self, scale, denom):
        """Grow the denominator to admit scale times numerators over denom,
        and return the int that carries such numerators onto it."""
        d = scale.denominator * denom
        if self.denom % d:
            grown = lcm(self.denom, d)
            k = grown // self.denom
            self.nums = {key: n * k for key, n in self.nums.items()}
            self.denom = grown
        return scale.numerator * (self.denom // d)

    def add(self, scale, x):
        if not (scale and x.nums):
            return
        factor = self.admit(scale, x.denom)
        nums = self.nums
        get = nums.get
        for key, n in x.nums.items():
            nums[key] = get(key, 0) + factor * n

    def add_product(self, scale, x, y):
        """Add scale * x * y for Polys x and y, straight into the numerators:
        no product is built."""
        if not (scale and x.nums and y.nums):
            return
        factor = self.admit(scale, x.denom * y.denom)
        nums = self.nums
        get, add = nums.get, operator.add
        ys = tuple(y.nums.items())
        for e1, c1 in x.nums.items():
            c1 *= factor
            for e2, c2 in ys:
                key = tuple(map(add, e1, e2))  # monomial_mul, inlined: hot loop
                nums[key] = get(key, 0) + c1 * c2

    def element(self):
        """The sum as an element of its class; adding on leaves it as it is."""
        return self.cls.from_nums(self.denom, dict(self.nums))


class _SparseTerms:
    """Immutable sparse element in the canonical int form of the module
    docstring: the coefficient at a key is nums[key] / denom.

    Keys are stored as given. Subclasses supply the products (_times);
    values of different subclasses never compare equal.
    """

    __slots__ = ("denom", "nums")

    def __init__(self, terms):
        """The element of {key: int or Fraction}; zero values are dropped."""
        self.denom, self.nums = _canonical(*_cleared(terms))

    @classmethod
    def from_nums(cls, denom, nums):
        """The element nums / denom, for int numerators and a positive denom.
        The element may keep nums itself, so the caller hands over a dict it
        no longer changes."""
        out = cls.__new__(cls)
        out.denom, out.nums = _canonical(denom, nums)
        return out

    @classmethod
    def sum(cls, pairs):
        """The sum of scale * x over (scale, x) pairs, x of this class and a
        scale an int or a Fraction."""
        total = LinearSum(cls)
        for scale, x in pairs:
            total.add(scale, x)
        return total.element()

    @property
    def terms(self):
        """The coefficients as a new {key: Fraction} dict; changing it leaves
        the element as it is."""
        d = self.denom
        return {key: Fraction(n, d) for key, n in self.nums.items()}

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.denom == other.denom
            and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.denom, frozenset(self.nums.items())))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self).sum(((1, self), (1, other)))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self).sum(((1, self), (-1, other)))

    def __neg__(self):
        return type(self).from_nums(
            self.denom, {k: -n for k, n in self.nums.items()}
        )

    def __mul__(self, other):
        """The product with an int, a Fraction or an element of a compatible
        kind; NotImplemented for anything else, floats included."""
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            return type(self).from_nums(
                self.denom * other.denominator,
                {k: n * num for k, n in self.nums.items()},
            )
        return self._times(other)

    # scalars and polynomials are even, so no sign appears
    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


class Poly(_SparseTerms):
    """Keys are exponent tuples."""

    __slots__ = ("_partial_rows",)

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls({tuple(exps): coeff})

    def _times(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        product = LinearSum(Poly)
        product.add_product(1, self, other)
        return product.element()

    def partial_rows(self):
        """The partials, computed once per polynomial: {i: ((exponents,
        numerator), ...)} for every variable i with a nonzero partial, the
        numerators n * e_i read off the terms and kept over self.denom."""
        try:
            return self._partial_rows
        except AttributeError:
            rows = {}
            for exps, n in self.nums.items():
                for i, e in enumerate(exps):
                    if e:
                        lowered = exps[:i] + (e - 1,) + exps[i + 1 :]
                        rows.setdefault(i, []).append((lowered, n * e))
            self._partial_rows = {i: tuple(rows[i]) for i in sorted(rows)}
            return self._partial_rows

def _render_term(exps, coeff, names, odd=()):
    """One term: coefficient, then powers of names, then the odd factors."""
    factors = []
    for name, e in zip(names, exps):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    factors.extend(odd)
    if not factors:
        return str(coeff)
    body = "*".join(factors)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def _join_terms(parts):
    """Rendered terms joined by " + " and " - "; "0" when there are none."""
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def render_poly(f, names):
    """Canonical text form: terms in descending grevlex order."""
    terms = f.terms
    return _join_terms(
        [
            _render_term(exps, terms[exps], names)
            for exps in sorted(terms, key=grevlex_key, reverse=True)
        ]
    )


_FACTOR = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:\^(\d+))?$")


def parse_terms(text):
    """Lexical split of a rendered polynomial into (coeff, {name: exp}) pairs."""
    src = text.strip()
    if src == "0":
        return []
    src = src.replace(" - ", " + -")
    out = []
    for chunk in src.split(" + "):
        chunk = chunk.strip()
        sign = Fraction(1)
        if chunk.startswith("-"):
            sign = Fraction(-1)
            chunk = chunk[1:]
        coeff = sign
        powers = {}
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in term {chunk!r}")
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            m = _FACTOR.match(factor)
            if not m:
                raise ValueError(f"bad factor {factor!r}")
            name, exp = m.group(1), int(m.group(2) or 1)
            powers[name] = powers.get(name, 0) + exp
        out.append((coeff, powers))
    return out


def parse_poly(text, names):
    index = {name: i for i, name in enumerate(names)}
    terms = {}
    for coeff, powers in parse_terms(text):
        exps = [0] * len(names)
        for name, e in powers.items():
            if name not in index:
                raise ValueError(f"unknown variable {name!r}")
            exps[index[name]] += e
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return Poly(terms)
