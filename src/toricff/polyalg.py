"""Sparse multivariate polynomials with exact rational coefficients.

A monomial is a tuple of nonnegative exponents; variable order is fixed by the
caller (Cayley rings put the y variables first). Polynomials are immutable
once built.

Every element (a Poly here, a SuperElement or FormElement in supercomplex)
is stored in one exact form: Python int numerators over one denominator, the
coefficient at a key being nums[key] / denom. The form is canonical: denom
is positive, no zero numerator is stored and gcd(denom, *nums) == 1, so ==
and hash compare the stored ints. Every kernel runs on that form and builds
no Fraction: the products, the sums, the partials and, in supercomplex,
delta and the Q contraction.
A polynomial's partials are one table, Poly.partial_rows: the numerators
n * e_i of each nonzero partial, kept over the polynomial's own denom. The
Q contractions q_s and wedge_df of supercomplex read its exponent tuples;
q_f and the Jacobian rows of jacobired read it packed (Poly.packed_rows).

The hot sums add products and Q contractions straight into the numerators
of a LinearSum (LinearSum.add_product, supercomplex.q_f), building no
product element. A LinearSum keys a monomial by one int, its key at the
one packing of every monomial in as many variables (shared_packing):
16-bit fields that hold exponents up to 2**15 - 1. The key of a product is
the sum of the keys, and the sum of two such keys never carries, so a
product term costs one int addition and each monomial of the sum is
decoded once, in LinearSum.element. An element packs its terms (and a Poly
its partials) once, on first use by a packed kernel, and keeps them. The
sum and difference of two elements (_SparseTerms.sum) merge the exponent
tuple keys as they are: their inputs are mostly used once, where a pack
and a decode per term would cost more than they save.

Fractions enter through the constructor, which clears them with _cleared,
the one denominator-clearing helper of the package, and leave through the
terms view, a new dict of Fractions, which rendering and the tests read. An
element is falsy exactly when it stores no numerator, as a zero Fraction or
int is, so a truth test is the one zero test.
"""

from __future__ import annotations

import operator
import re
import struct
from fractions import Fraction
from functools import cache
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

    Every variable has a field of bits = 16 bits, the last variable the
    most significant, and above them all sits a degree field holding minus
    the total degree, so key(m) = sum(m_i * places[i]) with
    places[i] = 2**(bits*i) - 2**(bits*nvars). Hence:

    - ascending keys are descending grevlex, the reverse of grevlex_key;
    - the key of a product is the sum of the keys;
    - t divides m exactly when (key(m) - key(t)) & guards == 0.

    The top bit of every field is a guard bit kept clear, so a field holds
    exponents up to limit = 2**(bits-1) - 1. The difference of two keys then
    borrows into the guard bit of the lowest field where t exceeds m, and
    no field ever carries into the next. key raises ExponentOverflow for an
    exponent past limit. exponents reads every field whole, guard bit
    included, so it decodes a sum of two keys too, a field of at most
    2**16 - 2. Build one with shared_packing.
    """

    __slots__ = ("places", "guards", "_degree", "_fields")
    bits = 16
    limit = (1 << (bits - 1)) - 1

    def __init__(self, nvars):
        bits = self.bits
        degree = 1 << (bits * nvars)
        self.places = tuple((1 << (bits * i)) - degree for i in range(nvars))
        self.guards = sum(1 << (bits * i + bits - 1) for i in range(nvars))
        self._degree = degree  # the place value of the degree field
        # the fields as little-endian unsigned shorts: key and exponents
        # pack and read bytes
        self._fields = struct.Struct(f"<{nvars}H")

    def key(self, exps):
        if max(exps, default=0) > self.limit:
            raise ExponentOverflow(
                f"exponent {max(exps)} of {exps} is past {self.limit}, "
                f"the largest a {self.bits}-bit field holds"
            )
        low = int.from_bytes(self._fields.pack(*exps), "little")
        return low - sum(exps) * self._degree

    def exponents(self, key):
        """The monomial of a key: its fields, read off the low bits."""
        low = key % self._degree  # every field below the degree field
        return self._fields.unpack(low.to_bytes(self._fields.size, "little"))


@cache
def shared_packing(nvars):
    """The one packing of monomials in nvars variables: every key in the
    engine, a piece's columns and a LinearSum's monomials alike, is at it."""
    return GrevlexPacking(nvars)


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


class _Numerators:
    """Int numerators over the lcm of the scaled denominators merged so far.
    The numerators are rescaled when a term's denominator does not divide
    that lcm, so no merged term is held."""

    __slots__ = ("denom", "nums")

    def __init__(self):
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

    def merge(self, scale, denom, terms):
        """Add scale times the (key, numerator) pairs terms, over denom."""
        factor = self.admit(scale, denom)
        nums = self.nums
        get = nums.get
        for key, n in terms:
            nums[key] = get(key, 0) + factor * n


class LinearSum(_Numerators):
    """A running sum of scale * x over Polys x, a scale an int or a Fraction,
    keyed by packed monomials: every key is an int at one shared_packing,
    which the first term binds. add_product, and supercomplex.q_f, add a
    product or a Q contraction without building it, one int addition per
    product key, from the packed views the operands keep (Poly.packed_terms,
    Poly.packed_rows). element decodes each monomial once."""

    __slots__ = ("packing",)

    def __init__(self):
        super().__init__()
        self.packing = None

    def bind(self, packing):
        """Key the sum at packing, which must be that of every term held."""
        if packing is not self.packing:
            if self.nums:
                raise ValueError("a LinearSum holds one variable count")
            self.packing = packing

    def add(self, scale, x):
        if not (scale and x.nums):
            return
        packing, terms = x.packed_terms()
        self.bind(packing)
        self.merge(scale, x.denom, terms)

    def add_product(self, scale, x, y):
        """Add scale * x * y for Polys x and y, straight into the numerators:
        no product is built."""
        if not (scale and x.nums and y.nums):
            return
        packing, xs = x.packed_terms()
        ys = y.packed_terms()[1]
        self.bind(packing)
        factor = self.admit(scale, x.denom * y.denom)
        nums = self.nums
        get = nums.get
        for k1, c1 in xs:
            c1 *= factor
            for k2, c2 in ys:
                key = k1 + k2
                nums[key] = get(key, 0) + c1 * c2

    def element(self):
        """The sum as a Poly; adding on leaves it as it is."""
        if self.packing is None:
            return Poly({})
        exponents = self.packing.exponents
        return Poly.from_nums(
            self.denom, {exponents(key): n for key, n in self.nums.items() if n}
        )


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
        scale an int or a Fraction, merged on the keys as they are."""
        total = _Numerators()
        for scale, x in pairs:
            if scale and x.nums:
                total.merge(scale, x.denom, x.nums.items())
        return cls.from_nums(total.denom, total.nums)

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

    __slots__ = ("_partial_rows", "_packed_terms", "_packed_rows")

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls({tuple(exps): coeff})

    def _times(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        product = LinearSum()
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

    def packed_terms(self):
        """(packing, ((key, numerator), ...)) for a nonzero polynomial, built
        once: its terms with each monomial keyed at the shared_packing of its
        variable count. Raises ExponentOverflow past the packing's limit."""
        try:
            return self._packed_terms
        except AttributeError:
            packing = shared_packing(len(next(iter(self.nums))))
            key = packing.key
            terms = tuple((key(exps), n) for exps, n in self.nums.items())
            self._packed_terms = packing, terms
            return self._packed_terms

    def packed_rows(self):
        """partial_rows with each monomial keyed at the shared_packing of its
        variable count, built once."""
        try:
            return self._packed_rows
        except AttributeError:
            packed = {}
            for i, row in self.partial_rows().items():
                key = shared_packing(len(row[0][0])).key
                packed[i] = tuple((key(exps), n) for exps, n in row)
            self._packed_rows = packed
            return self._packed_rows


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
