"""Sparse multivariate polynomials with exact rational coefficients.

A monomial is a tuple of nonnegative exponents; variable order is fixed by the
caller (Cayley rings put the y variables first). Polynomials are immutable
once built and every stored coefficient is an exact fractions.Fraction.

The arithmetic runs over integers. Cleared is the int-numerator form of an
element: Python int numerators over one denominator, built by _cleared, the
one denominator-clearing helper of the package. Each operation has one
kernel on that form: the polynomial product (Cleared.__mul__), the linear
combination (ClearedSum, which Cleared.sum drives) and, in supercomplex, the
Q_f contraction. The unfolding step and the fqm2 check clear each table
entry once and sum their products there. Fractions are built only where a
Fraction element is asked for: Poly.__mul__ and combination clear their
operands, run the kernel and build one Fraction per output term.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import lcm


def grevlex_key(exps):
    """Sort key realizing graded reverse lexicographic order, ascending.

    Higher total degree wins; at equal degree the monomial whose trailing
    exponent difference is negative is the larger one. Earlier positions are
    the more significant variables.
    """
    return (sum(exps), tuple(-e for e in reversed(exps)))


def monomial_mul(a, b):
    return tuple(map(operator.add, a, b))


def _cleared(coeffs):
    """(d, d * coeffs) with d the lcm of the denominators; the values are ints."""
    d = lcm(*(v.denominator for v in coeffs.values()))
    return d, {key: v.numerator * (d // v.denominator) for key, v in coeffs.items()}


def _nonzero(numerators):
    return {key: n for key, n in numerators.items() if n}


class Cleared:
    """Int-numerator form of a sparse element: the coefficient at a key is
    nums[key] / denom. No zero numerator is stored, and denom need not be the
    least common denominator, so two forms of one element compare equal by
    cross-multiplication.

    Keys are those of the element: exponent tuples for a polynomial,
    (exponents, etas) pairs for a SuperElement. A form is not changed once
    built; its partials are computed on first use and kept.
    """

    __slots__ = ("denom", "nums", "_partials")

    def __init__(self, denom, nums):
        self.denom = denom
        self.nums = nums
        self._partials = None

    @classmethod
    def of(cls, x):
        """x if it is a Cleared form already, else the Cleared form of the
        element x."""
        return x if isinstance(x, Cleared) else cls(*_cleared(x.terms))

    def is_zero(self):
        return not self.nums

    def __eq__(self, other):
        if not isinstance(other, Cleared):
            return NotImplemented
        d1, d2, n2 = self.denom, other.denom, other.nums
        return self.nums.keys() == n2.keys() and all(
            n * d2 == n2[key] * d1 for key, n in self.nums.items()
        )

    __hash__ = None

    def __neg__(self):
        return Cleared(self.denom, {key: -n for key, n in self.nums.items()})

    def __sub__(self, other):
        return Cleared.sum(((1, self), (-1, other)))

    def __mul__(self, other):
        """The product of two polynomial forms, over the product of their
        denominators."""
        out = {}
        get, add = out.get, operator.add
        for e1, c1 in self.nums.items():
            for e2, c2 in other.nums.items():
                key = tuple(map(add, e1, e2))  # monomial_mul, inlined: hot loop
                out[key] = get(key, 0) + c1 * c2
        return Cleared(self.denom * other.denom, _nonzero(out))

    @staticmethod
    def sum(pairs):
        """The form of the sum of scale * c over (scale, c) pairs, a scale an
        int or a Fraction."""
        total = ClearedSum()
        for scale, c in pairs:
            total.add(scale, c)
        return total.cleared()

    def cleared_partials(self):
        """(d, parts) for a polynomial form: parts[i] lists the terms of d
        times the i-th partial as (exponents, int numerator) pairs, and a
        variable without terms has no entry. Computed once per form."""
        if self._partials is None:
            parts = {}
            for exps, n in self.nums.items():
                for i, e in enumerate(exps):
                    if e:
                        lowered = exps[:i] + (e - 1,) + exps[i + 1 :]
                        parts.setdefault(i, []).append((lowered, n * e))
            self._partials = (self.denom, parts)
        return self._partials

    def without_etas(self):
        """The polynomial form of a form keyed by (exponents, etas) whose
        terms carry no eta; raises ValueError on a term with one."""
        out = {}
        for (exps, etas), n in self.nums.items():
            if etas:
                raise ValueError("element carries odd factors")
            out[exps] = n
        return Cleared(self.denom, out)


class ClearedSum:
    """A running sum of scale * c over Cleared forms c, a scale an int or a
    Fraction: int numerators over the lcm of the scaled denominators added so
    far. The numerators are rescaled when a term's denominator does not
    divide that lcm, so the sum holds no term once it is added."""

    __slots__ = ("denom", "nums")

    def __init__(self):
        self.denom = 1
        self.nums = {}

    def add(self, scale, c):
        if not scale:
            return
        d = scale.denominator * c.denom
        if self.denom % d:
            grown = lcm(self.denom, d)
            k = grown // self.denom
            self.nums = {key: n * k for key, n in self.nums.items()}
            self.denom = grown
        factor = scale.numerator * (self.denom // d)
        nums = self.nums
        get = nums.get
        for key, n in c.nums.items():
            nums[key] = get(key, 0) + factor * n

    def cleared(self):
        return Cleared(self.denom, _nonzero(self.nums))


class _SparseTerms:
    """Immutable sparse map {key: nonzero Fraction} with its additive structure.

    Keys are stored as given. Subclasses supply the products; values of
    different subclasses never compare equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for key, coeff in terms.items():
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if c != 0:
                clean[key] = c
        self.terms = clean

    @classmethod
    def from_cleared(cls, cleared):
        """The element of a Cleared form: one Fraction per term."""
        out = cls.__new__(cls)
        d = cleared.denom
        out.terms = {k: Fraction(n, d) for k, n in cleared.nums.items()}
        return out

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return type(self) is type(other) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + coeff
        return type(self)(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, Fraction(0)) - coeff
        return type(self)(out)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


class Poly(_SparseTerms):
    """Keys are exponent tuples."""

    __slots__ = ()

    @classmethod
    def monomial(cls, exps, coeff=1):
        return cls({tuple(exps): Fraction(coeff)})

    def __mul__(self, other):
        if isinstance(other, Poly):
            return Poly.from_cleared(Cleared.of(self) * Cleared.of(other))
        return Poly({e: c * Fraction(other) for e, c in self.terms.items()})

    __rmul__ = __mul__

    def partial(self, i):
        out = {}
        for exps, coeff in self.terms.items():
            if exps[i] > 0:
                lowered = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
                out[lowered] = out.get(lowered, Fraction(0)) + coeff * exps[i]
        return Poly(out)


def combination(pairs):
    """The Poly sum of scale * f over (scale, f) pairs, f a Poly or its
    Cleared form and a scale an int or a Fraction, summed by Cleared.sum."""
    return Poly.from_cleared(Cleared.sum((s, Cleared.of(f)) for s, f in pairs))


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
    return _join_terms(
        [
            _render_term(exps, f.terms[exps], names)
            for exps in sorted(f.terms, key=grevlex_key, reverse=True)
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
