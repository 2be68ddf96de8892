"""Sparse multivariate polynomials with exact rational coefficients.

A monomial is a tuple of nonnegative exponents; variable order is fixed by the
caller (Cayley rings put the y variables first). Polynomials are immutable
once built and every stored coefficient is an exact fractions.Fraction.

Products run over integers: each factor's coefficients are cleared to Python
int numerators over the lcm of their denominators (_cleared, the one
denominator-clearing helper of the package), the numerators are multiplied
and summed, and one Fraction is built per output term.
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
    def _over(cls, numerators, denom):
        """The element {key: n / denom} of int numerators n; zeros are dropped."""
        out = cls.__new__(cls)
        out.terms = {k: Fraction(n, denom) for k, n in numerators.items() if n}
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
            d1, n1 = _cleared(self.terms)
            d2, n2 = _cleared(other.terms)
            out = {}
            for e1, c1 in n1.items():
                for e2, c2 in n2.items():
                    key = monomial_mul(e1, e2)
                    out[key] = out.get(key, 0) + c1 * c2
            return Poly._over(out, d1 * d2)
        return Poly({e: c * Fraction(other) for e, c in self.terms.items()})

    __rmul__ = __mul__

    def cleared_partials(self):
        """(d, parts) for a nonzero polynomial: parts[i] lists the terms of
        d times the i-th partial as (exponents, int numerator) pairs."""
        d, cleared = _cleared(self.terms)
        parts = [[] for _ in next(iter(cleared))]
        for exps, n in cleared.items():
            for i, e in enumerate(exps):
                if e:
                    parts[i].append((exps[:i] + (e - 1,) + exps[i + 1 :], n * e))
        return d, parts

    def partial(self, i):
        out = {}
        for exps, coeff in self.terms.items():
            if exps[i] > 0:
                lowered = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
                out[lowered] = out.get(lowered, Fraction(0)) + coeff * exps[i]
        return Poly(out)


def combination(pairs):
    """The Poly sum of scale * f over (scale, f) pairs, summed over int
    numerators; a scale is an int or a Fraction."""
    cleared = []
    for scale, f in pairs:
        d, numerators = _cleared(f.terms)
        scale = Fraction(scale)
        cleared.append((scale.numerator, scale.denominator * d, numerators))
    denom = lcm(*(d for _, d, _ in cleared))
    out = {}
    for num, d, numerators in cleared:
        scale = num * (denom // d)
        for key, n in numerators.items():
            out[key] = out.get(key, 0) + scale * n
    return Poly._over(out, denom)


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
