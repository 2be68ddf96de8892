"""Inductive construction of the universal unfolding and structure constants.

Directions are indexed by the Jacobian quotient basis: t^alpha dual to the
basis monomial u_alpha, with wt(t^alpha) = 1 - wt(u_alpha). Tables are keyed
by sorted multi-indices (multisets over the basis index set); gamma and the
structure constants are the generating series

  Gamma            = sum over multisets C of u_C t^C / C!
  A_alphabeta^rho  = sum over multisets C of a_{(alpha,beta)+C}^rho t^C / C!

so the series produced here carry the already-divided coefficients. A series
keys t^C by the same sorted tuple C as the tables, so no exponent vector is
built here.

Each new multiset gamma of size m >= 2 is settled by a single reduction: with
(alpha, beta) the two smallest entries and C the remaining multiset,

  f = sum over A+B=C of W(A,B) u_{A+alpha} u_{B+beta}
    - sum over A+B=C, B nonempty, of W(A,B) sum_rho a_{(alpha,beta)+A}^rho u_{B+rho}
    - sum over A+B=C, A nonempty, of W(A,B) Q_{u_A}(lambda_{(alpha,beta)+B})

with W(A,B) = C! / (A! B!), a product of binomial coefficients of the counts.
Reducing f against the basis defines a_gamma and lambda_gamma, and u_gamma :=
Delta(lambda_gamma). For size 2 this is literally the reduction of u_alpha
u_beta. The weight of every stored u_gamma is checked to equal 1 - sum of
wt(t) over gamma.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, groupby, product
from math import comb, factorial, prod

from .jacobired import reduce_with_witness
from .polyalg import Poly
from .supercomplex import delta, q_f
from .toricring import NotCalabiYau, is_calabi_yau


class MissingTableEntry(KeyError):
    """A required lower-order table entry has not been computed."""


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Formal series over t-monomials, cut at a fixed total degree.

    A t-monomial is keyed as the tables key their entries: the sorted tuple
    of its directions, each repeated by its exponent, so t0*t2^2 is (0, 2, 2)
    and the degree of a key is its length. A key is absent exactly where its
    coefficient vanishes, so arithmetic may drop vanishing coefficients
    freely.
    """

    dim: int
    order: int
    coefficients: dict = field(repr=False)

    def __post_init__(self):
        clean = {}
        for key, value in self.coefficients.items():
            if len(key) > self.order:
                raise ValueError(f"key {key} beyond truncation {self.order}")
            if any(a > b for a, b in zip(key, key[1:])):
                raise ValueError(f"key {key} is not sorted")
            if key and not (key[0] >= 0 and key[-1] < self.dim):
                raise ValueError(f"key {key} leaves directions 0..{self.dim - 1}")
            if not _vanishes(value):
                clean[key] = value
        object.__setattr__(self, "coefficients", clean)

    def truncate(self, order):
        kept = {k: v for k, v in self.coefficients.items() if len(k) <= order}
        return TruncatedSeries(self.dim, order, kept)

    def map(self, fn):
        """The coefficient-wise image under fn, on the same domain."""
        return TruncatedSeries(
            self.dim,
            self.order,
            {key: fn(value) for key, value in self.coefficients.items()},
        )

    def __add__(self, other):
        order = min(self.order, other.order)
        out = dict(self.coefficients)
        for key, value in other.coefficients.items():
            out[key] = out[key] + value if key in out else value
        kept = {k: v for k, v in out.items() if len(k) <= order}
        return TruncatedSeries(self.dim, order, kept)

    def __mul__(self, other):
        return self.convolve(other, operator.mul)

    def convolve(self, other, pair):
        """Product with a caller-chosen coefficient pairing."""
        order = min(self.order, other.order)
        out = {}
        for akey, avalue in self.coefficients.items():
            room = order - len(akey)
            if room < 0:
                continue
            for bkey, bvalue in other.coefficients.items():
                if len(bkey) > room:
                    continue
                key = tuple(sorted(akey + bkey))
                value = pair(avalue, bvalue)
                out[key] = out[key] + value if key in out else value
        return TruncatedSeries(self.dim, order, out)

    def partial(self, direction):
        out = {}
        for key, value in self.coefficients.items():
            count = key.count(direction)
            if count:
                out[_remove_one(key, direction)] = count * value
        return TruncatedSeries(self.dim, self.order - 1, out)


def _vanishes(value):
    return value.is_zero() if hasattr(value, "is_zero") else value == 0


@dataclass(eq=False)
class UnfoldingState:
    """All tables of one unfolding run, complete through the given order.

    An a_table row is {rho: nonzero Fraction}: an absent rho reads as zero.
    """

    ring: object
    basis: object
    order: int
    t_weights: tuple
    u_table: dict
    a_table: dict
    lam_table: dict
    inputs: dict | None = None


def _entry(table, name, key):
    got = table.get(key)
    if got is None:
        raise MissingTableEntry(f"{name} table lacks {key}")
    return got


def _splits(tail):
    """Every split of the sorted multiset tail into sorted A and B, with the
    weight W(A, B)."""
    runs = [(j, len(tuple(run))) for j, run in groupby(tail)]
    for counts in product(*(range(c + 1) for _, c in runs)):
        a_part, b_part, weight = (), (), 1
        for (j, c), a in zip(runs, counts):
            a_part += (j,) * a
            b_part += (j,) * (c - a)
            weight *= comb(c, a)
        yield a_part, b_part, weight


def _assemble_input(state, multi):
    # alpha <= beta <= every tail entry, so prefixing them keeps keys sorted
    alpha, beta, tail = multi[0], multi[1], multi[2:]
    u_table = state.u_table
    terms = {}

    def add(scale, poly):
        for exps, coeff in poly.terms.items():
            terms[exps] = terms.get(exps, 0) + scale * coeff

    for a_part, b_part, weight in _splits(tail):
        u_a = _entry(u_table, "u", (alpha,) + a_part)
        add(weight, u_a * _entry(u_table, "u", (beta,) + b_part))
        if b_part:
            row = _entry(state.a_table, "a", (alpha, beta) + a_part)
            for rho, value in row.items():
                u_key = tuple(sorted(b_part + (rho,)))
                add(-weight * value, _entry(u_table, "u", u_key))
        if a_part:
            lam = _entry(state.lam_table, "lambda", (alpha, beta) + b_part)
            if not lam.is_zero():
                add(-weight, q_f(lam, _entry(u_table, "u", a_part)).to_poly())
    return Poly(terms)


def step(state, multi):
    """Settle one multiset of size >= 2 and store its table entries."""
    multi = tuple(sorted(multi))
    if len(multi) < 2:
        raise ValueError("step needs a multiset of size at least 2")
    f = _assemble_input(state, multi)
    if state.inputs is not None:
        state.inputs[multi] = f
    reduced = reduce_with_witness(state.ring, state.basis, f)
    u_new = delta(reduced.witness).to_poly()
    target = 1 - sum(state.t_weights[j] for j in multi)
    for exps in u_new.terms:
        if state.ring.degree_of_monomial(exps)[1] != target:
            raise ArithmeticError(
                f"u entry for {multi} breaks weight homogeneity"
            )
    state.a_table[multi] = reduced.coefficients
    state.lam_table[multi] = reduced.witness
    state.u_table[multi] = u_new


def run(ring, basis, order, debug=False):
    """Process every multiset of size <= order in canonical order."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if not is_calabi_yau(ring):
        raise NotCalabiYau(
            "the unfolding products only stay in charge 0 for anticanonical "
            f"charge zero, got {ring.c_B}"
        )
    dim = len(basis.monomials)
    state = UnfoldingState(
        ring=ring,
        basis=basis,
        order=order,
        t_weights=tuple(1 - w for w in basis.weights),
        u_table={
            (i,): Poly.monomial(m) for i, m in enumerate(basis.monomials)
        },
        a_table={},
        lam_table={},
        inputs={} if debug else None,
    )
    for size in range(2, order + 1):
        for multi in combinations_with_replacement(range(dim), size):
            step(state, multi)
    return state


def _factorial_of(multi):
    """C! of the multiset C: the product of the factorials of its counts."""
    return prod(factorial(len(tuple(run))) for _, run in groupby(multi))


def _remove_one(multi, value):
    pos = multi.index(value)
    return multi[:pos] + multi[pos + 1 :]


def gamma_series(state):
    """Gamma as a series of weight-homogeneous polynomials, degree <= order."""
    coeffs = {}
    for multi, u in state.u_table.items():
        scale = _factorial_of(multi)
        coeffs[multi] = u if scale == 1 else Fraction(1, scale) * u
    return TruncatedSeries(len(state.basis.monomials), state.order, coeffs)


def gamma_partial(gamma):
    """dGamma_alpha for every direction alpha, each complete to degree one
    below gamma's."""
    return tuple(gamma.partial(alpha) for alpha in range(gamma.dim))


def _by_pair(table):
    """(alpha, beta, C, 1/C!, entry) for every entry of the table and every
    ordered pair with the entry's multiset (alpha, beta) + C.

    C is a sorted tuple, the series key of t^C; this is the coefficient walk
    shared by every series indexed by a pair of directions.
    """
    for multi, entry in table.items():
        for alpha in set(multi):
            rest = _remove_one(multi, alpha)
            for beta in set(rest):
                key = _remove_one(rest, beta)
                yield alpha, beta, key, Fraction(1, _factorial_of(key)), entry


def structure_series(state):
    """Every nonzero structure-constant series, keyed by (alpha, beta), then rho.

    The entry at [(alpha, beta)][rho] is A_alphabeta^rho to degree
    order - 2; a missing pair or rho reads as the zero series.
    """
    dim = len(state.basis.monomials)
    coeffs = {}
    for alpha, beta, key, scale, row in _by_pair(state.a_table):
        for rho, value in row.items():
            by_rho = coeffs.setdefault((alpha, beta), {})
            by_rho.setdefault(rho, {})[key] = scale * value
    return {
        pair: {
            rho: TruncatedSeries(dim, state.order - 2, c)
            for rho, c in row.items()
        }
        for pair, row in coeffs.items()
    }


def lambda_series(state):
    """Every nonzero witness series Lambda_alphabeta, keyed by (alpha, beta),
    degree <= order - 2; a missing pair reads as the zero series."""
    dim = len(state.basis.monomials)
    coeffs = {}
    for alpha, beta, key, scale, lam in _by_pair(state.lam_table):
        if not lam.is_zero():
            coeffs.setdefault((alpha, beta), {})[key] = scale * lam
    return {
        pair: TruncatedSeries(dim, state.order - 2, c)
        for pair, c in coeffs.items()
    }
