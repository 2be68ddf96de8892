"""Exact re-expansion checks over a completed unfolding state.

Every check expands both sides of an identity as truncated t-series of
polynomials and compares coefficient by coefficient; a pass means the
residual is identically zero through the stated truncation degree. Failures
carry the first offending t-monomial and the rendered residual, so corrupted
states are located, not just flagged.

The checks of an order >= 2 state read the one unfolding.check_series of
that state, which the caller builds and hands to each; none builds a series.

Every coefficient is compared with ==, which on the int form of polyalg
compares the stored numerators. The pair cases of check_fqm2, its bulk, add
the terms of each t-monomial straight into the numerators of one LinearSum
per side: dGamma_alpha * dGamma_beta through LinearSum.add_product, each
unordered pair of terms once when alpha == beta, and Q_S(Lambda) and
Q_Gamma(Lambda) through q_f with the sum, so no product element is built.
The sums key monomials by packed ints (polyalg.shared_packing): a product
key is one int addition, and each monomial is decoded once, when the sum
becomes the series coefficient. Fractions are built only for the residual
of a failing case.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .polyalg import LinearSum, Poly, render_poly
from .supercomplex import (
    SuperElement,
    delta,
    q_f,
    render_super,
    super_weight,
)
from .unfolding import TruncatedSeries


@dataclass(frozen=True)
class Failure:
    """First failing coefficient identity of a check."""

    site: str
    monomial: tuple
    weight: int | None
    residual: str


@dataclass(frozen=True)
class VerificationReport:
    check: str
    passed: bool
    truncation: int
    cases: int
    failure: Failure | None


def _expvec(multi, dim):
    """The exponent vector of the t-monomial keyed by the sorted tuple multi."""
    return tuple(multi.count(j) for j in range(dim))


def _first_residual(left, right):
    """The first key where the sides differ, with the difference there, or
    None. Keys go in exponent-vector order, which is that of negated keys.
    Coefficients are compared with ==, and only the first difference is
    computed."""
    keys = left.coefficients.keys() | right.coefficients.keys()
    for key in sorted(keys, key=lambda multi: tuple(-j for j in multi)):
        a = left.coefficients.get(key)
        b = right.coefficients.get(key)
        if a is None:
            return key, -b
        if b is None:
            return key, a
        if a != b:
            return key, a - b
    return None


def _verdict(check, truncation, outcomes, total=None):
    """Report on lazy outcomes, each None (the case holds) or a Failure,
    stopping at the first Failure.

    `cases` counts the outcomes drawn, the failing one included, unless
    `total` gives the count of the whole family.
    """
    count = 0
    failure = None
    for failure in outcomes:
        count += 1
        if failure is not None:
            break
    return VerificationReport(
        check,
        failure is None,
        truncation,
        count if total is None else total,
        failure,
    )


def _failure(ring, site, dim, key, value):
    """The Failure at the t-monomial key whose two sides differ by value."""
    if isinstance(value, Poly):
        weight = ring.degree_of_monomial(min(value.nums))[1]
        residual = render_poly(value, ring.names)
    else:  # a rational coefficient of the structure constants
        weight, residual = None, str(value)
    return Failure(site, _expvec(key, dim), weight, residual)


def _compared(ring, cases):
    """Outcomes of lazy (site, left, right) series cases: None where the sides
    agree, else a Failure naming the site, the exponent vector of the first
    t-monomial where the sides differ, and their difference there."""
    for site, left, right in cases:
        hit = _first_residual(left, right)
        yield None if hit is None else _failure(ring, site, left.dim, *hit)


def _entry_outcomes(state, dim):
    # u = Delta(lambda); the difference is built only where the sides differ.
    # A zero lambda with a zero u holds, and counts as a case, unexpanded
    for multi in sorted(state.lam_table):
        lam, right = state.lam_table[multi], state.u_table[multi]
        if not (lam or right):
            yield None
            continue
        left = delta(lam).to_poly()
        site = f"u vs Delta(lambda) at multiset {multi}"
        yield None if left == right else _failure(
            state.ring, site, dim, multi, left - right
        )


def _summed(sums, dim, trunc):
    """The series of the sums in sums."""
    return TruncatedSeries(
        dim, trunc, {key: total.element() for key, total in sums.items()}
    )


def _pair_cases(state, series, dim, trunc):
    # each side adds its products into one LinearSum per t-monomial; Gamma
    # and its partials are cut to trunc before any pairing walks them
    ring = state.ring
    gamma = series.gamma.truncate(trunc)
    partials = [p.truncate(trunc) for p in series.partials]
    for alpha in range(dim):
        for beta in range(alpha, dim):
            lhs = defaultdict(LinearSum)
            rhs = defaultdict(LinearSum)
            if alpha == beta:
                products = partials[alpha].square_pairings()
            else:
                pairs = partials[alpha].pairings(partials[beta])
                products = ((key, 1, a, b) for key, a, b in pairs)
            for key, weight, a, b in products:
                lhs[key].add_product(weight, a, b)
            for rho, a_series in series.structure.get((alpha, beta), {}).items():
                for key, scale, u in a_series.pairings(partials[rho]):
                    rhs[key].add(scale, u)
            lam = series.witnesses.get((alpha, beta))
            if lam is not None:
                for key, w in lam.coefficients.items():
                    q_f(w, ring.S, rhs[key])
                for key, u, w in gamma.pairings(lam):
                    q_f(w, u, rhs[key])
            yield (
                f"pair ({alpha},{beta})",
                _summed(lhs, dim, trunc),
                _summed(rhs, dim, trunc),
            )


def check_fqm2(state, series):
    """Re-expand both displays of the structure-constant equation.

    First display: dGamma_alpha * dGamma_beta = sum_rho A^rho dGamma_rho
    + Q_{S+Gamma}(Lambda_{alphabeta}); second: u = Delta(lambda) entrywise.
    The second is checked first, one case per multiset; then the first, to
    t-degree order - 2, one case per unordered pair.
    """
    if state.order < 2:
        raise ValueError("check_fqm2 needs an order >= 2 state")
    dim = len(state.basis.monomials)
    trunc = state.order - 2
    pairs = _compared(state.ring, _pair_cases(state, series, dim, trunc))
    return _verdict("fqm2", trunc, chain(_entry_outcomes(state, dim), pairs))


def _unit_cases(index, dim, unit, zero, one):
    for beta in range(dim):
        row = index.get((unit, beta), {})
        for rho in sorted(row.keys() | {beta}):
            yield (
                f"unit row beta={beta} rho={rho}",
                row.get(rho, zero),
                one if rho == beta else zero,
            )


def _add_products(sums, outer, row):
    """Add outer * row[sigma] into sums[sigma] for every sigma of row; a
    coefficient that cancels stays, as 0."""
    for sigma, inner in row.items():
        acc = sums.setdefault(sigma, {})
        for key, a, b in outer.pairings(inner):
            acc[key] = acc.get(key, 0) + a * b


def _associativity_cases(index, dim, trunc):
    # for each alpha, both sides of every (beta, gamma) at once, walking only
    # the nonzero products: the left side sum_rho A_{alpha beta}^rho
    # A_{rho gamma} over the pairs (rho, gamma) present in the index, the
    # right side sum_rho A_{beta gamma}^rho A_{rho alpha} over the entries
    # A_{beta gamma}^rho whose pair (rho, alpha) is present. A (beta, gamma)
    # with no product is never drawn; the cases go in (alpha, beta, gamma,
    # sigma) order, so the first failure is that of the full walk. A_{rho
    # alpha} is by_left[alpha][rho]: structure_series builds a symmetric index.
    by_left = defaultdict(dict)
    entries = defaultdict(list)  # rho -> (i, j, A_{ij}^rho) for every entry
    for (i, j), row in index.items():
        by_left[i][j] = row
        for rho, value in row.items():
            entries[rho].append((i, j, value))
    for alpha in range(dim):
        lhs, rhs = defaultdict(dict), defaultdict(dict)
        for beta, first in by_left[alpha].items():
            for rho, outer in first.items():
                for gamma_idx, row in by_left[rho].items():
                    if gamma_idx >= alpha:
                        _add_products(lhs[beta, gamma_idx], outer, row)
        for rho, row in by_left[alpha].items():
            for beta, gamma_idx, outer in entries[rho]:
                if gamma_idx >= alpha:
                    _add_products(rhs[beta, gamma_idx], outer, row)
        for beta, gamma_idx in sorted(lhs.keys() | rhs.keys()):
            left = lhs.get((beta, gamma_idx), {})
            right = rhs.get((beta, gamma_idx), {})
            for sigma in sorted(left.keys() | right.keys()):
                yield (
                    f"associativity ({alpha},{beta},{gamma_idx})->{sigma}",
                    TruncatedSeries(dim, trunc, left.get(sigma, {})),
                    TruncatedSeries(dim, trunc, right.get(sigma, {})),
                )


def check_flat_f_axioms(state, series):
    """Commutativity, unit row, potentiality, and associativity of A.

    `cases` counts every identity of the four families, including those
    whose two sides are identically zero. Commutativity and potentiality
    are counted but not expanded, because they cannot fail on any table:
    unfolding.structure_series reads A_alphabeta and A_betaalpha from the
    same multiset entries of the a table, and so d_gamma A_alphabeta and
    d_alpha A_gammabeta too. Of the unit row and associativity, only
    identities with a nonzero side are expanded: they are read off the pair
    index of the structure constants, associativity sums only nonzero
    products, and every comparison is exact. The failure reported is the
    first failing identity, the unit row before associativity and each in
    the order of its indices.
    """
    if state.order < 2:
        raise ValueError("check_flat_f_axioms needs an order >= 2 state")
    ring = state.ring
    dim = len(state.basis.monomials)
    trunc = state.order - 2
    index = series.structure
    zero = TruncatedSeries(dim, trunc, {})
    one = TruncatedSeries(dim, trunc, {(): Fraction(1)})
    unit = state.basis.index_of[(0,) * ring.nvars]
    strict_pairs = dim * (dim - 1) // 2
    cases = strict_pairs * dim + dim * dim + dim * dim * (dim + 1) // 2 * dim
    if state.order >= 3:
        cases += strict_pairs * dim * dim
    families = (
        _unit_cases(index, dim, unit, zero, one),
        _associativity_cases(index, dim, trunc),
    )
    outcomes = _compared(ring, chain.from_iterable(families))
    return _verdict("flat-f-axioms", trunc, outcomes, cases)


def _weight_outcomes(state):
    ring = state.ring
    basis = state.basis
    dim = len(basis.monomials)
    for i, w in enumerate(basis.weights):
        found = state.t_weights[i]
        yield None if found == 1 - w else Failure(
            f"t-weight of direction {i}",
            _expvec((i,), dim),
            found,
            f"expected {1 - w}",
        )
    # a zero entry has no term, so it yields no case: skip it before its target
    for multi in sorted(m for m, u in state.u_table.items() if u):
        target = 1 - sum(state.t_weights[j] for j in multi)
        for exps in state.u_table[multi].nums:
            found = ring.degree_of_monomial(exps)[1]
            yield None if found == target else Failure(
                f"u[{multi}]",
                _expvec(multi, dim),
                found,
                render_poly(Poly.monomial(exps), ring.names),
            )
    for multi in sorted(m for m, lam in state.lam_table.items() if lam):
        target = 2 - sum(state.t_weights[j] for j in multi)
        for exps, etas in state.lam_table[multi].nums:
            found = super_weight(ring, exps, etas)
            yield None if found == target else Failure(
                f"lambda[{multi}]",
                _expvec(multi, dim),
                found,
                render_super(
                    SuperElement({(exps, etas): Fraction(1)}),
                    ring.names,
                    ring.eta_names,
                ),
            )


def check_weight_homogeneity(state):
    """Every stored table entry carries exactly the weight the grading demands.

    One case per direction (its t-weight) and per term of every u and lambda
    entry.
    """
    return _verdict("weight-homogeneity", state.order, _weight_outcomes(state))


def _euler_image(series, t_weights, weigh):
    """The series with its coefficient c at t^C replaced by weigh(c, w), where
    w = sum of d_j over C is the eigenvalue of E_t on t^C."""
    coeffs = series.coefficients.items()
    weighed = {k: weigh(c, sum(t_weights[j] for j in k)) for k, c in coeffs}
    return TruncatedSeries(series.dim, series.order, weighed)


def _euler_outcomes(state, series):
    ring, d = state.ring, state.t_weights

    def total_weight(u, w):  # (E_t + E_wt)(u t^C), w the t-weight of t^C
        wt = ring.degree_of_monomial
        nums = {e: (wt(e)[1] + w) * n for e, n in u.nums.items()}
        return Poly.from_nums(u.denom, nums)

    structure = series.structure
    for alpha, part in enumerate(series.partials):
        left = _euler_image(part, d, total_weight)
        right = part.map(lambda u: (1 - d[alpha]) * u)
        yield from _compared(ring, [(f"Gamma direction {alpha}", left, right)])
        a_cases = (
            (
                f"a weight ({alpha},{beta})->{rho}",
                _euler_image(a_series, d, operator.mul),
                a_series.map(lambda v: (1 - d[alpha] - d[beta] + d[rho]) * v),
            )
            for beta in range(part.dim)
            for rho, a_series in sorted(structure.get((alpha, beta), {}).items())
        )
        # one case for the whole direction: its first failing (beta, rho)
        yield next(filter(None, _compared(ring, a_cases)), None)


def check_euler_identity(state, series):
    """Two cases per direction alpha for the Euler field
    E = sum_alpha d_alpha t_alpha d/dt_alpha, d_alpha the t-weight:

    Gamma, to t-degree order - 1, with E_wt scaling a term by its weight:
      (E_t + E_wt) dGamma_alpha = (1 - d_alpha) dGamma_alpha;
    structure constants, for every beta and rho, to t-degree order - 2:
      E_t A_alphabeta^rho = (1 - d_alpha - d_beta + d_rho) A_alphabeta^rho.
    """
    if state.order < 2:
        raise ValueError("check_euler_identity needs an order >= 2 state")
    outcomes = _euler_outcomes(state, series)
    return _verdict("euler-identity", state.order - 1, outcomes)
