"""Exact re-expansion checks over a completed unfolding state.

Each case of a series check is one truncated t-series of polynomials or
rationals: the left side of its identity minus the right side. A pass means
that difference is identically zero through the stated truncation degree.
A failure carries the first t-monomial, in exponent-vector order, where the
difference is nonzero, and the rendered residual there, so corrupted states
are located, not just flagged.

The checks of an order >= 2 state read the one unfolding.check_series of
that state, which the caller builds and hands to each; none builds a series.

A coefficient is zero exactly when it is falsy, which on the int form of
polyalg means that no numerator is left. The pair cases of check_fqm2, its
bulk, add the terms of each t-monomial straight into the numerators of one
LinearSum per t-monomial, the right side negated: dGamma_alpha *
dGamma_beta through LinearSum.add_product, each unordered pair of terms
once when alpha == beta, then with scale -1 each A^rho dGamma_rho through
LinearSum.add and Q_S(Lambda) and Q_Gamma(Lambda) through q_f, so no
product element is built. The sums key monomials by packed ints
(polyalg.shared_packing): a product key is one int addition, and each
monomial is decoded once, when the sum becomes the series coefficient.
Fractions are built only for the residual of a failing case.
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


def _first_residual(diff):
    """The key of the difference series diff that is least in
    exponent-vector order, the order of negated keys, with its coefficient
    there; None when diff is zero."""
    if not diff.coefficients:
        return None
    key = min(diff.coefficients, key=lambda multi: tuple(-j for j in multi))
    return key, diff.coefficients[key]


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
    """The Failure at the t-monomial key whose residual is value."""
    if isinstance(value, Poly):
        weight = ring.degree_of_monomial(min(value.nums))[1]
        residual = render_poly(value, ring.names)
    else:  # a rational coefficient of the structure constants
        weight, residual = None, str(value)
    return Failure(site, _expvec(key, dim), weight, residual)


def _compared(ring, cases):
    """Outcomes of lazy (site, diff) cases, diff the left side of an identity
    minus its right side: None where diff is zero, else a Failure naming the
    site, the exponent vector of diff's first t-monomial and its coefficient
    there."""
    for site, diff in cases:
        hit = _first_residual(diff)
        yield None if hit is None else _failure(ring, site, diff.dim, *hit)


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


def _pair_cases(state, series, dim, trunc):
    # the left side adds its products, and the right side its negated terms,
    # into one LinearSum per t-monomial; Gamma and its partials are cut to
    # trunc before any pairing walks them
    ring = state.ring
    gamma = series.gamma.truncate(trunc)
    partials = [p.truncate(trunc) for p in series.partials]
    for alpha in range(dim):
        for beta in range(alpha, dim):
            diff = defaultdict(LinearSum)
            if alpha == beta:
                products = partials[alpha].square_pairings()
            else:
                pairs = partials[alpha].pairings(partials[beta])
                products = ((key, 1, a, b) for key, a, b in pairs)
            for key, weight, a, b in products:
                diff[key].add_product(weight, a, b)
            for rho, a_series in series.structure.get((alpha, beta), {}).items():
                for key, scale, u in a_series.pairings(partials[rho]):
                    diff[key].add(-scale, u)
            lam = series.witnesses.get((alpha, beta))
            if lam is not None:
                for key, w in lam.coefficients.items():
                    q_f(w, ring.S, diff[key], -1)
                for key, u, w in gamma.pairings(lam):
                    q_f(w, u, diff[key], -1)
            coefficients = {key: total.element() for key, total in diff.items()}
            yield f"pair ({alpha},{beta})", TruncatedSeries(dim, trunc, coefficients)


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


def _unit_cases(index, dim, trunc, unit):
    # A_{unit beta}^rho - delta_{rho beta}
    for beta in range(dim):
        row = index.get((unit, beta), {})
        for rho in sorted(row.keys() | {beta}):
            diff = dict(row[rho].coefficients) if rho in row else {}
            if rho == beta:
                diff[()] = diff.get((), 0) - 1
            yield f"unit row beta={beta} rho={rho}", TruncatedSeries(dim, trunc, diff)


def _add_products(sums, outer, row, sign):
    """Add sign * outer * row[sigma] into sums[sigma] for every sigma of row;
    a coefficient that cancels stays, as 0."""
    for sigma, inner in row.items():
        acc = sums.setdefault(sigma, {})
        for key, a, b in outer.pairings(inner):
            acc[key] = acc.get(key, 0) + sign * a * b


def _associativity_cases(index, dim, trunc):
    # for each alpha, left minus right side of every (beta, gamma) at once,
    # walking only the nonzero products: the left side sum_rho A_{alpha
    # beta}^rho A_{rho gamma} over the pairs (rho, gamma) present in the
    # index, the right side sum_rho A_{beta gamma}^rho A_{rho alpha} over the
    # entries A_{beta gamma}^rho whose pair (rho, alpha) is present. A (beta,
    # gamma) with no product is never drawn, and a sigma whose products
    # cancel stays a case; the cases go in (alpha, beta, gamma, sigma) order,
    # so the first failure is that of the full walk. A_{rho alpha} is
    # by_left[alpha][rho]: structure_series builds a symmetric index.
    by_left = defaultdict(dict)
    entries = defaultdict(list)  # rho -> (i, j, A_{ij}^rho) for every entry
    for (i, j), row in index.items():
        by_left[i][j] = row
        for rho, value in row.items():
            entries[rho].append((i, j, value))
    for alpha in range(dim):
        sums = defaultdict(dict)
        for beta, first in by_left[alpha].items():
            for rho, outer in first.items():
                for gamma_idx, row in by_left[rho].items():
                    if gamma_idx >= alpha:
                        _add_products(sums[beta, gamma_idx], outer, row, 1)
        for rho, row in by_left[alpha].items():
            for beta, gamma_idx, outer in entries[rho]:
                if gamma_idx >= alpha:
                    _add_products(sums[beta, gamma_idx], outer, row, -1)
        for beta, gamma_idx in sorted(sums):
            diffs = sums[beta, gamma_idx]
            for sigma in sorted(diffs):
                yield (
                    f"associativity ({alpha},{beta},{gamma_idx})->{sigma}",
                    TruncatedSeries(dim, trunc, diffs[sigma]),
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
    unit = state.basis.index_of[(0,) * ring.nvars]
    strict_pairs = dim * (dim - 1) // 2
    cases = strict_pairs * dim + dim * dim + dim * dim * (dim + 1) // 2 * dim
    if state.order >= 3:
        cases += strict_pairs * dim * dim
    families = (
        _unit_cases(index, dim, trunc, unit),
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


def _euler_image(series, t_weights, shift, weigh):
    """The image of series under E_t - shift: its coefficient c at t^C
    replaced by weigh(c, w - shift), where w = sum of d_j over C is the
    eigenvalue of E_t on t^C and weigh may add a weight of c's own."""
    coeffs = series.coefficients.items()
    weighed = {
        k: weigh(c, sum(t_weights[j] for j in k) - shift) for k, c in coeffs
    }
    return TruncatedSeries(series.dim, series.order, weighed)


def _euler_outcomes(state, series):
    ring, d = state.ring, state.t_weights

    def total_weight(u, w):  # (E_wt + w)(u), w the shifted t-weight of t^C
        wt = ring.degree_of_monomial
        nums = {e: (wt(e)[1] + w) * n for e, n in u.nums.items()}
        return Poly.from_nums(u.denom, nums)

    structure = series.structure
    for alpha, part in enumerate(series.partials):
        diff = _euler_image(part, d, 1 - d[alpha], total_weight)
        yield from _compared(ring, [(f"Gamma direction {alpha}", diff)])
        a_cases = (
            (
                f"a weight ({alpha},{beta})->{rho}",
                _euler_image(
                    a_series, d, 1 - d[alpha] - d[beta] + d[rho], operator.mul
                ),
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
