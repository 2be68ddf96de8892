"""Inductive construction of the universal unfolding and structure constants.

Directions are indexed by the Jacobian quotient basis: t^alpha dual to the
basis monomial u_alpha, with wt(t^alpha) = 1 - wt(u_alpha). Tables are keyed
by sorted multi-indices (multisets over the basis index set); gamma and the
structure constants are the generating series

  Gamma            = sum over multisets C of u_C t^C / C!
  A_alphabeta^rho  = sum over multisets C of a_{(alpha,beta)+C}^rho t^C / C!

so the series produced here carry the already-divided coefficients. A series
keys t^C by the same sorted tuple C as the tables, so no exponent vector is
built here. A zero coefficient is absent from a series, and a zero table
entry leads to no series term: both are told by truth value, since an
element, a Fraction, an int and the {} of an all-zero a row are each falsy
exactly when zero.

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

A multiset whose smallest direction is the unit (the constant basis
monomial, direction 0 on every Calabi-Yau basis) is settled in closed form,
with no input assembled and no reduction: (unit, beta) gets a = {beta: 1},
lambda = 0 and u = 0, and every larger such multiset all-zero entries. This
follows by induction from the formula above, since u_unit = 1, Delta(1) = 0
and a_(unit,beta) = e_beta; the debug inputs record f = u_beta and f = 0.
These are 819 of the 858 steps of the (2,2) intersection to order 40, and
exactly its 819 vanishing u entries.

Every other sum walks only the splits where its driving entry can be
nonzero: u_{A+alpha}, the row a_{(alpha,beta)+A} and lambda_{(alpha,beta)+B}
in turn. Every table keeps the prefix-closed support of its nonzero keys,
and _splits cuts a run of splits at the first prefix outside it. A pruned
split reads no entry, so a missing one would pass for zero: step first
checks that every table holds every multiset of every lower size, and raises
MissingTableEntry naming the first one missing. When alpha == beta the
splits (A, B) and (B, A) of the first sum give the same product, so each
mirror pair is taken once with twice its weight.

The three sums run over int numerators: step reads each u and lambda entry
straight from its table, in the int form every element holds (polyalg), and
adds u*u (LinearSum.add_product), a*u and Q_{u_A}(lambda) (q_f) straight
into the numerators of one LinearSum: no product element
is built or canonicalised. A u entry keeps its table of partials
(Poly.partial_rows) once Q has asked for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, groupby
from math import comb, factorial, prod

from .jacobired import reduce_with_witness
from .polyalg import LinearSum, Poly
from .supercomplex import SuperElement, delta, q_f
from .toricring import NotCalabiYau, is_calabi_yau


class MissingTableEntry(KeyError):
    """A required lower-order table entry has not been computed."""


class TruncatedSeries:
    """Formal series over t-monomials, cut at a fixed total degree.

    A t-monomial is keyed as the tables key their entries: the sorted tuple
    of its directions, each repeated by its exponent, so t0*t2^2 is (0, 2, 2)
    and the degree of a key is its length. A key is absent exactly where its
    coefficient vanishes: the constructor keeps the truthy coefficients, and
    every coefficient (an element, a Fraction or an int) is falsy exactly
    when zero. It checks no key; the package reads its keys off tables that
    run or ingest_report has already checked, or off the keys of series.
    """

    __slots__ = ("dim", "order", "coefficients")

    def __init__(self, dim, order, coefficients):
        self.dim = dim
        self.order = order
        self.coefficients = {key: v for key, v in coefficients.items() if v}

    def truncate(self, order):
        kept = {k: v for k, v in self.coefficients.items() if len(k) <= order}
        return TruncatedSeries(self.dim, order, kept)

    def map(self, fn):
        """The coefficient-wise image under fn, on the same domain."""
        image = {key: fn(value) for key, value in self.coefficients.items()}
        return TruncatedSeries(self.dim, self.order, image)

    def pairings(self, other):
        """(A + B, a, b) for every term a t^A of self and b t^B of other
        whose product t^(A+B) lies within the lower of the two orders."""
        order = min(self.order, other.order)
        for akey, avalue in self.coefficients.items():
            room = order - len(akey)
            if room < 0:
                continue
            for bkey, bvalue in other.coefficients.items():
                if len(bkey) <= room:
                    yield tuple(sorted(akey + bkey)), avalue, bvalue

    def square_pairings(self):
        """(A + B, weight, a, b) for every unordered pair of terms a t^A and
        b t^B of self within its order, each once: the weight, 2 for two
        distinct terms and 1 for a term with itself, counts both orders."""
        items = list(self.coefficients.items())
        for i, (akey, avalue) in enumerate(items):
            room = self.order - len(akey)
            if room < 0:
                continue
            for j in range(i, len(items)):
                bkey, bvalue = items[j]
                if len(bkey) <= room:
                    yield tuple(sorted(akey + bkey)), 2 - (i == j), avalue, bvalue

    def partial(self, direction):
        out = {}
        for key, value in self.coefficients.items():
            count = key.count(direction)
            if count:
                out[_remove_one(key, direction)] = count * value
        return TruncatedSeries(self.dim, self.order - 1, out)


@dataclass(eq=False)
class UnfoldingState:
    """All tables of one unfolding run, complete through the given order.

    An a_table row is {rho: nonzero Fraction}: an absent rho reads as zero.
    Zero entries are stored like any other, since the report prints them all.

    Construction indexes every table (_TableIndex), so a state built by run,
    read back from a report, made by dataclasses.replace or by hand starts
    with a current index. step keeps it current as it stores entries, and
    rebuilds it when a table's size differs from the count of keys it has
    indexed. The index records which entries are nonzero, so an entry
    replaced in place outside step by one that is zero where the old one was
    not, or the other way round, goes unseen: change a table through
    dataclasses.replace before stepping on.
    """

    ring: object
    basis: object
    order: int
    t_weights: tuple
    u_table: dict
    a_table: dict
    lam_table: dict
    inputs: dict | None = None
    _index: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._index = {name: _TableIndex(self, name) for name in _TABLES}

    def table(self, name):
        return getattr(self, _TABLES[name][0])


# table name -> (state attribute, smallest key size)
_TABLES = {"u": ("u_table", 1), "a": ("a_table", 2), "lambda": ("lam_table", 2)}


class _TableIndex:
    """Which keys of one table can lead to a nonzero entry, and how many keys
    of each size the table holds.

    support holds every prefix of every key whose entry is nonzero, so it is
    prefix-closed. The table holds every multiset of each size from its
    smallest key size through complete.
    """

    __slots__ = ("dim", "support", "sizes", "keys", "complete")

    def __init__(self, state, name):
        self.dim = len(state.basis.monomials)
        self.support = set()
        self.sizes = {}
        self.keys = 0
        self.complete = _TABLES[name][1] - 1
        for key, entry in state.table(name).items():
            self.add(key, entry)

    def add(self, key, entry):
        """Count a key stored with its entry. A key stored again is counted
        twice, which tells _settled_below to rebuild the index."""
        self.sizes[len(key)] = self.sizes.get(len(key), 0) + 1
        self.keys += 1
        if entry:
            for end in range(len(key), 0, -1):
                if key[:end] in self.support:
                    break
                self.support.add(key[:end])

    def first_missing(self, table, size):
        """The first multiset of a size below size that table lacks, or None."""
        while self.complete + 1 < size:
            k = self.complete + 1
            if self.sizes.get(k, 0) < comb(self.dim + k - 1, k):
                return next(
                    multi
                    for multi in combinations_with_replacement(range(self.dim), k)
                    if multi not in table
                )
            self.complete = k
        return None


def _entry(table, name, key):
    got = table.get(key)
    if got is None:
        raise MissingTableEntry(f"{name} table lacks {key}")
    return got


def _settled_below(state, size):
    """Raise MissingTableEntry, naming the first multiset missing, unless
    every table holds every multiset of every size below size."""
    for name in _TABLES:
        table = state.table(name)
        if len(table) != state._index[name].keys:
            state._index[name] = _TableIndex(state, name)
        missing = state._index[name].first_missing(table, size)
        if missing is not None:
            raise MissingTableEntry(f"{name} table lacks {missing}")


def _splits(tail, head, support):
    """Every split of the sorted multiset tail into sorted A and B such that
    head + A is in support, with the weight W(A, B).

    A and B are built one run of equal directions at a time. support is
    prefix-closed and head <= every entry of tail, so once head + A leaves
    support no larger count of the run, and no choice for the later runs,
    brings it back: the walk cuts there and visits only splits that can
    reach a nonzero entry.
    """
    if head not in support:
        return []
    partial = [(head, (), 1)]
    for j, count in ((j, len(tuple(run))) for j, run in groupby(tail)):
        grown = []
        for key, b_part, weight in partial:
            for a in range(count + 1):
                if a:
                    key += (j,)
                    if key not in support:
                        break
                rest = b_part + (j,) * (count - a)
                grown.append((key, rest, weight * comb(count, a)))
        partial = grown
    cut = len(head)
    return [(key[cut:], b_part, weight) for key, b_part, weight in partial]


def _assemble_input(state, multi):
    # alpha <= beta <= every tail entry, so prefixing them keeps keys sorted;
    # each sum walks only the splits where its first factor can be nonzero
    # and adds its terms straight into one LinearSum
    alpha, beta, tail = multi[0], multi[1], multi[2:]
    pair = (alpha, beta)
    index, u_table = state._index, state.u_table
    total = LinearSum(Poly)
    for a_part, b_part, weight in _splits(tail, (alpha,), index["u"].support):
        if alpha == beta:
            # (A, B) and (B, A) give the same product: add it once, weight x2
            if a_part > b_part:
                continue
            if a_part < b_part:
                weight *= 2
        u_a = _entry(u_table, "u", (alpha,) + a_part)
        total.add_product(weight, u_a, _entry(u_table, "u", (beta,) + b_part))
    for a_part, b_part, weight in _splits(tail, pair, index["a"].support):
        if b_part:
            row = _entry(state.a_table, "a", pair + a_part)
            for rho, value in row.items():
                u_key = tuple(sorted(b_part + (rho,)))
                total.add(-weight * value, _entry(u_table, "u", u_key))
    # this sum is driven by lambda, so _splits hands B out first
    for b_part, a_part, weight in _splits(tail, pair, index["lambda"].support):
        if a_part:
            lam = _entry(state.lam_table, "lambda", pair + b_part)
            q_f(lam, _entry(u_table, "u", a_part), total, -weight)
    return total.element()


def _unit_input(state, multi):
    """The input f of a multiset whose smallest direction is the unit: u_beta
    for a pair (unit, beta), since u_unit = 1, and zero for a larger one,
    whose three sums cancel (see _unit_entries)."""
    if len(multi) == 2:
        return _entry(state.u_table, "u", multi[1:])
    return Poly({})


def _unit_entries(multi):
    """(a, lambda, u) of a multiset whose smallest direction is the unit, in
    closed form, by induction on the step formula. u_beta reduces to itself,
    so a pair (unit, beta) has a = {beta: 1}, lambda = 0 and u = 0. On a
    larger multiset (unit, beta) + C every lower entry led by the unit
    vanishes but a_(unit,beta) = e_beta, so f = u_(beta)+C - u_(beta)+C = 0
    and every entry is zero."""
    a_row = {multi[1]: Fraction(1)} if len(multi) == 2 else {}
    return a_row, SuperElement({}), Poly({})


def _reduced_entries(state, multi, f):
    """(a, lambda, u) of a multiset from the reduction of its input f."""
    reduced = reduce_with_witness(state.basis, f)
    u_new = delta(reduced.witness).to_poly()
    target = 1 - sum(state.t_weights[j] for j in multi)
    for exps in u_new.nums:
        if state.ring.degree_of_monomial(exps)[1] != target:
            raise ArithmeticError(f"u entry for {multi} breaks weight homogeneity")
    return reduced.coefficients, reduced.witness, u_new


def step(state, multi):
    """Settle one multiset of size >= 2 and store its table entries."""
    multi = tuple(sorted(multi))
    if len(multi) < 2:
        raise ValueError("step needs a multiset of size at least 2")
    _settled_below(state, len(multi))
    unit = multi[0] == state.basis.index_of.get((0,) * state.ring.nvars)
    f = _unit_input(state, multi) if unit else _assemble_input(state, multi)
    if state.inputs is not None:
        state.inputs[multi] = f
    entries = _unit_entries(multi) if unit else _reduced_entries(state, multi, f)
    for name, entry in zip(("a", "lambda", "u"), entries):
        state.table(name)[multi] = entry
        state._index[name].add(multi, entry)


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
    """(alpha, beta, C, 1/C!, entry) for every nonvanishing entry of the
    table and every ordered pair with the entry's multiset (alpha, beta) + C;
    a vanishing entry is skipped before its counts and scales are computed.

    C is a sorted tuple, the series key of t^C; this is the coefficient walk
    shared by every series indexed by a pair of directions. With m_j the
    count of j in the entry's multiset M, C! = M! / (m_alpha * m'_beta),
    m'_beta the count of beta left once alpha is removed.
    """
    for multi, entry in table.items():
        if not entry:
            continue
        counts = {j: len(tuple(run)) for j, run in groupby(multi)}
        full = prod(factorial(m) for m in counts.values())
        for alpha, m_alpha in counts.items():
            rest = _remove_one(multi, alpha)
            for beta, m_beta in counts.items():
                m_beta -= alpha == beta
                if m_beta:
                    key = _remove_one(rest, beta)
                    scale = Fraction(m_alpha * m_beta, full)
                    yield alpha, beta, key, scale, entry


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
        coeffs.setdefault((alpha, beta), {})[key] = scale * lam
    return {
        pair: TruncatedSeries(dim, state.order - 2, c)
        for pair, c in coeffs.items()
    }


@dataclass(frozen=True)
class CheckSeries:
    """Every series the order >= 2 checks read, from one state: Gamma and
    its partials untruncated, structure_series and lambda_series."""

    gamma: TruncatedSeries
    partials: tuple
    structure: dict
    witnesses: dict


def check_series(state):
    """Build every series the checks read, each once."""
    gamma = gamma_series(state)
    return CheckSeries(
        gamma, gamma_partial(gamma), structure_series(state), lambda_series(state)
    )
