"""Graded pieces of the Jacobian ideal and exact reduction onto a basis.

For a Cayley ring with potential S, the degree (c, w) piece of the Jacobian
ideal is spanned by multiplier monomials times the partials of S. A sparse
row echelon form over the graded monomial list, with every row operation
recorded against the original generators, yields three things at once: the
quotient dimension, a canonical monomial basis of the quotient, and for any
reduced element an odd cochain lambda with f = sum(a_i b_i) + Q_S(lambda).

Columns are monomials keyed by one int each, the packed grevlex key at
the ring's packing (polyalg.shared_packing): ascending keys are descending
grevlex, so the pivot of a row, its least key, is its grevlex-leading
monomial. The key of a product is the sum of the keys, so the row of
mult * dS_i is built by adding the multiplier's key to each term's packed
partial (polyalg.Poly.packed_rows), and a lead t divides mult when
key(mult) - key(t) sets no guard bit. Generators are enumerated x
partials first, then y partials, multipliers in descending grevlex; all
later determinism guarantees flow from that fixed order. Rows are not
back-substituted: a residue is the normal form modulo the row space, and
its combination is the unique one over the generators independent in that
order, so both equal those of the reduced row echelon form.

Elimination is fraction-free. Every stored row and its generator combination
form one primitive vector of Python ints, with the row's lead at its pivot
column; a partial of S enters with its int numerators over S's own
denominator as its row and that denominator as its witness scale, both read
off S's one table of partials (polyalg.Poly.partial_rows). That pair is a
positive int multiple of the one over the partial's own, smaller
denominator, so the primitive pivots are the same either way. Fractions
appear only where reduce_vector emits a residue entry and the final
combination, which a monomial's memoized reduction puts over one
denominator, and in a reduction's a coefficients: its sum runs on ints.

Most generators of a large piece reduce to zero and add no pivot. Many are
named in advance, by Faugere's F5 criterion and by the syzygies earlier
pieces revealed, as Matrix-F5 learns them: the ring keeps, per partial
dS_i, a list of the keys of syzygy leads (CayleyRing._syzygies). It
starts with the grevlex-least monomials (trails) of the partials before
dS_i, the largest keys of their packed rows, the Koszul
syzygies dS_j * dS_i = dS_i * dS_j, and gains the multiplier of every
generator mult * dS_i whose row reached zero in a piece. A generator whose
multiplier one of these leads divides has a row that lies in the span of
the rows built before it (ideal_piece gives the proof). Such a generator
keeps its index, but its row is never built. The criterion relies on the
fixed order: partials in turn, multipliers in descending grevlex. It is
tested on the keys, so no multiple is enumerated.

ideal_piece runs in two passes. The pivot pass reduces each row left
without a witness and keeps the ones that do not reach zero, divided by
their content only when the lead outgrows a machine word; it gives the
rank, the standard monomials and the indices of the pivot generators,
and its rows are dropped. The witness pass runs
on the first read of GradedIdealPiece.pivots, as the first reduction
against the piece: it rebuilds only the pivot generators and reduces each
with its witness against the pivots before it, then divides by the
content and stores it. A row reduced without its witness is a nonzero
multiple of the one reduced with it at every step, so both passes meet
the same leads. Pivots, witnesses and generator indices are those of
reducing every generator with its witness. One elimination loop,
_reduce_lead, serves every reduction: it cancels leading pivot columns,
carries a witness when given one, and divides the content out only once a
lead outgrows a machine word. The multiplier monomials and their keys
come from toricring.enumerate_graded_piece and graded_piece_keys, which
enumerate each x-fiber once per ring, and a piece keeps them as its
generators, one cached list per partial, until the generator tuple is
read.

Reduction goes one monomial at a time, memoized on the basis
(JacobianBasis.reduction): reduction is linear, so reducing f is summing
its coefficients times the reductions of its monomials, and the residue and
combination of that sum are those of reducing f as one vector. A monomial at
weight w* = n-k+1 or below is reduced against the piece of its own weight.
Above w* no piece is built unless a monomial needs it. The quotient of a
quasi-smooth system vanishes above weight n-k, so every monomial m0 of the
weight-w* piece reduces to zero there, with witness lambda(m0). A monomial
m above w* is written m = h * m0 with m0 the first monomial of that piece,
in descending grevlex, that divides m and reduces to zero. Then
h * lambda(m0) is a witness for m with zero basis part, exactly: h carries
no odd factor, so Q_S(h * lambda(m0)) = h * Q_S(lambda(m0)) = h * m0 = m,
and h has charge 0 because m and m0 both sit at the basis charge. A
monomial with no such m0, on degenerate input or on a polytope without the
integer decomposition property, is reduced against its own piece, which is
built for it.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm

from .polyalg import Poly, _cleared
from .supercomplex import SuperElement, q_s
from .toricring import (
    InvalidInput,
    NotCalabiYau,
    enumerate_graded_piece,
    graded_piece_keys,
    is_calabi_yau,
)


class NotCharge0(Exception):
    """Input to reduction has a monomial outside the basis charge."""


class BasisIncomplete(Exception):
    """A reduction left a nonzero residue at a weight beyond the basis table."""

    def __init__(self, weight):
        super().__init__(f"nonzero quotient residue at weight {weight}")
        self.weight = weight


def _axpy(p, dst, c, src):
    """dst := p*dst - c*src on sparse int dicts, dropping exact zeros."""
    if p != 1:
        for key, value in dst.items():
            dst[key] = value * p
    for key, value in src.items():
        new = dst.get(key, 0) - c * value
        if new:
            dst[key] = new
        else:
            del dst[key]


def _reduce_lead(row, pivots, wit=None):
    """Cancel the leading pivot columns of row, carrying wit along if given.

    pivots maps a pivot column to its row, or, when wit is given, to its
    (row, wit). Each step is fraction-free: row := (p/g)*row - (c/g)*pivot
    with p the pivot's lead, c the row's and g = gcd(p, c), and wit takes
    the same step against the pivot's witness. The content of row and wit
    is divided out only once a lead outgrows a machine word: on sparse pieces
    the entries stay small and the gcd would cost more than it saves.
    Either way row and wit are a positive multiple of the pair that
    dividing the content at every step would carry, so both meet the same
    leads and the residue and combination they give are the same. Returns
    the first leading column with no pivot, or None once row is zero.
    """
    while row:
        lead = min(row)
        prow = pivots.get(lead)
        if prow is None:
            return lead
        if wit is not None:
            prow, pwit = prow
        p, c = prow[lead], row[lead]
        g = gcd(p, c)
        p, c = p // g, c // g
        _axpy(p, row, c, prow)
        if wit is not None:
            _axpy(p, wit, c, pwit)
        if c.bit_length() > 62:
            _divide_content(row, wit or {})
    return None


def _divide_content(row, wit):
    """Divide the content shared by row and wit out of both, in place."""
    g = gcd(*row.values(), *wit.values())
    if g > 1:
        for part in (row, wit):
            for key, value in part.items():
                part[key] = value // g


def _generator_row(mult, items):
    """The row of mult * dS_i: mult the multiplier's key, items the
    partial's (key, numerator) pairs, keys added as their monomials multiply."""
    return {mult + key: n for key, n in items}


@dataclass(eq=False)
class GradedIdealPiece:
    """One graded piece, its echelonized generators, and the quotient data.

    Columns are the packed keys of the piece's monomials at the ring's
    packing. Ascending keys are descending grevlex, so the least column of
    a row is its grevlex-leading monomial. rank,
    standard_monomials and pivot_generators (the generator indices of the
    pivots, ascending) come from the pivot pass of ideal_piece. blocks
    holds, per partial dS_i in the fixed order whose multiplier piece is
    not empty, (i, multipliers, their keys, the partial's (key, numerator)
    pairs over denom): the lists are those enumerate_graded_piece and
    graded_piece_keys cache; generators is built from them on first read.
    denom, the denominator of S that its partials are kept over
    (Poly.partial_rows), is every generator's witness scale.
    pivots maps each pivot column to (row, wit): an echelon row of ints
    with lead row[col], not back-substituted, equal to the combination wit
    of the generators as given. The witness pass builds it on first read.
    row and wit together have content 1, divided out once as the pivot is
    stored; reduce_vector reduces against them with the same loop,
    _reduce_lead, that built them.
    """

    monomials: tuple
    rank: int
    standard_monomials: tuple
    denom: int = field(repr=False)
    blocks: tuple = field(repr=False)
    pivot_generators: tuple = field(repr=False)

    @cached_property
    def generators(self):
        """(mult, i) per generator mult * dS_i, in the fixed order."""
        return tuple((mult, i) for i, mults, _, _ in self.blocks for mult in mults)

    @cached_property
    def pivots(self):
        """The witness pass: each pivot generator, in order, reduced with its
        witness against the pivots before it and divided by its content."""
        pivots = {}
        pivot_generators = self.pivot_generators
        denom = self.denom
        start = first = 0
        for _, _, keys, items in self.blocks:
            stop = start + len(keys)
            last = bisect_left(pivot_generators, stop, first)
            for g in pivot_generators[first:last]:
                row = _generator_row(keys[g - start], items)
                wit = {g: denom}
                lead = _reduce_lead(row, pivots, wit)
                _divide_content(row, wit)
                pivots[lead] = (row, wit)
            start, first = stop, last
        return pivots

    def reduce_vector(self, vec):
        """Reduce a vector over the columns (packed keys); returns (residue,
        generator combination).

        The input is sum(residue) over standard columns plus the combination
        of original generators, both as the reduced row echelon form gives.
        """
        pivots = self.pivots
        denom, row = _cleared(vec)
        # generator -1 is the input itself, so wit[-1] tracks the running scale
        wit = {-1: 1}
        residue = {}
        while (lead := _reduce_lead(row, pivots, wit)) is not None:
            residue[lead] = Fraction(row.pop(lead), denom * wit[-1])
        scale = -denom * wit.pop(-1)  # wit was subtracted
        return residue, {g: Fraction(v, scale) for g, v in wit.items()}


def ideal_piece(ring, charge, weight):
    """Echelonize the Jacobian ideal in degree (charge, weight): the pivot
    pass. The witnesses are left to the first read of the piece's pivots.

    A generator mult * dS_i is skipped when a lead t in ring._syzygies[i]
    divides mult. Its row then lies in the span of the rows of the
    generators before it in the fixed order. A lead is one of two kinds.

    A trail (grevlex-least monomial) t_j of an earlier partial dS_j: with
    mult = m * t_j, the Koszul syzygy dS_j * dS_i = dS_i * dS_j writes the
    row, times the coefficient of t_j, as the rows of (m * s) * dS_j over
    the monomials s of dS_i minus those of (m * t') * dS_i over the other
    monomials t' of dS_j. Every multiplier of dS_j comes before those of
    dS_i, and m * t' is grevlex-larger than mult.

    A learned lead m0: the row of m0 * dS_i reached zero in an earlier
    piece, so m0 * dS_i is a combination of generators before it there.
    With mult = t * m0, multiplying that combination by t writes
    mult * dS_i over generators of this piece that come before it: each is
    of a partial before dS_i, or of dS_i with a multiplier grevlex-larger
    than mult, since grevlex is multiplicative.

    Either way, by induction over the generators, the skipped row lies in
    the span of the rows built before it, so the generator keeps its index
    but no row is built, and the pivots are those of reducing every
    generator. Each partial's list then gains the multiplier of every row
    of that partial built here that reached zero.

    Everything runs on the keys of the ring's packing: the multipliers'
    keys, the packed partials of S (Poly.packed_rows) and the leads, which
    are keys too, a trail the largest key of its packed row and a learned
    lead a multiplier's key. A row is built by adding keys, and t divides
    mult when key(mult) - key(t) borrows into no guard bit.
    """
    charge = tuple(charge)
    degree = (charge, weight)
    monomials = tuple(enumerate_graded_piece(ring, degree))
    packing = ring.packing
    guards = packing.guards
    partials = ring.S.packed_rows()
    order = [i for i in (*range(ring.k, ring.nvars), *range(ring.k)) if i in partials]
    syzygies = ring._syzygies
    if not syzygies:
        # each partial starts with the trails of the partials before it
        trails = []
        for i in order:
            syzygies[i] = list(trails)
            trails.append(max(key for key, _ in partials[i]))
    blocks = []
    rows = {}  # pivot column -> row, the rows without their witnesses
    pivot_generators = []
    start = 0
    for i in order:
        items = partials[i]
        pcharge, pweight = ring.degree_of_monomial(packing.exponents(items[0][0]))
        mult_degree = (
            tuple(a - b for a, b in zip(charge, pcharge)),
            weight - pweight,
        )
        if mult_degree[1] < 0:
            continue
        mults = enumerate_graded_piece(ring, mult_degree)
        if not mults:
            continue
        mult_keys = graded_piece_keys(ring, mult_degree)
        blocks.append((i, mults, mult_keys, items))
        leads = syzygies[i]
        learned = []
        for index, mult in enumerate(mult_keys):
            # a loop, not any() over a generator expression: building a
            # generator per multiplier made this test 1.6 times slower
            for t in leads:
                if not (mult - t) & guards:
                    break  # a known syzygy
            else:
                row = _generator_row(mult, items)
                lead = _reduce_lead(row, rows)
                if lead is None:
                    learned.append(mult)
                else:
                    # _reduce_lead's content rule: only a lead past a
                    # machine word pays for the gcd
                    if row[lead].bit_length() > 62:
                        _divide_content(row, {})
                    rows[lead] = row
                    pivot_generators.append(start + index)
        start += len(mults)
        syzygies[i] += learned
    # columns run in descending grevlex order
    columns = graded_piece_keys(ring, degree)
    standard = tuple(m for c, m in zip(columns, monomials) if c not in rows)[::-1]
    return GradedIdealPiece(
        monomials=monomials,
        rank=len(rows),
        standard_monomials=standard,
        denom=ring.S.denom,
        blocks=tuple(blocks),
        pivot_generators=tuple(pivot_generators),
    )


@dataclass(eq=False)
class JacobianBasis:
    """Monomial basis of the graded Jacobian quotient at one charge."""

    ring: object
    charge: tuple
    max_weight: int
    monomials: tuple
    weights: tuple
    dims: tuple
    index_of: dict = field(repr=False)
    _pieces: dict = field(repr=False)
    _reductions: dict = field(default_factory=dict, repr=False)

    def piece(self, weight):
        got = self._pieces.get(weight)
        if got is None:
            got = ideal_piece(self.ring, self.charge, weight)
            self._pieces[weight] = got
        return got

    def reduction(self, m):
        """(denom, residue, h, terms) of the monomial m, memoized, every int
        over denom: m is its residue, a {monomial: int} normal form, plus Q_S
        of h times the witness of its terms, each term (mult, i, n) a
        generator mult * dS_i. Above weight w* = max_weight + 1, m = h * m0
        with m0 the first monomial of the weight-w* piece, in descending
        grevlex, that divides m and reduces to zero, and denom and the terms
        are those of m0. Otherwise, or with no such m0, h is zero and m is
        reduced against its own piece, its Fractions put over their lcm.
        Raises NotCharge0 for m off the basis charge."""
        got = self._reductions.get(m)
        if got is not None:
            return got
        charge, weight = self.ring.degree_of_monomial(m)
        if charge != self.charge:
            raise NotCharge0(
                f"monomial {m} has charge {charge}, expected {self.charge}"
            )
        top = self.max_weight + 1
        if weight > top:
            le = operator.le
            for m0 in self.piece(top).monomials:
                if all(map(le, m0, m)):
                    denom, residue, _, terms = self.reduction(m0)
                    if not residue:
                        got = denom, {}, tuple(map(operator.sub, m, m0)), terms
                        break
        if got is None:
            piece = self.piece(weight)
            packing = self.ring.packing
            exponents = packing.exponents
            residue, combo = piece.reduce_vector({packing.key(m): 1})
            denom = lcm(*(c.denominator for c in (*residue.values(), *combo.values())))
            num = lambda c: c.numerator * (denom // c.denominator)
            got = (
                denom,
                {exponents(col): num(c) for col, c in residue.items()},
                (0,) * len(m),
                tuple((*piece.generators[g], num(c)) for g, c in combo.items()),
            )
        self._reductions[m] = got
        return got


def jacobian_basis(ring, allow_non_cy=False):
    """Quotient basis at the anticanonical charge, weights 0..n-k.

    The quotient of a quasi-smooth system is concentrated in that weight
    range. More hypersurfaces than dimensions (k > n) leave no weight and
    raise InvalidInput.
    """
    if ring.k > ring.n:
        raise InvalidInput(
            f"{ring.k} hypersurfaces in dimension {ring.n}: "
            "at most one per dimension"
        )
    if not allow_non_cy and not is_calabi_yau(ring):
        raise NotCalabiYau(
            f"anticanonical charge {ring.c_B} is nonzero; "
            "pass allow_non_cy=True to take the basis there"
        )
    charge = ring.c_B
    max_weight = ring.n - ring.k
    pieces = {}
    monomials = []
    weights = []
    dims = []
    for w in range(max_weight + 1):
        piece = ideal_piece(ring, charge, w)
        pieces[w] = piece
        dims.append(len(piece.standard_monomials))
        for m in piece.standard_monomials:
            monomials.append(m)
            weights.append(w)
    return JacobianBasis(
        ring=ring,
        charge=charge,
        max_weight=max_weight,
        monomials=tuple(monomials),
        weights=tuple(weights),
        dims=tuple(dims),
        index_of={m: i for i, m in enumerate(monomials)},
        _pieces=pieces,
    )


@dataclass(frozen=True)
class ReductionWitness:
    """Coefficients over the basis plus the odd cochain closing the identity.

    coefficients is {basis index: nonzero Fraction}: an absent index reads as zero.
    """

    coefficients: dict
    witness: SuperElement


def reduce_with_witness(basis, f):
    """Express f as basis combination plus Q_S(lambda), with lambda returned.

    The sum over the monomials m of f of their coefficients times
    basis.reduction(m), in ints over the lcm of their memo denominators:
    the residues give the basis part, one Fraction per basis index, and
    each monomial's terms, shifted by its h, the witness. A residue left on
    monomials outside the basis raises BasisIncomplete at the lowest weight
    among them; a monomial off the basis charge raises NotCharge0. The
    defining identity is re-verified exactly, through q_s, before
    returning. A zero f has the zero reduction, which is returned at once.
    """
    if not f:
        return ReductionWitness({}, SuperElement({}))
    reductions = [(n, basis.reduction(m)) for m, n in f.nums.items()]
    scale = lcm(*(got[0] for _, got in reductions))
    # f enters as its int numerators, that is f.denom times itself, each
    # carried onto scale, so the residue and the witness are over denom
    denom = f.denom * scale
    residue, lam = {}, {}
    rget, lget, add = residue.get, lam.get, operator.add
    for n, (d, res, h, terms) in reductions:
        n *= scale // d
        for r, c in res.items():
            residue[r] = rget(r, 0) + n * c
        shift = any(h)
        for mult, i, c in terms:
            key = (tuple(map(add, h, mult)) if shift else mult, (i,))
            lam[key] = lget(key, 0) + n * c
    index_of = basis.index_of
    stray = [r for r, c in residue.items() if c and r not in index_of]
    if stray:
        degree = basis.ring.degree_of_monomial
        raise BasisIncomplete(min(degree(r)[1] for r in stray))
    coefficients = {index_of[r]: Fraction(c, denom) for r, c in residue.items() if c}
    witness = SuperElement.from_nums(denom, lam)
    rebuilt = q_s(witness, basis.ring).to_poly() + Poly.from_nums(denom, residue)
    if rebuilt != f:
        raise ArithmeticError("reduction identity failed to close")
    return ReductionWitness(coefficients, witness)
