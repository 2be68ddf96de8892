"""Graded Jacobian pieces, quotient bases, and reduction with exact witnesses."""

import random
from collections import Counter
from fractions import Fraction
from hashlib import sha256
from itertools import combinations_with_replacement
from math import gcd, lcm

import pytest

from dimoracle import quotient_dimension
from toricff.polyalg import Poly, grevlex_key, monomial_mul, shared_packing
from toricff.supercomplex import SuperElement, q_s
from toricff.toricring import (
    NotCalabiYau,
    build_cayley_ring,
    enumerate_graded_piece,
)
from toricff import jacobired
from toricff.jacobired import (
    BasisIncomplete,
    NotCharge0,
    ideal_piece,
    jacobian_basis,
    reduce_with_witness,
)
from toricff.unfolding import run

from conftest import P2_RAYS, P3_RAYS, fermat, reference_partial, xpoly


def test_ideal_piece_cubic_weight1(cubic_ring):
    piece = ideal_piece(cubic_ring, (0,), 1)
    x_gens = [g for g in piece.generators if g[1] >= cubic_ring.k]
    y_gens = [g for g in piece.generators if g[1] < cubic_ring.k]
    assert len(x_gens) == 9
    assert len(y_gens) == 1
    assert len(piece.monomials) == 10
    assert piece.rank == 9
    assert piece.standard_monomials == ((1, 1, 1, 1),)
    # first generator: largest charge-1 multiplier times the first x partial
    assert piece.generators[0] == ((0, 1, 0, 0), 1)


def test_ideal_piece_cubic_weight0(cubic_ring):
    piece = ideal_piece(cubic_ring, (0,), 0)
    assert piece.generators == ()
    assert piece.rank == 0
    assert piece.standard_monomials == ((0, 0, 0, 0),)


def test_cubic_basis(cubic_ring):
    basis = jacobian_basis(cubic_ring)
    assert basis.dims == (1, 1)
    assert basis.monomials == ((0, 0, 0, 0), (1, 1, 1, 1))
    assert basis.weights == (0, 1)
    assert basis.charge == (0,)
    assert basis.max_weight == 1


def test_cubic_dims_match_oracle(cubic_ring):
    basis = jacobian_basis(cubic_ring)
    for w in range(2):
        assert basis.dims[w] == quotient_dimension(cubic_ring, w)


def test_quintic_basis(quintic_ring):
    basis = jacobian_basis(quintic_ring)
    assert basis.dims == (1, 101, 101, 1)
    assert basis.monomials[0] == (0,) * 6
    assert basis.monomials[-1] == (3, 3, 3, 3, 3, 3)
    for w in range(2):
        assert basis.dims[w] == quotient_dimension(quintic_ring, w)


def test_ci22_basis(ci22_ring):
    basis = jacobian_basis(ci22_ring)
    assert basis.dims == (1, 1)
    for w in range(2):
        assert basis.dims[w] == quotient_dimension(ci22_ring, w)


def test_p1p1_basis(p1p1_ring):
    # pins today's plain-partial quotient, which counts one deformation too
    # many on this elliptic curve: see test_p1p1_primitive_dims
    basis = jacobian_basis(p1p1_ring)
    assert basis.dims == (1, 2)
    for w in range(2):
        assert basis.dims[w] == quotient_dimension(p1p1_ring, w)


def diagonal_ring(weights, degrees):
    """The complete intersection of the given degrees in P(weights),
    weights[0] == 1: rays e_1..e_n and -(weights[1:]), so the ray charges are
    weights[1:] then 1. Equation j puts (i+1)^j on x_i^(d/q_i), distinct
    ratios that keep the system quasi-smooth."""
    n = len(weights) - 1
    rays = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays.append(tuple(-w for w in weights[1:]))
    charges = weights[1:] + weights[:1]
    equations = [
        xpoly(
            n + 1,
            {
                tuple(d // q * (i == k) for k in range(n + 1)): (i + 1) ** j
                for i, q in enumerate(charges)
            },
        )
        for j, d in enumerate(degrees)
    ]
    ring = build_cayley_ring(rays, equations)
    assert ring.grading.ray_charges == tuple((q,) for q in charges)
    return ring


# classic inputs with h^{1,1} = 1, so the basis dims are the known Hodge
# numbers: the CY3 complete intersections in P4 and P5 (Candelas, Dale,
# Lütken and Schimmrigk 1988), the one-modulus weighted hypersurfaces (Klemm
# and Theisen 1993; Morrison 1992) and two K3 intersections
@pytest.mark.parametrize(
    "weights, degrees, dims",
    [
        ((1,) * 5, (5,), (1, 101, 101, 1)),
        ((1,) * 6, (2, 4), (1, 89, 89, 1)),
        ((1,) * 6, (3, 3), (1, 73, 73, 1)),
        ((1, 1, 1, 1, 2), (6,), (1, 103, 103, 1)),
        ((1, 1, 1, 1, 4), (8,), (1, 149, 149, 1)),
        ((1, 1, 1, 2, 5), (10,), (1, 145, 145, 1)),
        ((1,) * 5, (2, 3), (1, 19, 1)),
        ((1,) * 6, (2, 2, 2), (1, 19, 1)),
    ],
    ids=["quintic", "2-4-P5", "3-3-P5", "X6", "X8", "X10", "k3-2-3-P4", "k3-2-2-2-P5"],
)
def test_known_hodge_numbers(weights, degrees, dims):
    ring = diagonal_ring(weights, degrees)
    assert jacobian_basis(ring).dims == dims
    assert quotient_dimension(ring, 1) == dims[1]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the basis is the quotient by the plain partials, not Batyrev-Cox "
    "R_1 = S/(J_0 : x_1...x_r) with J_0 = <x_i dG/dx_i>",
)
def test_p1p1_primitive_dims(p1p1_ring):
    """The (2,2) curve of the p1p1 fixture is smooth and elliptic, so its
    primitive cohomology has dims (1, 1)."""
    assert jacobian_basis(p1p1_ring).dims == (1, 1)


def test_non_calabi_yau_guard():
    ring = build_cayley_ring(P2_RAYS, [fermat(3, 2)])
    with pytest.raises(NotCalabiYau):
        jacobian_basis(ring)
    basis = jacobian_basis(ring, allow_non_cy=True)
    assert basis.charge == (-1,)
    assert basis.dims == (0, 0)  # a conic has no primitive cohomology


def test_non_calabi_yau_quartic_curve():
    ring = build_cayley_ring(P2_RAYS, [fermat(3, 4)])
    basis = jacobian_basis(ring, allow_non_cy=True)
    assert basis.charge == (1,)
    assert basis.dims == (3, 3)  # genus 3 plane quartic
    for w in range(2):
        assert basis.dims[w] == quotient_dimension(ring, w)


def test_reduce_basis_idempotent(cubic_ring):
    basis = jacobian_basis(cubic_ring)
    got = reduce_with_witness(basis, Poly.monomial((1, 1, 1, 1)))
    assert got.coefficients == {1: 1}
    assert got.witness == SuperElement({})
    unit = reduce_with_witness(basis, Poly.monomial((0,) * 4))
    assert unit.coefficients == {0: 1}
    assert unit.witness == SuperElement({})
    zero = reduce_with_witness(basis, Poly({}))
    assert zero.coefficients == {}
    assert zero.witness == SuperElement({})


def test_reduce_euler_multiple(cubic_ring):
    basis = jacobian_basis(cubic_ring)
    f = Poly.monomial((0, 1, 0, 0)) * Poly(reference_partial(cubic_ring.S, 1))
    got = reduce_with_witness(basis, f)
    assert got.coefficients == {}
    assert got.witness == SuperElement({((0, 1, 0, 0), (1,)): Fraction(1)})


def test_reduce_square_of_basis_rep(cubic_ring):
    basis = jacobian_basis(cubic_ring)
    f = Poly.monomial((2, 2, 2, 2))
    got = reduce_with_witness(basis, f)
    assert got.coefficients == {}
    assert q_s(got.witness, cubic_ring).to_poly() == f


def test_reduce_mixed_weights(cubic_ring):
    basis = jacobian_basis(cubic_ring)
    f = Poly.monomial((0,) * 4) + 3 * Poly.monomial((1, 1, 1, 1))
    got = reduce_with_witness(basis, f)
    assert got.coefficients == {0: 1, 1: 3}
    assert got.witness == SuperElement({})


def test_reduce_rejects_wrong_charge(cubic_ring):
    basis = jacobian_basis(cubic_ring)
    with pytest.raises(NotCharge0):
        reduce_with_witness(basis, Poly.monomial((0, 1, 0, 0)))


def degenerate_ring():
    return build_cayley_ring(
        P2_RAYS, [xpoly(3, {(3, 0, 0): 1, (0, 3, 0): 1})]
    )


def test_degenerate_basis_incomplete():
    ring = degenerate_ring()
    basis = jacobian_basis(ring)
    assert basis.dims == (1, 4)
    # y^2 x3^6 survives every reduction; y^3 x3^9 has no weight-2 divisor
    # that reduces to zero, so it is reduced against its own piece and
    # survives there
    for monomial, weight in (((2, 0, 0, 6), 2), ((3, 0, 0, 9), 3)):
        with pytest.raises(BasisIncomplete) as info:
            reduce_with_witness(basis, Poly.monomial(monomial))
        assert info.value.weight == weight


def test_reduction_identity_seeded(cubic_ring, ci22_ring):
    rng = random.Random(2026)
    for ring in (cubic_ring, ci22_ring):
        basis = jacobian_basis(ring)
        for w in (1, 2):
            monos = enumerate_graded_piece(ring, (ring.c_B, w))
            for _ in range(5):
                f = Poly(
                    {
                        m: Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                        for m in rng.sample(monos, min(4, len(monos)))
                    }
                )
                got = reduce_with_witness(basis, f)
                rebuilt = q_s(got.witness, ring).to_poly()
                for i, c in got.coefficients.items():
                    rebuilt = rebuilt + Poly.monomial(basis.monomials[i], c)
                assert rebuilt == f
                used = {basis.weights[i] for i in got.coefficients}
                assert all(u == w for u in used)


def test_reduction_deterministic(cubic_ring):
    f = Poly.monomial((2, 2, 2, 2)) - 5 * Poly.monomial((2, 3, 2, 1))
    first = None
    for _ in range(2):
        basis = jacobian_basis(cubic_ring)
        got = reduce_with_witness(basis, f)
        state = (got.coefficients, tuple(sorted(got.witness.terms.items())))
        if first is None:
            first = state
        assert state == first


def _axpy(dst, src, scale):
    for key, value in src.items():
        new = dst.get(key, 0) + scale * value
        if new:
            dst[key] = new
        else:
            dst.pop(key, None)


def _rref_pivots(piece):
    """Reference: back-substitute unit-lead copies of the stored rows into rref."""
    pivots = {}
    for col, (row, wit) in piece.pivots.items():
        inv = Fraction(1) / row[col]
        pivots[col] = (
            {c: v * inv for c, v in row.items()},
            {g: v * inv for g, v in wit.items()},
        )
    for col in sorted(pivots, reverse=True):
        crow, cwit = pivots[col]
        for other, (row, wit) in pivots.items():
            if other != col and col in row:
                coeff = row[col]
                _axpy(row, crow, -coeff)
                _axpy(wit, cwit, -coeff)
    return pivots


def _rref_reduce(pivots, vec):
    """Reference: one ascending-column sweep against rref rows."""
    residue = dict(vec)
    combo = {}
    for col in sorted(residue):
        coeff = residue.get(col)
        if coeff and col in pivots:
            row, wit = pivots[col]
            _axpy(residue, row, -coeff)
            _axpy(combo, wit, coeff)
    return residue, combo


def _generator_row(ring, piece, gen_idx):
    mult, i = piece.generators[gen_idx]
    return {
        shared_packing(ring.nvars).key(monomial_mul(mult, exps)): coeff
        for exps, coeff in reference_partial(ring.S, i).items()
    }


# Fermat plus the product of all variables, so the x partials have two terms
HESSE_CUBIC = fermat(3, 3) + Poly.monomial((1, 1, 1))
# a Hesse-type cubic with coefficients past a machine word, so the rows'
# leads do too
WIDE_HESSE_CUBIC = xpoly(
    3,
    {
        (3, 0, 0): 3**41,
        (0, 3, 0): Fraction(5**29, 7**23),
        (0, 0, 3): 11**19 + 1,
        (1, 1, 1): 2**67 - 1,
    },
)


# P(1,1,1,2,1): x5 = -(x1 + x2 + x3 + 2*x4) in the ray lattice
WP11121_RAYS = tuple(tuple(int(i == j) for j in range(4)) for i in range(4)) + (
    (-1, -1, -1, -2),
)
# the Fermat sextic there, x4 of weight 2
WEIGHTED_SEXTIC = xpoly(
    5,
    {
        (6, 0, 0, 0, 0): 1,
        (0, 6, 0, 0, 0): 1,
        (0, 0, 6, 0, 0): 1,
        (0, 0, 0, 3, 0): 1,
        (0, 0, 0, 0, 6): 1,
    },
)


def _dense_quartic():
    """28 of the 35 quartic monomials in four variables, coefficients 1..9."""
    rng = random.Random("dense-k3")
    monomials = [
        tuple(Counter(c)[i] for i in range(4))
        for c in combinations_with_replacement(range(4), 4)
    ]
    return xpoly(4, {m: rng.randint(1, 9) for m in rng.sample(monomials, 28)})


@pytest.fixture(scope="module")
def hesse_ring():
    return build_cayley_ring(P2_RAYS, [HESSE_CUBIC])


@pytest.fixture(scope="module")
def wide_hesse_ring():
    return build_cayley_ring(P2_RAYS, [WIDE_HESSE_CUBIC])


@pytest.fixture(scope="module")
def sextic_ring():
    ring = build_cayley_ring(WP11121_RAYS, [WEIGHTED_SEXTIC])
    assert ring.grading.ray_charges == ((1,), (1,), (1,), (2,), (1,))
    return ring


@pytest.fixture(scope="module")
def dense_k3_ring():
    return build_cayley_ring(P3_RAYS, [_dense_quartic()])


@pytest.mark.parametrize(
    "name, weights",
    [
        ("hesse", (1, 2, 3)),
        ("ci22", (1, 2, 3)),
        ("dwork", (2, 3)),
        ("p1p1", (1, 2)),
        ("rational_hesse", (1, 2, 3)),
        ("wide_hesse", (2, 3)),
    ],
)
def test_echelon_reduction_matches_rref_reference(request, name, weights):
    """Unreduced echelon rows give the residue and combination of rref."""
    ring = request.getfixturevalue(name + "_ring")
    rng = random.Random(name)
    multi_term = 0
    for w in weights:
        piece = ideal_piece(ring, ring.c_B, w)
        multi_term += sum(len(row) > 1 for row, _ in piece.pivots.values())
        for col, (row, wit) in piece.pivots.items():
            assert min(row) == col
            entries = [*row.values(), *wit.values()]
            assert all(type(v) is int for v in entries)
            assert gcd(*entries) == 1
            rebuilt = {}
            for gen_idx, coeff in wit.items():
                _axpy(rebuilt, _generator_row(ring, piece, gen_idx), coeff)
            assert rebuilt == row
        columns = [shared_packing(ring.nvars).key(m) for m in piece.monomials]
        assert columns == sorted(columns)  # ascending keys: descending grevlex
        standard = [m for c, m in zip(columns, piece.monomials) if c not in piece.pivots]
        assert piece.standard_monomials == tuple(sorted(standard, key=grevlex_key))
        rref = _rref_pivots(piece)
        ncols = len(columns)
        for _ in range(8):
            cols = rng.sample(columns, min(6, ncols))
            vec = {
                c: Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4)) for c in cols
            }
            assert piece.reduce_vector(vec) == _rref_reduce(rref, vec)
    assert multi_term


@pytest.mark.parametrize(
    "name, weight", [("rational_hesse", 1), ("ci22", 1), ("dwork", 2)]
)
def test_reduce_vector_edge_cases(request, name, weight):
    """Empty, row-space and mixed-denominator inputs against the reference."""
    ring = request.getfixturevalue(name + "_ring")
    piece = ideal_piece(ring, ring.c_B, weight)
    rref = _rref_pivots(piece)
    assert piece.reduce_vector({}) == ({}, {})
    rng = random.Random(name)
    in_span = {}
    for gen_idx in rng.sample(range(len(piece.generators)), 4):
        coeff = Fraction(rng.randint(1, 9), rng.randint(2, 9))
        _axpy(in_span, _generator_row(ring, piece, gen_idx), coeff)
    assert in_span
    residue, combo = piece.reduce_vector(in_span)
    assert residue == {}
    assert (residue, combo) == _rref_reduce(rref, in_span)
    rebuilt = {}
    for gen_idx, coeff in combo.items():
        _axpy(rebuilt, _generator_row(ring, piece, gen_idx), coeff)
    assert rebuilt == in_span
    columns = map(shared_packing(ring.nvars).key, piece.monomials)
    standard = next(c for c in columns if c not in piece.pivots)
    cols = [standard] + rng.sample(sorted(piece.pivots), 5)
    mixed = {
        col: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), denom)
        for col, denom in zip(cols, (2, 3, 5, 7, 11, 13))
    }
    got = piece.reduce_vector(mixed)
    assert got == _rref_reduce(rref, mixed)
    assert got[0] and got[1]  # a residue survives and generators are used




def _reduce_lead_every_step(row, wit, pivots):
    """Reference: cancel the leading pivot columns of row, carrying wit, and
    divide the content of row and wit out before every step and before
    returning, so a row that meets no pivot leaves with content 1 too.
    Returns the first leading column with no pivot, or None once row is
    zero."""
    while row:
        content = gcd(*row.values(), *wit.values())
        for part in (row, wit):
            for key in part:
                part[key] //= content
        lead = min(row)
        if lead not in pivots:
            return lead
        prow, pwit = pivots[lead]
        g = gcd(prow[lead], row[lead])
        p, c = prow[lead] // g, row[lead] // g
        for part, src in ((row, prow), (wit, pwit)):
            for key in part:
                part[key] *= p
            _axpy(part, src, -c)
    return None


def _reference_partials(ring):
    """{i: (d, {exponents: int})} for every nonzero partial of S, x partials
    first as in the engine's generator order: reference_partial cleared to
    int numerators over d, the lcm of its own denominators."""
    out = {}
    for i in [*range(ring.k, ring.nvars), *range(ring.k)]:
        part = reference_partial(ring.S, i)
        if part:
            d = lcm(*(c.denominator for c in part.values()))
            out[i] = (d, {e: int(c * d) for e, c in part.items()})
    return out


def _echelon_every_generator(ring, charge, weight):
    """Reference: reduce every generator with its witness, in the engine's
    generator order, dividing the content out at every step, and keep the
    rows that do not reach zero. A partial enters over its own denominator,
    not over S's as in the engine; the stored pivots, content 1, do not
    tell the two apart."""
    monomials = enumerate_graded_piece(ring, (charge, weight))
    col_index = {m: c for c, m in enumerate(monomials)}
    generators = []
    pivots = {}
    for i, (denom, part) in _reference_partials(ring).items():
        pcharge, pweight = ring.degree_of_monomial(next(iter(part)))
        mult_charge = tuple(a - b for a, b in zip(charge, pcharge))
        if weight < pweight:
            continue
        for mult in enumerate_graded_piece(ring, (mult_charge, weight - pweight)):
            row = {col_index[monomial_mul(mult, e)]: n for e, n in part.items()}
            wit = {len(generators): denom}
            generators.append((mult, i))
            lead = _reduce_lead_every_step(row, wit, pivots)
            if lead is not None:
                pivots[lead] = (row, wit)
    standard = [m for c, m in enumerate(monomials) if c not in pivots]
    return pivots, tuple(generators), len(pivots), tuple(sorted(standard, key=grevlex_key))


def _indexed_pivots(ring, piece):
    """piece.pivots with each column, a packed key, renamed to the index of
    its monomial in piece.monomials, as _echelon_every_generator names it."""
    key = shared_packing(ring.nvars).key
    index = {key(m): c for c, m in enumerate(piece.monomials)}
    return {
        index[col]: ({index[c]: v for c, v in row.items()}, wit)
        for col, (row, wit) in piece.pivots.items()
    }


@pytest.mark.parametrize(
    "name, weights",
    [
        ("hesse", (1, 2, 3)),
        ("ci22", (1, 2, 3)),
        ("dwork", (2, 3)),
        ("p1p1", (1, 2)),
        ("rational_hesse", (1, 2, 3)),
        ("cy33", (2,)),
        ("wide_hesse", (2, 3)),
        ("sextic", (1, 2, 3)),
    ],
)
def test_witness_free_test_keeps_the_echelon_form(request, name, weights):
    """ideal_piece's pivots, witnesses, generators and standard monomials
    are those of reducing every generator with its witness and dividing
    the content out at every step: neither the witness-free pivot pass,
    the witness pass over its pivot generators alone, nor dividing the
    content only past a machine word and once per stored pivot changes
    them."""
    ring = request.getfixturevalue(name + "_ring")
    skipped = 0
    for w in weights:
        piece = ideal_piece(ring, ring.c_B, w)
        pivots, generators, rank, standard = _echelon_every_generator(ring, ring.c_B, w)
        assert _indexed_pivots(ring, piece) == pivots
        assert all(
            type(v) is int
            for row, wit in piece.pivots.values()
            for v in (*row.values(), *wit.values())
        )
        assert piece.generators == generators
        assert piece.rank == rank
        assert piece.standard_monomials == standard
        skipped += len(generators) - rank
    assert skipped  # some generators did reach zero


@pytest.mark.parametrize("name", ["hesse", "cy33"])
def test_witnesses_wait_for_the_first_reduction(request, monkeypatch, name):
    """jacobian_basis reduces no row with a witness and builds no generator
    tuple. The first reduce_vector on a piece runs its witness pass once:
    one witness reduction per pivot generator, in order. A second runs
    none."""
    ring = request.getfixturevalue(name + "_ring")
    reduce_lead = jacobired._reduce_lead
    witnessed = []  # the generators a witness starts from, reduce_vector's aside

    def recording(row, pivots, wit=None):
        if wit is not None and -1 not in wit:
            witnessed.append(tuple(wit))
        return reduce_lead(row, pivots, wit)

    monkeypatch.setattr(jacobired, "_reduce_lead", recording)
    basis = jacobian_basis(ring)
    assert witnessed == []
    for w in range(basis.max_weight + 1):
        piece = basis.piece(w)
        assert "generators" not in vars(piece) and "pivots" not in vars(piece)
        for m in (piece.monomials[0], piece.monomials[-1]):
            piece.reduce_vector({shared_packing(ring.nvars).key(m): 1})
            assert witnessed == [(g,) for g in piece.pivot_generators]
        assert len(piece.pivots) == piece.rank
        witnessed.clear()


# per ring, the generators of its top weight that leads learned in the
# pieces below skip, the trails aside
LEARNED_SKIPS = {
    "p1p1": 6,
    "sextic": 103,
    "dense_k3": 31,
    "cy33": 1348,
    "quintic": 1,
    "rational_hesse": 12,
    "wide_hesse": 12,
}


@pytest.mark.parametrize(
    "name, weights",
    [
        ("p1p1", (1, 2)),
        ("sextic", (1, 2, 3)),
        ("dense_k3", (2,)),
        ("cy33", (2, 3)),
        ("quintic", (4,)),
        ("rational_hesse", (1, 2, 3)),
        ("wide_hesse", (2, 3)),
    ],
)
def test_koszul_skipped_generators_reach_zero(request, monkeypatch, name, weights):
    """ideal_piece builds a row for exactly the generators whose multiplier
    no lead in its partial's list divides. A list starts with the trails
    (grevlex-least monomials) of the partials before it and then gains the
    multiplier of every built row of its partial that reached zero. Each
    skipped row, built here, reduces to zero against the pivots of the
    generators before it. The built rows are those the pivot pass reduces
    without a witness. Every weight from 0 up is built, as jacobian_basis
    builds them, on lists that start empty; the given weights are checked."""
    ring = request.getfixturevalue(name + "_ring")
    # the ring fixtures are shared, and so are their lists
    monkeypatch.setattr(ring, "_syzygies", {})
    reduce_lead = jacobired._reduce_lead
    built = []

    def recording(row, pivots, wit=None):
        if wit is None:
            built.append(dict(row))
        return reduce_lead(row, pivots, wit)

    monkeypatch.setattr(jacobired, "_reduce_lead", recording)
    packing = shared_packing(ring.nvars)
    partials = _reference_partials(ring)
    seeds, trails = {}, []
    for i, (_, part) in partials.items():
        seeds[i] = list(trails)
        trails.append(min(part, key=grevlex_key))
    skipped = Counter()
    for w in range(max(weights) + 1):
        if w not in weights:
            ideal_piece(ring, ring.c_B, w)
            continue
        # the ring keeps the leads as packed keys
        leads = {
            i: list(map(packing.exponents, known))
            for i, known in ring._syzygies.items()
        } or {i: list(known) for i, known in seeds.items()}
        assert [known[: len(seeds[i])] for i, known in leads.items()] == list(
            seeds.values()
        )
        built.clear()
        piece = ideal_piece(ring, ring.c_B, w)
        generators = []
        rows = []  # the rows of the generators no lead skips, in order
        pivots = {}
        for i, known in leads.items():
            # the engine keeps every partial over S's denominator
            denom, part = partials[i]
            scale = ring.S.denom // denom
            pcharge, pweight = ring.degree_of_monomial(next(iter(part)))
            if w < pweight:
                continue
            mult_charge = tuple(a - b for a, b in zip(ring.c_B, pcharge))
            learned = []
            for mult in enumerate_graded_piece(ring, (mult_charge, w - pweight)):
                row = {
                    packing.key(monomial_mul(mult, e)): n * scale
                    for e, n in part.items()
                }
                wit = {len(generators): ring.S.denom}
                generators.append((mult, i))
                divisors = [
                    j for j, t in enumerate(known) if all(map(int.__ge__, mult, t))
                ]
                if not divisors:
                    rows.append(dict(row))
                lead = _reduce_lead_every_step(row, wit, pivots)
                if divisors:
                    assert lead is None, (mult, i)
                    kind = "trail" if divisors[0] < len(seeds[i]) else "learned"
                    skipped[kind, w] += 1
                elif lead is None:
                    learned.append(mult)
                else:
                    pivots[lead] = (row, wit)
            known += learned
        assert built == rows
        assert ring._syzygies == {
            i: list(map(packing.key, known)) for i, known in leads.items()
        }
        assert piece.generators == tuple(generators)
        assert piece.pivots == pivots
    top = max(weights)
    assert skipped["trail", top]  # the Koszul criterion skips some generators
    assert skipped["learned", top] == LEARNED_SKIPS[name]


def _closes(ring, basis, f, coefficients, witness):
    """Whether f = sum of coefficients times basis monomials + Q_S(witness)."""
    rebuilt = q_s(witness, ring).to_poly()
    for i, coeff in coefficients.items():
        rebuilt = rebuilt + Poly.monomial(basis.monomials[i], coeff)
    return rebuilt == f


@pytest.mark.parametrize("name", ["k3", "dwork", "degenerate"])
def test_lift_takes_the_first_divisor_that_reduces_to_zero(request, name):
    """basis.reduction lifts a monomial m above weight n-k+1 from the first
    monomial m0 of the weight n-k+1 piece, in descending grevlex, that
    divides m and reduces to zero there: its residue is empty, its terms are
    those of m0 and h * lambda(m0), h = m / m0, closes the identity for m. A
    monomial with no such m0 has h = 0 and closes with its own residue."""
    if name == "degenerate":
        ring = degenerate_ring()
    else:
        ring = request.getfixturevalue(name + "_ring")
    basis = jacobian_basis(ring)
    lift_weight = basis.max_weight + 1
    piece = basis.piece(lift_weight)
    key = shared_packing(ring.nvars).key
    rng = random.Random(f"lift/{name}")
    lifted = unlifted = 0
    for extra in (1, 2):
        monos = enumerate_graded_piece(ring, (basis.charge, lift_weight + extra))
        for m in rng.sample(monos, min(12, len(monos))):
            first = next(
                (
                    m0
                    for m0 in piece.monomials
                    if all(map(int.__le__, m0, m))
                    and not piece.reduce_vector({key(m0): 1})[0]
                ),
                None,
            )
            got = basis.reduction(m)
            assert basis.reduction(m) is got  # memoized
            denom, residue, h, terms = got
            assert all(type(n) is int for n in residue.values())
            assert all(type(n) is int for _, _, n in terms)
            if first is None:
                assert h == (0,) * len(m)
                unlifted += 1
            else:
                assert residue == {}
                assert monomial_mul(h, first) == m
                assert ring.degree_of_monomial(h) == (basis.charge, extra)
                first_denom, _, _, first_terms = basis.reduction(first)
                assert (denom, terms) == (first_denom, first_terms)
                lifted += 1
            witness = SuperElement.from_nums(
                denom, {(monomial_mul(h, mult), (i,)): n for mult, i, n in terms}
            )
            rest = Poly.from_nums(denom, dict(residue))
            assert q_s(witness, ring).to_poly() + rest == Poly.monomial(m)
    assert lifted
    assert (unlifted > 0) == (name == "degenerate")


@pytest.mark.parametrize("name", ["k3", "dwork", "ci22"])
def test_a_corrupt_memoized_term_fails_the_closing_identity(request, name):
    """One int of a memoized term, off by one, no longer closes the identity
    f = basis part + Q_S(lambda), and reduce_with_witness says so."""
    ring = request.getfixturevalue(name + "_ring")
    basis = jacobian_basis(ring)
    piece = basis.piece(basis.max_weight + 1)
    m = next(m for m in piece.monomials if basis.reduction(m)[3])
    f = Poly.monomial(m, Fraction(2, 3))
    reduce_with_witness(basis, f)  # the memo as built closes
    denom, residue, h, ((mult, i, n), *terms) = basis.reduction(m)
    basis._reductions[m] = (denom, residue, h, ((mult, i, n + 1), *terms))
    with pytest.raises(ArithmeticError, match="reduction identity failed to close"):
        reduce_with_witness(basis, f)


def _reference_reduction(basis, f):
    """Reference: each weight component of f reduced as one vector against
    its piece; above weight w* = n-k+1 each monomial m lifted from the first
    monomial m0 of the weight-w* piece, in descending grevlex, that divides
    it and reduces to zero, with witness (m / m0) * lambda(m0), and the
    monomials with no such m0 reduced together against their own piece.
    Returns (coefficients, witness); raises BasisIncomplete at the lowest
    weight above n-k that keeps a residue."""
    ring, top = basis.ring, basis.max_weight + 1
    packing = shared_packing(ring.nvars)
    lift_piece = basis.piece(top)
    zero = [
        m0
        for m0 in lift_piece.monomials
        if not lift_piece.reduce_vector({packing.key(m0): 1})[0]
    ]
    by_weight = {}
    for m, coeff in f.terms.items():
        by_weight.setdefault(ring.degree_of_monomial(m)[1], {})[m] = coeff
    coefficients, lam = {}, {}

    def add_combination(piece, combo, h):
        for g, coeff in combo.items():
            mult, i = piece.generators[g]
            key = (monomial_mul(h, mult), (i,))
            lam[key] = lam.get(key, 0) + coeff

    for w in sorted(by_weight):
        component = by_weight[w]
        if w > top:
            rest = {}
            for m, coeff in component.items():
                m0 = next((m0 for m0 in zero if all(map(int.__le__, m0, m))), None)
                if m0 is None:
                    rest[m] = coeff
                    continue
                h = tuple(a - b for a, b in zip(m, m0))
                _, combo = lift_piece.reduce_vector({packing.key(m0): coeff})
                add_combination(lift_piece, combo, h)
            component = rest
            if not component:
                continue
        piece = basis.piece(w)
        residue, combo = piece.reduce_vector(
            {packing.key(m): coeff for m, coeff in component.items()}
        )
        if residue and w > basis.max_weight:
            raise BasisIncomplete(w)
        for col, coeff in residue.items():
            coefficients[basis.index_of[packing.exponents(col)]] = coeff
        add_combination(piece, combo, (0,) * ring.nvars)
    return coefficients, SuperElement(lam)


@pytest.mark.parametrize("name", ["k3", "dwork", "ci22", "degenerate"])
def test_monomial_reductions_sum_to_the_vector_reduction(request, name):
    """reduce_with_witness, summing memoized per-monomial reductions, gives
    the coefficients and witness of reducing each weight component as one
    vector with the lift above n-k+1, and raises BasisIncomplete at the
    same weight, on seeded polynomials over every weight up to n-k+3."""
    if name == "degenerate":
        ring = degenerate_ring()
    else:
        ring = request.getfixturevalue(name + "_ring")
    basis = jacobian_basis(ring)
    top = basis.max_weight + 1
    monos = {
        w: enumerate_graded_piece(ring, (basis.charge, w)) for w in range(top + 3)
    }
    rng = random.Random(f"reduction/{name}")
    raised = Counter()
    for case in range(8):
        # every other case leaves out weight w*, so that a residue above it
        # can be the lowest one
        weights = [w for w in monos if w != top or case % 2 == 0]
        f = Poly(
            {
                m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 3))
                for w in weights
                for m in rng.sample(monos[w], min(3, len(monos[w])))
            }
        )
        try:
            expected = _reference_reduction(basis, f)
        except BasisIncomplete as error:
            with pytest.raises(BasisIncomplete) as info:
                reduce_with_witness(basis, f)
            assert info.value.weight == error.weight
            raised[error.weight] += 1
            continue
        got = reduce_with_witness(basis, f)
        assert (got.coefficients, got.witness) == expected
        assert got.witness.nums  # the reduction is not trivial
    if name == "degenerate":
        assert set(raised) == {2, 3}
    else:
        assert not raised


def test_run_builds_no_piece_above_lift_weight(monkeypatch, k3_ring):
    """On the K3 at order 3 the step inputs reach weight 2(n-k) = 4, but no
    piece above weight n-k+1 = 3 is built."""
    built = []
    build = jacobired.ideal_piece

    def recording(ring, charge, weight):
        built.append(weight)
        return build(ring, charge, weight)

    monkeypatch.setattr(jacobired, "ideal_piece", recording)
    basis = jacobian_basis(k3_ring)
    state = run(k3_ring, basis, 3, debug=True)
    weights = {
        k3_ring.degree_of_monomial(m)[1] for f in state.inputs.values() for m in f.nums
    }
    assert max(weights) == 4
    assert sorted(built) == [0, 1, 2, 3]


def test_lifted_witnesses_keep_the_a_rows_dwork(dwork_ring):
    """A gauge check on the Dwork K3 at order 2: reducing every step input
    against its own fully built pieces, as with no lift, gives the same a
    rows; both witnesses close the identity, and they differ only where the
    input reaches above weight n-k+1."""
    ring = dwork_ring
    packing = shared_packing(ring.nvars)
    basis = jacobian_basis(ring)
    state = run(ring, basis, 2, debug=True)
    pieces = {}
    changed = []
    for multi, f in state.inputs.items():
        by_weight = {}
        for exps, coeff in f.terms.items():
            by_weight.setdefault(ring.degree_of_monomial(exps)[1], {})[exps] = coeff
        coefficients, lam = {}, {}
        for w, component in by_weight.items():
            if w not in pieces:
                pieces[w] = ideal_piece(ring, basis.charge, w)
            piece = pieces[w]
            residue, combo = piece.reduce_vector(
                {packing.key(m): coeff for m, coeff in component.items()}
            )
            for col, coeff in residue.items():
                coefficients[basis.index_of[packing.exponents(col)]] = coeff
            for g, coeff in combo.items():
                mult, i = piece.generators[g]
                lam[(mult, (i,))] = coeff
        witness = SuperElement(lam)
        assert state.a_table[multi] == coefficients, multi
        assert _closes(ring, basis, f, coefficients, witness)
        assert _closes(ring, basis, f, state.a_table[multi], state.lam_table[multi])
        if witness != state.lam_table[multi]:
            assert max(by_weight) > basis.max_weight + 1
            changed.append(multi)
    assert max(pieces) == 2 * basis.max_weight
    assert changed  # the lift is a change of gauge here, not a no-op


def _piece_digest(ring, piece):
    """SHA-256 over the piece's pivots (each row and witness, columns named
    by their monomials), pivot generators and standard monomials."""
    # a column, a packed key, to its monomial
    monomial = shared_packing(ring.nvars).exponents
    pivots = sorted(
        (
            monomial(col),
            sorted((monomial(c), v) for c, v in row.items()),
            sorted(wit.items()),
        )
        for col, (row, wit) in piece.pivots.items()
    )
    text = repr((pivots, piece.pivot_generators, piece.standard_monomials))
    return sha256(text.encode()).hexdigest()


# digests of pieces whose rows have several terms, mixed total degrees
# (the P(1,1,1,3) sextic), a rank-2 class group (p1p1), entries of
# hundreds of bits (the dense K3) or a rational potential whose partials
# have unequal denominators (the Hesse cubics: 84, 4, 4, 28 for the
# rational one, 7**23 and 1 for the wide one); reports show witnesses only
# through lambda, so these pin the rows and witnesses themselves
PIECE_DIGESTS = {
    ("cy33", 2): (
        "612e5a470c4e60175d7fd6af29efe744"
        "92f35f58c0a4f0ce6f04d185c5036986"
    ),
    ("cy33", 3): (
        "37163ab1e1e25249df0faaf32ccdc4b4"
        "5d062a97c4e941b35900507d546d6922"
    ),
    ("sextic_k3", 1): (
        "650cfde0374bb6dbcd51324df10d94a8"
        "e5add0daf56b9020997c56642fc784ac"
    ),
    ("sextic_k3", 2): (
        "140d06f223efe5b0a6f0b98e52c429d5"
        "8f2f004f6fe1634ad20a4c848e064361"
    ),
    ("sextic_k3", 3): (
        "c6b30fdfdf47e23dea808dd2ea9dd998"
        "958b63c0c3c44386b391769ee49b435b"
    ),
    ("p1p1", 1): (
        "f5bd7e39ffd3467bd62aa3b0902ef640"
        "cd91c82ecb96df0c623fca7794425c57"
    ),
    ("p1p1", 2): (
        "6685a07d2a473743b34f2d385e4e2c38"
        "d254b843dd6c9515a54d0527b8e40814"
    ),
    ("dense_k3", 2): (
        "9682f65617548a7b361763a8ad65a196"
        "377956cab9868ebc22063a7369f5b2e6"
    ),
    ("rational_hesse", 1): (
        "09342fbefb56c5c8cdce7987501487aa"
        "405b305a4c1197b151ddea9cab53a5e1"
    ),
    ("rational_hesse", 2): (
        "09d62bfccb482a45cc3dee8ca5eaacb1"
        "ce47f6e723046df1da9104fea2cbe728"
    ),
    ("rational_hesse", 3): (
        "c42abe467a74a765aab77195380ac203"
        "27034c9667ee540779a0451aa068edf9"
    ),
    ("wide_hesse", 2): (
        "37f24aa5b53d9793517251da875c1765"
        "e7e992263bea5e072d7c4ea00a3db016"
    ),
    ("wide_hesse", 3): (
        "e76b943273b8b9a6305d3cca971955a7"
        "547de52ee9843aea2ccf2c6f8744974a"
    ),
}


@pytest.mark.parametrize("name, weight", sorted(PIECE_DIGESTS))
def test_piece_digests(request, name, weight):
    ring = request.getfixturevalue(name + "_ring")
    for w in range(weight):
        ideal_piece(ring, ring.c_B, w)  # the lower pieces teach their syzygies
    piece = ideal_piece(ring, ring.c_B, weight)
    assert _piece_digest(ring, piece) == PIECE_DIGESTS[name, weight]


def test_pieces_past_one_byte_keep_their_echelon_form_at_16_bits():
    """The conic in P1 at weight 64 has x-exponents up to 128, past what
    one byte of a key's field holds. That piece, and the weight-1 piece
    built again after it from the enumerated lists and keys cached before
    it, keep the echelon form of reducing every generator."""
    ring = build_cayley_ring(((1,), (-1,)), [xpoly(2, {(2, 0): 1, (0, 2): 1})])
    low = ideal_piece(ring, ring.c_B, 1)
    high = ideal_piece(ring, ring.c_B, 64)
    assert high.monomials == tuple(
        sorted(((64, a, 128 - a) for a in range(129)), key=grevlex_key, reverse=True)
    )
    again = ideal_piece(ring, ring.c_B, 1)
    for piece, w in ((high, 64), (again, 1)):
        pivots, generators, rank, standard = _echelon_every_generator(ring, ring.c_B, w)
        assert _indexed_pivots(ring, piece) == pivots
        assert piece.generators == generators
        assert (piece.rank, piece.standard_monomials) == (rank, standard)
    assert _indexed_pivots(ring, again) == _indexed_pivots(ring, low)
