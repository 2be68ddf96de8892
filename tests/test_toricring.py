"""Class-group gradings, Cayley rings, and graded-piece enumeration."""

import math
import random
from dataclasses import replace
from itertools import product

import pytest

from conftest import CUBIC, P2_RAYS, P5_RAYS, QUADRIC_P2, fermat, xpoly
from toricff import toricring
from toricff.jacobired import jacobian_basis
from toricff.polyalg import ExponentOverflow, grevlex_key, shared_packing
from toricff.toricring import (
    GradingInvariantError,
    InhomogeneousHypersurface,
    InvalidInput,
    RaysDoNotSpan,
    TorsionClassGroup,
    build_cayley_ring,
    build_class_grading,
    enumerate_graded_piece,
    graded_piece_keys,
    is_calabi_yau,
    _make_fiber_solver,
    _x_fiber,
)


def test_grading_projective_plane():
    grading = build_class_grading(P2_RAYS)
    assert grading.rank == 1
    assert grading.ray_charges == ((1,), (1,), (1,))


def test_grading_rejects_nonspanning_rays():
    with pytest.raises(RaysDoNotSpan):
        build_class_grading(((1, 0), (-1, 0)))


def test_grading_rejects_torsion():
    with pytest.raises(TorsionClassGroup):
        build_class_grading(((2, 0), (0, 1), (-2, -1)))


def test_grading_errors_come_span_completeness_torsion(monkeypatch):
    """build_class_grading takes one Smith normal form of the ray matrix and
    tests, in order, that the rays span, that the fan is complete and that
    the class group has no torsion."""
    calls = []
    snf = toricring.smith_normal_form

    def counting(A):
        calls.append(A)
        return snf(A)

    monkeypatch.setattr(toricring, "smith_normal_form", counting)
    build_class_grading(P2_RAYS)
    assert len(calls) == 1
    # rank 1 and not complete: the span is tested first
    with pytest.raises(RaysDoNotSpan):
        build_class_grading(((1, 0), (-1, 0)))
    # Z/2 torsion and not complete: completeness is tested first
    with pytest.raises(InvalidInput):
        build_class_grading(((2, 0), (0, 1)))


def test_grading_sigma_relations_seeded(
    cubic_ring, quintic_ring, ci22_ring, p1p1_ring
):
    rng = random.Random(5)
    for ring in (cubic_ring, quintic_ring, ci22_ring, p1p1_ring):
        grading = ring.grading
        for _ in range(10):
            m = [rng.randint(-5, 5) for _ in range(grading.n)]
            for j in range(grading.rank):
                total = sum(
                    sum(mi * ei for mi, ei in zip(m, ray))
                    * grading.ray_charges[rho][j]
                    for rho, ray in enumerate(grading.rays)
                )
                assert total == 0


def test_cubic_ring_grading(cubic_ring):
    assert cubic_ring.k == 1 and cubic_ring.r == 3
    assert cubic_ring.var_charges[0] == (-3,)
    assert cubic_ring.var_weights == (1, 0, 0, 0)
    assert cubic_ring.betas == ((3,),)
    assert cubic_ring.c_B == (0,)
    assert is_calabi_yau(cubic_ring)
    assert cubic_ring.names == ("y1", "x1", "x2", "x3")


def test_cubic_potential(cubic_ring):
    # S = y1*(x1^3+x2^3+x3^3), so dS/dy1 recovers the cubic
    S = cubic_ring.S
    assert S.denom == 1
    rows = S.partial_rows()
    assert sorted(rows) == [0, 1, 2, 3]
    assert dict(rows[0]) == {(0,) + exps: n for exps, n in CUBIC.nums.items()}
    assert rows[1] == (((1, 2, 0, 0), 3),)


def test_quintic_ring_grading(quintic_ring):
    assert quintic_ring.var_charges[0] == (-5,)
    assert quintic_ring.c_B == (0,)
    assert is_calabi_yau(quintic_ring)


def test_quadric_not_calabi_yau():
    ring = build_cayley_ring(P2_RAYS, [QUADRIC_P2])
    assert ring.c_B == (-1,)
    assert not is_calabi_yau(ring)


def test_ci22_ring_grading(ci22_ring):
    assert ci22_ring.k == 2 and ci22_ring.r == 4
    assert ci22_ring.betas == ((2,), (2,))
    assert ci22_ring.var_charges[0] == (-2,)
    assert ci22_ring.var_charges[1] == (-2,)
    assert ci22_ring.c_B == (0,)
    assert is_calabi_yau(ci22_ring)


def test_p1p1_ring_grading(p1p1_ring):
    assert p1p1_ring.grading.rank == 2
    assert p1p1_ring.var_charges[1:] == ((1, 0), (1, 0), (0, 1), (0, 1))
    assert p1p1_ring.c_B == (0, 0)
    assert is_calabi_yau(p1p1_ring)


def test_inhomogeneous_hypersurface_rejected():
    bad = xpoly(3, {(2, 0, 0): 1, (0, 3, 0): 1})
    with pytest.raises(InhomogeneousHypersurface) as err:
        build_cayley_ring(P2_RAYS, [bad])
    assert err.value.index == 0
    assert {err.value.degree_a, err.value.degree_b} == {(2,), (3,)}


def test_graded_piece_cubic_counts(cubic_ring):
    assert enumerate_graded_piece(cubic_ring, ((0,), 0)) == [(0, 0, 0, 0)]
    piece = enumerate_graded_piece(cubic_ring, ((0,), 1))
    assert len(piece) == 10
    assert all(e[0] == 1 and sum(e[1:]) == 3 for e in piece)
    assert piece[0] == (1, 3, 0, 0) and piece[-1] == (1, 0, 0, 3)
    bigger = enumerate_graded_piece(cubic_ring, ((1,), 1))
    assert len(bigger) == 15
    assert enumerate_graded_piece(cubic_ring, ((0,), -1)) == []


def test_graded_piece_quintic_count(quintic_ring):
    piece = enumerate_graded_piece(quintic_ring, ((0,), 1))
    assert len(piece) == math.comb(9, 4)


def test_graded_piece_ci22_count(ci22_ring):
    piece = enumerate_graded_piece(ci22_ring, ((0,), 1))
    # two y choices times the 10 quadratic monomials in four x variables
    assert len(piece) == 20


def test_graded_piece_p1p1_count(p1p1_ring):
    piece = enumerate_graded_piece(p1p1_ring, ((0, 0), 1))
    assert len(piece) == 9
    assert enumerate_graded_piece(p1p1_ring, ((0, 0), 2))
    assert len(enumerate_graded_piece(p1p1_ring, ((0, 0), 2))) == 25


def test_graded_piece_cached_and_deterministic(cubic_ring):
    first = enumerate_graded_piece(cubic_ring, ((0,), 1))
    second = enumerate_graded_piece(cubic_ring, ((0,), 1))
    assert first is second


def test_degree_of_monomial(cubic_ring):
    assert cubic_ring.degree_of_monomial((1, 1, 1, 1)) == ((0,), 1)
    assert cubic_ring.degree_of_monomial((2, 0, 0, 1)) == ((-5,), 2)


def test_degree_of_monomial_matches_defining_formula_seeded(
    cubic_ring, ci22_ring, p1p1_ring
):
    rng = random.Random(3035)
    for ring in (cubic_ring, ci22_ring, p1p1_ring):
        nv = ring.nvars
        for _ in range(60):
            exps = tuple(rng.choice((0, 0, 1, 2, 5)) for _ in range(nv))
            charge = tuple(
                sum(ring.var_charges[i][j] * exps[i] for i in range(nv))
                for j in range(ring.charge_rank)
            )
            weight = sum(ring.var_weights[i] * exps[i] for i in range(nv))
            got = ring.degree_of_monomial(exps)
            assert got == (charge, weight)
            assert type(got[0]) is tuple and len(got[0]) == ring.charge_rank
            assert all(type(v) is int for v in got[0] + (got[1],))
    assert p1p1_ring.charge_rank == 2


def test_fiber_solver_invariants_are_internal_errors(cubic_ring):
    # a broken invariant is a bug: the CLI maps ValueError to an input error
    assert not issubclass(GradingInvariantError, ValueError)
    grading = cubic_ring.grading
    doubled = replace(
        grading,
        projection=tuple(tuple(2 * v for v in row) for row in grading.projection),
    )
    with pytest.raises(GradingInvariantError, match="not unimodular"):
        _make_fiber_solver(doubled)
    U, V, s, kernel = cubic_ring._fiber_solver
    no_v = [[0] * len(row) for row in V]
    with pytest.raises(GradingInvariantError, match="misses charge"):
        _x_fiber(grading, (U, no_v, s, kernel), (3,))


# P(1,1,1,1,2): x1 = -(x2 + x3 + x4 + 2*x5) in the ray lattice
WP11112_RAYS = ((-1, -1, -1, -2),) + tuple(
    tuple(int(i == j) for j in range(4)) for i in range(4)
)


def _brute_piece(ring, degree, bound):
    """Every monomial with y exponents up to the weight and x exponents up to
    bound whose degree is the given one, in descending grevlex."""
    charge, weight = degree
    ranges = [range(weight + 1)] * ring.k + [range(bound + 1)] * ring.r
    found = [e for e in product(*ranges) if ring.degree_of_monomial(e) == degree]
    return sorted(found, key=grevlex_key, reverse=True)


def test_graded_piece_matches_brute_force(p1p1_ring):
    wp = build_cayley_ring(
        WP11112_RAYS, [xpoly(5, {(6, 0, 0, 0, 0): 1, (0, 6, 0, 0, 0): 1, (0, 0, 0, 0, 3): 1})]
    )
    assert wp.grading.ray_charges == ((1,), (1,), (1,), (1,), (2,))
    assert wp.betas == ((6,),)
    # each bound is the largest x-charge among the degree's fibers (1 where
    # there is none); every x variable has a positive charge, so no exponent
    # passes it
    cases = [
        (p1p1_ring, ((0, 0), 1), 2),
        (p1p1_ring, ((0, 0), 2), 4),
        (p1p1_ring, ((-1, 0), 1), 2),  # a negative charge
        (p1p1_ring, ((1, -1), 2), 5),
        (p1p1_ring, ((-1, 0), 0), 1),  # an empty fiber
        (wp, ((0,), 1), 6),
        (wp, ((-1,), 1), 5),  # a negative charge
        (wp, ((1,), 0), 1),
        (wp, ((2,), 0), 2),
        (wp, ((-3,), 0), 1),  # an empty fiber
    ]
    for ring, degree, bound in cases:
        got = enumerate_graded_piece(ring, degree)
        assert got == _brute_piece(ring, degree, bound), degree
    assert enumerate_graded_piece(p1p1_ring, ((-1, 0), 0)) == []
    assert enumerate_graded_piece(wp, ((-3,), 0)) == []
    assert len(enumerate_graded_piece(wp, ((1,), 0))) == 4  # x5 has charge 2
    assert len(enumerate_graded_piece(wp, ((2,), 0))) == 11


def test_each_x_fiber_is_enumerated_once_per_ring(monkeypatch):
    fibers = []
    lattice_calls = []
    x_fiber = toricring._x_fiber
    points = toricring.enumerate_lattice_points

    def counted_fiber(grading, solver, charge):
        fibers.append(tuple(charge))
        return x_fiber(grading, solver, charge)

    def counted_points(polytope):
        lattice_calls.append(polytope)
        return points(polytope)

    monkeypatch.setattr(toricring, "_x_fiber", counted_fiber)
    monkeypatch.setattr(toricring, "enumerate_lattice_points", counted_points)
    cubics = [
        xpoly(6, {tuple(3 * (i == j) for j in range(6)): c for i, c in enumerate(cs)})
        for cs in ((1,) * 6, (1, 2, 3, 4, 5, 6))
    ]
    ring = build_cayley_ring(P5_RAYS, cubics)
    basis = jacobian_basis(ring)
    assert basis.dims == (1, 73, 73, 1)
    # the pieces of weights 0..3 and their multiplier pieces take 26 fibers
    # at 8 distinct x-charges; each is enumerated once, and the Koszul test
    # of ideal_piece reads none
    assert len(fibers) == len(set(fibers)) == 8
    assert sorted(fibers) == [(c,) for c in (-3, 0, 1, 3, 4, 6, 7, 9)]
    assert set(ring._fibers) == set(fibers)
    # the fan's completeness check plus one lattice enumeration per fiber
    assert len(lattice_calls) == 9
    # a repeated call returns the cached list itself
    for key, (piece, _) in ring._pieces.items():
        assert enumerate_graded_piece(ring, key) is piece


def test_a_piece_past_one_byte_is_keyed_at_the_16_bit_packing():
    """A line and a cubic in P1: the weight-43 piece's last fibers have
    x-exponents up to 129, past what one byte of a key's field holds. The
    piece is in key order, and every fiber and piece the ring caches is
    keyed at shared_packing of its variable count, the ring's packing."""
    cubic = xpoly(2, {(3, 0): 1, (0, 3): 1})
    ring = build_cayley_ring(((1,), (-1,)), [cubic, xpoly(2, {(1, 0): 1, (0, 1): 1})])
    enumerate_graded_piece(ring, ((0,), 1))
    piece = enumerate_graded_piece(ring, ((0,), 43))
    assert max(map(max, piece)) == 129
    assert len(piece) == 3828
    assert piece == sorted(piece, key=grevlex_key, reverse=True)
    assert ring.packing is shared_packing(ring.nvars)
    key = shared_packing(ring.nvars).key
    keys = graded_piece_keys(ring, ((0,), 43))
    assert keys == [key(m) for m in piece] == sorted(keys)
    for cached, cached_keys in ring._pieces.values():
        assert cached_keys == [key(m) for m in cached]
    ys = (0,) * ring.k
    for points, xkeys in ring._fibers.values():
        assert xkeys == [key(ys + u) for u in points]


def test_a_fiber_past_the_packing_limit_raises():
    """The conic in P1 at weight 16,384 has the x-fiber u1 + u2 = 32,768,
    past the 32,767 a key's field holds: enumerating the piece raises
    ExponentOverflow and caches neither the fiber nor the piece."""
    ring = build_cayley_ring(((1,), (-1,)), [xpoly(2, {(2, 0): 1, (0, 2): 1})])
    enumerate_graded_piece(ring, ((0,), 1))
    fibers, pieces = dict(ring._fibers), dict(ring._pieces)
    with pytest.raises(ExponentOverflow):
        enumerate_graded_piece(ring, ((0,), 16384))
    assert (ring._fibers, ring._pieces) == (fibers, pieces)
