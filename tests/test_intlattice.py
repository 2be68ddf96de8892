"""Integer lattice linear algebra: pinned decompositions plus seeded properties."""

import random
from fractions import Fraction

import pytest

from toricff.intlattice import (
    LatticePolytope,
    TorsionClassGroup,
    UnboundedPolytope,
    enumerate_lattice_points,
    free_cokernel_projection,
    smith_normal_form,
)

P2_RAYS = [[1, 0], [0, 1], [-1, -1]]
P1P1_RAYS = [[1, 0], [-1, 0], [0, 1], [0, -1]]


def mat_mul(A, B):
    return [
        [sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def det(M):
    n = len(M)
    rows = [[Fraction(v) for v in row] for row in M]
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            d = -d
        d *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return d


def check_decomposition(A):
    snf = smith_normal_form(A)
    assert mat_mul(mat_mul(snf.U, A), snf.V) == snf.D
    assert abs(det(snf.U)) == 1
    assert abs(det(snf.V)) == 1
    divisors = snf.divisors()
    for i, row in enumerate(snf.D):
        for j, v in enumerate(row):
            if i != j:
                assert v == 0
    assert all(d > 0 for d in divisors)
    for a, b in zip(divisors, divisors[1:]):
        assert b % a == 0
    return snf


def test_snf_identity():
    snf = check_decomposition([[1, 0], [0, 1]])
    assert snf.D == [[1, 0], [0, 1]]
    assert snf.divisors() == [1, 1]


def test_snf_pinned_two_by_two():
    # gcd of entries is 2 and |det| = 8, so the diagonal must be (2, 4)
    snf = check_decomposition([[2, 4], [6, 8]])
    assert snf.divisors() == [2, 4]


def test_snf_projective_plane_rays():
    snf = check_decomposition(P2_RAYS)
    assert snf.divisors() == [1, 1]
    assert snf.D[2] == [0, 0]  # cokernel of rank 3 - 2 = 1


def test_snf_p1p1_rays():
    snf = check_decomposition(P1P1_RAYS)
    assert snf.divisors() == [1, 1]  # cokernel of rank 4 - 2 = 2


def test_snf_zero_and_rectangular():
    snf = check_decomposition([[0, 0], [0, 0]])
    assert snf.divisors() == []
    check_decomposition([[3, 6, 9]])
    check_decomposition([[4], [6]])


def test_snf_reconstruction_seeded():
    rng = random.Random(20260815)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        A = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        check_decomposition(A)


def test_snf_deterministic():
    A = [[3, -1, 2], [0, 4, 7]]
    first = smith_normal_form(A)
    second = smith_normal_form(A)
    assert (first.U, first.D, first.V) == (second.U, second.D, second.V)


def cokernel(A):
    return free_cokernel_projection(smith_normal_form(A))


def test_cokernel_projective_plane():
    assert cokernel(P2_RAYS) == ((1, 1, 1),)


def test_cokernel_p1p1():
    assert cokernel(P1P1_RAYS) == ((1, 1, 0, 0), (0, 0, 1, 1))


def test_cokernel_weighted_depends_on_ray_order():
    # the primitive functional vanishing on rows (1,0),(0,1),(-1,-2) is (1,2,1)
    assert cokernel([[1, 0], [0, 1], [-1, -2]]) == ((1, 2, 1),)
    assert cokernel([[-1, -2], [1, 0], [0, 1]]) == ((1, 1, 2),)


def test_cokernel_torsion_rejected():
    # minors of [[2,0],[0,1],[-2,-1]] have gcd 2: cokernel contains Z/2
    with pytest.raises(TorsionClassGroup):
        cokernel([[2, 0], [0, 1], [-2, -1]])


def test_cokernel_properties_seeded():
    rng = random.Random(77)
    found = 0
    while found < 25:
        n = rng.randint(1, 3)
        r = n + rng.randint(1, 3)
        A = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
        snf = smith_normal_form(A)
        divisors = snf.divisors()
        if len(divisors) < n or any(d != 1 for d in divisors):
            continue
        found += 1
        P = free_cokernel_projection(snf)
        assert len(P) == r - n
        for row in P:
            assert all(
                sum(row[i] * A[i][j] for i in range(r)) == 0 for j in range(n)
            )
        if P:
            assert smith_normal_form([list(row) for row in P]).divisors() == [
                1
            ] * len(P)
        assert cokernel(A) == P


def box(dim, bound):
    ineqs = []
    for i in range(dim):
        e = tuple(1 if j == i else 0 for j in range(dim))
        ne = tuple(-1 if j == i else 0 for j in range(dim))
        ineqs.append((e, -bound))
        ineqs.append((ne, -bound))
    return ineqs


def test_points_single_point():
    poly = LatticePolytope(
        inequalities=(((1, 0), 0), ((0, 1), 0), ((-1, -1), 0)), dim=2
    )
    assert enumerate_lattice_points(poly) == [(0, 0)]


def test_points_scaled_simplex():
    poly = LatticePolytope(
        inequalities=(((1, 0), 0), ((0, 1), 0), ((-1, -1), -3)), dim=2
    )
    pts = enumerate_lattice_points(poly)
    assert len(pts) == 10
    assert pts == sorted(pts)
    assert pts[0] == (0, 0)
    assert pts[-1] == (3, 0)
    assert (1, 2) in pts and (2, 2) not in pts


def test_points_empty_system():
    assert enumerate_lattice_points(LatticePolytope(inequalities=(), dim=2)) == []


def test_points_infeasible():
    poly = LatticePolytope(inequalities=(((1,), 1), ((-1,), 0)), dim=1)
    assert enumerate_lattice_points(poly) == []


def test_points_unbounded():
    poly = LatticePolytope(inequalities=(((1, 0), 0),), dim=2)
    with pytest.raises(UnboundedPolytope):
        enumerate_lattice_points(poly)
    half_line = LatticePolytope(inequalities=(((1,), 2),), dim=1)
    with pytest.raises(UnboundedPolytope):
        enumerate_lattice_points(half_line)


def unimodular_pair(rng, dim):
    T = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    Tinv = [row[:] for row in T]
    for _ in range(6):
        i, j = rng.sample(range(dim), 2) if dim > 1 else (0, 0)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for t in range(dim):
            T[j][t] += c * T[i][t]
        # inverse picks up the opposite column operation
        for t in range(dim):
            Tinv[t][i] -= c * Tinv[t][j]
    return T, Tinv


def test_points_unimodular_invariance_seeded():
    rng = random.Random(4242)
    for _ in range(20):
        dim = rng.randint(1, 3)
        ineqs = box(dim, 3)
        for _ in range(rng.randint(0, 2)):
            normal = tuple(rng.randint(-2, 2) for _ in range(dim))
            ineqs.append((normal, rng.randint(-4, 0)))
        pts = enumerate_lattice_points(
            LatticePolytope(inequalities=tuple(ineqs), dim=dim)
        )
        T, Tinv = unimodular_pair(rng, dim)
        assert mat_mul(T, Tinv) == [
            [1 if i == j else 0 for j in range(dim)] for i in range(dim)
        ]
        moved = (
            (
                tuple(
                    sum(a * Tinv[t][j] for t, a in enumerate(normal))
                    for j in range(dim)
                ),
                off,
            )
            for normal, off in ineqs
        )
        transformed = enumerate_lattice_points(
            LatticePolytope(inequalities=tuple(moved), dim=dim)
        )
        image = sorted(
            tuple(sum(T[i][t] * p[t] for t in range(dim)) for i in range(dim))
            for p in pts
        )
        assert image == transformed
