"""Exact integer lattice linear algebra.

Three services used by the toric layer: Smith normal form with unimodular
transforms, the projection of an integer matrix onto its free cokernel, and
enumeration of lattice points in a bounded rational polyhedron given by
inequalities (normal, offset) meaning <normal, m> >= offset.

Lattice points come back as plain tuples in lexicographic order. toricring
turns the points of an x-fiber into exponent vectors and into packed
grevlex keys (polyalg.shared_packing: one int per monomial, one 16-bit
field with a guard bit per variable) a column at a time, so the
enumeration's own per-point work is one bound per inequality, a
sum(map(mul, ...)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul


class TorsionClassGroup(Exception):
    """The cokernel has a finite cyclic factor of order > 1."""


class UnboundedPolytope(Exception):
    """The inequality system admits an unbounded direction."""


@dataclass(frozen=True)
class LatticePolytope:
    inequalities: tuple  # of (normal: tuple[int, ...], offset: int)
    dim: int


@dataclass(frozen=True)
class SNFDecomposition:
    U: list
    D: list
    V: list

    def divisors(self):
        return [
            self.D[i][i]
            for i in range(min(len(self.D), len(self.D[0]) if self.D else 0))
            if self.D[i][i] != 0
        ]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(A):
    """U, D, V with U*A*V = D diagonal, d1 | d2 | ..., all di > 0.

    Deterministic: the pivot is the smallest absolute nonzero entry of the
    remaining block, ties broken by row then column index.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    D = [[int(v) for v in row] for row in A]
    U = _identity(m)
    V = _identity(n)

    def swap_rows(i, j):
        if i != j:
            D[i], D[j] = D[j], D[i]
            U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        if i != j:
            for row in D:
                row[i], row[j] = row[j], row[i]
            for row in V:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        if c:
            D[dst] = [a + c * b for a, b in zip(D[dst], D[src])]
            U[dst] = [a + c * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        if c:
            for row in D:
                row[dst] += c * row[src]
            for row in V:
                row[dst] += c * row[src]

    def negate_row(i):
        D[i] = [-v for v in D[i]]
        U[i] = [-v for v in U[i]]

    t = 0
    while t < min(m, n):
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(D[i][j])
                if v and (pivot is None or v < pivot[0]):
                    pivot = (v, i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[1])
        swap_cols(t, pivot[2])
        while True:
            # euclidean steps until the pivot divides and clears its row/column
            again = False
            for i in range(t + 1, m):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    add_row(t, i, -q)
                    if D[i][t]:
                        swap_rows(t, i)
                        again = True
            for j in range(t + 1, n):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    add_col(t, j, -q)
                    if D[t][j]:
                        swap_cols(t, j)
                        again = True
            if again:
                continue
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if D[i][j] % D[t][t]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row(bad, t, 1)
        if D[t][t] < 0:
            negate_row(t)
        t += 1
    return SNFDecomposition(U=U, D=D, V=V)


def _row_hermite(rows):
    """Canonical row Hermite form of an integer matrix with independent rows."""
    M = [list(r) for r in rows]
    if not M:
        return ()
    ncols = len(M[0])
    r = 0
    for c in range(ncols):
        if r == len(M):
            break
        while True:
            live = [i for i in range(r, len(M)) if M[i][c]]
            if not live:
                break
            i0 = min(live, key=lambda i: (abs(M[i][c]), i))
            M[r], M[i0] = M[i0], M[r]
            done = True
            for i in range(r + 1, len(M)):
                if M[i][c]:
                    q = M[i][c] // M[r][c]
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
                    if M[i][c]:
                        done = False
            if done:
                break
        if any(M[i][c] for i in range(r, len(M))):
            if M[r][c] < 0:
                M[r] = [-v for v in M[r]]
            for i in range(r):
                q = M[i][c] // M[r][c]
                if q:
                    M[i] = [a - q * b for a, b in zip(M[i], M[r])]
            r += 1
    return tuple(tuple(row) for row in M)


def free_cokernel_projection(snf):
    """Integer matrix P with P*A = 0 projecting Z^rows onto the free cokernel,
    read off snf = smith_normal_form(A), so a caller that has the
    decomposition does not compute it again.

    P has rows - rank(A) rows and is surjective; rows are canonicalized by row
    Hermite form. Raises TorsionClassGroup when some elementary divisor
    exceeds 1.
    """
    divisors = snf.divisors()
    if any(d != 1 for d in divisors):
        raise TorsionClassGroup(
            f"cokernel has torsion: elementary divisors {divisors}"
        )
    rank = len(divisors)
    tail = snf.U[rank:]
    return _row_hermite(tail)


def _normalize(normal, offset):
    g = 0
    for v in normal:
        g = math.gcd(g, abs(v))
    if g <= 1:
        return normal, offset
    # integer points only: tighten the offset upward when dividing through
    return tuple(v // g for v in normal), -((-offset) // g)


def _eliminate_last(ineqs, dim):
    """Fourier-Motzkin projection removing the last coordinate."""
    keep, lower, upper = [], [], []
    for normal, offset in ineqs:
        a = normal[dim - 1]
        if a == 0:
            keep.append((normal[: dim - 1], offset))
        elif a > 0:
            lower.append((normal, offset))
        else:
            upper.append((normal, offset))
    out = set()
    for normal, offset in keep:
        out.add(_normalize(normal, offset))
    for ln, lo in lower:
        a = ln[dim - 1]
        for un, uo in upper:
            b = -un[dim - 1]
            combo = tuple(
                b * x + a * y for x, y in zip(ln[: dim - 1], un[: dim - 1])
            )
            out.add(_normalize(combo, b * lo + a * uo))
    return sorted(out), bool(lower), bool(upper)


def _enumerate(ineqs, dim):
    if dim == 0:
        return [()] if all(offset <= 0 for _, offset in ineqs) else []
    projected, has_lower, has_upper = _eliminate_last(ineqs, dim)
    base = _enumerate(projected, dim - 1)
    if not base:
        return []
    if not (has_lower and has_upper):
        raise UnboundedPolytope(f"coordinate {dim} has no finite bounds")
    # base satisfies every inequality free of the last coordinate: the
    # projection keeps each, tightened to the same integer points
    bounding = [(normal, offset) for normal, offset in ineqs if normal[dim - 1]]
    points = []
    for p in base:
        lo = None
        hi = None
        for normal, offset in bounding:
            a = normal[dim - 1]
            # normal is one longer than p, and map stops at the shorter
            rest = offset - sum(map(mul, normal, p))
            if a > 0:
                bound = -((-rest) // a)  # ceil(rest / a)
                lo = bound if lo is None else max(lo, bound)
            else:
                bound = rest // a  # floor
                hi = bound if hi is None else min(hi, bound)
        for v in range(lo, hi + 1):
            points.append(p + (v,))
    return points


def enumerate_lattice_points(poly):
    """All integer points of a bounded LatticePolytope, lexicographically.

    _enumerate emits them in that order already: by induction on the
    dimension, each point of the projection in turn, in lexicographic
    order, extended by its last coordinate ascending.

    An inequality-free system yields no points by convention. Raises
    UnboundedPolytope when a coordinate has no finite bound over a nonempty
    feasible region.
    """
    if not poly.inequalities:
        return []
    for normal, _ in poly.inequalities:
        if len(normal) != poly.dim:
            raise ValueError(
                f"normal {normal} does not match dimension {poly.dim}"
            )
    return _enumerate(list(poly.inequalities), poly.dim)
