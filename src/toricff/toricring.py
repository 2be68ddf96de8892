"""Charge gradings of Cox rings and the Cayley ring of a complete intersection.

Rays of a complete simplicial fan determine the class-group grading via the
free cokernel of the ray pairing matrix. The Cayley construction then adjoins
one weight-one variable y_i per hypersurface G_i, graded by minus the charge
of G_i, and carries the potential S = sum y_i G_i of degree (0, 1).

A graded piece is sorted by the packed grevlex keys of its monomials
(polyalg.GrevlexPacking), one int each, at the ring's packing. Its fields
are whole bytes, wide enough for the largest exponent of any piece the
ring has enumerated plus a guard bit; a piece that needs more widens it,
and keys cached at the old width are rebuilt on request. An x-fiber is
enumerated once per ring, mapped to exponent vectors and keyed a column at
a time, and kept in key order, so the piece's blocks, one per y-exponent
vector, are sorted runs whose keys are one addition each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import add, mul

from .intlattice import (
    LatticePolytope,
    TorsionClassGroup,
    UnboundedPolytope,
    enumerate_lattice_points,
    free_cokernel_projection,
    smith_normal_form,
)
from .polyalg import GrevlexPacking, Poly

__all__ = [
    "RaysDoNotSpan",
    "GradingInvariantError",
    "TorsionClassGroup",
    "InhomogeneousHypersurface",
    "NotCalabiYau",
    "InvalidInput",
    "ClassGrading",
    "CayleyRing",
    "build_class_grading",
    "build_cayley_ring",
    "is_calabi_yau",
    "enumerate_graded_piece",
    "graded_piece_keys",
]


class RaysDoNotSpan(Exception):
    """The rays fail to span the ambient lattice over the rationals."""


class NotCalabiYau(Exception):
    """The background charge is nonzero."""


class InvalidInput(ValueError):
    """A problem value no run can use, such as a zero hypersurface."""


class GradingInvariantError(RuntimeError):
    """An internal invariant of the charge grading broke: a bug, not bad input."""


class InhomogeneousHypersurface(Exception):
    def __init__(self, index, degree_a, degree_b):
        self.index = index
        self.degree_a = degree_a
        self.degree_b = degree_b
        super().__init__(
            f"hypersurface {index} mixes charges {degree_a} and {degree_b}"
        )


@dataclass(frozen=True)
class ClassGrading:
    rays: tuple
    n: int
    r: int
    rank: int
    projection: tuple  # rank rows of length r, rows of the charge matrix
    ray_charges: tuple  # per ray, a rank-tuple (column of the projection)


def build_class_grading(rays):
    rays = tuple(tuple(int(v) for v in ray) for ray in rays)
    if not rays:
        raise RaysDoNotSpan("no rays given")
    n = len(rays[0])
    if any(len(ray) != n for ray in rays):
        raise ValueError("rays of mixed dimension")
    r = len(rays)
    A = [list(ray) for ray in rays]
    snf = smith_normal_form(A)
    if len(snf.divisors()) < n:
        raise RaysDoNotSpan(f"rays span a rank-{len(snf.divisors())} sublattice of Z^{n}")
    # the fan is complete only if the rays positively span: the dual cone
    # {m : <m, v> >= 0 for every ray v} is {0} exactly when it is bounded
    dual = LatticePolytope(inequalities=tuple((ray, 0) for ray in rays), dim=n)
    try:
        enumerate_lattice_points(dual)
    except UnboundedPolytope:
        raise InvalidInput(
            f"rays do not positively span R^{n}, so the fan is not complete"
        ) from None
    projection = free_cokernel_projection(snf)
    charges = tuple(
        tuple(projection[j][rho] for j in range(r - n)) for rho in range(r)
    )
    return ClassGrading(
        rays=rays, n=n, r=r, rank=r - n, projection=projection, ray_charges=charges
    )


@dataclass
class CayleyRing:
    grading: ClassGrading
    k: int
    r: int
    betas: tuple  # charge of each hypersurface
    S: Poly
    var_charges: tuple
    var_weights: tuple
    c_B: tuple
    names: tuple
    eta_names: tuple
    _fiber_solver: tuple = field(repr=False, default=())
    # x-charge -> x-fiber; (x-charge, bits) -> the x-parts of its keys
    _fiber_cache: dict = field(repr=False, default_factory=dict)
    _fiber_keys: dict = field(repr=False, default_factory=dict)
    # degree -> piece; (degree, bits) -> its keys
    _piece_cache: dict = field(repr=False, default_factory=dict)
    _piece_keys: dict = field(repr=False, default_factory=dict)
    # per partial dS_i, the known syzygy leads: jacobired.ideal_piece skips
    # a generator mult * dS_i when one of them divides mult
    _syzygies: dict = field(repr=False, default_factory=dict)
    _charge_rows: tuple = field(init=False, repr=False, compare=False)
    # packs the monomials of every piece enumerated so far: one width for
    # the ring, so the keys of a multiplier piece add to those of its target
    packing: GrevlexPacking = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # charge component j of every variable, one row per j
        self._charge_rows = tuple(zip(*self.var_charges))
        self.packing = GrevlexPacking(self.nvars, 0)

    def widen(self, top):
        """Widen the ring's packing, if need be, to hold the exponent top."""
        if top > self.packing.limit:
            self.packing = GrevlexPacking(self.nvars, top)

    @property
    def n(self):
        return self.grading.n

    @property
    def charge_rank(self):
        return self.grading.rank

    @property
    def nvars(self):
        return self.k + self.r

    def degree_of_monomial(self, exps):
        """(charge, weight) of the monomial: each component is the sum of the
        exponents times that component of the variables' degrees."""
        return (
            tuple([sum(map(mul, exps, row)) for row in self._charge_rows]),
            sum(map(mul, exps, self.var_weights)),
        )


def build_cayley_ring(rays, hypersurfaces):
    grading = build_class_grading(rays)
    r, k = grading.r, len(hypersurfaces)
    if k == 0:
        raise ValueError("at least one hypersurface is required")
    betas = []
    embedded = []
    for i, g in enumerate(hypersurfaces):
        poly = g if isinstance(g, Poly) else Poly(g)
        if not poly:
            raise InvalidInput(f"hypersurface {i} is zero")
        beta = None
        for exps in poly.nums:
            if len(exps) != r:
                raise ValueError(
                    f"hypersurface {i} has exponent tuples of length {len(exps)}, expected {r}"
                )
            charge = tuple(
                sum(grading.ray_charges[rho][j] * exps[rho] for rho in range(r))
                for j in range(grading.rank)
            )
            if beta is None:
                beta = charge
            elif charge != beta:
                raise InhomogeneousHypersurface(i, beta, charge)
        betas.append(beta)
        embedded.append(
            Poly.from_nums(
                poly.denom, {(0,) * k + e: n for e, n in poly.nums.items()}
            )
        )
    var_charges = tuple(
        tuple(-b for b in betas[i]) for i in range(k)
    ) + tuple(grading.ray_charges)
    var_weights = (1,) * k + (0,) * r
    S = Poly({})
    for i, g in enumerate(embedded):
        y = Poly.monomial(tuple(1 if t == i else 0 for t in range(k)) + (0,) * r)
        S = S + y * g
    nvars = k + r
    c_B = tuple(
        -sum(var_charges[i][j] for i in range(nvars))
        for j in range(grading.rank)
    )
    names = tuple(f"y{i+1}" for i in range(k)) + tuple(
        f"x{rho+1}" for rho in range(r)
    )
    eta_names = tuple(f"eta{i+1}" for i in range(nvars))
    ring = CayleyRing(
        grading=grading,
        k=k,
        r=r,
        betas=tuple(betas),
        S=S,
        var_charges=var_charges,
        var_weights=var_weights,
        c_B=c_B,
        names=names,
        eta_names=eta_names,
    )
    ring._fiber_solver = _make_fiber_solver(grading)
    return ring


def is_calabi_yau(ring):
    return all(c == 0 for c in ring.c_B)


def _make_fiber_solver(grading):
    """SNF data for solving P*u = c over the integers, P the projection."""
    P = [list(row) for row in grading.projection]
    snf = smith_normal_form(P)
    divisors = snf.divisors()
    if any(d != 1 for d in divisors):
        raise GradingInvariantError(
            f"charge projection is not unimodular: divisors {divisors}"
        )
    s = grading.rank
    r = grading.r
    kernel = tuple(
        tuple(snf.V[i][s + j] for j in range(r - s)) for i in range(r)
    )
    return (snf.U, snf.V, s, kernel)


def _x_fiber(grading, solver, charge):
    """All x-exponent vectors u >= 0 with charge(x^u) = charge.

    They are u = u0 + K z over the lattice points z of {z : u0 + K z >= 0},
    K the kernel basis, mapped a column at a time: each coordinate of u is a
    chain of maps over the columns of the points, not a sum per point.
    """
    U, V, s, kernel = solver
    r = grading.r
    w = [sum(U[i][j] * charge[j] for j in range(s)) for i in range(s)]
    u0 = [sum(V[i][t] * w[t] for t in range(s)) for i in range(r)]
    for j in range(s):
        if sum(grading.projection[j][i] * u0[i] for i in range(r)) != charge[j]:
            raise GradingInvariantError(
                f"particular solution {u0} misses charge {tuple(charge)}"
            )
    ndim = r - s
    ineqs = tuple(
        (tuple(kernel[i]), -u0[i]) for i in range(r)
    )
    points = enumerate_lattice_points(LatticePolytope(inequalities=ineqs, dim=ndim))
    columns = tuple(zip(*points))
    return list(
        zip(*(_combine(columns, len(points), row, a) for a, row in zip(u0, kernel)))
    )


def _combine(columns, count, coefficients, start=0):
    """start + sum(c_i * p_i) for each of count points p given by their
    columns, lazily: a chain of maps, one per nonzero coefficient, and no
    sum per point."""
    out = repeat(start, count)
    for column, c in zip(columns, coefficients):
        if c:
            out = map(add, out, map(mul, column, repeat(c)))
    return out


def _fiber(ring, xcharge):
    """The x-fiber of an x-charge in descending grevlex, enumerated once per
    ring; the ring's packing widens to hold its largest exponent."""
    points = ring._fiber_cache.get(xcharge)
    if points is None:
        points = _x_fiber(ring.grading, ring._fiber_solver, xcharge)
        ring.widen(max(map(max, points), default=0))
        keys, points = _key_sorted(list(_x_keys(ring, points, ring.packing)), points)
        ring._fiber_cache[xcharge] = points
        ring._fiber_keys[xcharge, ring.packing.bits] = keys
    return points


def _key_sorted(keys, items):
    """keys ascending, and items, one per key, in the same order: an int
    sort of the indices, cheaper than sorting (key, item) pairs."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [keys[i] for i in order], [items[i] for i in order]


def _x_keys(ring, points, packing):
    """The x-parts of the keys at the packing of x-exponent vectors."""
    return _combine(tuple(zip(*points)), len(points), packing.places[ring.k :])


def _fiber_keys(ring, xcharge, packing):
    """The x-parts of the keys of the x-fiber's monomials, in its order."""
    got = ring._fiber_keys.get((xcharge, packing.bits))
    if got is None:
        got = list(_x_keys(ring, ring._fiber_cache[xcharge], packing))
        ring._fiber_keys[xcharge, packing.bits] = got
    return got


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _blocks(ring, charge, weight):
    """(ys, x-charge) per y-exponent vector ys of the weight whose x-fiber
    is not empty, the x-charge being the charge minus that of y^ys."""
    blocks = []
    if weight >= 0:
        ring.widen(weight)
        for ys in _compositions(weight, ring.k):
            xcharge = tuple(
                charge[j]
                + sum(ys[i] * ring.betas[i][j] for i in range(ring.k))
                for j in range(ring.charge_rank)
            )
            if _fiber(ring, xcharge):
                blocks.append((ys, xcharge))
    return blocks


def _block_keys(ring, blocks, packing):
    """The keys of the monomials y^ys x^u of the blocks, block by block."""
    zeros = (0,) * ring.r
    keys = []
    for ys, xcharge in blocks:
        keys += map(packing.key(ys + zeros).__add__, _fiber_keys(ring, xcharge, packing))
    return keys


def enumerate_graded_piece(ring, degree):
    """Monomials of the given (charge, weight), descending grevlex, cached.

    A monomial y^ys x^u of the piece pairs a composition ys of the weight
    with a point u of the x-fiber {u >= 0 : charge(x^u) = c}, c the charge
    minus that of y^ys. Each fiber is enumerated once per ring, kept in
    descending grevlex in _fiber_cache by its x-charge, since pieces of
    different weights and the multiplier pieces of ideal_piece share most
    of their fibers. The piece is sorted by its packed keys (polyalg.
    GrevlexPacking at the ring's packing): a block of one ys is already in
    order, so the sort merges one run per ys. The sorted list is kept in
    _piece_cache and its keys with graded_piece_keys; a repeated call
    returns the cached list object itself.
    """
    charge, weight = key = (tuple(degree[0]), degree[1])
    cached = ring._piece_cache.get(key)
    if cached is not None:
        return cached
    blocks = _blocks(ring, charge, weight)
    packing = ring.packing
    out = []
    for ys, xcharge in blocks:
        out += map(ys.__add__, ring._fiber_cache[xcharge])
    keys, out = _key_sorted(_block_keys(ring, blocks, packing), out)
    ring._piece_cache[key] = out
    ring._piece_keys[key, packing.bits] = keys
    return out


def graded_piece_keys(ring, degree, packing):
    """The keys at the packing of enumerate_graded_piece(ring, degree), in
    its order, ascending. The packing must hold the piece's exponents: the
    ring's packing does once the piece is enumerated."""
    charge, weight = key = (tuple(degree[0]), degree[1])
    got = ring._piece_keys.get((key, packing.bits))
    if got is None:
        # the ring's packing widened since the piece was enumerated; the
        # order of the keys is the same at every width
        got = sorted(_block_keys(ring, _blocks(ring, charge, weight), packing))
        ring._piece_keys[key, packing.bits] = got
    return got
