"""Charge gradings of Cox rings and the Cayley ring of a complete intersection.

Rays of a complete simplicial fan determine the class-group grading via the
free cokernel of the ray pairing matrix. The Cayley construction then adjoins
one weight-one variable y_i per hypersurface G_i, graded by minus the charge
of G_i, and carries the potential S = sum y_i G_i of degree (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

from .intlattice import (
    LatticePolytope,
    TorsionClassGroup,
    UnboundedPolytope,
    enumerate_lattice_points,
    free_cokernel_projection,
    smith_normal_form,
)
from .polyalg import Poly, grevlex_key

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
    projection = free_cokernel_projection(A)
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
    s_partials: tuple
    var_charges: tuple
    var_weights: tuple
    c_B: tuple
    names: tuple
    eta_names: tuple
    _fiber_solver: tuple = field(repr=False, default=())
    _fiber_cache: dict = field(repr=False, default_factory=dict)
    _piece_cache: dict = field(repr=False, default_factory=dict)
    # per partial dS_i, the known syzygy leads: jacobired.ideal_piece skips
    # a generator mult * dS_i when one of them divides mult
    _syzygies: dict = field(repr=False, default_factory=dict)
    _charge_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # charge component j of every variable, one row per j
        self._charge_rows = tuple(zip(*self.var_charges))

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
        if poly.is_zero():
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
        s_partials=S.partials(),
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
    """All x-exponent vectors u >= 0 with charge(x^u) = charge."""
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
    rows = tuple(zip(u0, kernel))
    return [tuple([a + sum(map(mul, row, z)) for a, row in rows]) for z in points]


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def enumerate_graded_piece(ring, degree):
    """Monomials of the given (charge, weight), descending grevlex, cached.

    A monomial y^ys x^u of the piece pairs a composition ys of the weight
    with a point u of the x-fiber {u >= 0 : charge(x^u) = c}, c the charge
    minus that of y^ys. Each fiber is enumerated once per ring and kept in
    _fiber_cache by its x-charge, since pieces of different weights and
    the multiplier pieces of ideal_piece share most of their fibers. The
    sorted list is kept in _piece_cache; a repeated call returns the cached
    list object itself.
    """
    charge, weight = key = (tuple(degree[0]), degree[1])
    cached = ring._piece_cache.get(key)
    if cached is not None:
        return cached
    fibers = ring._fiber_cache
    out = []
    if weight >= 0:
        for ys in _compositions(weight, ring.k):
            xcharge = tuple(
                charge[j]
                + sum(ys[i] * ring.betas[i][j] for i in range(ring.k))
                for j in range(ring.charge_rank)
            )
            fiber = fibers.get(xcharge)
            if fiber is None:
                fiber = _x_fiber(ring.grading, ring._fiber_solver, xcharge)
                fibers[xcharge] = fiber
            out.extend(ys + u for u in fiber)
    out.sort(key=grevlex_key, reverse=True)
    ring._piece_cache[key] = out
    return out
