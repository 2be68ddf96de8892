"""Shared example rings: three Calabi-Yau fixtures plus a rank-2 charge lattice,
a per-pair table scan that the pair-indexed series are compared against, and
plain Fraction references for the partials, the product kernels and the
unfolding input."""

import random
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod

import pytest

from toricff.polyalg import Poly
from toricff.toricring import build_cayley_ring
from toricff.unfolding import TruncatedSeries

P2_RAYS = ((1, 0), (0, 1), (-1, -1))
P4_RAYS = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (-1, -1, -1, -1),
)
P3_RAYS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))
P5_RAYS = tuple(tuple(int(i == j) for j in range(5)) for i in range(5)) + ((-1,) * 5,)
P1P1_RAYS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def xpoly(r, terms):
    return Poly({exps: Fraction(c) for exps, c in terms.items()})


def fermat(r, power):
    return xpoly(
        r,
        {
            tuple(power if i == j else 0 for i in range(r)): 1
            for j in range(r)
        },
    )


CUBIC = fermat(3, 3)
QUINTIC = fermat(5, 5)
QUADRIC_P2 = fermat(3, 2)
CI_Q1 = fermat(4, 2)
CI_Q2 = xpoly(
    4,
    {
        (2, 0, 0, 0): 1,
        (0, 2, 0, 0): 2,
        (0, 0, 2, 0): 3,
        (0, 0, 0, 2): 4,
    },
)
# bidegree (2,2): (x1^2+x2^2)(x3^2+x4^2) + x1*x2*x3*x4, quasi-smooth
BIDEG22 = xpoly(
    4,
    {
        (2, 0, 2, 0): 1,
        (2, 0, 0, 2): 1,
        (0, 2, 2, 0): 1,
        (0, 2, 0, 2): 1,
        (1, 1, 1, 1): 1,
    },
)
# a Hesse-type cubic whose partials have non-integer coefficients
RATIONAL_HESSE_CUBIC = xpoly(
    3,
    {
        (3, 0, 0): Fraction(1, 2),
        (0, 3, 0): Fraction(2, 3),
        (0, 0, 3): Fraction(5, 7),
        (1, 1, 1): Fraction(3, 4),
    },
)

# the Fermat quartic plus the product of all variables
DWORK_QUARTIC = fermat(4, 4) + Poly.monomial((1, 1, 1, 1))
# the Fermat sextic K3 in P(1,1,1,3): x4 has weight 3, so only x1..x3 move
P1113_RAYS = ((1, 0, 0), (0, 1, 0), (-1, -1, -3), (0, 0, 1))
SEXTIC_K3 = xpoly(
    4, {(6, 0, 0, 0): 1, (0, 6, 0, 0): 1, (0, 0, 6, 0): 1, (0, 0, 0, 2): 1}
)


@pytest.fixture(scope="session")
def cubic_ring():
    return build_cayley_ring(P2_RAYS, [CUBIC])


@pytest.fixture(scope="session")
def quintic_ring():
    return build_cayley_ring(P4_RAYS, [QUINTIC])


@pytest.fixture(scope="session")
def ci22_ring():
    return build_cayley_ring(P3_RAYS, [CI_Q1, CI_Q2])


@pytest.fixture(scope="session")
def p1p1_ring():
    return build_cayley_ring(P1P1_RAYS, [BIDEG22])


@pytest.fixture(scope="session")
def rational_hesse_ring():
    return build_cayley_ring(P2_RAYS, [RATIONAL_HESSE_CUBIC])


@pytest.fixture(scope="session")
def cubic_basis(cubic_ring):
    from toricff.jacobired import jacobian_basis

    return jacobian_basis(cubic_ring)


@pytest.fixture(scope="session")
def ci22_basis(ci22_ring):
    from toricff.jacobired import jacobian_basis

    return jacobian_basis(ci22_ring)


@pytest.fixture(scope="session")
def quintic_basis(quintic_ring):
    from toricff.jacobired import jacobian_basis

    return jacobian_basis(quintic_ring)


@pytest.fixture(scope="session")
def cubic_state4(cubic_ring, cubic_basis):
    from toricff.unfolding import run

    return run(cubic_ring, cubic_basis, 4)


@pytest.fixture(scope="session")
def ci22_state3(ci22_ring, ci22_basis):
    from toricff.unfolding import run

    return run(ci22_ring, ci22_basis, 3)


@pytest.fixture(scope="session")
def p1p1_basis(p1p1_ring):
    from toricff.jacobired import jacobian_basis

    return jacobian_basis(p1p1_ring)


@pytest.fixture(scope="session")
def k3_ring():
    return build_cayley_ring(P3_RAYS, [fermat(4, 4)])


@pytest.fixture(scope="session")
def k3_basis(k3_ring):
    from toricff.jacobired import jacobian_basis

    return jacobian_basis(k3_ring)


@pytest.fixture(scope="session")
def k3_state2(k3_ring, k3_basis):
    from toricff.unfolding import run

    return run(k3_ring, k3_basis, 2)


@pytest.fixture(scope="session")
def k3_state3(k3_ring, k3_basis):
    from toricff.unfolding import run

    return run(k3_ring, k3_basis, 3)


@pytest.fixture(scope="session")
def dwork_ring():
    return build_cayley_ring(P3_RAYS, [DWORK_QUARTIC])


@pytest.fixture(scope="session")
def sextic_k3_ring():
    ring = build_cayley_ring(P1113_RAYS, [SEXTIC_K3])
    assert ring.grading.ray_charges == ((1,), (1,), (1,), (3,))
    return ring


@pytest.fixture(scope="session")
def cy33_ring():
    """A diagonal (3,3) intersection in P5, its ratios a_i/b_i distinct."""
    rng = random.Random("cy33")
    first, second, ratios = [], [], set()
    while len(first) < 6:
        a, b = rng.randint(1, 9), rng.randint(1, 9)
        if Fraction(a, b) not in ratios:
            ratios.add(Fraction(a, b))
            first.append(a)
            second.append(b)
    cubics = [
        xpoly(6, {tuple(3 * (i == j) for j in range(6)): c for i, c in enumerate(cs)})
        for cs in (first, second)
    ]
    return build_cayley_ring(P5_RAYS, cubics)


def pair_scan(table, alpha, beta):
    """{C: (1/C!, entry)} over every key of table that is (alpha, beta) + C as
    multisets, C a sorted tuple; one full scan of the table per pair."""
    out = {}
    for multi, entry in table.items():
        rest = list(multi)
        if alpha not in rest:
            continue
        rest.remove(alpha)
        if beta not in rest:
            continue
        rest.remove(beta)
        key = tuple(rest)
        scale = prod(factorial(key.count(j)) for j in set(key))
        out[key] = (Fraction(1, scale), entry)
    return out


def scanned_structure_series(state, alpha, beta):
    """A_{alpha beta}^rho for every rho, zero series included, by pair_scan."""
    dim = len(state.basis.monomials)
    scan = pair_scan(state.a_table, alpha, beta)
    return tuple(
        TruncatedSeries(
            dim,
            state.order - 2,
            {key: scale * row.get(rho, 0) for key, (scale, row) in scan.items()},
        )
        for rho in range(dim)
    )


def scanned_lambda_series(state, alpha, beta):
    """Lambda_{alpha beta} by pair_scan."""
    scan = pair_scan(state.lam_table, alpha, beta)
    return TruncatedSeries(
        len(state.basis.monomials),
        state.order - 2,
        {key: scale * lam for key, (scale, lam) in scan.items()},
    )


def reference_mul(f, g):
    """Term-by-term product of two Polys in Fraction arithmetic, as
    {exponents: Fraction}; a coefficient that cancels stays, as 0."""
    out = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return out


def reference_partial(f, i):
    """The i-th partial of a Poly in Fraction arithmetic on its terms view,
    as {exponents: Fraction}; empty when the partial is zero."""
    out = {}
    for exps, coeff in f.terms.items():
        if exps[i]:
            out[exps[:i] + (exps[i] - 1,) + exps[i + 1 :]] = exps[i] * coeff
    return out


def reference_q(w, f):
    """Contraction of a SuperElement against the partials of the Poly f in
    Fraction arithmetic (reference_partial), as {(exponents, etas): Fraction};
    cancelled coefficients stay."""
    out = {}
    for (exps, etas), coeff in w.terms.items():
        for pos, i in enumerate(etas):
            for pe, pc in reference_partial(f, i).items():
                grown = tuple(a + b for a, b in zip(exps, pe))
                key = (grown, etas[:pos] + etas[pos + 1 :])
                out[key] = out.get(key, Fraction(0)) + (-1) ** pos * coeff * pc
    return out


def dense_input(state, multi):
    """The reduction input f of a sorted multiset of size >= 2, by the dense
    split walk: every split of the tail and every table entry it names, in
    plain Fraction arithmetic. The state must hold every lower entry."""
    alpha, beta, tail = multi[0], multi[1], multi[2:]
    runs = [(j, tail.count(j)) for j in sorted(set(tail))]
    out = {}

    def add(scale, terms):
        for exps, coeff in terms.items():
            out[exps] = out.get(exps, Fraction(0)) + scale * coeff

    for counts in product(*(range(c + 1) for _, c in runs)):
        a_part = tuple(j for (j, _), a in zip(runs, counts) for _ in range(a))
        b_part = tuple(j for (j, c), a in zip(runs, counts) for _ in range(c - a))
        weight = prod(comb(c, a) for (_, c), a in zip(runs, counts))
        u_a = state.u_table[(alpha,) + a_part]
        add(weight, reference_mul(u_a, state.u_table[(beta,) + b_part]))
        if b_part:
            for rho, value in state.a_table[(alpha, beta) + a_part].items():
                u = state.u_table[tuple(sorted(b_part + (rho,)))]
                add(-weight * value, u.terms)
        if a_part:
            lam = state.lam_table[(alpha, beta) + b_part]
            q = reference_q(lam, state.u_table[a_part])
            if any(etas for _, etas in q):
                raise ValueError(f"odd input term at {multi}")
            add(-weight, {exps: c for (exps, _), c in q.items()})
    return Poly(out)
