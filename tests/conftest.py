"""Shared example rings: three Calabi-Yau fixtures plus a rank-2 charge lattice,
and a per-pair table scan that the pair-indexed series are compared against."""

from fractions import Fraction
from math import factorial, prod

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
