"""Order-by-order unfolding: block sums, step results, and series assembly."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import P2_RAYS, fermat

from toricff.jacobired import jacobian_basis
from toricff.polyalg import Poly
from toricff.supercomplex import SuperElement, delta, q_s
from toricff.toricring import NotCalabiYau, build_cayley_ring
from toricff.unfolding import (
    MissingTableEntry,
    TruncatedSeries,
    gamma_partial,
    gamma_series,
    lambda_series,
    partition_sum,
    run,
    structure_index,
    structure_series,
)


def tag_table(subsets):
    """u table mapping each multiset to a distinct tag monomial."""
    table = {}
    for pos, key in enumerate(subsets):
        exps = [0] * len(subsets)
        exps[pos] = 1
        table[tuple(key)] = Poly.monomial(tuple(exps))
    return table


def test_partition_sum_three_blocks():
    subsets = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    state = SimpleNamespace(u_table=tag_table(subsets))
    u = state.u_table
    got = partition_sum(state, (0, 1, 2), 1)
    expect = (
        u[(0,)] * u[(1, 2)] + u[(1,)] * u[(0, 2)] + u[(2,)] * u[(0, 1)]
    )
    assert got == expect
    assert partition_sum(state, (0, 1, 2), 2) == u[(0, 1, 2)]
    assert partition_sum(state, (0, 1, 2), 0) == u[(0,)] * u[(1,)] * u[(2,)]


def test_partition_sum_four_into_two():
    subsets = []
    for a in range(4):
        subsets.append((a,))
    for a in range(4):
        for b in range(a + 1, 4):
            subsets.append((a, b))
    for a in range(4):
        for b in range(a + 1, 4):
            for c in range(b + 1, 4):
                subsets.append((a, b, c))
    state = SimpleNamespace(u_table=tag_table(subsets))
    u = state.u_table
    got = partition_sum(state, (0, 1, 2, 3), 2)
    expect = (
        u[(0, 1)] * u[(2, 3)]
        + u[(0, 2)] * u[(1, 3)]
        + u[(0, 3)] * u[(1, 2)]
        + u[(0,)] * u[(1, 2, 3)]
        + u[(1,)] * u[(0, 2, 3)]
        + u[(2,)] * u[(0, 1, 3)]
        + u[(3,)] * u[(0, 1, 2)]
    )
    assert got == expect


def test_partition_sum_repeated_indices():
    u1 = Poly.monomial((1, 0))
    u11 = Poly.monomial((0, 1))
    state = SimpleNamespace(u_table={(1,): u1, (1, 1): u11})
    assert partition_sum(state, (1, 1), 0) == u1 * u1
    assert partition_sum(state, (1, 1), 1) == u11


def test_partition_sum_missing_entry():
    state = SimpleNamespace(u_table={(0,): Poly.monomial((1,))})
    with pytest.raises(MissingTableEntry):
        partition_sum(state, (0, 0), 1)


def test_run_order_one(cubic_ring, cubic_basis):
    state = run(cubic_ring, cubic_basis, 1)
    assert state.order == 1
    assert set(state.u_table) == {(0,), (1,)}
    assert state.u_table[(0,)] == Poly.constant(4, 1)
    assert state.u_table[(1,)] == Poly.monomial((1, 1, 1, 1))
    assert state.a_table == {}
    assert state.lam_table == {}
    assert state.t_weights == (1, 0)


def test_step_pairs(cubic_ring, cubic_basis):
    state = run(cubic_ring, cubic_basis, 2)
    assert state.a_table[(0, 0)] == (1, 0)
    assert state.lam_table[(0, 0)] == SuperElement({})
    assert state.u_table[(0, 0)] == Poly({})
    assert state.a_table[(0, 1)] == (0, 1)
    assert state.u_table[(0, 1)] == Poly({})
    assert state.a_table[(1, 1)] == (0, 0)
    lam = state.lam_table[(1, 1)]
    assert not lam.is_zero()
    assert q_s(lam, cubic_ring).to_poly() == Poly.monomial((2, 2, 2, 2))
    assert state.u_table[(1, 1)] == delta(lam).to_poly()


def test_unit_direction_tables_vanish(cubic_ring, cubic_basis):
    state = run(cubic_ring, cubic_basis, 3, debug=True)
    for multi in ((0, 0, 0), (0, 0, 1), (0, 1, 1)):
        assert state.inputs[multi] == Poly({})
        assert state.u_table[multi] == Poly({})
        assert state.a_table[multi] == (0, 0)
        assert state.lam_table[multi] == SuperElement({})
    assert state.inputs[(1, 1)] == Poly.monomial((2, 2, 2, 2))


def test_table_counts_and_determinism(cubic_ring, cubic_basis):
    first = run(cubic_ring, cubic_basis, 3)
    second = run(cubic_ring, cubic_basis, 3)
    assert len(first.u_table) == 2 + 3 + 4
    assert len(first.a_table) == 3 + 4
    assert first.u_table == second.u_table
    assert first.a_table == second.a_table
    assert first.lam_table == second.lam_table


def test_weight_discipline(cubic_state4):
    state = cubic_state4
    ring = state.ring
    for multi, u in state.u_table.items():
        target = 1 - sum(state.t_weights[j] for j in multi)
        for exps in u.terms:
            charge, weight = ring.degree_of_monomial(exps)
            assert charge == (0,)
            assert weight == target


def test_run_rejects_non_calabi_yau():
    ring = build_cayley_ring(P2_RAYS, [fermat(3, 4)])
    basis = jacobian_basis(ring, allow_non_cy=True)
    with pytest.raises(NotCalabiYau):
        run(ring, basis, 2)


def test_gamma_series_pins(cubic_state4):
    series = gamma_series(cubic_state4)
    assert series.order == 4
    assert series.coefficient((1, 0)) == Poly.constant(4, 1)
    assert series.coefficient((1, 1)) == Poly({})
    u11 = cubic_state4.u_table[(1, 1)]
    assert series.coefficient((0, 2)) == Fraction(1, 2) * u11
    u1111 = cubic_state4.u_table[(1, 1, 1, 1)]
    assert series.coefficient((0, 4)) == Fraction(1, 24) * u1111
    with pytest.raises(ValueError):
        series.coefficient((0, 5))


def test_gamma_partial_matches_series(cubic_state4):
    series = gamma_series(cubic_state4)
    for alpha in (0, 1):
        partial = gamma_partial(cubic_state4, alpha)
        assert partial.order == 3
        shifted = series.partial(alpha)
        assert partial.nonzero_items() == shifted.nonzero_items()


def test_structure_series_pins(cubic_state4):
    zero = (0, 0)
    unit = structure_series(cubic_state4, 0, 0)
    assert unit[0].coefficient(zero) == 1
    assert unit[1].coefficient(zero) == 0
    assert unit[0].order == 2
    mixed = structure_series(cubic_state4, 0, 1)
    assert mixed[0].nonzero_items() == ()
    assert mixed[1].nonzero_items() == (((0, 0), Fraction(1)),)
    heavy = structure_series(cubic_state4, 1, 1)
    for rho in (0, 1):
        assert heavy[rho].coefficient(zero) == 0


def test_structure_index_matches_series(cubic_state4, k3_state3):
    for state in (cubic_state4, k3_state3):
        dim = len(state.basis.monomials)
        index = structure_index(state)
        for alpha in range(dim):
            for beta in range(dim):
                row = index.get((alpha, beta), {})
                dense = structure_series(state, alpha, beta)
                for rho in range(dim):
                    if rho in row:
                        assert row[rho].nonzero_items()
                        assert row[rho].order == dense[rho].order
                        got = row[rho].nonzero_items()
                    else:
                        got = ()
                    assert got == dense[rho].nonzero_items()
    # only 60 of the 21^3 K3 series are nonzero
    assert sum(map(len, structure_index(k3_state3).values())) == 60


def test_lambda_series_matches_table(cubic_state4):
    lam = lambda_series(cubic_state4, 1, 1)
    assert lam.order == 2
    assert lam.coefficient((0, 0)) == cubic_state4.lam_table[(1, 1)]
    assert lam.coefficient((0, 1)) == cubic_state4.lam_table[(1, 1, 1)]
    half = Fraction(1, 2)
    assert lam.coefficient((0, 2)) == half * cubic_state4.lam_table[(1, 1, 1, 1)]


def test_truncated_series_arithmetic():
    f = TruncatedSeries(
        1, 2, {(0,): Fraction(1), (1,): Fraction(2), (2,): Fraction(3)}, Fraction(0)
    )
    g = TruncatedSeries(1, 2, {(1,): Fraction(1)}, Fraction(0))
    prod = f * g
    assert prod.order == 2
    assert prod.coefficient((1,)) == 1
    assert prod.coefficient((2,)) == 2
    assert (f + g).coefficient((1,)) == 3
    assert (f - g).coefficient((1,)) == 1
    d = f.partial(0)
    assert d.order == 1
    assert d.coefficient((0,)) == 2
    assert d.coefficient((1,)) == 6


def test_ci22_state_smoke(ci22_state3):
    state = ci22_state3
    assert state.order == 3
    assert state.t_weights == (1, 0)
    assert state.a_table[(0, 0)] == (1, 0)
    assert state.a_table[(0, 1)] == (0, 1)
    assert len(state.u_table) == 2 + 3 + 4
