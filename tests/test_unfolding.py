"""Order-by-order unfolding: step results and series assembly."""

import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from conftest import (
    P2_RAYS,
    dense_input,
    fermat,
    scanned_lambda_series,
    scanned_structure_series,
)

from toricff.cli import cmd_unfold, ingest_report, parse_problem
from toricff.jacobired import jacobian_basis, reduce_with_witness
from toricff.polyalg import LinearSum, Poly
from toricff.supercomplex import SuperElement, delta, mu, q_s
from toricff.toricring import NotCalabiYau, build_cayley_ring
from toricff.unfolding import (
    TABLES,
    MissingTableEntry,
    TruncatedSeries,
    _assemble_input,
    gamma_partial,
    gamma_series,
    lambda_series,
    run,
    step,
    structure_series,
)


@pytest.mark.parametrize(
    "table, multi",
    [
        ("u_table", (1, 1)),
        ("a_table", (1, 1)),
        ("lam_table", (1, 1)),
        ("u_table", (1,)),
    ],
)
def test_step_reports_a_missing_lower_entry(cubic_ring, cubic_basis, table, multi):
    # (1, 1, 1) reads u_1 and u_(1,1), the zero a row a_(1,1) = {} and
    # lambda_(1,1): a missing entry is not read as zero, and nothing is stored
    state = run(cubic_ring, cubic_basis, 2)
    del getattr(state, table)[multi]
    before = {name: dict(state.table(name)) for name in TABLES}
    label = {"u_table": "u", "a_table": "a", "lam_table": "lambda"}[table]
    shown = re.escape(f"{label} table lacks {multi}")
    with pytest.raises(MissingTableEntry, match=shown):
        step(state, (1, 1, 1))
    assert {name: state.table(name) for name in before} == before


def test_step_reports_an_unsettled_lower_size(cubic_ring, cubic_basis, cubic_state4):
    # no multiset of size 3 is settled at order 2, and (1, 1, 1, 1) reads
    # the u, a and lambda entries of (1, 1, 1)
    with pytest.raises(MissingTableEntry, match=r"u table lacks \(1, 1, 1\)"):
        step(run(cubic_ring, cubic_basis, 2), (1, 1, 1, 1))
    state = run(cubic_ring, cubic_basis, 3)
    for table in ("u_table", "a_table", "lam_table"):
        kept = {k: v for k, v in getattr(state, table).items() if k != (1, 1, 1)}
        with pytest.raises(MissingTableEntry, match=r"\(1, 1, 1\)"):
            step(replace(state, **{table: kept}), (1, 1, 1, 1))
    step(state, (1, 1, 1, 1))
    for name in ("u", "a", "lambda"):
        assert state.table(name)[(1, 1, 1, 1)] == cubic_state4.table(name)[(1, 1, 1, 1)]
    # an entry settled again and then lost is found missing by the next read
    step(state, (1, 1, 1))
    del state.u_table[(1, 1, 1)]
    with pytest.raises(MissingTableEntry, match=r"\(1, 1, 1\)"):
        step(state, (1, 1, 1, 1))


@pytest.mark.parametrize("stray", [(-1, 7), (0, -1)], ids=["outside", "negative"])
@pytest.mark.parametrize(
    "multi, missing", [((0, 1), (1,)), ((1, 1, 1), (1, 1))], ids=["unit", "generic"]
)
def test_step_reports_a_missing_entry_beside_a_stray_key(
    cubic_ring, cubic_basis, stray, multi, missing
):
    # a stray key of the size of the missing one must not stand in for it:
    # the unit pair (0, 1) reads u_1 as its input, and (1, 1, 1) reads u_(1,1);
    # the stray key is the missing one with one direction set to 7 or -1
    at, direction = stray
    key = list(missing)
    key[at] = direction
    base = run(cubic_ring, cubic_basis, 2)
    u_table = {k: v for k, v in base.u_table.items() if k != missing}
    u_table[tuple(key)] = base.u_table[missing]
    state = replace(
        base,
        u_table=u_table,
        a_table=dict(base.a_table),
        lam_table=dict(base.lam_table),
    )
    before = {name: dict(state.table(name)) for name in ("u", "a", "lambda")}
    with pytest.raises(MissingTableEntry, match=re.escape(f"u table lacks {missing}")):
        step(state, multi)
    assert {name: state.table(name) for name in before} == before


def test_step_reports_an_entry_swapped_for_a_stray_key_after_its_check(
    cubic_ring, cubic_basis
):
    # the swap keeps every table's length; the unit-led (0, 1, 1) reads no
    # entry and is settled, and the read of (1, 1) by (1, 1, 1) finds it missing
    state = run(cubic_ring, cubic_basis, 2)
    step(state, (0, 0, 0))
    state.u_table[(1, 7)] = state.u_table.pop((1, 1))
    step(state, (0, 1, 1))
    assert (0, 1, 1) in state.u_table
    before = {name: dict(state.table(name)) for name in ("u", "a", "lambda")}
    with pytest.raises(MissingTableEntry, match=r"u table lacks \(1, 1\)"):
        step(state, (1, 1, 1))
    assert {name: state.table(name) for name in before} == before


# (1, 19, 19) on the Fermat K3 reads u_1, u_19, u_(1,19) and u_(19,19) in its
# u*u sum, the row a_(1,19) = {20: 1} and then u_(19,20) in its a*u sum, and
# lambda_(1,19) in its Q sum; the unit-led (0, 1, 19) reads no entry
K3_READS = {
    (0, 1, 19): (),
    (1, 19, 19): (
        ("u", (1,)),
        ("u", (19,)),
        ("u", (1, 19)),
        ("u", (19, 19)),
        ("u", (19, 20)),
        ("a", (1, 19)),
        ("lambda", (1, 19)),
    ),
}


@pytest.mark.parametrize("multi", list(K3_READS), ids=["unit", "generic"])
def test_step_entries_depend_only_on_what_it_reads(k3_ring, k3_basis, k3_state3, multi):
    # every entry the step does not read is deleted: it stores the entries of
    # a full run all the same, and lacking any one entry it reads, it raises
    reads = K3_READS[multi]
    state = run(k3_ring, k3_basis, 2)
    for name in TABLES:
        table = state.table(name)
        for key in set(table) - {key for read, key in reads if read == name}:
            del table[key]
    for name, key in reads:
        kept = {k: v for k, v in state.table(name).items() if k != key}
        lacking = replace(state, **{TABLES[name][0]: kept})
        shown = re.escape(f"{name} table lacks {key}")
        with pytest.raises(MissingTableEntry, match=shown):
            step(lacking, multi)
        assert all(multi not in lacking.table(name) for name in TABLES)
    step(state, multi)
    for name in TABLES:
        assert state.table(name)[multi] == k3_state3.table(name)[multi]


@pytest.mark.parametrize(
    "ring, basis, order",
    [
        ("cubic_ring", "cubic_basis", 8),
        ("p1p1_ring", "p1p1_basis", 5),
        ("k3_ring", "k3_basis", 3),
        ("ci22_ring", "ci22_basis", 12),
    ],
    ids=["cubic", "p1p1", "k3", "ci22"],
)
def test_inputs_match_dense_split_walk(request, ring, basis, order):
    state = run(
        request.getfixturevalue(ring), request.getfixturevalue(basis), order, debug=True
    )
    dim = len(state.basis.monomials)
    expected = {
        multi
        for size in range(2, order + 1)
        for multi in combinations_with_replacement(range(dim), size)
    }
    assert set(state.inputs) == expected
    for multi, f in state.inputs.items():
        assert f == dense_input(state, multi), multi


def test_step_clears_an_entry_replaced_in_place(p1p1_ring, p1p1_basis):
    # an entry replaced in place must be read as it now stands: step reads
    # every entry, in its int form, straight from its table and keeps no copy
    base = run(p1p1_ring, p1p1_basis, 3)
    state = replace(
        base,
        u_table=dict(base.u_table),
        a_table=dict(base.a_table),
        lam_table=dict(base.lam_table),
        inputs={},
    )
    quartics = list(combinations_with_replacement(range(3), 4))
    for multi in quartics:
        step(state, multi)
    before = dict(state.inputs)
    for table, key, scale in (
        (state.u_table, (1, 2), Fraction(-3, 7)),
        (state.u_table, (1, 1, 2), Fraction(5, 2)),
        (state.lam_table, (1, 2), Fraction(2, 3)),
    ):
        assert table[key]
        table[key] = scale * table[key]
    for multi in quartics:
        step(state, multi)
        assert state.inputs[multi] == dense_input(state, multi), multi
    assert sum(state.inputs[m] != before[m] for m in quartics) > 1


def test_input_reads_entries_turned_zero_or_nonzero_in_place(
    p1p1_ring, p1p1_basis
):
    # a zero a row made nonzero and a nonzero u entry made zero, in place;
    # step would record the input and then raise, since the new a row breaks
    # the weight rule, so the input is assembled directly
    state = run(p1p1_ring, p1p1_basis, 3)
    assert not state.a_table[(1, 1)] and state.u_table[(1, 1)]
    state.a_table[(1, 1)] = {1: Fraction(1)}
    state.u_table[(1, 1)] = Poly({})
    unit = state.basis.index_of[(0,) * state.ring.nvars]
    for multi in combinations_with_replacement(range(3), 4):
        if multi[0] != unit:
            assert _assemble_input(state, multi) == dense_input(state, multi), multi


@pytest.mark.parametrize(
    "multi, shown",
    [((1, -1), r"\(-1, 1\)"), ((0, 5), r"\(0, 5\)"), ((1, 1, 7), r"\(1, 1, 7\)")],
    ids=["negative", "pair", "triple"],
)
def test_step_rejects_a_direction_outside_the_basis(
    cubic_ring, cubic_basis, multi, shown
):
    state = run(cubic_ring, cubic_basis, 2, debug=True)
    tables = [dict(state.table(name)) for name in ("u", "a", "lambda")]
    inputs = dict(state.inputs)
    with pytest.raises(ValueError, match=shown + " has a direction outside"):
        step(state, multi)
    assert [state.table(name) for name in ("u", "a", "lambda")] == tables
    assert state.inputs == inputs


P1P1_PROBLEM = """\
rays = (1,0) (-1,0) (0,1) (0,-1)
hypersurface = 1 (2,0,2,0) + 1 (2,0,0,2) + 1 (0,2,2,0) + 1 (0,2,0,2) + 1 (1,1,1,1)
order = 3
"""

CI22_PROBLEM = """\
rays = (1,0,0) (0,1,0) (0,0,1) (-1,-1,-1)
hypersurface = 1 (2,0,0,0) + 1 (0,2,0,0) + 1 (0,0,2,0) + 1 (0,0,0,2)
hypersurface = 1 (2,0,0,0) + 2 (0,2,0,0) + 3 (0,0,2,0) + 4 (0,0,0,2)
order = 3
"""


@pytest.mark.parametrize("text", [P1P1_PROBLEM, CI22_PROBLEM], ids=["p1p1", "ci22"])
def test_read_back_state_steps_on_like_run(text):
    _, report = cmd_unfold(parse_problem(text))
    state = ingest_report(report)
    dim = len(state.basis.monomials)
    for multi in combinations_with_replacement(range(dim), 4):
        step(state, multi)
    fresh = run(state.ring, state.basis, 4)
    assert state.u_table == fresh.u_table
    assert state.a_table == fresh.a_table
    assert state.lam_table == fresh.lam_table


def test_run_order_one(cubic_ring, cubic_basis):
    state = run(cubic_ring, cubic_basis, 1)
    assert state.order == 1
    assert set(state.u_table) == {(0,), (1,)}
    assert state.u_table[(0,)] == Poly.monomial((0,) * 4)
    assert state.u_table[(1,)] == Poly.monomial((1, 1, 1, 1))
    assert state.a_table == {}
    assert state.lam_table == {}
    assert state.t_weights == (1, 0)


def test_step_pairs(cubic_ring, cubic_basis):
    state = run(cubic_ring, cubic_basis, 2)
    assert state.a_table[(0, 0)] == {0: 1}
    assert state.lam_table[(0, 0)] == SuperElement({})
    assert state.u_table[(0, 0)] == Poly({})
    assert state.a_table[(0, 1)] == {1: 1}
    assert state.u_table[(0, 1)] == Poly({})
    assert state.a_table[(1, 1)] == {}
    lam = state.lam_table[(1, 1)]
    assert lam
    assert q_s(lam, cubic_ring).to_poly() == Poly.monomial((2, 2, 2, 2))
    assert state.u_table[(1, 1)] == delta(lam).to_poly()


def test_unit_direction_tables_vanish(cubic_ring, cubic_basis):
    state = run(cubic_ring, cubic_basis, 3, debug=True)
    for multi in ((0, 0, 0), (0, 0, 1), (0, 1, 1)):
        assert state.inputs[multi] == Poly({})
        assert state.u_table[multi] == Poly({})
        assert state.a_table[multi] == {}
        assert state.lam_table[multi] == SuperElement({})
    assert state.inputs[(1, 1)] == Poly.monomial((2, 2, 2, 2))


def test_unit_led_entries_share_one_zero_element(ci22_ring, ci22_basis):
    # every unit-led lambda and u is one shared zero element, but each a
    # row is a dict of its own, which changing in place leaves the others
    state = run(ci22_ring, ci22_basis, 5)
    led = [multi for multi in state.a_table if multi[0] == 0]
    larger = [multi for multi in led if len(multi) >= 3]
    assert larger
    for table in (state.lam_table, state.u_table):
        assert not table[larger[0]]
        assert all(table[multi] is table[larger[0]] for multi in led)
    assert len({id(state.a_table[multi]) for multi in led}) == len(led)
    state.a_table[larger[0]][1] = Fraction(1)
    assert all(state.a_table[multi] == {} for multi in larger[1:])


@pytest.mark.parametrize(
    "ring, basis, order",
    [
        ("k3_ring", "k3_basis", 3),
        ("p1p1_ring", "p1p1_basis", 4),
        ("ci22_ring", "ci22_basis", 12),
    ],
    ids=["k3", "p1p1", "ci22"],
)
def test_unit_direction_closed_form_matches_generic_step(request, ring, basis, order):
    # step settles a multiset led by the unit direction in closed form; the
    # dense input and its reduction, on the same lower tables, agree
    ring, basis = request.getfixturevalue(ring), request.getfixturevalue(basis)
    state = run(ring, basis, order, debug=True)
    assert basis.index_of[(0,) * ring.nvars] == 0
    led = [multi for multi in state.a_table if multi[0] == 0]
    assert len(led) == sum(
        len(list(combinations_with_replacement(range(len(basis.monomials)), k - 1)))
        for k in range(2, order + 1)
    )
    for multi in led:
        f = dense_input(state, multi)
        assert state.inputs[multi] == f, multi
        reduced = reduce_with_witness(basis, f)
        assert state.a_table[multi] == reduced.coefficients, multi
        assert state.lam_table[multi] == reduced.witness, multi
        assert state.u_table[multi] == delta(reduced.witness).to_poly(), multi


def _direction_images(ring, basis, moved=None):
    """For every non-identity permutation of the x variables in moved (all
    of them by default), the permutation of the directions it induces
    through basis.index_of."""
    k, index_of = ring.k, basis.index_of
    moved = tuple(range(ring.r)) if moved is None else moved
    images = []
    for perm in permutations(moved):
        if perm == moved:
            continue
        source = list(range(ring.r))
        for j, p in zip(moved, perm):
            source[j] = p
        images.append(
            tuple(
                index_of[m[:k] + tuple(m[k + p] for p in source)]
                for m in basis.monomials
            )
        )
    return images


def _equivariance_break(a_table, images):
    """The first (multiset, image) whose a row, carried by the direction
    permutation image, differs from the row of its image; None if none does."""
    for image in images:
        for multi, row in a_table.items():
            moved = tuple(sorted(image[j] for j in multi))
            if a_table[moved] != {image[rho]: v for rho, v in row.items()}:
                return multi, image
    return None


def test_a_table_is_equivariant_under_x_permutations(
    k3_state3, cubic_ring, cubic_basis, sextic_k3_ring
):
    # a Fermat potential is invariant under permuting its x variables of one
    # weight, and so is its basis; a does not depend on the witnesses, so it
    # follows
    cubic_state6 = run(cubic_ring, cubic_basis, 6)
    sextic_state2 = run(sextic_k3_ring, jacobian_basis(sextic_k3_ring), 2)
    for state, moved, count, moving in (
        (k3_state3, None, 23, 23),
        (cubic_state6, None, 5, 0),  # the cubic's basis is fixed by all
        (sextic_state2, (0, 1, 2), 5, 5),
    ):
        images = _direction_images(state.ring, state.basis, moved)
        assert len(images) == count
        identity = tuple(range(len(state.basis.monomials)))
        assert sum(image != identity for image in images) == moving
        assert _equivariance_break(state.a_table, images) is None
        if not moving:
            continue
        # negative control: one entry changed in a row whose orbit has more
        # than one element breaks it
        multi = next(
            multi
            for multi, row in sorted(state.a_table.items())
            if row
            and len({tuple(sorted(image[j] for j in multi)) for image in images}) > 1
        )
        corrupted = dict(state.a_table)
        row = dict(corrupted[multi])
        row[min(row)] += 1
        corrupted[multi] = row
        assert _equivariance_break(corrupted, images) is not None


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
    assert series.coefficients[(0,)] == Poly.monomial((0,) * 4)
    assert (0, 1) not in series.coefficients
    for multi, scale in (((1, 1), 2), ((1, 1, 1), 6), ((1, 1, 1, 1), 24)):
        got = series.coefficients.get(multi, Poly({}))
        assert got == Fraction(1, scale) * cubic_state4.u_table[multi]


def test_elements_are_falsy_exactly_when_zero(cubic_ring):
    """Every kernel's result is falsy exactly when it stores no numerator, and
    seeded inputs reach both outcomes of each kernel. A series keeps exactly
    its truthy coefficients: a zero Poly, SuperElement, Fraction or int is
    absent, in the constructor and in every series the methods build."""
    rng = random.Random(30)
    nv = cubic_ring.nvars

    def super_element():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(nv))
            etas = tuple(sorted(rng.sample(range(nv), rng.randint(0, 2))))
            terms[exps, etas] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        return SuperElement(terms)

    seen = set()
    for _ in range(80):
        x = super_element()
        y = rng.choice((x, -x, super_element(), super_element()))
        even = [Poly({e: c for (e, t), c in w.terms.items() if not t}) for w in (x, y)]
        for cls, (a, b) in ((SuperElement, (x, y)), (Poly, even)):
            # LinearSum sums Polys; the scales are drawn for both classes
            scales = rng.choice((1, Fraction(1, 2))), rng.choice((-1, Fraction(-1, 2)))
            results = {
                "sum": a + b,
                "difference": a - b,
                "scalar product": a * rng.choice((0, 3, Fraction(-2, 5))),
                "element product": a * b,
            }
            if cls is Poly:
                total = LinearSum()
                total.add(scales[0], a)
                total.add(scales[1], b)
                results["LinearSum.element"] = total.element()
            else:
                results.update(delta=delta(a), q_s=q_s(a, cubic_ring), mu=mu(a))
            for kernel, got in results.items():
                assert bool(got) is (got.nums != {}), (kernel, got)
                assert bool(got) is any(got.terms.values()), (kernel, got)
                seen.add((cls.__name__, kernel, bool(got)))
    shared = {"sum", "difference", "scalar product", "element product"}
    kernels = {
        "Poly": shared | {"LinearSum.element"},
        "SuperElement": shared | {"delta", "q_s", "mu"},
    }
    assert seen == {
        (cls, kernel, outcome)
        for cls, names in kernels.items()
        for kernel in names
        for outcome in (False, True)
    }

    unit = (0,) * nv
    one_poly = Poly.monomial(unit)
    one_super = SuperElement({(unit, (0,)): Fraction(1)})
    series = TruncatedSeries(
        2,
        3,
        {
            (): Poly({}),
            (0,): SuperElement({}),
            (1,): Fraction(0),
            (0, 0): 0,
            (0, 1): one_poly,
            (1, 1): one_super,
            (0, 0, 0): Fraction(1, 2),
            (0, 0, 1): 3,
        },
    )
    assert series.coefficients == {
        (0, 1): one_poly,
        (1, 1): one_super,
        (0, 0, 0): Fraction(1, 2),
        (0, 0, 1): 3,
    }
    assert series.truncate(2).coefficients == {(0, 1): one_poly, (1, 1): one_super}
    assert series.partial(1).coefficients == {
        (0,): one_poly,
        (1,): 2 * one_super,
        (0, 0): 3,
    }


def test_gamma_partial_matches_series(cubic_state4):
    series = gamma_series(cubic_state4)
    partials = gamma_partial(series)
    assert len(partials) == 2
    for alpha, partial in enumerate(partials):
        assert partial.order == 3
        shifted = series.partial(alpha)
        assert partial.coefficients == shifted.coefficients


def test_structure_series_pins(cubic_state4):
    zero = ()
    index = structure_series(cubic_state4)
    unit = index[(0, 0)]
    assert unit[0].coefficients[zero] == 1
    assert 1 not in unit
    assert unit[0].order == 2
    mixed = index[(0, 1)]
    assert 0 not in mixed
    assert mixed[1].coefficients == {(): Fraction(1)}
    # A_11 vanishes on the cubic
    assert (1, 1) not in index


@pytest.fixture(scope="module")
def pair_states(cubic_state4, k3_state3, ci22_state3, p1p1_ring, p1p1_basis):
    return (cubic_state4, k3_state3, ci22_state3, run(p1p1_ring, p1p1_basis, 4))


def test_a_rows_store_only_nonzero_values(pair_states):
    for state in pair_states:
        dim = len(state.basis.monomials)
        for row in state.a_table.values():
            assert type(row) is dict
            assert all(rho in range(dim) and value != 0 for rho, value in row.items())


def test_structure_series_matches_pair_scan(pair_states, cubic_state4, k3_state3):
    # after the pair (1, 1) the remainder of (1, 1, 1, 1) is (1, 1), so C! = 2;
    # no entry of the fixtures has a nonzero value at a remainder with C! > 1
    scaled = replace(
        cubic_state4,
        a_table={**cubic_state4.a_table, (1, 1, 1, 1): {0: Fraction(1)}},
    )
    for state in pair_states + (scaled,):
        dim = len(state.basis.monomials)
        index = structure_series(state)
        pairs = {(a, b) for a in range(dim) for b in range(dim)}
        assert set(index) <= pairs
        for alpha, beta in sorted(pairs):
            row = index.get((alpha, beta), {})
            dense = scanned_structure_series(state, alpha, beta)
            assert set(row) <= set(range(dim))
            for rho in range(dim):
                if rho in row:
                    assert row[rho].coefficients
                    assert row[rho].order == dense[rho].order
                    got = row[rho].coefficients
                else:
                    got = {}
                assert got == dense[rho].coefficients
    # only 60 of the 21^3 K3 series are nonzero
    assert sum(map(len, structure_series(k3_state3).values())) == 60


def test_structure_series_is_symmetric_and_potential(k3_state3, pair_states):
    """The pair index holds (alpha, beta) exactly when it holds (beta, alpha),
    with equal series, and d_gamma A_{alpha beta}^sigma equals
    d_alpha A_{gamma beta}^sigma: the commutativity and potentiality
    identities that check_flat_f_axioms counts without expanding. Every
    structure series of the two runs is constant, so each run is also
    checked with seeded entries of full length added to its a table: the
    identities hold for any table."""
    rng = random.Random("pair-symmetry")
    states = []
    for state in (k3_state3, pair_states[-1]):  # K3 order 3, p1p1 order 4
        dim = len(state.basis.monomials)
        extra = {
            tuple(sorted(rng.randrange(dim) for _ in range(state.order))): {
                rng.randrange(dim): Fraction(rng.randint(1, 9), rng.randint(1, 3))
            }
            for _ in range(8)
        }
        states += [state, replace(state, a_table={**state.a_table, **extra})]
    derivatives = 0
    for state in states:
        dim = len(state.basis.monomials)
        index = structure_series(state)
        assert any(alpha != beta for alpha, beta in index)
        for (alpha, beta), row in index.items():
            mirror = index.get((beta, alpha))
            assert mirror is not None and mirror.keys() == row.keys()
            for sigma, series in row.items():
                assert mirror[sigma].order == series.order
                assert mirror[sigma].coefficients == series.coefficients
        zero = TruncatedSeries(dim, state.order - 3, {})
        for (alpha, beta), row in index.items():
            for sigma, series in row.items():
                for gamma in range(dim):
                    left = series.partial(gamma)
                    other = index.get((gamma, beta), {}).get(sigma)
                    right = zero if other is None else other.partial(alpha)
                    assert left.order == right.order
                    assert left.coefficients == right.coefficients
                    derivatives += bool(left.coefficients) and gamma != alpha
    assert derivatives  # some identities have two nonzero sides


def test_lambda_series_matches_table(cubic_state4, pair_states):
    lam = lambda_series(cubic_state4)[(1, 1)]
    assert lam.order == 2
    for multi, scale in (((1, 1), 1), ((1, 1, 1), 1), ((1, 1, 1, 1), 2)):
        got = lam.coefficients.get(multi[2:], SuperElement({}))
        assert got == Fraction(1, scale) * cubic_state4.lam_table[multi]
    for state in pair_states:
        dim = len(state.basis.monomials)
        witnesses = lambda_series(state)
        pairs = {(a, b) for a in range(dim) for b in range(dim)}
        assert set(witnesses) <= pairs
        # every size-2 entry has scale 1, so the series keeps the entry itself
        for multi, lam in state.lam_table.items():
            if lam and len(multi) == 2:
                alpha, beta = multi
                assert witnesses[(alpha, beta)].coefficients[()] is lam
                assert witnesses[(beta, alpha)].coefficients[()] is lam
        for alpha, beta in sorted(pairs):
            dense = scanned_lambda_series(state, alpha, beta)
            got = witnesses.get((alpha, beta))
            if got is None:
                assert dense.coefficients == {}
            else:
                assert got.coefficients
                assert got.order == dense.order
                assert got.coefficients == dense.coefficients


def test_truncated_series_arithmetic():
    f = TruncatedSeries(1, 2, {(): Fraction(1), (0,): Fraction(2), (0, 0): Fraction(3)})
    cut = f.truncate(1)
    assert cut.order == 1
    assert cut.coefficients == {(): 1, (0,): 2}
    g = TruncatedSeries(1, 2, {(0,): Fraction(1)})
    assert list(f.pairings(g)) == [((0,), 1, 1), ((0, 0), 2, 1)]
    # the product keeps to the lower of the two orders
    assert list(f.pairings(g.truncate(1))) == [((0,), 1, 1)]
    d = f.partial(0)
    assert d.order == 1
    assert d.coefficients == {(): 2, (0,): 6}


def test_ci22_state_smoke(ci22_state3):
    state = ci22_state3
    assert state.order == 3
    assert state.t_weights == (1, 0)
    assert state.a_table[(0, 0)] == {0: 1}
    assert state.a_table[(0, 1)] == {1: 1}
    assert len(state.u_table) == 2 + 3 + 4
