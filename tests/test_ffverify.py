"""Independent re-expansion checks over completed unfolding states."""

import random
from fractions import Fraction
from math import factorial, prod

import pytest

from conftest import (
    reference_mul,
    reference_q,
    scanned_lambda_series,
    scanned_structure_series,
)

from toricff.polyalg import Poly, render_poly
from toricff.supercomplex import SuperElement, delta
from toricff.unfolding import (
    TruncatedSeries,
    UnfoldingState,
    check_series,
    run,
    structure_series,
)
from toricff.ffverify import (
    Failure,
    VerificationReport,
    _first_residual,
    _verdict,
    check_euler_identity,
    check_flat_f_axioms,
    check_fqm2,
    check_weight_homogeneity,
)


def copy_state(state):
    return UnfoldingState(
        ring=state.ring,
        basis=state.basis,
        order=state.order,
        t_weights=state.t_weights,
        u_table=dict(state.u_table),
        a_table=dict(state.a_table),
        lam_table=dict(state.lam_table),
    )


def test_fqm2_passes_cubic(cubic_state4):
    report = check_fqm2(cubic_state4, check_series(cubic_state4))
    assert report.passed
    assert report.failure is None
    assert report.truncation == 2
    assert report.cases > 0


def test_fqm2_passes_ci22(ci22_state3):
    report = check_fqm2(ci22_state3, check_series(ci22_state3))
    assert report.passed
    assert report.truncation == 1


def test_fqm2_requires_order_two(cubic_ring, cubic_basis):
    state = run(cubic_ring, cubic_basis, 1)
    with pytest.raises(ValueError):
        check_fqm2(state, check_series(state))


def test_fqm2_detects_corrupt_lambda(cubic_state4):
    bad = copy_state(cubic_state4)
    bad.lam_table[(1, 1)] = bad.lam_table[(1, 1)] + SuperElement(
        {((0, 0, 0, 2), (1,)): Fraction(1)}
    )
    report = check_fqm2(bad, check_series(bad))
    assert not report.passed
    assert report.cases == 15
    assert report.failure == Failure(
        "pair (1,1)", (0, 0), 1, "-3*y1*x1^2*x3^2"
    )


def test_fqm2_detects_corrupt_u(cubic_state4):
    bad = copy_state(cubic_state4)
    bad.u_table[(1, 1)] = bad.u_table[(1, 1)] + Poly.monomial((1, 1, 1, 1))
    report = check_fqm2(bad, check_series(bad))
    assert not report.passed
    assert report.cases == 10
    assert report.failure == Failure(
        "u vs Delta(lambda) at multiset (1, 1)", (0, 2), 1, "-y1*x1*x2*x3"
    )


def test_fqm2_expands_a_nonzero_u_beside_a_zero_lambda(ci22_state3):
    # the unit-led (0, 1, 1) has a zero lambda and a zero u; a zero pair
    # holds unexpanded, but a nonzero u beside the zero lambda is compared
    bad = copy_state(ci22_state3)
    assert not (bad.lam_table[(0, 1, 1)] or bad.u_table[(0, 1, 1)])
    bad.u_table[(0, 1, 1)] = Poly.monomial(bad.basis.monomials[1])
    report = check_fqm2(bad, check_series(bad))
    assert not report.passed
    # (0, 0), (0, 0, 0), (0, 0, 1), (0, 1) and (0, 1, 1): each zero pair
    # before the failure counts as a case
    assert report.cases == 5
    assert report.failure == Failure(
        "u vs Delta(lambda) at multiset (0, 1, 1)", (1, 2), 1, "-y2*x4^2"
    )


def test_axioms_pass(cubic_state4, ci22_state3):
    for state in (cubic_state4, ci22_state3):
        report = check_flat_f_axioms(state, check_series(state))
        assert report.passed
        assert report.failure is None
        assert report.cases > 0


def with_a_entry(state, multi, rho, value):
    bad = copy_state(state)
    row = {r: v for r, v in bad.a_table[multi].items() if r != rho}
    bad.a_table[multi] = {**row, rho: value} if value else row
    return bad


def exponent_vector(multi, dim):
    return tuple(multi.count(j) for j in range(dim))


def add_products(into, left, right, trunc):
    """Add to the plain dict into every product a*b of a term a t^A of left
    and b t^B of right, {t-key: Fraction} dicts, with |A| + |B| <= trunc;
    so no series arithmetic of the engine takes part."""
    for akey, a in left.items():
        for bkey, b in right.items():
            if len(akey) + len(bkey) <= trunc:
                key = tuple(sorted(akey + bkey))
                into[key] = into.get(key, 0) + a * b


def first_difference(left, right):
    """The first key of the two series left and right, in exponent-vector
    order, where their coefficients differ, with left's minus right's
    there; None when they agree. The dense references compare their two
    sides with this, apart from the engine's one difference series."""
    keys = left.coefficients.keys() | right.coefficients.keys()
    for key in sorted(keys, key=lambda k: exponent_vector(k, left.dim)):
        a = left.coefficients.get(key)
        b = right.coefficients.get(key)
        if a is None:
            return key, -b
        if b is None:
            return key, a
        if a != b:
            return key, a - b
    return None


def dense_axioms_failure(state):
    """First failing (site, monomial, residual) of the four axiom families,
    expanded over every case on the dense table of structure series."""
    dim = len(state.basis.monomials)
    trunc = state.order - 2
    table = [
        [scanned_structure_series(state, a, b) for b in range(dim)]
        for a in range(dim)
    ]
    zero = TruncatedSeries(dim, trunc, {})
    one = TruncatedSeries(dim, trunc, {(): Fraction(1)})
    unit = state.basis.index_of[(0,) * state.ring.nvars]
    r = range(dim)
    cases = [
        (f"commutativity ({a},{b})->{c}", table[a][b][c], table[b][a][c])
        for a in r for b in r if a < b for c in r
    ]
    cases += [
        (f"unit row beta={b} rho={c}", table[unit][b][c], one if b == c else zero)
        for b in r for c in r
    ]
    if state.order >= 3:
        cases += [
            (
                f"potentiality ({a},{b},{g})->{s}",
                table[a][b][s].partial(g),
                table[g][b][s].partial(a),
            )
            for a in r for g in r if a < g for b in r for s in r
        ]
    for a in r:
        for b in r:
            for g in range(a, dim):
                for s in r:
                    lhs, rhs = {}, {}
                    for c in r:
                        add_products(
                            lhs,
                            table[a][b][c].coefficients,
                            table[c][g][s].coefficients,
                            trunc,
                        )
                        add_products(
                            rhs,
                            table[b][g][c].coefficients,
                            table[c][a][s].coefficients,
                            trunc,
                        )
                    cases.append(
                        (
                            f"associativity ({a},{b},{g})->{s}",
                            TruncatedSeries(dim, trunc, lhs),
                            TruncatedSeries(dim, trunc, rhs),
                        )
                    )
    for site, left, right in cases:
        hit = first_difference(left, right)
        if hit is not None:
            return site, exponent_vector(hit[0], dim), str(hit[1])
    return None


def test_axioms_match_dense_reference(p1p1_ring, p1p1_basis):
    state = run(p1p1_ring, p1p1_basis, 4)
    rng = random.Random(3)
    keys = sorted(state.a_table)
    seen = set()
    for trial in range(12):
        bad = state if trial == 0 else copy_state(state)
        for _ in range(trial and rng.randint(1, 2)):
            multi = rng.choice(keys)
            rho = rng.randrange(3)
            shift = Fraction(rng.choice((1, -1)), rng.choice((1, 3)))
            value = bad.a_table[multi].get(rho, 0) + shift
            bad = with_a_entry(bad, multi, rho, value)
        report = check_flat_f_axioms(bad, check_series(bad))
        expected = dense_axioms_failure(bad)
        assert report.cases == 99
        assert report.passed == (expected is None)
        if expected is not None:
            fail = report.failure
            assert (fail.site, fail.monomial, fail.residual) == expected
            seen.add(fail.site.split()[0])
    assert seen == {"unit", "associativity"}


def fraction_pairings(left, right, trunc, pair):
    """{A+B: {exps: Fraction}} summing pair(a, b) over the terms a t^A of
    left and b t^B of right with |A| + |B| <= trunc; plain dicts, so no
    series or polynomial product of the engine takes part."""
    out = {}
    for akey, a in left.items():
        for bkey, b in right.items():
            if len(akey) + len(bkey) <= trunc:
                add_terms(out.setdefault(tuple(sorted(akey + bkey)), {}), pair(a, b))
    return out


def add_terms(into, terms):
    for exps, c in terms.items():
        into[exps] = into.get(exps, Fraction(0)) + c


def even_terms(raw):
    """{exps: Fraction} of a reference_q result that carries no eta."""
    assert all(not etas for _, etas in raw)
    return {exps: c for (exps, _), c in raw.items()}


def dense_fqm2_report(state):
    """check_fqm2 expanded over every rho, with one table scan per pair and
    every product taken in plain Fraction arithmetic (reference_mul,
    reference_q); the cases are built lazily, so it stops at a failure."""
    ring = state.ring
    dim = len(state.basis.monomials)
    trunc = state.order - 2

    def fac(key):
        return prod(factorial(key.count(j)) for j in set(key))

    def scaled(scale, f):
        return Poly({e: scale * c for e, c in f.terms.items()})

    # Gamma at K is u_K / K!, and dGamma_alpha at K is u_{K+alpha} / K!
    gamma = {
        key: scaled(Fraction(1, fac(key)), u)
        for key, u in state.u_table.items()
        if len(key) <= trunc
    }
    partials = [{} for _ in range(dim)]
    for multi, u in state.u_table.items():
        for alpha in set(multi):
            key = list(multi)
            key.remove(alpha)
            if len(key) <= trunc:
                partials[alpha][tuple(key)] = scaled(Fraction(1, fac(key)), u)

    def q_term(u, w):
        return even_terms(reference_q(w, u))

    def cases():
        for multi in sorted(state.lam_table):
            yield (
                f"u vs Delta(lambda) at multiset {multi}",
                TruncatedSeries(
                    dim, state.order, {multi: delta(state.lam_table[multi]).to_poly()}
                ),
                TruncatedSeries(dim, state.order, {multi: state.u_table[multi]}),
            )
        for alpha in range(dim):
            for beta in range(alpha, dim):
                lhs = fraction_pairings(
                    partials[alpha], partials[beta], trunc, reference_mul
                )
                rhs = {}
                a_series = scanned_structure_series(state, alpha, beta)
                for rho in range(dim):
                    scalars = a_series[rho].coefficients
                    for key, terms in fraction_pairings(
                        scalars, partials[rho], trunc, lambda s, u: scaled(s, u).terms
                    ).items():
                        add_terms(rhs.setdefault(key, {}), terms)
                lam = scanned_lambda_series(state, alpha, beta).coefficients
                for key, w in lam.items():
                    add_terms(
                        rhs.setdefault(key, {}),
                        even_terms(reference_q(w, ring.S)),
                    )
                for key, terms in fraction_pairings(gamma, lam, trunc, q_term).items():
                    add_terms(rhs.setdefault(key, {}), terms)
                yield (
                    f"pair ({alpha},{beta})",
                    *(
                        TruncatedSeries(
                            dim, trunc, {key: Poly(t) for key, t in side.items()}
                        )
                        for side in (lhs, rhs)
                    ),
                )

    def outcomes():
        for site, left, right in cases():
            hit = first_difference(left, right)
            if hit is None:
                yield None
                continue
            key, value = hit
            weight = ring.degree_of_monomial(min(value.nums))[1]
            monomial = exponent_vector(key, dim)
            yield Failure(site, monomial, weight, render_poly(value, ring.names))

    return _verdict("fqm2", trunc, outcomes())


def test_fqm2_matches_dense_reference(
    p1p1_ring, p1p1_basis, k3_state3, ci22_ring, ci22_basis
):
    state = run(p1p1_ring, p1p1_basis, 4)
    # the clean state, a nonzero entry zeroed, a zero entry made nonzero
    corruptions = [[], [((0, 1), 1, Fraction(0))], [((1, 1, 2), 0, Fraction(1, 3))]]
    rng = random.Random(7)
    keys = sorted(state.a_table)
    for _ in range(10):
        changes = []
        for _ in range(rng.randint(1, 2)):
            multi, rho = rng.choice(keys), rng.randrange(3)
            shift = Fraction(rng.choice((1, -2)), 3)
            changes.append((multi, rho, state.a_table[multi].get(rho, 0) + shift))
        corruptions.append(changes)
    sites = []
    for changes in corruptions:
        bad = state
        for multi, rho, value in changes:
            bad = with_a_entry(bad, multi, rho, value)
        report = check_fqm2(bad, check_series(bad))
        assert report == dense_fqm2_report(bad)
        sites.append(report.failure.site)
    assert sites[:3] == ["pair (1,2)", "pair (0,1)", "pair (1,1)"]
    assert set(sites) == {
        "pair (0,0)", "pair (0,1)", "pair (0,2)", "pair (1,1)", "pair (1,2)"
    }
    # u and lambda entries shifted by non-unit fractions at multisets where
    # some pair (alpha, beta) leaves a remainder C with C! = 2: a lambda term
    # that Delta kills, a zeta added to lambda with Delta(zeta) added to u (so
    # u = Delta(lambda) still holds), a zero lambda made nonzero, and a u
    # entry alone, which the entry cases catch
    zeta = SuperElement({((1, 2, 1, 1, 1), (2,)): Fraction(-5, 3)})
    shifts = [
        ({}, {(1, 1, 2, 2): SuperElement({((1, 3, 0, 2, 0), (4,)): Fraction(3, 7)})}),
        ({(1, 1, 1, 1): delta(zeta).to_poly()}, {(1, 1, 1, 1): zeta}),
        ({}, {(0, 0, 1, 1): SuperElement({((0, 1, 0, 0, 2), (0,)): Fraction(2, 9)})}),
        ({(0, 1, 2, 2): Poly.monomial((1, 0, 2, 0, 2), Fraction(7, 5))}, {}),
    ]
    sites = []
    for u_shifts, lam_shifts in shifts:
        bad = copy_state(state)
        for multi, extra in u_shifts.items():
            bad.u_table[multi] = bad.u_table[multi] + extra
        for multi, extra in lam_shifts.items():
            bad.lam_table[multi] = bad.lam_table[multi] + extra
        report = check_fqm2(bad, check_series(bad))
        assert report == dense_fqm2_report(bad)
        sites.append((report.failure.site, report.failure.monomial))
    # t2^2 and t1^2 carry 1/C! = 1/2 in the series
    assert sites == [
        ("pair (1,1)", (0, 0, 2)),
        ("pair (1,1)", (0, 2, 0)),
        ("pair (0,0)", (0, 2, 0)),
        ("u vs Delta(lambda) at multiset (0, 1, 2, 2)", (1, 1, 2)),
    ]
    # K3 at order 3 keeps its known failure (see the strict xfail below)
    report = check_fqm2(k3_state3, check_series(k3_state3))
    assert report == dense_fqm2_report(k3_state3)
    assert report.failure.site == "pair (1,4)"
    state = run(ci22_ring, ci22_basis, 12)
    report = check_fqm2(state, check_series(state))
    assert report.passed
    assert report == dense_fqm2_report(state)


def test_first_residual_in_exponent_vector_order():
    # t2, t0*t1, t1^2 and t0^2*t2 are nonzero; t2 has the least exponent
    # vector, though (2,) is the greatest of the four key tuples
    keys = [(2,), (0, 1), (1, 1), (0, 0, 2)]
    diff = TruncatedSeries(3, 3, {key: Fraction(1) for key in keys})
    assert _first_residual(diff) == ((2,), 1)
    assert _first_residual(TruncatedSeries(3, 3, {})) is None
    rng = random.Random(5)
    for _ in range(200):
        dim = rng.randint(1, 4)
        keys = {
            tuple(sorted(rng.randrange(dim) for _ in range(rng.randint(0, 4))))
            for _ in range(6)
        }
        left, right = (
            TruncatedSeries(dim, 4, {k: Fraction(rng.randint(-1, 1)) for k in keys})
            for _ in range(2)
        )
        diff = {
            k: left.coefficients.get(k, 0) - right.coefficients.get(k, 0)
            for k in keys
        }
        differing = [k for k in keys if diff[k]]
        expected = None
        if differing:
            first = min(differing, key=lambda k: exponent_vector(k, dim))
            expected = (first, diff[first])
        assert _first_residual(TruncatedSeries(dim, 4, diff)) == expected
        assert first_difference(left, right) == expected


def test_axioms_pass_on_k3(k3_state2, k3_state3):
    # 21 directions; order 3 adds the potentiality family
    for state, cases in ((k3_state2, 106722), (k3_state3, 199332)):
        report = check_flat_f_axioms(state, check_series(state))
        assert report.passed
        assert report.failure is None
        assert report.cases == cases


@pytest.mark.parametrize(
    "multi, rho, shift, site, residual",
    [
        ((0, 5), 5, None, "unit row beta=5 rho=5", "1"),
        ((6, 10), 0, Fraction(1, 3), "associativity (1,6,10)->1", "-1/3"),
    ],
)
def test_axioms_locate_corrupt_k3_entry(
    k3_state2, multi, rho, shift, site, residual
):
    old = k3_state2.a_table[multi].get(rho, 0)
    value = Fraction(2) if shift is None else old + shift
    bad = with_a_entry(k3_state2, multi, rho, value)
    report = check_flat_f_axioms(bad, check_series(bad))
    assert not report.passed
    assert report.cases == 106722
    assert report.failure.site == site
    assert report.failure.residual == residual


def test_axioms_and_euler_read_nonconstant_structure_series(dwork_state3):
    # the Dwork K3 at order 3 has structure series of t-degree 1, so the
    # associativity and Euler cases compare terms beyond t-degree 0
    series = check_series(dwork_state3)
    nonconstant = [
        key
        for row in series.structure.values()
        for a_series in row.values()
        for key in a_series.coefficients
        if key
    ]
    assert len(nonconstant) == 73
    report = check_flat_f_axioms(dwork_state3, series)
    assert report.passed
    assert report.cases == 199332
    report = check_euler_identity(dwork_state3, series)
    assert report.passed
    assert report.cases == 42
    # a zero row made nonzero breaks both, each at a term of t-degree 1
    bad = copy_state(dwork_state3)
    assert not bad.a_table[(1, 1, 2)]
    bad.a_table[(1, 1, 2)] = {1: Fraction(1)}
    series = check_series(bad)
    failure = check_flat_f_axioms(bad, series).failure
    assert failure.site == "associativity (1,1,2)->20"
    assert failure.monomial == (0, 1) + (0,) * 19
    assert failure.residual == "-1"
    failure = check_euler_identity(bad, series).failure
    assert failure.site == "a weight (1,1)->1"
    assert failure.monomial == (0, 0, 1) + (0,) * 18
    assert failure.residual == "-1"


def test_axioms_detect_broken_unit(cubic_state4):
    bad = copy_state(cubic_state4)
    bad.a_table[(0, 1, 1)] = {1: Fraction(1)}
    report = check_flat_f_axioms(bad, check_series(bad))
    assert not report.passed
    assert "unit" in report.failure.site


def corrupted(state, table, key, value):
    """A copy of state with a_table[key] set to the row value, value added to
    u_table[key], or, for the table "t", value as its t-weights."""
    bad = copy_state(state)
    if table == "a":
        bad.a_table[key] = value
    elif table == "u":
        bad.u_table[key] = bad.u_table[key] + value
    else:
        bad.t_weights = value
    return bad


# (cases, failure) of fqm2, flat-f-axioms, euler-identity and
# weight-homogeneity, a failure as (site, t-multiset, weight, residual). The
# ci22 algebra is two-dimensional with a unit, so no table of it breaks
# associativity; its non-unit a rows all carry the wrong weight.
K3_KNOWN_PAIR = ("pair (1,4)", (3,), 2, "-3/4*y1^2*x1*x2^2*x3^3*x4^2")
PINNED_CORRUPTIONS = {
    "k3-unit-row": (
        "k3_state3", "a", (0, 7), {7: Fraction(1), 3: Fraction(1, 2)},
        (
            (2010, ("pair (0,7)", (), 1, "-1/2*y1*x1*x3*x4^2")),
            (199332, ("unit row beta=7 rho=3", (), None, "1/2")),
            (42, None),
            (2175, None),
        ),
    ),
    "k3-associativity": (
        "k3_state3", "a", (2, 18), {20: Fraction(1), 19: Fraction(1, 2)},
        (
            (2027, K3_KNOWN_PAIR),
            (199332, ("associativity (1,2,18)->20", (), None, "-1/2")),
            (6, ("a weight (2,18)->19", (), None, "-1/2")),
            (2175, None),
        ),
    ),
    "k3-a-weight": (
        "k3_state3", "a", (1, 20), {20: Fraction(3, 2)},
        (
            (2027, K3_KNOWN_PAIR),
            (199332, ("associativity (1,1,19)->20", (), None, "-3/2")),
            (4, ("a weight (1,20)->20", (), None, "-3/2")),
            (2175, None),
        ),
    ),
    "k3-t-weights": (
        "k3_state3", "t", None, (1,) + (0,) * 20,
        (
            (2027, K3_KNOWN_PAIR),
            (199332, None),
            (3, ("Gamma direction 1", (20,), 2, "1/4*y1^2*x1^2*x2^2*x4^4")),
            (21, ("t-weight of direction 20", (20,), 0, "expected -1")),
        ),
    ),
    "k3-u-weight": (
        "k3_state3", "u", (1, 2), Poly.monomial((2, 2, 2, 2, 2), Fraction(2, 3)),
        (
            (
                274,
                (
                    "u vs Delta(lambda) at multiset (1, 2)",
                    (1, 2),
                    2,
                    "-2/3*y1^2*x1^2*x2^2*x3^2*x4^2",
                ),
            ),
            (199332, None),
            (3, ("Gamma direction 1", (2,), 2, "2/3*y1^2*x1^2*x2^2*x3^2*x4^2")),
            (35, ("u[(1, 2)]", (1, 2), 2, "y1^2*x1^2*x2^2*x3^2*x4^2")),
        ),
    ),
    "ci22-unit-row": (
        "ci22_state3", "a", (0, 1), {1: Fraction(1), 0: Fraction(-1, 5)},
        (
            (9, ("pair (0,1)", (), 0, "1/5")),
            (22, ("unit row beta=1 rho=0", (), None, "-1/5")),
            (2, ("a weight (0,1)->0", (), None, "1/5")),
            (32, None),
        ),
    ),
    "ci22-a-weight": (
        "ci22_state3", "a", (1, 1), {0: Fraction(1, 3)},
        (
            (10, ("pair (1,1)", (), 0, "-1/3")),
            (22, None),
            (4, ("a weight (1,1)->0", (), None, "-2/3")),
            (32, None),
        ),
    ),
    "ci22-a-weight-at-t1": (
        "ci22_state3", "a", (1, 1, 1), {1: Fraction(1, 4)},
        (
            (10, ("pair (1,1)", (1,), 1, "-1/4*y2*x4^2")),
            (22, None),
            (4, ("a weight (1,1)->1", (1,), None, "-1/4")),
            (32, None),
        ),
    ),
    "ci22-t-weights": (
        "ci22_state3", "t", None, (1, 1),
        (
            (10, None),
            (22, None),
            (3, ("Gamma direction 1", (), 1, "y2*x4^2")),
            (2, ("t-weight of direction 1", (1,), 1, "expected 0")),
        ),
    ),
    "ci22-u-weight": (
        "ci22_state3", "u", (1, 1), Poly.monomial((0,) * 6, 5),
        (
            (6, ("u vs Delta(lambda) at multiset (1, 1)", (1, 1), 0, "-5")),
            (22, None),
            (3, ("Gamma direction 1", (1,), 0, "-5")),
            (10, ("u[(1, 1)]", (1, 1), 0, "1")),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CORRUPTIONS))
def test_every_check_reports_a_pinned_corruption(request, name):
    fixture, table, key, value, pinned = PINNED_CORRUPTIONS[name]
    bad = corrupted(request.getfixturevalue(fixture), table, key, value)
    dim = len(bad.basis.monomials)
    series = check_series(bad)
    reports = (
        check_fqm2(bad, series),
        check_flat_f_axioms(bad, series),
        check_euler_identity(bad, series),
        check_weight_homogeneity(bad),
    )
    checks = ("fqm2", "flat-f-axioms", "euler-identity", "weight-homogeneity")
    # the order-3 states truncate fqm2 and the axioms at t-degree 1, the
    # Euler identity at 2 and the stored tables at 3
    for report, check, truncation, (cases, failure) in zip(
        reports, checks, (1, 1, 2, 3), pinned
    ):
        if failure is not None:
            site, multi, weight, residual = failure
            failure = Failure(site, exponent_vector(multi, dim), weight, residual)
        assert report == VerificationReport(
            check, failure is None, truncation, cases, failure
        )


# Known defect: step settles each multiset with one lambda, which every split
# of it into a pair and a remainder reuses; at order 3 some splits do not
# close. These pass once every split closes.
@pytest.mark.xfail(strict=True, reason="fqm2 fails at pair (1,4)")
def test_fqm2_passes_k3_order_three(k3_state3):
    assert check_fqm2(k3_state3, check_series(k3_state3)).passed


@pytest.mark.xfail(strict=True, reason="fqm2 fails at pair (1,2)")
@pytest.mark.parametrize("order", [3, 4, 5])
def test_fqm2_passes_p1p1(p1p1_ring, p1p1_basis, order):
    state = run(p1p1_ring, p1p1_basis, order)
    assert check_fqm2(state, check_series(state)).passed


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="fqm2 fails at the site")
@pytest.mark.parametrize(
    "name, site", [("dwork", "pair (1,2)"), ("sextic_k3", "pair (1,4)")]
)
def test_fqm2_passes_k3_variants_order_three(request, name, site):
    """The Dwork K3 (the Fermat quartic plus x1x2x3x4) and the Fermat sextic
    K3 in P(1,1,1,3) at order 3; a failure anywhere but the known site is
    not the known defect, and errors instead."""
    state = request.getfixturevalue(name + "_state3")
    report = check_fqm2(state, check_series(state))
    if not report.passed and report.failure.site != site:
        raise ValueError(f"fqm2 fails at {report.failure.site}, not at {site}")
    assert report.passed


def test_unit_rows_at_origin(cubic_state4):
    # structural consequence asserted alongside the full check
    index = structure_series(cubic_state4)
    for beta in (0, 1):
        row = index.get((0, beta), {})
        for rho in (0, 1):
            expect = Fraction(1 if rho == beta else 0)
            got = row[rho].coefficients.get((), 0) if rho in row else 0
            assert got == expect
    assert all(tuple(sorted(k)) == k for k in cubic_state4.a_table)


def test_weights_pass(cubic_state4, ci22_state3):
    for state in (cubic_state4, ci22_state3):
        report = check_weight_homogeneity(state)
        assert report.passed
        assert report.cases > 0
    assert check_weight_homogeneity(cubic_state4).cases == 7


def test_weights_detect_corrupt_u(cubic_state4):
    bad = copy_state(cubic_state4)
    bad.u_table[(1, 1)] = bad.u_table[(1, 1)] + Poly.monomial((0, 0, 0, 0))
    report = check_weight_homogeneity(bad)
    assert not report.passed
    assert report.cases == 5
    assert report.failure == Failure("u[(1, 1)]", (0, 2), 0, "1")


def test_weights_detect_corrupt_lambda(cubic_state4):
    bad = copy_state(cubic_state4)
    bad.lam_table[(1, 1)] = bad.lam_table[(1, 1)] + SuperElement(
        {((0, 0, 0, 0), (1,)): Fraction(1)}
    )
    report = check_weight_homogeneity(bad)
    assert not report.passed
    assert report.cases == 7
    assert report.failure == Failure("lambda[(1, 1)]", (0, 2), 1, "eta2")


def test_weights_detect_a_wrong_lambda_at_a_unit_led_multiset(ci22_state3):
    # the unit-led (0, 1, 1) stores the zero lambda, which has no term; one
    # of weight 0, where 2 - (1 + 0 + 0) = 1 is due, fails there
    bad = copy_state(ci22_state3)
    assert not bad.lam_table[(0, 1, 1)]
    bad.lam_table[(0, 1, 1)] = SuperElement({((0,) * 6, (0,)): Fraction(1)})
    report = check_weight_homogeneity(bad)
    assert not report.passed
    assert report.failure == Failure("lambda[(0, 1, 1)]", (1, 2), 0, "eta1")


def test_weights_detect_wrong_t_weight(cubic_state4):
    bad = copy_state(cubic_state4)
    bad.t_weights = (1, 1)
    report = check_weight_homogeneity(bad)
    assert not report.passed
    assert report.cases == 2
    assert report.failure == Failure(
        "t-weight of direction 1", (0, 1), 1, "expected 0"
    )


def test_quintic_direction_weights(quintic_ring, quintic_basis):
    state = run(quintic_ring, quintic_basis, 1)
    assert set(state.t_weights) == {1, 0, -1, -2}
    report = check_weight_homogeneity(state)
    assert report.passed


def test_euler_identity_cubic(cubic_ring, cubic_basis):
    state = run(cubic_ring, cubic_basis, 3)
    report = check_euler_identity(state, check_series(state))
    assert report.passed
    assert report.truncation == 2
    # d_1 = 1 instead of 0: u_1 t_1 then has total weight 2, not 1
    broken = copy_state(state)
    broken.t_weights = (1, 1)
    report = check_euler_identity(broken, check_series(broken))
    assert not report.passed
    assert report.cases == 3
    assert report.failure == Failure(
        "Gamma direction 1", (0, 0), 1, "y1*x1*x2*x3"
    )


def test_euler_identity_ci22(ci22_state3):
    report = check_euler_identity(ci22_state3, check_series(ci22_state3))
    assert report.passed
    # a_{(1,1,1)}^0 sits at t_1 in A_11^0, whose t-weight must be
    # 1 - d_1 - d_1 + d_0 = 2, but d_1 = 0
    bad = with_a_entry(ci22_state3, (1, 1, 1), 0, 1)
    broken = check_euler_identity(bad, check_series(bad))
    assert not broken.passed
    assert broken.cases == 4
    assert broken.failure == Failure("a weight (1,1)->0", (0, 1), None, "-2")


def test_euler_identity_detects_corrupt_u(cubic_ring, cubic_basis):
    bad = copy_state(run(cubic_ring, cubic_basis, 3))
    bad.u_table[(1, 1)] = bad.u_table[(1, 1)] + Poly.monomial((2, 2, 2, 2))
    report = check_euler_identity(bad, check_series(bad))
    assert not report.passed
    assert report.failure == Failure(
        "Gamma direction 1", (0, 1), 2, "y1^2*x1^2*x2^2*x3^2"
    )


@pytest.mark.parametrize(
    "fixture, order",
    [
        ("cubic", 2),
        ("cubic", 6),
        ("cubic", 8),
        ("ci22_state3", None),
        ("p1p1", 2),
        ("p1p1", 3),
        ("p1p1", 4),
        ("p1p1", 5),
        ("k3_state2", None),
        ("k3_state3", None),
    ],
)
def test_euler_identity_case_count(request, fixture, order):
    # bench/gate.py expects 2 * dim cases, truncated at order - 1
    if order is None:
        state = request.getfixturevalue(fixture)
    else:
        ring = request.getfixturevalue(f"{fixture}_ring")
        state = run(ring, request.getfixturevalue(f"{fixture}_basis"), order)
    report = check_euler_identity(state, check_series(state))
    assert report.passed
    assert report.cases == 2 * len(state.basis.monomials)
    assert report.truncation == state.order - 1
