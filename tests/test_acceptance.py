"""Acceptance gate: ten end-to-end checks with case counts and time budgets.

Each test prints a single PASS/FAIL line so the suite output doubles as a
checklist. All comparisons are exact rational arithmetic; the timed tests
assert their stated budget after asserting correctness.
"""

import random
import time
from fractions import Fraction

from conftest import CI_Q1, CI_Q2, CUBIC, P2_RAYS, P3_RAYS, P4_RAYS, fermat
from dimoracle import quotient_dimension

from toricff.cli import main
from toricff.ffverify import (
    check_euler_identity,
    check_flat_f_axioms,
    check_fqm2,
    check_weight_homogeneity,
)
from toricff.jacobired import jacobian_basis
from toricff.polyalg import Poly
from toricff.supercomplex import (
    FormElement,
    SuperElement,
    contract_euler,
    delta,
    epsilon_w_s,
    form_d,
    k_s,
    mu,
    mu_inverse,
    q_s,
    twisted_d,
    wedge_df,
)
from toricff.toricring import build_cayley_ring
from toricff.unfolding import UnfoldingState, check_series, run

CUBIC_PROBLEM = """\
rays = (1,0) (0,1) (-1,-1)
hypersurface = 1 (3,0,0) + 1 (0,3,0) + 1 (0,0,3)
order = 4
"""


def conclude(label, ok, elapsed=None, budget=None):
    stamp = ""
    if budget is not None:
        stamp = f" [{elapsed:.2f}s, budget {budget:g}s]"
    print(f"{label}: {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok
    if budget is not None:
        assert elapsed < budget


def random_super(rng, ring, max_terms=4, maxexp=2):
    nv = ring.nvars
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, maxexp) for _ in range(nv))
        etas = tuple(sorted(rng.sample(range(nv), rng.randint(0, nv))))
        terms[(exps, etas)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return SuperElement(terms)


def random_form(rng, ring, max_terms=4, maxexp=2):
    nv = ring.nvars
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, maxexp) for _ in range(nv))
        dqs = tuple(sorted(rng.sample(range(nv), rng.randint(0, nv))))
        terms[(exps, dqs)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return FormElement(terms)


def random_homogeneous_form(rng, ring, phi):
    buckets = {}
    for _ in range(12):
        exps = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
        dqs = tuple(sorted(rng.sample(range(ring.nvars), rng.randint(0, 3))))
        deg = sum(e * p for e, p in zip(exps, phi)) + sum(phi[j] for j in dqs)
        buckets.setdefault(deg, {})[(exps, dqs)] = Fraction(
            rng.randint(-4, 4), rng.randint(1, 3)
        )
    deg, terms = max(buckets.items(), key=lambda kv: len(kv[1]))
    return FormElement(terms), deg


def random_homogeneous_poly(rng, ring, phi):
    exps = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
    deg = sum(e * p for e, p in zip(exps, phi))
    terms = {exps: Fraction(rng.randint(1, 4))}
    for _ in range(6):
        cand = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
        if sum(e * p for e, p in zip(cand, phi)) == deg:
            terms[cand] = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
    return Poly(terms), deg


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


def test_operator_identity_suite(cubic_ring, ci22_ring, p1p1_ring):
    rings = (cubic_ring, ci22_ring, p1p1_ring)
    rng = random.Random(1001)
    start = time.perf_counter()
    elements = 0
    ok = True
    for ring in rings:
        for _ in range(35):
            w = random_super(rng, ring)
            elements += 1
            ok = ok and delta(delta(w)).is_zero()
            ok = ok and q_s(q_s(w, ring), ring).is_zero()
            ok = ok and (q_s(delta(w), ring) + delta(q_s(w, ring))).is_zero()
            ok = ok and k_s(k_s(w, ring), ring).is_zero()
            omega = random_form(rng, ring)
            elements += 1
            ok = ok and twisted_d(twisted_d(omega, ring), ring).is_zero()
            ok = ok and form_d(form_d(omega)).is_zero()
            ok = ok and wedge_df(ring.S, wedge_df(ring.S, omega)).is_zero()
    elapsed = time.perf_counter() - start
    ok = ok and elements >= 200 and len(rings) >= 3
    conclude(
        f"operator identities (squares and anticommutator, {elements} elements, "
        f"{len(rings)} rings)",
        ok,
        elapsed,
        5.0,
    )


def test_mu_intertwining_and_round_trip(cubic_ring, p1p1_ring):
    rng = random.Random(2002)
    start = time.perf_counter()
    elements = 0
    ok = True
    for ring in (cubic_ring, p1p1_ring):
        for _ in range(55):
            w = random_super(rng, ring)
            elements += 1
            ok = ok and mu_inverse(mu(w)) == w
            ok = ok and mu(k_s(w, ring)) == twisted_d(mu(w), ring)
            omega = random_form(rng, ring)
            elements += 1
            ok = ok and mu(mu_inverse(omega)) == omega
    elapsed = time.perf_counter() - start
    ok = ok and elements >= 100
    conclude(
        f"mu intertwines the twisted differentials and inverts ({elements} elements)",
        ok,
        elapsed,
        5.0,
    )


def test_homotopy_identity_weight_and_charge(cubic_ring, p1p1_ring):
    rng = random.Random(3003)
    cases = 0
    ok = True
    for ring in (cubic_ring, p1p1_ring):
        functionals = [ring.var_weights] + [
            tuple(ring.var_charges[v][j] for v in range(ring.nvars))
            for j in range(ring.charge_rank)
        ]
        for phi in functionals:
            for _ in range(25):
                xi, degxi = random_homogeneous_form(rng, ring, phi)
                f, degf = random_homogeneous_poly(rng, ring, phi)
                lam = Fraction(rng.randint(-3, 3), rng.randint(1, 2))

                def d_lf(omega):
                    return lam * form_d(omega) + wedge_df(f, omega)

                lhs = d_lf(contract_euler(xi, phi)) + contract_euler(d_lf(xi), phi)
                rhs = xi * (Poly.monomial((0,) * ring.nvars, lam * degxi) + degf * f)
                ok = ok and lhs == rhs
                cases += 1
    ok = ok and cases >= 100
    conclude(
        f"contraction homotopy identity, weight and charge functionals "
        f"({cases} homogeneous inputs)",
        ok,
    )


def test_epsilon_closed_form_and_telescoping(cubic_ring, p1p1_ring):
    rng = random.Random(4004)
    ok = True
    cases = 0
    for ring in (cubic_ring, p1p1_ring):
        for _ in range(10):
            xi, w = random_homogeneous_form(rng, ring, ring.var_weights)
            got = epsilon_w_s(xi, ring)
            ok = ok and got == xi * (Poly.monomial((0,) * ring.nvars, w) + ring.S)
            cases += 1
    for _ in range(6):
        xi, w = random_homogeneous_form(rng, cubic_ring, cubic_ring.var_weights)
        power = xi
        for i in (1, 2, 3):
            lhs = epsilon_w_s(power, cubic_ring)
            s_power = power * cubic_ring.S
            ok = ok and lhs == (w + i - 1) * power + s_power
            power = s_power
            cases += 1
    conclude(
        f"epsilon closed form and telescoping chain to i = 3 ({cases} cases)", ok
    )


def test_quotient_dimensions_against_oracle():
    start = time.perf_counter()
    cubic = build_cayley_ring(P2_RAYS, [CUBIC])
    cubic_dims = jacobian_basis(cubic).dims
    oracle_cubic = tuple(quotient_dimension(cubic, w) for w in (0, 1))
    cubic_elapsed = time.perf_counter() - start
    ok = cubic_dims == (1, 1) and oracle_cubic == (1, 1)
    conclude(
        "cubic quotient dimensions (1, 1), engine and oracle",
        ok,
        cubic_elapsed,
        1.0,
    )

    start = time.perf_counter()
    quintic = build_cayley_ring(P4_RAYS, [fermat(5, 5)])
    quintic_dims = jacobian_basis(quintic).dims
    oracle_quintic = tuple(quotient_dimension(quintic, w) for w in (0, 1))
    quintic_elapsed = time.perf_counter() - start
    ok = (
        quintic_dims[0] == 1
        and quintic_dims[1] == 101
        and oracle_quintic == (1, 101)
    )
    conclude(
        "quintic quotient dimensions, weight 0 -> 1 and weight 1 -> 101",
        ok,
        quintic_elapsed,
        60.0,
    )

    ci22 = build_cayley_ring(P3_RAYS, [CI_Q1, CI_Q2])
    ci22_dims = jacobian_basis(ci22).dims
    oracle_ci22 = tuple(quotient_dimension(ci22, w) for w in (0, 1))
    ok = ci22_dims == (1, 1) and oracle_ci22 == (1, 1)
    conclude("(2,2) intersection quotient dimensions (1, 1)", ok)


def test_unfolding_self_consistency_cubic():
    start = time.perf_counter()
    ring = build_cayley_ring(P2_RAYS, [CUBIC])
    state = run(ring, jacobian_basis(ring), 4)
    report = check_fqm2(state, check_series(state))
    elapsed = time.perf_counter() - start
    ok = report.passed and report.truncation == 2 and report.cases > 0
    conclude(
        f"structure-constant equation re-expands exactly at order 4, "
        f"truncation {report.truncation} ({report.cases} cases)",
        ok,
        elapsed,
        30.0,
    )


def test_flat_f_axioms_and_negative_controls(cubic_state4, ci22_state3):
    ok = True
    for state in (cubic_state4, ci22_state3):
        report = check_flat_f_axioms(state, check_series(state))
        ok = ok and report.passed and report.cases > 0

    bad_a = copy_state(cubic_state4)
    bad_a.a_table[(0, 1, 1)] = {1: Fraction(1)}
    ok = ok and not check_flat_f_axioms(bad_a, check_series(bad_a)).passed

    bad_lam = copy_state(cubic_state4)
    bad_lam.lam_table[(1, 1)] = bad_lam.lam_table[(1, 1)] + SuperElement(
        {((0, 0, 0, 2), (1,)): Fraction(1)}
    )
    ok = ok and not check_fqm2(bad_lam, check_series(bad_lam)).passed

    bad_u = copy_state(cubic_state4)
    bad_u.u_table[(1, 1)] = bad_u.u_table[(1, 1)] + Poly.monomial((0,) * 4)
    ok = ok and not check_weight_homogeneity(bad_u).passed

    # A_11^1 = 1 has t-weight 0, where 1 - d_1 - d_1 + d_1 = 1 is due
    bad_weight = copy_state(cubic_state4)
    bad_weight.a_table[(1, 1)] = {1: Fraction(1)}
    ok = ok and not check_euler_identity(bad_weight, check_series(bad_weight)).passed

    conclude(
        "flat F-manifold axioms pass (cubic order 4, (2,2) order 3); "
        "single-entry corruptions fail every check",
        ok,
    )


def test_weight_homogeneity_of_runs(cubic_state4, ci22_state3):
    ok = True
    cases = 0
    for state in (cubic_state4, ci22_state3):
        report = check_weight_homogeneity(state)
        ok = ok and report.passed
        cases += report.cases
    conclude(f"weight homogeneity of both example runs ({cases} entries)", ok)


def test_euler_identity_cubic_order_three(cubic_ring, cubic_basis):
    state = run(cubic_ring, cubic_basis, 3)
    report = check_euler_identity(state, check_series(state))
    ok = report.passed and report.truncation == 2 and report.cases >= 2
    conclude(
        f"Euler weights of Gamma and of the structure constants, cubic "
        f"order 3 ({report.cases} cases, two per direction)",
        ok,
    )


def test_determinism_of_reports(tmp_path):
    problem = tmp_path / "cubic.txt"
    problem.write_text(CUBIC_PROBLEM)
    first = tmp_path / "first.txt"
    second = tmp_path / "second.txt"
    code1 = main(["unfold", str(problem), "--out", str(first)])
    code2 = main(["unfold", str(problem), "--out", str(second)])
    ok = code1 == 0 and code2 == 0 and first.read_bytes() == second.read_bytes()
    conclude("repeated unfold runs produce byte-identical reports", ok)
