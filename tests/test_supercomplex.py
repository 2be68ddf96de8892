"""Odd-variable complex: operator pins, the sign bijection, and form calculus."""

import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import (
    DENOMINATORS,
    KERNEL_EXPONENTS,
    P2_RAYS,
    assert_matches,
    kernel_poly,
    kernel_scale,
    reference_add,
    reference_mul,
    reference_partial,
    reference_q,
    xpoly,
)

from toricff.polyalg import (
    ExponentOverflow,
    GrevlexPacking,
    LinearSum,
    Poly,
    parse_poly,
    render_poly,
)
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
    parse_super,
    q_f,
    q_s,
    render_super,
    twisted_d,
    wedge_df,
)
from toricff.toricring import build_cayley_ring

NV = 4  # cubic ring variables y1, x1, x2, x3


def sterm(exps, etas, coeff=1):
    return SuperElement({(tuple(exps), tuple(etas)): Fraction(coeff)})


def fterm(exps, dqs, coeff=1):
    return FormElement({(tuple(exps), tuple(dqs)): Fraction(coeff)})


def eta(i):
    return sterm((0,) * NV, (i,))


ONE = sterm((0,) * NV, ())
Y = sterm((1, 0, 0, 0), ())
X1 = sterm((0, 1, 0, 0), ())


def random_super(rng, ring, max_terms=4, maxexp=2, max_etas=None):
    nv = ring.nvars
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, maxexp) for _ in range(nv))
        size = rng.randint(0, nv if max_etas is None else max_etas)
        etas = tuple(sorted(rng.sample(range(nv), size)))
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


def test_eta_products():
    assert eta(0) * eta(1) == sterm((0,) * NV, (0, 1))
    assert eta(1) * eta(0) == sterm((0,) * NV, (0, 1), -1)
    assert not (eta(0) * eta(0))
    left = Y * eta(1)
    right = X1 * eta(0)
    assert left * right == sterm((1, 1, 0, 0), (0, 1), -1)


def test_delta_pins():
    assert delta(Y * eta(0)) == ONE
    assert not delta(eta(0) * eta(1))
    # delta(q0*q1*eta0*eta1) = q1*eta1 - q0*eta0
    w = sterm((1, 1, 0, 0), (0, 1))
    assert delta(w) == sterm((0, 1, 0, 0), (1,)) - sterm((1, 0, 0, 0), (0,))


def test_q_s_pins(cubic_ring):
    g = Poly(reference_partial(cubic_ring.S, 0))
    assert q_s(eta(0), cubic_ring) == SuperElement.from_poly(g)
    assert q_s(eta(1), cubic_ring) == SuperElement.from_poly(
        3 * Poly.monomial((1, 2, 0, 0))
    )
    assert not q_s(Y * X1, cubic_ring)


def test_k_s_is_sum(cubic_ring):
    rng = random.Random(3)
    for _ in range(10):
        w = random_super(rng, cubic_ring)
        assert k_s(w, cubic_ring) == q_s(w, cubic_ring) + delta(w)


def test_q_s_graded_product_rule(cubic_ring, p1p1_ring):
    # Q_S is an odd derivation: Q(ab) = Q(a) b + (-1)^|a| a Q(b)
    for ring in (cubic_ring, p1p1_ring):
        rng = random.Random(8)
        for _ in range(10):
            a = random_super(rng, ring, max_terms=2)
            etas = next(iter(a.terms))[1] if a.terms else ()
            a = SuperElement(
                {(e, t): c for (e, t), c in a.terms.items() if len(t) == len(etas)}
            )
            if not a:
                continue
            b = random_super(rng, ring, max_terms=2)
            sign = (-1) ** len(etas)
            assert q_s(a * b, ring) == (
                q_s(a, ring) * b + sign * (a * q_s(b, ring))
            )


def test_mu_pins():
    assert mu(ONE) == fterm((0,) * NV, (0, 1, 2, 3))
    top = sterm((0,) * NV, (0, 1, 2, 3))
    assert mu(top) == fterm((0,) * NV, ())  # sign (-1)^(0+1+2+3) = +1
    assert mu(eta(0)) == fterm((0,) * NV, (1, 2, 3))
    assert mu(eta(1)) == fterm((0,) * NV, (0, 2, 3), -1)


def test_mu_round_trip(cubic_ring):
    rng = random.Random(21)
    for _ in range(30):
        w = random_super(rng, cubic_ring)
        assert mu_inverse(mu(w)) == w
        omega = random_form(rng, cubic_ring)
        assert mu(mu_inverse(omega)) == omega


def test_mu_intertwines(cubic_ring, p1p1_ring):
    for ring in (cubic_ring, p1p1_ring):
        rng = random.Random(50)
        for _ in range(25):
            w = random_super(rng, ring)
            assert mu(delta(w)) == form_d(mu(w))
            assert mu(q_s(w, ring)) == wedge_df(ring.S, mu(w))
            assert mu(k_s(w, ring)) == twisted_d(mu(w), ring)


def test_form_d_pins(cubic_ring):
    assert form_d(fterm((1, 0, 0, 0), (1,))) == fterm((0, 0, 0, 0), (0, 1))
    assert not form_d(fterm((0, 0, 0, 0), (0,)))
    ds = wedge_df(cubic_ring.S, fterm((0, 0, 0, 0), ()))
    expect = FormElement({})
    for i in range(NV):
        expect = expect + fterm((0, 0, 0, 0), (i,)) * Poly(
            reference_partial(cubic_ring.S, i)
        )
    assert ds == expect
    assert twisted_d(fterm((0, 0, 0, 0), ()), cubic_ring) == ds


def test_contract_euler_pins(cubic_ring):
    ds = wedge_df(cubic_ring.S, fterm((0, 0, 0, 0), ()))
    back = contract_euler(ds, cubic_ring.var_weights)
    assert back == FormElement.from_poly(cubic_ring.S)
    for i in range(1, NV):
        assert not contract_euler(
            fterm((0, 0, 0, 0), (i,)), cubic_ring.var_weights
        )


def form_phi_degree(exps, dqs, phi):
    return sum(e * p for e, p in zip(exps, phi)) + sum(phi[j] for j in dqs)


def random_homogeneous_form(rng, ring, phi):
    buckets = {}
    for _ in range(12):
        exps = tuple(rng.randint(0, 2) for _ in range(ring.nvars))
        dqs = tuple(sorted(rng.sample(range(ring.nvars), rng.randint(0, 3))))
        buckets.setdefault(form_phi_degree(exps, dqs, phi), {})[(exps, dqs)] = (
            Fraction(rng.randint(-4, 4), rng.randint(1, 3))
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


def test_homotopy_identity_seeded(cubic_ring, p1p1_ring):
    rng = random.Random(99)
    for ring in (cubic_ring, p1p1_ring):
        functionals = [ring.var_weights] + [
            tuple(ring.var_charges[v][j] for v in range(ring.nvars))
            for j in range(ring.charge_rank)
        ]
        for phi in functionals:
            for _ in range(10):
                xi, degxi = random_homogeneous_form(rng, ring, phi)
                f, degf = random_homogeneous_poly(rng, ring, phi)
                lam = Fraction(rng.randint(-3, 3), rng.randint(1, 2))

                def d_lf(omega):
                    return lam * form_d(omega) + wedge_df(f, omega)

                lhs = d_lf(contract_euler(xi, phi)) + contract_euler(
                    d_lf(xi), phi
                )
                rhs = xi * (
                    Poly.monomial((0,) * ring.nvars, lam * degxi) + degf * f
                )
                assert lhs == rhs


def weight_homogeneous_form(rng, ring):
    return random_homogeneous_form(rng, ring, ring.var_weights)


def test_epsilon_closed_form(cubic_ring, p1p1_ring):
    rng = random.Random(123)
    for ring in (cubic_ring, p1p1_ring):
        for _ in range(10):
            xi, w = weight_homogeneous_form(rng, ring)
            got = epsilon_w_s(xi, ring)
            expect = xi * (Poly.monomial((0,) * ring.nvars, w) + ring.S)
            assert got == expect
            if xi:
                assert got  # injectivity on homogeneous input
    assert not epsilon_w_s(FormElement({}), cubic_ring)


def test_epsilon_telescoping(cubic_ring):
    rng = random.Random(7)
    s0 = FormElement.from_poly(cubic_ring.S)
    for _ in range(6):
        xi, w = weight_homogeneous_form(rng, cubic_ring)
        power = xi
        for i in (1, 2, 3):
            # epsilon(S^{i-1} xi) = (w + i - 1) S^{i-1} xi + S^i xi
            lhs = epsilon_w_s(power, cubic_ring)
            s_power = power * cubic_ring.S
            rhs = (w + i - 1) * power + s_power
            assert lhs == rhs
            power = s_power


def test_operator_identities_seeded(cubic_ring, ci22_ring):
    rng = random.Random(31337)
    for ring in (cubic_ring, ci22_ring):
        for _ in range(15):
            w = random_super(rng, ring)
            assert not delta(delta(w))
            assert not q_s(q_s(w, ring), ring)
            assert not (
                q_s(delta(w), ring) + delta(q_s(w, ring))
            )
            assert not k_s(k_s(w, ring), ring)
            omega = random_form(rng, ring)
            assert not form_d(form_d(omega))
            assert not wedge_df(ring.S, wedge_df(ring.S, omega))
            assert not twisted_d(twisted_d(omega, ring), ring)


def test_contraction_identities_seeded(cubic_ring):
    rng = random.Random(404)
    ring = cubic_ring
    wts = ring.var_weights
    charges = tuple(ring.var_charges[v][0] for v in range(ring.nvars))
    for _ in range(15):
        omega = random_form(rng, ring)
        assert not contract_euler(contract_euler(omega, wts), wts)
        anti = contract_euler(
            contract_euler(omega, wts), charges
        ) + contract_euler(contract_euler(omega, charges), wts)
        assert not anti


def test_contraction_odd_derivation_seeded(cubic_ring):
    rng = random.Random(606)
    ring = cubic_ring
    wts = ring.var_weights
    for _ in range(15):
        nv = ring.nvars
        e1 = tuple(rng.randint(0, 2) for _ in range(nv))
        j1 = tuple(sorted(rng.sample(range(nv), rng.randint(0, 2))))
        e2 = tuple(rng.randint(0, 2) for _ in range(nv))
        j2 = tuple(sorted(rng.sample(range(nv), rng.randint(0, 2))))
        a = fterm(e1, j1, rng.randint(1, 3))
        b = fterm(e2, j2, rng.randint(1, 3))
        wedge = a * b
        lhs = contract_euler(wedge, wts)
        rhs = contract_euler(a, wts) * b + (-1) ** len(j1) * (
            a * contract_euler(b, wts)
        )
        assert lhs == rhs


def q_f_sum(w, f, scale=1):
    """scale * Q_f(w) as a Poly, added by q_f into a new LinearSum."""
    total = LinearSum()
    q_f(w, f, total, scale)
    return total.element()


def even_reference_q(w, f):
    """reference_q of a w whose terms carry at most one eta, as the Poly of
    its terms, which carry none."""
    raw = reference_q(w, f)
    assert all(not etas for _, etas in raw)
    return Poly({exps: c for (exps, _), c in raw.items()})


def test_q_f_matches_q_s(cubic_ring):
    rng = random.Random(9)
    for _ in range(10):
        w = random_super(rng, cubic_ring, max_etas=1)
        assert q_f_sum(w, cubic_ring.S) == q_s(w, cubic_ring).to_poly()
    # a zero on either side adds nothing
    assert not q_f_sum(SuperElement({}), cubic_ring.S)
    assert not q_f_sum(eta(1), Poly({}))
    assert not wedge_df(cubic_ring.S, FormElement({}))
    assert not wedge_df(Poly({}), fterm((1, 0, 0, 0), (1,)))


def _nonzero(raw):
    return {k: v for k, v in raw.items() if v}


def _stored(w):
    """w's terms, after checking that each is a nonzero Fraction."""
    assert all(type(c) is Fraction and c != 0 for c in w.terms.values())
    return w.terms


def test_q_kernels_match_fraction_reference_seeded(cubic_ring, p1p1_ring):
    # a Hesse cubic whose partials have mixed denominators
    terms = {
        (3, 0, 0): Fraction(1, 2),
        (0, 3, 0): Fraction(2, 3),
        (1, 1, 1): Fraction(3, 4),
    }
    hesse = build_cayley_ring(P2_RAYS, [xpoly(3, terms)])
    rng = random.Random(31)
    cancelled = 0
    for ring in (cubic_ring, p1p1_ring, hesse):
        nv = ring.nvars
        for _ in range(15):
            w = random_super(rng, ring)
            # Q_S squares to zero, so contracting twice cancels exactly
            for v in (w, q_s(w, ring), w + q_s(w, ring)):
                raw = reference_q(v, ring.S)
                assert _stored(q_s(v, ring)) == _nonzero(raw)
                cancelled += sum(1 for c in raw.values() if c == 0)
            assert not q_s(q_s(w, ring), ring)
            # q_f adds Q_f of terms with at most one eta into a sum
            v, f = random_super(rng, ring, max_etas=1), _random_poly(rng, nv, 4)
            assert _stored(q_f_sum(v, f)) == _stored(even_reference_q(v, f))
    assert cancelled > 0


def test_q_kernel_on_cleared_forms_seeded(cubic_ring, p1p1_ring):
    # q_s on the int numerators of a SuperElement equals the Fraction
    # reference, and q_f raises on one exactly when the reference keeps a
    # nonzero term; the witnesses carry two or three etas, so a dropped eta
    # sits at odd and at even positions
    rng = random.Random(57)
    raised = 0
    for ring in (cubic_ring, p1p1_ring):
        nv = ring.nvars
        for _ in range(20):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = tuple(rng.randint(0, 2) for _ in range(nv))
                etas = tuple(sorted(rng.sample(range(nv), rng.randint(2, 3))))
                terms[(exps, etas)] = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
            w = SuperElement(terms)
            f = _random_poly(rng, nv, 3)
            total = LinearSum()
            if _nonzero(reference_q(w, f)):
                with pytest.raises(ValueError):
                    q_f(w, f, total)
                raised += 1
            else:
                q_f(w, f, total)
            assert total.nums == {}
            assert _stored(q_s(w, ring)) == _nonzero(reference_q(w, ring.S))
            # Q_S squares to zero: the second contraction cancels exactly
            assert not q_s(q_s(w, ring), ring)
    assert raised
    # one eta left after the contraction: not a polynomial
    with pytest.raises(ValueError):
        q_s(eta(0) * eta(1), cubic_ring).to_poly()
    assert q_s(eta(0), cubic_ring).to_poly() == Poly(reference_partial(cubic_ring.S, 0))


def test_partial_rows_are_cached_per_potential(
    cubic_ring, ci22_ring, rational_hesse_ring
):
    # partial_rows holds every nonzero partial as (exponents, int numerator)
    # pairs over the polynomial's own denominator, built once per polynomial;
    # a variable is absent exactly when its partial is zero
    rng = random.Random(41)
    potentials = [ring.S for ring in (cubic_ring, ci22_ring, rational_hesse_ring)]
    potentials += [_random_poly(rng, nv, 5) for nv in (1, 2, 4, 5) for _ in range(10)]
    absent = 0
    for f in potentials:
        rows = f.partial_rows()
        assert f.partial_rows() is rows
        nv = len(next(iter(f.nums), ()))
        assert set(rows) <= set(range(nv))
        for i in range(nv):
            expected = reference_partial(f, i)
            if not expected:
                assert i not in rows
                absent += 1
                continue
            assert all(type(n) is int and n for _, n in rows[i])
            assert len(rows[i]) == len(expected)
            assert {e: Fraction(n, f.denom) for e, n in rows[i]} == expected
    assert Poly({}).partial_rows() == {}
    assert absent


def _random_poly(rng, nv, max_terms):
    """A Poly of up to max_terms terms over Fractions; zero now and then."""
    return Poly(
        {
            tuple(rng.randint(0, 2) for _ in range(nv)): Fraction(
                rng.randint(-5, 5), rng.randint(1, 4)
            )
            for _ in range(rng.randint(0, max_terms))
        }
    )


def test_in_place_sums_match_materialised_seeded(cubic_ring, p1p1_ring):
    # add_product and q_f add into a LinearSum's numerators; the sum equals
    # the one over the materialised x * y and the Fraction reference of Q_f(w)
    rng = random.Random(2203)
    scales = (0, 1, -3, Fraction(3, 4), Fraction(-5, 6))
    seen = set()
    for ring in (cubic_ring, p1p1_ring):
        nv = ring.nvars
        for _ in range(40):
            in_place, materialised = LinearSum(), LinearSum()
            for _ in range(rng.randint(1, 6)):
                scale = rng.choice(scales)
                if rng.random() < 0.5:
                    x, y = _random_poly(rng, nv, 3), _random_poly(rng, nv, 3)
                    in_place.add_product(scale, x, y)
                    materialised.add(scale, x * y)
                    seen.add(("zero operand", not x or not y))
                else:
                    # terms with one eta or none: Q_f leaves no odd factor
                    terms = {}
                    for _ in range(rng.randint(0, 4)):
                        exps = tuple(rng.randint(0, 2) for _ in range(nv))
                        etas = tuple(rng.sample(range(nv), rng.randint(0, 1)))
                        terms[(exps, etas)] = Fraction(
                            rng.randint(-5, 5), rng.randint(1, 6)
                        )
                    w = SuperElement(terms)
                    f = ring.S if rng.random() < 0.3 else _random_poly(rng, nv, 3)
                    q_f(w, f, in_place, scale)
                    materialised.add(scale, even_reference_q(w, f))
                    seen.add(("even term", any(not e for _, e in w.nums)))
                seen.add(("zero scale", scale == 0))
                seen.add(("Fraction scale", isinstance(scale, Fraction)))
            got, expected = in_place.element(), materialised.element()
            assert (got.denom, got.nums) == (expected.denom, expected.nums)
    assert all((kind, True) in seen for kind, _ in seen)
    # two etas: the contraction keeps an odd factor, so q_f raises like
    # to_poly and leaves the sum as it was
    S = cubic_ring.S
    total = LinearSum()
    total.add_product(Fraction(2, 3), S, S)
    before = (total.denom, dict(total.nums))
    for scale in (1, 0):
        with pytest.raises(ValueError):
            q_f(eta(0) * eta(1), S, total, scale)
        assert (total.denom, total.nums) == before
    with pytest.raises(ValueError):
        q_s(eta(0) * eta(1), cubic_ring).to_poly()
    # terms with two etas whose contractions cancel leave no odd factor
    w = q_s(eta(0) * eta(1) * eta(2), cubic_ring)
    assert any(len(etas) == 2 for _, etas in w.nums)
    q_f(w, S, total, 1)
    assert (total.denom, total.nums) == before


def kernel_super(rng, nvars, max_etas, max_terms=4):
    """A SuperElement in nvars variables, each term with up to max_etas
    etas, over mixed denominators."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.choice(KERNEL_EXPONENTS) for _ in range(nvars))
        size = rng.randint(0, min(max_etas, nvars))
        etas = tuple(sorted(rng.sample(range(nvars), size)))
        terms[exps, etas] = Fraction(rng.randint(-6, 6), rng.choice(DENOMINATORS))
    return SuperElement(terms)


def test_q_f_matches_fraction_reference_seeded():
    """q_f on packed keys, mixed with add_product, equals the tuple-keyed
    Fraction reference of Q_f, coefficient by coefficient and in the order
    of its keys, over 1-8 variables, mixed denominators and exponents up to
    the shared packing's limit."""
    rng = random.Random(3406)
    seen = set()
    for nvars in range(1, 9):
        for _ in range(20):
            total, reference = LinearSum(), {}
            for _ in range(rng.randint(1, 5)):
                scale, f = kernel_scale(rng), kernel_poly(rng, nvars)
                if rng.random() < 0.25:
                    g = kernel_poly(rng, nvars)
                    total.add_product(scale, f, g)
                    reference_add(reference, scale, reference_mul(f, g))
                    continue
                w = kernel_super(rng, nvars, 1)
                q_f(w, f, total, scale)
                reference_add(reference, scale, even_reference_q(w, f).terms)
                seen.add(("zero-eta term", any(not etas for _, etas in w.nums)))
                seen.add(("mixed denominators", w.denom != f.denom))
            got = total.element()
            assert_matches(got, reference)
            seen.add(("past the limit", any(max(e) > 2**15 - 1 for e in got.nums)))
    assert {(kind, outcome) for kind, _ in seen for outcome in (False, True)} == seen


def test_super_element_sums_match_fraction_reference_seeded():
    """+, - and sum of SuperElements merge the tuple keys as they are."""
    rng = random.Random(3407)
    for nvars in range(1, 9):
        for _ in range(15):
            x, y = kernel_super(rng, nvars, nvars), kernel_super(rng, nvars, nvars)
            pairs = [(kernel_scale(rng), v) for v in (x, y, x)]
            for got, used in (
                (x + y, ((1, x), (1, y))),
                (x - y, ((1, x), (-1, y))),
                (SuperElement.sum(pairs), pairs),
            ):
                reference = {}
                for scale, v in used:
                    reference_add(reference, scale, v.terms)
                assert_matches(got, reference)


def test_q_f_packs_each_element_once(monkeypatch, cubic_ring):
    """A second q_f on the same w and f makes no GrevlexPacking.key call,
    and an exponent past the shared packing's limit raises ExponentOverflow
    with the sum as it was."""
    calls = []
    key = GrevlexPacking.key

    def counted(self, exps):
        calls.append(exps)
        return key(self, exps)

    monkeypatch.setattr(GrevlexPacking, "key", counted)
    w = Fraction(3, 4) * (X1 * eta(1)) + Fraction(1, 6) * (Y * eta(0))
    f = Poly(dict(cubic_ring.S.terms))
    total = LinearSum()
    q_f(w, f, total, Fraction(2, 5))
    assert calls
    calls.clear()
    q_f(w, f, total, -3)
    assert calls == []
    before = (total.denom, dict(total.nums))
    past = sterm((2**15, 0, 0, 0), (1,), Fraction(1, 7))
    with pytest.raises(ExponentOverflow):
        q_f(past, f, total, Fraction(1, 11))
    assert (total.denom, total.nums) == before


def test_poly_times_super_element_commutes():
    # a polynomial is even, so it multiplies a SuperElement from either side
    x = Poly.monomial((1, 0, 0, 0), Fraction(2, 3))
    xi = sterm((0, 1, 0, 0), (2,), Fraction(3, 4))
    expected = sterm((1, 1, 0, 0), (2,), Fraction(1, 2))
    assert x * xi == expected and xi * x == expected
    form = fterm((0, 0, 0, 1), (0, 3))
    assert x * form == form * x == fterm((1, 0, 0, 1), (0, 3), Fraction(2, 3))
    for value in (1.5, fterm((0,) * NV, ())):
        with pytest.raises(TypeError):
            xi * value
        with pytest.raises(TypeError):
            value * xi


def _reference_delta(w):
    """delta of a SuperElement in Fraction arithmetic on its terms view."""
    out = {}
    for (exps, etas), coeff in w.terms.items():
        for pos, i in enumerate(etas):
            if exps[i]:
                lowered = exps[:i] + (exps[i] - 1,) + exps[i + 1 :]
                key = (lowered, etas[:pos] + etas[pos + 1 :])
                out[key] = out.get(key, Fraction(0)) + (-1) ** pos * coeff * exps[i]
    return out


def _assert_canonical(x, reference):
    """x holds its canonical int form, and x and the element built from the
    Fraction map reference are == with equal hashes, as is x over a larger
    denominator."""
    assert x.denom > 0
    assert all(type(n) is int and n != 0 for n in x.nums.values())
    assert gcd(x.denom, *x.nums.values()) == 1
    for other in (
        type(x)(reference),
        type(x).from_nums(7 * x.denom, {k: 7 * n for k, n in x.nums.items()}),
    ):
        assert other == x and hash(other) == hash(x)
        assert (other.denom, other.nums) == (x.denom, x.nums)


def test_every_kernel_keeps_the_canonical_form_seeded(cubic_ring, p1p1_ring):
    # product, scale, sum, delta, q_f, q_s and both parsers; the
    # random coefficients share factors with their denominators, so many
    # outputs need a gcd divided out
    rng = random.Random(606)
    for ring in (cubic_ring, p1p1_ring):
        nv = ring.nvars
        names, eta_names = ring.names, ring.eta_names
        for _ in range(15):
            f, g = (
                Poly(
                    {
                        tuple(rng.randint(0, 2) for _ in range(nv)): Fraction(
                            rng.randint(-6, 6), rng.choice([1, 2, 4, 6])
                        )
                        for _ in range(rng.randint(0, 4))
                    }
                )
                for _ in range(2)
            )
            w = random_super(rng, ring)
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            _assert_canonical(f * g, reference_mul(f, g))
            _assert_canonical(c * f, {k: c * a for k, a in f.terms.items()})
            _assert_canonical(c * w, {k: c * a for k, a in w.terms.items()})
            total = {}
            for scale, x in ((c, f), (-2, g), (Fraction(1, 3), f)):
                for k, a in x.terms.items():
                    total[k] = total.get(k, Fraction(0)) + scale * a
            _assert_canonical(Poly.sum([(c, f), (-2, g), (Fraction(1, 3), f)]), total)
            _assert_canonical(f - f, {})
            _assert_canonical(delta(w), _reference_delta(w))
            v = random_super(rng, ring, max_etas=1)
            _assert_canonical(q_f_sum(v, f), even_reference_q(v, f).terms)
            _assert_canonical(q_s(w, ring), reference_q(w, ring.S))
            _assert_canonical(
                parse_poly(render_poly(f, names), names), dict(f.terms)
            )
            _assert_canonical(
                parse_super(render_super(w, names, eta_names), names, eta_names),
                dict(w.terms),
            )
    # one rational written two ways parses to one element
    a = parse_poly("2/4*x1 + 3/9*x2", cubic_ring.names)
    b = parse_poly("1/2*x1 + 1/3*x2", cubic_ring.names)
    assert a == b and hash(a) == hash(b) and a.denom == 6


def test_render_parse_super(cubic_ring):
    w = Y * X1 * eta(1) - 2 * (eta(0) * eta(3))
    text = render_super(w, cubic_ring.names, cubic_ring.eta_names)
    assert text == "-2*eta1*eta4 + y1*x1*eta2"
    assert parse_super(text, cubic_ring.names, cubic_ring.eta_names) == w
    assert render_super(SuperElement({}), cubic_ring.names, cubic_ring.eta_names) == "0"
    rng = random.Random(77)
    for _ in range(25):
        v = random_super(rng, cubic_ring)
        text = render_super(v, cubic_ring.names, cubic_ring.eta_names)
        assert parse_super(text, cubic_ring.names, cubic_ring.eta_names) == v


def test_render_super_ignores_term_order(cubic_ring):
    # terms sort by eta tuple, then by descending grevlex; no two keys tie,
    # so terms that share a monomial print the same in any insertion order
    names, eta_names = cubic_ring.names, cubic_ring.eta_names
    w = Y * X1 * eta(2) + X1 * X1 * eta(0) - Y * X1 * eta(0) + 3 * (Y * X1)
    assert render_super(w, names, eta_names) == (
        "3*y1*x1 - y1*x1*eta1 + x1^2*eta1 + y1*x1*eta3"
    )
    rng = random.Random(11)
    shared = [((1, 1, 0, 0), etas) for etas in ((), (0,), (1,), (0, 2), (1, 3))]
    for _ in range(20):
        terms = dict(random_super(rng, cubic_ring, max_terms=8).terms)
        for key in shared:
            terms[key] = Fraction(rng.randint(-5, 5) or 1)
        items = list(terms.items())
        expected = render_super(SuperElement(dict(items)), names, eta_names)
        for _ in range(5):
            rng.shuffle(items)
            assert render_super(SuperElement(dict(items)), names, eta_names) == expected
