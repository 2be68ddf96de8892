"""Sparse exact polynomial layer: pinned arithmetic plus seeded ring axioms."""

import random
from fractions import Fraction

import pytest

from conftest import (
    assert_matches,
    kernel_poly,
    kernel_scale,
    reference_add,
    reference_mul,
)

from toricff.polyalg import (
    ExponentOverflow,
    LinearSum,
    Poly,
    grevlex_key,
    monomial_mul,
    parse_poly,
    render_poly,
    shared_packing,
)

# variables (y, x1, x2, x3) as in the cubic Cayley ring
NAMES = ("y1", "x1", "x2", "x3")

Y = Poly.monomial((1, 0, 0, 0))
X1 = Poly.monomial((0, 1, 0, 0))
X2 = Poly.monomial((0, 0, 1, 0))
X3 = Poly.monomial((0, 0, 0, 1))
FERMAT = X1 * X1 * X1 + X2 * X2 * X2 + X3 * X3 * X3


def cubic_degree(exps):
    charge = -3 * exps[0] + exps[1] + exps[2] + exps[3]
    return ((charge,), exps[0])


def random_poly(rng, nvars=4, nterms=4, maxexp=3):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        exps = tuple(rng.randint(0, maxexp) for _ in range(nvars))
        terms[exps] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Poly(terms)


def partial(f, i):
    """The i-th partial of f, read off its partial rows."""
    return Poly.from_nums(f.denom, dict(f.partial_rows().get(i, ())))


def test_partial_peels_y_factor():
    assert partial(Y * FERMAT, 0) == FERMAT


def test_partial_power_rule():
    assert partial(Y * X1 * X1 * X1, 1) == 3 * (Y * X1 * X1)


def test_difference_of_squares():
    assert (X1 + X2) * (X1 - X2) == X1 * X1 - X2 * X2


def test_partial_of_constant_vanishes():
    assert Poly.monomial((0,) * 4, Fraction(7)).partial_rows() == {}
    assert 0 not in (X1 * X2).partial_rows()


def test_ring_axioms_seeded():
    rng = random.Random(2029)
    for _ in range(40):
        f, g, h = (random_poly(rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == Poly({})
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert c * (f + g) == c * f + c * g
        assert partial(f * g, 1) == partial(f, 1) * g + f * partial(g, 1)


def _stored(f):
    """f's terms, after checking that each is a nonzero Fraction."""
    assert all(type(c) is Fraction and c != 0 for c in f.terms.values())
    return f.terms


def test_mul_matches_fraction_reference_seeded():
    rng = random.Random(4242)
    cancelled = 0
    for _ in range(60):
        f1, f2 = random_poly(rng), random_poly(rng)
        # (f1 + f2)(f1 - f2) cancels its cross terms exactly
        for f, g in ((f1, f2), (f1 + f2, f1 - f2)):
            raw = reference_mul(f, g)
            assert _stored(f * g) == {k: v for k, v in raw.items() if v}
            cancelled += sum(1 for v in raw.values() if v == 0)
    assert cancelled > 0
    # the x1*x2 terms cancel over mixed denominators
    f = Fraction(1, 2) * X1 + Fraction(1, 3) * X2
    g = Fraction(2, 5) * X1 - Fraction(4, 15) * X2
    assert reference_mul(f, g)[(0, 1, 1, 0)] == 0
    expected = {(0, 2, 0, 0): Fraction(1, 5), (0, 0, 2, 0): Fraction(-4, 45)}
    assert _stored(f * g) == expected


def test_combination_matches_fraction_sum_seeded():
    rng = random.Random(77)
    for _ in range(40):
        pairs = []
        for _ in range(rng.randint(0, 4)):
            scale = Fraction(rng.randint(-4, 4), rng.choice([1, rng.randint(1, 6)]))
            # int and Fraction scales both occur
            scale = scale if scale.denominator > 1 else int(scale)
            pairs.append((scale, random_poly(rng)))
        # the last pair cancels the first exactly
        if pairs:
            pairs.append((-pairs[0][0], pairs[0][1]))
        expected = {}
        for scale, f in pairs:
            for k, v in f.terms.items():
                expected[k] = expected.get(k, Fraction(0)) + scale * v
        assert _stored(Poly.sum(pairs)) == {k: v for k, v in expected.items() if v}
    assert not Poly.sum([])


def test_cleared_kernels_match_fraction_reference_seeded():
    # the int-numerator kernels of Poly: product, sum, difference, negation
    # and equality, against Fraction arithmetic on the terms view
    rng = random.Random(1213)
    rescaled = 0
    for _ in range(60):
        f, g = random_poly(rng), random_poly(rng)
        assert _stored(f * g) == {
            k: v for k, v in reference_mul(f, g).items() if v
        }
        s1 = Fraction(rng.randint(-4, 4), rng.randint(1, 6))
        s2 = rng.randint(-3, 3)
        # the third pair cancels the first exactly
        total = Poly.sum([(s1, f), (s2, g), (-s1, f)])
        expected = {k: s2 * v for k, v in g.terms.items() if s2}
        assert _stored(total) == expected
        assert not (f - f) and not Poly.sum([])
        difference = dict(f.terms)
        for k, v in g.terms.items():
            difference[k] = difference.get(k, Fraction(0)) - v
        assert _stored(f - g) == {k: v for k, v in difference.items() if v}
        assert _stored(-f) == {k: -v for k, v in f.terms.items()}
        # equal as rationals over another denominator: the same element
        k = rng.randint(2, 9)
        scaled = Poly.from_nums(f.denom * k, {e: n * k for e, n in f.nums.items()})
        assert scaled == f and hash(scaled) == hash(f)
        assert (scaled.denom, scaled.nums) == (f.denom, f.nums)
        if f.nums:
            rescaled += 1
            e = next(iter(f.nums))
            nudged = {e2: n * k for e2, n in f.nums.items()}
            nudged[e] += 1
            assert Poly.from_nums(f.denom * k, nudged) != f
            assert Poly.from_nums(f.denom, {**f.nums, (9,) * 4: 1}) != f
    assert rescaled > 0
    # mixed denominators whose cross terms cancel to zero: 18/90 and -8/90
    # share the factor 2 with 90, so the product is stored over 45
    f = Fraction(1, 2) * X1 + Fraction(1, 3) * X2
    g = Fraction(2, 5) * X1 - Fraction(4, 15) * X2
    product = f * g
    assert (f.denom, g.denom) == (6, 15)
    assert product.denom == 45
    assert product.nums == {(0, 2, 0, 0): 9, (0, 0, 2, 0): -4}


def test_float_operands_raise_type_error():
    # the package promises no floating point: 1.5 is not read as 3/2, nor
    # 0.1 as 3602879701896397/36028797018963968
    for value in (1.5, 0.1):
        with pytest.raises(TypeError):
            X1 * value
        with pytest.raises(TypeError):
            value * X1
    with pytest.raises(TypeError):
        X1 * "2"
    assert X1 * Fraction(3, 2) == 3 * X1 * Fraction(1, 2)
    assert not (X1 * 0) and (X1 * 0).denom == 1


def test_float_coefficients_raise_type_error():
    # the constructors refuse a float as * does, naming it
    for value in (1.5, 0.1):
        with pytest.raises(TypeError, match=repr(value)):
            Poly({(1,): value})
        with pytest.raises(TypeError, match=repr(value)):
            Poly.monomial((1,), value)
    with pytest.raises(TypeError, match="1.5"):
        Poly({(0,): Fraction(1, 2), (1,): 1.5})
    assert Poly.monomial((1,), Fraction(3, 2)).terms == {(1,): Fraction(3, 2)}


def test_grevlex_order_pinned():
    # at equal total degree: x1^3 > x1*x2*x3 > x3^3, and y-positions dominate
    x1cubed = (0, 3, 0, 0)
    diag = (0, 1, 1, 1)
    x3cubed = (0, 0, 0, 3)
    assert grevlex_key(x1cubed) > grevlex_key(diag) > grevlex_key(x3cubed)
    assert grevlex_key((3, 0, 0, 0)) > grevlex_key((0, 3, 0, 0))
    assert grevlex_key((1, 0, 0, 2)) < grevlex_key((0, 3, 0, 0))
    assert grevlex_key((0, 0, 0, 0)) < grevlex_key((0, 1, 0, 0))


# the edges of one- and two-byte fields, and the limit 2**15 - 1 of a
# 16-bit field with its guard bit
EDGE_EXPONENTS = (0, 127, 128, 255, 256, 32767)


def _packing_cases():
    """Seeded exponent vectors per variable count: small ones, and ones
    drawn from the field edges."""
    rng = random.Random("grevlex-packing")
    for nvars in (1, 2, 4, 7):
        small = [tuple(rng.randint(0, 6) for _ in range(nvars)) for _ in range(40)]
        edges = [
            tuple(rng.choice(EDGE_EXPONENTS) for _ in range(nvars)) for _ in range(40)
        ]
        edges += [(e,) * nvars for e in EDGE_EXPONENTS]
        yield small
        yield edges


# each exponent with the width of the byte-aligned field that holds it and
# its guard bit: the one 16-bit width keys exactly those that need at most 16
@pytest.mark.parametrize(
    "top, bits", [(0, 8), (127, 8), (128, 16), (255, 16), (256, 16), (32767, 16), (65535, 24)]
)
def test_grevlex_packing_width(top, bits):
    """One width: 16-bit fields, whose guard bit leaves exponents up to
    the limit 32,767; keys up to it sort as descending grevlex and decode,
    and an exponent past it raises ExponentOverflow."""
    packing = shared_packing(3)
    assert (packing.bits, packing.limit) == (16, 2**15 - 1)
    assert bits == 8 * -(-(top.bit_length() + 1) // 8)
    assert (top <= packing.limit) == (bits <= packing.bits)
    if top > packing.limit:
        with pytest.raises(ExponentOverflow):
            packing.key((0, top, 0))
        return
    monos = [(top, 0, top), (0, top, top), (top, top, 0), (top, 1, 0), (0, 0, 1)]
    assert sorted(monos, key=packing.key) == sorted(monos, key=grevlex_key, reverse=True)
    assert all(packing.exponents(packing.key(m)) == m for m in monos)
    with pytest.raises(ExponentOverflow):
        packing.key((0, packing.limit + 1, 0))


def test_grevlex_packing_matches_tuple_operations():
    """Ascending keys are descending grevlex, the sum of two keys decodes to
    their product and is its key where the product is within the limit, the
    guard bits test t <= m exponentwise, and the exponents come back from a
    key."""
    for monos in _packing_cases():
        packing = shared_packing(len(monos[0]))
        key = packing.key
        assert sorted(monos, key=key) == sorted(monos, key=grevlex_key, reverse=True)
        assert len(set(map(key, monos))) == len(set(monos))
        assert all(packing.exponents(key(m)) == m for m in monos)
        for a in monos[:20]:
            for b in monos[:20]:
                product = monomial_mul(a, b)
                assert packing.exponents(key(a) + key(b)) == product
                if max(product) <= packing.limit:
                    assert key(a) + key(b) == key(product)
        for t in monos:
            for m in monos:
                divides = not (key(m) - key(t)) & packing.guards
                assert divides == all(map(int.__le__, t, m)), (t, m)


def test_linear_sum_matches_fraction_reference_seeded():
    """add and add_product on packed keys equal the tuple-keyed Fraction
    reference, coefficient by coefficient and in the order of its keys,
    over 1-8 variables, mixed denominators and exponents up to the limit."""
    rng = random.Random(3404)
    seen = set()
    for nvars in range(1, 9):
        for _ in range(25):
            total, reference = LinearSum(), {}
            ops = []
            for _ in range(rng.randint(1, 6)):
                if ops and rng.random() < 0.2:
                    # the negative of an earlier term: its coefficients cancel
                    scale, *factors = rng.choice(ops)
                    ops.append((-scale, *factors))
                else:
                    count = rng.randint(1, 2)
                    factors = [kernel_poly(rng, nvars) for _ in range(count)]
                    ops.append((kernel_scale(rng), *factors))
            for scale, *factors in ops:
                if len(factors) == 2:
                    total.add_product(scale, *factors)
                    reference_add(reference, scale, reference_mul(*factors))
                else:
                    total.add(scale, factors[0])
                    reference_add(reference, scale, factors[0].terms)
                seen.add(("product", len(factors) == 2))
                mixed = factors[0].denom not in (1, total.denom)
                seen.add(("mixed denominators", mixed))
            got = total.element()
            assert_matches(got, reference)
            assert got == Poly(reference)
            seen.add(("cancelled", any(c == 0 for c in reference.values())))
            seen.add(("past the limit", any(max(e) > 2**15 - 1 for e in got.nums)))
    assert {(kind, outcome) for kind, _ in seen for outcome in (False, True)} == seen


def test_element_sums_match_fraction_reference_seeded():
    """+, - and sum merge the tuple keys: the Fraction reference, in order."""
    rng = random.Random(3405)
    for nvars in range(1, 9):
        for _ in range(20):
            x, y, z = (kernel_poly(rng, nvars) for _ in range(3))
            pairs = [(kernel_scale(rng), v) for v in (x, y, z, x)]
            for got, used in (
                (x + y, ((1, x), (1, y))),
                (x - y, ((1, x), (-1, y))),
                (x - x, ((1, x), (-1, x))),
                (Poly.sum(pairs), pairs),
            ):
                reference = {}
                for scale, v in used:
                    reference_add(reference, scale, v.terms)
                assert_matches(got, reference)


def test_shared_packing_decodes_a_product_at_twice_the_limit():
    """Two factors at the limit 32,767 give a field of 65,534, which the
    16-bit field still reads off exactly."""
    limit = 2**15 - 1
    packing = shared_packing(3)
    assert packing is shared_packing(3) and (packing.bits, packing.limit) == (16, limit)
    a, b = (limit, 0, 1), (limit, 2, limit)
    product = (2 * limit, 2, limit + 1)
    assert packing.exponents(packing.key(a) + packing.key(b)) == product
    total = LinearSum()
    total.add_product(Fraction(1, 3), Poly.monomial(a, 3), Poly.monomial(b, 2))
    assert total.element() == Poly.monomial(product, 2)
    # no variables at all: the empty monomial packs to 0
    assert Poly({(): Fraction(1, 2)}) * Poly({(): 3}) == Poly({(): Fraction(3, 2)})


def test_exponent_past_the_limit_leaves_the_sum_as_it_was():
    """An input exponent of 32,768 raises ExponentOverflow before any
    numerator or the denominator changes."""
    total = LinearSum()
    total.add_product(Fraction(2, 3), Y + X1, Fraction(1, 5) * X2)
    before = (total.denom, dict(total.nums))
    past = Poly.monomial((2**15, 0, 0, 0), Fraction(1, 7))
    for add in (
        lambda: total.add(Fraction(1, 11), past),
        lambda: total.add_product(Fraction(1, 11), past, X1),
        lambda: total.add_product(Fraction(1, 11), X1, past),
    ):
        with pytest.raises(ExponentOverflow):
            add()
        assert (total.denom, total.nums) == before
    assert total.element() == Fraction(2, 15) * ((Y + X1) * X2)


def test_render_pinned():
    f = 3 * (Y * X1) - X2 * X2 + Poly.monomial((0,) * 4, Fraction(1, 2))
    assert render_poly(f, NAMES) == "3*y1*x1 - x2^2 + 1/2"
    assert render_poly(Poly({}), NAMES) == "0"
    assert render_poly(-(Y * Y), NAMES) == "-y1^2"
    assert render_poly(X1 - X2, NAMES) == "x1 - x2"
    assert render_poly(Poly.monomial((0,) * 4, Fraction(-3, 7)), NAMES) == "-3/7"


def test_parse_pinned():
    assert parse_poly("3*y1*x1 - x2^2 + 1/2", NAMES) == 3 * (
        Y * X1
    ) - X2 * X2 + Poly.monomial((0,) * 4, Fraction(1, 2))
    assert parse_poly("0", NAMES) == Poly({})
    assert parse_poly("-y1^2", NAMES) == -(Y * Y)
    with pytest.raises(ValueError):
        parse_poly("z9 + 1", NAMES)


def test_render_parse_round_trip_seeded():
    rng = random.Random(97)
    for _ in range(60):
        f = random_poly(rng)
        assert parse_poly(render_poly(f, NAMES), NAMES) == f
