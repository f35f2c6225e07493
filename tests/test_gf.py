import hashlib
import random
from itertools import product

import pytest

from oracles import Poly, classes, element_order, poly_divmod, poly_evaluate, poly_gcd, poly_monic

from stabfold import gf
from stabfold.gf import (
    Field,
    FieldError,
    field_create,
    is_prime,
    nth_roots,
    primitive_root_of_unity,
)
from stabfold.homology import Cohomology
from stabfold.ravenel import build_gl, subcomplex


def test_field_create_prime_field():
    f = field_create(5)
    assert f.cardinality == 5
    a, b = f.scalar(3), f.scalar(4)
    assert (a + b).v == 2
    assert (a * b).v == 2
    assert (a - b).v == 4
    assert a.inverse() * a == f.one


def test_field_create_rejects_bad_input():
    with pytest.raises(FieldError):
        field_create(6)
    with pytest.raises(FieldError):
        field_create(7, 0)


def test_field_create_deterministic():
    f1 = field_create(7, 2)
    f2 = field_create(7, 2)
    assert f1 is f2
    assert f1.modulus == field_create(7, 2).modulus


def test_gf49_generator_order():
    f = field_create(7, 2)
    assert f.cardinality == 49
    g = f.primitive_element()
    assert element_order(f, g) == 48


def test_gf9_has_primitive_fourth_root():
    # 4 divides 9 - 1, so GF(9) contains an element of exact order 4
    f = field_create(3, 2)
    w = primitive_root_of_unity(f, 4)
    assert element_order(f, w) == 4


def test_field_axioms_random():
    rng = random.Random(7)
    for p, m in [(5, 1), (7, 2), (3, 3)]:
        f = field_create(p, m)
        elems = list(f.elements())
        for _ in range(40):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert a * (b + c) == a * b + a * c
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            if a:
                assert a * a.inverse() == f.one


def test_frobenius_additive():
    rng = random.Random(11)
    for p, m in [(5, 2), (3, 3), (13, 2)]:
        f = field_create(p, m)
        elems = list(f.elements())
        for _ in range(30):
            a, b = rng.choice(elems), rng.choice(elems)
            assert (a + b) ** p == a ** p + b ** p
        # frobenius iterated m times is the identity
        a = rng.choice(elems)
        for _ in range(m):
            a = a ** p
        assert a == a


def test_frobenius_order():
    f = field_create(3, 3)
    for a in f.elements():
        b = a
        for _ in range(3):
            b = b ** 3
        assert b == a


def brute_roots(field, a, n):
    return {x for x in field.elements() if x**n == a}


def test_nth_roots_small_cases():
    f5 = field_create(5)
    assert {x.v for x in nth_roots(f5, f5.scalar(1), 2)} == {1, 4}
    f7 = field_create(7)
    assert {x.v for x in nth_roots(f7, f7.scalar(1), 3)} == {1, 2, 4}


def test_nth_roots_gf11_frozen_scan():
    # frozen from an exhaustive scan of GF(11): x^4 = 1 has solutions {1, 10}
    f = field_create(11)
    assert {x.v for x in nth_roots(f, f.scalar(1), 4)} == {1, 10}


def test_nth_roots_against_brute_force():
    rng = random.Random(3)
    for p, m in [(5, 1), (11, 1), (3, 2), (7, 2)]:
        f = field_create(p, m)
        nonzero = [x for x in f.elements() if x]
        for n in (2, 3, 4, 6):
            a = rng.choice(nonzero)
            got = nth_roots(f, a, n)
            assert got == brute_roots(f, a, n)
            for x in got:
                assert x**n == a


def test_nth_roots_rejects_zero():
    f = field_create(5)
    with pytest.raises(FieldError):
        nth_roots(f, f.zero, 2)


def test_primitive_root_of_unity():
    f7 = field_create(7)
    w = primitive_root_of_unity(f7, 3)
    # deterministic: smallest primitive element of GF(7) is 3, and 3^2 = 2
    assert w.v == 2
    assert element_order(f7, w) == 3
    for k in range(1, 3):
        assert w**k != f7.one

    f5 = field_create(5)
    assert primitive_root_of_unity(f5, 2).v == 4
    with pytest.raises(FieldError):
        primitive_root_of_unity(f5, 3)


def test_poly_evaluate():
    f = field_create(5)
    xx = Poly(f, [f.scalar(1), f.zero, f.scalar(1)])  # x^2 + 1
    assert poly_evaluate(xx, f.scalar(2)) == f.zero
    const = Poly.const(f, 3)
    for e in f.elements():
        assert poly_evaluate(const, e).v == 3
    x = Poly.x_power(f, 1)
    for e in f.elements():
        assert poly_evaluate(x, e) == e


def test_poly_evaluate_is_ring_hom():
    rng = random.Random(5)
    f = field_create(7)
    elems = list(f.elements())

    def rand_poly():
        return Poly(f, [rng.choice(elems) for _ in range(rng.randint(0, 5))])

    for _ in range(25):
        a, b, e = rand_poly(), rand_poly(), rng.choice(elems)
        assert poly_evaluate(a * b, e) == poly_evaluate(a, e) * poly_evaluate(b, e)
        assert poly_evaluate(a + b, e) == poly_evaluate(a, e) + poly_evaluate(b, e)


def test_poly_valuation_additive():
    def valuation(g):
        # x-adic valuation; None for the zero polynomial
        return next((i for i, c in enumerate(g.coeffs) if c), None)

    f = field_create(5)
    a = Poly.x_power(f, 2, 3)
    b = Poly.x_power(f, 1) + Poly.x_power(f, 4, 2)
    assert valuation(a) == 2
    assert valuation(b) == 1
    assert valuation(a * b) == 3
    assert valuation(Poly(f, [])) is None


def test_poly_divmod_and_gcd():
    f = field_create(7)
    a = Poly(f, [f.scalar(c) for c in (1, 0, 1)])  # x^2 + 1
    b = Poly(f, [f.scalar(c) for c in (1, 1)])  # x + 1
    q, r = poly_divmod(a, b)
    assert q * b + r == a
    # gcd(x^2 - 1, x - 1) = x - 1
    c = Poly(f, [f.scalar(-1), f.zero, f.scalar(1)])
    d = Poly(f, [f.scalar(-1), f.scalar(1)])
    assert poly_gcd(c, d) == poly_monic(d)


def test_modulus_is_irreducible_by_brute_factoring():
    # degree-2 and degree-3 moduli have no roots in the prime field
    for p, m in [(3, 2), (5, 2), (7, 3)]:
        f = field_create(p, m)
        base = field_create(p)
        mod = Poly(base, [base.scalar(c) for c in f.modulus] + [base.one])
        for e in base.elements():
            assert poly_evaluate(mod, e) != base.zero


def prime_powers(limit: int) -> list[tuple[int, int]]:
    """Every (p, m), p prime and m >= 2, with p^m <= limit."""
    return [(p, m) for p in range(2, int(limit ** 0.5) + 1) if is_prime(p)
            for m in range(2, limit.bit_length()) if p**m <= limit]


def test_the_modulus_of_every_field_is_pinned():
    # the (p, m, modulus) triples of the 93 fields GF(p^m), m >= 2, up to 2^16
    # elements, as the Rabin test chose them before trial division took over
    triples = [(p, m, gf._modulus(p, m)) for p, m in prime_powers(1 << 16)]
    assert len(triples) == 93
    assert hashlib.sha256(repr(triples).encode()).hexdigest() == (
        "a0de9600ed07f80b76b90f67a588fe2140ae177f4c3afb31fde55d375b90ddc2")


def test_extension_field_results_are_pinned():
    # coordinates of the primitive element of the 36 fields GF(p^m), m >= 2,
    # up to 3,000 elements, and of every class representative of the
    # critical complex of gl_4 over GF(13^2) in every block, as computed
    # while an element of GF(p^m) was its tuple of coordinates
    prims = [(p, m, field_create(p, m).primitive_element().coordinates())
             for p, m in prime_powers(3000)]
    coh = Cohomology(subcomplex(build_gl(4, field_create(13, 2), 13), "critical"))
    reps = [(s, u, i, sorted((mask, c.coordinates())
                             for mask, c in coh.representative((s, u, i)).terms.items()))
            for s, u, i in classes(coh)]
    assert len(prims) == 36 and len(reps) == 16
    assert hashlib.sha256(repr((prims, reps)).encode()).hexdigest() == (
        "b595c3bcae41d6e8c887201c8d5be2d84ad4eac2a69afe863d708b51c43b7ce4")


@pytest.mark.parametrize("p, m", prime_powers(125))
def test_table_sums_agree_with_coordinate_arithmetic_on_every_pair(p, m):
    # +, - and unary - read the log, exp and Zech tables; the oracle adds
    # coordinates mod p.  * reads the tables too, _raw_mul none
    f = field_create(p, m)
    coords = list(product(range(p), repeat=m))
    elems = [f.scalar(c) for c in coords]
    for a, x in zip(coords, elems):
        assert -x == f.scalar([-ai for ai in a])
        for b, y in zip(coords, elems):
            assert x + y == f.scalar([ai + bi for ai, bi in zip(a, b)])
            assert x - y == f.scalar([ai - bi for ai, bi in zip(a, b)])
            assert (x * y).v == f._raw_mul(x.v, y.v)


def mobius(n: int) -> int:
    out, d = 1, 2
    while n > 1:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return out


def test_irreducibles_of_each_degree_are_counted_exactly():
    # there are (1/m) sum_{d | m} mu(d) p^(m/d) monic irreducibles of degree m
    # over GF(p) (Lidl-Niederreiter, Finite Fields, Thm 3.25): the predicate
    # finds exactly that many among all p^m monic candidates
    pairs = prime_powers(3000)
    assert len(pairs) == 36
    for p, m in pairs:
        expected = sum(mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0)
        found = sum(gf._poly_is_irreducible(c, p) for c in product(range(p), repeat=m))
        assert m * found == expected, (p, m)


def test_is_prime_equals_trial_division_below_10_5():
    sieve = bytearray([1]) * 10**5
    sieve[0] = sieve[1] = 0
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, 10**5, d)))
    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if sieve[n]]


def test_is_prime_decides_large_inputs_at_once():
    # strong pseudoprimes to the first 4 and the first 9 prime bases, a
    # semiprime of two primes near 10^9, and primes near 2^64
    assert not any(is_prime(n) for n in (3215031751, 3825123056546413051,
                                         1000000007 * 1000000009))
    assert all(is_prime(n) for n in (1000000007, 1000000000000000003, 2**61 - 1,
                                     2**64 - 59))
    with pytest.raises(ValueError):
        is_prime(gf._WITNESS_LIMIT)  # the least strong pseudoprime to all 12 bases


# -- the codings of sparse linear algebra -----------------------------------------


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (37, 1), (2, 3), (3, 2), (13, 2)])
def test_coding_agrees_with_scalar_arithmetic_on_every_pair(p, m):
    f = field_create(p, m)
    coding = f.coding
    units = [x for x in f.elements() if x]
    enc = {x: coding.encode(x) for x in units}
    # encode/decode round-trip, one code per element
    assert all(coding.decode(c) == x for x, c in enc.items())
    assert len(set(enc.values())) == len(units)
    assert coding.decode(coding.one) == f.one
    # -1 = g^half
    assert coding.decode(coding.half) == -f.one
    for x in units:
        cx = enc[x]
        # normalize: the pivot becomes one and the rest is divided by x
        assert coding.normalize({0: cx, 1: enc[f.one]}, cx) == {
            0: coding.one, 1: enc[x.inverse()]}
        for y in units:
            cy = enc[y]
            # multiply: into an empty row, row -= x * y leaves -(x * y)
            row = {}
            coding.step(row, cx, {0: cy})
            assert row == {0: enc[-(x * y)]}
            # subtract, with the zero sentinel where x == y
            row = {0: cx}
            coding.step(row, cy, {0: coding.one})
            assert row == ({0: enc[x - y]} if x != y else {})
            # a full row step: (x, y, 0) -= y * (0, x, 1)
            row = {0: cx, 1: cy}
            coding.step(row, cy, {1: cx, 2: coding.one})
            want = {0: x, 1: y - y * x, 2: -y}
            assert row == {k: enc[v] for k, v in want.items() if v}


def test_fields_are_limited_to_2_16_elements():
    # every field is log-coded, so the table limit bounds the fields
    assert field_create(65521).cardinality == 65521
    for p, m in [(257, 2), (2, 17), (65537, 1)]:
        with pytest.raises(FieldError, match="2\\^16"):
            field_create(p, m)


@pytest.mark.parametrize("p, m, g", [(37, 1, 2), (13, 2, [2, 1]), (2, 3, [0, 1, 0]),
                                     (65521, 1, 17)])
def test_primitive_element_pinned(p, m, g):
    # the smallest generator in counting order, as found before the tables
    f = field_create(p, m)
    assert f.primitive_element() == f.scalar(g)


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (37, 1), (2, 3), (3, 2), (13, 2)])
def test_tables_agree_with_schoolbook_arithmetic_on_every_pair(p, m):
    # mul, inv and pow read the log tables; _raw_mul multiplies polynomials
    # modulo the field's modulus and never reads a table
    f = field_create(p, m)
    elems = list(f.elements())
    for x in elems:
        for y in elems:
            assert (x * y).v == f._raw_mul(x.v, y.v)
        if x:
            assert f._raw_mul(x.inverse().v, x.v) == f.one.v
            assert f.pow(x, -1) == x.inverse()
        power = f.one.v
        for e in range(2 * f.cardinality):
            assert f.pow(x, e).v == power
            power = f._raw_mul(power, x.v)
