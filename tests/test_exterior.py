import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    angle_bracket,
    reduced_internal_degree,
    sigma_shift_oracle,
    tau_oracle,
    wedge_sign_oracle,
)
from splits import cyclic_orbits, dihedral

from stabfold.exterior import (
    degree,
    first_subscript_sum,
    format_monomial,
    generator_mask,
    internal_degree,
    parse_monomial,
    sigma_power,
    slots_of,
    split_join,
    wedge,
)


def gm(i, j, n):
    return generator_mask(i, j, n)


def test_wedge_square_free():
    n = 3
    a = gm(1, 1, n)
    assert wedge(a, a) is None


def test_wedge_single_transposition():
    n = 3
    a, b = gm(1, 1, n), gm(2, 1, n)
    assert wedge(a, b) == (1, a | b)
    assert wedge(b, a) == (-1, a | b)


def test_wedge_against_permutation_parity_oracle():
    rng = random.Random(19)
    n = 3
    for _ in range(300):
        slots_a = rng.sample(range(n * n), rng.randint(0, 4))
        slots_b = rng.sample(range(n * n), rng.randint(0, 4))
        # bring each side into canonical order first (a monomial is stored sorted)
        sa = sorted(slots_a)
        sb = sorted(slots_b)
        ma = sum(1 << s for s in sa)
        mb = sum(1 << s for s in sb)
        expected = wedge_sign_oracle(sa, sb)
        got = wedge(ma, mb)
        if expected is None:
            assert got is None
        else:
            assert got == (expected, ma | mb)


def test_wedge_graded_commutative():
    rng = random.Random(23)
    n = 4
    for _ in range(200):
        ma = sum(1 << s for s in rng.sample(range(n * n), rng.randint(0, 5)))
        mb = sum(1 << s for s in rng.sample(range(n * n), rng.randint(0, 5)))
        ab = wedge(ma, mb)
        ba = wedge(mb, ma)
        if ab is None:
            assert ba is None
            continue
        sign = -1 if (degree(ma) * degree(mb)) % 2 else 1
        assert ba == (sign * ab[0], ab[1])


def test_wedge_associative():
    rng = random.Random(29)
    n = 3
    for _ in range(200):
        masks = []
        for _ in range(3):
            masks.append(sum(1 << s for s in rng.sample(range(n * n), rng.randint(0, 3))))
        a, b, c = masks

        def w(x, y):
            return wedge(x, y)

        ab = w(a, b)
        left = None if ab is None else w(ab[1], c)
        if left is not None:
            left = (ab[0] * left[0], left[1])
        bc = w(b, c)
        right = None if bc is None else w(a, bc[1])
        if right is not None:
            right = (bc[0] * right[0], right[1])
        assert left == right


def test_internal_degree_examples():
    assert internal_degree(0, 2, 11) == 0
    # n=2, p=11: |h[1,1]| = 2*10*11 = 220 mod 240
    assert internal_degree(gm(1, 1, 2), 2, 11) == 220
    # additivity
    n, p = 3, 19
    m1, m2 = gm(1, 1, n), gm(2, 2, n)
    mod = 2 * (p**n - 1)
    assert (
        internal_degree(m1 | m2, n, p)
        == (internal_degree(m1, n, p) + internal_degree(m2, n, p)) % mod
    )


def test_reduced_internal_degree_examples():
    assert reduced_internal_degree(0, 2, 5) == 0
    assert reduced_internal_degree(gm(1, 1, 2), 2, 5) == 5
    # h[1,1]h[1,2]: 5 + 25 = 30 = 0 mod 6, so the monomial is critical
    m = gm(1, 1, 2) | gm(1, 2, 2)
    assert reduced_internal_degree(m, 2, 5) == 0
    # cross-check: internal degree divisible by 2(p^2-1)
    assert internal_degree(m, 2, 5) == 0


def test_gradings_additive_random():
    rng = random.Random(31)
    n, p = 3, 7
    mod_i = 2 * (p**n - 1)
    mod_r = (p**n - 1) // (p - 1)
    for _ in range(200):
        sa = rng.sample(range(n * n), rng.randint(0, 4))
        sb = [s for s in range(n * n) if s not in sa][: rng.randint(0, 3)]
        ma = sum(1 << s for s in sa)
        mb = sum(1 << s for s in sb)
        m = ma | mb
        assert internal_degree(m, n, p) == (
            internal_degree(ma, n, p) + internal_degree(mb, n, p)
        ) % mod_i
        assert reduced_internal_degree(m, n, p) == (
            reduced_internal_degree(ma, n, p) + reduced_internal_degree(mb, n, p)
        ) % mod_r
        ta = angle_bracket(ma, n)
        tb = angle_bracket(mb, n)
        assert angle_bracket(m, n) == tuple(x + y for x, y in zip(ta, tb))


def test_angle_bracket_height3_fixtures():
    n = 3
    # h[1,0] normalizes to h[1,3]
    assert angle_bracket(gm(1, 0, n), n) == (-1, 1, 0)
    assert angle_bracket(gm(2, 1, n), n) == (1, -1, 0)
    assert angle_bracket(gm(1, 0, n) | gm(2, 1, n), n) == (0, 0, 0)


def test_first_subscript_sum():
    n = 3
    assert first_subscript_sum(gm(1, 0, n) | gm(2, 0, n), n) == 0
    n = 4
    m = gm(2, 0, n) | gm(2, 1, n) | gm(3, 0, n) | gm(3, 1, n)
    assert first_subscript_sum(m, n) == 2
    assert first_subscript_sum(0, 5) == 0


def test_first_subscript_recovered_from_angle_bracket():
    rng = random.Random(37)
    for n in (2, 3, 4):
        for _ in range(100):
            m = sum(1 << s for s in rng.sample(range(n * n), rng.randint(0, n * n)))
            t = angle_bracket(m, n)
            assert first_subscript_sum(m, n) == sum(k * a for k, a in enumerate(t)) % n


def test_zero_internal_degree_forces_zero_angle_bracket_for_large_p():
    # exhaustive for n <= 3 with p > 2n^2; spot-checked at n = 4
    for n, p in [(2, 11), (3, 19)]:
        for m in range(1 << (n * n)):
            if internal_degree(m, n, p) == 0:
                assert angle_bracket(m, n) == (0,) * n
    rng = random.Random(41)
    n, p = 4, 37
    for _ in range(20000):
        m = rng.randrange(1 << 16)
        if internal_degree(m, n, p) == 0:
            assert angle_bracket(m, n) == (0,) * n


def test_parse_and_format_roundtrip():
    n = 3
    sign, mask = parse_monomial("h[1,3]h[2,1]", n)
    assert sign == 1
    assert format_monomial(mask, n) == "h[1,3]h[2,1]"
    # written out of order picks up the reordering sign
    sign2, mask2 = parse_monomial("h[2,1]h[1,3]", n)
    assert mask2 == mask and sign2 == -1
    # j = 0 is accepted and normalized to j = n
    sign3, mask3 = parse_monomial("h[1,0]", n)
    assert sign3 == 1 and format_monomial(mask3, n) == "h[1,3]"
    assert parse_monomial("1", n) == (1, 0)
    with pytest.raises(ValueError):
        parse_monomial("h[1,1]h[1,1]", n)
    with pytest.raises(ValueError):
        parse_monomial("junk", n)


def test_sigma_shift_cyclic():
    n = 3
    sigma_shift = sigma_power(n, 1)
    s, m = sigma_shift(gm(1, n, n))
    assert (s, m) == (1, gm(1, 1, n))
    # sigma^n is the identity on any monomial, with total sign +1
    rng = random.Random(43)
    for _ in range(100):
        m0 = sum(1 << s for s in rng.sample(range(n * n), rng.randint(0, 5)))
        m, sign = m0, 1
        for _ in range(n):
            s, m = sigma_shift(m)
            sign *= s
        assert m == m0 and sign == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sigma_shift_matches_the_sort_oracle_on_every_monomial(n):
    # the row tables against a bubble sort of the shifted slot list
    sigma_shift = sigma_power(n, 1)
    for mask in range(1 << (n * n)):
        assert sigma_shift(mask) == sigma_shift_oracle(mask, n), mask


@pytest.mark.parametrize("reflect", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_dihedral_element_matches_the_sort_oracle_on_every_monomial(n, reflect):
    # σ^a (the package's exterior.sigma_power) and σ^a τ (the row tables of
    # the split cross-checks), a = 0 .. n - 1, against the bubble sort of the
    # image slots; a and a + n name one element
    for a in range(n):
        act = dihedral(n, a, reflect)
        assert dihedral(n, a + n, reflect) is act
        if not reflect:
            assert act is sigma_power(n, a)
        for mask in range(1 << (n * n)):
            assert act(mask) == tau_oracle(mask, n, a, reflect), (a, mask)


def compose(*acts):
    """The signed map m -> acts[0](acts[1](...(m))) on monomials."""
    def composite(mask):
        sign = 1
        for act in reversed(acts):
            flip, mask = act(mask)
            sign *= flip
        return sign, mask
    return composite


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tau_is_an_involution_reversing_sigma_on_every_monomial(n):
    # τ^2 = 1 and τ σ = σ^(-1) τ, signs included, in the tables and in the
    # oracle
    tau, sigma, back = dihedral(n, 0, True), dihedral(n, 1), dihedral(n, -1)
    for mask in range(1 << (n * n)):
        assert compose(tau, tau)(mask) == (1, mask)
        assert compose(tau, sigma)(mask) == compose(back, tau)(mask)
        sign, image = tau_oracle(mask, n)
        assert tau_oracle(image, n) == (sign, mask)
        # σ^a τ is σ^a after τ
        assert compose(sigma, tau)(mask) == dihedral(n, 1, True)(mask)


def test_sigma_orbits_of_the_degree_2_monomials_at_n2():
    # h[1,1]h[1,2] and h[2,1]h[2,2] are fixed up to the sign -1 (σ swaps
    # the two generators of a row), the other four monomials of degree 2
    # form two orbits of size 2
    n = 2
    masks = sorted((1 << a) | (1 << b) for a in range(4) for b in range(a + 1, 4))
    sigma_shift = sigma_power(n, 1)
    orbits, where = cyclic_orbits(masks, sigma_shift)
    h = {(i, j): gm(i, j, n) for i in (1, 2) for j in (1, 2)}
    assert orbits == [(h[1, 1] | h[1, 2], 1, -1), (h[1, 1] | h[2, 1], 2, 1),
                      (h[1, 2] | h[2, 1], 2, 1), (h[2, 1] | h[2, 2], 1, -1)]
    assert sorted(where) == masks
    for t, (o, j, sign) in where.items():
        r = orbits[o][0]
        for _ in range(j):
            flip, r = sigma_shift(r)
            sign *= flip
        assert r == t and sign == 1
    with pytest.raises(ValueError, match="onto themselves"):
        cyclic_orbits([h[1, 1]], sigma_shift)


def test_slots_canonical_order():
    n = 3
    m = gm(2, 1, n) | gm(1, 2, n) | gm(1, 1, n)
    assert slots_of(m, n) == [(1, 1), (1, 2), (2, 1)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_split_join_equals_the_double_loop(lo_bits, hi_bits, data):
    # every (lo, hi) pair with equal keys, in ascending mask order, against a
    # double loop over all pairs
    keys = st.integers(0, 3)
    lo_keys = data.draw(st.lists(keys, min_size=1 << lo_bits, max_size=1 << lo_bits))
    hi_keys = data.draw(st.lists(keys, min_size=1 << hi_bits, max_size=1 << hi_bits))
    expected = []
    for hi, hk in enumerate(hi_keys):
        for lo, lk in enumerate(lo_keys):
            if lk == hk:
                expected.append(hi << lo_bits | lo)
    assert split_join(lo_keys, hi_keys, lo_bits) == sorted(expected)
