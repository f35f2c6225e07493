import random
from fractions import Fraction

import pytest
from oracles import compose_transports, monodromy

from stabfold.exterior import (
    Cochain,
    add_term,
    first_subscript_sum,
    generator_mask,
    internal_degree,
    parse_monomial,
)
from stabfold.gf import field_create, primitive_root_of_unity
from stabfold.kummer import (
    FixedLayer,
    KummerConnection,
    core_homogeneity,
    solve_h_diagonal,
)
from stabfold.ravenel import build_deformed


def test_sigma_parameters():
    conn = KummerConnection.sigma(3)
    assert conn.params[generator_mask(1, 1, 3).bit_length() - 1] == Fraction(-1, 3)
    assert conn.params[generator_mask(3, 2, 3).bit_length() - 1] == Fraction(-1)
    assert conn.denominator == 3
    assert all(f <= 0 for f in conn.params.values())


def test_semilinear_parameters_reduce_to_common_denominator():
    for n, p in [(2, 5), (3, 7)]:
        conn = KummerConnection.semilinear(n, p)
        d = (p**n - 1) // (p - 1)
        assert conn.denominator == d
        assert all(f < 0 for f in conn.params.values())


def test_monomial_parameter_additive():
    rng = random.Random(71)
    conn = KummerConnection.semilinear(3, 7)
    for _ in range(100):
        sa = rng.sample(range(9), rng.randint(0, 4))
        sb = [s for s in range(9) if s not in sa][: rng.randint(0, 3)]
        ma = sum(1 << s for s in sa)
        mb = sum(1 << s for s in sb)
        assert conn.monomial_parameter(ma | mb) == conn.monomial_parameter(
            ma
        ) + conn.monomial_parameter(mb)


def test_monodromy_eigenvalues_sigma_n2():
    f = field_create(5)
    conn = KummerConnection.sigma(2)
    T = monodromy(conn, f, f.scalar(-1))
    minus = -f.one
    for j in (1, 2):
        assert T.eigenvalue(generator_mask(1, j, 2)) == minus
        assert T.eigenvalue(generator_mask(2, j, 2)) == f.one


def test_monodromy_rejects_wrong_order():
    f = field_create(5)
    conn = KummerConnection.sigma(2)
    with pytest.raises(ValueError):
        monodromy(conn, f, f.one)
    conn3 = KummerConnection.sigma(3)
    with pytest.raises(ValueError):
        monodromy(conn3, f, f.scalar(-1))


def test_monodromy_power_is_identity_and_dga_automorphism():
    rng = random.Random(73)
    f = field_create(7)
    conn = KummerConnection.sigma(3)
    w = primitive_root_of_unity(f, 3)
    T = monodromy(conn, f, w)
    for eps in (0, 1, 3):
        cx = build_deformed(3, 7, f, eps)
        monos = [m for s in range(5) for m in cx.basis(s)]
        for _ in range(25):
            z = Cochain(3, {rng.choice(monos): f.scalar(rng.randrange(1, 7))})
            zz = z
            for _ in range(conn.denominator):
                zz = T.apply(zz)
            assert zz == z
            # T is a DGA automorphism of every fiber, the singular one included
            assert T.apply(cx.d_cochain(z)) == cx.d_cochain(T.apply(z))


def test_fixed_masks_sigma_is_fsc():
    for n in (2, 3, 4):
        conn = KummerConnection.sigma(n)
        fixed = conn.fixed_masks()
        expected = {
            m for m in range(1 << (n * n)) if first_subscript_sum(m, n) == 0
        }
        assert set(fixed) == expected


def test_fixed_masks_semilinear_is_critical():
    for n, p in [(1, 5), (2, 5), (2, 11), (3, 7), (3, 19)]:
        conn = KummerConnection.semilinear(n, p)
        fixed = conn.fixed_masks()
        expected = {
            m for m in range(1 << (n * n)) if internal_degree(m, n, p) == 0
        }
        assert set(fixed) == expected


def _mixed_connection(n):
    # denominators up to 4 by generator (D = 6 at n = 2, 12 at n = 3) and
    # parameters of both signs
    return KummerConnection.custom(n, {
        (i, j): Fraction(i * i - 3 * j, 2 + (i + j) % 3)
        for i in range(1, n + 1) for j in range(1, n + 1)})


@pytest.mark.parametrize("conn", [
    KummerConnection.sigma(1), KummerConnection.sigma(2), KummerConnection.sigma(3),
    KummerConnection.sigma(4), KummerConnection.semilinear(2, 5),
    KummerConnection.semilinear(3, 7), _mixed_connection(2), _mixed_connection(3),
], ids=["sigma1", "sigma2", "sigma3", "sigma4", "semilinear2-5", "semilinear3-7",
        "custom2", "custom3"])
def test_fixed_masks_are_the_integral_parameters_on_every_monomial(conn):
    # exhaustive over all 2^(n^2) monomials, against the Fraction sum of
    # monomial_parameter; the list is strictly ascending
    n = conn.n
    fixed = conn.fixed_masks()
    assert all(a < b for a, b in zip(fixed, fixed[1:]))
    assert set(fixed) == {m for m in range(1 << (n * n))
                          if conn.monomial_parameter(m).denominator == 1}


def test_transport_counts_sigma_n2_f5():
    f = field_create(5)
    # ratio 1 has the two square roots +-1
    ts = solve_h_diagonal(2, f, 1, 1, mode="sigma")
    assert len(ts) == 2
    # ratio 2 is not a square mod 5
    assert solve_h_diagonal(2, f, 1, 2, mode="sigma") == []
    # ratio 4 has roots 2, 3
    assert len(solve_h_diagonal(2, f, 1, 4, mode="sigma")) == 2


def test_transport_counts_all_mode_n2_f5():
    f = field_create(5)
    ts = solve_h_diagonal(2, f, 1, 1, mode="all")
    assert len(ts) == 4  # x_1 free in F_5^x, x_2 = 1/x_1


def test_transport_counts_sigma_n3_f19():
    f = field_create(19)
    from stabfold.gf import nth_roots

    for delta in (1, 2, 3):
        expected = len(nth_roots(f, f.scalar(delta), 3))
        got = solve_h_diagonal(3, f, 1, delta, mode="sigma")
        assert len(got) == expected


def test_transport_semilinear_mode():
    f = field_create(5, 2)
    # q = 5: the norm-like exponent is (25-1)/(5-1) = 6
    ts = solve_h_diagonal(2, f, 1, 1, mode="semilinear", q=5)
    assert len(ts) == 6
    for t in ts:
        assert t.xs[1] == f.pow(t.xs[0], 5)


def test_transports_are_listed_by_the_coordinates_of_their_root():
    # over GF(p^2) the roots sort as coordinate pairs (c_0, c_1), which is not
    # the order of their indices c_0 + p c_1
    def roots(n, p, **mode):
        ts = solve_h_diagonal(n, field_create(p, 2), 1, 1, **mode)
        return [t.zeta.coordinates() for t in ts]

    assert roots(4, 3, mode="sigma") == [(0, 1), (0, 2), (1, 0), (2, 0)]
    assert roots(2, 5, mode="semilinear", q=5) == [
        (1, 0), (2, 1), (2, 4), (3, 1), (3, 4), (4, 0)]


def test_transport_torsor_composition():
    f = field_create(19)
    t1 = solve_h_diagonal(3, f, 1, 8, mode="sigma")[0]
    t2 = solve_h_diagonal(3, f, 8, 8 * 8 % 19, mode="sigma")[0]
    t12 = compose_transports(t1, t2)
    assert t12.zeta == t1.zeta * t2.zeta
    for s, sc in t12.scalars.items():
        assert sc == t1.scalars[s] * t2.scalars[s]


def test_core_n1_fixture():
    # height 1, sigma flavor: core basis {1, x h[1,1]}
    f = field_create(5)
    layer = FixedLayer(KummerConnection.sigma(1), f)
    assert layer.basis(0) == [0]
    assert layer.basis(1) == [generator_mask(1, 1, 1)]
    assert layer.alpha[generator_mask(1, 1, 1)] == -1
    assert layer.alpha[0] == 0
    assert layer.closed
    assert core_homogeneity(layer)["holds"]


def test_core_n3_sigma_shifts():
    # core generated by x h[3,j], x k[i,j], x L1, x^2 L2
    f = field_create(7)
    layer = FixedLayer(KummerConnection.sigma(3), f)
    for j in (1, 2, 3):
        assert layer.alpha[generator_mask(3, j, 3)] == -1
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            kij = generator_mask(1, i, 3) | generator_mask(2, j, 3)
            assert layer.alpha[kij] == -1
    _, l1 = parse_monomial("h[1,1]h[1,2]h[1,3]", 3)
    _, l2 = parse_monomial("h[2,1]h[2,2]h[2,3]", 3)
    assert layer.alpha[l1] == -1
    assert layer.alpha[l2] == -2
    assert layer.closed


def test_core_homogeneity_sigma_holds_n2_n3():
    for n, p in [(2, 11), (3, 7), (3, 19)]:
        f = field_create(p)
        layer = FixedLayer(KummerConnection.sigma(n), f)
        assert layer.closed
        assert core_homogeneity(layer)["holds"]


def test_core_homogeneity_semilinear_n3_fails_on_degree_one():
    f = field_create(7)
    layer = FixedLayer(KummerConnection.semilinear(3, 7), f)
    out = core_homogeneity(layer)
    assert not out["holds"]
    # the earliest witness sits among the degree-1 core generators h~[3,j]
    assert out["witness"]["source"].startswith("h[3,")


def test_core_semilinear_n2_closed_but_inhomogeneous():
    # at height 2 the fixed basis agrees for both flavors and the semilinear
    # core is still closed, but d(h~[2,2]) already jumps x-valuation
    f = field_create(11)
    layer = FixedLayer(KummerConnection.semilinear(2, 11), f)
    assert layer.closed
    out = core_homogeneity(layer)
    assert not out["holds"]
    assert out["witness"]["source"] == "h[2,2]"


def test_core_evaluation_at_one_matches_fixed_fiber():
    f = field_create(7)
    layer = FixedLayer(KummerConnection.sigma(3), f)
    fiber = build_deformed(3, 7, f, 1)
    for s in range(10):
        for m in layer.basis(s):
            # the core at x = 1: every term, whatever its exponent
            at_one = {}
            for t, c, _e in layer.d_triples(m):
                add_term(at_one, t, c)
            assert at_one == fiber.d_monomial(m)


def test_medial_n1_filtration_table():
    f = field_create(5)
    layer = FixedLayer(KummerConnection.sigma(1), f)
    h = generator_mask(1, 1, 1)
    # fil(x^w b) = w + alpha(b)
    assert 0 + layer.alpha[h] == -1
    assert 0 + layer.alpha[0] == 0
    assert 1 + layer.alpha[h] == 0
    gr_minus1 = layer.gr_basis(-1)
    assert gr_minus1 == {1: [(h, 0)]}
    gr0 = layer.gr_basis(0)
    assert gr0 == {0: [(0, 0)], 1: [(h, 1)]}
    gr1 = layer.gr_basis(1)
    assert gr1 == {0: [(0, 1)], 1: [(h, 2)]}
    assert min(layer.alpha.values()) == -1


def test_medial_n2_weight_preserving():
    f = field_create(11)
    layer = FixedLayer(KummerConnection.sigma(2), f)
    assert layer.homogeneity_witness() is None
    # basis = first-subscript monomials, every cohomological degree
    for s in range(5):
        assert layer.basis(s) == [
            m for m in build_deformed(2, 11, f, 0).basis(s)
            if first_subscript_sum(m, 2) == 0
        ]


def test_fixed_layer_refuses_a_differential_that_leaves_the_fixed_basis():
    # h[1,2] = 1/2 and the rest 0: h[2,1] is fixed, but d(h[2,1]) reaches
    # h[1,1]h[1,2], whose parameter 1/2 is not integral
    conn = KummerConnection.custom(2, {(1, 1): 0, (2, 1): 0, (2, 2): 0,
                                       (1, 2): Fraction(1, 2)})
    with pytest.raises(ValueError, match=r"d\(h\[2,1\]\) reaches h\[1,1\]h\[1,2\]"):
        FixedLayer(conn, field_create(11))


def test_fixed_fiber_betti_equality_holds_at_n2_only():
    """At n=2 the fixed subcomplexes of the two fibers have equal cohomology
    (they coincide with the critical complex); at n=3 they provably do not
    (56 against 8, confirmed independently over Q), even though the sigma
    core is strictly homogeneous: FSC at eps = 0 is not the x = 0 fiber of
    the core.  CHANGES.md, "Criterion 8 localization", records the cause.
    Pinned so regressions surface."""
    from stabfold.homology import betti
    from stabfold.ravenel import build_singular, subcomplex

    f11 = field_create(11)
    t0 = betti(subcomplex(build_singular(2, 11, f11), "fsc"))
    t1 = betti(subcomplex(build_deformed(2, 11, f11, 1), "fsc"))
    assert t0.totals_by_degree() == t1.totals_by_degree()

    f19 = field_create(19)
    t0 = betti(subcomplex(build_singular(3, 19, f19), "fsc"))
    assert t0.totals_by_degree() == {
        0: 1, 1: 1, 2: 6, 3: 13, 4: 7, 5: 7, 6: 13, 7: 6, 8: 1, 9: 1
    }
    assert t0.grand_total() == 56
    t1 = betti(subcomplex(build_deformed(3, 19, f19, 1), "fsc"))
    assert t1.grand_total() == 8


def test_custom_connection_roundtrip_json():
    conn = KummerConnection.custom(
        2, {(i, j): Fraction(-i, 2) for i in (1, 2) for j in (1, 2)}
    )
    js = conn.to_json()
    assert js["flavor"] == "custom"
    assert len(js["params"]) == 4
    assert {(e["i"], e["j"]) for e in js["params"]} == {
        (1, 1), (1, 2), (2, 1), (2, 2)
    }
