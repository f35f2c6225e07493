import random

import pytest

from stabfold.exterior import (
    Cochain,
    degree,
    first_subscript_sum,
    format_monomial,
    generator_mask,
    internal_degree,
    internal_weights,
    parse_monomial,
    reduced_weights,
)
from stabfold.gf import Poly, field_create
from stabfold import ravenel
from stabfold.ravenel import (
    BUNDLE,
    KRONECKER_BASE,
    build_bundle,
    build_deformed,
    build_gl,
    build_singular,
    ClosureError,
    containment_report,
    dd_zero_exhaustive,
    dims_by_class,
    generator_pair_table,
    integer_d,
    kronecker_digits,
    sigma_apply,
    subcomplex,
)

from oracles import flipped_sign_table, gl_ce_differential


def test_n1_zero_differential():
    f = field_create(3)
    cx = build_deformed(1, 3, f, 1)
    assert cx.d_monomial(generator_mask(1, 1, 1)) == {}


def test_n2_singular_differential():
    f = field_create(11)
    cx = build_singular(2, 11, f)
    d = cx.d_monomial(generator_mask(2, 1, 2))
    assert d == {generator_mask(1, 1, 2) | generator_mask(1, 2, 2): f.one}
    # degree-1 generators are cocycles at eps = 0
    assert cx.d_monomial(generator_mask(1, 1, 2)) == {}


def test_bundle_differential_against_direct_expansion():
    # independent expansion of the defining formula, monomial by monomial
    from stabfold.exterior import normalize_j, wedge

    f = field_create(5)
    n = 2
    cx = build_bundle(n, 5, f)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            expected = {}
            for ell in range(1, n + 1):
                a = generator_mask(ell, j, n)
                i2 = i - ell if ell < i else i - ell + n
                b = generator_mask(i2, normalize_j(j + ell, n), n)
                if a == b:
                    continue
                w = wedge(a, b)
                from stabfold.gf import Poly

                c = Poly.const(f, w[0]) if ell < i else Poly.x_power(f, 1, w[0])
                expected[w[1]] = expected.get(w[1], Poly(f, [])) + c
            expected = {m: c for m, c in expected.items() if c}
            assert cx.d_monomial(generator_mask(i, j, n)) == expected


def test_dd_zero_exhaustive_small():
    for n, p, eps in [(2, 11, 0), (2, 11, 1), (3, 19, 0), (3, 19, 1), (3, 19, 7)]:
        f = field_create(p)
        cx = build_deformed(n, p, f, eps)
        for s in range(cx.top_degree + 1):
            for mask in cx.basis(s):
                acc = {}
                for t, c in cx.d_monomial(mask).items():
                    for t2, c2 in cx.d_monomial(t).items():
                        acc[t2] = acc.get(t2, f.zero) + c2 * c
                assert not any(acc.values()), (n, p, eps, mask)


def test_dd_zero_bundle_n3():
    f = field_create(19)
    cx = build_bundle(3, 19, f)
    for s in range(cx.top_degree + 1):
        for mask in cx.basis(s):
            z = Cochain(3, {mask: cx.ring_one})
            assert not cx.d_cochain(cx.d_cochain(z))


def test_graded_leibniz_random():
    rng = random.Random(17)
    f = field_create(19)
    for eps in (0, 1, 5):
        cx = build_deformed(3, 19, f, eps)
        monos = [m for s in range(4) for m in cx.basis(s)]
        for _ in range(40):
            ma, mb = rng.choice(monos), rng.choice(monos)
            a = Cochain(3, {ma: cx.ring_one})
            b = Cochain(3, {mb: cx.ring_one})
            ab = a.wedge(b, cx.ring_one)
            lhs = cx.d_cochain(ab)
            da_b = cx.d_cochain(a).wedge(b, cx.ring_one)
            a_db = a.wedge(cx.d_cochain(b), cx.ring_one)
            if degree(ma) % 2:
                rhs = da_b - a_db
            else:
                rhs = da_b + a_db
            assert lhs == rhs


def test_gl_matches_deformed_at_one():
    f = field_create(7)
    gl = build_gl(2, f, 7)
    sm = build_deformed(2, 7, f, 1)
    for s in range(5):
        for mask in gl.basis(s):
            assert gl.d_monomial(mask) == sm.d_monomial(mask)


@pytest.mark.parametrize("n,p,m", [(2, 7, 1), (3, 7, 1), (4, 7, 1), (4, 13, 2)])
def test_gl_differential_matches_bracket_oracle(n, p, m):
    f = field_create(p, m)
    gl = build_gl(n, f, p)
    for gslot, dxi in gl_ce_differential(n).items():
        expected = {mask: f.scalar(c) for mask, c in dxi.items() if f.scalar(c)}
        assert gl.d_monomial(1 << gslot) == expected, format_monomial(1 << gslot, n)


def _direct_bundle_d(n, f):
    """d over F[x] of every monomial, expanded from the defining formula by
    d(g m) = d(g) m - g d(m) on the lowest generator g."""
    from stabfold.exterior import normalize_j

    one = Poly.const(f, 1)
    gen_d = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            z = Cochain(n, {})
            for ell in range(1, n + 1):
                a = generator_mask(ell, j, n)
                i2 = i - ell if ell < i else i - ell + n
                b = generator_mask(i2, normalize_j(j + ell, n), n)
                c = one if ell < i else Poly.x_power(f, 1)
                z = z + Cochain(n, {a: c}).wedge(Cochain(n, {b: one}), one)
            gen_d[generator_mask(i, j, n)] = z
    d = {0: Cochain(n, {})}
    for mask in range(1, 1 << (n * n)):
        g = mask & -mask
        rest = Cochain(n, {mask ^ g: one})
        d[mask] = (gen_d[g].wedge(rest, one)
                   - Cochain(n, {g: one}).wedge(d[mask ^ g], one))
    return d


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_bundle_and_fibers_against_direct_expansion_every_monomial(n, p):
    f = field_create(p)
    direct = _direct_bundle_d(n, f)
    bundle = build_bundle(n, p, f)
    fibers = {e: build_deformed(n, p, f, e) for e in (0, 1, 2)}
    for mask, z in direct.items():
        assert bundle.d_monomial(mask) == z.terms, format_monomial(mask, n)
        for e, fiber in fibers.items():
            at_e = {t: c.evaluate(f.scalar(e)) for t, c in z.terms.items()}
            assert fiber.d_monomial(mask) == {t: c for t, c in at_e.items() if c}


def test_kronecker_digits_are_the_eps_grading():
    # d at eps = B, read in balanced base B, is c0 + eps * c1 at every integer eps
    table = generator_pair_table(3)
    for mask in range(1 << 9):
        graded = {t: kronecker_digits(v, 2)
                  for t, v in integer_d(table, mask, KRONECKER_BASE).items()}
        for e in (0, 1, 2, -3):
            direct = {t: c for t, c in integer_d(table, mask, e).items() if c}
            assert direct == {t: c0 + e * c1 for t, (c0, c1) in graded.items()
                              if c0 + e * c1}
    assert kronecker_digits(-5 + 7 * KRONECKER_BASE - 3 * KRONECKER_BASE**2, 3) == [-5, 7, -3]


def test_dd_zero_scan_catches_a_flipped_sign(monkeypatch):
    assert dd_zero_exhaustive(2, [11])["ok"]
    real = generator_pair_table
    faulty = flipped_sign_table(real(2))  # an eps term of d(h[1,1])
    monkeypatch.setattr(ravenel, "generator_pair_table",
                        lambda n: faulty if n == 2 else real(n))
    rep = dd_zero_exhaustive(2, [11])
    assert not rep["ok"] and rep["failures"]
    assert rep["bad"][(11, 0)] == 0
    assert rep["bad"][(11, 1)] > 0 and rep["bad"][(11, "x")] > 0


@pytest.mark.parametrize("n,p", [(2, 5), (3, 7), (4, 13), (4, 37)])
def test_reduced_grading_zero_iff_internal_class_zero(n, p):
    # every monomial: reduced internal degree 0 <=> internal class 0, so the
    # critical complex has the same basis under either grading
    w, mod = internal_weights(n, p)
    rw, rmod = reduced_weights(n, p)
    for mask in range(1 << (n * n)):
        u = r = 0
        mm = mask
        while mm:
            low = mm & -mm
            b = low.bit_length() - 1
            u += w[b]
            r += rw[b]
            mm ^= low
        assert (r % rmod == 0) == (u % mod == 0), format_monomial(mask, n)


def test_gl3_dd_zero_all_512():
    f = field_create(7)
    gl = build_gl(3, f, 7)
    checked = 0
    for s in range(10):
        for mask in gl.basis(s):
            acc = {}
            for t, c in gl.d_monomial(mask).items():
                for t2, c2 in gl.d_monomial(t).items():
                    acc[t2] = acc.get(t2, f.zero) + c2 * c
            assert not any(acc.values())
            checked += 1
    assert checked == 512


def test_subcomplex_dims():
    f = field_create(11)
    cx = build_deformed(2, 11, f, 1)
    assert subcomplex(cx, "critical").dim() == 8
    assert subcomplex(cx, "fsc").dim() == 8
    f19 = field_create(19)
    cx3 = build_singular(3, 19, f19)
    assert subcomplex(cx3, "critical").dim() == 80
    assert subcomplex(cx3, "fsc").dim() == 176


def _assert_closed(sub) -> int:
    """d of every member of sub stays in sub; returns the member count."""
    members = 0
    for s in range(sub.top_degree + 1):
        for mask in sub.basis(s):
            for tgt in sub.d_monomial(mask):
                assert sub.contains(tgt), (sub, format_monomial(mask, sub.n))
            members += 1
    return members


@pytest.mark.parametrize("n,p", [(2, 11), (3, 7), (3, 19)])
def test_subcomplexes_closed_on_every_member(n, p):
    # exhaustive at n = 2, 3: critical and fsc of the ravenel fibers at
    # eps = 0 and 1, of the bundle and of gl_n; subcomplex itself checks
    # closure on the pair table only
    f = field_create(p)
    fulls = [build_singular(n, p, f), build_deformed(n, p, f, 1),
             build_bundle(n, p, f), build_gl(n, f, p)]
    cc, fsc, _ = dims_by_class(n, p)
    for cx in fulls:
        assert _assert_closed(subcomplex(cx, "critical")) == cc
        assert _assert_closed(subcomplex(cx, "fsc")) == fsc


def test_critical_subcomplexes_closed_on_every_member_n4():
    # exhaustive at n = 4: gl_4 over GF(13^2), and the ravenel fibers at
    # p = 37, eps = 0 and 1; 2,432 members each
    f169, f37 = field_create(13, 2), field_create(37)
    for cx in (build_gl(4, f169, 13), build_singular(4, 37, f37),
               build_deformed(4, 37, f37, 1)):
        assert _assert_closed(subcomplex(cx, "critical")) == 2432


def test_subcomplex_certificate_catches_a_term_outside_its_class(monkeypatch):
    n, p = 3, 19
    cx = build_gl(n, field_create(p), p)
    real = ravenel.generator_pair_table
    table = real(n)
    key = cx.block_key
    # the first term of d(h[1,1]) moved onto a pair of another internal class
    pmask, sign, eps = table[0][0]
    other = next(pm for terms in table.values() for pm, _s, _e in terms
                 if key(pm) != key(pmask))
    faulty = dict(table)
    faulty[0] = [(other, sign, eps)] + table[0][1:]
    monkeypatch.setattr(ravenel, "generator_pair_table",
                        lambda m: faulty if m == n else real(m))
    for which in ("critical", "fsc"):
        with pytest.raises(ClosureError, match="internal class not preserved"):
            subcomplex(cx, which)


def test_dims_by_class_table():
    # the two dimension tables, exact for n = 1..5
    expected = {
        1: (2, 2, 2),
        2: (8, 8, 16),
        3: (80, 176, 512),
        4: (2432, 16384, 65536),
        5: (247552, 6710912, 33554432),
    }
    quotients = {
        1: (1, 1, 1),
        2: (2, 2, 4),
        3: (10, 22, 64),
        4: (152, 1024, 4096),
        5: (7736, 209716, 1048576),
    }
    primes = {1: 3, 2: 11, 3: 19, 4: 37, 5: 53}
    for n, triple in expected.items():
        got = dims_by_class(n, primes[n])
        assert got == triple
        assert tuple(x >> n for x in got) == quotients[n]


def test_containment_small_heights_hold():
    for n in (1, 2, 3):
        for p in (2, 3, 5, 7):
            assert containment_report(n, p)["holds"]


def test_containment_n4_p2_fails_with_paper_monomial_a_witness():
    rep = containment_report(4, 2)
    assert not rep["holds"]
    # the quoted degree-4 counterexample is a genuine witness, though not the
    # first one in (degree, mask) order (a degree-3 witness exists)
    _, quoted = parse_monomial("h[2,0]h[2,1]h[3,0]h[3,1]", 4)
    assert internal_degree(quoted, 4, 2) == 0
    assert first_subscript_sum(quoted, 4) != 0
    assert degree(rep["witness"]) == 3


def test_containment_n4_holds_for_odd_p():
    for p in (3, 5, 37):
        assert containment_report(4, p)["holds"]


def test_containment_n5():
    assert not containment_report(5, 2)["holds"]
    # h[2,4]h[1,4]h[4,2] is the counterexample quoted for p = 2
    _, quoted = parse_monomial("h[2,4]h[1,4]h[4,2]", 5)
    assert internal_degree(quoted, 5, 2) == 0
    assert first_subscript_sum(quoted, 5) != 0
    rep3 = containment_report(5, 3)
    assert not rep3["holds"]
    for w in rep3["witnesses"]:
        assert internal_degree(w, 5, 3) == 0
        assert first_subscript_sum(w, 5) != 0
    assert containment_report(5, 5)["holds"]


def test_sigma_cyclic_and_commutes_with_d():
    rng = random.Random(13)
    f = field_create(19)
    for eps in (0, 1, 7):
        cx = build_deformed(3, 19, f, eps)
        assert sigma_apply(cx, cx.one_cochain("h[1,3]")) == cx.one_cochain("h[1,1]")
        monos = [m for s in range(5) for m in cx.basis(s)]
        for _ in range(25):
            terms = {rng.choice(monos): f.scalar(rng.randrange(1, 19)) for _ in range(3)}
            z = Cochain(3, terms)
            zz = z
            for _ in range(3):
                zz = sigma_apply(cx, zz)
            assert zz == z
            assert sigma_apply(cx, cx.d_cochain(z)) == cx.d_cochain(sigma_apply(cx, z))


def test_sigma_semilinear_needs_matching_extension():
    f = field_create(5)
    cx = build_deformed(3, 5, f, 1)
    with pytest.raises(ValueError):
        sigma_apply(cx, cx.one_cochain("h[1,1]"), semilinear=True)
    f3 = field_create(5, 3)
    cx3 = build_deformed(3, 5, f3, 1)
    z = Cochain(3, {generator_mask(1, 1, 3): f3.primitive_element()})
    out = sigma_apply(cx3, z, semilinear=True)
    (mask, c), = out.terms.items()
    assert mask == generator_mask(1, 2, 3)
    assert c == f3.pow(f3.primitive_element(), 5)
    # semilinear shift still commutes with the differential
    assert sigma_apply(cx3, cx3.d_cochain(z), semilinear=True) == cx3.d_cochain(
        sigma_apply(cx3, z, semilinear=True)
    )


def test_descriptor_json_roundtrip_fields():
    f = field_create(7, 2)
    cx = build_deformed(2, 7, f, BUNDLE)
    js = cx.descriptor.to_json()
    assert js["epsilon"] == "x"
    assert js["field"] == {"p": 7, "m": 2, "modulus": list(f.modulus)}


def test_epsilon_outside_prime_subfield_rejected():
    from stabfold.ravenel import Complex, DgaDescriptor

    f = field_create(7, 2)
    with pytest.raises(ValueError, match="prime subfield"):
        Complex(DgaDescriptor(2, 7, f, f.primitive_element()))
    assert build_deformed(2, 7, f, 3).d_monomial(generator_mask(1, 1, 2))
