import random

import pytest

from stabfold.exterior import Cochain, degree, generator_mask
from stabfold.gf import field_create, primitive_root_of_unity
from stabfold.homology import induced_map_rank, inclusion_map
from stabfold.ravenel import build_gl, subcomplex
from stabfold.retract import (
    Derivation,
    NotDiagonalError,
    circledast,
    critical_model,
    cyclotomic_polynomial,
    extend_functional,
    idempotent_exponent,
    intersection_model,
    kernel_masks,
    kernel_model,
    lambda_h_pair,
    laplacian,
    minimal_polynomial,
    required_root_orders,
    smallest_extension_degree,
    u_property_check,
)


def mat(field, rows):
    return [[field.scalar(x) for x in r] for r in rows]


def test_zero_functional_extends_to_zero():
    f = field_create(5)
    cx = build_gl(2, f, 5)
    h = extend_functional(cx, {})
    z = cx.one_cochain("h[1,1]h[2,1]")
    assert not h.apply(z)


def test_extension_is_graded_derivation():
    rng = random.Random(47)
    f = field_create(7)
    cx = build_gl(3, f, 7)
    vals = {(i, j): rng.randrange(7) for i in range(1, 4) for j in range(1, 4)}
    h = extend_functional(cx, vals)
    monos = [m for s in range(4) for m in cx.basis(s)]
    one = cx.ring_one
    for _ in range(50):
        ma, mb = rng.choice(monos), rng.choice(monos)
        a, b = Cochain(3, {ma: one}), Cochain(3, {mb: one})
        ab = a.wedge(b, one)
        lhs = h.apply(ab)
        if degree(ma) % 2:
            rhs = h.apply(a).wedge(b, one) - a.wedge(h.apply(b), one)
        else:
            rhs = h.apply(a).wedge(b, one) + a.wedge(h.apply(b), one)
        assert lhs == rhs
    # h o h vanishes (degree -2 into nothing on degree 1, derivation elsewhere)
    for _ in range(20):
        z = Cochain(3, {rng.choice(monos): f.scalar(rng.randrange(1, 7))})
        assert not h.apply(h.apply(z))


def test_h_omega_matrix_n2():
    # for w = -1 the functional is the diagonal matrix (1/2, -1/2) on h[2,j]
    f = field_create(5)
    cx = build_gl(2, f, 5)
    w = f.scalar(-1)
    h, _ = lambda_h_pair(cx, w)
    half = f.scalar(2).inverse()
    assert h.values[generator_mask(2, 1, 2).bit_length() - 1] == half
    assert h.values[generator_mask(2, 2, 2).bit_length() - 1] == -half
    assert generator_mask(1, 1, 2).bit_length() - 1 not in h.values


def test_laplacian_zero():
    f = field_create(5)
    cx = build_gl(2, f, 5)
    h = extend_functional(cx, {})
    D = laplacian(cx, h)
    assert not D.apply(cx.one_cochain("h[1,1]"))


def test_laplacian_eigenvalues_on_generators():
    # D(h[i,j]) = lam(h[i,j]) h[i,j] with lam = sum_{l<=i} w^(j+l)
    for n, p in [(2, 5), (3, 7), (4, 13)]:
        f = field_create(p) if (p - 1) % n == 0 else field_create(p, smallest_extension_degree(p, n))
        cx = build_gl(n, f, p)
        w = primitive_root_of_unity(f, n)
        h, lam = lambda_h_pair(cx, w)
        D = laplacian(cx, h)
        for mask in cx.basis(1):
            img = D.apply(Cochain(n, {mask: f.one}))
            s = mask.bit_length() - 1
            assert img == Cochain(n, {mask: lam[s]})


def test_lambda_values_n2_omega_minus_one():
    f = field_create(5)
    cx = build_gl(2, f, 5)
    _, lam = lambda_h_pair(cx, f.scalar(-1))
    for j in (1, 2):
        assert lam[generator_mask(2, j, 2).bit_length() - 1] == f.zero
        expected = f.scalar((-1) ** (j + 1))
        assert lam[generator_mask(1, j, 2).bit_length() - 1] == expected


def test_eigenvector_product_rule():
    rng = random.Random(53)
    f = field_create(7)
    cx = build_gl(3, f, 7)
    w = primitive_root_of_unity(f, 3)
    h, lam = lambda_h_pair(cx, w)
    D = laplacian(cx, h)

    def eig(mask):
        acc = f.zero
        mm = mask
        while mm:
            low = mm & -mm
            acc = acc + lam[low.bit_length() - 1]
            mm ^= low
        return acc

    monos = [m for s in range(5) for m in cx.basis(s)]
    for _ in range(60):
        m = rng.choice(monos)
        assert D.apply(Cochain(3, {m: f.one})) == Cochain(3, {m: eig(m)})


@pytest.mark.parametrize("n,p", [(2, 5), (3, 7)])
def test_laplacian_eigenvalue_sum_on_every_monomial(n, p):
    """Exhaustive at n = 2 (F_5, w = 4) and n = 3 (F_7, a primitive cube
    root): D(m) is lam(m) m on every monomial, lam(m) the sum of lam over m's
    generators from lambda_h_pair's formula, and kernel_masks holds exactly
    the monomials with lam(m) = 0.  kernel_masks itself checks D on the
    generators only."""
    f = field_create(p)
    cx = build_gl(n, f, p)
    w = f.scalar(4) if n == 2 else primitive_root_of_unity(f, 3)
    h, lam = lambda_h_pair(cx, w)
    D = laplacian(cx, h)
    kern = kernel_masks(cx, D)
    checked = 0
    for s in range(n * n + 1):
        for mask in cx.basis(s):
            eig = sum((lam[b] for b in range(n * n) if mask >> b & 1), f.zero)
            assert D.apply(Cochain(n, {mask: f.one})) == Cochain(n, {mask: eig})
            assert (mask in kern) == (not eig)
            checked += 1
    assert checked == 1 << (n * n)


def test_kernel_masks_rejects_a_perturbed_h():
    # h off the distinguished pair at one generator: D is no longer diagonal
    # on the generators, and the generator certificate says so
    f = field_create(7)
    cx = build_gl(3, f, 7)
    h, _ = lambda_h_pair(cx, primitive_root_of_unity(f, 3))
    h.values[generator_mask(1, 1, 3).bit_length() - 1] = f.one
    with pytest.raises(NotDiagonalError):
        kernel_masks(cx, laplacian(cx, h))
    with pytest.raises(NotDiagonalError):
        intersection_model(cx, [laplacian(cx, h)])


def test_u_property_examples():
    f = field_create(5)
    cx = build_gl(2, f, 5)
    # D = 0
    zero = Derivation(cx, 0, False, op=lambda z: Cochain(2, {}))
    out = u_property_check(cx, zero)
    assert out["diagonalizable"] and out["eigenvalues"] == {f.zero}
    # the distinguished pair at w = 4
    h, _ = lambda_h_pair(cx, f.scalar(4))
    out = u_property_check(cx, laplacian(cx, h))
    assert out["diagonalizable"]
    assert out["eigenvalues"] == {f.zero, f.one, f.scalar(4)}
    assert out["all_in_k_u"]
    # a nilpotent Jordan block is not diagonalizable
    j2 = mat(f, [[0, 1], [0, 0]])
    out = u_property_check(f, j2)
    assert not out["diagonalizable"]


def test_minimal_polynomial_small():
    f = field_create(7)
    ident = mat(f, [[1, 0], [0, 1]])
    mp = minimal_polynomial(ident, f)
    assert mp.degree == 1 and not mp.evaluate(f.one)
    j2 = mat(f, [[0, 1], [0, 0]])
    mp = minimal_polynomial(j2, f)
    assert mp.degree == 2 and not mp.evaluate(f.zero)
    d = mat(f, [[2, 0], [0, 3]])
    mp = minimal_polynomial(d, f)
    assert mp.degree == 2
    assert not mp.evaluate(f.scalar(2)) and not mp.evaluate(f.scalar(3))


def test_idempotent_exponent_examples():
    f = field_create(7)
    assert idempotent_exponent(f, mat(f, [[1, 0], [0, 0]])) == 1
    w = primitive_root_of_unity(f, 3)
    assert idempotent_exponent(f, [[w]]) == 3
    assert idempotent_exponent(f, mat(f, [[0, 1], [0, 0]])) == 2
    f5 = field_create(5)
    assert idempotent_exponent(f5, mat(f5, [[0, 1], [0, 0]])) == 2


def test_kernel_model_zero_derivation_is_whole_complex():
    f = field_create(5)
    cx = build_gl(2, f, 5)
    zero = Derivation(cx, 0, False, op=lambda z: Cochain(2, {}))
    model = kernel_model(cx, zero)
    assert model.dim() == cx.dim()


def test_kernel_model_gl2_is_critical_complex():
    f = field_create(5)
    cx = build_gl(2, f, 5)
    h, _ = lambda_h_pair(cx, f.scalar(4))
    model = kernel_model(cx, laplacian(cx, h))
    cc = subcomplex(cx, "critical")
    for s in range(5):
        assert model.basis(s) == cc.basis(s)
    out = induced_map_rank(inclusion_map(model, cx))
    assert out["quasi_isomorphism"]


def test_kernel_model_gl3():
    f = field_create(7)
    cx = build_gl(3, f, 7)
    w = primitive_root_of_unity(f, 3)
    h, _ = lambda_h_pair(cx, w)
    model = kernel_model(cx, laplacian(cx, h))
    cc = subcomplex(cx, "critical")
    for s in range(10):
        assert model.basis(s) == cc.basis(s)


def test_kernel_model_rejects_non_diagonal():
    f = field_create(5)
    cx = build_gl(2, f, 5)

    def swap(z):
        # exchanges h[1,1] and h[1,2]; not diagonal on the h-basis
        out = {}
        a, b = generator_mask(1, 1, 2), generator_mask(1, 2, 2)
        for m, c in z.terms.items():
            out[b if m == a else a if m == b else m] = c
        return Cochain(2, out)

    with pytest.raises(NotDiagonalError):
        kernel_model(cx, Derivation(cx, 0, False, op=swap))


def test_kernel_models_check_closure_on_every_monomial(monkeypatch):
    from stabfold import retract
    from stabfold.ravenel import ClosureError

    f = field_create(7)
    cx = build_gl(3, f, 7)
    h, _ = lambda_h_pair(cx, primitive_root_of_unity(f, 3))
    D = laplacian(cx, h)
    kern = retract.kernel_masks(cx, D)
    # plant a kernel missing one d-target of a degree-2 kernel monomial; no
    # degree-1 kernel monomial reaches it, so a degree-1 check cannot see it
    target = min(t for m in sorted(kern) if degree(m) == 2
                 for t in cx.d_monomial(m) if t in kern)
    assert degree(target) == 3
    assert not any(target in cx.d_monomial(m) for m in kern if degree(m) == 1)
    planted = kern - {target}
    monkeypatch.setattr(retract, "kernel_masks", lambda *a, **k: set(planted))
    with pytest.raises(ClosureError, match="not closed under d"):
        kernel_model(cx, D)
    with pytest.raises(ClosureError, match="not closed under d"):
        intersection_model(cx, [D])


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert required_root_orders(4) == [2, 4]
    assert required_root_orders(3) == [3]


def test_smallest_extension_degree():
    # 3 | 7 - 1 so no extension needed; 4th roots need p = 1 mod 4
    assert smallest_extension_degree(7, 3) == 1
    assert smallest_extension_degree(13, 4) == 1
    assert smallest_extension_degree(7, 4) == 2
    assert smallest_extension_degree(19, 3) == 1


def test_critical_model_composite_n4():
    # composite height: intersection over both cyclotomic factors of
    # (x^4 - 1)/(x - 1), over a degree-2 extension of F_13
    f = field_create(13, 2)
    cx = build_gl(4, f, 13)
    out = critical_model(cx)
    model = out["model"]
    cc = subcomplex(cx, "critical")
    for s in range(17):
        assert model.basis(s) == cc.basis(s)


def test_circledast_paper_matrix():
    f = field_create(11)
    a, b, c, d = (f.scalar(x) for x in (2, 3, 5, 7))
    e, ff_, g, h = (f.scalar(x) for x in (1, 4, 6, 9))
    out = circledast([[a, b], [c, d]], [[e, ff_], [g, h]], f)
    expected = mat(
        f,
        [
            [2 + 1, 4, 3, 0],
            [6, 2 + 9, 0, 3],
            [5, 0, 7 + 1, 4],
            [0, 5, 6, 7 + 9],
        ],
    )
    assert out == expected


def test_circledast_trivial_cases():
    f = field_create(7)
    z = mat(f, [[0]])
    assert circledast(z, z, f) == mat(f, [[0]])
    assert circledast(mat(f, [[1]]), mat(f, [[2]]), f) == mat(f, [[3]])


def test_circledast_eigenvalue_lemma_2x2_exhaustive_f3():
    """All pairs of 2x2 matrices over F_3: eigenvalues of the tensor-sum are
    exactly the pairwise sums (verified inside F_9, where all roots live)."""
    from itertools import product

    from stabfold.gf import Poly, poly_divmod, poly_gcd

    f9 = field_create(3, 2)

    def charpoly(m):
        # determinant of yI - m by interpolation at distinct field points
        n = len(m)
        pts = []
        for e in f9.elements():
            pts.append(e)
            if len(pts) == n + 1:
                break
        vals = []
        for e in pts:
            a = [[(e if i == j else f9.zero) - m[i][j] for j in range(n)] for i in range(n)]
            det = f9.one
            for col in range(n):
                piv = None
                for r in range(col, n):
                    if a[r][col]:
                        piv = r
                        break
                if piv is None:
                    det = f9.zero
                    break
                if piv != col:
                    a[col], a[piv] = a[piv], a[col]
                    det = -det
                det = det * a[col][col]
                inv = a[col][col].inverse()
                for r in range(col + 1, n):
                    if a[r][col]:
                        factor = a[r][col] * inv
                        for cc in range(col, n):
                            a[r][cc] = a[r][cc] - factor * a[col][cc]
            vals.append(det)
        # Lagrange interpolation
        poly = Poly(f9, [])
        for i, (xi, yi) in enumerate(zip(pts, vals)):
            term = Poly.const(f9, yi)
            for j, xj in enumerate(pts):
                if i == j:
                    continue
                term = term * Poly(f9, [-xj, f9.one])
                term = term * Poly.const(f9, (xi - xj).inverse())
            poly = poly + term
        return poly

    def distinct_roots(poly):
        from stabfold.gf import poly_radical

        roots = {e for e in f9.elements() if not poly.evaluate(e)}
        # all roots must already lie in F_9 for the count to be conclusive
        assert poly_radical(poly).degree == len(roots)
        return roots

    entries = [f9.zero, f9.one, f9.scalar(2)]
    mats = [
        [[a, b], [c, d]]
        for a, b, c, d in product(entries, repeat=4)
    ]
    roots = [distinct_roots(charpoly(m)) for m in mats]
    for i1, m1 in enumerate(mats):
        for i2, m2 in enumerate(mats):
            esum = {a + b for a in roots[i1] for b in roots[i2]}
            e12 = distinct_roots(charpoly(circledast(m1, m2, f9)))
            assert e12 == esum


def test_circledast_eigenvalue_lemma_3x3_sampled():
    """Seeded sample of 3x3 pairs over F_3 (the full pair set is out of
    reach); eigenvalues live in F_27 or F_9, both inside F_(3^6)."""
    from stabfold.gf import Poly, poly_divmod, poly_gcd

    f = field_create(3, 6)
    pts = []
    for e in f.elements():
        pts.append(e)
        if len(pts) == 10:
            break

    def charpoly(m):
        n = len(m)
        vals = []
        for e in pts[: n + 1]:
            a = [[(e if i == j else f.zero) - m[i][j] for j in range(n)] for i in range(n)]
            det = f.one
            for col in range(n):
                piv = next((r for r in range(col, n) if a[r][col]), None)
                if piv is None:
                    det = f.zero
                    break
                if piv != col:
                    a[col], a[piv] = a[piv], a[col]
                    det = -det
                det = det * a[col][col]
                inv = a[col][col].inverse()
                for r in range(col + 1, n):
                    if a[r][col]:
                        factor = a[r][col] * inv
                        for cc in range(col, n):
                            a[r][cc] = a[r][cc] - factor * a[col][cc]
            vals.append(det)
        poly = Poly(f, [])
        for i, (xi, yi) in enumerate(zip(pts[: n + 1], vals)):
            term = Poly.const(f, yi)
            for j, xj in enumerate(pts[: n + 1]):
                if i != j:
                    term = term * Poly(f, [-xj, f.one]) * Poly.const(f, (xi - xj).inverse())
            poly = poly + term
        return poly

    def distinct_roots(poly):
        from stabfold.gf import poly_radical

        roots = {e for e in f.elements() if not poly.evaluate(e)}
        assert poly_radical(poly).degree == len(roots)
        return roots

    rng = random.Random(61)
    for _ in range(12):
        m1 = [[f.scalar(rng.randrange(3)) for _ in range(3)] for _ in range(3)]
        m2 = [[f.scalar(rng.randrange(3)) for _ in range(3)] for _ in range(3)]
        e1, e2 = distinct_roots(charpoly(m1)), distinct_roots(charpoly(m2))
        esum = {a + b for a in e1 for b in e2}
        assert distinct_roots(charpoly(circledast(m1, m2, f))) == esum
