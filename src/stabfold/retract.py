"""Degree -1 derivations, the operator D = dh + hd, eigen-analysis, kernel
sub-DGAs, and the tensor-sum product on matrices.

The distinguished derivation pair on the CE complex of gl_n assigns
h(h[n,j]) = w^j * w/(1-w) for a chosen root of unity w (zero on h[i,j] with
i < n); every degree-1 basis element is then a D-eigenvector with eigenvalue
lam(h[i,j]) = sum_{l=1}^{i} w^(j+l).

Kernel models rest on a generator-level certificate: d and h are odd
derivations, so D = dh + hd is an even one, and a D diagonal on the
generators is diagonal on every monomial, with the sum of its generators'
eigenvalues.  ``_closed_model`` still scans closure under d on every kernel
monomial: no certificate covers a computed kernel.
"""

from __future__ import annotations

from .exterior import Cochain, add_term, format_monomial
from .gf import Field, FieldScalar, Poly, poly_divmod, poly_gcd, poly_powmod
from .homology import insert_row
from .ravenel import ClosureError, Complex, DgaDescriptor


class Derivation:
    """A k-linear derivation on a complex: either a graded derivation of
    degree -1 determined by its values on the degree-1 basis, or a
    degree-preserving ungraded derivation given by an operator.

    An operator is trusted to be a derivation, D(ab) = D(a)b + aD(b): kernel
    models read D off its values on generators.  ``laplacian`` builds one
    from the odd derivations d and h."""

    def __init__(self, cx, degree_shift: int, graded: bool,
                 values: dict[int, FieldScalar] | None = None, op=None):
        self.cx = cx
        self.degree_shift = degree_shift
        self.graded = graded
        self.values = values
        self._op = op

    def apply(self, z: Cochain) -> Cochain:
        if self._op is not None:
            return self._op(z)
        out: dict[int, object] = {}
        for mask, coeff in z.terms.items():
            pos = 0
            mm = mask
            while mm:
                low = mm & -mm
                val = self.values.get(low.bit_length() - 1)
                if val:
                    c = val * coeff
                    add_term(out, mask ^ low, -c if pos % 2 else c)
                mm ^= low
                pos += 1
        return Cochain(self.cx.n, out)

    def matrix(self, s: int) -> list[list[FieldScalar]]:
        """Dense matrix of the action on the degree-s basis (degree shift 0)."""
        if self.degree_shift != 0:
            raise ValueError("matrix() is for degree-preserving derivations")
        cx = self.cx
        field = cx.field
        basis = cx.basis(s)
        index = {m: i for i, m in enumerate(basis)}
        cols = []
        for mask in basis:
            img = self.apply(Cochain(cx.n, {mask: field.one}))
            col = [field.zero] * len(basis)
            for m2, c in img.terms.items():
                col[index[m2]] = c
            cols.append(col)
        return [[cols[j][i] for j in range(len(basis))] for i in range(len(basis))]


def extend_functional(cx, values: dict) -> Derivation:
    """The graded degree -1 derivation with the given values on generators.

    Keys may be slot indices or (i, j) pairs; h(1) = 0 comes for free since
    the empty monomial has no slots.
    """
    from .exterior import slot

    vals: dict[int, FieldScalar] = {}
    for k, v in values.items():
        s = slot(k[0], k[1], cx.n) if isinstance(k, tuple) else k
        v = cx.field.scalar(v)
        if v:
            vals[s] = v
    return Derivation(cx, -1, True, values=vals)


def laplacian(cx, h: Derivation) -> Derivation:
    """D = d o h + h o d; ungraded but degree-preserving."""
    if h.degree_shift != -1:
        raise ValueError("laplacian expects a degree -1 derivation")

    def op(z: Cochain) -> Cochain:
        return cx.d_cochain(h.apply(z)) + h.apply(cx.d_cochain(z))

    return Derivation(cx, 0, False, op=op)


def lambda_h_pair(cx, omega: FieldScalar):
    """The distinguished (lambda, h) pair attached to a root of unity w != 1.

    Returns (h derivation, dict slot -> lambda eigenvalue).
    """
    field = cx.field
    omega = field.scalar(omega)
    if omega == field.one:
        raise ValueError("the construction needs a root of unity different from 1")
    n = cx.n
    scale = omega * (field.one - omega).inverse()
    hvals = {}
    lam = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            s = (i - 1) * n + (j - 1)
            if i == n:
                hvals[s] = field.pow(omega, j) * scale
            acc = field.zero
            for ell in range(1, i + 1):
                acc = acc + field.pow(omega, j + ell)
            lam[s] = acc
    return extend_functional(cx, hvals), lam


# -- eigen-analysis -----------------------------------------------------------------


def _mat_mul(a, b, field):
    n = len(a)
    out = [[field.zero] * n for _ in range(n)]
    for i in range(n):
        ai = a[i]
        row = out[i]
        for k in range(n):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(n):
                    if bk[j]:
                        row[j] = row[j] + c * bk[j]
    return out


def _mat_vec(a, v, field):
    return [
        sum((a[i][j] * v[j] for j in range(len(v)) if v[j]), field.zero)
        for i in range(len(v))
    ]


def minimal_polynomial(mat, field: Field) -> Poly:
    """Minimal polynomial of a square matrix: lcm of the local minimal
    polynomials of the standard basis vectors, tracked through an echelon.

    Krylov vector k enters the echelon augmented with column n + k, so the
    first vector whose coordinates reduce to zero leaves the coefficients of
    its local minimal polynomial in columns n, ..., n + k.
    """
    n = len(mat)
    coding = field.coding
    result = Poly.const(field, 1)
    for start in range(n):
        ech: dict[int, dict] = {}
        v = [field.zero] * n
        v[start] = field.one
        for k in range(n + 1):
            row = coding.encode_row(dict(enumerate(v)))
            row[n + k] = coding.one
            piv = insert_row(row, ech, field)
            if piv >= n:
                coeffs = coding.decode_row(ech[piv])
                local = Poly(field, [coeffs.get(n + j, field.zero)
                                     for j in range(k + 1)])
                g = poly_gcd(local, result)
                result = poly_divmod(local * result, g)[0] if g else local
                break
            v = _mat_vec(mat, v, field)
    return result.monic()


def poly_roots_in_field(f: Poly, field: Field) -> list[FieldScalar]:
    return [e for e in field.elements() if not f.evaluate(e)]


def is_diagonalizable(mat, field: Field) -> tuple[bool, Poly]:
    """Diagonalizable over the field iff the minimal polynomial divides
    y^q - y, i.e. is squarefree and split."""
    mp = minimal_polynomial(mat, field)
    yq = poly_powmod(Poly.x_power(field, 1), field.cardinality, mp)
    y = poly_divmod(Poly.x_power(field, 1), mp)[1]
    return yq == y, mp


def u_property_check(cx_or_field, D) -> dict:
    """Diagonalizability and eigenvalue report for a degree-preserving
    derivation (checked on the degree-1 action) or a raw square matrix.

    Over a finite field every nonzero element is a root of unity, so the
    eigenvalue-membership half of the property holds automatically once the
    minimal polynomial splits.
    """
    if isinstance(D, Derivation):
        field = D.cx.field
        mat = D.matrix(1)
    else:
        field = cx_or_field if isinstance(cx_or_field, Field) else cx_or_field.field
        mat = D
    diag, mp = is_diagonalizable(mat, field)
    eigen = poly_roots_in_field(mp, field)
    return {
        "diagonalizable": diag,
        "eigenvalues": set(eigen),
        "all_in_k_u": True,
        "minimal_polynomial": mp,
    }


def idempotent_exponent(cx_or_field, D, max_steps: int = 100000) -> int:
    """Smallest t >= 1 with D^(2t) = D^t (such a D^t is then automatically
    diagonalizable, its minimal polynomial dividing y^2 - y)."""
    if isinstance(D, Derivation):
        field = D.cx.field
        mats = [D.matrix(s) for s in range(1, D.cx.top_degree + 1)
                if D.cx.basis(s)]
    else:
        field = cx_or_field if isinstance(cx_or_field, Field) else cx_or_field.field
        mats = [D]
    powers = [list(map(list, m)) for m in mats]  # D^t
    squares = [_mat_mul(m, m, field) for m in mats]  # D^(2t)
    for t in range(1, max_steps + 1):
        if all(p == s for p, s in zip(powers, squares)):
            return t
        powers = [_mat_mul(p, m, field) for p, m in zip(powers, mats)]
        squares = [_mat_mul(_mat_mul(s, m, field), m, field)
                   for s, m in zip(squares, mats)]
    raise RuntimeError(f"no idempotent iterate found within {max_steps} steps")


# -- kernel models ------------------------------------------------------------------


class NotDiagonalError(RuntimeError):
    """Raised when a kernel model is requested for a derivation that is not
    diagonal on the generators; the caller should fall back to
    idempotent_exponent and the image of id - D^t."""


def _diagonal_eigenvalues(cx, D: Derivation) -> dict[int, FieldScalar]:
    """Eigenvalue of D on each degree-1 basis monomial; error if the degree-1
    action is not diagonal on the h-basis."""
    field = cx.field
    out = {}
    for mask in cx.basis(1):
        img = D.apply(Cochain(cx.n, {mask: field.one}))
        extra = [m for m in img.terms if m != mask]
        if extra:
            raise NotDiagonalError(
                "derivation is not h-basis-diagonal in degree 1; use "
                "idempotent_exponent and the image of id - D^t instead"
            )
        out[mask] = img.terms.get(mask, field.zero)
    return out


def _subset_sums(values: list[FieldScalar], zero: FieldScalar) -> list[FieldScalar]:
    """sums[sub] = sum of values[i] over the bits i of sub, for all 2^k subsets."""
    sums = [zero]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def kernel_masks(cx, D: Derivation) -> set[int]:
    """Monomials annihilated by a degree-preserving derivation that is
    diagonal on the generators, on a complex that contains every generator.

    Certificate: ``_diagonal_eigenvalues`` checks diagonality on every
    generator, and D is a derivation, so each monomial is an eigenvector
    whose eigenvalue is the sum of its generators' eigenvalues.  The kernel
    is spanned by the monomials with eigenvalue sum zero.  The sum is split
    in the middle of the slots: the eigenvalue sums of every subset of the
    low slots and of every subset of the high slots are tabulated once, and
    a monomial is in the kernel iff its low sum is minus its high sum, a
    comparison of coordinates with no arithmetic per monomial."""
    field = cx.field
    gen_eigen = _diagonal_eigenvalues(cx, D)
    slots = cx.top_degree
    half = slots // 2
    lo_bits = (1 << half) - 1
    lo_sum = [x.v for x in _subset_sums(
        [gen_eigen[1 << i] for i in range(half)], field.zero)]
    neg_hi_sum = [(-x).v for x in _subset_sums(
        [gen_eigen[1 << i] for i in range(half, slots)], field.zero)]

    kernel = {0}
    for s in range(1, cx.top_degree + 1):
        for mask in cx.basis(s):
            if lo_sum[mask & lo_bits] == neg_hi_sum[mask >> half]:
                kernel.add(mask)
    return kernel


def _closed_model(cx, kern: set[int]) -> Complex:
    """The sub-DGA of cx on the monomials of kern, after checking on every
    one of them that d stays inside kern (ker D is closed under d since D
    commutes with d; a miss means a wrong kernel)."""
    desc = DgaDescriptor(cx.n, cx.p, cx.field, cx.descriptor.epsilon,
                         cx.descriptor.lie, "custom")
    model = Complex(desc, member=lambda m: m in kern)
    for mask in sorted(kern):
        for tgt in model.d_monomial(mask):
            if tgt not in kern:
                raise ClosureError(
                    "kernel model not closed under d at "
                    + format_monomial(mask, cx.n))
    return model


def kernel_model(cx, D: Derivation) -> Complex:
    """The sub-DGA ker D, for D diagonal on the generators."""
    return _closed_model(cx, kernel_masks(cx, D))


def intersection_model(cx, derivations) -> Complex:
    """Common kernel of several generator-diagonal derivations, as a sub-DGA."""
    kerns = [kernel_masks(cx, D) for D in derivations]
    return _closed_model(cx, set.intersection(*kerns) if kerns else {0})


# -- cyclotomic bookkeeping -----------------------------------------------------------


def _int_poly_div(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(num) - 1, len(den) - 2, -1):
        c = num[k]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact integer polynomial division")
        q = c // den[-1]
        out[k - len(den) + 1] = q
        for i, d in enumerate(den):
            num[k - len(den) + 1 + i] -= q * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact integer polynomial division")
    return out


_CYCLOTOMIC_CACHE: dict[int, list[int]] = {}


def cyclotomic_polynomial(d: int) -> list[int]:
    """Coefficients (ascending) of the d-th cyclotomic polynomial over Z."""
    if d in _CYCLOTOMIC_CACHE:
        return _CYCLOTOMIC_CACHE[d]
    poly = [-1] + [0] * (d - 1) + [1]  # x^d - 1
    for e in range(1, d):
        if d % e == 0:
            poly = _int_poly_div(poly, cyclotomic_polynomial(e))
    _CYCLOTOMIC_CACHE[d] = poly
    return poly


def required_root_orders(n: int) -> list[int]:
    """Orders of the roots of unity needed to cut out the critical complex:
    one root per irreducible rational factor of (x^n - 1)/(x - 1)."""
    return [d for d in range(2, n + 1) if n % d == 0]


def smallest_extension_degree(p: int, n: int) -> int:
    """Least m with all required roots present in GF(p^m)."""
    import math

    m = 1
    for d in required_root_orders(n):
        # multiplicative order of p mod d
        k = 1
        while pow(p, k, d) != 1:
            k += 1
        m = m * k // math.gcd(m, k)
    return m


def critical_model(cx) -> dict:
    """The model-kernel recipe for the critical complex: one derivation per
    irreducible rational factor of (x^n - 1)/(x - 1), kernels intersected.

    Returns {"model": Complex, "omegas": roots used, "derivations": [...]}.
    Raises if the complex's field lacks a required root of unity.
    """
    from .gf import primitive_root_of_unity

    field = cx.field
    omegas = []
    for d in required_root_orders(cx.n):
        omega = primitive_root_of_unity(field, d)
        # sanity: an element of exact order d is a root of the d-th
        # cyclotomic polynomial
        acc = field.zero
        for k, c in enumerate(cyclotomic_polynomial(d)):
            if c:
                acc = acc + field.scalar(c) * field.pow(omega, k)
        if acc:
            raise AssertionError(
                f"an element of order {d} is not a root of the {d}-th "
                "cyclotomic polynomial")
        omegas.append(omega)
    derivations = []
    for omega in omegas:
        h, _lam = lambda_h_pair(cx, omega)
        derivations.append(laplacian(cx, h))
    model = intersection_model(cx, derivations)
    return {"model": model, "omegas": omegas, "derivations": derivations}


# -- the tensor-sum product ------------------------------------------------------------


def circledast(d1, d2, field: Field):
    """(D1, D2) -> D1 (x) I + I (x) D2 on the tensor square, in the basis
    (v_1 (x) w_1, v_1 (x) w_2, ..., v_m (x) w_n) ordered row-major."""
    n1, n2 = len(d1), len(d2)
    out = [[field.zero] * (n1 * n2) for _ in range(n1 * n2)]
    for i in range(n1):
        for j in range(n2):
            r = i * n2 + j
            for k in range(n1):
                if d1[i][k]:
                    out[r][k * n2 + j] = out[r][k * n2 + j] + d1[i][k]
            for l in range(n2):
                if d2[j][l]:
                    out[r][i * n2 + l] = out[r][i * n2 + l] + d2[j][l]
    return out
