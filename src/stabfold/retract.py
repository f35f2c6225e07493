"""Degree -1 derivations, the operator D = dh + hd, and kernel sub-DGAs.

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

from .exterior import Cochain, add_term, format_monomial, split_join, subset_sums
from .gf import FieldScalar
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


# -- kernel models ------------------------------------------------------------------


class NotDiagonalError(RuntimeError):
    """Raised when a kernel model is requested for a derivation that is not
    diagonal on the generators: its kernel is then no span of monomials."""


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
                "derivation is not h-basis-diagonal in degree 1, so its kernel "
                "is not spanned by monomials"
            )
        out[mask] = img.terms.get(mask, field.zero)
    return out


def kernel_masks(cx, D: Derivation) -> set[int]:
    """Monomials annihilated by a degree-preserving derivation that is
    diagonal on the generators, on a full complex.

    Certificate: ``_diagonal_eigenvalues`` checks diagonality on every
    generator, and D is a derivation, so each monomial is an eigenvector
    whose eigenvalue is the sum of its generators' eigenvalues.  The kernel
    is spanned by the monomials with eigenvalue sum zero: the
    ``split_join`` of the eigenvalue sums of every subset of the low slots
    with minus those of every subset of the high slots.  The join ranges
    over all 2^(n^2) monomials, so the complex must hold them all."""
    if cx.descriptor.label != "full":
        raise ValueError("kernel_masks joins over every monomial; it needs a "
                         f"full complex, not one labelled {cx.descriptor.label!r}")
    field = cx.field
    gen_eigen = _diagonal_eigenvalues(cx, D)
    slots = cx.top_degree
    half = slots // 2
    lo_sum = [x.v for x in subset_sums(
        [gen_eigen[1 << i] for i in range(half)], field.zero)]
    neg_hi_sum = [(-x).v for x in subset_sums(
        [gen_eigen[1 << i] for i in range(half, slots)], field.zero)]
    return set(split_join(lo_sum, neg_hi_sum, half))


def _closed_model(cx, kern: set[int]) -> Complex:
    """The sub-DGA of cx on the monomials of kern, after checking on every
    one of them that d stays inside kern (ker D is closed under d since D
    commutes with d; a miss means a wrong kernel)."""
    desc = DgaDescriptor(cx.n, cx.p, cx.field, cx.descriptor.epsilon,
                         cx.descriptor.lie, "custom")
    model = Complex(desc, members=kern)
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
    """Least m with all required roots present in GF(p^m).  A field of
    characteristic p has no primitive d-th root of unity when p divides d,
    since x^d - 1 = (x^(d/p) - 1)^p there: that raises ValueError."""
    import math

    m = 1
    for d in required_root_orders(n):
        if d % p == 0:
            raise ValueError(f"no field of characteristic {p} has a primitive "
                             f"root of unity of order {d} ({p} divides {d})")
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
