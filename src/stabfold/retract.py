"""Degree -1 derivations, the operator D = dh + hd, and kernel sub-DGAs.

The distinguished derivation pair on the CE complex of gl_n assigns
h(h[n,j]) = w^j * w/(1-w) for a chosen root of unity w (zero on h[i,j] with
i < n); every degree-1 basis element is then a D-eigenvector with eigenvalue
lam(h[i,j]) = sum_{l=1}^{i} w^(j+l).

Kernel models rest on a generator-level certificate: d and h are odd
derivations, so D = dh + hd is an even one, and a D diagonal on the
generators is diagonal on every monomial, with the sum of its generators'
eigenvalues.  So a common kernel is the span of the monomials whose
eigenvalue sums all vanish, read off one join of half-slot tables.  It is a
sub-DGA without any expansion of d: d∘d = 0 gives dD = dhd = Dd, so d maps
ker D into itself.  That premise is the dd-zero claim, which
``ravenel.dd_zero_exhaustive`` checks monomial by monomial at n <= 4.
"""

from __future__ import annotations

from .exterior import Cochain, add_term, split_join, subset_sums
from .gf import FieldScalar
from .ravenel import Complex, DgaDescriptor


class Derivation:
    """A k-linear derivation on a complex: either a graded derivation of
    degree -1 determined by its values on the degree-1 basis, or a
    degree-preserving ungraded derivation given by an operator.

    An operator is trusted to be a derivation, D(ab) = D(a)b + aD(b), that
    commutes with d: kernel models read D off its values on generators and
    take its kernel to be closed under d.  ``laplacian`` builds one from the
    odd derivations d and h."""

    def __init__(self, cx, degree_shift: int,
                 values: dict[int, FieldScalar] | None = None, op=None):
        self.cx = cx
        self.degree_shift = degree_shift
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
    return Derivation(cx, -1, values=vals)


def laplacian(cx, h: Derivation) -> Derivation:
    """D = d o h + h o d; ungraded but degree-preserving."""
    if h.degree_shift != -1:
        raise ValueError("laplacian expects a degree -1 derivation")

    def op(z: Cochain) -> Cochain:
        return cx.d_cochain(h.apply(z)) + h.apply(cx.d_cochain(z))

    return Derivation(cx, 0, op=op)


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


def kernel_masks(cx, derivations) -> list[int]:
    """Monomials annihilated by every one of some degree-preserving
    derivations diagonal on the generators, on a full complex; ascending.

    Certificate: ``_diagonal_eigenvalues`` checks each derivation on every
    generator, and each is a derivation, so every monomial is an
    eigenvector whose eigenvalue is the sum of its generators' eigenvalues.
    The common kernel is spanned by the monomials whose sums all vanish: one
    ``split_join`` keyed by the tuple of eigenvalue sums of each subset of
    the low slots, one entry per derivation, against the tuple of negated
    sums of each subset of the high slots.  With no derivations every key is
    (), so every monomial is listed.  The join ranges over all 2^(n^2)
    monomials, so the complex must hold them all."""
    if cx.descriptor.label != "full":
        raise ValueError("kernel_masks joins over every monomial; it needs a "
                         f"full complex, not one labelled {cx.descriptor.label!r}")
    zero = cx.field.zero
    eigen = [_diagonal_eigenvalues(cx, D) for D in derivations]
    slots = cx.top_degree
    half = slots // 2

    def keys(gen_slots: range, negate: bool) -> list[tuple]:
        cols = [[x.v for x in subset_sums(
            [-e[1 << i] if negate else e[1 << i] for i in gen_slots], zero)]
            for e in eigen]
        return [tuple(col[sub] for col in cols) for sub in range(1 << len(gen_slots))]

    return split_join(keys(range(half), False), keys(range(half, slots), True), half)


def kernel_model(cx, derivations) -> Complex:
    """The sub-DGA on the common kernel of derivations diagonal on the
    generators.  Each commutes with d, so d maps the kernel into itself."""
    desc = DgaDescriptor(cx.n, cx.p, cx.field, cx.descriptor.epsilon,
                         cx.descriptor.lie, "custom")
    return Complex(desc, members=kernel_masks(cx, derivations))


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
    """The model-kernel recipe for the critical complex: one derivation
    D = dh + hd per irreducible rational factor of (x^n - 1)/(x - 1), and
    the model is their common kernel (``kernel_model``).  At n = 1 there is
    no factor, and the model is the whole complex.

    Returns {"model": Complex, "omegas": roots used}.  Raises if the
    complex's field lacks a required root of unity.
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
    derivations = [laplacian(cx, lambda_h_pair(cx, omega)[0]) for omega in omegas]
    return {"model": kernel_model(cx, derivations), "omegas": omegas}
