"""Rational-parameter connections on the family of DGAs over the affine line
eps = x: parallel transport and the fixed layer of a connection.

A connection here is an assignment of an exact rational parameter to each
generator h[i,j]; monomial parameters add along wedge products.  The two
built-in flavors are

    sigma:      alpha(h[i,j]) = -i/n            (cyclically equivariant)
    semilinear: alpha(h[i,j]) = -(p^(i+j)-p^j)/(p^n-1)   (Frobenius-twisted)

with subscripts taken in {1..n}.  Monodromy multiplies a monomial by
omega^(D*alpha), D the common denominator, so its fixed monomials are those
with integral parameter: the first-subscript complex for sigma, the critical
complex for the semilinear flavor.  ``KummerConnection.fixed_masks`` lists
them as the ``exterior.split_join`` of the numerators D*alpha mod D on the
two halves of the slots.

``FixedLayer`` holds those monomials with their parameters and the
differential of the family on them, as (target, coefficient, e) terms read
once from ``ravenel.bundle_digits``: a coefficient c0 + c1 x of d is kept as
its two field-scalar digits, with no polynomial ring.  The exponent
e = k + alpha(b') - alpha(b) of a term c x^k b' of d(b) is both the core's
x-exponent and the medial filtration step, so the core and the medial
spectral sequences of ``pages`` (``core_pages`` and ``medial_pages``) read
the one layer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

from .exterior import Cochain, add_term, format_monomial, split_join, subset_sums
from .gf import Field, FieldScalar, nth_roots
from .ravenel import bundle_digits, kronecker_term_table


class KummerConnection:
    def __init__(self, n: int, params: dict[int, Fraction], flavor: str = "custom"):
        self.n = n
        self.flavor = flavor
        self.params = params  # slot -> Fraction
        self.denominator = lcm(*(f.denominator for f in params.values())) if params else 1

    @classmethod
    def sigma(cls, n: int) -> "KummerConnection":
        params = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                params[(i - 1) * n + (j - 1)] = Fraction(-i, n)
        return cls(n, params, flavor="sigma")

    @classmethod
    def semilinear(cls, n: int, p: int) -> "KummerConnection":
        params = {}
        mod = p**n - 1
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                params[(i - 1) * n + (j - 1)] = Fraction(-(p ** (i + j) - p**j), mod)
        return cls(n, params, flavor="semilinear")

    @classmethod
    def custom(cls, n: int, pairs: dict[tuple[int, int], Fraction]) -> "KummerConnection":
        from .exterior import slot

        params = {slot(i, j, n): Fraction(v) for (i, j), v in pairs.items()}
        if len(params) != n * n:
            raise ValueError("a connection needs a parameter for every generator")
        return cls(n, params)

    def monomial_parameter(self, mask: int) -> Fraction:
        total = Fraction(0)
        mm = mask
        while mm:
            low = mm & -mm
            total += self.params[low.bit_length() - 1]
            mm ^= low
        return total

    def fixed_masks(self) -> list[int]:
        """The monomials with integral parameter, ascending: the split join
        of the numerators D*alpha mod D on the subsets of the low slots with
        their negatives on the subsets of the high slots."""
        d = self.denominator
        slots = self.n * self.n
        half = slots // 2
        nums = [int(self.params[b] * d) for b in range(slots)]
        lo = [v % d for v in subset_sums(nums[:half], 0)]
        hi = [-v % d for v in subset_sums(nums[half:], 0)]
        return split_join(lo, hi, half)

    def to_json(self) -> dict:
        n = self.n
        return {
            "flavor": self.flavor,
            "params": [
                {"i": s // n + 1, "j": s % n + 1,
                 "num": f.numerator, "den": f.denominator}
                for s, f in sorted(self.params.items())
            ],
        }


# -- parallel transport ---------------------------------------------------------------

_CHECK_GRADING_PRIME = 2  # grades the fibers a transport is checked on


class Transport:
    """An h-diagonal DGA isomorphism between the fibers at eps and delta,
    attached to a root zeta of delta/eps."""

    def __init__(self, n: int, field: Field, eps, delta, zeta, xs: list[FieldScalar],
                 mode: str):
        self.n = n
        self.field = field
        self.eps = eps
        self.delta = delta
        self.zeta = zeta
        self.mode = mode
        self.xs = xs  # x_1..x_n indexed 0-based by j-1
        self.scalars: dict[int, FieldScalar] = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                acc = field.one
                for t in range(i):
                    acc = acc * xs[(j - 1 + t) % n]
                self.scalars[(i - 1) * n + (j - 1)] = acc

    def scalar_of(self, mask: int) -> FieldScalar:
        acc = self.field.one
        mm = mask
        while mm:
            low = mm & -mm
            acc = acc * self.scalars[low.bit_length() - 1]
            mm ^= low
        return acc

    def apply(self, z: Cochain) -> Cochain:
        return Cochain(z.n, {m: c * self.scalar_of(m) for m, c in z.terms.items()})

    def verify_dga_map(self, n: int, p: int) -> None:
        """f(d_eps h) = d_delta(f h) on every generator, by direct expansion."""
        from .ravenel import build_deformed

        src = build_deformed(n, p, self.field, self.eps)
        tgt = build_deformed(n, p, self.field, self.delta)
        for mask in src.basis(1):
            lhs = self.apply(Cochain(n, src.d_monomial(mask)))
            rhs = tgt.d_cochain(self.apply(Cochain(n, {mask: self.field.one})))
            if lhs != rhs:
                raise AssertionError(
                    f"transport does not commute with d at {format_monomial(mask, n)}"
                )


def solve_h_diagonal(n: int, field: Field, eps, delta, mode: str = "sigma",
                     q: int | None = None) -> list[Transport]:
    """All h-diagonal DGA isomorphisms from the fiber at eps to the fiber at
    delta, in the requested equivariance mode.

    mode "all": one per solution of x_1 ... x_n = delta/eps;
    mode "sigma": one per n-th root of delta/eps (all x_j equal);
    mode "semilinear": one per root of x^((q^n-1)/(q-1)) = delta/eps, with
    x_(j+1) = x_j^q.

    Every returned transport is verified to commute with the differentials.
    The fibers for that check are graded by p = 2: the grading prime only
    sorts monomials into blocks, and d does not depend on it.
    """
    eps = field.scalar(eps)
    delta = field.scalar(delta)
    if not eps or not delta:
        raise ValueError("transports connect smooth fibers only (eps, delta != 0)")
    ratio = delta * eps.inverse()
    out: list[Transport] = []
    if mode == "sigma":
        for zeta in sorted(nth_roots(field, ratio, n), key=FieldScalar.coordinates):
            out.append(Transport(n, field, eps, delta, zeta, [zeta] * n, "sigma"))
    elif mode == "semilinear":
        if q is None:
            raise ValueError("semilinear mode needs the Frobenius power q")
        e = (q**n - 1) // (q - 1)
        for zeta in sorted(nth_roots(field, ratio, e), key=FieldScalar.coordinates):
            xs = [field.zero] * n
            xs[0] = zeta
            for j in range(1, n):
                xs[j] = field.pow(xs[j - 1], q)
            out.append(Transport(n, field, eps, delta, zeta, xs, "semilinear"))
    elif mode == "all":
        nonzero = [x for x in field.elements() if x]
        for prefix in product(nonzero, repeat=n - 1):
            prod = field.one
            for x in prefix:
                prod = prod * x
            out.append(Transport(n, field, eps, delta, None,
                                 [*prefix, ratio * prod.inverse()], "all"))
    else:
        raise ValueError(f"unknown transport mode {mode!r}")
    for t in out:
        t.verify_dga_map(n, _CHECK_GRADING_PRIME)
    return out


# -- the fixed layer ---------------------------------------------------------------------


class FixedLayer:
    """The monodromy-fixed part of the family over eps = x, with coefficients
    in a field of characteristic p: the monomials b with integral parameter
    alpha(b), by degree, and the differential of the family on them, read
    once from ``bundle_digits``.

    A term c x^k b' of d(b) is kept as (b', c, e), e = k + alpha(b') - alpha(b):
    the term's x-exponent in the core, the span of { x^(-alpha(b)) b }, and
    its step in the medial filtration fil(x^w b) = w + alpha(b).  So e = 0
    everywhere means both strict core compatibility and medial weight
    preservation.  A negative e, where d leaves the core, is recorded as a
    closure failure: for an ill-chosen connection that is a finding.
    """

    def __init__(self, conn: KummerConnection, field: Field):
        self.conn = conn
        self.field = field
        self.n = n = conn.n
        self.top_degree = n * n
        masks = conn.fixed_masks()
        self._basis: dict[int, list[int]] = {s: [] for s in range(self.top_degree + 1)}
        for m in masks:
            self._basis[m.bit_count()].append(m)
        self.alpha = {m: int(conn.monomial_parameter(m)) for m in masks}
        scalar = self.field.scalar
        self._terms: dict[int, list[tuple[int, FieldScalar, int]]] = {}
        self.closure_failures: list[tuple[int, int, int]] = []
        terms_x = kronecker_term_table(n)
        for s in range(self.top_degree + 1):
            for m in self._basis[s]:
                terms = []
                for tgt, digits in bundle_digits(terms_x, m, self.field.p):
                    if tgt not in self.alpha:
                        raise ValueError(
                            f"d({format_monomial(m, n)}) reaches "
                            f"{format_monomial(tgt, n)}, which is not monodromy-"
                            "fixed: the connection does not commute with d")
                    for k, c in enumerate(digits):
                        if c:
                            e = k + self.alpha[tgt] - self.alpha[m]
                            terms.append((tgt, scalar(c), e))
                            if e < 0:
                                self.closure_failures.append((m, tgt, e))
                terms.sort(key=lambda t: (t[0], t[2]))
                self._terms[m] = terms

    def basis(self, s: int) -> list[int]:
        return self._basis.get(s, [])

    def d_triples(self, mask: int) -> list[tuple[int, FieldScalar, int]]:
        return self._terms[mask]

    @property
    def closed(self) -> bool:
        return not self.closure_failures

    def homogeneity_witness(self):
        """First term with e != 0, in (degree, source, target) order, the
        order the terms were read in; None when every term has e = 0."""
        for m, terms in self._terms.items():
            for tgt, _c, e in terms:
                if e != 0:
                    return (m, tgt, e)
        return None

    def gr_diff(self) -> dict[int, dict[int, FieldScalar]]:
        """The e = 0 part of the differential: the complex core/x, and the
        differential of every medial weight piece."""
        out: dict[int, dict[int, FieldScalar]] = {}
        for m, terms in self._terms.items():
            out[m] = row = {}
            for tgt, c, e in terms:
                if e == 0:
                    add_term(row, tgt, c)
        return out

    def gr_basis(self, t: int) -> dict[int, list[tuple[int, int]]]:
        """Per degree, the medial elements x^w b of weight exactly t, as
        (b, w) with w = t - alpha(b) >= 0."""
        out: dict[int, list[tuple[int, int]]] = {}
        for s, monos in self._basis.items():
            elems = [(m, t - self.alpha[m]) for m in monos if t - self.alpha[m] >= 0]
            if elems:
                out[s] = elems
        return out


def core_homogeneity(layer: FixedLayer) -> dict:
    w = layer.homogeneity_witness()
    if w is None:
        return {"holds": True, "witness": None}
    m, tgt, e = w
    return {
        "holds": False,
        "witness": {
            "source": format_monomial(m, layer.n),
            "target": format_monomial(tgt, layer.n),
            "x_exponent": e,
        },
    }
