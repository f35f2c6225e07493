"""Rational-parameter connections on the bundle DGA: parallel transport,
monodromy operators and their fixed subcomplexes, cores, and medial layers.

A connection here is an assignment of an exact rational parameter to each
generator h[i,j]; monomial parameters add along wedge products.  The two
built-in flavors are

    sigma:      alpha(h[i,j]) = -i/n            (cyclically equivariant)
    semilinear: alpha(h[i,j]) = -(p^(i+j)-p^j)/(p^n-1)   (Frobenius-twisted)

with subscripts taken in {1..n}.  Monodromy multiplies a monomial by
omega^(D*alpha), D the common denominator, so its fixed monomials are those
with integral parameter: the first-subscript complex for sigma, the critical
complex for the semilinear flavor.

Cores and medial layers read the bundle differential as (target,
coefficient, x-power) terms straight from ``ravenel.bundle_digits``, the
x-power digits of the one integer expansion of d, without building
polynomial coefficients; ``exterior.add_term`` merges their terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .exterior import Cochain, add_term, format_monomial
from .gf import Field, FieldScalar, nth_roots
from .ravenel import Complex, bundle_digits


class KummerConnection:
    def __init__(self, n: int, params: dict[int, Fraction], flavor: str = "custom",
                 p: int | None = None):
        self.n = n
        self.p = p
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
        return cls(n, params, flavor="semilinear", p=p)

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

    def is_fixed(self, mask: int) -> bool:
        return self.monomial_parameter(mask).denominator == 1

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

    def compose(self, other: "Transport") -> "Transport":
        """other after self: a transport from self.eps to other.delta."""
        if self.delta != other.eps:
            raise ValueError("transports do not compose: fibers mismatch")
        xs = [a * b for a, b in zip(self.xs, other.xs)]
        zeta = self.zeta * other.zeta if self.zeta is not None else None
        return Transport(self.n, self.field, self.eps, other.delta,
                         zeta, xs, self.mode)

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
    sort_key = lambda x: x.v if field.m == 1 else tuple(x.v)
    out: list[Transport] = []
    if mode == "sigma":
        for zeta in sorted(nth_roots(field, ratio, n), key=sort_key):
            out.append(Transport(n, field, eps, delta, zeta, [zeta] * n, "sigma"))
    elif mode == "semilinear":
        if q is None:
            raise ValueError("semilinear mode needs the Frobenius power q")
        e = (q**n - 1) // (q - 1)
        for zeta in sorted(nth_roots(field, ratio, e), key=sort_key):
            xs = [field.zero] * n
            xs[0] = zeta
            for j in range(1, n):
                xs[j] = field.pow(xs[j - 1], q)
            out.append(Transport(n, field, eps, delta, zeta, xs, "semilinear"))
    elif mode == "all":
        nonzero = [x for x in field.elements() if x]
        def rec(prefix):
            if len(prefix) == n - 1:
                prod = field.one
                for x in prefix:
                    prod = prod * x
                xn = ratio * prod.inverse()
                if xn:
                    out.append(Transport(n, field, eps, delta, None,
                                         prefix + [xn], "all"))
                return
            for x in nonzero:
                rec(prefix + [x])
        rec([])
    else:
        raise ValueError(f"unknown transport mode {mode!r}")
    for t in out:
        t.verify_dga_map(n, _CHECK_GRADING_PRIME)
    return out


# -- monodromy -------------------------------------------------------------------------


class Monodromy:
    """The diagonal operator T(b) = omega^(D*alpha(b)) b on any fiber,
    including the singular one."""

    def __init__(self, conn: KummerConnection, field: Field, omega: FieldScalar):
        self.conn = conn
        self.field = field
        self.omega = omega
        if field.element_order(omega) != conn.denominator:
            raise ValueError(
                f"monodromy needs a root of unity of exact order {conn.denominator}"
            )

    def exponent(self, mask: int) -> int:
        a = self.conn.monomial_parameter(mask)
        return int(a * self.conn.denominator)

    def eigenvalue(self, mask: int) -> FieldScalar:
        return self.field.pow(self.omega, self.exponent(mask))

    def apply(self, z: Cochain) -> Cochain:
        return Cochain(z.n, {m: c * self.eigenvalue(m) for m, c in z.terms.items()})

    def is_fixed(self, mask: int) -> bool:
        return self.exponent(mask) % self.conn.denominator == 0


def monodromy(conn: KummerConnection, field: Field, omega) -> Monodromy:
    return Monodromy(conn, field, field.scalar(omega))


def t_fixed_masks(conn: KummerConnection, n: int) -> set[int]:
    """All monomials with integral parameter, over the full 2^(n^2) basis."""
    out = set()
    for mask in range(1 << (n * n)):
        if conn.is_fixed(mask):
            out.add(mask)
    return out


# -- cores and medial layers -------------------------------------------------------------


def _bundle_terms(bundle: Complex, mask: int):
    """The nonzero terms c x^xpow b of d(mask) on the bundle, as
    (b, c, xpow) with c a field scalar."""
    scalar = bundle.field.scalar
    for tgt, digits in bundle_digits(bundle.n, mask, bundle.field.p):
        for xpow, c in enumerate(digits):
            if c:
                yield tgt, scalar(c), xpow


class Core:
    """The polynomial-coefficient span of { x^(-alpha(b)) b } over the
    T-fixed monomial basis of a bundle complex.

    Differential entries are triples (target, coefficient, x-exponent); a
    negative x-exponent means the differential leaves the core (recorded as a
    closure failure, not an exception: for ill-chosen connections this is a
    finding, not a bug).
    """

    def __init__(self, bundle: Complex, conn: KummerConnection):
        if not bundle.descriptor.is_bundle():
            raise ValueError("core_build expects a bundle-mode complex")
        self.bundle = bundle
        self.conn = conn
        self.field = bundle.field
        self.n = bundle.n
        self.shift: dict[int, int] = {}
        self._basis: dict[int, list[int]] = {}
        for s in range(bundle.top_degree + 1):
            fixed = [m for m in bundle.basis(s) if conn.is_fixed(m)]
            self._basis[s] = fixed
            for m in fixed:
                self.shift[m] = -int(conn.monomial_parameter(m))
        self._triples: dict[int, list[tuple[int, FieldScalar, int]]] = {}
        self.closure_failures: list[tuple[int, int, int]] = []
        for s in range(bundle.top_degree + 1):
            for m in self._basis[s]:
                triples = []
                for tgt, c, xpow in _bundle_terms(bundle, m):
                    e = self.shift[m] + xpow - self.shift[tgt]
                    triples.append((tgt, c, e))
                    if e < 0:
                        self.closure_failures.append((m, tgt, e))
                triples.sort(key=lambda t: (t[0], t[2]))
                self._triples[m] = triples

    def basis(self, s: int) -> list[int]:
        return self._basis.get(s, [])

    def d_triples(self, mask: int):
        return self._triples[mask]

    @property
    def closed(self) -> bool:
        return not self.closure_failures

    def homogeneity_witness(self):
        """First differential term whose x-exponent is not zero, in
        (degree, source, target) order; None when strictly compatible."""
        for s in range(self.bundle.top_degree + 1):
            for m in self._basis[s]:
                for tgt, _c, e in self._triples[m]:
                    if e != 0:
                        return (m, tgt, e)
        return None

    def gr_diff(self) -> dict[int, dict[int, FieldScalar]]:
        """The exponent-zero part of the differential: the complex core/x."""
        out: dict[int, dict[int, FieldScalar]] = {}
        for m, triples in self._triples.items():
            out[m] = row = {}
            for tgt, c, e in triples:
                if e == 0:
                    add_term(row, tgt, c)
        return out

    def full_diff_at_one(self) -> dict[int, dict[int, FieldScalar]]:
        """All terms with x set to 1: the core evaluated at x = 1."""
        out: dict[int, dict[int, FieldScalar]] = {}
        for m, triples in self._triples.items():
            out[m] = row = {}
            for tgt, c, _e in triples:
                add_term(row, tgt, c)
        return out


def core_build(bundle: Complex, conn: KummerConnection) -> Core:
    return Core(bundle, conn)


def core_homogeneity(core: Core) -> dict:
    w = core.homogeneity_witness()
    if w is None:
        return {"holds": True, "witness": None}
    m, tgt, e = w
    return {
        "holds": False,
        "witness": {
            "source": format_monomial(m, core.n),
            "target": format_monomial(tgt, core.n),
            "x_exponent": e,
        },
    }


class Medial:
    """The F[x]-span of the T-fixed monomial basis, filtered by
    fil(x^w b) = w + alpha(b): the unique decreasing filtration extending the
    x-adic filtration of the core in which multiplication by x raises
    filtration by one."""

    def __init__(self, bundle: Complex, conn: KummerConnection):
        if not bundle.descriptor.is_bundle():
            raise ValueError("medial_build expects a bundle-mode complex")
        self.bundle = bundle
        self.conn = conn
        self.field = bundle.field
        self.n = bundle.n
        self.alpha: dict[int, int] = {}
        self._basis: dict[int, list[int]] = {}
        for s in range(bundle.top_degree + 1):
            fixed = []
            for m in bundle.basis(s):
                if conn.is_fixed(m):
                    a = int(conn.monomial_parameter(m))
                    if a > 0:
                        raise ValueError(
                            "medial layer needs nonpositive parameters on the "
                            "fixed basis"
                        )
                    fixed.append(m)
                    self.alpha[m] = a
            self._basis[s] = fixed

    def basis(self, s: int) -> list[int]:
        return self._basis.get(s, [])

    def filtration(self, mask: int, w: int) -> int:
        return w + self.alpha[mask]

    def min_filtration(self) -> int:
        return min(self.alpha.values(), default=0)

    def gr_basis(self, t: int) -> dict[int, list[tuple[int, int]]]:
        """Per cohomological degree: the (mask, w) pairs of weight exactly t."""
        out: dict[int, list[tuple[int, int]]] = {}
        for s, monos in self._basis.items():
            elems = [(m, t - self.alpha[m]) for m in monos if t - self.alpha[m] >= 0]
            if elems:
                out[s] = elems
        return out

    def d_pairs(self, mask: int):
        """Bundle differential restricted to the fixed basis, as
        (target, coefficient, x-power) triples."""
        return sorted(_bundle_terms(self.bundle, mask), key=lambda t: (t[0], t[2]))

    def weight_preserving(self) -> bool:
        """True when every differential term preserves fil(x^w b); holds
        exactly when the connection commutes with d on the nose."""
        for monos in self._basis.values():
            for m in monos:
                for tgt, _c, xpow in self.d_pairs(m):
                    if xpow + self.alpha[tgt] != self.alpha[m]:
                        return False
        return True


def medial_build(bundle: Complex, conn: KummerConnection) -> Medial:
    return Medial(bundle, conn)
