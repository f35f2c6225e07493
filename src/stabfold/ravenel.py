"""The deformed exterior DGAs, their gl_n specialization, and subcomplexes.

The degree-1 differential is

    d(h[i,j]) = sum_{l=1}^{i-1} h[l,j] h[i-l,j+l]
              + eps * sum_{l=i}^{n} h[l,j] h[i-l+n,j+l]

extended to all monomials by the graded Leibniz rule.  That expansion is
written once, over the integers with eps set to an integer (`integer_d`), and
every complex specializes it: a fiber reduces the integers mod p (eps = 1 is
the Chevalley-Eilenberg complex of the n x n matrix Lie algebra, eps = 0 the
singular, solvable fiber); the bundle, where eps stays the variable x and
coefficients live in F[x], evaluates at eps = KRONECKER_BASE and reads the
coefficients of the powers of x off as base-B digits (``bundle_digits``, the
one bundle reader, which ``Complex.d_monomial`` and the cores and medial
layers of ``kummer`` share); the exhaustive d∘d = 0 scan does the same with
two applications of d.  Sparse combinations of terms are merged with
``exterior.add_term``.

Closure of the critical and first-subscript subcomplexes rests on a
generator-level certificate that ``subcomplex`` checks on the pair table:
each term of d(g) keeps g's internal class and first-subscript sum mod n, and
both gradings add along the wedge products of the Leibniz rule.
"""

from __future__ import annotations

from itertools import combinations

from .exterior import (
    Cochain,
    add_term,
    first_subscript_sum,
    generator_mask,
    internal_weights,
    normalize_j,
    sigma_shift,
    wedge,
)
from .gf import Field, Poly

BUNDLE = "bundle"

# Kronecker substitution: eps = x is evaluated at this integer base B.  A
# coefficient of d or of d∘d is a sum of at most n^3 resp. n^3 * n^3 signed
# unit terms, so |c_k| <= n^6 <= 15,625 for n <= MAX_N, and any B > 2 n^6
# recovers every c_k exactly as a balanced base-B digit.
KRONECKER_BASE = 1 << 32


class DgaDescriptor:
    __slots__ = ("n", "p", "field", "epsilon", "lie", "label")

    def __init__(self, n, p, field, epsilon, lie="ravenel", label="full"):
        self.n = n
        self.p = p
        self.field = field
        self.epsilon = epsilon  # FieldScalar, or BUNDLE
        self.lie = lie
        self.label = label

    def is_bundle(self) -> bool:
        return self.epsilon == BUNDLE

    def to_json(self) -> dict:
        eps = "x" if self.is_bundle() else (
            self.epsilon.v if self.field.m == 1 else list(self.epsilon.v)
        )
        return {
            "version": 1,
            "n": self.n,
            "p": self.p,
            "field": {"p": self.field.p, "m": self.field.m,
                      "modulus": list(self.field.modulus)},
            "epsilon": eps,
            "lie": self.lie,
            "label": self.label,
        }


def _generator_pair_table(n: int) -> dict[int, list[tuple[int, int, int]]]:
    """Per generator slot: (pair mask, presign, eps flag) for each d-term.

    Terms whose two factors coincide are dropped (the wedge square is zero).
    """
    table: dict[int, list[tuple[int, int, int]]] = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            terms = []
            for ell in range(1, n + 1):
                eps = 0 if ell < i else 1
                a = (ell, j)
                i2 = i - ell if ell < i else i - ell + n
                b = (i2, normalize_j(j + ell, n))
                if a == b:
                    continue
                ma = generator_mask(*a, n)
                mb = generator_mask(*b, n)
                w = wedge(ma, mb)
                terms.append((w[1], w[0], eps))
            table[(i - 1) * n + (j - 1)] = terms
    return table


_PAIR_TABLES: dict[int, dict] = {}


def generator_pair_table(n: int) -> dict[int, list[tuple[int, int, int]]]:
    if n not in _PAIR_TABLES:
        _PAIR_TABLES[n] = _generator_pair_table(n)
    return _PAIR_TABLES[n]


def integer_d(table, mask: int, eps: int) -> dict[int, int]:
    """d of a monomial over Z with eps set to the integer eps, by the graded
    Leibniz rule over a pair table: {target mask: coefficient}.  A target
    whose terms cancel keeps the entry 0."""
    out: dict[int, int] = {}
    mm = mask
    while mm:
        low = mm & -mm
        rest = mask ^ low
        below = (mask & (low - 1)).bit_count()
        for pmask, presign, e in table[low.bit_length() - 1]:
            if pmask & rest or (e and not eps):
                continue
            # d(g) moves to g's place, past the generators below g; its pair
            # (lo < hi) then sorts into rest past those below lo and below hi
            lo = pmask & -pmask
            if (below + (rest & (lo - 1)).bit_count()
                    + (rest & ((pmask ^ lo) - 1)).bit_count()) & 1:
                c = -presign
            else:
                c = presign
            if e:
                c *= eps
            tgt = pmask | rest
            if tgt in out:
                out[tgt] += c
            else:
                out[tgt] = c
        mm ^= low
    return out


def kronecker_digits(v: int, count: int) -> list[int]:
    """The balanced base-KRONECKER_BASE digits c_0, ..., c_(count-1) of
    v = sum c_k B^k, each in [-B/2, B/2)."""
    half = KRONECKER_BASE >> 1
    out = []
    for _ in range(count):
        c = (v + half) % KRONECKER_BASE - half
        out.append(c)
        v = (v - c) // KRONECKER_BASE
    return out


def bundle_digits(n: int, mask: int, p: int):
    """d of a monomial on the bundle, read off integer_d at eps =
    KRONECKER_BASE: yields (target, (c0, c1)) with c_k the residue mod p of
    the coefficient of x^k, for each target where c0 + c1 x is nonzero."""
    for tgt, v in integer_d(generator_pair_table(n), mask, KRONECKER_BASE).items():
        c0, c1 = kronecker_digits(v, 2)
        c0 %= p
        c1 %= p
        if c0 or c1:
            yield tgt, (c0, c1)


def _integer_epsilon(descriptor: "DgaDescriptor") -> int:
    """eps as the integer integer_d evaluates at: KRONECKER_BASE for the
    bundle, else the residue of a prime-subfield scalar."""
    if descriptor.is_bundle():
        return KRONECKER_BASE
    v = descriptor.epsilon.v
    if descriptor.field.m == 1:
        return v
    if any(v[1:]):
        raise ValueError("epsilon must lie in the prime subfield")
    return v[0]


class Complex:
    """Graded cochain complex on a monomial basis with a sparse differential.

    Bases and blocks are computed lazily per cohomological degree; the block
    key is the internal degree class mod 2(p^n - 1).
    """

    def __init__(self, descriptor: DgaDescriptor, member=None):
        self.descriptor = descriptor
        self.n = descriptor.n
        self.p = descriptor.p
        self.field = descriptor.field
        self._member = member
        self._weights, self.internal_modulus = internal_weights(self.n, self.p)
        self._table = generator_pair_table(self.n)
        self._basis_cache: dict[int, list[int]] = {}
        self._block_cache: dict[int, dict[int, list[int]]] = {}
        f = self.field
        self._bundle = descriptor.is_bundle()
        self._eps = _integer_epsilon(descriptor)
        # the prime subfield, indexed by residue: every coefficient of d lies in it
        self._scalars = [f.scalar(c) for c in range(f.p)]
        self.ring_one = Poly.const(f, 1) if self._bundle else f.one

    # -- basis ------------------------------------------------------------------

    @property
    def top_degree(self) -> int:
        return self.n * self.n

    def contains(self, mask: int) -> bool:
        return self._member is None or self._member(mask)

    def basis(self, s: int) -> list[int]:
        if s < 0 or s > self.top_degree:
            return []
        if s not in self._basis_cache:
            out = []
            for combo in combinations(range(self.n * self.n), s):
                mask = 0
                for b in combo:
                    mask |= 1 << b
                if self.contains(mask):
                    out.append(mask)
            out.sort()
            self._basis_cache[s] = out
        return self._basis_cache[s]

    def dim(self) -> int:
        return sum(len(self.basis(s)) for s in range(self.top_degree + 1))

    def block_key(self, mask: int) -> int:
        total = 0
        w = self._weights
        mm = mask
        while mm:
            low = mm & -mm
            total += w[low.bit_length() - 1]
            mm ^= low
        return total % self.internal_modulus

    def blocks(self, s: int) -> dict[int, list[int]]:
        if s not in self._block_cache:
            out: dict[int, list[int]] = {}
            for mask in self.basis(s):
                out.setdefault(self.block_key(mask), []).append(mask)
            self._block_cache[s] = out
        return self._block_cache[s]

    # -- differential -------------------------------------------------------------

    def d_monomial(self, mask: int) -> dict[int, object]:
        """d of a basis monomial, as a map target mask -> ring coefficient."""
        p = self.field.p
        scalars = self._scalars
        if self._bundle:
            return {tgt: Poly(self.field, (scalars[c0], scalars[c1]))
                    for tgt, (c0, c1) in bundle_digits(self.n, mask, p)}
        out: dict[int, object] = {}
        for tgt, c in integer_d(self._table, mask, self._eps).items():
            c %= p
            if c:
                out[tgt] = scalars[c]
        return out

    def d_cochain(self, z: Cochain) -> Cochain:
        out: dict[int, object] = {}
        for mask, c in z.terms.items():
            for tgt, dc in self.d_monomial(mask).items():
                add_term(out, tgt, dc * c)
        return Cochain(self.n, out)

    def coefficient(self, value) -> object:
        """Coerce an integer into the coefficient ring."""
        if self.descriptor.is_bundle():
            return Poly.const(self.field, value)
        return self.field.scalar(value)

    def one_cochain(self, text: str) -> Cochain:
        from .exterior import cochain_from_text

        return cochain_from_text(text, self.n, self.ring_one)

    def __repr__(self):
        eps = "x" if self.descriptor.is_bundle() else self.descriptor.epsilon
        return (f"Complex(lie={self.descriptor.lie}, label={self.descriptor.label}, "
                f"n={self.n}, p={self.p}, field={self.field}, eps={eps})")


# -- builders -------------------------------------------------------------------------


def build_deformed(n: int, p: int, field: Field, epsilon) -> Complex:
    """The deformed DGA with deformation parameter epsilon (or BUNDLE)."""
    if epsilon != BUNDLE:
        epsilon = field.scalar(epsilon)
    return Complex(DgaDescriptor(n, p, field, epsilon))


def build_singular(n: int, p: int, field: Field) -> Complex:
    """The eps = 0 fiber: the Chevalley-Eilenberg complex of the solvable model."""
    return build_deformed(n, p, field, 0)


def build_bundle(n: int, p: int, field: Field) -> Complex:
    return build_deformed(n, p, field, BUNDLE)


def build_gl(n: int, field: Field, p_for_grading: int) -> Complex:
    """CE complex of gl_n: the eps = 1 fiber, graded by p_for_grading."""
    return Complex(DgaDescriptor(n, p_for_grading, field, field.one, lie="gl"))


class ClosureError(RuntimeError):
    """A labeled subcomplex failed to be closed under the differential."""


def subcomplex(cx: Complex, which: str) -> Complex:
    """The critical or first-subscript subcomplex of a full complex.

    Closure under d on every monomial, at every n, rests on the pair-table
    certificate checked here: each term of d(g) keeps g's internal class and
    first-subscript sum mod n, and both add along wedge products.
    """
    if cx.descriptor.label != "full":
        raise ValueError("subcomplex expects a full complex")
    n, p = cx.n, cx.p
    if which == "critical":
        member = lambda mask: cx.block_key(mask) == 0
    elif which == "fsc":
        member = lambda mask: first_subscript_sum(mask, n) == 0
    else:
        raise ValueError(f"unknown subcomplex label {which!r}")

    for gslot, terms in generator_pair_table(n).items():
        gmask = 1 << gslot
        for pmask, _sign, _eps in terms:
            if cx.block_key(pmask) != cx.block_key(gmask):
                raise ClosureError(f"internal class not preserved at slot {gslot}")
            if first_subscript_sum(pmask, n) != first_subscript_sum(gmask, n):
                raise ClosureError(f"first-subscript class not preserved at {gslot}")

    desc = DgaDescriptor(n, p, cx.field, cx.descriptor.epsilon,
                         cx.descriptor.lie, which)
    return Complex(desc, member)


def _class_tallies(n: int, p: int):
    """Meet-in-the-middle split of the n^2 slots into a low and a high half:
    for each half, the number of its subsets per (internal class, first-
    subscript sum mod n); returns (low tally, high tally, internal modulus)."""
    slots = n * n
    weights, mod = internal_weights(n, p)

    def tally(idxs):
        cnt: dict[tuple[int, int], int] = {}
        for r in range(len(idxs) + 1):
            for combo in combinations(idxs, r):
                u = sum(weights[b] for b in combo) % mod
                f = sum(b // n + 1 for b in combo) % n
                cnt[(u, f)] = cnt.get((u, f), 0) + 1
        return cnt

    return tally(range(slots // 2)), tally(range(slots // 2, slots)), mod


def _containment_witness_count(n: int, p: int) -> int:
    """Number of monomials with internal degree 0 but first-subscript sum != 0,
    by the same meet-in-the-middle tally as dims_by_class."""
    lo_t, hi_t, mod = _class_tallies(n, p)
    hi_by_u: dict[int, int] = {}
    for (u, f), c in hi_t.items():
        hi_by_u[u] = hi_by_u.get(u, 0) + c
    critical = joint = 0
    for (u, f), c in lo_t.items():
        critical += c * hi_by_u.get((-u) % mod, 0)
        joint += c * hi_t.get(((-u) % mod, (-f) % n), 0)
    return critical - joint


def containment_report(n: int, p: int, max_witnesses: int = 8) -> dict:
    """Decide whether every internal-degree-zero monomial has first-subscript
    sum zero, and list the earliest failures in (degree, mask) order.

    Existence is settled by an exact count over all 2^(n^2) monomials (the
    meet-in-the-middle tally); the degree-by-degree scan for explicit
    witnesses only runs when failures exist, so it terminates early.
    """
    total = 1 << (n * n)
    bad = _containment_witness_count(n, p)
    if bad == 0:
        return {"holds": True, "witness": None, "witnesses": [],
                "scanned": total}
    weights, mod = internal_weights(n, p)
    witnesses: list[int] = []
    for s in range(n * n + 1):
        for combo in combinations(range(n * n), s):
            mask = 0
            u = 0
            for b in combo:
                mask |= 1 << b
                u += weights[b]
            if u % mod == 0 and first_subscript_sum(mask, n) != 0:
                witnesses.append(mask)
                if len(witnesses) >= max_witnesses:
                    break
        if witnesses:
            break
    return {"holds": False, "witness": witnesses[0], "witnesses": witnesses,
            "scanned": total, "witness_count": bad}


def dd_zero_exhaustive(n: int, primes: list[int]) -> dict:
    """Exhaustive d(d(m)) = 0 check over every monomial of the height-n DGA.

    d∘d is taken over the integers at eps = KRONECKER_BASE, and its balanced
    base-B digits are the coefficients (c0, c1, c2) of 1, eps and eps^2.
    Reduction mod p is a ring homomorphism, so they settle the check for every
    requested prime at once: eps = 0 (c0 alone), eps = 1 (c0 + c1 + c2) and
    eps = x (each c_k).  "bad" counts the failing monomials per (p, eps), with
    eps in (0, 1, "x").
    """
    table = generator_pair_table(n)
    checked = 0
    failures = []
    bad = {(p, eps): 0 for p in primes for eps in (0, 1, "x")}
    for s in range(n * n + 1):
        d_next: dict[int, dict[int, int]] = {}  # d of degree s + 1, memoized
        for combo in combinations(range(n * n), s):
            mask = 0
            for b in combo:
                mask |= 1 << b
            acc: dict[int, int] = {}
            for t1, v1 in integer_d(table, mask, KRONECKER_BASE).items():
                d1 = d_next.get(t1)
                if d1 is None:
                    d1 = d_next[t1] = integer_d(table, t1, KRONECKER_BASE)
                for t2, v2 in d1.items():
                    acc[t2] = acc.get(t2, 0) + v1 * v2
            failed = set()
            for t2, v in acc.items():
                if not v:
                    continue
                c0, c1, c2 = kronecker_digits(v, 3)
                for p in primes:
                    at = {0: c0 % p, 1: (c0 + c1 + c2) % p,
                          "x": c0 % p or c1 % p or c2 % p}
                    if at["x"]:
                        failures.append({"mask": mask, "target": t2, "p": p,
                                         "coeffs": (c0, c1, c2)})
                    failed.update((p, eps) for eps, r in at.items() if r)
            for key in failed:
                bad[key] += 1
            checked += 1
    return {"ok": not failures, "checked": checked, "failures": failures[:8],
            "primes": list(primes), "bad": bad}


def sigma_apply(cx: Complex, z: Cochain, semilinear: bool = False) -> Cochain:
    """The cyclic shift h[i,j] -> h[i,j+1] on a cochain; the semilinear variant
    twists coefficients by the designated order-n Frobenius power."""
    field = cx.field
    if semilinear:
        if field.m % cx.n != 0:
            raise ValueError(
                "semilinear shift needs an order-n Frobenius power; "
                f"extension degree {field.m} is not a multiple of n={cx.n}"
            )
        q = field.p ** (field.m // cx.n)

        def twist(c):
            if isinstance(c, Poly):
                return Poly(field, [field.pow(a, q) for a in c.coeffs])
            return field.pow(c, q)
    else:
        twist = lambda c: c

    out: dict[int, object] = {}
    for mask, c in z.terms.items():
        sign, shifted = sigma_shift(mask, cx.n)
        cc = twist(c)
        add_term(out, shifted, -cc if sign < 0 else cc)
    return Cochain(cx.n, out)


# -- dimension tables -------------------------------------------------------------------


def dims_by_class(n: int, p: int) -> tuple[int, int, int]:
    """(dim critical, dim first-subscript, dim full) counted over all 2^(n^2)
    monomials, by a meet-in-the-middle split of the slot set."""
    lo_t, hi_t, mod = _class_tallies(n, p)
    hi_by_u: dict[int, int] = {}
    hi_by_f: dict[int, int] = {}
    for (u, f), c in hi_t.items():
        hi_by_u[u] = hi_by_u.get(u, 0) + c
        hi_by_f[f] = hi_by_f.get(f, 0) + c
    cc = fsc = 0
    lo_by_f: dict[int, int] = {}
    for (u, f), c in lo_t.items():
        cc += c * hi_by_u.get((-u) % mod, 0)
        lo_by_f[f] = lo_by_f.get(f, 0) + c
    for f, c in lo_by_f.items():
        fsc += c * hi_by_f.get((-f) % n, 0)
    return cc, fsc, 1 << (n * n)
