"""The deformed exterior DGAs, their gl_n specialization, and subcomplexes.

The degree-1 differential is

    d(h[i,j]) = sum_{l=1}^{i-1} h[l,j] h[i-l,j+l]
              + eps * sum_{l=i}^{n} h[l,j] h[i-l+n,j+l]

extended to all monomials by the graded Leibniz rule.  Setting eps = 1
recovers the Chevalley-Eilenberg complex of the n x n matrix Lie algebra;
eps = 0 gives the singular (solvable) fiber; in bundle mode eps stays the
polynomial variable x and coefficients live in F[x].
"""

from __future__ import annotations

from itertools import combinations

from .exterior import (
    Cochain,
    degree,
    first_subscript_sum,
    generator_mask,
    internal_weights,
    normalize_j,
    sigma_shift,
    slots_of,
    wedge,
)
from .gf import Field, FieldScalar, Poly

BUNDLE = "bundle"

# exhaustive closure verification is skipped above this many basis monomials
# (closure then rests on the generator-level grading check, which implies it)
_CLOSURE_SCAN_LIMIT = 1 << 12


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
        if descriptor.is_bundle():
            self.ring_one = Poly.const(f, 1)
            self._eps_coeff = Poly.x_power(f, 1)
        else:
            self.ring_one = f.one
            self._eps_coeff = descriptor.epsilon
        self._eps_is_zero = not descriptor.is_bundle() and not descriptor.epsilon

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
        out: dict[int, object] = {}
        table = self._table
        one = self.ring_one
        eps = self._eps_coeff
        eps_zero = self._eps_is_zero
        pos = 0
        mm = mask
        while mm:
            low = mm & -mm
            gslot = low.bit_length() - 1
            rest = mask ^ low
            prefix_neg = pos & 1
            for pmask, presign, e in table[gslot]:
                if e and eps_zero:
                    continue
                if pmask & rest:
                    continue
                w = wedge(pmask, rest)
                sign = presign * w[0]
                if prefix_neg:
                    sign = -sign
                coeff = eps if e else one
                if sign < 0:
                    coeff = -coeff
                tgt = w[1]
                if tgt in out:
                    acc = out[tgt] + coeff
                    if acc:
                        out[tgt] = acc
                    else:
                        del out[tgt]
                else:
                    out[tgt] = coeff
            mm ^= low
            pos += 1
        return out

    def d_cochain(self, z: Cochain) -> Cochain:
        out: dict[int, object] = {}
        for mask, c in z.terms.items():
            for tgt, dc in self.d_monomial(mask).items():
                v = dc * c
                if tgt in out:
                    acc = out[tgt] + v
                    if acc:
                        out[tgt] = acc
                    else:
                        del out[tgt]
                elif v:
                    out[tgt] = v
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
    """CE complex of gl_n; term-for-term equal to the eps = 1 fiber (asserted)."""
    cx = Complex(DgaDescriptor(n, p_for_grading, field, field.one, lie="gl"))
    table = generator_pair_table(n)
    one = field.one
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            expected: dict[int, FieldScalar] = {}
            for ell in range(1, n + 1):
                a = (ell, j)
                i2 = i - ell if ell >= 1 and ell < i else i - ell + n
                b = (i2, normalize_j(j + ell, n))
                if a == b:
                    continue
                w = wedge(generator_mask(*a, n), generator_mask(*b, n))
                c = one if w[0] > 0 else -one
                if w[1] in expected:
                    acc = expected[w[1]] + c
                    if acc:
                        expected[w[1]] = acc
                    else:
                        del expected[w[1]]
                else:
                    expected[w[1]] = c
            got = cx.d_monomial(generator_mask(i, j, n))
            if got != expected:
                raise AssertionError(
                    f"gl differential mismatch at h[{i},{j}]"
                )
    return cx


class ClosureError(RuntimeError):
    """A labeled subcomplex failed to be closed under the differential."""


def subcomplex(cx: Complex, which: str) -> Complex:
    """The critical or first-subscript subcomplex of a full complex.

    Closure under d is implied by the generator-level grading check (d
    preserves the internal class, and changes first-subscript sums only by
    multiples of n); small complexes are additionally scanned exhaustively.
    """
    if cx.descriptor.label != "full":
        raise ValueError("subcomplex expects a full complex")
    n, p = cx.n, cx.p
    if which == "critical":
        member = lambda mask: cx.block_key(mask) == 0
        if cx.descriptor.lie == "gl":
            from .exterior import reduced_internal_degree

            # reduced-grading criterion; consistency with the internal class
            # is asserted on the full basis of each degree up to the scan cap
            for s in range(min(n * n, 4) + 1):
                for mask in cx.basis(s)[:512]:
                    assert (reduced_internal_degree(mask, n, p) == 0) == (
                        cx.block_key(mask) == 0
                    )
    elif which == "fsc":
        member = lambda mask: first_subscript_sum(mask, n) == 0
    else:
        raise ValueError(f"unknown subcomplex label {which!r}")

    desc = DgaDescriptor(n, p, cx.field, cx.descriptor.epsilon,
                         cx.descriptor.lie, which)
    sub = Complex(desc, member)

    # generator-level grading check: every d-term preserves internal class and
    # the first-subscript sum mod n
    table = generator_pair_table(n)
    for gslot, terms in table.items():
        gmask = 1 << gslot
        for pmask, _sign, _eps in terms:
            if cx.block_key(pmask) != cx.block_key(gmask):
                raise ClosureError(f"internal class not preserved at slot {gslot}")
            if first_subscript_sum(pmask, n) != first_subscript_sum(gmask, n):
                raise ClosureError(f"first-subscript class not preserved at {gslot}")

    if sub.dim() <= _CLOSURE_SCAN_LIMIT:
        for s in range(sub.top_degree + 1):
            for mask in sub.basis(s):
                for tgt in sub.d_monomial(mask):
                    if not sub.contains(tgt):
                        raise ClosureError(
                            f"subcomplex {which} not closed at mask {mask:#x}"
                        )
    return sub


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


def dd_zero_exhaustive(n: int, primes: list[int], degrees=None) -> dict:
    """Exhaustive d(d(m)) = 0 check over every monomial of the height-n DGA.

    The two d-passes are accumulated with integer coefficients graded by
    eps-power (c0, c1, c2); evaluation of those integers in any coefficient
    ring is a ring homomorphism, so their reduction settles the check for
    every requested prime simultaneously, for eps = 0 (c0 alone), eps = 1
    (c0 + c1 + c2), and polynomial eps (each c_i separately).
    """
    table = generator_pair_table(n)
    degs = range(n * n + 1) if degrees is None else degrees
    checked = 0
    failures = []
    for s in degs:
        for combo in combinations(range(n * n), s):
            mask = 0
            for b in combo:
                mask |= 1 << b
            first: dict[int, list[int]] = {}
            pos = 0
            mm = mask
            while mm:
                low = mm & -mm
                rest = mask ^ low
                neg = pos & 1
                for pmask, presign, e in table[low.bit_length() - 1]:
                    if pmask & rest:
                        continue
                    w = wedge(pmask, rest)
                    sgn = -presign * w[0] if neg else presign * w[0]
                    cur = first.get(w[1])
                    if cur is None:
                        first[w[1]] = cur = [0, 0]
                    cur[e] += sgn
                mm ^= low
                pos += 1
            acc: dict[int, list[int]] = {}
            for t1, (c0, c1) in first.items():
                if not (c0 or c1):
                    continue
                pos = 0
                mm = t1
                while mm:
                    low = mm & -mm
                    rest = t1 ^ low
                    neg = pos & 1
                    for pmask, presign, e in table[low.bit_length() - 1]:
                        if pmask & rest:
                            continue
                        w = wedge(pmask, rest)
                        sgn = -presign * w[0] if neg else presign * w[0]
                        cur = acc.get(w[1])
                        if cur is None:
                            acc[w[1]] = cur = [0, 0, 0]
                        if e:
                            cur[1] += sgn * c0
                            cur[2] += sgn * c1
                        else:
                            cur[0] += sgn * c0
                            cur[1] += sgn * c1
                    mm ^= low
                    pos += 1
            for t2, (c0, c1, c2) in acc.items():
                for p in primes:
                    if c0 % p or (c0 + c1 + c2) % p or c1 % p or c2 % p:
                        failures.append({"mask": mask, "target": t2, "p": p,
                                         "coeffs": (c0, c1, c2)})
            checked += 1
    return {"ok": not failures, "checked": checked, "failures": failures[:8],
            "primes": list(primes)}


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
        if sign < 0:
            cc = -cc
        if shifted in out:
            acc = out[shifted] + cc
            if acc:
                out[shifted] = acc
            else:
                del out[shifted]
        else:
            out[shifted] = cc
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
