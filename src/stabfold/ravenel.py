"""The deformed exterior DGAs, their gl_n specialization, and subcomplexes.

The degree-1 differential is

    d(h[i,j]) = sum_{l=1}^{i-1} h[l,j] h[i-l,j+l]
              + eps * sum_{l=i}^{n} h[l,j] h[i-l+n,j+l]

extended to all monomials by the graded Leibniz rule.  That expansion is
written once, over the integers with eps set to an integer (`integer_d`), and
every complex is a fiber of it with field-scalar coefficients: it reduces the
integers mod p (eps = 1 is the Chevalley-Eilenberg complex of the n x n
matrix Lie algebra, eps = 0 the singular, solvable fiber).  A complex reads
it two ways: ``Complex.d_monomial`` as field scalars, for cochains, and
``Complex.d_row`` as the codes of ``gf.Coding``, for the rows of
``homology.block_matrix``.  ``integer_d`` reads a ``term_table``, built once per pair table and integer eps from the
pair table it is handed, never cached by n.  It lists, per generator g, each
pair term lo < hi whose coefficient is nonzero at that eps, with its sign
mask (g - 1) ^ (((lo - 1) ^ (hi - 1)) & ~g): the Leibniz sign of the term on
a monomial m is the parity of m & sign mask, one popcount.  The family over
the affine line, eps = x, is read in one place: ``bundle_digits`` evaluates
at eps = KRONECKER_BASE and reads the coefficients of 1 and x off as base-B
digits, for the fixed layer of ``kummer``; the exhaustive d∘d = 0 scan does
the same with two applications of d.  Sparse combinations of terms are
merged with ``exterior.add_term``.

A subcomplex is the list of its members.  ``grading_tables`` holds the
internal class and the first-subscript sum mod n of every subset of the low
and of the high half of the slots, and ``subcomplex`` lists the critical and
first-subscript complexes as the ``exterior.split_join`` of those tables: the
monomials whose two halves cancel.  Their closure under d rests on a
generator-level certificate that ``subcomplex`` checks on the pair table of
the subcomplex it returns: each term of d(g) keeps g's internal class and
first-subscript sum mod n, and both gradings add along the wedge products of
the Leibniz rule.

Each complex keeps the pair table its d is read from (``Complex.pairs``),
and its symmetries are certified on that table, at most once per complex
and never shared between complexes: ``sigma_certificate`` checks that the
cyclic shift σ commutes with d and multiplies the internal class by p, so
``betti`` eliminates one block per σ-orbit; ``duality_certificate`` that d
vanishes in degree n^2 - 1, so it copies the ranks above the middle degree
from their Poincaré-dual blocks; and ``dd_zero_certificate`` that d∘d
vanishes on the generators, so it clears each elimination by the pivots of
the one below it (see ``homology``).  All three hold only for the member
sets in SIGMA_STABLE.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .exterior import (
    Cochain,
    add_term,
    first_subscript_sum,
    generator_mask,
    internal_degree,
    internal_weights,
    normalize_j,
    sigma_power,
    split_join,
    subset_sums,
    wedge,
)
from .gf import Field

# the labels whose member sets σ maps onto themselves
SIGMA_STABLE = ("full", "critical", "fsc")

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
        self.epsilon = epsilon  # a FieldScalar of the prime subfield
        self.lie = lie
        self.label = label


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


class GradingTables(NamedTuple):
    """The internal class and the first-subscript sum mod n of each subset of
    the low ``half`` slots and of the high n^2 - half slots: a monomial's
    value is the sum of its halves' entries.  ``lo_by_degree[k]`` lists the
    low halves with k slots, ascending, each as the pair (lo, class_lo[lo])."""
    half: int
    modulus: int  # of the internal class, 2(p^n - 1)
    class_lo: list
    class_hi: list
    fsum_lo: list
    fsum_hi: list
    lo_by_degree: list


_GRADING_TABLES: dict[tuple[int, int], GradingTables] = {}


def grading_tables(n: int, p: int) -> GradingTables:
    if (n, p) not in _GRADING_TABLES:
        weights, mod = internal_weights(n, p)
        firsts = [b // n + 1 for b in range(n * n)]
        half = n * n // 2
        tables = [[v % m for v in subset_sums(values, 0)] for values, m in (
            (weights[:half], mod), (weights[half:], mod),
            (firsts[:half], n), (firsts[half:], n))]
        lo_by_degree = [[] for _ in range(half + 1)]
        for lo, lo_class in enumerate(tables[0]):
            lo_by_degree[lo.bit_count()].append((lo, lo_class))
        _GRADING_TABLES[(n, p)] = GradingTables(half, mod, *tables, lo_by_degree)
    return _GRADING_TABLES[(n, p)]


def term_table(pairs, eps: int) -> list[list[tuple[int, int, int, int]]]:
    """The pair table ``pairs`` at the integer eps, per generator slot g:
    (other, sign mask, coefficient, pair mask) for each term of d(g) whose
    coefficient, presign or presign * eps, is nonzero.  ``other`` is the pair
    without g: a monomial m holding g meets the pair in g alone when
    ``other & m`` is 0.  d(g) moves past the generators of m below g, and its
    pair lo < hi into the rest r = m - g past those below lo and below hi; as
    r & X = m & X & ~g, the sign is the parity of m & sign mask."""
    out = []
    for gslot in range(len(pairs)):
        low = 1 << gslot
        terms = []
        for pmask, presign, e in pairs[gslot]:
            if e and not eps:
                continue
            lo = pmask & -pmask
            sign_mask = (low - 1) ^ (((lo - 1) ^ ((pmask ^ lo) - 1)) & ~low)
            c = presign * eps if e else presign
            terms.append((pmask & ~low, sign_mask, c, pmask))
        out.append(terms)
    return out


def kronecker_term_table(n: int) -> list[list[tuple[int, int, int, int]]]:
    """The term table of the height-n pair table at eps = KRONECKER_BASE."""
    return term_table(generator_pair_table(n), KRONECKER_BASE)


def integer_d(terms, mask: int) -> dict[int, int]:
    """d of a monomial over Z by the graded Leibniz rule, read off a
    ``term_table`` (which fixes the integer eps): {target mask: coefficient}.
    A target whose terms cancel keeps the entry 0."""
    out: dict[int, int] = {}
    mm = mask
    while mm:
        low = mm & -mm
        rest = mask ^ low
        for other, sign_mask, c, pmask in terms[low.bit_length() - 1]:
            if other & mask:
                continue
            tgt = rest | pmask
            if (mask & sign_mask).bit_count() & 1:
                c = -c
            out[tgt] = out.get(tgt, 0) + c
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


def bundle_digits(terms, mask: int, p: int):
    """d of a monomial over F_p[x], eps = x, read off integer_d on the
    ``kronecker_term_table`` terms: yields (target, (c0, c1)) with c_k the
    residue mod p of the coefficient of x^k, for each target where c0 + c1 x
    is nonzero."""
    for tgt, v in integer_d(terms, mask).items():
        c0, c1 = kronecker_digits(v, 2)
        c0 %= p
        c1 %= p
        if c0 or c1:
            yield tgt, (c0, c1)


def _integer_epsilon(descriptor: "DgaDescriptor") -> int:
    """eps as the integer integer_d evaluates at: the residue of a
    prime-subfield scalar."""
    v = descriptor.epsilon.v
    if v >= descriptor.field.p:
        raise ValueError("epsilon must lie in the prime subfield")
    return v


class Complex:
    """Graded cochain complex on a monomial basis with a sparse differential.

    Bases and blocks are computed lazily per cohomological degree; the block
    key is the internal degree class mod 2(p^n - 1).  A subcomplex is given
    by the list of its ``members``, which its bases read by degree, and its
    blocks split those bases.  Without one, every monomial is a member: the
    blocks are enumerated directly, and a basis is built from them only when
    asked for.
    """

    def __init__(self, descriptor: DgaDescriptor, members=None):
        self.descriptor = descriptor
        self.n = descriptor.n
        self.p = descriptor.p
        self.field = descriptor.field
        self._grading = grading_tables(self.n, self.p)
        self.internal_modulus = self._grading.modulus
        self._key_bits = (1 << self._grading.half) - 1
        self._members = None
        self._basis_cache: dict[int, list[int]] = {}
        if members is not None:
            self._members = frozenset(members)
            self._basis_cache = {s: [] for s in range(self.top_degree + 1)}
            for mask in sorted(self._members):
                self._basis_cache[mask.bit_count()].append(mask)
        self._block_cache: dict[int, dict[int, list[int]]] = {}
        # d and every certificate of this complex read this one table
        self.pairs = generator_pair_table(self.n)
        self._terms = term_table(self.pairs, _integer_epsilon(descriptor))
        self._sigma_stable = descriptor.label in SIGMA_STABLE
        # the prime subfield, indexed by residue: every coefficient of d lies
        # in it; and the code of each nonzero residue, for coded rows of d
        self._scalars = [self.field.scalar(c) for c in range(self.field.p)]
        self._codes = [None] + [self.field.coding.encode(c) for c in self._scalars[1:]]

    # -- basis ------------------------------------------------------------------

    @property
    def top_degree(self) -> int:
        return self.n * self.n

    def contains(self, mask: int) -> bool:
        return self._members is None or mask in self._members

    def basis(self, s: int) -> list[int]:
        """The members of degree s, ascending; for the full complex, the
        sorted union of its blocks, built on the first call."""
        if s < 0 or s > self.top_degree:
            return []
        if s not in self._basis_cache:
            # only the full complex gets here: every subset is a member
            self._basis_cache[s] = sorted(
                m for block in self.blocks(s).values() for m in block)
        return self._basis_cache[s]

    def _enumerate(self, s: int) -> dict[int, list[int]]:
        """Blocks of degree s of the full complex, empty outside 0 .. N, in
        one pass over the halves of the grading tables: each high half h in
        ascending order, then each low half l with s - |h| slots.  The masks
        h << half | l come out ascending, so each block is ascending, and the
        class of each is class_lo[l] + class_hi[h]."""
        g = self._grading
        half, mod, lows = g.half, g.modulus, g.lo_by_degree
        blocks: dict[int, list[int]] = {}
        get = blocks.get
        for hi, hi_class in enumerate(g.class_hi):
            k = s - hi.bit_count()
            if 0 <= k <= half:
                base = hi << half
                for lo, lo_class in lows[k]:
                    u = (lo_class + hi_class) % mod
                    block = get(u)
                    if block is None:
                        block = blocks[u] = []
                    block.append(base | lo)
        return blocks

    def dim(self) -> int:
        return sum(len(self.basis(s)) for s in range(self.top_degree + 1))

    def block_key(self, mask: int) -> int:
        g = self._grading
        return ((g.class_lo[mask & self._key_bits] + g.class_hi[mask >> g.half])
                % g.modulus)

    def blocks(self, s: int) -> dict[int, list[int]]:
        """The members of degree s by internal class, each block ascending:
        enumerated for the full complex, split off the basis otherwise."""
        if s not in self._block_cache:
            if self._members is None:
                self._block_cache[s] = self._enumerate(s)
            else:
                out: dict[int, list[int]] = {}
                for mask in self.basis(s):
                    out.setdefault(self.block_key(mask), []).append(mask)
                self._block_cache[s] = out
        return self._block_cache[s]

    @cached_property
    def sigma_acts(self) -> bool:
        """Does σ map the members onto themselves, commuting with d?  So for
        all monomials and for the critical and first-subscript complexes, once
        ``sigma_certificate`` holds on this complex's pair table."""
        return self._sigma_stable and sigma_certificate(self.pairs, self.n, self.p)

    @cached_property
    def dd_zero(self) -> bool:
        """Does d∘d vanish, by ``dd_zero_certificate``?  Claimed for the
        member sets that σ keeps; ``homology`` clears its eliminations by it,
        and custom member lists clear nothing."""
        return self._sigma_stable and dd_zero_certificate(self.pairs, self.n)

    @cached_property
    def _dual(self) -> bool:
        # members closed under complement: for fsc, the top monomial's sum is 0 mod n
        top = (1 << self.top_degree) - 1
        return (self._sigma_stable
                and (self.descriptor.label != "fsc" or first_subscript_sum(top, self.n) == 0)
                and duality_certificate(self.pairs, self.n, self.p))

    def block_orbits(self, s: int) -> list[list[int]]:
        """The internal classes of degree s in σ-orbits u, p u, p^2 u, ...
        (mod 2(p^n - 1)), each led by its least class u, so an orbit has the
        same lead in every degree.  Singletons unless ``sigma_certificate``
        holds and the members are σ-stable: all monomials, or the critical
        or first-subscript complex (σ keeps class 0 and the first-subscript
        sum)."""
        blocks = self.blocks(s)
        if not self.sigma_acts:
            return [[u] for u in blocks]
        orbits, seen = [], set()
        for u in blocks:
            if u not in seen:
                orbit = [u]
                while (v := orbit[-1] * self.p % self.internal_modulus) != u:
                    orbit.append(v)
                seen.update(orbit)
                k = orbit.index(min(orbit))
                orbits.append(orbit[k:] + orbit[:k])
        return orbits

    def dual_class(self, u: int) -> int | None:
        """The class u_top - u = -u of the blocks dual to the class-u blocks,
        if ``duality_certificate`` holds for these members, else None."""
        if not self._dual:
            return None
        return -u % self.internal_modulus

    # -- differential -------------------------------------------------------------

    def d_monomial(self, mask: int) -> dict[int, object]:
        """d of a basis monomial, as a map target mask -> field scalar."""
        p = self.field.p
        scalars = self._scalars
        out: dict[int, object] = {}
        for tgt, c in integer_d(self._terms, mask).items():
            c %= p
            if c:
                out[tgt] = scalars[c]
        return out

    def d_row(self, mask: int, column: dict[int, int]) -> dict[int, int]:
        """d of a basis monomial as a coded row {column[target]: code}, read
        off the same ``integer_d`` as ``d_monomial``; a target with a nonzero
        coefficient outside ``column`` raises KeyError."""
        p = self.field.p
        codes = self._codes
        out: dict[int, int] = {}
        for tgt, c in integer_d(self._terms, mask).items():
            c %= p
            if c:
                out[column[tgt]] = codes[c]
        return out

    def d_cochain(self, z: Cochain) -> Cochain:
        out: dict[int, object] = {}
        for mask, c in z.terms.items():
            for tgt, dc in self.d_monomial(mask).items():
                add_term(out, tgt, dc * c)
        return Cochain(self.n, out)

    def __repr__(self):
        return (f"Complex(lie={self.descriptor.lie}, label={self.descriptor.label}, "
                f"n={self.n}, p={self.p}, field={self.field}, "
                f"eps={self.descriptor.epsilon})")


# -- builders -------------------------------------------------------------------------


def build_deformed(n: int, p: int, field: Field, epsilon) -> Complex:
    """The fiber of the deformed DGA at the deformation parameter epsilon."""
    return Complex(DgaDescriptor(n, p, field, field.scalar(epsilon)))


def build_singular(n: int, p: int, field: Field) -> Complex:
    """The eps = 0 fiber: the Chevalley-Eilenberg complex of the solvable model."""
    return build_deformed(n, p, field, 0)


def build_gl(n: int, field: Field, p_for_grading: int) -> Complex:
    """CE complex of gl_n: the eps = 1 fiber, graded by p_for_grading."""
    return Complex(DgaDescriptor(n, p_for_grading, field, field.one, lie="gl"))


class ClosureError(RuntimeError):
    """A labeled subcomplex failed to be closed under the differential."""


def sigma_certificate(pairs, n: int, p: int) -> bool:
    """Does the cyclic shift σ: h[i,j] -> h[i,j+1] map the (s, u) blocks of
    the complexes of the height-n pair table ``pairs`` graded by p onto one
    another, commuting with d?

    Checked on the generators: σ multiplies each slot's internal weight by p
    mod 2(p^n - 1) and keeps its first subscript, every weight is even (so
    p^n u = u, and the orbit of a class closes within n steps), and σ
    commutes with d on the pair table, on the eps-free and on the eps terms
    apart, so for every integer eps.  σ permutes the generators with the
    reordering sign of ``exterior.sigma_power``, an algebra automorphism, so
    all of it holds on every monomial."""
    weights, mod = internal_weights(n, p)
    sigma = sigma_power(n, 1)

    def d_part(gslot: int, eps: int, acted: bool) -> dict[int, int]:
        """The eps-free (eps = 0) or the eps (eps = 1) part of σ(d(g)) when
        acted, else of d(g)."""
        out: dict[int, int] = {}
        for pmask, presign, e in pairs[gslot]:
            if e == eps:
                flip, tgt = sigma(pmask) if acted else (1, pmask)
                add_term(out, tgt, flip * presign)
        return out

    images = [sigma(1 << g)[1].bit_length() - 1 for g in range(n * n)]
    return all(image // n == gslot // n and w % 2 == 0 and weights[image] == p * w % mod
               and all(d_part(gslot, e, True) == d_part(image, e, False) for e in (0, 1))
               for gslot, (w, image) in enumerate(zip(weights, images)))


def duality_certificate(pairs, n: int, p: int) -> bool:
    """Is d^(N-1-s) on the (N-1-s, -u) block the signed transpose of d^s on
    the (s, u) block under the pairing of a monomial with its complement, in
    the complexes of the height-n pair table ``pairs`` graded by p whose
    members are closed under complement (N = n^2)?

    Checked on the N monomials of degree N - 1: d vanishes on each, on the
    eps-free and on the eps terms apart (``integer_d`` at KRONECKER_BASE), so
    for every integer eps.  Then d(a b) = d(a) b +- a d(b) is 0 for a of
    degree s and b of degree N - 1 - s: the top coefficient of d(a) b is -+
    that of a d(b).  The top monomial has class 0, so the (N - 1 - s, -u)
    block pairs with the (s, u) one: Poincaré duality of a unimodular Lie
    algebra's complex.  Which members are closed under complement is a fact
    of the member set, which ``Complex`` checks."""
    terms, top = term_table(pairs, KRONECKER_BASE), (1 << n * n) - 1
    return internal_degree(top, n, p) == 0 and not any(
        any(integer_d(terms, top ^ (1 << b)).values()) for b in range(n * n))


def dd_zero_certificate(pairs, n: int) -> bool:
    """Does d∘d vanish on the complexes of the height-n pair table ``pairs``,
    at every integer eps?

    Checked on the n^2 generators: d(d(g)) = 0 over the integers at
    eps = KRONECKER_BASE, where its balanced base-B digits are the
    coefficients of 1, eps and eps^2, so it vanishes at every integer eps.  d
    is an odd derivation, so d∘d is an even one, d(d(a b)) = d(d a) b +
    a d(d b), and vanishing on the generators it vanishes on every
    monomial."""
    terms = term_table(pairs, KRONECKER_BASE)
    for g in range(n * n):
        dd: dict[int, int] = {}
        for t1, v1 in integer_d(terms, 1 << g).items():
            for t2, v2 in integer_d(terms, t1).items():
                dd[t2] = dd.get(t2, 0) + v1 * v2
        if any(dd.values()):
            return False
    return True


def subcomplex(cx: Complex, which: str) -> Complex:
    """The critical or first-subscript subcomplex of a full complex.

    Closure under d on every monomial, at every n, rests on the certificate
    checked here on the pair table the subcomplex reads its d from: each term
    of d(g) keeps g's internal class and first-subscript sum mod n, and both
    add along wedge products.
    """
    if cx.descriptor.label != "full":
        raise ValueError("subcomplex expects a full complex")
    n, p = cx.n, cx.p
    if which not in ("critical", "fsc"):
        raise ValueError(f"unknown subcomplex label {which!r}")

    g = grading_tables(n, p)
    if which == "critical":
        lo, hi = g.class_lo, [(-u) % g.modulus for u in g.class_hi]
    else:
        lo, hi = g.fsum_lo, [(-f) % n for f in g.fsum_hi]
    desc = DgaDescriptor(n, p, cx.field, cx.descriptor.epsilon,
                         cx.descriptor.lie, which)
    sub = Complex(desc, members=split_join(lo, hi, g.half))
    for gslot, terms in sub.pairs.items():
        gmask = 1 << gslot
        for pmask, _sign, _eps in terms:
            if sub.block_key(pmask) != sub.block_key(gmask):
                raise ClosureError(f"internal class not preserved at slot {gslot}")
            if first_subscript_sum(pmask, n) != first_subscript_sum(gmask, n):
                raise ClosureError(f"first-subscript class not preserved at {gslot}")
    return sub


def _class_tallies(n: int, p: int):
    """Meet-in-the-middle split of the n^2 slots into a low and a high half:
    for each half, the number of its subsets per (internal class, first-
    subscript sum mod n); returns (low tally, high tally, internal modulus)."""
    g = grading_tables(n, p)
    return (Counter(zip(g.class_lo, g.fsum_lo)), Counter(zip(g.class_hi, g.fsum_hi)),
            g.modulus)


def _containment_witness_count(n: int, p: int) -> int:
    """Number of monomials with internal degree 0 but first-subscript sum != 0,
    by the same meet-in-the-middle tally as dims_by_class."""
    lo_t, hi_t, mod = _class_tallies(n, p)
    joint = sum(c * hi_t[(-u % mod, -f % n)] for (u, f), c in lo_t.items())
    return dims_by_class(n, p)[0] - joint


def containment_report(n: int, p: int, max_witnesses: int = 8) -> dict:
    """Decide whether every internal-degree-zero monomial has first-subscript
    sum zero, and list up to max_witnesses failures.

    Existence is settled by an exact count over all 2^(n^2) monomials (the
    meet-in-the-middle tally); the degree-by-degree scan for explicit
    witnesses only runs when failures exist, so it terminates early.  The
    witnesses all come from the lowest degree that has one, in the order
    ``itertools.combinations`` yields their slot sets: lexicographic in the
    ascending slot tuples, not ascending in the mask (at (4, 2) the mask 2065,
    slots (0, 4, 11), comes before 290, slots (1, 5, 8)).
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
    terms = kronecker_term_table(n)
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
            for t1, v1 in integer_d(terms, mask).items():
                d1 = d_next.get(t1)
                if d1 is None:
                    d1 = d_next[t1] = integer_d(terms, t1)
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


# -- dimension tables -------------------------------------------------------------------


def dims_by_class(n: int, p: int) -> tuple[int, int, int]:
    """(dim critical, dim first-subscript, dim full) counted over all 2^(n^2)
    monomials, by a meet-in-the-middle split of the slot set."""
    lo_t, hi_t, mod = _class_tallies(n, p)
    hi_by_u, hi_by_f, lo_by_f = Counter(), Counter(), Counter()
    for (u, f), c in hi_t.items():
        hi_by_u[u] += c
        hi_by_f[f] += c
    for (_u, f), c in lo_t.items():
        lo_by_f[f] += c
    cc = sum(c * hi_by_u[-u % mod] for (u, _f), c in lo_t.items())
    fsc = sum(c * hi_by_f[-f % n] for f, c in lo_by_f.items())
    return cc, fsc, 1 << (n * n)
