"""Exact cohomology over finite fields: Betti tables, representatives, cup
products, ring recognition, and ranks of induced maps.

All linear algebra runs through one sparse echelon over rows
``{column: code}``, where a code is the discrete log of a nonzero field
element in the coding of the field passed along (``Field.coding``, see
``gf``).  Each pivot sits at its row's least column and is normalized to one,
rows are inserted shortest first, and the coding's single ``row -= c * prow``
step serves rank, reduced echelon form, kernels and reduction of
representatives.  A row space has exactly one reduced echelon form with pivots
at least columns, so every result is independent of the insertion order.
``insert_row`` also serves the filtered pairing of ``pages.run_pages``,
whose insertion order is the filtration's, deepest source first, not
shortest first: there the pivot each source lands on is the result, not
only the row space.

Every complex read here, a ``ravenel.Complex`` or a ``FiniteComplex``, has
field-scalar coefficients; the family over F[x] reaches this module only
through its fibers and the fixed layers of ``kummer``.  Rows are coded where
they enter the engine and decoded where results leave it: representatives,
class coordinates and cup products are ``FieldScalar``-valued.

``block_matrix`` is the one place that turns d on an (s, u) block into coded
rows, one row d(m) per source m, indexed by the monomials of the (s + 1, u)
block, and every consumer reads those rows rather than expanding d again:
``betti`` streams them block by block into ranks, one block per orbit of
⟨σ, τ⟩ up to the middle degree;
``Cohomology`` hands each block's rows to two consumers, the cocycles of
BlockCohomology(s, u) and, at the image sources the first has found, the
coboundaries of BlockCohomology(s + 1, u), holding them only until the second
has taken them; ``exterior_ring_check`` reads its Betti profile off those
blocks' classes; and ``pages.run_pages`` pairs them by the filtration.  A
``FiniteComplex`` on arbitrary labels (the cores, medial layers and x-adic
windows of ``pages``) is read the same way.  ``block_matrix`` takes a set of
sources to skip, whose rows it leaves empty without expanding d on them.

Clearing (Chen-Kerber 2011, Bauer-Kerber-Reininghaus 2014) chooses the
sources to skip.  Let P be the pivots of an echelon of d^(s-1), as columns
of the (s, u) block, and B = im d^(s-1).  The echelon has one vector of B
with least column q for each q in P, so the sources outside P together with
B span C^s, and d^s kills B when d∘d = 0: the rows of the sources outside P span
im d^s, its rank is unchanged, and only b_s of them reduce to zero, in place
of rank d^(s-1) + b_s.  ``betti`` walks each class up the degrees and clears
every block it eliminates by the pivot set of the block one degree down,
keyed by (s, u, element, e): the same class, and the same split, whole, a
character λ^e of σ, or a character of an involution σ^a τ'.  A character's
sources at degree s are its target columns at degree s - 1, as both enumerate
the same ``group_orbits`` of the (s, u) block filtered by the orbits that
carry λ^e.  A block whose partner one degree down was copied, not
eliminated, is cleared by nothing.  The premise d∘d = 0 is
``ravenel.dd_zero_certificate`` on the complex's pair table, read per
complex as ``Complex.dd_zero``; a ``FiniteComplex`` and custom member lists
claim nothing, and clear nothing.

``betti`` eliminates one block per σ-orbit.  The cyclic shift σ: h[i,j] ->
h[i,j+1] permutes the generators, so it is an algebra automorphism, and
``ravenel.sigma_certificate`` checks on the generators that it multiplies the
internal class by p and commutes with d at every integer eps; a complex reads
the verdict for its own pair table as ``Complex.sigma_acts``.  So σ maps the
(s, u) block bijectively onto the (s, p u) block, each monomial to a signed
monomial, and d on the image block is d on the block conjugated by signed
permutation matrices: the ranks agree, and the one rank of an orbit is copied
along it once the blocks' sizes are seen to agree.  Only member sets known to
be σ-stable share (the full, critical and first-subscript complexes, as
``Complex.block_orbits`` reads their labels); custom member lists and a
``FiniteComplex``, whose ``sigma_acts`` and ``tau_acts`` are False, have one
orbit per block.

A σ-fixed block, p u = u (the critical class u = 0 among them), is its own
orbit, and σ acts on it.  When the field holds a primitive n-th root of
unity λ, σ^n = 1 splits the block into the eigenspaces of λ^e, e = 0 .. n-1,
which d keeps apart, so ``betti`` ranks one small block per character and
adds the ranks.  On the orbit of a representative r, of size k with
σ^k(r) = ε r, ε = ±1, the λ^e-eigenspace is spanned by
sum_j λ^(-e j) σ^j(r) when λ^(e k) = ε, and is zero otherwise: an orbit
carries exactly the k characters with λ^(e k) = ε (a fixed monomial, k = 1,
only those with λ^e = ε), and the characters share out the block.  In these
bases, up to the nonzero scalars k of the source and 1/k' of the target
orbits, d has the entry sum c (±λ^(e j)) at row r, column r', over the
terms c t of d(r) with σ^j(r') = ±t, r' the representative of t.  So d is
read on the representatives only (``characters``), and ``block_matrix``
assembles each character's rows.  The same holds for any cyclic group of
signed permutations of a block and its target that commute with d.

The reflection τ: h[i,j] -> h[i,-i-j] permutes the generators too, and
``ravenel.tau_certificate`` checks on them that d τ = -τ d at every integer
eps, τ^2 = 1 and τ σ = σ^(-1) τ, read per complex as ``Complex.tau_acts``.
So τ' = (-1)^s τ on degree s commutes with d.  τ maps the (s, u) block onto
one block (s, v) only when p is large against n, so each block map is
checked on every monomial of the block and of its target (``tau_maps``),
and a block whose check fails is eliminated as it would be without τ.  Three cases, for a lead u of a σ-orbit and v
the class of τ of its first monomial (``tau_class``):
- v lies in a σ-orbit ranked before: τ' conjugates d on the (s, u) block to
  d on the (s, v) block, and the rank is copied, the σ-orbits paired.
- v = p^b u lies in u's own σ-orbit: ρ = σ^(-b) τ' maps the block onto
  itself, commutes with d, and ρ^2 = 1, as τ σ^(-b) τ = σ^b.  For odd p its
  characters ±1 split the block in two, read off the orbits of ρ.  Here the
  orbit walk of ρ is the check (``reflection_tables``): it stops at a
  monomial outside the block.
- The block is σ-fixed and v = u: τ maps the λ^e-eigenspace of σ onto the
  λ^(-e) one (σ τ x = τ σ^(-1) x), conjugating d, so the λ^(-e) rank is
  the λ^e rank.

Above the middle, 2 s > N - 1 for the top degree N, ``betti`` copies each
rank from a block below.  <a, b>, the coefficient of the top monomial in
a b, pairs the (s, u) block perfectly with the (N - s, u_top - u) block,
each monomial with its complement up to sign.  ``ravenel.duality_certificate``
checks on the complex's pair table that d vanishes on the N monomials of
degree N - 1 at every integer eps and that u_top = 0; the complex checks
that its members are closed under complement.  Then d(a b) = 0 for a of degree s and b of degree
N - 1 - s, so <d a, b> = -+<a, d b>: d on the (N - 1 - s, u_top - u) block
is the signed transpose of d on the (s, u) block, and the ranks agree.  This is Poincaré duality of the
complex of a unimodular Lie algebra (Koszul 1950): gl_n at eps = 1, the
nilpotent L(n, n) at eps = 0.  ``Complex.dual_class`` names the dual class
for the same member sets as σ; custom member lists and a ``FiniteComplex``
name none, and each rank is copied only once the complements of the block's
monomials are seen to be the monomials of the (N - s, u_top - u) block.

Representatives come from one identity.  Let B = im d_(s-1) and Z = ker d_s
on a block, and let pi reduce a vector against an echelon of B, zeroing B's
pivot coordinates; pi is linear with kernel B.  When d∘d = 0, which
``ravenel.dd_zero_exhaustive`` establishes monomial by monomial, B lies
inside Z, so pi(z) = z - b stays in Z, and

    pi(Z) = Z ∩ span{e_q : q not a pivot of B},

one vector per class, where Z has one per dimension.  ``nullspace`` finds it
in one identity-augmented pass over the rows of the sources outside B's
pivots, the same clearing as ``betti``'s: the row of q is d(e_q) followed
by e_q in a second part of the columns.  A row that pivots in the d part is
a source whose image is independent of those before it, and these image
sources index a basis of im d_s, the next block's B; a row that pivots in
the identity part is a cocycle, and these cocycles span pi(Z), as d_s∘pi =
d_s.  Their reduced echelon form is the unique one of pi(Z): the
representatives.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import gcd
from typing import NamedTuple

from .exterior import Cochain, cyclic_orbits, degree, dihedral, format_monomial
from .gf import Field, primitive_root_of_unity


# -- elimination ----------------------------------------------------------------


def insert_row(row: dict, ech: dict[int, dict], field: Field):
    """Reduce the coded ``row`` (consumed) against the echelon ``ech`` (pivot
    -> row) until its least column is not a pivot; store it there, normalized,
    and return that column, or None when the row reduces to zero."""
    coding = field.coding
    while row:
        piv = min(row)
        prow = ech.get(piv)
        if prow is None:
            ech[piv] = coding.normalize(row, row[piv])
            return piv
        coding.step(row, row[piv], prow)
        if piv in row:
            raise ArithmeticError(f"row step left its pivot column {piv} in the row")
    return None


def echelon(rows, field: Field) -> dict[int, dict]:
    """Echelon of the row space, pivot column -> row, shortest rows first."""
    ech: dict[int, dict] = {}
    for r in sorted(rows, key=len):
        if r:
            insert_row(dict(r), ech, field)
    return ech


def matrix_rank(rows, ncols: int, field: Field, pivots: set | None = None) -> int:
    """Number of pivots of coded rows; the engine does not need ncols.  The
    pivot columns are added to ``pivots`` when it is given: they clear the
    next degree (see the module docstring)."""
    ech = echelon(rows, field)
    if pivots is not None:
        pivots.update(ech)
    return len(ech)


def rref(rows: list[dict[int, object]], field: Field):
    """Reduced row echelon form of coded sparse rows; returns (rows, pivot
    columns), rows ordered by pivot column, each pivot normalized to one."""
    step = field.coding.step
    ech = echelon(rows, field)
    pivots = sorted(ech)
    # back-substitute from the last pivot up: rows below are already reduced,
    # so clearing one pivot column touches no other
    for p in reversed(pivots):
        row = ech[p]
        for q in [q for q in row if q != p and q in ech]:
            step(row, row[q], ech[q])
    return [dict(ech[p]) for p in pivots], pivots


def nullspace(rows: list[dict], width: int, field: Field, skip=()):
    """Image and kernel of the map whose source q has the coded row rows[q]
    on the columns 0 .. width - 1, on the sources outside ``skip``, in one
    identity-augmented pass: the row of q is rows[q] plus e_q at column
    width + q, inserted in ascending q.  A row pivots in the first part
    exactly when rows[q] is independent of the kept rows before it.

    Returns those image sources, ascending, and the reduced echelon form of
    the rows that pivot in the identity part, relabelled to the sources, with
    its pivots: a basis of the kernel on span{e_q : q not in skip}."""
    one = field.coding.one
    ech: dict[int, dict] = {}
    image = []
    for q, row in enumerate(rows):
        if q not in skip:
            augmented = dict(row)
            augmented[width + q] = one
            # e_q stays in the row: every row before it ends left of width + q
            if insert_row(augmented, ech, field) < width:
                image.append(q)
    kernel = [{c - width: v for c, v in row.items()} for p, row in ech.items() if p >= width]
    return (image, *rref(kernel, field))


def reduce_against(vec: dict[int, object], rr_rows, pivots, field: Field):
    """Eliminate the pivot coordinates of an echelon family from a coded
    vector: the one vector of vec + span(rows) that is zero at every pivot.

    Any echelon will do, reduced or not, as long as the pivots come in
    ascending order and each row's least column is its pivot: a step at one
    pivot then touches only larger columns, so the pivots already cleared
    stay clear."""
    step = field.coding.step
    out = dict(vec)
    for p, row in zip(pivots, rr_rows):
        c = out.get(p)
        if c is not None:
            step(out, c, row)
    return out


# -- Betti tables -----------------------------------------------------------------


class BettiTable:
    def __init__(self, entries: dict[tuple[int, int], int],
                 block_dims: dict[tuple[int, int], int]):
        self.entries = {k: v for k, v in entries.items() if v}
        self.block_dims = block_dims

    def get(self, s: int, u: int) -> int:
        return self.entries.get((s, u), 0)

    def totals_by_degree(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (s, _u), b in self.entries.items():
            out[s] = out.get(s, 0) + b
        return out

    def grand_total(self) -> int:
        return sum(self.entries.values())

    def to_json_rows(self) -> list[dict]:
        return [
            {"s": s, "u": u, "dim": b}
            for (s, u), b in sorted(self.entries.items())
        ]

    def __eq__(self, other):
        return isinstance(other, BettiTable) and self.entries == other.entries


class FiniteComplex:
    """A finite cochain complex over a field on arbitrary hashable labels:
    the labels of each degree, and d as label -> {label: coefficient} one
    degree up.  Each degree is one block, u = 0, so ``betti``, ``block_matrix``
    and ``pages.run_pages`` read it like a ``Complex``.  Zero coefficients of
    ``diff`` are dropped: d is the same map without them."""

    def __init__(self, field, labels_by_degree: dict[int, list], diff: dict):
        self.field = field
        self.top_degree = max(labels_by_degree, default=0)
        self._labels = labels_by_degree
        self._diff = {a: {b: c for b, c in row.items() if c}
                      for a, row in diff.items()}

    def blocks(self, s: int) -> dict[int, list]:
        labels = self._labels.get(s)
        return {0: labels} if labels else {}

    def block_orbits(self, s: int) -> list[list[int]]:
        return [[u] for u in self.blocks(s)]

    sigma_acts = tau_acts = dd_zero = False

    def dual_class(self, u: int) -> None:
        return None

    def d_monomial(self, label) -> dict:
        return self._diff.get(label, {})


class Character(NamedTuple):
    """The λ^e-eigenspace of a cyclic group of signed permutations on an
    (s, u) block that it maps onto itself, as ``block_matrix`` reads it:
    ``sources`` holds (r, d(r)) for each source representative r whose orbit
    carries λ^e, and ``targets`` maps every monomial t of the (s + 1, u) block
    to (column, code of ±λ^(e j)), g^j(r') = ±t for the representative r' of
    t, with column None when the orbit of r' does not carry λ^e; ``width``
    counts the target representatives whose orbits carry λ^e."""
    e: int
    sources: list
    targets: dict
    width: int


def group_orbits(cx, s: int, u: int, a: int, reflect: bool) -> tuple[list, dict]:
    """The ``exterior.cyclic_orbits`` on the (s, u) block of σ^a, or with
    ``reflect`` of the involution (-1)^s σ^a τ, which commutes with d."""
    sign = -1 if reflect and s % 2 else 1
    return cyclic_orbits(cx.blocks(s).get(u, []), dihedral(cx.n, a, reflect), sign)


def characters(cx, s: int, u: int, element=(1, False), es=None,
               tables=None) -> list[Character]:
    """The characters λ^e, e in ``es`` (all by default), of the cyclic group
    generated by the ``group_orbits`` element (a, reflect) on the (s, u)
    block: ⟨σ⟩ of order n, or ⟨(-1)^s σ^a τ⟩ of order 2 with λ = -1.  λ is a
    primitive root of unity of the group's order in the field; the group
    maps the (s, u) and (s + 1, u) blocks onto themselves.  d is read once on
    each source representative, for all characters.  ``tables`` are the
    ``group_orbits`` of the (s, u) and the (s + 1, u) block when the caller
    has them: ``block_ranks`` keeps those of σ, so a block that is the target
    of d^(s-1) and the source of d^s has its σ-orbits found once."""
    field = cx.field
    a, reflect = element
    order = 2 if reflect else cx.n // gcd(a, cx.n)
    encode = field.coding.encode
    lam, sign_of = primitive_root_of_unity(field, order), {1: field.one, -1: -field.one}
    (src, _), (tgt, where) = tables or [group_orbits(cx, t, u, a, reflect) for t in (s, s + 1)]
    terms = [(r, cx.d_monomial(r)) for r, _k, _sign in src]
    out = []
    for e in range(order) if es is None else es:
        power = [field.pow(lam, e * j) for j in range(order + 1)]
        code = {sign: [encode(x * one) for x in power] for sign, one in sign_of.items()}
        # an orbit of size k carries λ^e when λ^(e k) is the sign of g^k on it
        carries = {(k, sign) for k in range(1, order + 1) for sign, one in sign_of.items()
                   if power[k] == one}
        sources = [t for t, (_r, k, sign) in zip(terms, src) if (k, sign) in carries]
        column_of = {}
        for o, (_r, k, sign) in enumerate(tgt):
            if (k, sign) in carries:
                column_of[o] = len(column_of)
        targets = {t: (column_of.get(o), code[sign][j]) for t, (o, j, sign) in where.items()}
        out.append(Character(e, sources, targets, len(column_of)))
    return out


def tau_class(cx, s: int, u: int) -> int:
    """The class of τ of the (s, u) block's first monomial: the class of the
    block τ maps the (s, u) block onto, if it maps it onto one block at all,
    which ``tau_maps`` checks."""
    return cx.block_key(dihedral(cx.n, 0, True)(cx.blocks(s)[u][0])[1])


def tau_maps(cx, s: int, u: int, v: int) -> bool:
    """Does τ map the (s, u) block onto the (s, v) block and the (s + 1, u)
    block onto the (s + 1, v) block?  Checked on every monomial of both: τ's
    map on classes is well defined only for p large against n."""
    tau = dihedral(cx.n, 0, True)
    for t in (s, s + 1):
        blocks = cx.blocks(t)
        if sorted(tau(m)[1] for m in blocks.get(u, ())) != blocks.get(v, []):
            return False
    return True


def reflection_tables(cx, s: int, u: int, a: int):
    """The ``group_orbits`` of the involution (-1)^s σ^a τ on the (s, u) block
    and on its target, or None when σ^a τ takes a monomial out of them: its
    orbit walk meets every monomial of both, and checks the block map there."""
    try:
        return [group_orbits(cx, t, u, a, True) for t in (s, s + 1)]
    except ValueError:
        return None


def block_matrix(cx, s: int, u: int, character: Character | None = None, skip=()):
    """Coded rows of d^s restricted to the (s, u) block: one sparse row d(m)
    per source m of the block, indexed by the (s + 1, u) block, and the
    number of those target columns.  The row of each source index in
    ``skip`` is left empty, and d is not expanded on it.

    Given a ``Character`` λ^e of σ on a σ-fixed block, the rows of d on its
    eigenspace instead: one row per representative in ``character.sources``,
    one column per target representative that carries λ^e.  A term c t of
    d(r) adds c (±λ^(e j)) at the column of t's representative r',
    σ^j(r') = ±t (see the module docstring)."""
    coding = cx.field.coding
    encode, mul, add_to = coding.encode, coding.mul, coding.add_to
    if character is None:
        src = cx.blocks(s).get(u, [])
        tgt = cx.blocks(s + 1).get(u, [])
        sources = [(m, None if j in skip else cx.d_monomial(m)) for j, m in enumerate(src)]
        # no character: each target is its own column, and no code is scaled
        targets = {m: (i, None) for i, m in enumerate(tgt)}
        width = len(tgt)
    else:
        sources, targets, width = character.sources, character.targets, character.width
    rows: list[dict[int, object]] = []
    for j, (mask, terms) in enumerate(sources):
        row: dict[int, object] = {}
        rows.append(row)
        if j in skip:
            continue
        for t, c in terms.items():
            hit = targets.get(t)
            if hit is None:
                where = (repr(mask) if isinstance(cx, FiniteComplex)
                         else format_monomial(mask, cx.n))
                raise AssertionError(f"differential leaves block u={u}: {where}")
            i, shift = hit
            if shift is None:
                row[i] = encode(c)
            elif i is not None:
                # two terms of d(r) may share a representative
                add_to(row, i, mul(encode(c), shift))
    return rows, width


def betti_numbers(dims: dict, ranks: dict) -> dict:
    """b(s, u) = dim C^(s,u) - rank d^(s,u) - rank d^(s-1,u), for the blocks
    where it is nonzero."""
    out = {}
    for (s, u), dim in dims.items():
        b = dim - ranks[(s, u)] - ranks.get((s - 1, u), 0)
        if b:
            out[(s, u)] = b
    return out


def block_ranks(cx) -> tuple[dict, dict]:
    """Dimension and rank of d of every (s, u) block.  Up to the middle, 2 s
    <= N - 1 for the top degree N, one elimination per orbit of the dihedral
    group ⟨σ, τ⟩ on the classes: ``cx.block_orbits`` are the σ-orbits, and
    when ``cx.tau_acts``, a σ-orbit whose lead τ maps onto a block of a
    σ-orbit ranked before takes that block's rank.  Each rank is copied along
    a σ-orbit or along τ once the block's source and target are seen to have
    the sizes of the ones it was found on.  Above it, when ``cx.dual_class``
    gives the class v dual to u, the rank of the dual block (N - 1 - s, v),
    copied once the complements of the (s, u) monomials are seen to be
    exactly the (N - s, v) monomials.  That pins v to u_top - u, as classes
    add along products, so the complements of the target (s + 1, u) lie in
    the dual's source (N - 1 - s, v); a nonempty target gets the same check
    in turn, as a source one degree up.

    Each block eliminated is cleared, when ``cx.dd_zero``, by the pivot set
    of the block one degree down in the same class and split (see the module
    docstring); ``pivots`` keeps those sets by (s, u, element, e)."""
    field, top = cx.field, cx.top_degree
    full = (1 << top) - 1

    def splits(order):
        # a primitive root of unity of the group's order lies in the field
        return (field.cardinality - 1) % order == 0

    sigma_split = cx.sigma_acts and splits(cx.n)
    tau = cx.tau_acts
    blocks = {s: cx.blocks(s) for s in range(-1, top + 2)}
    sigma_orbits = cache(lambda s, u: group_orbits(cx, s, u, 1, False))
    ranks: dict[tuple[int, int], int] = {}
    dims: dict[tuple[int, int], int] = {}
    pivots: dict[tuple, set] = {}

    def sizes(s, u):
        return len(blocks[s].get(u, ())), len(blocks[s + 1].get(u, ()))

    def copy(key, found):
        if sizes(*key) != sizes(*found):
            raise RuntimeError(f"block {key} and the block {found} "
                               "whose rank it takes differ in size")
        ranks[key] = ranks[found]

    def rank(s, u, element=None, character=None):
        e = None if character is None else character.e
        rows, width = block_matrix(cx, s, u, character, pivots.get((s - 1, u, element, e), ()))
        found = pivots.setdefault((s, u, element, e), set()) if cx.dd_zero else None
        return matrix_rank(rows, width, field, found)

    def rank_lead(s, orbit):
        """The rank of the lead block of a σ-orbit: copied along τ from a
        σ-orbit ranked before, or eliminated; split by the characters of σ
        on a σ-fixed block, λ^(-e) taken from λ^e when τ maps the block onto
        itself, or by the two characters of the involution σ^a τ' on a block
        that σ^a τ maps onto itself."""
        lead = orbit[0]
        v = tau_class(cx, s, lead) if tau else None
        if v is not None and v not in orbit and (s, v) in ranks and tau_maps(cx, s, lead, v):
            copy((s, lead), (s, v))
        elif len(orbit) == 1 and sigma_split:
            n = cx.n
            paired = v == lead and tau_maps(cx, s, lead, lead)
            parts = characters(cx, s, lead, (1, False),
                               [e for e in range(n) if not paired or e <= -e % n],
                               (sigma_orbits(s, lead), sigma_orbits(s + 1, lead)))
            # τ maps λ^e onto λ^(-e)
            ranks[(s, lead)] = sum(rank(s, lead, (1, False), ch)
                                   * (2 if paired and ch.e != -ch.e % n else 1) for ch in parts)
        else:
            tables = None
            if v in orbit and splits(2):
                # σ^a maps v = p^b u back to u for a = -b
                a = -orbit.index(v) % cx.n
                tables = reflection_tables(cx, s, lead, a)
            if tables:
                ranks[(s, lead)] = sum(rank(s, lead, (a, True), ch)
                                       for ch in characters(cx, s, lead, (a, True), None, tables))
            else:
                ranks[(s, lead)] = rank(s, lead)

    for s in range(top + 1):
        for orbit in cx.block_orbits(s):
            dual = 2 * s > top - 1 and cx.dual_class(orbit[0]) is not None
            if not dual:
                rank_lead(s, orbit)
            for u in orbit:
                if dual:
                    found = (top - 1 - s, cx.dual_class(u))
                    # blocks ascend, so their complements descend
                    if ([m ^ full for m in blocks[s][u]]
                            != blocks[top - s].get(found[1], [])[::-1]):
                        raise RuntimeError(f"block {(s, u)} is not the complement of "
                                           f"the block {(top - s, found[1])}")
                    ranks[(s, u)] = ranks.get(found, 0)
                else:
                    copy((s, u), (s, orbit[0]))
        dims.update(((s, u), len(monos)) for u, monos in blocks[s].items())
    return dims, ranks


def betti(cx) -> BettiTable:
    """Betti numbers per (cohomological degree, internal class) block."""
    dims, ranks = block_ranks(cx)
    return BettiTable(betti_numbers(dims, ranks), dims)


# -- representatives and the cup product ----------------------------------------------


class BlockCohomology:
    """Cohomology of one (s, u) block: cocycle representatives in coded
    reduced echelon form plus the machinery to reduce any cocycle to class
    coordinates.

    d_in are the ``block_matrix`` rows of d on the (s - 1, u) block, whose
    rows at ``image``, that block's ``image_cols``, are a basis of the
    coboundaries B.  As d∘d = 0 puts B inside Z = ker d, reducing Z against
    an echelon of B gives pi(Z) = Z ∩ span{e_q : q not a pivot of B} (see
    the module docstring): the kernel that ``nullspace`` finds on the sources
    that are no pivot of B, whose reduced echelon basis is the
    representatives, one vector per class.  Its rows come from
    d_out(skip), called once with B's pivots as skip: the ``block_matrix``
    rows of d on this block, those of skip left empty.  The sources whose
    rows pivot are ``image_cols``, and their rows are a basis of the
    (s + 1, u) block's coboundaries."""

    def __init__(self, cx, s: int, u: int, *, d_out, d_in: list, image: list):
        self.cx = cx
        self.s = s
        self.u = u
        field = cx.field
        self.coding = field.coding
        self.monomials = cx.blocks(s).get(u, [])
        self.index = {m: i for i, m in enumerate(self.monomials)}

        cob = echelon([d_in[j] for j in image], field)
        self.cob_pivots = sorted(cob)
        self.cob_rows = [cob[p] for p in self.cob_pivots]
        width = len(self.cx.blocks(s + 1).get(u, []))
        self.image_cols, self.rep_rows, self.rep_pivots = nullspace(d_out(cob), width, field, cob)

    @property
    def dim(self) -> int:
        return len(self.rep_rows)

    def representative(self, idx: int) -> Cochain:
        row = self.coding.decode_row(self.rep_rows[idx])
        return Cochain(self.cx.n, {self.monomials[c]: v for c, v in row.items()})

    def vector_of(self, z: Cochain) -> dict[int, object]:
        """The coded coordinate vector of a cochain on this block."""
        encode = self.coding.encode
        vec = {}
        for mask, c in z.terms.items():
            i = self.index.get(mask)
            if i is None:
                raise ValueError(
                    f"cochain not supported on block (s={self.s}, u={self.u})"
                )
            vec[i] = encode(c)
        return vec

    def reduce(self, z: Cochain) -> list:
        """Class coordinates of a cocycle in this block's representative basis."""
        field = self.cx.field
        vec = reduce_against(self.vector_of(z), self.cob_rows, self.cob_pivots, field)
        # the representatives are reduced, so a class coordinate is the entry
        # at its pivot
        decode = self.coding.decode
        coords = [decode(vec[p]) if p in vec else field.zero
                  for p in self.rep_pivots]
        if reduce_against(vec, self.rep_rows, self.rep_pivots, field):
            raise ValueError("not a cocycle modulo coboundaries")
        return coords


class Cohomology:
    """Lazy per-block cohomology of a ``ravenel.Complex``.

    A block is built after the block below it, whose image sources it takes.
    The rows of d on an (s, u) block serve two blocks: BlockCohomology(s, u)
    takes its cocycles, BlockCohomology(s + 1, u) its coboundaries at the
    image sources.  They are assembled once, for the first, but for the
    sources that are pivots of its coboundaries, and held only until the
    second takes them, and only when some row is nonzero."""

    def __init__(self, cx):
        if isinstance(cx, FiniteComplex):
            raise ValueError("representatives need a Complex of monomials, "
                             "not a FiniteComplex")
        self.cx = cx
        self._blocks: dict[tuple[int, int], BlockCohomology] = {}
        self._held: dict[tuple[int, int], list] = {}

    def block(self, s: int, u: int) -> BlockCohomology:
        key = (s, u)
        if key not in self._blocks:
            image = self.block(s - 1, u).image_cols if u in self.cx.blocks(s - 1) else []

            def d_out(skip):
                rows = block_matrix(self.cx, s, u, skip=skip)[0]
                if any(rows):
                    self._held[key] = rows
                return rows

            self._blocks[key] = BlockCohomology(
                self.cx, s, u, d_out=d_out, d_in=self._held.pop((s - 1, u), []),
                image=image)
        return self._blocks[key]

    def classes(self) -> list[tuple[int, int, int]]:
        out = []
        for s in range(self.cx.top_degree + 1):
            for u in sorted(self.cx.blocks(s)):
                bc = self.block(s, u)
                out.extend((s, u, i) for i in range(bc.dim))
        return out

    def representative(self, ref: tuple[int, int, int]) -> Cochain:
        s, u, i = ref
        return self.block(s, u).representative(i)

    def reduce_cocycle(self, z: Cochain) -> dict[tuple[int, int, int], object]:
        """Split a cocycle by (s, u) block and reduce each part."""
        out: dict[tuple[int, int, int], object] = {}
        parts: dict[tuple[int, int], dict] = {}
        for mask, c in z.terms.items():
            key = (degree(mask), self.cx.block_key(mask))
            parts.setdefault(key, {})[mask] = c
        for (s, u), terms in parts.items():
            bc = self.block(s, u)
            for i, c in enumerate(bc.reduce(Cochain(self.cx.n, terms))):
                if c:
                    out[(s, u, i)] = c
        return out


# -- ring recognition ---------------------------------------------------------------


def exterior_profile(degrees) -> dict[int, int]:
    """Poincare profile of the exterior algebra on one generator per degree:
    cohomological degree -> dimension."""
    out: dict[int, int] = {}
    for r in range(len(degrees) + 1):
        for combo in combinations(degrees, r):
            d = sum(combo)
            out[d] = out.get(d, 0) + 1
    return out


def exterior_ring_check(cx, expected_degrees: list[int]) -> dict:
    """Does the cohomology ring look like the exterior algebra on one generator
    in each expected (odd) degree?

    The class counts per degree, read off the blocks' cohomology, are compared
    with the exterior profile first; on mismatch no generator search runs.
    Then generators are chosen greedily (any class independent of products of
    the earlier generators), and all square-free cup monomials must be linearly
    independent and exhaust the cohomology.
    """
    field = cx.field
    coding = field.coding
    coh = Cohomology(cx)
    all_classes = coh.classes()
    by_degree: dict[int, list] = {}
    for ref in all_classes:
        by_degree.setdefault(ref[0], []).append(ref)
    poincare = exterior_profile(expected_degrees)
    totals = {s: len(refs) for s, refs in by_degree.items()}
    if totals != poincare:
        return {
            "holds": False,
            "reason": f"Betti profile {totals} differs from exterior profile {poincare}",
        }

    nclasses = len(all_classes)
    class_index = {ref: i for i, ref in enumerate(all_classes)}

    def coords_of(z: Cochain) -> dict[int, object]:
        """Coded class coordinates of a cocycle."""
        return {class_index[r]: coding.encode(c)
                for r, c in coh.reduce_cocycle(z).items()}

    # representative cochain for each square-free product of chosen generators,
    # keyed by the (distinct) degrees of the factors
    generators: list[tuple[int, int, int]] = []
    products: dict[frozenset, Cochain] = {
        frozenset(): coh.representative((0, 0, 0))
    }
    for d in expected_degrees:
        spanned = [coords_of(z) for subset, z in products.items() if sum(subset) == d]
        rr_rows, rr_piv = rref(spanned, field)
        candidate = None
        for ref in by_degree.get(d, []):
            red = reduce_against({class_index[ref]: coding.one}, rr_rows, rr_piv, field)
            if red:
                candidate = ref
                break
        if candidate is None:
            return {"holds": False,
                    "reason": f"no indecomposable class in degree {d}"}
        generators.append(candidate)
        zc = coh.representative(candidate)
        for subset, z in list(products.items()):
            products[subset | {d}] = zc.wedge(z)

    for g in generators:
        zg = coh.representative(g)
        if coh.reduce_cocycle(zg.wedge(zg)):
            return {"holds": False,
                    "reason": f"generator in degree {g[0]} has nonzero square"}
    vectors = [coords_of(z) for z in products.values()]
    if matrix_rank(vectors, nclasses, field) != len(vectors):
        return {"holds": False, "reason": "cup monomials are linearly dependent"}
    if len(vectors) != nclasses:
        return {"holds": False, "reason": "cup monomials do not exhaust cohomology"}
    return {"holds": True, "generators": generators}


# -- induced maps -----------------------------------------------------------------------


def induced_map_rank(source, target) -> dict:
    """Per-(s, u) rank of the map on cohomology induced by the monomial map
    source -> target that keeps each monomial the target holds and sends the
    rest to 0 (an inclusion, or the projection onto a subcomplex), with
    isomorphism and surjectivity verdicts.

    The map must commute with d: keep(d m) = d(keep m) is checked on every
    source monomial m, and a failure raises ValueError."""
    def keep(terms: dict) -> Cochain:
        return Cochain(target.n, {m: c for m, c in terms.items() if target.contains(m)})

    for s in range(source.top_degree + 1):
        for mask in source.basis(s):
            image = target.d_monomial(mask) if target.contains(mask) else {}
            if keep(source.d_monomial(mask)).terms != image:
                raise ValueError(f"not a chain map at {format_monomial(mask, source.n)}")

    src_coh = Cohomology(source)
    tgt_coh = Cohomology(target)
    field = source.field
    ranks: dict[tuple[int, int], int] = {}
    src_b: dict[tuple[int, int], int] = {}
    tgt_b: dict[tuple[int, int], int] = {}

    keys = set()
    for s in range(source.top_degree + 1):
        keys.update((s, u) for u in source.blocks(s))
    for s in range(target.top_degree + 1):
        keys.update((s, u) for u in target.blocks(s))

    for (s, u) in sorted(keys):
        sb = src_coh.block(s, u) if u in source.blocks(s) else None
        tb = tgt_coh.block(s, u) if u in target.blocks(s) else None
        sdim = sb.dim if sb else 0
        tdim = tb.dim if tb else 0
        if sdim:
            src_b[(s, u)] = sdim
        if tdim:
            tgt_b[(s, u)] = tdim
        if not sdim or not tdim:
            ranks[(s, u)] = 0
            continue
        image_rows = []
        for i in range(sdim):
            img = keep(sb.representative(i).terms)
            coords = tb.reduce(img)
            vec = field.coding.encode_row(dict(enumerate(coords)))
            if vec:
                image_rows.append(vec)
        ranks[(s, u)] = matrix_rank(image_rows, tdim, field)

    iso = all(
        ranks.get(k, 0) == src_b.get(k, 0) == tgt_b.get(k, 0)
        for k in set(src_b) | set(tgt_b)
    )
    surjective = all(ranks.get(k, 0) == tgt_b.get(k, 0) for k in tgt_b)
    return {
        "ranks": ranks,
        "source_betti": src_b,
        "target_betti": tgt_b,
        "quasi_isomorphism": iso,
        "surjective_on_cohomology": surjective,
    }
