"""Exact cohomology over finite fields: Betti tables, representatives, cup
products and ring recognition.

All linear algebra runs through one sparse echelon over rows
``{column: code}``, where a code is the discrete log of a nonzero field
element in the coding of the field passed along (``Field.coding``, see
``gf``).  Each pivot sits at its row's least column, rows are inserted
shortest first, and the coding's single ``row -= c * prow`` step serves rank,
reduced echelon form, kernels and reduction of representatives.  Codes are
logs, so a step scales by the difference of the two rows' codes at the pivot,
and a stored row keeps its scale: rows are normalized to one only where
results leave the engine, in ``rref`` and ``nullspace``.  A row space has
exactly one reduced echelon form with pivots at least columns, so every
result is independent of the insertion order.
``insert_row`` also serves the filtered pairing of ``pages.run_pages``,
whose insertion order is the filtration's, deepest source first, not
shortest first: there the pivot each source lands on is the result, not
only the row space.

Every complex read here, a ``ravenel.Complex`` or a ``FiniteComplex``, has
field-scalar coefficients; the family over F[x] reaches this module only
through its fibers and the fixed layers of ``kummer``.  Rows are coded where
they enter the engine, the rows of d by the complex's ``d_row``, and decoded
where results leave it: representatives, class coordinates and cup products
are ``FieldScalar``-valued.

``block_matrix`` is the one place that turns d on an (s, u) block into coded
rows, one row d(m) per source m, indexed by the monomials of the (s + 1, u)
block, and every consumer reads those rows rather than expanding d again:
``betti`` streams them block by block into ranks, one block per σ-orbit up
to the middle degree;
``Cohomology`` eliminates each block's rows once, for the cocycles of
BlockCohomology(s, u), and hands the echelon of im d that the same pass
leaves up to BlockCohomology(s + 1, u) as its coboundaries, eliminated no
second time; ``exterior_ring_check`` reads its Betti profile off
``block_ranks``, which eliminates the class-0 block of each generator degree
up to the middle by the kernel pass of its BlockCohomology and hands that
block over, and builds any other generator block it reads on the echelon
``block_ranks`` left one degree down; and ``pages.run_pages`` pairs them by
the filtration.  A
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
every block it eliminates by the pivot set of the block one degree down in
the same class, keeping those sets by (s, u).  The premise d∘d = 0 is
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
along it once the blocks' sizes are seen to agree.  An orbit is led by its
least class, the same in every degree, so the block one degree below an
eliminated block was eliminated too, and its pivots clear it.  Only member
sets known to be σ-stable share (the full, critical and first-subscript
complexes, as ``Complex.block_orbits`` reads their labels); custom member
lists and a ``FiniteComplex``, whose ``sigma_acts`` is False, have one orbit
per block.

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
by e_q in a second part of the columns.  The rows that pivot in the d part,
cut to it and normalized at their least columns, are an echelon of im d_s,
the next block's B; a row that pivots in the identity part is a cocycle, and
these cocycles span pi(Z), as d_s∘pi = d_s.  Their reduced echelon form is
the unique one of pi(Z): the representatives.  Both it and the pivot set of B
depend only on the row spaces, not on the order the rows went in.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from .exterior import Cochain, degree, format_monomial, wedge
from .gf import Field


# -- elimination ----------------------------------------------------------------


def insert_row(row: dict, ech: dict[int, dict], field: Field):
    """Reduce the coded ``row`` (consumed) against the echelon ``ech`` (pivot
    -> row) until its least column is not a pivot; store it there as it
    stands, not normalized, and return that column, or None when the row
    reduces to zero.  A row that was stepped is stored as a fresh dict: the
    stepped one keeps the slots of the entries it cancelled."""
    step = field.coding.step
    stepped = False
    while row:
        piv = min(row)
        prow = ech.get(piv)
        if prow is None:
            ech[piv] = dict(row) if stepped else row
            return piv
        step(row, row[piv] - prow[piv], prow)
        stepped = True
        if piv in row:
            raise ArithmeticError(f"row step left its pivot column {piv} in the row")
    return None


def echelon(rows, field: Field) -> dict[int, dict]:
    """Echelon of the row space, pivot column -> row, shortest rows first;
    each row has its pivot at its least column, at the scale it landed with."""
    ech: dict[int, dict] = {}
    for r in sorted(rows, key=len):
        if r:
            insert_row(dict(r), ech, field)
    return ech


def matrix_rank(rows, ncols: int, field: Field, pivots: set | dict | None = None) -> int:
    """Number of pivots of coded rows; the engine does not need ncols, and
    no row is normalized.  The pivot columns are added to ``pivots`` when it
    is given: they clear the next degree (see the module docstring).  A dict
    gets the echelon itself, pivot -> row, and answers ``in`` the same way."""
    ech = echelon(rows, field)
    if pivots is not None:
        pivots.update(ech)
    return len(ech)


def rref(rows: list[dict[int, object]], field: Field):
    """Reduced row echelon form of coded sparse rows; returns (rows, pivot
    columns), rows ordered by pivot column, each normalized to one at its
    pivot on the way out."""
    step = field.coding.step
    ech = echelon(rows, field)
    pivots = sorted(ech)
    # back-substitute from the last pivot up: rows below are already reduced,
    # so clearing one pivot column touches no other
    for p in reversed(pivots):
        row = ech[p]
        for q in [q for q in row if q != p and q in ech]:
            step(row, row[q] - ech[q][q], ech[q])
    return [field.coding.normalize(ech[p], ech[p][p]) for p in pivots], pivots


def nullspace(rows: list[dict], width: int, field: Field, skip=()):
    """Image and kernel of the map whose source q has the coded row rows[q]
    on the columns 0 .. width - 1, on the sources outside ``skip``, in one
    identity-augmented pass: the row of q is rows[q] plus e_q at column
    width + q, inserted shortest first, as ``echelon`` does.  The augmented
    rows span the graph {(d v, v)}, so the rows that pivot in the first part
    are an echelon of im d, and those that pivot in the identity part, whose
    first part is zero, are a basis of the kernel.

    Returns the echelon of im d, pivot -> row with the columns from width on
    dropped, each row normalized to one at its least column as it is cut,
    and the kernel rows relabelled to the sources, as they landed in the
    echelon, neither reduced nor normalized: a basis of the kernel on
    span{e_q : q not in skip}, whose ``rref`` is the unique reduced one."""
    one, q1 = field.coding.one, field.coding.q1
    ech: dict[int, dict] = {}
    kept = [q for q in range(len(rows)) if q not in skip]
    for q in sorted(kept, key=lambda q: len(rows[q])):
        augmented = dict(rows[q])
        augmented[width + q] = one
        # e_q stays in the row: no earlier row holds column width + q
        insert_row(augmented, ech, field)
    # each augmented row is dropped as it is cut, so the echelon and its
    # cut copies are not held at once
    image, kernel = {}, []
    for p in list(ech):
        row = ech.pop(p)
        if p < width:
            image[p] = {c: (v - row[p]) % q1 for c, v in row.items() if c < width}
        else:
            kernel.append({c - width: v for c, v in row.items()})
    return image, kernel


def reduce_against(vec: dict[int, object], rr_rows, pivots, field: Field):
    """Eliminate the pivot coordinates of an echelon family from a coded
    vector: the one vector of vec + span(rows) that is zero at every pivot.

    Any echelon will do, reduced or not, normalized or not, as long as the
    pivots come in ascending order and each row's least column is its pivot:
    a step at one pivot then touches only larger columns, so the pivots
    already cleared stay clear."""
    step = field.coding.step
    out = dict(vec)
    for p, row in zip(pivots, rr_rows):
        c = out.get(p)
        if c is not None:
            step(out, c - row[p], row)
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

    sigma_acts = dd_zero = False

    def dual_class(self, u: int) -> None:
        return None

    def d_monomial(self, label) -> dict:
        return self._diff.get(label, {})

    def d_row(self, label, column: dict) -> dict[int, int]:
        encode = self.field.coding.encode
        return {column[b]: encode(c) for b, c in self._diff.get(label, {}).items()}


def block_matrix(cx, s: int, u: int, skip=()):
    """Coded rows of d^s restricted to the (s, u) block: one sparse row d(m)
    per source m of the block, indexed by the (s + 1, u) block, and the
    number of those target columns.  The row of each source index in
    ``skip`` is left empty, and d is not expanded on it."""
    column = {m: i for i, m in enumerate(cx.blocks(s + 1).get(u, []))}
    d_row = cx.d_row
    rows: list[dict[int, int]] = []
    for j, mask in enumerate(cx.blocks(s).get(u, [])):
        if j in skip:
            rows.append({})
            continue
        try:
            rows.append(d_row(mask, column))
        except KeyError:
            where = (repr(mask) if isinstance(cx, FiniteComplex)
                     else format_monomial(mask, cx.n))
            raise AssertionError(f"differential leaves block u={u}: {where}") from None
    return rows, len(column)


def betti_numbers(dims: dict, ranks: dict) -> dict:
    """b(s, u) = dim C^(s,u) - rank d^(s,u) - rank d^(s-1,u), for the blocks
    where it is nonzero."""
    out = {}
    for (s, u), dim in dims.items():
        b = dim - ranks[(s, u)] - ranks.get((s - 1, u), 0)
        if b:
            out[(s, u)] = b
    return out


def complement_class(cx, s: int, u: int) -> int:
    """The class v = ``cx.dual_class(u)`` of the (N - s, v) block dual to the
    (s, u) block, once the complements of the (s, u) monomials are seen to be
    exactly the (N - s, v) monomials, N the top degree."""
    top = cx.top_degree
    v = cx.dual_class(u)
    full = (1 << top) - 1
    # blocks ascend, so their complements descend
    if [m ^ full for m in cx.blocks(s)[u]] != cx.blocks(top - s).get(v, [])[::-1]:
        raise RuntimeError(f"block {(s, u)} is not the complement of the block {(top - s, v)}")
    return v


def block_ranks(cx, handoff: dict[int, dict] | None = None) -> tuple[dict, dict]:
    """Dimension and rank of d of every (s, u) block.  Up to the middle, 2 s
    <= N - 1 for the top degree N, one elimination per σ-orbit of classes,
    ``cx.block_orbits``, on the block of its lead, copied along the orbit
    once each block's source and target are seen to have the lead's sizes.
    Each elimination is cleared, when ``cx.dd_zero``, by the pivot set of the
    block one degree down in the same class: orbits are led by their least
    class in every degree, so that block was eliminated too (see the module
    docstring).  Above the middle, when ``cx.dual_class`` gives the class v
    dual to u, the rank of the dual block (N - 1 - s, v), copied once the
    complements of the (s, u) monomials are seen to be exactly the (N - s, v)
    monomials.  That pins v to u_top - u, as classes add along products, so
    the complements of the target (s + 1, u) lie in the dual's source
    (N - 1 - s, v); a nonempty target gets the same check in turn, as a
    source one degree up.

    For each degree s that is a key of ``handoff``, handoff[s][u] gets what
    the cohomology of the (s, u) block is built on, by class.  The class-0
    block, when this eliminates it and ``cx.dd_zero`` holds, is eliminated by
    the kernel pass of a ``BlockCohomology`` in place of ``matrix_rank``: its
    rank is the size of the pass's ``image``, whose pivots clear the next
    degree, and the block is handed over without that image once they have.
    Each other class whose (s - 1, u) block this eliminates gets that
    block's echelon of im d, {pivot: row}: the coboundaries of the (s, u)
    block, at the scale its rows landed with.  Classes whose rank one degree
    down was copied get nothing."""
    field, top = cx.field, cx.top_degree
    handoff = handoff or {}
    blocks = {s: cx.blocks(s) for s in range(-1, top + 2)}
    ranks: dict[tuple[int, int], int] = {}
    dims: dict[tuple[int, int], int] = {}
    pivots: dict[tuple[int, int], set | dict] = {}

    def sizes(s, u):
        return len(blocks[s].get(u, ())), len(blocks[s + 1].get(u, ()))

    for s in range(top + 1):
        for orbit in cx.block_orbits(s):
            lead = orbit[0]
            dual = 2 * s > top - 1 and cx.dual_class(lead) is not None
            if not dual:
                cob = pivots.pop((s - 1, lead), {})
                if lead == 0 and s in handoff and cx.dd_zero:
                    bc = handoff[s][lead] = BlockCohomology(cx, s, lead, cob)
                    ranks[(s, lead)] = len(bc.image)
                    pivots[(s, lead)], bc.image = bc.image, None
                else:
                    rows, width = block_matrix(cx, s, lead, cob)
                    above = handoff.get(s + 1)
                    found = {} if above is not None else set() if cx.dd_zero else None
                    ranks[(s, lead)] = matrix_rank(rows, width, field, found)
                    if above is not None:
                        above[lead] = found
                    if cx.dd_zero:
                        pivots[(s, lead)] = found
            for u in orbit:
                if dual:
                    ranks[(s, u)] = ranks.get((top - 1 - s, complement_class(cx, s, u)), 0)
                elif sizes(s, u) != sizes(s, lead):
                    raise RuntimeError(f"block {(s, u)} and the block {(s, lead)} "
                                       "whose rank it takes differ in size")
                else:
                    ranks[(s, u)] = ranks[(s, lead)]
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

    ``cob`` is an echelon of the coboundaries B, pivot -> row, each row's
    pivot at its least column, at any scale: the ``image`` of the (s - 1, u)
    block, which ``nullspace`` normalizes there, or the echelon of the
    (s - 1, u) block that ``block_ranks`` eliminated, at the scale its rows
    landed with; ``block_ranks`` builds the blocks it hands over on the
    latter.
    As d∘d = 0 puts B inside Z = ker d, reducing Z against it gives
    pi(Z) = Z ∩ span{e_q : q not a pivot of B} (see the module docstring):
    the kernel that ``nullspace`` finds on the ``block_matrix`` rows of d on
    this block, those of B's pivots skipped.  Its length is ``dim``, and its
    reduced echelon basis, taken by ``rref`` when ``rep_rows`` or
    ``rep_pivots`` is first read, is the representatives, one vector per
    class: a block read only for its size, or whose complex fails before its
    classes are read, never reduces them.  The same pass leaves ``image``, an
    echelon of im d on this block: the (s + 1, u) block's coboundaries."""

    def __init__(self, cx, s: int, u: int, cob: dict[int, dict]):
        self.cx = cx
        self.s = s
        self.u = u
        field = cx.field
        self.coding = field.coding
        self.monomials = cx.blocks(s).get(u, [])
        self.index = {m: i for i, m in enumerate(self.monomials)}

        self.cob_pivots = sorted(cob)
        self.cob_rows = [cob[p] for p in self.cob_pivots]
        rows, width = block_matrix(cx, s, u, skip=cob)
        self.image, self._kernel = nullspace(rows, width, field, cob)
        self.dim = len(self._kernel)

    @cached_property
    def _representatives(self) -> tuple[list, list]:
        kernel, self._kernel = self._kernel, None
        return rref(kernel, self.cx.field)

    @property
    def rep_rows(self) -> list[dict]:
        return self._representatives[0]

    @property
    def rep_pivots(self) -> list[int]:
        return self._representatives[1]

    def representative(self, idx: int) -> Cochain:
        row = self.coding.decode_row(self.rep_rows[idx])
        return Cochain(self.cx.n, {self.monomials[c]: v for c, v in row.items()})

    def reduce(self, z: Cochain) -> list:
        """Class coordinates of a cocycle in this block's representative basis."""
        field = self.cx.field
        if not self.index.keys() >= z.terms.keys():
            raise ValueError(f"cochain not supported on block (s={self.s}, u={self.u})")
        vec = {self.index[m]: self.coding.encode(c) for m, c in z.terms.items()}
        vec = reduce_against(vec, self.cob_rows, self.cob_pivots, field)
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

    A block is built after the block below it, whose ``image`` echelon is its
    coboundaries: each block runs one elimination, and its rows of d are
    assembled once and dropped when it is built."""

    def __init__(self, cx):
        if isinstance(cx, FiniteComplex):
            raise ValueError("representatives need a Complex of monomials, "
                             "not a FiniteComplex")
        self.cx = cx
        self._blocks: dict[tuple[int, int], BlockCohomology] = {}

    def block(self, s: int, u: int) -> BlockCohomology:
        key = (s, u)
        if key not in self._blocks:
            cob = self.block(s - 1, u).image if u in self.cx.blocks(s - 1) else {}
            self._blocks[key] = BlockCohomology(self.cx, s, u, cob)
        return self._blocks[key]

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
    """Is the cohomology ring the exterior algebra on one generator in each
    expected odd degree?  Decided by the top-product certificate:

    - the Betti profile per degree, from ``block_ranks``, is the exterior
      profile; on mismatch no generator search runs;
    - generators are chosen greedily: in each expected degree d, the first
      class in (s, u, i) order that is independent of the products of the
      earlier generators landing in degree d;
    - ``certify_top_product`` holds on their representatives z_1 .. z_k:
      each is a cocycle, their degrees sum to the top degree N, whose
      monomial is a member, and z_1 ⋯ z_k has a nonzero top coefficient.

    Why that suffices.  An odd cochain squares to zero at the cochain level
    in every characteristic: m m = 0 for a monomial, and m m' = -m' m.  For
    a set S of generators let z_S be their product in order.  Take S ≠ T of
    equal degree: S meets the complement T^c, so z_S z_(T^c) repeats a factor
    and is 0, while z_S z_(S^c) = ± z_1 ⋯ z_k.  The exterior profile has
    b_N = 1 and C^N is spanned by the top monomial, so B^N = 0 and the top
    coefficient is a nonzero functional on H^N.  If a combination of z_S of
    one degree, coefficient a_T on z_T, is a coboundary d w, multiplying by
    the cocycle z_(T^c) gives a_T (± z_1 ⋯ z_k) = ± d(w z_(T^c)), which lies
    in B^N = 0, so a_T = 0.  The 2^k products are independent, the profile
    says they exhaust H, and they multiply as in the exterior algebra.

    Each generator block is eliminated once.  The search reads the class-0
    block of a degree first, whenever it has cohomology, and ``block_ranks``
    hands that block over, its kernel pass run in place of its rank
    elimination, for each expected degree up to the middle when
    ``cx.dd_zero`` holds.  Any other block it reads is one
    ``BlockCohomology`` on the coboundaries that ``block_ranks`` eliminated
    one degree down; where it copied that rank, along a σ-orbit or from its
    dual block, the block comes from the ``Cohomology`` chain instead."""
    chain = Cohomology(cx)
    field, coding = cx.field, cx.field.coding
    poincare = exterior_profile(expected_degrees)
    handoff: dict[int, dict] = {d: {} for d in expected_degrees}
    dims, ranks = block_ranks(cx, handoff)
    table = BettiTable(betti_numbers(dims, ranks), dims)
    totals = table.totals_by_degree()
    if totals != poincare:
        return {
            "holds": False,
            "reason": f"Betti profile {totals} differs from exterior profile {poincare}",
        }

    def block(s: int, u: int) -> BlockCohomology:
        got = handoff[s].get(u)
        if isinstance(got, BlockCohomology):
            return got
        return chain.block(s, u) if got is None else BlockCohomology(cx, s, u, got)

    generators: list[tuple[int, int, int]] = []
    cocycles: list[Cochain] = []
    for d in expected_degrees:
        landing: dict[int, list[Cochain]] = {}
        for r in range(1, len(cocycles) + 1):
            for factors in combinations(range(len(cocycles)), r):
                if sum(generators[j][0] for j in factors) == d:
                    z = wedge_product(cx, [cocycles[j] for j in factors])
                    if z:
                        landing.setdefault(cx.block_key(next(iter(z.terms))), []).append(z)
        found = None
        for u in sorted(u for s, u in table.entries if s == d):
            bc = block(d, u)
            try:
                spanned = [coding.encode_row(dict(enumerate(bc.reduce(z))))
                           for z in landing.get(u, ())]
            except ValueError:
                return {"holds": False,
                        "reason": f"a product of generators in degree {d} is not a cocycle"}
            rr_rows, rr_piv = rref(spanned, field)
            for i in range(bc.dim):
                if reduce_against({i: coding.one}, rr_rows, rr_piv, field):
                    found = bc, i
                    break
            if found:
                break
        if found is None:
            return {"holds": False,
                    "reason": f"no indecomposable class in degree {d}"}
        bc, i = found
        generators.append((d, bc.u, i))
        cocycles.append(bc.representative(i))

    reason = certify_top_product(cx, expected_degrees, cocycles)
    if reason:
        return {"holds": False, "reason": reason}
    return {"holds": True, "generators": generators}


def wedge_product(cx, factors: list[Cochain]) -> Cochain:
    """The wedge product of cochains in order; the unit for none."""
    out = Cochain(cx.n, {0: cx.field.one})
    for z in factors:
        out = out.wedge(z)
    return out


def certify_top_product(cx, degrees: list[int], cocycles: list[Cochain]) -> str | None:
    """Why the cochains z_1 .. z_k, of the given degrees, are no certificate
    that H is exterior on them (see ``exterior_ring_check``), or None when
    they are one: each degree is odd and each z is a cocycle, d z = 0
    checked term by term by ``cx.d_cochain``; the degrees sum to the top
    degree N and the top monomial is a member; and the top coefficient of
    z_1 ⋯ z_k is nonzero.  That coefficient is the pairing of z_1 ⋯ z_(k-1)
    with the complements of the terms of z_k."""
    for d, z in zip(degrees, cocycles, strict=True):
        if d % 2 == 0:
            return f"generator degree {d} is even: its square need not vanish"
        if cx.d_cochain(z):
            return f"generator in degree {d} is not a cocycle"
    top = cx.top_degree
    if sum(degrees) != top:
        return f"generator degrees sum to {sum(degrees)}, not the top degree {top}"
    full = (1 << top) - 1
    if not cx.contains(full):
        return "the top monomial is not a member"
    head = wedge_product(cx, cocycles[:-1]).terms
    coefficient = cx.field.zero
    for m, c in cocycles[-1].terms.items():
        a = head.get(full ^ m)
        if a:
            sign, _ = wedge(full ^ m, m)
            coefficient = coefficient + a * c if sign > 0 else coefficient - a * c
    if not coefficient:
        return "the product of the generators has top coefficient 0"
    return None
