"""Splits of a block by a symmetry of d, to cross-check the unsplit ranks.

The package ranks every block whole (``homology.block_ranks``).  A cyclic
group of signed permutations of the monomials that maps an (s, u) block and
its target onto themselves and commutes with d splits d on the block into
one small matrix per character of the group, when the field holds a
primitive root of unity of the group's order; the ranks of the characters
add up to the rank of the whole block.  The tests compare those sums with
the package's ranks, so the character split is an independent route to each
rank it covers.

Two groups act.  σ: h[i,j] -> h[i,j+1] maps the (s, u) block onto the
(s, p u) block, so ⟨σ⟩ of order n acts on a σ-fixed block, p u = u.  The
reflection τ: h[i,j] -> h[i,-i-j] anticommutes with d (``tau_certificate``),
τ^2 = 1 and τ σ = σ^(-1) τ, so τ' = (-1)^s τ on degree s commutes with d,
and so does the involution (-1)^s σ^a τ.  ``dihedral`` is the action of
σ^a, the package's ``exterior.sigma_power``, or of σ^a τ, from row tables
here; ``cyclic_orbits`` lists the orbits of one group element on a block.

On the orbit of a representative r, of size k with g^k(r) = ε r, ε = ±1,
the λ^e-eigenspace is spanned by sum_j λ^(-e j) g^j(r) when λ^(e k) = ε,
and is zero otherwise.  In these bases, up to nonzero scalars, d has the
entry sum c (±λ^(e j)) at row r, column r', over the terms c t of d(r)
with g^j(r') = ±t, r' the representative of t: ``characters`` reads d on
the representatives only, and ``character_matrix`` assembles each
character's rows.

τ maps the (s, u) block onto one block (s, v) only when p is large against
n: ``tau_class`` names the class of τ of the block's first monomial, and
``tau_maps`` checks the block map on every monomial of the block and of its
target.
"""

from functools import cache
from itertools import combinations
from math import gcd
from typing import NamedTuple

from stabfold.exterior import add_term, internal_weights, sigma_power, slot
from stabfold.gf import primitive_root_of_unity


def dihedral(n: int, a: int, reflect: bool = False):
    """The signed permutation of the monomials induced by σ^a: h[i,j] ->
    h[i,j+a], or with ``reflect`` by σ^a τ: h[i,j] -> h[i,a-i-j], as a
    function mask -> (sign, image)."""
    return _reflection(n, a % n) if reflect else sigma_power(n, a)


@cache
def _reflection(n: int, a: int):
    # σ^a τ keeps the first subscript, so the sign is the parity of the
    # inversions of the images within each row: one table per row of n slots
    rows = []
    for i in range(1, n + 1):
        table = []
        for bits in range(1 << n):
            image = [slot(i, a - i - j, n) for j in range(1, n + 1) if bits >> (j - 1) & 1]
            parity = sum(x > y for x, y in combinations(image, 2)) & 1
            table.append((parity, sum(1 << t for t in image)))
        rows.append(table)
    low = (1 << n) - 1

    def act(mask: int) -> tuple[int, int]:
        parity, image = 0, 0
        for i, table in enumerate(rows):
            flip, bits = table[mask >> (i * n) & low]
            parity ^= flip
            image |= bits
        return (-1 if parity else 1), image

    return act


def cyclic_orbits(masks: list[int], act, sign: int = 1) -> tuple[list, dict]:
    """The orbits of the cyclic group generated by g: m -> sign * act(m), a
    signed permutation of the monomials (``act`` a ``dihedral`` element), on
    a list of monomials that g maps onto itself, in the order of their first
    members: (representative r, size k, sign ε) with g^k(r) = ε r for each,
    and, for each monomial t, (orbit, j, sign) with g^j(r) = sign t,
    0 <= j < k."""
    orbits: list[tuple[int, int, int]] = []
    where: dict[int, tuple[int, int, int]] = {}
    for r in masks:
        if r in where:
            continue
        t, j, total = r, 0, 1
        while True:
            where[t] = (len(orbits), j, total)
            flip, t = act(t)
            j, total = j + 1, total * flip * sign
            if t == r:
                break
        orbits.append((r, j, total))
    if len(where) != len(masks):
        raise ValueError("the action does not map these monomials onto themselves")
    return orbits, where


def _commutes(pairs, n: int, act, sign: int) -> bool:
    """Does the slot action ``act`` keep each generator's first subscript and
    satisfy d(act(g)) = sign * act(d(g)) on every generator g, on the
    eps-free and on the eps terms of the pair table apart?"""

    def d_part(gslot: int, eps: int, acted: bool) -> dict[int, int]:
        out: dict[int, int] = {}
        for pmask, presign, e in pairs[gslot]:
            if e == eps:
                flip, tgt = act(pmask) if acted else (sign, pmask)
                add_term(out, tgt, flip * presign)
        return out

    images = [act(1 << g)[1].bit_length() - 1 for g in range(n * n)]
    return all(image // n == gslot // n
               and all(d_part(gslot, e, True) == d_part(image, e, False) for e in (0, 1))
               for gslot, image in enumerate(images))


def tau_certificate(pairs, n: int, p: int) -> bool:
    """Does the reflection τ anticommute with d on the complexes of the
    height-n pair table ``pairs`` graded by p?  Checked on the generators:
    τ keeps each first subscript, τ^2 = 1 and σ τ σ = τ on the slots,
    d(τ g) = -τ(d g) on the pair table, on the eps-free and on the eps terms
    apart (so for every integer eps), and τ sends generators of one internal
    class to generators of one class.  τ permutes the generators, an algebra
    automorphism, and d is a derivation, so d τ = -τ d on every monomial."""
    weights, _mod = internal_weights(n, p)
    tau, sigma = dihedral(n, 0, True), dihedral(n, 1)
    tau_of = [tau(1 << g)[1].bit_length() - 1 for g in range(n * n)]
    sigma_of = [sigma(1 << g)[1].bit_length() - 1 for g in range(n * n)]
    class_of: dict[int, int] = {}
    return _commutes(pairs, n, tau, -1) and all(
        tau_of[tau_of[g]] == g and sigma_of[tau_of[sigma_of[g]]] == tau_of[g]
        and class_of.setdefault(weights[g], weights[tau_of[g]]) == weights[tau_of[g]]
        for g in range(n * n))


def tau_acts(cx) -> bool:
    """Do σ and τ' = (-1)^s τ both commute with d on the complex ``cx``?"""
    return cx.sigma_acts and tau_certificate(cx.pairs, cx.n, cx.p)


class Character(NamedTuple):
    """The λ^e-eigenspace of a cyclic group on an (s, u) block: ``sources``
    holds (r, d(r)) for each source representative r whose orbit carries
    λ^e, and ``targets`` maps every monomial t of the (s + 1, u) block to
    (column, ±λ^(e j)), g^j(r') = ±t for the representative r' of t, with
    column None when the orbit of r' does not carry λ^e; ``width`` counts
    the target representatives whose orbits carry λ^e."""
    e: int
    sources: list
    targets: dict
    width: int


def group_orbits(cx, s: int, u: int, a: int, reflect: bool) -> tuple[list, dict]:
    """The ``cyclic_orbits`` on the (s, u) block of σ^a, or with ``reflect``
    of the involution (-1)^s σ^a τ, which commutes with d."""
    sign = -1 if reflect and s % 2 else 1
    return cyclic_orbits(cx.blocks(s).get(u, []), dihedral(cx.n, a, reflect), sign)


def characters(cx, s: int, u: int, element=(1, False)) -> list[Character]:
    """The characters λ^e of the cyclic group generated by the
    ``group_orbits`` element (a, reflect) on the (s, u) block: ⟨σ⟩ of order n,
    or ⟨(-1)^s σ^a τ⟩ of order 2 with λ = -1.  λ is a primitive root of unity
    of the group's order in the field (``gf.FieldError`` when there is none);
    the group maps the (s, u) and (s + 1, u) blocks onto themselves."""
    field = cx.field
    a, reflect = element
    order = 2 if reflect else cx.n // gcd(a, cx.n)
    lam, sign_of = primitive_root_of_unity(field, order), {1: field.one, -1: -field.one}
    (src, _), (tgt, where) = [group_orbits(cx, t, u, a, reflect) for t in (s, s + 1)]
    terms = [(r, cx.d_monomial(r)) for r, _k, _sign in src]
    out = []
    for e in range(order):
        power = [field.pow(lam, e * j) for j in range(order + 1)]
        # an orbit of size k carries λ^e when λ^(e k) is the sign of g^k on it
        carries = {(k, sign) for k in range(1, order + 1) for sign, one in sign_of.items()
                   if power[k] == one}
        sources = [t for t, (_r, k, sign) in zip(terms, src) if (k, sign) in carries]
        column_of = {}
        for o, (_r, k, sign) in enumerate(tgt):
            if (k, sign) in carries:
                column_of[o] = len(column_of)
        targets = {t: (column_of.get(o), power[j] * sign_of[sign])
                   for t, (o, j, sign) in where.items()}
        out.append(Character(e, sources, targets, len(column_of)))
    return out


def character_matrix(cx, s: int, u: int, character: Character) -> tuple[list, int]:
    """Coded rows of d on the eigenspace of ``character`` in the (s, u)
    block, one per source representative, and the number of its columns: a
    term c t of d(r) adds c (±λ^(e j)) at the column of t's representative."""
    field = cx.field
    rows = []
    for _r, terms in character.sources:
        row: dict = {}
        for t, c in terms.items():
            i, shift = character.targets[t]
            if i is not None:
                # two terms of d(r) may share a representative
                row[i] = row.get(i, field.zero) + c * shift
        rows.append(field.coding.encode_row(row))
    return rows, character.width


def tau_class(cx, s: int, u: int) -> int:
    """The class of τ of the (s, u) block's first monomial: the class of the
    block τ maps the (s, u) block onto, if it maps it onto one block at all,
    which ``tau_maps`` checks."""
    return cx.block_key(dihedral(cx.n, 0, True)(cx.blocks(s)[u][0])[1])


def tau_maps(cx, s: int, u: int, v: int) -> bool:
    """Does τ map the (s, u) block onto the (s, v) block and the (s + 1, u)
    block onto the (s + 1, v) block?  Checked on every monomial of both."""
    tau = dihedral(cx.n, 0, True)
    for t in (s, s + 1):
        blocks = cx.blocks(t)
        if sorted(tau(m)[1] for m in blocks.get(u, ())) != blocks.get(v, []):
            return False
    return True
