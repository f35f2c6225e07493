"""Monomials in the generators h[i,j], wedge products with signs, and gradings.

A monomial is a square-free product of generators h[i,j] with i, j in
{1, ..., n} (second subscripts are cyclic mod n; an input j = 0 is accepted
and normalized to j = n).  It is stored as a bitmask over the n^2 slots
slot(i, j) = (i-1)*n + (j-1), so the canonical order of generators inside a
monomial is lexicographic on (i, j) and monomial equality is integer equality.

``add_term`` is the one merge-add into a sparse combination {key: nonzero
coefficient}; cochains, d of a cochain, the shift and the derivations use it.

The cyclic shift σ: h[i,j] -> h[i,j+1] and its powers keep the first
subscript, so ``sigma_power`` acts on monomials row by row from tables, with
the reordering sign.

The gradings are additive over the generators, so the monomials where one
vanishes are a meet-in-the-middle join: ``subset_sums`` tabulates it on the
subsets of the low and of the high half of the slots, and ``split_join``
pairs the halves that cancel.  Critical and first-subscript complexes, kernel
models and monodromy-fixed bases are all listed so, testing no subset.
"""

from __future__ import annotations

import re
from functools import cache

MAX_N = 5  # 25 slots; full-basis scans stay inside one machine word
# the powers of σ look up whole rows of at most this many slots at once
_CHUNK_BITS = 10


def normalize_j(j: int, n: int) -> int:
    """Second subscripts live in {1..n}; j = 0 (and any integer) wraps mod n."""
    return (j - 1) % n + 1


def slot(i: int, j: int, n: int) -> int:
    if not 1 <= i <= n:
        raise ValueError(f"first subscript {i} out of range 1..{n}")
    return (i - 1) * n + (normalize_j(j, n) - 1)


def generator_mask(i: int, j: int, n: int) -> int:
    return 1 << slot(i, j, n)


def slots_of(mask: int, n: int) -> list[tuple[int, int]]:
    """The (i, j) pairs of a monomial, in canonical order."""
    out = []
    while mask:
        low = mask & -mask
        s = low.bit_length() - 1
        out.append((s // n + 1, s % n + 1))
        mask ^= low
    return out


def degree(mask: int) -> int:
    return mask.bit_count()


def wedge(a: int, b: int) -> tuple[int, int] | None:
    """Wedge of two canonical monomials: (sign, merged mask), or None if zero.

    The sign is the parity of the number of transpositions needed to sort the
    concatenation (a..., b...) into canonical slot order, which is the number
    of pairs (u in b, v in a) with v > u.
    """
    if a & b:
        return None
    inversions = 0
    bb = b
    while bb:
        low = bb & -bb
        inversions += (a >> low.bit_length()).bit_count()
        bb ^= low
    return (-1 if inversions & 1 else 1, a | b)


# -- gradings ---------------------------------------------------------------------


def internal_weights(n: int, p: int) -> tuple[list[int], int]:
    """Per-slot internal degrees 2(p^i - 1)p^j and the modulus 2(p^n - 1)."""
    mod = 2 * (p**n - 1)
    w = [0] * (n * n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            w[(i - 1) * n + (j - 1)] = (2 * (p**i - 1) * p**j) % mod
    return w, mod


def subset_sums(values: list, zero) -> list:
    """sums[sub] = sum of values[i] over the bits i of sub, for all 2^k
    subsets: the half-slot tables of meet-in-the-middle gradings."""
    sums = [zero]
    for v in values:
        sums += [s + v for s in sums]
    return sums


def split_join(lo_keys: list, hi_keys: list, half: int) -> list[int]:
    """Every mask hi << half | lo with lo_keys[lo] == hi_keys[hi], ascending.
    The low halves are bucketed by key, so no rejected mask is ever formed."""
    bucket: dict = {}
    for lo, key in enumerate(lo_keys):
        bucket.setdefault(key, []).append(lo)
    out: list[int] = []
    for hi, key in enumerate(hi_keys):
        if key in bucket:
            base = hi << half
            out += [base | lo for lo in bucket[key]]
    return out


def _weighted_sum(mask: int, weights: list[int]) -> int:
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def internal_degree(mask: int, n: int, p: int) -> int:
    w, mod = internal_weights(n, p)
    return _weighted_sum(mask, w) % mod


def first_subscript_filtration(mask: int, n: int) -> int:
    """The integer (not mod n) sum of first subscripts."""
    total = 0
    mm = mask
    while mm:
        low = mm & -mm
        total += (low.bit_length() - 1) // n + 1
        mm ^= low
    return total


def first_subscript_sum(mask: int, n: int) -> int:
    """The sum of first subscripts mod n."""
    return first_subscript_filtration(mask, n) % n


def sigma_power(n: int, a: int):
    """The signed permutation of the monomials induced by σ^a: h[i,j] ->
    h[i,j+a], as a function mask -> (sign, image).

    σ^a keeps the first subscript, so it permutes the slots of each i-row
    among themselves, the rows keep their order, and a generator passes only
    generators of its own row: the sign is the parity of the inversions of
    the images within each row.  The action is tabulated over chunks of
    whole rows, one lookup per chunk of image << 1 | parity; the chunks'
    images are disjoint, so one XOR adds the images and the parities."""
    return _sigma_power(n, a % n)


@cache
def _sigma_power(n: int, a: int):
    width = max(1, _CHUNK_BITS // n) * n
    chunks = []
    for base in range(0, n * n, width):
        table = [0]
        for b in range(base, min(base + width, n * n)):
            i, j = b // n + 1, b % n + 1
            t = slot(i, j + a, n) + 1
            # the new generator comes last in its chunk, after every one it
            # joins: it passes those whose images lie above its own
            table += [(e | 1 << t) ^ (e >> t).bit_count() & 1 for e in table]
        chunks.append((base, len(table) - 1, table))

    def act(mask: int) -> tuple[int, int]:
        image = 0
        for base, bits, table in chunks:
            image ^= table[mask >> base & bits]
        return (-1 if image & 1 else 1), image >> 1

    return act


# -- textual syntax ----------------------------------------------------------------

_GEN_RE = re.compile(r"h\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]")


def parse_monomial(text: str, n: int) -> tuple[int, int]:
    """Parse `h[i,j]h[k,l]...` into (sign, mask); `1` denotes the empty monomial.

    Subscripts are normalized mod n, and the sign accounts for sorting the
    written order into canonical order.  A repeated generator parses to the
    zero monomial, reported as ValueError since fixtures never want it.
    """
    text = text.strip()
    if text in ("1", ""):
        return 1, 0
    pos = 0
    slots = []
    for m in _GEN_RE.finditer(text):
        if text[pos : m.start()].strip():
            raise ValueError(f"unparsed text {text[pos:m.start()]!r}")
        i, j = int(m.group(1)), int(m.group(2))
        slots.append(slot(i, j, n))
        pos = m.end()
    if text[pos:].strip() or not slots:
        raise ValueError(f"not a monomial: {text!r}")
    sign, mask = 1, 0
    for s in slots:
        w = wedge(mask, 1 << s)
        if w is None:
            raise ValueError(f"repeated generator in {text!r}")
        flip, mask = w
        sign *= flip
    return sign, mask


def format_monomial(mask: int, n: int) -> str:
    if mask == 0:
        return "1"
    return "".join(f"h[{i},{j}]" for i, j in slots_of(mask, n))


# -- cochains ----------------------------------------------------------------------


def add_term(out: dict, key, c) -> None:
    """out[key] += c on a sparse combination that holds no zero values: a sum
    that cancels deletes the key, and a zero c adds nothing."""
    if key in out:
        c = out[key] + c
        if not c:
            del out[key]
            return
    if c:
        out[key] = c


class Cochain:
    """Sparse linear combination of monomials with field-scalar coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[int, object] | None = None):
        self.n = n
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Cochain)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            add_term(out, m, c)
        return Cochain(self.n, out)

    def __sub__(self, other):
        return self + other.scale_neg()

    def scale_neg(self):
        return Cochain(self.n, {m: -c for m, c in self.terms.items()})

    def wedge(self, other: "Cochain") -> "Cochain":
        """Bilinear wedge product."""
        out: dict[int, object] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                w = wedge(ma, mb)
                if w is None:
                    continue
                sign, mm = w
                c = ca * cb
                add_term(out, mm, -c if sign < 0 else c)
        return Cochain(self.n, out)

    def __repr__(self):
        return " + ".join(f"({self.terms[m]!r})*{format_monomial(m, self.n)}"
                          for m in sorted(self.terms)) or "0"
