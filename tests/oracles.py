"""Reference computations that check the package against independent code.

`dense_rank_oracle` is textbook dense row echelon on `FieldScalar` entries;
it works over every GF(p^m) but shares the field arithmetic of `gf.py`.
`sympy_rank` hands the residues (`scalar.v`) to sympy's `DomainMatrix` over
GF(p), so it shares no code with the package; it covers prime fields only.
`gl_ce_differential` derives the gl_n differential from the bracket of matrix
units, without the package's generator pair table or wedge signs.
`flipped_sign_table` plants a sign fault for the checks to catch.
`full_kernel_representatives` is no independent code but the earlier way of
taking a block's classes, kept as a reference for the present one.
"""

from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

from stabfold.homology import nullspace, reduce_against, rref


def dense_rank_oracle(rows, ncols, field) -> int:
    """Textbook row echelon over a dense matrix."""
    mat = []
    for r in rows:
        row = [field.zero] * ncols
        for c, v in r.items():
            row[c] = v
        mat.append(row)
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][col].inverse()
        prow = mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                factor = mat[i][col] * inv
                row = mat[i]
                for c in range(col, ncols):
                    if prow[c]:
                        row[c] = row[c] - factor * prow[c]
        rank += 1
        if rank == len(mat):
            break
    return rank


def sympy_rank(rows, ncols, field) -> int:
    """Rank by sympy's DomainMatrix over GF(p), fed with plain residues."""
    if field.m != 1:
        raise ValueError("the sympy oracle covers prime fields only")
    dom = GF(field.p)
    entries = {
        i: {c: dom(v.v) for c, v in r.items()} for i, r in enumerate(rows) if r
    }
    return DomainMatrix(entries, (len(rows), ncols), dom).rank()


def gl_ce_differential(n: int) -> dict[int, dict[int, int]]:
    """d of every generator of the Chevalley-Eilenberg complex of gl_n, from
    the bracket of matrix units alone, as {slot: {monomial mask: integer}}.

    Slot (i-1)n + (j-1) holds h[i,j], read as the dual xi_ab of the matrix unit
    E_ab with a = j-1 and b = a+i mod n.  With [E_ab, E_cd] = δ_bc E_ad -
    δ_da E_cb, d xi = sum over slots x < y of xi([e_x, e_y]) e^x e^y.
    """
    unit = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            unit[(i - 1) * n + (j - 1)] = (j - 1, (j - 1 + i) % n)
    slot_of = {ab: s for s, ab in unit.items()}
    out: dict[int, dict[int, int]] = {s: {} for s in unit}
    for x in range(n * n):
        a, b = unit[x]
        for y in range(x + 1, n * n):
            c, d = unit[y]
            pair = (1 << x) | (1 << y)
            for ab, coeff in (((a, d), int(b == c)), ((c, b), -int(d == a))):
                if coeff:
                    dxi = out[slot_of[ab]]
                    dxi[pair] = dxi.get(pair, 0) + coeff
    return {s: {m: c for m, c in dxi.items() if c} for s, dxi in out.items()}


def flipped_sign_table(table, gslot=0, k=0):
    """A copy of a generator pair table with the sign of one term negated."""
    out = {s: list(terms) for s, terms in table.items()}
    pmask, presign, e = out[gslot][k]
    out[gslot][k] = (pmask, -presign, e)
    return out


def full_kernel_representatives(d_out, d_in, ncols, field):
    """A block's class representatives the long way: the full kernel of the
    coded rows d_out, each vector reduced against the reduced echelon form of
    the coboundary columns of d_in, and the reduced echelon form of what
    survives; returns (rows, pivots)."""
    cob: dict[int, dict] = {}
    for i, row in enumerate(d_in):
        for j, c in row.items():
            cob.setdefault(j, {})[i] = c
    cob_rows, cob_pivots = rref(list(cob.values()), field)
    reduced = [reduce_against(v, cob_rows, cob_pivots, field)
               for v in nullspace(d_out, ncols, field)]
    return rref([r for r in reduced if r], field)
