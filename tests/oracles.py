"""Reference rank computations for checking the elimination engine.

`dense_rank_oracle` is textbook dense row echelon on `FieldScalar` entries;
it works over every GF(p^m) but shares the field arithmetic of `gf.py`.
`sympy_rank` hands the residues (`scalar.v`) to sympy's `DomainMatrix` over
GF(p), so it shares no code with the package; it covers prime fields only.
"""

from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix


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
