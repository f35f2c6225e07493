"""Property tests of the sparse echelon engine over GF(p), GF(2^3) and
GF(3^2).

Matrices are drawn with ``FieldScalar`` entries; the engine gets them in the
field's coding, and its results are decoded wherever they are compared with
scalar arithmetic.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_rank_oracle, kernel_basis, transpose

from stabfold.gf import field_create
from stabfold.homology import (echelon, insert_row, matrix_rank, nullspace,
                               reduce_against, rref)

FIELDS = [field_create(5), field_create(7), field_create(2, 3), field_create(3, 2)]
MAX_ROWS, MAX_COLS = 6, 7

FAST = settings(max_examples=40, deadline=None)


@st.composite
def matrices(draw):
    """(field, rows, ncols) with sparse rows over one of FIELDS."""
    field = draw(st.sampled_from(FIELDS))
    elems = list(field.elements())
    ncols = draw(st.integers(1, MAX_COLS))
    nrows = draw(st.integers(0, MAX_ROWS))
    rows = []
    for _ in range(nrows):
        codes = draw(st.lists(st.integers(0, len(elems) - 1),
                              min_size=ncols, max_size=ncols))
        rows.append({c: elems[k] for c, k in enumerate(codes) if k})
    return field, rows, ncols


def coded(rows, field):
    return [field.coding.encode_row(r) for r in rows]


def add_multiple(rows, i, j, c):
    """row_i += c * row_j."""
    out = [dict(r) for r in rows]
    for col, v in rows[j].items():
        nv = out[i].get(col, c.field.zero) + c * v
        if nv:
            out[i][col] = nv
        else:
            out[i].pop(col, None)
    return out


def normalizing_echelon(rows, field):
    """Reference echelon that normalizes each row to one at its pivot as it
    stores it, and steps by the row's own code at the pivot."""
    coding = field.coding
    ech = {}
    for r in sorted(rows, key=len):
        row = dict(r)
        while row:
            piv = min(row)
            prow = ech.get(piv)
            if prow is None:
                ech[piv] = coding.normalize(row, row[piv])
                break
            coding.step(row, row[piv], prow)
    return ech


@FAST
@given(matrices())
def test_stored_rows_are_the_normalizing_echelon_rows_up_to_scale(mat):
    # each stored row has its pivot at its least column and, normalized
    # there, is the row a normalizing insert stores; rref's rows leave
    # normalized
    field, rows, _ncols = mat
    coding = field.coding
    rows = coded(rows, field)
    ech = echelon(rows, field)
    reference = normalizing_echelon(rows, field)
    assert sorted(ech) == sorted(reference)
    for p, row in ech.items():
        assert min(row) == p
        assert coding.normalize(row, row[p]) == reference[p]
    for p, row in zip(*reversed(rref(rows, field))):
        assert min(row) == p and row[p] == coding.one


def test_a_stepped_row_is_stored_compact():
    # the second row cancels twenty entries against the first: the dict
    # that was stepped keeps their slots, the stored row must not
    field = field_create(7)
    ech = {}
    assert insert_row({c: 0 for c in range(20)}, ech, field) == 0
    assert insert_row({c: 0 for c in range(22)}, ech, field) == 20
    stored = ech[20]
    assert stored == {20: 0, 21: 0}
    assert sys.getsizeof(stored) == sys.getsizeof(dict(stored))


def test_a_row_stored_unstepped_is_the_row_handed_in():
    # a row that meets no pivot is stored as it stands, scale and all
    field = field_create(7)
    ech = {}
    row = {3: 4, 5: 1}
    assert insert_row(row, ech, field) == 3
    assert ech[3] is row and row == {3: 4, 5: 1}


@FAST
@given(matrices(), st.data())
def test_nullspace_is_the_reduced_kernel_and_the_pivot_columns(mat, data):
    # on the sources outside skip, the identity-augmented pass gives a basis
    # of the kernel whose rref is that of the kernel of the earlier rref
    # route, and an echelon of the image, one row per pivot column of the
    # reduced echelon form, each normalized at its least column
    field, rows, ncols = mat
    skip = set(data.draw(st.lists(st.integers(0, ncols - 1), max_size=3)))
    kept = [c for c in range(ncols) if c not in skip]
    at = {c: k for k, c in enumerate(kept)}
    restricted = [{at[c]: v for c, v in r.items() if c in at} for r in coded(rows, field)]
    by_source, width = transpose(coded(rows, field), ncols)
    image, kern = nullspace(by_source, width, field, skip)
    old = [{kept[k]: v for k, v in vec.items()}
           for vec in kernel_basis(restricted, len(kept), field)]
    assert len(kern) == len(old) and rref(kern, field) == rref(old, field)
    assert len(image) == len(rref(restricted, field)[1])
    columns = [by_source[q] for q in kept]
    assert sorted(image) == rref(columns, field)[1]
    assert rref(list(image.values()), field) == rref(columns, field)
    for p, row in image.items():
        assert min(row) == p and row[p] == field.coding.one and max(row) < width


@FAST
@given(matrices(), st.randoms(use_true_random=False))
def test_rank_and_rref_invariant_under_row_permutations(mat, rnd):
    field, rows, ncols = mat
    rows = coded(rows, field)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert matrix_rank(shuffled, ncols, field) == matrix_rank(rows, ncols, field)
    assert rref(shuffled, field) == rref(rows, field)


@FAST
@given(matrices(), st.randoms(use_true_random=False))
def test_rank_and_rref_invariant_under_invertible_row_operations(mat, rnd):
    field, rows, ncols = mat
    if len(rows) < 2:
        return
    units = [x for x in field.elements() if x]
    moved = rows
    for _ in range(5):
        i, j = rnd.sample(range(len(rows)), 2)
        moved = add_multiple(moved, i, j, rnd.choice(units))
        k = rnd.randrange(len(rows))
        scale = rnd.choice(units)
        moved[k] = {c: v * scale for c, v in moved[k].items()}
    oracle_rank = dense_rank_oracle(moved, ncols, field)
    rows, moved = coded(rows, field), coded(moved, field)
    rank = matrix_rank(rows, ncols, field)
    assert matrix_rank(moved, ncols, field) == rank == oracle_rank
    assert rref(moved, field) == rref(rows, field)


@FAST
@given(matrices())
def test_rref_idempotent_with_sorted_normalized_pivots(mat):
    field, rows, ncols = mat
    rows = coded(rows, field)
    rr, piv = rref(rows, field)
    assert piv == sorted(set(piv))
    assert len(rr) == len(piv) == matrix_rank(rows, ncols, field)
    for p, row in zip(piv, rr):
        assert min(row) == p and field.coding.decode(row[p]) == field.one
        assert not any(q in row for q in piv if q != p)
    assert rref(rr, field) == (rr, piv)


@FAST
@given(matrices())
def test_nullspace_annihilates_with_corank_vectors(mat):
    field, rows, ncols = mat
    # nullspace reads one row per source, a column of rows
    _image, kern = nullspace(*transpose(coded(rows, field), ncols), field)
    assert len(kern) == ncols - matrix_rank(coded(rows, field), ncols, field)
    for vec in map(field.coding.decode_row, kern):
        for row in rows:
            acc = field.zero
            for c, v in row.items():
                if c in vec:
                    acc = acc + v * vec[c]
            assert not acc


@FAST
@given(matrices(), st.data())
def test_reduce_against_clears_every_pivot(mat, data):
    field, rows, ncols = mat
    rr, piv = rref(coded(rows, field), field)
    elems = list(field.elements())
    codes = data.draw(st.lists(st.integers(0, len(elems) - 1),
                               min_size=ncols, max_size=ncols))
    vec = field.coding.encode_row({c: elems[k] for c, k in enumerate(codes) if k})
    out = reduce_against(vec, rr, piv, field)
    assert not any(p in out for p in piv)
    # the reduction stays in the coset vec + row space
    assert matrix_rank(rr + [out], ncols, field) == matrix_rank(rr + [vec], ncols, field)


@FAST
@given(matrices(), st.data())
def test_reduce_against_unreduced_echelon_equals_rref(mat, data):
    # an echelon that is not back-substituted, taken in ascending pivot
    # order, reduces any vector to the same vector as the rref does
    field, rows, ncols = mat
    rows = coded(rows, field)
    ech = echelon(rows, field)
    pivots = sorted(ech)
    rr, piv = rref(rows, field)
    assert pivots == piv and all(min(ech[p]) == p for p in pivots)
    elems = list(field.elements())
    codes = data.draw(st.lists(st.integers(0, len(elems) - 1),
                               min_size=ncols, max_size=ncols))
    vec = field.coding.encode_row({c: elems[k] for c, k in enumerate(codes) if k})
    assert (reduce_against(vec, [ech[p] for p in pivots], pivots, field)
            == reduce_against(vec, rr, piv, field))


def test_insert_row_fails_loudly_when_a_step_keeps_the_pivot(monkeypatch):
    # a faulty coding whose step cancels nothing: the second row keeps
    # meeting the first one's pivot, which must be an error, not a loop
    field = field_create(7)
    calls = []

    def faulty_step(row, c, prow):
        calls.append(c)
        if len(calls) > 100:
            raise RuntimeError("insert_row keeps stepping on one pivot")

    monkeypatch.setattr(field.coding, "step", faulty_step)
    with pytest.raises(ArithmeticError, match="pivot column 0"):
        matrix_rank([{0: 1, 1: 2}, {0: 3}], 2, field)
    assert len(calls) == 1
