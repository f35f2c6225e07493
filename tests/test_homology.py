import random
import sys

import pytest
from oracles import (
    classes,
    cup,
    dense_rank_oracle,
    euler_characteristics_match,
    exterior_ring_oracle,
    extra_term_table,
    flipped_along_j,
    flipped_sign_table,
    full_kernel_representatives,
    induced_map_rank,
    one_cochain,
    sympy_rank,
    transpose,
)
from splits import (
    character_matrix,
    characters,
    group_orbits,
    tau_acts,
    tau_certificate,
    tau_class,
    tau_maps,
)

from stabfold import claims, homology
from stabfold.claims import claim_duality, claim_invariant_cycles, claim_model_kernel
from stabfold.exterior import Cochain, format_monomial, generator_mask, parse_monomial
from stabfold.gf import FieldError, field_create
from stabfold.homology import (
    BlockCohomology,
    Cohomology,
    FiniteComplex,
    betti,
    block_matrix,
    block_ranks,
    certify_top_product,
    exterior_profile,
    exterior_ring_check,
    matrix_rank,
    nullspace,
    reduce_against,
    rref,
)
from stabfold import ravenel
from stabfold.ravenel import (
    Complex,
    build_deformed,
    build_gl,
    build_singular,
    subcomplex,
)
from stabfold.retract import critical_model, smallest_extension_degree


def random_sparse_rows(rng, field, nrows, ncols, density=0.4):
    rows = []
    elems = [x for x in field.elements() if x]
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                row[c] = rng.choice(elems)
        rows.append(row)
    return rows


def coded(rows, field):
    return [field.coding.encode_row(r) for r in rows]


def test_sparse_and_dense_rank_agree_random():
    # the sparse engine against the dense oracle; over GF(5) also against sympy
    rng = random.Random(101)
    for p, m in [(5, 1), (3, 2)]:
        f = field_create(p, m)
        for _ in range(30):
            nr, nc = rng.randint(0, 7), rng.randint(1, 7)
            rows = random_sparse_rows(rng, f, nr, nc)
            rank = matrix_rank(coded(rows, f), nc, f)
            assert rank == dense_rank_oracle(rows, nc, f)
            if m == 1:
                assert rank == sympy_rank(rows, nc, f)


def test_rank_over_the_largest_tabled_field():
    # GF(65521), the largest prime below the 2^16 table limit
    f = field_create(65521)
    rng = random.Random(109)
    rows = [{c: f.scalar(rng.randrange(1, 65521)) for c in rng.sample(range(6), 4)}
            for _ in range(4)]
    k = f.scalar(rng.randrange(2, 65521))
    dependent = dict(rows[0])
    for c, v in rows[1].items():
        dependent[c] = dependent.get(c, f.zero) + k * v
    rows.append({c: v for c, v in dependent.items() if v})
    rank = matrix_rank(coded(rows, f), 6, f)
    assert rank == dense_rank_oracle(rows, 6, f) == sympy_rank(rows, 6, f) == 4


def test_rank_structured_cases():
    f = field_create(7)
    one = f.one
    # identity, rank 3
    rows = [{i: one} for i in range(3)]
    assert matrix_rank(coded(rows, f), 3, f) == 3 == dense_rank_oracle(rows, 3, f)
    assert sympy_rank(rows, 3, f) == 3
    # repeated row
    rows = [{0: one, 1: one}, {0: one, 1: one}]
    assert matrix_rank(coded(rows, f), 2, f) == 1
    assert matrix_rank([], 5, f) == 0


def test_nullspace_annihilates():
    rng = random.Random(103)
    f = field_create(11)
    for _ in range(20):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_sparse_rows(rng, f, nr, nc)
        # nullspace reads one row per source, a column of rows
        image, kern = nullspace(*transpose(coded(rows, f), nc), f)
        rank = dense_rank_oracle(rows, nc, f)
        assert len(kern) == nc - rank and len(image) == rank
        for v in map(f.coding.decode_row, kern):
            for row in rows:
                acc = f.zero
                for c, val in row.items():
                    if c in v:
                        acc = acc + val * v[c]
                assert acc == f.zero


def test_rref_idempotent_and_pivots_sorted():
    rng = random.Random(107)
    f = field_create(5)
    rows = random_sparse_rows(rng, f, 5, 6)
    rr, piv = rref(coded(rows, f), f)
    assert piv == sorted(piv)
    rr2, piv2 = rref(rr, f)
    assert rr2 == rr and piv2 == piv


def test_betti_gl2_exterior_profile():
    f = field_create(7)
    gl = build_gl(2, f, 7)
    table = betti(gl)
    assert table.totals_by_degree() == {0: 1, 1: 1, 3: 1, 4: 1}
    assert table.grand_total() == 4
    assert euler_characteristics_match(table)


def test_betti_ravenel_n2_total_12():
    f = field_create(11)
    cx = build_singular(2, 11, f)
    table = betti(cx)
    assert table.grand_total() == 12
    assert table.totals_by_degree() == {0: 1, 1: 3, 2: 4, 3: 3, 4: 1}


def test_betti_ravenel_n3_total_152():
    f = field_create(19)
    cx = build_singular(3, 19, f)
    table = betti(cx)
    assert table.grand_total() == 152
    # unimodular Lie algebra: Poincare duality on degree totals
    totals = table.totals_by_degree()
    for s, b in totals.items():
        assert totals.get(9 - s, 0) == b


def oracle_betti(cx, rank) -> dict:
    """Betti entries from the block matrices, with ranks from an oracle."""
    ranks, dims = {}, {}
    for s in range(cx.top_degree + 1):
        for u, monos in cx.blocks(s).items():
            dims[(s, u)] = len(monos)
            rows, ncols = transpose(*block_matrix(cx, s, u))
            scalars = [cx.field.coding.decode_row(r) for r in rows]
            ranks[(s, u)] = rank(scalars, ncols, cx.field)
    entries = {}
    for (s, u), dim in dims.items():
        b = dim - ranks[(s, u)] - ranks.get((s - 1, u), 0)
        if b:
            entries[(s, u)] = b
    return entries


def test_betti_sparse_dense_methods_agree_n2():
    # Betti tables from the sparse engine against those from both oracles
    f = field_create(11)
    for eps in (0, 1):
        cx = build_deformed(2, 11, f, eps)
        entries = betti(cx).entries
        assert entries == oracle_betti(cx, dense_rank_oracle)
        assert entries == oracle_betti(cx, sympy_rank)


def test_exterior_profile_literal():
    assert exterior_profile([1, 3, 5]) == {0: 1, 1: 1, 3: 1, 4: 1, 5: 1, 6: 1,
                                           8: 1, 9: 1}
    assert exterior_profile([]) == {0: 1}


def test_representatives_n1():
    f = field_create(3)
    cx = build_deformed(1, 3, f, 1)
    coh = Cohomology(cx)
    refs = classes(coh)
    reps = [coh.representative(r) for r in refs]
    assert Cochain(1, {0: f.one}) in reps
    assert Cochain(1, {generator_mask(1, 1, 1): f.one}) in reps
    assert len(reps) == 2


def test_zeta2_representative():
    f = field_create(11)
    cc = subcomplex(build_singular(2, 11, f), "critical")
    coh = Cohomology(cc)
    block = coh.block(1, 0)
    assert block.dim == 1
    zeta2 = one_cochain(cc, "h[2,1]") + one_cochain(cc, "h[2,2]")
    assert block.representative(0) == zeta2
    # reduction is idempotent: reducing the representative gives unit coords
    assert block.reduce(zeta2) == [f.one]


def test_cup_unit():
    f = field_create(11)
    cx = build_singular(2, 11, f)
    coh = Cohomology(cx)
    unit = (0, 0, 0)
    for ref in classes(coh):
        prod = cup(coh, unit, ref)
        assert prod == {ref: f.one}


def test_height2_ring_relations():
    # relations among the degree-1/degree-2 generators of the singular fiber
    f = field_create(11)
    cx = build_singular(2, 11, f)
    coh = Cohomology(cx)
    h10 = one_cochain(cx, "h[1,0]")  # = h[1,2]
    h11 = one_cochain(cx, "h[1,1]")
    diff = one_cochain(cx, "h[2,0]") - one_cochain(cx, "h[2,1]")
    g0 = diff.wedge(h10)
    g1 = diff.wedge(h11)
    for z in (h10, h11, g0, g1):
        assert not cx.d_cochain(z)
    assert not coh.reduce_cocycle(h10.wedge(g0))
    assert not coh.reduce_cocycle(h11.wedge(g1))
    lhs = coh.reduce_cocycle(h10.wedge(g1))
    rhs = coh.reduce_cocycle(h11.wedge(g0))
    assert lhs
    assert lhs == {r: -c for r, c in rhs.items()}
    for a in (g0, g1):
        for b in (g0, g1):
            assert not coh.reduce_cocycle(a.wedge(b))


def test_exterior_ring_check_gl2_and_gl3():
    f = field_create(7)
    cc2 = subcomplex(build_gl(2, f, 7), "critical")
    assert exterior_ring_check(cc2, [1, 3])["holds"]
    cc3 = subcomplex(build_gl(3, f, 7), "critical")
    assert exterior_ring_check(cc3, [1, 3, 5])["holds"]


def test_exterior_ring_check_expands_d_once_per_monomial(monkeypatch):
    # d is expanded only on the blocks the check reads, once each, and never
    # on a pivot of a block's coboundaries, whose row no elimination reads
    # (36 of them, one per unit of rank of d): block_ranks reads degrees
    # 0 .. 4, the middle of N = 9 (27 monomials), and its kernel passes on
    # the generator blocks of degrees 1 and 3 are those blocks' eliminations;
    # the degree-5 generator's block, above the middle, is read by its own
    # kernel pass (8); and d z = 0 is checked on each term of the three
    # generators (10).  Expansions are counted as coded rows and as scalar
    # maps alike
    f = field_create(7)
    cc3 = subcomplex(build_gl(3, f, 7), "critical")
    expanded = []
    d_row, d_monomial = Complex.d_row, Complex.d_monomial

    def counted(cx, mask, column):
        expanded.append(mask)
        return d_row(cx, mask, column)

    monkeypatch.setattr(Complex, "d_row", counted)
    monkeypatch.setattr(Complex, "d_monomial",
                        lambda cx, mask: expanded.append(mask) or d_monomial(cx, mask))
    assert exterior_ring_check(cc3, [1, 3, 5])["holds"]
    monkeypatch.undo()
    coh = Cohomology(cc3)
    unread = {coh.block(s, 0).monomials[q] for s in range(10) for q in coh.block(s, 0).cob_pivots}
    assert cc3.dim() == 80 and len(unread) == 36
    read = [m for s in (0, 1, 2, 3, 4, 5) for m in cc3.basis(s) if m not in unread]
    terms = [m for d in (1, 3, 5) for m in coh.representative((d, 0, 0)).terms]
    assert (len(read), len(terms)) == (35, 10)
    assert sorted(expanded) == sorted(read + terms)


# complexes whose every block the class tests visit, by coverage id
CLASS_CASES = {
    "gl2-full-GF7": lambda: build_gl(2, field_create(7), 7),
    "gl2-critical-GF7": lambda: subcomplex(build_gl(2, field_create(7), 7), "critical"),
    "gl3-full-GF7": lambda: build_gl(3, field_create(7), 7),
    "gl3-critical-GF7": lambda: subcomplex(build_gl(3, field_create(7), 7), "critical"),
    "ravenel3-eps0-GF19": lambda: build_deformed(3, 19, field_create(19), 0),
    "ravenel3-eps1-GF19": lambda: build_deformed(3, 19, field_create(19), 1),
    "gl4-critical-GF169": lambda: subcomplex(
        build_gl(4, field_create(13, 2), 13), "critical"),
}
# the dense oracle takes about 15 s on gl_4's critical complex
CLASS_IDS = [pytest.param(k, marks=pytest.mark.slow) if k.startswith("gl4")
             else k for k in CLASS_CASES]


def _blocks(cx):
    for s in range(cx.top_degree + 1):
        for u in sorted(cx.blocks(s)):
            yield s, u


@pytest.mark.parametrize("case", CLASS_IDS)
def test_block_classes_against_dense_oracle(case):
    # every block: each representative is a cocycle, dim is the Betti number
    # of the dense oracle, and the representatives are independent modulo the
    # coboundaries, which they complete to rank(B) + dim
    cx = CLASS_CASES[case]()
    field = cx.field
    decode = field.coding.decode_row
    coh = Cohomology(cx)
    ranks = {}
    for s, u in _blocks(cx):
        bc = coh.block(s, u)
        ncols = len(bc.monomials)
        d_out = [decode(r) for r in transpose(*block_matrix(cx, s, u))[0]]
        ranks[(s, u)] = dense_rank_oracle(d_out, ncols, field)
        rank_b = ranks.get((s - 1, u), 0)
        assert bc.dim == ncols - ranks[(s, u)] - rank_b
        for i in range(bc.dim):
            assert not cx.d_cochain(bc.representative(i))
        cob: dict[int, dict] = {}
        if s > 0 and u in cx.blocks(s - 1):
            for i, row in enumerate(transpose(*block_matrix(cx, s - 1, u))[0]):
                for j, c in decode(row).items():
                    cob.setdefault(j, {})[i] = c
        reps = [decode(r) for r in bc.rep_rows]
        assert dense_rank_oracle(list(cob.values()) + reps, ncols, field) == rank_b + bc.dim


@pytest.mark.parametrize("case", ["gl3-full-GF7", "gl3-critical-GF7",
                                  "ravenel3-eps0-GF19", "ravenel3-eps1-GF19",
                                  "gl4-critical-GF169"])
def test_block_classes_equal_full_kernel_pipeline(case):
    # the kernel on the coboundaries' non-pivot columns gives the very rows
    # and pivots of the full kernel reduced against the coboundaries
    cx = CLASS_CASES[case]()
    coh = Cohomology(cx)
    for s, u in _blocks(cx):
        bc = coh.block(s, u)
        d_in = transpose(*block_matrix(cx, s - 1, u))[0] if s > 0 else []
        old = full_kernel_representatives(transpose(*block_matrix(cx, s, u))[0], d_in,
                                          len(bc.monomials), cx.field)
        assert (bc.rep_rows, bc.rep_pivots) == old


@pytest.mark.parametrize("case", list(CLASS_CASES))
def test_coboundary_echelon_takes_no_dependent_vector(case, monkeypatch):
    # a block's coboundaries are the echelon of im d that the block below
    # handed up, eliminated no second time: each row lies in the span of the
    # coboundary columns, is normalized at its least column, and these least
    # columns are distinct and are the pivots of the reduced echelon form of
    # all the coboundary columns.  The one echelon a block runs outside its
    # pass is the kernel's rref, and each kernel vector entering it gives a
    # pivot
    cx = CLASS_CASES[case]()
    field = cx.field
    sizes = []
    real = homology.echelon

    def counted(rows, field):
        rows = list(rows)
        ech = real(rows, field)
        sizes.append((sys._getframe(1).f_code.co_name, len(rows), len(ech)))
        return ech

    monkeypatch.setattr(homology, "echelon", counted)
    coh = Cohomology(cx)
    for s, u in _blocks(cx):
        sizes.clear()
        bc = coh.block(s, u)
        assert sizes == []
        assert bc.rep_pivots == sorted(bc.rep_pivots)
        assert sizes == [("rref", bc.dim, bc.dim)]
        cob: dict[int, dict] = {}
        for i, row in enumerate(transpose(*block_matrix(cx, s - 1, u))[0] if s > 0 else []):
            for j, c in row.items():
                cob.setdefault(j, {})[i] = c
        cob_rows, cob_pivots = rref(list(cob.values()), field)
        assert bc.cob_pivots == cob_pivots
        leads = [min(row) for row in bc.cob_rows]
        assert len(set(leads)) == len(leads) and leads == bc.cob_pivots
        for p, row in zip(leads, bc.cob_rows):
            assert row[p] == field.coding.one
            assert not reduce_against(row, cob_rows, cob_pivots, field), (s, u, p)


@pytest.mark.parametrize("case", ["gl3-critical-GF7", "ravenel3-eps1-GF19"])
def test_block_order_does_not_change_the_classes(case):
    # blocks requested from the top degree down, or one top-degree cocycle
    # reduced on its own, build the same blocks as an upward classes(), and
    # hold no rows of d afterwards: a block's coboundary rows are the very
    # rows of the image echelon of the block below, not copies
    cx = CLASS_CASES[case]()
    up = Cohomology(cx)
    refs = classes(up)

    def handed_up(coh):
        for (s, u), bc in coh._blocks.items():
            above = coh._blocks.get((s + 1, u))
            if above is not None:
                assert above.cob_pivots == sorted(bc.image)
                assert all(row is bc.image[p]
                           for p, row in zip(above.cob_pivots, above.cob_rows))

    def same_blocks(coh):
        handed_up(coh)
        for key, bc in coh._blocks.items():
            ref = up._blocks[key]
            assert (bc.rep_rows, bc.rep_pivots, bc.cob_pivots) == (
                ref.rep_rows, ref.rep_pivots, ref.cob_pivots)

    handed_up(up)
    down = Cohomology(cx)
    for s, u in reversed(list(_blocks(cx))):
        down.block(s, u)
    assert down._blocks.keys() == up._blocks.keys()
    same_blocks(down)
    top = refs[-1]
    assert top[0] == cx.top_degree
    lone = Cohomology(cx)
    assert lone.reduce_cocycle(up.representative(top)) == {top: cx.field.one}
    same_blocks(lone)


def test_cohomology_refuses_a_finite_complex():
    f = field_create(5)
    with pytest.raises(ValueError, match="not a FiniteComplex"):
        Cohomology(FiniteComplex(f, {0: ["a"], 1: ["b"]}, {"a": {"b": f.one}}))


def test_block_classes_need_no_reduce_against_per_kernel_vector(monkeypatch):
    # building the classes of every block of gl_3's critical complex reduces
    # nothing; the ring check then reduces no cocycle, as no product of
    # earlier generators lands in degree 3 or 5, and only the unit vector of
    # each generator candidate against that empty span: three calls
    f = field_create(7)
    cc3 = subcomplex(build_gl(3, f, 7), "critical")
    callers = []
    reduce_against = homology.reduce_against
    block_reduce = BlockCohomology.reduce

    def counted(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return reduce_against(*args)

    def counted_reduce(bc, z):
        callers.append("BlockCohomology.reduce")
        return block_reduce(bc, z)

    monkeypatch.setattr(homology, "reduce_against", counted)
    monkeypatch.setattr(BlockCohomology, "reduce", counted_reduce)
    classes(Cohomology(cc3))
    assert callers == []
    assert exterior_ring_check(cc3, [1, 3, 5])["holds"]
    assert callers == ["exterior_ring_check"] * 3
    kernel_vectors = sum(
        len(cc3.blocks(s)[u]) - matrix_rank(*block_matrix(cc3, s, u), f)
        for s, u in _blocks(cc3))
    assert len(callers) < kernel_vectors


def test_exterior_ring_check_rejects_ravenel_full():
    f = field_create(11)
    cx = build_singular(2, 11, f)
    out = exterior_ring_check(cx, [1, 3])
    assert not out["holds"]
    assert "profile" in out["reason"]


def _ravenel_critical(n, p, eps):
    return subcomplex(build_deformed(n, p, field_create(p), eps), "critical")


# complexes on which the top-product certificate and the earlier ring
# recognition must agree, with the verdict both give: gl_3 over F_2 fails on
# its profile (ROADMAP item 7), and so does the full n = 2 singular fiber
RING_CASES = {
    "gl2-critical-F7": (lambda: subcomplex(build_gl(2, field_create(7), 7), "critical"),
                        [1, 3], True),
    "gl3-critical-F7": (lambda: subcomplex(build_gl(3, field_create(7), 7), "critical"),
                        [1, 3, 5], True),
    "gl4-critical-GF169": (lambda: subcomplex(build_gl(4, field_create(13, 2), 13),
                                              "critical"), [1, 3, 5, 7], True),
    "ravenel3-eps0-GF19": (lambda: _ravenel_critical(3, 19, 0), [1, 3, 5], True),
    "ravenel3-eps1-GF19": (lambda: _ravenel_critical(3, 19, 1), [1, 3, 5], True),
    "ravenel4-eps0-GF37": (lambda: _ravenel_critical(4, 37, 0), [1, 3, 5, 7], True),
    "ravenel4-eps1-GF37": (lambda: _ravenel_critical(4, 37, 1), [1, 3, 5, 7], True),
    "gl3-critical-F2": (lambda: subcomplex(build_gl(3, field_create(2), 2), "critical"),
                        [1, 3, 5], False),
    "ravenel2-full-eps0-GF11": (lambda: build_singular(2, 11, field_create(11)),
                                [1, 3], False),
}


@pytest.mark.parametrize("case", RING_CASES)
def test_exterior_ring_check_agrees_with_the_earlier_recognition(case):
    # verdict, generators and reason, on fresh complexes for each side
    make, degrees, holds = RING_CASES[case]
    out = exterior_ring_check(make(), degrees)
    assert out == exterior_ring_oracle(make(), degrees)
    assert out["holds"] == holds
    assert holds or "profile" in out["reason"]


@pytest.mark.parametrize("n, p", [(3, 19), (4, 37)])
@pytest.mark.parametrize("eps", [0, 1])
def test_the_critical_complex_is_an_exterior_ring_at_both_fibers(n, p, eps):
    # the paper's headline as a ring: at the singular fiber (eps = 0) and at
    # gl_n (eps = 1), H of the critical complex is exterior on one class in
    # each degree 1, 3, ..., 2n - 1, all of internal class 0
    degrees = list(range(1, 2 * n, 2))
    out = exterior_ring_check(_ravenel_critical(n, p, eps), degrees)
    assert out == {"holds": True, "generators": [(d, 0, 0) for d in degrees]}


@pytest.mark.parametrize("n, calls", [(2, (1, 5)), (3, (3, 3))])
def test_exterior_ring_check_eliminates_each_block_below_the_middle_once(
        monkeypatch, n, calls):
    # block_ranks eliminates degrees 0 .. (N - 1) // 2 once each: the
    # generator blocks among them by the kernel pass it hands over, the rest
    # by matrix_rank; a generator block above the middle runs one kernel pass
    # on the echelon block_ranks kept one degree down.  At n = 3 that is all
    # (3 ranks; kernels of degrees 1 and 3 in block_ranks, and of degree 5).
    # At n = 2, N = 4, the rank of d^2 is a duality copy, so the degree-3
    # generator's block comes from the Cohomology chain: 1 rank, and kernels
    # of the degree-1 block and of the chain's blocks 0 .. 3
    cx = subcomplex(build_gl(n, field_create(7), 7), "critical")
    counts = {"matrix_rank": 0, "nullspace": 0}
    for name in counts:
        def counted(*args, _name=name, _f=getattr(homology, name), **kwargs):
            counts[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(homology, name, counted)
    assert exterior_ring_check(cx, list(range(1, 2 * n, 2)))["holds"]
    assert (counts["matrix_rank"], counts["nullspace"]) == calls


def _top_coefficient(cx, cochains):
    prod = Cochain(cx.n, {0: cx.field.one})
    for z in cochains:
        prod = prod.wedge(z)
    return prod.terms.get((1 << cx.top_degree) - 1, cx.field.zero)


def _coboundary(cx, z):
    # d of a degree-2 monomial: a cocycle whose class is 0
    w = next(m for m in cx.basis(2) if cx.d_monomial(m))
    return Cochain(cx.n, cx.d_monomial(w))


def _not_a_cocycle(cx, z):
    # z plus c times a degree-1 monomial that d does not kill, with c chosen
    # so that the top product stays nonzero: only d z = 0 can catch it
    m = next(m for m in cx.basis(1) if cx.d_monomial(m))
    gens = [Cohomology(cx).representative((d, 0, 0)) for d in (1, 3, 5)]
    for c in range(1, cx.field.p):
        planted = z + Cochain(cx.n, {m: cx.field.scalar(c)})
        if _top_coefficient(cx, [planted] + gens[1:]):
            return planted
    raise AssertionError("no multiple keeps the top product nonzero")


@pytest.mark.parametrize("degree, plant, reason", [
    (3, _coboundary, "top coefficient 0"),
    (5, lambda cx, z: Cochain(cx.n), "top coefficient 0"),
    (1, _not_a_cocycle, "generator in degree 1 is not a cocycle"),
])
def test_planted_generator_faults_fail_the_ring_check(monkeypatch, degree, plant, reason):
    # one generator's representative replaced by a coboundary, by 0, or by a
    # cochain that is no cocycle but has a nonzero top product: the check
    # says holds False with a reason, and raises nothing
    cx = subcomplex(build_gl(3, field_create(7), 7), "critical")
    fault = plant(cx, Cohomology(cx).representative((degree, 0, 0)))
    representative = BlockCohomology.representative
    monkeypatch.setattr(BlockCohomology, "representative",
                        lambda bc, i: fault if bc.s == degree else representative(bc, i))
    out = exterior_ring_check(cx, [1, 3, 5])
    assert out["holds"] is False and reason in out["reason"]


def test_certificate_needs_degrees_summing_to_the_top_degree():
    # z_1, z_3, z_5 of gl_3's critical complex are a certificate; z_1, z_3
    # alone have degrees summing to 4, not the top degree 9, and a degree
    # list with an even entry is refused before any product is formed
    cx = subcomplex(build_gl(3, field_create(7), 7), "critical")
    coh = Cohomology(cx)
    z = [coh.representative((d, 0, 0)) for d in (1, 3, 5)]
    assert certify_top_product(cx, [1, 3, 5], z) is None
    assert _top_coefficient(cx, z)
    assert certify_top_product(cx, [1, 3], z[:2]) == (
        "generator degrees sum to 4, not the top degree 9")
    assert "even" in certify_top_product(cx, [1, 2, 5], z)


def _ravenel_fsc(n, p, eps):
    return subcomplex(build_deformed(n, p, field_create(p), eps), "fsc")


# complexes whose generator blocks block_ranks hands over, checked against
# the Cohomology chain
HANDOFF_CASES = {
    **CLASS_CASES,
    "ravenel3-critical-eps0-GF19": lambda: _ravenel_critical(3, 19, 0),
    "ravenel3-critical-eps1-GF19": lambda: _ravenel_critical(3, 19, 1),
    "ravenel4-critical-eps0-GF37": lambda: _ravenel_critical(4, 37, 0),
    "ravenel4-fsc-eps1-GF37": lambda: _ravenel_fsc(4, 37, 1),
}


@pytest.mark.parametrize("case", HANDOFF_CASES)
def test_block_ranks_hands_over_the_blocks_of_the_cohomology_chain(case):
    # handing over changes no dimension or rank; the blocks handed over are
    # the class-0 blocks of the generator degrees up to the middle, and each
    # has the chain's representatives, pivots and coboundary pivots
    cx = HANDOFF_CASES[case]()
    degrees = list(range(1, 2 * cx.n, 2))
    handoff = {d: {} for d in degrees}
    assert block_ranks(cx, handoff) == block_ranks(cx)
    handed = {(s, u): bc for s, got in handoff.items() for u, bc in got.items()
              if isinstance(bc, BlockCohomology)}
    assert cx.dd_zero
    assert set(handed) == {(d, 0) for d in degrees
                           if 2 * d <= cx.top_degree - 1 and 0 in cx.blocks(d)}
    coh = Cohomology(cx)
    for (s, u), bc in handed.items():
        ref = coh.block(s, u)
        assert (bc.rep_rows, bc.rep_pivots, bc.cob_pivots, bc.dim) == (
            ref.rep_rows, ref.rep_pivots, ref.cob_pivots, ref.dim)


@pytest.mark.parametrize("case", ["gl3-critical-GF7", "ravenel3-critical-eps1-GF19",
                                  "ravenel4-fsc-eps1-GF37"])
def test_handed_over_blocks_keep_no_image(monkeypatch, case):
    # block_ranks clears the next degree by a handed-over block's image and
    # then drops it: after the check no handed-over block holds an echelon
    # of im d, only its representatives and coboundaries
    cx = HANDOFF_CASES[case]()
    handoffs = []

    def recorded(cx, handoff=None, _f=homology.block_ranks):
        handoffs.append(handoff)
        return _f(cx, handoff)
    monkeypatch.setattr(homology, "block_ranks", recorded)
    assert exterior_ring_check(cx, list(range(1, 2 * cx.n, 2)))["holds"]
    [handoff] = handoffs
    handed = [bc for got in handoff.values() for bc in got.values()
              if isinstance(bc, BlockCohomology)]
    assert handed and all(bc.image is None for bc in handed)


def test_only_class_0_generator_blocks_run_the_kernel_pass(monkeypatch):
    # FSC at n = 4 has up to 15 σ-orbits of classes in a degree below the
    # middle; block_ranks runs the kernel pass on the class-0 block of each
    # generator degree only, and the search, whose generators all lie in
    # class 0, builds no fallback block.  Every nullspace call is one
    # BlockCohomology's
    cx = _ravenel_fsc(4, 37, 1)
    assert [len(cx.block_orbits(s)) for s in (1, 3, 5, 7)] == [1, 5, 11, 15]
    inside = [False]
    built = {True: [], False: []}
    nullspace_calls = [0]
    ranks, init, kernel = homology.block_ranks, BlockCohomology.__init__, homology.nullspace

    def ranking(*args):
        inside[0] = True
        try:
            return ranks(*args)
        finally:
            inside[0] = False

    def building(bc, cx, s, u, cob):
        built[inside[0]].append((s, u))
        init(bc, cx, s, u, cob)

    def counted(*args, **kwargs):
        nullspace_calls[0] += 1
        return kernel(*args, **kwargs)

    monkeypatch.setattr(homology, "block_ranks", ranking)
    monkeypatch.setattr(BlockCohomology, "__init__", building)
    monkeypatch.setattr(homology, "nullspace", counted)
    out = exterior_ring_check(cx, [1, 3, 5, 7])
    assert out == {"holds": True, "generators": [(d, 0, 0) for d in (1, 3, 5, 7)]}
    assert built == {True: [(1, 0), (3, 0), (5, 0), (7, 0)], False: []}
    assert nullspace_calls[0] == 4


def test_a_ring_check_failing_on_its_profile_reduces_no_kernel(monkeypatch):
    # FSC at n = 4 over GF(37) at eps = 0 fails on its Betti profile.
    # block_ranks runs the kernel passes of the class-0 generator blocks it
    # hands over, but no class is read, so no kernel is reduced by rref
    cx = _ravenel_fsc(4, 37, 0)
    calls = {"nullspace": 0, "rref": 0}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    for name in calls:
        monkeypatch.setattr(homology, name, counted(name, getattr(homology, name)))
    out = exterior_ring_check(cx, [1, 3, 5, 7])
    assert out["holds"] is False and out["reason"].startswith("Betti profile")
    assert calls == {"nullspace": 4, "rref": 0}


def test_induced_identity_map():
    f = field_create(11)
    cx = build_singular(2, 11, f)
    out = induced_map_rank(cx, cx)
    assert out["quasi_isomorphism"]
    for k, v in out["source_betti"].items():
        assert out["ranks"][k] == v


def test_inclusion_cc_gl3_is_quasi_iso():
    f = field_create(7)
    gl = build_gl(3, f, 7)
    cc = subcomplex(gl, "critical")
    out = induced_map_rank(cc, gl)
    assert out["quasi_isomorphism"]


def test_retraction_onto_fsc_surjective():
    f = field_create(11)
    cx = build_singular(2, 11, f)
    fsc = subcomplex(cx, "fsc")
    out = induced_map_rank(cx, fsc)
    assert out["surjective_on_cohomology"]


def test_projection_drops_the_monomials_outside_the_target():
    # at p = 2 an internal class mixes first-subscript sums, so blocks with
    # classes on both sides hold source representatives with monomials
    # outside the first-subscript complex, which the map must drop before
    # reducing in the target.  The complex splits by the first-subscript sum
    # mod n, so the projection onto the summand of sum 0 has the target's
    # Betti number as its rank on every block
    cx = build_singular(3, 2, field_create(2))
    fsc = subcomplex(cx, "fsc")
    src, tgt = Cohomology(cx), Cohomology(fsc)
    mixed = [(s, u) for s in range(cx.top_degree + 1) for u in fsc.blocks(s)
             if tgt.block(s, u).dim and any(
                 not fsc.contains(m) for i in range(src.block(s, u).dim)
                 for m in src.block(s, u).representative(i).terms)]
    assert mixed
    out = induced_map_rank(cx, fsc)
    assert all(out["ranks"][key] == out["target_betti"][key] > 0 for key in mixed)
    assert out["ranks"] == {k: out["target_betti"].get(k, 0) for k in out["ranks"]}
    assert out["surjective_on_cohomology"] and not out["quasi_isomorphism"]


def test_non_chain_map_rejected():
    # the identity on monomials from the eps = 0 fiber to the eps = 1 fiber
    # does not commute with d, whose eps-terms only the second has
    f = field_create(11)
    with pytest.raises(ValueError, match="not a chain map"):
        induced_map_rank(build_singular(2, 11, f), build_deformed(2, 11, f, 1))


@pytest.mark.parametrize("n,p", [(2, 11), (3, 19), (4, 37)])
def test_invariant_cycles_grading_verdict_agrees_with_the_oracle(n, p):
    # the claim reads the surjection off the first-subscript grading; the
    # oracle reduces the projected representatives class by class
    cx = build_singular(n, p, field_create(p))
    oracle = induced_map_rank(cx, subcomplex(cx, "fsc"))["surjective_on_cohomology"]
    assert claim_invariant_cycles(n, p)[1]["ok"] is oracle is True


@pytest.mark.parametrize("n,p", [(2, 5), (3, 7)])
def test_model_kernel_grading_verdict_agrees_with_the_oracle(n, p):
    # the claim compares the Betti tables of the critical complex and gl_n
    cx = build_gl(n, field_create(p, smallest_extension_degree(p, n)), p)
    oracle = induced_map_rank(critical_model(cx)["model"], cx)["quasi_isomorphism"]
    assert claim_model_kernel(n, p)[1]["ok"] is oracle is True


def test_model_kernel_grading_verdict_agrees_with_the_oracle_on_gl3_gf2(monkeypatch):
    # over GF(2) gl_3 has cohomology outside the critical complex, so its
    # inclusion is no quasi-isomorphism.  The kernel at p = 2 is not the
    # critical complex, so the claim is handed the critical complex as its
    # model, over GF(2) itself, to reach its Betti comparison
    monkeypatch.setattr(claims, "smallest_extension_degree", lambda p, n: 1)
    monkeypatch.setattr(claims, "critical_model", lambda cx: {
        "model": subcomplex(cx, "critical"), "omegas": []})
    gl = build_gl(3, field_create(2), 2)
    cc = subcomplex(gl, "critical")
    assert betti(cc) != betti(gl)
    oracle = induced_map_rank(cc, gl)["quasi_isomorphism"]
    same, qi = claim_model_kernel(3, 2)
    assert same["ok"] and qi["ok"] is oracle is False


def test_block_matrix_respects_blocks():
    f = field_create(11)
    cx = build_singular(2, 11, f)
    for s in range(4):
        for u in cx.blocks(s):
            rows, ncols = transpose(*block_matrix(cx, s, u))
            assert ncols == len(cx.blocks(s)[u])


def assert_rows_encode_d_monomial(cx) -> int:
    """On every monomial of every block, the coded row of ``d_row`` is
    ``d_monomial`` encoded through the target block's column index, and it
    is the monomial's ``block_matrix`` row.  Returns how many monomials."""
    encode = cx.field.coding.encode
    count = 0
    for s in range(cx.top_degree + 1):
        for u, monos in cx.blocks(s).items():
            column = {m: i for i, m in enumerate(cx.blocks(s + 1).get(u, []))}
            rows, width = block_matrix(cx, s, u)
            assert width == len(column)
            for mask, row in zip(monos, rows):
                want = {column[t]: encode(c) for t, c in cx.d_monomial(mask).items()}
                assert cx.d_row(mask, column) == want == row, (s, u, mask)
                count += 1
    return count


@pytest.mark.parametrize("n,p", [(1, 3), (2, 11), (2, 2), (3, 19), (3, 7)])
@pytest.mark.parametrize("eps", [0, 1, 2])
def test_d_row_is_d_monomial_coded(n, p, eps):
    cx = build_deformed(n, p, field_create(p), eps)
    assert assert_rows_encode_d_monomial(cx) == 1 << n * n


def test_d_row_is_d_monomial_coded_on_gl4_critical_over_gf169():
    cc4 = subcomplex(build_gl(4, field_create(13, 2), 13), "critical")
    assert assert_rows_encode_d_monomial(cc4) == 2432


def test_d_row_of_a_finite_complex_drops_zero_coefficients():
    f = field_create(5)
    basis = {0: ["a"], 1: ["b", "c"], 2: ["d", "e"]}
    diff = {"a": {"b": f.zero, "c": f.one + f.one}, "b": {"d": f.one, "e": f.zero},
            "c": {"d": -f.one}}
    fc = FiniteComplex(f, basis, diff)
    assert assert_rows_encode_d_monomial(fc) == 5
    encode = f.coding.encode
    assert fc.d_row("a", {"b": 0, "c": 1}) == {1: encode(f.one + f.one)}
    assert fc.d_row("b", {"d": 0, "e": 1}) == {0: encode(f.one)}
    assert fc.d_row("d", {}) == {}


def test_block_matrix_names_a_monomial_that_leaves_its_block():
    # a member list that leaves out a target of d: the row of its source
    # cannot be indexed, and the error names the block and the source
    f = field_create(7)
    cx = build_gl(2, f, 7)
    target = next(t for m in cx.basis(1) for t in cx.d_monomial(m))
    u = cx.block_key(target)
    bad = Complex(cx.descriptor, members=[m for s in range(5) for m in cx.basis(s)
                                          if m != target])
    source = next(m for m in bad.blocks(1)[u] if target in cx.d_monomial(m))
    message = f"differential leaves block u={u}: {format_monomial(source, 2)}"
    with pytest.raises(AssertionError) as err:
        block_matrix(bad, 1, u)
    assert str(err.value) == message


# -- block orbits -------------------------------------------------------------------


def assert_copied_ranks_eliminate(cx, oracle=None) -> int:
    """Every rank that ``block_ranks`` copies, along a σ-orbit or from a
    dual block, equals the rank of eliminating that block itself; given an
    oracle, every block's rank also equals the oracle's on its decoded rows.
    Returns how many ranks were copied."""
    field = cx.field
    with pytest.MonkeyPatch.context() as mp:
        eliminated = count_block_matrix_calls(mp)
        _dims, ranks = block_ranks(cx)
    blocks = [(s, u) for s in range(cx.top_degree + 1) for u in cx.blocks(s)]
    assert sorted(ranks) == sorted(blocks)
    assert len(set(eliminated)) == len(eliminated)
    for s in range(cx.top_degree + 1):
        orbits = cx.block_orbits(s)
        assert sorted(u for orbit in orbits for u in orbit) == sorted(cx.blocks(s))
    for s, u in blocks:
        if oracle is None and (s, u) in eliminated:
            continue
        rows, ncols = block_matrix(cx, s, u)
        assert ranks[(s, u)] == matrix_rank(rows, ncols, field), (s, u)
        if oracle is not None:
            scalars = [field.coding.decode_row(r) for r in rows]
            assert ranks[(s, u)] == oracle(scalars, ncols, field)
    return len(blocks) - len(eliminated)


@pytest.mark.parametrize("n,p", [(1, 3), (2, 11), (2, 2), (3, 19), (3, 2), (4, 37)])
@pytest.mark.parametrize("eps", [0, 1, 2])
def test_orbit_copied_ranks_equal_eliminated_ranks(n, p, eps):
    f = field_create(p)
    cx = build_deformed(n, p, f, eps)
    oracle = sympy_rank if n <= 2 else None
    for label in ("critical", "fsc"):
        assert_copied_ranks_eliminate(subcomplex(cx, label), oracle)
    # every height copies the upper half from the dual blocks; σ is the
    # identity at n = 1, and from n = 2 on it has orbits of several blocks
    assert assert_copied_ranks_eliminate(cx, oracle) > 0
    assert any(len(orbit) > 1 for s in range(n * n + 1)
               for orbit in cx.block_orbits(s)) == (n > 1)


def test_orbit_copied_ranks_gl4_over_gf169():
    cx = build_gl(4, field_create(13, 2), 13)
    for label in ("full", "critical", "fsc"):
        c = cx if label == "full" else subcomplex(cx, label)
        assert assert_copied_ranks_eliminate(c) > 0

def assert_characters_split(cx, oracle=None) -> int:
    """On every σ-fixed block of cx: the characters λ^0 .. λ^(n-1) of σ share
    out the block's monomials and its target's, and their ranks add up to
    the least-column rank of the whole block and to the rank ``block_ranks``
    gives it, which equals the oracle's on the decoded rows when one is
    given.  Where τ maps the block onto itself, the λ^e and λ^(-e) ranks,
    each eliminated, agree.  Returns how many blocks it split."""
    field, n = cx.field, cx.n
    ranks = block_ranks(cx)[1]
    tau = tau_acts(cx)
    split = 0
    for s in range(cx.top_degree + 1):
        for u in [orbit[0] for orbit in cx.block_orbits(s) if len(orbit) == 1]:
            chars = characters(cx, s, u)
            assert [ch.e for ch in chars] == list(range(n))
            assert sum(len(ch.sources) for ch in chars) == len(cx.blocks(s)[u])
            assert sum(ch.width for ch in chars) == len(cx.blocks(s + 1).get(u, []))
            rows, ncols = block_matrix(cx, s, u)
            rank = matrix_rank(rows, ncols, field)
            by_e = [matrix_rank(*character_matrix(cx, s, u, ch), field) for ch in chars]
            assert sum(by_e) == rank == ranks[(s, u)], (s, u)
            if tau and tau_maps(cx, s, u, u):
                assert all(by_e[e] == by_e[-e % n] for e in range(n)), (s, u, by_e)
            if oracle is not None:
                assert rank == oracle([field.coding.decode_row(r) for r in rows],
                                      ncols, field)
            split += 1
    return split


@pytest.mark.parametrize("n,p", [(1, 3), (2, 11), (2, 2), (3, 19), (3, 2), (4, 37)])
@pytest.mark.parametrize("eps", [0, 1, 2])
def test_character_ranks_add_up_to_the_block_rank(n, p, eps):
    f = field_create(p)
    cx = build_deformed(n, p, f, eps)
    complexes = [cx, subcomplex(cx, "critical"), subcomplex(cx, "fsc")]
    if (p - 1) % n:
        # GF(2) holds no primitive square or cube root of unity: σ has no
        # characters to split a block by, and with -1 = 1 no involution
        # σ^a τ' has either
        for c in complexes:
            for element in ((1, False), (0, True)):
                with pytest.raises(FieldError, match="root not present"):
                    characters(c, 1, 0, element)
        return
    oracle = sympy_rank if n <= 2 else None
    for c in complexes:
        assert assert_characters_split(c, oracle) >= n * n + 1
    if n == 4:
        assert [len(ch.sources) for ch in characters(cx, 7, 0)] == [97] * 4


def test_character_ranks_gl4_over_gf169():
    cx = build_gl(4, field_create(13, 2), 13)
    for c in (cx, subcomplex(cx, "critical"), subcomplex(cx, "fsc")):
        assert assert_characters_split(c) >= 17


def test_block_orbits_of_the_headline_fiber():
    # n = 4, p = 37: 1,929 blocks in 506 orbits, 467 of size 4, 22 of size 2
    # and 17 fixed, the critical blocks; each orbit is led by its least
    # class, so a class leads its orbit in every degree or in none
    cx = build_singular(4, 37, field_create(37))
    orbits = [(s, orbit) for s in range(17) for orbit in cx.block_orbits(s)]
    sizes = [len(orbit) for _s, orbit in orbits]
    assert sum(sizes) == 1929 and len(orbits) == 506
    assert {k: sizes.count(k) for k in set(sizes)} == {4: 467, 2: 22, 1: 17}
    assert sorted((s, orbit[0]) for s, orbit in orbits if len(orbit) == 1) == [
        (s, 0) for s in range(17)]
    assert all(orbit[0] == min(orbit) for _s, orbit in orbits)
    lead_of = {}
    for _s, orbit in orbits:
        for u in orbit:
            assert lead_of.setdefault(u, orbit[0]) == orbit[0]


def count_block_matrix_calls(monkeypatch) -> list:
    """The (s, u) of each block betti assembles, once per call."""
    calls = []

    def counted(cx, s, u, skip=()):
        calls.append((s, u))
        return block_matrix(cx, s, u, skip)

    monkeypatch.setattr(homology, "block_matrix", counted)
    return calls


def lower_half(cx) -> list:
    """The σ-orbit leads of degree s, 2 s <= N - 1: the blocks betti
    eliminates when it copies the upper half from the dual blocks."""
    top = cx.top_degree
    return [(s, orbit[0]) for s in range(top + 1) if 2 * s <= top - 1
            for orbit in cx.block_orbits(s)]


def test_a_certificate_follows_its_complex(monkeypatch):
    # σ, τ and duality are certified on the pair table of the complex that
    # reads them: a complex built before a sign fault is planted keeps its d
    # and its verdicts, read before the fault or after it, and one built
    # after takes both from the faulty table
    n, p = 3, 19
    field = field_create(p)

    def verdicts(cx):
        return cx.sigma_acts, tau_acts(cx), cx.dual_class(0) is not None

    def d(cx):
        return [cx.d_monomial(mask) for mask in range(1 << n * n)]

    before, unread = build_deformed(n, p, field, 1), build_deformed(n, p, field, 1)
    assert verdicts(before) == (True, True, True)
    d_before = d(before)
    real = ravenel.generator_pair_table
    faulty = flipped_sign_table(real(n))
    monkeypatch.setattr(ravenel, "generator_pair_table",
                        lambda m: faulty if m == n else real(m))
    after = build_deformed(n, p, field, 1)
    assert verdicts(after) == (False, False, False)
    assert d(after) != d_before
    assert verdicts(before) == verdicts(unread) == (True, True, True)
    assert d(before) == d(unread) == d_before


@pytest.mark.parametrize("gslot,k", [(0, 0), (3, 0)])
def test_a_flipped_pair_sign_breaks_the_sigma_certificate(monkeypatch, gslot, k):
    # at n = 3, d(h[1,1]) has only eps terms and d(h[2,1]) (slot 3) starts
    # with an eps-free one: a sign flipped in either part breaks σ d = d σ
    # and d τ = -τ d, and betti then eliminates every block, copying no rank
    # along σ.  The
    # flipped term h[1,1] h[3,2] of d(h[1,1]) contains h[1,1], so d of the
    # monomial without h[3,2] now reaches the top one, the duality
    # certificate fails too and no rank is copied at all; h[1,1] h[1,2] of
    # d(h[2,1]) does not contain h[2,1], and the upper half is still copied
    # from the dual blocks
    n, p = 3, 19
    dual = gslot == 3
    real = ravenel.generator_pair_table
    assert real(n)[gslot][k][2] == (1 if gslot == 0 else 0)
    faulty = flipped_sign_table(real(n), gslot, k)
    cx = build_deformed(n, p, field_create(p), 1)
    blocks = sum(len(cx.blocks(s)) for s in range(n * n + 1))
    orbits = sum(len(cx.block_orbits(s)) for s in range(n * n + 1))
    assert orbits < blocks

    monkeypatch.setattr(ravenel, "generator_pair_table",
                        lambda m: faulty if m == n else real(m))
    assert not ravenel.sigma_certificate(faulty, n, p)
    assert not tau_certificate(faulty, n, p)
    calls = count_block_matrix_calls(monkeypatch)
    for cx in (build_deformed(n, p, field_create(p), 1),
               subcomplex(build_deformed(n, p, field_create(p), 0), "fsc")):
        calls.clear()
        assert all(len(orbit) == 1 for s in range(n * n + 1)
                   for orbit in cx.block_orbits(s))
        assert (cx.dual_class(0) is not None) == dual
        table = betti(cx)
        every = [(s, u) for s in range(n * n + 1) for u in cx.blocks(s)]
        assert sorted(calls) == sorted(lower_half(cx) if dual else every)
        assert table.entries == oracle_betti(cx, dense_rank_oracle)


def test_betti_eliminates_one_block_per_orbit(monkeypatch):
    # one block per σ-orbit below the middle, on its lead
    cx = build_deformed(3, 19, field_create(19), 1)
    calls = count_block_matrix_calls(monkeypatch)
    table = betti(cx)
    leads = lower_half(cx)
    assert calls == leads and [s for s, _u in leads][-1] == 4
    assert len(leads) < sum(len(cx.blocks(s)) for s in range(5))
    assert table.entries == oracle_betti(cx, dense_rank_oracle)


def test_a_pair_term_breaking_duality_leaves_every_sigma_lead_eliminated(monkeypatch):
    # d(h[1,j]) gains h[1,j] h[3,j+2]: σ still commutes with d, but d of the
    # degree-8 monomial without h[3,j+2] reaches the top monomial, the dual
    # ranks differ on some blocks, and betti eliminates every σ-lead
    n, p = 3, 19
    real = ravenel.generator_pair_table
    faulty = extra_term_table(real(n), n, 1, 2)
    monkeypatch.setattr(ravenel, "generator_pair_table",
                        lambda m: faulty if m == n else real(m))
    top = (1 << n * n) - 1
    assert any(ravenel.integer_d(ravenel.term_table(faulty, 0),
                                 top ^ generator_mask(3, 3, n)).values())
    assert ravenel.sigma_certificate(faulty, n, p)
    assert not tau_certificate(faulty, n, p)
    calls = count_block_matrix_calls(monkeypatch)
    for eps, label in ((0, "full"), (1, "full"), (0, "critical"), (1, "fsc")):
        cx = build_deformed(n, p, field_create(p), eps)
        if label != "full":
            cx = subcomplex(cx, label)
        assert not ravenel.duality_certificate(faulty, n, p)
        assert cx.dual_class(0) is None
        calls.clear()
        table = betti(cx)
        assert calls == [(s, orbit[0]) for s in range(n * n + 1)
                         for orbit in cx.block_orbits(s)]
        ranks = block_ranks(cx)[1]
        assert any(r != ranks.get((n * n - 1 - s, -u % cx.internal_modulus), 0)
                   for (s, u), r in ranks.items())
        assert table.entries == oracle_betti(cx, dense_rank_oracle)


def test_a_dual_hook_without_the_sign_is_caught(monkeypatch):
    # a hook returning u for u_top - u = -u pairs blocks of equal size (the
    # block sizes are symmetric in u) but not of complementary monomials, so
    # betti refuses the copy, and the duality claim fails
    real = ravenel.Complex.dual_class
    monkeypatch.setattr(ravenel.Complex, "dual_class",
                        lambda self, u: None if real(self, u) is None else u)
    cx = build_singular(3, 19, field_create(19))
    with pytest.raises(RuntimeError, match="not the complement"):
        betti(cx)
    checks = claim_duality(3, 19)
    assert not checks[0]["ok"] and "full" in checks[0]["name"]


def test_dual_blocks_of_unequal_size_are_refused(monkeypatch):
    # a dual hook that pairs blocks of different sizes copies no rank
    cx = build_deformed(2, 11, field_create(11), 0)
    monkeypatch.setattr(cx, "dual_class", lambda u: 0)
    with pytest.raises(RuntimeError, match="not the complement"):
        betti(cx)


def test_orbit_blocks_of_unequal_size_are_refused(monkeypatch):
    # an orbit that pairs blocks of different sizes copies no rank
    cx = build_deformed(2, 11, field_create(11), 0)
    s = 1
    sizes = {u: len(m) for u, m in cx.blocks(s).items()}
    small, large = min(sizes, key=sizes.get), max(sizes, key=sizes.get)
    assert sizes[small] != sizes[large]
    rest = [[u] for u in cx.blocks(s) if u not in (small, large)]
    orbits = cx.block_orbits
    monkeypatch.setattr(cx, "block_orbits",
                        lambda t: [[small, large]] + rest if t == s else orbits(t))
    with pytest.raises(RuntimeError, match="differ in size"):
        betti(cx)


def test_custom_member_lists_get_singleton_orbits(monkeypatch):
    from stabfold import pages
    from stabfold.gf import primitive_root_of_unity
    from stabfold.kummer import FixedLayer, KummerConnection
    from stabfold.retract import kernel_model, lambda_h_pair, laplacian

    # the kernel model of gl_3 has the critical complex's members, but it is
    # labelled custom: no σ-stability is assumed for it
    f = field_create(7)
    cx = build_gl(3, f, 7)
    h, _ = lambda_h_pair(cx, primitive_root_of_unity(f, 3))
    model = kernel_model(cx, [laplacian(cx, h)])
    assert model.descriptor.label == "custom"
    seen = [model]
    # the fixed-mask fiber that core_pages compares E_1 with
    real = pages.betti

    def recorded(c):
        seen.append(c)
        return real(c)

    monkeypatch.setattr(pages, "betti", recorded)
    pages.core_pages(FixedLayer(KummerConnection.sigma(3), f))
    assert any(isinstance(c, Complex) for c in seen[1:])
    assert any(isinstance(c, FiniteComplex) for c in seen[1:])
    for c in seen:
        for s in range(c.top_degree + 1):
            assert c.block_orbits(s) == [[u] for u in c.blocks(s)]
            assert all(c.dual_class(u) is None for u in c.blocks(s))
        # nor is d∘d = 0 claimed for them: betti clears nothing there
        assert not c.dd_zero


# -- the reflection τ ------------------------------------------------------------


def assert_reflections_split(cx) -> int:
    """On every σ-orbit lead below the middle that some σ^a τ maps onto
    itself, with its target: the two characters ±1 of the involution σ^a τ'
    share out the block's monomials and its target's, and their ranks add up
    to the rank of the whole block and to the rank ``block_ranks`` gives it.
    Returns how many blocks it split."""
    field = cx.field
    ranks = block_ranks(cx)[1]
    split = 0
    for s, u in lower_half(cx):
        orbit = next(o for o in cx.block_orbits(s) if o[0] == u)
        v = tau_class(cx, s, u)
        if v not in orbit or not tau_maps(cx, s, u, v):
            continue
        # σ^a maps v = p^b u back to u
        a = -orbit.index(v) % cx.n
        halves = characters(cx, s, u, (a, True))
        assert [ch.e for ch in halves] == [0, 1]
        assert sum(len(ch.sources) for ch in halves) == len(cx.blocks(s)[u])
        assert sum(ch.width for ch in halves) == len(cx.blocks(s + 1).get(u, []))
        assert (sum(matrix_rank(*character_matrix(cx, s, u, ch), field) for ch in halves)
                == matrix_rank(*block_matrix(cx, s, u), field) == ranks[(s, u)]), (s, u, a)
        split += 1
    return split


@pytest.mark.parametrize("n,p", [(2, 11), (3, 19), (4, 37)])
@pytest.mark.parametrize("eps", [0, 1, 2])
def test_reflection_halves_add_up_to_the_block_rank(n, p, eps):
    cx = build_deformed(n, p, field_create(p), eps)
    for c in (cx, subcomplex(cx, "critical"), subcomplex(cx, "fsc")):
        assert assert_reflections_split(c) > 0


def test_reflection_halves_gl4_over_gf169():
    cx = build_gl(4, field_create(13, 2), 13)
    for c in (cx, subcomplex(cx, "critical"), subcomplex(cx, "fsc")):
        assert assert_reflections_split(c) > 0
    assert assert_copied_ranks_eliminate(subcomplex(cx, "critical")) > 0


def test_tau_pairs_and_splits_the_headline_fiber():
    # n = 4, p = 37: below the middle, 227 σ-orbits of blocks, 8 of them
    # σ-fixed (class 0) and mapped onto themselves by τ; of the other 219, τ
    # pairs 126 in 63 pairs and maps 93 into their own σ-orbit, at eps = 0
    # and at eps = 1.  τ' conjugates d on a block to d on its partner, so
    # the ranks block_ranks finds on the two σ-orbits of a pair agree; an
    # involution σ^a τ' maps each of the other 101 blocks and its target
    # onto themselves, and splits it
    for eps in (0, 1):
        cx = build_deformed(4, 37, field_create(37), eps)
        assert tau_acts(cx)
        ranks = block_ranks(cx)[1]
        kinds = {"paired": 0, "stable": 0, "fixed": 0}
        pairs = set()
        for s, u in lower_half(cx):
            lead = {w: o[0] for o in cx.block_orbits(s) for w in o}
            orbit = next(o for o in cx.block_orbits(s) if o[0] == u)
            v = tau_class(cx, s, u)
            assert tau_maps(cx, s, u, v)
            kinds["fixed" if len(orbit) == 1 else "stable" if v in orbit else "paired"] += 1
            assert v == u or len(orbit) > 1
            if v in orbit:
                a = -orbit.index(v) % cx.n
                for t in (s, s + 1):
                    group_orbits(cx, t, u, a, True)
            else:
                assert ranks[(s, v)] == ranks[(s, u)], (s, u, v)
                pairs.add((s, frozenset((u, lead[v]))))
        assert kinds == {"paired": 126, "stable": 93, "fixed": 8}
        assert len(pairs) == 63


def test_betti_counters_at_the_headline_fiber(monkeypatch):
    # the work of betti(ravenel n = 4, p = 37, eps = 0): the source rows
    # handed to elimination and the expansions of d, one per uncleared source
    # of the 227 σ-orbit leads below the middle (7,568 rows and 6,827
    # expansions with σ alone, uncleared; 4,614 and 3,632 cleared with the
    # characters of σ and with τ, which expanded d on orbit representatives)
    cx = build_singular(4, 37, field_create(37))
    rows, expanded = [], []
    d_row, d_monomial = Complex.d_row, Complex.d_monomial

    def counted(cx, s, u, skip=()):
        out = block_matrix(cx, s, u, skip)
        rows.append(len(out[0]) - len(skip))
        return out

    monkeypatch.setattr(homology, "block_matrix", counted)
    # expansions as coded rows and as scalar maps alike
    monkeypatch.setattr(Complex, "d_row",
                        lambda c, mask, column: expanded.append(mask) or d_row(c, mask, column))
    monkeypatch.setattr(Complex, "d_monomial",
                        lambda c, mask: expanded.append(mask) or d_monomial(c, mask))
    assert betti(cx).grand_total() == 3440
    assert len(rows) == 227
    assert (sum(rows), len(expanded)) == (4842, 4842)
    assert len(set(expanded)) == len(expanded)


def assert_clearing_keeps_ranks(cx) -> int:
    """Every block betti eliminates is cleared by the pivot set of d on its
    partner, the block one degree down in the same class, eliminated
    uncleared: a nonempty set whenever that rank d^(s-1) is nonzero, and then
    the partner was eliminated too.  No cleared row is assembled; the rank
    is the uncleared rank of the same rows, and the rows that reduce to zero
    number b_s of that class.  Returns how many blocks were cleared."""
    field = cx.field
    calls = []

    def assembled(c, s, u, skip=()):
        rows, width = block_matrix(c, s, u, skip)
        calls.append((s, u, set(skip), rows))
        return rows, width

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "block_matrix", assembled)
        block_ranks(cx)
    eliminated = {(s, u) for s, u, _skip, _rows in calls}
    cleared = 0
    for s, u, skip, rows in calls:
        whole, below = block_matrix(cx, s, u)[0], block_matrix(cx, s - 1, u)[0]
        assert skip == set(homology.echelon(below, field)), (s, u)
        if not skip:
            continue
        assert (s - 1, u) in eliminated, (s, u)
        assert not any(rows[j] for j in skip)
        rank = matrix_rank(rows, 0, field)
        assert rank == matrix_rank(whole, 0, field), (s, u)
        b_s = len(whole) - rank - matrix_rank(below, 0, field)
        assert len(rows) - len(skip) - rank == b_s, (s, u)
        cleared += 1
    return cleared


@pytest.mark.parametrize("n,p", [(1, 3), (2, 11), (2, 2), (3, 19), (3, 2), (4, 37)])
@pytest.mark.parametrize("eps", [0, 1, 2])
def test_cleared_ranks_equal_uncleared_ranks(n, p, eps):
    # below the middle degree of n <= 2 only d^0 = 0 lies under a block.
    # σ-orbits are led by their least class in every degree, so no block is
    # eliminated uncleared while d^(s-1) below it is nonzero
    cx = build_deformed(n, p, field_create(p), eps)
    for c in (cx, subcomplex(cx, "critical"), subcomplex(cx, "fsc")):
        assert c.dd_zero
        assert (assert_clearing_keeps_ranks(c) > 0) == (n > 2)


def test_cleared_ranks_gl4_over_gf169():
    cx = build_gl(4, field_create(13, 2), 13)
    for c in (cx, subcomplex(cx, "critical"), subcomplex(cx, "fsc")):
        assert assert_clearing_keeps_ranks(c) > 0


@pytest.mark.slow
def test_cleared_ranks_of_the_height5_critical_complex():
    # n = 5, eps = 0 over GF(61): one class, u = 0, and one cleared
    # elimination per degree up to the middle, 12; about 4 s and 90 MB
    cc = subcomplex(build_singular(5, 61, field_create(61)), "critical")
    dims, ranks = block_ranks(cc)
    assert [ranks[(s, 0)] for s in range(9)] == [
        0, 4, 16, 63, 216, 623, 1556, 3343, 6190]
    betti_by_degree = homology.betti_numbers(dims, ranks)
    assert [betti_by_degree.get((s, 0), 0) for s in range(13)] == [
        1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2, 1, 2]


def test_clearing_rests_on_the_dd_zero_certificate(monkeypatch):
    # the sign and term faults that the σ and duality tests plant all
    # break d∘d = 0: the certificate refuses each, betti clears nothing and
    # equals the oracle; forced to clear, it drops sources whose rows d∘d ≠ 0
    # keeps independent, and the Betti table is wrong
    n, p = 3, 19
    real = ravenel.generator_pair_table
    assert all(ravenel.dd_zero_certificate(real(m), m) for m in (2, 3, 4, 5))
    field = field_create(p)
    for faulty in (flipped_sign_table(real(n)), flipped_sign_table(real(n), 3, 0),
                   flipped_along_j(real(n), n, 3, 0), extra_term_table(real(n), n, 1, 2)):
        assert not ravenel.dd_zero_certificate(faulty, n)
        monkeypatch.setattr(ravenel, "generator_pair_table",
                            lambda m, faulty=faulty: faulty if m == n else real(m))
        cx = build_deformed(n, p, field, 1)
        assert not cx.dd_zero
        expected = oracle_betti(cx, dense_rank_oracle)
        assert betti(cx).entries == expected
        forced = build_deformed(n, p, field, 1)
        monkeypatch.setattr(forced, "dd_zero", True)
        assert betti(forced).entries != expected


def test_a_term_that_breaks_tau_but_keeps_sigma_leaves_every_sigma_lead_eliminated(
        monkeypatch):
    # the first term h[1,j] h[2,j+1] of d(h[3,j]) flips sign for every j: the
    # reflection h[i,j] -> h[i,-i-j] maps it onto the unflipped h[2,j'] h[1,j'+2]
    # of d(h[3,j']), and tau_certificate refuses τ, but σ still commutes
    # with d and betti still eliminates one block per σ-orbit
    n, p = 3, 19
    real = ravenel.generator_pair_table
    faulty = flipped_along_j(real(n), n, 3, 0)
    assert faulty[6][0][0] == generator_mask(1, 1, n) | generator_mask(2, 2, n)
    monkeypatch.setattr(ravenel, "generator_pair_table",
                        lambda m: faulty if m == n else real(m))
    assert ravenel.sigma_certificate(faulty, n, p)
    assert not tau_certificate(faulty, n, p)
    calls = count_block_matrix_calls(monkeypatch)
    for eps, label in ((0, "full"), (1, "full"), (1, "critical"), (0, "fsc")):
        cx = build_deformed(n, p, field_create(p), eps)
        if label != "full":
            cx = subcomplex(cx, label)
        assert cx.sigma_acts and not tau_acts(cx)
        calls.clear()
        table = betti(cx)
        dual = cx.dual_class(0) is not None
        assert calls == (lower_half(cx) if dual else [
            (s, orbit[0]) for s in range(n * n + 1) for orbit in cx.block_orbits(s)])
        assert table.entries == oracle_betti(cx, dense_rank_oracle)


def tau_failures(cx) -> set:
    """The σ-orbit leads below the middle that τ does not map onto the block
    of ``tau_class``, with their targets: the blocks no τ split reaches."""
    return {(s, u) for s, u in lower_half(cx) if not tau_maps(cx, s, u, tau_class(cx, s, u))}


def test_a_block_map_to_the_wrong_class_is_caught():
    # p v, the next class of the σ-orbit of τ's true image v, is the wrong
    # partner for every lead outside the σ-fixed class 0: tau_maps refuses
    # it there, so the τ splits above rest on checked block maps
    for eps in (0, 1):
        cx = build_deformed(3, 19, field_create(19), eps)
        assert not tau_failures(cx)
        leads = lower_half(cx)
        wrong = [(s, u) for s, u in leads if not tau_maps(
            cx, s, u, tau_class(cx, s, u) * cx.p % cx.internal_modulus)]
        assert wrong == [(s, u) for s, u in leads if u != 0]


@pytest.mark.parametrize("n,p,label", [(3, 2, "full"), (4, 5, "fsc")])
@pytest.mark.parametrize("eps", [0, 1, 2])
def test_tau_falls_back_where_its_block_map_leaves_the_block(n, p, label, eps):
    # at small p the class of τ(m) depends on more than the class of m: some
    # block maps fail their check though τ anticommutes with d, and no τ
    # split reaches those blocks.  Their ranks from block_ranks equal the
    # dense oracle's, and betti equals the oracles: sympy on the fsc complex
    # at n = 4, where the dense oracle takes about 9 s for each eps
    field = field_create(p)
    cx = build_deformed(n, p, field, eps)
    if label != "full":
        cx = subcomplex(cx, label)
    assert tau_acts(cx)
    failed = tau_failures(cx)
    assert failed
    ranks = block_ranks(cx)[1]
    for s, u in failed:
        rows, ncols = block_matrix(cx, s, u)
        scalars = [field.coding.decode_row(r) for r in rows]
        assert dense_rank_oracle(scalars, ncols, field) == ranks[(s, u)]
    oracle = dense_rank_oracle if n == 3 else sympy_rank
    assert betti(cx).entries == oracle_betti(cx, oracle)
