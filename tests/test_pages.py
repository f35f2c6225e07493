import pytest
from oracles import dense_rank_oracle

from stabfold.exterior import slots_of
from stabfold.gf import field_create
from stabfold.homology import FiniteComplex, betti, block_ranks
from stabfold.kummer import FixedLayer, KummerConnection
from stabfold.pages import (
    FilteredComplex,
    PageReport,
    core_pages,
    critical_block,
    filter_first_subscript,
    medial_pages,
    run_pages,
)
from stabfold.ravenel import build_gl, build_singular


def test_zero_differential_collapses_immediately():
    f = field_create(3)
    gl = build_gl(1, f, 3)
    fc = filter_first_subscript(gl)
    report = run_pages(fc)
    assert report.collapse_page == 1
    assert not report.nonzero_differentials()


def test_filter_first_subscript_gr_matches_singular():
    # on every monomial, the filtration-preserving part of d on gl_n is the
    # singular fiber's d, term for term; n = 2 and n = 3
    for n, p in ((2, 11), (3, 19)):
        f = field_create(p)
        fc = filter_first_subscript(build_gl(n, f, p))
        singular = build_singular(n, p, f)
        for mask in range(1 << (n * n)):
            graded = {t: c for t, c in fc.cx.d_monomial(mask).items()
                      if fc.fil(t) == fc.fil(mask)}
            assert graded == singular.d_monomial(mask)


def test_filter_first_subscript_rejects_a_misgraded_pair_table(monkeypatch):
    from stabfold import ravenel

    real = ravenel.generator_pair_table
    table = {s: list(terms) for s, terms in real(2).items()}
    pmask, presign, _e = table[2][0]  # d(h[2,1]) = h[1,1]h[1,2], eps-free
    table[2][0] = (pmask, presign, 1)
    fc = filter_first_subscript(build_gl(2, field_create(11), 11))
    monkeypatch.setattr(ravenel, "generator_pair_table",
                        lambda n: table if n == 2 else real(n))
    with pytest.raises(AssertionError):
        filter_first_subscript(build_gl(2, field_create(11), 11))
    # the critical block reads d from the faulty table, and is certified on it
    with pytest.raises(AssertionError):
        critical_block(fc)


def test_e1_equals_singular_betti_n2():
    f = field_create(11)
    gl = build_gl(2, f, 11)
    fc = filter_first_subscript(gl)
    report = run_pages(fc)
    # summing E_1 over (t, u) per degree gives the singular-fiber cohomology
    sing = betti(build_singular(2, 11, f))
    e1_by_s = {}
    for (s, t, u), d in report.entries[1].items():
        e1_by_s[s] = e1_by_s.get(s, 0) + d
    assert e1_by_s == sing.totals_by_degree()


def test_full_ss_n2_has_nonzero_differential_but_converges():
    f = field_create(11)
    gl = build_gl(2, f, 11)
    report = run_pages(filter_first_subscript(gl))
    assert report.nonzero_differentials()  # plenty of nonzero d_r off-critical
    # E_infinity totals match H*(gl_2): grand total 4 (checked internally too)
    assert sum(report.e_infinity_totals().values()) == 4
    assert report.notes.get("e_infinity_matches_betti")


def test_critical_block_collapses_n2():
    f = field_create(11)
    gl = build_gl(2, f, 11)
    fc = critical_block(filter_first_subscript(gl))
    report = run_pages(fc)
    assert report.collapse_page == 1
    assert not report.nonzero_differentials()
    assert sum(report.e_infinity_totals().values()) == 4


def test_critical_block_collapses_n3():
    f = field_create(19)
    gl = build_gl(3, f, 19)
    fc = critical_block(filter_first_subscript(gl))
    report = run_pages(fc)
    assert report.collapse_page == 1
    assert not report.nonzero_differentials()
    # E_1 grand total equals dim H*(critical complex at eps = 0) = 2^3
    e1_total = sum(report.entries[1].values())
    assert e1_total == 8
    assert sum(report.e_infinity_totals().values()) == 8


def test_page_dims_monotone_and_euler_constant():
    f = field_create(11)
    gl = build_gl(2, f, 11)
    report = run_pages(filter_first_subscript(gl))
    rs = sorted(report.entries)
    for r in rs[:-1]:
        # column sums can only shrink page over page
        cur, nxt = report.entries[r], report.entries[r + 1]
        by_su_cur, by_su_nxt = {}, {}
        for (s, t, u), d in cur.items():
            by_su_cur[(s, u)] = by_su_cur.get((s, u), 0) + d
        for (s, t, u), d in nxt.items():
            by_su_nxt[(s, u)] = by_su_nxt.get((s, u), 0) + d
        for k, v in by_su_nxt.items():
            assert v <= by_su_cur.get(k, 0)
        # Euler characteristic is constant across pages
        eu_cur = sum((-1) ** s * d for (s, t, u), d in cur.items())
        eu_nxt = sum((-1) ** s * d for (s, t, u), d in nxt.items())
        assert eu_cur == eu_nxt


def test_finite_betti_simple():
    f = field_create(5)
    basis = {0: ["a"], 1: ["b", "c"], 2: ["d"]}
    diff = {"a": {}, "b": {"d": f.one}, "c": {"d": f.one}, "d": {}}
    out = betti(FiniteComplex(f, basis, diff))
    assert out.totals_by_degree() == {0: 1, 1: 1}
    assert out.entries == {(0, 0): 1, (1, 0): 1}


@pytest.mark.parametrize("p,m", [(7, 1), (5, 2)])
def test_finite_betti_ignores_zero_coefficients(p, m):
    # a zero entry of d is the same map as no entry
    f = field_create(p, m)
    basis = {0: ["a"], 1: ["b", "c"], 2: ["d"]}
    diff = {"b": {"d": f.one}, "c": {"d": f.one}}
    with_zeros = {"a": {"b": f.zero, "c": f.zero}, "b": {"d": f.one},
                  "c": {"d": f.one, "e": f.zero}}
    assert (betti(FiniteComplex(f, basis, with_zeros))
            == betti(FiniteComplex(f, basis, diff)))
    lone = betti(FiniteComplex(f, {0: ["a"], 1: ["b"]}, {"a": {"b": f.zero}}))
    assert lone.entries == {(0, 0): 1, (1, 0): 1}


def test_block_matrix_names_a_label_that_leaves_its_block():
    # labels need not be monomial masks: the error names the label itself
    f = field_create(5)
    fc = FiniteComplex(f, {0: [(3, 0)], 1: [(5, 0)]}, {(3, 0): {(7, 1): f.one}})
    with pytest.raises(AssertionError, match=r"\(3, 0\)"):
        betti(fc)


@pytest.mark.parametrize("n,p", [(1, 5), (2, 11), (3, 7), (3, 19)])
def test_core_and_medial_e1_agree_on_every_column(n, p):
    # for sigma every term has e = 0, so the core mod x and the medial weight
    # pieces t >= 0 are the same complex up to relabelling
    layer = FixedLayer(KummerConnection.sigma(n), field_create(p))
    core, medial = core_pages(layer), medial_pages(layer)
    for t in range(4):
        for s in range(n * n + 1):
            assert core.dim(1, s, t) == medial.dim(1, s, t)


def test_monodromy_ss_core_n1():
    f = field_create(5)
    layer = FixedLayer(KummerConnection.sigma(1), f)
    report = core_pages(layer)
    assert report.collapse_page == 1
    # E_1^{s,t} = H^s(fiber) = 1 for s in {0,1}, every t >= 0; nothing at t < 0
    for t in range(0, 3):
        assert report.dim(1, 0, t) == 1
        assert report.dim(1, 1, t) == 1
    assert report.dim(1, 1, -1) == 0
    assert report.notes["e1_matches_smooth_fiber"]


def test_monodromy_ss_medial_n1_nonsurjectivity_corner():
    f = field_create(5)
    layer = FixedLayer(KummerConnection.sigma(1), f)
    report = medial_pages(layer)
    # the medial page has E_1^{1,-1} = 1 where the core page has zero
    assert report.dim(1, 1, -1) == 1
    assert report.dim(1, 0, 0) == 1
    assert report.dim(1, 1, 0) == 1
    assert report.collapse_page == 1


def test_monodromy_ss_core_n2_collapse_and_fiber_match():
    f = field_create(11)
    layer = FixedLayer(KummerConnection.sigma(2), f)
    report = core_pages(layer)
    assert report.collapse_page == 1
    assert report.notes["e1_matches_smooth_fiber"]
    # free over x: every t-column repeats the fixed smooth-fiber cohomology
    fiber = report.notes["smooth_fiber_betti"]
    for s, b in fiber.items():
        for t in range(0, 3):
            assert report.dim(1, s, t) == b


def test_monodromy_ss_core_n3_sigma_collapse():
    f = field_create(7)
    layer = FixedLayer(KummerConnection.sigma(3), f)
    report = core_pages(layer)
    assert report.collapse_page == 1
    assert report.notes["certified_by"] == "strict x-adic compatibility"
    assert report.notes["e1_matches_smooth_fiber"]


def test_monodromy_ss_rejects_unclosed_core():
    f = field_create(7)
    layer = FixedLayer(KummerConnection.semilinear(3, 7), f)
    assert not layer.closed
    with pytest.raises(ValueError):
        core_pages(layer)


def test_windowed_pages_on_inhomogeneous_closed_core():
    # the height-2 semilinear core is closed but not homogeneous; its pages
    # still converge to the same totals in the reported window
    f = field_create(11)
    layer = FixedLayer(KummerConnection.semilinear(2, 11), f)
    assert layer.closed
    report = core_pages(layer, t_report=2)
    assert report.notes.get("window_limited")
    assert report.entries[1]


def test_run_pages_r_max_truncation():
    f = field_create(11)
    gl = build_gl(2, f, 11)
    fc = filter_first_subscript(gl)
    report = run_pages(fc, r_max=1)
    assert report.collapse_page is None  # not certified within one page
    assert 1 in report.entries


def test_run_pages_refuses_a_differential_that_lowers_the_filtration():
    # a pair of negative length has no page; the filtration must be decreasing
    f = field_create(5)
    cx = FiniteComplex(f, {0: ["a"], 1: ["b"]}, {"a": {"b": f.one}})
    with pytest.raises(AssertionError, match="lowers the filtration"):
        run_pages(FilteredComplex(cx, {"a": 1, "b": 0}.__getitem__))


@pytest.mark.parametrize("n,p", [(2, 11), (3, 19)])
def test_e_infinity_equals_betti_on_every_block(n, p):
    # exhaustive at n = 2, 3, critical and full runs: run_pages cross-checks
    # E-infinity with ranks of the block rows it holds; homology.betti
    # assembles and eliminates every block on its own
    cx = build_gl(n, field_create(p), p)
    table = betti(cx).entries
    fc = filter_first_subscript(cx)
    for block, keep in ((critical_block(fc), lambda u: u == 0),
                        (fc, lambda u: True)):
        report = run_pages(block)
        assert report.notes["e_infinity_matches_betti"]
        assert report.e_infinity_totals() == {
            (s, u): b for (s, u), b in table.items() if keep(u)}


def forget_one_pair(real):
    """insert_row, except that the first pivot it stores is not reported:
    one pair of the pairing is lost."""
    forgotten = []

    def faulty(row, ech, field):
        piv = real(row, ech, field)
        if piv is None or forgotten:
            return piv
        forgotten.append(piv)
        return None

    return faulty


def pivot_at_largest_column(real):
    """insert_row pivoting at the row's largest column: each source pairs
    with its deepest target, so the pairs are as many and their lengths
    wrong."""

    def faulty(row, ech, field):
        coding = field.coding
        while row:
            piv = max(row)
            prow = ech.get(piv)
            if prow is None:
                ech[piv] = coding.normalize(row, row[piv])
                return piv
            coding.step(row, row[piv], prow)
        return None

    return faulty


@pytest.mark.parametrize("fault", [forget_one_pair, pivot_at_largest_column])
def test_run_pages_catches_a_fault_in_the_pairing(monkeypatch, fault):
    # a lost pair leaves both its ends on E-infinity, which the Betti numbers
    # of the full block rows refuse; wrong lengths keep E-infinity's totals
    # and move the pages, which the cut-matrix oracle refuses.  On gl_2 the
    # wrong pages happen to coincide, so this runs on gl_3
    from stabfold import pages

    real = pages.insert_row
    fc = filter_first_subscript(build_gl(3, field_create(19), 19))
    for block in (critical_block(fc), fc):
        monkeypatch.setattr(pages, "insert_row", fault(real))
        if fault is forget_one_pair:
            with pytest.raises(AssertionError, match="disagree with Betti numbers"):
                run_pages(block)
        else:
            assert run_pages(block).to_json() != oracle_pages(block).to_json()


@pytest.mark.parametrize("n,p", [(2, 11), (3, 7)])
def test_medial_pages_eliminate_the_whole_fixed_basis_once(monkeypatch, n, p):
    # from weight max(alpha) on, each medial piece is the whole fixed basis
    # relabelled: one elimination serves all of them, and every weight's
    # totals still equal those of its own piece
    from stabfold import pages

    layer = FixedLayer(KummerConnection.sigma(n), field_create(p))
    low, whole = min(layer.alpha.values()), max(layer.alpha.values())
    calls = []

    def counted(cx):
        calls.append(cx)
        return betti(cx)

    monkeypatch.setattr(pages, "betti", counted)
    report = medial_pages(layer, t_report=3)
    assert whole == 0 and low < 0
    assert len(calls) == whole - low + 1
    gr_diff = layer.gr_diff()
    for t in range(low, 4):
        gr = layer.gr_basis(t)
        diff = {(m, w): {(tgt, t - layer.alpha[tgt]): c for tgt, c in gr_diff[m].items()}
                for pairs in gr.values() for (m, w) in pairs}
        totals = betti(FiniteComplex(layer.field, gr, diff)).totals_by_degree()
        assert totals == {s: d for (s, tt, _u), d in report.entries[1].items() if tt == t}


def oracle_pages(fc, r_max=None) -> PageReport:
    """The pages by the formula of the pages module, with each z_r read off
    its cut matrix: the block's source columns with fil >= t against its
    target rows with fil < t + r, built from d_monomial and ranked by the
    dense oracle, once per distinct pair of column and row sets."""
    cx = fc.cx
    fils = [fc.fil(m) for s in range(cx.top_degree + 1)
            for monos in cx.blocks(s).values() for m in monos]
    span = max(fils, default=0) - min(fils, default=0)
    r_stop = max(span + 1 if r_max is None else min(r_max, span + 1), 1)
    to_infinity = r_stop >= span + 1
    keys = [(s, u) for s in range(cx.top_degree + 1) for u in cx.blocks(s)]
    ranks, zdims = {}, {}

    def z(s, u, t, r):
        if s < 0:
            return 0
        if (s, u, t, r) not in zdims:
            cols = tuple(m for m in cx.blocks(s).get(u, []) if fc.fil(m) >= t)
            live = frozenset(m for m in cx.blocks(s + 1).get(u, []) if fc.fil(m) < t + r)
            if (cols, live) not in ranks:
                rows = {}
                for j, m in enumerate(cols):
                    for tgt, c in cx.d_monomial(m).items():
                        if tgt in live:
                            rows.setdefault(tgt, {})[j] = c
                ranks[(cols, live)] = dense_rank_oracle(list(rows.values()), len(cols), cx.field)
            zdims[(s, u, t, r)] = len(cols) - ranks[(cols, live)]
        return zdims[(s, u, t, r)]

    entries = {}
    for r in range(1, r_stop + 2):
        entries[r] = {}
        for s, u in keys:
            for t in sorted({fc.fil(m) for m in cx.blocks(s)[u]}):
                d = (z(s, u, t, r) - z(s, u, t + 1, r - 1)
                     - z(s - 1, u, t - r + 1, r - 1) + z(s - 1, u, t - r + 1, r))
                if d:
                    entries[r][(s, t, u)] = d
    diffs = {}
    for r in range(1, r_stop + 1):
        rk = diffs[r] = {}
        for (s, t, u), d in sorted(entries[r].items()):
            out = d - entries[r + 1].get((s, t, u), 0) - rk.get((s - 1, t - r, u), 0)
            if out:
                rk[(s, t, u)] = out
    del entries[r_stop + 1]
    last = max((r for r, rk in diffs.items() if rk), default=0)
    notes = {"e_infinity_matches_betti": True} if to_infinity else {}
    return PageReport(entries, diffs, span, last + 1 if to_infinity else None, notes)


def windowed_core_input(monkeypatch):
    """The filtered window and page bound that core_pages hands run_pages
    for the height-2 semilinear core of the windowed-pages test."""
    from stabfold import pages

    real, seen = pages.run_pages, []

    def capture(fc, r_max=None):
        seen.append((fc, r_max))
        return real(fc, r_max)

    monkeypatch.setattr(pages, "run_pages", capture)
    layer = FixedLayer(KummerConnection.semilinear(2, 11), field_create(11))
    core_pages(layer, t_report=2)
    (fc, r_max), = seen
    return fc, r_max


@pytest.mark.parametrize("case", ["gl2-full", "gl2-critical", "gl3-full",
                                  "gl3-critical", "windowed-core", "gl3-full-GF7",
                                  "gl3-full-r2"])
def test_run_pages_matches_cut_matrices_ranked_by_the_oracle(monkeypatch, case):
    # every z_r that run_pages reads, taken from its own cut matrix, gives
    # the same pages, differentials and collapse page; on gl_3 over GF(7),
    # with other σ-orbits than over GF(19), and with the pages cut at r = 2,
    # most blocks take their pairs along σ or from their dual blocks
    if case == "windowed-core":
        fc, r_max = windowed_core_input(monkeypatch)
    else:
        n, p = (2, 11) if case.startswith("gl2") else (3, 7) if case.endswith("GF7") else (3, 19)
        fc = filter_first_subscript(build_gl(n, field_create(p), p))
        r_max = 2 if case.endswith("r2") else None
        if case.endswith("critical"):
            fc = critical_block(fc)
    assert run_pages(fc, r_max).to_json() == oracle_pages(fc, r_max).to_json()


def counted_calls(monkeypatch):
    """The rows handed to pages.matrix_rank per call, and the sources
    inserted per pairing pass, as [echelon, count]."""
    from stabfold import pages

    real_rank, real_insert = pages.matrix_rank, pages.insert_row
    ranked, passes = [], []

    def counted_rank(rows, ncols, field, pivots=None):
        ranked.append(len(rows))
        return real_rank(rows, ncols, field, pivots)

    def counted_insert(row, ech, field):
        if not passes or passes[-1][0] is not ech:
            passes.append([ech, 0])
        passes[-1][1] += 1
        return real_insert(row, ech, field)

    monkeypatch.setattr(pages, "matrix_rank", counted_rank)
    monkeypatch.setattr(pages, "insert_row", counted_insert)
    return ranked, passes


@pytest.mark.parametrize("block,blocks", [("full", 118), ("critical", 10)])
def test_run_pages_pairs_and_ranks_each_block_once(monkeypatch, block, blocks):
    # on gl_3 over GF(19) the lead of each σ-orbit below the middle,
    # 2 s <= 8, is ranked once, for the E-infinity check, and paired in one
    # pass that inserts each of its sources once; every other block takes
    # its pairs and rank along its orbit or from its dual block.  Each leaves
    # out rank d^(s-1) sources: the ranking its own pivots one degree down,
    # the pass the sources paired as targets one degree down
    ranked, passes = counted_calls(monkeypatch)
    fc = filter_first_subscript(build_gl(3, field_create(19), 19))
    if block == "critical":
        fc = critical_block(fc)
    run_pages(fc)
    cx = fc.cx
    assert sum(len(cx.blocks(s)) for s in range(cx.top_degree + 1)) == blocks
    ranks = block_ranks(cx)[1]
    kept = sorted(len(cx.blocks(s)[lead]) - ranks.get((s - 1, lead), 0)
                  for s in range(5) for lead, *_ in cx.block_orbits(s))
    assert len(kept) == {"full": 23, "critical": 5}[block]
    assert sorted(ranked) == kept
    assert sorted(count for _ech, count in passes) == [k for k in kept if k]


def test_run_pages_copies_nothing_for_a_filtration_sigma_moves(monkeypatch):
    # the second-subscript sum never falls along d, but σ shifts the second
    # subscripts: the filtration is not symmetric, so every block of the
    # full gl_3 complex is paired and ranked on its own
    ranked, _passes = counted_calls(monkeypatch)
    cx = build_gl(3, field_create(19), 19)
    fc = FilteredComplex(cx, lambda m: sum(j for _i, j in slots_of(m, 3)))
    report = run_pages(fc)
    assert len(ranked) == sum(len(cx.blocks(s)) for s in range(cx.top_degree + 1)) == 118
    assert report.to_json() == oracle_pages(fc).to_json()


def merge_first_orbits(real):
    """block_orbits with the first two orbits of each degree merged: the
    second orbit's classes take the first lead's pairs."""
    def faulty(s):
        orbits = real(s)
        return [orbits[0] + orbits[1], *orbits[2:]] if len(orbits) > 1 else orbits
    return faulty


def test_run_pages_copy_checks_catch_a_planted_fault(monkeypatch):
    # each copy is checked before it is made: a class put into the wrong
    # σ-orbit meets other filtrations than its lead's (in degree 1 of gl_3
    # the orbit of h[1,j] has filtration 1, that of h[2,j] filtration 2), and
    # a filtration that is not the top one's minus that of the complements
    # fails the duality check, though it leaves every paired block valid
    fc = filter_first_subscript(build_gl(3, field_create(19), 19))
    real = fc.cx.block_orbits
    monkeypatch.setattr(fc.cx, "block_orbits", merge_first_orbits(real))
    with pytest.raises(AssertionError, match="differ in their filtrations"):
        run_pages(fc)
    monkeypatch.setattr(fc.cx, "block_orbits", real)
    shifted = FilteredComplex(fc.cx, lambda m: fc.fil(m) + (m.bit_count() == 7),
                              symmetric=True)
    with pytest.raises(AssertionError, match="minus that of the complements"):
        run_pages(shifted)
