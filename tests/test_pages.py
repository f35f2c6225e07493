import pytest

from stabfold.exterior import first_subscript_filtration, generator_mask
from stabfold.gf import field_create
from stabfold.homology import betti
from stabfold.kummer import KummerConnection, core_build, medial_build
from stabfold.pages import (
    FilteredComplex,
    critical_block,
    filter_first_subscript,
    finite_betti,
    monodromy_ss,
    run_pages,
)
from stabfold.ravenel import build_bundle, build_gl, build_singular


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
    monkeypatch.setattr(ravenel, "generator_pair_table",
                        lambda n: table if n == 2 else real(n))
    with pytest.raises(AssertionError):
        filter_first_subscript(build_gl(2, field_create(11), 11))


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
    out = finite_betti(f, basis, diff)
    assert out == {0: 1, 1: 1}


def test_monodromy_ss_core_n1():
    f = field_create(5)
    core = core_build(build_bundle(1, 5, f), KummerConnection.sigma(1))
    report = monodromy_ss(core, "core")
    assert report.collapse_page == 1
    # E_1^{s,t} = H^s(fiber) = 1 for s in {0,1}, every t >= 0; nothing at t < 0
    for t in range(0, 3):
        assert report.dim(1, 0, t) == 1
        assert report.dim(1, 1, t) == 1
    assert report.dim(1, 1, -1) == 0
    assert report.notes["e1_matches_smooth_fiber"]


def test_monodromy_ss_medial_n1_nonsurjectivity_corner():
    f = field_create(5)
    med = medial_build(build_bundle(1, 5, f), KummerConnection.sigma(1))
    report = monodromy_ss(med, "medial")
    # the medial page has E_1^{1,-1} = 1 where the core page has zero
    assert report.dim(1, 1, -1) == 1
    assert report.dim(1, 0, 0) == 1
    assert report.dim(1, 1, 0) == 1
    assert report.collapse_page == 1


def test_monodromy_ss_core_n2_collapse_and_fiber_match():
    f = field_create(11)
    core = core_build(build_bundle(2, 11, f), KummerConnection.sigma(2))
    report = monodromy_ss(core, "core")
    assert report.collapse_page == 1
    assert report.notes["e1_matches_smooth_fiber"]
    # free over x: every t-column repeats the fixed smooth-fiber cohomology
    fiber = report.notes["smooth_fiber_betti"]
    for s, b in fiber.items():
        for t in range(0, 3):
            assert report.dim(1, s, t) == b


def test_monodromy_ss_core_n3_sigma_collapse():
    f = field_create(7)
    core = core_build(build_bundle(3, 7, f), KummerConnection.sigma(3))
    report = monodromy_ss(core, "core")
    assert report.collapse_page == 1
    assert report.notes["certified_by"] == "strict x-adic compatibility"
    assert report.notes["e1_matches_smooth_fiber"]


def test_monodromy_ss_rejects_unclosed_core():
    f = field_create(7)
    core = core_build(build_bundle(3, 7, f), KummerConnection.semilinear(3, 7))
    assert not core.closed
    with pytest.raises(ValueError):
        monodromy_ss(core, "core")


def test_windowed_pages_on_inhomogeneous_closed_core():
    # the height-2 semilinear core is closed but not homogeneous; its pages
    # still converge to the same totals in the reported window
    f = field_create(11)
    core = core_build(build_bundle(2, 11, f), KummerConnection.semilinear(2, 11))
    assert core.closed
    report = monodromy_ss(core, "core", t_report=2)
    assert report.notes.get("window_limited")
    assert report.entries[1]


def test_run_pages_r_max_truncation():
    f = field_create(11)
    gl = build_gl(2, f, 11)
    fc = filter_first_subscript(gl)
    report = run_pages(fc, r_max=1)
    assert report.collapse_page is None  # not certified within one page
    assert 1 in report.entries


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


@pytest.mark.parametrize("delta", [-1, 1])
def test_run_pages_catches_a_rank_wrong_only_on_cut_matrices(monkeypatch, delta):
    from stabfold import pages

    real_block, real_rank = pages.block_matrix, pages.matrix_rank
    full_blocks = []  # the row lists block_matrix handed out, uncut

    def recording_block(cx, s, u):
        rows, ncols = real_block(cx, s, u)
        full_blocks.append(rows)
        return rows, ncols

    def faulty_rank(rows, ncols, field):
        rank = real_rank(rows, ncols, field)
        if not rank or any(rows is b for b in full_blocks):
            return rank
        return rank + delta

    monkeypatch.setattr(pages, "block_matrix", recording_block)
    monkeypatch.setattr(pages, "matrix_rank", faulty_rank)
    fc = filter_first_subscript(build_gl(3, field_create(19), 19))
    with pytest.raises(AssertionError, match="disagree with Betti numbers"):
        run_pages(critical_block(fc))
