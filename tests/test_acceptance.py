"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Everything is exact; there are no tolerances to
tune anywhere in this module.
"""

import json
import random
import sys
import time

import pytest
from oracles import dense_rank_oracle, sympy_rank

from stabfold.cli import main as cli_main
from stabfold.exterior import Cochain, degree, first_subscript_sum, internal_degree
from stabfold.gf import field_create, nth_roots, primitive_root_of_unity
from stabfold.homology import (
    betti,
    block_matrix,
    exterior_profile,
    exterior_ring_check,
    inclusion_map,
    induced_map_rank,
    matrix_rank,
    monomial_projection,
)
from stabfold.kummer import (
    KummerConnection,
    core_build,
    core_homogeneity,
    medial_build,
    solve_h_diagonal,
    t_fixed_masks,
)
from stabfold.pages import critical_block, filter_first_subscript, monodromy_ss, run_pages
from stabfold.ravenel import (
    build_bundle,
    build_deformed,
    build_gl,
    build_singular,
    dd_zero_exhaustive,
    dims_by_class,
    subcomplex,
)
from stabfold.retract import critical_model, kernel_model, lambda_h_pair, laplacian


def report(num: int, ok: bool, text: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}"
    print(line)
    sys.stdout.flush()
    assert ok, line


def test_criterion_01_dimension_tables():
    expected = {
        1: (2, 2, 2), 2: (8, 8, 16), 3: (80, 176, 512),
        4: (2432, 16384, 65536), 5: (247552, 6710912, 33554432),
    }
    quotients = {
        1: (1, 1, 1), 2: (2, 2, 4), 3: (10, 22, 64),
        4: (152, 1024, 4096), 5: (7736, 209716, 1048576),
    }
    primes = {1: 3, 2: 11, 3: 19, 4: 37, 5: 53}
    t0 = time.time()
    ok = True
    for n in range(1, 6):
        got = dims_by_class(n, primes[n])
        ok = ok and got == expected[n]
        ok = ok and tuple(x >> n for x in got) == quotients[n]
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    report(1, ok, f"dims and /2^n quotients exact for n=1..5 in {elapsed:.2f}s")


def test_criterion_02_dga_axioms():
    rng = random.Random(2024)
    ok = True
    detail = []
    for n in (1, 2, 3):
        bound = 2 * n * n
        primes = []
        k = bound + 1
        while len(primes) < 2:
            from stabfold.gf import is_prime

            if is_prime(k):
                primes.append(k)
            k += 1
        for p in primes:
            field = field_create(p)
            for eps in (0, 1):
                cx = build_deformed(n, p, field, eps)
                for s in range(cx.top_degree + 1):
                    for u, monos in cx.blocks(s).items():
                        for mask in monos:
                            acc: dict[int, object] = {}
                            for t, c in cx.d_monomial(mask).items():
                                for t2, c2 in cx.d_monomial(t).items():
                                    cur = acc.get(t2)
                                    acc[t2] = cur + c2 * c if cur is not None else c2 * c
                            ok = ok and not any(bool(v) for v in acc.values())
            cxb = build_bundle(n, p, field)
            for s in range(cxb.top_degree + 1):
                for mask in cxb.basis(s):
                    z = Cochain(n, {mask: cxb.ring_one})
                    ok = ok and not cxb.d_cochain(cxb.d_cochain(z))
        detail.append(f"n={n} honest")
    # n = 4: exhaustive integer-graded scan, settling eps = 0, 1, x for both
    # primes at once, plus honest spot checks through the complex machinery
    rep = dd_zero_exhaustive(4, [37, 41])
    ok = ok and rep["ok"] and rep["checked"] == 1 << 16
    f37 = field_create(37)
    for eps in (0, 1, "bundle"):
        cx = build_bundle(4, 37, f37) if eps == "bundle" else build_deformed(4, 37, f37, eps)
        monos = [m for s in (2, 5, 8) for m in rng.sample(cx.basis(s), 12)]
        for mask in monos:
            z = Cochain(4, {mask: cx.ring_one})
            ok = ok and not cx.d_cochain(cx.d_cochain(z))
    detail.append("n=4 exhaustive (65536 monomials) + spot blocks")
    # graded Leibniz on random cochain pairs, n <= 4
    for n, p in ((2, 11), (3, 19), (4, 37)):
        field = field_create(p)
        for eps in (0, 1, "bundle"):
            cx = build_bundle(n, p, field) if eps == "bundle" else build_deformed(n, p, field, eps)
            monos = [m for s in range(3) for m in cx.basis(s)]
            for _ in range(20):
                ma, mb = rng.choice(monos), rng.choice(monos)
                a = Cochain(n, {ma: cx.ring_one})
                b = Cochain(n, {mb: cx.ring_one})
                lhs = cx.d_cochain(a.wedge(b, cx.ring_one))
                da_b = cx.d_cochain(a).wedge(b, cx.ring_one)
                a_db = a.wedge(cx.d_cochain(b), cx.ring_one)
                rhs = da_b - a_db if degree(ma) % 2 else da_b + a_db
                ok = ok and lhs == rhs
    report(2, ok, "d(d) = 0 and graded Leibniz for n <= 4, both primes > 2n^2, "
                  "eps in {0, 1, x}; " + "; ".join(detail))


def test_criterion_03_gl_cohomology_exterior():
    ok = True
    details = []
    for n, p in ((2, 7), (2, 11), (3, 7), (3, 19), (4, 13)):
        field = field_create(p)
        gl = build_gl(n, field, p)
        cc = subcomplex(gl, "critical")
        degs = list(range(1, 2 * n, 2))
        profile = exterior_profile(degs)
        t_full = betti(gl)
        t_cc = betti(cc)
        ok = ok and t_full.totals_by_degree() == profile
        ok = ok and t_cc.totals_by_degree() == profile
        ok = ok and t_full.grand_total() == (1 << n) == t_cc.grand_total()
        details.append(f"({n},{p})")
    for n in (2, 3):
        field = field_create(7)
        cc = subcomplex(build_gl(n, field, 7), "critical")
        out = exterior_ring_check(cc, list(range(1, 2 * n, 2)))
        ok = ok and out["holds"]
    report(3, ok, "H*(CE(gl_n)) and H*(cc(gl_n)) both exterior on degrees "
                  "1, 3, ..., 2n-1 at " + ", ".join(details)
                  + "; ring recognition passes for n = 2, 3")


def test_criterion_04_model_kernel_theorem():
    ok = True
    # n = 2 over F_5 with omega = 4
    f5 = field_create(5)
    gl2 = build_gl(2, f5, 5)
    h, _ = lambda_h_pair(gl2, f5.scalar(4))
    model = kernel_model(gl2, laplacian(gl2, h))
    cc2 = subcomplex(gl2, "critical")
    ok = ok and all(model.basis(s) == cc2.basis(s) for s in range(5))
    ok = ok and induced_map_rank(inclusion_map(model, gl2))["quasi_isomorphism"]
    # n = 3 over F_7 (7 = 1 mod 3, so the cube root lives downstairs)
    f7 = field_create(7)
    gl3 = build_gl(3, f7, 7)
    h3, _ = lambda_h_pair(gl3, primitive_root_of_unity(f7, 3))
    model3 = kernel_model(gl3, laplacian(gl3, h3))
    cc3 = subcomplex(gl3, "critical")
    ok = ok and all(model3.basis(s) == cc3.basis(s) for s in range(10))
    ok = ok and induced_map_rank(inclusion_map(model3, gl3))["quasi_isomorphism"]
    # n = 4 composite: intersection over the factors of (x^4-1)/(x-1),
    # over the degree-2 extension of F_13
    f169 = field_create(13, 2)
    gl4 = build_gl(4, f169, 13)
    out = critical_model(gl4)
    cc4 = subcomplex(gl4, "critical")
    ok = ok and all(out["model"].basis(s) == cc4.basis(s) for s in range(17))
    ok = ok and len(out["omegas"]) == 2
    t_cc = betti(cc4)
    t_full = betti(gl4)
    ok = ok and t_cc.totals_by_degree() == t_full.totals_by_degree()
    ok = ok and t_cc.grand_total() == 16
    report(4, ok, "ker(dh+hd) = critical complex basis-for-basis and "
                  "quasi-isomorphic for n=2 (F_5, w=4), n=3 (F_7); n=4 via "
                  "cyclotomic intersection over GF(13^2), exact Betti equality")


def test_criterion_05_singular_fiber_dimensions(capsys):
    f11 = field_create(11)
    t2 = betti(build_singular(2, 11, f11))
    f19 = field_create(19)
    t3 = betti(build_singular(3, 19, f19))
    ok = t2.grand_total() == 12 and t3.grand_total() == 152
    # the height-4 run sits behind the CLI --slow gate
    code = cli_main(["betti", "--lie", "ravenel", "--n", "4", "--p", "37",
                     "--no-cache"])
    gate_ok = code == 2
    capsys.readouterr()
    code = cli_main(["betti", "--lie", "ravenel", "--n", "4", "--p", "37",
                     "--no-cache", "--slow", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    ok = ok and gate_ok and code == 0 and out["grand_total"] == 3440
    with capsys.disabled():
        report(5, ok, "dim H* = 12 (n=2, F_11), 152 (n=3, F_19); "
                      "3440 (n=4, F_37) behind --slow")


def test_criterion_06_critical_collapse():
    ok = True
    for n, p in ((2, 11), (3, 19)):
        field = field_create(p)
        gl = build_gl(n, field, p)
        fc = critical_block(filter_first_subscript(gl))
        rep = run_pages(fc)
        ok = ok and rep.collapse_page == 1 and not rep.nonzero_differentials()
        cc0 = subcomplex(build_singular(n, p, field), "critical")
        cc1 = subcomplex(build_deformed(n, p, field, 1), "critical")
        t0, t1 = betti(cc0), betti(cc1)
        ok = ok and t0.entries == t1.entries
        ok = ok and t0.totals_by_degree() == exterior_profile(range(1, 2 * n, 2))
    # the full (non-critical) sequence at n = 2 does have differentials
    f11 = field_create(11)
    full = run_pages(filter_first_subscript(build_gl(2, f11, 11)))
    ok = ok and bool(full.nonzero_differentials())
    report(6, ok, "critical-block spectral sequence collapses at E_1 for "
                  "(2,11), (3,19); blockwise H(cc at 0) = H(cc at 1); the "
                  "full n=2 sequence has nonzero differentials")


def test_criterion_07_monodromy_fixed_points_and_transport():
    ok = True
    for n in (2, 3, 4):
        fixed = t_fixed_masks(KummerConnection.sigma(n), n)
        ok = ok and fixed == {
            m for m in range(1 << (n * n)) if first_subscript_sum(m, n) == 0
        }
    for n, p in ((2, 11), (3, 7), (3, 19)):
        fixed = t_fixed_masks(KummerConnection.semilinear(n, p), n)
        ok = ok and fixed == {
            m for m in range(1 << (n * n)) if internal_degree(m, n, p) == 0
        }
    # sigma-equivariant transport counts = n-th root counts (each transport
    # is verified against both differentials inside solve_h_diagonal)
    for n, p in ((2, 5), (3, 5), (2, 19), (3, 19)):
        field = field_create(p)
        for delta in range(1, p):
            expected = len(nth_roots(field, field.scalar(delta), n))
            ts = solve_h_diagonal(n, field, 1, delta, mode="sigma")
            ok = ok and len(ts) == expected
    report(7, ok, "fixed monomials: sigma = FSC basis (n <= 4), semilinear = "
                  "critical basis (n <= 3); transport counts match root "
                  "counts over F_5 and F_19, all transports commute with d")


def _criterion_08_attainable() -> bool:
    ok = True
    for n, p in ((2, 11), (3, 7)):
        field = field_create(p)
        core = core_build(build_bundle(n, p, field), KummerConnection.sigma(n))
        ok = ok and core.closed and core_homogeneity(core)["holds"]
    f7 = field_create(7)
    sem = core_build(build_bundle(3, 7, f7), KummerConnection.semilinear(3, 7))
    hom = core_homogeneity(sem)
    ok = ok and not hom["holds"] and hom["witness"]["source"].startswith("h[3,")
    # height-1 filtration tables and the E_1^{1,-1} corner
    f5 = field_create(5)
    bundle1 = build_bundle(1, 5, f5)
    conn1 = KummerConnection.sigma(1)
    core1 = core_build(bundle1, conn1)
    ok = ok and core1.shift == {0: 0, 1: 1}
    med1 = medial_build(bundle1, conn1)
    ok = ok and med1.gr_basis(-1) == {1: [(1, 0)]}
    ok = ok and med1.gr_basis(0) == {0: [(0, 0)], 1: [(1, 1)]}
    core_rep = monodromy_ss(core1, "core")
    med_rep = monodromy_ss(med1, "medial")
    ok = ok and core_rep.dim(1, 1, -1) == 0 and med_rep.dim(1, 1, -1) == 1
    ok = ok and core_rep.notes["e1_matches_smooth_fiber"]
    # singular fiber surjects onto the fixed-point cohomology (rank check)
    for n, p in ((2, 11), (3, 19)):
        field = field_create(p)
        fsc0 = subcomplex(build_singular(n, p, field), "fsc")
        full0 = build_singular(n, p, field)
        proj = monomial_projection(full0, fsc0.contains, fsc0)
        ok = ok and induced_map_rank(proj)["surjective_on_cohomology"]
    # fixed-fiber Betti equality holds at n = 2 (where FSC = cc)
    f11 = field_create(11)
    fsc0 = subcomplex(build_singular(2, 11, f11), "fsc")
    fsc1 = subcomplex(build_deformed(2, 11, f11, 1), "fsc")
    ok = ok and betti(fsc0).totals_by_degree() == betti(fsc1).totals_by_degree()
    return ok


def test_criterion_08_core_machinery():
    """The derived invariant cycles comparison as the paper makes it: the
    cohomology of the singular fiber read for the extended group (the
    critical block, internal class 0, at eps = 0) equals that of the
    monodromy-fixed subcomplex of the smooth fiber (FSC at eps = 1), and both
    are exterior on degrees 1, 3, ..., 2n - 1.

    FSC at eps = 0 is not the fiber of the sigma core at x = 0, so its
    cohomology (56 at n = 3, against 8 at eps = 1) is printed as information
    only; CHANGES.md, "Criterion 8 localization", records why."""
    ok = _criterion_08_attainable()
    fsc_totals = {}
    for n, p in ((2, 11), (3, 19)):
        field = field_create(p)
        singular = build_singular(n, p, field)
        t0 = betti(subcomplex(singular, "critical")).totals_by_degree()
        t1 = betti(subcomplex(build_deformed(n, p, field, 1), "fsc")).totals_by_degree()
        ok = ok and t0 == t1 == exterior_profile(range(1, 2 * n, 2))
        fsc_totals[n] = (betti(subcomplex(singular, "fsc")).grand_total(),
                         sum(t1.values()))
    report(8, ok, "core machinery; H(critical at 0) = H(FSC at 1) = exterior "
                  "on 1, 3, ..., 2n-1 for (2,11), (3,19); for information, "
                  f"dim H(FSC at 0) = {fsc_totals[3][0]} vs dim H(FSC at 1) = "
                  f"{fsc_totals[3][1]} at n=3")


def test_criterion_08_attainable_parts():
    """Everything in criterion 8 except the invariant-cycles comparison, plus
    a pin of the fixed-subcomplex dimensions of both fibers at n = 3 (56 at
    eps = 0 against 8 at eps = 1), which differ; see CHANGES.md, "Criterion 8
    localization"."""
    ok = _criterion_08_attainable()
    f19 = field_create(19)
    t0 = betti(subcomplex(build_singular(3, 19, f19), "fsc")).totals_by_degree()
    ok = ok and t0 == {0: 1, 1: 1, 2: 6, 3: 13, 4: 7, 5: 7, 6: 13, 7: 6,
                       8: 1, 9: 1}
    t1 = betti(subcomplex(build_deformed(3, 19, f19, 1), "fsc")).totals_by_degree()
    ok = ok and sum(t1.values()) == 8
    report(8, ok, "(attainable parts) sigma cores homogeneous (n=2,3), "
                  "semilinear fails at n=3 with a degree-1 witness; height-1 "
                  "tables and the E_1^(1,-1) corner reproduced; singular-fiber "
                  "surjectivity by rank for n=2,3; n=2 fixed-fiber equality; "
                  "n=3 fixed-fiber dimensions pinned (56 vs 8)")


def test_criterion_09_oracle_equivalence():
    ok = True
    small = 0
    for n, p in ((1, 3), (2, 11), (3, 19)):
        field = field_create(p)
        for eps in (0, 1):
            cx = build_deformed(n, p, field, eps)
            for s in range(cx.top_degree + 1):
                for u in cx.blocks(s):
                    rows, ncols = block_matrix(cx, s, u)
                    rank = matrix_rank(rows, ncols, field)
                    scalars = [field.coding.decode_row(r) for r in rows]
                    ok = ok and rank == dense_rank_oracle(scalars, ncols, field)
                    ok = ok and rank == sympy_rank(scalars, ncols, field)
                    small += 1
    # n = 4, eps = 0: every block against sympy, 50 seeded samples against
    # the dense oracle
    f37 = field_create(37)
    cx4 = build_singular(4, 37, f37)
    keys = [(s, u) for s in range(cx4.top_degree + 1) for u in cx4.blocks(s)]
    sampled = set(random.Random(2024).sample(keys, 50))
    for s, u in keys:
        rows, ncols = block_matrix(cx4, s, u)
        rank = matrix_rank(rows, ncols, f37)
        scalars = [f37.coding.decode_row(r) for r in rows]
        ok = ok and rank == sympy_rank(scalars, ncols, f37)
        if (s, u) in sampled:
            ok = ok and rank == dense_rank_oracle(scalars, ncols, f37)
    report(9, ok, f"the sparse echelon agrees with the dense and the sympy "
                  f"oracles on all {small} blocks for n <= 3 (eps = 0, 1), and "
                  f"with sympy on all {len(keys)} blocks of n = 4 p = 37 eps = 0 "
                  f"({len(sampled)} seeded samples also against the dense oracle)")


def test_criterion_10_worked_presentations(capsys):
    code2 = cli_main(["presentations", "--n", "2", "--format", "json"])
    out2 = json.loads(capsys.readouterr().out)
    code3 = cli_main(["presentations", "--n", "3", "--format", "json"])
    out3 = json.loads(capsys.readouterr().out)
    ok = code2 == 0 and out2["ok"] and code3 == 0 and out3["ok"]
    # the two named fixtures called out explicitly
    names2 = {c["name"] for c in out2["checks"] if c["ok"]}
    ok = ok and "[h10*g1 + h11*g0] = 0 in cohomology" in names2
    ok = ok and "[h10*g1] is nonzero in cohomology" in names2
    names3 = {c["name"] for c in out3["checks"] if c["ok"]}
    ok = ok and "d(kappa1) matches the stated formula" in names3
    with capsys.disabled():
        report(10, ok, "heights 2 and 3 presentations match the embedded "
                       "fixtures, including h10*g1 = -h11*g0 and "
                       "d(kappa_i) = -L1 - x*L2 at the bundle level")
