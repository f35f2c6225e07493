"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Where a criterion is one of the paper's registered claims (`stabfold.claims`),
the test runs the claim and asserts its checks, the same checks `stabfold
verify` prints; the test itself keeps only what no claim covers, such as the
literal dimension table, the full transport sweep and the height-1 tables.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Everything is exact; there are no tolerances to
tune anywhere in this module.
"""

import json
import random
import re
import sys
import time

from oracles import Bundle, dense_rank_oracle, sympy_rank

from stabfold.claims import CLAIMS, TABLE_PRIMES, load_fixtures, primes_above
from stabfold.cli import main as cli_main
from stabfold.exterior import Cochain, degree
from stabfold.gf import field_create, nth_roots
from stabfold.homology import betti, block_matrix, exterior_profile, exterior_ring_check, matrix_rank
from stabfold.kummer import FixedLayer, KummerConnection, solve_h_diagonal
from stabfold.pages import core_pages, medial_pages
from stabfold.ravenel import (
    build_deformed,
    build_gl,
    build_singular,
    dd_zero_exhaustive,
    subcomplex,
)


def report(num: int, ok: bool, text: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}"
    print(line)
    sys.stdout.flush()
    assert ok, line


def holds(name: str, n: int | None = None, p: int | None = None) -> bool:
    """Whether every check of the registered claim passes."""
    return all(c["ok"] for c in CLAIMS[name].run(n, p))


def test_criterion_01_dimension_tables():
    expected = {
        1: [2, 2, 2], 2: [8, 8, 16], 3: [80, 176, 512],
        4: [2432, 16384, 65536], 5: [247552, 6710912, 33554432],
    }
    quotients = {
        1: [1, 1, 1], 2: [2, 2, 4], 3: [10, 22, 64],
        4: [152, 1024, 4096], 5: [7736, 209716, 1048576],
    }
    # the tables claim checks the dimensions against the fixture file; the
    # literal tables pin that file and the primes
    fixtures = load_fixtures()
    ok = TABLE_PRIMES == {1: 3, 2: 11, 3: 19, 4: 37, 5: 53}
    ok = ok and fixtures["dims_table"] == {str(n): v for n, v in expected.items()}
    ok = ok and fixtures["dims_quotients"] == {str(n): v for n, v in quotients.items()}
    t0 = time.time()
    ok = holds("tables") and ok
    elapsed = time.time() - t0
    ok = ok and elapsed < 60
    report(1, ok, f"dims and /2^n quotients exact for n=1..5 in {elapsed:.2f}s")


def test_criterion_02_dga_axioms():
    rng = random.Random(2024)
    ok = True
    detail = []
    for n in (1, 2, 3):
        for p in primes_above(2 * n * n, 2):
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
            cxb = Bundle(n, field)
            for mask in range(1 << n * n):
                z = Cochain(n, {mask: cxb.one})
                ok = ok and not cxb.d_cochain(cxb.d_cochain(z))
        detail.append(f"n={n} honest")
    # n = 4: exhaustive integer-graded scan, settling eps = 0, 1, x for both
    # primes at once, plus honest spot checks through the complex machinery
    rep = dd_zero_exhaustive(4, [37, 41])
    ok = ok and rep["ok"] and rep["checked"] == 1 << 16
    f37 = field_create(37)
    basis = build_deformed(4, 37, f37, 0).basis
    for eps in (0, 1, "bundle"):
        cx = Bundle(4, f37) if eps == "bundle" else build_deformed(4, 37, f37, eps)
        one = cx.one if eps == "bundle" else f37.one
        monos = [m for s in (2, 5, 8) for m in rng.sample(basis(s), 12)]
        for mask in monos:
            z = Cochain(4, {mask: one})
            ok = ok and not cx.d_cochain(cx.d_cochain(z))
    detail.append("n=4 exhaustive (65536 monomials) + spot blocks")
    # graded Leibniz on random cochain pairs, n <= 4
    for n, p in ((2, 11), (3, 19), (4, 37)):
        field = field_create(p)
        monos = [m for s in range(3) for m in build_deformed(n, p, field, 0).basis(s)]
        for eps in (0, 1, "bundle"):
            cx = Bundle(n, field) if eps == "bundle" else build_deformed(n, p, field, eps)
            one = cx.one if eps == "bundle" else field.one
            for _ in range(20):
                ma, mb = rng.choice(monos), rng.choice(monos)
                a = Cochain(n, {ma: one})
                b = Cochain(n, {mb: one})
                lhs = cx.d_cochain(a.wedge(b))
                da_b = cx.d_cochain(a).wedge(b)
                a_db = a.wedge(cx.d_cochain(b))
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
    # n = 2 over F_5 (omega = 4); n = 3 over F_7 (7 = 1 mod 3, so the cube
    # root lives downstairs); n = 4 composite: intersection over the two
    # factors of (x^4-1)/(x-1), over the degree-2 extension of F_13
    ok = all(holds("model-kernel", n, p) for n, p in ((2, 5), (3, 7), (4, 13)))
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
    degrees = load_fixtures()["exterior_generator_degrees"]
    ok = True
    for n, p in ((2, 11), (3, 19)):
        # at n = 2 the claim also finds differentials in the full sequence
        ok = ok and holds("collapse", n, p)
        ok = ok and degrees[str(n)] == list(range(1, 2 * n, 2))
    report(6, ok, "critical-block spectral sequence collapses at E_1 for "
                  "(2,11), (3,19); blockwise H(cc at 0) = H(cc at 1); the "
                  "full n=2 sequence has nonzero differentials")


def test_criterion_07_monodromy_fixed_points_and_transport():
    ok = holds("monodromy-fixed") and holds("transport")
    # sigma-equivariant transport counts = n-th root counts for every delta
    # (each transport is verified against both differentials inside
    # solve_h_diagonal); the transport claim takes delta in (1, 2, 4) only
    for n, p in ((2, 5), (3, 5), (2, 19), (3, 19)):
        field = field_create(p)
        for delta in range(1, p):
            expected = len(nth_roots(field, field.scalar(delta), n))
            ts = solve_h_diagonal(n, field, 1, delta, mode="sigma")
            ok = ok and len(ts) == expected
    report(7, ok, "fixed monomials: sigma = FSC basis (n <= 4), semilinear = "
                  "critical basis (n <= 3); transport counts match root "
                  "counts over F_5 and F_19, all transports commute with d")


def _invariant_cycles() -> dict[int, list[dict]]:
    """The invariant-cycles claim's two checks, the comparison and the
    surjectivity, at n = 2 and 3."""
    return {n: CLAIMS["invariant-cycles"].run(n, p) for n, p in ((2, 11), (3, 19))}


def _criterion_08_attainable(cycles: dict[int, list[dict]]) -> bool:
    ok = holds("core-homogeneity")
    # height-1 filtration tables and the E_1^{1,-1} corner
    f5 = field_create(5)
    conn1 = KummerConnection.sigma(1)
    layer1 = FixedLayer(conn1, f5)
    ok = ok and layer1.alpha == {0: 0, 1: -1}
    ok = ok and layer1.gr_basis(-1) == {1: [(1, 0)]}
    ok = ok and layer1.gr_basis(0) == {0: [(0, 0)], 1: [(1, 1)]}
    core_rep = core_pages(layer1)
    med_rep = medial_pages(layer1)
    ok = ok and core_rep.dim(1, 1, -1) == 0 and med_rep.dim(1, 1, -1) == 1
    ok = ok and core_rep.notes["e1_matches_smooth_fiber"]
    # singular fiber surjects onto the fixed-point cohomology (rank check)
    for _comparison, surjects in cycles.values():
        ok = ok and surjects["ok"]
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
    cycles = _invariant_cycles()
    ok = _criterion_08_attainable(cycles)
    for comparison, _surjects in cycles.values():
        ok = ok and comparison["ok"]
    fsc0_total, fsc1_total = re.findall(r"\(total (\d+)\)", cycles[3][0]["detail"])
    report(8, ok, "core machinery; H(critical at 0) = H(FSC at 1) = exterior "
                  "on 1, 3, ..., 2n-1 for (2,11), (3,19); for information, "
                  f"dim H(FSC at 0) = {fsc0_total} vs dim H(FSC at 1) = "
                  f"{fsc1_total} at n=3")


def test_criterion_08_attainable_parts():
    """Everything in criterion 8 except the invariant-cycles comparison, plus
    a pin of the fixed-subcomplex dimensions of both fibers at n = 3 (56 at
    eps = 0 against 8 at eps = 1), which differ; see CHANGES.md, "Criterion 8
    localization". The claim reports both in the comparison's detail."""
    cycles = _invariant_cycles()
    ok = _criterion_08_attainable(cycles)
    fsc0 = {0: 1, 1: 1, 2: 6, 3: 13, 4: 7, 5: 7, 6: 13, 7: 6, 8: 1, 9: 1}
    detail = cycles[3][0]["detail"]
    ok = ok and f"FSC at 0: {fsc0} (total 56); FSC at 1: " in detail
    ok = ok and detail.endswith("(total 8)")
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
