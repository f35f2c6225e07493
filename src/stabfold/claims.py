"""The paper's checkable claims, in one registry.

A claim is a function of a height n and a prime p (None for its default)
returning checks ``{"name", "ok", "detail"}``. `stabfold verify NAME` prints
the checks of ``CLAIMS[NAME]`` and the acceptance tests assert them, so each
condition is computed once. A check's ``ok`` joins every condition either
side used to check, so a condition a test needs joins an existing check and
`verify` payloads do not change. A ``fixed`` claim runs fixed heights and
primes and ignores n and p, which `verify` refuses for it. A false claim
fails a check (`verify` exits 1); a request no claim serves raises
``UsageError`` (exit 2).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, NamedTuple

from .exterior import MAX_N, first_subscript_sum, format_monomial, internal_degree, parse_monomial
from .gf import field_create, is_prime, nth_roots
from .homology import betti, exterior_profile, induced_map_rank
from .homology import block_matrix, matrix_rank
from .kummer import FixedLayer, KummerConnection, core_homogeneity, solve_h_diagonal
from .pages import critical_block, filter_first_subscript, run_pages
from .ravenel import (
    build_deformed,
    build_gl,
    build_singular,
    containment_report,
    dd_zero_exhaustive,
    dims_by_class,
    subcomplex,
)
from .retract import critical_model, smallest_extension_degree

# commands and claims that enumerate all 2^(n^2) monomials of the full
# complex refuse heights above this one
_MAX_ENUMERATED_N = 4


class UsageError(Exception):
    """A request the tool does not serve, raised by a command or a claim;
    main prints it and exits with status 2, where a paper claim found false
    exits with status 1."""


def _require_enumerable(n: int, what: str) -> None:
    if n > _MAX_ENUMERATED_N:
        raise UsageError(
            f"{what} at n={n} would enumerate all 2^{n * n} monomials; heights "
            f"above {_MAX_ENUMERATED_N} wait on ROADMAP item 3")


def primes_above(bound: int, count: int) -> list[int]:
    """The first count primes exceeding bound."""
    out = []
    k = bound + 1
    while len(out) < count:
        if is_prime(k):
            out.append(k)
        k += 1
    return out


# smallest prime exceeding 2 n^2, per height: the bound under which the
# structure theorems are unconditional
TABLE_PRIMES = {n: primes_above(2 * n * n, 1)[0] for n in range(1, MAX_N + 1)}


def load_fixtures() -> dict:
    path = Path(__file__).parent / "data" / "fixtures.json"
    return json.loads(path.read_text())


def dims_match(n: int, dims: list[int], fixtures: dict) -> bool:
    """Whether the cc, fsc and full dimensions at height n, and their
    quotients by 2^n, are the fixture tables'."""
    return (dims == fixtures["dims_table"][str(n)]
            and [x >> n for x in dims] == fixtures["dims_quotients"][str(n)])


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def claim_tables(*_) -> list[dict]:
    fixtures = load_fixtures()
    dims = {n: list(dims_by_class(n, TABLE_PRIMES[n])) for n in range(1, 6)}
    checks = [_check(f"dims n={n}", dims_match(n, got, fixtures),
                     f"got {got}, expected {fixtures['dims_table'][str(n)]}")
              for n, got in dims.items()]
    cc_q = [got[0] >> n for n, got in dims.items()]
    checks.append(_check("cc/2^n equals the labelled-digraph count sequence",
                         cc_q == fixtures["eulerian_digraph_counts"], f"{cc_q}"))
    return checks


def claim_dd_zero(n: int | None, p: int | None) -> list[dict]:
    n = n or 3
    _require_enumerable(n, "verify dd-zero")
    primes = [p] if p else primes_above(2 * n * n, 2)
    rep = dd_zero_exhaustive(n, primes)
    detail = f"{rep['checked']} monomials"
    if n >= 4:
        return [_check(
            f"dd=0 n={n} p in {primes}, eps in (0, 1, x) (exhaustive integer scan)",
            rep["ok"], detail)]
    checks = []
    for p in primes:
        for eps in (0, 1, "x"):
            what = "bundle" if eps == "x" else f"eps={eps}"
            checks.append(_check(f"dd=0 n={n} p={p} {what} (exhaustive)",
                                 rep["bad"][(p, eps)] == 0, detail))
    return checks


def claim_containment(n: int | None, p: int | None) -> list[dict]:
    n = n or 4
    p = p or 2
    rep = containment_report(n, p)
    checks = [_check(f"containment scan n={n} p={p} completed", True,
                     f"holds={rep['holds']}"
                     + ("" if rep["holds"] else
                        f", witness {format_monomial(rep['witness'], n)}"))]
    known = load_fixtures()["containment"]["known_failures"].get(f"{n},{p}")
    if known:
        _, mask = parse_monomial(known, n)
        is_wit = internal_degree(mask, n, p) == 0 and first_subscript_sum(mask, n) != 0
        checks.append(_check(
            f"known witness {known} is critical but outside the "
            "first-subscript complex", is_wit and not rep["holds"]))
    if n <= 3:
        checks.append(_check(f"containment holds for n={n} (any p)", rep["holds"]))
    return checks


def claim_model_kernel(n: int | None, p: int | None) -> list[dict]:
    n = n or 2
    if n not in (2, 3, 4):
        raise UsageError(f"model-kernel supports n = 2, 3, 4, not {n}")
    p = p or {2: 5, 3: 7, 4: 13}[n]
    try:
        ext = smallest_extension_degree(p, n)
    except ValueError as exc:
        raise UsageError(f"model-kernel at n={n}, p={p}: {exc}")
    checks = []
    # criterion 4 runs gl_4 over GF(p^2) whatever the smallest field is
    cx = build_gl(n, field_create(p, 2 if n == 4 else ext), p)
    out = critical_model(cx)
    model = out["model"]
    cc = subcomplex(cx, "critical")
    same = all(model.basis(s) == cc.basis(s) for s in range(n * n + 1))
    if n < 4:
        checks.append(_check(f"ker(dh+hd) equals the critical complex of gl_{n}", same))
        # the critical complex is closed under d (``subcomplex``'s
        # certificate); a kernel that differs from it may not be a subcomplex
        qi = same and induced_map_rank(model, cx)["quasi_isomorphism"]
        checks.append(_check("inclusion is a quasi-isomorphism", qi,
                             "" if same else "not run: the kernel is not the critical complex"))
    else:
        checks.append(_check(
            "intersection of the cyclotomic-factor kernels equals the "
            "critical complex of gl_4", same and len(out["omegas"]) == 2,
            f"over GF({p}^2)"))
        t_cc, t_full = betti(cc), betti(cx)
        checks.append(_check(
            "critical and full complexes have equal Betti totals",
            t_cc.totals_by_degree() == t_full.totals_by_degree()
            and t_cc.grand_total() == 16))
    return checks


def claim_transport(*_) -> list[dict]:
    checks = []
    for n, p in ((2, 5), (3, 19)):
        field = field_create(p)
        for delta in (1, 2, 4):
            ts = solve_h_diagonal(n, field, 1, delta, mode="sigma")
            expected = len(nth_roots(field, field.scalar(delta), n))
            checks.append(_check(
                f"sigma transport count n={n} F_{p} delta={delta} equals "
                f"the {n}-th root count", len(ts) == expected,
                f"{len(ts)} transports, each verified to commute with d"))
    ts = solve_h_diagonal(2, field_create(5), 1, 1, mode="all")
    checks.append(_check("unrestricted transports n=2 F_5: (q-1)^(n-1) of them",
                         len(ts) == 4))
    return checks


def claim_monodromy_fixed(*_) -> list[dict]:
    checks = []
    for n in range(2, 5):
        conn = KummerConnection.sigma(n)
        fixed = set(conn.fixed_masks())
        expected = {m for m in range(1 << (n * n)) if first_subscript_sum(m, n) == 0}
        checks.append(_check(
            f"sigma-flavor fixed monomials = first-subscript basis, n={n}",
            fixed == expected, f"{len(fixed)} monomials"))
    for n, p in ((2, 11), (3, 7), (3, 19)):
        conn = KummerConnection.semilinear(n, p)
        fixed = set(conn.fixed_masks())
        expected = {m for m in range(1 << (n * n)) if internal_degree(m, n, p) == 0}
        checks.append(_check(
            f"semilinear-flavor fixed monomials = critical basis, n={n} p={p}",
            fixed == expected, f"{len(fixed)} monomials"))
    return checks


def claim_core_homogeneity(*_) -> list[dict]:
    checks = []
    for n, p in ((2, 11), (3, 7)):
        field = field_create(p)
        layer = FixedLayer(KummerConnection.sigma(n), field)
        hom = core_homogeneity(layer)
        checks.append(_check(
            f"sigma-flavor core is homogeneous, n={n}",
            layer.closed and hom["holds"]))
    field = field_create(7)
    layer = FixedLayer(KummerConnection.semilinear(3, 7), field)
    hom = core_homogeneity(layer)
    witness_ok = (not hom["holds"]) and hom["witness"]["source"].startswith("h[3,")
    checks.append(_check(
        "semilinear-flavor core fails homogeneity at n=3 with a degree-1 "
        "witness", witness_ok,
        f"witness {hom['witness']}" if not hom["holds"] else ""))
    layer1 = FixedLayer(KummerConnection.sigma(1), field_create(5))
    checks.append(_check("height-1 core is homogeneous",
                         core_homogeneity(layer1)["holds"]))
    return checks


def claim_collapse(n: int | None, p: int | None) -> list[dict]:
    n = n or 2
    _require_enumerable(n, "verify collapse")
    p = p or TABLE_PRIMES[n]
    field = field_create(p)
    gl = build_gl(n, field, p)
    report = run_pages(critical_block(filter_first_subscript(gl)))
    collapsed = report.collapse_page == 1 and not report.nonzero_differentials()
    checks = [_check(
        f"critical-block first-subscript spectral sequence collapses at E_1 "
        f"(n={n}, p={p})", collapsed,
        f"span {report.span}, no nonzero differentials"
        if collapsed else
        f"nonzero differentials {report.nonzero_differentials()[:4]}")]
    cc0 = subcomplex(build_singular(n, p, field), "critical")
    cc1 = subcomplex(build_deformed(n, p, field, 1), "critical")
    t0, t1 = betti(cc0), betti(cc1)
    checks.append(_check(
        f"blockwise Betti equality of the critical complex at eps=0 and "
        f"eps=1 (n={n}, p={p})", t0.entries == t1.entries,
        f"totals {t0.totals_by_degree()}"))
    degs = load_fixtures()["exterior_generator_degrees"][str(n)]
    checks.append(_check(
        f"H*(critical complex at eps=0) has the exterior-algebra profile "
        f"on degrees {degs}", t0.totals_by_degree() == exterior_profile(degs)))
    if n == 2:
        full = run_pages(filter_first_subscript(gl))
        checks.append(_check(
            "full first-subscript spectral sequence has nonzero "
            "differentials off the critical block",
            bool(full.nonzero_differentials())))
    return checks


def claim_invariant_cycles(n: int | None, p: int | None) -> list[dict]:
    n = n or 2
    _require_enumerable(n, "verify invariant-cycles")
    p = p or TABLE_PRIMES[n]
    field = field_create(p)
    full0 = build_singular(n, p, field)
    cc0 = subcomplex(full0, "critical")
    fsc0 = subcomplex(full0, "fsc")
    fsc1 = subcomplex(build_deformed(n, p, field, 1), "fsc")
    c0, f0, f1 = (betti(cx).totals_by_degree() for cx in (cc0, fsc0, fsc1))
    degs = load_fixtures()["exterior_generator_degrees"][str(n)]
    # the singular fiber is read for the extended group (internal class 0);
    # FSC at eps=0 is not the x=0 fiber of the sigma core and may differ from
    # FSC at eps=1 (56 against 8 at n=3), so its table is detail only
    detail = (f"critical at 0: {c0}; FSC at 0: {f0} (total {sum(f0.values())}); "
              f"FSC at 1: {f1} (total {sum(f1.values())})")
    checks = [_check(
        f"dim H^s(critical at 0) = dim H^s(FSC at 1) for all s (n={n}, p={p})",
        c0 == f1 == exterior_profile(degs), detail)]
    out = induced_map_rank(full0, fsc0)
    checks.append(_check(
        f"the singular fiber surjects onto the fixed-point cohomology "
        f"(n={n}, p={p})", out["surjective_on_cohomology"]))
    return checks


def claim_duality(n: int | None, p: int | None) -> list[dict]:
    n = n or 2
    _require_enumerable(n, "verify duality")
    p = p or TABLE_PRIMES[n]
    top, checks = n * n, []
    for eps in (0, 1):
        full = build_deformed(n, p, field_create(p), eps)
        for cx in (full, subcomplex(full, "critical"), subcomplex(full, "fsc")):
            # every block eliminated: no σ-orbit or dual copies
            ranks = {(s, u): matrix_rank(*block_matrix(cx, s, u), cx.field)
                     for s in range(top + 1) for u in cx.blocks(s)}
            ok = cx.dual_class(0) is not None and all(
                len(cx.blocks(s)[u]) == len(cx.blocks(top - s).get(v, ()))
                and r == ranks.get((top - 1 - s, v), 0)
                for (s, u), r in ranks.items() for v in [cx.dual_class(u)])
            checks.append(_check(
                f"Poincare duality of the {cx.descriptor.label} complex (n={n}, "
                f"p={p}, eps={eps}): rank d^s(u) = rank d^(N-1-s)(u_top-u) and "
                f"dim C^(s,u) = dim C^(N-s,u_top-u)", ok,
                f"exhaustive, {len(ranks):,} blocks"))
    return checks


class Claim(NamedTuple):
    run: Callable[[int | None, int | None], list[dict]]
    fixed: bool = False


CLAIMS = {
    "tables": Claim(claim_tables, fixed=True),
    "dd-zero": Claim(claim_dd_zero),
    "containment": Claim(claim_containment),
    "model-kernel": Claim(claim_model_kernel),
    "transport": Claim(claim_transport, fixed=True),
    "monodromy-fixed": Claim(claim_monodromy_fixed, fixed=True),
    "core-homogeneity": Claim(claim_core_homogeneity, fixed=True),
    "collapse": Claim(claim_collapse),
    "invariant-cycles": Claim(claim_invariant_cycles),
    "duality": Claim(claim_duality),
}
