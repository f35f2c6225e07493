"""Command-line interface: dimension tables, Betti computations with a local
cache, theorem-verification suites, worked presentations, and spectral
sequence reports.

Every run prints a provenance header (tool version plus a hash of the
canonical config) and produces deterministic output: all iteration orders are
sorted before emission.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__ as VERSION
from .exterior import MAX_N, Cochain, format_monomial, parse_monomial
from .gf import Poly, field_create, is_prime, primitive_root_of_unity
from .homology import (
    betti,
    exterior_profile,
    inclusion_map,
    induced_map_rank,
    matrix_rank,
    monomial_projection,
)
from .kummer import KummerConnection, core_build, core_homogeneity, medial_build, monodromy, solve_h_diagonal, t_fixed_masks
from .pages import critical_block, filter_first_subscript, monodromy_ss, run_pages
from .ravenel import (
    BUNDLE,
    build_bundle,
    build_deformed,
    build_gl,
    build_singular,
    containment_report,
    dd_zero_exhaustive,
    dims_by_class,
    subcomplex,
)
from .retract import critical_model, kernel_model, lambda_h_pair, laplacian, smallest_extension_degree

SCHEMA_VERSION = 1

# smallest prime exceeding 2 n^2, per height: the bound under which the
# structure theorems are unconditional
TABLE_PRIMES = {1: 3, 2: 11, 3: 19, 4: 37, 5: 53}

# total-basis-size gate: larger jobs need --slow
_SLOW_GATE = 20000

# commands other than betti enumerate all 2^(n^2) monomials of the full
# complex; above this height that is out of reach
_MAX_ENUMERATED_N = 4


class UsageError(Exception):
    """A request the tool does not serve, raised by a command or a suite;
    main prints it and exits with status 2, where a paper claim found false
    exits with status 1."""


def _require_enumerable(n: int, what: str) -> None:
    if n > _MAX_ENUMERATED_N:
        raise UsageError(
            f"{what} at n={n} would enumerate all 2^{n * n} monomials; heights "
            f"above {_MAX_ENUMERATED_N} need the direct critical-basis "
            "enumeration of ROADMAP item 5")


def _first_primes_above(bound: int, count: int) -> list[int]:
    from .gf import is_prime

    out = []
    k = bound + 1
    while len(out) < count:
        if is_prime(k):
            out.append(k)
        k += 1
    return out


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_fixtures() -> dict:
    path = Path(__file__).parent / "data" / "fixtures.json"
    return json.loads(path.read_text())


# -- cache ---------------------------------------------------------------------------


def cache_root(args) -> Path:
    if getattr(args, "cache_dir", None):
        return Path(args.cache_dir)
    return Path(os.environ.get("STABFOLD_CACHE", ".stabfold-cache"))


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """sha256 of the package's source files and fixtures: a cached result is
    only trusted when the code that wrote it is the code reading it."""
    pkg = Path(__file__).parent
    digest = hashlib.sha256()
    for path in sorted(pkg.glob("*.py")) + [pkg / "data" / "fixtures.json"]:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cache_get(root: Path, key: str, cfg: dict) -> dict | None:
    """The entry stored under key, or None unless it was written for this
    config by this code."""
    path = root / f"{key}.json"
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if (data.get("schema_version") != SCHEMA_VERSION
            or data.get("config") != cfg
            or data.get("fingerprint") != code_fingerprint()):
        return None
    return data


def cache_put(root: Path, key: str, payload: dict) -> None:
    root.mkdir(parents=True, exist_ok=True)
    tmp = root / f".{key}.tmp"
    tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
    os.replace(tmp, root / f"{key}.json")


# -- output helpers --------------------------------------------------------------------


def emit(args, payload: dict, text_lines: list[str]) -> None:
    fmt = getattr(args, "format", "text")
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True, indent=1, default=str))
    elif fmt == "csv" and "csv" in payload:
        sys.stdout.write(payload["csv"])
    else:
        print(f"# stabfold {VERSION}  config={payload.get('config_hash', '')}")
        for line in text_lines:
            print(line)


def coeff_repr(c, field) -> str:
    if isinstance(c, Poly):
        parts = []
        for i, a in enumerate(c.coeffs):
            if not a:
                continue
            av = a.v if field.m == 1 else list(a.v)
            if i == 0:
                parts.append(f"{av}")
            elif i == 1:
                parts.append("x" if a == field.one else f"{av}*x")
            else:
                parts.append(f"x^{i}" if a == field.one else f"{av}*x^{i}")
        return " + ".join(parts) if parts else "0"
    return str(c.v if field.m == 1 else list(c.v))


def format_cochain(z: Cochain, cx) -> str:
    if not z.terms:
        return "0"
    parts = []
    for m in sorted(z.terms):
        parts.append(f"({coeff_repr(z.terms[m], cx.field)})*{format_monomial(m, cx.n)}")
    return " + ".join(parts)


# -- complexes from config ---------------------------------------------------------------


def build_complex(lie: str, label: str, n: int, p: int, ext: int = 1, epsilon=0):
    field = field_create(p, ext)
    if lie == "gl":
        cx = build_gl(n, field, p)
    elif lie == "ravenel":
        cx = build_deformed(n, p, field, BUNDLE if epsilon == "x" else epsilon)
    else:
        raise ValueError(f"unknown Lie model {lie!r}")
    if label != "full":
        cx = subcomplex(cx, {"cc": "critical"}.get(label, label))
    return cx


def basis_size(label: str, n: int, p: int) -> int:
    """Basis size of a configured complex, in closed form: no enumeration."""
    if label == "full":
        return 1 << (n * n)
    cc, fsc, _ = dims_by_class(n, p)
    return cc if label == "cc" else fsc


# -- dims ---------------------------------------------------------------------------------


def cmd_dims(args) -> int:
    fixtures = load_fixtures()
    cfg = {"cmd": "dims", "n_max": args.n_max, "p": args.p}
    rows = []
    ok = True
    for n in range(1, args.n_max + 1):
        p = args.p or TABLE_PRIMES.get(n)
        if p is None:
            p = _first_primes_above(2 * n * n, 1)[0]
        cc, fsc, full = dims_by_class(n, p)
        row = {
            "n": n, "p": p, "cc": cc, "fsc": fsc, "full": full,
            "cc_q": cc >> n, "fsc_q": fsc >> n, "full_q": full >> n,
        }
        exp = fixtures["dims_table"].get(str(n))
        expq = fixtures["dims_quotients"].get(str(n))
        if exp is not None and args.p is None:
            row["matches_expected"] = [cc, fsc, full] == exp and [
                cc >> n, fsc >> n, full >> n
            ] == expq
            ok = ok and row["matches_expected"]
        rows.append(row)
    csv_lines = ["n,p,cc,fsc,full,cc_q,fsc_q,full_q"]
    text = [f"{'n':>2} {'cc':>9} {'fsc':>9} {'full':>10}   {'cc/2^n':>7} {'fsc/2^n':>8} {'full/2^n':>9}"]
    for r in rows:
        csv_lines.append(
            f"{r['n']},{r['p']},{r['cc']},{r['fsc']},{r['full']},{r['cc_q']},{r['fsc_q']},{r['full_q']}"
        )
        suffix = "" if r.get("matches_expected", True) else "   MISMATCH"
        text.append(
            f"{r['n']:>2} {r['cc']:>9} {r['fsc']:>9} {r['full']:>10}   "
            f"{r['cc_q']:>7} {r['fsc_q']:>8} {r['full_q']:>9}{suffix}"
        )
    payload = {
        "config_hash": config_hash(cfg), "version": VERSION, "rows": rows,
        "csv": "\n".join(csv_lines) + "\n", "ok": ok,
    }
    emit(args, payload, text)
    return 0 if ok else 1


# -- betti ----------------------------------------------------------------------------------


def cmd_betti(args) -> int:
    epsilon = args.epsilon
    if epsilon == "x":
        raise UsageError("cohomology over F[x] is not computed directly; evaluate "
                         "a fiber (--epsilon k) or use the pages/monodromy commands")
    cfg = {
        "cmd": "betti", "lie": args.lie, "complex": args.complex, "n": args.n,
        "p": args.p, "ext": args.ext, "epsilon": epsilon,
        "schema_version": SCHEMA_VERSION,
    }
    key = config_hash(cfg)
    root = cache_root(args)
    cached = None if args.no_cache else cache_get(root, key, cfg)
    if cached is not None:
        rows = cached["rows"]
    else:
        size = basis_size(args.complex, args.n, args.p)
        if size > _SLOW_GATE and not args.slow:
            raise UsageError(f"refusing: {size} basis monomials exceeds the "
                             "default work cap; rerun with --slow to allow it")
        cx = build_complex(args.lie, args.complex, args.n, args.p, args.ext,
                           int(epsilon) if args.lie == "ravenel" else 1)
        table = betti(cx)
        rows = table.to_json_rows()
        if not args.no_cache:
            cache_put(root, key, {"schema_version": SCHEMA_VERSION,
                                  "config": cfg, "fingerprint": code_fingerprint(),
                                  "rows": rows})
    totals: dict[int, int] = {}
    for r in rows:
        totals[r["s"]] = totals.get(r["s"], 0) + r["dim"]
    payload = {
        "config_hash": key, "version": VERSION, "rows": rows,
        "totals_by_degree": {str(s): t for s, t in sorted(totals.items())},
        "grand_total": sum(totals.values()),
        "csv": "s,u,dim\n" + "\n".join(f"{r['s']},{r['u']},{r['dim']}" for r in rows) + "\n",
    }
    text = [f"betti of {args.lie}/{args.complex} n={args.n} p={args.p} "
            f"ext={args.ext} eps={epsilon}"]
    for s, t in sorted(totals.items()):
        text.append(f"  H^{s}: {t}")
    text.append(f"  total: {sum(totals.values())}")
    emit(args, payload, text)
    return 0


# -- verification suites ----------------------------------------------------------------------


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def suite_tables(args) -> list[dict]:
    fixtures = load_fixtures()
    checks = []
    for n in range(1, 6):
        got = list(dims_by_class(n, TABLE_PRIMES[n]))
        exp = fixtures["dims_table"][str(n)]
        expq = fixtures["dims_quotients"][str(n)]
        ok = got == exp and [x >> n for x in got] == expq
        checks.append(_check(f"dims n={n}", ok, f"got {got}, expected {exp}"))
    eul = fixtures["eulerian_digraph_counts"]
    cc_q = [dims_by_class(n, TABLE_PRIMES[n])[0] >> n for n in range(1, 6)]
    checks.append(_check("cc/2^n equals the labelled-digraph count sequence",
                         cc_q == eul, f"{cc_q}"))
    return checks


def suite_dd_zero(args) -> list[dict]:
    n = args.n or 3
    _require_enumerable(n, "verify dd-zero")
    primes = [args.p] if args.p else _first_primes_above(2 * n * n, 2)
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


def suite_containment(args) -> list[dict]:
    fixtures = load_fixtures()
    n = args.n or 4
    p = args.p or 2
    rep = containment_report(n, p)
    checks = [_check(f"containment scan n={n} p={p} completed", True,
                     f"holds={rep['holds']}"
                     + ("" if rep["holds"] else
                        f", witness {format_monomial(rep['witness'], n)}"))]
    known = fixtures["containment"]["known_failures"].get(f"{n},{p}")
    if known:
        from .exterior import first_subscript_sum, internal_degree

        _, mask = parse_monomial(known, n)
        is_wit = internal_degree(mask, n, p) == 0 and first_subscript_sum(mask, n) != 0
        checks.append(_check(
            f"known witness {known} is critical but outside the "
            "first-subscript complex", is_wit and not rep["holds"]))
    if n <= 3:
        checks.append(_check(f"containment holds for n={n} (any p)", rep["holds"]))
    return checks


def suite_model_kernel(args) -> list[dict]:
    n = args.n or 2
    checks = []
    if n == 2:
        p = args.p or 5
        field = field_create(p)
        cx = build_gl(2, field, p)
        h, _ = lambda_h_pair(cx, field.scalar(4) if p == 5 else
                             primitive_root_of_unity(field, 2))
        model = kernel_model(cx, laplacian(cx, h))
        cc = subcomplex(cx, "critical")
        same = all(model.basis(s) == cc.basis(s) for s in range(5))
        checks.append(_check("ker(dh+hd) equals the critical complex of gl_2", same))
        out = induced_map_rank(inclusion_map(model, cx))
        checks.append(_check("inclusion is a quasi-isomorphism",
                             out["quasi_isomorphism"]))
    elif n == 3:
        p = args.p or 7
        field = field_create(p, smallest_extension_degree(p, 3))
        cx = build_gl(3, field, p)
        w = primitive_root_of_unity(field, 3)
        h, _ = lambda_h_pair(cx, w)
        model = kernel_model(cx, laplacian(cx, h))
        cc = subcomplex(cx, "critical")
        same = all(model.basis(s) == cc.basis(s) for s in range(10))
        checks.append(_check("ker(dh+hd) equals the critical complex of gl_3", same))
        out = induced_map_rank(inclusion_map(model, cx))
        checks.append(_check("inclusion is a quasi-isomorphism",
                             out["quasi_isomorphism"]))
    elif n == 4:
        p = args.p or 13
        field = field_create(p, 2)
        cx = build_gl(4, field, p)
        out = critical_model(cx)
        cc = subcomplex(cx, "critical")
        same = all(out["model"].basis(s) == cc.basis(s) for s in range(17))
        checks.append(_check(
            "intersection of the cyclotomic-factor kernels equals the "
            "critical complex of gl_4", same,
            f"over GF({p}^2)"))
        t_cc = betti(cc)
        t_full = betti(cx)
        checks.append(_check(
            "critical and full complexes have equal Betti totals",
            t_cc.totals_by_degree() == t_full.totals_by_degree()
            and t_cc.grand_total() == 16))
    else:
        raise UsageError(f"model-kernel supports n = 2, 3, 4, not {n}")
    return checks


def suite_transport(args) -> list[dict]:
    from .gf import nth_roots

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
    field = field_create(5)
    ts = solve_h_diagonal(2, field, 1, 1, mode="all")
    checks.append(_check("unrestricted transports n=2 F_5: (q-1)^(n-1) of them",
                         len(ts) == 4))
    return checks


def suite_monodromy_fixed(args) -> list[dict]:
    from .exterior import first_subscript_sum, internal_degree

    checks = []
    for n in range(2, 5):
        conn = KummerConnection.sigma(n)
        fixed = t_fixed_masks(conn, n)
        expected = {m for m in range(1 << (n * n)) if first_subscript_sum(m, n) == 0}
        checks.append(_check(
            f"sigma-flavor fixed monomials = first-subscript basis, n={n}",
            fixed == expected, f"{len(fixed)} monomials"))
    for n, p in ((2, 11), (3, 7), (3, 19)):
        conn = KummerConnection.semilinear(n, p)
        fixed = t_fixed_masks(conn, n)
        expected = {m for m in range(1 << (n * n)) if internal_degree(m, n, p) == 0}
        checks.append(_check(
            f"semilinear-flavor fixed monomials = critical basis, n={n} p={p}",
            fixed == expected, f"{len(fixed)} monomials"))
    return checks


def suite_core_homogeneity(args) -> list[dict]:
    checks = []
    for n, p in ((2, 11), (3, 7)):
        field = field_create(p)
        core = core_build(build_bundle(n, p, field), KummerConnection.sigma(n))
        hom = core_homogeneity(core)
        checks.append(_check(
            f"sigma-flavor core is homogeneous, n={n}",
            core.closed and hom["holds"]))
    field = field_create(7)
    core = core_build(build_bundle(3, 7, field), KummerConnection.semilinear(3, 7))
    hom = core_homogeneity(core)
    witness_ok = (not hom["holds"]) and hom["witness"]["source"].startswith("h[3,")
    checks.append(_check(
        "semilinear-flavor core fails homogeneity at n=3 with a degree-1 "
        "witness", witness_ok,
        f"witness {hom['witness']}" if not hom["holds"] else ""))
    f5 = field_create(5)
    core1 = core_build(build_bundle(1, 5, f5), KummerConnection.sigma(1))
    checks.append(_check("height-1 core is homogeneous",
                         core_homogeneity(core1)["holds"]))
    return checks


def suite_collapse(args) -> list[dict]:
    n = args.n or 2
    _require_enumerable(n, "verify collapse")
    p = args.p or TABLE_PRIMES[n]
    field = field_create(p)
    gl = build_gl(n, field, p)
    fc = critical_block(filter_first_subscript(gl))
    report = run_pages(fc)
    checks = [_check(
        f"critical-block first-subscript spectral sequence collapses at E_1 "
        f"(n={n}, p={p})", report.collapse_page == 1,
        f"span {report.span}, no nonzero differentials"
        if report.collapse_page == 1 else
        f"nonzero differentials {report.nonzero_differentials()[:4]}")]
    cc0 = subcomplex(build_singular(n, p, field), "critical")
    cc1 = subcomplex(build_deformed(n, p, field, 1), "critical")
    t0, t1 = betti(cc0), betti(cc1)
    checks.append(_check(
        f"blockwise Betti equality of the critical complex at eps=0 and "
        f"eps=1 (n={n}, p={p})", t0.entries == t1.entries,
        f"totals {t0.totals_by_degree()}"))
    fixtures = load_fixtures()
    degs = fixtures["exterior_generator_degrees"][str(n)]
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


def suite_invariant_cycles(args) -> list[dict]:
    n = args.n or 2
    _require_enumerable(n, "verify invariant-cycles")
    p = args.p or TABLE_PRIMES[n]
    field = field_create(p)
    full0 = build_singular(n, p, field)
    cc0 = subcomplex(full0, "critical")
    fsc0 = subcomplex(full0, "fsc")
    fsc1 = subcomplex(build_deformed(n, p, field, 1), "fsc")
    c0, f0, f1 = (betti(cx).totals_by_degree() for cx in (cc0, fsc0, fsc1))
    # the singular fiber is read for the extended group (internal class 0);
    # FSC at eps=0 is not the x=0 fiber of the sigma core and may differ from
    # FSC at eps=1 (56 against 8 at n=3), so its table is detail only
    detail = (f"critical at 0: {c0}; FSC at 0: {f0} (total {sum(f0.values())}); "
              f"FSC at 1: {f1} (total {sum(f1.values())})")
    checks = [_check(
        f"dim H^s(critical at 0) = dim H^s(FSC at 1) for all s (n={n}, p={p})",
        c0 == f1, detail)]
    proj = monomial_projection(full0, fsc0.contains, fsc0)
    out = induced_map_rank(proj)
    checks.append(_check(
        f"the singular fiber surjects onto the fixed-point cohomology "
        f"(n={n}, p={p})", out["surjective_on_cohomology"]))
    return checks


SUITES = {
    "tables": suite_tables,
    "dd-zero": suite_dd_zero,
    "containment": suite_containment,
    "model-kernel": suite_model_kernel,
    "transport": suite_transport,
    "monodromy-fixed": suite_monodromy_fixed,
    "core-homogeneity": suite_core_homogeneity,
    "collapse": suite_collapse,
    "invariant-cycles": suite_invariant_cycles,
}


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; available: "
                         f"{', '.join(sorted(SUITES))}")
    cfg = {"cmd": "verify", "suite": args.suite, "n": args.n, "p": args.p}
    checks = SUITES[args.suite](args)
    ok = all(c["ok"] for c in checks)
    payload = {"config_hash": config_hash(cfg), "version": VERSION,
               "suite": args.suite, "checks": checks, "ok": ok}
    text = []
    for c in checks:
        mark = "PASS" if c["ok"] else "FAIL"
        detail = f"  ({c['detail']})" if c["detail"] else ""
        text.append(f"[{mark}] {c['name']}{detail}")
    text.append(f"suite {args.suite}: {'all checks passed' if ok else 'FAILURES'}")
    emit(args, payload, text)
    return 0 if ok else 1


# -- presentations -----------------------------------------------------------------------------


def _named_cochains(cx, gen_defs: dict) -> dict[str, Cochain]:
    out = {}
    for name, terms in gen_defs.items():
        z = Cochain(cx.n, {})
        for coeff, mono in terms:
            sign, mask = parse_monomial(mono, cx.n)
            c = cx.coefficient(coeff * sign)
            z = z + Cochain(cx.n, {mask: c})
        out[name] = z
    return out


def _eval_product(named: dict, prod: str, cx) -> Cochain:
    parts = prod.split("*")
    z = named[parts[0]]
    for name in parts[1:]:
        z = z.wedge(named[name], cx.ring_one)
    return z


def _eval_expr(named: dict, terms: list, cx) -> Cochain:
    total = Cochain(cx.n, {})
    for coeff, xpow, prod in terms:
        z = _eval_product(named, prod, cx)
        if cx.descriptor.is_bundle():
            c = Poly.x_power(cx.field, xpow, coeff)
        else:
            if xpow:
                raise ValueError("x-powers only make sense in bundle mode")
            c = cx.field.scalar(coeff)
        total = total + Cochain(cx.n, {m: cc * c for m, cc in z.terms.items()})
    return total


def cmd_presentations(args) -> int:
    n = args.n
    if n not in (1, 2, 3):
        raise UsageError("presentations are computed for heights 1-3")
    fixtures = load_fixtures()["presentations"][str(n)]
    cfg = {"cmd": "presentations", "n": n, "p": args.p}
    checks = []
    text = [fixtures["note"]]

    if n == 3:
        p = args.p or 19
        cx = build_bundle(3, p, field_create(p))
        named = _named_cochains(cx, fixtures["generators"])
        text.append("generators:")
        for name in sorted(named):
            text.append(f"  {name} = {format_cochain(named[name], cx)}")
        text.append("differentials (engine-computed):")
        for name, expected_terms in fixtures["differentials"].items():
            got = cx.d_cochain(named[name])
            expected = _eval_expr(named, expected_terms, cx)
            ok = got == expected
            checks.append(_check(f"d({name}) matches the stated formula", ok,
                                 format_cochain(got, cx) if not ok else ""))
            rhs = " + ".join(
                (f"({c})*x^{e}*{prod}" if e else f"({c})*{prod}")
                for c, e, prod in expected_terms) or "0"
            text.append(f"  d({name}) = {rhs}  [{'ok' if ok else 'MISMATCH'}]")
        text.append("relations (cochain level):")
        for rel in fixtures["relations"]:
            z = _eval_expr(named, rel, cx)
            desc = " + ".join(prod for _c, _e, prod in rel)
            checks.append(_check(f"relation {desc} = 0", not z))
            text.append(f"  {desc} = 0  [{'ok' if not z else 'MISMATCH'}]")

    elif n == 2:
        p = args.p or 11
        field = field_create(p)
        cx = build_singular(2, p, field)
        from .homology import Cohomology

        coh = Cohomology(cx)
        named = _named_cochains(cx, fixtures["generators"])
        text.append("generators:")
        for name in sorted(named):
            text.append(f"  {name} = {format_cochain(named[name], cx)}")
        for name in fixtures["cocycles"]:
            ok = not cx.d_cochain(named[name])
            checks.append(_check(f"{name} is a cocycle", ok))
        table = betti(cx)
        totals = {str(s): t for s, t in table.totals_by_degree().items()}
        ok = totals == fixtures["degree_totals"]
        checks.append(_check("cohomology dimensions per degree", ok, f"{totals}"))
        text.append(f"H* dimensions by degree: {totals}")
        text.append("relations in cohomology:")
        for rel in fixtures["cohomology_zero"]:
            z = _eval_expr(named, [[c, 0, prod] for c, prod in
                                   [(t[0], t[1]) for t in rel]], cx)
            red = coh.reduce_cocycle(z)
            desc = " + ".join(f"{c}*{prod}" if c != 1 else prod for c, prod in rel)
            checks.append(_check(f"[{desc}] = 0 in cohomology", not red))
            text.append(f"  {desc} = 0  [{'ok' if not red else 'MISMATCH'}]")
        for prod in fixtures["cohomology_nonzero"]:
            z = _eval_product(named, prod, cx)
            red = coh.reduce_cocycle(z)
            checks.append(_check(f"[{prod}] is nonzero in cohomology", bool(red)))
        for group in fixtures["independent_sets"]:
            vecs = []
            index: dict = {}
            for prod in group:
                red = coh.reduce_cocycle(_eval_product(named, prod, cx))
                vec = {}
                for ref, c in red.items():
                    vec[index.setdefault(ref, len(index))] = field.coding.encode(c)
                vecs.append(vec)
            checks.append(_check(
                f"classes {{{', '.join(group)}}} are linearly independent",
                matrix_rank(vecs, len(index), field) == len(group)))

    else:
        p = args.p or 3
        cx = build_singular(1, p, field_create(p))
        named = _named_cochains(cx, fixtures["generators"])
        ok = not cx.d_cochain(named["h11"])
        checks.append(_check("the single generator is a cocycle", ok))
        table = betti(cx)
        checks.append(_check(
            "cohomology is exterior on one degree-1 class",
            table.totals_by_degree() == {0: 1, 1: 1}))
        text.append("H*(height 1) = exterior algebra on [h[1,1]]")

    ok = all(c["ok"] for c in checks)
    payload = {"config_hash": config_hash(cfg), "version": VERSION,
               "n": n, "checks": checks, "ok": ok}
    for c in checks:
        text.append(f"[{'PASS' if c['ok'] else 'FAIL'}] {c['name']}")
    emit(args, payload, text)
    return 0 if ok else 1


# -- pages / monodromy ---------------------------------------------------------------------------


def cmd_pages(args) -> int:
    n, p = args.n, args.p
    _require_enumerable(n, "pages")
    cfg = {"cmd": "pages", "n": n, "p": p, "block": args.block, "r_max": args.r_max}
    field = field_create(p)
    gl = build_gl(n, field, p)
    fc = filter_first_subscript(gl)
    if args.block == "critical":
        fc = critical_block(fc)
    report = run_pages(fc, r_max=args.r_max)
    payload = {"config_hash": config_hash(cfg), "version": VERSION,
               **report.to_json()}
    text = [f"first-subscript spectral sequence of gl_{n}(F_{p}), "
            f"{args.block} block(s)"]
    text.append(f"filtration span {report.span}; collapse page: "
                f"{report.collapse_page}")
    nz = report.nonzero_differentials()
    text.append(f"nonzero differentials: {len(nz)}")
    for (r, s, t, u, v) in nz[:10]:
        text.append(f"  d_{r} at (s={s}, t={t}, u={u}) has rank {v}")
    einf = report.e_infinity_totals()
    text.append("E_infinity totals per (s, u): "
                + ", ".join(f"({s},{u})={v}" for (s, u), v in sorted(einf.items())))
    emit(args, payload, text)
    return 0


def _custom_connection(n: int, params: str | None) -> KummerConnection:
    """The connection of a --params file: {"params": [{"i", "j", "num",
    "den"}, ...]}, one entry per generator."""
    if params is None:
        raise UsageError("--flavor custom needs --params FILE")
    try:
        spec = json.loads(Path(params).read_text())
        return KummerConnection.custom(n, {
            (e["i"], e["j"]): Fraction(e["num"], e["den"]) for e in spec["params"]
        })
    except OSError as exc:
        raise UsageError(f"cannot read params file {params!r}: {exc.strerror or exc}")
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed params file {params!r}: "
                         f"{type(exc).__name__}: {exc}")


def cmd_monodromy(args) -> int:
    n, p = args.n, args.p
    _require_enumerable(n, "monodromy")
    cfg = {"cmd": "monodromy", "n": n, "p": p, "flavor": args.flavor,
           "which": args.which}
    field = field_create(p, args.ext)
    bundle = build_bundle(n, p, field)
    if args.flavor == "sigma":
        conn = KummerConnection.sigma(n)
    elif args.flavor == "semilinear":
        conn = KummerConnection.semilinear(n, p)
    else:
        conn = _custom_connection(n, args.params)
    text = [f"connection flavor {conn.flavor}, common denominator {conn.denominator}"]
    payload: dict = {"config_hash": config_hash(cfg), "version": VERSION,
                     "connection": conn.to_json()}
    if args.which == "medial":
        med = medial_build(bundle, conn)
        report = monodromy_ss(med, "medial", t_report=args.t_report)
        payload.update(report.to_json())
        text.append(f"medial layer: {sum(len(med.basis(s)) for s in range(n*n+1))} "
                    f"generators, min filtration {med.min_filtration()}")
    else:
        core = core_build(bundle, conn)
        hom = core_homogeneity(core)
        payload["closed"] = core.closed
        payload["homogeneous"] = hom["holds"]
        if not hom["holds"]:
            payload["witness"] = hom["witness"]
            text.append(f"core homogeneity fails: {hom['witness']}")
        else:
            text.append("core is homogeneous (differential preserves x-valuation)")
        if core.closed:
            report = monodromy_ss(core, "core", t_report=args.t_report)
            payload.update(report.to_json())
            text.append(f"x-adic spectral sequence collapse page: "
                        f"{report.collapse_page}")
            text.append(f"E_1 matches the smooth-fiber cohomology: "
                        f"{report.notes.get('e1_matches_smooth_fiber')}")
        else:
            payload["closure_failures"] = [
                {"source": format_monomial(m, n), "target": format_monomial(t, n),
                 "x_exponent": e}
                for m, t, e in core.closure_failures[:8]
            ]
            text.append("differential leaves the core; its spectral sequence "
                        "is undefined (this is a finding about the connection)")
    emit(args, payload, text)
    return 0


# -- argument parsing -------------------------------------------------------------------------------


def _integer(text: str, what: str, lo: int, hi: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what} must be an integer, got {text!r}")
    if value < lo or (hi is not None and value > hi):
        bounds = f"{lo}..{hi}" if hi is not None else f"at least {lo}"
        raise argparse.ArgumentTypeError(f"{what} must be {bounds}, got {value}")
    return value


def _height(text: str) -> int:
    return _integer(text, "n", 1, MAX_N)


def _prime(text: str) -> int:
    p = _integer(text, "p", 2)
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"p must be a prime, got {p}")
    return p


def _positive(text: str) -> int:
    return _integer(text, "value", 1)


def _epsilon(text: str) -> str:
    # kept as given: the string is part of the config hash
    if text != "x":
        try:
            int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"epsilon must be an integer or x, got {text!r}")
    return text


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabfold",
        description="Exact cohomology of the deformed exterior DGA family "
                    "over finite fields, with verification suites.",
    )
    parser.add_argument("--version", action="version", version=f"stabfold {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["text", "json", "csv"], default="text")
        p.add_argument("--cache-dir", default=None)

    p_dims = sub.add_parser("dims", help="dimension tables for n = 1..n-max")
    p_dims.add_argument("--n-max", type=lambda t: _integer(t, "n-max", 1, MAX_N),
                        default=5)
    p_dims.add_argument("--p", type=_prime, default=None,
                        help="grading prime (default: smallest prime > 2n^2 per row)")
    common(p_dims)
    p_dims.set_defaults(fn=cmd_dims)

    p_betti = sub.add_parser("betti", help="Betti table of a configured complex")
    p_betti.add_argument("--lie", choices=["ravenel", "gl"], required=True)
    p_betti.add_argument("--complex", choices=["full", "cc", "fsc"],
                         dest="complex", default="full")
    p_betti.add_argument("--n", type=_height, required=True)
    p_betti.add_argument("--p", type=_prime, required=True)
    p_betti.add_argument("--ext", type=_positive, default=1)
    p_betti.add_argument("--epsilon", type=_epsilon, default="0",
                         help="deformation parameter: an integer, or x (ravenel only)")
    p_betti.add_argument("--slow", action="store_true",
                         help="allow jobs above the default size gate")
    p_betti.add_argument("--no-cache", action="store_true")
    common(p_betti)
    p_betti.set_defaults(fn=cmd_betti)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(sorted(SUITES))}")
    p_verify.add_argument("--n", type=_height, default=None)
    p_verify.add_argument("--p", type=_prime, default=None)
    common(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_pres = sub.add_parser("presentations",
                            help="worked generator/relation tables, heights 1-3")
    p_pres.add_argument("--n", type=_height, required=True)
    p_pres.add_argument("--p", type=_prime, default=None)
    common(p_pres)
    p_pres.set_defaults(fn=cmd_presentations)

    p_pages = sub.add_parser("pages", help="first-subscript spectral sequence")
    p_pages.add_argument("--n", type=_height, required=True)
    p_pages.add_argument("--p", type=_prime, required=True)
    p_pages.add_argument("--block", choices=["critical", "full"], default="critical")
    p_pages.add_argument("--r-max", type=lambda t: _integer(t, "r-max", 1),
                         default=None)
    common(p_pages)
    p_pages.set_defaults(fn=cmd_pages)

    p_mono = sub.add_parser("monodromy",
                            help="core/medial structure of a connection")
    p_mono.add_argument("--n", type=_height, required=True)
    p_mono.add_argument("--p", type=_prime, required=True)
    p_mono.add_argument("--ext", type=_positive, default=1)
    p_mono.add_argument("--flavor", choices=["sigma", "semilinear", "custom"],
                        default="sigma")
    p_mono.add_argument("--params", default=None,
                        help="JSON file with custom connection parameters")
    p_mono.add_argument("--which", choices=["core", "medial"], default="core")
    p_mono.add_argument("--t-report", type=lambda t: _integer(t, "t-report", 0),
                        default=3)
    common(p_mono)
    p_mono.set_defaults(fn=cmd_monodromy)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
